"""Alternating benchmark pairs of two revisions, recorded as ``BENCH_<issue>.json``.

    python3 tools/pairs.py --parent 1348456 --issue 36
    python3 tools/pairs.py --parent 1348456 --issue 36-rerun --against BENCH_36.json

Run from a checkout; the change measured is its ``HEAD``.  Both revisions
are exported with ``git archive`` (``tools/coverage.py``'s ``export``) into
one temporary directory, and each runs its own ``perfbench/run.py`` in a
child process, one at a time.  The plan is fixed: every workload that
``BENCHMARK.json`` lists, runs of its ``run_seconds``, and ten pairs on
seeds 601 to 610.  Pair ``i`` runs both trees on seed ``SEEDS[i]``, the
parent first in even pairs and the change first in odd ones, then times
three fresh ``run.py --setup-probe`` children per tree, alternating in the
same order (to the ready line, as ``setup_s`` is timed).

The file written holds every result line; per workload and end-to-end
metric the median and quartiles of each side, the change's relative shift
from the parent's median, the pairs the change won and a verdict; the
set-up probe medians; the machine, the environment, the load average at the
start and the end, the seeds and both revisions.  A change median inside
the parent's quartiles is ``unresolved``: on a shared host such a shift is
not told apart from noise.  With ``--against FILE`` the file also says,
per median, whether it lies inside the quartiles recorded in that earlier
file.  The workloads and run length, the metrics, their direction and
their bounds come from ``BENCHMARK.json``; nothing under ``perfbench/`` is
read or edited here.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PROBES = 3  # set-up probes per tree and pair
SEEDS = list(range(601, 611))  # one per pair

_spec = importlib.util.spec_from_file_location("tools_coverage", pathlib.Path(__file__).with_name("coverage.py"))
coverage = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(coverage)


def quartiles(values: list[float]) -> dict[str, float]:
    """Median and the two outer quartiles, as ``statistics.quantiles`` (inclusive) gives them."""
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload and metric, both sides' quartiles and the change's verdict.

    ``runs`` holds one entry per run: ``workload``, ``pair``, ``side`` and
    the ``result`` line.  ``metrics`` are the ``end_to_end`` entries of
    BENCHMARK.json: ``name``, ``better`` and ``bound``.
    """
    summary = {}
    for workload in sorted({run["workload"] for run in runs}):
        mine = [run for run in runs if run["workload"] == workload]
        by_pair = {}
        for run in mine:
            by_pair.setdefault(run["pair"], {})[run["side"]] = run["result"]
        pairs = [sides for _, sides in sorted(by_pair.items()) if len(sides) == 2]
        rows = {}
        for metric in metrics if pairs else ():
            name, lower = metric["name"], metric["better"] == "lower"
            values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
            parent, change = quartiles(values["parent"]), quartiles(values["change"])
            shift = change["median"] / parent["median"] - 1 if parent["median"] else 0.0
            worse = shift if lower else -shift
            if parent["q1"] <= change["median"] <= parent["q3"]:
                verdict = "unresolved"
            else:
                verdict = "worse" if worse > 0 else "better"
            rows[name] = {
                "parent": parent,
                "change": change,
                "shift": shift,
                "pairs_won": sum((c < p) if lower else (c > p)
                                 for p, c in zip(values["parent"], values["change"])),
                "pairs": len(pairs),
                "verdict": verdict,
                "past_bound": worse > metric["bound"],
            }
        summary[workload] = {
            "attempted": {side: sum(run["result"]["attempted"] for run in mine if run["side"] == side)
                          for side in SIDES},
            "failed": {side: sum(run["result"]["failed"] for run in mine if run["side"] == side)
                       for side in SIDES},
            "metrics": rows,
        }
    return summary


def against(summary: dict, recorded: dict) -> dict:
    """Per workload, metric and side: does this median lie inside the
    quartiles that an earlier file recorded for it?"""
    inside = {}
    for workload, rows in summary.items():
        for name, row in rows["metrics"].items():
            old = recorded.get(workload, {}).get("metrics", {}).get(name)
            if old is None:
                continue
            inside.setdefault(workload, {})[name] = {
                side: old[side]["q1"] <= row[side]["median"] <= old[side]["q3"] for side in SIDES
            }
    return inside


def run_once(tree: pathlib.Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` child in ``tree``: its last stdout line, parsed."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s in %s exited %d: %s" % (" ".join(argv[1:]), tree, proc.returncode,
                                                       proc.stderr.strip()[-500:]))
    return json.loads(lines[-1])


def setup_probe(tree: pathlib.Path, workload: str, seed: int) -> float:
    """Seconds from spawning ``run.py --setup-probe`` until it prints its ready line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    with proc.stdout:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.wait() != 0 or line.strip() != b"ready":
        raise RuntimeError("setup probe of %s in %s failed" % (workload, tree))
    return elapsed


def machine() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {"platform": platform.platform(), "cores": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version()}


def parse_args(argv, bench: dict):
    """The options, and the plan's workloads and seconds per run from ``bench`` (BENCHMARK.json)."""
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="the revision compared against")
    p.add_argument("--issue", required=True, help="names the output, BENCH_<issue>.json")
    p.add_argument("--against", help="an earlier BENCH file whose quartiles the medians are held to")
    args = p.parse_args(argv)
    args.workloads = [w["name"] for w in bench["workloads"]]
    args.seconds = float(bench["run_seconds"])
    return args


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, bench)
    started = os.getloadavg()
    runs = []
    probes = {workload: {side: [] for side in SIDES} for workload in args.workloads}
    with tempfile.TemporaryDirectory(prefix="nilcert-pairs-") as tmp:
        trees = {side: pathlib.Path(tmp) / side for side in SIDES}
        revisions = {"parent": coverage.export(args.parent, trees["parent"]),
                     "change": coverage.export("HEAD", trees["change"])}
        for workload in args.workloads:
            for pair, seed in enumerate(SEEDS):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    result = run_once(trees[side], workload, seed, args.seconds)
                    runs.append({"workload": workload, "pair": pair, "seed": seed, "side": side,
                                 "result": result})
                    print("%s pair %d %s: %s" % (workload, pair, side, json.dumps(result["metrics"])),
                          file=sys.stderr, flush=True)
                for _ in range(PROBES):
                    for side in order:
                        probes[workload][side].append(setup_probe(trees[side], workload, seed))
    summary = summarize(runs, bench["end_to_end"])
    record = {
        "issue": args.issue,
        "revisions": revisions,
        "workloads": args.workloads,
        "seeds": SEEDS,
        "seconds": args.seconds,
        "pairs": len(SEEDS),
        "machine": machine(),
        "environment": {
            "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "loadavg_start": started,
            "loadavg_end": os.getloadavg(),
        },
        "summary": summary,
        "setup_probe_s": {
            workload: {side: {"median": statistics.median(times) if times else None, "runs": times}
                       for side, times in sides.items()}
            for workload, sides in probes.items()
        },
        "runs": runs,
    }
    if args.against:
        recorded = json.loads(pathlib.Path(args.against).read_text())["summary"]
        record["against"] = {"file": args.against, "inside": against(summary, recorded)}
    (ROOT / ("BENCH_%s.json" % args.issue)).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(summary, sort_keys=True))
    return 0 if all(row["failed"][side] == 0 for row in summary.values() for side in SIDES) else 1


if __name__ == "__main__":
    sys.exit(main())
