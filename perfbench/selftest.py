"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py        # or: python3 -m pytest perfbench/selftest.py

Runs every workload at a tiny size and requires zero failures, shows that a
corrupted expected value is caught, that one seed always gives the same
inputs, that the reference routine never imports nilcert, that the tracer
rebinds every copy of a traced name and leaves the output bytes unchanged,
and that BENCHMARK.json lists exactly the metrics `run.py` prints.
"""

from __future__ import annotations

import argparse
import copy
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _tiny(name, seed=7):
    return run.setup(name, seed, tiny=True)


def _play(wl, items) -> run.Outcome:
    out = run.Outcome(wl, items)
    for idx in range(len(items)):
        out.run_op(idx)
    out.check_all()
    return out


def test_tiny_rounds_pass():
    for name in workloads.WORKLOADS:
        wl, items = _tiny(name)
        out = _play(wl, items)
        assert out.attempted == len(items) and out.failed == 0, (name, out.errors)


def _bump_k(meta):
    meta["k"] += 1


def _double_index(meta):
    meta["index"] *= 2


def _more_orbits(meta):
    meta["orbits"] += 1


def _more_found(meta):
    meta["count"] += 1


def _other_minkowski(meta):
    meta["argv"] = ["minkowski", "--n", str(int(meta["argv"][2]) + 1)]


# workload -> (kind of the item to corrupt, corruption of its expected value)
CORRUPTIONS = {
    "tower": ("build", _bump_k),
    "series": ("heis", _double_index),
    "cohomology": ("free", _more_orbits),
    "intermediates": ("pair", _more_found),
    "cli": ("minkowski", _other_minkowski),
}


def test_corrupted_expectation_fails():
    for name, (kind, corrupt) in CORRUPTIONS.items():
        wl, items = _tiny(name)
        items = copy.deepcopy(items)
        victim = next(item for item in items if item["kind"] == kind)
        corrupt(victim["meta"])
        out = _play(wl, items)
        assert out.failed / out.attempted > 0, name


def test_seed_fixes_the_inputs():
    for name, cls in workloads.WORKLOADS.items():
        digests = [
            run.input_digest(cls(str(ROOT)).make_round(random.Random("%s:%d" % (name, seed))))
            for seed in (5, 5, 6)
        ]
        assert digests[0] == digests[1] != digests[2], name


def _original_codes() -> dict:
    """Code object of each traced function -> its span name."""
    codes = {}
    for module, attr in tracer.TRACED:
        obj = sys.modules["nilcert." + module]
        for part in attr.split("."):
            obj = obj.__dict__[part] if isinstance(obj, type) else getattr(obj, part)
        fn = obj.__func__ if isinstance(obj, staticmethod) else obj
        codes[fn.__code__] = tracer.span_name(module, attr)
    return codes


def test_tracer_patches_every_binding():
    """Each traced name's span count equals a profiler's count of its code."""
    for name in workloads.WORKLOADS:
        wl, items = _tiny(name)
        codes = _original_codes()
        counts = dict.fromkeys(codes.values(), 0)

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in codes:
                counts[codes[frame.f_code]] += 1

        trc = tracer.Tracer()
        trc.install()
        try:
            assert trc.unpatched() == []
            sys.setprofile(profile)
            try:
                for item in items:
                    wl.run(item)
                    if name == "cli":
                        wl.run_in_process(json.loads(item["input"]))
                    trc.end_op()
            finally:
                sys.setprofile(None)
        finally:
            trc.uninstall()
        spans = {key: stats.calls for key, stats in trc.stats.items()}
        assert spans == counts, (name, {k: (spans[k], counts[k]) for k in spans if spans[k] != counts[k]})
        assert sum(counts.values()) > 0, name


def test_traced_run_reproduces_bytes():
    for name in workloads.WORKLOADS:
        wl, items = _tiny(name)
        args = argparse.Namespace(workload=name, seconds=0.0)
        probes = {"cli.interpreter_s": 0.0, "cli.import_s": 0.0}
        outcome, metrics, _ = run.traced(args, wl, items, probes)
        assert outcome.failed == 0, (name, outcome.errors)
        assert [m for m, _, _ in tracer.PER_LAYER] == list(metrics), name


def test_p90_needs_ten_samples_beyond():
    assert run.quantile_with_tail([float(x) for x in range(100)], 0.9) == 89.0
    try:
        run.quantile_with_tail([float(x) for x in range(99)], 0.9)
    except RuntimeError:
        return
    raise AssertionError("p90 over 99 samples was reported")


def test_reference_routine_leaves_nilcert_alone():
    # The reference unit must not move when the library changes.
    probe = ("import sys; sys.path.insert(0, 'perfbench'); import run; run.reference_s(); "
             "sys.exit(any(m.split('.')[0] == 'nilcert' for m in sys.modules))")
    proc = subprocess.run([sys.executable, "-B", "-c", probe], cwd=ROOT, timeout=120)
    assert proc.returncode == 0, "reference_s imported nilcert"


def test_benchmark_json_matches_run_py():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracer.PER_LAYER
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, unit in run.END_TO_END]


def test_refuses_a_tree_without_sources():
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "tower", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode != 0 and '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print("ok", name, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
