"""nilcert benchmark runner.

    python3 perfbench/run.py --workload series --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ``src``.  With
``--trace 0`` the run measures the end-to-end metrics of one workload: a
closed loop with a single client, in one process and one thread, that
repeats whole rounds of seeded ops until ``--seconds`` have passed and at
least ``MIN_OPS`` ops are done (so the p90 has ten samples beyond it).  Op
times are gated in reference units: multiples of the time of a fixed routine
that does not touch nilcert, run between the ops (see ``reference_for``).  With
``--trace 1`` it runs one untraced round, then the same round under the span
tracer until ``--seconds`` have passed, checks that both give the same bytes,
and reports the per-layer metrics.

Every output is checked after the timed code.  The last stdout line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it record the environment and print each
metric by name with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave no __pycache__ for the children to find

MIN_OPS = 100
SETUP_PROBES = 9
INTERPRETER_PROBES = 5
REF_BLOCK_S = 0.5  # the reference routine runs again once this much op time has passed

# The end-to-end metrics of an untraced run, with their units.  Op times are
# in `ref`, multiples of the median pass of the workload's reference routine
# in the same run.  The wall-clock figures (ops_per_s, op_p50_ms, op_p90_ms) and
# fail_ratio are printed too but not gated: wall time moves with the host's
# speed far more than any bound (see README), and fail_ratio is 0 on a
# correct run, so the result line carries it as `attempted` and `failed`.
END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_ref", "op/ref"),
    ("op_p50_ref", "ref"),
    ("op_p90_ref", "ref"),
    ("peak_rss_mb", "MB"),
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set the workload up, print 'ready' and exit (used to time set-up)")
    return p.parse_args(argv)


def setup(name: str, seed: int, tiny: bool = False):
    """Import nilcert, generate the round and warm up: the work setup_s times."""
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("NILCERT_MAX_INDEX", None)
    import nilcert  # noqa: F401
    import workloads

    wl = workloads.WORKLOADS[name](str(ROOT))
    items = wl.make_round(random.Random("%s:%d" % (name, seed)), tiny=tiny)
    wl.warmup()
    return wl, items


# ---------------------------------------------------------------------------
# Reference routine
# ---------------------------------------------------------------------------

class _Reference:
    """Fixed inputs of the reference routine, made once per process."""

    def __init__(self):
        import refmath

        rng = random.Random(0)
        self.refmath = refmath
        self.matrices = [refmath.random_unimodular(rng, 6, steps=12)[0] for _ in range(4)]
        self.text = json.dumps([[str(rng.randint(-10**6, 10**6)) for _ in range(8)] for _ in range(40)])
        self.keys = [rng.random() for _ in range(4000)]


_REFERENCE = None


def reference_s() -> float:
    """Seconds for one pass of the reference routine, about 7 ms of the
    three kinds of work a nilcert op does: Hermite forms and products of
    fixed 6 x 6 integer matrices through ``refmath``, parsing a JSON table
    of decimal strings into ints, and building, sorting and indexing a few
    thousand small tuples.  It never calls nilcert, so a change to the
    library leaves it alone, while a slow phase of the host slows it with
    the ops next to it."""
    global _REFERENCE
    if _REFERENCE is None:
        _REFERENCE = _Reference()
    ref = _REFERENCE
    t0 = time.perf_counter()
    for _ in range(5):
        for m in ref.matrices:
            ref.refmath.hermite(ref.refmath.matmul(m, m))
            ref.refmath.index(m, 6)
    for _ in range(10):
        rows = [[int(x) for x in row] for row in json.loads(ref.text)]
        sum(x * i for i, row in enumerate(rows) for x in row)
    pairs = sorted((k, i) for i, k in enumerate(ref.keys))
    {i: k for k, i in pairs}
    return time.perf_counter() - t0


def reference_for(wl):
    """The reference routine of a workload.  A `cli` op is mostly the start
    of a child interpreter, which the in-process routine follows poorly, so
    there one pass is the start of a bare pinned child (`python -c pass`)."""
    if wl.name == "cli":
        return lambda: timed_child([sys.executable, "-c", "pass"], wl.env)
    return reference_s


def input_digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(item["input"].encode())
        h.update(b"\n")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def timed_child(argv, env, ready_line=False) -> float:
    """Seconds from spawning a pinned child until it exits, or until its
    first stdout line when ``ready_line`` is set."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    with proc.stdout:
        line = proc.stdout.readline() if ready_line else b"-"
        t1 = time.perf_counter()
        proc.stdout.read()
    code = proc.wait()
    if not ready_line:
        t1 = time.perf_counter()
    if code != 0 or not line.strip():
        raise RuntimeError("child %r failed with exit code %d" % (argv[1:4], code))
    return t1 - t0


def probe_medians(name, seed, env, trace) -> dict[str, float]:
    """Median set-up time and bare interpreter start; with ``trace``, also a
    fresh `import nilcert.cli`."""
    py = sys.executable
    setup_argv = [py, str(HERE / "run.py"), "--workload", name, "--seed", str(seed), "--setup-probe"]
    probes = {
        "setup_s": statistics.median(
            timed_child(setup_argv, env, ready_line=True) for _ in range(SETUP_PROBES)),
        "cli.interpreter_s": statistics.median(
            timed_child([py, "-c", "pass"], env) for _ in range(INTERPRETER_PROBES)),
    }
    if trace:
        probes["cli.import_s"] = statistics.median(
            timed_child([py, "-c", "import nilcert.cli"], env) for _ in range(INTERPRETER_PROBES))
    return probes


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def environment(env, digest) -> dict:
    commit = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "nilcert").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "flags": {
            "optimize": sys.flags.optimize,
            "dont_write_bytecode": sys.flags.dont_write_bytecode,
            "int_max_str_digits": sys.flags.int_max_str_digits,
        },
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "child_env": {
            "PYTHONPATH": env["PYTHONPATH"],
            "PYTHONDONTWRITEBYTECODE": env["PYTHONDONTWRITEBYTECODE"],
            "NILCERT_MAX_INDEX": env.get("NILCERT_MAX_INDEX"),
        },
        # Children skip compiling nilcert when bytecode was left in src.
        "src_bytecode_cached": (ROOT / "src" / "nilcert" / "__pycache__").is_dir(),
        "input_sha256": digest,
    }


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


class Outcome:
    """Outputs, failures and latencies of the ops of one run."""

    def __init__(self, wl, items):
        self.wl = wl
        self.items = items
        self.first: dict[int, str] = {}
        self.bad: set[int] = set()
        self.errors: list[str] = []
        self.latencies: list[float] = []
        self.indices: list[int] = []
        self.sound: list[bool] = []

    def record(self, idx, output, latency):
        """Keep an op's latency; it is sound if it ran and repeated the
        bytes of the first run of the same input."""
        self.latencies.append(latency)
        self.indices.append(idx)
        if output is not None:
            self.first.setdefault(idx, output)
            if output != self.first[idx]:
                self.errors.append("op %d gave different bytes on a repeat" % idx)
        self.sound.append(output is not None and output == self.first[idx])

    def run_op(self, idx):
        t0 = time.perf_counter()
        try:
            output = self.wl.run(self.items[idx])
        except Exception as exc:  # a failed op is counted, not fatal
            output = None
            self.errors.append("op %d (%s): %s: %s" % (idx, self.items[idx]["kind"], type(exc).__name__, exc))
        latency = time.perf_counter() - t0
        self.record(idx, output, latency)
        return output, latency

    def check_all(self):
        for idx, output in self.first.items():
            try:
                self.wl.check(self.items[idx], output)
            except Exception as exc:  # any exception in a check is a failed check
                self.bad.add(idx)
                self.errors.append("check of op %d (%s): %s: %s" % (idx, self.items[idx]["kind"], type(exc).__name__, exc))

    def passed(self, positions) -> int:
        return sum(1 for p in positions if self.sound[p] and self.indices[p] not in self.bad)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return self.attempted - self.passed(range(self.attempted))


def timed_run(wl, items, seconds, reference) -> tuple[Outcome, list[float]]:
    """Whole rounds until ``seconds`` have passed and MIN_OPS ops are done.

    The reference routine runs before the first op and again after each
    block of ops that took REF_BLOCK_S (after every op, when ops are
    slower), so its passes sample the same phases of the host as the ops.
    Returns the outcome and the reference times."""
    for _ in range(3):
        reference()  # warm up
    out = Outcome(wl, items)
    refs = [reference()]
    start = mark = time.perf_counter()
    while True:
        for idx in range(len(items)):
            out.run_op(idx)
            if time.perf_counter() - mark >= REF_BLOCK_S:
                refs.append(reference())
                mark = time.perf_counter()
        if time.perf_counter() - start >= seconds and out.attempted >= MIN_OPS:
            return out, refs


def quantile_with_tail(samples, q) -> float:
    """Nearest-rank q-quantile; requires ten samples strictly beyond it."""
    ordered = sorted(samples)
    value = ordered[math.ceil(q * len(ordered)) - 1]
    if sum(1 for x in ordered if x > value) < 10:
        raise RuntimeError("fewer than ten samples beyond the p%d" % round(100 * q))
    return value


def end_to_end(args, wl, items, probes):
    outcome, refs = timed_run(wl, items, args.seconds, reference_for(wl))
    outcome.check_all()
    lat = outcome.latencies
    # One reference unit for the whole run: the median pass.  Single passes
    # jitter by about 20 % and that jitter is not shared with the op next to
    # them; what is shared is the slow or fast phase a whole run falls in.
    ref_unit = statistics.median(refs)
    scaled = [x / ref_unit for x in lat]
    passed = outcome.passed(range(outcome.attempted))
    if args.workload == "cli":
        rss_kb = wl.peak_child_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Throughput is taken per round and the median kept, so a few seconds
    # of interference from the host move it less than the mean would.
    n = len(items)
    rounds = outcome.attempted // n
    per_round = [outcome.passed(range(r * n, (r + 1) * n)) / sum(scaled[r * n:(r + 1) * n])
                 for r in range(rounds)]
    values = {
        "setup_s": probes["setup_s"],
        "ops_per_ref": statistics.median(per_round),
        "op_p50_ref": statistics.median(scaled),
        "op_p90_ref": quantile_with_tail(scaled, 0.9),
        "peak_rss_mb": rss_kb / 1024,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    shown = dict(
        metrics,
        fail_ratio=(outcome.failed / outcome.attempted, "ratio"),
        ops_per_s=(passed / sum(lat), "op/s"),
        op_p50_ms=(1000 * statistics.median(lat), "ms"),
        op_p90_ms=(1000 * quantile_with_tail(lat, 0.9), "ms"),
        ref_ms=(1000 * ref_unit, "ms"),
    )
    print("ops %d in %.2f s of op time (%d rounds of %d), %d reference passes"
          % (outcome.attempted, sum(lat), rounds, n, len(refs)))
    return outcome, metrics, shown


def traced(args, wl, items, probes):
    from tracer import PER_LAYER, Tracer

    cli = args.workload == "cli"
    run_s = 0.0

    def op(outcome, idx, tracer=None):
        nonlocal run_s
        output, latency = outcome.run_op(idx)
        if cli:
            # The in-process verb carries the library work of a CLI op.
            t0 = time.perf_counter()
            try:
                output = wl.run_in_process(json.loads(items[idx]["input"]))
            except Exception as exc:  # counted as a failed op
                outcome.bad.add(idx)
                outcome.errors.append("in-process op %d: %s" % (idx, exc))
            dt = time.perf_counter() - t0
            latency += dt
            if tracer is not None:
                run_s += dt
        if tracer is not None:
            tracer.end_op()
        return output, latency

    plain = Outcome(wl, items)
    plain_outputs = {}
    plain_time = 0.0
    for idx in range(len(items)):
        output, latency = op(plain, idx)
        plain_outputs[idx] = output
        plain_time += latency
    plain.check_all()

    wl.json_bytes = 0
    if cli:
        wl.stdout_bytes = 0
    tracer = Tracer()
    tracer.install()
    traced_outcome = Outcome(wl, items)
    traced_time = 0.0
    rounds = 0
    start = time.perf_counter()
    try:
        while rounds == 0 or time.perf_counter() - start < args.seconds:
            for idx in range(len(items)):
                output, latency = op(traced_outcome, idx, tracer)
                traced_time += latency
                if output != plain_outputs[idx]:
                    traced_outcome.bad.add(idx)
                    traced_outcome.errors.append("traced op %d differs from the untraced bytes" % idx)
            rounds += 1
    finally:
        tracer.uninstall()

    ops = traced_outcome.attempted
    layer = tracer.metrics(ops)
    layer.update({
        "certificates.json_bytes": wl.json_bytes / ops,
        "cli.interpreter_s": probes["cli.interpreter_s"],
        "cli.import_s": probes["cli.import_s"],
        "cli.run_s": run_s / ops,
        "cli.process_s": (sum(traced_outcome.latencies) / ops) if cli else 0.0,
        "cli.stdout_bytes": (wl.stdout_bytes / ops) if cli else 0.0,
        "trace.overhead_ratio": (traced_time / rounds) / plain_time,
    })
    metrics = {name: (layer[name], unit) for name, unit, _ in PER_LAYER}
    for idx in plain.bad:
        traced_outcome.bad.add(idx)
    traced_outcome.errors = plain.errors + traced_outcome.errors
    print("traced ops %d in %d rounds of %d" % (ops, rounds, len(items)))
    return traced_outcome, metrics, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "nilcert" / "__init__.py").is_file():
        sys.stderr.write("perfbench: no nilcert sources at %s; run from a full checkout\n" % (ROOT / "src"))
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write("perfbench: unknown workload %r (choose from %s)\n"
                         % (args.workload, ", ".join(workloads.WORKLOADS)))
        return 2
    wl, items = setup(args.workload, args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    env = workloads.child_env(str(ROOT))
    probes = probe_medians(args.workload, args.seed, env, args.trace)
    record = environment(env, input_digest(items))
    record["cli.interpreter_s"] = probes["cli.interpreter_s"]
    print("env " + json.dumps(record, sort_keys=True))

    run = traced if args.trace else end_to_end
    outcome, metrics, shown = run(args, wl, items, probes)
    for line in outcome.errors[:20]:
        print("error " + line)
    for name, (value, unit) in shown.items():
        print("%-52s %14.6g %s" % (name, value, unit))
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
