"""Which guards of ``src/nilcert`` decide a Tier-1 outcome: each dropped in turn.

    python3 tools/guards.py > GUARDS_<issue>.json

Run from a checkout; it takes no options.  A guard is an ``if`` with no
``else`` whose body is a single ``raise``.  ``HEAD`` is exported with
``git archive`` into one temporary copy per worker, so the working tree is
never run.  Tier-1 first runs unmutated in one copy, and the probe stops
there, with exit code 1 and no document, when any test fails: no mutant's
outcome would mean anything.

Then, two at a time, each guard's condition is replaced by ``False``, every
other byte of its file unchanged; Tier-1 runs in that copy as
``python -m pytest -q -x -p no:cacheprovider --hypothesis-profile=ci``; and
the file is restored.  The mutant is ``killed`` when a test fails (the
first one is named), ``timed out`` when the run takes more than 180 s, or
else ``survived``.  Each run starts in a session of its own, and a timeout
kills its whole process group, so no CLI child outlives it.

A guard is named by module, the function around it and its ``raise``
statement, as ``tools/coverage.py`` names statements, and
``tools/coverage_labels.json`` is looked up by that ``raise``: a label on a
survivor says why its check stays although no test decides on it.

The output is one JSON document: per guard its outcome, seconds, killing
test and label; the survivors with no label; the Python and pytest
versions; the unmutated run's seconds and the wall time.  The probe is not
a gate: it exits 0 whatever the mutants' outcomes.  It cannot see a check
of another form, such as a ``return False``, an ``else`` branch or an
``assert``.
"""

from __future__ import annotations

import ast
import importlib.util
import json
import os
import pathlib
import platform
import queue
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKERS = 2
TIMEOUT_S = 180
PYTEST = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--hypothesis-profile=ci"]

_spec = importlib.util.spec_from_file_location("tools_coverage", pathlib.Path(__file__).with_name("coverage.py"))
coverage = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(coverage)


def guards(source: str) -> list[dict]:
    """Each guard of a module, in line order: the first line of its ``if``,
    the qualified name of the function around it, the first line of its
    ``raise`` statement (stripped) and the condition's span as (first line,
    column, last line, column), columns in UTF-8 bytes as ``ast`` counts them."""
    _, scope, _ = coverage.statements(source)
    text = source.splitlines()
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.If) and not node.orelse and len(node.body) == 1 \
                and isinstance(node.body[0], ast.Raise):
            line, test = node.body[0].lineno, node.test
            found.append({"line": node.lineno, "function": scope[line], "statement": text[line - 1].strip(),
                          "condition": (test.lineno, test.col_offset, test.end_lineno, test.end_col_offset)})
    return sorted(found, key=lambda guard: guard["line"])


def dropped(source: bytes, condition: tuple[int, int, int, int]) -> bytes:
    """``source`` with the span ``condition`` (as ``guards`` gives it) replaced by ``False``."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    first, col, last, end_col = condition
    return source[:starts[first - 1] + col] + b"False" + source[starts[last - 1] + end_col:]


def first_failure(output: str) -> str | None:
    """The node id on the first ``FAILED`` or ``ERROR`` line of pytest's short summary."""
    for line in output.splitlines():
        kind, _, rest = line.partition(" ")
        if kind in ("FAILED", "ERROR") and rest:
            return rest.split(" - ", 1)[0]
    return None


def tier1(copy: pathlib.Path) -> dict:
    """Tier-1 in ``copy``: its outcome, seconds and first failing test."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(copy / "src"), os.environ.get("PYTHONPATH")])))
    started = time.perf_counter()
    proc = subprocess.Popen(PYTEST, cwd=copy, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True, start_new_session=True)
    try:
        output, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"outcome": "timed out", "seconds": round(time.perf_counter() - started, 1), "test": None}
    seconds = round(time.perf_counter() - started, 1)
    if proc.returncode == 0:
        return {"outcome": "survived", "seconds": seconds, "test": None}
    return {"outcome": "killed", "seconds": seconds, "test": first_failure(output)}


def mutant(copy: pathlib.Path, module: str, guard: dict) -> dict:
    """Tier-1 in ``copy`` with ``guard`` of ``module`` dropped; the file is restored after."""
    path = copy / "src" / module
    original = path.read_bytes()
    path.write_bytes(dropped(original, guard["condition"]))
    try:
        result = tier1(copy)
    finally:
        path.write_bytes(original)
    entry = {"module": module, "line": guard["line"], "function": guard["function"],
             "statement": guard["statement"], **result}
    print("%(module)s:%(line)d %(outcome)s in %(seconds)s s %(test)s" % entry, file=sys.stderr, flush=True)
    return entry


def build_report(results: list[dict], label_list: list[dict]) -> dict:
    """Each result with its label, if ``tools/coverage_labels.json`` has one for
    its ``raise``, the count per outcome, and the survivors with no label."""
    labels = {(e["module"], e["function"], e["statement"]): {"label": e["label"], "reason": e["reason"]}
              for e in label_list}
    entries = [dict(r, **labels.get((r["module"], r["function"], r["statement"]), {})) for r in results]
    counts: dict[str, int] = {}
    for entry in entries:
        counts[entry["outcome"]] = counts.get(entry["outcome"], 0) + 1
    return {"guards": entries, "counts": counts,
            "unlabelled_survivors": [e for e in entries if e["outcome"] == "survived" and "label" not in e]}


def main() -> int:
    import pytest

    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()
    started = time.perf_counter()
    archive = subprocess.run(["git", "archive", "HEAD"], cwd=ROOT, check=True, capture_output=True).stdout
    with tempfile.TemporaryDirectory(prefix="nilcert-guards-") as tmp:
        trees = [pathlib.Path(tmp).resolve() / ("tree-%d" % i) for i in range(WORKERS)]
        copies: queue.Queue[pathlib.Path] = queue.Queue()
        for copy in trees:
            copy.mkdir()
            subprocess.run(["tar", "-x", "-C", str(copy)], input=archive, check=True)
            copies.put(copy)
        first = trees[0]
        unmutated = tier1(first)
        if unmutated["outcome"] != "survived":
            print("unmutated Tier-1 %(outcome)s after %(seconds)s s: %(test)s" % unmutated, file=sys.stderr)
            return 1
        sources = {"nilcert/" + p.name: p.read_text() for p in sorted((first / "src" / "nilcert").glob("*.py"))}
        labels = json.loads((first / "tools" / "coverage_labels.json").read_text())

        def run(item: tuple[str, dict]) -> dict:
            copy = copies.get()
            try:
                return mutant(copy, *item)
            finally:
                copies.put(copy)

        work = [(module, guard) for module, source in sources.items() for guard in guards(source)]
        with ThreadPoolExecutor(WORKERS) as pool:
            results = list(pool.map(run, work))
    report = {
        "head": head,
        "python": platform.python_version(),
        "pytest": pytest.__version__,
        "command": " ".join(["python"] + PYTEST[1:]),
        "workers": WORKERS,
        "timeout_s": TIMEOUT_S,
        "unmutated_s": unmutated["seconds"],
        "wall_s": round(time.perf_counter() - started, 1),
        **build_report(results, labels),
    }
    print(json.dumps(report, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
