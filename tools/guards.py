"""Which branches of ``src/nilcert`` decide an outcome: each shortcut taken away in turn.

    python3 tools/guards.py > SHORTCUTS_<issue>.json

Run from a checkout; it takes no options.  A site is one branch, found by
``sites`` in every module, and each mutation takes its shortcut away:

- a guard, an ``if`` with no ``else`` whose body is a single ``raise``, and
  an early exit, an ``if`` with no ``else`` whose body ends in ``return``:
  the condition becomes ``False``;
- any other ``if`` with no ``else``, which wraps other work: the condition
  becomes ``True``;
- an ``if``/``else`` (an ``elif`` included) and a conditional expression:
  the condition is tried both ways, as two mutants;
- an operand of ``or`` or ``and`` other than the last: it becomes ``False``
  after ``or`` and ``True`` after ``and``.

``HEAD`` is exported with ``git archive`` into one temporary copy per
worker, so the working tree is never run; the export, the child runner and
the label table are those of ``tools/coverage.py``.  The unmutated copy
runs first, and the probe stops there, with exit code 1 and no document,
unless it ends ``same bytes``: no mutant's outcome would mean anything.

Then, two at a time, each mutant's file is written with one span replaced,
every other byte unchanged; Tier-1 runs in that copy as ``python -m pytest
-q -p no:cacheprovider --hypothesis-profile=ci -x``, and when it passes
``tools/identity.py`` runs there too; and the file is restored.  A mutant
ends one of four ways: ``killed`` when a test fails (the first one is
named); ``timed out`` when either run takes more than 180 s; ``same
bytes`` when the identity digests still match ``tools/identity.json``; or
``different bytes`` when one differs, which no test notices.  Each run
starts in a session of its own, and a timeout kills its whole process
group, so no CLI child outlives it.

A site is named by module, the function around it and the first line of
its statement, as ``tools/coverage.py`` names statements (a guard, and
every site in its condition, by its ``raise``; any other ``if`` by its own
line), and ``tools/coverage_labels.json`` is looked up by that statement:
a label on a survivor says why the branch stays although no outcome
depends on it, and it covers every site of that statement.

The output is one JSON document: per mutant its kind, mutation, outcome,
seconds, killing test and label; the count per outcome and per kind; the
survivors with no label; the Python and pytest versions; the unmutated
run's seconds and the wall time.  The probe is not a gate: it exits 0
whatever the mutants' outcomes.
"""

from __future__ import annotations

import ast
import importlib.util
import json
import pathlib
import platform
import queue
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

WORKERS = 2
TIMEOUT_S = 180

# What each kind of site's span is replaced by, one mutant per value.
MUTATIONS = {
    "guard": ("False",),
    "early exit": ("False",),
    "if": ("True",),
    "if/else": ("True", "False"),
    "conditional expression": ("True", "False"),
    "or operand": ("False",),
    "and operand": ("True",),
}
SURVIVED = ("same bytes", "different bytes")

_spec = importlib.util.spec_from_file_location("tools_coverage", pathlib.Path(__file__).with_name("coverage.py"))
coverage = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(coverage)


def _kind(node: ast.AST) -> str | None:
    if isinstance(node, ast.IfExp):
        return "conditional expression"
    if not isinstance(node, ast.If):
        return None
    if node.orelse:
        return "if/else"
    if len(node.body) == 1 and isinstance(node.body[0], ast.Raise):
        return "guard"
    return "early exit" if isinstance(node.body[-1], ast.Return) else "if"


def sites(source: str) -> list[dict]:
    """Each site of a module, in source order: its kind, the first line of
    the branch (of the operand, for ``or`` and ``and``), the qualified name
    of the function around it, the first line of its statement (stripped)
    and the span replaced, as (first line, column, last line, column),
    columns in UTF-8 bytes as ``ast`` counts them."""
    owner, scope, _ = coverage.statements(source)
    text = source.splitlines()
    tree = ast.parse(source)
    # A guard, and every site in its condition, is named by its raise.
    raises = {node.lineno: node.body[0].lineno for node in ast.walk(tree) if _kind(node) == "guard"}

    def site(kind: str, node: ast.AST, span: ast.AST, statement: int) -> dict:
        statement = raises.get(statement, statement)
        return {"kind": kind, "line": node.lineno, "function": scope[statement],
                "statement": text[statement - 1].strip(),
                "span": (span.lineno, span.col_offset, span.end_lineno, span.end_col_offset)}

    found = []
    for node in ast.walk(tree):
        kind = _kind(node)
        if kind:
            found.append(site(kind, node, node.test, owner[node.test.lineno]))
        elif isinstance(node, ast.BoolOp):
            kind = "or operand" if isinstance(node.op, ast.Or) else "and operand"
            found.extend(site(kind, value, value, owner[value.lineno]) for value in node.values[:-1])
    return sorted(found, key=lambda s: s["span"])


def mutated(source: bytes, span: tuple[int, int, int, int], value: str) -> bytes:
    """``source`` with ``span`` (as ``sites`` gives it) replaced by ``value``."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    first, col, last, end_col = span
    return source[:starts[first - 1] + col] + value.encode() + source[starts[last - 1] + end_col:]


def outcome(copy: pathlib.Path) -> dict:
    """Tier-1 with ``-x`` in ``copy``, then, if it passes, ``tools/identity.py``:
    the outcome, the seconds of both and the first failing test."""
    code, output, seconds = coverage.tier1(copy, ["-x"], TIMEOUT_S)
    if code is None:
        return {"outcome": "timed out", "seconds": seconds, "test": None}
    if code != 0:
        failed = coverage.summary(output)[1]
        return {"outcome": "killed", "seconds": seconds, "test": failed[0] if failed else None}
    code, _, more = coverage.run(copy, ["tools/identity.py"], TIMEOUT_S)
    verdict = "timed out" if code is None else SURVIVED[code != 0]
    return {"outcome": verdict, "seconds": round(seconds + more, 1), "test": None}


def mutant(copy: pathlib.Path, module: str, site: dict, value: str) -> dict:
    """The outcome in ``copy`` with ``site`` of ``module`` replaced by ``value``;
    the file is restored after."""
    path = copy / "src" / module
    original = path.read_bytes()
    path.write_bytes(mutated(original, site["span"], value))
    try:
        result = outcome(copy)
    finally:
        path.write_bytes(original)
    entry = {"module": module, "line": site["line"], "function": site["function"],
             "statement": site["statement"], "kind": site["kind"], "mutation": value, **result}
    print("%(module)s:%(line)d %(kind)s -> %(mutation)s: %(outcome)s in %(seconds)s s %(test)s" % entry,
          file=sys.stderr, flush=True)
    return entry


def build_report(results: list[dict], label_list: list[dict]) -> dict:
    """Each result with its label, if ``tools/coverage_labels.json`` has one for
    its statement, the count per outcome and per kind, and the survivors with
    no label."""
    labels = coverage.label_table(label_list)
    entries = [dict(r, **labels.get((r["module"], r["function"], r["statement"]), {})) for r in results]
    counts: dict[str, int] = {}
    kinds: dict[str, dict[str, int]] = {}
    for entry in entries:
        counts[entry["outcome"]] = counts.get(entry["outcome"], 0) + 1
        kind = kinds.setdefault(entry["kind"], {})
        kind[entry["outcome"]] = kind.get(entry["outcome"], 0) + 1
    return {"guards": entries, "counts": counts, "kinds": kinds,
            "unlabelled_survivors": [e for e in entries if e["outcome"] in SURVIVED and "label" not in e]}


def main() -> int:
    import pytest

    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="nilcert-guards-") as tmp:
        trees = [pathlib.Path(tmp).resolve() / ("tree-%d" % i) for i in range(WORKERS)]
        copies: queue.Queue[pathlib.Path] = queue.Queue()
        for copy in trees:
            head = coverage.export("HEAD", copy)
            copies.put(copy)
        first = trees[0]
        unmutated = outcome(first)
        if unmutated["outcome"] != "same bytes":
            print("unmutated run %(outcome)s after %(seconds)s s: %(test)s" % unmutated, file=sys.stderr)
            return 1
        sources = {"nilcert/" + p.name: p.read_text() for p in sorted((first / "src" / "nilcert").glob("*.py"))}
        labels = json.loads((first / "tools" / "coverage_labels.json").read_text())

        def run(item: tuple[str, dict, str]) -> dict:
            copy = copies.get()
            try:
                return mutant(copy, *item)
            finally:
                copies.put(copy)

        work = [(module, site, value) for module, source in sources.items()
                for site in sites(source) for value in MUTATIONS[site["kind"]]]
        with ThreadPoolExecutor(WORKERS) as pool:
            results = list(pool.map(run, work))
    report = {
        "head": head,
        "python": platform.python_version(),
        "pytest": pytest.__version__,
        "command": " ".join(["python", *coverage.PYTEST, "-x"]) + "; python tools/identity.py",
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
