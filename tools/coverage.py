"""Which lines and ``raise`` statements of ``src/nilcert`` the Tier-1 tests reach.

    python3 tools/coverage.py > COVERAGE_<issue>.json

Run from a checkout; it takes no options.  ``HEAD`` is exported with
``git archive`` into a temporary directory, so the working tree is never
run, and Tier-1 runs there in this process (the CI form, with
``--hypothesis-profile=ci``) under a ``sys.settrace`` hook that follows only
frames whose code lies under the copy's ``src/nilcert``.

Children that a test starts with the copy's ``src`` on their ``PYTHONPATH``,
such as ``python -m nilcert.cli``, are followed as well: a
``sitecustomize.py`` written into the copy's ``src`` installs the same hook
when ``NILCERT_COVERAGE_HITS`` names a directory, which the children
inherit, and writes their hits there at exit.  Children started with ``-S``
skip ``sitecustomize`` and are not followed; the output says so.

The unit is the statement: a line counts as executed when any line of the
innermost statement that holds it ran, and a ``raise`` spanning several
lines is counted at its first line.  A ``raise`` that never raised is one
whose statement never ran.  ``tools/coverage_labels.json`` names a
statement by module, enclosing function and its first line, and says why
that check may stay unreached, or why it stays at all; the output carries
the label next to the line, and lists any label that matches no statement.

The output is one JSON document: per module the executed lines, the missed
lines and the ``raise`` lines that never raised; the pytest exit code, the
passed count and the ids of the tests that failed under tracing; the
followed children; the wall time.  The probe is not a gate: it exits 0
whatever the tests' verdicts.  Tracing makes the suite three to four times
slower, so wall-clock bounds in the tests can fail under it; such a failure
is reported, not a reason to change the bound.
"""

from __future__ import annotations

import ast
import importlib.util
import json
import os
import pathlib
import platform
import subprocess
import sys
import tempfile
import threading
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
HITS_VAR = "NILCERT_COVERAGE_HITS"
NOT_FOLLOWED = "children started with -S skip sitecustomize and are not followed"

# Written into the copy's src/, and loaded from there by this process too.
# It imports nothing that site has not, bar atexit, and prints nothing, so
# a child's output stays what the tests expect.
SITECUSTOMIZE = '''\
import os
import sys


def follow(out, prefix):
    """Record the lines run in code under prefix; the function returned
    stops that and writes them to a file in the directory out."""
    hits = {}

    def local(frame, event, arg):
        if event == "line":
            hits.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def start(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    def dump():
        sys.settrace(None)
        with open(os.path.join(out, "%d.hits" % os.getpid()), "w") as f:
            for name, lines in hits.items():
                f.write("%s\\t%s\\n" % (name, " ".join(map(str, sorted(lines)))))

    sys.settrace(start)
    return dump


if os.environ.get("{var}"):
    import atexit
    prefix = os.path.join(os.path.dirname(os.path.abspath(__file__)), "nilcert", "")
    atexit.register(follow(os.environ["{var}"], prefix))
'''.replace("{var}", HITS_VAR)


def statements(source: str) -> tuple[dict[int, int], dict[int, str], set[int]]:
    """``owner``: each line of a statement mapped to the first line of the
    innermost statement that holds it (a decorator line to its ``def``);
    ``scope``: the first line of each statement mapped to the qualified name
    of the function or class around it (``<module>`` at top level);
    ``raises``: the first lines of the ``raise`` statements."""
    owner: dict[int, int] = {}
    scope: dict[int, str] = {}
    raises: set[int] = set()

    def visit(node: ast.AST, name: str) -> None:
        if isinstance(node, ast.stmt):
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            for line in range(first, node.end_lineno + 1):
                owner[line] = node.lineno
            scope[node.lineno] = name
            if isinstance(node, ast.Raise):
                raises.add(node.lineno)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name if name == "<module>" else name + "." + node.name
        for child in ast.iter_child_nodes(node):
            visit(child, name)

    visit(ast.parse(source), "<module>")
    return owner, scope, raises


def executable(source: str, owner: dict[int, int]) -> set[int]:
    """First lines of the statements that compile to bytecode."""
    lines: set[int] = set()
    todo = [compile(source, "<source>", "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return {owner[line] for line in lines if line in owner}


def module_report(source: str, hit_lines: set[int], labels: dict) -> dict:
    """Executed and missed statement lines of one module, its ``raise``
    statements that never raised, and its labelled statements that ran.
    ``labels`` maps (function, first line of the statement, stripped) to a
    label and a reason; a label on a statement that ran says why that check
    stays although no verdict depends on it."""
    owner, scope, raises = statements(source)
    lines = executable(source, owner)
    executed = {owner[line] for line in hit_lines if line in owner} & lines
    text = source.splitlines()

    def entry(line: int) -> dict:
        key = (scope[line], text[line - 1].strip())
        return {"line": line, "function": key[0], "statement": key[1], **labels.get(key, {})}

    found = {line for line in scope if (scope[line], text[line - 1].strip()) in labels}
    return {"executed": sorted(executed), "missed": sorted(lines - executed), "raises": len(raises),
            "never_raised": [entry(line) for line in sorted(raises - executed)],
            "labelled_ran": [entry(line) for line in sorted(found & executed)],
            "labels_found": sorted({(scope[line], text[line - 1].strip()) for line in found})}


def build_report(sources: dict[str, str], hits: dict[str, set[int]], label_list: list[dict]) -> dict:
    """``module_report`` per module (path under ``src``), and the labels that match no statement."""
    by_module: dict[str, dict] = {}
    for entry in label_list:
        key = (entry["function"], entry["statement"])
        by_module.setdefault(entry["module"], {})[key] = {"label": entry["label"], "reason": entry["reason"]}
    modules, used = {}, set()
    for name in sorted(sources):
        report = module_report(sources[name], hits.get(name, set()), by_module.get(name, {}))
        used.update((name,) + key for key in report.pop("labels_found"))
        modules[name] = report
    unused = [e for e in label_list if (e["module"], e["function"], e["statement"]) not in used]
    return {"modules": modules, "unused_labels": unused}


class Outcome:
    """A pytest plugin that counts passed tests and names failed ones."""

    def __init__(self) -> None:
        self.passed = 0
        self.failed: list[str] = []

    def pytest_runtest_logreport(self, report) -> None:
        if report.failed:
            self.failed.append(report.nodeid if report.when == "call" else "%s (%s)" % (report.nodeid, report.when))
        elif report.passed and report.when == "call":
            self.passed += 1

    def pytest_collectreport(self, report) -> None:
        if report.failed:
            self.failed.append("%s (collection)" % report.nodeid)


def outcome_json(code: int, outcome: Outcome) -> dict:
    return {"exit_code": code, "passed": outcome.passed, "failed": outcome.failed}


def read_hits(directory: pathlib.Path, src: str) -> tuple[int, dict[str, set[int]]]:
    """The number of hit files written (this process's and each followed
    child's), and their hits merged by path under ``src``."""
    files = sorted(directory.glob("*.hits"))
    hits: dict[str, set[int]] = {}
    for path in files:
        for line in path.read_text().splitlines():
            name, _, lines = line.partition("\t")
            hits.setdefault(os.path.relpath(name, src), set()).update(map(int, lines.split()))
    return len(files), hits


def traced_pytest(copy: pathlib.Path, hits: pathlib.Path) -> tuple[int, Outcome]:
    """Tier-1 in this process under the hook of the copy's ``sitecustomize.py``, its hits written to ``hits``."""
    import pytest

    spec = importlib.util.spec_from_file_location("coverage_hook", copy / "src" / "sitecustomize.py")
    hook = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(hook)  # installs nothing: HITS_VAR is not set yet
    os.environ[HITS_VAR] = str(hits)
    outcome = Outcome()
    dump = hook.follow(str(hits), str(copy / "src" / "nilcert") + os.sep)
    threading.settrace(sys.gettrace())
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", "--hypothesis-profile=ci",
                            "-p", "no:cacheprovider", str(copy / "tests")], plugins=[outcome])
    finally:
        threading.settrace(None)
        dump()
    return int(code), outcome


def main() -> int:
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="nilcert-coverage-") as tmp:
        copy = pathlib.Path(tmp).resolve() / "tree"
        copy.mkdir()
        archive = subprocess.run(["git", "archive", "HEAD"], cwd=ROOT, check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(copy)], input=archive, check=True)
        src = copy / "src"
        (src / "sitecustomize.py").write_text(SITECUSTOMIZE)
        hit_dir = pathlib.Path(tmp) / "hits"
        hit_dir.mkdir()
        os.environ["PYTHONPATH"] = str(src)
        os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
        sys.dont_write_bytecode = True
        sys.path.insert(0, str(src))
        os.chdir(copy)
        # Stdout carries the document alone: pytest's report goes to stderr.
        stdout, sys.stdout = sys.stdout, sys.stderr
        try:
            code, outcome = traced_pytest(copy, hit_dir)
        finally:
            sys.stdout = stdout
        files, hits = read_hits(hit_dir, str(src))
        sources = {"nilcert/" + p.name: p.read_text() for p in sorted((src / "nilcert").glob("*.py"))}
        labels = json.loads((copy / "tools" / "coverage_labels.json").read_text())
    report = {
        "head": head,
        "python": platform.python_version(),
        "wall_s": round(time.perf_counter() - started, 1),
        "pytest": outcome_json(code, outcome),
        "children": {"followed": files - 1, "not_followed": NOT_FOLLOWED},
        **build_report(sources, hits, labels),
    }
    print(json.dumps(report, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
