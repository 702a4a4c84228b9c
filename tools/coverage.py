"""Which lines and ``raise`` statements of ``src/nilcert`` the Tier-1 tests reach.

    python3 tools/coverage.py > COVERAGE_<issue>.json

Run from a checkout; it takes no options.  ``HEAD`` is exported with
``git archive`` into a temporary directory, so the working tree is never
run, and Tier-1 runs there in a child (the CI form, with
``--hypothesis-profile=ci``).  A ``sitecustomize.py`` written into the
copy's ``src`` installs a ``sys.settrace`` hook that follows only frames
whose code lies under the copy's ``src/nilcert``, in every interpreter that
starts with that ``src`` on its ``PYTHONPATH`` while ``NILCERT_COVERAGE_HITS``
names a directory: the pytest child and the children its tests start, such
as ``python -m nilcert.cli``, each write their hits there at exit.
Children started with ``-S`` skip ``sitecustomize`` and are not followed;
the output says so.  The hook is set on the main thread; no test starts
another.

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

This module also holds what the probes under ``tools/`` share: ``export``
writes a revision's tree, ``tier1`` runs the suite in a copy, ``summary``
reads pytest's report and ``label_table`` reads the labels.
"""

from __future__ import annotations

import ast
import json
import os
import pathlib
import platform
import re
import signal
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
PYTEST = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "--hypothesis-profile=ci"]
HITS_VAR = "NILCERT_COVERAGE_HITS"
NOT_FOLLOWED = "children started with -S skip sitecustomize and are not followed"

# Written into the copy's src/, where the pytest child and the children of
# its tests load it.  It imports nothing that site has not, bar atexit, and
# prints nothing, so a child's output stays what the tests expect.
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


def label_table(label_list: list[dict]) -> dict[tuple[str, str, str], dict]:
    """``tools/coverage_labels.json`` as (module, function, statement) -> label and reason."""
    return {(e["module"], e["function"], e["statement"]): {"label": e["label"], "reason": e["reason"]}
            for e in label_list}


def build_report(sources: dict[str, str], hits: dict[str, set[int]], label_list: list[dict]) -> dict:
    """``module_report`` per module (path under ``src``), and the labels that match no statement."""
    labels = label_table(label_list)
    modules, used = {}, set()
    for name in sorted(sources):
        mine = {key[1:]: label for key, label in labels.items() if key[0] == name}
        report = module_report(sources[name], hits.get(name, set()), mine)
        used.update((name,) + key for key in report.pop("labels_found"))
        modules[name] = report
    unused = [e for e in label_list if (e["module"], e["function"], e["statement"]) not in used]
    return {"modules": modules, "unused_labels": unused}


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


def export(revision: str, into: pathlib.Path) -> str:
    """Write the tree of ``revision`` into ``into``; returns its full hash."""
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", revision + "^{commit}"],
                            check=True, capture_output=True, text=True).stdout.strip()
    into.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit], check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)
    return commit


def tier1(copy: pathlib.Path, args: list[str], timeout: float | None = None,
          env: dict[str, str] | None = None) -> tuple[int | None, str, float]:
    """Tier-1 in ``copy``, ``PYTEST`` plus ``args``, in a child of its own
    session with the copy's ``src`` on ``PYTHONPATH``, no bytecode written and
    ``env`` added.  Returns the exit code, or ``None`` when the run took more
    than ``timeout`` seconds and its whole process group was killed; the
    output, stdout and stderr together; and the seconds."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1", **(env or {}))
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *PYTEST, *args], cwd=copy, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, start_new_session=True)
    try:
        output, _ = proc.communicate(timeout=timeout)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        output, code = proc.communicate()[0], None
    return code, output, round(time.perf_counter() - started, 1)


def summary(output: str) -> tuple[int, list[str]]:
    """The passed count on pytest's last line, and the node id on each
    ``FAILED`` or ``ERROR`` line of its short summary, in order."""
    failed = []
    for line in output.splitlines():
        kind, _, rest = line.partition(" ")
        if kind in ("FAILED", "ERROR") and rest:
            failed.append(rest.split(" - ", 1)[0])
    last = output.strip().rpartition("\n")[2]
    passed = re.search(r"(\d+) passed", last)
    return int(passed.group(1)) if passed else 0, failed


def main() -> int:
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="nilcert-coverage-") as tmp:
        copy = pathlib.Path(tmp).resolve() / "tree"
        head = export("HEAD", copy)
        src = copy / "src"
        (src / "sitecustomize.py").write_text(SITECUSTOMIZE)
        hit_dir = pathlib.Path(tmp) / "hits"
        hit_dir.mkdir()
        code, output, _ = tier1(copy, ["--continue-on-collection-errors", "-rfE"], env={HITS_VAR: str(hit_dir)})
        sys.stderr.write(output)  # stdout carries the document alone
        passed, failed = summary(output)
        files, hits = read_hits(hit_dir, str(src))
        sources = {"nilcert/" + p.name: p.read_text() for p in sorted((src / "nilcert").glob("*.py"))}
        labels = json.loads((copy / "tools" / "coverage_labels.json").read_text())
    report = {
        "head": head,
        "python": platform.python_version(),
        "wall_s": round(time.perf_counter() - started, 1),
        "pytest": {"exit_code": code, "passed": passed, "failed": failed},
        "children": {"followed": files - 1, "not_followed": NOT_FOLLOWED},
        **build_report(sources, hits, labels),
    }
    print(json.dumps(report, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
