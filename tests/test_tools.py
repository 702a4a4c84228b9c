"""The pure parts of the scripts in ``tools/``: no benchmark or CLI child runs here."""

import importlib.util
import json
import os
import pathlib
import sys
import time

import pytest

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location("tools_" + name, TOOLS / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pairs = _load("pairs")

METRICS = [
    {"name": "op_p50_ref", "better": "lower", "bound": 0.25},
    {"name": "ops_per_ref", "better": "higher", "bound": 0.25},
]


def _line(p50, per_ref, failed=0):
    return {"correct": failed == 0, "attempted": 100, "failed": failed, "metrics": {
        "op_p50_ref": {"value": p50, "unit": "ref"}, "ops_per_ref": {"value": per_ref, "unit": "op/ref"}}}


def _runs(parent, change, workload="series"):
    """Result lines of alternating pairs: ``parent[i]`` against ``change[i]``."""
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        for side, line in (("parent", p), ("change", c))[:: 1 if pair % 2 == 0 else -1]:
            runs.append({"workload": workload, "pair": pair, "seed": 601 + pair, "side": side, "result": line})
    return runs


def test_quartiles_are_the_inclusive_ones():
    assert pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == {"q1": 2.0, "median": 3.0, "q3": 4.0}
    assert pairs.quartiles([7.0]) == {"q1": 7.0, "median": 7.0, "q3": 7.0}


def test_verdicts_against_the_parent_quartiles():
    # The change's p50 is 30 % higher in every pair: worse, past the 0.25 bound.
    # Its ops_per_ref is higher in four of five pairs, with the median inside
    # the parent's quartiles: unresolved.
    parent = [_line(v, r) for v, r in zip([1.0, 1.1, 0.9, 1.0, 1.05], [10, 11, 9, 10, 12])]
    change = [_line(1.3 * v, r) for v, r in zip([1.0, 1.1, 0.9, 1.0, 1.05], [11, 12, 10, 11, 11])]
    summary = pairs.summarize(_runs(parent, change), METRICS)
    assert list(summary) == ["series"]
    series = summary["series"]
    assert series["attempted"] == {"parent": 500, "change": 500}
    assert series["failed"] == {"parent": 0, "change": 0}
    p50 = series["metrics"]["op_p50_ref"]
    assert p50["parent"] == {"q1": 1.0, "median": 1.0, "q3": 1.05}
    assert p50["change"]["median"] == pytest.approx(1.3)
    assert p50["shift"] == pytest.approx(0.3)
    assert (p50["pairs_won"], p50["pairs"], p50["verdict"], p50["past_bound"]) == (0, 5, "worse", True)
    per_ref = series["metrics"]["ops_per_ref"]
    assert per_ref["parent"] == {"q1": 10.0, "median": 10.0, "q3": 11.0}
    assert per_ref["change"]["median"] == 11.0
    assert (per_ref["pairs_won"], per_ref["verdict"], per_ref["past_bound"]) == (4, "unresolved", False)


def test_a_higher_is_better_metric_that_falls_is_worse():
    parent = [_line(1.0, r) for r in (10, 10, 10, 10)]
    change = [_line(0.5, r, failed=1) for r in (5, 5, 5, 5)]
    series = pairs.summarize(_runs(parent, change), METRICS)["series"]
    assert series["failed"] == {"parent": 0, "change": 4}
    assert series["metrics"]["op_p50_ref"]["verdict"] == "better"
    assert series["metrics"]["op_p50_ref"]["past_bound"] is False
    assert series["metrics"]["ops_per_ref"]["verdict"] == "worse"
    assert series["metrics"]["ops_per_ref"]["past_bound"] is True


@pytest.mark.parametrize("change, won, lost, verdict", [
    # BENCH_40.json's setup_s: the median leaves the quartiles, but 6 of 10 pairs is not enough.
    ([1.1, 1.2, 1.3, 1.35, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0], 6, 4, "unresolved"),
    ([1.1, 0.9, 1.0, 1.1, 1.2, 1.3, 1.0, 1.0, 1.0, 1.0], 9, 1, "better"),
    ([0.9, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0], 1, 9, "worse"),
    # A tie counts for neither side: 8 won and 2 tied is not nine tenths.
    ([1.0, 1.1, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5], 8, 0, "unresolved"),
])
def test_a_verdict_needs_nine_tenths_of_the_pairs(change, won, lost, verdict):
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]
    series = pairs.summarize(_runs([_line(v, 10) for v in parent], [_line(v, 10) for v in change]),
                             METRICS)["series"]
    p50 = series["metrics"]["op_p50_ref"]
    assert not p50["parent"]["q1"] <= p50["change"]["median"] <= p50["parent"]["q3"]
    assert (p50["pairs_won"], p50["pairs_lost"], p50["pairs"], p50["verdict"]) == (won, lost, 10, verdict)
    per_ref = series["metrics"]["ops_per_ref"]  # every pair tied
    assert (per_ref["pairs_won"], per_ref["pairs_lost"], per_ref["verdict"]) == (0, 0, "unresolved")


def test_a_pair_missing_a_side_is_left_out():
    runs = _runs([_line(1.0, 10)] * 3, [_line(2.0, 10)] * 3)
    runs = [run for run in runs if not (run["pair"] == 2 and run["side"] == "change")]
    assert pairs.summarize(runs, METRICS)["series"]["metrics"]["op_p50_ref"]["pairs"] == 2


def test_medians_are_held_to_the_recorded_quartiles():
    recorded = pairs.summarize(_runs([_line(v, 10) for v in (1.0, 2.0, 3.0)],
                                     [_line(v, 10) for v in (1.0, 2.0, 3.0)]), METRICS)
    again = pairs.summarize(_runs([_line(v, 10) for v in (1.4, 1.5, 1.6)],
                                  [_line(v, 10) for v in (2.6, 2.7, 2.8)]), METRICS)
    inside = pairs.against(again, recorded)
    assert inside["series"]["op_p50_ref"] == {"parent": True, "change": False}
    assert inside["series"]["ops_per_ref"] == {"parent": True, "change": True}


def test_identity_names_each_differing_digest(monkeypatch):
    monkeypatch.setattr(sys, "path", sys.path[:])  # identity.py puts src and perfbench first
    identity = _load("identity")
    expected = {"cli": "a", "workloads": {"series": "b", "tower": "c"}}
    assert identity.differing(dict(expected, python="3.11.7"), expected) == []
    report = {"cli": "x", "python": "3.11.7", "workloads": {"series": "b", "tower": "y", "new": "z"}}
    assert identity.differing(report, expected) == ["cli", "workloads new", "workloads tower"]


coverage = _load("coverage")

# A fixed module: a raise over three lines, one on a line of its own, a
# decorated function, a function docstring (no bytecode) and a nested class.
SNIPPET = '''\
import functools


@functools.lru_cache
def check(x):
    """Docstring."""
    if x < 0:
        raise ValueError(
            "negative: %d"
            % x)
    if x == 0:
        raise ZeroDivisionError("zero")
    return x


class Box:
    def open(self):
        raise NotImplementedError
'''


def test_raises_are_counted_at_their_first_line():
    owner, scope, raises = coverage.statements(SNIPPET)
    assert raises == {8, 12, 18}
    assert [owner[line] for line in (8, 9, 10)] == [8, 8, 8]
    assert (owner[4], owner[5]) == (5, 5)  # the decorator belongs to its def
    assert (scope[8], scope[18], scope[1]) == ("check", "Box.open", "<module>")


def test_executable_lines_are_statements_with_bytecode():
    owner, _, _ = coverage.statements(SNIPPET)
    # The function's docstring compiles to no bytecode; the module's code and
    # every statement in a body do.
    assert coverage.executable(SNIPPET, owner) == {1, 5, 7, 8, 11, 12, 13, 16, 17, 18}


def test_report_from_fixed_hits():
    # check(-1) and check(2) ran, and Box was defined; line 9 stands for the raise at 8.
    hits = {1, 4, 5, 7, 9, 11, 13, 16, 17}
    labels = [
        {"module": "m.py", "function": "Box.open", "statement": "raise NotImplementedError",
         "label": "self-check", "reason": "r1"},
        {"module": "m.py", "function": "check", "statement": "if x < 0:", "label": "public API", "reason": "r2"},
        {"module": "m.py", "function": "gone", "statement": "raise KeyError", "label": "self-check", "reason": "r3"},
    ]
    report = coverage.build_report({"m.py": SNIPPET}, {"m.py": hits}, labels)
    module = report["modules"]["m.py"]
    assert module["executed"] == [1, 5, 7, 8, 11, 13, 16, 17]
    assert module["missed"] == [12, 18]
    assert module["raises"] == 3
    assert module["never_raised"] == [
        {"line": 12, "function": "check", "statement": 'raise ZeroDivisionError("zero")'},
        {"line": 18, "function": "Box.open", "statement": "raise NotImplementedError",
         "label": "self-check", "reason": "r1"},
    ]
    assert module["labelled_ran"] == [
        {"line": 7, "function": "check", "statement": "if x < 0:", "label": "public API", "reason": "r2"}]
    assert report["unused_labels"] == [labels[2]]


def test_hits_are_merged_by_path_under_src(tmp_path):
    (tmp_path / "1.hits").write_text("/x/src/nilcert/a.py\t1 3\n")
    (tmp_path / "2.hits").write_text("/x/src/nilcert/a.py\t2 3\n/x/src/nilcert/b.py\t7\n")
    assert coverage.read_hits(tmp_path, "/x/src") == (
        2, {"nilcert/a.py": {1, 2, 3}, "nilcert/b.py": {7}})


def test_every_label_names_a_statement_under_src():
    src = TOOLS.parent / "src"
    sources = {"nilcert/" + p.name: p.read_text() for p in sorted((src / "nilcert").glob("*.py"))}
    labels = json.loads((TOOLS / "coverage_labels.json").read_text())
    assert coverage.build_report(sources, {}, labels)["unused_labels"] == []


def test_pair_plan_defaults_to_the_benchmark_file():
    bench = {"workloads": [{"name": "a"}, {"name": "b"}], "run_seconds": 12}
    args = pairs.parse_args(["--parent", "HEAD~1", "--issue", "0"], bench)
    assert (args.workloads, args.seconds, args.against) == (["a", "b"], 12.0, None)
    assert pairs.SEEDS == list(range(601, 611))
    committed = json.loads((TOOLS.parent / "BENCHMARK.json").read_text())
    args = pairs.parse_args(["--parent", "x", "--issue", "0", "--against", "BENCH_0.json"], committed)
    assert (args.workloads, args.seconds, args.against) == (
        [w["name"] for w in committed["workloads"]], float(committed["run_seconds"]), "BENCH_0.json")


guards = _load("guards")

# A fixed module: a guard whose condition spans two lines and opens with an
# or operand, an if with an else, an if whose body holds two statements
# (around other work), a one-line guard in a method whose condition holds a
# non-ASCII character, an early return behind an and, and a conditional
# expression.
GUARDED = '''\
def check(x, y):
    if (x < 0
            or y < 0):  # negative
        raise ValueError("negative")
    if x == y:
        raise ValueError("equal")
    else:
        x += 1
    if x > 9:
        y = 0
        raise ValueError("large")
    return x


class Box:
    def open(self, é):
        if é is None: raise TypeError("none")
        if é and é.closed:
            return None
        return é if é.full else é.fill()
'''


def test_sites_are_the_branches_of_each_kind():
    found = guards.sites(GUARDED)
    assert [(s["kind"], s["line"], s["function"], s["statement"]) for s in found] == [
        ("or operand", 2, "check", 'raise ValueError("negative")'),
        ("guard", 2, "check", 'raise ValueError("negative")'),
        ("if/else", 5, "check", "if x == y:"),
        ("if", 9, "check", "if x > 9:"),
        ("guard", 17, "Box.open", 'if é is None: raise TypeError("none")'),
        ("and operand", 18, "Box.open", "if é and é.closed:"),
        ("early exit", 18, "Box.open", "if é and é.closed:"),
        ("conditional expression", 20, "Box.open", "return é if é.full else é.fill()"),
    ]
    # The parentheses lie outside the condition; columns count bytes, and é takes two.
    assert [s["span"] for s in found] == [(2, 8, 2, 13), (2, 8, 3, 20), (5, 7, 5, 13), (9, 7, 9, 12),
                                          (17, 11, 17, 21), (18, 11, 18, 13), (18, 11, 18, 27),
                                          (20, 21, 20, 28)]


def test_each_mutant_compiles_and_changes_its_span_alone():
    source = GUARDED.encode()
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    mutants = 0
    for site in guards.sites(GUARDED):
        first, col, last, end_col = site["span"]
        begin, end = starts[first - 1] + col, starts[last - 1] + end_col
        for value in guards.MUTATIONS[site["kind"]]:
            out = guards.mutated(source, site["span"], value)
            assert out == source[:begin] + value.encode() + source[end:]
            compile(out, "<mutant>", "exec")
            mutants += 1
    assert mutants == 10  # the if/else and the conditional expression are tried both ways
    first, method = guards.sites(GUARDED)[1], guards.sites(GUARDED)[4]
    for site, condition in [(first, "x < 0\n            or y < 0"), (method, "é is None")]:
        assert guards.mutated(source, site["span"], "False") == GUARDED.replace(condition, "False").encode()


def test_report_labels_sites_by_their_statement():
    results = [
        {"module": "m.py", "line": 2, "function": "check", "statement": 'raise ValueError("negative")',
         "kind": "guard", "mutation": "False", "outcome": "killed", "seconds": 1.5, "test": "tests/t.py::test_a"},
        {"module": "m.py", "line": 17, "function": "Box.open", "statement": 'if é is None: raise TypeError("none")',
         "kind": "guard", "mutation": "False", "outcome": "same bytes", "seconds": 9.0, "test": None},
        {"module": "m.py", "line": 20, "function": "f", "statement": "raise KeyError",
         "kind": "guard", "mutation": "False", "outcome": "different bytes", "seconds": 9.0, "test": None},
        {"module": "m.py", "line": 24, "function": "g", "statement": "if x:",
         "kind": "if/else", "mutation": "True", "outcome": "timed out", "seconds": 180.0, "test": None},
        {"module": "m.py", "line": 24, "function": "g", "statement": "if x:",
         "kind": "if/else", "mutation": "False", "outcome": "same bytes", "seconds": 9.0, "test": None},
    ]
    labels = [
        {"module": "m.py", "function": "Box.open", "statement": 'if é is None: raise TypeError("none")',
         "label": "self-check", "reason": "r1"},
        {"module": "n.py", "function": "f", "statement": "raise KeyError", "label": "self-check", "reason": "r2"},
    ]
    report = guards.build_report(results, labels)
    assert report["guards"][1] == dict(results[1], label="self-check", reason="r1")
    assert [g.get("label") for g in report["guards"]] == [None, "self-check", None, None, None]
    assert report["unlabelled_survivors"] == [results[2], results[4]]
    assert report["counts"] == {"killed": 1, "same bytes": 2, "different bytes": 1, "timed out": 1}
    assert report["kinds"] == {"guard": {"killed": 1, "same bytes": 1, "different bytes": 1},
                               "if/else": {"timed out": 1, "same bytes": 1}}


def test_summary_names_every_failed_test():
    output = ("..F.F\n=== short test summary info ===\n"
              "FAILED tests/t.py::test_b[x-1] - AssertionError: assert 1 == 2\n"
              "FAILED tests/t.py::test_c\n"
              "ERROR tests/t.py::test_d - RuntimeError: teardown\n"
              "2 failed, 3 passed, 1 error in 0.12s\n")
    assert coverage.summary(output) == (3, ["tests/t.py::test_b[x-1]", "tests/t.py::test_c", "tests/t.py::test_d"])


def test_summary_names_a_collection_error():
    output = ("==== ERRORS ====\n____ ERROR collecting tests/u.py ____\nE   ImportError: no x\n"
              "=== short test summary info ===\nERROR tests/u.py - ImportError: no x\n"
              "5 passed, 1 error in 0.30s\n")
    assert coverage.summary(output) == (5, ["tests/u.py"])


def test_summary_of_a_stop_after_the_first_failure():
    output = ("..F\n=== short test summary info ===\n"
              "FAILED tests/t.py::test_b - assert 0\n"
              "!!!!!!!!!!!!!!!!!!!!!!!!!!!! stopping after 1 failures !!!!!!!!!!!!!!!!!!!!!!!!!!!!\n"
              "1 failed, 2 passed in 0.10s\n")
    assert coverage.summary(output) == (2, ["tests/t.py::test_b"])


def test_summary_of_a_clean_and_of_a_cut_run():
    assert coverage.summary("....\n762 passed in 58.50s\n") == (762, [])
    # A run killed at its timeout prints no last line.
    assert coverage.summary("..F..") == (0, [])
    assert coverage.summary("") == (0, [])


# Started at interpreter start-up by the runner's child, through the
# sitecustomize.py that the child finds in the tree's src: the child and a
# grandchild that would sleep for a minute write their pids first.
_SLEEPER = """\
import os, subprocess, sys
child = subprocess.Popen([sys.executable, "-S", "-c", "import time; time.sleep(60)"])
with open(os.path.join(os.path.dirname(__file__), "pids"), "w") as f:
    f.write("%d %d" % (os.getpid(), child.pid))
"""


def _gone(pid):
    """No process has ``pid``, or only one that has exited and waits to be reaped."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    try:
        return pathlib.Path("/proc/%d/stat" % pid).read_text().rpartition(")")[2].split()[0] == "Z"
    except OSError:
        return True


@pytest.mark.skipif(sys.platform != "linux", reason="reads process states under /proc")
def test_tier1_runs_a_tree_in_a_child_and_kills_it_at_its_timeout(tmp_path):
    (tmp_path / "pytest.ini").write_text("[pytest]\n")
    (tmp_path / "conftest.py").write_text(
        "from hypothesis import settings\n\nsettings.register_profile('ci', derandomize=True, database=None)\n")
    (tmp_path / "test_verdicts.py").write_text(
        "def test_passes():\n    pass\n\n\ndef test_fails():\n    assert 1 == 2\n")
    (tmp_path / "test_sleeps.py").write_text("import time\n\n\ndef test_sleeps():\n    time.sleep(60)\n")
    code, output, seconds = coverage.tier1(tmp_path, ["test_verdicts.py"])
    assert code == 1, output
    assert coverage.summary(output) == (1, ["test_verdicts.py::test_fails"])
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "sitecustomize.py").write_text(_SLEEPER)
    code, output, seconds = coverage.tier1(tmp_path, ["test_sleeps.py"], timeout=1)
    assert code is None and 1 <= seconds < 30
    pids = [int(pid) for pid in (tmp_path / "src" / "pids").read_text().split()]
    deadline = time.monotonic() + 10
    while not all(map(_gone, pids)) and time.monotonic() < deadline:
        time.sleep(0.1)
    assert all(map(_gone, pids)), pids
