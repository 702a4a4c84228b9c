"""The pure parts of the scripts in ``tools/``: no benchmark or CLI child runs here."""

import importlib.util
import json
import pathlib
import sys

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


def test_seeds():
    assert pairs.parse_seeds("601-605") == [601, 602, 603, 604, 605]
    assert pairs.parse_seeds("7,3,10-11") == [7, 3, 10, 11]


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


class _Report:
    def __init__(self, nodeid, when, outcome):
        self.nodeid, self.when = nodeid, when
        self.failed, self.passed = outcome == "failed", outcome == "passed"


def test_a_failed_test_is_named():
    outcome = coverage.Outcome()
    for nodeid, when, result in [("t.py::a", "setup", "passed"), ("t.py::a", "call", "passed"),
                                 ("t.py::b", "call", "failed"), ("t.py::c", "teardown", "failed")]:
        outcome.pytest_runtest_logreport(_Report(nodeid, when, result))
    outcome.pytest_collectreport(_Report("t2.py", "collect", "failed"))
    assert coverage.outcome_json(1, outcome) == {
        "exit_code": 1, "passed": 1, "failed": ["t.py::b", "t.py::c (teardown)", "t2.py (collection)"]}


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
    assert (args.workloads, args.seconds, args.pairs, args.seeds) == (["a", "b"], 12.0, 10, list(range(601, 611)))
    committed = json.loads((TOOLS.parent / "BENCHMARK.json").read_text())
    args = pairs.parse_args(["--parent", "HEAD~1", "--issue", "0", "--workloads", "cli", "--seconds", "3"], committed)
    assert (args.workloads, args.seconds) == (["cli"], 3.0)
    assert pairs.parse_args(["--parent", "x", "--issue", "0"], committed).workloads == [
        w["name"] for w in committed["workloads"]]


guards = _load("guards")

# A fixed module: a guard whose condition spans two lines, an if with an
# else and an if whose body holds two statements (neither a guard), and a
# one-line guard in a method whose condition holds a non-ASCII character.
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
'''


def test_guards_are_ifs_with_no_else_and_a_lone_raise():
    found = guards.guards(GUARDED)
    assert [(g["line"], g["function"], g["statement"]) for g in found] == [
        (2, "check", 'raise ValueError("negative")'),
        (17, "Box.open", 'if é is None: raise TypeError("none")'),
    ]
    # The parentheses lie outside the condition; columns count bytes, and é takes two.
    assert [g["condition"] for g in found] == [(2, 8, 3, 20), (17, 11, 17, 21)]


def test_a_dropped_guard_changes_its_condition_alone():
    first, method = guards.guards(GUARDED)
    for guard, condition in [(first, "x < 0\n            or y < 0"), (method, "é is None")]:
        out = guards.dropped(GUARDED.encode(), guard["condition"])
        assert out == GUARDED.replace(condition, "False").encode()
        compile(out, "<mutant>", "exec")


def test_report_labels_guards_by_their_raise():
    results = [
        {"module": "m.py", "line": 2, "function": "check", "statement": 'raise ValueError("negative")',
         "outcome": "killed", "seconds": 1.5, "test": "tests/t.py::test_a"},
        {"module": "m.py", "line": 17, "function": "Box.open", "statement": 'if é is None: raise TypeError("none")',
         "outcome": "survived", "seconds": 9.0, "test": None},
        {"module": "m.py", "line": 20, "function": "f", "statement": "raise KeyError",
         "outcome": "survived", "seconds": 9.0, "test": None},
        {"module": "m.py", "line": 24, "function": "g", "statement": "raise KeyError",
         "outcome": "timed out", "seconds": 180.0, "test": None},
    ]
    labels = [
        {"module": "m.py", "function": "Box.open", "statement": 'if é is None: raise TypeError("none")',
         "label": "self-check", "reason": "r1"},
        {"module": "n.py", "function": "f", "statement": "raise KeyError", "label": "self-check", "reason": "r2"},
    ]
    report = guards.build_report(results, labels)
    assert report["guards"][1] == dict(results[1], label="self-check", reason="r1")
    assert [g.get("label") for g in report["guards"]] == [None, "self-check", None, None]
    assert report["unlabelled_survivors"] == [results[2]]
    assert report["counts"] == {"killed": 1, "survived": 2, "timed out": 1}


def test_the_first_failing_test_is_named():
    output = ("..F\n=== short test summary info ===\n"
              "FAILED tests/t.py::test_b[x-1] - AssertionError: assert 1 == 2\n"
              "FAILED tests/t.py::test_c\n!!! stopping after 1 failures !!!\n1 failed, 2 passed in 0.1s\n")
    assert guards.first_failure(output) == "tests/t.py::test_b[x-1]"
    assert guards.first_failure("ERROR tests/u.py\n") == "tests/u.py"
    assert guards.first_failure("3 passed in 0.1s\n") is None
