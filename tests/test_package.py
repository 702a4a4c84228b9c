"""The package's lazy export surface and the modules each CLI verb loads."""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import nilcert
from nilcert.nilpotent2 import heisenberg_witness
from nilcert.semidirect import sol3_gamma, sol3_tower

SRC = pathlib.Path(nilcert.__file__).parent.parent

BASE = ["nilcert", "nilcert.arith", "nilcert.cli", "nilcert.errors"]
LINALG = ["nilcert.linalg"]
# A group family alone builds no certificate, so it loads no certificates module.
SEMIDIRECT = ["nilcert.linalg", "nilcert.semidirect"]
NILPOTENT2 = ["nilcert.linalg", "nilcert.nilpotent2"]
CERTIFICATES = ["nilcert.certificates", "nilcert.linalg"]
# What argparse loads; the CLI loads it only for help and usage errors.
USAGE = ["argparse", "gettext", "locale", "nilcert.usage"]
HEISENBERG = {"type": "twostep", "f": 1, "b": 2, "forms": [[["0", "1"], ["-1", "0"]]]}
ACTION = {"generators": 1, "relators": ["aa"], "module": {"free": 1, "torsion": []}, "action": [[["-1"]]]}
SOL3 = json.dumps(sol3_gamma(0).to_json())
SOL3_1 = json.dumps(sol3_gamma(1).to_json())


def _loaded_after(code: str) -> list[str]:
    """The nilcert modules, and typing, argparse, gettext and locale if any,
    that a fresh ``python -S`` has loaded after ``code``.  No nilcert module
    imports typing: its annotations are never evaluated, and -S keeps site
    hooks from loading it or the other three."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    env.pop("NILCERT_MAX_INDEX", None)
    names = ("nilcert", "typing", "argparse", "gettext", "locale")
    code += "\nprint(sorted(m for m in sys.modules if m.split('.')[0] in %r), file=sys.stderr)" % (names,)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import sys\n" + code],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stderr.strip().splitlines()[-1])


def test_import_nilcert_loads_no_submodule():
    assert _loaded_after("import nilcert") == ["nilcert"]


# verb -> (argv, exit code, the nilcert modules it loads beyond BASE)
VERBS = {
    "hnf": (["hnf", "--input", "[[1,2],[3,4]]"], 0, LINALG),
    "snf": (["snf", "--input", "[[1,2],[3,4]]"], 0, LINALG),
    "cohomology": (["cohomology", "--input", json.dumps(ACTION)], 0, ["nilcert.cohomology"] + LINALG),
    "sol3-tower": (["sol3-tower", "--k", "2"], 0, SEMIDIRECT + CERTIFICATES),
    "center-semidirect": (["center", "--preset", "sol3"], 0, SEMIDIRECT),
    "normalizer": (["normalizer", "--group", SOL3, "--subgroup", SOL3_1], 0, SEMIDIRECT),
    "quotient": (["quotient", "--group", SOL3, "--subgroup", SOL3_1], 0, SEMIDIRECT),
    "intermediates": (["intermediates", "--group", SOL3, "--subgroup", SOL3_1], 0, SEMIDIRECT),
    "series": (
        ["series", "--input", json.dumps(HEISENBERG), "--gamma", '{"U": [["2", "0"], ["0", "2"]], "W": [["4"]]}'],
        0,
        NILPOTENT2 + CERTIFICATES,
    ),
    "heisenberg-witness": (
        ["heisenberg-witness", "--k", "1", "--p", "3", "--a", "2"], 0, NILPOTENT2 + CERTIFICATES
    ),
    "center-twostep": (["center", "--preset", "heisenberg"], 0, NILPOTENT2),
    "isolator": (["isolator", "--preset", "heisenberg"], 0, NILPOTENT2),
    "hbar1": (["hbar1", "--preset", "heisenberg"], 0, NILPOTENT2),
    "minkowski": (["minkowski", "--n", "3"], 0, []),
    "euler-bound": (["euler-bound", "--chi", "-12"], 0, []),
    "euler-bound-error": (["euler-bound", "--chi", "0"], 1, []),
    "unknown-type-error": (["center", "--input", '{"type": "hyperbolic"}'], 1, []),
    "verify-tower": (
        ["verify", "--input", json.dumps(sol3_tower(2).to_json_dict())],
        0,
        ["nilcert.invariants"] + SEMIDIRECT + CERTIFICATES,
    ),
    "verify-witness": (
        ["verify", "--input", json.dumps(heisenberg_witness(1, 3, 2).to_json_dict())],
        0,
        ["nilcert.invariants"] + NILPOTENT2 + CERTIFICATES,
    ),
    "verify-error": (["verify", "--input", "{}"], 1, ["nilcert.invariants"] + CERTIFICATES),
    "discsym2-twostep": (
        ["discsym2-bound", "--preset", "heisenberg"], 0, ["nilcert.invariants"] + NILPOTENT2 + CERTIFICATES
    ),
    "discsym2-semidirect": (
        ["discsym2-bound", "--preset", "sol3"], 0, ["nilcert.invariants"] + SEMIDIRECT + CERTIFICATES
    ),
    "presets": (["presets"], 0, SEMIDIRECT + NILPOTENT2),
}


@pytest.mark.parametrize("verb", sorted(VERBS))
def test_each_verb_loads_only_what_it_runs(verb):
    argv, code, extra = VERBS[verb]
    run = "import io, contextlib\nfrom nilcert import cli\n"
    run += "with contextlib.redirect_stdout(io.StringIO()):\n"
    run += "    assert cli.run(%r) == %d\n" % (argv, code)
    # typing and argparse, which _loaded_after also reports, are in no verb's set.
    assert _loaded_after(run) == sorted(set(BASE + extra))


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["minkowski", "--help"], 0),
    (["minkowski"], 2),
    (["minkowski", "--n", "x"], 2),
    (["nope"], 2),
])
def test_only_help_and_usage_errors_load_argparse(argv, code):
    run = "import io, contextlib\nfrom nilcert import cli\n"
    run += "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
    run += "    try:\n        cli.run(%r)\n    except SystemExit as exc:\n" % (argv,)
    run += "        assert exc.code == %d\n    else:\n        raise AssertionError\n" % code
    assert _loaded_after(run) == sorted(set(BASE + USAGE))


def test_export_table_covers_all():
    assert set(nilcert._EXPORTS) == set(nilcert.__all__)
    assert set(nilcert._EXPORTS.values()) <= set(nilcert._SUBMODULES)


def test_each_export_is_the_object_its_module_defines():
    for name, module in nilcert._EXPORTS.items():
        obj = getattr(nilcert, name)
        assert obj is getattr(importlib.import_module("nilcert." + module), name), name
        assert obj.__module__ == "nilcert." + module, name


def test_star_import_binds_all():
    namespace = {}
    exec("from nilcert import *", namespace)
    assert set(nilcert.__all__) <= set(namespace)


def test_dir_lists_all():
    assert set(nilcert.__all__) <= set(dir(nilcert))


def test_unknown_name_is_an_attribute_error():
    # An unknown name is not imported, so no ImportError escapes.
    with pytest.raises(AttributeError, match="no_such_name"):
        nilcert.no_such_name
    assert not hasattr(nilcert, "cohomology_oracle")


def test_moved_helpers_keep_their_old_homes():
    from nilcert import arith
    from nilcert.certificates import SCHEMA, canonical_json
    from nilcert.invariants import euler_length_bound, minkowski_bound

    assert (SCHEMA, canonical_json) == (arith.SCHEMA, arith.canonical_json)
    assert (euler_length_bound, minkowski_bound) == (arith.euler_length_bound, arith.minkowski_bound)
