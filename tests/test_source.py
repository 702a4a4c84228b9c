"""Guards on the package source itself."""

import ast
import os
import pathlib
import subprocess
import sys

import nilcert

SOURCE = pathlib.Path(nilcert.__file__).parent


def _trees():
    paths = sorted(SOURCE.glob("*.py"))
    assert len(paths) >= 8
    for path in paths:
        yield path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_no_assert_statements():
    # `python -O` strips asserts, so no correctness check may rely on one.
    found = [
        "%s:%d" % (name, node.lineno)
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_imports_inside_functions():
    # A lazy import hides a dependency (or a cycle) from the module header.
    # The one lazy lookup is the package's PEP 562 __getattr__, which
    # import_module()s only names declared in its literal tables.
    found = [
        "%s:%d" % (name, inner.lineno)
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    ]
    found += [
        "%s:%d %s in %s" % (name, call.lineno, _callee(call), function)
        for name, tree in _trees()
        for function, call in _calls(tree)
        if _callee(call) in ("import_module", "__import__")
        and (name, function) != ("__init__.py", "__getattr__")
    ]
    assert found == []


def test_lazy_exports_come_from_literal_tables():
    tree = dict(_trees())["__init__.py"]
    tables = {
        node.targets[0].id: node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
    }
    assert isinstance(tables["_EXPORTS"], ast.Dict) and isinstance(tables["_SUBMODULES"], ast.Tuple)
    literals = tables["_EXPORTS"].keys + tables["_EXPORTS"].values + tables["_SUBMODULES"].elts
    assert all(isinstance(node, ast.Constant) and isinstance(node.value, str) for node in literals)
    getattr_ = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "__getattr__")
    names = {node.id for node in ast.walk(getattr_) if isinstance(node, ast.Name)}
    assert {"_EXPORTS", "_SUBMODULES"} <= names


def _calls(node, function=None):
    """(innermost enclosing function name, call) for every call under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _calls(child, child.name)
            continue
        if isinstance(child, ast.Call):
            yield function, child
        yield from _calls(child, function)


def _callee(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_transforms_only_where_read():
    # snf builds U and V; a caller that reads only invariant factors uses
    # cokernel or quotient_structure, which run the Smith elimination
    # without them, and quotient_with_generators builds no U.  Z^n / L
    # is cokernel(n, rows), not a quotient of Lattice.standard(n), which
    # would add a Hermite form and coordinates.
    snf_readers = {
        ("cli.py", "_cmd_snf"),
    }
    found = []
    for name, tree in _trees():
        for function, call in _calls(tree):
            callee = _callee(call)
            if callee == "snf" and (name, function) not in snf_readers:
                found.append("%s:%d snf in %s" % (name, call.lineno, function))
            if callee in ("quotient_structure", "quotient_with_generators"):
                sup = call.args[0] if call.args else next(
                    (k.value for k in call.keywords if k.arg == "sup"), None
                )
                if isinstance(sup, ast.Call) and ast.unparse(sup.func).endswith("Lattice.standard"):
                    found.append("%s:%d %s over Lattice.standard" % (name, call.lineno, callee))
    assert found == []


def test_hermite_transform_only_where_read():
    # hnf builds U, so only the callers that read U call it: the hnf verb
    # prints it, unimodular_inverse returns it, solve_row_combination maps a
    # reduction back through it and _module_inverse reads an inverse off it.
    # Kernels, preimages, intersections and saturations are read off one
    # elimination of an augmented matrix, so nothing here calls left_kernel.
    hnf_readers = [
        ("cli.py", "_cmd_hnf"),
        ("cohomology.py", "_module_inverse"),
        ("linalg.py", "solve_row_combination"),
        ("linalg.py", "unimodular_inverse"),
    ]
    calls = [
        (name, function, _callee(call))
        for name, tree in _trees()
        for function, call in _calls(tree)
        if _callee(call) in ("hnf", "left_kernel")
    ]
    assert sorted((name, f) for name, f, callee in calls if callee == "hnf") == hnf_readers
    assert [c for c in calls if c[2] == "left_kernel"] == []


def test_smith_keeps_no_transform():
    # _smith reduces to invariant factors only.  Transforms come from the
    # Hermite elimination: _smith_transforms alternates _echelon on the rows
    # and on their transpose, and forwards U to it.
    params = {
        node.name: [a.arg for a in node.args.args]
        for name, tree in _trees()
        if name == "linalg.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
    }
    assert params["_smith"] == ["s", "n"]
    with_u = sorted(f for f, args in params.items() if "u" in args)
    assert with_u == ["_echelon", "_smith_transforms"]


def test_smith_transforms_only_for_their_readers():
    # snf prints U and V; quotient_with_generators lifts the rows of V^-1.
    callers = sorted(
        (name, function)
        for name, tree in _trees()
        for function, call in _calls(tree)
        if _callee(call) == "_smith_transforms"
    )
    assert callers == [("linalg.py", "quotient_with_generators"), ("linalg.py", "snf")]


def test_inverse_only_where_read():
    # V^-1 is one more Hermite elimination with a transform: snf returns S,
    # U, V and the factors, and only quotient_with_generators, which lifts
    # the rows of V^-1, and a negative IntMatrix.power invert a matrix.
    callers = sorted(
        (name, function)
        for name, tree in _trees()
        for function, call in _calls(tree)
        if _callee(call) == "unimodular_inverse"
    )
    assert callers == [("linalg.py", "power"), ("linalg.py", "quotient_with_generators")]


def test_brute_force_oracle_uses_no_smith_form():
    # h1_brute checks h1, which reads H^1 off a Smith form, so the oracle
    # and the counts it reads its structure from call no Smith elimination,
    # in their own bodies or in the functions nested there.
    smith = {"snf", "_smith", "_smith_transforms", "cokernel", "_cokernel",
             "quotient_structure", "quotient_with_generators"}
    tree = dict(_trees())["cohomology.py"]
    oracle = [node for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name in ("_structure_from_subgroup_counts", "h1_brute")]
    assert len(oracle) == 2
    found = [
        "cohomology.py:%d %s in %s" % (call.lineno, _callee(call), function.name)
        for function in oracle
        for call in ast.walk(function)
        if isinstance(call, ast.Call) and _callee(call) in smith
    ]
    assert found == []


def test_semidirect_checks_use_no_element_arithmetic():
    # Invariance, normality and abelianness of box subgroups are lattice
    # containments (linalg.maps_into); conjugates and inverses of elements
    # appear only in the element arithmetic itself.
    arithmetic = {"mul", "inv", "conj"}
    found = [
        "semidirect.py:%d %s in %s" % (call.lineno, _callee(call), function)
        for name, tree in _trees()
        if name == "semidirect.py"
        for function, call in _calls(tree)
        if _callee(call) in ("conj", "inv", "commutator") and function not in arithmetic
    ]
    assert found == []


def test_series_builds_no_full_box():
    # The two-layer series reads Lambda/Lambda_1 = Z^b/(U + K) and, when K
    # lies in U, Lambda_1/Gamma = Z^f/W off Hermite bases it already has
    # (nilpotent2.series_levels), and intermediates reads [G : S] off the
    # full-rank fibres.  The generic box chain, the full box, the element
    # membership helpers and group_index live in the test oracles only.
    gone = {"box_chain", "central_layer", "full", "generators", "is_sol3_type", "group_index"}
    assert _defined_or_called(gone) == []


def test_no_determinant():
    # Unimodularity and the singular Phi_d(A) are read off the one Hermite
    # elimination (linalg.is_unimodular, linalg.nullity); the Bareiss
    # determinant lives in the test oracle only.
    assert _defined_or_called({"det"}) == []


def test_certificates_copy_and_serialize_no_whole_description():
    # A certificate holds its group and subgroup descriptions as canonical
    # JSON text, so no recursive copy guards them, and verify_certificate
    # compares the rebuilt certificate field by field instead of the JSON of
    # two whole certificates.  The certificate layout is written once, by
    # canonical_text, which to_json_dict parses and never the other way.
    assert _defined_or_called({"_fresh"}) == []
    found = [
        "%s:%d in %s" % (name, call.lineno, function)
        for name, tree in _trees()
        for function, call in _calls(tree)
        if _callee(call) == "to_json_dict" and (name == "invariants.py" or function == "canonical_text")
    ]
    assert found == []


def _defined_or_called(names):
    return sorted(
        "%s:%d %s" % (name, node.lineno, getattr(node, "name", None) or _callee(node))
        for name, tree in _trees()
        for node in ast.walk(tree)
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in names)
        or (isinstance(node, ast.Call) and _callee(node) in names)
    )


def _exact_power_mod(call):
    """A power_mod call whose modulus is the literal 0, which keeps entries exact."""
    d = call.args[2] if len(call.args) > 2 else next(
        (k.value for k in call.keywords if k.arg == "d"), None
    )
    return isinstance(d, ast.Constant) and d.value == 0


def test_exact_holonomy_powers_only_in_element_arithmetic():
    # An exact power A^t costs t times the bits of A for a hyperbolic A, so
    # only the element arithmetic forms one, through IntMatrix.power, the one
    # exact power_mod.  intermediates takes its norm modulo [Z^n : S.L].
    # Centre ranks and finite orders read the kernels of Phi_d(A) from
    # linalg.cyclotomic_kernels, polynomials in A of degree at most n.  The
    # receiver of a call is not known here, so every .power call counts as
    # SemidirectGroup.power.
    found = sorted(
        "%s:%d in %s" % (name, call.lineno, function)
        for name, tree in _trees()
        for function, call in _calls(tree)
        if (_callee(call) == "power" and function not in ("power", "mul", "inv", "conj"))
        or (
            _callee(call) == "power_mod"
            and _exact_power_mod(call)
            and (name, function) != ("linalg.py", "power")
        )
    )
    assert found == []


def test_relator_words_walked_once():
    # ModuleAction.fox_blocks walks each relator once, for its Fox
    # derivatives and its matrix together; coset enumeration reads the
    # words on its own.  No other walk may re-read them.
    found = sorted(
        (name, function)
        for name, tree in _trees()
        for function, call in _calls(tree)
        if _callee(call) == "_word_symbols"
    )
    assert found == [("cohomology.py", "coset_enumeration"), ("cohomology.py", "fox_blocks")]


def _imports_of(module):
    """Where the package imports ``module`` or one of its submodules."""
    return sorted(
        "%s:%d" % (name, node.lineno)
        for name, tree in _trees()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Import) and any(a.name.split(".")[0] == module for a in node.names))
        or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == module)
    )


def test_no_dataclasses():
    # Importing dataclasses (with the inspect it pulls in) and generating
    # its methods costs every CLI process tens of milliseconds; the value
    # classes derive from errors.Record instead.
    assert _imports_of("dataclasses") == []


def test_only_record_binds_fields():
    # Record.__init__ and Record._trusted bind the fields of every value
    # class; an object.__setattr__ anywhere else is a second copy of them.
    found = [
        "%s:%d" % (name, node.lineno)
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
        and isinstance(node.value, ast.Name) and node.value.id == "object"
    ]
    assert [where for where in found if not where.startswith("errors.py:")] == []


def test_only_value_compares_and_hashes():
    # errors.Value compares and hashes every value class over its _fields;
    # an __eq__ or __hash__ anywhere else is a second copy of it.
    found = [
        "%s:%d" % (name, node.lineno)
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in ("__eq__", "__hash__")
        or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and node.id in ("__eq__", "__hash__")
    ]
    assert [where for where in found if not where.startswith("errors.py:")] == []


def test_no_typing_imports():
    # Annotations are never evaluated (from __future__ import annotations),
    # so they name collections.abc types and X | None; importing typing
    # would cost every CLI process a few milliseconds for nothing.
    assert _imports_of("typing") == []


def test_only_the_console_script_touches_the_collector():
    # cli.main freezes the heap before the process exits; run() and the
    # library keep normal collection for in-process callers.
    assert [where.split(":")[0] for where in _imports_of("gc")] == ["cli.py"]
    found = [
        (name, function, _callee(call))
        for name, tree in _trees()
        for function, call in _calls(tree)
        if isinstance(call.func, ast.Attribute)
        and isinstance(call.func.value, ast.Name)
        and call.func.value.id == "gc"
    ]
    assert found == [("cli.py", "main", "freeze")]


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # -S keeps site hooks from importing either module on their own.
    env = dict(os.environ, PYTHONPATH=str(SOURCE.parent))
    code = "import sys, nilcert.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60, env=env
    )
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "[]\n")
