"""Guards on the package source itself."""

import ast
import pathlib

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
    found = [
        "%s:%d" % (name, inner.lineno)
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    ]
    assert found == []
