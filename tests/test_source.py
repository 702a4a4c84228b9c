"""Guards on the package source itself."""

import ast
import pathlib

import nilcert

SOURCE = pathlib.Path(nilcert.__file__).parent


def test_no_assert_statements():
    # `python -O` strips asserts, so no correctness check may rely on one.
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(SOURCE.glob("*.py"))) >= 8
    assert found == []
