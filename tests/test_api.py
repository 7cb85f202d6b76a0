"""The package's public names."""

import ast
import inspect

import concmeter


def test_public_api():
    names = concmeter.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(concmeter, name), name
    # every public name that __init__ imports is listed
    tree = ast.parse(inspect.getsource(concmeter))
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert {n for n in imported if not n.startswith("_")} <= set(names)
