"""The references in tests/oracles.py read only the library's public names."""

import ast
import importlib
import os


def test_oracles_import_only_public_names():
    """Every name tests/oracles.py imports from an ``oqa`` module is in that
    module's ``__all__``: a reference that borrowed a private table or
    helper would agree with the library's bugs in it."""
    path = os.path.join(os.path.dirname(__file__), "oracles.py")
    with open(path) as fh:
        tree = ast.parse(fh.read())
    borrowed = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # a bare module import would reach private names as attributes
            assert not any(a.name.split(".")[0] == "oqa" for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "oqa":
            public = getattr(importlib.import_module(node.module), "__all__", ())
            borrowed += [
                f"{node.module}.{a.name}" for a in node.names if a.name not in public
            ]
    assert borrowed == []
