"""The public export lists name only what the package defines, and name
everything the package re-exports."""

import ast
import importlib
import importlib.util

import pytest


@pytest.mark.parametrize("name", ["jacobispec", "jacobispec.pencil"])
def test_every_exported_name_resolves(name):
    # jacobispec.pencil is also the name of a function the package exports,
    # so the module is looked up by its import path
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_imports_from_pencil_only_its_exports():
    spec = importlib.util.find_spec("jacobispec")
    with open(spec.origin, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    imported = [
        alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        and (node.level, node.module) == (1, "pencil")
        for alias in node.names
    ]
    assert imported
    exported = importlib.import_module("jacobispec.pencil").__all__
    assert [name for name in imported if name not in exported] == []
