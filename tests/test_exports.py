"""The public export lists name only what the package defines."""

import importlib

import pytest


@pytest.mark.parametrize("name", ["jacobispec", "jacobispec.pencil"])
def test_every_exported_name_resolves(name):
    # jacobispec.pencil is also the name of a function the package exports,
    # so the module is looked up by its import path
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
