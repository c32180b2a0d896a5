"""Module layering: the exact kernel depends on nothing above it, and the
lifting decision does not reach into the mechanisms for its arithmetic."""

import ast
import importlib.util
from pathlib import Path


def _package_imports(module: str) -> set[str]:
    """Modules of the package that ``jacobispec.<module>`` imports."""
    root = Path(importlib.util.find_spec("jacobispec").origin).parent
    tree = ast.parse((root / f"{module}.py").read_text(encoding="utf-8"))
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            # "from .x import y" names x; "from . import x" names x itself
            out.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = (
                [node.module]
                if isinstance(node, ast.ImportFrom)
                else [a.name for a in node.names]
            )
            out.update(n.split(".")[1] for n in names if n.startswith("jacobispec."))
    return out


def test_exactpoly_imports_only_errors():
    assert _package_imports("exactpoly") == {"errors"}


def test_hensel_does_not_import_mechanisms():
    imports = _package_imports("hensel")
    assert "exactpoly" in imports
    assert "mechanisms" not in imports
