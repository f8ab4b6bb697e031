"""The public names: every ``__all__`` entry of the package and of each of
its modules resolves, so a deletion cannot leave a dangling export, and
every name the package exports is used by the package, a demo or the
benchmark harness, so no export lives for the tests alone."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import hks

MODULES = sorted(m.name for m in pkgutil.iter_modules(hks.__path__, "hks."))
ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(hks.__file__).resolve().parent

# Exported without a caller in the package, demos or harness, and why.
UNUSED_EXPORTS = {
    "rhs": "the model's public right-hand side, behind the rhs(u0) = -v0 check",
}


@pytest.mark.parametrize("name", ["hks"] + MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    missing = [attr for attr in exported if not hasattr(mod, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_star_import():
    namespace = {}
    exec("from hks import *", namespace)
    assert set(hks.__all__) <= set(namespace)


def used_names():
    """Names reached from the package, the demos and the benchmark harness:
    imported from hks (outside hks/__init__.py), accessed as an attribute,
    or loaded bare inside the package.  Docstrings and comments do not
    count."""
    used = set()
    files = [(path, True) for path in sorted(PACKAGE.glob("*.py"))]
    files += [(path, False) for folder in ("demos", "perfbench")
              for path in sorted((ROOT / folder).glob("*.py"))]
    for path, in_package in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and path != PACKAGE / "__init__.py":
                if node.level or (node.module or "").split(".")[0] == "hks":
                    used.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif in_package and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
    return used


def test_every_export_has_a_caller_outside_the_tests():
    unused = set(hks.__all__) - used_names() - set(UNUSED_EXPORTS)
    assert not unused, f"exported for the tests alone: {sorted(unused)}"
