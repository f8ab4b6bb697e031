"""The public names: every ``__all__`` entry of the package and of each of
its modules resolves, so a deletion cannot leave a dangling export."""

import importlib
import pkgutil

import pytest

import hks

MODULES = sorted(m.name for m in pkgutil.iter_modules(hks.__path__, "hks."))


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
