"""The public surface: every ``__all__`` lists unique names that resolve."""

import importlib
import pkgutil

import pytest

import fractaylor

MODULES = ["fractaylor"] + [f"fractaylor.{m.name}" for m in pkgutil.iter_modules(fractaylor.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_is_unique_and_resolves(name):
    module = importlib.import_module(name)
    names = getattr(module, "__all__", [])
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(module, n)] == []


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from fractaylor import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(fractaylor.__all__)
