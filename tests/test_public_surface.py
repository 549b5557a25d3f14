"""Every name a countfit module lists in ``__all__`` exists.

A stale entry would make ``from countfit.<module> import *`` raise.
"""

import importlib
import pkgutil

import pytest

import countfit

MODULES = [info.name for info in pkgutil.iter_modules(countfit.__path__) if info.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"countfit.{name}")
    names = getattr(module, "__all__", [])
    assert [n for n in names if not hasattr(module, n)] == []
    assert len(set(names)) == len(names)
    namespace: dict = {}
    exec(f"from countfit.{name} import *", namespace)
    assert set(names) <= set(namespace)
