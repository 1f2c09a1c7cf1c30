"""Every name that ``__all__`` promises exists, so a star-import never fails on a
stale entry left behind by a deletion."""

import importlib
import pkgutil

import pytest

import aflearn

MODULES = ["aflearn"] + [f"aflearn.{m.name}" for m in pkgutil.iter_modules(aflearn.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_all_entry_resolves(module_name):
    module = importlib.import_module(module_name)
    names = module.__all__
    assert len(set(names)) == len(names), f"{module_name}.__all__ repeats a name"
    missing = [name for name in names if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names {missing}"
