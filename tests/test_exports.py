"""Every exported name of the package and of its modules resolves."""

import importlib
import pkgutil

import pytest

import polarfactor

MODULES = ["polarfactor"] + [
    f"polarfactor.{info.name}" for info in pkgutil.iter_modules(polarfactor.__path__)
]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    names = mod.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(mod, name)] == []
