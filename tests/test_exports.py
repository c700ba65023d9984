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


def test_package_exports_are_the_module_exports_in_order():
    exported = [m for m in MODULES[1:] if m != "polarfactor.cli"]
    assert polarfactor.__all__ == [
        name for m in exported for name in importlib.import_module(m).__all__
    ] + ["__version__"]
    # the star import of decompose rebinds the name to the cached function
    assert hasattr(polarfactor.decompose, "cache_info")
