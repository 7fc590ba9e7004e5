"""Every name a msfrac module exports resolves."""

import importlib
import pkgutil

import pytest

import msfrac

MODULES = sorted(m.name for m in pkgutil.iter_modules(msfrac.__path__, "msfrac."))


def test_every_module_is_found():
    assert {"msfrac.assembly", "msfrac.coarse", "msfrac.fields"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", []) if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
