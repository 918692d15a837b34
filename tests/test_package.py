"""The public surface: every exported name resolves."""

import importlib
import pkgutil

import pytest

import mibci

MODULES = sorted(m.name for m in pkgutil.iter_modules(mibci.__path__) if not m.name.startswith("_"))


def test_package_exports_resolve():
    missing = [name for name in mibci.__all__ if not hasattr(mibci, name)]
    assert not missing


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"mibci.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing
