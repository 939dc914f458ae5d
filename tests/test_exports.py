"""Every module's public names resolve."""

import importlib
import pkgutil

import pytest

import heterognn

MODULES = sorted(info.name for info in pkgutil.iter_modules(heterognn.__path__))


def test_every_module_is_scanned():
    assert {"autodiff", "graphs", "model", "multiset", "signed"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"heterognn.{name}")
    exported = getattr(module, "__all__", [])
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"heterognn.{name}.__all__ names {missing}"
    assert len(set(exported)) == len(exported)
