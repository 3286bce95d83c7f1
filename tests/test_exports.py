import importlib
import pkgutil

import pytest

import kaclab

MODULES = ["kaclab"] + sorted(f"kaclab.{m.name}"
                              for m in pkgutil.iter_modules(kaclab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names {missing}"
