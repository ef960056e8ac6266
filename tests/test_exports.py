"""Every exported name resolves, so deleting code cannot leave a stale export."""

import importlib
import pkgutil

import pytest

import odexpand

MODULES = sorted(
    m.name for m in pkgutil.iter_modules(odexpand.__path__, "odexpand.") if m.name != "odexpand.__main__"
)


@pytest.mark.parametrize("name", ["odexpand"] + MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []

