"""Every exported name resolves, so deleting code cannot leave a stale export."""

import importlib
import pkgutil

import pytest

import odexpand

from helpers import bench_module

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


def test_every_traced_name_resolves():
    # The benchmark's --trace wraps package functions by (module, attribute
    # path); a rename would otherwise only surface in a traced run.
    spans = bench_module("spans")
    targets = [(module, path) for _, module, path, _ in spans.TARGETS] + [spans.RHS_FACTORY]
    missing = []
    for module, path in targets:
        *outer, attr = path.split(".")
        owner = importlib.import_module(module)
        for part in outer:
            owner = getattr(owner, part, None)
        # methods are wrapped on the class that defines them
        found = attr in vars(owner) if isinstance(owner, type) else hasattr(owner, attr)
        if not found:
            missing.append(f"{module}:{path}")
    assert missing == []
