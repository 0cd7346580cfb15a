"""Every exported name exists, so ``from phaseshape import *`` and its
per-module forms never trip on a stale ``__all__`` entry."""

import importlib
import pkgutil

import pytest

import phaseshape

MODULES = [phaseshape] + [
    importlib.import_module(f"phaseshape.{info.name}")
    for info in pkgutil.iter_modules(phaseshape.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=[m.__name__ for m in MODULES])
def test_all_names_exist_once(module):
    names = module.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(module, n)] == []
