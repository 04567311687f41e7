"""Every dotted name perfbench/layers.py installs a recorder at resolves to
a callable in this checkout's src/, so a renamed function fails here and
not only in a traced benchmark run."""

import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# the constants of perfbench/layers.py that name what it installs
INSTALLED = ("LOADERS", "PRESEG_CORPUS", "PRESEG_WORD", "DISAMBIGUATE", "TRAIN", "ENCODE", "SAVE", "LOAD",
             "EVALUATE")


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leaves no __pycache__ under perfbench/
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    yield importlib.import_module("layers")
    for name in ("layers", "tracer"):  # perfbench's modules, not the test process's
        del sys.modules[name]


def test_every_installed_name_is_a_callable_in_src(layers):
    names = []
    for constant in INSTALLED:
        value = getattr(layers, constant)  # one name, a tuple of names or an algorithm -> name dict
        if isinstance(value, dict):
            value = value.values()
        names += [value] if isinstance(value, str) else list(value)
    assert len(names) == 16
    for name in names:
        module_name, attr = name.rsplit(".", 1)
        module = importlib.import_module(module_name)
        assert Path(module.__file__).is_relative_to(ROOT / "src"), name
        assert callable(getattr(module, attr, None)), name
