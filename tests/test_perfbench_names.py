"""Every dotted name perfbench/layers.py installs a recorder at resolves to
a callable in this checkout's src/, and takes the arguments its observer
reads by position at those positions, so a renamed function or a
reordered signature fails here and not only in a traced benchmark run."""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# the constants of perfbench/layers.py that name what it installs, each with
# the leading parameters its observers read from the call's positional args
INSTALLED = {
    "LOADERS": ("path",),
    "PRESEG_CORPUS": (),
    "PRESEG_WORD": ("word", "lexicon"),
    "DISAMBIGUATE": ("word", "analyses", "ud_tag"),
    "TRAIN": ("corpus", "cfg"),
    "ENCODE": ("word",),
    "SAVE": ("model", "path"),
    "LOAD": (),
    "EVALUATE": (),
}
POSITIONAL = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leaves no __pycache__ under perfbench/
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    yield importlib.import_module("layers")
    for name in ("layers", "tracer"):  # perfbench's modules, not the test process's
        del sys.modules[name]


def test_every_installed_name_is_a_callable_in_src(layers):
    n_names = 0
    for constant, read in INSTALLED.items():
        value = getattr(layers, constant)  # one name, a tuple of names or an algorithm -> name dict
        if isinstance(value, dict):
            value = value.values()
        for name in [value] if isinstance(value, str) else list(value):
            n_names += 1
            module_name, attr = name.rsplit(".", 1)
            module = importlib.import_module(module_name)
            assert Path(module.__file__).is_relative_to(ROOT / "src"), name
            fn = getattr(module, attr, None)
            assert callable(fn), name
            leading = list(inspect.signature(fn).parameters.values())[: len(read)]
            assert [p.name for p in leading] == list(read), name
            assert all(p.kind in POSITIONAL for p in leading), name
    assert n_names == 16
