"""The benchmark's span tracer wraps package names; each must still exist.

``perfbench/tracing.py`` patches the functions and methods it lists into the
namespaces where the package's callers find them.  A name deleted or renamed
in the package breaks every traced benchmark run, so this test reads the
tracer's tables (without importing it as a module, so nothing is written
next to it) and resolves each entry.
"""

import importlib
import types
from pathlib import Path

import numpy as np

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_function_resolves():
    tracing = _tracing()
    assert tracing.FUNCTIONS
    for module_name, names in tracing.FUNCTIONS.items():
        module = importlib.import_module(f"aflearn.{module_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"aflearn.{module_name}.{name}"
    for name in tracing.FFT_FUNCTIONS:
        assert callable(getattr(np.fft, name, None)), f"numpy.fft.{name}"


def test_every_traced_method_resolves():
    tracing = _tracing()
    layers = importlib.import_module("aflearn.layers")
    assert tracing.METHODS
    for cls_name, methods in tracing.METHODS.items():
        cls = getattr(layers, cls_name, None)
        assert isinstance(cls, type), f"aflearn.layers.{cls_name}"
        for method in methods:
            assert callable(getattr(cls, method, None)), f"aflearn.layers.{cls_name}.{method}"
