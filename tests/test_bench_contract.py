"""The traced benchmark run wraps named functions of the package by name.

``bench/tracing.py`` replaces each layer's entry points with span-recording
wrappers; a renamed or removed function makes its wrap fail and crashes the
traced run. Installing and restoring the tracer here catches that first.
"""

import importlib.util
import sys
from pathlib import Path

import shelterplan
import shelterplan.cli  # noqa: F401  (imports every layer the tracer wraps)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_tracer_wraps_and_restores_every_layer():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, shelterplan)
    finally:
        tracer.restore()
    assert tracer._installed, "no function was wrapped"
    assert tracer.unrestored() == []
