"""The benchmark's tracer must find every function it wraps.

``perfbench/tracer.py`` rebinds ``(module, attribute)`` pairs by name, so a
rename under ``src/`` would otherwise surface only when someone runs the
benchmark with tracing on.  The tracer is loaded by path and only read.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_binding_resolves_to_a_callable_in_src(monkeypatch):
    tracer = load_tracer(monkeypatch)
    src = ROOT / "src"
    assert tracer.WRAPPED
    for module_name, attr, layer in tracer.WRAPPED:
        module = importlib.import_module(module_name)
        assert Path(module.__file__).resolve().is_relative_to(src), module_name
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
        assert layer in tracer.LAYERS
