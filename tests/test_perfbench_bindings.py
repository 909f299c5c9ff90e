"""The benchmark's tracer must find every function it wraps.

``perfbench/tracer.py`` rebinds ``(module, attribute)`` pairs by name and
reads the arguments and results of some of them, so a rename or a changed
return value under ``src/`` would otherwise surface only when someone runs
the benchmark with tracing on.  The tracer is loaded by path and never
installed.
"""
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np

from udmrg import harness
from udmrg.truncation import TruncationPolicy, compute_weights, select_states

ROOT = Path(__file__).resolve().parent.parent

#: functions ``harness`` imports from ``gauge`` and ``spectral`` that the
#: tracer does not bind there, so their time shows as ``harness.self_s``;
#: the next benchmark change binds them (ROADMAP item 1)
UNBOUND_IN_HARNESS = {"action_and_charge_residual", "hermitian_eigensystem",
                      "second_derivative_overlaps"}


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


def test_the_tracer_binds_what_harness_imports_from_gauge_and_spectral(monkeypatch):
    tracer = load_tracer(monkeypatch)
    bound = {attr for module, attr, _ in tracer.WRAPPED if module == "udmrg.harness"}
    imported = {name for name, value in vars(harness).items()
                if inspect.isfunction(value)
                and value.__module__ in ("udmrg.gauge", "udmrg.spectral")}
    assert imported - bound == UNBOUND_IN_HARNESS


def test_the_tracer_counts_a_real_reranking_selection(monkeypatch):
    """The selection counters read ``weights.raw`` and ``result[0]``."""
    tracer = load_tracer(monkeypatch).Tracer()
    # the charge damps the largest state to 0.8 * exp(-1) < 0.3: the policy re-ranks
    policy = TruncationPolicy(kind="uhlmann", gamma1=1.0, max_kept=2)
    weights = compute_weights(np.array([0.8, 0.6, 0.3]), np.array([1.0, 0.0, 0.0]),
                              np.zeros(3), policy)
    result = select_states(weights, policy)
    assert result[0].tolist() == [1, 2]
    tracer._observe("truncation.select_states", (weights, policy), result)
    assert tracer.counts["truncation.coef_selections"] == 1
    assert tracer.counts["truncation.reranked"] == 1
