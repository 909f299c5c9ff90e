"""Outside-in layer tracing for udmrg.

The tracer wraps the public functions that sit on udmrg's layer boundaries
and rebinds each wrapper in the namespace that calls it, so the engine code
under ``src/`` runs unmodified.  Each wrapped function belongs to one layer.
A call records its inclusive time under ``<layer>.<fn>`` and adds its time,
minus the time of wrapped calls nested inside it, to ``<layer>`` self time.
The self times of all layers therefore partition the time spent inside the
outermost wrapped calls.

A few calls resolve through function-local imports (``from .mps import
mpo_to_dense`` inside ``continuation_scan``); those are wrapped as
attributes of their home module, which is what the local import reads.
"""
from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

LAYERS = ("cli", "harness", "dmrg", "mps", "truncation", "models", "spectral",
          "gauge", "reporting")

#: (namespace module, attribute, layer).  The namespace is the module whose
#: code calls the function; the wrapped name is reported as ``<layer>.<attr>``.
WRAPPED = (
    # the entry points and serialization, as dispatch sees them
    ("udmrg.cli", "parse_config_data", "cli"),
    ("udmrg.cli", "dispatch", "cli"),
    ("udmrg.cli", "run_experiment", "harness"),
    ("udmrg.cli", "write_report_csv", "reporting"),
    ("udmrg.cli", "write_json", "reporting"),
    ("udmrg.cli", "sha256_file", "reporting"),
    # the experiments' callees
    ("udmrg.harness", "grid_search_coefficients", "harness"),
    ("udmrg.harness", "continuation_scan", "dmrg"),
    ("udmrg.harness", "ground_state", "dmrg"),
    ("udmrg.harness", "random_mps", "mps"),
    ("udmrg.harness", "build_spin_chain_mpo", "models"),
    ("udmrg.harness", "dense_spin_chain", "models"),
    ("udmrg.harness", "exact_diagonalization", "models"),
    ("udmrg.harness", "evolution_step", "models"),
    ("udmrg.harness", "track_hermitian_family", "spectral"),
    ("udmrg.harness", "derivative_overlaps", "spectral"),
    ("udmrg.harness", "compute_weights", "truncation"),
    ("udmrg.harness", "uhlmann_potential", "gauge"),
    ("udmrg.harness", "covariant_derivative", "gauge"),
    ("udmrg.harness", "action_functional", "gauge"),
    ("udmrg.harness", "smooth_density_family", "gauge"),
    ("udmrg.harness", "smooth_unitary_family", "gauge"),
    ("udmrg.harness", "gauge_charge_residual", "gauge"),
    ("udmrg.harness", "gauge_transform", "gauge"),
    ("udmrg.harness", "categorical_potential_1", "gauge"),
    ("udmrg.harness", "categorical_potential_2", "gauge"),
    ("udmrg.harness", "default_coherence_matrix", "gauge"),
    ("udmrg.harness", "default_coherence_cube", "gauge"),
    ("udmrg.harness", "contract_coherence_cube", "gauge"),
    ("udmrg.harness", "pure_gauge_potential_2d", "gauge"),
    ("udmrg.harness", "curvature", "gauge"),
    # the sweep engine's callees
    ("udmrg.dmrg", "effective_hamiltonian", "dmrg"),
    ("udmrg.dmrg", "split_theta", "mps"),
    ("udmrg.dmrg", "bond_schmidt_data", "mps"),
    ("udmrg.dmrg", "canonicalize", "mps"),
    ("udmrg.dmrg", "expectation", "mps"),
    ("udmrg.dmrg", "to_dense", "mps"),
    ("udmrg.dmrg", "charge_first_order", "truncation"),
    ("udmrg.dmrg", "charge_second_order", "truncation"),
    ("udmrg.dmrg", "compute_weights", "truncation"),
    ("udmrg.dmrg", "select_states", "truncation"),
    # the gauge layer's spectral callees
    ("udmrg.gauge", "derivative_overlaps", "spectral"),
    ("udmrg.gauge", "second_derivative_overlaps", "spectral"),
    # reached only through function-local imports: wrap at home
    ("udmrg.mps", "mpo_to_dense", "mps"),
    ("udmrg.mps", "left_cross_envs", "mps"),
    ("udmrg.models", "exact_diagonalization", "models"),
    ("udmrg.truncation", "charge_first_order", "truncation"),
    ("udmrg.truncation", "charge_second_order", "truncation"),
)

#: counters derived from arguments and results at the boundaries
COUNTERS = ("dmrg.local_solves", "dmrg.sweeps", "dmrg.unconverged",
            "dmrg.scan_points", "harness.scans", "truncation.coef_selections",
            "truncation.reranked", "reporting.bytes_written")


def wrapped_names() -> list[str]:
    """Every ``<layer>.<fn>`` key the tracer can report, in a fixed order."""
    seen: dict[str, None] = {}
    for _, attr, layer in WRAPPED:
        seen.setdefault(f"{layer}.{attr}", None)
    return list(seen)


def _top_kept(raw: np.ndarray, max_kept: int, cutoff: float) -> np.ndarray:
    """Indices the standard rule keeps: top ``max_kept`` raw weights."""
    order = np.lexsort((np.arange(raw.size), -raw))
    threshold = cutoff * float(np.max(raw))
    admitted = [i for i in order if raw[i] >= threshold]
    return np.sort(np.asarray(admitted[:max_kept], dtype=int))


class Tracer:
    """Accumulates calls, inclusive and self times, and boundary counters."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[list[float]] = []

    # -- boundary hooks ---------------------------------------------------

    def _observe(self, key: str, args: tuple, result: Any) -> None:
        if key == "dmrg.effective_hamiltonian":
            self.counts["dmrg.local_solves"] += 1
        elif key == "dmrg.ground_state":
            self._count_solves([result])
        elif key == "dmrg.continuation_scan":
            self.counts["harness.scans"] += 1
            self.counts["dmrg.scan_points"] += len(result.results)
            self._count_solves(result.results)
        elif key == "truncation.select_states":
            weights, policy = args[0], args[1]
            coefficients = (policy.gamma1, policy.gamma2, policy.lambda1, policy.lambda2)
            if policy.kind != "standard" and any(c > 0 for c in coefficients):
                self.counts["truncation.coef_selections"] += 1
                top = _top_kept(weights.raw, policy.max_kept, policy.cutoff)
                if not np.array_equal(top, result[0]):
                    self.counts["truncation.reranked"] += 1
        elif key in ("reporting.write_report_csv", "reporting.write_json"):
            self.counts["reporting.bytes_written"] += Path(result).stat().st_size

    def _count_solves(self, results) -> None:
        for res in results:
            self.counts["dmrg.sweeps"] += len(res.sweep_energies)
            self.counts["dmrg.unconverged"] += 0 if res.converged else 1

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, key: str, layer: str, fn: Callable) -> Callable:
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self.self_time[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                self.calls[key] += 1
                self.inclusive[key] += elapsed
            self._observe(key, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every boundary function to its timing wrapper."""
        for module_name, attr, layer in WRAPPED:
            module = importlib.import_module(module_name)
            wrapper = self._wrap(f"{layer}.{attr}", layer, getattr(module, attr))
            setattr(module, attr, wrapper)

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Flat per-layer metrics; ``wall_s`` is the traced time measured outside."""
        out: dict[str, float] = {}
        for key in wrapped_names():
            out[f"{key}.calls"] = self.calls[key]
            out[f"{key}.s"] = self.inclusive[key]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_time[layer]
        for name in COUNTERS:
            out[name] = self.counts[name]
        selections = self.counts["truncation.coef_selections"]
        out["truncation.rerank_ratio"] = (
            self.counts["truncation.reranked"] / selections if selections else 0.0)
        out["reporting.write_s"] = (self.inclusive["reporting.write_report_csv"]
                                    + self.inclusive["reporting.write_json"])
        covered = sum(self.self_time[layer] for layer in LAYERS)
        out["trace.coverage"] = covered / wall_s if wall_s > 0 else 0.0
        return out

