"""Experiment orchestration and report assembly.

Four experiments share one flat configuration type:

``crossing_scan``
    Two-level avoided-crossing sweep: tracked eigensystems, Gaussian
    transition probabilities, time-dependent Schrodinger populations, and
    per-policy effective truncation weights on a grid that always contains
    the exact degeneracy points of the diabatic energies.

``pec_comparison``
    Potential-energy-curve comparison: warm-started ground-state scans of a
    transverse-field Ising chain across its critical point under four
    truncation methods at equal bond budget, with per-method errors against
    dense diagonalization, optional coefficient grid search (grids must
    contain zero, so the searched methods can never do worse than standard),
    and improvement percentages recomputed from the recorded errors.

``dmrg_benchmark``
    Ground-state energies versus dense diagonalization over a size/field
    matrix at a bond dimension large enough to be numerically exact.

``gauge_diagnostics``
    Randomized smooth-family checks of the gauge machinery: hermiticity,
    action values and positivity, gauge covariance on a fine three-point
    microgrid, parallel-transport actions, charge residuals, and
    finite-difference refinement ratios for derivative overlaps and
    pure-gauge curvature.

All artifacts are deterministic functions of the configuration: seeded
generators, repr-formatted floats, and no wall-clock values outside the run
manifest.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Optional, Sequence

import numpy as np

from ._version import __version__
from .dmrg import ContinuationScan, SweepConfig, continuation_scan, ground_state
from .gauge import (
    ActionParams,
    GaugePotential,
    action_functional,
    categorical_potential_1,
    categorical_potential_2,
    contract_coherence_cube,
    covariant_derivative,
    curvature,
    default_coherence_cube,
    default_coherence_matrix,
    gauge_charge_residual,
    gauge_transform,
    pure_gauge_potential_2d,
    smooth_density_family,
    smooth_unitary_family,
    uhlmann_potential,
)
from .linalg import dag, hermitian_part, hermiticity_residual, max_abs, random_unitary
from .models import (
    CROSSING_POINTS,
    SPIN_CHAIN_KINDS,
    SpinChainSpec,
    TwoLevelModel,
    build_spin_chain_mpo,
    dense_spin_chain,
    evolution_step,
    exact_diagonalization,
    gaussian_transition_probability,
    two_level_hamiltonian,
)
from .mps import random_mps
from .reporting import ScanReport, config_hash
from .spectral import (
    derivative_overlaps,
    second_derivative_overlaps,
    track_hermitian_family,
)
from .truncation import POLICY_KINDS, TruncationPolicy, compute_weights

EXPERIMENT_KINDS = (
    "crossing_scan",
    "pec_comparison",
    "dmrg_benchmark",
    "gauge_diagnostics",
)

#: the four comparison-table methods, in row order
TABLE_METHOD_KINDS = ("standard", "uhlmann", "categorified", "coherence_eigenvalue_2")

METHOD_LABELS = {
    "standard": "standard",
    "uhlmann": "uhlmann",
    "categorified": "categorified",
    "coherence_eigenvalue": "coherence_eigenvalue",
    "coherence_eigenvalue_2": "higher_categorical",
}

OBJECTIVES = ("energy_error", "fidelity")

#: dense oracle ceiling (states); matches the exact-diagonalization default
ORACLE_LIMIT = 4096


def default_policies(max_kept: int = 64) -> list[TruncationPolicy]:
    """The four comparison methods with all coefficients zero."""
    return [TruncationPolicy(kind=k, max_kept=max_kept) for k in TABLE_METHOD_KINDS]


@dataclass
class ExperimentConfig:
    """Flat configuration covering every experiment kind.

    Fields irrelevant to the selected kind keep their defaults; the CLI
    additionally rejects keys that do not belong to the chosen experiment and
    reads each key's type from the annotations below.
    """

    kind: str
    seed: int = 7
    policies: list[TruncationPolicy] = field(default_factory=default_policies)
    gamma1_grid: tuple[float, ...] = (0.0, 0.5, 1.0)
    gamma2_grid: tuple[float, ...] = (0.0, 0.5)
    lambda1_grid: tuple[float, ...] = (0.0, 0.5, 1.0)
    lambda2_grid: tuple[float, ...] = (0.0, 0.5)
    # crossing_scan
    coupling: float = 0.1
    lambda_min: float = -2.0
    lambda_max: float = 2.0
    n_points: int = 401
    sweep_rate: float = 1.0
    time_steps: int = 4000
    # pec_comparison
    spin_model: str = "tfim"
    n_sites: int = 6
    coupling_j: float = 1.0
    field_min: float = 0.5
    field_max: float = 1.5
    n_fields: int = 21
    crossing_center: float = 1.0
    crossing_window: float = 0.1
    max_bond: int = 4
    num_sweeps: int = 12
    energy_tol: float = 1e-9
    grid_search: bool = True
    objective: str = "energy_error"
    # dmrg_benchmark
    benchmark_sizes: tuple[int, ...] = (6, 8, 10)
    benchmark_fields: tuple[float, ...] = (0.5, 1.0, 1.5)
    benchmark_bond: int = 32
    benchmark_sweeps: int = 20
    benchmark_tol: float = 1e-10
    # gauge_diagnostics
    n_families: int = 100
    family_dim: int = 3
    family_points: int = 21
    microgrid_spacing: float = 3e-5
    refine_time_sizes: tuple[int, ...] = (21, 41, 81)
    refine_plane_sizes: tuple[int, ...] = (9, 17, 33)

    def __post_init__(self) -> None:
        problems = self.validate()
        if problems:
            raise ValueError(
                "invalid experiment configuration:\n  - " + "\n  - ".join(problems)
            )

    def validate(self) -> list[str]:
        """Return every problem found, not just the first."""
        errs: list[str] = []
        if self.kind not in EXPERIMENT_KINDS:
            errs.append(
                f"unknown experiment kind {self.kind!r}; expected one of "
                f"{', '.join(EXPERIMENT_KINDS)}"
            )
        if not isinstance(self.seed, int) or self.seed < 0:
            errs.append("seed must be a non-negative integer")
        for name in ("gamma1_grid", "gamma2_grid", "lambda1_grid", "lambda2_grid"):
            grid = getattr(self, name)
            if len(grid) == 0:
                errs.append(f"{name} must not be empty")
                continue
            if any(not np.isfinite(g) or g < 0 for g in grid):
                errs.append(f"{name} entries must be finite and non-negative")
            if not any(g == 0 for g in grid):
                errs.append(
                    f"{name} must contain 0 so grid-searched methods can never "
                    "fall behind the standard method (non-inferiority guarantee)"
                )
        for pol in self.policies:
            if not isinstance(pol, TruncationPolicy):
                errs.append(f"policies entries must be TruncationPolicy, got {pol!r}")
        if not self.coupling > 0:
            errs.append("coupling must be positive")
        if not self.lambda_min < self.lambda_max:
            errs.append("lambda_min must be below lambda_max")
        if self.n_points < 5:
            errs.append("n_points must be at least 5")
        if not self.sweep_rate > 0:
            errs.append("sweep_rate must be positive")
        if self.time_steps < 10:
            errs.append("time_steps must be at least 10")
        if self.spin_model not in SPIN_CHAIN_KINDS:
            errs.append(
                f"unknown spin_model {self.spin_model!r}; expected one of "
                f"{', '.join(SPIN_CHAIN_KINDS)}"
            )
        if self.kind == "pec_comparison" and self.spin_model != "tfim":
            errs.append("pec_comparison scans a transverse field; spin_model must be 'tfim'")
        if self.n_sites < 2:
            errs.append("n_sites must be at least 2")
        if self.kind == "pec_comparison" and 2**self.n_sites > ORACLE_LIMIT:
            errs.append(
                f"dense oracle limit is {ORACLE_LIMIT} states; reduce n_sites to "
                f"{int(np.log2(ORACLE_LIMIT))} or fewer"
            )
        if not self.field_min < self.field_max:
            errs.append("field_min must be below field_max")
        if self.n_fields < 3:
            errs.append("n_fields must be at least 3")
        if not self.crossing_window > 0:
            errs.append("crossing_window must be positive")
        elif (self.kind == "pec_comparison" and self.n_fields >= 3
              and self.field_min < self.field_max and not _pec_grid(self)[1].any()):
            errs.append("crossing window contains no grid points; widen it")
        if self.max_bond < 1:
            errs.append("max_bond must be positive")
        if self.num_sweeps < 1:
            errs.append("num_sweeps must be positive")
        if not self.energy_tol > 0:
            errs.append("energy_tol must be positive")
        if self.objective not in OBJECTIVES:
            errs.append(
                f"unknown objective {self.objective!r}; expected one of "
                f"{', '.join(OBJECTIVES)}"
            )
        if any(n < 2 for n in self.benchmark_sizes) or not self.benchmark_sizes:
            errs.append("benchmark_sizes must list chain lengths of at least 2 sites")
        if any(2**n > ORACLE_LIMIT for n in self.benchmark_sizes):
            errs.append(
                f"benchmark_sizes exceed the dense oracle limit ({ORACLE_LIMIT} states)"
            )
        if not self.benchmark_fields:
            errs.append("benchmark_fields must not be empty")
        if self.benchmark_bond < 1:
            errs.append("benchmark_bond must be positive")
        if self.benchmark_sweeps < 1:
            errs.append("benchmark_sweeps must be positive")
        if not self.benchmark_tol > 0:
            errs.append("benchmark_tol must be positive")
        if self.n_families < 1:
            errs.append("n_families must be positive")
        if self.family_dim < 2:
            errs.append("family_dim must be at least 2")
        if self.family_points < 5:
            errs.append("family_points must be at least 5")
        if not 0 < self.microgrid_spacing <= 1e-2:
            errs.append("microgrid_spacing must lie in (0, 1e-2]")
        for name in ("refine_time_sizes", "refine_plane_sizes"):
            sizes = getattr(self, name)
            if len(sizes) < 3:
                errs.append(f"{name} needs at least three refinement levels")
                continue
            if any(n < 5 or n % 2 == 0 for n in sizes):
                errs.append(f"{name} entries must be odd and at least 5")
            elif any(b != 2 * a - 1 for a, b in zip(sizes, sizes[1:])):
                errs.append(
                    f"{name} must halve the spacing at each level (n -> 2n - 1)"
                )
        return errs


def config_payload(cfg: ExperimentConfig) -> dict:
    """Configuration as a plain dict, the input to the config hash."""
    return dataclasses.asdict(cfg)


def _provenance(cfg: ExperimentConfig) -> dict:
    return {
        "experiment": cfg.kind,
        "seed": cfg.seed,
        "config_hash": config_hash(config_payload(cfg)),
        "tool_version": __version__,
    }


# ---------------------------------------------------------------------------
# crossing_scan
# ---------------------------------------------------------------------------

def _crossing_grid(cfg: ExperimentConfig) -> np.ndarray:
    """Scan grid with the diabatic degeneracy points inserted exactly."""
    base = np.linspace(cfg.lambda_min, cfg.lambda_max, cfg.n_points)
    extras = [c for c in CROSSING_POINTS if cfg.lambda_min < c < cfg.lambda_max]
    if not extras:
        return base
    extras_arr = np.array(extras)
    keep = base[np.all(np.abs(base[:, None] - extras_arr[None, :]) > 1e-9, axis=1)]
    return np.sort(np.concatenate([keep, extras_arr]))


def _policy_labels(policies: Sequence[TruncationPolicy]) -> list[str]:
    labels: list[str] = []
    for pol in policies:
        base = METHOD_LABELS.get(pol.kind, pol.kind)
        label = base
        n = 2
        while label in labels:
            label = f"{base}_{n}"
            n += 1
        labels.append(label)
    return labels


def run_crossing_scan(cfg: ExperimentConfig) -> ScanReport:
    """Two-level avoided-crossing sweep; see the module docstring."""
    if cfg.kind != "crossing_scan":
        raise ValueError(f"config is for {cfg.kind!r}, not crossing_scan")
    model = TwoLevelModel(coupling=cfg.coupling)
    grid = _crossing_grid(cfg)
    n = grid.size
    track = track_hermitian_family(grid, [two_level_hamiltonian(model, l) for l in grid])

    # Schrodinger traversal lambda(t) = sweep_rate * t, resolved so that every
    # scan point is hit exactly by a substep boundary.
    rate = cfg.sweep_rate
    times = grid / rate
    dt_target = (times[-1] - times[0]) / cfg.time_steps
    psi = track.points[0].vectors[:, 0].astype(complex)
    psi /= np.linalg.norm(psi)
    pops = np.empty((n, 2))
    norms = np.empty(n)
    pops[0] = np.abs(dag(track.points[0].vectors) @ psi) ** 2
    norms[0] = float(np.linalg.norm(psi))
    for k in range(1, n):
        seg = times[k] - times[k - 1]
        substeps = max(1, int(np.ceil(seg / dt_target - 1e-12)))
        dt = seg / substeps
        for j in range(substeps):
            midpoint = times[k - 1] + (j + 0.5) * dt
            h = two_level_hamiltonian(model, rate * midpoint)
            psi = evolution_step(h, dt) @ psi
        pops[k] = np.abs(dag(track.points[k].vectors) @ psi) ** 2
        norms[k] = float(np.linalg.norm(psi))

    from .truncation import charge_first_order, charge_second_order

    charges1 = np.zeros((n, 2))
    charges2 = np.zeros((n, 2))
    for k in range(1, n - 1):
        d1 = derivative_overlaps(track, k)
        charges1[k] = charge_first_order(pops[k] / pops[k].sum(), d1)
        charges2[k] = charge_second_order(second_derivative_overlaps(track, k))

    labels = _policy_labels(cfg.policies)
    columns = [
        "index", "lam", "energy_lower", "energy_upper", "gap", "p_gaussian",
        "pop_lower", "pop_upper", "norm", "q1_lower", "q1_upper", "q2_lower",
        "q2_upper",
    ]
    for label in labels:
        columns += [f"eff_{label}_lower", f"eff_{label}_upper"]

    report = ScanReport(name="crossing_scan", columns=columns)
    p_gauss = np.array([gaussian_transition_probability(model, l) for l in grid])
    for k in range(n):
        evals = track.points[k].eigenvalues
        row = [
            k, grid[k], float(evals[0]), float(evals[1]),
            float(evals[1] - evals[0]), float(p_gauss[k]),
            float(pops[k][0]), float(pops[k][1]), norms[k],
            float(charges1[k][0]), float(charges1[k][1]),
            float(charges2[k][0]), float(charges2[k][1]),
        ]
        order = np.lexsort((np.arange(2), -pops[k]))
        sigma = np.sqrt(pops[k][order])
        for pol in cfg.policies:
            weights = compute_weights(sigma, charges1[k][order], charges2[k][order], pol)
            eff = np.empty(2)
            eff[order] = weights.effective
            row += [float(eff[0]), float(eff[1])]
        report.add_row(*row)

    argmax = int(np.argmax(p_gauss))
    drift = float(np.max(np.abs(norms - 1.0)))
    report.summary = {
        "coupling": cfg.coupling,
        "sweep_rate": cfg.sweep_rate,
        "rows": n,
        "max_p_gaussian": float(p_gauss[argmax]),
        "argmax_lambda": float(grid[argmax]),
        "final_pop_lower": float(pops[-1][0]),
        "final_pop_upper": float(pops[-1][1]),
        "max_norm_drift": drift,
        "degenerate_points": len(track.degenerate_points),
        "flagged": int(drift > 1e-10),
    }
    return report


# ---------------------------------------------------------------------------
# dmrg_benchmark
# ---------------------------------------------------------------------------

def run_dmrg_benchmark(cfg: ExperimentConfig) -> ScanReport:
    """Ground-state energies versus dense diagonalization; see module docstring."""
    if cfg.kind != "dmrg_benchmark":
        raise ValueError(f"config is for {cfg.kind!r}, not dmrg_benchmark")
    report = ScanReport(
        name="dmrg_benchmark",
        columns=["n_sites", "field", "bond_dim", "energy", "energy_exact",
                 "abs_error", "sweeps", "converged"],
    )
    flagged = 0
    errors = []
    for n in cfg.benchmark_sizes:
        for h in cfg.benchmark_fields:
            spec = SpinChainSpec(cfg.spin_model, n, coupling=cfg.coupling_j, field=h)
            mpo = build_spin_chain_mpo(spec)
            rng = np.random.default_rng(cfg.seed)
            init = random_mps(rng, [2] * n, cfg.benchmark_bond)
            sweep_cfg = SweepConfig(
                max_bond=cfg.benchmark_bond, num_sweeps=cfg.benchmark_sweeps,
                energy_tol=cfg.benchmark_tol,
                policy=TruncationPolicy(max_kept=cfg.benchmark_bond),
            )
            result = ground_state(mpo, init, sweep_cfg)
            exact = float(exact_diagonalization(dense_spin_chain(spec))[0][0])
            err = abs(result.energy - exact)
            errors.append(err)
            flagged += 0 if result.converged else 1
            report.add_row(n, float(h), cfg.benchmark_bond, result.energy, exact,
                           err, len(result.sweep_energies), result.converged)
    report.summary = {
        "model": cfg.spin_model,
        "bond_dim": cfg.benchmark_bond,
        "max_abs_error": float(max(errors)),
        "tolerance": 1e-8,
        "within_tolerance": bool(max(errors) <= 1e-8),
        "flagged": flagged,
    }
    return report


# ---------------------------------------------------------------------------
# pec_comparison and coefficient grid search
# ---------------------------------------------------------------------------

def _pec_grid(cfg: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """Field grid of a pec_comparison scan and its crossing-window mask."""
    grid = np.linspace(cfg.field_min, cfg.field_max, cfg.n_fields)
    return grid, np.abs(grid - cfg.crossing_center) <= cfg.crossing_window + 1e-12


@dataclass
class _PecProblem:
    grid: np.ndarray
    family: Callable
    exact_energies: np.ndarray
    window: np.ndarray


def _pec_problem(cfg: ExperimentConfig) -> _PecProblem:
    grid, window = _pec_grid(cfg)

    def family(h: float):
        spec = SpinChainSpec(cfg.spin_model, cfg.n_sites,
                             coupling=cfg.coupling_j, field=h)
        return build_spin_chain_mpo(spec)

    exact = np.array([
        float(exact_diagonalization(dense_spin_chain(
            SpinChainSpec(cfg.spin_model, cfg.n_sites,
                          coupling=cfg.coupling_j, field=h)))[0][0])
        for h in grid
    ])
    return _PecProblem(grid=grid, family=family, exact_energies=exact, window=window)


def _scan_for_policy(cfg: ExperimentConfig, problem: _PecProblem,
                     policy: TruncationPolicy) -> ContinuationScan:
    rng = np.random.default_rng(cfg.seed)
    init = random_mps(rng, [2] * cfg.n_sites, cfg.max_bond)
    sweep_cfg = SweepConfig(max_bond=cfg.max_bond, num_sweeps=cfg.num_sweeps,
                            energy_tol=cfg.energy_tol, policy=policy)
    return continuation_scan(problem.family, problem.grid, sweep_cfg, init=init)


def _scan_errors(scan: ContinuationScan, problem: _PecProblem) -> np.ndarray:
    return np.array([
        abs(res.energy - e) for res, e in zip(scan.results, problem.exact_energies)
    ])


def _scan_objective(cfg: ExperimentConfig, scan: ContinuationScan,
                    problem: _PecProblem) -> float:
    if cfg.objective == "energy_error":
        return float(_scan_errors(scan, problem)[problem.window].max())
    fids = np.array(scan.fidelity_to_oracle)
    return float(-fids[problem.window].min())


def _coefficient_cells(kind: str, cfg: ExperimentConfig) -> list[dict]:
    if kind == "uhlmann":
        return [{"gamma1": g} for g in cfg.gamma1_grid]
    if kind == "categorified":
        return [{"gamma1": a, "gamma2": b}
                for a, b in product(cfg.gamma1_grid, cfg.gamma2_grid)]
    if kind == "coherence_eigenvalue":
        return [{"lambda1": a} for a in cfg.lambda1_grid]
    if kind == "coherence_eigenvalue_2":
        return [{"lambda1": a, "lambda2": b}
                for a, b in product(cfg.lambda1_grid, cfg.lambda2_grid)]
    return [{}]


@dataclass
class GridSearchResult:
    """Best coefficients per method plus the exhaustive evaluation table."""

    best_cells: dict[str, dict]
    best_policies: dict[str, TruncationPolicy]
    best_scans: dict[str, ContinuationScan]
    best_objectives: dict[str, float]
    table: ScanReport


def grid_search_coefficients(cfg: ExperimentConfig,
                             kinds: Optional[Sequence[str]] = None,
                             problem: Optional[_PecProblem] = None) -> GridSearchResult:
    """Exhaustive coefficient search per enhanced method.

    Every (method, coefficient) cell runs a full warm-started scan of the
    validation instance and is scored by ``cfg.objective`` over the crossing
    window (energy error is minimized; fidelity is maximized).  Ties prefer
    the all-zero cell, then the earliest grid cell, making the outcome
    deterministic and never worse than the standard method.
    """
    if problem is None:
        problem = _pec_problem(cfg)
    if kinds is None:
        kinds = [k for k in TABLE_METHOD_KINDS if k != "standard"]
    for kind in kinds:
        if kind not in POLICY_KINDS or kind == "standard":
            raise ValueError(f"cannot grid-search kind {kind!r}")
    table = ScanReport(
        name=f"{cfg.kind}_gridsearch",
        columns=["method", "gamma1", "gamma2", "lambda1", "lambda2",
                 "objective", "selected"],
    )
    best_cells: dict[str, dict] = {}
    best_policies: dict[str, TruncationPolicy] = {}
    best_scans: dict[str, ContinuationScan] = {}
    best_objectives: dict[str, float] = {}
    for kind in kinds:
        cells = _coefficient_cells(kind, cfg)
        scored = []
        for i, cell in enumerate(cells):
            policy = TruncationPolicy(kind=kind, max_kept=cfg.max_bond, **cell)
            scan = _scan_for_policy(cfg, problem, policy)
            score = _scan_objective(cfg, scan, problem)
            nonzero = 0 if all(v == 0 for v in cell.values()) else 1
            scored.append((score, nonzero, i, cell, policy, scan))
        best = min(scored, key=lambda s: (s[0], s[1], s[2]))
        label = METHOD_LABELS[kind]
        best_cells[kind] = best[3]
        best_policies[kind] = best[4]
        best_scans[kind] = best[5]
        best_objectives[kind] = best[0]
        for score, _, i, cell, policy, _scan in scored:
            table.add_row(label, policy.gamma1, policy.gamma2, policy.lambda1,
                          policy.lambda2, score, i == best[2])
    return GridSearchResult(best_cells=best_cells, best_policies=best_policies,
                            best_scans=best_scans, best_objectives=best_objectives,
                            table=table)


def _points_report(name: str, cfg: ExperimentConfig, problem: _PecProblem,
                   scan: ContinuationScan) -> ScanReport:
    n_bonds = cfg.n_sites - 1
    columns = ["index", "field", "energy", "energy_exact", "abs_error",
               "fidelity", "converged", "coherence_penalty",
               "curvature_penalty", "objective"]
    for b in range(n_bonds):
        columns += [f"discard_b{b}", f"q1max_b{b}", f"q2max_b{b}"]
    report = ScanReport(name=name, columns=columns)
    errors = _scan_errors(scan, problem)
    for k in range(problem.grid.size):
        rec = scan.records[k]
        row = [
            k, float(problem.grid[k]), rec.energy,
            float(problem.exact_energies[k]), float(errors[k]),
            float(scan.fidelity_to_oracle[k]), rec.converged,
            rec.coherence_penalty, rec.curvature_penalty, rec.objective,
        ]
        for b in range(n_bonds):
            q1 = rec.bond_charges1[b]
            q2 = rec.bond_charges2[b]
            row += [
                float(rec.bond_discarded[b]),
                float(q1.max()) if q1.size else 0.0,
                float(q2.max()) if q2.size else 0.0,
            ]
        report.add_row(*row)
    return report


def run_pec_comparison(cfg: ExperimentConfig) -> ScanReport:
    """Four-method energy-error comparison across the critical region."""
    if cfg.kind != "pec_comparison":
        raise ValueError(f"config is for {cfg.kind!r}, not pec_comparison")
    problem = _pec_problem(cfg)
    configured = {p.kind: p for p in cfg.policies}

    search: Optional[GridSearchResult] = None
    if cfg.grid_search:
        search = grid_search_coefficients(cfg, problem=problem)

    report = ScanReport(
        name="pec_comparison",
        columns=["method", "kind", "gamma1", "gamma2", "lambda1", "lambda2",
                 "crossing_error", "improvement_pct"],
    )
    methods: dict[str, dict] = {}
    flagged = 0
    standard_error = None
    for kind in TABLE_METHOD_KINDS:
        label = METHOD_LABELS[kind]
        if kind == "standard":
            policy = TruncationPolicy(kind="standard", max_kept=cfg.max_bond)
            scan = _scan_for_policy(cfg, problem, policy)
        elif search is not None:
            policy = search.best_policies[kind]
            scan = search.best_scans[kind]
        else:
            base = configured.get(kind, TruncationPolicy(kind=kind))
            policy = dataclasses.replace(base, max_kept=cfg.max_bond)
            scan = _scan_for_policy(cfg, problem, policy)
        errors = _scan_errors(scan, problem)
        window_error = float(errors[problem.window].max())
        if kind == "standard":
            standard_error = window_error
            improvement = 0.0
        elif standard_error and standard_error > 0:
            improvement = 100.0 * (standard_error - window_error) / standard_error
        else:
            improvement = 0.0
        flagged += sum(0 if r.converged else 1 for r in scan.results)
        report.add_row(label, kind, policy.gamma1, policy.gamma2, policy.lambda1,
                       policy.lambda2, window_error, improvement)
        report.attachments.append(
            _points_report(f"pec_comparison_points_{label}", cfg, problem, scan))
        methods[label] = {
            "kind": kind,
            "coefficients": {
                "gamma1": policy.gamma1, "gamma2": policy.gamma2,
                "lambda1": policy.lambda1, "lambda2": policy.lambda2,
            },
            "crossing_error": window_error,
            "improvement_pct": improvement,
        }
    if search is not None:
        report.attachments.append(search.table)
    report.summary = {
        "model": cfg.spin_model,
        "n_sites": cfg.n_sites,
        "max_bond": cfg.max_bond,
        "crossing_center": cfg.crossing_center,
        "crossing_window": cfg.crossing_window,
        "objective": cfg.objective,
        "grid_search": cfg.grid_search,
        "window_points": int(problem.window.sum()),
        "standard_error": standard_error,
        "methods": methods,
        "flagged": flagged,
    }
    return report


# ---------------------------------------------------------------------------
# gauge_diagnostics
# ---------------------------------------------------------------------------

def _transport_family(rng: np.random.Generator, rho0: np.ndarray,
                      grid: np.ndarray, dim: int):
    """Unitarily transported state with its exact parallel-transport potential."""
    vfam = smooth_unitary_family(rng, dim, grid)
    rhos = [v @ rho0 @ dag(v) for v in vfam.values]
    values = [hermitian_part(1j * dv @ dag(v))
              for v, dv in zip(vfam.values, vfam.derivatives)]
    return rhos, GaugePotential(grid=grid, values=values, level="base")


def _covariance_residual(rng: np.random.Generator, rhos_micro, micro: np.ndarray,
                         constant: bool, dim: int) -> float:
    potential = uhlmann_potential(rhos_micro, micro)
    d_rho = covariant_derivative(rhos_micro, potential, 1)
    if constant:
        v_values = [random_unitary(rng, dim)] * 3
        v_derivs = [np.zeros((dim, dim), dtype=complex)] * 3
    else:
        vfam = smooth_unitary_family(rng, dim, micro)
        v_values, v_derivs = vfam.values, vfam.derivatives
    _, a_t = gauge_transform(rhos_micro[1], potential.values[1],
                             v_values[1], v_derivs[1])
    transformed = [v @ r @ dag(v) for v, r in zip(v_values, rhos_micro)]
    zero = np.zeros_like(a_t)
    t_pot = GaugePotential(grid=micro, values=[zero, a_t, zero], level="base")
    d_rho_t = covariant_derivative(transformed, t_pot, 1)
    conjugated = v_values[1] @ d_rho @ dag(v_values[1])
    return max_abs(d_rho_t - conjugated)


def _refinement_norms(cfg: ExperimentConfig) -> tuple[list[float], list[float]]:
    overlap_norms = []
    for n_pts in cfg.refine_time_sizes:
        rng = np.random.default_rng([cfg.seed, 9001])
        grid = np.linspace(0.0, 2.0, n_pts)
        vfam = smooth_unitary_family(rng, cfg.family_dim, grid)
        base = np.diag(np.arange(cfg.family_dim, dtype=float))
        mats = [v @ base @ dag(v) for v in vfam.values]
        track = track_hermitian_family(grid, mats)
        d = derivative_overlaps(track, (n_pts - 1) // 2)
        overlap_norms.append(max_abs(d + dag(d)))
    curvature_norms = []
    for n_pts in cfg.refine_plane_sizes:
        rng = np.random.default_rng([cfg.seed, 9002])
        axis = np.linspace(0.0, 1.0, n_pts)
        potential = pure_gauge_potential_2d(rng, cfg.family_dim, axis, axis)
        f = curvature(potential, n_pts // 2, n_pts // 2)
        curvature_norms.append(max_abs(f))
    return overlap_norms, curvature_norms


def _ratios(norms: Sequence[float]) -> list[float]:
    return [float(a / b) if b > 0 else float("inf")
            for a, b in zip(norms, norms[1:])]


def run_gauge_diagnostics(cfg: ExperimentConfig) -> ScanReport:
    """Randomized gauge-machinery checks; see the module docstring."""
    if cfg.kind != "gauge_diagnostics":
        raise ValueError(f"config is for {cfg.kind!r}, not gauge_diagnostics")
    dim = cfg.family_dim
    t_grid = np.linspace(0.0, 1.0, cfg.family_points)
    transport_grid = np.linspace(0.0, 0.1, cfg.family_points)
    center = cfg.family_points // 2
    h_micro = cfg.microgrid_spacing
    micro = np.array([0.5 - h_micro, 0.5, 0.5 + h_micro])

    report = ScanReport(
        name="gauge_diagnostics",
        columns=["index", "family", "herm_a", "herm_a1", "herm_a2",
                 "action_covariant", "action_scalar_like", "covariance_residual",
                 "transport_action", "charge_residual_max"],
    )
    params = ActionParams()
    for idx in range(cfg.n_families + 1):
        rng = np.random.default_rng([cfg.seed, idx])
        constant = idx == 0
        if constant:
            rho0 = smooth_density_family(rng, dim, np.array([0.0]))[0]
            rhos = [rho0] * cfg.family_points
        else:
            rhos = smooth_density_family(rng, dim, t_grid)
        potential = uhlmann_potential(rhos, t_grid)
        herm_a = max(hermiticity_residual(v) for v in potential.values)
        track = track_hermitian_family(t_grid, rhos)
        coherence = default_coherence_matrix(track, center)
        a1 = categorical_potential_1(potential.values[center], coherence,
                                     rhos[center])
        h_op = contract_coherence_cube(default_coherence_cube(track, center))
        a2 = categorical_potential_2(a1, h_op, coherence)
        action_cov = action_functional(rhos, potential, params)
        action_scl = action_functional(
            rhos, potential, ActionParams(mode="scalar_like"))
        rhos_micro = [rhos[center]] * 3 if constant else \
            smooth_density_family(rng, dim, micro)
        cov_res = _covariance_residual(rng, rhos_micro, micro, constant, dim)
        if constant:
            transport_action = 0.0
        else:
            t_rhos, t_pot = _transport_family(rng, rhos[0], transport_grid, dim)
            transport_action = action_functional(t_rhos, t_pot, params)
        residual = gauge_charge_residual(rhos, potential, center, eps=1e-5)
        report.add_row(idx, "constant" if constant else "random", herm_a,
                       hermiticity_residual(a1), hermiticity_residual(a2),
                       action_cov, action_scl, cov_res, transport_action,
                       float(np.max(np.abs(residual))))

    overlap_norms, curvature_norms = _refinement_norms(cfg)
    rows = report.rows
    random_rows = [r for r in rows if r[1] == "random"]
    constant_row = rows[0]
    report.summary = {
        "families": cfg.n_families,
        "dim": dim,
        "max_hermiticity_residual": float(max(max(r[2], r[3], r[4]) for r in rows)),
        "min_covariant_action": float(min(r[5] for r in rows)),
        "max_covariance_residual": float(max(r[7] for r in rows)),
        "max_transport_action": float(max(r[8] for r in random_rows)),
        "constant_family": {
            "action_covariant": constant_row[5],
            "action_scalar_like": constant_row[6],
            "covariance_residual": constant_row[7],
            "charge_residual_max": constant_row[9],
        },
        "overlap_residuals": overlap_norms,
        "overlap_ratios": _ratios(overlap_norms),
        "curvature_residuals": curvature_norms,
        "curvature_ratios": _ratios(curvature_norms),
        "flagged": 0,
    }
    return report


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

_RUNNERS = {
    "crossing_scan": run_crossing_scan,
    "pec_comparison": run_pec_comparison,
    "dmrg_benchmark": run_dmrg_benchmark,
    "gauge_diagnostics": run_gauge_diagnostics,
}


def run_experiment(cfg: ExperimentConfig) -> ScanReport:
    """Run the configured experiment and stamp provenance on the report."""
    report = _RUNNERS[cfg.kind](cfg)
    report.provenance = _provenance(cfg)
    return report
