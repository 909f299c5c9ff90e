"""Experiment orchestration and report assembly.

Four experiments, each configured by its own frozen dataclass (see
``CONFIG_TYPES``) whose fields are exactly the settings it reads:

``crossing_scan``
    Two-level avoided-crossing sweep: tracked eigensystems, Gaussian
    transition probabilities, time-dependent Schrodinger populations, and
    per-policy effective truncation weights on a grid that always contains
    the exact degeneracy points of the diabatic energies.

``pec_comparison``
    Potential-energy-curve comparison: warm-started ground-state scans of a
    transverse-field Ising chain across its critical point under four
    truncation methods at equal bond budget, with per-method errors against
    the exact ground state (one matrix-free Lanczos solve per field, shared
    by every scan), optional coefficient grid search (grids must contain
    zero, so the searched methods can never do worse than standard; all-zero
    cells reuse the standard scan), and improvement percentages recomputed
    from the recorded errors.  The scans of one run share their solved points through a
    :class:`~udmrg.dmrg.TrajectoryTree`: a policy that keeps the states an
    earlier scan kept at every local step of a point adopts that point
    instead of solving it again, which changes no report byte.

``dmrg_benchmark``
    Ground-state energies versus the exact (matrix-free Lanczos) ground
    energies over a size/field matrix at a bond dimension large enough to be
    numerically exact.

``gauge_diagnostics``
    Randomized smooth-family checks of the gauge machinery: hermiticity,
    action values and positivity, gauge covariance on a fine three-point
    microgrid, parallel-transport actions, charge residuals, and
    finite-difference refinement ratios for derivative overlaps and
    pure-gauge curvature.  The families run as one stack: each stage of the
    gauge and spectral layers runs once over all of them.

All artifacts are deterministic functions of the configuration: seeded
generators, repr-formatted floats, and no wall-clock values outside the run
manifest.
"""
from __future__ import annotations

import dataclasses
import functools
import typing
from dataclasses import dataclass, field
from itertools import product
from typing import Any, Callable, ClassVar, Optional, Sequence

import numpy as np

from ._version import __version__
from .dmrg import (
    ContinuationScan,
    SweepConfig,
    TrajectoryTree,
    continuation_scan,
    ground_state,
)
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
from .linalg import (
    dag,
    hermitian_part,
    hermiticity_residual,
    max_abs,
    random_unitary,
)
from .models import (
    CROSSING_POINTS,
    SPIN_CHAIN_KINDS,
    SpinChainSpec,
    TwoLevelModel,
    build_spin_chain_mpo,
    evolution_step,
    gaussian_transition_probability,
    spin_chain_ground_state,
    two_level_hamiltonian,
)
# no experiment calls the dense oracle; the benchmark's tracer binds both names here
from .models import dense_spin_chain, exact_diagonalization  # noqa: F401
from .mps import random_mps
from .reporting import ScanReport, config_hash
from .spectral import (
    derivative_overlaps,
    second_derivative_overlaps,
    track_hermitian_family,
)
from .truncation import TruncationPolicy, compute_weights, is_integer, is_real

#: the four comparison-table methods, in row order
TABLE_METHOD_KINDS = ("standard", "uhlmann", "categorified", "coherence_eigenvalue_2")

#: the methods pec_comparison takes from ``policies`` (the standard row is fixed)
PEC_POLICY_KINDS = TABLE_METHOD_KINDS[1:]

METHOD_LABELS = {
    "standard": "standard",
    "uhlmann": "uhlmann",
    "categorified": "categorified",
    "coherence_eigenvalue": "coherence_eigenvalue",
    "coherence_eigenvalue_2": "higher_categorical",
}

OBJECTIVES = ("energy_error", "fidelity")

#: longest spin-1/2 chain the experiments accept; the exact oracle stores about
#: ``n * 2**n`` bit-flip indices per field (``models.spin_chain_matvec``)
_MAX_CHAIN_SITES = 12


def default_policies(max_kept: int = 64) -> list[TruncationPolicy]:
    """The four comparison methods with all coefficients zero."""
    return [TruncationPolicy(kind=k, max_kept=max_kept) for k in TABLE_METHOD_KINDS]


#: each config field type: the check a value (or, for ``tuple[X, ...]``, each
#: item) must pass, and what error messages say it must be
_FIELD_CHECKS: dict[Any, tuple[Callable[[Any], bool], str]] = {
    int: (is_integer, "an integer"),
    float: (is_real, "a number"),
    bool: (lambda v: isinstance(v, bool), "true or false"),
    str: (lambda v: isinstance(v, str), "a string"),
    tuple[int, ...]: (is_integer, "a list of integers"),
    tuple[float, ...]: (is_real, "a list of numbers"),
    tuple[TruncationPolicy, ...]: (lambda v: isinstance(v, TruncationPolicy),
                                   "a list of TruncationPolicy entries"),
}


class ConfigError(ValueError):
    """Itemized configuration problems; nothing was accepted."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("configuration invalid:\n  - " + "\n  - ".join(problems))


@dataclass(frozen=True)
class ExperimentConfig:
    """What every experiment's configuration shares: the seed and validation.

    Each experiment has its own frozen subclass (see :data:`CONFIG_TYPES`)
    whose fields are exactly the settings it reads.  These types check and
    normalize every value, for a config built in Python as for one the CLI
    read from JSON.  Construction turns every list-valued field into a
    tuple, so a config cannot change after it was validated, and checks
    every value's type against its field (see :data:`_FIELD_CHECKS`).  A
    value that fits an ``int`` or ``float`` field, or an item of a
    ``tuple[int, ...]`` or ``tuple[float, ...]`` field, is stored as that
    type, so ``coupling=1`` hashes and reports like ``coupling=1.0`` and
    ``n_points=np.int64(41)`` like ``n_points=41``.  When every value fits
    it runs :meth:`validate`; it raises :class:`ConfigError` listing every
    problem of the first stage that found any.  A ``float`` or
    ``tuple[float, ...]`` field holding a NaN or an infinity is a problem
    too, reported as ``<field> must be finite`` unless the field's own
    checks already named it.
    """

    kind: ClassVar[str]
    seed: int = 7

    def __post_init__(self) -> None:
        problems = []
        for name, hint in field_types(type(self)).items():
            value = getattr(self, name)
            if isinstance(value, list):
                value = tuple(value)
            ok, demand = _FIELD_CHECKS[hint]
            if typing.get_origin(hint) is tuple:
                fits = isinstance(value, tuple) and all(map(ok, value))
            else:
                fits = ok(value)
            if not fits:
                problems.append(f"{name} must be {demand}, got {value!r}")
            elif hint in (int, float):
                value = hint(value)
            elif hint in (tuple[int, ...], tuple[float, ...]):
                value = tuple(map(typing.get_args(hint)[0], value))
            object.__setattr__(self, name, value)
        if not problems:
            problems = self.validate()
            named = {problem.split()[0] for problem in problems}
            problems += [f"{name} must be finite" for name in self._non_finite_fields()
                         if name not in named]
        if problems:
            raise ConfigError(problems)

    def _non_finite_fields(self) -> list[str]:
        """The float fields holding a NaN or an infinity, in field order."""
        return [name for name, hint in field_types(type(self)).items()
                if hint in (float, tuple[float, ...])
                and not np.all(np.isfinite(getattr(self, name)))]

    def validate(self) -> list[str]:
        """Return every problem found, not just the first."""
        if self.seed >= 0:
            return []
        return ["seed must be a non-negative integer"]


@functools.lru_cache(maxsize=None)
def field_types(config_type: type[ExperimentConfig]) -> dict[str, Any]:
    """Field name -> annotated type of one experiment's configuration."""
    hints = typing.get_type_hints(config_type)
    return {f.name: hints[f.name] for f in dataclasses.fields(config_type)}


@dataclass(frozen=True)
class CrossingScanConfig(ExperimentConfig):
    """Settings of ``crossing_scan``; each policy adds effective-weight columns."""

    kind: ClassVar[str] = "crossing_scan"
    coupling: float = 0.1
    lambda_min: float = -2.0
    lambda_max: float = 2.0
    n_points: int = 401
    sweep_rate: float = 1.0
    time_steps: int = 4000
    policies: tuple[TruncationPolicy, ...] = field(default_factory=default_policies)

    def validate(self) -> list[str]:
        errs = super().validate()
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
        return errs


@dataclass(frozen=True)
class PecComparisonConfig(ExperimentConfig):
    """Settings of ``pec_comparison``, a transverse-field Ising scan.

    ``policies`` equal to :func:`default_policies` counts as unset; any other
    policies must be ones the run would actually use.
    """

    kind: ClassVar[str] = "pec_comparison"
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
    policies: tuple[TruncationPolicy, ...] = field(default_factory=default_policies)
    gamma1_grid: tuple[float, ...] = (0.0, 0.5, 1.0)
    gamma2_grid: tuple[float, ...] = (0.0, 0.5)
    lambda1_grid: tuple[float, ...] = (0.0, 0.5, 1.0)
    lambda2_grid: tuple[float, ...] = (0.0, 0.5)

    def validate(self) -> list[str]:
        errs = super().validate()
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
        if self.policies != tuple(default_policies()):
            errs += _pec_policy_problems(self.policies, self.grid_search)
        if self.n_sites < 2:
            errs.append("n_sites must be at least 2")
        if self.n_sites > _MAX_CHAIN_SITES:
            errs.append(
                f"chain length limit is {_MAX_CHAIN_SITES} sites; reduce n_sites to "
                f"{_MAX_CHAIN_SITES} or fewer"
            )
        if not self.field_min < self.field_max:
            errs.append("field_min must be below field_max")
        if self.n_fields < 3:
            errs.append("n_fields must be at least 3")
        if not self.crossing_window > 0:
            errs.append("crossing_window must be positive")
        elif (self.n_fields >= 3 and self.field_min < self.field_max
              and np.all(np.isfinite((self.field_min, self.field_max, self.crossing_center)))
              and not _pec_grid(self)[1].any()):
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
        return errs


@dataclass(frozen=True)
class DmrgBenchmarkConfig(ExperimentConfig):
    """Settings of ``dmrg_benchmark``: the size/field matrix and its budget."""

    kind: ClassVar[str] = "dmrg_benchmark"
    spin_model: str = "tfim"
    coupling_j: float = 1.0
    benchmark_sizes: tuple[int, ...] = (6, 8, 10)
    benchmark_fields: tuple[float, ...] = (0.5, 1.0, 1.5)
    benchmark_bond: int = 32
    benchmark_sweeps: int = 20
    benchmark_tol: float = 1e-10

    def validate(self) -> list[str]:
        errs = super().validate()
        if self.spin_model not in SPIN_CHAIN_KINDS:
            errs.append(
                f"unknown spin_model {self.spin_model!r}; expected one of "
                f"{', '.join(SPIN_CHAIN_KINDS)}"
            )
        if any(n < 2 for n in self.benchmark_sizes) or not self.benchmark_sizes:
            errs.append("benchmark_sizes must list chain lengths of at least 2 sites")
        if any(n > _MAX_CHAIN_SITES for n in self.benchmark_sizes):
            errs.append(
                f"benchmark_sizes exceed the chain length limit ({_MAX_CHAIN_SITES} sites)"
            )
        if not self.benchmark_fields:
            errs.append("benchmark_fields must not be empty")
        if self.benchmark_bond < 1:
            errs.append("benchmark_bond must be positive")
        if self.benchmark_sweeps < 1:
            errs.append("benchmark_sweeps must be positive")
        if not self.benchmark_tol > 0:
            errs.append("benchmark_tol must be positive")
        return errs


@dataclass(frozen=True)
class GaugeDiagnosticsConfig(ExperimentConfig):
    """Settings of ``gauge_diagnostics``: family sizes and refinement levels."""

    kind: ClassVar[str] = "gauge_diagnostics"
    n_families: int = 100
    family_dim: int = 3
    family_points: int = 21
    microgrid_spacing: float = 3e-5
    refine_time_sizes: tuple[int, ...] = (21, 41, 81)
    refine_plane_sizes: tuple[int, ...] = (9, 17, 33)

    def validate(self) -> list[str]:
        errs = super().validate()
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


#: the configuration type of each experiment, by kind
CONFIG_TYPES: dict[str, type[ExperimentConfig]] = {
    t.kind: t for t in (CrossingScanConfig, PecComparisonConfig,
                        DmrgBenchmarkConfig, GaugeDiagnosticsConfig)
}

EXPERIMENT_KINDS = tuple(CONFIG_TYPES)


def _pec_policy_problems(policies: Sequence[TruncationPolicy],
                         grid_search: bool) -> list[str]:
    """Explicit pec_comparison policies that the run would silently ignore."""
    if grid_search:
        return ["pec_comparison ignores 'policies' when grid_search is true; "
                "set grid_search to false or drop 'policies'"]
    problems = []
    seen: set[str] = set()
    for i, pol in enumerate(policies):
        if pol.kind not in PEC_POLICY_KINDS:
            problems.append(
                f"policies[{i}]: pec_comparison never runs a {pol.kind!r} policy; "
                f"expected one of {', '.join(PEC_POLICY_KINDS)}")
        elif pol.kind in seen:
            problems.append(
                f"policies[{i}]: kind {pol.kind!r} repeats; pec_comparison runs "
                "one policy per kind")
        seen.add(pol.kind)
    return problems


def config_payload(cfg: ExperimentConfig) -> dict:
    """Configuration as a plain dict, the input to the config hash.

    The config's own fields are laid over the defaults of every experiment,
    so the hash is the one the single configuration type that once held all
    of them gave.
    """
    payload = {}
    for config_type in CONFIG_TYPES.values():
        payload.update(dataclasses.asdict(config_type()))
    payload.update(dataclasses.asdict(cfg), kind=cfg.kind)
    return payload


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

def _crossing_grid(cfg: CrossingScanConfig) -> np.ndarray:
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


def run_crossing_scan(cfg: CrossingScanConfig) -> ScanReport:
    """Two-level avoided-crossing sweep; see the module docstring."""
    if cfg.kind != "crossing_scan":
        raise ValueError(f"config is for {cfg.kind!r}, not crossing_scan")
    model = TwoLevelModel(coupling=cfg.coupling)
    grid = _crossing_grid(cfg)
    n = grid.size
    track = track_hermitian_family(grid, two_level_hamiltonian(model, grid))

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
        midpoints = times[k - 1] + (np.arange(substeps) + 0.5) * dt
        for u in evolution_step(two_level_hamiltonian(model, rate * midpoints), dt):
            psi = u @ psi
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

def run_dmrg_benchmark(cfg: DmrgBenchmarkConfig) -> ScanReport:
    """Ground-state energies versus the exact ones; see module docstring."""
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
                num_sweeps=cfg.benchmark_sweeps, energy_tol=cfg.benchmark_tol,
                policy=TruncationPolicy(max_kept=cfg.benchmark_bond),
            )
            result = ground_state(mpo, init, sweep_cfg)
            exact = spin_chain_ground_state(spec)[0]
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

def _pec_grid(cfg: PecComparisonConfig) -> tuple[np.ndarray, np.ndarray]:
    """Field grid of a pec_comparison scan and its crossing-window mask."""
    grid = np.linspace(cfg.field_min, cfg.field_max, cfg.n_fields)
    return grid, np.abs(grid - cfg.crossing_center) <= cfg.crossing_window + 1e-12


@dataclass
class _PecProblem:
    """What every scan of one pec_comparison run shares.

    The field grid and its crossing-window mask, the MPO family, the
    exact energies and ground states (the fidelity oracle), and the
    trajectory tree through which the scans share their solved points
    (``None`` makes every scan solve every point itself).
    """

    grid: np.ndarray
    family: Callable
    exact_energies: np.ndarray
    exact_states: list[np.ndarray]
    window: np.ndarray
    trajectories: Optional[TrajectoryTree]


def _pec_problem(cfg: PecComparisonConfig) -> _PecProblem:
    """Field grid, MPO family and one exact ground state per field."""
    grid, window = _pec_grid(cfg)

    def spec(h: float) -> SpinChainSpec:
        return SpinChainSpec("tfim", cfg.n_sites, coupling=cfg.coupling_j, field=h)

    def family(h: float):
        return build_spin_chain_mpo(spec(h))

    exact = [spin_chain_ground_state(spec(h)) for h in grid]
    return _PecProblem(grid=grid, family=family,
                       exact_energies=np.array([e for e, _ in exact]),
                       exact_states=[v for _, v in exact], window=window,
                       trajectories=TrajectoryTree())


def _standard_policy(cfg: PecComparisonConfig) -> TruncationPolicy:
    return TruncationPolicy(kind="standard", max_kept=cfg.max_bond)


def _scan_for_policy(cfg: PecComparisonConfig, problem: _PecProblem,
                     policy: TruncationPolicy) -> ContinuationScan:
    rng = np.random.default_rng(cfg.seed)
    init = random_mps(rng, [2] * cfg.n_sites, cfg.max_bond)
    sweep_cfg = SweepConfig(num_sweeps=cfg.num_sweeps, energy_tol=cfg.energy_tol,
                            policy=policy)
    return continuation_scan(problem.family, problem.grid, sweep_cfg, init=init,
                             oracle=problem.exact_states,
                             shared=problem.trajectories)


def _scan_errors(scan: ContinuationScan, problem: _PecProblem) -> np.ndarray:
    return np.array([
        abs(res.energy - e) for res, e in zip(scan.results, problem.exact_energies)
    ])


def _scan_objective(cfg: PecComparisonConfig, scan: ContinuationScan,
                    problem: _PecProblem) -> float:
    if cfg.objective == "energy_error":
        return float(_scan_errors(scan, problem)[problem.window].max())
    fids = np.array(scan.fidelity_to_oracle)
    return float(-fids[problem.window].min())


def _coefficient_cells(kind: str, cfg: PecComparisonConfig) -> list[dict]:
    """The coefficient grid of one of :data:`PEC_POLICY_KINDS`."""
    if kind == "uhlmann":
        return [{"gamma1": g} for g in cfg.gamma1_grid]
    if kind == "categorified":
        return [{"gamma1": a, "gamma2": b}
                for a, b in product(cfg.gamma1_grid, cfg.gamma2_grid)]
    return [{"lambda1": a, "lambda2": b}
            for a, b in product(cfg.lambda1_grid, cfg.lambda2_grid)]


@dataclass
class GridSearchResult:
    """Best coefficients per method plus the exhaustive evaluation table."""

    best_cells: dict[str, dict]
    best_policies: dict[str, TruncationPolicy]
    best_scans: dict[str, ContinuationScan]
    best_objectives: dict[str, float]
    table: ScanReport


def grid_search_coefficients(cfg: PecComparisonConfig,
                             problem: Optional[_PecProblem] = None,
                             standard: Optional[ContinuationScan] = None,
                             ) -> GridSearchResult:
    """Exhaustive coefficient search for each of :data:`PEC_POLICY_KINDS`.

    Every (method, coefficient) cell is a full warm-started scan of the
    validation instance, scored by ``cfg.objective`` over the crossing
    window (energy error is minimized; fidelity is maximized).  Ties prefer
    the all-zero cell, then the earliest grid cell, making the outcome
    deterministic and never worse than the standard method.

    An all-zero cell selects exactly the states the standard rule selects
    (its cutoff is 0, and at cutoff 0 zero coefficients leave the ranking
    unchanged), so every such cell shares one standard scan: ``standard``
    when given, otherwise one run here on first need.
    """
    if problem is None:
        problem = _pec_problem(cfg)
    table = ScanReport(
        name=f"{cfg.kind}_gridsearch",
        columns=["method", "gamma1", "gamma2", "lambda1", "lambda2",
                 "objective", "selected"],
    )
    best_cells: dict[str, dict] = {}
    best_policies: dict[str, TruncationPolicy] = {}
    best_scans: dict[str, ContinuationScan] = {}
    best_objectives: dict[str, float] = {}
    for kind in PEC_POLICY_KINDS:
        cells = _coefficient_cells(kind, cfg)
        scored = []
        for i, cell in enumerate(cells):
            policy = TruncationPolicy(kind=kind, max_kept=cfg.max_bond, **cell)
            nonzero = 0 if all(v == 0 for v in cell.values()) else 1
            if nonzero:
                scan = _scan_for_policy(cfg, problem, policy)
            else:
                if standard is None:
                    standard = _scan_for_policy(cfg, problem, _standard_policy(cfg))
                scan = standard
            score = _scan_objective(cfg, scan, problem)
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


def _points_report(name: str, cfg: PecComparisonConfig, problem: _PecProblem,
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


def run_pec_comparison(cfg: PecComparisonConfig) -> ScanReport:
    """Four-method energy-error comparison across the critical region."""
    if cfg.kind != "pec_comparison":
        raise ValueError(f"config is for {cfg.kind!r}, not pec_comparison")
    problem = _pec_problem(cfg)
    configured = {p.kind: p for p in cfg.policies}

    standard_scan = _scan_for_policy(cfg, problem, _standard_policy(cfg))
    search: Optional[GridSearchResult] = None
    if cfg.grid_search:
        search = grid_search_coefficients(cfg, problem=problem, standard=standard_scan)

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
            policy = _standard_policy(cfg)
            scan = standard_scan
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
        "model": "tfim",
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

def _transport_families(rngs: Sequence[np.random.Generator], rho0: np.ndarray,
                        grid: np.ndarray, dim: int):
    """Unitarily transported states with their exact parallel-transport
    potentials: one family per generator, each starting from its ``rho0``."""
    vfam = smooth_unitary_family(rngs, dim, grid)
    v, dv = vfam.values, vfam.derivatives
    potential = GaugePotential(grid=grid, values=hermitian_part(1j * dv @ dag(v)))
    return v @ rho0[:, None] @ dag(v), potential


def _covariance_residuals(rhos_micro: np.ndarray, micro: np.ndarray, v: np.ndarray,
                          dv: np.ndarray) -> np.ndarray:
    """``max |D(V rho V^H) - V (D rho) V^H|`` at the middle of each microgrid
    family, with the potential gauge-transformed by ``(v, dv)``."""
    potential = uhlmann_potential(rhos_micro, micro)
    d_rho = covariant_derivative(rhos_micro, potential, 1)
    _, a_t = gauge_transform(rhos_micro[:, 1], potential.values[:, 1], v[:, 1], dv[:, 1])
    transformed = v @ rhos_micro @ dag(v)
    zero = np.zeros_like(a_t)
    t_pot = GaugePotential(grid=micro, values=np.stack([zero, a_t, zero], axis=1))
    d_rho_t = covariant_derivative(transformed, t_pot, 1)
    conjugated = v[:, 1] @ d_rho @ dag(v[:, 1])
    return np.abs(d_rho_t - conjugated).max(axis=(-2, -1))


def _refinement_norms(cfg: GaugeDiagnosticsConfig) -> tuple[list[float], list[float]]:
    overlap_norms = []
    for n_pts in cfg.refine_time_sizes:
        rng = np.random.default_rng([cfg.seed, 9001])
        grid = np.linspace(0.0, 2.0, n_pts)
        vfam = smooth_unitary_family(rng, cfg.family_dim, grid)
        base = np.diag(np.arange(cfg.family_dim, dtype=float))
        track = track_hermitian_family(grid, vfam.values @ base @ dag(vfam.values))
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


def run_gauge_diagnostics(cfg: GaugeDiagnosticsConfig) -> ScanReport:
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
    # All families run as one stack; family 0, the constant one, holds its
    # t = 0 member at every point.  Each family keeps its own generator,
    # drawn in the order it always was: density, microgrid density, gauge,
    # transport (the constant family: density, then its constant gauge).
    rngs = [np.random.default_rng([cfg.seed, idx]) for idx in range(cfg.n_families + 1)]
    const_rng, random_rngs = rngs[0], rngs[1:]
    rho0 = smooth_density_family(const_rng, dim, np.array([0.0]))[0]
    rhos = np.concatenate([np.broadcast_to(rho0, (1, cfg.family_points, dim, dim)),
                           smooth_density_family(random_rngs, dim, t_grid)])
    potential = uhlmann_potential(rhos, t_grid)
    herm_a = hermiticity_residual(potential.values).max(axis=-1)
    track = track_hermitian_family(t_grid, rhos)
    coherence = default_coherence_matrix(track, center)
    a1 = categorical_potential_1(potential.values[:, center], coherence, rhos[:, center])
    h_op = contract_coherence_cube(default_coherence_cube(track, center))
    a2 = categorical_potential_2(a1, h_op, coherence)
    action_cov = action_functional(rhos, potential, params)
    action_scl = action_functional(rhos, potential, ActionParams(mode="scalar_like"))

    micro_shape = (1, 3, dim, dim)
    rhos_micro = np.concatenate([np.broadcast_to(rhos[0, center], micro_shape),
                                 smooth_density_family(random_rngs, dim, micro)])
    u0 = random_unitary(const_rng, dim)
    vfam = smooth_unitary_family(random_rngs, dim, micro)
    cov_res = _covariance_residuals(
        rhos_micro, micro, np.concatenate([np.broadcast_to(u0, micro_shape), vfam.values]),
        np.concatenate([np.zeros(micro_shape, dtype=complex), vfam.derivatives]))
    t_rhos, t_pot = _transport_families(random_rngs, rhos[1:, 0], transport_grid, dim)
    transport_action = np.concatenate([[0.0], action_functional(t_rhos, t_pot, params)])
    residual = gauge_charge_residual(rhos, potential, center, eps=1e-5)
    columns = (herm_a, hermiticity_residual(a1), hermiticity_residual(a2), action_cov,
               action_scl, cov_res, transport_action, np.abs(residual).max(axis=(-2, -1)))
    for idx in range(cfg.n_families + 1):
        report.add_row(idx, "constant" if idx == 0 else "random",
                       *(float(column[idx]) for column in columns))

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
