"""Coherence-aware DMRG with Uhlmann gauge diagnostics.

Ground-state sweeps whose bond truncation can be reweighted by gauge charges
measured along a continuation scan, plus the supporting machinery: tracked
eigensystems, the Uhlmann/categorical gauge algebra, tensor-network
primitives, concrete models with exact oracles, and a reproducible
experiment harness with a CLI front end.
"""
from ._version import __version__
from .dmrg import (
    ContinuationScan,
    DmrgResult,
    ScanPointRecord,
    SweepConfig,
    TrajectoryTree,
    TruncationRecord,
    continuation_scan,
    effective_hamiltonian,
    ground_state,
)
from .gauge import (
    GaugePotential,
    GaugePotential2D,
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
    purify,
    uhlmann_potential,
)
from .harness import (
    CONFIG_TYPES,
    EXPERIMENT_KINDS,
    ConfigError,
    CrossingScanConfig,
    DmrgBenchmarkConfig,
    ExperimentConfig,
    GaugeDiagnosticsConfig,
    GridSearchResult,
    PecComparisonConfig,
    default_policies,
    grid_search_coefficients,
    run_crossing_scan,
    run_dmrg_benchmark,
    run_experiment,
    run_gauge_diagnostics,
    run_pec_comparison,
)
from .models import (
    SpinChainSpec,
    TwoLevelModel,
    build_spin_chain_mpo,
    dense_spin_chain,
    diabatic_energies,
    exact_diagonalization,
    gaussian_transition_probability,
    midpoint_schedule,
    propagate,
    spin_chain_ground_states,
    spin_chain_matvec,
    two_level_hamiltonian,
)
from .mps import (
    MatrixProductOperator,
    MatrixProductState,
    canonicalize,
    expectation,
    inner_product,
    mpo_to_dense,
    random_mps,
    to_dense,
)
from .reporting import ScanReport, config_hash, write_json, write_report_csv
from .spectral import (
    DEGENERACY_THRESHOLD,
    SpectralTrack,
    derivative_overlaps,
    second_derivative_overlaps,
    track_hermitian_family,
)
from .truncation import (
    POLICY_KINDS,
    TruncationPolicy,
    TruncationWeights,
    charge_first_order,
    charge_second_order,
    compute_weights,
    kept_masks,
    select_states,
)

__all__ = [name for name in dir() if not name.startswith("_")]
