"""Coherence-aware DMRG with Uhlmann gauge diagnostics.

Ground-state sweeps whose bond truncation can be reweighted by gauge charges
measured along a continuation scan, plus the supporting machinery: tracked
eigensystems, the Uhlmann/categorical gauge algebra, tensor-network
primitives, concrete models with dense oracles, and a reproducible
experiment harness with a CLI front end.
"""
from ._version import __version__
from .dmrg import (
    ContinuationScan,
    DmrgResult,
    ScanPointRecord,
    SweepConfig,
    TruncationRecord,
    continuation_scan,
    effective_hamiltonian,
    ground_state,
)
from .gauge import (
    ActionParams,
    CoherenceCube,
    CoherenceMatrix,
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
    EXPERIMENT_KINDS,
    ExperimentConfig,
    GridSearchResult,
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
    TimeGrid,
    TwoLevelModel,
    build_spin_chain_mpo,
    dense_spin_chain,
    diabatic_energies,
    exact_diagonalization,
    gaussian_transition_probability,
    landau_zener_reference,
    tdse_propagate,
    two_level_hamiltonian,
)
from .mps import (
    BondSpectrum,
    MatrixProductOperator,
    MatrixProductState,
    canonicalize,
    entanglement_spectrum,
    expectation,
    from_dense_state,
    from_product_state,
    inner_product,
    mpo_to_dense,
    random_mps,
    svd_truncate,
    to_dense,
)
from .reporting import ScanReport, config_hash, write_json, write_report_csv
from .spectral import (
    DEGENERACY_THRESHOLD,
    SpectralPoint,
    SpectralTrack,
    align_phases,
    derivative_overlaps,
    eigh_sorted,
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
    select_states,
    standard_select,
)

__all__ = [name for name in dir() if not name.startswith("_")]
