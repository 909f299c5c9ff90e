"""End-to-end acceptance checks.

Each test exercises one externally stated guarantee of the package at its
stated tolerance and prints the measured numbers, so a verbose run gives one
pass/fail line per guarantee.  Tolerances here are contractual: do not loosen
them to make a failing build pass.
"""
import hashlib
import time

import numpy as np
import pytest

from udmrg import dmrg
from udmrg.dmrg import SweepConfig, continuation_scan
from udmrg.harness import (
    CrossingScanConfig,
    DmrgBenchmarkConfig,
    GaugeDiagnosticsConfig,
    PecComparisonConfig,
    run_crossing_scan,
    run_dmrg_benchmark,
    run_gauge_diagnostics,
    run_pec_comparison,
)
from udmrg.models import (
    CROSSING_POINTS,
    SpinChainSpec,
    TimeGrid,
    TwoLevelModel,
    build_spin_chain_mpo,
    dense_spin_chain,
    gaussian_transition_probability,
    landau_zener_reference,
    tdse_propagate,
)
from udmrg.mps import (
    MatrixProductOperator,
    expectation,
    inner_product,
    mpo_to_dense,
    random_mps,
    to_dense,
)
from udmrg.reporting import canonical_json
from udmrg.truncation import (
    POLICY_KINDS,
    TruncationPolicy,
    charge_first_order,
    compute_weights,
)


@pytest.fixture(scope="module")
def gauge_report():
    """Full-size randomized gauge diagnostics (100 families, refinements)."""
    return run_gauge_diagnostics(GaugeDiagnosticsConfig())


def test_benchmark_energies_reach_1e8_within_two_minutes(monkeypatch):
    """Chains of 6, 8, and 10 sites at three fields, bond dimension 32:

    every ground-state energy within 1e-8 of the exact one (itself within
    1e-12 of dense diagonalization), and the whole matrix solved in under two
    minutes.  The README's cost claim holds: 252 local solves, 96 of them
    above 128 dimensions (Lanczos)."""
    dims = []
    heff = dmrg.effective_hamiltonian

    def recording(*args):
        op = heff(*args)
        dims.append(op.dim)
        return op

    monkeypatch.setattr(dmrg, "effective_hamiltonian", recording)
    start = time.perf_counter()
    report = run_dmrg_benchmark(DmrgBenchmarkConfig())
    elapsed = time.perf_counter() - start
    errs = {(row[0], row[1]): row[5] for row in report.rows}
    worst = report.summary["max_abs_error"]
    lanczos = sum(dim > dmrg._FULL_EIGH_DIM for dim in dims)
    print(f"benchmark: {len(report.rows)} cells, max |dE| = {worst:.3e}, "
          f"{len(dims)} local solves ({lanczos} by Lanczos), {elapsed:.1f} s")
    assert len(report.rows) == 9
    for cell, err in errs.items():
        assert err <= 1e-8, f"cell {cell}: |dE| = {err:.3e} > 1e-8"
    assert report.summary["flagged"] == 0
    assert (len(dims), lanczos) == (252, 96)
    assert elapsed < 120.0, f"benchmark took {elapsed:.1f} s (budget 120 s)"
    # the matrix-free exact energies are the dense ones
    _assert_exact_energies_are_dense(report)
    # and the report keeps its bytes (numpy 2.4, bundled OpenBLAS, 1 and 2
    # BLAS threads; another LAPACK build may round differently)
    csv = hashlib.sha256(report.csv_bytes()).hexdigest()
    summary = hashlib.sha256(canonical_json(report.summary_payload())).hexdigest()
    assert csv == "5a53b0752e127f4ab4cbaf02d5adf4561d2d278840750feb90dcf5b3e1f154a6"
    assert summary == "65fc0110a1fd993e13ba759371e7f7691f5105e6ce7f2f8b8eed46f53f68f0ca"


def _assert_exact_energies_are_dense(report):
    """Every row's exact energy against a dense diagonalization that shares

    no code with the Lanczos solve behind it (both models' matrices are real,
    so the 10-site rows take a real 1024-dimensional ``eigvalsh``)."""
    model = report.summary["model"]
    for row in report.rows:
        n, field, exact = row[0], row[1], row[4]
        h = dense_spin_chain(SpinChainSpec(kind=model, n_sites=n, coupling=1.0, field=field))
        assert not h.imag.any()
        dense = np.linalg.eigvalsh(h.real)[0]
        assert abs(exact - dense) <= 1e-12, (n, field, exact - dense)


def test_heisenberg_benchmark_energies_reach_1e8():
    """The oracle-checked benchmark on the Heisenberg chain, odd and even

    lengths up to 10 sites: every cell within 1e-8, none flagged, and every
    exact energy equal to dense diagonalization."""
    report = run_dmrg_benchmark(DmrgBenchmarkConfig(spin_model="heisenberg",
                                                    benchmark_sizes=(6, 7, 8, 10)))
    print(f"heisenberg benchmark: {len(report.rows)} cells, "
          f"max |dE| = {report.summary['max_abs_error']:.3e}")
    assert len(report.rows) == 12
    for row in report.rows:
        assert row[5] <= 1e-8, f"cell {row[:2]}: |dE| = {row[5]:.3e} > 1e-8"
    assert report.summary["within_tolerance"] and report.summary["flagged"] == 0
    _assert_exact_energies_are_dense(report)


def test_zero_coefficient_policies_are_exactly_degenerate():
    """With all enhancement coefficients zero, every truncation method keeps

    the same states, lands on the same energies to 1e-10, and regenerates
    byte-identical per-method reports."""
    # (a) warm-started scans under all five policy kinds
    def family(h):
        return build_spin_chain_mpo(
            SpinChainSpec(kind="tfim", n_sites=6, coupling=1.0, field=h))

    grid = np.linspace(0.6, 1.4, 9)
    energies = {}
    kept = {}
    for kind in POLICY_KINDS:
        cfg = SweepConfig(num_sweeps=12, energy_tol=1e-9,
                          policy=TruncationPolicy(kind=kind, max_kept=4))
        init = random_mps(np.random.default_rng(7), [2] * 6, 4)
        scan = continuation_scan(family, grid, cfg, init=init)
        energies[kind] = np.array([r.energy for r in scan.results])
        kept[kind] = [rec.kept.tolist() for r in scan.results
                      for rec in r.truncation_log]
    spread = 0.0
    for kind in POLICY_KINDS:
        assert kept[kind] == kept["standard"], f"{kind} kept different states"
        spread = max(spread, float(np.max(np.abs(
            energies[kind] - energies["standard"]))))
    print(f"cross-method energy spread = {spread:.3e}")
    assert spread <= 1e-10

    # (b) the four-method comparison emits byte-identical per-method tables
    report = run_pec_comparison(PecComparisonConfig(n_fields=9, grid_search=False))
    points = [a.csv_bytes() for a in report.attachments
              if a.name.startswith("pec_comparison_points_")]
    assert len(points) == 4
    assert len(set(points)) == 1, "per-method point tables differ"

    # (c) the crossing report's effective-weight columns coincide for every
    # method whose raw currency is the Schmidt coefficient
    crossing = run_crossing_scan(CrossingScanConfig(n_points=101, time_steps=1000))
    cols = crossing.columns
    for suffix in ("lower", "upper"):
        ref = cols.index(f"eff_standard_{suffix}")
        for label in ("uhlmann", "categorified"):
            idx = cols.index(f"eff_{label}_{suffix}")
            assert all(row[idx] == row[ref] for row in crossing.rows)


def test_gauge_potentials_hermitian_covariant_and_transport_silent(gauge_report):
    """100 random smooth families: all three potential levels hermitian to

    1e-10, covariant derivatives conjugate under gauge transforms to 1e-8,
    actions never dip below -1e-12 (exactly zero on the constant family), and
    parallel-transported families cost less than 1e-8 action."""
    s = gauge_report.summary
    print(f"hermiticity {s['max_hermiticity_residual']:.3e}, "
          f"covariance {s['max_covariance_residual']:.3e}, "
          f"min action {s['min_covariant_action']:.3e}, "
          f"transport {s['max_transport_action']:.3e}")
    assert s["families"] == 100
    assert s["max_hermiticity_residual"] <= 1e-10
    assert s["max_covariance_residual"] <= 1e-8
    assert s["min_covariant_action"] >= -1e-12
    assert s["max_transport_action"] <= 1e-8
    assert s["constant_family"]["action_covariant"] == 0.0
    assert s["constant_family"]["action_scalar_like"] == 0.0
    assert s["flagged"] == 0


def test_discretization_norms_quarter_under_grid_halving(gauge_report):
    """Anti-hermiticity defects of derivative overlaps and pure-gauge

    curvature norms both shrink by 4x (within 20%) per spacing halving
    across three refinement levels."""
    s = gauge_report.summary
    print(f"overlap ratios {s['overlap_ratios']}, "
          f"curvature ratios {s['curvature_ratios']}")
    for name in ("overlap", "curvature"):
        norms = s[f"{name}_residuals"]
        ratios = s[f"{name}_ratios"]
        assert len(norms) == 3 and len(ratios) == 2
        assert norms[0] > norms[1] > norms[2]
        for r in ratios:
            assert 0.8 * 4.0 <= r <= 1.2 * 4.0, f"{name} ratio {r} off 4x"


def test_full_gauge_diagnostics_keeps_its_bytes(gauge_report):
    """The default 100-family report hashes to the bytes it has always had.

    A change to the gauge layer that moves any digit at roundoff fails here.
    The hashes were recorded with numpy 2.4 and its bundled OpenBLAS, at 1
    and 2 BLAS threads; another LAPACK build may round differently.
    """
    csv = hashlib.sha256(gauge_report.csv_bytes()).hexdigest()
    summary = hashlib.sha256(canonical_json(gauge_report.summary_payload())).hexdigest()
    assert csv == "669197e3a430bd03365e11e75db2d407236b6c64aa9f5ce254e074ac483bb5ff"
    assert summary == "aedea025b9d038d256dad1e4d9e16afce28eeb8f511bb468de477e256e0e63c4"


def test_crossing_weights_and_schrodinger_evolution():
    """Gaussian crossing weights hit 1 exactly at the degeneracies and

    exp(-50) at the origin to 1e-12 relative; the propagator preserves norm
    to 1e-10; three linear sweeps land within 2% of exp(-2 pi V^2 / v)."""
    model = TwoLevelModel(coupling=0.1)
    for lam in CROSSING_POINTS:
        assert gaussian_transition_probability(model, lam) == 1.0
    origin = gaussian_transition_probability(model, 0.0)
    target = float(np.exp(-50.0))
    rel = abs(origin - target) / target
    print(f"P(0) = {origin:.6e}, relative error {rel:.3e}")
    assert rel <= 1e-12

    worst_drift = 0.0
    worst_rel = 0.0
    for v, coupling in ((0.5, 0.15), (1.0, 0.2), (2.0, 0.3)):
        def h_of_t(t, v=v, c=coupling):
            return np.array([[0.5 * v * t, c], [c, -0.5 * v * t]],
                            dtype=complex)

        traj = tdse_propagate(h_of_t, np.array([1.0, 0.0]),
                              TimeGrid(-200.0, 200.0, 20000))
        norms = np.linalg.norm(traj, axis=1)
        worst_drift = max(worst_drift, float(np.max(np.abs(norms - 1.0))))
        survival = float(abs(traj[-1, 0]) ** 2)
        reference = landau_zener_reference(v, coupling)
        rel = abs(survival - reference) / reference
        worst_rel = max(worst_rel, rel)
        print(f"sweep v={v}, V={coupling}: survival {survival:.6f} "
              f"vs {reference:.6f} (rel {rel:.3e})")
        assert rel <= 0.02
    print(f"max norm drift {worst_drift:.3e}")
    assert worst_drift <= 1e-10


def test_truncation_hand_values_to_1e12():
    """Three pencil-and-paper spot checks of the truncation algebra."""
    damped = compute_weights(
        np.array([0.5]), np.array([np.log(2.0)]), np.array([0.0]),
        TruncationPolicy(kind="uhlmann", gamma1=1.0)).effective[0]
    p = np.array([0.9, 0.1])
    charges = charge_first_order(p, np.array([[0.0, 2.0], [-2.0, 0.0]]))
    charge = charges[0]
    shifted = compute_weights(
        np.sqrt(p), charges, np.zeros(2),
        TruncationPolicy(kind="coherence_eigenvalue", lambda1=0.5)).effective[0]
    print(f"damped sigma {damped!r}, charge {charge!r}, "
          f"shifted eigenvalue {shifted!r}")
    assert abs(damped - 0.25) <= 1e-12
    assert abs(charge - 0.2304) <= 1e-12
    assert abs(shifted - 1.0152) <= 1e-12


def test_comparison_report_with_grid_search_regenerates_bytewise():
    """The four-method table always exists, the zero-inclusive coefficient

    search never lets an enhanced method fall behind the standard one, the
    improvement column recomputes from the recorded errors, and the whole
    artifact set regenerates byte-identically."""
    cfg = PecComparisonConfig(n_fields=11, grid_search=True)
    report = run_pec_comparison(cfg)
    cols = report.columns
    err_idx = cols.index("crossing_error")
    imp_idx = cols.index("improvement_pct")
    labels = [row[0] for row in report.rows]
    assert labels == ["standard", "uhlmann", "categorified",
                      "higher_categorical"]
    standard = report.rows[0][err_idx]
    for row in report.rows[1:]:
        print(f"{row[0]}: error {row[err_idx]:.3e} vs standard "
              f"{standard:.3e} (improvement {row[imp_idx]:.2f}%)")
        assert row[err_idx] <= standard + 1e-15, \
            f"{row[0]} fell behind the standard method"
        expected = 100.0 * (standard - row[err_idx]) / standard
        assert row[imp_idx] == pytest.approx(expected, rel=1e-12, abs=1e-12)

    again = run_pec_comparison(cfg)
    assert report.csv_bytes() == again.csv_bytes()
    assert canonical_json(report.summary_payload()) == \
        canonical_json(again.summary_payload())
    first_att = {a.name: a.csv_bytes() for a in report.attachments}
    second_att = {a.name: a.csv_bytes() for a in again.attachments}
    assert first_att == second_att
    assert len(first_att) == 5  # four point tables plus the search table


def test_random_tensor_network_contractions_match_dense():
    """200 random state/operator pairs on up to 8 sites: inner products and

    normalized expectations agree with dense linear algebra to 1e-10."""

    def random_mpo(rng, n, bond=3, scale=0.5):
        tensors = []
        for i in range(n):
            left = 1 if i == 0 else bond
            right = 1 if i == n - 1 else bond
            w = rng.normal(size=(left, 2, 2, right))
            tensors.append(scale * (w + 1j * rng.normal(size=w.shape)))
        return MatrixProductOperator(tensors)

    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        bra = random_mps(rng, [2] * n, int(rng.integers(2, 9)))
        ket = random_mps(rng, [2] * n, int(rng.integers(2, 9)))
        op = random_mpo(rng, n)
        vb, vk = to_dense(bra), to_dense(ket)
        dense_op = mpo_to_dense(op)
        d_inner = abs(inner_product(bra, ket) - np.vdot(vb, vk))
        d_expect = abs(expectation(ket, op)
                       - np.vdot(vk, dense_op @ vk) / np.vdot(vk, vk))
        worst = max(worst, d_inner, d_expect)
        assert d_inner <= 1e-10
        assert d_expect <= 1e-10
    print(f"worst contraction deviation over 200 cases: {worst:.3e}")
