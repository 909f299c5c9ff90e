import numpy as np
import pytest

from udmrg.harness import (
    EXPERIMENT_KINDS,
    METHOD_LABELS,
    TABLE_METHOD_KINDS,
    ExperimentConfig,
    config_payload,
    default_policies,
    grid_search_coefficients,
    run_crossing_scan,
    run_dmrg_benchmark,
    run_experiment,
    run_gauge_diagnostics,
    run_pec_comparison,
)
from udmrg.models import CROSSING_POINTS
from udmrg.reporting import canonical_json, config_hash
from udmrg.truncation import TruncationPolicy


def small_gauge_config(**overrides):
    defaults = dict(kind="gauge_diagnostics", n_families=3, family_points=9)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def small_pec_config(**overrides):
    defaults = dict(kind="pec_comparison", n_sites=4, n_fields=7,
                    max_bond=2, num_sweeps=8, grid_search=False)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_reports_every_problem_at_once():
    with pytest.raises(ValueError) as exc:
        ExperimentConfig(kind="nope", seed=-1, n_points=2)
    message = str(exc.value)
    assert "unknown experiment kind" in message
    assert "seed must be a non-negative integer" in message
    assert "n_points must be at least 5" in message


def test_coefficient_grids_must_contain_zero():
    with pytest.raises(ValueError, match="non-inferiority"):
        ExperimentConfig(kind="pec_comparison", gamma1_grid=(0.5, 1.0))


def test_pec_requires_tfim():
    with pytest.raises(ValueError, match="must be 'tfim'"):
        ExperimentConfig(kind="pec_comparison", spin_model="heisenberg")
    with pytest.raises(ValueError, match="dense oracle limit"):
        ExperimentConfig(kind="pec_comparison", n_sites=13)


def test_refinement_sizes_must_halve_the_spacing():
    with pytest.raises(ValueError, match="halve the spacing"):
        ExperimentConfig(kind="gauge_diagnostics",
                         refine_time_sizes=(21, 41, 61))
    with pytest.raises(ValueError, match="odd and at least 5"):
        ExperimentConfig(kind="gauge_diagnostics",
                         refine_plane_sizes=(10, 19, 37))


def test_config_hash_tracks_the_payload():
    a = config_hash(config_payload(small_gauge_config()))
    b = config_hash(config_payload(small_gauge_config(seed=8)))
    assert a != b
    assert a == config_hash(config_payload(small_gauge_config()))


def test_runners_reject_mismatched_kind():
    cfg = small_gauge_config()
    with pytest.raises(ValueError, match="not crossing_scan"):
        run_crossing_scan(cfg)
    with pytest.raises(ValueError, match="not pec_comparison"):
        run_pec_comparison(cfg)
    with pytest.raises(ValueError, match="not dmrg_benchmark"):
        run_dmrg_benchmark(cfg)
    with pytest.raises(ValueError, match="not gauge_diagnostics"):
        run_gauge_diagnostics(small_pec_config())


# ---------------------------------------------------------------------------
# crossing scan
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def crossing_report():
    cfg = ExperimentConfig(kind="crossing_scan", n_points=41, time_steps=400)
    return run_crossing_scan(cfg), cfg


def test_crossing_grid_contains_both_degeneracies_exactly(crossing_report):
    report, _ = crossing_report
    lam_idx = report.columns.index("lam")
    p_idx = report.columns.index("p_gaussian")
    lams = [row[lam_idx] for row in report.rows]
    assert len(report.rows) == 43  # 41 base points plus two inserted crossings
    for point in CROSSING_POINTS:
        matches = [row for row in report.rows if row[lam_idx] == point]
        assert len(matches) == 1
        assert matches[0][p_idx] == 1.0
    assert lams == sorted(lams)


def test_crossing_summary_bounds(crossing_report):
    report, _ = crossing_report
    s = report.summary
    assert s["max_p_gaussian"] == 1.0
    assert min(abs(s["argmax_lambda"] - c) for c in CROSSING_POINTS) < 1e-12
    assert s["max_norm_drift"] <= 1e-10
    # the coupling keeps the adiabatic gap at 2V = 0.2, so the tracker never
    # flags a true degeneracy even though the diabatic branches cross
    assert s["degenerate_points"] == 0
    assert s["flagged"] == 0


def test_crossing_standard_weights_are_schmidt_coefficients(crossing_report):
    """With zero coefficients the standard effective weights are just the

    square roots of the tracked populations."""
    report, _ = crossing_report
    cols = report.columns
    for suffix in ("lower", "upper"):
        pop_idx = cols.index(f"pop_{suffix}")
        eff_idx = cols.index(f"eff_standard_{suffix}")
        for row in report.rows:
            assert row[eff_idx] == np.sqrt(row[pop_idx])


def test_crossing_eff_columns_cover_all_policies(crossing_report):
    report, _ = crossing_report
    for label in ("standard", "uhlmann", "categorified", "higher_categorical"):
        assert f"eff_{label}_lower" in report.columns
        assert f"eff_{label}_upper" in report.columns


# ---------------------------------------------------------------------------
# dmrg benchmark
# ---------------------------------------------------------------------------

def test_benchmark_small_matrix_is_numerically_exact():
    cfg = ExperimentConfig(kind="dmrg_benchmark", benchmark_sizes=(4,),
                           benchmark_fields=(1.0,), benchmark_bond=16)
    report = run_dmrg_benchmark(cfg)
    assert len(report.rows) == 1
    row = dict(zip(report.columns, report.rows[0]))
    assert row["converged"] is True
    assert row["abs_error"] < 1e-10
    assert report.summary["within_tolerance"]
    assert report.summary["flagged"] == 0


def test_benchmark_flags_non_convergence():
    cfg = ExperimentConfig(kind="dmrg_benchmark", benchmark_sizes=(4,),
                           benchmark_fields=(1.0,), benchmark_bond=16,
                           benchmark_sweeps=1, benchmark_tol=1e-15)
    report = run_dmrg_benchmark(cfg)
    assert report.summary["flagged"] == 1
    row = dict(zip(report.columns, report.rows[0]))
    assert row["converged"] is False


# ---------------------------------------------------------------------------
# pec comparison
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def pec_report():
    return run_pec_comparison(small_pec_config())


def test_pec_four_method_rows(pec_report):
    labels = [row[0] for row in pec_report.rows]
    assert labels == ["standard", "uhlmann", "categorified",
                      "higher_categorical"]
    assert [row[1] for row in pec_report.rows] == list(TABLE_METHOD_KINDS)


def test_pec_improvement_recomputes_from_errors(pec_report):
    cols = pec_report.columns
    err_idx = cols.index("crossing_error")
    imp_idx = cols.index("improvement_pct")
    standard = pec_report.rows[0][err_idx]
    assert pec_report.rows[0][imp_idx] == 0.0
    assert pec_report.summary["standard_error"] == standard
    for row in pec_report.rows[1:]:
        expected = 100.0 * (standard - row[err_idx]) / standard
        assert row[imp_idx] == pytest.approx(expected, rel=1e-12)


def test_pec_zero_policy_point_reports_are_byte_identical(pec_report):
    """All-zero coefficients collapse every method onto the standard

    trajectory, so the per-point attachments agree byte for byte."""
    points = [a for a in pec_report.attachments
              if a.name.startswith("pec_comparison_points_")]
    assert len(points) == 4
    blobs = {a.csv_bytes() for a in points}
    assert len(blobs) == 1
    assert pec_report.summary["flagged"] == 0
    assert set(pec_report.summary["methods"]) == {
        "standard", "uhlmann", "categorified", "higher_categorical"}


def test_pec_empty_crossing_window_raises():
    with pytest.raises(ValueError, match="widen it"):
        small_pec_config(crossing_center=5.0, crossing_window=0.01)


def test_grid_search_prefers_zero_on_ties_and_never_loses():
    cfg = small_pec_config(n_fields=5, grid_search=True,
                           gamma1_grid=(0.0, 50.0), gamma2_grid=(0.0,),
                           lambda1_grid=(0.0,), lambda2_grid=(0.0,))
    search = grid_search_coefficients(cfg, kinds=["uhlmann"])
    assert search.best_cells["uhlmann"]["gamma1"] == 0.0
    rows = search.table.rows
    assert len(rows) == 2
    selected = [r for r in rows if r[-1] is True]
    assert len(selected) == 1 and selected[0][1] == 0.0
    # the surviving objective can never exceed the zero cell's score
    zero_row = [r for r in rows if r[1] == 0.0][0]
    obj_idx = search.table.columns.index("objective")
    assert search.best_objectives["uhlmann"] <= zero_row[obj_idx]


def test_grid_search_rejects_the_standard_kind():
    cfg = small_pec_config(grid_search=True)
    with pytest.raises(ValueError, match="cannot grid-search"):
        grid_search_coefficients(cfg, kinds=["standard"])


# ---------------------------------------------------------------------------
# gauge diagnostics
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def gauge_report():
    return run_gauge_diagnostics(small_gauge_config())


def test_gauge_diagnostics_bounds(gauge_report):
    s = gauge_report.summary
    assert len(gauge_report.rows) == 4  # one constant family plus three random
    assert s["max_hermiticity_residual"] <= 1e-10
    assert s["min_covariant_action"] >= -1e-12
    assert s["max_covariance_residual"] <= 1e-8
    assert s["max_transport_action"] <= 1e-8
    assert s["flagged"] == 0


def test_gauge_diagnostics_constant_family_is_exactly_static(gauge_report):
    const = gauge_report.summary["constant_family"]
    assert const["action_covariant"] == 0.0
    assert const["action_scalar_like"] == 0.0
    assert const["charge_residual_max"] == pytest.approx(0.0, abs=1e-12)
    assert gauge_report.rows[0][1] == "constant"
    assert all(row[1] == "random" for row in gauge_report.rows[1:])


def test_gauge_diagnostics_refinement_ratios(gauge_report):
    s = gauge_report.summary
    assert len(s["overlap_ratios"]) == 2
    assert len(s["curvature_ratios"]) == 2
    for ratio in s["overlap_ratios"] + s["curvature_ratios"]:
        assert 3.2 < ratio < 4.8


# ---------------------------------------------------------------------------
# dispatch and determinism
# ---------------------------------------------------------------------------

def test_run_experiment_stamps_provenance():
    cfg = small_gauge_config(n_families=1)
    report = run_experiment(cfg)
    prov = report.provenance
    assert prov["experiment"] == "gauge_diagnostics"
    assert prov["seed"] == cfg.seed
    assert prov["config_hash"] == config_hash(config_payload(cfg))
    assert isinstance(prov["tool_version"], str) and prov["tool_version"]


def test_reports_are_bitwise_deterministic():
    cfg = small_gauge_config(n_families=2)
    first = run_experiment(cfg)
    second = run_experiment(cfg)
    assert first.csv_bytes() == second.csv_bytes()
    assert canonical_json(first.summary_payload()) == \
        canonical_json(second.summary_payload())


def test_default_policies_cover_the_table_methods():
    kinds = [p.kind for p in default_policies()]
    assert kinds == list(TABLE_METHOD_KINDS)
    assert all(p.gamma1 == p.gamma2 == p.lambda1 == p.lambda2 == 0.0
               for p in default_policies())
    assert set(METHOD_LABELS) >= set(TABLE_METHOD_KINDS)
    assert len(EXPERIMENT_KINDS) == 4
