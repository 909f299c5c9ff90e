import dataclasses
import hashlib
import warnings

import numpy as np
import pytest

from udmrg import dmrg, gauge, harness, models
from udmrg.harness import (
    CONFIG_TYPES,
    EXPERIMENT_KINDS,
    METHOD_LABELS,
    TABLE_METHOD_KINDS,
    ConfigError,
    CrossingScanConfig,
    DmrgBenchmarkConfig,
    GaugeDiagnosticsConfig,
    PecComparisonConfig,
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


def report_digests(report):
    """sha256 of a report's CSV and of its canonical summary payload."""
    return (hashlib.sha256(report.csv_bytes()).hexdigest(),
            hashlib.sha256(canonical_json(report.summary_payload())).hexdigest())


def small_gauge_config(**overrides):
    defaults = dict(n_families=3, family_points=9)
    defaults.update(overrides)
    return GaugeDiagnosticsConfig(**defaults)


def small_pec_config(**overrides):
    defaults = dict(n_sites=4, n_fields=7, max_bond=2, num_sweeps=8,
                    grid_search=False)
    defaults.update(overrides)
    return PecComparisonConfig(**defaults)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_reports_every_problem_at_once():
    with pytest.raises(ConfigError) as exc:
        CrossingScanConfig(seed=-1, n_points=2)
    assert exc.value.problems == ["seed must be a non-negative integer",
                                  "n_points must be at least 5"]
    assert "n_points must be at least 5" in str(exc.value)


def test_python_configs_itemize_values_of_the_wrong_type():
    # a scalar field, a None value and a list field holding a string
    cases = [
        (CrossingScanConfig, dict(coupling="strong"),
         ["coupling must be a number, got 'strong'"]),
        (CrossingScanConfig, dict(coupling=None), ["coupling must be a number, got None"]),
        (DmrgBenchmarkConfig, dict(benchmark_sizes=(6, "8"), seed=True),
         ["seed must be an integer, got True",
          "benchmark_sizes must be a list of integers, got (6, '8')"]),
        (PecComparisonConfig, dict(grid_search=1, gamma1_grid=[0.0, "0.5"]),
         ["grid_search must be true or false, got 1",
          "gamma1_grid must be a list of numbers, got (0.0, '0.5')"]),
        (CrossingScanConfig, dict(policies=None),
         ["policies must be a list of TruncationPolicy entries, got None"]),
        (GaugeDiagnosticsConfig, dict(refine_time_sizes=5),
         ["refine_time_sizes must be a list of integers, got 5"]),
    ]
    for config_type, kwargs, problems in cases:
        with pytest.raises(ConfigError) as exc:
            config_type(**kwargs)
        assert exc.value.problems == problems
    # ints are numbers, and a list of them is kept as a tuple
    assert DmrgBenchmarkConfig(benchmark_fields=[1, 2.5]).benchmark_fields == (1, 2.5)


def _owner_default(name):
    return next(t() for t in CONFIG_TYPES.values()
                if name in {f.name for f in dataclasses.fields(t)})


def test_non_finite_floats_are_reported_once_per_field():
    with pytest.raises(ConfigError) as exc:
        PecComparisonConfig(coupling_j=float("nan"), gamma1_grid=(0.0, float("inf")),
                            crossing_window=float("nan"), field_max=float("inf"))
    assert exc.value.problems == [
        "gamma1_grid entries must be finite and non-negative",
        "crossing_window must be positive",
        "coupling_j must be finite",
        "field_max must be finite",
    ]
    with pytest.raises(ConfigError) as exc:
        DmrgBenchmarkConfig(benchmark_fields=(1.0, -float("inf")))
    assert exc.value.problems == ["benchmark_fields must be finite"]
    # the crossing-window check builds no grid from a non-finite field
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name in ("field_min", "field_max", "crossing_center"):
            for value in (float("nan"), float("inf"), -float("inf")):
                with pytest.raises(ConfigError) as exc:
                    PecComparisonConfig(**{name: value})
                assert not any("crossing window" in p for p in exc.value.problems)
                if name == "crossing_center":
                    assert exc.value.problems == ["crossing_center must be finite"]


def test_config_types_own_only_their_fields():
    owned = {kind: {f.name for f in dataclasses.fields(t)}
             for kind, t in CONFIG_TYPES.items()}
    assert {kind: len(names) for kind, names in owned.items()} == {
        "crossing_scan": 8, "pec_comparison": 18, "dmrg_benchmark": 8,
        "gauge_diagnostics": 7}
    every = set().union(*owned.values())
    for kind, config_type in CONFIG_TYPES.items():
        assert config_type.kind == kind
        for name in sorted(every - owned[kind]):
            with pytest.raises(TypeError, match=name):
                config_type(**{name: getattr(_owner_default(name), name)})
    # the two knobs that used to slip through on a gauge run
    with pytest.raises(TypeError):
        GaugeDiagnosticsConfig(max_bond=2, grid_search=False)


def test_configs_are_frozen():
    cfg = small_pec_config()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.n_sites = 20
    assert cfg.n_sites == 4


def test_config_sequences_are_frozen_tuples():
    c = CrossingScanConfig(n_points=11, time_steps=20)
    assert isinstance(c.policies, tuple)
    with pytest.raises(AttributeError):
        c.policies.append("not a policy")
    listed = PecComparisonConfig(policies=list(default_policies()),
                                 gamma1_grid=[0.0, 0.5])
    assert listed.policies == tuple(default_policies())
    assert listed.gamma1_grid == (0.0, 0.5)
    # tuples and lists serialize alike, so the hash does not see the change
    assert config_hash(config_payload(listed)) == config_hash(config_payload(
        PecComparisonConfig(gamma1_grid=(0.0, 0.5))))


def test_shared_fields_have_one_default_that_the_payload_carries():
    defaults = {}
    for config_type in CONFIG_TYPES.values():
        for name, value in dataclasses.asdict(config_type()).items():
            defaults.setdefault(name, []).append(value)
    shared = {name for name, values in defaults.items() if len(values) > 1}
    assert shared == {"seed", "policies", "coupling_j"}
    for name in shared:
        assert all(v == defaults[name][0] for v in defaults[name]), name
    # a kind without the field hashes with that one default
    payload = config_payload(GaugeDiagnosticsConfig())
    assert payload["coupling_j"] == defaults["coupling_j"][0]
    assert payload["policies"] == defaults["policies"][0]
    assert config_payload(DmrgBenchmarkConfig(coupling_j=2.0))["coupling_j"] == 2.0
    assert set(payload) == set(defaults) | {"kind"}


def test_non_default_config_hashes_are_pinned():
    pec = PecComparisonConfig(seed=3, n_sites=8, grid_search=False)
    bench = DmrgBenchmarkConfig(spin_model="heisenberg", benchmark_sizes=(4, 6))
    assert config_hash(config_payload(pec)) == \
        "60e1a2a170728ceca7aaea8d9b9bfe148ecddcd8547d9f744a6683608086d3c0"
    assert config_hash(config_payload(bench)) == \
        "9a733d7cd9f583a18e6557d3569912f7a304c6a3f625749754119dcd153966ba"


def test_coefficient_grids_must_contain_zero():
    with pytest.raises(ValueError, match="non-inferiority"):
        PecComparisonConfig(gamma1_grid=(0.5, 1.0))


def test_pec_rejects_policies_the_run_would_ignore():
    with pytest.raises(ValueError, match="ignores 'policies' when grid_search is true"):
        PecComparisonConfig(n_sites=4, n_fields=5, max_bond=2, num_sweeps=4,
                            policies=[TruncationPolicy(kind="uhlmann", gamma1=0.7)])
    with pytest.raises(ValueError, match=r"policies\[0\]: pec_comparison never runs"):
        small_pec_config(policies=[TruncationPolicy(kind="standard")])
    with pytest.raises(ValueError, match=r"policies\[1\]: kind 'uhlmann' repeats"):
        small_pec_config(policies=[TruncationPolicy(kind="uhlmann", gamma1=0.7),
                                   TruncationPolicy(kind="uhlmann")])
    # the default list is what an unset ``policies`` means, under either mode
    small_pec_config(grid_search=True, policies=default_policies())
    small_pec_config(policies=default_policies())


def test_default_config_hashes_are_unchanged():
    expected = {
        "crossing_scan": "bdfe9ffa4819fc3f4ef0c53b380b7d8cf695e8f56f044ea46cdfc34d1ebf2d0f",
        "pec_comparison": "79aff15ee48e284e59cce51eec35f48b1ef594d35a640ff1c3bbd9a0924d4fce",
        "dmrg_benchmark": "f9c7a91502601b53197c60ad60a2365f35822fb0bd76754e07fd5b3e84e4e916",
        "gauge_diagnostics": "69fa7cf8eddefbc2ff968225cfcc760109019097c534f7b90a46eeb2d4b6577f",
    }
    for kind, digest in expected.items():
        assert config_hash(config_payload(CONFIG_TYPES[kind]())) == digest


def test_pec_requires_tfim():
    # the transverse-field scan has no spin model to choose
    with pytest.raises(TypeError, match="spin_model"):
        PecComparisonConfig(spin_model="heisenberg")
    with pytest.raises(ValueError, match="chain length limit is 12 sites"):
        PecComparisonConfig(n_sites=13)
    with pytest.raises(ValueError, match="chain length limit is 12 sites"):
        PecComparisonConfig(n_sites=10**12)  # rejected without computing 2**n
    PecComparisonConfig(n_sites=12)


def test_benchmark_sizes_respect_the_chain_length_limit():
    with pytest.raises(ValueError, match=r"benchmark_sizes exceed the chain length "
                                         r"limit \(12 sites\)"):
        DmrgBenchmarkConfig(benchmark_sizes=(6, 13))
    with pytest.raises(ValueError, match="chain length limit"):
        DmrgBenchmarkConfig(benchmark_sizes=(10**12,))  # no 2**n computed
    DmrgBenchmarkConfig(benchmark_sizes=(12,))


def test_refinement_sizes_must_halve_the_spacing():
    with pytest.raises(ValueError, match="halve the spacing"):
        GaugeDiagnosticsConfig(refine_time_sizes=(21, 41, 61))
    with pytest.raises(ValueError, match="odd and at least 5"):
        GaugeDiagnosticsConfig(refine_plane_sizes=(10, 19, 37))


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
    cfg = CrossingScanConfig(n_points=41, time_steps=400)
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


def test_crossing_scan_draws_no_random_numbers(monkeypatch):
    """The seed enters only the provenance and the config hash."""
    def no_rng(*args, **kwargs):
        raise AssertionError("crossing_scan drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    rows = [run_crossing_scan(CrossingScanConfig(seed=seed, n_points=41, time_steps=400)).rows
            for seed in (1, 2, 7)]
    assert rows[0] == rows[1] == rows[2]


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
    cfg = DmrgBenchmarkConfig(benchmark_sizes=(4,), benchmark_fields=(1.0,),
                              benchmark_bond=16)
    report = run_dmrg_benchmark(cfg)
    assert len(report.rows) == 1
    row = dict(zip(report.columns, report.rows[0]))
    assert row["converged"] is True
    assert row["abs_error"] < 1e-10
    assert report.summary["within_tolerance"]
    assert report.summary["flagged"] == 0


def test_experiments_form_no_dense_hamiltonian(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a dense 2^n x 2^n Hamiltonian was formed")

    for module in (harness, models):
        monkeypatch.setattr(module, "dense_spin_chain", refuse)
        monkeypatch.setattr(module, "exact_diagonalization", refuse)
    pec = run_pec_comparison(small_pec_config(n_fields=5))
    assert pec.summary["flagged"] == 0
    bench = run_dmrg_benchmark(DmrgBenchmarkConfig(
        spin_model="heisenberg", benchmark_sizes=(4, 5), benchmark_fields=(0.0,),
        benchmark_bond=8))
    assert bench.summary["within_tolerance"] and bench.summary["flagged"] == 0


def test_benchmark_flags_non_convergence():
    cfg = DmrgBenchmarkConfig(benchmark_sizes=(4,), benchmark_fields=(1.0,),
                              benchmark_bond=16, benchmark_sweeps=1,
                              benchmark_tol=1e-15)
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
    search = grid_search_coefficients(cfg)
    assert search.best_cells["uhlmann"]["gamma1"] == 0.0
    rows = [r for r in search.table.rows if r[0] == "uhlmann"]
    assert len(rows) == 2
    selected = [r for r in rows if r[-1] is True]
    assert len(selected) == 1 and selected[0][1] == 0.0
    # the surviving objective can never exceed the zero cell's score
    zero_row = [r for r in rows if r[1] == 0.0][0]
    obj_idx = search.table.columns.index("objective")
    assert search.best_objectives["uhlmann"] <= zero_row[obj_idx]


def test_zero_cells_reuse_the_standard_scan(monkeypatch):
    cfg = small_pec_config(n_fields=5, grid_search=True, gamma1_grid=(0.0, 0.5),
                           gamma2_grid=(0.0,), lambda1_grid=(0.0,),
                           lambda2_grid=(0.0, 0.5))
    ran = []
    scan_for_policy = harness._scan_for_policy

    def counting(cfg, problem, policy):
        ran.append(policy)
        return scan_for_policy(cfg, problem, policy)

    monkeypatch.setattr(harness, "_scan_for_policy", counting)
    report = run_pec_comparison(cfg)
    # one standard scan serves the three zero cells and the standard row;
    # each of the three nonzero cells runs its own
    assert [p.kind for p in ran] == ["standard", "uhlmann", "categorified",
                                     "coherence_eigenvalue_2"]
    assert [(p.gamma1, p.gamma2, p.lambda1, p.lambda2) for p in ran[1:]] == [
        (0.5, 0.0, 0.0, 0.0), (0.5, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.5)]
    table = next(a for a in report.attachments if a.name.endswith("_gridsearch"))
    assert len(table.rows) == 6

    # a zero cell run for real reports exactly what the shared scan reports
    problem = dataclasses.replace(harness._pec_problem(cfg), trajectories=None)
    shared = scan_for_policy(cfg, problem, TruncationPolicy(kind="standard", max_kept=2))
    for kind in harness.PEC_POLICY_KINDS:
        own = scan_for_policy(cfg, problem, TruncationPolicy(kind=kind, max_kept=2))
        assert harness._points_report("p", cfg, problem, own).csv_bytes() == \
            harness._points_report("p", cfg, problem, shared).csv_bytes()


def test_pec_scans_share_solves_without_changing_a_byte(monkeypatch):
    cfg = small_pec_config(policies=[
        TruncationPolicy(kind="uhlmann", gamma1=0.7),
        TruncationPolicy(kind="categorified", gamma1=0.4, gamma2=0.3),
        TruncationPolicy(kind="coherence_eigenvalue_2", lambda1=0.5, lambda2=0.2)])
    solves = []
    heff = dmrg.effective_hamiltonian

    def counting(*args):
        solves.append(1)
        return heff(*args)

    monkeypatch.setattr(dmrg, "effective_hamiltonian", counting)

    def run():
        solves.clear()
        report = run_pec_comparison(cfg)
        files = [report.csv_bytes(), canonical_json(report.summary_payload())]
        return files + [a.csv_bytes() for a in report.attachments], len(solves)

    shared, shared_solves = run()
    pec_problem = harness._pec_problem
    monkeypatch.setattr(harness, "_pec_problem", lambda c: dataclasses.replace(
        pec_problem(c), trajectories=None))
    own, own_solves = run()
    assert shared == own
    assert 0 < shared_solves < own_solves


def call_counter(monkeypatch):
    """``(calls, count)``: ``count(owner, name)`` makes ``calls[key]`` tally
    the calls of ``owner.name``, or the ``size`` of what they return."""
    calls = {}

    def count(owner, name, key=None, size=lambda result: 1):
        fn = getattr(owner, name)
        key = key or name
        calls[key] = 0

        def counting(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls[key] += size(result)
            return result

        monkeypatch.setattr(owner, name, counting)

    return calls, count


def test_pec_defaults_cost_what_the_readme_says(monkeypatch):
    """The README's ``pec_comparison`` section states these counts."""
    calls, count = call_counter(monkeypatch)
    count(harness, "continuation_scan")
    count(dmrg, "effective_hamiltonian")
    count(dmrg._ChargeContext, "charges")
    count(dmrg, "_point_gauge_record")
    count(dmrg, "select_states")
    report = run_pec_comparison(PecComparisonConfig())
    assert calls == {"continuation_scan": 13, "effective_hamiltonian": 800,
                     "charges": 156, "_point_gauge_record": 40, "select_states": 1095}
    # the default report keeps its bytes, pinned as the gauge and crossing
    # reports are below (numpy 2.4, bundled OpenBLAS, 1 and 2 BLAS threads)
    assert report_digests(report) == (
        "1b6aa39cd31978b7b1689920f0d03bc1cffc6d32201f06329342861be23787ef",
        "dd129ec08996289a456749b89e9e5fc6b3c99035bc66b4d584ef055c1ce1063f")
    points = "1848b16763f17a914700e39b8fe0c2351938ecb6500738632a3a48e86d8b45ac"
    assert {a.name: hashlib.sha256(a.csv_bytes()).hexdigest()
            for a in report.attachments} == {
        "pec_comparison_points_standard": points,
        "pec_comparison_points_uhlmann": points,
        "pec_comparison_points_categorified": points,
        "pec_comparison_points_higher_categorical": points,
        "pec_comparison_gridsearch":
            "6c8c35f06d451004de7a668d4184a2781564b22dcdb00e3b5d61cb77672bdf2d"}


def test_eight_site_pec_report_keeps_its_bytes():
    """Eight sites without the grid search: three bonds have more candidate

    states than the budget, so replays weigh and select at two bonds the
    six-site default never cuts.  The summary
    carries its provenance, config hash included.  Recorded with numpy 2.4 and
    its bundled OpenBLAS, at 1 and 2 BLAS threads."""
    report = run_experiment(PecComparisonConfig(n_sites=8, grid_search=False))
    assert report_digests(report) == (
        "1732c19ebd13e592d938ded2fa56ed4dc33d061dce752b6acecdf793001ea984",
        "9ccba4cca78b73e63c012603c1ef9d649a78e96c0c527f21f49a2a3dede102f8")
    points = "c00963bf6c47ee95780a2197eb193ed7d214a2d2ba4a4da213a0d8ed59ba0fcd"
    assert {a.name: hashlib.sha256(a.csv_bytes()).hexdigest()
            for a in report.attachments} == {
        f"pec_comparison_points_{name}": points
        for name in ("standard", "uhlmann", "categorified", "higher_categorical")}


def test_gauge_defaults_cost_what_the_readme_says(monkeypatch):
    """The README's ``gauge_diagnostics`` section states these counts."""
    calls, count = call_counter(monkeypatch)
    count(harness, "gauge_charge_residual")
    count(harness, "covariant_derivative")
    count(harness, "action_functional")
    count(harness, "track_hermitian_family")
    count(gauge, "action_functional", key="action_functional_in_gauge")
    count(gauge, "_covariant_derivatives")
    count(gauge, "_covariant_derivatives", key="covariant_derivatives_formed",
          size=lambda d: d[..., 0, 0].size)
    run_gauge_diagnostics(GaugeDiagnosticsConfig())
    # every stage runs once over the 101 families; the three refinement
    # levels track one family each
    assert calls == {"gauge_charge_residual": 1, "covariant_derivative": 2,
                     "action_functional": 3, "track_hermitian_family": 4,
                     "action_functional_in_gauge": 0, "_covariant_derivatives": 6,
                     "covariant_derivatives_formed": 7758}


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


def test_gauge_and_crossing_reports_keep_their_bytes(gauge_report, crossing_report):
    """The test-size reports hash to the bytes they have always had.

    Same-process determinism is tested below; these pins catch a change
    that moves a digit of the gauge layer or the crossing scan at roundoff.
    They were recorded with numpy 2.4 and its bundled OpenBLAS, at 1 and 2
    BLAS threads; another LAPACK build may round differently.
    """
    assert report_digests(gauge_report) == (
        "e9831aa6bd03e89220837181deffc9906885895d07a6e2cc19267709a07e8f0d",
        "3a64adda97042b53b52f33a694ab7d33b60ed1ad45a6e4cf9e7972e154581bbd")
    assert report_digests(crossing_report[0]) == (
        "41c6f978197ac4e1309dc4d8719003cabd8d9130bda05e610e4a272f7c569862",
        "37ce99ccfe5e32ad3d29063569896511dd88fb32e1ffc87ed9ae6e161093a710")


@pytest.mark.parametrize("overrides, digests", [
    ({}, ("ee176bfe2aec21c0ec30db213d4f713167de09e045b0798e3825e5c6feaee90c",
          "bc6d2595db901851333df78b58e9969183857e031b0a680d581d437afe02bf0a")),
    ({"n_families": 7, "family_dim": 2, "family_points": 9},
     ("116249c132aa7b4e8b944ed84811c1e783995f17f96b17e53f6d94a0919dcfda",
      "7df26e293e43560e649d76ad8c9103f2c42a0a5911d33827c2122a725c555f0a")),
    ({"n_families": 7, "family_dim": 4, "family_points": 9},
     ("655ea7407b2ae97c5cd4a093fe80849427f00d4b63da44fdd8b973c9022fd0f5",
      "3f4896d2f22e3cca95729a01382ca3185b5c9c681a1a57a816394c58246e665c")),
    ({"n_families": 7, "family_dim": 4},
     ("d3346d5dda3739972849b7b3c70f33063222384b1db986178de6ed1ad0151d10",
      "a58b68c403ada9c38fc4e1dc6ef49af0215a4175d293ec8f78f58dedf31229eb")),
], ids=["defaults", "dim2-points9", "dim4-points9", "dim4"])
def test_seed_5_gauge_reports_keep_their_bytes(overrides, digests):
    """Seed 5 (the benchmark's) at shapes the default pins leave out.

    Recorded from the family-by-family loop that preceded the stacked run,
    with numpy 2.4 and its bundled OpenBLAS, at 1 and 2 BLAS threads: stacking
    the families moves no bit of any of them.
    """
    assert report_digests(run_gauge_diagnostics(
        GaugeDiagnosticsConfig(seed=5, **overrides))) == digests


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
