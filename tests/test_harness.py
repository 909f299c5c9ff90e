import csv
import dataclasses
import hashlib
import io
import types
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from udmrg import dmrg, gauge, harness, linalg, models, spectral, truncation
from udmrg.dmrg import TrajectoryTree, continuation_scan
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
from udmrg.models import CROSSING_POINTS, SpinChainSpec, spin_chain_ground_states
from udmrg.reporting import canonical_json, config_hash
from udmrg.truncation import KIND_COEFFICIENTS, TruncationPolicy

from helpers import CountingGenerator, count_dense_tiers, split_by_policy, tree_nodes


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


def test_crossing_window_validation_builds_no_field_grid():
    # a grid of 10**12 fields would take 7.3 TiB; the default window holds a point
    assert PecComparisonConfig(n_fields=10**12).n_fields == 10**12
    with pytest.raises(ConfigError) as exc:
        PecComparisonConfig(n_fields=10**12, crossing_center=2.0, crossing_window=0.4)
    assert exc.value.problems == ["crossing window contains no grid points; widen it"]
    # finite ends whose span overflows are refused once, with no window check
    with pytest.raises(ConfigError) as exc:
        PecComparisonConfig(field_min=-1e308, field_max=1e308, crossing_center=1e308)
    assert exc.value.problems == ["field_max - field_min must be finite"]


@settings(max_examples=300, deadline=None)
@given(ends=st.lists(st.floats(-4.0, 4.0), min_size=2, max_size=2, unique=True),
       center=st.floats(-5.0, 5.0), window=st.floats(1e-13, 2.0),
       n_fields=st.integers(3, 40))
def test_crossing_window_rule_agrees_with_the_field_grid(ends, center, window, n_fields):
    # both read only these fields, and an empty window must not fail construction
    cfg = types.SimpleNamespace(field_min=min(ends), field_max=max(ends),
                                crossing_center=center, crossing_window=window,
                                n_fields=n_fields)
    assert harness._window_holds_a_grid_point(cfg) == harness._pec_grid(cfg)[1].any()


def test_integer_settings_beyond_numpy_sizes_fail_validation():
    """Every integer setting but the seed, scalar or list, is bounded by
    numpy's largest array size; at the bound that check is silent."""
    largest = int(np.iinfo(np.intp).max)
    for config_type in CONFIG_TYPES.values():
        for name, hint in harness.field_types(config_type).items():
            if name == "seed" or hint not in (int, tuple[int, ...]):
                continue
            for value, refused in ((10**400, True), (largest + 1, True), (largest, False)):
                kwargs = {name: value if hint is int else (value,) * 3}
                try:
                    config_type(**kwargs)
                    problems = []
                except ConfigError as exc:
                    problems = exc.problems
                bound = f"{name} must not exceed {largest}, numpy's largest array size"
                assert (bound in problems) == refused, (config_type.kind, name, value)


def test_a_microgrid_below_float_resolution_fails_validation():
    for spacing in (1e-17, 5e-17):
        with pytest.raises(ConfigError) as exc:
            GaugeDiagnosticsConfig(microgrid_spacing=spacing)
        assert exc.value.problems == [
            f"microgrid_spacing {spacing!r} is below float resolution: "
            "0.5 - spacing, 0.5 and 0.5 + spacing must differ"]
    for spacing in (6e-17, GaugeDiagnosticsConfig().microgrid_spacing):
        assert GaugeDiagnosticsConfig(microgrid_spacing=spacing).microgrid_spacing == spacing


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
    bench = DmrgBenchmarkConfig(spin_model="heisenberg", benchmark_sizes=(4, 6),
                                benchmark_fields=(0.0,))
    assert config_hash(config_payload(pec)) == \
        "60e1a2a170728ceca7aaea8d9b9bfe148ecddcd8547d9f744a6683608086d3c0"
    assert config_hash(config_payload(bench)) == \
        "3b03b31b773664b598577443b360066a7c38390ace7ac21ce21d2c13a634db3c"


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


@dataclasses.dataclass(frozen=True)
class _DirectedPecConfig(PecComparisonConfig):
    """The pec config with one field added after the hash payload froze."""

    scan_direction: str = "forward"


def test_a_new_config_field_at_its_default_moves_no_hash(monkeypatch):
    """Registered in place of the pec type, a type with an extra defaulted
    field keeps all four default hashes and both pinned ones; a value other
    than the default enters the payload and moves the hash."""
    monkeypatch.setitem(CONFIG_TYPES, "pec_comparison", _DirectedPecConfig)
    test_default_config_hashes_are_unchanged()
    pinned = _DirectedPecConfig(seed=3, n_sites=8, grid_search=False)
    assert config_hash(config_payload(pinned)) == \
        "60e1a2a170728ceca7aaea8d9b9bfe148ecddcd8547d9f744a6683608086d3c0"
    assert "scan_direction" not in config_payload(pinned)
    backward = config_payload(_DirectedPecConfig(scan_direction="backward"))
    assert backward["scan_direction"] == "backward"
    assert config_hash(backward) != config_hash(config_payload(PecComparisonConfig()))


def test_config_defaults_outside_the_frozen_payload_are_pinned():
    """A field the frozen payload does not hold hashes only away from its
    default, so a changed default would move no hash: each one is pinned
    here, and a change shows up as an edit of this test."""
    post_freeze = {(kind, f.name): getattr(config_type(), f.name)
                   for kind, config_type in CONFIG_TYPES.items()
                   for f in dataclasses.fields(config_type)
                   if f.name not in harness._FROZEN_PAYLOAD}
    assert post_freeze == {}


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


def test_heisenberg_benchmark_fields_must_be_zero():
    # the heisenberg chain has no field term, so a field would change nothing
    with pytest.raises(ValueError, match="benchmark_fields must all be 0: the heisenberg "
                                         "chain has no field"):
        DmrgBenchmarkConfig(spin_model="heisenberg", benchmark_fields=(0.0, 0.5))
    DmrgBenchmarkConfig(spin_model="tfim", benchmark_fields=(0.0, 0.5))
    DmrgBenchmarkConfig(spin_model="heisenberg", benchmark_fields=(0.0,))


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


def test_record_objective_recomputes_from_parts():
    """Each points table scores its own policy: the objective column is

    exactly ``energy + lambda1 * coherence + lambda2 * curvature``."""
    policy = TruncationPolicy(kind="coherence_eigenvalue_2", lambda1=0.3, lambda2=0.2)
    report = run_pec_comparison(small_pec_config(n_fields=5, policies=[policy]))
    tables = {a.name: list(csv.DictReader(io.StringIO(a.csv_bytes().decode())))
              for a in report.attachments}
    higher = tables["pec_comparison_points_higher_categorical"]
    for row in higher:
        energy, coherence, curvature = (float(row[c]) for c in (
            "energy", "coherence_penalty", "curvature_penalty"))
        assert float(row["objective"]) == energy + 0.3 * coherence + 0.2 * curvature
        assert coherence >= 0.0
    assert any(float(r["coherence_penalty"]) > 0.0 for r in higher)
    for row in tables["pec_comparison_points_standard"]:
        assert float(row["objective"]) == float(row["energy"])
    # second-order charges need two earlier points
    assert all(float(v) == 0.0 for k, v in higher[1].items() if k.startswith("q2max"))
    assert any(float(v) != 0.0 for k, v in higher[2].items() if k.startswith("q1max"))


def test_pec_empty_crossing_window_raises():
    with pytest.raises(ValueError, match="widen it"):
        small_pec_config(crossing_center=5.0, crossing_window=0.01)


@pytest.mark.parametrize("config", [
    PecComparisonConfig(n_sites=7, field_min=-0.5, field_max=1.5),
    PecComparisonConfig(),
    PecComparisonConfig(n_sites=8),
], ids=["7_sites_across_zero", "defaults", "8_sites"])
def test_the_continued_oracle_matches_independent_solves(monkeypatch, config):
    """The oracle solves a scan grid in order, each field starting from the

    previous field's vector, and finds what a solve of each field alone
    finds.  Only the first field starts from the fixed draw, and on the
    7-site grid also the first field at h >= 0, where the spin-flip parity of
    the ground state changes sign and the previous vector has no weight in
    the new sector."""
    starts = []
    lanczos = linalg.lanczos_lowest

    def spy(matvec, start):
        starts.append(start)
        return lanczos(matvec, start)

    monkeypatch.setattr(linalg, "lanczos_lowest", spy)
    problem = harness._pec_problem(config)
    n = config.n_sites
    draw = np.random.default_rng(0).standard_normal(2**n)
    sectors = [d / np.linalg.norm(d) for d in (draw + draw[::-1], draw - draw[::-1])]
    fresh = [i for i, x in enumerate(starts)
             if max(abs(np.vdot(x, d)) for d in sectors) >= (1 - 1e-12) * np.linalg.norm(x)]
    expected = [0]
    if problem.tree.grid[0] < 0:
        expected.append(int(np.argmax(problem.tree.grid >= 0)))
    assert fresh == expected
    for h, energy, state in zip(problem.tree.grid, problem.exact_energies,
                                problem.tree.oracle):
        spec = SpinChainSpec("tfim", n, coupling=config.coupling_j, field=h)
        [(ref_energy, ref_state)] = spin_chain_ground_states([spec])
        assert abs(energy - ref_energy) <= 1e-12
        assert abs(np.vdot(ref_state, state)) ** 2 >= 1 - 1e-12


def test_the_pec_oracle_costs_what_the_readme_says(monkeypatch):
    """The README's ``pec_comparison`` section states these counts: the 21

    fields of the grid take 527 matrix-vector products at the defaults and
    918 at 8 sites (1194 and 1815 when every field started from the same
    random vector)."""
    calls = 0
    build = models.spin_chain_matvec

    def counting(spec):
        matvec = build(spec)

        def counted(x):
            nonlocal calls
            calls += 1
            return matvec(x)
        return counted

    monkeypatch.setattr(models, "spin_chain_matvec", counting)
    counts = []
    for n_sites in (6, 8):
        calls = 0
        harness._pec_problem(PecComparisonConfig(n_sites=n_sites))
        counts.append(calls)
    assert counts == [527, 918]


def test_grid_search_prefers_zero_on_ties_and_never_loses():
    cfg = small_pec_config(n_fields=5, grid_search=True,
                           gamma1_grid=(0.0, 50.0), gamma2_grid=(0.0,),
                           lambda1_grid=(0.0,), lambda2_grid=(0.0,))
    problem = harness._pec_problem(cfg)
    search = grid_search_coefficients(cfg, problem)
    assert search.best_policies["uhlmann"].gamma1 == 0.0
    assert search.best_scans["uhlmann"] is search.best_scans["standard"]
    rows = [r for r in search.table.rows if r[0] == "uhlmann"]
    assert len(rows) == 2
    selected = [r for r in rows if r[-1] is True]
    assert len(selected) == 1 and selected[0][1] == 0.0
    # the surviving objective can never exceed the zero cell's score
    zero_row = [r for r in rows if r[1] == 0.0][0]
    obj_idx = search.table.columns.index("objective")
    assert selected[0][obj_idx] <= zero_row[obj_idx]


def fresh_tree(tree: TrajectoryTree) -> TrajectoryTree:
    """A new tree of ``tree``'s problem, holding no solved point."""
    return TrajectoryTree(tree.family, tree.grid, tree.init, tree.num_sweeps,
                          tree.energy_tol, oracle=tree.oracle)


def test_zero_cells_reuse_the_standard_scan(monkeypatch):
    ran = []

    def counting(tree, policy, points=None):
        ran.append(policy)
        return continuation_scan(tree, policy, points)

    monkeypatch.setattr(harness, "continuation_scan", counting)
    for overrides, own_scans, tables in [
        # one standard scan serves the three zero cells and the standard row;
        # each of the three nonzero cells runs its own
        (dict(grid_search=True, gamma1_grid=(0.0, 0.5), gamma2_grid=(0.0,),
              lambda1_grid=(0.0,), lambda2_grid=(0.0, 0.5)),
         [TruncationPolicy(kind="uhlmann", gamma1=0.5, max_kept=2),
          TruncationPolicy(kind="categorified", gamma1=0.5, max_kept=2),
          TruncationPolicy(kind="coherence_eigenvalue_2", lambda2=0.5, max_kept=2)],
         [6]),
        # without the search the all-zero entry shares the standard scan too;
        # a cutoff alone, or a lambda1 alone (which the uhlmann objective
        # column reads), makes a policy run its own
        (dict(policies=[TruncationPolicy(kind="uhlmann", lambda1=0.5),
                        TruncationPolicy(kind="categorified", cutoff=0.01),
                        TruncationPolicy(kind="coherence_eigenvalue_2")]),
         [TruncationPolicy(kind="uhlmann", lambda1=0.5, max_kept=2),
          TruncationPolicy(kind="categorified", cutoff=0.01, max_kept=2)],
         []),
    ]:
        cfg = small_pec_config(n_fields=5, **overrides)
        ran.clear()
        report = run_pec_comparison(cfg)
        assert ran == [*own_scans, TruncationPolicy(kind="standard", max_kept=2)]
        assert [len(a.rows) for a in report.attachments
                if a.name.endswith("_gridsearch")] == tables

    # a zero cell run for real reports exactly what the shared scan reports
    problem = harness._pec_problem(cfg)
    shared = continuation_scan(fresh_tree(problem.tree),
                               TruncationPolicy(kind="standard", max_kept=2))
    for kind in harness.PEC_POLICY_KINDS:
        policy = TruncationPolicy(kind=kind, max_kept=2)
        own = continuation_scan(fresh_tree(problem.tree), policy)
        assert harness._points_report("p", cfg, problem, own, policy).csv_bytes() == \
            harness._points_report("p", cfg, problem, shared, policy).csv_bytes()


def test_a_kinds_grid_cells_are_the_product_of_the_grids_it_reads():
    """Every PEC kind reads coefficients that the config grids, and its cells
    run over their grids' product in table order, the last grid fastest."""
    fields = {f.name for f in dataclasses.fields(PecComparisonConfig)}
    for kind in harness.PEC_POLICY_KINDS:
        assert KIND_COEFFICIENTS[kind]
        assert {f"{name}_grid" for name in KIND_COEFFICIENTS[kind]} <= fields
    cfg = PecComparisonConfig(gamma1_grid=(0.0, 1.0), gamma2_grid=(0.0, 0.5),
                              lambda1_grid=(0.0, 2.0), lambda2_grid=(0.0, 0.25))
    cells = {kind: [(p.gamma1, p.gamma2, p.lambda1, p.lambda2)
                    for p in harness._candidate_policies(kind, cfg)]
             for kind in harness.PEC_POLICY_KINDS}
    assert cells == {
        "uhlmann": [(0, 0, 0, 0), (1, 0, 0, 0)],
        "categorified": [(0, 0, 0, 0), (0, 0.5, 0, 0), (1, 0, 0, 0), (1, 0.5, 0, 0)],
        "coherence_eigenvalue_2": [(0, 0, 0, 0), (0, 0, 0, 0.25), (0, 0, 2, 0),
                                   (0, 0, 2, 0.25)],
    }


def _report_bytes(report):
    return ([report.csv_bytes(), canonical_json(report.summary_payload())]
            + [a.csv_bytes() for a in report.attachments])


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
        return _report_bytes(run_pec_comparison(cfg)), len(solves)

    shared, shared_solves = run()
    monkeypatch.setattr(harness, "continuation_scan",
                        lambda tree, policy, points=None:
                        continuation_scan(fresh_tree(tree), policy, points))
    own, own_solves = run()
    assert shared == own
    assert 0 < shared_solves < own_solves


#: a grid search on the 4-site, 7-field problem: the window holds index 3
#: alone, and the coherence_eigenvalue_2 cells with lambda2 = 0.5 leave the
#: standard trajectory before it
_PREFIX_GRIDS = dict(grid_search=True, gamma1_grid=(0.0, 0.5), gamma2_grid=(0.0, 0.5),
                     lambda1_grid=(0.0, 0.5), lambda2_grid=(0.0, 0.5))


@pytest.mark.parametrize("objective", harness.OBJECTIVES)
def test_a_winner_scanned_to_the_window_reports_its_full_scan(monkeypatch, objective):
    """Scored by the negated objective, a coherence_eigenvalue_2 cell that
    leaves the standard trajectory wins.  Each nonzero cell scans to the
    window's last point, and only the winner then scans the whole grid; the
    report equals, byte for byte, the one from full scans of every candidate
    through fresh trees."""
    objective_of = harness._scan_objective
    monkeypatch.setattr(harness, "_scan_objective",
                        lambda cfg, scan, problem: -objective_of(cfg, scan, problem))
    cfg = small_pec_config(objective=objective, **_PREFIX_GRIDS)
    lengths = []

    def prefix(tree, policy, points=None):
        scan = continuation_scan(tree, policy, points)
        lengths.append(len(scan.results))
        return scan

    monkeypatch.setattr(harness, "continuation_scan", prefix)
    report = run_pec_comparison(cfg)
    assert report.summary["methods"]["higher_categorical"]["coefficients"]["lambda2"] == 0.5
    # 1 + 3 + 3 nonzero cells to index 3, the standard scan, the winner to the end
    assert lengths == [4] * 7 + [7] + [7]
    monkeypatch.setattr(harness, "continuation_scan", lambda tree, policy, points=None:
                        continuation_scan(fresh_tree(tree), policy))
    assert _report_bytes(report) == _report_bytes(run_pec_comparison(cfg))


def test_losing_candidates_stop_at_the_window_and_build_no_gauge_record(monkeypatch):
    solved = []
    build = harness.build_spin_chain_mpo
    monkeypatch.setattr(harness, "build_spin_chain_mpo",
                        lambda spec: (solved.append(spec.field), build(spec))[1])
    trees, scans = [], {}

    def spy(tree, policy, points=None):
        trees.append(tree)
        scans[policy] = continuation_scan(tree, policy, points)
        return scans[policy]

    monkeypatch.setattr(harness, "continuation_scan", spy)
    report = run_pec_comparison(small_pec_config(**_PREFIX_GRIDS))
    assert all(m["coefficients"] == dict.fromkeys(m["coefficients"], 0.0)
               for m in report.summary["methods"].values())
    index = {h: k for k, h in enumerate(trees[0].grid.tolist())}
    per_point = np.bincount([index[h] for h in solved], minlength=7)
    # the losers leave the standard trajectory and stop at index 3
    assert per_point[3] > 1 and per_point[4:].tolist() == [1, 1, 1]
    # only the standard scan, which every row reports, built gauge records
    standard = scans[TruncationPolicy(max_kept=2)]._nodes
    nodes = tree_nodes(trees[0])
    assert len(standard) == 7 and len(nodes) > 7
    assert {id(n) for n in nodes if "record" in vars(n)} == {id(n) for n in standard}


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


def count_charges(count):
    """Tally the charged steps, the charge contexts' overlap environments
    (pushed through a sweep's sites, and one per reference at each charged
    step), and the ``_bond_charges`` calls and their rows (steps and
    gauge-record bonds)."""
    count(dmrg._ChargeContext, "charge")
    count(dmrg, "extend_cross_env")
    count(dmrg, "_bond_charges")
    count(dmrg, "_bond_charges", key="charge_rows", size=lambda q: len(q[0]))


def test_pec_defaults_cost_what_the_readme_says(monkeypatch):
    """The README's ``pec_comparison`` section states these counts."""
    calls, count = call_counter(monkeypatch)
    count(harness, "continuation_scan")
    count(dmrg, "effective_hamiltonian")
    count_charges(count)
    count(dmrg, "_point_gauge_record")
    count(dmrg, "select_states")
    count(dmrg, "_replays")
    count(dmrg, "kept_masks", key="replayed_steps", size=lambda masks: len(masks))
    tiers = count_dense_tiers(monkeypatch)
    by_policy = split_by_policy(monkeypatch, tiers)
    report = run_pec_comparison(PecComparisonConfig())
    # the candidates that lose are scanned to the window's last point, and
    # only the reported scans' gauge records are built; each replay selects
    # its 4 charged steps in one stacked call.  Only the coefficient policies
    # charge a step, 92 of them one call each; their charge contexts push
    # 180 overlap environments through the sweeps' sites and build 180 more,
    # one per reference, at the charged steps; the 20 records with a history
    # charge their 100 bonds in one call per rank (40)
    assert calls == {"continuation_scan": 13, "effective_hamiltonian": 640, "charge": 92,
                     "extend_cross_env": 360, "_bond_charges": 132, "charge_rows": 192,
                     "_point_gauge_record": 21, "select_states": 128, "_replays": 148,
                     "replayed_steps": 592}
    # how each dense local solve was accepted: at the warm start, by
    # Rayleigh-quotient iteration, after eigvalsh, by the full eigh
    assert tiers == {"start": 320, "rqi": 230, "eigvalsh": 88, "eigh": 2}
    # where the escalations come from: 87 of the 90 steps that reach eigvalsh
    # lie on the one branch that leaves the standard trajectory,
    # coherence_eigenvalue_2 at lambda2 = 0.5, which holds 220 of the 640
    # steps.  The first candidate to scan, uhlmann at gamma1 = 0.5, solves
    # the standard trajectory's points 1-12 (240 steps) before the standard
    # scan, which adopts them and solves points 13-20; the standard solves
    # (point 0 among them) account for the other 3
    by_kind: dict = {}
    for policy, split in by_policy.items():
        total = by_kind.setdefault(policy.kind, dict.fromkeys(split, 0))
        for name, steps in split.items():
            total[name] += steps
    assert by_kind == {
        "standard": {"start": 90, "rqi": 87, "eigvalsh": 3, "eigh": 0},
        "uhlmann": {"start": 120, "rqi": 120, "eigvalsh": 0, "eigh": 0},
        "coherence_eigenvalue_2": {"start": 110, "rqi": 23, "eigvalsh": 85, "eigh": 2}}
    assert [policy for policy in by_policy if policy.kind != "standard"] == [
        TruncationPolicy(kind="uhlmann", gamma1=0.5, max_kept=4),
        TruncationPolicy(kind="coherence_eigenvalue_2", lambda2=0.5, max_kept=4)]
    # the default report keeps its bytes, pinned as the gauge and crossing
    # reports are below (numpy 2.4, bundled OpenBLAS, 1 and 2 BLAS threads)
    assert report_digests(report) == (
        "5769f3b69888c3a84417bfcaac9d8f92f6d945d285fdb6b9e477efe1edc558dd",
        "49cefe6e0af779f3d92126859aaf837c835a7b172319cff0d94fb22ddbc852ab")
    points = "119729789a72415972e7b49247d8f80397287956ff342b8c56a701413b255b19"
    assert {a.name: hashlib.sha256(a.csv_bytes()).hexdigest()
            for a in report.attachments} == {
        "pec_comparison_points_standard": points,
        "pec_comparison_points_uhlmann": points,
        "pec_comparison_points_categorified": points,
        "pec_comparison_points_higher_categorical": points,
        "pec_comparison_gridsearch":
            "4eb2f515b02efe845cf14a1a356e109fdb6015960da7a900df4f468d3356e230"}


def test_a_pec_run_draws_its_start_once(monkeypatch):
    """The run's one tree states its scan problem: the 13 default scans

    solve it from one random start."""
    calls, count = call_counter(monkeypatch)
    count(harness, "random_mps")
    trees = []

    def spy(tree, policy, points=None):
        trees.append(tree)
        return continuation_scan(tree, policy, points)

    monkeypatch.setattr(harness, "continuation_scan", spy)
    run_pec_comparison(PecComparisonConfig())
    assert calls == {"random_mps": 1}
    assert len(trees) == 13 and all(tree is trees[0] for tree in trees)


def test_eight_site_pec_without_search_costs_what_the_readme_says(monkeypatch):
    """The README's ``pec_comparison`` section states these counts: every
    method's policy is all zero, so all four rows share one scan."""
    calls, count = call_counter(monkeypatch)
    count(harness, "continuation_scan")
    count(dmrg, "effective_hamiltonian")
    count_charges(count)
    count(dmrg, "_point_gauge_record")
    count(dmrg, "select_states")
    run_pec_comparison(PecComparisonConfig(n_sites=8, grid_search=False))
    # no policy reads a charge, so the standard scan charges none of its
    # steps; the 20 records with a history charge their 140 bonds in one
    # call per rank (40)
    assert calls == {"continuation_scan": 1, "effective_hamiltonian": 602, "charge": 0,
                     "extend_cross_env": 0, "_bond_charges": 40, "charge_rows": 140,
                     "_point_gauge_record": 21, "select_states": 258}


@pytest.mark.parametrize("overrides, charged", [
    (dict(n_sites=8, grid_search=False), False),
    (dict(gamma1_grid=(0.0,), gamma2_grid=(0.0,), lambda1_grid=(0.0,),
          lambda2_grid=(0.0,)), False),
    ({}, True),
    (dict(grid_search=False, policies=(TruncationPolicy(kind="uhlmann", gamma1=0.5),)),
     True),
], ids=["eight_sites_without_search", "all_zero_grids", "defaults", "one_configured_policy"])
def test_a_pec_tree_is_charged_when_some_candidate_scans_on_its_own(monkeypatch, overrides,
                                                                    charged):
    """Only a candidate with a nonzero coefficient or cutoff scans on its own

    and reads charges; the standard scan measures none, so a run without
    such a candidate builds no charge context."""
    calls, count = call_counter(monkeypatch)
    count(dmrg, "_ChargeContext")
    run_pec_comparison(PecComparisonConfig(**overrides))
    assert (calls["_ChargeContext"] > 0) is charged


def test_every_candidate_that_scans_on_its_own_runs_before_the_standard_scan(monkeypatch):
    """At the defaults the 12 nonzero candidates scan to the window's last

    point first, and the standard scan then adopts their points.  Every kind
    picks its zero cell, which shares the standard scan, so no winner scans
    the rest of the grid."""
    ran = []

    def spy(tree, policy, points=None):
        ran.append((policy, points))
        return continuation_scan(tree, policy, points)

    monkeypatch.setattr(harness, "continuation_scan", spy)
    cfg = PecComparisonConfig()
    run_pec_comparison(cfg)
    own = [(policy, 13) for kind in harness.PEC_POLICY_KINDS
           for policy in harness._candidate_policies(kind, cfg) if harness._scans_alone(policy)]
    assert len(own) == 12
    assert ran == [*own, (TruncationPolicy(max_kept=4), None)]


def test_an_uncharged_run_builds_no_charge_context_and_keeps_its_bytes(monkeypatch):
    """Eight sites without the search: no step is charged, and the report

    equals, byte for byte, that of a run whose one scan charges every step
    with a choice, under an uhlmann policy at gamma1 = 1e-300, which keeps
    the standard states."""
    calls, count = call_counter(monkeypatch)
    count(dmrg, "extend_cross_env")
    count(dmrg._ChargeContext, "charge")
    cfg = PecComparisonConfig(n_sites=8, grid_search=False)
    uncharged = run_experiment(cfg)
    assert calls == {"extend_cross_env": 0, "charge": 0}
    charging = TruncationPolicy(kind="uhlmann", gamma1=1e-300, max_kept=cfg.max_bond)
    monkeypatch.setattr(harness, "continuation_scan", lambda tree, policy, points=None:
                        continuation_scan(tree, charging, points))
    charged = run_experiment(cfg)
    # 2 sweeps at each of the 20 later points, each with 6 charged steps at
    # bonds 2-4, so each sweep pushes the overlaps through 4 sites per
    # reference: 312 pushes, and 468 overlaps at the charged steps
    assert calls == {"extend_cross_env": 780, "charge": 240}
    assert report_digests(uncharged) == report_digests(charged)
    assert [a.csv_bytes() for a in uncharged.attachments] == \
        [a.csv_bytes() for a in charged.attachments]


def test_a_charge_reading_run_without_a_choice_builds_no_overlap(monkeypatch):
    """Six sites at chi = 8 keep every state at every step, so an uhlmann

    policy has no choice anywhere: its scan charges no step, its charge
    contexts build no overlap environment, and its points report equals the
    standard one byte for byte."""
    calls, count = call_counter(monkeypatch)
    count(dmrg, "extend_cross_env")
    count(dmrg._ChargeContext, "charge")
    report = run_pec_comparison(PecComparisonConfig(
        n_sites=6, max_bond=8, grid_search=False,
        policies=(TruncationPolicy(kind="uhlmann", gamma1=0.5),)))
    assert calls == {"extend_cross_env": 0, "charge": 0}
    points = {a.name: a.csv_bytes() for a in report.attachments}
    assert points["pec_comparison_points_uhlmann"] == points["pec_comparison_points_standard"]


@pytest.mark.parametrize("config", [
    PecComparisonConfig(n_sites=8, grid_search=False),
    DmrgBenchmarkConfig(benchmark_sizes=(6, 9), benchmark_fields=(0.5, 1.5),
                        benchmark_bond=16),
    DmrgBenchmarkConfig(spin_model="heisenberg", benchmark_sizes=(5,),
                        benchmark_fields=(0.0,), benchmark_bond=8),
], ids=["pec_comparison", "dmrg_benchmark_tfim", "dmrg_benchmark_heisenberg"])
def test_every_local_problem_of_a_spin_chain_run_is_real(monkeypatch, config):
    """Both spin chains' MPOs are float64 and ``random_mps`` draws a float64

    start, so a run solves every local problem, dense or Lanczos, in real
    arithmetic from its first sweep."""
    dtypes = []
    build = dmrg.effective_hamiltonian

    def spy(*args):
        dtypes.append(np.result_type(*args))
        return build(*args)

    monkeypatch.setattr(dmrg, "effective_hamiltonian", spy)
    run_experiment(config)
    assert dtypes and set(dtypes) == {np.dtype(np.float64)}


def test_eight_site_pec_report_keeps_its_bytes():
    """Eight sites without the grid search: three bonds have more candidate

    states than the budget, so replays weigh and select at two bonds the
    six-site default never cuts.  The summary
    carries its provenance, config hash included.  Recorded with numpy 2.4 and
    its bundled OpenBLAS, at 1 and 2 BLAS threads."""
    report = run_experiment(PecComparisonConfig(n_sites=8, grid_search=False))
    assert report_digests(report) == (
        "0d8c1387299755fd25e32918afcd4c54de39625d48c01533684d82297045d52b",
        "611421b67de074c8a04c42140179658e41302fe855cafd475b630fa27be97bb3")
    points = "84c73fb74271a8b4809b0057f78f1759edf4e322c782e514fdf38873d824aa24"
    assert {a.name: hashlib.sha256(a.csv_bytes()).hexdigest()
            for a in report.attachments} == {
        f"pec_comparison_points_{name}": points
        for name in ("standard", "uhlmann", "categorified", "higher_categorical")}


def test_gauge_defaults_cost_what_the_readme_says(monkeypatch):
    """The README's ``gauge_diagnostics`` section states these counts."""
    calls, count = call_counter(monkeypatch)
    count(harness, "action_and_charge_residual")
    count(harness, "gauge_charge_residual")
    count(harness, "covariant_derivative")
    count(harness, "action_functional")
    count(harness, "track_hermitian_family")
    count(gauge, "action_functional", key="action_functional_in_gauge")
    count(gauge, "_covariant_derivatives")
    count(gauge, "_covariant_derivatives", key="covariant_derivatives_formed",
          size=lambda d: d[..., 0, 0].size)
    count(np.linalg, "eigh", key="eigh_of_the_stack",
          size=lambda wv: int(wv[1].shape == (101, 21, 3, 3)))
    generators = []

    def counting_rng(seed=None):
        generators.append(CountingGenerator(seed))
        return generators[-1]

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    run_gauge_diagnostics(GaugeDiagnosticsConfig())
    # each random family's generator draws its density, microgrid density,
    # microgrid unitary and transport families in two calls each
    assert len(generators) == 107
    assert all(g.calls == {"normal": 4, "random": 4} for g in generators[1:101])
    draws = sum((g.calls for g in generators), Counter())
    assert draws == {"normal": 412, "random": 404, "uniform": 6}
    # every stage runs once over the 101 families: one eigensolve purifies
    # the stack and starts its track, and one covariant integrand gives its
    # action and charge residuals; the three refinement levels track one
    # family each
    assert calls == {"action_and_charge_residual": 1, "gauge_charge_residual": 0,
                     "covariant_derivative": 2, "action_functional": 2,
                     "track_hermitian_family": 4, "action_functional_in_gauge": 0,
                     "_covariant_derivatives": 5, "covariant_derivatives_formed": 5839,
                     "eigh_of_the_stack": 1}


def test_crossing_defaults_cost_what_the_readme_says(monkeypatch):
    """The README's ``crossing_scan`` section states these counts: every
    per-point stage runs once over all 401 points, and the weights once per
    policy."""
    calls, count = call_counter(monkeypatch)
    count(harness, "evolution_step")
    count(harness, "evolution_step", key="substeps", size=len)
    for name in ("midpoint_schedule", "propagate", "derivative_overlaps",
                 "second_derivative_overlaps", "compute_weights"):
        count(harness, name)
    count(truncation, "charge_first_order")
    count(truncation, "charge_second_order")
    run_crossing_scan(CrossingScanConfig())
    assert calls == {"evolution_step": 1, "substeps": 4002, "midpoint_schedule": 1,
                     "propagate": 1, "derivative_overlaps": 1,
                     "second_derivative_overlaps": 1, "charge_first_order": 1,
                     "charge_second_order": 1, "compute_weights": 4}


def test_tracks_reorder_once_per_grid_step_at_most(monkeypatch):
    """The default crossing grid never reorders; the default gauge stack
    takes one stacked assignment per grid step at most, however many of its
    101 families reorder there."""
    calls, count = call_counter(monkeypatch)
    count(spectral, "max_overlap_permutation")
    run_crossing_scan(CrossingScanConfig())
    assert calls == {"max_overlap_permutation": 0}
    cfg = GaugeDiagnosticsConfig()
    run_gauge_diagnostics(cfg)
    assert 0 < calls["max_overlap_permutation"] <= cfg.family_points - 1


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
    """The test-size reports hash as pinned.

    Same-process determinism is tested below; these pins catch a change
    that moves a digit of the gauge layer or the crossing scan at roundoff.
    They were recorded with numpy 2.4 and its bundled OpenBLAS, at 1 and 2
    BLAS threads; another LAPACK build may round differently.
    """
    assert report_digests(gauge_report) == (
        "ff82127cb43a032d64169822a3c200e55eb0404131e7de7e46688cb3864f62fa",
        "243e93c67977d2ac8a93e92f16f1170518e52f471e0d12c78d42837aa40ca979")
    assert report_digests(crossing_report[0]) == (
        "8656f7c9c7ec5ee0ac172c10589987c7f8820560e597a1f4e5c515641719e61d",
        "2340cd3b53124e66d7314c71849caccc7deef80528ef0803d83ca3fad901d2a0")


def test_default_crossing_report_keeps_its_bytes():
    """The default crossing scan, 401 points and 4000 time steps, where the
    pin above runs a 41-point grid.  Recorded with numpy 2.4 and its bundled
    OpenBLAS, at 1 and 2 BLAS threads."""
    assert report_digests(run_crossing_scan(CrossingScanConfig())) == (
        "905b1b47e74a485cf93f2b5dab05ecfd7289b458b9d00fc67458ec50aa058b1e",
        "099f4ae90849b6bff9d68f9fd1f3ef4d66c72379150ee69c62a251e63cd091aa")


@pytest.mark.parametrize("overrides, digests", [
    ({}, ("55e06ad3a614ee5ae93c0dee2530e63611f63b5b17ef0d090521e71e7e883636",
          "fc79b405041ea0845013fb2356e368db074e4e74a34ec519cab1530499458d86")),
    ({"n_families": 7, "family_dim": 2, "family_points": 9},
     ("6ec0af9aae4d8d1c4e0bd818c7c35ca072143d8d00b942a0663c299ba6aacfe4",
      "6acdfe5215235a1285cb2425ff1ffe980fe3550fdf4a00fe61665b6f7caaed27")),
    ({"n_families": 7, "family_dim": 4, "family_points": 9},
     ("70c0bb321bc632d1b7adad805dcc4792bf19dfa310ab4d4c8a6a72c5618cb79a",
      "90f24341b9ae719c451ac376135e8376582d33bce3d2d4035b9be78f6089b596")),
    ({"n_families": 7, "family_dim": 4},
     ("42c043bd21f696a4d830e84aa1df03813d5aa5cc6c0648bd98a32b2e7a37ec6d",
      "ffa2130c1d077d921fba7dbc7de56805183049cba5ebad85b5bd40a16c02e542")),
], ids=["defaults", "dim2-points9", "dim4-points9", "dim4"])
def test_seed_5_gauge_reports_keep_their_bytes(overrides, digests):
    """Seed 5 (the benchmark's) at shapes the default pins leave out.

    Recorded with numpy 2.4 and its bundled OpenBLAS, at 1 and 2 BLAS
    threads.
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
