import dataclasses
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from numpy.linalg import LinAlgError

from udmrg import dmrg, harness, linalg
from udmrg.cli import (
    ConfigError,
    _bundled_openblas,
    dispatch,
    main,
    parse_config,
    parse_config_data,
)
from udmrg.harness import CONFIG_TYPES, config_payload
from udmrg.reporting import canonical_json, config_hash
from udmrg.truncation import TruncationPolicy


def write_config(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


GAUGE_TINY = {"experiment": "gauge_diagnostics", "seed": 3, "n_families": 1,
              "family_points": 9}


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_config_data_happy_path():
    cfg = parse_config_data(GAUGE_TINY)
    assert cfg.kind == "gauge_diagnostics"
    assert cfg.seed == 3
    assert cfg.n_families == 1


def test_parse_config_data_parses_policies():
    cfg = parse_config_data({
        "experiment": "crossing_scan",
        "policies": [{"kind": "standard"},
                     {"kind": "uhlmann", "gamma1": 0.3, "max_kept": 8}],
    })
    assert [p.kind for p in cfg.policies] == ["standard", "uhlmann"]
    assert cfg.policies[1].gamma1 == 0.3
    assert cfg.policies[1].max_kept == 8
    assert all(isinstance(p, TruncationPolicy) for p in cfg.policies)


def test_parse_config_data_rejects_structural_problems():
    with pytest.raises(ConfigError, match="root must be a JSON object"):
        parse_config_data(["not", "an", "object"])
    with pytest.raises(ConfigError, match="missing required key 'experiment'"):
        parse_config_data({"seed": 1})
    with pytest.raises(ConfigError, match="unknown experiment"):
        parse_config_data({"experiment": "warp_drive"})


def test_parse_config_data_rejects_keys_of_other_kinds():
    with pytest.raises(ConfigError) as exc:
        parse_config_data({"experiment": "gauge_diagnostics",
                           "n_points": 50, "max_bond": 8})
    assert "unknown key 'n_points' for experiment gauge_diagnostics" \
        in exc.value.problems
    assert "unknown key 'max_bond' for experiment gauge_diagnostics" \
        in exc.value.problems


def test_accepted_keys_are_the_config_type_fields():
    # every key some experiment takes, with a JSON form of its default value
    values = {}
    for config_type in CONFIG_TYPES.values():
        values.update(json.loads(json.dumps(dataclasses.asdict(config_type()))))
    for kind, config_type in CONFIG_TYPES.items():
        accepted = {"experiment"}
        for key, value in values.items():
            try:
                cfg = parse_config_data({"experiment": kind, key: value})
            except ConfigError as exc:
                assert exc.problems == [f"unknown key {key!r} for experiment {kind}"]
            else:
                assert type(cfg) is config_type
                accepted.add(key)
        assert accepted == {"experiment"} | {
            f.name for f in dataclasses.fields(config_type)}
    with pytest.raises(ConfigError, match="unknown key 'spin_model'"):
        parse_config_data({"experiment": "pec_comparison", "spin_model": "tfim"})


def test_config_error_is_the_harness_value_error():
    assert ConfigError is harness.ConfigError
    assert issubclass(ConfigError, ValueError)


def test_parse_config_data_itemizes_type_errors():
    with pytest.raises(ConfigError) as exc:
        parse_config_data({"experiment": "crossing_scan",
                           "n_points": "many", "coupling": "strong"})
    problems = "\n".join(exc.value.problems)
    assert "n_points must be an integer, got 'many'" in problems
    assert "coupling must be a number, got 'strong'" in problems


def test_structural_policy_and_value_problems_come_back_in_one_error():
    with pytest.raises(ConfigError) as exc:
        parse_config_data({"experiment": "crossing_scan", "speed": 3,
                           "n_points": "many",
                           "policies": [{"kind": "uhlmann", "gamma1": "big"}]})
    assert exc.value.problems == [
        "unknown key 'speed' for experiment crossing_scan",
        "policies[0]: gamma1 must be a real number, got 'big'",
        "n_points must be an integer, got 'many'",
    ]


def test_parse_config_data_rejects_bool_as_integer():
    with pytest.raises(ConfigError, match="must be an integer"):
        parse_config_data({"experiment": "crossing_scan", "n_points": True})


def test_parse_config_data_policy_errors():
    with pytest.raises(ConfigError, match="must be a list"):
        parse_config_data({"experiment": "crossing_scan", "policies": 3})
    with pytest.raises(ConfigError, match=r"policies\[0\] must be an object"):
        parse_config_data({"experiment": "crossing_scan", "policies": [1]})
    with pytest.raises(ConfigError, match="unknown key 'strength'"):
        parse_config_data({"experiment": "crossing_scan",
                           "policies": [{"kind": "standard", "strength": 2}]})
    with pytest.raises(ConfigError, match=r"policies\[0\]:"):
        parse_config_data({"experiment": "crossing_scan",
                           "policies": [{"kind": "uhlmann", "gamma1": -1.0}]})
    # pec_comparison would silently ignore these policies
    with pytest.raises(ConfigError, match="ignores 'policies' when grid_search is true"):
        parse_config_data({"experiment": "pec_comparison",
                           "policies": [{"kind": "uhlmann", "gamma1": 0.7}]})
    with pytest.raises(ConfigError) as exc:
        parse_config_data({"experiment": "pec_comparison", "grid_search": False,
                           "policies": [{"kind": "standard"},
                                        {"kind": "coherence_eigenvalue"}]})
    assert [p.split(":")[0] for p in exc.value.problems] == ["policies[0]", "policies[1]"]
    assert all("never runs" in p for p in exc.value.problems)
    with pytest.raises(ConfigError, match=r"policies\[1\]: kind 'uhlmann' repeats"):
        parse_config_data({"experiment": "pec_comparison", "grid_search": False,
                           "policies": [{"kind": "uhlmann", "gamma1": 0.7},
                                        {"kind": "uhlmann", "gamma1": 0.2}]})


def test_construction_problems_come_back_itemized():
    with pytest.raises(ConfigError) as exc:
        parse_config_data({"experiment": "crossing_scan", "n_points": 2,
                           "coupling": -0.5})
    assert "n_points must be at least 5" in exc.value.problems
    assert "coupling must be positive" in exc.value.problems


#: per kind, an integer for every real-valued field (and a policy with an
#: integer coefficient where the kind takes policies), all of them valid
INT_VALUED = {
    "crossing_scan": dict(coupling=1, lambda_min=-2, lambda_max=2, sweep_rate=1,
                          policies=[{"kind": "uhlmann", "gamma1": 1}]),
    "pec_comparison": dict(n_sites=4, grid_search=False, coupling_j=1, field_min=0,
                           field_max=2, crossing_center=1, crossing_window=1,
                           energy_tol=1, gamma1_grid=[0, 1], gamma2_grid=[0],
                           lambda1_grid=[0, 2], lambda2_grid=[0],
                           policies=[{"kind": "uhlmann", "gamma1": 1}]),
    "dmrg_benchmark": dict(coupling_j=1, benchmark_fields=[0, 1], benchmark_tol=1),
}


def _python_built(kind, settings):
    """The config type built from ``settings``, its policies as objects."""
    settings = dict(settings)
    if "policies" in settings:
        settings["policies"] = [TruncationPolicy(**p) for p in settings["policies"]]
    return CONFIG_TYPES[kind](**settings)


def test_python_and_json_configs_with_integer_reals_are_twins():
    for kind, settings in INT_VALUED.items():
        reals = {name for name, hint in harness.field_types(CONFIG_TYPES[kind]).items()
                 if hint in (float, tuple[float, ...])}
        assert reals <= set(settings)
        from_python = _python_built(kind, settings)
        from_json = parse_config_data(json.loads(json.dumps({"experiment": kind,
                                                             **settings})))
        assert from_python == from_json
        assert config_hash(config_payload(from_python)) == \
            config_hash(config_payload(from_json))
    # gauge_diagnostics' one real field takes no valid integer; both sides
    # reject one with the same problem
    problems = []
    for build in (lambda: harness.GaugeDiagnosticsConfig(microgrid_spacing=1),
                  lambda: parse_config_data({"experiment": "gauge_diagnostics",
                                             "microgrid_spacing": 1})):
        with pytest.raises(ConfigError) as exc:
            build()
        problems.append(exc.value.problems)
    assert problems[0] == problems[1] == ["microgrid_spacing must lie in (0, 1e-2]"]


def test_numpy_scalars_build_the_twin_of_a_json_config():
    """Config fields and policies take numpy scalars by one rule and store

    them as Python numbers, so the config hashes like its JSON twin."""
    from_python = harness.CrossingScanConfig(
        coupling=np.float32(0.5), n_points=np.int64(41),
        policies=[TruncationPolicy(kind="uhlmann", gamma1=np.float32(0.5),
                                   max_kept=np.int64(4))])
    assert type(from_python.coupling) is float and type(from_python.n_points) is int
    from_json = parse_config_data({
        "experiment": "crossing_scan", "coupling": 0.5, "n_points": 41,
        "policies": [{"kind": "uhlmann", "gamma1": 0.5, "max_kept": 4}]})
    assert from_python == from_json
    assert config_hash(config_payload(from_python)) == \
        config_hash(config_payload(from_json))
    sizes = harness.DmrgBenchmarkConfig(benchmark_sizes=[np.int64(6), 8]).benchmark_sizes
    assert sizes == (6, 8) and type(sizes[0]) is int


def test_python_and_json_built_reports_are_byte_identical():
    settings = dict(n_sites=4, grid_search=False,
                    policies=[{"kind": "uhlmann", "gamma1": 1}])
    from_python = harness.run_experiment(_python_built("pec_comparison", settings))
    from_json = harness.run_experiment(parse_config_data(
        {"experiment": "pec_comparison", **settings}))
    assert from_python.csv_bytes() == from_json.csv_bytes()
    assert canonical_json(from_python.summary_payload()) == \
        canonical_json(from_json.summary_payload())


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def test_json_built_pec_report_keeps_its_bytes():
    """A small JSON-built comparison with explicit policies hashes as pinned.

    Recorded with numpy 2.4 and its bundled OpenBLAS, at 1 and 2 BLAS
    threads; another LAPACK build may round differently.
    """
    cfg = parse_config_data({
        "experiment": "pec_comparison", "n_sites": 4, "n_fields": 9,
        "max_bond": 2, "grid_search": False,
        "policies": [{"kind": "uhlmann", "gamma1": 0.7},
                     {"kind": "categorified", "gamma1": 0.4, "gamma2": 0.3},
                     {"kind": "coherence_eigenvalue_2", "lambda1": 0.5,
                      "lambda2": 0.2}]})
    report = harness.run_experiment(cfg)
    assert _sha(report.csv_bytes()) == \
        "ac88b3785f8ea9d37d8a62029c3b151e8ed62a7498a1cdf362a161a5aad79b22"
    assert _sha(canonical_json(report.summary_payload())) == \
        "cf274fd99e270d0d7c13ff4809c7512982d4fc693cb3c82a17e718c1cf00946b"
    points = {a.name.removeprefix("pec_comparison_points_"): _sha(a.csv_bytes())
              for a in report.attachments
              if a.name.startswith("pec_comparison_points_")}
    same = "a32f6f0ce881c488cde0e2015f1187ef151d51f07c23421364304777131df425"
    assert points == {
        "standard": same, "uhlmann": same, "categorified": same,
        "higher_categorical":
            "af06d4ac5a507e70e65fed9a6ebb85ebf0dd6f6cbfe2b0d798ab1cf706ad8b33"}


def test_json_built_crossing_report_keeps_its_bytes():
    """A JSON crossing scan with integer-valued real keys hashes as pinned

    (numpy 2.4, bundled OpenBLAS, 1 and 2 BLAS threads)."""
    cfg = parse_config_data({
        "experiment": "crossing_scan", "n_points": 41, "time_steps": 200,
        "coupling": 1,
        "policies": [{"kind": "uhlmann", "gamma1": 0.5},
                     {"kind": "coherence_eigenvalue_2", "lambda1": 1,
                      "lambda2": 0.2}]})
    report = harness.run_experiment(cfg)
    assert _sha(report.csv_bytes()) == \
        "dbf641846275b70c6052d24ce52711ab3b77e5f9aec7b90f86997e943c1c8526"
    assert _sha(canonical_json(report.summary_payload())) == \
        "cdf2c621789d51c75e83a4b209b97d9345002a3ebfcb8b100482f39f5a854bac"


def test_parse_config_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config file"):
        parse_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config(bad)


# ---------------------------------------------------------------------------
# command-line surface
# ---------------------------------------------------------------------------

def test_validate_command_reports_kind_and_hash(tmp_path, capsys):
    path = write_config(tmp_path, "gauge.json", GAUGE_TINY)
    assert main(["validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("configuration OK: gauge_diagnostics (hash ")


def test_validate_command_rejects_bad_config(tmp_path, capsys):
    path = write_config(tmp_path, "bad.json",
                        {"experiment": "crossing_scan", "n_points": 2})
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert "configuration invalid" in err
    assert "n_points must be at least 5" in err


def test_run_writes_reports_and_verifiable_manifest(tmp_path, capsys):
    path = write_config(tmp_path, "gauge.json", GAUGE_TINY)
    out_dir = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out_dir)]) == 0

    csv_path = out_dir / "gauge_diagnostics.csv"
    summary_path = out_dir / "gauge_diagnostics_summary.json"
    manifest_path = out_dir / "manifest.json"
    assert csv_path.is_file() and summary_path.is_file()
    assert manifest_path.is_file()

    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    assert manifest["experiment"] == "gauge_diagnostics"
    assert manifest["exit_status"] == 0
    names = {entry["path"] for entry in manifest["outputs"]}
    assert names == {"gauge_diagnostics.csv", "gauge_diagnostics_summary.json",
                     "manifest.json"}
    for entry in manifest["outputs"]:
        if entry["path"] == "manifest.json":
            assert entry["sha256"] is None
            continue
        digest = hashlib.sha256((out_dir / entry["path"]).read_bytes())
        assert entry["sha256"] == digest.hexdigest()

    stdout = capsys.readouterr().out
    assert stdout.count("wrote ") == 3


def test_rerun_is_byte_identical_outside_the_manifest(tmp_path):
    path = write_config(tmp_path, "gauge.json", GAUGE_TINY)
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert main(["run", str(path), "--out", str(first)]) == 0
    assert main(["run", str(path), "--out", str(second)]) == 0
    for name in ("gauge_diagnostics.csv", "gauge_diagnostics_summary.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def _snapshot(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def _assert_matches_its_manifest(out_dir):
    manifest = json.loads((out_dir / "manifest.json").read_text("utf-8"))
    listed = {entry["path"] for entry in manifest["outputs"]}
    assert listed == {p.name for p in out_dir.iterdir()}
    for entry in manifest["outputs"]:
        if entry["path"] != "manifest.json":
            digest = hashlib.sha256((out_dir / entry["path"]).read_bytes())
            assert entry["sha256"] == digest.hexdigest()


def test_interrupted_rerun_keeps_the_previous_run_whole(tmp_path, monkeypatch):
    out_dir = tmp_path / "out"
    assert dispatch(parse_config_data(GAUGE_TINY), out_dir) == 0
    previous = _snapshot(out_dir)

    def fail(payload, path):
        raise OSError("disk full")

    monkeypatch.setattr("udmrg.cli.write_json", fail)
    with pytest.raises(OSError, match="disk full"):
        dispatch(parse_config_data(dict(GAUGE_TINY, seed=4)), out_dir)
    # exactly the previous complete run, and no temporary sibling
    assert _snapshot(out_dir) == previous
    _assert_matches_its_manifest(out_dir)
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_failed_swap_puts_the_previous_run_back(tmp_path, monkeypatch):
    out_dir = tmp_path / "out"
    assert dispatch(parse_config_data(GAUGE_TINY), out_dir) == 0
    previous = _snapshot(out_dir)
    rename = pathlib.Path.rename

    def fail_on_new(self, target):
        if self.name == "new":
            raise OSError("rename failed")
        return rename(self, target)

    monkeypatch.setattr(pathlib.Path, "rename", fail_on_new)
    with pytest.raises(OSError, match="rename failed"):
        dispatch(parse_config_data(dict(GAUGE_TINY, seed=4)), out_dir)
    assert _snapshot(out_dir) == previous
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_rerun_replaces_the_whole_output_directory(tmp_path):
    out_dir = tmp_path / "out"
    assert dispatch(parse_config_data(GAUGE_TINY), out_dir) == 0
    (out_dir / "left_over.csv").write_text("stale\n", encoding="utf-8")
    assert dispatch(parse_config_data(dict(GAUGE_TINY, seed=4)), out_dir) == 0
    assert not (out_dir / "left_over.csv").exists()
    _assert_matches_its_manifest(out_dir)
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_dispatch_refuses_a_directory_without_a_manifest(tmp_path, monkeypatch):
    out_dir = tmp_path / "mine"
    out_dir.mkdir()
    (out_dir / "notes.txt").write_text("keep me\n", encoding="utf-8")

    def never(cfg):
        raise AssertionError("the experiment must not run")

    monkeypatch.setattr("udmrg.cli.run_experiment", never)
    with pytest.raises(ConfigError, match="holds no run manifest"):
        dispatch(parse_config_data(GAUGE_TINY), out_dir)
    assert _snapshot(out_dir) == {"notes.txt": b"keep me\n"}
    assert [p.name for p in tmp_path.iterdir()] == ["mine"]


def test_flagged_run_exits_2_but_still_writes(tmp_path, capsys):
    config = {"experiment": "dmrg_benchmark", "benchmark_sizes": [4],
              "benchmark_fields": [1.0], "benchmark_bond": 16,
              "benchmark_sweeps": 1, "benchmark_tol": 1e-15}
    path = write_config(tmp_path, "bench.json", config)
    out_dir = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert "did not converge" in captured.err
    assert (out_dir / "dmrg_benchmark.csv").is_file()
    manifest = json.loads((out_dir / "manifest.json").read_text("utf-8"))
    assert manifest["exit_status"] == 2


def test_runtime_failure_exits_2_without_outputs(tmp_path, capsys, monkeypatch):
    # the config validates cleanly; the run itself hits a hard numerical error
    def fail(cfg):
        raise LinAlgError("eigensolver did not converge")

    monkeypatch.setattr("udmrg.cli.run_experiment", fail)
    path = write_config(tmp_path, "gauge.json", GAUGE_TINY)
    out_dir = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out_dir)]) == 2
    assert "numerical failure" in capsys.readouterr().err
    assert not out_dir.exists()


def test_bad_config_exits_1_without_outputs(tmp_path, capsys):
    path = write_config(tmp_path, "bad.json",
                        {"experiment": "gauge_diagnostics", "n_families": 0})
    out_dir = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out_dir)]) == 1
    assert "configuration invalid" in capsys.readouterr().err
    assert not out_dir.exists()


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("config, problem", [
    ({"experiment": "pec_comparison", "n_sites": 4, "grid_search": False,
      "coupling_j": NAN}, "coupling_j must be finite"),
    ({"experiment": "dmrg_benchmark", "benchmark_fields": [INF]},
     "benchmark_fields must be finite"),
    ({"experiment": "dmrg_benchmark", "coupling_j": NAN}, "coupling_j must be finite"),
    ({"experiment": "crossing_scan", "coupling": INF}, "coupling must be finite"),
    ({"experiment": "crossing_scan", "lambda_max": INF}, "lambda_max must be finite"),
])
def test_non_finite_numbers_exit_1_without_outputs(tmp_path, capsys, config, problem):
    # Python's json reads NaN and Infinity; validation must catch them
    path = write_config(tmp_path, "bad.json", config)
    assert "NaN" in path.read_text() or "Infinity" in path.read_text()
    assert main(["validate", str(path)]) == 1
    out_dir = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.count("configuration invalid") == 2
    assert err.count(f"  - {problem}\n") == 2
    assert not out_dir.exists()
    assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]


def test_thread_count_must_be_positive(tmp_path, capsys):
    path = write_config(tmp_path, "gauge.json", GAUGE_TINY)
    out_dir = tmp_path / "out"
    rc = main(["run", str(path), "--out", str(out_dir), "--threads", "0"])
    assert rc == 1
    assert "--threads must be at least 1" in capsys.readouterr().err
    assert not out_dir.exists()


def test_dispatch_refuses_threads_below_one_before_running(tmp_path, monkeypatch):
    def never(cfg):
        raise AssertionError("the experiment must not run")

    monkeypatch.setattr("udmrg.cli.run_experiment", never)
    out_dir = tmp_path / "out"
    for threads in (0, -2):
        with pytest.raises(ConfigError, match="--threads must be at least 1"):
            dispatch(parse_config_data(GAUGE_TINY), out_dir, threads=threads)
    assert not out_dir.exists()
    assert list(tmp_path.iterdir()) == []


def test_threads_caps_the_bundled_blas_and_the_manifest_reads_it_back(tmp_path):
    libs = _bundled_openblas()
    if not libs:
        pytest.skip("numpy bundles no OpenBLAS here")
    before = {name: get() for name, get, _ in libs}
    path = write_config(tmp_path, "gauge.json", GAUGE_TINY)
    out_dir = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out_dir), "--threads", "1"]) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text("utf-8"))
    assert manifest["threads"] == 1
    assert manifest["blas_threads"] == {name: 1 for name in before}
    # the cap holds for the run only
    assert {name: get() for name, get, _ in libs} == before
    assert main(["run", str(path), "--out", str(tmp_path / "free")]) == 0
    manifest = json.loads((tmp_path / "free" / "manifest.json").read_text("utf-8"))
    assert manifest["threads"] is None
    assert manifest["blas_threads"] == before


def test_the_cli_loads_and_validates_without_scipy():
    """scipy is a test dependency only: a fresh interpreter that imports the

    CLI, validates every experiment's default config and looks up the BLAS
    thread calls has not imported it."""
    src = pathlib.Path(harness.__file__).resolve().parent.parent
    code = ("import sys\n"
            "from udmrg import cli\n"
            "from udmrg.harness import EXPERIMENT_KINDS\n"
            "for kind in EXPERIMENT_KINDS:\n"
            "    cli.parse_config_data({'experiment': kind})\n"
            "cli._bundled_openblas()\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"


def test_an_unconverged_lanczos_solve_exits_2_with_outputs(tmp_path, monkeypatch, capsys):
    lanczos = linalg.lanczos_lowest

    def one_cycle(matvec, start):
        with monkeypatch.context() as m:
            m.setattr(linalg, "LANCZOS_RESTARTS", 1)
            return lanczos(matvec, start)

    # only the DMRG local solve runs out of cycles; the exact oracle does not
    monkeypatch.setattr(dmrg, "lanczos_lowest", one_cycle)
    path = write_config(tmp_path, "bench.json", {
        "experiment": "dmrg_benchmark", "benchmark_sizes": [8],
        "benchmark_fields": [1.0], "benchmark_bond": 16})
    out_dir = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out_dir)]) == 2
    assert "1 solve(s) did not converge" in capsys.readouterr().err
    summary = json.loads((out_dir / "dmrg_benchmark_summary.json").read_text("utf-8"))
    assert summary["summary"]["flagged"] == 1
    assert json.loads((out_dir / "manifest.json").read_text("utf-8"))["exit_status"] == 2


def test_an_unconverged_exact_ground_state_exits_2_without_outputs(tmp_path, monkeypatch,
                                                                     capsys):
    """The exact oracle shares ``LANCZOS_RESTARTS`` with the local solve: an

    8-site chain needs more than one cycle of it, and running out stops the
    run as a numerical failure that names the chain."""
    monkeypatch.setattr(linalg, "LANCZOS_RESTARTS", 1)
    path = write_config(tmp_path, "bench.json", {
        "experiment": "dmrg_benchmark", "benchmark_sizes": [8],
        "benchmark_fields": [1.0], "benchmark_bond": 16})
    out_dir = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err == (
        "numerical failure: exact ground state of the 8-site tfim chain "
        "(J=1.0, h=1.0) did not converge in 1 Lanczos cycles\n")
    assert [p.name for p in tmp_path.iterdir()] == ["bench.json"]
