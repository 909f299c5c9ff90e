import hashlib
import json

import pytest
from numpy.linalg import LinAlgError

from udmrg.cli import ConfigError, main, parse_config, parse_config_data
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


def test_parse_config_data_itemizes_type_errors():
    with pytest.raises(ConfigError) as exc:
        parse_config_data({"experiment": "crossing_scan",
                           "n_points": "many", "coupling": "strong"})
    problems = "\n".join(exc.value.problems)
    assert "'n_points' must be an integer" in problems
    assert "'coupling' must be a number" in problems


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


def test_thread_count_must_be_positive(tmp_path, capsys):
    path = write_config(tmp_path, "gauge.json", GAUGE_TINY)
    out_dir = tmp_path / "out"
    rc = main(["run", str(path), "--out", str(out_dir), "--threads", "0"])
    assert rc == 1
    assert "--threads must be at least 1" in capsys.readouterr().err
    assert not out_dir.exists()
