"""Command-line entry point: config parsing, validation, dispatch, manifests.

Configs are JSON objects with an ``experiment`` key selecting the kind and
per-kind keys documented in the README.  The type each key must have is read
from the field annotations of :class:`~udmrg.harness.ExperimentConfig`.
Validation is all-or-nothing and itemized: every unknown key, bad type, and
broken invariant is reported in one pass, and nothing is written on
validation failure.

Exit codes: 0 success; 1 configuration/validation failure (no outputs); 2
numerical failure — flagged non-convergence still writes all outputs, hard
numerical errors report to stderr.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import typing
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Optional

from numpy.linalg import LinAlgError

from ._version import __version__
from .harness import (
    EXPERIMENT_KINDS,
    TABLE_METHOD_KINDS,
    ExperimentConfig,
    run_experiment,
)
from .reporting import ScanReport, sha256_file, write_json, write_report_csv
from .truncation import TruncationPolicy

_COMMON_KEYS = {"experiment", "seed"}

_KIND_KEYS: dict[str, set[str]] = {
    "crossing_scan": {
        "coupling", "lambda_min", "lambda_max", "n_points", "sweep_rate",
        "time_steps", "policies",
    },
    "pec_comparison": {
        "spin_model", "n_sites", "coupling_j", "field_min", "field_max",
        "n_fields", "crossing_center", "crossing_window", "max_bond",
        "num_sweeps", "energy_tol", "grid_search", "objective", "policies",
        "gamma1_grid", "gamma2_grid", "lambda1_grid", "lambda2_grid",
    },
    "dmrg_benchmark": {
        "spin_model", "coupling_j", "benchmark_sizes", "benchmark_fields",
        "benchmark_bond", "benchmark_sweeps", "benchmark_tol",
    },
    "gauge_diagnostics": {
        "n_families", "family_dim", "family_points", "microgrid_spacing",
        "refine_time_sizes", "refine_plane_sizes",
    },
}

#: value type of every config key, read from the ExperimentConfig annotations
_KEY_TYPES: dict[str, Any] = typing.get_type_hints(ExperimentConfig)

#: the policy kinds pec_comparison takes from ``policies`` (standard is fixed)
_PEC_POLICY_KINDS = tuple(k for k in TABLE_METHOD_KINDS if k != "standard")

_POLICY_KEYS = {"kind", "gamma1", "gamma2", "lambda1", "lambda2", "max_kept",
                "cutoff"}

_CONFIG_ERROR_PREFIX = "invalid experiment configuration:\n  - "


class ConfigError(Exception):
    """Itemized configuration problems; nothing was accepted."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("configuration invalid:\n  - " + "\n  - ".join(problems))


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    return _is_int(value) or isinstance(value, float)


#: scalar config types: the check a value must pass and what the error demands
_SCALAR_CHECKS = {
    int: (_is_int, "an integer"),
    float: (_is_number, "a number"),
    bool: (lambda v: isinstance(v, bool), "true or false"),
    str: (lambda v: isinstance(v, str), "a string"),
}


def _check_scalar(key: str, value: Any, errors: list[str]) -> Any:
    hint = _KEY_TYPES[key]
    if hint in _SCALAR_CHECKS:
        ok, demand = _SCALAR_CHECKS[hint]
        if not ok(value):
            errors.append(f"key {key!r} must be {demand}, got {value!r}")
            return None
        return float(value) if hint is float else value
    # the list keys are annotated tuple[int, ...] or tuple[float, ...]
    want_int = typing.get_args(hint)[0] is int
    ok = _is_int if want_int else _is_number
    if not isinstance(value, list) or not value or not all(ok(v) for v in value):
        kind = "integers" if want_int else "numbers"
        errors.append(f"key {key!r} must be a non-empty list of {kind}")
        return None
    return tuple(value if want_int else [float(v) for v in value])


def _parse_policies(raw: Any, errors: list[str]) -> Optional[list[TruncationPolicy]]:
    if not isinstance(raw, list):
        errors.append("key 'policies' must be a list of policy objects")
        return None
    policies = []
    ok = True
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            errors.append(f"policies[{i}] must be an object")
            ok = False
            continue
        unknown = sorted(set(entry) - _POLICY_KEYS)
        for key in unknown:
            errors.append(f"policies[{i}] has unknown key {key!r}")
        if unknown:
            ok = False
            continue
        if "kind" not in entry or not isinstance(entry["kind"], str):
            errors.append(f"policies[{i}] needs a string 'kind'")
            ok = False
            continue
        kwargs: dict[str, Any] = {"kind": entry["kind"]}
        bad = False
        for key in ("gamma1", "gamma2", "lambda1", "lambda2", "cutoff"):
            if key in entry:
                if not _is_number(entry[key]):
                    errors.append(f"policies[{i}].{key} must be a number")
                    bad = True
                else:
                    kwargs[key] = float(entry[key])
        if "max_kept" in entry:
            if not _is_int(entry["max_kept"]):
                errors.append(f"policies[{i}].max_kept must be an integer")
                bad = True
            else:
                kwargs["max_kept"] = entry["max_kept"]
        if bad:
            ok = False
            continue
        try:
            policies.append(TruncationPolicy(**kwargs))
        except ValueError as exc:
            errors.append(f"policies[{i}]: {exc}")
            ok = False
    return policies if ok else None


def _pec_policy_problems(policies: list[TruncationPolicy], grid_search: bool) -> list[str]:
    """Explicit pec_comparison policies that the run would silently ignore."""
    if grid_search:
        return ["pec_comparison ignores 'policies' when grid_search is true; "
                "set grid_search to false or drop 'policies'"]
    problems = []
    seen: set[str] = set()
    for i, pol in enumerate(policies):
        if pol.kind not in _PEC_POLICY_KINDS:
            problems.append(
                f"policies[{i}]: pec_comparison never runs a {pol.kind!r} policy; "
                f"expected one of {', '.join(_PEC_POLICY_KINDS)}")
        elif pol.kind in seen:
            problems.append(
                f"policies[{i}]: kind {pol.kind!r} repeats; pec_comparison runs "
                "one policy per kind")
        seen.add(pol.kind)
    return problems


def parse_config_data(data: Any) -> ExperimentConfig:
    """Validate a decoded JSON object into an ExperimentConfig."""
    errors: list[str] = []
    if not isinstance(data, dict):
        raise ConfigError(["config root must be a JSON object"])
    if "experiment" not in data:
        raise ConfigError(["missing required key 'experiment'"])
    kind = data["experiment"]
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError([
            f"unknown experiment {kind!r}; expected one of "
            f"{', '.join(EXPERIMENT_KINDS)}"
        ])
    allowed = _COMMON_KEYS | _KIND_KEYS[kind]
    for key in sorted(set(data) - allowed):
        errors.append(f"unknown key {key!r} for experiment {kind}")

    kwargs: dict[str, Any] = {"kind": kind}
    for key, value in data.items():
        if key == "experiment" or key not in allowed:
            continue
        if key == "policies":
            policies = _parse_policies(value, errors)
            if policies is not None:
                kwargs["policies"] = policies
        else:
            parsed = _check_scalar(key, value, errors)
            if parsed is not None:
                kwargs[key] = parsed
    if kind == "pec_comparison" and "policies" in kwargs and (
            "grid_search" in kwargs or "grid_search" not in data):
        errors += _pec_policy_problems(
            kwargs["policies"], kwargs.get("grid_search", ExperimentConfig.grid_search))
    if errors:
        raise ConfigError(errors)
    try:
        return ExperimentConfig(**kwargs)
    except ValueError as exc:
        message = str(exc)
        if message.startswith(_CONFIG_ERROR_PREFIX):
            raise ConfigError(
                message[len(_CONFIG_ERROR_PREFIX):].split("\n  - ")) from None
        raise ConfigError([message]) from None


def parse_config(path: Path) -> ExperimentConfig:
    """Read, decode, and fully validate a JSON config file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError([f"cannot read config file {path}: {exc}"]) from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config file {path} is not valid JSON: {exc}"]) from None
    return parse_config_data(data)


def _write_report(report: ScanReport, out_dir: Path) -> list[Path]:
    written = []
    written.append(write_report_csv(report, out_dir / f"{report.name}.csv"))
    written.append(write_json(report.summary_payload(),
                              out_dir / f"{report.name}_summary.json"))
    for attachment in report.attachments:
        written.append(
            write_report_csv(attachment, out_dir / f"{attachment.name}.csv"))
    return written


def dispatch(cfg: ExperimentConfig, out_dir: Path,
             threads: Optional[int] = None) -> int:
    """Run one experiment, write outputs and the manifest, return exit status."""
    if threads is not None:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(threads)
    out_dir = Path(out_dir)
    started = datetime.now(timezone.utc).isoformat()
    report = run_experiment(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = _write_report(report, out_dir)
    flagged = int(report.summary.get("flagged", 0))
    status = 2 if flagged else 0
    manifest = {
        "config_hash": report.provenance["config_hash"],
        "tool_version": __version__,
        "experiment": cfg.kind,
        "started_utc": started,
        "finished_utc": datetime.now(timezone.utc).isoformat(),
        "threads": threads,
        "exit_status": status,
        "outputs": [
            {"path": p.name, "sha256": sha256_file(p)} for p in written
        ] + [{"path": "manifest.json", "sha256": None}],
    }
    write_json(manifest, out_dir / "manifest.json")
    for path in written:
        print(f"wrote {path}")
    print(f"wrote {out_dir / 'manifest.json'}")
    if flagged:
        print(f"{flagged} solve(s) did not converge; outputs are flagged",
              file=sys.stderr)
    return status


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="udmrg",
        description="Coherence-aware DMRG experiments and gauge diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run an experiment from a JSON config")
    run.add_argument("config", type=Path, help="path to the JSON config")
    run.add_argument("--out", type=Path, default=None,
                     help="output directory (default: runs/<experiment>)")
    run.add_argument("--threads", type=int, default=None,
                     help="BLAS thread cap; results do not depend on it")
    val = sub.add_parser("validate", help="validate a config without running")
    val.add_argument("config", type=Path, help="path to the JSON config")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if args.command == "validate":
        from .harness import config_payload
        from .reporting import config_hash

        print(f"configuration OK: {cfg.kind} "
              f"(hash {config_hash(config_payload(cfg))[:12]})")
        return 0
    if args.threads is not None and args.threads < 1:
        print("configuration invalid:\n  - --threads must be at least 1",
              file=sys.stderr)
        return 1
    out_dir = args.out if args.out is not None else Path("runs") / cfg.kind
    try:
        return dispatch(cfg, out_dir, threads=args.threads)
    except (ValueError, FloatingPointError, LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
