"""Command-line entry point: config parsing, validation, dispatch, manifests.

Configs are JSON objects with an ``experiment`` key selecting the kind.  The
other keys a config may carry are the fields of that kind's configuration
type in :data:`~udmrg.harness.CONFIG_TYPES`, and policy objects take the
fields of :class:`~udmrg.truncation.TruncationPolicy`.  This module checks
only that structure; the configuration types themselves check and normalize
every value, for a JSON config as for one built in Python.  Validation is
all-or-nothing and itemized: the structural problems and those the config
type reports come back in one :class:`ConfigError`, and nothing is written
on validation failure.

Exit codes: 0 success; 1 configuration/validation failure (no outputs); 2
numerical failure — flagged non-convergence still writes all outputs, hard
numerical errors report to stderr.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import shutil
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Iterator, Optional

from numpy.linalg import LinAlgError

from ._version import __version__
from .harness import (
    CONFIG_TYPES,
    EXPERIMENT_KINDS,
    ConfigError,
    ExperimentConfig,
    field_types,
    run_experiment,
)
from .reporting import ScanReport, sha256_file, write_json, write_report_csv
from .truncation import TruncationPolicy


def _build_policies(kwargs: dict[str, Any], errors: list[str]) -> None:
    """Build the decoded policy objects in ``kwargs['policies']`` in place.

    A value that is not a list is left for the config type to reject.  If
    any entry fails, its problems go to ``errors`` and the key is dropped, so
    the config type still checks every other key.
    """
    raw = kwargs.get("policies")
    if not isinstance(raw, list):
        return
    keys = {f.name for f in dataclasses.fields(TruncationPolicy)}
    policies = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            errors.append(f"policies[{i}] must be an object")
        elif set(entry) - keys:
            errors += [f"policies[{i}] has unknown key {key!r}"
                       for key in sorted(set(entry) - keys)]
        elif not isinstance(entry.get("kind"), str):
            errors.append(f"policies[{i}] needs a string 'kind'")
        else:
            try:
                policies.append(TruncationPolicy(**entry))
            except ValueError as exc:
                errors.append(f"policies[{i}]: {exc}")
    if len(policies) == len(raw):
        kwargs["policies"] = policies
    else:
        del kwargs["policies"]


def parse_config_data(data: Any) -> ExperimentConfig:
    """Validate a decoded JSON object into its experiment's config type.

    The CLI checks only the structure: the root, ``experiment``, unknown
    keys, and the policy objects.  Every value goes to the config type as
    decoded, and its problems join the structural ones in one
    :class:`ConfigError`.  A ``dmrg_benchmark`` of the ``heisenberg`` chain
    that omits ``benchmark_fields`` gets the one field 0, since that chain
    has no field; the config type's default stays the TFIM's.
    """
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
    config_type = CONFIG_TYPES[kind]
    fields = field_types(config_type)
    errors = [f"unknown key {key!r} for experiment {kind}"
              for key in sorted(set(data) - set(fields) - {"experiment"})]
    kwargs = {key: value for key, value in data.items() if key in fields}
    if kind == "dmrg_benchmark" and data.get("spin_model") == "heisenberg":
        kwargs.setdefault("benchmark_fields", (0.0,))
    _build_policies(kwargs, errors)
    try:
        config = config_type(**kwargs)
    except ConfigError as exc:
        errors += exc.problems
    if errors:
        raise ConfigError(errors)
    return config


def parse_config(path: Path) -> ExperimentConfig:
    """Read, decode, and fully validate a JSON config file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
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


@functools.lru_cache(maxsize=None)
def _bundled_openblas() -> tuple[tuple[str, Any, Any], ...]:
    """``(package, get, set)`` thread calls of numpy's own OpenBLAS.

    numpy loads its OpenBLAS, and starts its thread pool, at import; the
    ``*_NUM_THREADS`` variables are read only then.  A running process
    changes the pool size through the library's own setter.  The bundled
    library's file name, ``lib<prefix>openblas[64_]...``, carries the
    prefix and suffix of its symbols.  A numpy built against another BLAS
    contributes nothing.
    """
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    paths = sorted(libs.glob("lib*openblas*.so"))
    if not paths:
        return ()
    name = paths[0].name
    prefix = name[len("lib"):name.index("openblas")]
    suffix = "64_" if "openblas64_" in name else ""
    lib = ctypes.CDLL(str(paths[0]))
    get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
    get.argtypes, get.restype = [], ctypes.c_int
    put = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}")
    put.argtypes, put.restype = [ctypes.c_int], None
    return (("numpy", get, put),)


@contextlib.contextmanager
def _blas_threads(threads: Optional[int]) -> Iterator[dict[str, int]]:
    """Cap the bundled OpenBLAS pools at ``threads`` for the ``with`` block.

    Yields the thread count each library reports back, keyed by package;
    ``None`` leaves the pools alone and only reads them.  The previous
    counts are restored on exit.
    """
    libs = _bundled_openblas()
    before = [get() for _, get, _ in libs]
    if threads is not None:
        for _, _, put in libs:
            put(threads)
    try:
        yield {name: get() for name, get, _ in libs}
    finally:
        if threads is not None:
            for (_, _, put), count in zip(libs, before):
                put(count)


def _replaceable(out_dir: Path) -> bool:
    """Whether ``out_dir`` is absent, empty, or an earlier run's output."""
    if not out_dir.exists():
        return True
    return out_dir.is_dir() and (
        (out_dir / "manifest.json").is_file() or not any(out_dir.iterdir()))


def _swap_in(staged: Path, out_dir: Path, aside: Path) -> None:
    """Rename ``staged`` to ``out_dir``, moving an existing one to ``aside``.

    If the final rename fails, the earlier ``out_dir`` is moved back.
    """
    if out_dir.exists():
        out_dir.rename(aside)
    try:
        staged.rename(out_dir)
    except BaseException:
        if aside.exists():
            aside.rename(out_dir)
        raise


def dispatch(cfg: ExperimentConfig, out_dir: Path,
             threads: Optional[int] = None) -> int:
    """Run one experiment, write outputs and the manifest, return exit status.

    ``threads`` caps the BLAS thread pools for the run; the manifest records
    the cap and the count each bundled OpenBLAS reports back.  The outputs
    are written into a temporary sibling of ``out_dir`` that is then renamed
    into place, so ``out_dir`` holds either the earlier run or this one in
    full.  An existing ``out_dir`` is replaced as a whole, so it must be
    empty or hold an earlier run's ``manifest.json``.  A bad ``threads`` or
    ``out_dir`` raises :class:`ConfigError` before anything runs.
    """
    out_dir = Path(out_dir)
    problems = []
    if threads is not None and threads < 1:
        problems.append("--threads must be at least 1")
    if not _replaceable(out_dir):
        problems.append(f"output directory {out_dir} exists and holds no run "
                        "manifest; remove it or choose another")
    if problems:
        raise ConfigError(problems)
    started = datetime.now(timezone.utc).isoformat()
    with _blas_threads(threads) as in_effect:
        report = run_experiment(cfg)
    flagged = int(report.summary.get("flagged", 0))
    status = 2 if flagged else 0
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f".{out_dir.name}.", dir=out_dir.parent))
    try:
        staged = work / "new"
        staged.mkdir()
        written = _write_report(report, staged)
        manifest = {
            "config_hash": report.provenance["config_hash"],
            "tool_version": __version__,
            "experiment": cfg.kind,
            "started_utc": started,
            "finished_utc": datetime.now(timezone.utc).isoformat(),
            "threads": threads,
            "blas_threads": in_effect,
            "exit_status": status,
            "outputs": [
                {"path": p.name, "sha256": sha256_file(p)} for p in written
            ] + [{"path": "manifest.json", "sha256": None}],
        }
        write_json(manifest, staged / "manifest.json")
        _swap_in(staged, out_dir, work / "old")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for entry in manifest["outputs"]:
        print(f"wrote {out_dir / entry['path']}")
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
    out_dir = args.out if args.out is not None else Path("runs") / cfg.kind
    try:
        return dispatch(cfg, out_dir, threads=args.threads)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (ValueError, FloatingPointError, LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
