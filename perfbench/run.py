"""udmrg benchmark: the four experiments end to end, plus outside-in layer tracing.

Usage::

    python3 perfbench/run.py --workload pec_search [--seed 7] [--seconds 25] [--trace 0]

Workloads (each one closed-loop caller, one process, BLAS pinned to 1 thread):

``pec_search``   ``pec_comparison`` at defaults (grid search on, 16 scans).
``chain_exact``  ``dmrg_benchmark`` at defaults (6/8/10 sites, chi=32).
``pec_oracle``   ``pec_comparison`` at 8 sites, grid search off (4 scans).
``gauge_suite``  ``gauge_diagnostics`` then ``crossing_scan``, at defaults.

``chain_exact`` is not declared in ``BENCHMARK.json``: one repetition takes
20-27 s, so a run can afford only one, and on a shared 2-core host its
run-to-run spread (IQR/median 0.13-0.27 over ten seeds) exceeds the largest
bound the benchmark may set.  It stays runnable by name for solver work.

Every repetition starts a fresh interpreter (``child.py``) that imports
udmrg from the checkout's ``src/``, validates the configs and calls
``udmrg.cli.dispatch``.  With ``--trace 0`` repetitions run until
``--seconds`` have passed (at least one) and the run reports the medians of
``run_vs_ref``, ``setup_s`` (interpreter launch through config validation)
and ``peak_rss_mb``.  With ``--trace 1`` it makes one untraced and one
traced repetition and reports the per-layer metrics of ``tracer.py``, the
untraced dispatch wall time ``run_s`` and the tracing overhead.

``run_vs_ref`` is the dispatch wall time of a repetition divided by the
median wall time of a fixed reference computation (``child.reference_work``,
which runs no udmrg code) timed in the same process four times before
dispatch, once a second during it (``child.ReferenceClock``, whose time is
taken out of the dispatch time) and four times after it.  The shared host
this benchmark was built on changes speed by up to 1.5x within minutes, and
the reference slows with the workloads: over five seeds the spread
(IQR/median) of the run medians was 0.137 in wall time and 0.044 as the
ratio on gauge_suite, and 0.046 either way on pec_search.  The wall time
``run_s`` and the reference time ``ref_s`` are printed and kept in the
result record; ``--trace 1`` reports ``run_s`` as a per-layer metric.

Each repetition is checked: dispatch exit status 0, the manifest's sha256
list matches the files, the acceptance tolerances of each experiment hold,
no solve is flagged, and both bundled OpenBLAS libraries read back 1 thread.
All repetitions of a run must give the same artifact digest.  A digest that
differs from ``digests.json`` is reported, not failed.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it list every
metric with its unit.  The full record, with the environment, goes to
``.perfbench/results/``.  Exit status: 0 when every check passed, 1 when a
check failed, 2 when the checkout holds no udmrg sources.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
STATE = ROOT / ".perfbench"
THREADS = 1
BLAS_ENV = {var: str(THREADS)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
#: set-up is sampled at least this often per run (extra launches stop after
#: validation), and reported as the median
SETUP_SAMPLES = 7
#: a run must finish within this many seconds of starting
RUN_BUDGET_S = 170.0

WORKLOADS: dict[str, Callable[[int], list[dict]]] = {
    "pec_search": lambda seed: [{"experiment": "pec_comparison", "seed": seed}],
    "chain_exact": lambda seed: [{"experiment": "dmrg_benchmark", "seed": seed}],
    "pec_oracle": lambda seed: [{"experiment": "pec_comparison", "seed": seed,
                                 "n_sites": 8, "grid_search": False}],
    "gauge_suite": lambda seed: [{"experiment": "gauge_diagnostics", "seed": seed},
                                 {"experiment": "crossing_scan", "seed": seed}],
}


# ---------------------------------------------------------------------------
# acceptance checks, at the README's tolerances
# ---------------------------------------------------------------------------

def _check_dmrg_benchmark(s: dict) -> list[str]:
    if s["within_tolerance"] is True and s["max_abs_error"] <= 1e-8:
        return []
    return [f"dmrg_benchmark max |dE| {s['max_abs_error']!r} exceeds 1e-8"]


def _check_pec_comparison(s: dict) -> list[str]:
    return [f"pec_comparison {label} improvement {m['improvement_pct']!r} < 0"
            for label, m in s["methods"].items()
            if m["kind"] != "standard" and not m["improvement_pct"] >= 0]


def _check_gauge_diagnostics(s: dict) -> list[str]:
    const = s["constant_family"]
    ratios = s["overlap_ratios"] + s["curvature_ratios"]
    checks = {
        "hermiticity <= 1e-10": s["max_hermiticity_residual"] <= 1e-10,
        "covariance <= 1e-8": s["max_covariance_residual"] <= 1e-8,
        "actions >= 0": s["min_covariant_action"] >= 0,
        "constant-family actions == 0": (const["action_covariant"] == 0
                                         and const["action_scalar_like"] == 0),
        "transport < 1e-8": s["max_transport_action"] < 1e-8,
        "refinement ratios 4 +- 20%": all(3.2 <= r <= 4.8 for r in ratios),
    }
    return [f"gauge_diagnostics {name} fails" for name, ok in checks.items() if not ok]


def _check_crossing_scan(s: dict) -> list[str]:
    if s["max_norm_drift"] <= 1e-10:
        return []
    return [f"crossing_scan norm drift {s['max_norm_drift']!r} exceeds 1e-10"]


CHECKS = {
    "dmrg_benchmark": _check_dmrg_benchmark,
    "pec_comparison": _check_pec_comparison,
    "gauge_diagnostics": _check_gauge_diagnostics,
    "crossing_scan": _check_crossing_scan,
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_outputs(out: Path, kinds: list[str]) -> tuple[str, list[str]]:
    """Artifact digest of one repetition and the problems its outputs show."""
    lines: list[str] = []
    problems: list[str] = []
    for i, kind in enumerate(kinds):
        run_dir = out / f"{i}_{kind}"
        manifest = json.loads((run_dir / "manifest.json").read_text())
        if manifest["exit_status"] != 0:
            problems.append(f"{kind} exit status {manifest['exit_status']}")
        for entry in manifest["outputs"]:
            if entry["sha256"] is None:
                continue
            if _sha256(run_dir / entry["path"]) != entry["sha256"]:
                problems.append(f"{kind}/{entry['path']} does not match its manifest digest")
            lines.append(f"{kind}/{entry['path']} {entry['sha256']}")
        summary = json.loads((run_dir / f"{kind}_summary.json").read_text())["summary"]
        if summary["flagged"] != 0:
            problems.append(f"{kind} flagged {summary['flagged']} solve(s)")
        problems += CHECKS[kind](summary)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest(), problems


# ---------------------------------------------------------------------------
# repetitions
# ---------------------------------------------------------------------------

class Run:
    """One benchmark invocation: launches children and collects samples."""

    def __init__(self, workload: str, seed: int):
        self.configs = WORKLOADS[workload](seed)
        self.kinds = [c["experiment"] for c in self.configs]
        self.started = time.monotonic()
        self.work = STATE / "work" / f"{workload}-{seed}-{os.getpid()}"
        self.reps: list[dict] = []
        self.setup_samples: list[float] = []
        self.problems: list[str] = []

    def launch(self, trace: bool, setup_only: bool) -> dict:
        request = {"configs": self.configs, "out": str(self.work),
                   "trace": trace, "setup_only": setup_only}
        timeout = max(1.0, RUN_BUDGET_S - (time.monotonic() - self.started))
        launched = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(CHILD), json.dumps(request)],
            env={**os.environ, **BLAS_ENV}, cwd=ROOT, capture_output=True,
            text=True, timeout=timeout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"child exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-2000:]}")
        sample = json.loads(lines[-1])
        sample["setup_s"] = sample["ready"] - launched
        return sample

    def setup_only(self) -> None:
        self.setup_samples.append(self.launch(trace=False, setup_only=True)["setup_s"])

    def repetition(self, trace: bool) -> dict:
        """Run the workload once; record the sample or the reason it failed."""
        shutil.rmtree(self.work, ignore_errors=True)
        rep: dict = {"trace": trace, "problems": []}
        try:
            sample = self.launch(trace=trace, setup_only=False)
            rep.update(sample)
            rep["run_vs_ref"] = sample["run_s"] / statistics.median(sample["ref_s"])
            if not trace:
                self.setup_samples.append(sample["setup_s"])
            for blas in sample["blas"]:
                if blas["threads"] != THREADS:
                    rep["problems"].append(
                        f"{blas['package']} OpenBLAS runs {blas['threads']} threads")
            if any(status != 0 for status in sample["statuses"]):
                rep["problems"].append(f"dispatch returned {sample['statuses']}")
            rep["digest"], problems = check_outputs(self.work, self.kinds)
            rep["problems"] += problems
        except (RuntimeError, OSError, ValueError, KeyError,
                subprocess.TimeoutExpired) as exc:
            rep["problems"].append(f"{type(exc).__name__}: {exc}")
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        self.reps.append(rep)
        return rep


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def _stats(values: list[float]) -> dict:
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _environment(seed: int) -> dict:
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"seed": seed, "nproc": os.cpu_count(), "cpu_model": cpu,
            "loadavg_1m": os.getloadavg()[0], "platform": platform.platform(),
            "blas_env": BLAS_ENV}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "udmrg" / "__init__.py").is_file():
        print(f"no udmrg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = _environment(args.seed)
    run = Run(args.workload, args.seed)
    try:
        # fill the bytecode and page caches before anything is timed
        run.launch(trace=False, setup_only=True)
        if args.trace:
            untraced = run.repetition(trace=False)
            traced = run.repetition(trace=True)
        else:
            measuring = time.monotonic()
            while True:
                rep = run.repetition(trace=False)
                if rep["problems"] or time.monotonic() - measuring >= args.seconds:
                    break
            while len(run.setup_samples) < SETUP_SAMPLES:
                run.setup_only()
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        run.problems.append(f"set-up launch failed: {exc}")

    run.problems += [problem for rep in run.reps for problem in rep["problems"]]
    digests = sorted({rep["digest"] for rep in run.reps if "digest" in rep})
    if len(digests) > 1:
        run.problems.append(f"repetitions disagree on the artifact digest: {digests}")
    good = [rep for rep in run.reps if not rep["problems"]]

    metrics: dict[str, float] = {}
    if args.trace:
        if len(good) == 2:
            metrics = dict(traced["layers"])
            metrics["run_s"] = untraced["run_s"]
            metrics["trace.run_s"] = traced["run_s"]
            metrics["trace.overhead_s"] = traced["run_s"] - untraced["run_s"]
            if not 0.95 <= metrics["trace.coverage"] <= 1.05:
                run.problems.append(
                    f"layer self times cover {metrics['trace.coverage']:.3f} "
                    "of the traced wall time, outside 1 +- 5%")
        wanted = declared["per_layer"]
    else:
        if good and run.setup_samples:
            stats = {
                "run_vs_ref": _stats([rep["run_vs_ref"] for rep in good]),
                "setup_s": _stats(run.setup_samples),
                "peak_rss_mb": _stats([rep["peak_rss_mb"] for rep in good]),
            }
            metrics = {name: s["median"] for name, s in stats.items()}
            stats["run_s"] = _stats([rep["run_s"] for rep in good])
            stats["ref_s"] = _stats([statistics.median(rep["ref_s"]) for rep in good])
        wanted = declared["end_to_end"]

    units = {m["name"]: m["unit"] for m in wanted}
    missing = [name for name in units if name not in metrics]
    if missing:
        run.problems.append(f"metrics not measured: {missing}")
    attempted = max(len(run.reps), 1)
    failed = attempted - len(good)

    reference = json.loads((HERE / "digests.json").read_text()).get(
        f"{args.workload}/{args.seed}/{THREADS}")
    digest = digests[0] if len(digests) == 1 else None
    launched = [rep for rep in run.reps if "blas" in rep]
    record = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "environment": env,
        "versions": {k: launched[0][k] for k in ("python", "numpy", "scipy", "blas")}
        if launched else None,
        "digest": digest, "reference_digest": reference,
        "digest_matches_reference": None if reference is None else digest == reference,
        "error_rate": failed / attempted,
        "problems": run.problems,
        "repetitions": [{k: v for k, v in rep.items() if k != "layers"}
                        for rep in run.reps],
        "metrics": metrics,
    }
    if not args.trace and metrics:
        record["stats"] = stats
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"nproc {env['nproc']}  load {env['loadavg_1m']:.2f}")
    if record["versions"]:
        v = record["versions"]
        blas = "; ".join(f"{b['package']}: {b['config']} threads={b['threads']}"
                         for b in v["blas"])
        print(f"python {v['python']}  numpy {v['numpy']}  scipy {v['scipy']}  {blas}")
    print(f"digest {digest}  reference {'none' if reference is None else 'match' if digest == reference else 'differs'}")
    for name in (n for n in units if n in metrics):
        line = f"  {name:<48} {metrics[name]:.6g} {units[name]}"
        if not args.trace:
            s = stats[name]
            line += f"  (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})"
        print(line)
    if not args.trace and metrics:
        for name in ("run_s", "ref_s"):
            s = stats[name]
            print(f"  {name:<48} {s['median']:.6g} s  (q1 {s['q1']:.6g}, "
                  f"q3 {s['q3']:.6g}, n={s['n']}; information, not gated)")
    print(f"  {'error_rate':<48} {record['error_rate']:.6g} ratio  "
          f"({failed} of {attempted} failed)")
    for problem in run.problems:
        print(f"FAILED: {problem}")
    print(json.dumps({
        "correct": not run.problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }))
    return 0 if not run.problems else 1


if __name__ == "__main__":
    sys.exit(main())
