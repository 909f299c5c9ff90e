"""One benchmark repetition in a fresh interpreter.

Usage: ``python3 perfbench/child.py '<request json>'`` where the request is
``{"configs": [...], "out": "<dir>", "trace": bool, "setup_only": bool}``.

The parent sets the BLAS thread variables before this interpreter starts.
The child imports udmrg from the checkout's ``src/``, validates every config
with ``parse_config_data``, stamps the monotonic clock (the end of set-up),
reads the BLAS thread counts back, then runs ``dispatch`` once per config
and prints one JSON line with its timings and peak memory.  Around the
dispatch calls it times a fixed reference computation, so the parent can
express the run time in units of what this host does at that moment.
"""
from __future__ import annotations

import contextlib
import json
import os
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: reference computations timed before dispatch, and again after it
REF_SAMPLES = 4
#: while dispatch runs untraced, one more is timed every this many seconds
REF_INTERVAL_S = 1.0


def _blas_libraries() -> list[dict]:
    """Vendor string and thread count of numpy's and scipy's bundled OpenBLAS."""
    import ctypes

    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own OpenBLAS)

    found = []
    for package, suffix in ((numpy, "64_"), (scipy, "")):
        libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        paths = sorted(libs.glob("libscipy_openblas*.so"))
        if not paths:
            found.append({"package": package.__name__, "library": None,
                          "config": None, "threads": None})
            continue
        lib = ctypes.CDLL(str(paths[0]))
        get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
        get_threads.argtypes = []
        get_threads.restype = ctypes.c_int
        get_config = getattr(lib, f"scipy_openblas_get_config{suffix}")
        get_config.argtypes = []
        get_config.restype = ctypes.c_char_p
        found.append({"package": package.__name__, "library": paths[0].name,
                      "config": get_config().decode(), "threads": get_threads()})
    return found


def reference_work() -> float:
    """Wall time of a fixed computation that does not depend on udmrg.

    It mixes what udmrg's hot paths are made of: interpreted Python, many
    small numpy contractions and dense symmetric eigensolves.  It runs in
    the same process as ``dispatch``, before, during (``ReferenceClock``)
    and after it, so a host whose speed drifts slows both alike.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    small = rng.standard_normal((8, 4, 8))
    block = rng.standard_normal((8, 8))
    sym = rng.standard_normal((160, 160))
    sym = sym + sym.T
    start = time.perf_counter()
    acc = 0
    for i in range(60000):
        acc += i * i % 7
    for _ in range(1200):
        block = np.tanh(np.tensordot(small, block, axes=(2, 0)).sum(axis=1) * 0.1)
    for _ in range(5):
        np.linalg.eigh(sym)
    return time.perf_counter() - start


class ReferenceClock:
    """Times ``reference_work`` at a fixed interval while the timed code runs.

    A host that changes speed during a long dispatch call is seen only in
    part by samples taken before and after it.  Inside the ``with`` block,
    SIGALRM fires every ``REF_INTERVAL_S`` seconds of wall time and its
    handler times one reference computation between two bytecodes of the
    main thread.  ``paused_s`` is the handlers' wall time, which the caller
    takes out of its own timing.
    """

    def __init__(self, samples: list[float]):
        self.samples = samples
        self.paused_s = 0.0
        self.paused_cpu_s = 0.0

    def _tick(self, signum, frame) -> None:
        start, cpu_start = time.perf_counter(), time.process_time()
        self.samples.append(reference_work())
        self.paused_s += time.perf_counter() - start
        self.paused_cpu_s += time.process_time() - cpu_start

    def __enter__(self) -> "ReferenceClock":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main(request: dict) -> dict:
    sys.path.insert(0, str(SRC))
    import udmrg
    from udmrg import cli

    if Path(udmrg.__file__).resolve().parent != SRC / "udmrg":
        raise RuntimeError(f"udmrg imported from {udmrg.__file__}, not {SRC}")
    tracer = None
    if request["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    parse_start = time.perf_counter()
    cfgs = [cli.parse_config_data(data) for data in request["configs"]]
    parse_s = time.perf_counter() - parse_start
    ready = time.monotonic()
    if request["setup_only"]:
        return {"ready": ready}

    import numpy
    import scipy

    result = {
        "ready": ready,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_libraries(),
        "statuses": [],
        "run_s": 0.0,
        "cpu_s": 0.0,
    }
    out = Path(request["out"])
    reference_work()  # loads the BLAS kernels; not timed
    result["ref_s"] = [reference_work() for _ in range(REF_SAMPLES)]
    clock = ReferenceClock(result["ref_s"])
    with open(os.devnull, "w") as sink:
        for i, cfg in enumerate(cfgs):
            paused, paused_cpu = clock.paused_s, clock.paused_cpu_s
            start, cpu_start = time.perf_counter(), time.process_time()
            # the tracer charges all time to the layer on top of its stack,
            # so a traced run is not interrupted by reference samples
            with contextlib.redirect_stdout(sink), (
                    contextlib.nullcontext() if tracer else clock):
                status = cli.dispatch(cfg, out / f"{i}_{cfg.kind}")
            result["run_s"] += time.perf_counter() - start - (clock.paused_s - paused)
            result["cpu_s"] += (time.process_time() - cpu_start
                                - (clock.paused_cpu_s - paused_cpu))
            result["statuses"].append(status)
    result["ref_s"] += [reference_work() for _ in range(REF_SAMPLES)]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["layers"] = tracer.metrics(result["run_s"] + parse_s)
    return result


if __name__ == "__main__":
    try:
        print(json.dumps(main(json.loads(sys.argv[1]))))
    except Exception:
        traceback.print_exc()
        sys.exit(1)
