"""One unit of a benchmark workload, in a fresh process.

    python3 perfbench/unit.py --workload gem_mine --seed 1 --work-dir DIR [--trace] [--tiny]

Runs set-up, then the timed workload, then the output checks, and prints
one JSON object on its last line of standard output. ``run.py`` starts one
of these per unit, with the BLAS thread count pinned in its environment,
so that each unit's peak RSS is its own.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

SETUP_REPEATS = 5  # set-ups per untraced unit; setup_s is their median over the run
SETUP_SAMPLES = 8  # speed samples taken right before and right after the set-ups
PROBE_INTERVAL_S = 0.2  # wall time between speed samples during the timed part


class SpeedProbe:
    """Samples the host's speed with a fixed kernel, also while the program runs.

    The kernel is 8 SGD steps of a 784-128-10 MLP in plain numpy, about
    7 ms. It shares no code with gemmine, so a change to the program cannot
    move it. Inside ``running()`` a timer signal runs it every
    ``PROBE_INTERVAL_S`` on the program's own core, between two Python
    bytecodes of the program, so the samples follow the host's speed through
    the timed part; ``spent`` is the time the samples took, which the caller
    takes out of its wall time, and ``on_spent`` is told of each.
    """

    def __init__(self, on_spent=None):
        import numpy as np

        rng = np.random.default_rng(0)
        self._x, self._y = rng.random((32, 784)), rng.integers(0, 10, 32)
        self._w1, self._w2 = rng.standard_normal((128, 784)) * 0.05, rng.standard_normal((10, 128)) * 0.1
        self._rows = np.arange(32)
        self._on_spent = on_spent
        self.samples: list[float] = []
        self.spent = 0.0
        self.sample()  # warm-up: first-call costs stay out of the samples

    def sample(self) -> float:
        """Seconds the kernel takes now."""
        import numpy as np

        x, y, w1, w2, rows = self._x, self._y, self._w1, self._w2, self._rows
        start = time.perf_counter()
        for _ in range(8):
            h = x @ w1.T
            a = np.where(h > 0.0, h, 0.0)
            z = a @ w2.T
            p = np.exp(z - z.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            p[rows, y] -= 1.0
            p /= 32
            g2 = p.T @ a
            g1 = ((p @ w2) * (h > 0.0)).T @ x
            w1 = w1 - 0.01 * g1 * (w1 != 0.0)
            w2 = w2 - 0.01 * g2
        return time.perf_counter() - start

    def _on_timer(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(self.sample())
        spent = time.perf_counter() - start
        self.spent += spent
        if self._on_spent is not None:
            self._on_spent(spent)

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


def blas_info() -> dict:
    """The BLAS build numpy uses, and the kernel it picked on this CPU."""
    import numpy as np

    build = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info = {"name": build.get("name"), "version": build.get("version"), "build": build.get("openblas configuration")}
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}get_config{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_char_p
                    info["runtime"] = fn().decode()
                    return info
    return info


def run_unit(workload: str, seed: int, work_dir: Path, traced: bool, tiny: bool) -> dict:
    import numpy as np

    import workloads
    from spans import Tracer

    sizes = workloads.TINY if tiny else workloads.FULL
    tracer = Tracer() if traced else None
    probe = SpeedProbe(on_spent=tracer.exclude if traced else None)
    setup_s = []
    setup_speed_s = [probe.sample() for _ in range(SETUP_SAMPLES)]
    with tracer.installed() if traced else contextlib.nullcontext():
        for _ in range(1 if traced else SETUP_REPEATS):
            start = time.perf_counter()
            prep = workloads.setup(workload, sizes, seed, work_dir)
            setup_s.append(time.perf_counter() - start)
        setup_spans = tracer.snapshot() if traced else None
        if traced:
            tracer.reset()
        setup_speed_s += [probe.sample() for _ in range(SETUP_SAMPLES)]
        with probe.running():
            start = time.perf_counter()
            outcome = workloads.run(workload, prep, work_dir / "out")
            elapsed = time.perf_counter() - start
    result = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "wall_s": elapsed - probe.spent,  # the program's own time
        "probe_s": probe.spent,
        "speed_s": probe.samples,
        "setup_s": setup_s,
        "setup_speed_s": setup_speed_s,
        "samples": prep.samples,
        "pre_acc": float(np.mean(outcome.pre_acc)),
        "post_acc": float(np.mean(outcome.post_acc)) if outcome.post_acc else None,
        "hashes": workloads.digest(outcome),
        "errors": workloads.invariant_errors(workload, prep, outcome),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "env": {
            "numpy": np.__version__,
            "blas": blas_info(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
    }
    if traced:
        result["setup_spans"] = setup_spans
        result["spans"] = tracer.snapshot()
        result["bookkeeping_s"] = tracer.bookkeeping_s
        span_calls = sum(s["calls"] for s in result["spans"].values())
        result["wrapper_s"] = span_calls * tracer.call_cost_s() + tracer.bookkeeping_s
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    result = run_unit(args.workload, args.seed, args.work_dir, args.trace, args.tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
