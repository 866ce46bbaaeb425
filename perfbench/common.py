"""Shared pieces of the benchmark: statistics, run context, results.

Everything here measures the library from outside: wall clocks around
public calls, peak RSS of this process, and the host environment.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Root of the checkout the benchmark runs in (``perfbench/..``).
ROOT = Path(__file__).resolve().parent.parent
#: Run artifacts (trained reference network, traces, result records).
OUT_DIR = ROOT / ".bench_build" / "perfbench"

clock = time.perf_counter
#: Measurement rounds.  Every section measures one slice per round, so
#: each median pools samples spread over the whole run rather than one
#: stretch of it: the host's speed drifts by about 10% over seconds.
ROUNDS = 4
#: Cold starts timed for ``setup_s`` (median) on the named workload.
SETUP_REPEATS = 3


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def wilson_upper(failures: int, trials: int, z: float = 1.96) -> float:
    """Upper end of the 95% Wilson score interval of a failure share.

    Never 0: with no failures in ``n`` trials it is about ``3.84 / n``,
    the largest failure rate those ``n`` clean trials cannot rule out.
    """
    p = failures / trials
    z2 = z * z
    centre = p + z2 / (2 * trials)
    spread = z * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials**2))
    return (centre + spread) / (1 + z2 / trials)


def peak_rss_mb() -> float:
    """Peak resident memory of this process (VmHWM), in MB."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    """The host facts a result depends on, recorded with every run."""
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy < 1.26 has no dict mode
        deps = {}
    blas = {
        k: deps.get("blas", {}).get(k)
        for k in ("name", "version", "openblas configuration")
    }
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "numpy": np.__version__,
        # The BLAS thread count is OpenBLAS's default (one per core)
        # unless one of these variables overrides it; the benchmark
        # never sets them.
        "blas": blas,
        "thread_env": {
            k: v
            for k, v in sorted(os.environ.items())
            if k.startswith(("OPENBLAS_", "OMP_", "MKL_", "BLIS_"))
        },
    }


@dataclass
class Run:
    """One benchmark run: its seed, budget, and everything it records.

    ``workload`` names the section whose set-up ``setup_s`` reports
    (see :meth:`focus`).  Every section is measured on every workload,
    so every end-to-end metric is reported on every workload.
    """

    workload: str
    seed: int
    seconds: float
    traced: bool
    e2e: dict = field(default_factory=dict)
    layer: dict = field(default_factory=dict)
    records: list = field(default_factory=list)
    info: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: dict = field(default_factory=dict)
    #: Chrome trace events of each section's traced pass.
    traces: dict = field(default_factory=dict)

    def focus(self, section: str) -> bool:
        return self.workload == section

    def rng(self, *stream: int) -> np.random.Generator:
        """A generator derived from the workload seed and a stream id."""
        return np.random.default_rng([self.seed, *stream])

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """Record one correctness check; a failure is a failed op."""
        self.attempted += 1
        self.checks[name] = {"ok": bool(ok), "detail": detail}
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED: {name}: {detail}", file=sys.stderr)

    def ops(self, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed

    def setup_split(
        self, compile_ms, program_ms, calibrate_ms, plan_compile_ms
    ) -> None:
        """The named workload's set-up, split into the layers it runs."""
        self.layer["core.compiler.compile_ms"] = compile_ms
        self.layer["core.executor.program_ms"] = program_ms
        self.layer["core.executor.calibrate_ms"] = calibrate_ms
        self.layer["perf.plan.compile_ms"] = plan_compile_ms


def timed_loop(fn, budget_s: float, min_calls: int) -> list[float]:
    """Call ``fn(i)`` until ``budget_s`` is spent; per-call walls."""
    walls = []
    start = clock()
    i = 0
    while i < min_calls or clock() - start < budget_s:
        t0 = clock()
        fn(i)
        walls.append(clock() - t0)
        i += 1
    return walls
