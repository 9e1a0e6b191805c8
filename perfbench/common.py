"""Shared plumbing for the benchmark: statistics, memory, host facts,
C-level output capture and the pass/fail ledger every workload fills."""

from __future__ import annotations

import contextlib
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10
#: Fixed pure-Python loop timed once per run; drift in its time means
#: the host got slower or faster, not the code under test.
CALIB_ITERATIONS = 2_000_000


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def tail(values) -> dict:
    """The highest percentile with at least ten samples beyond it.

    With fewer than 21 samples no percentile at or above the median
    qualifies, and the maximum is reported as the 100th percentile.  The
    percentile and the sample count travel with the value.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return {"value": ordered[-1], "percentile": 100.0, "n": n}
    index = n - TAIL_BEYOND - 1
    return {
        "value": ordered[index],
        "percentile": round(100.0 * (index + 1) / n, 2),
        "n": n,
    }


def timing(values) -> dict:
    """Median plus tail of a list of durations."""
    return {"p50": median(values), "tail": tail(values), "n": len(values)}


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, 0 if unreadable."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return float(line.split()[1]) / 1024.0
    return 0.0


def calibrate() -> float:
    """Seconds for :data:`CALIB_ITERATIONS` of a fixed integer loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIB_ITERATIONS):
        acc = (acc + i * 7) & 0xFFFF
    return time.perf_counter() - start


#: Median seconds of :func:`calibration_unit` on the host the benchmark
#: was tuned on (a shared 2-core Xeon VM); ``*_ref_s`` metrics are
#: seconds scaled to a host that runs the unit this fast.
CALIB_REFERENCE_S = 0.0035
_CALIB_ARRAYS = []


def calibration_unit() -> float:
    """Seconds for one small fixed unit of interpreter work and array
    arithmetic (about 4 ms), timed between the workload's operations.

    The arrays are allocated once, so the unit never page-faults and
    times the processor and its caches, not the process's memory map.
    """
    import numpy

    if not _CALIB_ARRAYS:
        source = numpy.random.default_rng(0).random(1 << 18)
        _CALIB_ARRAYS.extend((source, numpy.empty_like(source)))
    source, scratch = _CALIB_ARRAYS
    start = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc = (acc + i * 7) & 0xFFFF
    for _ in range(2):
        numpy.multiply(source, 1.0001, out=scratch)
        numpy.sqrt(scratch, out=scratch)
        scratch.sum()
    return time.perf_counter() - start


def host_facts(resolved_backend: str) -> dict:
    import numpy
    import scipy

    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": has_numba,
        "resolved_backend": resolved_backend,
    }


@contextlib.contextmanager
def capture_c_output(path: Path):
    """Route file descriptors 1 and 2 into ``path`` for the duration.

    The simplex backend's sparse LU calls BLAS routines that print
    ``XERBLA`` notes ("On entry to DTRSV parameter number 6 ...")
    straight to the C-level streams; capturing at the descriptor level
    keeps the benchmark's own stdout parseable.  Forked shard workers
    inherit the redirection, so their output lands in the same file.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    saved = (os.dup(1), os.dup(2))
    sink = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    os.dup2(sink, 1)
    os.dup2(sink, 2)
    os.close(sink)
    try:
        yield
    finally:
        sys.stdout.flush()
        sys.stderr.flush()
        os.dup2(saved[0], 1)
        os.dup2(saved[1], 2)
        os.close(saved[0])
        os.close(saved[1])


def count_xerbla_lines(path: Path) -> int:
    try:
        text = path.read_text(errors="replace")
    except OSError:
        return 0
    return sum(1 for line in text.splitlines() if "On entry to" in line)


class Ledger:
    """Operations attempted and failed, correctness checks included."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self) -> None:
        self.attempted += 1

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
