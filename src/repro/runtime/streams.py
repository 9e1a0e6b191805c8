"""Arrival streams: what drives a fleet device's workload.

A device is either *model-driven* — arrivals come from its own SR
Markov chain inside the joint-state kernel — or *stream-driven*:
an :class:`ArrivalStream` hands the controller one integer request
count per slice, and the device replays them (the fleet analogue of
the paper's Section-V trace-driven simulation mode).

Streams are stateful cursors: ``next_counts(n)`` returns the next
``n`` per-slice counts and advances.  All the shipped streams are
picklable with their full cursor/RNG state, so a checkpointed fleet
resumes its workloads deterministically; the one exception is
:class:`CallableStream` (live per-tick callables are the integration
point for real telemetry feeds and cannot be serialized — checkpointing
a fleet containing one raises a clear error).

Shipped implementations:

* :class:`TraceStream` — replay a discretized
  :class:`~repro.traces.trace.Trace` (``TraceStream.load`` reads the
  trace file format directly), cycling or zero-padding at the end;
* :class:`PoissonStream` — memoryless arrivals, one rate per slice;
* :class:`MMPP2Stream` — the slotted two-state Markov-modulated
  process of :func:`repro.traces.synthetic.mmpp2_trace`, generated
  incrementally with persistent hidden state;
* :class:`PeriodicBurstStream` — deterministic bursts
  (:func:`repro.traces.synthetic.periodic_burst_trace`, incremental);
* :class:`CallableStream` — wrap any ``f(start_slice, n_slices)``.
"""

from __future__ import annotations

import abc
import sys

import numpy as np

from repro.traces.trace import Trace
from repro.util.validation import ValidationError, check_probability

__all__ = [
    "ArrivalStream",
    "CallableStream",
    "MMPP2Stream",
    "PeriodicBurstStream",
    "PoissonStream",
    "TraceStream",
    "stream_from_spec",
]


class ArrivalStream(abc.ABC):
    """One device's exogenous workload: per-slice request counts."""

    #: Whether checkpointing can serialize this stream (overridden by
    #: :class:`CallableStream`).
    checkpointable: bool = True

    @abc.abstractmethod
    def next_counts(self, n_slices: int) -> np.ndarray:
        """The next ``n_slices`` arrival counts; advances the cursor."""

    def describe(self) -> str:
        """Human-readable one-liner (used in telemetry/spec echoes)."""
        return type(self).__name__

    @staticmethod
    def _check_n(n_slices: int) -> int:
        n_slices = int(n_slices)
        if n_slices <= 0:
            raise ValidationError(f"n_slices must be > 0, got {n_slices}")
        return n_slices


class TraceStream(ArrivalStream):
    """Replay a discretized trace, cycling or zero-padding at the end.

    Parameters
    ----------
    counts:
        Per-slice arrival counts (e.g. ``trace.discretize(tau)``).
    cycle:
        When True (default) the counts repeat forever; when False the
        stream emits zeros once the trace is exhausted.
    """

    def __init__(self, counts, cycle: bool = True):
        arr = np.asarray(counts, dtype=np.int64)
        if arr.ndim != 1 or arr.flags.writeable:
            arr = arr.reshape(-1).copy()
            arr.flags.writeable = False
        if arr.size == 0:
            raise ValidationError("TraceStream needs a non-empty count array")
        if np.any(arr < 0):
            raise ValidationError("arrival counts must be non-negative")
        self._counts = arr
        self._cycle = bool(cycle)
        self._position = 0

    def __setstate__(self, state: dict) -> None:
        # Pickling drops the read-only flag; restore it (and intern the
        # keys, as pickle's default restore does) so counts stay shared.
        self.__dict__.update(
            {sys.intern(key): value for key, value in state.items()}
        )
        self._counts.flags.writeable = False

    @classmethod
    def from_trace(
        cls, trace: Trace, resolution: float, cycle: bool = True
    ) -> "TraceStream":
        """Discretize ``trace`` at ``resolution`` seconds per slice."""
        return cls(trace.discretize(resolution), cycle=cycle)

    @classmethod
    def load(cls, path, resolution: float, cycle: bool = True) -> "TraceStream":
        """Read a :meth:`Trace.save` file and discretize it."""
        return cls.from_trace(Trace.load(path), resolution, cycle=cycle)

    @property
    def position(self) -> int:
        """Slices consumed so far."""
        return self._position

    @property
    def counts(self) -> np.ndarray:
        """The backing count array (read-only, so it can be shared).

        Lets many devices replay one discretized trace without each
        re-reading the file: build one stream, hand its ``counts`` to
        ``TraceStream(counts)`` per device (writeable input is copied
        once).  Checkpoints store a read-only array once per content.
        """
        return self._counts

    def next_counts(self, n_slices: int) -> np.ndarray:
        n_slices = self._check_n(n_slices)
        size = self._counts.size
        if self._cycle:
            idx = (self._position + np.arange(n_slices)) % size
            out = self._counts[idx]
        else:
            out = np.zeros(n_slices, dtype=np.int64)
            lo = min(self._position, size)
            hi = min(self._position + n_slices, size)
            if hi > lo:
                out[: hi - lo] = self._counts[lo:hi]
        self._position += n_slices
        return out

    def describe(self) -> str:
        mode = "cycle" if self._cycle else "once"
        return f"trace({self._counts.size} slices, {mode})"


class PoissonStream(ArrivalStream):
    """Memoryless arrivals: ``Poisson(rate_per_slice)`` counts."""

    def __init__(self, rate_per_slice: float, rng: np.random.Generator):
        rate = float(rate_per_slice)
        if rate < 0:
            raise ValidationError(f"rate_per_slice must be >= 0, got {rate!r}")
        self._rate = rate
        self._rng = rng

    def next_counts(self, n_slices: int) -> np.ndarray:
        n_slices = self._check_n(n_slices)
        return self._rng.poisson(self._rate, size=n_slices).astype(np.int64)

    def describe(self) -> str:
        return f"poisson(rate={self._rate})"


class MMPP2Stream(ArrivalStream):
    """Slotted two-state Markov-modulated arrivals, generated online.

    The same process as :func:`repro.traces.synthetic.mmpp2_trace`
    (idle/busy hidden chain, busy slices emit one request with
    ``busy_arrival_probability``) but produced incrementally with the
    hidden state carried across calls, so a long-lived fleet device can
    be fed forever without materializing a trace.
    """

    def __init__(
        self,
        p_stay_idle: float,
        p_stay_busy: float,
        rng: np.random.Generator,
        busy_arrival_probability: float = 1.0,
    ):
        self._p_ii = check_probability(p_stay_idle, "p_stay_idle")
        self._p_bb = check_probability(p_stay_busy, "p_stay_busy")
        self._emit = check_probability(
            busy_arrival_probability, "busy_arrival_probability"
        )
        self._rng = rng
        self._busy = False

    def next_counts(self, n_slices: int) -> np.ndarray:
        n_slices = self._check_n(n_slices)
        # One (flip, emit) uniform pair per slice, drawn row-major, so
        # the stream's output is invariant to how calls chunk it — the
        # property tick-size neutrality and checkpoint/resume rely on.
        uniforms = self._rng.random((n_slices, 2))
        out = np.zeros(n_slices, dtype=np.int64)
        busy = self._busy
        for t in range(n_slices):
            stay = self._p_bb if busy else self._p_ii
            if uniforms[t, 0] >= stay:
                busy = not busy
            if busy and uniforms[t, 1] < self._emit:
                out[t] = 1
        self._busy = busy
        return out

    def describe(self) -> str:
        return f"mmpp2(p_ii={self._p_ii}, p_bb={self._p_bb})"


class PeriodicBurstStream(ArrivalStream):
    """Deterministic periodic bursts: ``burst`` on-slices, ``gap`` off."""

    def __init__(self, burst_length: int, gap_length: int):
        burst_length = int(burst_length)
        gap_length = int(gap_length)
        if burst_length <= 0 or gap_length < 0:
            raise ValidationError(
                "burst_length must be > 0 and gap_length >= 0, got "
                f"{burst_length} and {gap_length}"
            )
        self._burst = burst_length
        self._gap = gap_length
        self._position = 0

    def next_counts(self, n_slices: int) -> np.ndarray:
        n_slices = self._check_n(n_slices)
        period = self._burst + self._gap
        phases = (self._position + np.arange(n_slices)) % period
        self._position += n_slices
        return (phases < self._burst).astype(np.int64)

    def describe(self) -> str:
        return f"periodic(burst={self._burst}, gap={self._gap})"


class CallableStream(ArrivalStream):
    """Wrap a live ``f(start_slice, n_slices) -> counts`` callable.

    The escape hatch for real deployments (poll a queue, read a
    telemetry feed).  Not checkpointable: arbitrary callables cannot be
    serialized, so :mod:`repro.runtime.checkpoint` refuses fleets that
    contain one.
    """

    checkpointable = False

    def __init__(self, fn):
        if not callable(fn):
            raise ValidationError("CallableStream needs a callable")
        self._fn = fn
        self._position = 0

    def next_counts(self, n_slices: int) -> np.ndarray:
        n_slices = self._check_n(n_slices)
        out = np.asarray(
            self._fn(self._position, n_slices), dtype=np.int64
        ).reshape(-1)
        if out.size != n_slices:
            raise ValidationError(
                f"stream callable returned {out.size} counts for "
                f"{n_slices} requested slices"
            )
        if np.any(out < 0):
            raise ValidationError("arrival counts must be non-negative")
        self._position += n_slices
        return out

    def describe(self) -> str:
        return "callable"


def stream_from_spec(raw: dict, rng: np.random.Generator) -> ArrivalStream:
    """Build a stream from a fleet-spec ``workload`` entry.

    ``{"type": "trace", "path": ..., "resolution": ..., "cycle": true}``,
    ``{"type": "poisson", "rate_per_slice": ...}``,
    ``{"type": "mmpp2", "p_stay_idle": ..., "p_stay_busy": ...,
    "busy_arrival_probability": ...}`` or
    ``{"type": "periodic", "burst_length": ..., "gap_length": ...}``.
    Stochastic streams draw from ``rng`` (the device's own generator,
    so workloads are reproducible per device).
    """
    if not isinstance(raw, dict) or "type" not in raw:
        raise ValidationError(
            f"workload spec must be a mapping with a 'type', got {raw!r}"
        )
    kind = str(raw["type"])
    if kind == "trace":
        if "path" not in raw or "resolution" not in raw:
            raise ValidationError(
                "trace workload needs 'path' and 'resolution'"
            )
        return TraceStream.load(
            raw["path"], float(raw["resolution"]), cycle=bool(raw.get("cycle", True))
        )
    if kind == "poisson":
        return PoissonStream(float(raw.get("rate_per_slice", 0.1)), rng)
    if kind == "mmpp2":
        return MMPP2Stream(
            float(raw.get("p_stay_idle", 0.95)),
            float(raw.get("p_stay_busy", 0.85)),
            rng,
            busy_arrival_probability=float(
                raw.get("busy_arrival_probability", 1.0)
            ),
        )
    if kind == "periodic":
        return PeriodicBurstStream(
            int(raw.get("burst_length", 5)), int(raw.get("gap_length", 20))
        )
    raise ValidationError(
        f"unknown workload type {kind!r}; use trace/poisson/mmpp2/periodic"
    )
