"""The fleet daemon: shard supervision plus the socket accept loop.

:class:`ShardSupervisor` owns the worker processes.  It deals devices
to shards content-addressed (see :mod:`repro.service.shard`), mirrors
the fleet-level bookkeeping a single-process
:class:`~repro.runtime.controller.FleetController` would keep (global
device order, fleet version), steps all shards concurrently each tick
and restarts any worker that dies from its spool checkpoint — then
replays the dead shard's missed ticks, which is byte-exact because
stepping from a checkpoint is deterministic.

:class:`FleetDaemon` is the serving layer: an ``AF_UNIX`` accept loop
speaking the :mod:`repro.service.protocol` frame format, one client
at a time.  Telemetry is aggregated daemon-side: workers report raw
per-device records, the supervisor reorders them into global
registration order and
:func:`~repro.runtime.telemetry.snapshot_from_records` folds them
through the *same* reduction as the single-process snapshot path.

**The byte-identity contract.**  For the same fleet spec and seed, a
sharded run's telemetry records and checkpoints are byte-identical to
the single-process controller's, for any shard count, after any
re-partitioning, and across mid-run worker restarts:

* device trajectories — per-device RNG streams and the pinned chunk
  length make stepping bitwise grouping-invariant;
* fleet aggregates — one shared reduction, fed in one global order;
* checkpoint pickles — devices are gathered back in registration
  order and re-attached to the *canonical* shared objects captured at
  registration (group-shared systems, costs, stationary agents, trace
  count arrays), so the gathered fleet pickles the same object graph
  a single-process fleet would.  Stateless stationary agents come
  from the registry; stateful agents (timeout, adaptive) keep the
  worker-evolved copy, whose state is itself deterministic.

Documented exception: adaptive devices sharing a *warm-starting*
policy cache keep their existing caveat (see
:class:`~repro.runtime.policy_cache.PolicyCache`) — a sharded run
splits the shared cache per worker, so tied-optimal vertex selection
may differ exactly as it already may between two single-process runs
with different cache histories.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket
import tempfile
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import faults
from repro.faults.plan import FaultPlan
from repro.policies.base import PolicyAgent, StationaryAgent
from repro.runtime.checkpoint import (
    checkpoint_payload,
    write_checkpoint,
)
from repro.runtime.controller import (
    FLEET_CHUNK_SLICES,
    FleetController,
    resolve_backend_name,
)
from repro.runtime.fleet import (
    Device,
    Fleet,
    build_agent_from_spec,
    build_group_devices,
)
from repro.runtime.policy_cache import PolicyCache
from repro.runtime.streams import TraceStream
from repro.runtime.telemetry import device_record, snapshot_from_records
from repro.service.protocol import (
    PROTOCOL_VERSION,
    FrameChannel,
    ProtocolError,
    hello_data,
    make_error,
    make_event,
    make_response,
    validate_request,
)
from repro.service.shard import (
    Partitioner,
    ShardConfig,
    shard_worker_main,
)
from repro.service.spool import load_spool
from repro.util.validation import ValidationError

__all__ = ["FleetDaemon", "ShardSupervisor", "reap_process"]


def reap_process(
    process, *, join_timeout: float = 10.0, term_timeout: float = 5.0
) -> None:
    """Make sure ``process`` is gone: join → terminate → kill → join.

    The shutdown safety net: a worker that ignores its stop command
    (wedged, or blocked in a syscall) is escalated through SIGTERM and
    finally SIGKILL, so supervisor shutdown never strands a process.
    """
    process.join(timeout=join_timeout)
    if process.is_alive():
        process.terminate()
        process.join(timeout=term_timeout)
    if process.is_alive():
        process.kill()
        process.join()


class _WorkerGone(Exception):
    """Internal: a worker failed a round trip (dead, hung, or cut off).

    Never escapes the supervisor — every raiser is paired with a
    recovery (restart-from-spool, or quarantine) or converted to a
    :class:`ValidationError`.
    """

    def __init__(self, index: int, why: str):
        super().__init__(f"shard {index} {why}")
        self.index = index
        self.why = why


def _normalize_dtypes(obj, seen: set) -> None:
    """Point every reachable ndarray at the cached builtin dtype object.

    Unpickling (numpy's dtype reduce passes ``copy=True``) gives each
    shard's arrays their own dtype *object*; a single-process fleet's
    arrays all share one.  Pickle memoizes by identity, so without
    this pass a gathered fleet would serialize one dtype per shard
    where the reference run serializes one total — different bytes
    for equal content.  Mutating ``arr.dtype`` in place is value-
    preserving (same itemsize, same byte order) and touches nothing
    else in the graph.
    """
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        obj.dtype = np.dtype(obj.dtype.str)
        return
    if isinstance(obj, np.random.Generator):
        seed_seq = obj.bit_generator.seed_seq
        pool = getattr(seed_seq, "pool", None)
        if isinstance(pool, np.ndarray):
            pool.dtype = np.dtype(pool.dtype.str)
        return
    if isinstance(obj, dict):
        for value in obj.values():
            _normalize_dtypes(value, seen)
        return
    if isinstance(obj, (list, tuple)):
        for value in obj:
            _normalize_dtypes(value, seen)
        return
    attributes = getattr(obj, "__dict__", None)
    if attributes:
        _normalize_dtypes(attributes, seen)


@dataclass
class _CanonicalEntry:
    """The shared objects a device referenced at registration time.

    Pickling a partition into a worker forks every shared object into
    a per-shard copy; this registry is how :meth:`gather_fleet`
    restores the original sharing so a gathered fleet's checkpoint
    pickles byte-identically to a single-process fleet's.
    """

    system: object
    costs: object
    agent: PolicyAgent | None
    trace_counts: object


@dataclass
class _WorkerHandle:
    """One live shard worker: process, pipe, and its completed tick."""

    index: int
    process: object
    conn: object
    tick: int


class ShardSupervisor:
    """Deal a fleet across worker processes and keep them in lockstep.

    Parameters
    ----------
    n_shards:
        Worker process count.  ``1`` is a valid (and byte-identical)
        degenerate case — useful for soak-testing the service path.
    slices_per_tick / backend / chunk_slices:
        Forwarded to every shard's controller, exactly as a
        single-process :class:`FleetController` would receive them.
    lp_backend:
        LP backend for centrally-built agents (live registrations and
        policy pushes).
    spool_dir:
        Directory for per-shard restart checkpoints; defaults to a
        private temporary directory cleaned up on :meth:`stop`.
    checkpoint_every:
        Ticks between spool refreshes (``1``: every tick — a dead
        worker replays at most the tick it died in).  ``0`` disables
        spooling entirely; a worker death then fails the run with a
        clear error instead of restarting.
    start_method:
        ``multiprocessing`` start method; defaults to ``fork`` where
        available (free initial device distribution) with a ``spawn``
        fallback.
    worker_deadline:
        Seconds the supervisor waits on any worker round trip before
        declaring the worker *hung*, SIGKILLing it and restarting from
        spool — the defense a merely-dead worker (EOF on the pipe)
        never needed.  ``None`` disables deadlines (wait forever).
    restart_backoff / restart_backoff_cap:
        Crash-loop damping: consecutive failed recoveries of one shard
        sleep ``restart_backoff * 2**(n-1)`` seconds (capped) before
        the next attempt.  A successful recovery or step resets the
        shard's failure count.
    quarantine_after:
        Consecutive failed recovery attempts before a shard is
        *quarantined*: its last spooled state is parked, it is
        excluded from stepping, and the daemon keeps serving the rest
        of the fleet (reported under ``info()["quarantined"]`` and in
        telemetry) instead of crash-looping forever.
    fault_plan / fault_ledger:
        Optional :class:`~repro.faults.FaultPlan` installed across the
        supervisor and every worker process (see :mod:`repro.faults`);
        the ledger directory defaults to ``<spool_dir>/fired``.
    """

    def __init__(
        self,
        n_shards: int,
        slices_per_tick: int = 1000,
        backend: str = "auto",
        chunk_slices: int | None = None,
        lp_backend: str = "scipy",
        spool_dir=None,
        checkpoint_every: int = 1,
        start_method: str | None = None,
        worker_deadline: float | None = 300.0,
        restart_backoff: float = 0.5,
        restart_backoff_cap: float = 30.0,
        quarantine_after: int = 5,
        fault_plan: FaultPlan | None = None,
        fault_ledger=None,
    ):
        checkpoint_every = int(checkpoint_every)
        if checkpoint_every < 0:
            raise ValidationError(
                f"checkpoint_every must be >= 0, got {checkpoint_every}"
            )
        if worker_deadline is not None and worker_deadline <= 0:
            raise ValidationError(
                f"worker_deadline must be > 0 (or None), got {worker_deadline}"
            )
        quarantine_after = int(quarantine_after)
        if quarantine_after < 1:
            raise ValidationError(
                f"quarantine_after must be >= 1, got {quarantine_after}"
            )
        self._partitioner = Partitioner(n_shards)
        self._n_shards = self._partitioner.n_shards
        self._slices_per_tick = int(slices_per_tick)
        self._backend = str(backend)
        self._chunk_slices = (
            FLEET_CHUNK_SLICES if chunk_slices is None else int(chunk_slices)
        )
        self._lp_backend = str(lp_backend)
        self._checkpoint_every = checkpoint_every
        self._resolved_backend = resolve_backend_name(self._backend)
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(start_method)
        self._tempdir = None
        if checkpoint_every == 0:
            self._spool_dir = None
        elif spool_dir is not None:
            self._spool_dir = Path(spool_dir)
            self._spool_dir.mkdir(parents=True, exist_ok=True)
        else:
            self._tempdir = tempfile.TemporaryDirectory(prefix="repro-spool-")
            self._spool_dir = Path(self._tempdir.name)
        self._worker_deadline = (
            None if worker_deadline is None else float(worker_deadline)
        )
        self._restart_backoff = float(restart_backoff)
        self._restart_backoff_cap = float(restart_backoff_cap)
        self._quarantine_after = quarantine_after
        self._fault_plan = fault_plan
        self._fault_tempdir = None
        self._fault_ledger = None
        self._injector = None
        if fault_plan is not None:
            if fault_ledger is not None:
                self._fault_ledger = Path(fault_ledger)
            elif self._spool_dir is not None:
                self._fault_ledger = self._spool_dir / "fired"
            else:
                self._fault_tempdir = tempfile.TemporaryDirectory(
                    prefix="repro-fault-ledger-"
                )
                self._fault_ledger = Path(self._fault_tempdir.name)
        self._workers: list[_WorkerHandle | None] = []
        self._failures: list[int] = []
        self._parked: dict[int, dict] = {}
        self._order: list[str] = []
        self._owner: dict[str, int] = {}
        self._canonical: dict[str, _CanonicalEntry] = {}
        self._version = 0
        self._tick = 0
        self._restarts = 0
        self._started = False

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def tick(self) -> int:
        """Ticks completed fleet-wide."""
        return self._tick

    @property
    def n_devices(self) -> int:
        """Devices currently registered."""
        return len(self._order)

    @property
    def n_shards(self) -> int:
        """Worker process count."""
        return self._n_shards

    @property
    def backend(self) -> str:
        """The requested stepping mode (as a controller would report)."""
        return self._backend

    @property
    def resolved_backend(self) -> str:
        """The batch tier shards actually step on (telemetry stamp)."""
        return self._resolved_backend

    @property
    def lp_backend(self) -> str:
        """LP backend for centrally-built agents."""
        return self._lp_backend

    @property
    def restarts(self) -> int:
        """Worker restarts performed so far."""
        return self._restarts

    @property
    def quarantined(self) -> list[int]:
        """Shard indices parked by the crash-loop breaker (sorted)."""
        return sorted(self._parked)

    @property
    def started(self) -> bool:
        """Whether worker processes are running."""
        return self._started

    def canonical_model(self, device_id: str):
        """The registration-time ``(system, costs)`` of one device."""
        entry = self._canonical.get(str(device_id))
        if entry is None:
            raise ValidationError(f"unknown device id {device_id!r}")
        return entry.system, entry.costs

    def info(self) -> dict:
        """Operational summary (the ``info`` protocol result)."""
        per_shard = [0] * self._n_shards
        for shard in self._owner.values():
            per_shard[shard] += 1
        return {
            "tick": self._tick,
            "n_devices": len(self._order),
            "shards": self._n_shards,
            "devices_per_shard": per_shard,
            "backend": self._backend,
            "resolved_backend": self._resolved_backend,
            "slices_per_tick": self._slices_per_tick,
            "chunk_slices": self._chunk_slices,
            "checkpoint_every": self._checkpoint_every,
            "restarts": self._restarts,
            "worker_pids": [
                handle.process.pid if handle is not None else None
                for handle in self._workers
            ],
            "quarantined": self.quarantined,
            "failures": list(self._failures),
            "worker_deadline": self._worker_deadline,
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _require_started(self) -> None:
        if not self._started:
            raise ValidationError(
                "supervisor is not running; call start(fleet) first"
            )

    @staticmethod
    def _check_distributable(device: Device) -> None:
        if device.stream is not None and not device.stream.checkpointable:
            raise ValidationError(
                f"device {device.device_id!r} is fed by a "
                f"non-checkpointable stream ({device.stream.describe()}); "
                f"live streams cannot cross process boundaries — use a "
                f"trace/synthetic stream to serve this fleet"
            )

    def _register_canonical(self, device: Device) -> None:
        agent = (
            device.agent
            if isinstance(device.agent, StationaryAgent)
            else None
        )
        trace_counts = (
            device.stream.counts
            if isinstance(device.stream, TraceStream)
            else None
        )
        self._canonical[device.device_id] = _CanonicalEntry(
            system=device.system,
            costs=device.costs,
            agent=agent,
            trace_counts=trace_counts,
        )

    def _spawn(self, index: int, devices: list, tick: int) -> _WorkerHandle:
        config = ShardConfig(
            index=index,
            slices_per_tick=self._slices_per_tick,
            backend=self._backend,
            chunk_slices=self._chunk_slices,
            spool_dir=(
                str(self._spool_dir) if self._spool_dir is not None else None
            ),
            fault_plan=self._fault_plan,
            fault_ledger=(
                str(self._fault_ledger)
                if self._fault_ledger is not None
                else None
            ),
        )
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=shard_worker_main,
            args=(child_conn, config, devices, int(tick)),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _WorkerHandle(
            index=index, process=process, conn=parent_conn, tick=int(tick)
        )

    def start(self, fleet: Fleet, tick: int = 0) -> None:
        """Deal ``fleet`` to shards and launch the worker processes.

        ``tick`` continues a resumed campaign (pass the checkpoint's
        tick); the fleet's version counter is captured so gathered
        checkpoints mirror the single-process value.
        """
        if self._started:
            raise ValidationError("supervisor is already running")
        partitions: list[list[Device]] = [[] for _ in range(self._n_shards)]
        devices = list(fleet)
        for device in devices:
            self._check_distributable(device)
        for device, shard in zip(devices, self._partitioner.assign(devices)):
            self._register_canonical(device)
            self._order.append(device.device_id)
            self._owner[device.device_id] = shard
            partitions[shard].append(device)
        self._version = fleet.version
        self._tick = int(tick)
        if self._fault_plan is not None:
            self._injector = faults.install(
                self._fault_plan, self._fault_ledger
            )
        self._workers = [
            self._spawn(index, partitions[index], self._tick)
            for index in range(self._n_shards)
        ]
        self._failures = [0] * self._n_shards
        self._started = True

    def stop(self) -> None:
        """Stop every worker and clean up spool state.

        Shutdown never strands a process: a worker that fails to
        acknowledge its stop command within a short deadline is
        escalated through :func:`reap_process` (join → SIGTERM →
        SIGKILL), whatever state it wedged in.
        """
        for handle in self._workers:
            if handle is None:
                continue
            try:
                handle.conn.send(("stop", None))
                if handle.conn.poll(5.0):
                    handle.conn.recv()
            except (EOFError, OSError):
                pass
            handle.conn.close()
            reap_process(handle.process)
        self._workers = []
        self._failures = []
        self._parked = {}
        self._started = False
        if self._injector is not None:
            faults.uninstall()
            self._injector = None
        if self._fault_tempdir is not None:
            self._fault_tempdir.cleanup()
            self._fault_tempdir = None
        if self._tempdir is not None:
            self._tempdir.cleanup()
            self._tempdir = None

    # ------------------------------------------------------------------
    # worker RPC with restart-from-spool, backoff and quarantine
    # ------------------------------------------------------------------
    def _spool_due(self, tick: int) -> bool:
        return (
            self._checkpoint_every > 0
            and tick % self._checkpoint_every == 0
        )

    def _kill_worker(self, handle: _WorkerHandle) -> None:
        """Put a failed worker definitively out of its misery."""
        if handle.process.is_alive():
            try:
                os.kill(handle.process.pid, signal.SIGKILL)
            except OSError:  # pragma: no cover - already gone
                pass
        handle.process.join()
        try:
            handle.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def _recv(self, handle: _WorkerHandle):
        """Receive one reply, bounded by the worker deadline.

        A worker that neither replies nor dies within the deadline is
        *hung* — it gets SIGKILLed right here (there is no other way
        to unwedge it) and reported exactly like a dead one, so the
        caller's recovery path is shared.
        """
        if self._worker_deadline is not None:
            try:
                ready = handle.conn.poll(self._worker_deadline)
            except (EOFError, OSError):
                raise _WorkerGone(handle.index, "pipe failed") from None
            if not ready:
                self._kill_worker(handle)
                raise _WorkerGone(
                    handle.index,
                    f"hung (no reply within {self._worker_deadline}s)",
                )
        try:
            return handle.conn.recv()
        except (EOFError, OSError):
            raise _WorkerGone(handle.index, "died mid-command") from None

    def _pipe_call(self, handle: _WorkerHandle, command: str, payload):
        """One send/recv round with a specific worker (no recovery)."""
        try:
            handle.conn.send((command, payload))
        except (EOFError, OSError):
            raise _WorkerGone(handle.index, "died before command") from None
        status, result = self._recv(handle)
        if status == "error":
            raise ValidationError(f"shard {handle.index}: {result}")
        return result

    def _worker_or_raise(self, index: int) -> _WorkerHandle:
        handle = self._workers[index]
        if handle is None:
            raise ValidationError(
                f"shard {index} is quarantined (crash-looped "
                f"{self._quarantine_after} times); it serves stale state "
                f"but accepts no mutations"
            )
        return handle

    def _call(self, index: int, command: str, payload):
        """A worker round trip with full recovery.

        On worker death or hang: restart from the latest valid spool
        generation, replay to the current tick, and retry the command
        — looping until it lands or the shard quarantines.
        """
        while True:
            handle = self._worker_or_raise(index)
            try:
                return self._pipe_call(handle, command, payload)
            except _WorkerGone:
                self._kill_worker(handle)
                self._recover(index, self._tick)

    def _quarantine(self, index: int) -> None:
        """Park a crash-looping shard and keep the fleet serving.

        The shard's last spooled state is kept in-process: telemetry
        and checkpoints serve these (stale) devices, ``info`` reports
        the quarantine, and stepping simply excludes the shard — the
        degraded-but-alive mode a controller in a hardware control
        loop owes its system.
        """
        payload = (
            load_spool(self._spool_dir, index)
            if self._spool_dir is not None
            else None
        )
        devices = list(payload["fleet"]) if payload is not None else []
        self._parked[index] = {
            "tick": payload["tick"] if payload is not None else None,
            "devices": {device.device_id: device for device in devices},
        }
        self._workers[index] = None

    def _recover(self, index: int, target_tick: int) -> _WorkerHandle | None:
        """Restart shard ``index`` from spool and replay to the target.

        Consecutive failures back off exponentially; after
        ``quarantine_after`` failed attempts the shard is quarantined
        and ``None`` is returned.  Success resets the failure count.
        Byte-exactness: replaying from the spooled state redoes the
        missed ticks deterministically, and the one-shot fault ledger
        guarantees an injected fault never re-fires during replay.
        """
        if self._spool_dir is None:
            raise ValidationError(
                f"shard {index} died and spooling is disabled "
                f"(checkpoint_every=0); the run cannot recover"
            )
        while True:
            if self._failures[index] >= self._quarantine_after:
                self._quarantine(index)
                return None
            if self._failures[index] > 0:
                time.sleep(
                    min(
                        self._restart_backoff
                        * 2 ** (self._failures[index] - 1),
                        self._restart_backoff_cap,
                    )
                )
            self._failures[index] += 1
            payload = load_spool(self._spool_dir, index)
            if payload is None:
                raise ValidationError(
                    f"shard {index} died and no spool generation is "
                    f"readable; the run cannot recover"
                )
            fresh = self._spawn(index, list(payload["fleet"]), payload["tick"])
            self._workers[index] = fresh
            self._restarts += 1
            try:
                while fresh.tick < target_tick:
                    next_tick = fresh.tick + 1
                    spool = (
                        self._spool_due(next_tick)
                        or next_tick == target_tick
                    )
                    self._pipe_call(fresh, "step", {"spool": spool})
                    fresh.tick = next_tick
            except _WorkerGone:
                self._kill_worker(fresh)
                continue
            self._failures[index] = 0
            return fresh

    # ------------------------------------------------------------------
    # fleet operations
    # ------------------------------------------------------------------
    def step_tick(self) -> None:
        """Advance every shard one tick, concurrently.

        The step command fans out to all workers before any reply is
        awaited, so shards overlap their serial per-device RNG fan-in
        — the throughput the service exists for.  Workers found dead
        or hung at either phase are recovered (restart-from-spool with
        deterministic replay, backoff, quarantine as a last resort);
        quarantined shards are excluded.
        """
        self._require_started()
        target = self._tick + 1
        spool = self._spool_due(target)
        failed: list[int] = []
        for handle in self._workers:
            if handle is None:
                continue
            try:
                handle.conn.send(("step", {"spool": spool}))
            except OSError:
                self._kill_worker(handle)
                failed.append(handle.index)
        for handle in self._workers:
            if handle is None or handle.index in failed:
                continue
            try:
                status, result = self._recv(handle)
            except _WorkerGone:
                self._kill_worker(handle)
                failed.append(handle.index)
                continue
            if status == "error":
                raise ValidationError(
                    f"shard {handle.index} failed to step: {result}"
                )
            handle.tick = target
            self._failures[handle.index] = 0
        for index in failed:
            self._recover(index, target)
        self._tick = target

    def run(self, n_ticks: int) -> None:
        """Step ``n_ticks`` ticks back to back."""
        n_ticks = int(n_ticks)
        if n_ticks < 0:
            raise ValidationError(f"n_ticks must be >= 0, got {n_ticks}")
        for _ in range(n_ticks):
            self.step_tick()

    def register_devices(self, devices) -> list[str]:
        """Adopt already-built devices into the running fleet.

        Mirrors a single-process fleet performing the same adoptions:
        global order extends in argument order, the version counter
        advances once per device, and the partitioner deals each
        device exactly where a longer initial fleet would have.
        """
        self._require_started()
        devices = list(devices)
        seen: set[str] = set()
        for device in devices:
            if device.device_id in self._owner or device.device_id in seen:
                raise ValidationError(
                    f"duplicate device id {device.device_id!r}"
                )
            seen.add(device.device_id)
            self._check_distributable(device)
        per_shard: dict[int, list[Device]] = {}
        for device, shard in zip(devices, self._partitioner.assign(devices)):
            self._register_canonical(device)
            self._order.append(device.device_id)
            self._owner[device.device_id] = shard
            per_shard.setdefault(shard, []).append(device)
        for shard in sorted(per_shard):
            self._worker_or_raise(shard)
        for shard in sorted(per_shard):
            self._call(shard, "add_devices", per_shard[shard])
        self._version += len(devices)
        return [device.device_id for device in devices]

    def remove_device(self, device_id: str) -> None:
        """Deregister one device fleet-wide."""
        self._require_started()
        device_id = str(device_id)
        shard = self._owner.get(device_id)
        if shard is None:
            raise ValidationError(f"unknown device id {device_id!r}")
        self._call(shard, "remove_device", device_id)
        del self._owner[device_id]
        del self._canonical[device_id]
        self._order.remove(device_id)
        self._version += 1

    def replace_agents(self, pairs) -> None:
        """Push new agents onto live devices (no restart)."""
        self._require_started()
        pairs = [(str(device_id), agent) for device_id, agent in pairs]
        for device_id, agent in pairs:
            if device_id not in self._owner:
                raise ValidationError(f"unknown device id {device_id!r}")
            if not isinstance(agent, PolicyAgent):
                raise ValidationError(
                    f"agent for {device_id!r} must be a PolicyAgent, "
                    f"got {type(agent).__name__}"
                )
        per_shard: dict[int, list[tuple]] = {}
        for device_id, agent in pairs:
            entry = self._canonical[device_id]
            entry.agent = agent if isinstance(agent, StationaryAgent) else None
            per_shard.setdefault(self._owner[device_id], []).append(
                (device_id, agent)
            )
        for shard in sorted(per_shard):
            self._worker_or_raise(shard)
        for shard in sorted(per_shard):
            self._call(shard, "replace_agents", per_shard[shard])
        self._version += len(pairs)

    def collect_records(self) -> list[dict]:
        """Every device's telemetry record, in global registration order.

        Quarantined shards contribute the records of their *parked*
        (last-spooled) devices — stale but present, so fleet telemetry
        keeps its full device census while degraded.
        """
        self._require_started()
        by_id: dict[str, dict] = {}
        for index in range(self._n_shards):
            if self._workers[index] is not None:
                try:
                    for record in self._call(index, "records", None):
                        by_id[record["id"]] = record
                    continue
                except ValidationError:
                    # Quarantined mid-collection: fall through to the
                    # parked state like any other quarantined shard.
                    if self._workers[index] is not None:
                        raise
            for device in self._parked[index]["devices"].values():
                by_id[device.device_id] = device_record(device)
        return [by_id[device_id] for device_id in self._order]

    def gather_fleet(self) -> Fleet:
        """Reassemble the full fleet in-process, canonicalized.

        Devices come back in global registration order with their
        registration-time shared objects re-attached (see the module
        docstring), and the fleet's version counter set to the
        mirrored single-process value — so pickling the result is
        byte-identical to pickling the uninterrupted fleet.
        """
        self._require_started()
        by_id: dict[str, Device] = {}
        for index in range(self._n_shards):
            if self._workers[index] is not None:
                try:
                    for device in self._call(index, "gather", None):
                        by_id[device.device_id] = device
                    continue
                except ValidationError:
                    if self._workers[index] is not None:
                        raise
            for device in self._parked[index]["devices"].values():
                by_id[device.device_id] = device
        fleet = Fleet()
        seen: set = set()
        for device_id in self._order:
            device = by_id[device_id]
            entry = self._canonical[device_id]
            device.system = entry.system
            device.costs = entry.costs
            # The metric-name tuple is rebuilt per device at
            # construction from the (shared) costs strings; rebuild it
            # the same way so the strings memoize identically.
            device.metric_names = tuple(entry.costs.metric_names)
            if entry.agent is not None:
                device.agent = entry.agent
            if entry.trace_counts is not None and isinstance(
                device.stream, TraceStream
            ):
                device.stream.rebind_counts(entry.trace_counts)
            _normalize_dtypes(device, seen)
            fleet.adopt_device(device)
        fleet.version = self._version
        return fleet

    def save_checkpoint(
        self,
        path,
        telemetry_every: int = 1,
        telemetry_per_device: bool = False,
    ) -> None:
        """Write a gathered-fleet checkpoint.

        The payload goes through the same
        :func:`~repro.runtime.checkpoint.checkpoint_payload` producer
        as :meth:`FleetController.save_checkpoint`, with the gathered
        canonical fleet — resumable by either the single-process
        controller or a daemon with any shard count.
        """
        fleet = self.gather_fleet()
        write_checkpoint(
            path,
            checkpoint_payload(
                fleet,
                self._tick,
                self._slices_per_tick,
                self._backend,
                self._chunk_slices,
                telemetry_every,
                telemetry_per_device,
            ),
        )

    def as_controller(self, **kwargs) -> FleetController:
        """A single-process controller over the gathered fleet.

        Mostly a testing aid: proves the gathered state is exactly
        what the single-process path would hold.
        """
        return FleetController(
            self.gather_fleet(),
            slices_per_tick=self._slices_per_tick,
            backend=self._backend,
            chunk_slices=self._chunk_slices,
            initial_tick=self._tick,
            **kwargs,
        )


#: Idempotent-request results remembered (per daemon, newest-first).
_REPLAY_CACHE_SIZE = 256


class _ClientChannel:
    """A :class:`FrameChannel` that survives the client vanishing.

    Sends to a dead client are swallowed (and remembered in
    :attr:`dead`) instead of raised, so a request already dispatched
    — a multi-tick ``step``, most importantly — runs to completion
    and its effects (supervisor ticks, sink telemetry, the replay
    cache) land exactly as if the client had stayed.  The client's
    retry then finds the cached result instead of double-applying.
    """

    def __init__(self, channel: FrameChannel):
        self._channel = channel
        self.dead = False

    def send(self, frame: dict) -> None:
        if self.dead:
            return
        try:
            self._channel.send(frame)
        except (ProtocolError, OSError):
            self.dead = True

    def receive(self) -> dict | None:
        if self.dead:
            return None
        return self._channel.receive()


class FleetDaemon:
    """``AF_UNIX`` accept loop serving the fleet protocol.

    One client at a time, requests served in order — the determinism
    contract leaves no room for concurrent mutation anyway, so the
    serving layer stays trivially correct.  Telemetry emitted during
    ``step`` requests goes to the daemon's own sink (if any) *and* is
    streamed to the requesting client as ``telemetry`` events.

    **Client-failure semantics.**  A client that vanishes mid-request
    never corrupts fleet state: the in-flight request runs to
    completion (a ``step`` finishes its ticks and its telemetry
    reaches the sink), the result is stored in an idempotent replay
    cache keyed by the client-sent ``request_key``, and the daemon
    accepts the next connection.  A reconnecting client retrying the
    same ``request_key`` receives the cached result instead of
    re-executing — so a step is never double-applied no matter how
    many times the socket dies.

    Note the classic ``AF_UNIX`` constraint: socket paths are limited
    to ~100 bytes — keep them short (``/tmp/...``).
    """

    def __init__(
        self,
        socket_path,
        supervisor: ShardSupervisor,
        telemetry=None,
        telemetry_every: int = 1,
        telemetry_per_device: bool = False,
        policy_cache: PolicyCache | None = None,
        next_group_index: int = 0,
    ):
        telemetry_every = int(telemetry_every)
        if telemetry_every <= 0:
            raise ValidationError(
                f"telemetry_every must be > 0, got {telemetry_every}"
            )
        self._socket_path = Path(socket_path)
        self._supervisor = supervisor
        self._telemetry = telemetry
        self._telemetry_every = telemetry_every
        self._telemetry_per_device = bool(telemetry_per_device)
        self._cache = PolicyCache() if policy_cache is None else policy_cache
        self._next_group_index = int(next_group_index)
        self._replay: OrderedDict[str, object] = OrderedDict()
        self._running = False

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def serve_forever(self) -> None:
        """Bind, accept and serve until a ``shutdown`` request.

        Owns cleanup: the socket file is unlinked, the telemetry sink
        closed and the supervisor stopped on the way out, whatever
        path led there.
        """
        if self._socket_path.exists():
            raise ValidationError(
                f"socket path {self._socket_path} already exists; is "
                f"another daemon running? (remove the stale file if not)"
            )
        if not self._supervisor.started:
            self._supervisor.start(Fleet())
        server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            server.bind(str(self._socket_path))
            server.listen(1)
            self._running = True
            while self._running:
                client, _ = server.accept()
                channel = FrameChannel(client, role="server")
                try:
                    self._serve_client(_ClientChannel(channel))
                except (ProtocolError, OSError):
                    # A misbehaving or vanished client never takes the
                    # fleet down; drop it and accept the next one.
                    pass
                finally:
                    channel.close()
        finally:
            server.close()
            if self._socket_path.exists():
                self._socket_path.unlink()
            # Workers first: a telemetry sink that fails to close must
            # never leave worker processes stranded.
            try:
                self._supervisor.stop()
            finally:
                if self._telemetry is not None:
                    self._telemetry.close()

    def _hello(self) -> dict:
        supervisor = self._supervisor
        return hello_data(
            os.getpid(),
            supervisor.tick,
            supervisor.n_devices,
            supervisor.n_shards,
        )

    def _cache_result(self, request_key: str | None, result) -> None:
        """Remember a successful result for idempotent retries.

        Stored *before* the response send is attempted, so a client
        whose socket died between dispatch and response still finds
        the result on retry.  Only successes are cached — errors are
        safe to re-raise and re-report.
        """
        if request_key is None:
            return
        self._replay[request_key] = result
        while len(self._replay) > _REPLAY_CACHE_SIZE:
            self._replay.popitem(last=False)

    def _serve_client(self, channel: _ClientChannel) -> None:
        channel.send(make_event("hello", self._hello()))
        frame = channel.receive()
        if frame is None:
            return
        request_type, request_id, params = validate_request(frame)
        if request_type != "hello":
            channel.send(
                make_error(request_id, "first request must be 'hello'")
            )
            return
        client_protocol = params.get("protocol")
        if client_protocol != PROTOCOL_VERSION:
            channel.send(
                make_error(
                    request_id,
                    f"protocol version mismatch: server speaks "
                    f"{PROTOCOL_VERSION}, client sent {client_protocol!r}",
                )
            )
            return
        channel.send(make_response(request_id, self._hello()))
        while self._running:
            frame = channel.receive()
            if frame is None:
                return
            request_type, request_id, params = validate_request(frame)
            request_key = params.pop("request_key", None)
            if request_type == "shutdown":
                channel.send(make_response(request_id, {"stopped": True}))
                self._running = False
                return
            if request_key is not None and request_key in self._replay:
                # Idempotent retry: the request already executed (its
                # client just never saw the response) — serve the
                # cached result, never re-apply.
                channel.send(
                    make_response(request_id, self._replay[request_key])
                )
                if channel.dead:
                    return
                continue
            try:
                result = self._dispatch(request_type, request_id, params, channel)
            except (ProtocolError, OSError):
                raise
            except Exception as exc:
                channel.send(make_error(request_id, str(exc)))
            else:
                self._cache_result(request_key, result)
                channel.send(make_response(request_id, result))
            if channel.dead:
                return

    # ------------------------------------------------------------------
    # request handlers
    # ------------------------------------------------------------------
    def _fleet_snapshot(  # repro-lint: schema=repro.runtime.telemetry:SNAPSHOT_FIELDS
        self, per_device: bool
    ) -> dict:
        """The daemon-side snapshot: reordered records, shared fold.

        Stamped with the supervisor's resolved backend exactly like
        :meth:`FleetController.snapshot` — byte-identical output for
        equal fleet state.
        """
        supervisor = self._supervisor
        record = snapshot_from_records(
            supervisor.tick,
            supervisor.collect_records(),
            per_device=per_device,
        )
        record["backend"] = supervisor.resolved_backend
        # Only stamped while degraded: fault-free (and fully recovered)
        # snapshots stay byte-identical to single-process ones.
        quarantined = supervisor.quarantined
        if quarantined:
            record["quarantined"] = quarantined
        return record

    def _emit_telemetry(self, channel: FrameChannel, request_id: int) -> None:
        record = self._fleet_snapshot(self._telemetry_per_device)
        if self._telemetry is not None:
            self._telemetry.record(record)
        channel.send(make_event("telemetry", record, request_id))

    def _dispatch(
        self,
        request_type: str,
        request_id: int,
        params: dict,
        channel: FrameChannel,
    ):
        supervisor = self._supervisor
        if request_type == "hello":
            return self._hello()
        if request_type == "ping":
            return {"pong": True, "tick": supervisor.tick}
        if request_type == "info":
            return supervisor.info()
        if request_type == "register_group":
            group = params.get("group")
            if not isinstance(group, dict):
                raise ProtocolError(
                    "register_group needs a 'group' mapping parameter"
                )
            group_index = params.get("group_index")
            if group_index is None:
                group_index = self._next_group_index
            devices = build_group_devices(
                group,
                group_index=int(group_index),
                base_seed=int(params.get("base_seed", 0)),
                lp_backend=supervisor.lp_backend,
                cache=self._cache,
            )
            device_ids = supervisor.register_devices(devices)
            self._next_group_index = max(
                self._next_group_index, int(group_index) + 1
            )
            return {
                "device_ids": device_ids,
                "n_devices": supervisor.n_devices,
                "group_index": int(group_index),
            }
        if request_type == "remove_device":
            device_id = str(params.get("device_id", ""))
            supervisor.remove_device(device_id)
            return {
                "device_id": device_id,
                "n_devices": supervisor.n_devices,
            }
        if request_type == "update_policy":
            device_id = str(params.get("device_id", ""))
            agent_spec = params.get("agent")
            if not isinstance(agent_spec, dict):
                raise ProtocolError(
                    "update_policy needs an 'agent' mapping parameter"
                )
            system, costs = supervisor.canonical_model(device_id)
            agent = build_agent_from_spec(
                agent_spec,
                system,
                costs,
                cache=self._cache,
                lp_backend=supervisor.lp_backend,
            )
            supervisor.replace_agents([(device_id, agent)])
            return {"device_id": device_id, "agent": agent.describe()}
        if request_type == "step":
            n_ticks = int(params.get("ticks", 1))
            if n_ticks < 0:
                raise ProtocolError(f"ticks must be >= 0, got {n_ticks}")
            for _ in range(n_ticks):
                supervisor.step_tick()
                if supervisor.tick % self._telemetry_every == 0:
                    self._emit_telemetry(channel, request_id)
            return {"tick": supervisor.tick, "ticks_run": n_ticks}
        if request_type == "snapshot":
            return self._fleet_snapshot(bool(params.get("per_device", False)))
        if request_type == "checkpoint":
            path = params.get("path")
            if not path:
                raise ProtocolError("checkpoint needs a 'path' parameter")
            supervisor.save_checkpoint(
                path,
                telemetry_every=int(
                    params.get("telemetry_every", self._telemetry_every)
                ),
                telemetry_per_device=bool(
                    params.get(
                        "telemetry_per_device", self._telemetry_per_device
                    )
                ),
            )
            return {"path": str(path), "tick": supervisor.tick}
        raise ProtocolError(  # pragma: no cover - validate_request gates
            f"unhandled request type {request_type!r}"
        )
