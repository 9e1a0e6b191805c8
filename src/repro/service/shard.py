"""Shard workers: one process, one fleet partition, full determinism.

A shard worker owns a slice of the fleet — the devices, their RNG
streams, their agents — and steps it with a private
:class:`~repro.runtime.controller.FleetController`.  Because device
randomness is per-device (``device_rng`` spawn keys) and the
controller's grouped stepping is bitwise grouping-invariant, a device
produces *exactly* the same state trajectory inside any shard as it
would in the single-process controller: sharding buys wall-clock
parallelism for the per-device uniform fan-in without touching a
single byte of the results.  Each worker's controller picks its
per-lane uniform producer by the same rule as a single-process one
(vectorized PCG64 where every stream allows it, serial fan-in
otherwise); the two are byte-identical, so re-partitioning a fleet
never changes what any device consumes.

Partitioning is content-addressed: :class:`Partitioner` deals devices
round-robin across shards per content key — the same
:func:`~repro.runtime.fleet.group_keys` key the controller batches on
(system content, costs content, policy determinism — or the loop
marker for devices the batch kernel cannot express).  Equal-key
devices are the ones that batch together, so the deal keeps every
shard's batches big while the ordinal counters make assignment a pure
function of registration order — live registrations continue the
sequence deterministically.

Workers talk to the supervisor over a ``multiprocessing`` pipe with
pickled ``(command, payload)`` tuples — the JSON protocol is for
clients; fleet state (Device records, agents, generators) moves
between daemon and workers in its native object form.  After every
membership change and on the supervisor's checkpoint cadence the
worker spools its partition to a per-shard checkpoint file, which is
what the supervisor replays from when a worker dies mid-run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import faults
from repro.faults.plan import FaultPlan
from repro.runtime.checkpoint import checkpoint_payload
from repro.runtime.controller import FLEET_CHUNK_SLICES, FleetController
from repro.runtime.fleet import Fleet, group_keys
from repro.runtime.telemetry import device_record
from repro.service.spool import SpoolSlot
from repro.util.validation import ValidationError

__all__ = [
    "Partitioner",
    "ShardConfig",
    "shard_worker_main",
]

#: Telemetry cadence no run reaches: shard controllers never emit —
#: the daemon aggregates device records itself, in global order.
_NEVER_EMIT = 2**62


class Partitioner:
    """Stateful round-robin dealer of equal-content devices.

    Assignment is ``ordinal(key) % n_shards`` where ``key`` is a
    device's :func:`~repro.runtime.fleet.group_keys` content key and
    the ordinal counts devices of that key ever assigned — a pure
    function of registration order, so re-running the same
    registrations always produces the same partition, and a later live
    registration slots in exactly where a longer initial fleet would
    have put it.
    """

    def __init__(self, n_shards: int):
        n_shards = int(n_shards)
        if n_shards <= 0:
            raise ValidationError(f"n_shards must be > 0, got {n_shards}")
        self._n_shards = n_shards
        self._ordinals: dict[tuple, int] = {}

    @property
    def n_shards(self) -> int:
        """Number of shards devices are dealt across."""
        return self._n_shards

    def assign(self, devices) -> list[int]:
        """Deal a batch of devices in order; returns their shard indices."""
        shards = []
        for key, _ in group_keys(devices):
            ordinal = self._ordinals.get(key, 0)
            self._ordinals[key] = ordinal + 1
            shards.append(ordinal % self._n_shards)
        return shards


@dataclass(frozen=True)
class ShardConfig:
    """Everything a worker needs to rebuild its controller.

    ``spool_dir`` is where the worker writes its alternating
    restart-checkpoint generations (see
    :class:`~repro.service.spool.SpoolSlot`), or ``None`` when
    spooling is disabled (``checkpoint_every=0`` — worker death then
    loses the run).  ``fault_plan`` / ``fault_ledger`` carry the
    supervisor's chaos script into the worker process so injected
    faults fire in exactly one process per scripted fault regardless
    of the multiprocessing start method.
    """

    index: int
    slices_per_tick: int
    backend: str = "auto"
    chunk_slices: int | None = None
    spool_dir: str | None = None
    fault_plan: FaultPlan | None = None
    fault_ledger: str | None = None


class _ShardWorker:
    """The in-process side of one shard: a sub-fleet plus dispatch.

    The controller is built lazily (a shard may start — or become —
    empty) with ``initial_tick`` set to the worker's own tick counter,
    so telemetry cadence and slice accounting continue seamlessly
    across membership changes and restarts.
    """

    def __init__(self, config: ShardConfig, devices, tick: int):
        self._config = config
        self._fleet = Fleet()
        for device in devices:
            self._fleet.adopt_device(device)
        self._tick = int(tick)
        self._controller: FleetController | None = None
        self._spool = (
            SpoolSlot(config.spool_dir, config.index)
            if config.spool_dir is not None
            else None
        )
        #: Spool writes lost to I/O failure (degraded durability: the
        #: previous generation still restores, one tick older).
        self._spool_failures = 0

    # ------------------------------------------------------------------
    # controller lifecycle
    # ------------------------------------------------------------------
    def _controller_for_step(self) -> FleetController | None:
        if len(self._fleet) == 0:
            self._controller = None
            return None
        if self._controller is None:
            self._controller = FleetController(
                self._fleet,
                slices_per_tick=self._config.slices_per_tick,
                backend=self._config.backend,
                telemetry_every=_NEVER_EMIT,
                chunk_slices=self._config.chunk_slices,
                initial_tick=self._tick,
            )
        return self._controller

    def _write_spool(self) -> None:
        if self._spool is None:
            return
        chunk = self._config.chunk_slices
        payload = checkpoint_payload(
            self._fleet,
            self._tick,
            self._config.slices_per_tick,
            self._config.backend,
            FLEET_CHUNK_SLICES if chunk is None else chunk,
            1,
            False,
        )
        try:
            path = self._spool.write(payload)
        except OSError:
            # A spool generation lost to an I/O failure is degraded
            # durability, not a dead shard: the previous generation
            # still restores (one tick of extra replay).
            self._spool_failures += 1
            return
        # Post-write corruption hook: chaos plans truncate/bit-flip
        # the landed generation here to prove the CRC fall-back.
        faults.SPOOL_WRITTEN.fire(
            shard=self._config.index, tick=self._tick, path=str(path)
        )

    # ------------------------------------------------------------------
    # command handlers
    # ------------------------------------------------------------------
    def _handle_step(self, payload: dict):
        controller = self._controller_for_step()
        if controller is not None:
            controller.step_tick()
            self._tick = controller.tick
        else:
            self._tick += 1
        if payload.get("spool"):
            self._write_spool()
        return self._tick

    def _handle_records(self, payload):
        return [device_record(device) for device in self._fleet]

    def _handle_gather(self, payload):
        return list(self._fleet)

    def _handle_add_devices(self, payload):
        for device in payload:
            self._fleet.adopt_device(device)
        self._write_spool()
        return len(self._fleet)

    def _handle_remove_device(self, payload):
        self._fleet.remove_device(payload)
        self._write_spool()
        return len(self._fleet)

    def _handle_replace_agents(self, payload):
        for device_id, agent in payload:
            self._fleet.replace_agent(device_id, agent)
        self._write_spool()
        return len(payload)

    def _handle_ping(self, payload):
        return {
            "tick": self._tick,
            "n_devices": len(self._fleet),
            "spool_failures": self._spool_failures,
        }

    def dispatch(self, command: str, payload):
        """Route one pipe command to its handler."""
        handler = getattr(self, f"_handle_{command}", None)
        if handler is None:
            raise ValidationError(f"unknown shard command {command!r}")
        return handler(payload)

    def serve(self, conn) -> None:
        """Blocking command loop over the supervisor pipe.

        Every command gets exactly one ``("ok", result)`` or
        ``("error", text)`` reply; handler failures are reported, not
        fatal, so one bad request cannot kill a shard.
        """
        self._write_spool()
        while True:
            try:
                command, payload = conn.recv()
            except (EOFError, OSError):
                break
            if command == "stop":
                conn.send(("ok", None))
                break
            # The chaos hook: scripted kills SIGKILL here, hangs sleep
            # past the supervisor deadline, injected errors propagate
            # and crash the worker (a clean worker-internal-fault
            # death, distinct from SIGKILL) — all before the command
            # touches fleet state, so a restarted worker replays it
            # deterministically.
            faults.WORKER_COMMAND.fire(
                shard=self._config.index,
                command=command,
                tick=self._tick + 1 if command == "step" else self._tick,
            )
            try:
                result = self.dispatch(command, payload)
            except Exception as exc:
                conn.send(("error", f"{type(exc).__name__}: {exc}"))
            else:
                conn.send(("ok", result))
        conn.close()


def shard_worker_main(conn, config: ShardConfig, devices, tick: int) -> None:
    """Process entry point: adopt the partition, serve the pipe.

    Fault injection is (re)installed from the config — not inherited
    ambiently — so the worker's injector state is the same whether the
    process was forked or spawned.
    """
    if config.fault_plan is not None and config.fault_ledger is not None:
        faults.install(config.fault_plan, config.fault_ledger)
    else:
        faults.uninstall()
    _ShardWorker(config, devices, tick).serve(conn)
