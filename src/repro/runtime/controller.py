"""The fleet controller: step thousands of devices through time.

:class:`FleetController` advances a registered
:class:`~repro.runtime.fleet.Fleet` tick by tick
(``slices_per_tick`` slices each).  The hot path is *grouped batch
stepping*: devices sharing a ``(system, costs, policy-determinism)``
signature are packed into one batch of the joint-state chunk kernel —
their distinct policies stacked into a single
:class:`~repro.sim.backends.vector.CompiledPolicyBatch` — so a
thousand stationary devices advance in a handful of fused calls per
chunk instead of a thousand Python loops.  The kernel itself is the
resolved batch tier: :mod:`~repro.sim.backends.vector` or, when numba
is installed, the byte-identical compiled stepper of
:mod:`~repro.sim.backends.jit` (what lifts the grouped path to
100k+-device ticks; groups that large are sharded into
:data:`FLEET_LANE_BLOCK`-lane blocks to bound buffer sizes).  Devices
the kernel cannot express (stateful heuristics, adaptive agents,
stream-driven workloads) fall back to a resumable per-device loop with
the reference semantics of :class:`~repro.sim.backends.loop.LoopBackend`.

Determinism is per-device, not per-run: each device owns its generator
and the batch draws every lane's uniforms from its own stream through
a :class:`~repro.sim.rng.UniformSource` — the byte-identical
vectorized :class:`~repro.sim.rng_batched.BatchedPCG64Source` whenever
every stream in a lane block is a clean PCG64 on a numpy build that
passes its self-check, the serial :class:`~repro.sim.rng.FanInSource`
otherwise — always at a pinned chunk
length (:data:`FLEET_CHUNK_SLICES` unless overridden — the pin is part
of the reproducibility contract and is checkpointed).  A device therefore consumes
*exactly the same uniforms through the same reduction boundaries* no
matter how it is grouped, what else is in the fleet, or whether the
campaign was checkpoint/resumed — fleet results are bitwise
reproducible from per-device seeds alone.  (One documented exception:
adaptive devices sharing a *warm-starting* policy cache can pick
different tied-optimal vertices depending on cache history — see the
determinism note on :class:`~repro.runtime.policy_cache.PolicyCache`.)
"""

from __future__ import annotations

import time

import numpy as np

from repro.policies.base import Observation
from repro.runtime.fleet import Device, Fleet, group_keys
from repro.runtime.telemetry import snapshot
from repro.sim.backends import get_backend, preferred_batch_backend
from repro.sim.backends.base import SimulationTables
from repro.sim.backends.vector import CompiledPolicyBatch
from repro.sim.rng import FanInSource, sample_categorical
from repro.util.validation import ValidationError

__all__ = [
    "FLEET_CHUNK_SLICES",
    "FLEET_LANE_BLOCK",
    "FleetController",
    "resolve_backend_name",
]

#: Default pinned chunk length for fleet batches.  A constant (rather
#: than the kernel's lane-count-scaled uniform budget) keeps each
#: lane's summation tree identical whether the device steps alone or
#: among thousands — the bitwise half of the fleet determinism
#: contract.  256 slices x 4 uniform kinds x 1024 lanes is an 8 MB
#: draw buffer.
FLEET_CHUNK_SLICES = 256

#: Lanes stepped per kernel call.  Groups larger than this are sharded
#: into consecutive lane blocks so a 100k-device group draws bounded
#: uniform buffers (256 x 4 x 16384 is ~134 MB) instead of one
#: fleet-sized allocation.  Bitwise neutral: every lane draws from its
#: own device stream through its block's uniform source and chunk
#: boundaries are per-lane, so block boundaries change *which call*
#: steps a lane, never what it consumes or how its sums associate.
FLEET_LANE_BLOCK = 16_384

#: Accepted ``backend`` values for the controller.
CONTROLLER_BACKENDS = ("auto", "loop", "vector", "jit")


def resolve_backend_name(backend: str) -> str:
    """What :attr:`FleetController.resolved_backend` would report for
    ``backend`` on this machine, without building a controller.

    The service daemon stamps telemetry records it aggregates from
    shard workers; resolving centrally (instead of asking a worker)
    keeps the stamp available even while shards are restarting.
    """
    if backend not in CONTROLLER_BACKENDS:
        raise ValidationError(
            f"unknown controller backend {backend!r}; "
            f"choose from {CONTROLLER_BACKENDS}"
        )
    if backend == "loop":
        return "loop"
    if backend == "auto":
        return preferred_batch_backend().name
    return get_backend(backend).name


def _lane_block_source(generators, n_kinds: int, max_chunk: int):
    """Build one lane block's :class:`~repro.sim.rng.UniformSource`.

    The vectorized :class:`~repro.sim.rng_batched.BatchedPCG64Source`
    when this numpy build passed the byte-identity self-check and every
    stream in the block is a clean PCG64, else the serial
    :class:`FanInSource`.  Both serve identical bytes, so the choice
    changes speed only, never results.
    """
    from repro.sim import rng_batched

    generators = list(generators)
    if rng_batched.batched_available() and all(
        rng_batched.supports_generator(generator) for generator in generators
    ):
        return rng_batched.BatchedPCG64Source(
            generators, n_kinds=n_kinds, max_chunk=max_chunk
        )
    return FanInSource(generators, n_kinds=n_kinds, max_chunk=max_chunk)


class _VectorGroup:
    """One compiled batch: devices sharing a group signature.

    ``step_lanes`` is the resolved batch tier's bound stepper
    (``VectorBackend.step_lanes`` or ``JitBackend.step_lanes``) — the
    two are byte-identical, so the choice affects speed only.
    """

    def __init__(
        self,
        devices: list[Device],
        policy_sigs: list[str],
        step_lanes,
        chunk_slices: int,
    ):
        self.devices = devices
        self._step_lanes = step_lanes
        self._chunk_slices = int(chunk_slices)
        # One UniformSource per lane block, built lazily on the first
        # step and reused while the group cache lives (the controller
        # rebuilds groups — and therefore sources — whenever fleet
        # membership changes).  Caching is what makes the batched
        # producer pay: its stacked state imports once, then advances
        # as array math with the backing generators re-synced after
        # every step.  Device streams are runtime-owned between ticks
        # (nothing else draws from a grouped device's generator), so a
        # cached source never goes stale.
        self._sources: dict[int, object] = {}
        first = devices[0]
        self.tables = first.compile_tables()
        # Distinct policies within the group (by the content signatures
        # of :func:`~repro.runtime.fleet.group_keys`) are stacked once;
        # lanes index into the stack (1024 identical devices compile
        # one row).
        unique: dict[str, int] = {}
        policies = []
        for device, signature in zip(devices, policy_sigs):
            if signature not in unique:
                unique[signature] = len(policies)
                policies.append(device.agent.stationary_policy(device.system))
        self.compiled = CompiledPolicyBatch.compile(first.system, policies)
        self.policy_of_lane = np.asarray(
            [unique[signature] for signature in policy_sigs], dtype=np.int64
        )
        self.n_policies = len(policies)

    def step(self, n_slices: int) -> None:
        """Advance every device in the group by ``n_slices`` slices."""
        # The kernel draws (chunk, kinds, lanes) blocks with kinds
        # fixed by policy determinism; declaring the geometry lets the
        # source reject a desynchronizing request instead of serving it.
        n_kinds = 3 if self.compiled.fully_deterministic else 4
        for base in range(0, len(self.devices), FLEET_LANE_BLOCK):
            block = self.devices[base : base + FLEET_LANE_BLOCK]
            source = self._sources.get(base)
            if source is None:
                source = _lane_block_source(
                    (d.rng for d in block), n_kinds, self._chunk_slices
                )
                self._sources[base] = source
            starts = (
                np.asarray([d.state[0] for d in block], dtype=np.int64),
                np.asarray([d.state[1] for d in block], dtype=np.int64),
                np.asarray([d.state[2] for d in block], dtype=np.int64),
            )
            lengths = np.full(len(block), int(n_slices), dtype=np.int64)
            try:
                acc = self._step_lanes(
                    self.tables,
                    self.compiled,
                    self.policy_of_lane[base : base + len(block)],
                    lengths,
                    starts,
                    source,
                    chunk_slices=self._chunk_slices,
                )
            finally:
                # Batched sources serve draws from stacked state; the
                # sync advances the backing generators to match so the
                # devices' streams stay canonical even if the kernel
                # raised mid-chunk.
                sync = getattr(source, "sync", None)
                if sync is not None:
                    sync()
            for lane, device in enumerate(block):
                device.totals += acc.totals[:, lane]
                device.command_counts += acc.command_counts[lane]
                device.provider_occupancy += acc.provider_occupancy[lane]
                device.arrivals += int(acc.arrivals[lane])
                device.serviced += int(acc.serviced[lane])
                device.lost += int(acc.lost[lane])
                device.loss_event_slices += int(acc.loss_events[lane])
                device.state = tuple(int(v) for v in acc.final_state[lane])
                device.slices += int(n_slices)


def _step_device_loop(
    device: Device, tables: SimulationTables, n_slices: int
) -> None:
    """Resumable reference loop: one device, ``n_slices`` slices.

    Model-driven devices reproduce
    :class:`~repro.sim.backends.loop.LoopBackend` semantics slice for
    slice (agent draw if any, SP draw, SR draw, service Bernoulli only
    when work is pending) but continue from the device's persisted
    state instead of resetting.  Stream-driven devices replace the SR
    draw with the stream's arrival counts and track the observed SR
    state (the fleet rendition of paper Section V's trace-driven mode).
    """
    s, r, q = device.state
    agent, rng = device.agent, device.rng
    metric_stack = tables.metric_stack
    sp_cum, sr_cum = tables.sp_cum, tables.sr_cum
    rates = tables.rates
    arrivals_of, issuing = tables.arrivals_of, tables.issuing
    capacity, n_sr, n_sq = tables.capacity, tables.n_sr, tables.n_sq
    n_commands = tables.n_commands
    counts = (
        device.stream.next_counts(n_slices)
        if device.stream is not None
        else None
    )
    prev_arrivals = device.prev_arrivals
    base_slice = device.slices

    totals = np.zeros(len(device.metric_names))
    for t in range(int(n_slices)):
        observation = Observation(
            provider_state=s,
            requester_state=r,
            queue_length=q,
            arrivals=prev_arrivals,
            slice_index=base_slice + t,
        )
        a = int(agent.select_command(observation, rng))
        if not 0 <= a < n_commands:
            raise ValidationError(
                f"device {device.device_id!r}: agent returned command {a}, "
                f"valid range is [0, {n_commands})"
            )

        joint = (s * n_sr + r) * n_sq + q
        totals += metric_stack[:, joint, a]
        device.command_counts[a] += 1
        device.provider_occupancy[s] += 1
        if counts is None:
            at_risk = issuing[r] and q == capacity
        else:
            at_risk = prev_arrivals > 0 and q == capacity
        if at_risk:
            device.loss_event_slices += 1

        s_next = sample_categorical(sp_cum[a, s], rng)
        if counts is None:
            r_next = sample_categorical(sr_cum[r], rng)
            z = int(arrivals_of[r_next])
        else:
            z = int(counts[t])
            r_next = device.tracker.update(z)
        pending = q + z
        served = 0
        if pending > 0 and rng.random() < rates[s, a]:
            served = 1
        q_next = min(pending - served, capacity)

        device.arrivals += z
        device.serviced += served
        device.lost += max(pending - served - capacity, 0)
        prev_arrivals = z
        s, r, q = s_next, r_next, q_next

    device.totals += totals
    device.state = (s, r, q)
    device.prev_arrivals = prev_arrivals
    device.slices += int(n_slices)


class FleetController:
    """Long-lived online controller over a device fleet.

    Parameters
    ----------
    fleet:
        The registered devices.  Membership may change between ticks
        (``add_device``/``remove_device``); the controller regroups and
        recompiles lazily.
    slices_per_tick:
        Slices every device advances per :meth:`step_tick`.
    backend:
        ``"auto"`` (group vector-eligible devices through the
        preferred batch tier — jit when numba imports, else vector —
        and loop the rest), ``"loop"`` (everything through the
        per-device loop — the benchmark baseline), ``"vector"``, or
        ``"jit"`` (require every device to be vector-eligible;
        ``"jit"`` additionally requires numba and fails with an
        actionable message without it).  Vector and jit results are
        byte-identical.
    chunk_slices:
        Pinned chunk length for the grouped batches (default
        :data:`FLEET_CHUNK_SLICES`).  Devices stepped under *the same
        pin* are bitwise reproducible regardless of grouping; changing
        the pin regroups each lane's float partial sums, so totals are
        only guaranteed to match across runs that share the value.
    record_timing:
        Stamp each emitted telemetry record with per-tick wall-clock
        (``timing``: tick/step/solve seconds).  Opt-in because wall
        times are *not* a pure function of fleet state — enabling it
        forfeits byte-identical telemetry across machines and resumed
        runs (the determinism suite's contract).
    policy_cache:
        The :class:`~repro.runtime.policy_cache.PolicyCache` adaptive
        devices solve through, if any — lets ``record_timing``
        attribute a tick's wall-clock to stepping vs LP solving.
    telemetry:
        Optional sink with a ``record(dict)`` method
        (:class:`~repro.runtime.telemetry.MemoryTelemetry` /
        :class:`~repro.runtime.telemetry.JsonLinesTelemetry`).
    telemetry_every:
        Ticks between snapshots.
    telemetry_per_device:
        Include per-device sub-records in each snapshot.
    initial_tick:
        Tick counter to start from (default 0).  :meth:`resume` and the
        service shard workers use it so a rebuilt controller's tick —
        and therefore its telemetry cadence — continues seamlessly.

    Examples
    --------
    >>> from repro.policies import StationaryPolicyAgent, eager_markov_policy
    >>> from repro.runtime import Fleet, FleetController, device_rng
    >>> from repro.systems import example_system
    >>> bundle = example_system.build()
    >>> policy = eager_markov_policy(bundle.system, "s_on", "s_off")
    >>> fleet = Fleet()
    >>> for i in range(4):
    ...     _ = fleet.add_device(
    ...         f"dev-{i}", bundle.system, bundle.costs,
    ...         StationaryPolicyAgent(bundle.system, policy),
    ...         rng=device_rng(0, i),
    ...     )
    >>> controller = FleetController(fleet, slices_per_tick=100)
    >>> controller.run(3)
    >>> controller.tick, fleet.total_slices
    (3, 1200)
    """

    def __init__(
        self,
        fleet: Fleet,
        slices_per_tick: int = 1000,
        backend: str = "auto",
        telemetry=None,
        telemetry_every: int = 1,
        telemetry_per_device: bool = False,
        chunk_slices: int | None = None,
        record_timing: bool = False,
        policy_cache=None,
        initial_tick: int = 0,
    ):
        slices_per_tick = int(slices_per_tick)
        if slices_per_tick <= 0:
            raise ValidationError(
                f"slices_per_tick must be > 0, got {slices_per_tick}"
            )
        if backend not in CONTROLLER_BACKENDS:
            raise ValidationError(
                f"unknown controller backend {backend!r}; "
                f"choose from {CONTROLLER_BACKENDS}"
            )
        telemetry_every = int(telemetry_every)
        if telemetry_every <= 0:
            raise ValidationError(
                f"telemetry_every must be > 0, got {telemetry_every}"
            )
        if chunk_slices is None:
            chunk_slices = FLEET_CHUNK_SLICES
        chunk_slices = int(chunk_slices)
        if chunk_slices <= 0:
            raise ValidationError(
                f"chunk_slices must be > 0, got {chunk_slices}"
            )
        initial_tick = int(initial_tick)
        if initial_tick < 0:
            raise ValidationError(
                f"initial_tick must be >= 0, got {initial_tick}"
            )
        self._fleet = fleet
        self._slices_per_tick = slices_per_tick
        self._backend = backend
        # Resolve the batch tier up front: a "jit" request on a machine
        # without numba should fail at construction with the actionable
        # registry message, not on the first tick.
        if backend == "loop":
            self._batch_backend = None
        elif backend == "auto":
            self._batch_backend = preferred_batch_backend()
        else:
            self._batch_backend = get_backend(backend)
        self._chunk_slices = chunk_slices
        self._record_timing = bool(record_timing)
        self._policy_cache = policy_cache
        self._last_timing: dict | None = None
        self._telemetry = telemetry
        self._telemetry_every = telemetry_every
        self._telemetry_per_device = bool(telemetry_per_device)
        self._tick = initial_tick
        # Compiled-group caches, invalidated on fleet membership changes.
        self._groups_version = -1
        self._vector_groups: list[_VectorGroup] = []
        self._loop_devices: list[Device] = []
        self._loop_tables: dict[str, SimulationTables] = {}

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def fleet(self) -> Fleet:
        """The managed fleet."""
        return self._fleet

    @property
    def tick(self) -> int:
        """Ticks completed so far."""
        return self._tick

    @property
    def slices_per_tick(self) -> int:
        """Slices every device advances per tick."""
        return self._slices_per_tick

    @property
    def backend(self) -> str:
        """The requested stepping mode (``auto``/``loop``/``vector``/``jit``)."""
        return self._backend

    @property
    def resolved_backend(self) -> str:
        """The batch tier the grouped hot path actually runs on.

        ``"loop"`` when the controller loops everything, else the
        resolved batch backend's registry name (``"vector"`` or
        ``"jit"`` — what ``"auto"`` picked).  Stamped on every
        telemetry snapshot so regressions can be attributed.
        """
        if self._batch_backend is None:
            return "loop"
        return self._batch_backend.name

    @property
    def chunk_slices(self) -> int:
        """The pinned chunk length grouped batches step with."""
        return self._chunk_slices

    @property
    def last_timing(self) -> dict | None:
        """Wall-clock of the most recent tick (None before any tick or
        when ``record_timing`` is off): ``tick_seconds`` total,
        ``step_seconds`` stepping, ``solve_seconds`` LP time the policy
        cache attributed during the tick."""
        return self._last_timing

    def grouping(self) -> dict:
        """How the current fleet splits into batches (for reporting)."""
        self._refresh_groups()
        return {
            "vector_groups": [
                {
                    "devices": len(group.devices),
                    "distinct_policies": group.n_policies,
                }
                for group in self._vector_groups
            ],
            "loop_devices": len(self._loop_devices),
        }

    def snapshot(  # repro-lint: schema=repro.runtime.telemetry:SNAPSHOT_FIELDS
        self, per_device: bool | None = None
    ) -> dict:
        """A telemetry snapshot of the current fleet state.

        Stamped with :attr:`resolved_backend` — a pure function of the
        controller's configuration and environment, so the snapshot
        stays byte-identical across checkpoint/resume on one machine.
        """
        if per_device is None:
            per_device = self._telemetry_per_device
        record = snapshot(self._fleet, self._tick, per_device=per_device)
        record["backend"] = self.resolved_backend
        return record

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    def _refresh_groups(self) -> None:
        if self._groups_version == self._fleet.version:
            return
        grouped: dict[tuple, tuple[list[Device], list[str]]] = {}
        loop_devices: list[Device] = []
        # Tables are cached per (system, costs) content and mapped by
        # device id — never stashed on the Device record, which must
        # stay free of incidental attributes so checkpoints pickle the
        # same bytes however the fleet was stepped (or sharded).
        compiled: dict[tuple, SimulationTables] = {}
        loop_tables: dict[str, SimulationTables] = {}
        for device, (key, policy_sig) in zip(self._fleet, group_keys(self._fleet)):
            if self._backend == "vector" and policy_sig is None:
                raise ValidationError(
                    f"backend 'vector' requires every device to be "
                    f"vector-eligible; {device.device_id!r} "
                    f"({device.agent.describe()}, "
                    f"{'stream' if device.stream else 'model'}-driven) is not"
                )
            if policy_sig is not None and self._backend != "loop":
                devices, policy_sigs = grouped.setdefault(key, ([], []))
                devices.append(device)
                policy_sigs.append(policy_sig)
                continue
            loop_devices.append(device)
            model = key[:2]
            if model not in compiled:
                compiled[model] = device.compile_tables()
            loop_tables[device.device_id] = compiled[model]
        self._vector_groups = [
            _VectorGroup(
                devices,
                policy_sigs,
                self._batch_backend.step_lanes,
                self._chunk_slices,
            )
            for devices, policy_sigs in grouped.values()
        ]
        self._loop_devices = loop_devices
        self._loop_tables = loop_tables
        self._groups_version = self._fleet.version

    def step_tick(  # repro-lint: schema=repro.runtime.telemetry:SNAPSHOT_FIELDS
        self,
    ) -> dict | None:
        """Advance every device by one tick; maybe emit telemetry.

        Returns the telemetry record when this tick emitted one (the
        sink, if any, receives it too), else ``None``.
        """
        if len(self._fleet) == 0:
            raise ValidationError("cannot step an empty fleet")
        self._refresh_groups()
        timing = self._record_timing
        if timing:
            solve_before = (
                self._policy_cache.stats.solve_seconds
                if self._policy_cache is not None
                else 0.0
            )
            tick_start = time.perf_counter()
        for group in self._vector_groups:
            group.step(self._slices_per_tick)
        for device in self._loop_devices:
            tables = self._loop_tables[device.device_id]
            _step_device_loop(device, tables, self._slices_per_tick)
        if timing:
            tick_seconds = time.perf_counter() - tick_start
            solve_seconds = (
                self._policy_cache.stats.solve_seconds - solve_before
                if self._policy_cache is not None
                else 0.0
            )
            # Adaptive-device solves run *inside* the stepping loop, so
            # the split subtracts them back out of the step share.
            self._last_timing = {
                "tick_seconds": tick_seconds,
                "step_seconds": max(tick_seconds - solve_seconds, 0.0),
                "solve_seconds": solve_seconds,
            }
        self._tick += 1
        if self._tick % self._telemetry_every == 0:
            record = self.snapshot()
            if timing:
                record["timing"] = dict(self._last_timing)
            if self._telemetry is not None:
                self._telemetry.record(record)
            return record
        return None

    def run(self, n_ticks: int) -> None:
        """Run ``n_ticks`` ticks back to back."""
        n_ticks = int(n_ticks)
        if n_ticks < 0:
            raise ValidationError(f"n_ticks must be >= 0, got {n_ticks}")
        for _ in range(n_ticks):
            self.step_tick()

    # ------------------------------------------------------------------
    # checkpointing (delegates to repro.runtime.checkpoint)
    # ------------------------------------------------------------------
    def save_checkpoint(self, path) -> None:
        """Persist the full fleet state (RNG streams included)."""
        from repro.runtime.checkpoint import save_checkpoint

        save_checkpoint(path, self)

    @classmethod
    def resume(
        cls,
        path,
        telemetry=None,
        telemetry_every: int | None = None,
        telemetry_per_device: bool | None = None,
        backend: str | None = None,
        record_timing: bool = False,
        policy_cache=None,
    ) -> "FleetController":
        """Rebuild a controller from a checkpoint and continue.

        Telemetry sinks are not part of the checkpoint (they hold open
        file handles); pass a fresh one.  ``backend`` overrides the
        saved stepping mode when given — safe, because per-device
        streams make results grouping-invariant.  The saved
        ``chunk_slices`` pin is always restored (overriding it would
        silently regroup the resumed run's float partial sums and break
        the byte-identity contract with the uninterrupted run).  The
        payload is read by key, so a checkpoint from an older build,
        which also records the retired uniform-producer setting,
        resumes unchanged.
        """
        from repro.runtime.checkpoint import load_checkpoint

        payload = load_checkpoint(path)
        controller = cls(
            payload["fleet"],
            slices_per_tick=payload["slices_per_tick"],
            backend=backend or payload["backend"],
            telemetry=telemetry,
            telemetry_every=(
                payload["telemetry_every"]
                if telemetry_every is None
                else telemetry_every
            ),
            telemetry_per_device=(
                payload["telemetry_per_device"]
                if telemetry_per_device is None
                else telemetry_per_device
            ),
            chunk_slices=payload.get("chunk_slices"),
            record_timing=record_timing,
            policy_cache=policy_cache,
            initial_tick=payload["tick"],
        )
        return controller
