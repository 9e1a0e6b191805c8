"""Device registry for the online fleet runtime.

A :class:`Device` is one managed unit: a composed system, a cost
model, a policy agent, its *own* random stream, its current joint
state and its running accumulators.  A :class:`Fleet` is an ordered
registry of devices — heterogeneous by construction: different
hardware models, different workloads, different agents, all stepped
together by the :class:`~repro.runtime.controller.FleetController`.

Device randomness is per-device by design: ``device_rng(seed, index)``
derives statistically independent PCG64 streams from a base seed with
:class:`numpy.random.SeedSequence` spawn keys, so device ``i`` of a
group consumes exactly the same uniforms whether it is stepped alone,
inside a 1000-lane batch, or after a checkpoint/resume — the property
the fleet determinism suite pins down.  Being PCG64, these streams are
exactly what the vectorized fan-in
(:class:`~repro.sim.rng_batched.BatchedPCG64Source`) can stack and
advance as array math.  A device carrying any other generator still
works: the controller serves its lane block through the serial
:class:`~repro.sim.rng.FanInSource` instead, and both producers serve
the same bytes.

``build_fleet`` turns a JSON fleet spec (device groups x workloads x
agents, see :func:`parse_fleet_spec`) into a registered fleet, solving
optimal policies through a shared
:class:`~repro.runtime.policy_cache.PolicyCache` so identical device
groups cost one LP solve, not one per device.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.costs import CostModel
from repro.core.system import PowerManagedSystem
from repro.policies.base import PolicyAgent, StationaryAgent
from repro.runtime.policy_cache import (
    PolicyCache,
    costs_signature,
    policy_signature,
    system_signature,
)
from repro.runtime.streams import ArrivalStream, stream_from_spec
from repro.sim.backends.base import SimulationTables, resolve_initial_state
from repro.sim.trace_sim import ArrivalTracker, NearestArrivalTracker
from repro.util.validation import ValidationError

__all__ = [
    "Device",
    "Fleet",
    "OptimizeDirective",
    "build_agent_from_spec",
    "build_fleet",
    "build_group_devices",
    "device_rng",
    "group_keys",
    "parse_fleet_spec",
]

#: Policy rows with a single command above this mass are deterministic
#: (same tolerance the vector backend compiles with).
_DETERMINISTIC_TOL = 1e-12


def device_rng(seed: int, index: int) -> np.random.Generator:
    """The canonical per-device generator: ``(seed, device index)``.

    Spawn keys make the streams statistically independent and — more
    importantly for the fleet — *addressable*: any device can be
    re-created in isolation with the exact stream it had inside the
    fleet.
    """
    sequence = np.random.SeedSequence(int(seed), spawn_key=(int(index),))
    return np.random.default_rng(sequence)


@dataclass
class Device:
    """One managed device: model, agent, stream, state, accumulators.

    Attributes
    ----------
    device_id:
        Unique fleet-wide identifier.
    system / costs:
        The composed system and its metrics (sharable across devices).
    agent:
        The policy agent; stateful agents must not be shared between
        devices.
    rng:
        This device's own generator — every stochastic choice the
        device makes (policy draws, transitions, service, stochastic
        workload streams) consumes from it and nothing else does.
    stream:
        Exogenous workload (``None`` means arrivals come from the SR
        chain — the vectorizable model-driven mode).
    tracker:
        SR-state inference for stream-driven devices (defaults to
        :class:`~repro.sim.trace_sim.NearestArrivalTracker`).
    state:
        Current ``(provider, requester, queue)`` indices.
    """

    device_id: str
    system: PowerManagedSystem
    costs: CostModel
    agent: PolicyAgent
    rng: np.random.Generator
    stream: ArrivalStream | None = None
    tracker: ArrivalTracker | None = None
    state: tuple[int, int, int] = (0, 0, 0)
    prev_arrivals: int = 0
    slices: int = 0
    metric_names: tuple[str, ...] = ()
    totals: np.ndarray = field(default=None, repr=False)
    arrivals: int = 0
    serviced: int = 0
    lost: int = 0
    loss_event_slices: int = 0
    command_counts: np.ndarray = field(default=None, repr=False)
    provider_occupancy: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.metric_names == ():
            self.metric_names = tuple(self.costs.metric_names)
        if self.totals is None:
            self.totals = np.zeros(len(self.metric_names))
        if self.command_counts is None:
            self.command_counts = np.zeros(
                self.system.n_commands, dtype=np.int64
            )
        if self.provider_occupancy is None:
            self.provider_occupancy = np.zeros(
                self.system.provider.n_states, dtype=np.int64
            )
        if self.stream is not None:
            if self.tracker is None:
                self.tracker = NearestArrivalTracker(self.system.requester)
            # Stream-driven devices observe an *inferred* SR state; the
            # tracker defines the initial one.
            self.state = (self.state[0], self.tracker.reset(), self.state[2])

    # ------------------------------------------------------------------
    # dispatch properties
    # ------------------------------------------------------------------
    @property
    def vector_eligible(self) -> bool:
        """True when the joint-state batch kernel can step this device.

        Requires a provably stationary agent *and* model-driven
        arrivals — a stream-driven device's workload is exogenous, so
        it falls back to the per-device loop.
        """
        return isinstance(self.agent, StationaryAgent) and self.stream is None

    def group_key(self) -> tuple[str, str, str]:
        """This device's content key alone: ``group_keys([self])``.

        Regrouping and shard dealing key whole batches through
        :func:`group_keys` and never call this; it stays because the
        traced benchmark (``perfbench/tracing.py``) resolves
        ``Device.group_key`` by name.
        """
        return group_keys([self])[0][0]

    # ------------------------------------------------------------------
    # metric views
    # ------------------------------------------------------------------
    @property
    def averages(self) -> dict[str, float]:
        """Per-slice metric averages accumulated so far."""
        if self.slices == 0:
            return {name: 0.0 for name in self.metric_names}
        return {
            name: float(self.totals[i]) / self.slices
            for i, name in enumerate(self.metric_names)
        }

    def compile_tables(self) -> SimulationTables:
        """Compile the simulation tables for this device's model."""
        return SimulationTables.compile(self.system, self.costs)


def group_keys(devices) -> list[tuple[tuple[str, str, str], str | None]]:
    """Content keys of ``devices``: one ``(key, policy_sig)`` per device.

    ``key`` is ``(system content, costs content, flavor)``.  Devices
    sharing it step in one controller batch and are dealt round-robin
    across service shards.  ``flavor`` is ``"loop"`` for devices the
    batch kernel cannot express, else ``"det"`` or ``"stoch"`` by
    policy determinism: the kernel draws 3 uniform kinds per slice for
    fully deterministic policy batches and 4 otherwise, so mixing the
    two in one batch would make a device's stream consumption depend
    on its neighbours.  ``policy_sig`` is the content digest of a
    vector-eligible device's stationary policy (``None`` on the loop
    path); a batch stacks its distinct policies by it.

    Each distinct system, costs or policy object is hashed once per
    call.  The identity memo holds its objects only while the call
    runs — their ids stay unique meanwhile, and nothing is pinned
    afterwards, so an agent that builds a fresh policy on every query
    cannot grow it.
    """
    memo: dict[int, tuple] = {}

    def content(obj, digest):
        entry = memo.get(id(obj))
        if entry is None:
            entry = memo[id(obj)] = (obj, digest(obj))
        return entry[1]

    def policy_content(policy) -> tuple[str, str]:
        rows = policy.matrix.max(axis=1)
        flavor = "det" if (rows > 1.0 - _DETERMINISTIC_TOL).all() else "stoch"
        return policy_signature(policy), flavor

    keys = []
    for device in devices:
        system_sig = content(device.system, system_signature)
        costs_sig = content(device.costs, costs_signature)
        if device.vector_eligible:
            policy = device.agent.stationary_policy(device.system)
            policy_sig, flavor = content(policy, policy_content)
        else:
            policy_sig, flavor = None, "loop"
        keys.append(((system_sig, costs_sig, flavor), policy_sig))
    return keys


class Fleet:
    """An ordered registry of :class:`Device` records.

    Insertion order is the canonical device order — telemetry
    aggregation, batching and checkpoints all preserve it, which keeps
    every downstream artifact deterministic.
    """

    def __init__(self):
        self._devices: dict[str, Device] = {}
        #: Bumped on membership changes so the controller can invalidate
        #: its compiled group caches.
        self.version = 0

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def add_device(
        self,
        device_id: str,
        system: PowerManagedSystem,
        costs: CostModel,
        agent: PolicyAgent,
        *,
        rng: np.random.Generator | int | None = None,
        stream: ArrivalStream | None = None,
        tracker: ArrivalTracker | None = None,
        initial_state=None,
    ) -> Device:
        """Register one device and return its record.

        ``rng`` accepts a generator, a seed, or ``None`` (fresh
        entropy); pass :func:`device_rng` streams for addressable
        reproducibility.
        """
        device_id = str(device_id)
        if device_id in self._devices:
            raise ValidationError(f"duplicate device id {device_id!r}")
        if not isinstance(agent, PolicyAgent):
            raise ValidationError(
                f"agent must be a PolicyAgent, got {type(agent).__name__}"
            )
        if costs.system is not system:
            raise ValidationError(
                f"device {device_id!r}: costs were built for a different system"
            )
        if rng is None or isinstance(rng, (int, np.integer)):
            rng = np.random.default_rng(rng)
        state = resolve_initial_state(system, initial_state)
        device = Device(
            device_id=device_id,
            system=system,
            costs=costs,
            agent=agent,
            rng=rng,
            stream=stream,
            tracker=tracker,
            state=state,
        )
        agent.reset()
        self._devices[device_id] = device
        self.version += 1
        return device

    def adopt_device(self, device: Device) -> Device:
        """Insert an already-constructed :class:`Device` record as-is.

        Unlike :meth:`add_device` this neither rebuilds the record nor
        resets its agent — the device keeps its accumulated state,
        stream cursor and RNG stream exactly.  It is how fleet state
        moves between processes: shard workers adopt their partition,
        and gathered daemon fleets are reassembled device by device.
        """
        if not isinstance(device, Device):
            raise ValidationError(
                f"adopt_device takes a Device, got {type(device).__name__}"
            )
        if device.device_id in self._devices:
            raise ValidationError(f"duplicate device id {device.device_id!r}")
        self._devices[device.device_id] = device
        self.version += 1
        return device

    def remove_device(self, device_id: str) -> Device:
        """Deregister and return a device (e.g. decommissioned hardware)."""
        try:
            device = self._devices.pop(str(device_id))
        except KeyError:
            raise ValidationError(f"unknown device id {device_id!r}") from None
        self.version += 1
        return device

    def replace_agent(self, device_id: str, agent: PolicyAgent) -> Device:
        """Swap one device's policy agent in place (live policy push).

        The new agent is reset and the fleet version bumped so
        controllers regroup and recompile on the next tick.  Works
        identically through the single-process controller and the
        sharded daemon — both route policy updates here.
        """
        device = self.device(device_id)
        if not isinstance(agent, PolicyAgent):
            raise ValidationError(
                f"agent must be a PolicyAgent, got {type(agent).__name__}"
            )
        device.agent = agent
        agent.reset()
        self.version += 1
        return device

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def device(self, device_id: str) -> Device:
        """Look up one device by id."""
        try:
            return self._devices[str(device_id)]
        except KeyError:
            raise ValidationError(f"unknown device id {device_id!r}") from None

    @property
    def device_ids(self) -> tuple[str, ...]:
        """All registered ids, insertion order."""
        return tuple(self._devices)

    def __len__(self) -> int:
        return len(self._devices)

    def __iter__(self):
        return iter(self._devices.values())

    def __contains__(self, device_id) -> bool:
        return str(device_id) in self._devices

    @property
    def total_slices(self) -> int:
        """Device-slices accumulated across the whole fleet."""
        return sum(device.slices for device in self._devices.values())


# ----------------------------------------------------------------------
# fleet specs: JSON device groups -> a registered fleet
# ----------------------------------------------------------------------
#: Named case-study systems accepted by fleet specs.
_NAMED_SYSTEMS = {
    "example": "repro.systems.example_system",
    "disk_drive": "repro.systems.disk_drive",
    "web_server": "repro.systems.web_server",
    "cpu": "repro.systems.cpu",
    "baseline": "repro.systems.baseline",
}


def parse_fleet_spec(raw: dict) -> dict:
    """Validate the raw structure of a fleet spec.

    A fleet spec is a mapping::

        {
          "name": "campaign",
          "slices_per_tick": 500,            # optional controller default
          "groups": [
            {
              "id": "disks",                 # optional (default g<i>)
              "count": 512,
              "system": "disk_drive",        # name or inline system spec
              "agent": {"type": "optimal", "penalty_bound": 0.05},
              "workload": {"type": "mmpp2", "p_stay_idle": 0.95},  # optional
              "seed": 7,                     # optional group seed
              "initial_state": ["active", "0", 0]                  # optional
            },
            ...
          ]
        }

    Agent types: ``optimal`` (LP solve through the shared
    :class:`PolicyCache`; keys ``objective``, ``penalty_bound``,
    ``loss_bound``, ``bounds``, ``formulation``), ``eager``/``timeout``
    (keys ``active``/``sleep`` command names, ``timeout`` slices),
    ``constant`` (key ``command``), and ``adaptive``
    (:class:`~repro.policies.adaptive.AdaptivePolicyAgent` keys
    ``window``, ``refit_every``, ``memory``, ``penalty_bound``, ...;
    ``"auto_memory": true`` or an explicit ``"memories": [1, 2, 3]``
    refit through the BIC structure search of
    :class:`~repro.estimation.chain_fit.ArrivalChainEstimator` instead
    of the fixed-memory window heuristic).
    """
    if not isinstance(raw, dict):
        raise ValidationError(
            f"fleet spec must be a mapping, got {type(raw).__name__}"
        )
    groups = raw.get("groups")
    if not isinstance(groups, list) or not groups:
        raise ValidationError("fleet spec needs a non-empty 'groups' list")
    for i, group in enumerate(groups):
        if not isinstance(group, dict):
            raise ValidationError(f"groups[{i}] must be a mapping")
        if "system" not in group:
            raise ValidationError(f"groups[{i}]: missing 'system'")
        if "agent" not in group or not isinstance(group["agent"], dict):
            raise ValidationError(f"groups[{i}]: missing 'agent' mapping")
        count = int(group.get("count", 1))
        if count <= 0:
            raise ValidationError(f"groups[{i}]: count must be > 0, got {count}")
    return raw


def _compose_group_system(source, lp_backend: str):
    """Resolve a group's ``system`` field to (system, costs, gamma, p0)."""
    if isinstance(source, str):
        if source not in _NAMED_SYSTEMS:
            raise ValidationError(
                f"unknown system {source!r}; named systems: "
                f"{sorted(_NAMED_SYSTEMS)} (or pass an inline spec mapping)"
            )
        import importlib

        bundle = importlib.import_module(_NAMED_SYSTEMS[source]).build()
        return (
            bundle.system,
            bundle.costs,
            bundle.gamma,
            bundle.initial_distribution,
        )
    if isinstance(source, dict):
        from repro.tool.spec import parse_spec

        spec = parse_spec(source)
        system, costs, p0 = spec.compose()
        return system, costs, spec.gamma, p0
    raise ValidationError(
        f"group 'system' must be a name or an inline spec mapping, "
        f"got {type(source).__name__}"
    )


@dataclass
class OptimizeDirective:
    """A picklable ``optimizer -> OptimizationResult`` solve request.

    The adaptive agent's refit loop carries its optimization target as
    a callable; fleet specs build it as this dataclass (rather than a
    lambda) so checkpointing a fleet of adaptive devices works.
    """

    objective: str = "power"
    upper_bounds: dict | None = None
    lower_bounds: dict | None = None

    def __call__(self, optimizer):
        return optimizer.optimize(
            self.objective,
            "min",
            upper_bounds=self.upper_bounds,
            lower_bounds=self.lower_bounds,
        )


def _optimal_bounds(agent_spec: dict) -> tuple[dict, dict]:
    upper = {
        str(k): float(v) for k, v in dict(agent_spec.get("bounds", {})).items()
    }
    if agent_spec.get("penalty_bound") is not None:
        upper["penalty"] = float(agent_spec["penalty_bound"])
    if agent_spec.get("loss_bound") is not None:
        upper["loss"] = float(agent_spec["loss_bound"])
    lower = {
        str(k): float(v)
        for k, v in dict(agent_spec.get("lower_bounds", {})).items()
    }
    return upper, lower


def _group_policy(
    agent_spec: dict,
    system: PowerManagedSystem,
    costs: CostModel,
    gamma: float,
    p0,
    cache: PolicyCache,
    lp_backend: str,
):
    """Solve (through the cache) the optimal policy for one group."""
    formulation = str(agent_spec.get("formulation", "average"))
    if formulation == "average":
        from repro.core.average_cost import AverageCostOptimizer

        optimizer = AverageCostOptimizer(system, costs, backend=lp_backend)
    elif formulation == "discounted":
        from repro.core.optimizer import PolicyOptimizer

        optimizer = PolicyOptimizer(
            system,
            costs,
            gamma=gamma,
            initial_distribution=p0,
            backend=lp_backend,
        )
    else:
        raise ValidationError(
            f"unknown formulation {formulation!r}; use 'average' or 'discounted'"
        )
    upper, lower = _optimal_bounds(agent_spec)
    objective = str(agent_spec.get("objective", "power"))
    result = cache.optimize(
        optimizer, objective, "min", upper_bounds=upper or None,
        lower_bounds=lower or None,
    )
    if not result.feasible:
        raise ValidationError(
            f"optimal-agent solve infeasible (objective={objective!r}, "
            f"bounds={upper!r})"
        )
    return result.policy


def _build_agent(
    agent_spec: dict,
    system: PowerManagedSystem,
    costs: CostModel,
    gamma: float,
    p0,
    cache: PolicyCache,
    lp_backend: str,
    group_policy,
) -> PolicyAgent:
    """Instantiate one device's agent from a group agent spec."""
    from repro.policies import (
        AdaptivePolicyAgent,
        ConstantAgent,
        StationaryPolicyAgent,
        TimeoutAgent,
        eager_markov_policy,
    )

    kind = str(agent_spec.get("type", "optimal"))
    if kind == "optimal":
        return StationaryPolicyAgent(system, group_policy)
    if kind == "eager":
        policy = eager_markov_policy(
            system, agent_spec["active"], agent_spec["sleep"]
        )
        return StationaryPolicyAgent(system, policy)
    if kind == "constant":
        return ConstantAgent(
            system.chain.command_index(agent_spec.get("command", 0))
        )
    if kind == "timeout":
        return TimeoutAgent(
            int(agent_spec.get("timeout", 100)),
            system.chain.command_index(agent_spec["active"]),
            system.chain.command_index(agent_spec["sleep"]),
        )
    if kind == "adaptive":
        upper, lower = _optimal_bounds(agent_spec)
        estimator = None
        if agent_spec.get("auto_memory") or agent_spec.get("memories"):
            from repro.estimation.chain_fit import ArrivalChainEstimator

            estimator = ArrivalChainEstimator(
                memories=tuple(
                    int(m) for m in agent_spec.get("memories", (1, 2, 3))
                ),
                smoothing=float(agent_spec.get("smoothing", 0.5)),
            )
        return AdaptivePolicyAgent(
            system.provider,
            system.queue.capacity,
            OptimizeDirective(
                str(agent_spec.get("objective", "power")),
                upper or None,
                lower or None,
            ),
            window=int(agent_spec.get("window", 5000)),
            refit_every=int(agent_spec.get("refit_every", 1000)),
            memory=int(agent_spec.get("memory", 1)),
            fallback_command=system.chain.command_index(
                agent_spec.get("fallback_command", 0)
            ),
            backend=lp_backend,
            policy_cache=cache,
            estimator=estimator,
        )
    raise ValidationError(
        f"unknown agent type {kind!r}; use "
        f"optimal/eager/constant/timeout/adaptive"
    )


def build_agent_from_spec(
    agent_spec: dict,
    system: PowerManagedSystem,
    costs: CostModel,
    *,
    gamma: float = 0.99999,
    initial_distribution=None,
    cache: PolicyCache | None = None,
    lp_backend: str = "scipy",
) -> PolicyAgent:
    """Build one agent from a group-style agent spec mapping.

    The standalone entry the service layer uses for live policy pushes
    (``fleet-ctl update-policy``): the same spec vocabulary as
    :func:`build_fleet` groups, solved through the same
    :class:`PolicyCache` machinery, for a system/costs pair that
    already exists.
    """
    agent_spec = dict(agent_spec)
    if not isinstance(agent_spec.get("type", "optimal"), str):
        raise ValidationError("agent spec 'type' must be a string")
    cache = PolicyCache() if cache is None else cache
    group_policy = None
    if str(agent_spec.get("type", "optimal")) == "optimal":
        group_policy = _group_policy(
            agent_spec, system, costs, gamma, initial_distribution, cache,
            lp_backend,
        )
    return _build_agent(
        agent_spec, system, costs, gamma, initial_distribution, cache,
        lp_backend, group_policy,
    )


def _build_group(
    fleet: Fleet,
    group: dict,
    gi: int,
    base_seed: int,
    cache: PolicyCache,
    lp_backend: str,
) -> None:
    """Register one spec group's devices into ``fleet``."""
    prefix = str(group.get("id", f"g{gi}"))
    count = int(group.get("count", 1))
    seed = int(group.get("seed", base_seed * 7919 + gi))
    system, costs, gamma, p0 = _compose_group_system(
        group["system"], lp_backend
    )
    agent_spec = dict(group["agent"])
    group_policy = None
    if str(agent_spec.get("type", "optimal")) == "optimal":
        group_policy = _group_policy(
            agent_spec, system, costs, gamma, p0, cache, lp_backend
        )
    initial_state = group.get("initial_state")
    if initial_state is not None:
        initial_state = (
            str(initial_state[0]),
            str(initial_state[1]),
            int(initial_state[2]),
        )
    workload = (
        dict(group["workload"])
        if group.get("workload") is not None
        else None
    )
    # Trace workloads are read and discretized once per group; each
    # device gets its own cursor over the shared count array.
    trace_counts = None
    if workload is not None and workload.get("type") == "trace":
        from repro.runtime.streams import TraceStream

        trace_counts = stream_from_spec(workload, device_rng(seed, 0))
    for i in range(count):
        rng = device_rng(seed, i)
        stream = None
        if trace_counts is not None:
            stream = TraceStream(
                trace_counts.counts,
                cycle=bool(workload.get("cycle", True)),
            )
        elif workload is not None:
            stream = stream_from_spec(workload, rng)
        agent = _build_agent(
            agent_spec, system, costs, gamma, p0, cache, lp_backend,
            group_policy,
        )
        fleet.add_device(
            f"{prefix}-{i:04d}",
            system,
            costs,
            agent,
            rng=rng,
            stream=stream,
            initial_state=initial_state,
        )


def build_group_devices(
    group: dict,
    *,
    group_index: int = 0,
    base_seed: int = 0,
    lp_backend: str = "scipy",
    cache: PolicyCache | None = None,
) -> list[Device]:
    """Build one spec group's devices without a surrounding fleet.

    The live-registration entry: the service daemon turns a
    ``register_group`` request into devices with exactly the same
    construction path (seeding, shared trace counts, shared policy
    solves) as :func:`build_fleet`, then distributes them to shards.
    """
    if not isinstance(group, dict):
        raise ValidationError(
            f"group spec must be a mapping, got {type(group).__name__}"
        )
    if "system" not in group:
        raise ValidationError("group spec: missing 'system'")
    if "agent" not in group or not isinstance(group["agent"], dict):
        raise ValidationError("group spec: missing 'agent' mapping")
    if int(group.get("count", 1)) <= 0:
        raise ValidationError(
            f"group spec: count must be > 0, got {group.get('count')}"
        )
    cache = PolicyCache() if cache is None else cache
    staging = Fleet()
    _build_group(
        staging, group, int(group_index), int(base_seed), cache, lp_backend
    )
    return list(staging)


def build_fleet(
    raw: dict,
    *,
    base_seed: int = 0,
    lp_backend: str = "scipy",
    cache: PolicyCache | None = None,
) -> tuple[Fleet, PolicyCache]:
    """Register every device a fleet spec describes.

    Returns the fleet and the policy cache used for the optimal-agent
    solves (freshly created unless one was passed in) so callers can
    report dedupe statistics.
    """
    raw = parse_fleet_spec(raw)
    cache = PolicyCache() if cache is None else cache
    fleet = Fleet()
    for gi, group in enumerate(raw["groups"]):
        _build_group(fleet, group, gi, base_seed, cache, lp_backend)
    return fleet, cache
