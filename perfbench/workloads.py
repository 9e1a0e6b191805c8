"""The benchmark's three closed-loop workloads.

Each workload builds its inputs from the seed, runs a set-up that can
be repeated, a timed window of whole cycles of operations, a closing
phase (checkpoint, resume or trade-off curve) and correctness oracles
that run outside every timed region.  One cycle runs each of the
workload's operations in a fixed mix, so every window holds whole
cycles and the same mix.  All of them drive the program through its
public APIs only.  ``README.md`` beside this file says why each
workload exists.
"""

from __future__ import annotations

import gc
import json
import math
import random
import shutil
import threading
import time
from collections import defaultdict

from common import calibration_unit, pid_peak_rss_mb, self_peak_rss_mb

#: Slices every device advances per tick.
SLICES_PER_TICK = 32
#: Vector-tier devices: one deterministic-policy group, four
#: randomized-policy groups whose LP-optimal policies stack in one batch.
DETERMINISTIC_DEVICES = 3000
RANDOMIZED_DEVICES = 500
RANDOMIZED_BOUNDS = (0.008, 0.01, 0.014, 0.02)
#: Loop-tier minority: timeout agents and stream-driven devices.
LOOP_DEVICES = 16
#: Devices rebuilt alone and re-stepped by the oracles.
ORACLE_SAMPLES = 12
#: Size of the registration bursts.
BURST = 256
#: Plain ticks (or step(1) requests) after each change window.
PLAIN_TICKS = 2
#: Calibration units timed before each operation.
CALIB_PER_OP = 3
#: Service shard count: the ``serve`` default.
SHARDS = 2
#: step(1) requests that open each service cycle.
SERVICE_LEAD_STEPS = 2
#: Spool generations each shard alternates between (one written a tick).
SPOOL_GENERATIONS = 2
#: LP workload: disk drive at queue depth 32 (726 states) and the fixed
#: penalty bounds -- every other point of
#: geomspace(1.3 * floor, 0.98 * cap, 8), floor and cap being the
#: least and the unconstrained-optimal penalty at this depth.
LP_QUEUE_DEPTH = 32
LP_BOUNDS = (0.016190, 0.14053, 1.2199, 10.590)
#: Agreement required between the simplex backend and scipy/HiGHS.
LP_OBJECTIVE_TOL = 1e-8


def fleet_spec() -> dict:
    """The fleet every fleet and service workload runs (5,032 devices)."""
    disk = {"system": "disk_drive", "initial_state": ["active", "0", 0]}
    deterministic = {"type": "optimal", "penalty_bound": 0.5}
    groups = [dict(disk, id="det", count=DETERMINISTIC_DEVICES, agent=deterministic)]
    for k, bound in enumerate(RANDOMIZED_BOUNDS):
        groups.append(
            dict(
                disk,
                id=f"rnd{k}",
                count=RANDOMIZED_DEVICES,
                agent={"type": "optimal", "penalty_bound": bound},
            )
        )
    groups.append(
        dict(
            disk,
            id="tmo",
            count=LOOP_DEVICES,
            agent={
                "type": "timeout",
                "timeout": 200,
                "active": "go_active",
                "sleep": "go_standby",
            },
        )
    )
    groups.append(
        {
            "id": "edge",
            "count": LOOP_DEVICES,
            "system": "example",
            "agent": {"type": "eager", "active": "s_on", "sleep": "s_off"},
            "workload": {"type": "mmpp2", "p_stay_idle": 0.95, "p_stay_busy": 0.85},
        }
    )
    return {"name": "perfbench", "slices_per_tick": SLICES_PER_TICK, "groups": groups}


def _dumps(record) -> str:
    return json.dumps(record, sort_keys=True)


class Window:
    """Samples of one timed window, by operation kind."""

    def __init__(self):
        self.samples: dict[str, list[float]] = defaultdict(list)
        #: Device-slices stepped (fleet, service) or LP solves (lp_curve_q32).
        self.work_units = 0
        self.wall_s = 0.0
        self.cycles = 0
        #: Calibration units timed before each operation.
        self.calib: list[float] = []


class Workload:
    """Set-up, timed window, closing phase and oracles of one workload."""

    name = ""
    #: Operation kind behind ``op_p50_ref_s``.
    primary = ""
    #: Set-ups per untraced run; ``setup_s`` is their median.
    setup_repeats = 3
    #: Seconds one cycle takes on the reference host, the one whose
    #: calibration unit takes ``common.CALIB_REFERENCE_S``.
    cycle_s = 1.0

    def __init__(self, run):
        self.run = run
        self.seed = run.seed
        self.work = run.workdir

    def timed(self, window: Window, kind: str, fn, *args, changed: int = 0):
        """Run one operation, record its duration under ``kind``.

        ``changed`` is how many devices the operation adds, removes or
        re-policies; the traced run divides regroup counts by it.  The
        calibration units timed first, outside the operation, track how
        fast the host runs while the window lasts.
        """
        for _ in range(CALIB_PER_OP):
            window.calib.append(calibration_unit())
        tracer = self.run.tracer
        if tracer is not None:
            tracer.begin_op(kind)
            tracer.count("changed_devices", changed)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            window.samples[kind].append(time.perf_counter() - start)
            self.run.ledger.op()
            if tracer is not None:
                tracer.end_op()

    def window(self, seconds: float) -> Window:
        """The fewest whole cycles of :meth:`cycle` that take at least
        ``seconds`` on the reference host.

        The count does not depend on how fast this host runs, so every
        run does the same work: the fleet workloads grow by each cycle's
        registrations, and a time-bounded window would step a larger
        fleet on a faster host.
        """
        window = Window()
        window.cycles = max(1, math.ceil(seconds / self.cycle_s))
        start = time.perf_counter()
        for _ in range(window.cycles):
            self.cycle(window)
        window.wall_s = time.perf_counter() - start
        return window

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError

    def cycle(self, window: Window) -> None:
        raise NotImplementedError

    def finish(self) -> dict:
        """The closing phase; returns its user-facing figures."""
        return {}

    def verify(self) -> None:
        raise NotImplementedError

    def counts(self) -> dict:
        raise NotImplementedError


# ----------------------------------------------------------------------
# single-process fleet
# ----------------------------------------------------------------------
class DeviceHistory:
    """What the oracles need to rebuild a device alone and re-step it.

    ``origin`` maps device id -> (group spec, group index, index in the
    group, tick it joined); ``pushes`` maps device id -> [(tick, agent
    spec)].  Ticks count ticks completed fleet-wide.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.origin: dict[str, tuple] = {}
        self.pushes: dict[str, list] = defaultdict(list)
        self.removed: set[str] = set()

    def add_group(self, group: dict, group_index: int, tick: int) -> None:
        for i in range(int(group["count"])):
            self.origin[f"{group['id']}-{i:04d}"] = (group, group_index, i, tick)

    def pick_untouched(self, prefix: str, rng: random.Random) -> str:
        """An original device of group ``prefix`` not yet changed."""
        while True:
            device_id = f"{prefix}-{rng.randrange(RANDOMIZED_DEVICES):04d}"
            if device_id not in self.removed and device_id not in self.pushes:
                return device_id

    def sample(self, rng: random.Random, k: int) -> list[str]:
        """``k`` live devices spread over the fleet's groups, in order of
        registration, plus every device that took a policy push."""
        by_group = defaultdict(list)
        for device_id, (_, gi, _, _) in self.origin.items():
            if device_id not in self.removed:
                by_group[gi].append(device_id)
        groups = sorted(by_group)
        chosen = set()
        for n in range(k):
            ids = by_group[groups[n % len(groups)]]
            chosen.add(ids[rng.randrange(len(ids))])
        return sorted(chosen | set(self.pushes))

    def replay_records(self, device_ids, final_tick: int) -> dict[str, str]:
        """Rebuild each device alone from its spec seed and re-step it.

        Every device gets a controller of its own on the fleet's tier
        (``auto``), joins at its registration tick and takes its policy
        pushes at theirs.  The program's contract is that a device's
        trajectory ignores the rest of the fleet, so the record must
        match byte for byte.
        """
        from repro.runtime import (
            Fleet,
            FleetController,
            build_agent_from_spec,
            build_group_devices,
            device_record,
        )

        wanted = defaultdict(list)
        for device_id in device_ids:
            _, gi, index, _ = self.origin[device_id]
            wanted[gi].append((index, device_id))
        built = {}
        for gi, items in wanted.items():
            group = self.origin[items[0][1]][0]
            top = max(index for index, _ in items)
            devices = build_group_devices(
                dict(group, count=top + 1), group_index=gi, base_seed=self.seed
            )
            for index, device_id in items:
                built[device_id] = devices[index]
        records = {}
        for device_id in device_ids:
            device = built[device_id]
            fleet = Fleet()
            controller = FleetController(fleet, slices_per_tick=SLICES_PER_TICK)
            pushes = dict(self.pushes.get(device_id, ()))
            for tick in range(self.origin[device_id][3], final_tick):
                if not len(fleet):
                    fleet.adopt_device(device)
                if tick in pushes:
                    agent = build_agent_from_spec(
                        pushes[tick], device.system, device.costs
                    )
                    fleet.replace_agent(device_id, agent)
                controller.step_tick()
            records[device_id] = _dumps(device_record(device))
        return records


class FleetChurn(Workload):
    """One single-process controller: plain ticks back to back between
    live registrations, removals and policy pushes."""

    name = "fleet_churn"
    #: The plain tick: the read path.
    primary = "tick"
    cycle_s = 7.0

    def setup(self) -> None:
        from repro.runtime import FleetController, JsonLinesTelemetry, build_fleet

        spec = fleet_spec()
        self.history = DeviceHistory(self.seed)
        for gi, group in enumerate(spec["groups"]):
            self.history.add_group(group, gi, 0)
        self.next_group = len(spec["groups"])
        fleet, self.cache = build_fleet(spec, base_seed=self.seed)
        self.telemetry_path = self.work / f"{self.name}.jsonl"
        self.sink = JsonLinesTelemetry(self.telemetry_path, flush_every=1)
        self.controller = FleetController(
            fleet,
            slices_per_tick=SLICES_PER_TICK,
            backend="auto",
            telemetry=self.sink,
            telemetry_every=1,
        )
        self.controller.step_tick()
        self.rng = random.Random(self.seed)
        self.n_cycles = 0

    def teardown(self) -> None:
        self.sink.close()
        self.controller = self.sink = None
        gc.collect()

    def tick(self, window: Window) -> None:
        self.timed(window, "tick", self.controller.step_tick)
        window.work_units += len(self.controller.fleet) * SLICES_PER_TICK

    def _register(self, group: dict) -> None:
        from repro.runtime import build_group_devices

        gi = self.next_group
        self.next_group += 1
        devices = build_group_devices(
            group, group_index=gi, base_seed=self.seed, cache=self.cache
        )
        for device in devices:
            self.controller.fleet.adopt_device(device)
        self.history.add_group(group, gi, self.controller.tick)
        self.controller.step_tick()

    def _remove(self, device_id: str) -> None:
        self.controller.fleet.remove_device(device_id)
        self.history.removed.add(device_id)
        self.controller.step_tick()

    def _push(self, device_id: str, spec: dict) -> None:
        from repro.runtime import build_agent_from_spec

        device = self.controller.fleet.device(device_id)
        agent = build_agent_from_spec(
            spec, device.system, device.costs, cache=self.cache
        )
        self.controller.fleet.replace_agent(device_id, agent)
        self.history.pushes[device_id].append((self.controller.tick, spec))
        self.controller.step_tick()

    def change(self, window: Window, kind: str, fn, *args, changed: int) -> None:
        """One change window (the call through the end of the next
        tick), then :data:`PLAIN_TICKS` plain ticks."""
        n_before = len(self.controller.fleet)
        self.timed(window, kind, fn, *args, changed=changed)
        n_stepped = min(n_before, len(self.controller.fleet))
        window.work_units += n_stepped * SLICES_PER_TICK
        for _ in range(PLAIN_TICKS):
            self.tick(window)

    def cycle(self, window: Window) -> None:
        """Five changes, each followed by plain ticks: register 1
        device with existing content, 256 with a policy not yet in the
        fleet, remove 1, push a new policy onto 1, register 256 with
        existing content."""
        c = self.n_cycles
        existing = fleet_spec()["groups"]
        pick = self.history.pick_untouched
        group = dict(existing[0], id=f"one{c}", count=1)
        self.change(window, "register", self._register, group, changed=1)
        agent = {"type": "optimal", "penalty_bound": 0.009 + 0.0005 * c}
        group = dict(existing[1], id=f"new{c}", count=BURST, agent=agent)
        self.change(window, "register", self._register, group, changed=BURST)
        device_id = pick("det", self.rng)
        self.change(window, "remove", self._remove, device_id, changed=1)
        agent = {"type": "optimal", "penalty_bound": 0.011 + 0.0005 * c}
        device_id = pick("rnd1", self.rng)
        self.change(window, "push", self._push, device_id, agent, changed=1)
        group = dict(existing[2], id=f"old{c}", count=BURST)
        self.change(window, "register", self._register, group, changed=BURST)
        self.n_cycles += 1

    def finish(self) -> dict:
        """Checkpoint, then resume a second controller from it."""
        from repro.runtime import FleetController

        path = self.work / "churn.ckpt"
        window = Window()
        self.timed(window, "checkpoint", self.controller.save_checkpoint, path)
        size = path.stat().st_size
        n_devices = len(self.controller.fleet)
        self.controller.step_tick()
        self.uninterrupted = _dumps(self.controller.snapshot(per_device=True))

        def resume():
            controller = FleetController.resume(path)
            controller.step_tick()
            return controller

        resumed = self.timed(window, "resume", resume)
        self.resumed = _dumps(resumed.snapshot(per_device=True))
        del resumed
        gc.collect()
        self.checkpoint_bytes = (size, n_devices)
        return {
            "checkpoint_save_s": window.samples["checkpoint"][0],
            "resume_s": window.samples["resume"][0],
            "checkpoint_bytes_per_device": size / n_devices,
        }

    def verify(self) -> None:
        """Sampled devices, rebuilt alone and re-stepped through their
        joins and pushes, reproduce their records; the resumed
        controller's snapshot equals the uninterrupted one's."""
        from repro.runtime import device_record

        ids = self.history.sample(random.Random(self.seed), ORACLE_SAMPLES)
        expected = self.history.replay_records(ids, self.controller.tick)
        for device_id in ids:
            record = device_record(self.controller.fleet.device(device_id))
            self.run.ledger.check(
                _dumps(record) == expected[device_id],
                f"{device_id}: record differs from its re-step alone",
            )
        self.run.ledger.check(
            self.resumed == self.uninterrupted,
            "resumed snapshot differs from the uninterrupted one",
        )

    def counts(self) -> dict:
        size = self.telemetry_path.stat().st_size
        ticks = self.controller.tick
        ckpt_size, n_devices = self.checkpoint_bytes
        return {
            "telemetry_bytes_per_tick": {
                "value": size / ticks,
                "base": f"{size} B / {ticks} records",
            },
            "checkpoint_bytes_per_device": {
                "value": ckpt_size / n_devices,
                "base": f"{ckpt_size} B / {n_devices} devices",
            },
        }


# ----------------------------------------------------------------------
# sharded service
# ----------------------------------------------------------------------
class Service2Shard(Workload):
    """``FleetDaemon`` + ``ShardSupervisor`` behind one ``ServiceClient``."""

    name = "service_2shard"
    #: One ``step(1)`` request: the client's tick.
    primary = "tick"
    cycle_s = 7.5
    #: Relative to the checkout root, so it stays under the AF_UNIX
    #: path-length limit wherever the checkout lives.
    socket_name = "svc.sock"

    def setup(self) -> None:
        """The ``serve SPEC`` path: build the fleet, deal it to the
        shards, serve it, connect one client and step once."""
        from repro.runtime import JsonLinesTelemetry, build_fleet
        from repro.service import FleetDaemon, ServiceClient, ShardSupervisor

        self.socket = self.work / self.socket_name
        self.spool = self.work / "spool"
        shutil.rmtree(self.spool, ignore_errors=True)
        if self.socket.exists():
            self.socket.unlink()
        spec = fleet_spec()
        fleet, cache = build_fleet(spec, base_seed=self.seed)
        self.history = DeviceHistory(self.seed)
        for gi, group in enumerate(spec["groups"]):
            self.history.add_group(group, gi, 0)
        self.next_group = len(spec["groups"])
        self.n_devices = len(fleet)
        self.supervisor = ShardSupervisor(
            SHARDS,
            slices_per_tick=SLICES_PER_TICK,
            spool_dir=self.spool,
            checkpoint_every=1,
        )
        # Workers fork here, before the serving thread exists.
        self.supervisor.start(fleet)
        del fleet
        self.telemetry_path = self.work / f"{self.name}.jsonl"
        self.sink = JsonLinesTelemetry(self.telemetry_path, flush_every=1)
        self.daemon = FleetDaemon(
            self.socket,
            self.supervisor,
            telemetry=self.sink,
            telemetry_every=1,
            policy_cache=cache,
            next_group_index=self.next_group,
        )
        self.thread = threading.Thread(
            target=self.daemon.serve_forever, name="fleet-daemon", daemon=True
        )
        self.thread.start()
        deadline = time.monotonic() + 60
        while not self.socket.exists():
            if time.monotonic() > deadline or not self.thread.is_alive():
                raise RuntimeError("fleet daemon did not start listening")
            time.sleep(0.005)
        self.client = ServiceClient(self.socket, timeout=170).connect()
        self.rng = random.Random(self.seed)
        self.tick = 0
        self.n_cycles = 0
        self.last_record = None
        self.step()

    def teardown(self) -> None:
        self.client.shutdown()
        self.thread.join(timeout=60)
        if self.thread.is_alive():
            raise RuntimeError("fleet daemon did not stop")
        self.client = self.daemon = self.supervisor = self.sink = None
        gc.collect()

    def _on_telemetry(self, record) -> None:
        self.last_record = record

    def step(self) -> None:
        result = self.client.step(1, on_telemetry=self._on_telemetry)
        self.tick += 1
        if result["tick"] != self.tick or self.last_record["tick"] != self.tick:
            raise RuntimeError(f"daemon at tick {result['tick']}, expected {self.tick}")

    def plain_step(self, window: Window) -> None:
        self.timed(window, "tick", self.step)
        window.work_units += self.n_devices * SLICES_PER_TICK

    def _register(self, group: dict) -> None:
        gi = self.next_group
        self.next_group += 1
        reply = self.client.register_group(group, base_seed=self.seed, group_index=gi)
        self.history.add_group(group, gi, self.tick)
        self.n_devices = reply["n_devices"]
        self.step()

    def _remove(self, device_id: str) -> None:
        reply = self.client.remove_device(device_id)
        self.history.removed.add(device_id)
        self.n_devices = reply["n_devices"]
        self.step()

    def _push(self, device_id: str, spec: dict) -> None:
        self.client.update_policy(device_id, spec)
        self.history.pushes[device_id].append((self.tick, spec))
        self.step()

    def change(self, window: Window, kind: str, fn, *args, changed: int) -> None:
        """One change window (the call through the end of the next
        ``step(1)``), then :data:`PLAIN_TICKS` plain steps."""
        n_before = self.n_devices
        self.timed(window, kind, fn, *args, changed=changed)
        window.work_units += min(n_before, self.n_devices) * SLICES_PER_TICK
        for _ in range(PLAIN_TICKS):
            self.plain_step(window)

    def cycle(self, window: Window) -> None:
        """Plain steps, then a registration, a removal and a policy push.

        Registration bursts are left to ``fleet_churn``: every change
        here re-spools both shards, so a burst would cost the same as a
        single registration and only lengthen the run.
        """
        c = self.n_cycles
        pick = self.history.pick_untouched
        for _ in range(SERVICE_LEAD_STEPS):
            self.plain_step(window)
        group = dict(fleet_spec()["groups"][0], id=f"one{c}", count=1)
        self.change(window, "register", self._register, group, changed=1)
        device_id = pick("det", self.rng)
        self.change(window, "remove", self._remove, device_id, changed=1)
        agent = {"type": "optimal", "penalty_bound": 0.011 + 0.0005 * c}
        device_id = pick("rnd1", self.rng)
        self.change(window, "push", self._push, device_id, agent, changed=1)
        self.n_cycles += 1

    def finish(self) -> dict:
        path = self.work / "service.ckpt"
        window = Window()
        self.timed(window, "checkpoint", self.client.checkpoint, str(path))
        size = path.stat().st_size
        self.checkpoint_bytes = (size, self.n_devices)
        pids = self.client.info()["worker_pids"]
        self.worker_rss_mb = sum(pid_peak_rss_mb(pid) for pid in pids if pid)
        self.spool_bytes = sum(p.stat().st_size for p in self.spool.glob("*.ckpt"))
        return {
            "checkpoint_save_s": window.samples["checkpoint"][0],
            "checkpoint_bytes_per_device": size / self.n_devices,
        }

    def verify(self) -> None:
        ids = self.history.sample(self.rng, ORACLE_SAMPLES)
        snapshot = self.client.snapshot(per_device=True)
        records = {r["id"]: _dumps(r) for r in snapshot["devices"]}
        expected = self.history.replay_records(ids, self.tick)
        for device_id in ids:
            self.run.ledger.check(
                records.get(device_id) == expected[device_id],
                f"{device_id}: daemon record differs from the single-process "
                f"re-step",
            )

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb() + self.worker_rss_mb

    def counts(self) -> dict:
        size, n_devices = self.checkpoint_bytes
        telemetry = self.telemetry_path.stat().st_size
        spool = self.spool_bytes
        return {
            "telemetry_bytes_per_tick": {
                "value": telemetry / self.tick,
                "base": f"{telemetry} B / {self.tick} records",
            },
            "checkpoint_bytes_per_device": {
                "value": size / n_devices,
                "base": f"{size} B / {n_devices} devices",
            },
            "spool_bytes_per_tick": {
                "value": spool / SPOOL_GENERATIONS,
                "base": f"{spool} B over {SPOOL_GENERATIONS} generations "
                f"of {SHARDS} shards",
            },
        }


# ----------------------------------------------------------------------
# LP trade-off curve
# ----------------------------------------------------------------------
class LPCurve(Workload):
    """Cold constrained solves, then the whole curve, at Q=32."""

    name = "lp_curve_q32"
    primary = "solve"
    cycle_s = 10.4
    #: Set-up takes about 0.1 s here; more repeats steady its median.
    setup_repeats = 9

    def setup(self) -> None:
        from repro.core.costs import PENALTY, POWER
        from repro.core.optimizer import PolicyOptimizer
        from repro.systems import disk_drive

        self.bundle = disk_drive.build(queue_capacity=LP_QUEUE_DEPTH)
        self.optimizer = PolicyOptimizer(
            self.bundle.system,
            self.bundle.costs,
            gamma=self.bundle.gamma,
            initial_distribution=self.bundle.initial_distribution,
            backend="simplex",
        )
        self.optimizer.build_lp(POWER, "min", {PENALTY: LP_BOUNDS[0]})
        # Warm-up solve on the small disk model: loads the solver paths
        # without paying for a Q=32 solve.
        small = disk_drive.build()
        PolicyOptimizer(
            small.system,
            small.costs,
            gamma=small.gamma,
            initial_distribution=small.initial_distribution,
            backend="simplex",
        ).minimize_power(penalty_bound=0.5)
        self.order = list(LP_BOUNDS)
        random.Random(self.seed).shuffle(self.order)
        self.solved: dict[float, object] = {}
        self.curves = []
        self.solve_stats = []

    def teardown(self) -> None:
        self.optimizer = None
        gc.collect()

    def cold_solve(self, bound: float):
        from repro.core.costs import PENALTY, POWER
        from repro.runtime import PolicyCache

        return PolicyCache().optimize(
            self.optimizer, POWER, upper_bounds={PENALTY: bound}
        )

    def sweep(self):
        from repro.core.pareto_sweep import ParetoSweepSolver

        return ParetoSweepSolver(self.optimizer).solve(list(LP_BOUNDS))

    def cycle(self, window: Window) -> None:
        """One cold solve at each bound, in the seed's order."""
        for bound in self.order:
            result = self.timed(window, "solve", self.cold_solve, bound)
            self.solved[bound] = result
            self.solve_stats.append(result.lp_result.stats or {})
        window.work_units += len(self.order)

    def finish(self) -> dict:
        """The whole trade-off curve over the same bounds, timed once."""
        window = Window()
        self.curves.append(self.timed(window, "sweep", self.sweep))
        return {"pareto_s": window.samples["sweep"][0]}

    def verify(self) -> None:
        from repro.core.costs import PENALTY, POWER
        from repro.core.optimizer import PolicyOptimizer
        from repro.core.policy import evaluate_policy

        bundle = self.bundle
        reference = PolicyOptimizer(
            bundle.system,
            bundle.costs,
            gamma=bundle.gamma,
            initial_distribution=bundle.initial_distribution,
            backend="scipy",
        )
        check = self.run.ledger.check
        for bound in LP_BOUNDS:
            expected = reference.optimize(
                POWER, "min", upper_bounds={PENALTY: bound}
            ).objective_average
            cold = self.solved[bound]
            check(
                cold.feasible
                and abs(cold.objective_average - expected) <= LP_OBJECTIVE_TOL,
                f"bound {bound}: cold objective {cold.objective_average} "
                f"vs HiGHS {expected}",
            )
            for curve in self.curves:
                point = next(p for p in curve.points if p.bound == bound)
                check(
                    point.feasible
                    and abs(point.objective - expected) <= LP_OBJECTIVE_TOL,
                    f"bound {bound}: curve objective {point.objective} "
                    f"vs HiGHS {expected}",
                )
            penalty = evaluate_policy(
                bundle.system,
                bundle.costs,
                cold.policy,
                bundle.gamma,
                bundle.initial_distribution,
            ).averages[PENALTY]
            check(
                penalty <= bound * (1 + 1e-9) + 1e-12,
                f"bound {bound}: deployed policy's penalty {penalty}",
            )

    def counts(self) -> dict:
        n = len(self.solve_stats)
        iterations = sum(s.get("iterations", 0) for s in self.solve_stats)
        refactorizations = sum(s.get("refactorizations", 0) for s in self.solve_stats)
        return {
            "cold_iterations_per_solve": {
                "value": iterations / n,
                "base": f"{n} solves",
            },
            "cold_refactorizations_per_solve": {
                "value": refactorizations / n,
                "base": f"{n} solves",
            },
            "sweep": self.curves[-1].stats.as_dict(),
        }


WORKLOADS = {cls.name: cls for cls in (FleetChurn, Service2Shard, LPCurve)}
