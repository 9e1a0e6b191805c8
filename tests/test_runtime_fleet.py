"""The fleet runtime: registry, determinism, checkpointing, telemetry.

The central contracts under test:

* **per-device determinism** — a fleet of N devices stepped together
  produces metrics *identical* (bitwise) to the same N devices stepped
  independently with the same per-device seeds, however they are
  grouped and whatever else shares the fleet (the fleet analogue of
  the loop==vector common-random-numbers suite);
* **checkpoint/resume** — a resumed campaign's telemetry is
  byte-identical to an uninterrupted run's.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.policies import (
    ConstantAgent,
    StationaryPolicyAgent,
    TimeoutAgent,
    eager_markov_policy,
)
from repro.runtime import (
    Fleet,
    FleetController,
    JsonLinesTelemetry,
    MemoryTelemetry,
    MMPP2Stream,
    PeriodicBurstStream,
    build_fleet,
    checkpoint_payload,
    device_rng,
    encode_checkpoint,
    load_checkpoint,
    snapshot,
)
from repro.runtime.streams import CallableStream
from repro.util.validation import ValidationError


@pytest.fixture(scope="module")
def eager_policy(example_bundle):
    return eager_markov_policy(example_bundle.system, "s_on", "s_off")


def _stationary_device(bundle, policy, fleet, device_id, seed, index):
    return fleet.add_device(
        device_id,
        bundle.system,
        bundle.costs,
        StationaryPolicyAgent(bundle.system, policy),
        rng=device_rng(seed, index),
    )


def _device_fingerprint(device):
    """Everything a determinism comparison should pin down."""
    return (
        device.totals.tolist(),
        device.state,
        device.prev_arrivals,
        device.arrivals,
        device.serviced,
        device.lost,
        device.loss_event_slices,
        device.command_counts.tolist(),
        device.provider_occupancy.tolist(),
        device.slices,
    )


class TestFleetRegistry:
    def test_add_and_lookup(self, example_bundle, eager_policy):
        fleet = Fleet()
        device = _stationary_device(
            example_bundle, eager_policy, fleet, "d-0", 0, 0
        )
        assert len(fleet) == 1
        assert fleet.device("d-0") is device
        assert "d-0" in fleet
        assert fleet.device_ids == ("d-0",)
        assert device.vector_eligible

    def test_duplicate_id_rejected(self, example_bundle, eager_policy):
        fleet = Fleet()
        _stationary_device(example_bundle, eager_policy, fleet, "d-0", 0, 0)
        with pytest.raises(ValidationError, match="duplicate"):
            _stationary_device(
                example_bundle, eager_policy, fleet, "d-0", 0, 1
            )

    def test_unknown_id_rejected(self):
        fleet = Fleet()
        with pytest.raises(ValidationError, match="unknown device"):
            fleet.device("nope")

    def test_remove_bumps_version(self, example_bundle, eager_policy):
        fleet = Fleet()
        _stationary_device(example_bundle, eager_policy, fleet, "d-0", 0, 0)
        version = fleet.version
        fleet.remove_device("d-0")
        assert len(fleet) == 0
        assert fleet.version > version

    def test_adopt_device_keeps_state_and_bumps_version(
        self, example_bundle, eager_policy
    ):
        staging = Fleet()
        device = _stationary_device(
            example_bundle, eager_policy, staging, "d-0", 0, 0
        )
        device.slices = 123  # accumulated state an adopt must not touch
        fleet = Fleet()
        version = fleet.version
        assert fleet.adopt_device(device) is device
        assert fleet.device("d-0") is device
        assert device.slices == 123
        assert fleet.version > version
        with pytest.raises(ValidationError, match="duplicate"):
            fleet.adopt_device(device)
        with pytest.raises(ValidationError, match="takes a Device"):
            fleet.adopt_device("d-1")

    def test_replace_agent_resets_and_bumps_version(
        self, example_bundle, eager_policy
    ):
        fleet = Fleet()
        device = _stationary_device(
            example_bundle, eager_policy, fleet, "d-0", 0, 0
        )
        agent = TimeoutAgent(5, 0, 1)
        agent._idle_slices = 3  # dirty state the reset must clear
        version = fleet.version
        assert fleet.replace_agent("d-0", agent) is device
        assert device.agent is agent
        assert agent._idle_slices == 0
        assert fleet.version > version
        with pytest.raises(ValidationError, match="unknown device"):
            fleet.replace_agent("ghost", agent)
        with pytest.raises(ValidationError, match="must be a PolicyAgent"):
            fleet.replace_agent("d-0", "always_on")

    def test_foreign_costs_rejected(self, example_bundle, disk_bundle):
        fleet = Fleet()
        with pytest.raises(ValidationError, match="different system"):
            fleet.add_device(
                "d-0",
                example_bundle.system,
                disk_bundle.costs,
                ConstantAgent(0),
            )

    def test_stream_device_not_vector_eligible(
        self, example_bundle, eager_policy
    ):
        fleet = Fleet()
        rng = device_rng(0, 0)
        device = fleet.add_device(
            "d-0",
            example_bundle.system,
            example_bundle.costs,
            StationaryPolicyAgent(example_bundle.system, eager_policy),
            rng=rng,
            stream=PeriodicBurstStream(2, 5),
        )
        assert not device.vector_eligible


class TestFleetDeterminism:
    """Together == independently, bitwise, for every stepping path."""

    def _run_together(self, example_bundle, eager_policy, n, ticks, spt):
        fleet = Fleet()
        for i in range(n):
            _stationary_device(
                example_bundle, eager_policy, fleet, f"d-{i}", 0, i
            )
        FleetController(fleet, slices_per_tick=spt).run(ticks)
        return fleet

    def _run_alone(self, example_bundle, eager_policy, i, ticks, spt):
        fleet = Fleet()
        _stationary_device(example_bundle, eager_policy, fleet, f"d-{i}", 0, i)
        FleetController(fleet, slices_per_tick=spt).run(ticks)
        return fleet.device(f"d-{i}")

    def test_vector_group_equals_independent_devices(
        self, example_bundle, eager_policy
    ):
        together = self._run_together(example_bundle, eager_policy, 6, 3, 200)
        for i in range(6):
            alone = self._run_alone(example_bundle, eager_policy, i, 3, 200)
            assert _device_fingerprint(alone) == _device_fingerprint(
                together.device(f"d-{i}")
            )

    def test_loop_devices_equal_independent_devices(self, example_bundle):
        def build(ids):
            fleet = Fleet()
            for i in ids:
                fleet.add_device(
                    f"t-{i}",
                    example_bundle.system,
                    example_bundle.costs,
                    TimeoutAgent(4, 0, 1),
                    rng=device_rng(5, i),
                )
            FleetController(fleet, slices_per_tick=150).run(2)
            return fleet

        together = build(range(4))
        for i in range(4):
            alone = build([i]).device(f"t-{i}")
            assert _device_fingerprint(alone) == _device_fingerprint(
                together.device(f"t-{i}")
            )

    def test_grouping_invariance_in_mixed_fleet(
        self, example_bundle, disk_bundle, eager_policy
    ):
        """A device's trajectory ignores everything else in the fleet."""
        alone = self._run_alone(example_bundle, eager_policy, 0, 2, 250)

        mixed = Fleet()
        _stationary_device(example_bundle, eager_policy, mixed, "d-0", 0, 0)
        # A second vector group on a different system...
        disk_policy = eager_markov_policy(
            disk_bundle.system, "go_active", "go_idle"
        )
        mixed.add_device(
            "disk-0",
            disk_bundle.system,
            disk_bundle.costs,
            StationaryPolicyAgent(disk_bundle.system, disk_policy),
            rng=device_rng(9, 0),
        )
        # ... a loop heuristic, and a stream-driven device.
        mixed.add_device(
            "t-0",
            example_bundle.system,
            example_bundle.costs,
            TimeoutAgent(4, 0, 1),
            rng=device_rng(9, 1),
        )
        rng = device_rng(9, 2)
        mixed.add_device(
            "s-0",
            example_bundle.system,
            example_bundle.costs,
            TimeoutAgent(3, 0, 1),
            rng=rng,
            stream=MMPP2Stream(0.9, 0.8, rng),
        )
        FleetController(mixed, slices_per_tick=250).run(2)
        assert _device_fingerprint(alone) == _device_fingerprint(
            mixed.device("d-0")
        )

    def test_tick_size_invariance_for_vector_devices(
        self, example_bundle, eager_policy
    ):
        """Stream consumption is per-slice, so tick length is neutral.

        Trajectories and integer counters are *identical* across tick
        schedules; float totals fold at different chunk boundaries, so
        they agree only to summation rounding (the bitwise guarantee
        holds for equal tick schedules, which is what checkpoints keep).
        """
        a = self._run_together(example_bundle, eager_policy, 3, 4, 125)
        b = self._run_together(example_bundle, eager_policy, 3, 2, 250)
        for i in range(3):
            da, db = a.device(f"d-{i}"), b.device(f"d-{i}")
            assert _device_fingerprint(da)[1:] == _device_fingerprint(db)[1:]
            np.testing.assert_allclose(
                da.totals, db.totals, rtol=1e-12, atol=1e-9
            )

    def test_randomized_policy_group(self, example_bundle, example_optimizer):
        """Non-deterministic policies batch too (4-kind uniform path)."""
        result = example_optimizer.minimize_power(
            penalty_bound=0.5, loss_bound=0.2
        )
        assert not result.policy.is_deterministic

        def run(ids):
            fleet = Fleet()
            for i in ids:
                fleet.add_device(
                    f"r-{i}",
                    example_bundle.system,
                    example_bundle.costs,
                    StationaryPolicyAgent(example_bundle.system, result.policy),
                    rng=device_rng(21, i),
                )
            FleetController(fleet, slices_per_tick=300).run(2)
            return fleet

        together = run(range(5))
        alone = run([2]).device("r-2")
        assert _device_fingerprint(alone) == _device_fingerprint(
            together.device("r-2")
        )


class TestControllerBackends:
    def test_vector_backend_rejects_stateful(self, example_bundle):
        fleet = Fleet()
        fleet.add_device(
            "t-0",
            example_bundle.system,
            example_bundle.costs,
            TimeoutAgent(4, 0, 1),
            rng=device_rng(0, 0),
        )
        controller = FleetController(fleet, backend="vector")
        with pytest.raises(ValidationError, match="vector-eligible"):
            controller.step_tick()

    def test_loop_backend_runs_stationary_devices(
        self, example_bundle, eager_policy
    ):
        fleet = Fleet()
        _stationary_device(example_bundle, eager_policy, fleet, "d-0", 0, 0)
        controller = FleetController(
            fleet, slices_per_tick=100, backend="loop"
        )
        controller.run(2)
        assert controller.grouping()["loop_devices"] == 1
        assert fleet.device("d-0").slices == 200

    def test_grouping_splits_by_policy_determinism(
        self, example_bundle, example_optimizer, eager_policy
    ):
        randomized = example_optimizer.minimize_power(
            penalty_bound=0.5, loss_bound=0.2
        ).policy
        fleet = Fleet()
        _stationary_device(example_bundle, eager_policy, fleet, "d-0", 0, 0)
        fleet.add_device(
            "r-0",
            example_bundle.system,
            example_bundle.costs,
            StationaryPolicyAgent(example_bundle.system, randomized),
            rng=device_rng(0, 1),
        )
        controller = FleetController(fleet, slices_per_tick=50)
        groups = controller.grouping()["vector_groups"]
        assert len(groups) == 2  # deterministic and randomized never mix

    def test_empty_fleet_rejected(self):
        controller = FleetController(Fleet())
        with pytest.raises(ValidationError, match="empty fleet"):
            controller.step_tick()

    def test_membership_change_regroups(self, example_bundle, eager_policy):
        fleet = Fleet()
        _stationary_device(example_bundle, eager_policy, fleet, "d-0", 0, 0)
        controller = FleetController(fleet, slices_per_tick=50)
        controller.run(1)
        _stationary_device(example_bundle, eager_policy, fleet, "d-1", 0, 1)
        controller.run(1)
        assert fleet.device("d-0").slices == 100
        assert fleet.device("d-1").slices == 50

    def test_parameter_validation(self, example_bundle, eager_policy):
        fleet = Fleet()
        _stationary_device(example_bundle, eager_policy, fleet, "d-0", 0, 0)
        with pytest.raises(ValidationError, match="slices_per_tick"):
            FleetController(fleet, slices_per_tick=0)
        with pytest.raises(ValidationError, match="backend"):
            FleetController(fleet, backend="warp")
        with pytest.raises(ValidationError, match="telemetry_every"):
            FleetController(fleet, telemetry_every=0)


class TestTelemetry:
    def _controller(self, example_bundle, eager_policy, sink, **kwargs):
        fleet = Fleet()
        for i in range(3):
            _stationary_device(
                example_bundle, eager_policy, fleet, f"d-{i}", 0, i
            )
        return FleetController(
            fleet, slices_per_tick=100, telemetry=sink, **kwargs
        )

    def test_snapshot_structure(self, example_bundle, eager_policy):
        sink = MemoryTelemetry()
        controller = self._controller(example_bundle, eager_policy, sink)
        controller.run(2)
        assert [r["tick"] for r in sink.records] == [1, 2]
        record = sink.records[-1]
        assert record["n_devices"] == 3
        assert record["fleet_slices"] == 600
        assert set(record["metrics"]) == set(
            example_bundle.costs.metric_names
        )
        for stats in record["metrics"].values():
            assert stats["min"] <= stats["mean"] <= stats["max"]

    def test_telemetry_every(self, example_bundle, eager_policy):
        sink = MemoryTelemetry()
        controller = self._controller(
            example_bundle, eager_policy, sink, telemetry_every=2
        )
        controller.run(5)
        assert [r["tick"] for r in sink.records] == [2, 4]

    def test_per_device_records(self, example_bundle, eager_policy):
        sink = MemoryTelemetry()
        controller = self._controller(
            example_bundle, eager_policy, sink, telemetry_per_device=True
        )
        controller.run(1)
        devices = sink.records[0]["devices"]
        assert [d["id"] for d in devices] == ["d-0", "d-1", "d-2"]
        assert all(d["workload"] == "model" for d in devices)

    def test_jsonl_sink_round_trips(
        self, example_bundle, eager_policy, tmp_path
    ):
        path = tmp_path / "telemetry.jsonl"
        with JsonLinesTelemetry(path) as sink:
            self._controller(example_bundle, eager_policy, sink).run(3)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert json.loads(lines[-1])["tick"] == 3

    def test_fleet_mean_folds_left_to_right(self):
        # Ten devices averaging 0.1: compensated summation (builtin
        # sum on Python >= 3.12, math.fsum) gives exactly 1.0, the
        # plain left-to-right fold gives 0.9999999999999999.  The fleet
        # mean must be the fold's value on every interpreter.
        import math

        from repro.runtime.telemetry import snapshot_from_records

        series = [0.1] * 10
        assert math.fsum(series) == 1.0
        records = [
            {
                "averages": {"power": value},
                "arrivals": 0,
                "serviced": 0,
                "lost": 0,
                "loss_event_slices": 0,
                "slices": 1,
            }
            for value in series
        ]
        stats = snapshot_from_records(1, records)["metrics"]["power"]
        assert stats["mean"] == 0.9999999999999999 / 10
        assert repr(stats["mean"]) == "0.09999999999999999"

    def test_snapshot_of_empty_fleet(self):
        record = snapshot(Fleet(), tick=0)
        assert record["n_devices"] == 0
        assert record["metrics"] == {}

    def test_jsonl_sink_opens_lazily(self, tmp_path):
        """Constructing a sink must not truncate an existing file; only
        the first record does (a failed CLI run keeps old telemetry)."""
        path = tmp_path / "telemetry.jsonl"
        path.write_text("precious old telemetry\n")
        sink = JsonLinesTelemetry(path)
        sink.close()
        assert path.read_text() == "precious old telemetry\n"
        with JsonLinesTelemetry(path) as live:
            live.record({"tick": 1})
        assert json.loads(path.read_text())["tick"] == 1

    def test_jsonl_flush_every_batches_writes(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        sink = JsonLinesTelemetry(path, flush_every=3)
        try:
            sink.record({"tick": 1})
            sink.record({"tick": 2})
            # below the batch threshold: nothing has reached the OS yet
            assert path.read_text() == ""
            sink.record({"tick": 3})
            assert len(path.read_text().splitlines()) == 3
            sink.record({"tick": 4})  # pending again...
        finally:
            sink.close()  # ...but close never drops records
        assert len(path.read_text().splitlines()) == 4

    def test_jsonl_flush_every_validated(self, tmp_path):
        with pytest.raises(ValidationError, match="flush_every"):
            JsonLinesTelemetry(tmp_path / "t.jsonl", flush_every=0)

    def test_jsonl_fsync_follows_every_flush(self, tmp_path, monkeypatch):
        import repro.runtime.telemetry as telemetry_module

        synced = []
        monkeypatch.setattr(
            telemetry_module.os, "fsync", lambda fd: synced.append(fd)
        )
        with JsonLinesTelemetry(
            tmp_path / "t.jsonl", flush_every=2, fsync=True
        ) as sink:
            for tick in range(5):
                sink.record({"tick": tick})
        # two full batches plus the close-time flush of the remainder
        assert len(synced) == 3


def _mixed_fleet(example_bundle, eager_policy):
    """All three stepping paths: vector group, loop, stream-driven."""
    fleet = Fleet()
    for i in range(4):
        fleet.add_device(
            f"v-{i}",
            example_bundle.system,
            example_bundle.costs,
            StationaryPolicyAgent(example_bundle.system, eager_policy),
            rng=device_rng(0, i),
        )
    fleet.add_device(
        "t-0",
        example_bundle.system,
        example_bundle.costs,
        TimeoutAgent(4, 0, 1),
        rng=device_rng(1, 0),
    )
    rng = device_rng(2, 0)
    fleet.add_device(
        "s-0",
        example_bundle.system,
        example_bundle.costs,
        TimeoutAgent(3, 0, 1),
        rng=rng,
        stream=MMPP2Stream(0.95, 0.85, rng),
    )
    return fleet


class TestCheckpoint:
    def test_resume_telemetry_byte_identical(
        self, example_bundle, eager_policy, tmp_path
    ):
        """The headline contract: resume == never stopped, bytewise."""
        full_path = tmp_path / "full.jsonl"
        with JsonLinesTelemetry(full_path) as sink:
            FleetController(
                _mixed_fleet(example_bundle, eager_policy),
                slices_per_tick=150,
                telemetry=sink,
            ).run(6)

        split_path = tmp_path / "split.jsonl"
        ckpt = tmp_path / "fleet.ckpt"
        with JsonLinesTelemetry(split_path) as sink:
            controller = FleetController(
                _mixed_fleet(example_bundle, eager_policy),
                slices_per_tick=150,
                telemetry=sink,
            )
            controller.run(3)
            controller.save_checkpoint(ckpt)
        with JsonLinesTelemetry(split_path, append=True) as sink:
            FleetController.resume(ckpt, telemetry=sink).run(3)

        assert full_path.read_bytes() == split_path.read_bytes()

    def test_resume_restores_counters_and_settings(
        self, example_bundle, eager_policy, tmp_path
    ):
        controller = FleetController(
            _mixed_fleet(example_bundle, eager_policy),
            slices_per_tick=120,
            telemetry_every=2,
        )
        controller.run(2)
        path = tmp_path / "fleet.ckpt"
        controller.save_checkpoint(path)
        resumed = FleetController.resume(path)
        assert resumed.tick == 2
        assert resumed.slices_per_tick == 120
        assert resumed._telemetry_every == 2
        assert resumed.fleet.device_ids == controller.fleet.device_ids
        assert resumed.fleet.total_slices == controller.fleet.total_slices

    def test_callable_stream_refused(self, example_bundle, tmp_path):
        fleet = Fleet()
        fleet.add_device(
            "c-0",
            example_bundle.system,
            example_bundle.costs,
            TimeoutAgent(3, 0, 1),
            rng=device_rng(0, 0),
            stream=CallableStream(lambda start, n: np.zeros(n, dtype=int)),
        )
        controller = FleetController(fleet, slices_per_tick=50)
        with pytest.raises(ValidationError, match="non-checkpointable"):
            controller.save_checkpoint(tmp_path / "fleet.ckpt")

    def test_content_equal_models_encode_like_shared_ones(self):
        """Checkpoint bytes depend on model content, not object sharing."""
        from repro.systems import example_system

        def fleet_of(bundles):
            fleet = Fleet()
            for i, bundle in enumerate(bundles):
                policy = eager_markov_policy(bundle.system, "s_on", "s_off")
                fleet.add_device(
                    f"d-{i}",
                    bundle.system,
                    bundle.costs,
                    StationaryPolicyAgent(bundle.system, policy),
                    rng=device_rng(3, i),
                )
            return fleet

        shared = Fleet()
        bundle = example_system.build()
        agent = StationaryPolicyAgent(
            bundle.system, eager_markov_policy(bundle.system, "s_on", "s_off")
        )
        for i in range(4):
            shared.add_device(
                f"d-{i}", bundle.system, bundle.costs, agent, rng=device_rng(3, i)
            )
        distinct = fleet_of([example_system.build() for _ in range(4)])
        assert len({id(device.system) for device in distinct}) == 4
        blobs = []
        for fleet in (shared, distinct):
            FleetController(fleet, slices_per_tick=40).run(2)
            blobs.append(
                encode_checkpoint(
                    checkpoint_payload(fleet, 2, 40, "auto", 256, 1, False)
                )
            )
        assert blobs[0] == blobs[1]

    def test_resumed_devices_share_their_models(
        self, example_bundle, eager_policy, tmp_path
    ):
        controller = FleetController(
            _mixed_fleet(example_bundle, eager_policy), slices_per_tick=60
        )
        controller.run(1)
        path = tmp_path / "fleet.ckpt"
        controller.save_checkpoint(path)
        resumed = list(FleetController.resume(path).fleet)
        assert len({id(device.system) for device in resumed}) == 1
        assert len({id(device.costs) for device in resumed}) == 1
        stationary = [
            device.agent
            for device in resumed
            if isinstance(device.agent, StationaryPolicyAgent)
        ]
        assert len({id(agent) for agent in stationary}) == 1

    def test_version_1_checkpoint_rejected(self, tmp_path):
        import pickle

        path = tmp_path / "old.ckpt"
        path.write_bytes(
            pickle.dumps(
                {"format": "repro-fleet-checkpoint", "version": 1},
                protocol=4,
            )
        )
        with pytest.raises(ValidationError, match="version 1 is not"):
            load_checkpoint(path)

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "not_a_checkpoint.ckpt"
        path.write_bytes(b"garbage")
        with pytest.raises(ValidationError, match="not readable|not a repro"):
            load_checkpoint(path)
        with pytest.raises(ValidationError, match="does not exist"):
            load_checkpoint(tmp_path / "missing.ckpt")


class TestBuildFleet:
    def test_stationary_agents_are_shared_per_group(self):
        switch = {"active": "go_active", "sleep": "go_idle"}
        agents = {
            "opt": {"type": "optimal", "penalty_bound": 0.05},
            "eager": dict(switch, type="eager"),
            "const": {"type": "constant", "command": "go_active"},
            "tmo": dict(switch, type="timeout", timeout=20),
        }
        groups = [
            {"id": name, "count": 3, "system": "disk_drive", "agent": agent}
            for name, agent in agents.items()
        ]
        fleet, _ = build_fleet({"groups": groups})
        distinct = {name: set() for name in agents}
        for device in fleet:
            distinct[device.device_id.split("-")[0]].add(id(device.agent))
        counts = {name: len(ids) for name, ids in distinct.items()}
        assert counts == {"opt": 1, "eager": 1, "const": 1, "tmo": 3}

    def test_example_spec_file_builds_and_steps(self):
        from pathlib import Path

        spec_path = (
            Path(__file__).resolve().parent.parent
            / "examples"
            / "fleet_spec.json"
        )
        raw = json.loads(spec_path.read_text())
        fleet, cache = build_fleet(raw)
        assert len(fleet) == 12
        # 8 identical optimal disks: one LP solve, deduped via the cache.
        assert cache.stats.misses == 1
        controller = FleetController(fleet, slices_per_tick=50)
        controller.run(1)
        grouping = controller.grouping()
        assert sum(g["devices"] for g in grouping["vector_groups"]) == 8
        # Timeout heuristics and stream-driven devices ride the loop.
        assert grouping["loop_devices"] == 4

    def test_inline_system_spec(self):
        raw = {
            "groups": [
                {
                    "count": 2,
                    "system": {
                        "name": "inline",
                        "queue_capacity": 1,
                        "provider": {
                            "states": ["on", "off"],
                            "commands": ["s_on", "s_off"],
                            "transitions": {
                                "s_on": [[1.0, 0.0], [0.1, 0.9]],
                                "s_off": [[0.2, 0.8], [0.0, 1.0]],
                            },
                            "service_rates": [[0.8, 0.0], [0.0, 0.0]],
                            "power": [[3.0, 4.0], [4.0, 0.0]],
                        },
                        "requester": {
                            "transitions": [[0.9, 0.1], [0.2, 0.8]],
                            "arrivals": [0, 1],
                        },
                    },
                    "agent": {"type": "optimal", "penalty_bound": 0.5},
                }
            ]
        }
        fleet, _ = build_fleet(raw)
        assert len(fleet) == 2
        FleetController(fleet, slices_per_tick=50).run(1)

    def test_adaptive_auto_memory_agent(self):
        raw = {
            "groups": [
                {
                    "id": "auto",
                    "count": 1,
                    "system": "example",
                    "agent": {
                        "type": "adaptive",
                        "window": 50,
                        "refit_every": 30,
                        "auto_memory": True,
                        "memories": [1, 2],
                        "penalty_bound": 0.5,
                        "loss_bound": 0.25,
                    },
                }
            ]
        }
        fleet, _ = build_fleet(raw, base_seed=5)
        FleetController(fleet, slices_per_tick=60).run(2)
        agent = fleet.device("auto-0000").agent
        assert agent.refits >= 1
        assert agent.fitted_memory in (1, 2)
        assert "chain-estimator" in agent.describe()

    def test_spec_validation_errors(self):
        with pytest.raises(ValidationError, match="groups"):
            build_fleet({"groups": []})
        with pytest.raises(ValidationError, match="missing 'system'"):
            build_fleet({"groups": [{"agent": {"type": "optimal"}}]})
        with pytest.raises(ValidationError, match="unknown system"):
            build_fleet(
                {"groups": [{"system": "toaster", "agent": {"type": "optimal"}}]}
            )
        with pytest.raises(ValidationError, match="unknown agent type"):
            build_fleet(
                {"groups": [{"system": "example", "agent": {"type": "psychic"}}]}
            )

    def test_trace_workload_loaded_once_per_group(self, tmp_path):
        from repro.traces.trace import Trace

        path = tmp_path / "trace.txt"
        Trace([0.5, 1.5, 2.5], duration=4).save(path)
        raw = {
            "groups": [
                {
                    "count": 3,
                    "system": "example",
                    "agent": {"type": "timeout", "timeout": 2,
                              "active": "s_on", "sleep": "s_off"},
                    "workload": {
                        "type": "trace",
                        "path": str(path),
                        "resolution": 1.0,
                    },
                }
            ]
        }
        fleet, _ = build_fleet(raw)
        streams = [device.stream for device in fleet]
        # One shared backing buffer, one private cursor per device.
        assert all(
            np.shares_memory(s.counts, streams[0].counts)
            for s in streams[1:]
        )
        FleetController(fleet, slices_per_tick=10).run(1)
        assert all(s.position == 10 for s in streams)

    def test_infeasible_optimal_agent_reported(self):
        raw = {
            "groups": [
                {
                    "system": "example",
                    "agent": {"type": "optimal", "penalty_bound": 1e-9},
                }
            ]
        }
        with pytest.raises(ValidationError, match="infeasible"):
            build_fleet(raw)
