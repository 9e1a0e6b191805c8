"""Content keys: batching and shard dealing follow model content.

:func:`repro.runtime.fleet.group_keys` is the one place a device's
content identity is worked out.  These tests pin down that grouping
depends on content rather than object identity, that a regroup hashes
each distinct model object once however large the fleet is, and that
nothing keyed by object identity outlives a call.
"""

from __future__ import annotations

import gc
import weakref

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
    PolicyCache,
    build_fleet,
    device_rng,
)
from repro.runtime import fleet as fleet_module
from repro.runtime import policy_cache as policy_cache_module
from repro.runtime.fleet import group_keys
from repro.service import FleetDaemon, Partitioner
from repro.systems import disk_drive, example_system


def _add(fleet, bundle, agent, index):
    return fleet.add_device(
        f"d-{index}",
        bundle.system,
        bundle.costs,
        agent,
        rng=device_rng(0, index),
    )


class TestContentGrouping:
    def test_content_equal_systems_batch_together(self):
        first, second = disk_drive.build(), disk_drive.build()
        assert first.system is not second.system
        fleet = Fleet()
        for index in range(4):
            bundle = first if index % 2 == 0 else second
            policy = eager_markov_policy(bundle.system, "go_active", "go_sleep")
            _add(fleet, bundle, StationaryPolicyAgent(bundle.system, policy), index)
        controller = FleetController(fleet, slices_per_tick=20)
        assert controller.grouping() == {
            "vector_groups": [{"devices": 4, "distinct_policies": 1}],
            "loop_devices": 0,
        }
        controller.run(1)
        assert fleet.total_slices == 80

    def test_replace_agent_flipping_determinism_moves_one_device(
        self, example_bundle, example_optimizer
    ):
        eager = eager_markov_policy(example_bundle.system, "s_on", "s_off")
        randomized = example_optimizer.minimize_power(
            penalty_bound=0.5, loss_bound=0.2
        ).policy
        fleet = Fleet()
        for index in range(4):
            agent = StationaryPolicyAgent(example_bundle.system, eager)
            _add(fleet, example_bundle, agent, index)
        controller = FleetController(fleet, slices_per_tick=20)
        controller.run(1)
        before = group_keys(fleet)
        assert {key for key, _ in before} == {before[0][0]}
        assert before[0][0][2] == "det"

        fleet.replace_agent(
            "d-2", StationaryPolicyAgent(example_bundle.system, randomized)
        )
        after = group_keys(fleet)
        moved = [i for i, (old, new) in enumerate(zip(before, after)) if old != new]
        assert moved == [2]
        assert after[2][0] == (*before[2][0][:2], "stoch")
        controller.run(1)
        groups = controller.grouping()["vector_groups"]
        assert sorted(group["devices"] for group in groups) == [1, 3]

    def test_partitioner_deals_constant_agents_by_content(self, disk_bundle):
        # ConstantAgent builds a fresh policy object on every query and
        # the two example systems are separate objects, so only content
        # can tell which devices belong together.
        bundles = [example_system.build(), example_system.build(), disk_bundle]
        picks = [0, 1, 2, 0, 2, 1, 1, 0, 2, 1]
        fleet = Fleet()
        for index, pick in enumerate(picks):
            _add(fleet, bundles[pick], ConstantAgent(0), index)
        shards = Partitioner(2).assign(list(fleet))
        example = [s for s, pick in zip(shards, picks) if pick != 2]
        disk = [s for s, pick in zip(shards, picks) if pick == 2]
        assert example == [i % 2 for i in range(len(example))]
        assert disk == [i % 2 for i in range(len(disk))]

    def test_nothing_outlives_a_deal(self, example_bundle):
        returned = []

        class TrackedConstant(ConstantAgent):
            def stationary_policy(self, system):
                policy = super().stationary_policy(system)
                returned.append(weakref.ref(policy))
                return policy

        fleet = Fleet()
        for index in range(6):
            _add(fleet, example_bundle, TrackedConstant(0), index)
        partitioner = Partitioner(2)
        partitioner.assign(list(fleet))
        gc.collect()
        assert returned
        assert all(ref() is None for ref in returned)


def test_device_group_key_is_its_batch_key(example_bundle, disk_bundle):
    fleet = Fleet()
    eager = eager_markov_policy(example_bundle.system, "s_on", "s_off")
    _add(fleet, example_bundle, StationaryPolicyAgent(example_bundle.system, eager), 0)
    _add(fleet, disk_bundle, TimeoutAgent(4, 0, 1), 1)
    keys = group_keys(fleet)
    assert [device.group_key() for device in fleet] == [key for key, _ in keys]
    assert [key[2] for key, _ in keys] == ["det", "loop"]


@pytest.mark.parametrize("n_devices", [8, 64])
def test_regroup_hashes_each_model_object_once(
    n_devices, example_bundle, disk_bundle, monkeypatch
):
    """A 1-device registration costs one hash per distinct model object."""
    eager = eager_markov_policy(example_bundle.system, "s_on", "s_off")
    fleet = Fleet()
    for index in range(n_devices):
        if index % 4 == 3:
            _add(fleet, disk_bundle, TimeoutAgent(4, 0, 1), index)
        else:
            agent = StationaryPolicyAgent(example_bundle.system, eager)
            _add(fleet, example_bundle, agent, index)
    controller = FleetController(fleet, slices_per_tick=10)
    controller.run(1)

    calls = {"system": 0, "costs": 0}

    def counting(kind, digest):
        def wrapped(obj):
            calls[kind] += 1
            return digest(obj)

        return wrapped

    for module in (fleet_module, policy_cache_module):
        monkeypatch.setattr(
            module,
            "system_signature",
            counting("system", policy_cache_module.system_signature),
        )
        monkeypatch.setattr(
            module,
            "costs_signature",
            counting("costs", policy_cache_module.costs_signature),
        )
    _add(
        fleet,
        example_bundle,
        StationaryPolicyAgent(example_bundle.system, eager),
        n_devices,
    )
    controller.run(1)
    # Two distinct model objects: the example system and the disk drive.
    assert calls == {"system": 2, "costs": 2}


def test_build_fleet_fills_callers_empty_cache():
    spec = {
        "groups": [
            {
                "count": 2,
                "system": "example",
                "agent": {"type": "optimal", "penalty_bound": 0.5},
            }
        ]
    }
    cache = PolicyCache()
    _, returned = build_fleet(spec, cache=cache)
    assert returned is cache
    assert len(cache) > 0


def test_daemon_keeps_callers_empty_cache(tmp_path):
    cache = PolicyCache()
    daemon = FleetDaemon(tmp_path / "fleet.sock", None, policy_cache=cache)
    assert daemon._cache is cache
