"""Column telemetry and columnar group accumulators.

Fleet snapshots reduce stacked per-layout columns instead of one
``Device.averages`` dict per device, and a vector group owns its
devices' accumulators as columns the devices hold row views into.
Neither change may move a byte: the reference below is the per-device
reduction the snapshot producers used before (``Device.averages`` per
device, a plain left-to-right fold, builtin ``min``/``max``), and every
record must serialize exactly like it.
"""

from __future__ import annotations

import json

import numpy as np

from repro.core.costs import CostModel
from repro.policies import StationaryPolicyAgent, eager_markov_policy
from repro.runtime import (
    Device,
    Fleet,
    FleetController,
    MemoryTelemetry,
    build_agent_from_spec,
    build_fleet,
    build_group_devices,
    checkpoint_payload,
    device_record,
    device_rng,
    encode_checkpoint,
    snapshot,
    snapshot_from_records,
)
from repro.runtime.fleet import group_keys
from repro.runtime.telemetry import _fold_sum
from repro.systems import disk_drive, example_system

COUNTERS = ("arrivals", "serviced", "lost", "loss_event_slices")
SLICES = 20
SEED = 3

DISK = {"system": "disk_drive", "initial_state": ["active", "0", 0]}
SPEC = {
    "name": "columns",
    "groups": [
        dict(DISK, id="det", count=6, agent={"type": "optimal", "penalty_bound": 0.5}),
        dict(DISK, id="rnd", count=5, agent={"type": "optimal", "penalty_bound": 0.008}),
        dict(
            DISK,
            id="tmo",
            count=2,
            agent={
                "type": "timeout",
                "timeout": 30,
                "active": "go_active",
                "sleep": "go_standby",
            },
        ),
        {
            "id": "edge",
            "count": 2,
            "system": "example",
            "agent": {"type": "eager", "active": "s_on", "sleep": "s_off"},
            "workload": {"type": "mmpp2", "p_stay_idle": 0.95, "p_stay_busy": 0.85},
        },
    ],
}
STOCH_AGENT = {"type": "optimal", "penalty_bound": 0.011}


# ----------------------------------------------------------------------
# the reference: the per-device reduction, verbatim in behaviour
# ----------------------------------------------------------------------
def _reference_fold_sum(series) -> float:
    total = 0.0
    for value in series:
        total += value
    return total


def _reference_metrics(stats) -> tuple[dict, dict]:
    values: dict[str, list[float]] = {}
    counters = {name: 0 for name in COUNTERS}
    for averages, device_counters in stats:
        for name, value in averages.items():
            values.setdefault(name, []).append(value)
        for name, value in zip(COUNTERS, device_counters):
            counters[name] += value
    metrics = {
        name: {
            "mean": _reference_fold_sum(series) / len(series),
            "min": min(series),
            "max": max(series),
        }
        for name, series in values.items()
    }
    return metrics, counters


def _reference_snapshot(fleet: Fleet, tick: int) -> dict:
    metrics, counters = _reference_metrics(
        (device.averages, tuple(getattr(device, n) for n in COUNTERS))
        for device in fleet
    )
    return {
        "tick": int(tick),
        "n_devices": len(fleet),
        "fleet_slices": fleet.total_slices,
        "metrics": metrics,
        "counters": counters,
    }


def _dumps(record) -> str:
    return json.dumps(record, sort_keys=True)


def _assert_matches_reference(fleet: Fleet, tick: int) -> None:
    expected = _dumps(_reference_snapshot(fleet, tick))
    assert _dumps(snapshot(fleet, tick)) == expected
    records = [device_record(device) for device in fleet]
    assert _dumps(snapshot_from_records(tick, records)) == expected


def _walk_numbers(value):
    if isinstance(value, dict):
        for item in value.values():
            yield from _walk_numbers(item)
    elif isinstance(value, list):
        for item in value:
            yield from _walk_numbers(item)
    elif not isinstance(value, str):
        yield value


# ----------------------------------------------------------------------
# oracle: the column reduction equals the per-device one at every tick
# ----------------------------------------------------------------------
class TestOracle:
    def test_churned_fleet_matches_per_device_reduction(self):
        fleet, cache = build_fleet(SPEC, base_seed=SEED)
        flavors = {key[2] for key, _ in group_keys(fleet)}
        assert flavors == {"det", "stoch", "loop"}
        controller = FleetController(fleet, slices_per_tick=SLICES)
        _assert_matches_reference(fleet, 0)
        burst = dict(SPEC["groups"][1], id="burst", count=3)
        for tick in range(1, 8):
            if tick == 2:
                for device in build_group_devices(
                    burst, group_index=len(SPEC["groups"]), base_seed=SEED,
                    cache=cache,
                ):
                    fleet.adopt_device(device)
                # Registered between ticks: slices == 0, averages 0.0.
                _assert_matches_reference(fleet, controller.tick)
            elif tick == 3:
                fleet.remove_device("det-0001")
            elif tick == 4:
                device = fleet.device("det-0002")
                fleet.replace_agent(
                    "det-0002",
                    build_agent_from_spec(
                        STOCH_AGENT, device.system, device.costs, cache=cache
                    ),
                )
                key, _ = group_keys([fleet.device("det-0002")])[0]
                assert key[2] == "stoch"
            controller.step_tick()
            _assert_matches_reference(fleet, controller.tick)

    def test_fold_matches_plain_loop(self):
        rng = np.random.default_rng(7)
        series = [
            np.array([0.1] * 10),
            np.array([-0.0, -0.0]),
            np.array([-0.0, 1.5, -1.5]),
            rng.standard_normal(257) * 10.0 ** rng.integers(-8, 8, 257),
        ]
        for values in series:
            expected = _reference_fold_sum(values.tolist())
            assert repr(_fold_sum(values)) == repr(expected)
        assert _fold_sum(np.array([0.1] * 10)) == 0.9999999999999999


# ----------------------------------------------------------------------
# edge cases of the column snapshot
# ----------------------------------------------------------------------
def _extra_metric_costs(bundle) -> CostModel:
    costs = CostModel.standard(bundle.system)
    costs.add_metric("wear", np.ones((bundle.system.n_states, bundle.system.n_commands)))
    return costs


class TestEdgeCases:
    def test_empty_fleet(self):
        for record in (snapshot(Fleet(), 0), snapshot_from_records(0, [])):
            assert record["metrics"] == {}
            assert record["counters"] == {name: 0 for name in COUNTERS}
            assert record["fleet_slices"] == 0
            assert record["n_devices"] == 0

    def test_unstepped_device_contributes_zero(self):
        bundle = example_system.build()
        policy = eager_markov_policy(bundle.system, "s_on", "s_off")
        fleet = Fleet()
        for i in range(2):
            fleet.add_device(
                f"d-{i}", bundle.system, bundle.costs,
                StationaryPolicyAgent(bundle.system, policy),
                rng=device_rng(SEED, i),
            )
        FleetController(fleet, slices_per_tick=SLICES).run(2)
        late = fleet.add_device(
            "late", bundle.system, bundle.costs,
            StationaryPolicyAgent(bundle.system, policy),
            rng=device_rng(SEED, 9),
        )
        assert late.slices == 0
        record = snapshot(fleet, 2)
        assert record["metrics"]["power"]["min"] == 0.0
        _assert_matches_reference(fleet, 2)

    def test_partial_metric_folds_in_fleet_order(self):
        # Three metric layouts interleaved: disks (standard), example
        # devices with an extra "wear" metric, plain example devices.
        disk = disk_drive.build()
        example = example_system.build()
        extra = _extra_metric_costs(example)
        disk_policy = eager_markov_policy(disk.system, "go_active", "go_sleep")
        example_policy = eager_markov_policy(example.system, "s_on", "s_off")
        kinds = [
            (disk.system, disk.costs, disk_policy),
            (example.system, extra, example_policy),
            (example.system, example.costs, example_policy),
        ]
        fleet = Fleet()
        for i in range(6):
            system, costs, policy = kinds[i % 3]
            fleet.add_device(
                f"d-{i}", system, costs,
                StationaryPolicyAgent(system, policy),
                rng=device_rng(SEED, i),
            )
        # Values whose fold depends on order: in fleet order the power
        # mean's sum is 0.0; grouped layout by layout it would be 2.0.
        power = [1.0, 1e16, 1.0, -1e16, 0.0, 0.0]
        for device, value in zip(fleet, power):
            device.totals[device.metric_names.index("power")] = value
            device.slices = 1
        fleet.device("d-1").totals[-1] = 3.0
        fleet.device("d-4").totals[-1] = 5.0
        record = snapshot(fleet, 1)
        assert record["metrics"]["power"]["mean"] == 0.0
        assert record["metrics"]["wear"] == {"mean": 4.0, "min": 3.0, "max": 5.0}
        assert list(record["metrics"]) == ["power", "penalty", "loss", "overflow", "wear"]
        _assert_matches_reference(fleet, 1)
        FleetController(fleet, slices_per_tick=SLICES).run(2)
        _assert_matches_reference(fleet, 2)

    def test_record_values_are_builtin_numbers(self):
        fleet, _ = build_fleet(SPEC, base_seed=SEED)
        sink = MemoryTelemetry()
        controller = FleetController(fleet, slices_per_tick=SLICES, telemetry=sink)
        controller.run(2)
        records = [device_record(device) for device in fleet]
        for record in (sink.records[-1], snapshot_from_records(2, records)):
            numbers = list(_walk_numbers(record))
            assert numbers
            assert {type(value) for value in numbers} <= {int, float}
            json.dumps(record)


# ----------------------------------------------------------------------
# the columnar hot path
# ----------------------------------------------------------------------
class TestColumnarAccumulators:
    def test_plain_tick_reads_no_device_averages(self, monkeypatch):
        fleet, _ = build_fleet(SPEC, base_seed=SEED)
        controller = FleetController(
            fleet, slices_per_tick=SLICES, telemetry=MemoryTelemetry()
        )
        reads = []
        averages = Device.averages

        def counting(device):
            reads.append(device.device_id)
            return averages.fget(device)

        monkeypatch.setattr(Device, "averages", property(counting))
        assert controller.step_tick() is not None
        assert reads == []

    def test_grouped_devices_share_their_batch_columns(self):
        fleet, _ = build_fleet(SPEC, base_seed=SEED)
        FleetController(fleet, slices_per_tick=SLICES).run(1)
        first, second = fleet.device("det-0000"), fleet.device("det-0001")
        for name in ("totals", "command_counts", "provider_occupancy"):
            column = getattr(first, name).base
            assert column is not None
            assert getattr(second, name).base is column
        assert fleet.device("tmo-0000").totals.base is None

    def test_checkpoint_bytes_ignore_row_views(self):
        fleet, _ = build_fleet(SPEC, base_seed=SEED)
        FleetController(fleet, slices_per_tick=SLICES).run(2)

        def payload() -> bytes:
            return encode_checkpoint(
                checkpoint_payload(fleet, 2, SLICES, "auto", 256, 1, False)
            )

        viewed = payload()
        for device in fleet:
            device.totals = device.totals.copy()
            device.command_counts = device.command_counts.copy()
            device.provider_occupancy = device.provider_occupancy.copy()
        assert payload() == viewed
