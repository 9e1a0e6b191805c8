"""The sharded fleet service: byte-identity, restarts, live control.

The contract under test is the one :mod:`repro.service` exists for:
a sharded run's device-level telemetry and checkpoints are
**byte-identical** to the single-process
:class:`~repro.runtime.controller.FleetController` for the same fleet
spec and seed — for any shard count, after re-partitioning on resume,
across mid-run worker kills, and through live membership and policy
changes.  Telemetry comparisons use the canonical JSON serialization
(``sort_keys``); checkpoint comparisons use raw pickle bytes, which is
only meaningful within one interpreter (``PYTHONHASHSEED`` varies
set iteration order across processes — the CI smoke job covers the
cross-process telemetry half).
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import threading
import time

import pytest

from repro.runtime import (
    FleetController,
    MemoryTelemetry,
    build_agent_from_spec,
    build_fleet,
    build_group_devices,
    checkpoint_payload,
    load_checkpoint,
)
from repro.runtime.fleet import group_keys
from repro.runtime.telemetry import snapshot_from_records
from repro.service import (
    FleetDaemon,
    Partitioner,
    ServiceClient,
    ServiceError,
    ShardSupervisor,
)
from repro.util.validation import ValidationError

SEED = 11
SLICES = 50

SPEC = {
    "name": "service-test",
    "groups": [
        {
            "id": "disks",
            "count": 12,
            "system": "disk_drive",
            "agent": {"type": "optimal", "penalty_bound": 0.05},
        },
        {
            "id": "tmo",
            "count": 6,
            "system": "disk_drive",
            "agent": {
                "type": "timeout",
                "active": "go_active",
                "sleep": "go_sleep",
                "timeout": 40,
            },
            "workload": {"type": "mmpp2", "p_stay_idle": 0.95},
        },
    ],
}

EXTRA_GROUP = {
    "id": "extra",
    "count": 4,
    "system": "disk_drive",
    "agent": {
        "type": "timeout",
        "active": "go_active",
        "sleep": "go_sleep",
        "timeout": 25,
    },
    "workload": {"type": "mmpp2", "p_stay_idle": 0.9},
}

NEW_AGENT = {
    "type": "timeout",
    "active": "go_active",
    "sleep": "go_sleep",
    "timeout": 10,
}


def _dump(records):
    return [json.dumps(record, sort_keys=True) for record in records]


def _single_process_records(n_ticks, spec=SPEC):
    fleet, _ = build_fleet(spec, base_seed=SEED)
    sink = MemoryTelemetry()
    controller = FleetController(
        fleet,
        slices_per_tick=SLICES,
        telemetry=sink,
        telemetry_per_device=True,
    )
    controller.run(n_ticks)
    return controller, sink


def _supervisor_records(supervisor, n_ticks):
    """Step and snapshot exactly as the daemon's telemetry path does."""
    out = []
    for _ in range(n_ticks):
        supervisor.step_tick()
        record = snapshot_from_records(
            supervisor.tick, supervisor.collect_records(), per_device=True
        )
        record["backend"] = supervisor.resolved_backend
        out.append(record)
    return out


def _start_supervisor(n_shards, fleet=None, tick=0, **kwargs):
    supervisor = ShardSupervisor(
        n_shards, slices_per_tick=SLICES, **kwargs
    )
    if fleet is None:
        fleet, _ = build_fleet(SPEC, base_seed=SEED)
    supervisor.start(fleet, tick=tick)
    return supervisor


@pytest.fixture(scope="module")
def reference():
    """Six uninterrupted single-process ticks, per-device telemetry."""
    _, sink = _single_process_records(6)
    return _dump(sink.records)


# ----------------------------------------------------------------------
# partitioning
# ----------------------------------------------------------------------
def test_partitioner_deals_round_robin_per_signature():
    fleet, _ = build_fleet(SPEC, base_seed=SEED)
    devices = list(fleet)
    partitioner = Partitioner(3)
    assignment = partitioner.assign(devices)
    # equal-signature devices spread evenly, in registration order
    by_signature: dict[tuple, list[int]] = {}
    for (key, _), shard in zip(group_keys(devices), assignment):
        by_signature.setdefault(key, []).append(shard)
    assert len(by_signature) == 2  # optimal-group vs timeout-group
    for shards in by_signature.values():
        assert shards == [i % 3 for i in range(len(shards))]
    # a pure function of registration order: replay agrees, and a
    # second batch continues the deal where the first stopped
    replay = Partitioner(3)
    assert replay.assign(devices) == assignment
    split = Partitioner(3)
    first = split.assign(devices[:7])
    second = split.assign(devices[7:])
    assert first + second == assignment


def test_partitioner_rejects_bad_shard_count():
    with pytest.raises(ValidationError, match="n_shards"):
        Partitioner(0)


# ----------------------------------------------------------------------
# telemetry and checkpoint byte-identity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n_shards", [1, 3])
def test_sharded_telemetry_matches_single_process(reference, n_shards):
    supervisor = _start_supervisor(n_shards)
    try:
        records = _supervisor_records(supervisor, 6)
    finally:
        supervisor.stop()
    assert _dump(records) == reference


def test_checkpoint_bytes_identical_across_shard_counts(tmp_path):
    controller, _ = _single_process_records(3)
    expected = pickle.dumps(
        checkpoint_payload(
            controller.fleet, 3, SLICES, "auto", 256, 1, True
        ),
        protocol=4,
    )
    for n_shards in (1, 2, 3):
        supervisor = _start_supervisor(n_shards)
        try:
            supervisor.run(3)
            path = tmp_path / f"shards-{n_shards}.ckpt"
            supervisor.save_checkpoint(
                path, telemetry_every=1, telemetry_per_device=True
            )
        finally:
            supervisor.stop()
        assert path.read_bytes() == expected, n_shards


def test_resume_under_repartitioning(reference, tmp_path):
    path = tmp_path / "mid.ckpt"
    supervisor = _start_supervisor(4)
    try:
        prefix = _dump(_supervisor_records(supervisor, 3))
        supervisor.save_checkpoint(path)
    finally:
        supervisor.stop()
    assert prefix == reference[:3]
    for n_shards in (2, 1):
        payload = load_checkpoint(path)
        resumed = ShardSupervisor(
            n_shards,
            slices_per_tick=payload["slices_per_tick"],
            backend=payload["backend"],
            chunk_slices=payload["chunk_slices"],
        )
        resumed.start(payload["fleet"], tick=payload["tick"])
        try:
            suffix = _dump(_supervisor_records(resumed, 3))
        finally:
            resumed.stop()
        assert suffix == reference[3:], n_shards


# ----------------------------------------------------------------------
# worker death
# ----------------------------------------------------------------------
def test_worker_kill_restarts_from_spool(reference):
    supervisor = _start_supervisor(3)
    try:
        records = _supervisor_records(supervisor, 3)
        victim = supervisor.info()["worker_pids"][1]
        os.kill(victim, signal.SIGKILL)
        records += _supervisor_records(supervisor, 3)
        assert supervisor.restarts >= 1
        assert victim not in supervisor.info()["worker_pids"]
    finally:
        supervisor.stop()
    assert _dump(records) == reference


def test_spooling_disabled_makes_worker_death_fatal():
    supervisor = _start_supervisor(2, checkpoint_every=0)
    try:
        supervisor.step_tick()
        os.kill(supervisor.info()["worker_pids"][0], signal.SIGKILL)
        with pytest.raises(ValidationError, match="spool"):
            supervisor.run(3)
    finally:
        supervisor.stop()


# ----------------------------------------------------------------------
# live membership and policy changes
# ----------------------------------------------------------------------
def test_live_ops_match_single_process():
    # single-process reference: 2 ticks, register a group, retire a
    # device, push a policy, 3 more ticks
    fleet, _ = build_fleet(SPEC, base_seed=SEED)
    sink = MemoryTelemetry()
    controller = FleetController(
        fleet,
        slices_per_tick=SLICES,
        telemetry=sink,
        telemetry_per_device=True,
    )
    controller.run(2)
    extra = build_group_devices(EXTRA_GROUP, group_index=2, base_seed=SEED)
    for device in extra:
        fleet.adopt_device(device)
    fleet.remove_device("tmo-0001")
    target = fleet.device("disks-0002")
    fleet.replace_agent(
        "disks-0002",
        build_agent_from_spec(NEW_AGENT, target.system, target.costs),
    )
    controller.run(3)

    supervisor = _start_supervisor(3)
    try:
        records = _supervisor_records(supervisor, 2)
        supervisor.register_devices(
            build_group_devices(EXTRA_GROUP, group_index=2, base_seed=SEED)
        )
        supervisor.remove_device("tmo-0001")
        system, costs = supervisor.canonical_model("disks-0002")
        supervisor.replace_agents(
            [("disks-0002", build_agent_from_spec(NEW_AGENT, system, costs))]
        )
        records += _supervisor_records(supervisor, 3)
    finally:
        supervisor.stop()
    assert _dump(records) == _dump(sink.records)


def test_supervisor_rejects_bad_operations():
    supervisor = _start_supervisor(2)
    try:
        with pytest.raises(ValidationError, match="already running"):
            fleet, _ = build_fleet(SPEC, base_seed=SEED)
            supervisor.start(fleet)
        with pytest.raises(ValidationError, match="duplicate device id"):
            supervisor.register_devices(
                build_group_devices(
                    SPEC["groups"][1], group_index=1, base_seed=SEED
                )
            )
        with pytest.raises(ValidationError, match="unknown device"):
            supervisor.remove_device("ghost-0000")
        with pytest.raises(ValidationError, match="unknown device"):
            supervisor.canonical_model("ghost-0000")
    finally:
        supervisor.stop()
    with pytest.raises(ValidationError, match="not running"):
        supervisor.step_tick()


# ----------------------------------------------------------------------
# the daemon over a real socket
# ----------------------------------------------------------------------
def _socket_path(tmp_path):
    # AF_UNIX paths are capped at ~100 bytes; pytest tmp dirs stay
    # short enough, but keep the leaf minimal anyway
    path = tmp_path / "s"
    assert len(str(path)) < 100
    return str(path)


def _run_daemon(tmp_path, supervisor=None, **kwargs):
    if supervisor is None:
        supervisor = ShardSupervisor(2, slices_per_tick=SLICES)
    socket_path = _socket_path(tmp_path)
    daemon = FleetDaemon(socket_path, supervisor, **kwargs)
    thread = threading.Thread(target=daemon.serve_forever, daemon=True)
    thread.start()
    deadline = time.monotonic() + 30
    while not os.path.exists(socket_path):
        assert time.monotonic() < deadline, "daemon never bound its socket"
        time.sleep(0.01)
    return socket_path, thread


def test_daemon_end_to_end(reference, tmp_path):
    socket_path, thread = _run_daemon(
        tmp_path, telemetry_per_device=True
    )
    streamed: list = []
    checkpoint_path = tmp_path / "live.ckpt"
    with ServiceClient(socket_path, timeout=120) as client:
        assert client.server_hello["server"] == "repro-dpm-fleetd"
        assert client.server_hello["shards"] == 2
        for group in SPEC["groups"]:
            client.register_group(group, base_seed=SEED)
        info = client.info()
        assert info["n_devices"] == 18
        assert sum(info["devices_per_shard"]) == 18
        result = client.step(6, on_telemetry=streamed.append)
        assert result == {"tick": 6, "ticks_run": 6}
        assert client.ping() == {"pong": True, "tick": 6}
        snap = client.snapshot(per_device=True)
        assert snap["tick"] == 6
        assert len(snap["devices"]) == 18
        client.checkpoint(
            checkpoint_path, telemetry_every=1, telemetry_per_device=True
        )
        assert client.remove_device("tmo-0005")["n_devices"] == 17
        updated = client.update_policy("disks-0000", NEW_AGENT)
        assert updated["agent"] == "timeout(10)"
        client.shutdown()
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert not os.path.exists(socket_path)
    # streamed telemetry is the single-process reference, byte for byte
    assert _dump(streamed) == reference
    payload = load_checkpoint(checkpoint_path)
    assert payload["tick"] == 6
    assert len(payload["fleet"]) == 18


def test_daemon_requires_hello_first(tmp_path):
    import socket as socket_module

    from repro.service.protocol import FrameChannel, make_request

    socket_path, thread = _run_daemon(tmp_path)
    # a raw connection that skips the handshake is refused...
    raw = socket_module.socket(socket_module.AF_UNIX)
    raw.connect(socket_path)
    channel = FrameChannel(raw)
    greeting = channel.receive()
    assert greeting["event"] == "hello"
    channel.send(make_request(0, "ping"))
    reply = channel.receive()
    assert reply["ok"] is False
    assert "hello" in reply["error"]
    channel.close()
    # ...and a version mismatch is refused with a clear error...
    raw = socket_module.socket(socket_module.AF_UNIX)
    raw.connect(socket_path)
    channel = FrameChannel(raw)
    channel.receive()
    channel.send(
        make_request(0, "hello", {"protocol": PROTOCOL_MISMATCH})
    )
    reply = channel.receive()
    assert reply["ok"] is False
    assert "protocol version mismatch" in reply["error"]
    channel.close()
    # ...while the daemon keeps serving the next client
    with ServiceClient(socket_path, timeout=60) as client:
        assert client.ping()["pong"] is True
        client.shutdown()
    thread.join(timeout=30)


PROTOCOL_MISMATCH = 999


def test_client_errors_are_service_errors(tmp_path):
    socket_path, thread = _run_daemon(tmp_path)
    with ServiceClient(socket_path, timeout=60) as client:
        with pytest.raises(ServiceError, match="unknown device"):
            client.remove_device("ghost-0000")
        # the connection survives a refused request
        assert client.ping()["pong"] is True
        client.shutdown()
    thread.join(timeout=30)
    with pytest.raises(ServiceError, match="cannot connect"):
        ServiceClient(socket_path, timeout=5).connect()
