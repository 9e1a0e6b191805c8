"""repro.service — the sharded fleet-control daemon.

The :mod:`repro.runtime` controller steps a fleet in one process; its
throughput at 100k devices is capped by the serial per-device RNG
fan-in, not kernel speed.  This package turns the controller into a
long-lived *service* that breaks that cap without giving up a single
byte of determinism:

* :mod:`~repro.service.protocol` — the versioned JSON-lines wire
  format (request/response/event frames, SCH001-checked field sets,
  the hello handshake);
* :mod:`~repro.service.shard` — worker processes, each stepping its
  content-addressed fleet partition with a private controller and
  spooling per-shard restart checkpoints;
* :mod:`~repro.service.daemon` — :class:`ShardSupervisor` (deal,
  step in lockstep, restart-from-spool on worker death, gather) and
  :class:`FleetDaemon` (the ``AF_UNIX`` accept loop);
* :mod:`~repro.service.client` — the blocking :class:`ServiceClient`
  behind ``repro-dpm fleet-ctl``: live register/remove, policy push,
  step-with-streamed-telemetry, checkpoint, shutdown.

The contract inherited from the runtime layer and preserved end to
end: a sharded run's device-level telemetry and checkpoints are
**byte-identical** to the single-process
:class:`~repro.runtime.controller.FleetController` for the same fleet
spec and seed — for any shard count, after re-partitioning on resume,
and across mid-run worker restarts.

Quickstart::

    repro-dpm serve examples/fleet_spec.json \\
        --socket /tmp/fleet.sock --shards 4 --telemetry fleet.jsonl &
    repro-dpm fleet-ctl --socket /tmp/fleet.sock step 10
    repro-dpm fleet-ctl --socket /tmp/fleet.sock checkpoint run.ckpt
    repro-dpm fleet-ctl --socket /tmp/fleet.sock shutdown
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.daemon import FleetDaemon, ShardSupervisor
from repro.service.protocol import (
    EVENT_FIELDS,
    EVENT_TYPES,
    HELLO_FIELDS,
    PROTOCOL_VERSION,
    REQUEST_FIELDS,
    REQUEST_TYPES,
    RESPONSE_FIELDS,
    SERVER_NAME,
    FrameChannel,
    ProtocolError,
)
from repro.service.shard import Partitioner, ShardConfig

__all__ = [
    "EVENT_FIELDS",
    "EVENT_TYPES",
    "FleetDaemon",
    "FrameChannel",
    "HELLO_FIELDS",
    "PROTOCOL_VERSION",
    "Partitioner",
    "ProtocolError",
    "REQUEST_FIELDS",
    "REQUEST_TYPES",
    "RESPONSE_FIELDS",
    "SERVER_NAME",
    "ServiceClient",
    "ServiceError",
    "ShardConfig",
    "ShardSupervisor",
]
