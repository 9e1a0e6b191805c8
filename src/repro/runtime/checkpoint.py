"""Fleet checkpointing: save and resume long campaigns deterministically.

A checkpoint captures *everything* the controller needs to continue as
if it had never stopped: every device's model, agent (including
internal heuristic state), accumulators, current joint state, workload
stream cursor and — crucially — its random generator state.  Because
fleet randomness is per-device (see
:mod:`repro.runtime.controller`), a resumed campaign consumes each
device's stream from exactly where the checkpoint left it, and the
telemetry it goes on to produce is byte-identical to an uninterrupted
run's.

**Format (version 2)**: consecutive protocol-4 pickles — a header
(the payload, ``fleet`` replaced by its version, model count and
device count), the *model table*, then one record per device in fleet
order.  The table holds each shared object once per content key (the
SHA-256 of its encoding): systems, cost models, policies, stationary
agents, policy caches and read-only arrays such as
:class:`~repro.runtime.streams.TraceStream` counts.  Every entry and
record has its own memo scope and names entries by position
(``persistent_id``); arrays are written by value.  The bytes are thus
a function of content alone — object sharing, the process that built
an object and dtype identity never reach the file — so a sharded
daemon's gathered fleet writes the single-process controller's bytes.
Loading re-shares each model among its devices (content-equal models
included).

Pickle is the right tool here: device state is arbitrary Python
(stateful agents, trackers, numpy generators), the file is a private
save-game rather than an interchange format, and loading one is as
trusted as importing the code that wrote it.  Fleets containing
non-serializable members (a :class:`~repro.runtime.streams.CallableStream`,
an agent closed over a lambda) are rejected with a clear error at save
time instead of a corrupt file at 3 a.m.
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle
import sys
import time
from pathlib import Path

import numpy as np

from repro import faults
from repro.core.costs import CostModel
from repro.core.policy import MarkovPolicy
from repro.core.system import PowerManagedSystem
from repro.policies.base import StationaryAgent
from repro.runtime.fleet import Fleet
from repro.runtime.policy_cache import PolicyCache
from repro.util.validation import ValidationError

__all__ = [
    "CHECKPOINT_FIELDS",
    "CHECKPOINT_VERSION",
    "checkpoint_payload",
    "encode_checkpoint",
    "load_checkpoint",
    "save_checkpoint",
    "write_checkpoint",
]

#: The complete field set of a checkpoint payload.  Declared once;
#: ``repro.lint`` rule SCH001 statically checks :func:`save_checkpoint`
#: against it, so the writer and :func:`load_checkpoint`'s readers
#: cannot drift apart silently.  Adding a field here is an explicit
#: schema decision — remember to bump :data:`CHECKPOINT_VERSION` when
#: the change is incompatible.
CHECKPOINT_FIELDS = frozenset(
    {
        "format",
        "version",
        "tick",
        "slices_per_tick",
        "backend",
        "chunk_slices",
        "telemetry_every",
        "telemetry_per_device",
        "fleet",
    }
)

#: Bump on incompatible payload changes; loaders reject mismatches.
CHECKPOINT_VERSION = 2

#: Payload marker distinguishing fleet checkpoints from arbitrary pickles.
_FORMAT = "repro-fleet-checkpoint"

#: Pinned pickle protocol (stable across the supported CPythons).
_PROTOCOL = 4

#: Types whose instances are stored once in the model table.  Read-only
#: ndarrays are too; every other object is pickled by value.
_SHARED_BASES = (
    PowerManagedSystem,
    CostModel,
    MarkovPolicy,
    StationaryAgent,
    PolicyCache,
)


def _array(dtype: str, shape: tuple, data: bytes) -> np.ndarray:
    """Rebuild an array written by :func:`_reduce_array`."""
    return np.frombuffer(bytearray(data), dtype=dtype).reshape(shape)


def _reduce_array(array: np.ndarray):
    """Write an array by value (dtype string, shape, raw bytes): numpy's
    own reduce pickles the dtype *object*, which pickle memoizes by
    identity, so equal arrays could encode differently."""
    dtype = array.dtype
    if dtype.hasobject or dtype.fields is not None:
        return array.__reduce_ex__(_PROTOCOL)
    # Interned, so repeated dtype names memoize alike.
    return _array, (sys.intern(dtype.str), array.shape, array.tobytes())


_DISPATCH = {np.ndarray: _reduce_array}


class _Encoder(pickle.Pickler):
    """Pickle one object per memo scope; shared objects other than
    ``root`` (the table entry being encoded) become table positions."""

    def __init__(self, table: "_ModelTable", root=None):
        self._buffer = io.BytesIO()
        super().__init__(self._buffer, protocol=_PROTOCOL)
        self.dispatch_table = _DISPATCH
        self._table, self._root = table, root

    def persistent_id(self, obj):
        kinds = self._table.kinds
        shared = kinds.get(type(obj))
        if shared is None:
            shared = kinds[type(obj)] = issubclass(type(obj), _SHARED_BASES)
        if not shared or obj is self._root:
            return None
        if shared == "array" and obj.flags.writeable:
            return None
        return self._table.ref(obj)

    def encode(self, obj) -> bytes:
        self.dump(obj)
        self.clear_memo()
        blob = self._buffer.getvalue()
        self._buffer.seek(0)
        self._buffer.truncate()
        return blob


class _ModelTable:
    """Shared objects, each stored once under its content key.  An
    entry is appended after the entries it refers to, so a reader can
    load the table front to back."""

    def __init__(self):
        # Exact-type cache: is a type in _SHARED_BASES?  ndarray maps to
        # the read-only test.  persistent_id runs for every pickled
        # object, and a dict lookup is what keeps that affordable.
        self.kinds: dict[type, object] = {np.ndarray: "array"}
        self.blobs: list[bytes] = []
        self._by_key: dict[bytes, int] = {}
        # id -> (object, position); holding the object keeps its id
        # unique while the encode runs.
        self._by_id: dict[int, tuple[object, int]] = {}

    def ref(self, obj) -> int:
        hit = self._by_id.get(id(obj))
        if hit is None:
            blob = _Encoder(self, root=obj).encode(obj)
            key = hashlib.sha256(blob).digest()
            if key not in self._by_key:
                self._by_key[key] = len(self.blobs)
                self.blobs.append(blob)
            hit = self._by_id[id(obj)] = (obj, self._by_key[key])
        return hit[1]


def encode_checkpoint(payload: dict) -> bytes:
    """The checkpoint file bytes of a :func:`checkpoint_payload` mapping
    (layout in the module docstring); a payload without a ``fleet`` is
    one plain pickle of the mapping."""
    header, parts = dict(payload), []
    try:
        fleet = payload.get("fleet")
        if fleet is not None:
            table = _ModelTable()
            encoder = _Encoder(table)
            records = [encoder.encode(device) for device in fleet]
            header["fleet"] = {
                "version": fleet.version,
                "models": len(table.blobs),
                "devices": len(records),
            }
            parts = table.blobs + records
        head = pickle.dumps(header, protocol=_PROTOCOL)
    except Exception as exc:
        raise ValidationError(
            f"fleet state is not serializable ({exc}); agents and streams "
            f"must avoid lambdas and open handles to be checkpointable"
        ) from exc
    return b"".join([head, *parts])


def _decode_fleet(stream, descriptor: dict) -> Fleet:
    models: list = []

    def load():
        unpickler = pickle.Unpickler(stream)
        unpickler.persistent_load = models.__getitem__
        return unpickler.load()

    for _ in range(descriptor["models"]):
        model = load()
        if type(model) is np.ndarray:
            model.flags.writeable = False
        models.append(model)
    fleet = Fleet()
    for _ in range(descriptor["devices"]):
        fleet.adopt_device(load())
    fleet.version = descriptor["version"]
    return fleet


def checkpoint_payload(  # repro-lint: schema=CHECKPOINT_FIELDS
    fleet,
    tick: int,
    slices_per_tick: int,
    backend: str,
    chunk_slices: int,
    telemetry_every: int,
    telemetry_per_device: bool,
) -> dict:
    """Build a checkpoint payload from explicit run state.

    The shared producer behind :func:`save_checkpoint` (single-process
    controller) and the service daemon's gathered-fleet checkpoints —
    one payload literal, so the two paths cannot drift and a sharded
    daemon checkpoint is byte-identical to a single-process one for
    equal fleet state.  Raises
    :class:`~repro.util.validation.ValidationError` when any device
    cannot be serialized (live callable streams), naming the device.
    """
    for device in fleet:
        if device.stream is not None and not device.stream.checkpointable:
            raise ValidationError(
                f"device {device.device_id!r} is fed by a "
                f"non-checkpointable stream "
                f"({device.stream.describe()}); replace it with a "
                f"trace/synthetic stream to checkpoint this fleet"
            )
    return {
        "format": _FORMAT,
        "version": CHECKPOINT_VERSION,
        "tick": int(tick),
        "slices_per_tick": int(slices_per_tick),
        "backend": str(backend),
        "chunk_slices": int(chunk_slices),
        "telemetry_every": int(telemetry_every),
        "telemetry_per_device": bool(telemetry_per_device),
        "fleet": fleet,
    }


#: fsync attempts before giving up (transient EIO on networked
#: filesystems is real; a checkpoint is worth three tries).
_FSYNC_ATTEMPTS = 3


def _fsync_with_retry(fh, path) -> None:
    """fsync ``fh``, retrying transient failures a bounded number of
    times.  The fault point lets chaos plans script the failure."""
    for attempt in range(1, _FSYNC_ATTEMPTS + 1):
        try:
            faults.CHECKPOINT_FSYNC.fire(path=str(path))
            os.fsync(fh.fileno())
            return
        except OSError:
            if attempt == _FSYNC_ATTEMPTS:
                raise
            time.sleep(0.01 * attempt)


def write_checkpoint(path, payload: dict, *, fsync: bool = False) -> None:
    """Serialize a :func:`checkpoint_payload` mapping to ``path``.

    The write is atomic — a temp file in the same directory is
    ``os.replace``\\ d over ``path`` — so a writer killed mid-save can
    never leave a torn checkpoint: ``path`` holds either the previous
    complete checkpoint or the new one.  The file bytes themselves are
    unchanged by the rename (see :func:`encode_checkpoint`).
    ``fsync=True`` additionally syncs the temp file before the rename
    so the checkpoint survives machine crashes, not just process ones.
    """
    blob = encode_checkpoint(payload)
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
            fh.flush()
            if fsync:
                _fsync_with_retry(fh, path)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def save_checkpoint(path, controller, *, fsync: bool = False) -> None:
    """Write ``controller``'s full fleet state to ``path``.

    Raises :class:`~repro.util.validation.ValidationError` when any
    device cannot be serialized (live callable streams, lambda-closure
    agents), naming the offending device.
    """
    write_checkpoint(
        path,
        checkpoint_payload(
            controller.fleet,
            controller.tick,
            controller.slices_per_tick,
            controller.backend,
            controller.chunk_slices,
            controller._telemetry_every,
            controller._telemetry_per_device,
        ),
        fsync=fsync,
    )


def load_checkpoint(path) -> dict:
    """Read and validate a checkpoint payload written by
    :func:`save_checkpoint`.

    Returns the payload mapping (``fleet``, ``tick``,
    ``slices_per_tick``, ``backend``, telemetry settings); use
    :meth:`~repro.runtime.controller.FleetController.resume` to turn
    it straight into a running controller.
    """
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"checkpoint file {path} does not exist")
    stream = io.BytesIO(path.read_bytes())
    try:
        payload = pickle.load(stream)
        ours = isinstance(payload, dict) and payload.get("format") == _FORMAT
        version = payload.get("version") if ours else None
        if version == CHECKPOINT_VERSION:
            payload["fleet"] = _decode_fleet(stream, payload["fleet"])
    except Exception as exc:
        raise ValidationError(
            f"checkpoint file {path} is not readable ({exc})"
        ) from exc
    if not ours:
        raise ValidationError(f"{path} is not a repro fleet checkpoint")
    if version != CHECKPOINT_VERSION:
        raise ValidationError(
            f"checkpoint version {version!r} is not supported "
            f"(this build reads version {CHECKPOINT_VERSION})"
        )
    return payload
