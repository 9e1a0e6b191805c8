"""Spans around calls into each layer's public functions.

The traced run wraps the functions named in :data:`LAYER_SPANS` at run
time, from this file, without editing the program.  Each call records
a span (name, start, end, parent span, operation id).  Spans stay in
memory and are written out once, when the run ends.  A layer's self
time is the duration of its spans minus the part their child spans
cover.  Counts (``group_key`` calls, encoded frame bytes) are made at
the same call sites.

The layer names are the ROADMAP's, so spans added inside the program
later can keep them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from array import array
from collections import defaultdict

#: layer -> (module, attribute path) of each wrapped function.
LAYER_SPANS = {
    "regroup": (
        ("repro.runtime.fleet", "Device.group_key"),
        ("repro.runtime.policy_cache", "system_signature"),
        ("repro.runtime.policy_cache", "costs_signature"),
        ("repro.runtime.policy_cache", "policy_signature"),
        ("repro.sim.backends.vector", "CompiledPolicyBatch.compile"),
        ("repro.sim.backends.base", "SimulationTables.compile"),
    ),
    "uniform_draws": (
        ("repro.sim.rng_batched", "BatchedPCG64Source.random"),
        ("repro.sim.rng", "FanInSource.random"),
    ),
    "step_kernel": (
        ("repro.sim.backends.vector", "VectorBackend.step_lanes"),
        ("repro.sim.backends.jit", "JitBackend.step_lanes"),
    ),
    "scatter_sync": (
        ("repro.sim.rng_batched", "BatchedPCG64Source.sync"),
        ("repro.runtime.controller", "FleetController.step_tick"),
    ),
    "telemetry": (
        ("repro.runtime.telemetry", "snapshot"),
        ("repro.runtime.telemetry", "JsonLinesTelemetry.record"),
    ),
    "checkpoint.payload": (("repro.runtime.checkpoint", "checkpoint_payload"),),
    "checkpoint.write": (("repro.runtime.checkpoint", "write_checkpoint"),),
    "checkpoint.load": (("repro.runtime.checkpoint", "load_checkpoint"),),
    "service.step_wait": (("repro.service.daemon", "ShardSupervisor.step_tick"),),
    "service.gather": (("repro.service.daemon", "ShardSupervisor.collect_records"),),
    "service.snapshot": (("repro.runtime.telemetry", "snapshot_from_records"),),
    "service.protocol": (
        ("repro.service.protocol", "FrameChannel.send"),
        ("repro.service.protocol", "decode_frame"),
    ),
    "service.register": (
        ("repro.service.daemon", "ShardSupervisor.register_devices"),
        ("repro.service.shard", "Partitioner.assign"),
    ),
    "policy_solve": (("repro.runtime.policy_cache", "PolicyCache.optimize"),),
    "lp.assembly": (
        ("repro.core.optimizer", "PolicyOptimizer.build_lp"),
        ("repro.core.average_cost", "AverageCostOptimizer.build_lp"),
    ),
    "lp.solve": (("repro.lp.solve", "solve_lp"),),
    "lp.extract": (
        ("repro.core.optimizer", "PolicyOptimizer.result_from_lp"),
        ("repro.core.average_cost", "AverageCostOptimizer.result_from_lp"),
    ),
}

#: Spans that also count something: span name -> counter name.
COUNTED_CALLS = {"Device.group_key": "group_key_calls"}


class Tracer:
    """In-memory span store; one span stack per thread.

    The benchmark calls :meth:`begin_op` / :meth:`end_op` around each
    operation it times, so spans recorded on the daemon's serving
    thread carry the id of the client request they serve.  Spans are
    kept as rows of one flat ``array`` -- no per-span Python object
    survives the call, so tracing a regroup's tens of thousands of
    calls does not feed the garbage collector.
    """

    #: Fields of one span row in :attr:`rows`.
    FIELDS = ("name", "start", "end", "span", "parent", "op")

    def __init__(self):
        self.enabled = False
        self.op_id = 0
        self.op_kinds: dict[int, str] = {}
        self.op_seconds: dict[int, float] = {}
        self._op_start = 0.0
        self.names: list[tuple[str, str]] = []  # (function, layer)
        self.rows = array("d")
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._ids = itertools.count(1)
        self._local = threading.local()

    def begin_op(self, kind: str) -> None:
        if not self.enabled:
            return
        self.op_id = next(self._ids)
        self.op_kinds[self.op_id] = kind
        self._op_start = time.perf_counter()

    def end_op(self) -> None:
        if self.op_id:
            self.op_seconds[self.op_id] = time.perf_counter() - self._op_start
        self.op_id = 0

    def count(self, name: str, amount: int = 1) -> None:
        if self.enabled:
            self.counts[self.op_id][name] += amount

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, layer: str, fn):
        counter = COUNTED_CALLS.get(name)
        tracer = self
        name_index = len(self.names)
        self.names.append((name, layer))
        rows = self.rows
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            op = tracer.op_id
            if counter is not None:
                tracer.counts[op][counter] += 1
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                # One extend is one C call: rows stay whole across threads.
                rows.extend((name_index, start, end, span_id, parent, op))

        return traced

    def spans(self):
        """Every span as (function, layer, start, end, span, parent, op)."""
        rows, width = self.rows, len(self.FIELDS)
        for i in range(0, len(rows), width):
            name, start, end, span, parent, op = rows[i : i + width]
            function, layer = self.names[int(name)]
            yield function, layer, start, end, int(span), int(parent), int(op)

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def self_times(self) -> dict[int, dict[str, float]]:
        """op id -> layer -> self seconds (duration minus children)."""
        child_cover: dict[int, float] = defaultdict(float)
        for _, _, start, end, _, parent, _ in self.spans():
            if parent:
                child_cover[parent] += end - start
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for _, layer, start, end, span, _, op in self.spans():
            out[op][layer] += (end - start) - child_cover.get(span, 0.0)
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as handle:
            for function, layer, start, end, span, parent, op in self.spans():
                record = {
                    "name": function,
                    "layer": layer,
                    "start": start,
                    "end": end,
                    "span": span,
                    "parent": parent,
                    "op": op,
                    "op_kind": self.op_kinds.get(op),
                }
                handle.write(json.dumps(record) + "\n")


def _resolve(module_name: str, path: str):
    module = importlib.import_module(module_name)
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def instrument(tracer: Tracer) -> None:
    """Wrap every function in :data:`LAYER_SPANS` for this process.

    Module-level functions are also rebound in every ``repro`` module
    that imported them by name; class attributes are replaced on the
    class that defines them, keeping classmethod/staticmethod kinds.
    Must run before the objects that cache bound methods are built.
    """
    for layer, targets in LAYER_SPANS.items():
        for module_name, path in targets:
            try:
                owner, attr = _resolve(module_name, path)
            except (ImportError, AttributeError):
                continue  # optional tier (e.g. jit without numba)
            raw = inspect.getattr_static(owner, attr)
            if inspect.isclass(owner):
                if attr not in vars(owner):
                    continue
                if isinstance(raw, classmethod):
                    wrapped = classmethod(tracer.wrap(path, layer, raw.__func__))
                elif isinstance(raw, staticmethod):
                    wrapped = staticmethod(tracer.wrap(path, layer, raw.__func__))
                else:
                    wrapped = tracer.wrap(path, layer, raw)
                setattr(owner, attr, wrapped)
                continue
            wrapped = tracer.wrap(path, layer, raw)
            for name, module in list(sys.modules.items()):
                if not name.startswith("repro") or module is None:
                    continue
                if getattr(module, attr, None) is raw:
                    setattr(module, attr, wrapped)

    # Frame bytes: counted where frames are encoded (client and server
    # share this process).
    from repro.service import protocol

    encode = protocol.encode_frame

    @functools.wraps(encode)
    def counted_encode(message):
        data = encode(message)
        tracer.count("frame_bytes", len(data))
        return data

    protocol.encode_frame = counted_encode
