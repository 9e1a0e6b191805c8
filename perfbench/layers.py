"""Per-layer metrics of a traced run.

Each self time is the layer's self time summed over the operations of
the kinds listed for it, divided by how many such operations ran, so
it reads as seconds per operation beside the end-to-end medians.  A
``tick`` is a controller tick, or one ``step(1)`` request in the
service.  A layer idle on a workload reads 0 there.  ``README.md``
maps each layer metric to the end-to-end metric it should move.
"""

from __future__ import annotations

from collections import defaultdict

READ_OPS = ("tick",)
CHANGE_OPS = ("register", "remove", "push")
SOLVE_OPS = ("solve", "register", "push")

#: metric name -> (layer recorded by the tracer, operation kinds).
SELF_TIMES = {
    "regroup.self_s": ("regroup", CHANGE_OPS),
    "uniform_draws.self_s": ("uniform_draws", READ_OPS),
    "step_kernel.self_s": ("step_kernel", READ_OPS),
    "scatter_sync.self_s": ("scatter_sync", READ_OPS),
    "telemetry.self_s": ("telemetry", READ_OPS),
    "checkpoint.payload_s": ("checkpoint.payload", ("checkpoint",)),
    "checkpoint.write_s": ("checkpoint.write", ("checkpoint",)),
    "checkpoint.load_s": ("checkpoint.load", ("resume",)),
    "service.step_wait_s": ("service.step_wait", READ_OPS),
    "service.gather_s": ("service.gather", READ_OPS),
    "service.snapshot_s": ("service.snapshot", READ_OPS),
    "service.protocol_s": ("service.protocol", READ_OPS),
    "service.register_s": ("service.register", ("register",)),
    "policy_solve.self_s": ("policy_solve", SOLVE_OPS),
    "lp.assembly_s": ("lp.assembly", SOLVE_OPS),
    "lp.solve_s": ("lp.solve", SOLVE_OPS),
    "lp.extract_s": ("lp.extract", SOLVE_OPS),
}
#: metric name -> (key of a count the workload reports with its base, unit).
COUNTED = {
    "telemetry.bytes_per_tick": ("telemetry_bytes_per_tick", "B"),
    "checkpoint.bytes_per_device": ("checkpoint_bytes_per_device", "B"),
    "spool.bytes_per_tick": ("spool_bytes_per_tick", "B"),
    "lp.iterations_per_solve": ("cold_iterations_per_solve", "count"),
    "lp.refactorizations_per_solve": ("cold_refactorizations_per_solve", "count"),
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer, workload, counts: dict) -> dict:
    """``name -> (value, unit)`` for every per-layer metric of a run."""
    self_by_op = tracer.self_times()
    ops_by_kind: dict[str, list[int]] = defaultdict(list)
    for op_id, kind in tracer.op_kinds.items():
        ops_by_kind[kind].append(op_id)

    def ops_of(kinds) -> list[int]:
        return [op for kind in kinds for op in ops_by_kind.get(kind, ())]

    def counted(name: str, kinds) -> int:
        return sum(tracer.counts.get(op, {}).get(name, 0) for op in ops_of(kinds))

    metrics = {}
    for name, (layer, kinds) in SELF_TIMES.items():
        ops = ops_of(kinds)
        total = sum(self_by_op.get(op, {}).get(layer, 0.0) for op in ops)
        metrics[name] = (_ratio(total, len(ops)), "s")
    keys = counted("group_key_calls", CHANGE_OPS)
    changed = counted("changed_devices", CHANGE_OPS)
    metrics["regroup.keys_per_changed_device"] = (_ratio(keys, changed), "count")
    frame_bytes = counted("frame_bytes", READ_OPS)
    ticks = len(ops_of(READ_OPS))
    metrics["service.frame_bytes_per_step"] = (_ratio(frame_bytes, ticks), "B")
    for name, (key, unit) in COUNTED.items():
        metrics[name] = (counts.get(key, {}).get("value", 0.0), unit)

    # A PolicyCache.optimize span with no solve_lp inside it is a hit.
    spans = list(tracer.spans())
    solving = {span[5] for span in spans if span[1] == "lp.solve"}
    lookups = [span[4] for span in spans if span[1] == "policy_solve"]
    hits = sum(1 for span in lookups if span not in solving)
    metrics["policy_cache.hit_ratio"] = (_ratio(hits, len(lookups)), "ratio")
    sweep = counts.get("sweep", {})
    warm_share = _ratio(sweep.get("n_warm", 0), sweep.get("n_solves", 0))
    metrics["lp.warm_share"] = (warm_share, "ratio")

    # How much of the timed operation the layer spans account for.
    primary = ops_of((workload.primary,))
    covered = sum(sum(self_by_op.get(op, {}).values()) for op in primary)
    elapsed = sum(tracer.op_seconds.get(op, 0.0) for op in primary)
    metrics["trace.op_coverage"] = (_ratio(covered, elapsed), "ratio")
    return metrics
