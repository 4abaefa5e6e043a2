"""Which calls are traced, and the per-layer metrics built from them.

Layer times come from spans (see :mod:`spans`); layer counts come from
the one shared ``MetricsRegistry`` the workloads attach to every
component.  A metric a workload does not exercise reads 0 there: that
is the prediction for a workload that bypasses the layer.
"""

from __future__ import annotations

from typing import Dict

from repro.aggregation import AggregatingMatcher
from repro.system import ShardedMatcher
from repro.system.wal import RECORD_TYPES

from common import family_total

MATCH_METHODS = ("match", "match_batch", "match_serial")
MUTATE_METHODS = ("add", "remove")
WAL_APPENDS = tuple(f"append_{kind}" for kind in RECORD_TYPES)

SHARDS = 2


def instrument(tracer, rig) -> None:
    """Wrap the public calls of every component *rig*'s broker holds."""
    broker = rig.broker
    for method in ("publish_batch", "subscribe_batch", "subscribe", "unsubscribe"):
        tracer.wrap(broker, method, "broker")
    tracer.wrap(broker, "subscribe_formula", "lang")
    front = broker.matcher
    if isinstance(front, ShardedMatcher):
        for method in MATCH_METHODS + MUTATE_METHODS:
            tracer.wrap(front, method, "sharding")
        for index in range(front.shards):
            shard = front.shard(index)
            for method in MATCH_METHODS + MUTATE_METHODS + ("match_batch_shm",):
                tracer.wrap(shard, method, f"shard.{index}")
        pool = front.shard(0).pool
        for method in ("request", "request_many", "publish_events"):
            tracer.wrap(pool, method, "procpool")
    elif isinstance(front, AggregatingMatcher):
        for method in MATCH_METHODS + MUTATE_METHODS:
            tracer.wrap(front, method, "aggregation")
        for method in MATCH_METHODS + MUTATE_METHODS:
            tracer.wrap(front.inner, method, "matcher")
    else:
        for method in MATCH_METHODS + MUTATE_METHODS:
            tracer.wrap(front, method, "matcher")
        if hasattr(front, "rebuild"):
            tracer.wrap(front, "rebuild", "clustering")
    delivery = broker.delivery
    if delivery is not None:
        for method in ("dispatch_matches", "dispatch", "pump", "poll", "ack", "register"):
            tracer.wrap(delivery, method, "delivery")
    wal = broker.wal
    if wal is not None:
        for method in WAL_APPENDS:
            tracer.wrap(wal, method, "wal")
        # Policy fsyncs happen inside the appends, not through the public
        # ``sync``; the one private method they all go through is the only
        # place to time them from outside.
        tracer.wrap(wal, "_sync_locked", "wal.sync")


def per_layer_metrics(table, phase, flat_run, flat_setup, extras) -> Dict[str, float]:
    """Every per-layer metric, by name (BENCHMARK.json picks and orders them).

    *table* holds the spans; *phase* is the traced half of the timed
    phase; *flat_run* the registry deltas over it; *flat_setup* the
    registry after the traced set-up; *extras* the workload's own
    numbers (recovery records, overhead).
    """
    run, setup = ("run",), ("setup",)
    events = max(phase.events, 1)
    reg = lambda name, part="value", **labels: family_total(flat_run, name, part, **labels)

    shard_s = [table.outer_s(f"shard.{i}", scopes=run) for i in range(SHARDS)]
    mean_shard = sum(shard_s) / len(shard_s)
    publishes = table.count("broker", ("publish_batch",), run)
    front_layer = next(
        (layer for layer in ("sharding", "aggregation") if table.count(layer)), "matcher"
    )
    matcher_calls = table.count_under(front_layer, MATCH_METHODS, "run", "broker")
    notifications = phase.matches
    wal_bytes = reg("repro_wal_bytes_total")

    out = {
        "broker.self_s": table.self_s("broker", scopes=run),
        "broker.matcher_calls_per_batch": matcher_calls / publishes if publishes else 0.0,
        "sharding.self_s": table.self_s("sharding", scopes=run),
        "sharding.shard_skew": max(shard_s) / mean_shard if mean_shard else 0.0,
        "sharding.degraded": reg("repro_sharded_degraded_total"),
        "sharding.breaker_transitions": reg("repro_breaker_transitions_total"),
        "procpool.ipc_s": table.outer_s("procpool", ("request", "request_many"), run),
        "procpool.ipc_calls": reg("repro_procpool_ipc_seconds", "count"),
        "procpool.pipe_bytes_per_event": reg("repro_procpool_bytes_total") / events,
        "procpool.add_s": sum(
            table.outer_s(f"shard.{i}", ("add",), setup) for i in range(SHARDS)
        ),
        "shm.bytes_per_event": reg("repro_shm_bytes_total") / events,
        "shm.fallbacks": reg("repro_shm_fallback_total"),
        "shm.slot_wait_s": reg("repro_shm_slot_wait_seconds", "sum"),
        "matcher.match_s": table.outer_s("matcher", MATCH_METHODS, run),
        "matcher.subscription_checks": reg("repro_subscription_checks_total"),
        "matcher.predicates_satisfied": reg("repro_predicates_satisfied_total"),
        "aggregation.expand_s": table.self_s("aggregation", MATCH_METHODS, run),
        "aggregation.expansions": reg("repro_agg_expansions_total"),
        "aggregation.add_s": table.self_s("aggregation", ("add",), setup),
        "aggregation.remove_s": table.self_s("aggregation", ("remove",)),
        "aggregation.frontier": family_total(flat_setup, "repro_agg_frontier_size"),
        "delivery.dispatch_s": table.self_s("delivery", ("dispatch_matches", "dispatch"), run),
        "delivery.poll_s": table.self_s("delivery", ("poll",), run),
        "delivery.ack_s": table.self_s("delivery", ("ack",), run),
        "delivery.acks": reg("repro_delivery_acks_total"),
        "delivery.redeliveries": reg("repro_delivery_redeliveries_total"),
        "delivery.dead_letters": reg("repro_delivery_dead_lettered_total"),
        "delivery.inflight_peak": phase.inflight_peak,
        "wal.append_s": table.self_s("wal", scopes=run),
        "wal.sync_s": table.outer_s("wal.sync", scopes=run),
        "wal.bytes": wal_bytes,
        "wal.bytes_per_notification": wal_bytes / notifications if notifications else 0.0,
        "wal.fsyncs": reg("repro_wal_fsyncs_total"),
        "recovery.read_s": table.self_s("recovery"),
        "recovery.replay_s": table.children_s("recovery"),
        "recovery.records": extras.get("recovery_records", 0),
        "clustering.rebuild_s": table.outer_s("clustering"),
        "clustering.plan_schemas": family_total(flat_setup, "repro_static_plan_schemas"),
        "lang.formula_s": table.self_s("lang", scopes=run),
        "trace.wall_s": sum(table.walls.values()),
        "trace.unaccounted_frac": table.unaccounted_frac(),
        "trace.overhead_frac": extras.get("overhead_frac", 0.0),
    }
    for index, seconds in enumerate(shard_s):
        out[f"sharding.shard_s.{index}"] = seconds
    for kind in RECORD_TYPES:
        out[f"wal.appends.{kind}"] = reg("repro_wal_appends_total", kind=kind)
    return out
