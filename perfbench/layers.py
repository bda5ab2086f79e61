"""Which ``repro`` entry points get spans, and the per-layer metrics.

:func:`install` wraps the public entry points of each layer (module) of
the program; :func:`per_layer_metrics` turns the folded span statistics
of the traced passes into the per-layer metrics ``BENCHMARK.json``
names.  :data:`LAYERS` records, for each layer, which end-to-end metric
its numbers should move, on which workload, and where the prediction
is no change.

Counts are per traced pass; ``.ns``/``.us`` metrics are per call.
"""

from __future__ import annotations

import functools
import statistics

import numpy as np

from spans import ShardStats, Stat, Tracer

#: name -> unit of every per-layer metric, in report order.
UNITS = {
    "hardware.step.calls": "count",
    "hardware.step.ns": "ns",
    "hardware.preview.ns": "ns",
    "papi.sample.calls": "count",
    "papi.sample.ns": "ns",
    "core.tick.calls": "count",
    "core.tick.ns": "ns",
    "core.on_time.self_ns": "ns",
    "core.tick_lanes.calls": "count",
    "core.tick_lanes.ns": "ns",
    "core.tick_lanes.lanes_per_call": "count",
    "sim.stepper.tick.calls": "count",
    "sim.stepper.tick.self_ns": "ns",
    "sim.batch.lane_ticks": "count",
    "sim.batch.self_ns_per_lane_tick": "ns",
    "sim.batch.vector_lane_frac": "fraction",
    "sim.trace.record.calls": "count",
    "sim.trace.record.ns": "ns",
    "sim.trace.overhead_frac": "fraction",
    "executor.spec_key.us": "us",
    "executor.shards": "count",
    "executor.steals": "count",
    "executor.busy_frac": "fraction",
    "executor.dispatch_s": "s",
    "cache.get.calls": "count",
    "cache.get.us": "us",
    "cache.put.us": "us",
    "cache.hit_ratio": "fraction",
    "cache.bytes_per_entry": "B",
    "cache.open_s": "s",
    "cluster.periods": "count",
    "fleet.allocate.us": "us",
    "cluster.self_s": "s",
    "hetero.run_s": "s",
    "split.allocate.calls": "count",
    "split.allocate.us": "us",
    "bench.span_overhead": "ratio",
}


#: layer -> (module, per-layer metrics, moves, on, no change on).
LAYERS: list[dict] = [
    dict(
        layer="repro.hardware",
        metrics=["hardware.step.calls", "hardware.step.ns", "hardware.preview.ns"],
        moves=["wall_s", "sim_ticks_per_s", "cell_p88_s"],
        on=["paper_sweep", "cluster16"],
        no_change_on=["batch_traced", "sweep_cached"],
    ),
    dict(
        layer="repro.papi",
        metrics=["papi.sample.calls", "papi.sample.ns"],
        moves=["wall_s"],
        on=["paper_sweep"],
        no_change_on=["batch_traced"],
    ),
    dict(
        layer="repro.core (scalar ticks, runtime)",
        metrics=["core.tick.calls", "core.tick.ns", "core.on_time.self_ns"],
        moves=["wall_s"],
        on=["paper_sweep", "cluster16"],
        no_change_on=["batch_traced"],
    ),
    dict(
        layer="repro.core (lane forms)",
        metrics=[
            "core.tick_lanes.calls",
            "core.tick_lanes.ns",
            "core.tick_lanes.lanes_per_call",
        ],
        moves=["wall_s", "sim_ticks_per_s"],
        on=["batch_traced", "sweep_cached"],
        no_change_on=["paper_sweep"],
    ),
    dict(
        layer="repro.sim (stepper)",
        metrics=["sim.stepper.tick.calls", "sim.stepper.tick.self_ns"],
        moves=["wall_s"],
        on=["paper_sweep", "cluster16"],
        no_change_on=["batch_traced"],
    ),
    dict(
        layer="repro.sim.batch",
        metrics=[
            "sim.batch.lane_ticks",
            "sim.batch.self_ns_per_lane_tick",
            "sim.batch.vector_lane_frac",
        ],
        moves=["wall_s", "sim_ticks_per_s"],
        on=["batch_traced", "sweep_cached"],
        no_change_on=["paper_sweep", "cluster16"],
    ),
    dict(
        layer="repro.sim.trace",
        metrics=[
            "sim.trace.record.calls",
            "sim.trace.record.ns",
            "sim.trace.overhead_frac",
        ],
        moves=["wall_s", "peak_rss_mb"],
        on=["batch_traced"],
        no_change_on=["cluster16"],
    ),
    dict(
        layer="repro.experiments.executor",
        metrics=[
            "executor.spec_key.us",
            "executor.shards",
            "executor.steals",
            "executor.busy_frac",
            "executor.dispatch_s",
        ],
        moves=["wall_s", "replay_s"],
        on=["sweep_cached"],
        no_change_on=["paper_sweep"],
    ),
    dict(
        layer="repro.experiments.cache",
        metrics=[
            "cache.get.calls",
            "cache.get.us",
            "cache.put.us",
            "cache.hit_ratio",
            "cache.bytes_per_entry",
            "cache.open_s",
        ],
        moves=["replay_s", "wall_s", "setup_s"],
        on=["sweep_cached"],
        no_change_on=["paper_sweep", "batch_traced", "cluster16"],
    ),
    dict(
        layer="repro.cluster + repro.core.fleet",
        metrics=["cluster.periods", "fleet.allocate.us", "cluster.self_s"],
        moves=["wall_s"],
        on=["cluster16"],
        no_change_on=["paper_sweep", "batch_traced", "sweep_cached"],
    ),
    dict(
        layer="repro.sim.hetero + repro.core.split",
        metrics=["hetero.run_s", "split.allocate.calls", "split.allocate.us"],
        moves=["wall_s"],
        on=["cluster16"],
        no_change_on=["paper_sweep", "batch_traced", "sweep_cached"],
    ),
    dict(
        layer="perfbench (its own spans)",
        metrics=["bench.span_overhead"],
        moves=[],
        on=[],
        no_change_on=[],
    ),
]


def _own_subclasses(base: type, attr: str) -> list[type]:
    """``base`` and every subclass that defines ``attr`` itself."""
    seen, todo, out = set(), [base], []
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        todo.extend(cls.__subclasses__())
        if callable(vars(cls).get(attr)):
            out.append(cls)
    return sorted(out, key=lambda c: (c.__module__, c.__qualname__))


def install(tracer: Tracer) -> None:
    """Wrap the entry points of every layer (restored by ``uninstall``)."""
    from repro.cluster.engine import ClusterEngine
    from repro.core import registry
    from repro.core.base import Controller
    from repro.core.runtime import ControllerRuntime
    from repro.core.split import SplitPolicy
    from repro.experiments import executor
    from repro.experiments.cache import ResultCache
    from repro.hardware.processor import SimulatedProcessor
    from repro.papi.highlevel import IntervalMeter
    from repro.sim import batch
    from repro.sim.engine import SimulationStepper
    from repro.sim.hetero import HeteroEngine
    from repro.sim.trace import TraceSink

    # A missing entry point raises here and fails the traced run, so a
    # renamed one never reads as a zero-cost layer.
    wrap = tracer.wrap
    wrap(SimulatedProcessor, "step", "hardware.step")
    wrap(SimulatedProcessor, "preview_progress_rate", "hardware.preview")
    wrap(IntervalMeter, "sample", "papi.sample")
    for cls in _own_subclasses(Controller, "tick"):
        wrap(cls, "tick", "core.tick")
    wrap(ControllerRuntime, "on_time", "core.on_time")
    for key in list(registry._VECTOR_TICKS):
        wrap(
            registry._VECTOR_TICKS, key, "core.tick_lanes",
            weigh=lambda args, _: len(args[1]),
        )
    wrap(SimulationStepper, "tick", "sim.stepper.tick")
    wrap(batch.BatchSimulationEngine, "run", "sim.batch.run")
    wrap(
        batch.BatchSimulationEngine, "_tick", "sim.batch.lane_ticks",
        span=False, weigh=lambda args, _: int(np.count_nonzero(args[2])),
    )
    wrap(
        batch, "controller_lane_fallback_reason", "sim.batch.lane_check",
        span=False, weigh=lambda _, reason: reason is None,
    )
    for cls in _own_subclasses(TraceSink, "record"):
        wrap(cls, "record", "sim.trace.record")
    wrap(executor, "spec_key", "executor.spec_key")
    wrap(ResultCache, "get", "cache.get")
    wrap(ResultCache, "put", "cache.put")
    wrap(ClusterEngine, "run", "cluster.run")
    wrap(HeteroEngine, "run", "hetero.run")
    for cls in _own_subclasses(SplitPolicy, "allocate"):
        if cls.__module__.endswith(".fleet"):
            wrap(cls, "allocate", "fleet.allocate")
        elif cls.__module__.endswith(".split"):
            wrap(cls, "allocate", "split.allocate")

    # Sharded cells run in pool workers forked from this process, so
    # they inherit the wrappers; each shard ships its worker's
    # statistics home with its result (see ``spans.ShardStats``).
    run_shard = vars(executor)["_run_shard"]

    @functools.wraps(run_shard)
    def shard(specs):
        tracer.reset()
        out = ShardStats(run_shard(specs))
        out.stats = tracer.stats
        return out

    tracer.replace(executor, "_run_shard", shard)


def per_layer_metrics(
    stats: dict, passes: list, *, untraced_wall_s: float,
    trace_overhead_frac: float = 0.0,
) -> dict[str, float]:
    """Per-layer metrics from the traced passes' folded span statistics."""
    n = len(passes)

    def st(name):
        return stats.get(name, Stat())

    def calls(name):
        return st(name).calls / n

    def per_call(name, field="total_ns", scale=1.0):
        s = st(name)
        return getattr(s, field) / s.calls / scale if s.calls else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    summaries = [p.summary for p in passes if p.summary is not None]
    shards = [s for summ in summaries for s in summ.shards]
    busy = 0.0
    dispatch = 0.0
    for summ in summaries:
        if summ.shards:
            per_pid: dict[int, float] = {}
            for s in summ.shards:
                per_pid[s.pid] = per_pid.get(s.pid, 0.0) + s.seconds
            busy += sum(per_pid.values()) / (summ.workers * summ.wall_s)
            dispatch += summ.wall_s - max(per_pid.values())
    lane_ticks = st("sim.batch.lane_ticks").weight

    def extra(key):
        return sum(p.extra.get(key, 0.0) for p in passes) / n

    return {
        "hardware.step.calls": calls("hardware.step"),
        "hardware.step.ns": per_call("hardware.step"),
        "hardware.preview.ns": per_call("hardware.preview"),
        "papi.sample.calls": calls("papi.sample"),
        "papi.sample.ns": per_call("papi.sample"),
        "core.tick.calls": calls("core.tick"),
        "core.tick.ns": per_call("core.tick"),
        "core.on_time.self_ns": per_call("core.on_time", "self_ns"),
        "core.tick_lanes.calls": calls("core.tick_lanes"),
        "core.tick_lanes.ns": per_call("core.tick_lanes"),
        "core.tick_lanes.lanes_per_call": per_call("core.tick_lanes", "weight"),
        "sim.stepper.tick.calls": calls("sim.stepper.tick"),
        "sim.stepper.tick.self_ns": per_call("sim.stepper.tick", "self_ns"),
        "sim.batch.lane_ticks": lane_ticks / n,
        "sim.batch.self_ns_per_lane_tick": ratio(
            st("sim.batch.run").self_ns, lane_ticks
        ),
        "sim.batch.vector_lane_frac": per_call("sim.batch.lane_check", "weight"),
        "sim.trace.record.calls": calls("sim.trace.record"),
        "sim.trace.record.ns": per_call("sim.trace.record"),
        "sim.trace.overhead_frac": trace_overhead_frac,
        "executor.spec_key.us": per_call("executor.spec_key", scale=1e3),
        "executor.shards": len(shards) / n,
        "executor.steals": sum(s.steals for s in summaries) / n,
        "executor.busy_frac": busy / n,
        "executor.dispatch_s": dispatch / n,
        "cache.get.calls": calls("cache.get"),
        "cache.get.us": per_call("cache.get", scale=1e3),
        "cache.put.us": per_call("cache.put", scale=1e3),
        "cache.hit_ratio": extra("cache_hit_ratio"),
        "cache.bytes_per_entry": extra("cache_bytes_per_entry"),
        "cache.open_s": extra("cache_open_s"),
        "cluster.periods": extra("cluster_periods"),
        "fleet.allocate.us": per_call("fleet.allocate", scale=1e3),
        "cluster.self_s": st("cluster.run").self_ns / 1e9 / n,
        "hetero.run_s": per_call("hetero.run", scale=1e9),
        "split.allocate.calls": calls("split.allocate"),
        "split.allocate.us": per_call("split.allocate", scale=1e3),
        "bench.span_overhead": ratio(
            statistics.median(p.wall_s for p in passes), untraced_wall_s
        ),
    }
