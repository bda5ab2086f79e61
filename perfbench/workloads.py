"""The benchmark's four workloads, built from a seed.

Each workload generates its inputs (run specs, engines, applications)
from the benchmark seed and hands only those to the program.  Seed 0 is
the *default* seed: it leaves every cell seed exactly as the program's
own sweep builders choose it, so ``paper_sweep`` at seed 0 is the grid
behind ``repro scorecard --runs 1``.  Any other seed shifts every cell
and node seed by a CRC of the benchmark seed.

A workload runs in *passes*.  ``prepare()`` builds the fresh, stateful
objects one pass consumes (engines, cache directories) and is not
timed; ``run(state)`` is the timed pass and returns a :class:`Pass`
holding one :class:`Op` per operation — a sweep cell, a batch lane, or
a fleet/hetero run — with a digest of its simulated outputs.  Passes
time their blocks with a :class:`calib.Stopwatch`, in reference
seconds (host seconds scaled to a reference host speed).
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
import resource
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from repro.cluster import ClusterEngine, ClusterSpec
from repro.config import ControllerConfig, yeti_socket_config
from repro.core.registry import fleet_policy, make_spec, split_policy
from repro.experiments import executor
from repro.experiments.cache import ResultCache
from repro.experiments.executor import RunSpec, cell_seed
from repro.experiments.protocol import ProtocolResult, compare, fold_protocol
from repro.experiments.scorecard import run_scorecard
from repro.experiments.sweep import SWEEP_TOLERANCES_PCT, SweepResult, sweep_specs
from repro.hardware.gpu import GPUNodeConfig
from repro.sim import batch
from repro.sim.hetero import HeteroEngine
from repro.sim.run import build_engine
from repro.workloads.catalog import build_application

from calib import Stopwatch

__all__ = ["WORKLOADS", "DEFAULT_SEED", "Op", "Pass"]

DEFAULT_SEED = 0

#: Where sweep_cached puts its throw-away cache directories.
WORK_DIR = Path(__file__).resolve().parent / ".work"

# cluster16 / hetero shape: the repro cluster and repro hetero CLI
# defaults, with the fleet widened to 16 nodes at 100 W a node.
CLUSTER_NODES = 16
CLUSTER_BUDGET_W = 100.0 * CLUSTER_NODES
CLUSTER_SCALE = 0.5
HETERO_APP = "CG"
HETERO_SCALE = 0.5
HETERO_BUDGET_W = 300.0
TOLERANCE = 0.10

# sweep_cached shape: the paper grid at a reduced problem size,
# replicated over seed offsets.
CACHED_SCALE = 0.1
CACHED_REPLICAS = 4
CACHED_WORKERS = max(1, min(2, os.cpu_count() or 1))
CACHED_REPLAYS = 3


@dataclass(frozen=True)
class Op:
    """One operation of a pass: a cell, a lane, or a fleet/hetero run."""

    label: str
    digest: str
    #: Reference seconds.
    seconds: float
    ticks: float
    #: Counts towards the per-cell percentiles (cluster16's hetero runs,
    #: an order of magnitude shorter than its fleet runs, do not).
    cell: bool = True


@dataclass
class Pass:
    """The timed outcome of one pass."""

    #: Reference seconds of the pass's timed blocks.
    wall_s: float
    ops: list[Op]
    #: Host seconds of the same blocks.
    host_s: float = 0.0
    #: Reference seconds to produce the same outputs again from a warm
    #: cache, fastest of the pass's replays (``sweep_cached`` only; other
    #: workloads re-execute instead).
    replay_s: float | None = None
    #: Executor accounting of the pass (workloads that use run_specs).
    summary: executor.ExecutionSummary | None = None
    #: Ops whose pass-internal check failed (e.g. replay != cold fill).
    failed: set[str] = field(default_factory=set)
    #: The pass's results, kept until the claims are evaluated.
    results: list = field(default_factory=list)
    #: Per-layer quantities only the workload can read (cache sizes, ...).
    extra: dict[str, float] = field(default_factory=dict)
    #: Scorecard claims that hold (evaluated on the first pass only).
    claims: int | None = None

    @property
    def ticks(self) -> float:
        return sum(op.ticks for op in self.ops)


def digest(*columns) -> str:
    """Short content digest of float columns, exact to the last bit."""
    text = json.dumps(
        [[float(x).hex() for x in col] for col in columns],
        separators=(",", ":"),
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def protocol_digest(p: ProtocolResult) -> str:
    return digest(p.times_s, p.package_power_w, p.dram_power_w, p.total_energy_j)


def seed_offset(seed: int, replica: int = 0) -> int:
    """Cell-seed shift for benchmark seed ``seed`` (0 keeps the grid's)."""
    if seed == DEFAULT_SEED and replica == 0:
        return 0
    return cell_seed("perfbench", seed, replica)


def paper_grid(
    seed: int, *, replica: int | None = None, **kw
) -> tuple[list[RunSpec], list]:
    """The scorecard grid (``sweep_specs(**kw)``) with seed-shifted cells.

    A ``replica`` gets its own shift and an ``r<replica>/`` label prefix.
    """
    specs, cells = sweep_specs(**kw)
    shift = seed_offset(seed, replica or 0)
    tag = "" if replica is None else f"r{replica}/"
    if shift or tag:
        specs = [
            dataclasses.replace(
                s, base_seed=s.base_seed + shift, label=tag + s.display
            )
            for s in specs
        ]
    return specs, cells


def claims_held(specs, cells, results) -> int:
    """Scorecard sweep claims that hold over one paper grid's results."""
    apps = tuple(dict.fromkeys(s.app_name for s in specs))
    sweep = SweepResult(tolerances_pct=SWEEP_TOLERANCES_PCT, apps=apps)
    for spec, cell, proto in zip(specs, cells, results):
        if cell is None:
            sweep.defaults[spec.app_name] = proto
    for spec, cell, proto in zip(specs, cells, results):
        if cell is not None:
            sweep.comparisons[cell] = compare(proto, sweep.defaults[spec.app_name])
    return run_scorecard(sweep, include_figures=False).passed


def resident_kb() -> float:
    """This process's resident set now, in KiB."""
    pages = int(Path("/proc/self/statm").read_text().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 1024


def spec_ops(specs, results, summary, scale: float) -> list[Op]:
    """One op per cell; ``scale`` turns the cells' host seconds into
    reference seconds."""
    return [
        Op(s.display, protocol_digest(r), c.seconds * scale, c.ticks)
        for s, r, c in zip(specs, results, summary.cells)
    ]


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def prepare(self):
        return None

    def run(self, state) -> Pass:
        raise NotImplementedError

    def claims(self, first: Pass) -> int:
        raise NotImplementedError

    def probe(self) -> None:
        """Build one pass's inputs and drop them: the set-up probe."""
        self.prepare()
        self.close()

    def close(self) -> None:
        pass


class PaperSweep(Workload):
    name = "paper_sweep"
    why = (
        "the scorecard grid on the scalar engine, one worker, no cache: "
        "what run_sweep and repro scorecard users run"
    )

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.specs, self.cells = paper_grid(seed, runs=1)
        # One run_specs call per application (9 cells, about a second),
        # so that each gets its own host-speed calibration.
        self.chunks = [
            list(chunk)
            for _, chunk in itertools.groupby(self.specs, lambda s: s.app_name)
        ]

    def run(self, state) -> Pass:
        watch = Stopwatch()
        results, ops = [], []
        for chunk in self.chunks:
            (res, summary), host, ref = watch.time(
                executor.run_specs, chunk, workers=1
            )
            results.extend(res)
            ops.extend(spec_ops(chunk, res, summary, ref / host))
        return Pass(watch.ref_s, ops, host_s=watch.host_s, results=results)

    def claims(self, first: Pass) -> int:
        return claims_held(self.specs, self.cells, first.results)


def lane_engine(spec: RunSpec, record_trace: bool):
    """The one-run engine ``build_protocol`` makes for ``spec`` (runs=1)."""
    return build_engine(
        build_application(spec.app_name, scale=spec.app_scale),
        spec.controller.build(spec.controller_cfg),
        controller_cfg=spec.controller_cfg,
        noise=spec.noise,
        engine_cfg=spec.engine_cfg,
        seed=spec.noise.seed + spec.base_seed,
        record_trace=record_trace,
    )


class BatchTraced(Workload):
    name = "batch_traced"
    why = (
        "the grid's 80 DUF/DUFP cells as traced lanes of one lockstep "
        "batch: lane-parallel ticks and trace sinks, no scalar step"
    )

    def __init__(self, seed: int, record_trace: bool = True) -> None:
        super().__init__(seed)
        specs, cells = paper_grid(seed, runs=1)
        self.grid = (specs, cells)
        self.specs = [s for s, c in zip(specs, cells) if c is not None]
        self.record_trace = record_trace

    def prepare(self):
        return [lane_engine(s, self.record_trace) for s in self.specs]

    def run(self, engines) -> Pass:
        watch = Stopwatch()
        runs, _, wall = watch.time(batch.run_batch, engines)
        results = [
            fold_protocol(ProtocolResult(s.app_name, s.controller.label), [r])
            for s, r in zip(self.specs, runs)
        ]
        ticks = [
            sum(sk.finish_time_s for sk in r.sockets) / s.engine_cfg.dt_s
            for s, r in zip(self.specs, runs)
        ]
        total = sum(ticks) or 1.0
        ops = [
            Op(s.display, protocol_digest(p), wall * t / total, t)
            for s, p, t in zip(self.specs, results, ticks)
        ]
        return Pass(wall, ops, host_s=watch.host_s, results=results)

    def claims(self, first: Pass) -> int:
        # The default-configuration baselines are not lanes of the
        # batch; run them (untimed) to compare the lanes against.
        specs, cells = self.grid
        base = [s for s, c in zip(specs, cells) if c is None]
        defaults, _ = executor.run_specs(base, workers=1)
        lanes = iter(first.results)
        bases = iter(defaults)
        results = [next(bases) if c is None else next(lanes) for c in cells]
        return claims_held(specs, cells, results)


class Cluster16(Workload):
    name = "cluster16"
    why = (
        "16 WEB/BATCH nodes under three fleet policies plus one CG CPU+GPU "
        "node under three split policies: the two coordinator loops"
    )

    FLEET = ("fleet-static", "fleet-demand", "fleet-fair")
    HETERO = ("hetero-static", "hetero-coord", "hetero-fair")

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.cfg = ControllerConfig(tolerated_slowdown=TOLERANCE)
        self.cluster = ClusterSpec(
            node_count=CLUSTER_NODES, node_apps=("WEB", "BATCH")
        )
        self.apps = [
            build_application(self.cluster.app_for(i, "WEB"), scale=CLUSTER_SCALE)
            for i in range(CLUSTER_NODES)
        ]
        self.hetero_app = build_application(HETERO_APP, scale=HETERO_SCALE)
        self.node = GPUNodeConfig()
        self.run_seed = seed_offset(seed)

    def prepare(self):
        fleets = [
            ClusterEngine(
                applications=self.apps,
                cluster=self.cluster,
                policy=fleet_policy(
                    make_spec(p, budget_w=CLUSTER_BUDGET_W), self.cfg
                ),
                controller_cfg=self.cfg,
                seed=self.run_seed,
                record_trace=False,
            )
            for p in self.FLEET
        ]
        heteros = [
            HeteroEngine(
                application=self.hetero_app,
                node=self.node,
                policy=split_policy(
                    make_spec(p, budget_w=HETERO_BUDGET_W), self.cfg
                ),
                cfg=self.cfg,
                seed=self.run_seed,
            )
            for p in self.HETERO
        ]
        return list(zip(self.FLEET, fleets)) + list(zip(self.HETERO, heteros))

    def run(self, engines) -> Pass:
        ops = []
        results = []
        periods = 0
        watch = Stopwatch()
        for label, engine in engines:
            res, _, seconds = watch.time(engine.run)
            results.append(res)
            if isinstance(engine, ClusterEngine):
                dt = engine.engine_cfg.dt_s
                periods += len(res.allocations) - 1
                ticks = sum(
                    s.finish_time_s / dt for n in res.nodes for s in n.sockets
                )
                d = digest(
                    [a for _, alloc in res.allocations for a in alloc],
                    [t for t, _ in res.allocations],
                    res.node_makespans_s,
                    [n.total_energy_j for n in res.nodes],
                )
            else:
                ticks = res.makespan_s / engine.dt_s
                d = digest(
                    [a for _, alloc in res.device_allocations for a in alloc],
                    [t for t, _ in res.device_allocations],
                    [res.cpu_finish_s, res.gpu_finish_s, res.transfer_s],
                    res.gpu_finish_times_s,
                    [res.cpu_energy_j, res.gpu_energy_j],
                )
            ops.append(Op(label, d, seconds, ticks, cell=label in self.FLEET))
        return Pass(
            watch.ref_s, ops, host_s=watch.host_s, results=results,
            extra={"cluster_periods": periods},
        )

    def claims(self, first: Pass) -> int:
        """Runs whose allocations keep the documented split invariants:
        every partition sums to at most the budget and stays inside each
        device's [floor, ceiling] band (docs/CLUSTER.md, docs/HETERO.md)."""
        tdp = yeti_socket_config().rapl.pl1_default_w
        gpu = self.node.gpu
        bands = {
            "fleet": (CLUSTER_BUDGET_W, [self.cfg.cap_floor_w] * CLUSTER_NODES,
                      [tdp] * CLUSTER_NODES),
            "hetero": (HETERO_BUDGET_W,
                       [self.cfg.cap_floor_w] + [gpu.power_limit_floor_w]
                       * self.node.gpu_count,
                       [tdp] + [gpu.power_limit_default_w] * self.node.gpu_count),
        }
        held = 0
        for label, res in zip(self.FLEET + self.HETERO, first.results):
            budget, floors, ceilings = bands[label.split("-")[0]]
            if label in self.FLEET:
                allocs = [a for _, a in res.allocations]
            else:
                allocs = [a for _, a in res.device_allocations]
            held += all(
                sum(a) <= budget + 1e-6
                and all(lo - 1e-6 <= x <= hi + 1e-6
                        for x, lo, hi in zip(a, floors, ceilings))
                for a in allocs
            )
        return held


class SweepCached(Workload):
    name = "sweep_cached"
    why = (
        "360 short batch cells sharded over the process pool into a "
        "fresh cache, then replayed from it: executor and cache I/O"
    )

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.specs: list[RunSpec] = []
        for k in range(CACHED_REPLICAS):
            specs, cells = paper_grid(
                seed, replica=k, runs=1, app_scale=CACHED_SCALE, engine="batch"
            )
            if k == 0:
                self.grid = (specs, cells)
            self.specs.extend(specs)
        WORK_DIR.mkdir(exist_ok=True)
        self._dirs: list[str] = []

    def prepare(self):
        root = tempfile.mkdtemp(prefix="cache-", dir=WORK_DIR)
        self._dirs.append(root)
        return root

    def _run_specs(self, root: str):
        cache = ResultCache(root)
        try:
            return executor.run_specs(
                self.specs, workers=CACHED_WORKERS, cache=cache
            )
        finally:
            cache.close()

    def run(self, root) -> Pass:
        watch = Stopwatch()
        fork_rss_kb = resident_kb()
        (cold, summary), host, wall = watch.time(self._run_specs, root)
        # The pool's workers have been joined: their high-water mark,
        # less the resident pages they shared with this process at the
        # fork (0 once a later pass forks from a grown heap).
        worker_rss_kb = max(
            0.0,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss - fork_rss_kb,
        )
        ops = spec_ops(self.specs, cold, summary, wall / host)
        grid = cold[: len(self.grid[0])]
        del cold

        # Replays are short: the pass keeps its fastest of several.
        replays, failed = [], set()
        for _ in range(CACHED_REPLAYS):
            (warm, warm_summary), _, replay = watch.time(self._run_specs, root)
            replays.append(replay)
            failed |= {
                op.label
                for op, w, c in zip(ops, warm, warm_summary.cells)
                if not c.cached or protocol_digest(w) != op.digest
            }
            del warm

        cache, _, open_s = watch.time(ResultCache, root)
        entries = len(cache)
        cache.close()
        seg_bytes = sum(f.stat().st_size for f in Path(root).rglob("*.seg"))
        self.cleanup(root)
        return Pass(
            wall, ops, host_s=watch.host_s, replay_s=min(replays),
            summary=summary, failed=failed,
            results=grid,
            extra={
                "cache_hit_ratio": warm_summary.hits / warm_summary.total,
                "cache_bytes_per_entry": seg_bytes / max(entries, 1),
                "cache_open_s": open_s,
                "worker_rss_kb": worker_rss_kb,
            },
        )

    def probe(self) -> None:
        ResultCache(self.prepare()).close()
        self.close()

    def cleanup(self, root: str) -> None:
        shutil.rmtree(root, ignore_errors=True)
        if root in self._dirs:
            self._dirs.remove(root)

    def claims(self, first: Pass) -> int:
        specs, cells = self.grid
        return claims_held(specs, cells, first.results)

    def close(self) -> None:
        for root in list(self._dirs):
            self.cleanup(root)
        try:
            WORK_DIR.rmdir()
        except OSError:  # another run still has a cache there
            pass


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (PaperSweep, BatchTraced, Cluster16, SweepCached)
}
