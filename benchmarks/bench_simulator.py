"""Microbenchmarks: simulator throughput.

These time the substrate itself (steps/second, full-run wall time) so
regressions in the hot path — the per-step roofline + RAPL loop — are
visible.  Unlike the figure benches these use pytest-benchmark's
statistical timing (many rounds of a cheap operation).

The batch-engine scaling curve (``test_batch_run_dufp[N]``) times one
lockstep batch at widths 1/4/16/64 of the same run; per-run cost
should *fall* as N grows — that amortisation is the engine's entire
reason to exist (scripts/bench_baseline.py gates the 64-cell speedup
in CI; these curves show where it comes from).
``test_batch_run_dufp_traced_64`` is the same 64-wide batch with
in-memory traces on every lane.
"""

import pytest

from repro.config import ControllerConfig, NoiseConfig, yeti_socket_config
from repro.core.baselines import DefaultController
from repro.core.dufp import DUFP
from repro.hardware.processor import PhaseWork, SimulatedProcessor
from repro.sim.batch import run_batch
from repro.sim.run import build_engine, run_application
from repro.workloads.catalog import build_application

QUIET = NoiseConfig(duration_jitter=0.0, counter_noise=0.0, power_noise=0.0)
WORK = PhaseWork(flops=1e12, bytes=1e12, fpc=2.0)


def test_processor_step_throughput(benchmark):
    proc = SimulatedProcessor(yeti_socket_config())

    def hundred_steps():
        for _ in range(100):
            proc.step(0.01, WORK)

    benchmark(hundred_steps)


def test_rapl_enforcement_step(benchmark):
    proc = SimulatedProcessor(yeti_socket_config())
    proc.rapl.set_limits(100.0, 100.0)

    def hundred_capped_steps():
        for _ in range(100):
            proc.step(0.01, WORK)

    benchmark(hundred_capped_steps)


def test_full_cg_run_default(benchmark):
    app = build_application("CG", scale=0.3)
    benchmark.pedantic(
        lambda: run_application(app, DefaultController, noise=QUIET, seed=1),
        rounds=3,
        iterations=1,
    )


def test_full_cg_run_dufp(benchmark):
    app = build_application("CG", scale=0.3)
    cfg = ControllerConfig(tolerated_slowdown=0.10)

    benchmark.pedantic(
        lambda: run_application(
            app, lambda: DUFP(cfg), controller_cfg=cfg, noise=QUIET, seed=1
        ),
        rounds=3,
        iterations=1,
    )


def _batch_engines(n, record_trace=False):
    """``n`` independently seeded copies of the DUFP CG run."""
    app = build_application("CG", scale=0.3)
    cfg = ControllerConfig(tolerated_slowdown=0.10)
    return [
        build_engine(
            app,
            lambda: DUFP(cfg),
            controller_cfg=cfg,
            noise=QUIET,
            seed=seed,
            record_trace=record_trace,
        )
        for seed in range(n)
    ]


@pytest.mark.parametrize("n", (1, 4, 16, 64))
def test_batch_run_dufp(benchmark, n):
    """Batch-width scaling: wall time per lockstep batch of ``n`` runs.

    Divide by ``n`` (and compare against ``test_full_cg_run_dufp``)
    for the per-run amortisation curve.
    """
    benchmark.pedantic(
        lambda: run_batch(_batch_engines(n)), rounds=2, iterations=1
    )


def test_batch_run_dufp_traced_64(benchmark):
    """The 64-run batch with every lane recording an in-memory trace.

    Against ``test_batch_run_dufp[64]`` this is the cost of columnar
    trace recording: one buffer row per tick, one block per socket per
    chunk (see ``repro.sim.trace``).
    """
    benchmark.pedantic(
        lambda: run_batch(_batch_engines(64, record_trace=True)),
        rounds=2,
        iterations=1,
    )


def test_batch_chunked_64_by_16(benchmark):
    """The same 64 runs through ``max_batch=16`` chunks — the memory-
    bounded path — to keep chunking overhead visible next to the
    single-batch number."""
    benchmark.pedantic(
        lambda: run_batch(_batch_engines(64), max_batch=16),
        rounds=2,
        iterations=1,
    )
