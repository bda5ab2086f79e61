"""Trace sinks: in-memory equivalence, streaming byte-identity, bounds."""

import hashlib
import io

import numpy as np
import pytest

from repro.cluster import ClusterEngine, ClusterSpec
from repro.config import ControllerConfig, EngineConfig, NoiseConfig
from repro.core.registry import controller_factory, fleet_policy, make_spec
from repro.core.split import CoordinatedSplit
from repro.errors import SimulationError
from repro.hardware.gpu import GPUNodeConfig
from repro.sim import trace
from repro.sim.batch import BatchSimulationEngine
from repro.sim.export import trace_to_jsonl
from repro.sim.faults import FaultPlan
from repro.sim.hetero import HeteroEngine
from repro.sim.result import TraceColumns
from repro.sim.run import build_engine, run_application
from repro.sim.trace import (
    CSV_HEADER,
    CompositeTraceSink,
    InMemoryTraceSink,
    RingBufferTraceSink,
    StreamingTraceSink,
    TraceSink,
    jsonl_event_line,
    jsonl_sample_line,
)
from repro.workloads.catalog import build_application


QUIET = NoiseConfig(duration_jitter=0.002, counter_noise=0.001, power_noise=0.001)
CFG = ControllerConfig(tolerated_slowdown=0.10)


def _run(**kwargs):
    return run_application(
        build_application("EP", scale=0.2),
        controller_factory("dufp", CFG),
        controller_cfg=CFG,
        noise=QUIET,
        seed=7,
        **kwargs,
    )


class TestInMemorySink:
    def test_matches_classic_recording(self):
        classic = _run(record_trace=True)
        sink = InMemoryTraceSink()
        observed = _run(record_trace=False, trace_sink=sink)
        assert observed.socket(0).trace == classic.socket(0).trace
        assert observed.execution_time_s == classic.execution_time_s

    def test_explicit_sink_wins_over_record_trace(self):
        sink = RingBufferTraceSink(capacity=5)
        result = _run(record_trace=True, trace_sink=sink)
        assert len(result.socket(0).trace) == 5


class TestStreamingJsonl:
    def test_byte_identical_to_serialised_memory_trace(self):
        classic = _run(record_trace=True)
        expected = io.StringIO()
        trace_to_jsonl(classic.socket(0), expected)

        streamed = io.StringIO()
        sink = StreamingTraceSink(streamed, fmt="jsonl")
        _run(record_trace=False, trace_sink=sink)
        assert streamed.getvalue() == expected.getvalue()
        assert sink.rows == len(classic.socket(0).trace)

    def test_path_target_owned_by_sink(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = StreamingTraceSink(path)
        _run(record_trace=False, trace_sink=sink)
        lines = path.read_text().splitlines()
        assert len(lines) == sink.rows > 0
        assert lines[0].startswith('{"socket_id":0,')

    def test_streamed_result_retains_no_trace(self):
        result = _run(record_trace=False, trace_sink=StreamingTraceSink(io.StringIO()))
        assert result.socket(0).trace == []


class TestStreamingCsv:
    def test_header_and_row_count(self, tmp_path):
        path = tmp_path / "trace.csv"
        sink = StreamingTraceSink(path, fmt="csv")
        _run(record_trace=False, trace_sink=sink)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == sink.rows + 1

    def test_unknown_format_rejected(self):
        with pytest.raises(SimulationError):
            StreamingTraceSink(io.StringIO(), fmt="parquet")


class TestRingBufferSink:
    def test_keeps_only_the_tail(self):
        classic = _run(record_trace=True)
        sink = RingBufferTraceSink(capacity=10)
        result = _run(record_trace=False, trace_sink=sink)
        full = classic.socket(0).trace
        assert result.socket(0).trace == full[-10:]
        assert sink.seen[0] == len(full)

    def test_capacity_validated(self):
        with pytest.raises(SimulationError):
            RingBufferTraceSink(capacity=0)


class TestCompositeSink:
    def test_streams_and_retains_at_once(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        streaming = StreamingTraceSink(path)
        memory = InMemoryTraceSink()
        result = _run(
            record_trace=False, trace_sink=CompositeTraceSink(streaming, memory)
        )
        trace = result.socket(0).trace
        assert len(trace) > 0
        assert len(path.read_text().splitlines()) == len(trace)

    def test_needs_a_child(self):
        with pytest.raises(SimulationError):
            CompositeTraceSink()


# -- sinks on the batch engine ------------------------------------------------------
#
# The batch engine hands sinks per-socket ``(fields, k)`` blocks of at
# most one chunk; every sink must end up with what the scalar engine's
# one-sample records give it.  ``CHUNK`` is shrunk so that every run
# spans several chunks and finishes mid-chunk.

CHUNK = 50

#: (application, seed, sockets, scale): runs of different lengths,
#: one of them on two sockets.
CASES = [("EP", 7, 2, 0.2), ("CG", 3, 1, 0.12), ("EP", 11, 1, 0.15)]


@pytest.fixture
def small_chunks(monkeypatch):
    monkeypatch.setattr(trace, "TRACE_CHUNK_TICKS", CHUNK)


def _engine(case, sink=None, engine_cfg=None):
    app, seed, sockets, scale = case
    return build_engine(
        build_application(app, scale=scale),
        controller_factory("dufp", CFG),
        controller_cfg=CFG,
        noise=QUIET,
        seed=seed,
        socket_count=sockets,
        engine_cfg=engine_cfg,
        record_trace=False,
        trace_sink=sink,
    )


def _scalar_and_batch(make_sink, **kwargs):
    """Run every case through both engines, each with a fresh sink.

    The batch also carries one run without a sink, so the recording
    lanes are a subset of the batch's lanes.
    """
    scalar_sinks = [make_sink() for _ in CASES]
    scalar = [_engine(c, s, **kwargs).run() for c, s in zip(CASES, scalar_sinks)]
    batch_sinks = [make_sink() for _ in CASES]
    engines = [_engine(c, s, **kwargs) for c, s in zip(CASES, batch_sinks)]
    engines.insert(1, _engine(("CG", 5, 1, 0.1)))
    lanes = BatchSimulationEngine(engines).run()
    del lanes[1]
    return (scalar, scalar_sinks), (lanes, batch_sinks)


@pytest.mark.usefixtures("small_chunks")
class TestBatchEngineSinks:
    def test_runs_span_chunks_and_finish_mid_chunk(self):
        (scalar, _), _ = _scalar_and_batch(InMemoryTraceSink)
        lengths = [len(r.socket(0).trace) for r in scalar]
        assert min(lengths) > 2 * CHUNK
        assert all(n % CHUNK for n in lengths)
        assert len(set(lengths)) == len(lengths)

    @pytest.mark.parametrize("fmt", StreamingTraceSink.FORMATS)
    def test_streaming_is_byte_identical(self, fmt):
        (_, scalar_sinks), (_, batch_sinks) = _scalar_and_batch(
            lambda: StreamingTraceSink(io.StringIO(), fmt=fmt)
        )
        for a, b in zip(scalar_sinks, batch_sinks):
            assert b._target.getvalue() == a._target.getvalue()
            assert b.rows == a.rows > 2 * CHUNK

    @pytest.mark.parametrize("capacity", [CHUNK // 2, 3 * CHUNK])
    def test_ring_buffer_keeps_the_same_tail(self, capacity):
        (scalar, scalar_sinks), (lanes, batch_sinks) = _scalar_and_batch(
            lambda: RingBufferTraceSink(capacity=capacity)
        )
        for a, b, ra, rb in zip(scalar_sinks, batch_sinks, scalar, lanes):
            assert b.seen == a.seen
            for sa, sb in zip(ra.sockets, rb.sockets):
                assert len(sb.trace) == capacity
                assert sb.trace == sa.trace

    def test_composite_streams_and_retains(self):
        def make():
            return CompositeTraceSink(
                StreamingTraceSink(io.StringIO()), InMemoryTraceSink()
            )

        (scalar, scalar_sinks), (lanes, batch_sinks) = _scalar_and_batch(make)
        for a, b, ra, rb in zip(scalar_sinks, batch_sinks, scalar, lanes):
            streamed_a, streamed_b = a.sinks[0]._target, b.sinks[0]._target
            assert streamed_b.getvalue() == streamed_a.getvalue()
            for sa, sb in zip(ra.sockets, rb.sockets):
                assert type(sb.trace) is TraceColumns
                assert sb.trace == sa.trace

    def test_failed_run_streams_what_it_recorded(self):
        cfg = EngineConfig(max_sim_time_s=1.0)
        streams = []
        for runner in (
            lambda e: e.run(),
            lambda e: BatchSimulationEngine([e]).run(),
        ):
            sink = StreamingTraceSink(io.StringIO())
            with pytest.raises(SimulationError, match="exceeded"):
                runner(_engine(CASES[0], sink, engine_cfg=cfg))
            streams.append(sink._target.getvalue())
        assert streams[1] == streams[0]
        assert len(streams[0].splitlines()) == 2 * 100


class _BlockLog(TraceSink):
    """Remembers the shape of every block it is handed."""

    def open(self, socket_count):
        self.shapes = []

    def record(self, socket_id, sample):
        self.shapes.append((socket_id, sample.shape))


class TestBatchTraceBuffer:
    def test_blocks_are_bounded_by_the_chunk(self, small_chunks):
        log = _BlockLog()
        (result,) = BatchSimulationEngine([_engine(CASES[0], log)]).run()
        ticks = result.execution_time_s / 0.01
        assert {sid for sid, _ in log.shapes} == {0, 1}
        sizes = [shape[1] for sid, shape in log.shapes if sid == 0]
        assert max(sizes) == CHUNK
        assert sum(sizes) == len(sizes[:-1]) * CHUNK + sizes[-1]
        assert sum(sizes) == pytest.approx(ticks, abs=1)
        assert all(shape[0] == 8 for _, shape in log.shapes)

    def test_buffer_size_does_not_grow_with_run_length(self):
        engine = BatchSimulationEngine(
            [_engine(c, InMemoryTraceSink()) for c in CASES]
        )
        engine.run()
        assert len(engine._trace.buf) <= trace.TRACE_CHUNK_TICKS
        assert engine._trace.buf.nbytes <= trace.TRACE_CHUNK_BYTES

    def test_streaming_block_before_open_rejected(self):
        sink = StreamingTraceSink(io.StringIO())
        with pytest.raises(SimulationError):
            sink.record(0, np.zeros((8, 3)))


class TestScalarTraceBuffer:
    def test_blocks_are_bounded_by_the_chunk(self, small_chunks):
        log = _BlockLog()
        result = _engine(CASES[0], log).run()
        sizes = [shape[1] for sid, shape in log.shapes if sid == 0]
        assert sizes[:-1] == [CHUNK] * (len(sizes) - 1)
        assert 0 < sizes[-1] < CHUNK
        assert sum(sizes) == pytest.approx(result.execution_time_s / 0.01, abs=1)
        # Both sockets' blocks of a chunk arrive one after the other.
        assert [sid for sid, _ in log.shapes] == [0, 1] * len(sizes)


# -- streams of the other engines ----------------------------------------------------
#
# The cluster and hetero engines stream through the same recorder.  Their
# JSONL is pinned by the sha256 of the stream the engines wrote when
# they still sent one sample per socket per step, and must equal the
# tick-major merge of the same run's in-memory traces.


def _tick_major_jsonl(traces, events=()):
    """Per-socket traces interleaved step by step, then the events."""
    out = io.StringIO()
    for step in range(max(map(len, traces))):
        for socket_id, samples in enumerate(traces):
            if step < len(samples):
                out.write(jsonl_sample_line(socket_id, samples[step]))
    for event in events:
        out.write(jsonl_event_line(event))
    return out.getvalue()


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


CLUSTER_JSONL_SHA256 = (
    "ce2bfea6c3fa99537f69adb9209c3945ba0c096e632b067f3c87b179a09f228c"
)
HETERO_JSONL_SHA256 = (
    "956caa23012fea6dd3468f6f5ba45085fd3d3deb822d9b62517dcac1ee45874c"
)


@pytest.mark.usefixtures("small_chunks")
class TestOtherEngineStreams:
    def test_cluster_stream_is_tick_major_across_chunks(self):
        stream = io.StringIO()
        cluster = ClusterSpec(
            node_count=2, node_apps=("WEB", "BATCH"), period_s=0.5,
            sockets_per_node=2,
        )
        result = ClusterEngine(
            applications=[
                build_application(cluster.app_for(i, "WEB"), scale=0.2)
                for i in range(2)
            ],
            cluster=cluster,
            policy=fleet_policy(make_spec("fleet-demand", budget_w=300.0), CFG),
            controller_cfg=CFG,
            noise=NoiseConfig(duration_jitter=0.0, counter_noise=0.0, power_noise=0.0),
            seed=7,
            trace_sink=CompositeTraceSink(
                StreamingTraceSink(stream), InMemoryTraceSink()
            ),
        ).run()
        traces = [s.trace for node in result.nodes for s in node.sockets]
        lengths = [len(t) for t in traces]
        # The nodes finish mid-chunk, in different chunks.
        assert lengths[0] // CHUNK != lengths[2] // CHUNK
        assert all(n % CHUNK for n in lengths)
        assert stream.getvalue() == _tick_major_jsonl(traces)
        assert _sha256(stream.getvalue()) == CLUSTER_JSONL_SHA256

    def test_hetero_stream_matches_memory_and_pin(self):
        stream = io.StringIO()
        memory = InMemoryTraceSink()
        result = HeteroEngine(
            application=build_application("CG", scale=0.15),
            node=GPUNodeConfig(
                kernel_count=3, kernel_flops=1.5e12, kernel_bytes=0.2e12,
                gpu_count=2,
            ),
            policy=CoordinatedSplit(500.0),
            cfg=CFG,
            seed=3,
            noise=NoiseConfig(),
            faults=FaultPlan(
                gpu_queue_stall_rate=0.5, gpu_stall_s=0.2,
                gpu_cap_latch_fail_rate=0.3, cap_latch_fail_rate=0.2,
            ),
            trace_sink=CompositeTraceSink(StreamingTraceSink(stream), memory),
        ).run()
        traces = [memory.collected(socket_id) for socket_id in range(3)]
        assert len(traces[0]) > 2 * CHUNK
        assert {e.channel for e in result.fault_events} == {
            "gpu_stall", "gpu_cap_latch_fail", "cap_latch_fail",
        }
        assert stream.getvalue() == _tick_major_jsonl(traces, result.fault_events)
        assert _sha256(stream.getvalue()) == HETERO_JSONL_SHA256
