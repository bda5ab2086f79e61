"""The columnar trace: ``TraceColumns`` behaves as a sequence of samples.

Engines' in-memory traces are ``TraceColumns``: one float64 array of
shape ``(fields, n)`` whose samples are built only when read.  These
tests pin its sequence contract and, with ``float.hex`` values taken
from the list-of-samples implementation it replaced, that the scalar
and batch engines record the very same floats and that the
trace-derived metrics sum them in the same order.
"""

import pickle
from dataclasses import fields, replace

import numpy as np
import pytest

from repro.config import (
    ControllerConfig,
    MachineConfig,
    NoiseConfig,
    ThermalConfig,
    yeti_socket_config,
)
from repro.core.registry import controller_factory
from repro.errors import SimulationError
from repro.experiments.fig5 import fig5
from repro.sim.machine import SimulatedMachine
from repro.sim.result import TRACE_FIELDS, SocketResult, TraceColumns, TraceSample
from repro.sim.run import run_application
from repro.workloads.catalog import build_application

QUIET = NoiseConfig(duration_jitter=0.002, counter_noise=0.001, power_noise=0.001)
CFG = ControllerConfig(tolerated_slowdown=0.10)


def _sample(t, temperature=None):
    return TraceSample(
        time_s=t,
        core_freq_hz=2.8e9 - t,
        uncore_freq_hz=2.4e9,
        package_power_w=100.0 + t,
        dram_power_w=10.0,
        cap_w=125.0,
        flops_rate=1e9 * t,
        bytes_rate=1e8,
        temperature_c=temperature,
    )


SAMPLES = [_sample(0.01 * (i + 1)) for i in range(5)]
HOT = [_sample(0.01 * (i + 1), temperature=40.0 + i) for i in range(5)]


def _run(engine, thermal=False):
    kwargs = {}
    if thermal:
        socket = replace(yeti_socket_config(), thermal=ThermalConfig())
        kwargs["machine"] = SimulatedMachine(
            MachineConfig(socket=socket, socket_count=2)
        )
    return run_application(
        build_application("EP", scale=0.2),
        controller_factory("dufp", CFG),
        controller_cfg=CFG,
        noise=QUIET,
        seed=7,
        engine=engine,
        **kwargs,
    )


def _hex(sample):
    return [
        None if v is None else v.hex()
        for v in (getattr(sample, f.name) for f in fields(sample))
    ]


class TestSequenceContract:
    def test_len_and_bool(self):
        cols = TraceColumns.from_samples(SAMPLES)
        assert len(cols) == 5
        assert cols
        assert not TraceColumns.from_samples([])

    def test_int_and_negative_indexing(self):
        cols = TraceColumns.from_samples(SAMPLES)
        assert cols[0] == SAMPLES[0]
        assert cols[3] == SAMPLES[3]
        assert cols[-1] == SAMPLES[-1]
        assert cols[-5] == SAMPLES[0]
        assert cols[np.int64(2)] == SAMPLES[2]
        for bad in (5, -6):
            with pytest.raises(IndexError):
                cols[bad]

    def test_slice_is_a_list(self):
        cols = TraceColumns.from_samples(SAMPLES)
        assert cols[1:4] == SAMPLES[1:4]
        assert type(cols[1:4]) is list
        assert cols[::-2] == SAMPLES[::-2]
        assert cols[-2:] == SAMPLES[-2:]
        assert cols[7:] == []

    def test_iteration_yields_samples(self):
        cols = TraceColumns.from_samples(SAMPLES)
        assert list(cols) == SAMPLES
        assert all(type(s) is TraceSample for s in cols)
        # Values are plain Python floats, as a list of samples held.
        assert all(type(v) is float for v in vars(cols[2]).values() if v is not None)

    def test_equality_with_lists(self):
        cols = TraceColumns.from_samples(SAMPLES)
        assert cols == SAMPLES
        assert SAMPLES == cols
        assert cols != SAMPLES[:-1]
        assert cols != [replace(SAMPLES[0], cap_w=1.0)] + SAMPLES[1:]
        assert TraceColumns.from_samples([]) == []
        assert [] == TraceColumns.from_samples([])
        assert cols != []
        assert cols != "not a trace"

    def test_equality_with_columns(self):
        a = TraceColumns.from_samples(SAMPLES)
        assert a == TraceColumns.from_samples(list(SAMPLES))
        assert a != TraceColumns.from_samples(SAMPLES[:-1])
        assert a != TraceColumns.from_samples(HOT)
        assert TraceColumns.from_samples([]) == TraceColumns(np.empty((9, 0)))

    def test_unhashable_like_a_list(self):
        with pytest.raises(TypeError):
            hash(TraceColumns.from_samples(SAMPLES))

    def test_pickle_round_trip(self):
        for samples in (SAMPLES, HOT, []):
            cols = TraceColumns.from_samples(samples)
            back = pickle.loads(pickle.dumps(cols))
            assert type(back) is TraceColumns
            assert back == cols == samples
            assert not back.array.flags.writeable

    def test_from_samples_passes_columns_through(self):
        cols = TraceColumns.from_samples(SAMPLES)
        assert TraceColumns.from_samples(cols) is cols


class TestTemperature:
    def test_absent_is_none(self):
        cols = TraceColumns.from_samples(SAMPLES)
        assert cols.array.shape == (len(TRACE_FIELDS) - 1, 5)
        assert cols.temperature_c is None
        assert all(s.temperature_c is None for s in cols)

    def test_present_is_a_column(self):
        cols = TraceColumns.from_samples(HOT)
        assert cols.array.shape == (len(TRACE_FIELDS), 5)
        assert cols.temperature_c.tolist() == [40.0, 41.0, 42.0, 43.0, 44.0]
        assert [s.temperature_c for s in cols] == [40.0, 41.0, 42.0, 43.0, 44.0]

    def test_mixed_presence_rejected(self):
        with pytest.raises(SimulationError):
            TraceColumns.from_samples(SAMPLES[:2] + HOT[2:])

    def test_shape_validated(self):
        with pytest.raises(SimulationError):
            TraceColumns(np.zeros((7, 3)))
        with pytest.raises(SimulationError):
            TraceColumns(np.zeros(8))


class TestColumnAccess:
    def test_every_field_has_a_column(self):
        cols = TraceColumns.from_samples(HOT)
        for name in TRACE_FIELDS:
            assert getattr(cols, name).tolist() == [getattr(s, name) for s in HOT]

    def test_columns_are_read_only(self):
        cols = TraceColumns.from_samples(SAMPLES)
        with pytest.raises(ValueError):
            cols.time_s[0] = 1.0
        with pytest.raises(ValueError):
            cols.array[0, 0] = 1.0
        with pytest.raises(AttributeError):
            cols.time_s = np.zeros(5)


# ``float.hex`` of every field of samples 0, 137 and the last one of
# an EP run (scale 0.2, seed 7, DUFP at 10 %), recorded before traces
# were columnar; the thermal run has two sockets and pins socket 1.
PLAIN_SAMPLES = {
    0: ["0x1.47ae147ae147bp-7", "0x1.4dc9380000000p+31", "0x1.1e1a300000000p+31",
        "0x1.cf76953d694fep+6", "0x1.c0370cdc8754dp+3", "0x1.f400000000000p+6",
        "0x1.4dc937ffff57cp+37", "0x1.55cbffffff53cp+25", None],
    137: ["0x1.6147ae147ae19p+0", "0x1.1e1a300000000p+31", "0x1.c4fecc0000000p+30",
          "0x1.65db625203d3ap+6", "0x1.c02f2f9873ffap+3", "0x1.9000000000000p+6",
          "0x1.1e1a2fffff980p+37", "0x1.24f7ffffff959p+25", None],
    -1: ["0x1.47ae147ae1432p+2", "0x1.4dc9380000000p+31", "0x1.1e1a300000000p+30",
         "0x1.452c570b7f901p+6", "0x1.c000000000000p+3", "0x1.b800000000000p+6",
         "0x0.0p+0", "0x0.0p+0", None],
}
THERMAL_SAMPLES = {
    0: ["0x1.47ae147ae147bp-7", "0x1.4dc9380000000p+31", "0x1.1e1a300000000p+31",
        "0x1.cf76953d694fep+6", "0x1.c0370cdc8754dp+3", "0x1.f400000000000p+6",
        "0x1.4dc937ffff57cp+37", "0x1.55cbffffff53bp+25", "0x1.4067c03b21a5dp+5"],
    137: ["0x1.6147ae147ae19p+0", "0x1.1e1a300000000p+31", "0x1.c4fecc0000000p+30",
          "0x1.65db625203d3ap+6", "0x1.c02f2f9873ffap+3", "0x1.9000000000000p+6",
          "0x1.1e1a2fffff980p+37", "0x1.24f7ffffff958p+25", "0x1.6fc08f68370a6p+5"],
    -1: ["0x1.4851eb851eb3cp+2", "0x1.4dc9380000000p+31", "0x1.1e1a300000000p+30",
         "0x1.452c570b7f901p+6", "0x1.c000000000000p+3", "0x1.b800000000000p+6",
         "0x0.0p+0", "0x0.0p+0", "0x1.c260e504c50d4p+5"],
}
#: (length, average_core_freq_hz, window_energy_j(0.25, 1.5)).
PLAIN_METRICS = (512, "0x1.46262fb80001bp+31",
                 ["0x1.09160caa5721dp+7", "0x1.18212ffb704e6p+4"])
THERMAL_METRICS = (513, "0x1.4629ff5455d6dp+31",
                   ["0x1.09160caa5721dp+7", "0x1.18212ffb704e6p+4"])


@pytest.mark.parametrize("engine", ["scalar", "batch"])
@pytest.mark.parametrize(
    "thermal, pins, metrics",
    [(False, PLAIN_SAMPLES, PLAIN_METRICS), (True, THERMAL_SAMPLES, THERMAL_METRICS)],
    ids=["plain", "thermal"],
)
class TestEngineTraces:
    def test_in_memory_trace_is_columnar(self, engine, thermal, pins, metrics):
        for sock in _run(engine, thermal).sockets:
            assert type(sock.trace) is TraceColumns
            assert (sock.trace.temperature_c is None) is not thermal

    def test_samples_match_the_list_era(self, engine, thermal, pins, metrics):
        sock = _run(engine, thermal).sockets[-1]
        assert len(sock.trace) == metrics[0]
        for i, expected in pins.items():
            assert _hex(sock.trace[i]) == expected

    def test_derived_metrics_match_the_list_era(self, engine, thermal, pins, metrics):
        sock = _run(engine, thermal).sockets[-1]
        assert sock.average_core_freq_hz().hex() == metrics[1]
        assert [v.hex() for v in sock.window_energy_j(0.25, 1.5)] == metrics[2]
        # A list of the same samples (e.g. an old cache entry) agrees.
        listed = SocketResult(
            socket_id=sock.socket_id,
            finish_time_s=sock.finish_time_s,
            package_energy_j=sock.package_energy_j,
            dram_energy_j=sock.dram_energy_j,
            trace=list(sock.trace),
        )
        assert listed.average_core_freq_hz() == sock.average_core_freq_hz()
        assert listed.window_energy_j(0.25, 1.5) == sock.window_energy_j(0.25, 1.5)


def test_fig5_series_match_the_list_era():
    result = fig5()
    duf_t, duf_f = result.duf_series
    dufp_t, dufp_f = result.dufp_series
    assert (len(duf_t), len(dufp_t)) == (151, 152)
    assert [duf_t[i].hex() for i in (0, 10, -1)] == [
        "0x1.999999999999ap-3", "0x1.1999999999999p+1", "0x1.e33333333331ep+4",
    ]
    assert [duf_f[i].hex() for i in (0, 10, 40, -1)] == ["0x1.6666666666666p+1"] * 4
    assert [dufp_f[i].hex() for i in (0, 10, 40, -1)] == [
        "0x1.6666666666666p+1", "0x1.6666666666666p+1",
        "0x1.199999999999ap+1", "0x1.3333333333333p+1",
    ]
    assert result.duf_avg_ghz.hex() == "0x1.66666666666b4p+1"
    assert result.dufp_avg_ghz.hex() == "0x1.3ab033f85d70ap+1"
