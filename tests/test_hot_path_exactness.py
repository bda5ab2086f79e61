"""The scalar hot path's table and memo are exact, and validate as before.

``PackagePowerModel.max_core_freq_under`` searches a precomputed
P-state power table; ``PhaseExecutionModel.instantaneous`` reuses its
last result on repeated inputs.  Each is checked here against an oracle
that recomputes from the configuration alone, bit for bit, and each
error check is shown to still fire right after a table search or memo
hit on otherwise identical inputs.
"""

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.config import (
    CoreConfig,
    MemoryConfig,
    PowerModelConfig,
    UncoreConfig,
    yeti_socket_config,
)
from repro.errors import SimulationError, WorkloadError
from repro.hardware.memory import MemorySystem
from repro.hardware.perf import PhaseExecutionModel
from repro.hardware.power import PackagePowerModel
from repro.hardware.processor import PhaseWork, SimulatedProcessor
from repro.workloads.phase import Phase


def _bits(x: float) -> str:
    return float(x).hex()


# -- oracle: the pre-table inverse search ---------------------------------------


def _grid_walk(m, budget_w, fu, act, traffic, boost):
    """The original inverse: walk the P-state grid down from the top."""
    budget_cores = budget_w - (m.cfg.static_w + m.uncore_power(fu, traffic))
    cfg = m.core_cfg
    n_steps = int(round((cfg.max_freq_hz - cfg.min_freq_hz) / cfg.step_hz))
    for i in range(n_steps, -1, -1):
        f = cfg.min_freq_hz + i * cfg.step_hz
        if m.core_power(f, act) * boost <= budget_cores:
            return f
    return cfg.min_freq_hz


@st.composite
def power_models(draw):
    lo = draw(st.sampled_from([0.8e9, 1.0e9, 1.2e9]))
    step = draw(st.sampled_from([25e6, 100e6, 133e6]))
    hi = lo + step * draw(st.integers(min_value=0, max_value=30))
    v_min = draw(st.floats(min_value=0.6, max_value=0.9))
    core = CoreConfig(
        count=draw(st.integers(min_value=1, max_value=64)),
        min_freq_hz=lo,
        base_freq_hz=lo,
        max_freq_hz=hi,
        step_hz=step,
        avx_max_freq_hz=lo,
        v_min=v_min,
        v_max=v_min + draw(st.floats(min_value=0.0, max_value=0.4)),
    )
    power = PowerModelConfig(
        k_core=draw(st.floats(min_value=0.5, max_value=3.0)),
        core_idle_fraction=draw(st.floats(min_value=0.0, max_value=1.0)),
    )
    return PackagePowerModel(core, UncoreConfig(), power)


unit = st.floats(min_value=0.0, max_value=1.0)
boosts = st.floats(min_value=0.25, max_value=4.0)
uncore_hz = st.floats(min_value=1.2e9, max_value=2.4e9)


@pytest.mark.slow
@settings(max_examples=300, deadline=None)
@given(
    m=power_models(),
    budget=st.one_of(
        st.floats(min_value=-50.0, max_value=600.0),
        st.sampled_from([0.0, math.inf, -math.inf, math.nan]),
    ),
    fu=uncore_hz,
    act=unit,
    traffic=unit,
    boost=boosts,
)
def test_table_search_equals_grid_walk(m, budget, fu, act, traffic, boost):
    got = m.max_core_freq_under(budget, fu, act, traffic, core_boost=boost)
    want = _grid_walk(m, budget, fu, act, traffic, boost)
    assert _bits(got) == _bits(want)


@pytest.mark.slow
@settings(max_examples=300, deadline=None)
@given(
    m=power_models(),
    data=st.data(),
    fu=uncore_hz,
    act=unit,
    traffic=unit,
    boost=boosts,
    nudge=st.sampled_from([-1, 0, 1]),
)
def test_table_search_at_table_entries(m, data, fu, act, traffic, boost, nudge):
    """Budgets landing exactly on (and one ulp around) a grid point's power."""
    cfg = m.core_cfg
    n_steps = int(round((cfg.max_freq_hz - cfg.min_freq_hz) / cfg.step_hz))
    i = data.draw(st.integers(min_value=0, max_value=n_steps))
    f = cfg.min_freq_hz + i * cfg.step_hz
    non_core = m.cfg.static_w + m.uncore_power(fu, traffic)
    budget = non_core + m.core_power(f, act) * boost
    if nudge:
        budget = math.nextafter(budget, nudge * math.inf)
    got = m.max_core_freq_under(budget, fu, act, traffic, core_boost=boost)
    want = _grid_walk(m, budget, fu, act, traffic, boost)
    assert _bits(got) == _bits(want)


# -- instantaneous: one-entry memo ----------------------------------------------


def _perf_model() -> PhaseExecutionModel:
    mem = MemorySystem(MemoryConfig(), CoreConfig(), UncoreConfig())
    return PhaseExecutionModel(CoreConfig(), mem)


def _rates_bits(r):
    return (
        _bits(r.flops_rate),
        _bits(r.bytes_rate),
        _bits(r.core_activity),
        _bits(r.traffic_util),
        _bits(r.progress_rate),
        r.bound,
    )


volumes = st.one_of(st.just(0.0), st.floats(min_value=1e3, max_value=1e13))
inputs = st.tuples(
    volumes,
    volumes,
    st.floats(min_value=0.1, max_value=16.0),
    st.sampled_from([1.0e9, 2.0e9, 2.8e9]),
    st.sampled_from([1.2e9, 1.8e9, 2.4e9]),
    st.sampled_from([0.0, 0.3]),
    st.sampled_from([0.0, 0.2]),
)


@pytest.mark.slow
@settings(max_examples=100, deadline=None)
@given(calls=st.lists(inputs, min_size=2, max_size=10))
def test_instantaneous_memo_matches_fresh_model(calls):
    model = _perf_model()
    for args in calls:
        assume(args[0] > 0 or args[1] > 0)
        for _ in range(2):
            got = model.instantaneous(*args)
            want = _perf_model().instantaneous(*args)
            assert _rates_bits(got) == _rates_bits(want)


def test_instantaneous_memo_keeps_the_sign_of_a_zero_volume():
    model = _perf_model()
    pos = model.instantaneous(0.0, 1e9, 1.0, 2.8e9, 2.4e9)
    neg = model.instantaneous(-0.0, 1e9, 1.0, 2.8e9, 2.4e9)
    assert _bits(pos.flops_rate) == "0x0.0p+0"
    assert _bits(neg.flops_rate) == "-0x0.0p+0"
    assert _bits(neg.core_activity) == "-0x0.0p+0"


def test_instantaneous_memo_reuses_identical_inputs():
    model = _perf_model()
    flops, bytes_ = 1e10, 1e9
    first = model.instantaneous(flops, bytes_, 1.0, 2.8e9, 2.4e9)
    assert model.instantaneous(flops, bytes_, 1.0, 2.8e9, 2.4e9) is first
    other = model.instantaneous(flops, bytes_, 1.0, 2.0e9, 2.4e9)
    assert other is not first
    assert _rates_bits(
        model.instantaneous(flops, bytes_, 1.0, 2.8e9, 2.4e9)
    ) == _rates_bits(first)


GOOD = (1e10, 1e9, 1.0, 2.8e9, 2.4e9, 0.1, 0.1)


@pytest.mark.parametrize(
    "index, bad",
    [
        (0, -1.0),  # negative flops
        (1, -1.0),  # negative bytes
        (2, 0.0),  # fpc <= 0
        (2, -2.0),
        (3, 0.0),  # non-positive core clock
        (4, -1e9),  # non-positive uncore clock
        (5, -0.1),  # negative latency sensitivity
        (6, -0.1),  # negative uncore sensitivity
    ],
)
def test_instantaneous_rejects_invalid_input_after_memo_hit(index, bad):
    model = _perf_model()
    model.instantaneous(*GOOD)
    model.instantaneous(*GOOD)  # memo hit
    args = list(GOOD)
    args[index] = bad
    with pytest.raises(ValueError):
        model.instantaneous(*args)
    # A failed call leaves the memo serving the last valid inputs.
    assert _rates_bits(model.instantaneous(*GOOD)) == _rates_bits(
        _perf_model().instantaneous(*GOOD)
    )


def test_instantaneous_rejects_zero_work_after_memo_hit():
    model = _perf_model()
    model.instantaneous(*GOOD)
    with pytest.raises(ValueError, match="no work"):
        model.instantaneous(0.0, 0.0, 1.0, 2.8e9, 2.4e9)


# -- power model: validation around the table search ------------------------------


@pytest.fixture
def power():
    return PackagePowerModel(CoreConfig(), UncoreConfig(), PowerModelConfig())


class TestPowerValidation:
    def test_activity_out_of_range(self, power):
        for _ in range(2):
            power.max_core_freq_under(120.0, 2.4e9, 0.5, 0.5)
            power.core_power(2.8e9, 0.5)
        for bad in (-0.1, 1.5, math.nan):
            with pytest.raises(ValueError, match="activity"):
                power.max_core_freq_under(120.0, 2.4e9, bad, 0.5)
            with pytest.raises(ValueError, match="activity"):
                power.core_power(2.8e9, bad)

    def test_traffic_out_of_range(self, power):
        power.uncore_power(2.4e9, 0.5)
        for bad in (-0.1, 1.5):
            with pytest.raises(ValueError, match="traffic"):
                power.uncore_power(2.4e9, bad)
            with pytest.raises(ValueError, match="traffic"):
                power.max_core_freq_under(120.0, 2.4e9, 0.5, bad)

    def test_traffic_checked_before_activity(self, power):
        with pytest.raises(ValueError, match="traffic"):
            power.max_core_freq_under(120.0, 2.4e9, 2.0, 2.0)

    def test_non_positive_boost(self, power):
        power.max_core_freq_under(120.0, 2.4e9, 0.5, 0.5, core_boost=1.0)
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match="core_boost"):
                power.max_core_freq_under(120.0, 2.4e9, 0.5, 0.5, core_boost=bad)
            with pytest.raises(ValueError, match="core_boost"):
                power.package_power(2.8e9, 2.4e9, 0.5, 0.5, core_boost=bad)

    def test_idle_scale_out_of_range(self, power):
        power.core_power(2.8e9, 0.5, 0.5)
        with pytest.raises(ValueError, match="idle_scale"):
            power.core_power(2.8e9, 0.5, 1.5)


# -- the composed socket ----------------------------------------------------------


def test_processor_step_rejects_bad_work_after_reuse():
    proc = SimulatedProcessor(yeti_socket_config())
    good = PhaseWork(flops=1e10, bytes=1e9, fpc=1.0)
    proc.step(0.01, good)
    proc.step(0.01, good)
    with pytest.raises(ValueError):
        proc.step(0.01, PhaseWork(flops=1e10, bytes=1e9, fpc=0.0))
    with pytest.raises(ValueError):
        proc.step(0.01, PhaseWork(flops=-1.0, bytes=1e9, fpc=1.0))
    with pytest.raises(SimulationError):
        proc.step(0.0, good)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(flops=-1.0, bytes=1.0, fpc=1.0),
        dict(flops=0.0, bytes=0.0, fpc=1.0),
        dict(flops=1.0, bytes=1.0, fpc=0.0),
        dict(flops=1.0, bytes=1.0, fpc=1.0, overfetch=-0.1),
        dict(flops=1.0, bytes=1.0, fpc=1.0, power_boost=0.0),
        dict(flops=1.0, bytes=1.0, fpc=1.0, idleness=1.0),
    ],
)
def test_phase_validation_unchanged(kwargs):
    with pytest.raises(WorkloadError):
        Phase(name="p", **kwargs)
