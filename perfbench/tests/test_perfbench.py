"""Self-tests of the benchmark: spans, metric names, layer predictions.

    python3 -m pytest perfbench/tests

The prediction tests run every workload once, traced, for one pass
(about a minute and a half in all on a 2-core machine).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import calib  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def bench(workload: str, *, seed: int = 0, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=cwd, check=False,
    )


@pytest.fixture(scope="module")
def traced():
    """workload -> the result line of one traced run at the default seed."""
    out = {}
    for name in workloads.WORKLOADS:
        proc = bench(name, trace=1)
        assert proc.returncode == 0, proc.stderr
        out[name] = json.loads(proc.stdout.splitlines()[-1])
    return out


# -- spans -------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_matches_span_tree():
    # root [0, 100) holds a [10, 40) and b [50, 90); a holds c [20, 30).
    clock = FakeClock()
    tracer = spans.Tracer(clock)
    for t, action in [
        (0, "root"), (10, "a"), (20, "c"), (30, None), (40, None),
        (50, "b"), (90, None), (100, None),
    ]:
        clock.now = t
        tracer.enter(action) if action else tracer.exit()
    assert {k: s.total_ns for k, s in tracer.stats.items()} == {
        "root": 100, "a": 30, "c": 10, "b": 40,
    }
    assert {k: s.self_ns for k, s in tracer.stats.items()} == {
        "root": 100 - 30 - 40, "a": 30 - 10, "c": 10, "b": 40,
    }
    assert not tracer._stack


def test_nested_same_name_counts_once_and_weights_add():
    class Base:
        def tick(self, n):
            return n

    class Sub(Base):
        def tick(self, n):
            return super().tick(n) + 1

    tracer = spans.Tracer()
    for cls in (Base, Sub):
        tracer.wrap(cls, "tick", "tick", weigh=lambda args, _: args[1])
    assert Sub().tick(3) == 4
    assert tracer.stats["tick"].calls == 1
    assert tracer.stats["tick"].weight == 3
    tracer.uninstall()
    assert not hasattr(vars(Sub)["tick"], "__wrapped__")


def test_wrappers_restore_every_attribute_after_a_traced_run():
    probe = spans.Tracer()
    layers.install(probe)
    patched = list(probe._patches)
    probe.uninstall()
    assert len(patched) > 20
    before = [
        (owner, key, owner[key] if isinstance(owner, dict) else vars(owner)[key])
        for owner, key, _ in patched
    ]
    wl = workloads.WORKLOADS["cluster16"](0)
    passes, metrics = run.traced(wl, 0.0)
    assert metrics["cluster.periods"] > 0
    for owner, key, original in before:
        now = owner[key] if isinstance(owner, dict) else vars(owner)[key]
        assert now is original, f"{owner!r}.{key} not restored"
    assert not spans.ACTIVE


def test_stopwatch_scales_host_seconds_by_the_probe(monkeypatch):
    speeds = iter([1.5e7, 2.5e7])
    monkeypatch.setattr(calib, "probe", lambda: next(speeds))
    watch = calib.Stopwatch()
    result, host, ref = watch.time(sum, [1, 2], start=3)
    assert result == 6
    # Mean probe speed 2e7 is twice the reference: twice the seconds.
    assert ref == pytest.approx(2 * host)
    assert (watch.host_s, watch.ref_s) == (host, ref)


# -- names and the contract --------------------------------------------


def test_metric_and_workload_names():
    names = (
        [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
        + [w["name"] for w in CONTRACT["workloads"]]
    )
    assert len(names) == len(set(names))
    for name in names + list(layers.UNITS) + list(run.END_TO_END):
        assert NAME.fullmatch(name), name


def test_contract_matches_the_code():
    assert {w["name"]: w["why"] for w in CONTRACT["workloads"]} == {
        n: w.why for n, w in workloads.WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in CONTRACT["per_layer"]} == layers.UNITS
    assert [m for layer in layers.LAYERS for m in layer["metrics"]] == list(
        layers.UNITS
    )


def test_check_counts_a_digest_mismatch(monkeypatch, tmp_path):
    ref = tmp_path / "reference.json"
    ref.write_text(json.dumps(
        {"w": {"claims_held": 1, "ops": {"a": "x", "b": "y"}}}
    ))
    monkeypatch.setattr(run, "REFERENCE", ref)
    ops = [workloads.Op("a", "x", 1.0, 5.0), workloads.Op("b", "z", 1.0, 5.0)]
    passes = [workloads.Pass(2.0, ops), workloads.Pass(2.0, ops[:1])]
    assert run.check("w", 0, passes, 1) == (3, 1)
    # A held-out seed skips only the reference comparison.
    assert run.check("w", 5, passes, 1) == (3, 0)
    drifted = [workloads.Pass(2.0, ops),
               workloads.Pass(2.0, [workloads.Op("a", "w", 1.0, 5.0)])]
    assert run.check("w", 5, drifted, 1) == (3, 1)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench("cluster16", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_held_out_seed_runs_every_check_but_the_reference():
    proc = bench("cluster16", seed=7, trace=0)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    assert res["correct"] and res["failed"] == 0
    assert res["metrics"]["claims_held"]["value"] == 6
    assert res["metrics"]["sim_ticks_per_s"]["value"] > 0


# -- layer predictions, as counts --------------------------------------


def test_every_per_layer_metric_is_emitted_on_every_workload(traced):
    want = {m["name"] for m in CONTRACT["per_layer"]}
    for name, res in traced.items():
        assert res["correct"], name
        assert set(res["metrics"]) == want, name


def test_every_layer_reads_nonzero_where_it_works(traced):
    # A renamed or unwrapped entry point would read 0, which looks like
    # a free layer; on the workloads a layer is predicted to move, every
    # one of its metrics must have measured something.
    for layer in layers.LAYERS:
        for workload in layer["on"]:
            for metric in layer["metrics"]:
                value = traced[workload]["metrics"][metric]["value"]
                assert value > 0, (layer["layer"], workload, metric)


def test_layer_work_sits_where_the_table_predicts(traced):
    def m(workload, metric):
        return traced[workload]["metrics"][metric]["value"]

    # The batch engine never calls the scalar substrate step, PAPI
    # meter or controller tick for its vector-eligible lanes.
    assert m("paper_sweep", "hardware.step.calls") > 1e5
    assert m("batch_traced", "hardware.step.calls") == 0
    assert m("batch_traced", "papi.sample.calls") == 0
    assert m("batch_traced", "core.tick.calls") == 0
    assert m("batch_traced", "sim.batch.vector_lane_frac") == 1.0
    # Lane forms only run inside the batch engine.
    for w in ("paper_sweep", "cluster16"):
        assert m(w, "core.tick_lanes.calls") == 0
        assert m(w, "sim.batch.lane_ticks") == 0
    assert m("batch_traced", "core.tick_lanes.calls") > 0
    assert m("sweep_cached", "core.tick_lanes.calls") > 0
    # Only sweep_cached reaches the cache and the process pool.
    for w in ("paper_sweep", "batch_traced", "cluster16"):
        assert m(w, "cache.get.calls") == 0
        assert m(w, "executor.shards") == 0
    assert m("sweep_cached", "cache.get.calls") > 0
    assert m("sweep_cached", "executor.shards") > 0
    # Trace sinks: the cluster nodes record nothing.  Protocol cells
    # (paper_sweep, sweep_cached) keep their last run's trace, which
    # at runs=1 is every run: at most one sample per socket-step.
    assert m("cluster16", "sim.trace.record.calls") == 0
    assert m("batch_traced", "sim.trace.record.calls") > 0
    assert m("paper_sweep", "sim.trace.record.calls") <= m(
        "paper_sweep", "sim.stepper.tick.calls"
    )
    assert m("sweep_cached", "sim.trace.record.calls") <= m(
        "sweep_cached", "sim.batch.lane_ticks"
    )
    # The coordinator loops only run in cluster16.
    for w in ("paper_sweep", "batch_traced", "sweep_cached"):
        assert m(w, "cluster.periods") == 0
        assert m(w, "split.allocate.calls") == 0
    assert m("cluster16", "cluster.periods") > 0
    assert m("cluster16", "split.allocate.calls") > 0
