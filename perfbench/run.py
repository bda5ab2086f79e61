"""The repository's benchmark: one workload, measured, checked, reported.

    python3 perfbench/run.py --workload paper_sweep --seed 0 --seconds 12 --trace 0

Runs the named workload (see ``workloads.py``) in passes until the
passes have measured ``--seconds`` of host time (at least two passes),
checks every operation's simulated outputs, and prints one JSON object
as the last line of standard output::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, measured with no spans
installed; times are medians over the passes, in reference seconds
(``calib.py``).  ``--trace 1`` runs a warm-up pass and one pass without
spans (the reference for the span overhead), then installs the span
wrappers of ``layers.py`` and reports the per-layer metrics of the
traced passes.

Checks, counted per operation (a cell, a lane, a fleet/hetero run):

* at the default seed, the digest of its outputs equals the committed
  one in ``reference.json``;
* every later pass, traced or not, reproduces the first pass's digest
  (so the spans do not perturb the program);
* it simulated a positive number of ticks, and workload-level checks
  (a warm replay served entirely from the cache, with identical
  results) hold.

``--write-reference`` records the digests and claims of the default
seed into ``reference.json`` instead of checking them.

The machine context (cores, Python and numpy versions, and the
interpreter-speed calibration probe of ``scripts/bench_baseline.py``,
taken before and after the run) is printed on the line before the
result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
SETUP_PROBES = 5
MIN_PASSES = 2

#: name -> unit of every end-to-end metric, in report order.
END_TO_END = {
    "wall_s": "s",
    "sim_ticks_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cell_p50_s": "s",
    "cell_p88_s": "s",
    "replay_s": "s",
    "claims_held": "count",
    "correct_frac": "fraction",
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    return parser.parse_args(argv)


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Fresh-process set-up times of ``workload`` (import + construction)."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe_setup.py"),
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr}")
        out.append(float(proc.stdout.split()[-1]))
    return out


def machine_context(calibration_before: float) -> dict:
    """Cores, versions, and the calibration probe before and after the
    run: a run whose host drifted shows as two different probes."""
    import calib
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "calibration_ops_per_s": calibration_before,
        "calibration_after_ops_per_s": round(calib.calibrate(), 1),
    }


def run_passes(
    wl, seconds: float, *, min_passes: int = 1, claims: bool = True
) -> list:
    """Prepare-and-run passes until they measured ``seconds`` of host time.

    ``claims`` evaluates the first pass's claims (untimed).
    """
    passes = []
    while len(passes) < min_passes or sum(p.host_s for p in passes) < seconds:
        p = wl.run(wl.prepare())
        if claims and not passes:
            p.claims = wl.claims(p)
        p.results = []
        passes.append(p)
    return passes


def check(name: str, seed: int, passes: list, claims: int) -> tuple[int, int]:
    """``(attempted, failed)`` over every operation of every pass."""
    reference = None
    if seed == 0 and REFERENCE.exists():
        ref = json.loads(REFERENCE.read_text()).get(name)
        if ref is None:
            fail(f"reference.json has no entry for {name}")
        reference = ref["ops"]
        if claims != ref["claims_held"]:
            print(
                f"perfbench: claims_held {claims} != reference "
                f"{ref['claims_held']}", file=sys.stderr,
            )
            return sum(len(p.ops) for p in passes), sum(len(p.ops) for p in passes)
    first = {op.label: op.digest for op in passes[0].ops}
    attempted = failed = 0
    for p in passes:
        for op in p.ops:
            attempted += 1
            bad = (
                op.ticks <= 0
                or op.label in p.failed
                or first.get(op.label) != op.digest
                or (reference is not None and reference.get(op.label) != op.digest)
            )
            if bad:
                failed += 1
                print(f"perfbench: {name} op {op.label} failed its check",
                      file=sys.stderr)
    return attempted, failed


def peak_rss_mb(passes) -> float:
    """High-water RSS of this process plus what each pool worker added.

    A forked worker's own high-water mark includes the pages it shares
    with this process, so each worker counts only its growth beyond
    this process's resident set at the fork (``worker_rss_kb``).
    """
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = max((p.summary.workers for p in passes if p.summary), default=1)
    if workers > 1:
        rss_kb += workers * max(p.extra["worker_rss_kb"] for p in passes)
    return rss_kb / 1024


def end_to_end(passes, setup, rss_mb, claims, attempted, failed) -> dict:
    """Medians over the passes (for the per-cell percentiles, each
    cell's median over the passes), in reference seconds."""
    cells: dict[str, list[float]] = {}
    for p in passes:
        for op in p.ops:
            if op.cell:
                cells.setdefault(op.label, []).append(op.seconds)
    per_cell = [statistics.median(v) for v in cells.values()]
    # Without a cache, producing the same outputs again re-executes them.
    replays = [p.wall_s if p.replay_s is None else p.replay_s for p in passes]
    pct = statistics.quantiles(per_cell, n=100, method="inclusive")
    return {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "sim_ticks_per_s": statistics.median(p.ticks / p.wall_s for p in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_mb,
        "cell_p50_s": statistics.median(per_cell),
        "cell_p88_s": pct[87],
        "replay_s": statistics.median(replays),
        "claims_held": claims,
        "correct_frac": 1.0 - failed / attempted,
    }


def write_reference(name: str, passes: list, claims: int) -> None:
    data = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    data[name] = {
        "claims_held": claims,
        "ops": {op.label: op.digest for op in passes[0].ops},
    }
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"perfbench: wrote {len(passes[0].ops)} {name} digests to {REFERENCE}",
          file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        fail(f"no repro package under {ROOT / 'src'}; run from a checkout")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import calib
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {', '.join(workloads.WORKLOADS)}")
    if args.write_reference and args.seed != workloads.DEFAULT_SEED:
        fail("the reference is recorded at the default seed")

    calibration = round(calib.calibrate(), 1)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    try:
        if args.trace:
            passes, per_layer = traced(wl, args.seconds)
        else:
            passes = run_passes(wl, args.seconds, min_passes=MIN_PASSES)
    finally:
        wl.close()
    claims = passes[0].claims
    if args.write_reference:
        write_reference(wl.name, passes, claims)
    attempted, failed = check(wl.name, args.seed, passes, claims)

    if args.trace:
        import layers

        metrics = {k: (v, layers.UNITS[k]) for k, v in per_layer.items()}
    else:
        rss_mb = peak_rss_mb(passes)
        setup = setup_seconds(wl.name, args.seed)
        e2e = end_to_end(passes, setup, rss_mb, claims, attempted, failed)
        metrics = {k: (v, END_TO_END[k]) for k, v in e2e.items()}

    for k, (v, unit) in metrics.items():
        print(f"{wl.name:13s} {k:34s} {v:14.6g} {unit}")
    print("context " + json.dumps(
        dict(machine_context(calibration), workload=wl.name, seed=args.seed,
             passes=len(passes), trace=args.trace,
             pass_host_s=[round(p.host_s, 4) for p in passes],
             pass_wall_s=[round(p.wall_s, 4) for p in passes])
    ))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def traced(wl, seconds: float):
    """Two passes without spans, then traced passes; per-layer metrics.

    The first pass warms the process up; the second is the untraced
    reference of both overhead ratios.
    """
    import layers
    import spans
    import workloads

    passes = run_passes(wl, 0.0, min_passes=2)
    untraced_wall = passes[-1].wall_s
    sink_overhead = 0.0
    if isinstance(wl, workloads.BatchTraced):
        # The program's own trace sink: the same lanes with the sink off.
        plain = workloads.BatchTraced(wl.seed, record_trace=False)
        sink_overhead = untraced_wall / plain.run(plain.prepare()).wall_s - 1.0
    tracer = spans.Tracer()
    spans.ACTIVE.append(tracer)
    try:
        with tracer.installed(layers.install):
            traced_passes = run_passes(wl, seconds, claims=False)
    finally:
        spans.ACTIVE.remove(tracer)
    per_layer = layers.per_layer_metrics(
        tracer.stats, traced_passes,
        untraced_wall_s=untraced_wall, trace_overhead_frac=sink_overhead,
    )
    return passes + traced_passes, per_layer


if __name__ == "__main__":
    sys.exit(main())
