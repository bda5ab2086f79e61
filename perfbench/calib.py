"""Host times scaled to a reference host speed.

The benchmark shares its machine, whose speed drifts by tens of percent
within minutes.  Each timed block is bracketed by two short slices of
the interpreter-speed probe of ``scripts/bench_baseline.py`` (imported
from there, not copied), and its host seconds are scaled by the mean
probe speed to *reference seconds*: the seconds the block would take
on a host that runs the probe at :data:`REFERENCE_OPS_PER_S`.  A slower
moment of the host slows probe and block alike, so the reference
seconds stay put; a slower program does not slow the probe, so they
move.  The probe runs outside the timed blocks.
"""

from __future__ import annotations

import importlib.util
import time
from pathlib import Path

__all__ = ["REFERENCE_OPS_PER_S", "calibrate", "probe", "Stopwatch"]

ROOT = Path(__file__).resolve().parent.parent

#: The probe speed reference seconds are scaled to (loop-ops/s).
REFERENCE_OPS_PER_S = 1.0e7
#: Loop-ops of one probe slice (40 ms at the reference speed).
SLICE_OPS = 400_000

_spec = importlib.util.spec_from_file_location(
    "bench_baseline", ROOT / "scripts" / "bench_baseline.py"
)
_baseline = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_baseline)

#: The full calibration probe (best of five 2M-op loops), in ops/s.
calibrate = _baseline.calibrate


def probe() -> float:
    """One probe slice's speed, in loop-ops/s."""
    return calibrate(reps=1, n=SLICE_OPS)


class Stopwatch:
    """Times blocks in host seconds and in reference seconds."""

    def __init__(self) -> None:
        self.host_s = 0.0
        self.ref_s = 0.0

    def time(self, fn, *args, **kwargs):
        """``fn(*args, **kwargs)``, timed; adds to the totals and returns
        ``(result, host seconds, reference seconds)``."""
        before = probe()
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        host = time.perf_counter() - t0
        after = probe()
        ref = host * (before + after) / 2 / REFERENCE_OPS_PER_S
        self.host_s += host
        self.ref_s += ref
        return result, host, ref
