"""Set-up time of one workload, measured in a fresh interpreter.

Prints the host seconds from before ``import repro`` until the workload
has built one pass's inputs (applications, specs, engines, an opened
``ResultCache``), then the same time in reference seconds (scaled by
the calibration probe slices of ``calib.py`` taken right after it).
``run.py`` starts this several times per run and reports the median of
the reference seconds as ``setup_s``::

    python3 perfbench/probe_setup.py --workload paper_sweep --seed 0
"""

import argparse
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402  (imports repro)
import calib  # noqa: E402  (imported by workloads)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    args = parser.parse_args()
    workloads.WORKLOADS[args.workload](args.seed).probe()
    host = time.perf_counter() - t0
    speed = (calib.probe() + calib.probe()) / 2
    print(host, host * speed / calib.REFERENCE_OPS_PER_S)


if __name__ == "__main__":
    main()
