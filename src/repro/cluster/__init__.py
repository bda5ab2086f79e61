"""Cluster-scale hierarchical power capping (paper §VI, ROADMAP item 2).

A fleet coordinator owns one global power budget and re-partitions it
across N simulated nodes every allocation period; each node runs the
existing per-socket controller stack (DUFP, the budget coordinator,
any registered policy) beneath its assigned cap.  The package supplies
the deterministic multi-node engine (:mod:`repro.cluster.engine`), the
frozen spec that threads cluster cells through ``RunSpec``/sweep/cache
(:mod:`repro.cluster.spec`) and the fairness/tail metrics that make
co-located latency-sensitive + batch workloads first-class
(:mod:`repro.cluster.metrics`).  Fleet *policies* live in
:mod:`repro.core.fleet`: the partition strategies of
:mod:`repro.core.split` (shared with the hetero engine) plus the
fleet-only equal share.  They are selected through the registry
(``fleet-static``, ``fleet-demand``, ``fleet-fair``), never imported
directly — see docs/CLUSTER.md.
"""

from .engine import FLEET_HEADROOM_W, NODE_SEED_STRIDE, ClusterEngine, ClusterResult
from .metrics import jain_index, percentile, slowdown_ratios
from .spec import ClusterSpec

__all__ = [
    "ClusterSpec",
    "ClusterEngine",
    "ClusterResult",
    "NODE_SEED_STRIDE",
    "FLEET_HEADROOM_W",
    "jain_index",
    "percentile",
    "slowdown_ratios",
]
