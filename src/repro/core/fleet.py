"""Fleet policies: one global power budget partitioned across nodes.

The paper frames DUFP as the node-level half of a hierarchical story
(§VI): a budget-distribution runtime hands each node a power cap, and
DUFP (or the :class:`~repro.core.budget.NodeBudgetCoordinator` stack)
optimises beneath it.  Partitioning a fleet budget across nodes is the
same problem as splitting a node budget across devices, so the fleet
policies are the :mod:`repro.core.split` strategies with index ``i``
meaning *node i* — FastCap (PAPERS.md) likewise applies one fair-share
rule at every level of the hierarchy:

* :class:`StaticFleet` — the operator default: every node receives an
  equal share of the budget, clamped into its band, decided once at
  t = 0 and never revisited.  The one fleet-only strategy.
* :class:`DemandFleet` — :class:`~repro.core.split.CoordinatedSplit`'s
  demand/offer water-filling across nodes: a finished node bids its
  floor, a power-hungry node bids above its cap, and the coordinator
  re-partitions every allocation period.
* :class:`FairShareFleet` — :class:`~repro.core.split.FairShareSplit`:
  every node receives the *same fraction of its floor-to-ceiling
  range*, blind to demand.

``sum(alloc) <= budget`` always (``tests/test_properties_cluster.py``
enforces it).  Concrete fleet policies are wired to names only in
:mod:`repro.core.registry` (``fleet-static``, ``fleet-demand``,
``fleet-fair``) and selected everywhere else via
:class:`~repro.core.registry.PolicySpec` — the registry lint enforces
it.
"""

from __future__ import annotations

from .split import (
    CoordinatedSplit,
    FairShareSplit,
    SplitPolicy,
    _check_devices,
    _even_split,
)

__all__ = [
    "FleetPolicy",
    "StaticFleet",
    "DemandFleet",
    "FairShareFleet",
]


class FleetPolicy(SplitPolicy):
    """How one global power budget partitions across cluster nodes.

    Same ``allocate``/``initial`` contract as :class:`SplitPolicy`,
    with floors and ceilings as node-level watt bands (socket count ×
    per-socket bounds) and demands as node-level bids.  Policies with
    :attr:`is_static` true are evaluated once at t = 0 — the cluster
    engine never measures demand for them, which is what keeps a
    1-node ``fleet-static`` cluster bit-identical to a plain node run.
    """

    name = "fleet"


class StaticFleet(FleetPolicy):
    """Equal static shares: the fleet operator's naive configuration.

    Every node receives ``budget / n`` clamped into its band; floor
    clamping overshoot is paid back from nodes above their floor.
    With the budget at or above the summed ceilings it is the
    degenerate no-op whose 1-node cluster is bit-identical to the
    plain socket/node run.
    """

    name = "fleet-static"
    is_static = True

    def allocate(
        self,
        demands_w: list[float],
        floors_w: list[float],
        ceilings_w: list[float],
    ) -> list[float]:
        _check_devices(self.budget_w, demands_w, floors_w, ceilings_w)
        return _even_split(self.budget_w, floors_w, ceilings_w)


class DemandFleet(FleetPolicy, CoordinatedSplit):
    """Demand/offer water-filling across the fleet's nodes."""

    name = "fleet-demand"


class FairShareFleet(FleetPolicy, FairShareSplit):
    """FastCap-style fair partitioning: equal fractions of each range."""

    name = "fleet-fair"
