"""Budget-partition strategies: one shared budget, N power consumers.

The paper puts DUFP beneath a budget-distribution layer (§VI) and asks
whether one shared budget can move between a CPU and a GPU (§VII).
Both questions are the same partition problem: given one demand figure
per consumer and each consumer's ``[floor, ceiling]`` band, split the
budget so that every allocation stays in its band and ``sum(alloc) <=
budget``.  This module is the one implementation of it.  The hetero
engine feeds it devices (index 0 is the CPU socket, 1..N the GPUs),
the cluster engine feeds it nodes (:mod:`repro.core.fleet` subclasses
the same strategies under fleet names).

The strategies:

* :class:`StaticSplit` — the naive operator configuration: a fixed
  CPU fraction, the remainder spread evenly over the GPUs, decided
  once at t = 0 and never revisited.
* :class:`CoordinatedSplit` — tolerance-aware demand/offer
  water-filling (a consumer meeting its tolerated slowdown offers
  watts back, a throttled one bids above its current limit), re-split
  every period via :func:`repro.core.budget.allocate_budget`, starting
  from the even split.
* :class:`FairShareSplit` — the FastCap-style baseline (PAPERS.md):
  every consumer receives the *same fraction of its dynamic range*
  (floor → ceiling), blind to demand.

The static and water-fill splits end in :func:`clamp_to_bands`, then
:func:`_fit_budget` paying back any overshoot the floor clamp
introduced; the fair share lands inside every band by construction.
Like the per-socket controllers, concrete strategies are
wired to names only in :mod:`repro.core.registry` (``hetero-*``,
``fleet-*``) and selected everywhere else via
:class:`~repro.core.registry.PolicySpec` — the registry lint enforces
it.  The strategies are free of device knowledge: the engines measure
demands and own floors/ceilings; strategies only split watts.
"""

from __future__ import annotations

from ..errors import ControllerError
from .budget import allocate_budget

__all__ = [
    "SplitPolicy",
    "StaticSplit",
    "CoordinatedSplit",
    "FairShareSplit",
    "clamp_to_bands",
]


def _check_devices(
    total_w: float,
    demands_w: list[float],
    floors_w: list[float],
    ceilings_w: list[float],
) -> None:
    if not floors_w or len(floors_w) != len(ceilings_w):
        raise ControllerError("need one floor and one ceiling per device")
    if len(demands_w) != len(floors_w):
        raise ControllerError(
            f"{len(demands_w)} demands for {len(floors_w)} devices"
        )
    for lo, hi in zip(floors_w, ceilings_w):
        if not 0 < lo <= hi:
            raise ControllerError(
                f"device bounds invalid: floor {lo} W, ceiling {hi} W"
            )
    if sum(floors_w) > total_w + 1e-9:
        raise ControllerError(
            f"budget {total_w} W cannot cover the combined device floor "
            f"{sum(floors_w)} W"
        )


def clamp_to_bands(
    values_w: list[float], floors_w: list[float], ceilings_w: list[float]
) -> list[float]:
    """Clamp each value into its device's ``[floor, ceiling]`` band."""
    return [
        min(max(v, lo), hi) for v, lo, hi in zip(values_w, floors_w, ceilings_w)
    ]


def _fit_budget(
    alloc: list[float], total_w: float, floors_w: list[float]
) -> list[float]:
    """Pay back any overshoot the per-device floor clamp introduced.

    Lifting an allocation up to its device floor can push the sum past
    the budget; the excess is taken back from every device above its
    floor, proportionally to its slack.  Feasibility
    (``sum(floors) <= total``, checked by :func:`_check_devices`)
    guarantees the slack covers the excess.
    """
    excess = sum(alloc) - total_w
    if excess <= 1e-9:
        return alloc
    slack = [a - lo for a, lo in zip(alloc, floors_w)]
    span = sum(slack)
    if span <= 0.0:
        # Every device already sits at its floor: report the
        # infeasible budget instead of dividing by zero.
        raise ControllerError(
            f"budget {total_w} W cannot cover the combined device floor "
            f"{sum(floors_w)} W"
        )
    scale = max(span - excess, 0.0) / span
    return [lo + s * scale for lo, s in zip(floors_w, slack)]


def _even_split(
    total_w: float, floors_w: list[float], ceilings_w: list[float]
) -> list[float]:
    """``total / n`` per device, clamped into its band, overshoot paid back."""
    share = total_w / len(floors_w)
    alloc = clamp_to_bands([share] * len(floors_w), floors_w, ceilings_w)
    return _fit_budget(alloc, total_w, floors_w)


class SplitPolicy:
    """How one shared power budget splits across N consumers.

    ``allocate`` is called by an engine at every re-allocation period
    with one *demand* per consumer (watts it currently bids for); it
    returns one allocation per consumer with ``floor_i <= alloc_i <=
    ceiling_i`` and ``sum(alloc) <= total``, or raises
    :class:`~repro.errors.ControllerError` when the bands are invalid
    or their floors exceed the budget.  ``initial`` honours the same
    contract.  Policies with :attr:`is_static` true are evaluated once
    at t = 0 and never again — their split depends only on the bounds,
    not on measurements.
    """

    #: Registry id of the policy (set by subclasses; used in labels).
    name = "split"
    #: True when the split never changes after t = 0.
    is_static = False

    def __init__(self, budget_w: float):
        if budget_w <= 0:
            raise ControllerError("shared budget must be positive")
        self.budget_w = budget_w

    def allocate(
        self,
        demands_w: list[float],
        floors_w: list[float],
        ceilings_w: list[float],
    ) -> list[float]:
        """Split the budget; see the class docstring for the contract."""
        raise NotImplementedError

    def initial(
        self, floors_w: list[float], ceilings_w: list[float]
    ) -> list[float]:
        """The t = 0 split, before any demand has been measured.

        Defaults to allocating against ceiling-level demands (every
        device bids for its maximum), which degenerates to the naive
        even split under symmetric bounds.
        """
        return self.allocate(list(ceilings_w), floors_w, ceilings_w)


class StaticSplit(SplitPolicy):
    """Fixed fractional split: the datacentre operator's naive config.

    The CPU receives ``cpu_fraction`` of the budget, the GPUs share
    the remainder evenly; everything is clamped into each device's
    ``[floor, ceiling]`` band.  Decided once, never revisited — the
    baseline every dynamic policy is measured against.
    """

    name = "hetero-static"
    is_static = True

    def __init__(self, budget_w: float, cpu_fraction: float = 0.5):
        super().__init__(budget_w)
        if not 0.0 < cpu_fraction < 1.0:
            raise ControllerError("cpu_fraction must be in (0, 1)")
        self.cpu_fraction = cpu_fraction

    def allocate(
        self,
        demands_w: list[float],
        floors_w: list[float],
        ceilings_w: list[float],
    ) -> list[float]:
        _check_devices(self.budget_w, demands_w, floors_w, ceilings_w)
        n_gpus = len(floors_w) - 1
        if n_gpus < 1:
            raise ControllerError("hetero split needs at least one GPU")
        shares = [self.budget_w * self.cpu_fraction] + [
            self.budget_w * (1.0 - self.cpu_fraction) / n_gpus
        ] * n_gpus
        alloc = clamp_to_bands(shares, floors_w, ceilings_w)
        return _fit_budget(alloc, self.budget_w, floors_w)


class CoordinatedSplit(SplitPolicy):
    """Tolerance-aware demand/offer water-filling across consumers.

    :func:`repro.core.budget.allocate_budget`'s socket split lifted to
    any consumer set: consumers meeting their tolerated slowdown offer
    watts back, throttled ones bid above their current limit, and the
    water-filling serves demand above the floor proportionally until
    the budget is exhausted.  Per-consumer band clamping and the
    overshoot payback keep every allocation feasible.
    """

    name = "hetero-coord"

    def allocate(
        self,
        demands_w: list[float],
        floors_w: list[float],
        ceilings_w: list[float],
    ) -> list[float]:
        _check_devices(self.budget_w, demands_w, floors_w, ceilings_w)
        alloc = allocate_budget(
            demands_w,
            self.budget_w,
            min(floors_w),
            ceiling_w=max(ceilings_w),
        )
        alloc = clamp_to_bands(alloc, floors_w, ceilings_w)
        return _fit_budget(alloc, self.budget_w, floors_w)

    def initial(
        self, floors_w: list[float], ceilings_w: list[float]
    ) -> list[float]:
        """Start from the naive even split (the operator default) and
        let the demand/offer loop move watts from there — matching the
        paper's framing of dynamic capping as a *correction* to a
        statically configured budget."""
        _check_devices(self.budget_w, ceilings_w, floors_w, ceilings_w)
        return _even_split(self.budget_w, floors_w, ceilings_w)


class FairShareSplit(SplitPolicy):
    """FastCap-style fair partitioning: equal fractions of each range.

    Every consumer receives ``floor + t · (ceiling - floor)`` with one
    common ``t`` chosen so the total meets the budget — the fair
    baseline from *FastCap* (PAPERS.md), blind to what the consumers
    are actually doing, so a latency-sensitive device next to a batch
    one is throttled by the *same* relative amount.
    """

    name = "hetero-fair"
    is_static = True

    def allocate(
        self,
        demands_w: list[float],
        floors_w: list[float],
        ceilings_w: list[float],
    ) -> list[float]:
        _check_devices(self.budget_w, demands_w, floors_w, ceilings_w)
        spare = self.budget_w - sum(floors_w)
        span = sum(hi - lo for lo, hi in zip(floors_w, ceilings_w))
        t = min(max(spare / span, 0.0), 1.0) if span > 0 else 0.0
        return [
            lo + t * (hi - lo) for lo, hi in zip(floors_w, ceilings_w)
        ]
