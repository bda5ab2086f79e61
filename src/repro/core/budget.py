"""Node-level power budget distribution (GEOPM-style, beyond the paper).

The paper positions budget-distribution runtimes (GEOPM, DAPS, …) as
complementary: "they propose power budget allocation strategies across
nodes while DUFP provides node-level dynamic power-capping" (§VI), and
its future work asks about sharing a budget between heterogeneous
consumers.  This module supplies that complementary layer on top of the
repro substrate:

:class:`NodeBudgetCoordinator` owns one node-wide power budget and
splits it across sockets every re-allocation period, proportional to
each socket's measured *demand* (its uncapped consumption estimate).
Each socket runs a :class:`BudgetedSocketController` — DUF's dynamic
uncore scaling plus the coordinator-assigned cap — so a socket running
memory-bound work (cheap to cap) donates headroom to a socket running
compute-bound work (expensive to cap).

The coordinator is deliberately simple — demand-proportional water-
filling with per-socket floors — because its role here is to exercise
the multi-socket machinery end-to-end, not to reproduce GEOPM.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import ControllerConfig
from ..errors import ControllerError
from ..papi.highlevel import Measurement
from ..units import watts_to_uw
from .base import Controller, TickLog
from .detector import PhaseDetector
from .duf import UncoreDecisionEngine
from .tolerance import SlowdownTracker, tolerance_bid

__all__ = ["NodeBudgetCoordinator", "BudgetedSocketController", "allocate_budget"]


def allocate_budget(
    demands_w: list[float],
    total_w: float,
    floor_w: float,
    ceiling_w: float,
) -> list[float]:
    """Water-filling: split ``total_w`` across sockets by demand.

    Every socket gets at least ``floor_w`` and at most ``ceiling_w``.
    Demand above the floor is served proportionally from the remaining
    budget; leftover budget (from sockets demanding less than their
    share) is re-offered to the still-hungry sockets until exhausted.
    Raises if the floors alone exceed the budget.
    """
    n = len(demands_w)
    if n == 0:
        raise ControllerError("no sockets to allocate to")
    if any(d < 0 for d in demands_w):
        raise ControllerError("negative demand")
    if floor_w * n > total_w + 1e-9:
        raise ControllerError(
            f"budget {total_w} W cannot cover {n} sockets at the {floor_w} W floor"
        )
    alloc = [min(max(d, floor_w), ceiling_w) for d in demands_w]
    # Shrink proportionally (above the floor) until the sum fits.
    for _ in range(64):
        excess = sum(alloc) - total_w
        if excess <= 1e-9:
            break
        shrinkable = [max(a - floor_w, 0.0) for a in alloc]
        total_shrinkable = sum(shrinkable)
        if total_shrinkable <= 0.0:
            break
        scale = min(excess / total_shrinkable, 1.0)
        alloc = [a - s * scale for a, s in zip(alloc, shrinkable)]
    return alloc


@dataclass
class NodeBudgetCoordinator:
    """Shared state: one power budget, N reporting sockets."""

    total_budget_w: float
    cfg: ControllerConfig
    #: Re-allocate every this many controller ticks.
    period_ticks: int = 5
    #: Extra headroom granted above measured demand, watts.
    headroom_w: float = 5.0
    #: Per-socket allocation floor, watts.  Defaults to the cap floor
    #: (65 W); raise it to bound *reference drift* — a socket capped
    #: permanently low re-seeds its phase maxima from throttled
    #: measurements and stays "content" ever lower (the same root
    #: cause as the paper's UA tolerance miss, amplified by standing
    #: caps).
    per_socket_floor_w: float | None = None
    _members: list["BudgetedSocketController"] = field(default_factory=list)
    _reports: dict[int, float] = field(default_factory=dict)
    _tick_count: int = 0
    #: Last computed allocation per member index.
    allocations_w: list[float] = field(default_factory=list)
    #: History of (time_s, allocations) for analysis.
    history: list[tuple[float, tuple[float, ...]]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.total_budget_w <= 0:
            raise ControllerError("budget must be positive")
        if self.period_ticks < 1:
            raise ControllerError("period_ticks must be at least 1")
        self.cfg.validate()

    def socket_controller(self) -> "BudgetedSocketController":
        """Create (and register) the controller for the next socket."""
        member = BudgetedSocketController(self.cfg, self, len(self._members))
        self._members.append(member)
        self.allocations_w.append(self.cfg.cap_floor_w)
        return member

    # -- called by members ---------------------------------------------------------

    def report(self, index: int, now_s: float, demand_w: float) -> None:
        """A member reports its demand; the last report closes a round."""
        self._reports[index] = demand_w
        if len(self._reports) < len(self._members):
            return
        self._tick_count += 1
        if self._tick_count % self.period_ticks == 0:
            demands = [
                self._reports[i] + self.headroom_w
                for i in range(len(self._members))
            ]
            floor = (
                self.per_socket_floor_w
                if self.per_socket_floor_w is not None
                else self.cfg.cap_floor_w
            )
            self.allocations_w = allocate_budget(
                demands,
                self.total_budget_w,
                floor,
                ceiling_w=self._members[0].default_cap_w
                if self._members
                else 125.0,
            )
            self.history.append((now_s, tuple(self.allocations_w)))
            for member in self._members:
                member.apply_allocation()
        self._reports.clear()

    def allocation_for(self, index: int) -> float:
        return self.allocations_w[index]


class BudgetedSocketController(Controller):
    """Per-socket member: DUF uncore scaling + coordinator-assigned cap.

    The demand signal is *tolerance-aware* — the paper's future-work
    idea of matching each consumer's performance needs:

    * FLOPS/s below the tolerated slowdown → the socket is genuinely
      throttled and bids for more than its current cap;
    * FLOPS/s comfortably within the tolerance → the socket offers
      watts back (memory-bound work is cheap to cap, so it donates
      headroom to compute-bound neighbours);
    * at the boundary → demand equals current consumption.
    """

    name = "budgeted"

    def __init__(
        self,
        cfg: ControllerConfig,
        coordinator: NodeBudgetCoordinator,
        index: int,
    ):
        super().__init__()
        cfg.validate()
        self.cfg = cfg
        self.coordinator = coordinator
        self.index = index
        self.detector = PhaseDetector(cfg)
        self.flops = SlowdownTracker(cfg.tolerated_slowdown, cfg.measurement_error)
        self._engine: UncoreDecisionEngine | None = None

    @property
    def default_cap_w(self) -> float:
        return self.ctx.cap.default_cap_w

    def attach(self, ctx) -> None:
        super().attach(ctx)
        self._engine = UncoreDecisionEngine(self.cfg, ctx.uncore)
        ctx.uncore.reset()

    def apply_allocation(self) -> None:
        """Program the coordinator's current allocation as PL1 = PL2."""
        alloc = self.coordinator.allocation_for(self.index)
        cap_uw = watts_to_uw(alloc)
        self.ctx.cap.zone.set_both_limits_uw(cap_uw, cap_uw)

    def tick(self, now_s: float, m: Measurement) -> None:
        assert self._engine is not None
        changed = self.detector.update(m.operational_intensity, m.flops_per_s)
        if changed:
            self._engine.on_phase_change(m)
            self.flops.reset(m.flops_per_s)
            uncore_action = "reset"
        else:
            uncore_action = self._engine.decide(m)
            self.flops.observe(m.flops_per_s)

        demand = tolerance_bid(
            self.flops.judge(m.flops_per_s),
            self.ctx.cap.cap_w,
            m.package_power_w,
            self.cfg.cap_step_w,
            self.cfg.cap_floor_w,
        )
        self.coordinator.report(self.index, now_s, demand)
        self.log(
            TickLog(
                time_s=now_s,
                cap_w=self.ctx.cap.cap_w,
                uncore_hz=self.ctx.uncore.pinned_freq_hz,
                phase_change=changed,
                uncore_action=uncore_action,
            )
        )
