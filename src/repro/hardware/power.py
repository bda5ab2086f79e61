"""Package power model for one socket.

``P_pkg = P_static + P_cores(f, activity) + P_uncore(fu, traffic)`` with

* ``P_cores  = N · k_core · V(f)² · f_GHz · (a0 + (1-a0)·activity)``
* ``P_uncore = k_uncore · Vu(fu)² · fu_GHz · (u0 + (1-u0)·traffic)``

``activity`` is the retiring fraction of core cycles (compute-saturated
phases ≈ 1, stall-heavy phases lower but far from zero — a stalled core
still clocks); ``traffic`` is memory-bandwidth utilisation.  The model
is the standard CMOS dynamic-power form the RAPL firmware itself uses
for budgeting, and it is analytically invertible on the P-state grid,
which is how the simulated RAPL limiter picks its frequency clamp.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import CoreConfig, PowerModelConfig, UncoreConfig

__all__ = ["PowerBreakdown", "PackagePowerModel"]


@dataclass(frozen=True)
class PowerBreakdown:
    """Per-component package power, watts."""

    static_w: float
    core_w: float
    uncore_w: float

    @property
    def total_w(self) -> float:
        return self.static_w + self.core_w + self.uncore_w


@dataclass
class PackagePowerModel:
    """Analytical package power for one socket."""

    core_cfg: CoreConfig
    uncore_cfg: UncoreConfig
    cfg: PowerModelConfig

    def __post_init__(self) -> None:
        self.core_cfg.validate()
        self.uncore_cfg.validate()
        self.cfg.validate()
        # The P-state grid and each grid point's core power before the
        # activity scale, in ``core_power``'s association order, so
        # ``core_power(f, a) == pstate_core_w[i] * scale`` bitwise.
        cfg = self.core_cfg
        self.pstate_freqs = cfg.pstates()
        ck = cfg.count * self.cfg.k_core
        self.pstate_core_w = tuple(
            ck * cfg.voltage_at(f) * cfg.voltage_at(f) * (f / 1e9)
            for f in self.pstate_freqs
        )

    # -- forward model ---------------------------------------------------------

    def core_power(
        self, freq_hz: float, activity: float, idle_scale: float = 1.0
    ) -> float:
        """Dynamic power of all cores at ``freq_hz`` with given activity.

        ``idle_scale`` multiplies the activity-independent ``a0`` term;
        the C-state model passes < 1 when idle cores park in C1/C6.
        The default 1.0 is the legacy all-C0 path, bit-for-bit
        (``a0 * 1.0 == a0`` exactly in IEEE 754).
        """
        self._check_unit("activity", activity)
        if not 0.0 <= idle_scale <= 1.0:
            raise ValueError(f"idle_scale must be in [0, 1], got {idle_scale!r}")
        v = self.core_cfg.voltage_at(freq_hz)
        a0 = self.cfg.core_idle_fraction
        scale = a0 * idle_scale + (1.0 - a0) * activity
        return self.core_cfg.count * self.cfg.k_core * v * v * (freq_hz / 1e9) * scale

    def uncore_power(self, uncore_hz: float, traffic: float) -> float:
        """Dynamic power of the uncore at ``uncore_hz`` with given traffic."""
        self._check_unit("traffic", traffic)
        v = self.uncore_cfg.voltage_at(uncore_hz)
        u0 = self.cfg.uncore_idle_fraction
        scale = u0 + (1.0 - u0) * traffic
        return self.cfg.k_uncore * v * v * (uncore_hz / 1e9) * scale

    def uncore_power_dies(
        self, dies: "tuple[tuple[float, float], ...]"
    ) -> float:
        """Uncore power summed over per-die ``(freq_hz, traffic)`` loads.

        Each die owns ``1/N`` of the socket's uncore silicon, so at
        equal per-die frequency and traffic the sum matches the
        single-domain model.  Multi-die configs (``die_count > 1``) are
        the only callers; the legacy path never reaches this method.
        """
        if not dies:
            raise ValueError("uncore_power_dies: no die loads")
        return sum(
            self.uncore_power(freq_hz, traffic) for freq_hz, traffic in dies
        ) / len(dies)

    def package_power(
        self,
        freq_hz: float,
        uncore_hz: float,
        activity: float,
        traffic: float,
        core_boost: float = 1.0,
        core_idle_scale: float = 1.0,
        uncore_dies: "tuple[tuple[float, float], ...] | None" = None,
    ) -> PowerBreakdown:
        """Full package power breakdown.

        ``core_boost`` scales core dynamic power for high-current code
        (wide-vector bursts) without touching the counters.
        ``core_idle_scale`` is the C-state idle-power delta (1.0 = all
        C0); ``uncore_dies`` replaces the single-domain uncore term
        with per-die loads on multi-die parts.
        """
        if core_boost <= 0:
            raise ValueError("core_boost must be positive")
        if uncore_dies is not None:
            uncore_w = self.uncore_power_dies(uncore_dies)
        else:
            uncore_w = self.uncore_power(uncore_hz, traffic)
        return PowerBreakdown(
            static_w=self.cfg.static_w,
            core_w=self.core_power(freq_hz, activity, core_idle_scale)
            * core_boost,
            uncore_w=uncore_w,
        )

    # -- inverse model (RAPL clamp selection) -----------------------------------

    def max_core_freq_under(
        self,
        budget_w: float,
        uncore_hz: float,
        activity: float,
        traffic: float,
        core_boost: float = 1.0,
        uncore_dies: "tuple[tuple[float, float], ...] | None" = None,
    ) -> float:
        """Highest P-state whose package power fits ``budget_w``.

        Returns the minimum P-state when even that exceeds the budget —
        RAPL cannot gate clocks entirely, it can only slow them, which
        is why very low caps overshoot (and why the paper's DUFP resets
        the cap when consumption exceeds it).
        """
        if core_boost <= 0:
            raise ValueError("core_boost must be positive")
        floor = self.core_cfg.min_freq_hz
        if uncore_dies is not None:
            uncore_w = self.uncore_power_dies(uncore_dies)
        else:
            uncore_w = self.uncore_power(uncore_hz, traffic)
        non_core = self.cfg.static_w + uncore_w
        budget_cores = budget_w - non_core
        # ``core_power(f, activity)`` per grid point from the table:
        # same validation, same products (``a0 * 1.0 == a0`` exactly).
        self._check_unit("activity", activity)
        a0 = self.cfg.core_idle_fraction
        scale = a0 + (1.0 - a0) * activity
        table = self.pstate_core_w
        for i in range(len(table) - 1, -1, -1):
            if table[i] * scale * core_boost <= budget_cores:
                return self.pstate_freqs[i]
        return floor

    @staticmethod
    def _check_unit(name: str, value: float) -> None:
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {value!r}")
