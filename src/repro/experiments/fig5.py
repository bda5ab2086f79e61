"""Figure 5: CPU frequency under DUF vs DUFP (CG, 10 % tolerance).

The paper's explanation of DUFP's extra savings: with uncore scaling
alone the cores sit at the 2.8 GHz all-core turbo almost the entire
run, while dynamic capping pulls the average core frequency down to
≈ 2.5 GHz with the slowdown still inside the tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.series import resample_series
from ..analysis.tables import format_table
from ..config import ControllerConfig, NoiseConfig
from ..core.registry import controller_factory
from ..sim.result import TraceColumns
from ..sim.run import run_application
from ..workloads.catalog import build_application

__all__ = ["Fig5Result", "fig5"]


@dataclass
class Fig5Result:
    """Frequency traces and averages for the two controllers."""

    #: Resampled (time, frequency GHz) series per controller.
    duf_series: tuple[list[float], list[float]]
    dufp_series: tuple[list[float], list[float]]
    duf_avg_ghz: float
    dufp_avg_ghz: float

    def render(self) -> str:
        from ..analysis.plots import sparkline

        table = format_table(
            ["controller", "average core frequency (GHz)"],
            [("duf", self.duf_avg_ghz), ("dufp", self.dufp_avg_ghz)],
            title="Fig. 5: CPU frequency for CG at 10 % tolerated slowdown",
        )
        lines = [table, ""]
        for label, (times, freqs) in (
            ("duf ", self.duf_series),
            ("dufp", self.dufp_series),
        ):
            stride = max(len(freqs) // 100, 1)
            lines.append(
                f"{label} [1.0–2.8 GHz] {sparkline(freqs[::stride], lo=1.0, hi=2.8)}"
            )
        return "\n".join(lines)


def fig5(
    tolerance_pct: float = 10.0,
    app_name: str = "CG",
    sample_interval_s: float = 0.2,
    noise: NoiseConfig | None = None,
) -> Fig5Result:
    """Trace core-0 frequency for one DUF run and one DUFP run."""
    cfg = ControllerConfig(tolerated_slowdown=tolerance_pct / 100.0)
    noise = noise or NoiseConfig()
    series = {}
    averages = {}
    for label in ("duf", "dufp"):
        run = run_application(
            build_application(app_name),
            controller_factory(label, cfg),
            controller_cfg=cfg,
            noise=noise,
            seed=noise.seed,
            record_trace=True,
        )
        sock = run.socket(0)
        cols = TraceColumns.from_samples(sock.trace)
        times = cols.time_s.tolist()
        freqs = (cols.core_freq_hz / 1e9).tolist()
        series[label] = resample_series(times, freqs, sample_interval_s)
        averages[label] = sock.average_core_freq_hz() / 1e9
    return Fig5Result(
        duf_series=series["duf"],
        dufp_series=series["dufp"],
        duf_avg_ghz=averages["duf"],
        dufp_avg_ghz=averages["dufp"],
    )
