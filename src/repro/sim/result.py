"""Run results: traces, phase spans and derived per-run metrics."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from operator import attrgetter, index
from typing import TYPE_CHECKING, Iterator, overload

import numpy as np

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .faults import FaultEvent

__all__ = [
    "TraceSample",
    "TraceColumns",
    "TRACE_FIELDS",
    "PhaseSpan",
    "SocketResult",
    "RunResult",
]


@dataclass(frozen=True)
class TraceSample:
    """One engine-step sample of a socket's observable state."""

    time_s: float
    core_freq_hz: float
    uncore_freq_hz: float
    package_power_w: float
    dram_power_w: float
    cap_w: float
    flops_rate: float
    bytes_rate: float
    #: Package temperature, °C (``None`` when thermals are disabled).
    temperature_c: float | None = None


#: Field order of a trace sample, and row order of a trace's columns.
TRACE_FIELDS = tuple(f.name for f in fields(TraceSample))

#: Rows of a trace without temperature (thermals disabled).
_BASE_FIELDS = len(TRACE_FIELDS) - 1


def _column(row: int) -> property:
    return property(
        lambda self: self._data[row],
        doc=f"The ``{TRACE_FIELDS[row]}`` column (a read-only float64 view).",
    )


class TraceColumns(Sequence[TraceSample]):
    """An immutable socket trace stored column-wise.

    One float64 array of shape ``(fields, n)`` holds the ``n`` samples:
    a row per :data:`TRACE_FIELDS` entry, eight rows when the run had
    no thermals (every ``temperature_c`` is ``None``) and nine when it
    had.  That is 64 or 72 bytes per sample, against over 500 for a
    :class:`TraceSample` object with its dict and boxed floats.

    Indexing and iteration build :class:`TraceSample` objects on
    demand from ``.tolist()``, so callers see the same Python floats a
    list of samples held; a slice returns a plain list.  Per-field
    reads (``cols.time_s``, ...) return read-only array views and
    build no samples at all.  The array is frozen on construction, so
    ``TraceColumns`` takes ownership of what it is given.
    """

    __slots__ = ("_data",)

    def __init__(self, data: np.ndarray):
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2 or data.shape[0] not in (_BASE_FIELDS, _BASE_FIELDS + 1):
            raise SimulationError(
                f"trace columns need shape ({_BASE_FIELDS} or "
                f"{_BASE_FIELDS + 1}, n), got {data.shape}"
            )
        data.flags.writeable = False
        self._data = data

    @classmethod
    def from_samples(cls, samples: Sequence[TraceSample]) -> "TraceColumns":
        """Columns holding ``samples`` (returned as is if already columns)."""
        if isinstance(samples, TraceColumns):
            return samples
        columns = [list(map(attrgetter(name), samples)) for name in TRACE_FIELDS]
        absent = columns[-1].count(None)
        if absent == len(samples):
            del columns[-1]
        elif absent:
            raise SimulationError(
                "trace mixes samples with and without a temperature"
            )
        return cls(np.array(columns, dtype=np.float64))

    @property
    def array(self) -> np.ndarray:
        """The whole ``(fields, n)`` array (read-only)."""
        return self._data

    time_s = _column(0)
    core_freq_hz = _column(1)
    uncore_freq_hz = _column(2)
    package_power_w = _column(3)
    dram_power_w = _column(4)
    cap_w = _column(5)
    flops_rate = _column(6)
    bytes_rate = _column(7)

    @property
    def temperature_c(self) -> np.ndarray | None:
        """The temperature column, or ``None`` when thermals were off."""
        return self._data[_BASE_FIELDS] if len(self._data) > _BASE_FIELDS else None

    def __len__(self) -> int:
        return self._data.shape[1]

    @overload
    def __getitem__(self, i: int) -> TraceSample: ...

    @overload
    def __getitem__(self, i: slice) -> list[TraceSample]: ...

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(TraceColumns(self._data[:, i]))
        i = index(i)
        n = len(self)
        if not -n <= i < n:
            raise IndexError("trace index out of range")
        return TraceSample(*self._data[:, i].tolist())

    def __iter__(self) -> Iterator[TraceSample]:
        return map(TraceSample, *self._data.tolist())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TraceColumns):
            # Two empty traces are equal whether or not they have a
            # temperature row.
            return len(self) == len(other) and (
                not self or np.array_equal(self._data, other._data)
            )
        if isinstance(other, list):
            return len(other) == len(self) and all(
                x == y for x, y in zip(self, other)
            )
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __reduce__(self):
        return (TraceColumns, (self._data,))

    def __repr__(self) -> str:
        thermal = ", with temperature" if len(self._data) > _BASE_FIELDS else ""
        return f"TraceColumns({len(self)} samples{thermal})"


@dataclass(frozen=True)
class PhaseSpan:
    """When one phase executed on a socket."""

    name: str
    start_s: float
    end_s: float

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclass
class SocketResult:
    """Everything measured on one socket during a run."""

    socket_id: int
    finish_time_s: float
    package_energy_j: float
    dram_energy_j: float
    #: The socket's trace: :class:`TraceColumns` from an in-memory or
    #: ring-buffer sink, or a list of samples in a result cached
    #: before traces were columnar.
    trace: Sequence[TraceSample] = field(default_factory=list)
    phases: list[PhaseSpan] = field(default_factory=list)

    @property
    def avg_package_power_w(self) -> float:
        if self.finish_time_s <= 0:
            raise SimulationError("socket never ran")
        return self.package_energy_j / self.finish_time_s

    @property
    def avg_dram_power_w(self) -> float:
        if self.finish_time_s <= 0:
            raise SimulationError("socket never ran")
        return self.dram_energy_j / self.finish_time_s

    def window_energy_j(self, start_s: float, end_s: float) -> tuple[float, float]:
        """(package, dram) energy inside a time window, from the trace."""
        if not self.trace:
            raise SimulationError("run recorded no trace")
        if not 0.0 <= start_s < end_s:
            raise SimulationError("invalid window")
        cols = TraceColumns.from_samples(self.trace)
        pkg = dram = 0.0
        prev_t = 0.0
        for t, pkg_w, dram_w in zip(
            cols.time_s.tolist(),
            cols.package_power_w.tolist(),
            cols.dram_power_w.tolist(),
        ):
            dt = t - prev_t
            lo = max(prev_t, start_s)
            hi = min(t, end_s)
            if hi > lo:
                frac = (hi - lo) / dt if dt > 0 else 0.0
                pkg += pkg_w * dt * frac
                dram += dram_w * dt * frac
            prev_t = t
        return pkg, dram

    def phase_span(self, name_prefix: str) -> PhaseSpan:
        """The first phase whose name starts with ``name_prefix``."""
        for span in self.phases:
            if span.name.startswith(name_prefix):
                return span
        raise SimulationError(f"no phase starting with {name_prefix!r}")

    def average_core_freq_hz(self) -> float:
        """Time-weighted mean core frequency over the run (Fig. 5)."""
        if not self.trace:
            raise SimulationError("run recorded no trace")
        cols = TraceColumns.from_samples(self.trace)
        total = 0.0
        prev_t = 0.0
        for t, freq in zip(cols.time_s.tolist(), cols.core_freq_hz.tolist()):
            total += freq * (t - prev_t)
            prev_t = t
        return total / prev_t if prev_t > 0 else 0.0


@dataclass
class RunResult:
    """A complete run of one application under one controller."""

    app_name: str
    controller_name: str
    sockets: list[SocketResult]
    #: Every injected fault that fired during the run, in order
    #: (empty for runs without a fault plan).
    fault_events: "list[FaultEvent]" = field(default_factory=list)

    @property
    def execution_time_s(self) -> float:
        """Wall time: the slowest socket defines completion."""
        return max(s.finish_time_s for s in self.sockets)

    @property
    def package_energy_j(self) -> float:
        """Total processor energy across sockets."""
        return sum(s.package_energy_j for s in self.sockets)

    @property
    def dram_energy_j(self) -> float:
        return sum(s.dram_energy_j for s in self.sockets)

    @property
    def total_energy_j(self) -> float:
        """Processor + DRAM energy, the paper's Fig. 3c metric."""
        return self.package_energy_j + self.dram_energy_j

    @property
    def avg_package_power_w(self) -> float:
        """Mean per-socket package power (the paper reports per socket)."""
        return self.package_energy_j / self.execution_time_s / len(self.sockets)

    @property
    def avg_dram_power_w(self) -> float:
        return self.dram_energy_j / self.execution_time_s / len(self.sockets)

    def socket(self, socket_id: int = 0) -> SocketResult:
        for s in self.sockets:
            if s.socket_id == socket_id:
                return s
        raise SimulationError(f"no socket {socket_id} in result")
