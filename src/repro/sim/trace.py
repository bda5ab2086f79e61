"""Trace sinks: observers of the engine's per-step samples.

The engine used to append every :class:`~repro.sim.result.TraceSample`
to an in-RAM list — fine for one run, ruinous for million-step sweep
cells.  Recording is now an observer protocol: the engine pushes each
sample into a :class:`TraceSink` and never owns the storage policy.

:meth:`TraceSink.record` takes one of two things:

* a single :class:`~repro.sim.result.TraceSample` — what the scalar
  stepper and the hetero engine send, one per socket per step;
* a *block*: a float64 array of shape ``(fields, k)`` holding ``k``
  consecutive steps of one socket, one row per
  :data:`~repro.sim.result.TRACE_FIELDS` entry (eight rows without
  thermals, nine with).  The batch engine records columnar: each tick
  it copies its lane-state arrays into one row of a fixed
  ``(chunk, fields, lanes)`` buffer, and when the chunk is full, or a
  run finishes, it hands every socket of every recording run its
  block.  A block views the engine's buffer and is valid only for the
  call; a sink that keeps it copies it.  The buffer is bounded by the
  chunk, not the run, so streaming and ring sinks keep bounded RAM on
  the batch path too.

In memory a trace costs 64 bytes per sample (72 with temperature).

* :class:`InMemoryTraceSink` — the full per-socket traces, kept as
  columns: ``SocketResult.trace`` is a
  :class:`~repro.sim.result.TraceColumns`, whose samples are built
  only when read.
* :class:`StreamingTraceSink` — writes JSONL or CSV rows as they are
  produced; RAM stays O(chunk) regardless of run length, and the JSONL
  content is byte-identical to serialising an in-memory trace of the
  same run (``jsonl_sample_line`` is the single encoder for both).
  Blocks are held until every socket's block of a chunk has arrived
  and are then written tick-major, the row order the scalar engine
  streams in.
* :class:`RingBufferTraceSink` — keeps only the last ``capacity``
  samples per socket (bounded post-mortem window).
* :class:`CompositeTraceSink` — fans each sample out to several sinks,
  so "stream to disk *and* keep the tail in RAM" composes freely.
"""

from __future__ import annotations

import csv
import json
import os
from collections import deque
from typing import IO, TYPE_CHECKING, Sequence, Union

import numpy as np

from ..errors import SimulationError
from .result import TraceColumns, TraceSample

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .faults import FaultEvent

__all__ = [
    "TraceRecord",
    "TraceSink",
    "InMemoryTraceSink",
    "RingBufferTraceSink",
    "StreamingTraceSink",
    "CompositeTraceSink",
    "jsonl_sample_line",
    "jsonl_event_line",
    "csv_sample_row",
    "CSV_HEADER",
]

#: What :meth:`TraceSink.record` accepts: one sample, or a
#: ``(fields, k)`` float64 block of ``k`` consecutive samples.
TraceRecord = Union[TraceSample, np.ndarray]

#: Column order of streamed CSV rows (socket id + the trace fields).
CSV_HEADER = (
    "socket_id",
    "time_s",
    "core_freq_hz",
    "uncore_freq_hz",
    "package_power_w",
    "dram_power_w",
    "cap_w",
    "flops_rate",
    "bytes_rate",
    "temperature_c",
)


def jsonl_sample_line(socket_id: int, sample: TraceSample) -> str:
    """One JSONL record (with trailing newline) for one trace sample.

    The single encoder shared by the streaming sink and the exporter:
    a streamed file and a serialised in-memory trace of the same run
    are byte-identical because both call this function.
    """
    record = {
        "socket_id": socket_id,
        "time_s": sample.time_s,
        "core_freq_hz": sample.core_freq_hz,
        "uncore_freq_hz": sample.uncore_freq_hz,
        "package_power_w": sample.package_power_w,
        "dram_power_w": sample.dram_power_w,
        "cap_w": sample.cap_w,
        "flops_rate": sample.flops_rate,
        "bytes_rate": sample.bytes_rate,
        "temperature_c": sample.temperature_c,
    }
    return json.dumps(record, separators=(",", ":")) + "\n"


def jsonl_event_line(event: "FaultEvent") -> str:
    """One JSONL record (with trailing newline) for one fault event.

    Event records carry an ``"event"`` key (sample records never do),
    so mixed trace files stay trivially splittable.  Like
    :func:`jsonl_sample_line`, this is the single encoder shared by the
    streaming sink and the exporter, keeping the two byte-identical.
    """
    record = {
        "event": event.channel,
        "time_s": event.time_s,
        "socket_id": event.socket_id,
        "detail": event.detail,
    }
    return json.dumps(record, separators=(",", ":")) + "\n"


def csv_sample_row(socket_id: int, sample: TraceSample) -> list[str]:
    """One formatted CSV row for one trace sample (see ``CSV_HEADER``)."""
    return [
        str(socket_id),
        f"{sample.time_s:.6f}",
        f"{sample.core_freq_hz:.0f}",
        f"{sample.uncore_freq_hz:.0f}",
        f"{sample.package_power_w:.3f}",
        f"{sample.dram_power_w:.3f}",
        f"{sample.cap_w:.1f}",
        f"{sample.flops_rate:.3e}",
        f"{sample.bytes_rate:.3e}",
        "" if sample.temperature_c is None else f"{sample.temperature_c:.2f}",
    ]


class TraceSink:
    """Observer of engine trace samples; default hooks are no-ops.

    Lifecycle: the engine calls :meth:`open` once before the first
    sample, :meth:`record` for every (socket, sample or block) in
    simulation order — per socket; blocks of different sockets arrive
    one after another — and :meth:`close` exactly once, in a
    ``finally``, so sinks holding file handles are released even when
    a run raises.
    """

    def open(self, socket_count: int) -> None:
        """Run is starting; ``socket_count`` sockets will report."""

    def record(self, socket_id: int, sample: TraceRecord) -> None:
        """One engine-step sample of one socket, or a block of them."""

    def record_event(self, socket_id: int, event: "FaultEvent") -> None:
        """One injected fault event (``socket_id`` is ``-1`` for
        node-wide faults).  Only fault-injected runs ever call this, so
        sinks on the fault-free path behave exactly as before."""

    def close(self) -> None:
        """Run finished (or aborted); release any resources."""

    def collected(self, socket_id: int) -> Sequence[TraceSample]:
        """Samples this sink retained for ``socket_id`` (may be empty).

        The engine copies these onto ``SocketResult.trace``; streaming
        sinks retain nothing and return the default empty list.
        """
        return []

    def events(self) -> "list[FaultEvent]":
        """Fault events this sink retained, in emission order."""
        return []


class InMemoryTraceSink(TraceSink):
    """Full per-socket traces in RAM, kept as columns.

    Blocks are copied on arrival; single samples queue up and are
    converted to a block when a block arrives or the trace is read.
    :meth:`collected` joins a socket's blocks into one
    :class:`~repro.sim.result.TraceColumns`.
    """

    def __init__(self) -> None:
        self._blocks: list[list[np.ndarray]] = []
        self._samples: list[list[TraceSample]] = []
        self._events: "list[FaultEvent]" = []

    def open(self, socket_count: int) -> None:
        """Allocate one block list and one sample queue per socket."""
        self._blocks = [[] for _ in range(socket_count)]
        self._samples = [[] for _ in range(socket_count)]
        self._events = []

    def record(self, socket_id: int, sample: TraceRecord) -> None:
        """Queue the sample, or copy the block, for its socket."""
        if isinstance(sample, TraceSample):
            self._samples[socket_id].append(sample)
        else:
            self._seal(socket_id)
            self._blocks[socket_id].append(np.array(sample, order="C"))

    def _seal(self, socket_id: int) -> None:
        """Turn the socket's queued samples into a block."""
        queued = self._samples[socket_id]
        if queued:
            self._blocks[socket_id].append(TraceColumns.from_samples(queued).array)
            self._samples[socket_id] = []

    def record_event(self, socket_id: int, event: "FaultEvent") -> None:
        """Retain the fault event (events are sparse; one flat list)."""
        self._events.append(event)

    def collected(self, socket_id: int) -> TraceColumns:
        """The socket's full trace, as columns."""
        self._seal(socket_id)
        blocks = self._blocks[socket_id]
        if not blocks:
            return TraceColumns.from_samples([])
        if len(blocks) > 1:
            if len({len(b) for b in blocks}) > 1:
                raise SimulationError(
                    "trace mixes samples with and without a temperature"
                )
            blocks[:] = [np.concatenate(blocks, axis=1)]
        return TraceColumns(blocks[0])

    def events(self) -> "list[FaultEvent]":
        """All retained fault events, in emission order."""
        return self._events


class RingBufferTraceSink(TraceSink):
    """Bounded window: only the last ``capacity`` samples per socket."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise SimulationError("ring buffer capacity must be at least 1")
        self.capacity = capacity
        self._buffers: list[deque[TraceSample]] = []
        self._events: "deque[FaultEvent]" = deque(maxlen=capacity)
        #: Total samples observed per socket (including evicted ones).
        self.seen: list[int] = []

    def open(self, socket_count: int) -> None:
        """Allocate one bounded deque per socket."""
        self._buffers = [
            deque(maxlen=self.capacity) for _ in range(socket_count)
        ]
        self._events = deque(maxlen=self.capacity)
        self.seen = [0] * socket_count

    def record(self, socket_id: int, sample: TraceRecord) -> None:
        """Append, evicting the oldest samples once at capacity.

        Only a block's last ``capacity`` rows become samples.
        """
        if isinstance(sample, TraceSample):
            self._buffers[socket_id].append(sample)
            self.seen[socket_id] += 1
        else:
            self._buffers[socket_id].extend(
                TraceColumns(sample[:, -self.capacity :])
            )
            self.seen[socket_id] += sample.shape[1]

    def record_event(self, socket_id: int, event: "FaultEvent") -> None:
        """Keep the event tail, bounded by the same capacity."""
        self._events.append(event)

    def collected(self, socket_id: int) -> list[TraceSample]:
        """The retained tail, oldest first."""
        return list(self._buffers[socket_id])

    def events(self) -> "list[FaultEvent]":
        """The retained fault-event tail, oldest first."""
        return list(self._events)


class StreamingTraceSink(TraceSink):
    """Writes each sample straight to a JSONL or CSV stream.

    ``target`` is a path (opened on :meth:`open`, closed on
    :meth:`close`) or an already-open text stream (left open).  RAM use
    is constant in run length; ``rows`` counts what was written.

    Blocks are held until every socket has sent its block for the
    chunk, then written tick-major (step 0 of sockets 0, 1, ..., then
    step 1, ...), so a batch run streams the same bytes, in the same
    order, as the scalar engine's one-sample-per-socket records.
    """

    FORMATS = ("jsonl", "csv")

    def __init__(self, target: str | os.PathLike | IO[str], fmt: str = "jsonl"):
        if fmt not in self.FORMATS:
            raise SimulationError(
                f"unknown trace format {fmt!r}; expected one of {self.FORMATS}"
            )
        self.fmt = fmt
        self.rows = 0
        self._target = target
        self._stream: IO[str] | None = None
        self._owns_stream = False
        self._csv_writer = None
        self._events: "list[FaultEvent]" = []
        self._sockets = 0
        self._held: dict[int, list[TraceSample]] = {}

    def open(self, socket_count: int) -> None:
        """Open the target (if a path) and emit the CSV header."""
        self._sockets = socket_count
        self._held = {}
        if hasattr(self._target, "write"):
            self._stream = self._target  # type: ignore[assignment]
        else:
            self._stream = open(self._target, "w", newline="")
            self._owns_stream = True
        if self.fmt == "csv":
            self._csv_writer = csv.writer(self._stream)
            self._csv_writer.writerow(CSV_HEADER)

    def record(self, socket_id: int, sample: TraceRecord) -> None:
        """Write one row, or hold a block until its chunk is complete."""
        if self._stream is None:
            raise SimulationError("streaming sink used before open()")
        if isinstance(sample, TraceSample):
            self._write_held()
            self._write(socket_id, sample)
            return
        if socket_id in self._held:
            self._write_held()
        self._held[socket_id] = list(TraceColumns(sample))
        if len(self._held) == self._sockets:
            self._write_held()

    def _write(self, socket_id: int, sample: TraceSample) -> None:
        if self.fmt == "jsonl":
            self._stream.write(jsonl_sample_line(socket_id, sample))
        else:
            self._csv_writer.writerow(csv_sample_row(socket_id, sample))
        self.rows += 1

    def _write_held(self) -> None:
        """Write the held blocks tick-major, in socket order."""
        if not self._held:
            return
        held = sorted(self._held.items())
        self._held = {}
        for step in range(max(len(samples) for _, samples in held)):
            for socket_id, samples in held:
                if step < len(samples):
                    self._write(socket_id, samples[step])

    def record_event(self, socket_id: int, event: "FaultEvent") -> None:
        """Buffer the event; the block is written on :meth:`close`.

        Events go out as one trailing block (not interleaved) so a
        streamed file stays byte-identical to exporting the same run's
        in-memory trace followed by its ``fault_events`` — the identity
        the fault-free path has always guaranteed.  CSV streams carry
        samples only; events are JSONL-only records.
        """
        self._events.append(event)

    def close(self) -> None:
        """Flush events + stream; close the stream if this sink opened it."""
        if self._stream is None:
            return
        self._write_held()
        if self.fmt == "jsonl":
            for event in self._events:
                self._stream.write(jsonl_event_line(event))
                self.rows += 1
        self._events = []
        self._stream.flush()
        if self._owns_stream:
            self._stream.close()
        self._stream = None
        self._csv_writer = None


class CompositeTraceSink(TraceSink):
    """Fans every event out to several sinks, in order.

    ``collected`` answers from the first child that retained anything,
    so composing a streaming sink with an in-memory (or ring) sink
    still yields populated ``SocketResult.trace`` lists.
    """

    def __init__(self, *sinks: TraceSink):
        if not sinks:
            raise SimulationError("composite sink needs at least one child")
        self.sinks = sinks

    def open(self, socket_count: int) -> None:
        """Open every child."""
        for sink in self.sinks:
            sink.open(socket_count)

    def record(self, socket_id: int, sample: TraceRecord) -> None:
        """Record into every child."""
        for sink in self.sinks:
            sink.record(socket_id, sample)

    def record_event(self, socket_id: int, event: "FaultEvent") -> None:
        """Record the fault event into every child."""
        for sink in self.sinks:
            sink.record_event(socket_id, event)

    def close(self) -> None:
        """Close every child (later children close even if one raises)."""
        errors: list[Exception] = []
        for sink in self.sinks:
            try:
                sink.close()
            except Exception as exc:  # pragma: no cover - defensive
                errors.append(exc)
        if errors:
            raise errors[0]

    def collected(self, socket_id: int) -> Sequence[TraceSample]:
        """The first child's non-empty retained samples, if any."""
        for sink in self.sinks:
            samples = sink.collected(socket_id)
            if samples:
                return samples
        return []

    def events(self) -> "list[FaultEvent]":
        """The first child's non-empty retained fault events, if any."""
        for sink in self.sinks:
            events = sink.events()
            if events:
                return events
        return []
