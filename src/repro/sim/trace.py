"""Trace recording: one chunked column buffer, and the sinks it feeds.

Every engine records its per-socket trace the same way.  A
:class:`TraceRecorder` owns a float64 buffer of shape
``(chunk, fields, columns)``: a row per engine step, a column per
recorded socket (a scalar socket, a hetero device, a batch lane), and
a field per :data:`~repro.sim.result.TRACE_FIELDS` entry (eight
without thermals, nine with).  Each step the scalar stepper and the
hetero engine fill a row socket by socket, and the batch engine fills
it from its lane-state arrays (:meth:`TraceRecorder.put`).  When the
chunk is full, when a run finishes and when it closes, the recorder
hands each socket its new rows as one *block* to
:meth:`TraceSink.record`.

A block is a float64 array of shape ``(fields, k)`` holding ``k``
consecutive steps of one socket, one row per trace field.  It views
the recorder's buffer and is valid only for the call; a sink that
keeps it copies it.  The buffer is bounded by the chunk, not the run,
so streaming and ring sinks keep bounded RAM on every engine.

In memory a trace costs 64 bytes per sample (72 with temperature).

* :class:`InMemoryTraceSink` — the full per-socket traces, kept as
  columns: ``SocketResult.trace`` is a
  :class:`~repro.sim.result.TraceColumns`, whose samples are built
  only when read.
* :class:`StreamingTraceSink` — writes JSONL or CSV rows once per
  chunk; RAM stays O(chunk) regardless of run length, and the JSONL
  content is byte-identical to serialising an in-memory trace of the
  same run (``jsonl_sample_line`` is the single encoder for both).
  Blocks are held until every socket's block of a chunk has arrived
  and are then written tick-major: step 0 of every socket, then
  step 1, and so on.
* :class:`RingBufferTraceSink` — keeps only the last ``capacity``
  samples per socket (bounded post-mortem window), as columns.
* :class:`CompositeTraceSink` — fans each block out to several sinks,
  so "stream to disk *and* keep the tail in RAM" composes freely.
"""

from __future__ import annotations

import csv
import json
import os
from collections import deque
from itertools import accumulate
from typing import IO, TYPE_CHECKING, Sequence

import numpy as np

from ..errors import SimulationError
from .result import TRACE_FIELDS, TraceColumns, TraceSample

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .faults import FaultEvent

__all__ = [
    "TraceRecorder",
    "TraceSink",
    "InMemoryTraceSink",
    "RingBufferTraceSink",
    "StreamingTraceSink",
    "CompositeTraceSink",
    "jsonl_sample_line",
    "jsonl_event_line",
    "csv_sample_row",
    "CSV_HEADER",
    "TRACE_CHUNK_TICKS",
    "TRACE_CHUNK_BYTES",
]

#: Bounds of a recorder's buffer: at most this many ticks per chunk,
#: and at most this many bytes for the whole ``(chunk, fields,
#: columns)`` buffer, whichever is smaller.
TRACE_CHUNK_TICKS = 1024
TRACE_CHUNK_BYTES = 8 << 20

#: Column order of streamed CSV rows (socket id + the trace fields).
CSV_HEADER = ("socket_id", *TRACE_FIELDS)

#: ``format`` spec of each trace field in CSV rows.
_CSV_FORMATS = (".6f", ".0f", ".0f", ".3f", ".3f", ".1f", ".3e", ".3e", ".2f")


def jsonl_sample_line(socket_id: int, sample: TraceSample) -> str:
    """One JSONL record (with trailing newline) for one trace sample.

    The single encoder shared by the streaming sink and the exporter:
    a streamed file and a serialised in-memory trace of the same run
    are byte-identical because both call this function.  Keys follow
    the socket id in ``TRACE_FIELDS`` order.
    """
    record = {"socket_id": socket_id, **vars(sample)}
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
    """One formatted CSV row for one trace sample (see ``CSV_HEADER``).

    The single encoder shared by the streaming sink and the exporter;
    a missing temperature is an empty cell.
    """
    return [str(socket_id)] + [
        "" if value is None else format(value, spec)
        for value, spec in zip(vars(sample).values(), _CSV_FORMATS)
    ]


class TraceSink:
    """Observer of engine trace blocks; default hooks are no-ops.

    Lifecycle: the engine's :class:`TraceRecorder` calls :meth:`open`
    once before the first block, :meth:`record` for every (socket,
    block) in simulation order — per socket; blocks of different
    sockets arrive one after another — and :meth:`close` exactly once,
    in a ``finally``, so sinks holding file handles are released even
    when a run raises.
    """

    def open(self, socket_count: int) -> None:
        """Run is starting; ``socket_count`` sockets will report."""

    def record(self, socket_id: int, block: np.ndarray) -> None:
        """A ``(fields, k)`` block: ``k`` consecutive steps of one socket."""

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


class TraceRecorder:
    """One engine's trace buffer, handed to its sinks in blocks.

    ``sinks`` pairs each sink with its socket count; sink ``g`` owns
    the next that many buffer columns, in socket-id order, and is
    opened on construction.  Each step the engine starts a row with
    :meth:`next_row` and fills it through :meth:`put`.  A full chunk
    is handed to every open sink before its first row is reused;
    :meth:`flush` hands one sink its rows early (a run that finished)
    and :meth:`close` flushes and closes it.  ``thermal`` adds the
    temperature field.
    """

    def __init__(self, sinks: Sequence[tuple[TraceSink, int]], thermal: bool):
        self._sinks = list(sinks)
        self._first = list(accumulate((n for _, n in self._sinks), initial=0))
        columns = self._first.pop()
        fields = len(TRACE_FIELDS) - (not thermal)
        row_bytes = 8 * fields * max(columns, 1)
        chunk = max(1, min(TRACE_CHUNK_TICKS, TRACE_CHUNK_BYTES // row_bytes))
        self.buf = np.empty((chunk, fields, columns))
        self._thermal = thermal
        #: Rows of the current chunk written so far, and per sink the
        #: first row not yet handed to it.
        self._n = 0
        self._from = [0] * len(self._sinks)
        self._open = [True] * len(self._sinks)
        self._row = self.buf[0]
        for sink, sockets in self._sinks:
            sink.open(sockets)

    def next_row(self) -> None:
        """Start the row of the step being recorded."""
        if self._n == len(self.buf):
            for g, is_open in enumerate(self._open):
                if is_open:
                    self.flush(g)
            self._n = 0
            self._from = [0] * len(self._sinks)
        self._row = self.buf[self._n]
        self._n += 1

    def put(
        self,
        col: int | slice,
        time_s: float | np.ndarray,
        core_freq_hz: float | np.ndarray,
        uncore_freq_hz: float | np.ndarray,
        package_power_w: float | np.ndarray,
        dram_power_w: float | np.ndarray,
        cap_w: float | np.ndarray,
        flops_rate: float | np.ndarray,
        bytes_rate: float | np.ndarray,
        temperature_c: float | np.ndarray | None = None,
    ) -> None:
        """Write samples into column(s) ``col`` of the current row.

        ``col`` is one socket's column with one float per field, or a
        slice of columns with one array per field.
        """
        values = (
            time_s,
            core_freq_hz,
            uncore_freq_hz,
            package_power_w,
            dram_power_w,
            cap_w,
            flops_rate,
            bytes_rate,
            temperature_c,
        )
        self._row[:, col] = values if self._thermal else values[:-1]

    def flush(self, g: int = 0) -> None:
        """Hand sink ``g``'s sockets their rows not yet handed over."""
        start, n = self._from[g], self._n
        if start == n:
            return
        self._from[g] = n
        (sink, sockets), first = self._sinks[g], self._first[g]
        for s in range(sockets):
            sink.record(s, self.buf[start:n, :, first + s].T)

    def close(self, g: int | None = None) -> None:
        """Flush and close sink ``g``, or every sink still open.

        A closed sink is skipped by later chunks and later calls.
        """
        for h in range(len(self._sinks)) if g is None else (g,):
            if self._open[h]:
                self._open[h] = False
                try:
                    self.flush(h)
                finally:
                    self._sinks[h][0].close()


class InMemoryTraceSink(TraceSink):
    """Full per-socket traces in RAM, kept as columns.

    Blocks are copied on arrival; :meth:`collected` joins a socket's
    blocks into one :class:`~repro.sim.result.TraceColumns`.
    """

    def __init__(self) -> None:
        self._blocks: list[list[np.ndarray]] = []
        self._events: "list[FaultEvent]" = []

    def open(self, socket_count: int) -> None:
        """Allocate one block list per socket."""
        self._blocks = [[] for _ in range(socket_count)]
        self._events = []

    def record(self, socket_id: int, block: np.ndarray) -> None:
        """Copy the block for its socket."""
        self._blocks[socket_id].append(np.array(block, order="C"))

    def record_event(self, socket_id: int, event: "FaultEvent") -> None:
        """Retain the fault event (events are sparse; one flat list)."""
        self._events.append(event)

    def collected(self, socket_id: int) -> TraceColumns:
        """The socket's full trace, as columns."""
        blocks = self._blocks[socket_id]
        if not blocks:
            return TraceColumns.from_samples([])
        if len(blocks) > 1:
            blocks[:] = [np.concatenate(blocks, axis=1)]
        return TraceColumns(blocks[0])

    def events(self) -> "list[FaultEvent]":
        """All retained fault events, in emission order."""
        return self._events


class RingBufferTraceSink(InMemoryTraceSink):
    """Bounded window: only the last ``capacity`` samples per socket.

    Blocks that fall wholly out of the window are dropped as new ones
    arrive, so RAM stays O(capacity + chunk) whatever the run length.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise SimulationError("ring buffer capacity must be at least 1")
        super().__init__()
        self.capacity = capacity
        #: Total samples observed per socket (including evicted ones).
        self.seen: list[int] = []

    def open(self, socket_count: int) -> None:
        """Allocate one block list per socket and a bounded event tail."""
        super().open(socket_count)
        self._events = deque(maxlen=self.capacity)  # type: ignore[assignment]
        self.seen = [0] * socket_count

    def record(self, socket_id: int, block: np.ndarray) -> None:
        """Copy the block's tail, then evict blocks the window left."""
        super().record(socket_id, block[:, -self.capacity :])
        self.seen[socket_id] += block.shape[1]
        blocks = self._blocks[socket_id]
        while sum(b.shape[1] for b in blocks[1:]) >= self.capacity:
            del blocks[0]

    def collected(self, socket_id: int) -> TraceColumns:
        """The retained tail, oldest first, as columns."""
        return TraceColumns(super().collected(socket_id).array[:, -self.capacity :])

    def events(self) -> "list[FaultEvent]":
        """The retained fault-event tail, oldest first."""
        return list(self._events)


class StreamingTraceSink(TraceSink):
    """Writes every sample to a JSONL or CSV stream, chunk by chunk.

    ``target`` is a path (opened on :meth:`open`, closed on
    :meth:`close`) or an already-open text stream (left open).  RAM use
    is constant in run length; ``rows`` counts what was written.

    Blocks are held until every socket has sent its block for the
    chunk, then written tick-major (step 0 of sockets 0, 1, ..., then
    step 1, ...).  A socket whose run finished early sends no more
    blocks; its last block is written with the next chunk's, and a
    second block from any held socket flushes what is held first.
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

    def record(self, socket_id: int, block: np.ndarray) -> None:
        """Hold the block until its chunk is complete."""
        if self._stream is None:
            raise SimulationError("streaming sink used before open()")
        if socket_id in self._held:
            self._write_held()
        self._held[socket_id] = list(TraceColumns(block))
        if len(self._held) == self._sockets:
            self._write_held()

    def _write_held(self) -> None:
        """Write the held blocks tick-major, in socket order."""
        if not self._held:
            return
        held = sorted(self._held.items())
        self._held = {}
        stream = self._stream
        for step in range(max(len(samples) for _, samples in held)):
            for socket_id, samples in held:
                if step < len(samples):
                    if self.fmt == "jsonl":
                        stream.write(jsonl_sample_line(socket_id, samples[step]))
                    else:
                        self._csv_writer.writerow(
                            csv_sample_row(socket_id, samples[step])
                        )
                    self.rows += 1

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
    """Fans every block and event out to several sinks, in order.

    ``collected`` answers from the first child that retained anything,
    so composing a streaming sink with an in-memory (or ring) sink
    still yields populated ``SocketResult.trace`` columns.
    """

    def __init__(self, *sinks: TraceSink):
        if not sinks:
            raise SimulationError("composite sink needs at least one child")
        self.sinks = sinks

    def open(self, socket_count: int) -> None:
        """Open every child."""
        for sink in self.sinks:
            sink.open(socket_count)

    def record(self, socket_id: int, block: np.ndarray) -> None:
        """Record into every child."""
        for sink in self.sinks:
            sink.record(socket_id, block)

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
