"""Span sinks: JSONL trace files and in-memory record collectors.

Every JSONL line is a self-contained JSON object carrying at least
``type``, ``name``, ``duration_s`` and ``parent`` — the invariant offline
tooling (and the test suite) relies on.  Three record types exist:

``span``
    A finished stage: ``path`` is the full ``" > "``-joined location,
    ``parent`` the enclosing path (``null`` at the root), ``t_s`` the
    monotonic start timestamp, ``attrs`` free-form stage attributes.
``event``
    A point in time (``duration_s`` is ``0.0``), e.g. a flow fallback.
``metric``
    One registry instrument, written by :meth:`JsonlSink.write_metrics`
    when a run finishes; ``parent`` is ``null`` and ``duration_s`` ``0.0``.
"""

from __future__ import annotations

import io
import json
import pathlib
import threading
from typing import Iterable, Mapping, Sequence

from repro.obs.spans import Span, SpanSink, active_sinks


class JsonlSink:
    """Append spans/events to a file, one JSON object per line.

    Accepts a path (opened lazily, closed by :meth:`close`) or any
    writable text file object (left open for the caller to manage).
    """

    def __init__(self, target: str | pathlib.Path | io.TextIOBase) -> None:
        if isinstance(target, (str, pathlib.Path)):
            self._file: io.TextIOBase = open(target, "w", encoding="utf-8")
            self._owns_file = True
        else:
            self._file = target
            self._owns_file = False
        self.lines_written = 0
        # The service's cache reads and writes run in worker threads
        # (``asyncio.to_thread``) and emit spans and events there; a lock
        # keeps every JSONL line whole (interleaved writes would tear
        # records).
        self._lock = threading.Lock()

    def _write(self, record: Mapping) -> None:
        line = json.dumps(record, default=str) + "\n"
        with self._lock:
            self._file.write(line)
            self.lines_written += 1

    def on_span(self, span: Span) -> None:
        self._write(span.to_record())

    def on_event(self, record: dict) -> None:
        self._write(record)

    def on_record(self, record: Mapping) -> None:
        """Append an already-flattened record (see :func:`replay_records`)."""
        self._write(record)

    def write_metrics(self, snapshot: Mapping[str, Mapping]) -> None:
        """Append one ``metric`` line per registry instrument."""
        for name, data in snapshot.items():
            self._write({
                "type": "metric",
                "name": name,
                "parent": None,
                "duration_s": 0.0,
                **data,
            })

    def flush(self) -> None:
        self._file.flush()

    def close(self) -> None:
        self.flush()
        if self._owns_file:
            self._file.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class CollectorSink:
    """In-memory span/event collector (list of JSONL-shaped records).

    Doubles as the transport format for process-parallel sweeps: a worker
    attaches a collector, ships ``records`` back to the parent (they are
    plain JSON-ready dicts, hence picklable), and the parent merges them
    into its own sinks with :func:`replay_records`.
    """

    def __init__(self) -> None:
        self.records: list[dict] = []

    def on_span(self, span: Span) -> None:
        self.records.append(span.to_record())

    def on_event(self, record: dict) -> None:
        self.records.append(record)

    def on_record(self, record: dict) -> None:
        self.records.append(record)


def replay_records(
    records: Iterable[Mapping],
    sinks: Sequence[SpanSink] | None = None,
) -> None:
    """Feed already-flattened records into sinks (worker → parent merge).

    ``sinks`` defaults to the currently attached set.  Only sinks exposing
    ``on_record`` participate — the record is no longer a live
    :class:`Span`, so the ``on_span`` protocol does not apply.
    """
    targets = [
        sink
        for sink in (active_sinks() if sinks is None else sinks)
        if hasattr(sink, "on_record")
    ]
    for record in records:
        for sink in targets:
            sink.on_record(record)
