"""Crash-isolated, resumable experiment sweeps (JSONL checkpoints).

A Table I sweep at paper scale runs for hours; losing the whole run to one
crashing benchmark (or a ^C at entry 25 of 27) is the single biggest
robustness hole in the experiment drivers.  :class:`SweepCheckpoint`
appends one JSON record per finished entry — success or permanent failure
— to a sidecar file, flushed and fsynced per record so a killed process
loses at most the entry in flight.

``run_table1``/``run_fig5`` consume it: ``--resume`` skips entries whose
latest record is a success (failed and quarantined entries run again),
and because JSON floats round-trip exactly, a resumed sweep reproduces
byte-identical tables.  Entries run in worker processes, but only the
sweep's parent process appends.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
from typing import Iterator

from repro.errors import ReproError
from repro.obs.logs import get_logger
from repro.resilience.atomic import atomic_write_text

try:  # POSIX advisory locking; absent on some platforms.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

_log = get_logger("resilience.checkpoint")


@contextlib.contextmanager
def _exclusive(handle) -> Iterator[None]:
    """Hold an advisory ``flock`` on ``handle`` for the ``with`` body.

    Two processes appending to the same journal (e.g. two concurrent
    ``--resume`` sweeps pointed at one checkpoint) would otherwise be
    able to interleave partial ``write`` calls into one torn line in the
    *middle* of the file — which ``records()`` treats as real corruption.
    The lock serialises whole-record appends; it is advisory, so readers
    (which never write) stay lock-free.  Released automatically when the
    file handle closes, even if the process dies mid-append.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX fallback
        yield
        return
    fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
    try:
        yield
    finally:
        fcntl.flock(handle.fileno(), fcntl.LOCK_UN)


class CheckpointError(ReproError):
    """A sweep checkpoint file is unreadable or malformed."""


class SweepCheckpoint:
    """Append-only JSONL journal of per-entry sweep outcomes.

    Records are free-form dicts carrying at least ``entry`` (benchmark
    name) and ``status`` (``"ok"`` or ``"failed"``).  The latest record
    per entry wins, so a retried entry simply appends a newer record.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = pathlib.Path(path)

    def exists(self) -> bool:
        return self.path.exists()

    def reset(self) -> None:
        """Start a fresh sweep: truncate any previous journal.

        Uses the shared atomic-replace helper so a crash mid-reset leaves
        either the old journal or an empty one — never a torn file.
        """
        atomic_write_text(self.path, "")

    def append(self, record: dict) -> None:
        """Durably append one record (flock + flush + fsync per line).

        The advisory :func:`_exclusive` lock means concurrent appenders
        (two ``--resume`` processes sharing a checkpoint) write whole
        lines, never interleaved fragments; the fsync means a killed
        process loses at most its own in-flight record.
        """
        if "entry" not in record or "status" not in record:
            raise CheckpointError(
                f"checkpoint record needs 'entry' and 'status': {record!r}"
            )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record, sort_keys=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            with _exclusive(handle):
                # Seek inside the lock: another appender may have grown
                # the file since open; "a" mode appends at write time on
                # POSIX, but the explicit seek documents the invariant.
                handle.seek(0, os.SEEK_END)
                handle.write(line + "\n")
                handle.flush()
                os.fsync(handle.fileno())

    def records(self, tolerate_torn_tail: bool = True) -> Iterator[dict]:
        """Yield every record in journal order (missing file = empty).

        A malformed *final* line is skipped with a warning when
        ``tolerate_torn_tail`` is true: a process killed mid-``append``
        leaves at most one truncated line at the end of the journal, and
        that must not make the whole sweep unresumable (same contract as
        :func:`repro.obs.trace.read_trace`).  A torn line anywhere else
        means real corruption and still raises :class:`CheckpointError`.
        """
        if not self.path.exists():
            return
        with open(self.path, "r", encoding="utf-8") as handle:
            lines = [
                (lineno, line.strip())
                for lineno, line in enumerate(handle, start=1)
                if line.strip()
            ]
        for position, (lineno, line) in enumerate(lines):
            try:
                record = json.loads(line)
                if not isinstance(record, dict) or "entry" not in record:
                    raise CheckpointError(
                        f"{self.path}:{lineno}: not a sweep record: {line!r}"
                    )
            except (json.JSONDecodeError, CheckpointError) as exc:
                if not tolerate_torn_tail or position != len(lines) - 1:
                    if isinstance(exc, CheckpointError):
                        raise
                    raise CheckpointError(
                        f"{self.path}:{lineno}: not valid JSON: {exc}"
                    ) from exc
                _log.warning(
                    "%s: line %d is torn (crash-truncated write?); skipped",
                    self.path, lineno,
                )
                return
            yield record

    def latest(self) -> dict[str, dict]:
        """Latest record per entry name (later lines supersede earlier)."""
        result: dict[str, dict] = {}
        for record in self.records():
            result[record["entry"]] = record
        return result

    def completed(self) -> dict[str, dict]:
        """Entries whose latest record is a success."""
        return {
            name: record
            for name, record in self.latest().items()
            if record.get("status") == "ok"
        }
