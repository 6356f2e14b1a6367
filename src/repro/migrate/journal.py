"""The write-ahead journal: record format, durable appends and replay.

Every windowed transfer (migration, disk rebuild, cluster rebalance and
shard drain) journals through :class:`MigrationJournal`; the stage →
apply → commit discipline that orders the records is described once, in
:mod:`repro.migrate.transfer`.  This module owns the format.

Records are JSONL — one JSON object per line, ``type`` field dispatching
— with payloads base64-encoded:

* ``plan`` — always the first record, carrying enough context (forms,
  rows, element size, code params, seed, and ``kind`` for every kind but
  migration) to rebuild the store and resume without any other state;
* ``stage`` — one window's rows and payloads, written before any slot
  of the window is touched;
* ``commit`` — the window is durable at its destination;
* ``checkpoint`` — a progress/invariant record.

Appends are fsynced per record.  :meth:`MigrationJournal.load` tolerates
a torn final line (the crash happened mid-append) by discarding it.
"""

from __future__ import annotations

import base64
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["JournalError", "PendingStage", "JournalState", "MigrationJournal"]


class JournalError(RuntimeError):
    """The journal is malformed beyond the tolerated torn tail."""


@dataclass(frozen=True)
class PendingStage:
    """A staged-but-uncommitted window awaiting (re-)apply.

    ``payloads[i][e]`` is data element ``e`` of ``rows[i]``.
    """

    window: int
    rows: tuple[int, ...]
    payloads: tuple[tuple[bytes, ...], ...]


@dataclass
class JournalState:
    """Everything :meth:`MigrationJournal.load` recovers."""

    context: dict | None = None
    committed: set[int] = field(default_factory=set)
    #: every staged window, committed or not — the full WAL of moves,
    #: enough to re-derive the target layout from a source-form store
    #: (the CLI's cross-process resume path).
    staged: dict[int, PendingStage] = field(default_factory=dict)
    pending: PendingStage | None = None
    checkpoints: list[dict] = field(default_factory=list)
    #: records parsed (diagnostics); torn tail lines are not counted.
    records: int = 0

    @property
    def started(self) -> bool:
        """True once a plan record exists."""
        return self.context is not None

    @property
    def windows_total(self) -> int:
        """Planned window count (0 before the plan record)."""
        return int(self.context.get("windows", 0)) if self.context else 0

    @property
    def complete(self) -> bool:
        """True when every planned window has a commit record."""
        return self.started and len(self.committed) >= self.windows_total


class MigrationJournal:
    """Append-only JSONL journal at ``path``.

    Appends are flushed and fsynced per record — the journal *is* the
    crash-consistency story, so a record either fully exists or is a torn
    tail that :meth:`load` discards.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    def exists(self) -> bool:
        """True if the journal file exists on disk."""
        return self.path.exists()

    # ------------------------------------------------------------------
    # append side
    # ------------------------------------------------------------------
    def _append(self, record: dict) -> None:
        line = json.dumps(record, separators=(",", ":"))
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    def write_plan(self, context: dict) -> None:
        """Record the migration plan context (must be the first record)."""
        self._append({"type": "plan", "context": context})

    def write_stage(
        self, window: int, rows: list[int], payloads: list[list[bytes]]
    ) -> None:
        """Stage a window's data payloads ahead of any physical write."""
        self._append(
            {
                "type": "stage",
                "window": window,
                "rows": list(rows),
                "data": [
                    [base64.b64encode(p).decode("ascii") for p in row]
                    for row in payloads
                ],
            }
        )

    def write_commit(self, window: int) -> None:
        """Mark a fully applied window durable in the target form."""
        self._append({"type": "commit", "window": window})

    def write_checkpoint(self, payload: dict) -> None:
        """Record a progress/invariant checkpoint."""
        self._append({"type": "checkpoint", **payload})

    # ------------------------------------------------------------------
    # recovery side
    # ------------------------------------------------------------------
    def load(self) -> JournalState:
        """Replay the journal into a :class:`JournalState`.

        Tolerates exactly one torn line at the tail (crash mid-append);
        malformed lines elsewhere raise :class:`JournalError`.
        """
        state = JournalState()
        if not self.path.exists():
            return state
        with open(self.path, "r", encoding="utf-8") as fh:
            raw = fh.read()
        lines = raw.split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        staged = state.staged
        for i, line in enumerate(lines):
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if i == len(lines) - 1:
                    break  # torn tail from a crash mid-append
                raise JournalError(f"malformed journal line {i + 1}: {line[:80]!r}")
            state.records += 1
            rtype = record.get("type")
            if rtype == "plan":
                if state.context is not None:
                    raise JournalError("duplicate plan record")
                state.context = record["context"]
            elif rtype == "stage":
                staged[record["window"]] = PendingStage(
                    window=record["window"],
                    rows=tuple(record["rows"]),
                    payloads=tuple(
                        tuple(base64.b64decode(p) for p in row)
                        for row in record["data"]
                    ),
                )
            elif rtype == "commit":
                state.committed.add(record["window"])
            elif rtype == "checkpoint":
                state.checkpoints.append(
                    {k: v for k, v in record.items() if k != "type"}
                )
            else:
                raise JournalError(f"unknown record type {rtype!r} at line {i + 1}")
        # the pending window is the latest staged record with no commit
        uncommitted = [w for w in staged if w not in state.committed]
        if uncommitted:
            if len(uncommitted) > 1:
                raise JournalError(
                    f"multiple uncommitted staged windows {sorted(uncommitted)}; "
                    "the mover stages one window at a time"
                )
            state.pending = staged[uncommitted[0]]
        return state
