"""The windowed-transfer executor: the one write-ahead-log loop.

Layout migration (:class:`~repro.migrate.mover.Migrator`), disk rebuild
(:class:`~repro.recovery.orchestrator.DiskRebuild`), and cluster
rebalance and shard drain (:func:`~repro.cluster.rebalance.
run_rebalance`) move data window by window through a
:class:`~repro.migrate.journal.MigrationJournal`, and
:class:`WindowedTransfer` is the only code that writes their ``stage``
and ``commit`` records.  Each window is one transaction:

1. **fetch** — the kind's hook reads the window's verified payloads;
2. **stage** — the payloads are journaled (fsynced) before any
   destination slot is touched;
3. **apply** — the kind's hook writes each row at its destination.
   Rewriting a slot only refreshes its content and checksum, so an apply
   may be repeated;
4. **commit** — a commit record marks the window durable, then the
   kind's commit hook runs (routing flips, cache invalidation,
   checkpoints).

A crash before (2) loses nothing.  A crash between (2) and (4) leaves
exactly one pending stage, which :meth:`WindowedTransfer.replay`
re-applies from the journal and commits.  A crash after (4) needs no
replay.  The journal discards a torn final line, which this ordering
makes safe: a torn stage record means no slot of its window was touched.
Every resume entry point opens its journal through :func:`open_journal`
and replays the pending stage before it returns, so no read observes a
half-applied window.

Crash testing: ``crash_after`` names one of the kind's crash points —
``"stage"``, its apply point (hit before row ``len(rows) // 2``) or
``"commit"`` — and ``crash_at_window`` the window's position in the
visit order; :class:`TransferCrash` is raised there.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from ..obs import NULL_TRACER, Tracer
from ..recovery.throttle import RepairThrottle
from .journal import JournalState, MigrationJournal, PendingStage

__all__ = ["COMMIT", "STAGE", "TransferCrash", "WindowedTransfer", "open_journal"]

STAGE = "stage"
COMMIT = "commit"

#: journal kind -> the entry point that resumes it.  A plan record with
#: no ``kind`` is a migration journal (the migrator predates the field).
RESUMED_BY = {
    "migration": "resume_migration",
    "disk-rebuild": "resume_disk_rebuild",
    "cluster-rebalance": "resume_rebalance",
    "cluster-recovery": "resume_recovery",
}


class TransferCrash(RuntimeError):
    """Simulated process crash at a WAL point (testing hook).

    The in-memory executor is dead after this; the journal and the disks
    survive.  Recover through the kind's resume entry point.
    """


def open_journal(
    journal: MigrationJournal | str | Path, kind: str, error: type[Exception], store=None
) -> tuple[MigrationJournal, JournalState]:
    """Load ``journal`` for a resume of ``kind``; raise ``error`` on misuse.

    Checks that a plan record exists and names ``kind`` and, given the
    ``store`` to resume on, that its element size matches the plan and it
    holds at least the plan's rows.
    """
    if not isinstance(journal, MigrationJournal):
        journal = MigrationJournal(journal)
    state = journal.load()
    if not state.started:
        raise error(f"journal {journal.path} has no plan record")
    ctx = state.context
    found = ctx.get("kind", "migration")
    if found != kind:
        hint = f"; use {RESUMED_BY[found]}" if found in RESUMED_BY else ""
        raise error(
            f"journal {journal.path} is not a {kind} journal: it is a "
            f"{found!r} journal{hint}"
        )
    if store is not None and store.element_size != ctx["element_size"]:
        raise error(
            f"store element size {store.element_size} does not match the "
            f"journal's {ctx['element_size']}"
        )
    if store is not None and store.rows_written < ctx["rows"]:
        raise error(
            f"store has {store.rows_written} rows, journal planned {ctx['rows']}"
        )
    return journal, state


class WindowedTransfer:
    """Base of every journaled background transfer.

    A subclass sets :attr:`span_name`, :attr:`apply_point` and
    :attr:`order`, and implements the hooks ``_window_rows(window)``,
    ``_fetch(window, rows)`` (one payload list per row, as staged) and
    ``_apply_row(row, payloads)``, and may implement :meth:`_on_commit`.  It
    pays for each window with :meth:`_pay` (through ``throttle``, a
    :class:`~repro.recovery.throttle.RepairThrottle`; ``None`` is
    unthrottled) and runs it with :meth:`run_window`.  A ``journal`` of
    ``None`` runs without a WAL.
    """

    #: tracer span per window.
    span_name: str = "transfer"
    #: the kind's mid-apply crash point.
    apply_point: str = "apply"
    #: window indices in visit order; ``crash_at_window`` indexes this.
    order: Sequence[int] = ()

    def __init__(
        self,
        journal: MigrationJournal | str | Path | None,
        *,
        tracer: Tracer = NULL_TRACER,
        throttle: RepairThrottle | None = None,
        crash_after: str | None = None,
        crash_at_window: int = 0,
    ) -> None:
        points = (STAGE, self.apply_point, COMMIT)
        if crash_after is not None and crash_after not in points:
            raise ValueError(
                f"crash_after must be one of {points}, got {crash_after!r}"
            )
        if journal is not None and not isinstance(journal, MigrationJournal):
            journal = MigrationJournal(journal)
        self.journal = journal
        self.tracer = tracer
        self.throttle = throttle
        self.crash_after = crash_after
        self.crash_at_window = crash_at_window
        self.bytes_staged = 0
        #: committed windows.
        self.done: set[int] = set()
        #: attributes every window span carries ahead of ``window``.
        self.span_attrs: dict = {}

    def _write_plan(self, context: dict, error: type[Exception]) -> None:
        """Open a fresh journal with its plan record (a fresh start only:
        an existing journal belongs to a resume)."""
        if self.journal.exists():
            resume = RESUMED_BY[context.get("kind", "migration")]
            raise error(f"journal {self.journal.path} already exists; use {resume}()")
        self.journal.write_plan(context)

    # ------------------------------------------------------------------
    # progress
    # ------------------------------------------------------------------
    @property
    def complete(self) -> bool:
        """True once every window is committed."""
        return len(self.done) >= len(self.order)

    @property
    def progress_ratio(self) -> float:
        """Committed fraction of the schedule (1.0 when empty)."""
        return len(self.done) / len(self.order) if self.order else 1.0

    def _next_window(self, skip: set[int] | frozenset[int] = frozenset()) -> int | None:
        """The first uncommitted window in visit order, ``skip`` aside."""
        return next(
            (w for w in self.order if w not in self.done and w not in skip), None
        )

    # ------------------------------------------------------------------
    # the transaction
    # ------------------------------------------------------------------
    def _pay(self, cost: int) -> bool:
        """Refill the throttle and pay a window of ``cost`` element
        operations; False (a stall) if the bucket is short.  A window
        bigger than the bucket's burst bound pays the whole bucket."""
        if self.throttle is None:
            return True
        self.throttle.refill()
        return self.throttle.spend(min(cost, self.throttle.max_budget))

    def _span(self, window: int, **attrs):
        return self.tracer.span(
            self.span_name, **self.span_attrs, window=window, **attrs
        )

    def _maybe_crash(self, point: str, window: int) -> None:
        if (
            self.crash_after == point
            and self.order.index(window) == self.crash_at_window
        ):
            raise TransferCrash(f"simulated crash at {point} of window {window}")

    def run_window(self, window: int) -> None:
        """Fetch, stage, apply and commit one window."""
        rows = self._window_rows(window)
        with self._span(window, rows=len(rows)):
            payloads = self._fetch(window, rows)
            self.bytes_staged += sum(len(p) for row in payloads for p in row)
            if self.journal is not None:
                self.journal.write_stage(window, list(rows), payloads)
            self._maybe_crash(STAGE, window)
            self._apply(window, rows, payloads)
            self._commit(window, rows)

    def replay(self, pending: PendingStage) -> None:
        """Re-apply a staged-but-uncommitted window from the journal and
        commit it.

        Every write lands the same payload at the same address, so this
        is correct whether the crash hit before, during or after the
        original apply.
        """
        with self._span(pending.window, replay=True):
            self._apply(pending.window, pending.rows, pending.payloads, crash=False)
            self._commit(pending.window, pending.rows, crash=False)

    def _apply(self, window, rows, payloads, *, crash: bool = True) -> None:
        crash_row = len(rows) // 2
        for i, row in enumerate(rows):
            if crash and i == crash_row:
                self._maybe_crash(self.apply_point, window)
            self._apply_row(row, payloads[i])

    def _commit(self, window, rows, *, crash: bool = True) -> None:
        if self.journal is not None:
            self.journal.write_commit(window)
        if crash:
            self._maybe_crash(COMMIT, window)
        self.done.add(window)
        self._on_commit(window, rows)

    def _on_commit(self, window: int, rows: Sequence[int]) -> None:
        """Hook: runs once the window's commit record is durable."""
