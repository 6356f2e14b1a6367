"""The recovery orchestrator: failure -> spare -> online rebuild -> healthy.

This closes the loop the paper's §II-D only *calculates*: EC-FRM spreads
rebuild helper reads over all survivors, so rebuild is faster for the
same reason reads are — but a calculation repairs nothing.  The pieces:

:class:`DiskRebuild` drives one failed disk's reconstruction onto a
bound spare, incrementally in row-windows, on the
:mod:`~repro.migrate.transfer` executor.  Its fetch stages either each
row's verified data (``row-data``) or only the lost payloads, fetched
through the minimum-transfer repair planner (``lost-elements``).  Its
apply (crash point ``"reconstruct"``) writes the lost elements on the
spare, re-encoding parity from data.  Its commit drops the window's
plan-cache entries; it writes no checkpoints.  :func:`resume_disk_rebuild`
picks up a crashed rebuild.

Rebuilt elements are readable *immediately*, and not just after their
window commits: binding the spare (:meth:`SimDisk.restore(wipe=True)`)
makes the disk alive-but-empty, so a degraded read of a not-yet-rebuilt
slot demotes it to an erasure, reconstructs through the code, and
self-heals it in place — the foreground read path and the rebuild
executor write the same bytes through the same
:meth:`~repro.store.blockstore.BlockStore.put_element` point, so their
interleaving is idempotent by construction.

**Heal priority**: an optional per-row heat map orders windows hottest
first, so under a Zipf workload the stripes that dominate foreground
traffic stop paying the degraded-read tax earliest.

**Overlapping failures**: a second disk failing mid-rebuild makes some
windows temporarily undecodable; those park (``DecodeFailure`` from the
fetch) and are retried after the survivors change — a transient outage
restores on the injector's op clock, which the rebuild's own I/O ticks.
Only when retry rounds stop making progress is the typed
:class:`DataLossError` raised, naming the unrecoverable rows.

The *spare itself* dying mid-rebuild is not data loss: windows park
(checked after their fetches, before their stage record, so the WAL
never holds two uncommitted stages) and, if the spare stays dead through
the retry rounds, :class:`SpareFailedError` tells the orchestrator to
abandon the attempt — the dead spare stays consumed, the disk re-queues,
and a fresh spare (when the pool has one) starts a new rebuild.

:class:`RecoveryOrchestrator` supervises the whole plane: it polls a
:class:`~repro.recovery.detector.FailureDetector`, binds spares from a
:class:`~repro.recovery.spares.SparePool` (staying gracefully degraded
when the pool is dry), runs one :class:`DiskRebuild` at a time under a
:class:`~repro.recovery.throttle.RepairThrottle`, and publishes the
``recovery.`` metrics namespace.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..codes.base import DecodeFailure
from ..migrate.journal import MigrationJournal
from ..migrate.transfer import COMMIT, STAGE, TransferCrash, WindowedTransfer, open_journal
from ..obs import NULL_TRACER, Tracer
from .detector import DetectorConfig, FailureDetector
from .spares import SparePool, SpareExhaustedError
from .throttle import RepairThrottle

__all__ = [
    "REBUILD_CRASH_POINTS",
    "RecoveryCrash",
    "RecoveryError",
    "SpareFailedError",
    "DataLossError",
    "DiskRebuild",
    "resume_disk_rebuild",
    "RecoveryOrchestrator",
]

#: valid ``crash_after`` hook points of one rebuild window, in WAL order.
REBUILD_CRASH_POINTS = (STAGE, "reconstruct", COMMIT)

#: journal context discriminator (the WAL format is shared with
#: migration and cluster rebalance; the kind keeps resumes honest).
JOURNAL_KIND = "disk-rebuild"


class RecoveryError(RuntimeError):
    """Recovery plane misuse (wrong journal, wrong disk state, ...)."""


#: a simulated crash of the rebuild (the executor's one crash type).
RecoveryCrash = TransferCrash


class SpareFailedError(RecoveryError):
    """The bound spare itself died mid-rebuild and stayed dead.

    No data is lost — the failed disk's contents remain reconstructible
    from the survivors — but this executor can make no further progress:
    the bay needs a *fresh* spare.  The orchestrator reacts by abandoning
    the rebuild (the dead spare stays consumed) and re-queueing the disk.
    """


class _SpareDown(Exception):
    """Internal: the rebuild target disk is down at window-apply time.

    Raised *before* the window is staged (so the WAL never accumulates a
    second uncommitted stage record) and converted to a parked window by
    :meth:`DiskRebuild.step` — a transient outage on the spare restores
    on the injector's op clock, which the retry rounds' fetches tick.
    """


class DataLossError(RuntimeError):
    """Stripe ranges are genuinely unrecoverable under current failures.

    Raised only after parked-window retries stop making progress — a
    transient second failure parks windows without ever raising this.
    ``rows`` names the affected candidate rows.
    """

    def __init__(self, message: str, rows: list[int]) -> None:
        super().__init__(message)
        self.rows = list(rows)


class DiskRebuild(WindowedTransfer):
    """Crash-safe, throttled rebuild of one failed disk onto a spare.

    Parameters
    ----------
    store:
        The live :class:`~repro.store.blockstore.BlockStore`.
    failed_disk:
        Disk to rebuild.  Must be failed at construction (fresh start);
        the constructor binds the spare by restoring the disk wiped.
    journal:
        Journal (or path) for the rebuild WAL.  Fresh starts need a
        fresh journal; crashed rebuilds resume via
        :func:`resume_disk_rebuild`.
    cache:
        Optional plan cache serving reads over the store; entries
        covering each window are invalidated at commit (a degraded plan
        cached before the window committed would keep paying the
        reconstruction tax — invalidation here is a performance fix, and
        after the final window it is what lets plans stop degrading).
    throttle:
        Optional :class:`RepairThrottle`; ``None`` runs unthrottled.
    unit_rows:
        Rows per window.
    heat:
        Optional ``row -> score`` map; windows are rebuilt in descending
        total-heat order (ties by window index).  The order is persisted
        in the journal context so a resume follows the same permutation.
    tracer / registry:
        Observability; default to the store's.
    crash_after / crash_at_window:
        Testing hooks, see :data:`REBUILD_CRASH_POINTS`.  The window
        index refers to the *visit order*, not the natural index.
    """

    span_name = "rebuild"
    apply_point = "reconstruct"

    def __init__(
        self,
        store,
        failed_disk: int,
        *,
        journal: MigrationJournal | str | Path,
        cache=None,
        throttle: RepairThrottle | None = None,
        unit_rows: int = 4,
        heat: dict[int, float] | None = None,
        tracer: Tracer | None = None,
        registry=None,
        crash_after: str | None = None,
        crash_at_window: int = 0,
        max_barren_rounds: int = 3,
        _resume_committed: set[int] | None = None,
        _resume_order: list[int] | None = None,
        _resume_rows: int | None = None,
        _resume_staged: str | None = None,
    ) -> None:
        super().__init__(
            journal,
            tracer=tracer if tracer is not None else getattr(store, "tracer", NULL_TRACER),
            throttle=throttle,
            crash_after=crash_after,
            crash_at_window=crash_at_window,
        )
        if unit_rows <= 0:
            raise ValueError(f"unit_rows must be > 0, got {unit_rows}")
        if max_barren_rounds < 1:
            raise ValueError(
                f"max_barren_rounds must be >= 1, got {max_barren_rounds}"
            )
        if not 0 <= failed_disk < len(store.array):
            raise ValueError(f"disk {failed_disk} out of range")
        self.store = store
        self.failed_disk = failed_disk
        self.span_attrs = {"disk": failed_disk}
        self.cache = cache
        self.unit_rows = unit_rows
        self.registry = registry if registry is not None else getattr(store, "registry", None)
        self.max_barren_rounds = max_barren_rounds

        # What each stage record holds, persisted in the WAL context so a
        # resume replays it the same way:
        #   "row-data"      — the k verified data payloads of every row
        #                     (lost elements re-derived at apply time);
        #   "lost-elements" — only the reconstructed lost payloads, fetched
        #                     through the minimum-transfer repair planner.
        # Topology-attached stores default to lost-elements so rebuild
        # traffic follows the same rack-aware plans as degraded reads.
        if _resume_staged is not None:
            if _resume_staged not in ("row-data", "lost-elements"):
                raise RecoveryError(
                    f"unknown staged payload mode {_resume_staged!r} in journal"
                )
            self.staged_mode = _resume_staged
        else:
            self.staged_mode = (
                "lost-elements"
                if getattr(store, "topology", None) is not None
                else "row-data"
            )

        # a resume rebuilds the journal's *planned* rows: rows appended
        # after the plan record landed on a live (bound-spare) array and
        # never need reconstruction, and recomputing the window count
        # from a grown store would break the persisted order permutation.
        self.rows = store.rows_written if _resume_rows is None else _resume_rows
        self.num_windows = -(-self.rows // unit_rows) if self.rows else 0
        if _resume_order is not None:
            self.order = list(_resume_order)
        else:
            self.order = self._heat_order(heat)
        if sorted(self.order) != list(range(self.num_windows)):
            raise RecoveryError(
                f"window order {self.order} is not a permutation of "
                f"0..{self.num_windows - 1}"
            )

        self._parked: set[int] = set()
        self.rows_rebuilt = 0
        self.elements_rebuilt = 0
        self.bytes_repaired = 0
        self.write_intents = 0
        self.parked_events = 0
        self.spare_down_events = 0
        self.retry_rounds = 0
        self.resumes = 0
        self.cache_invalidations = 0
        self._barren_rounds = 0
        self._round_progress = 1  # allow the first retry round

        if _resume_committed is None:
            if not store.array[failed_disk].failed:
                raise RecoveryError(
                    f"disk {failed_disk} has not failed; nothing to rebuild"
                )
            self._write_plan(self._context(), RecoveryError)
            # bind the spare: the bay comes back alive and empty, so
            # degraded reads can self-heal not-yet-rebuilt slots from here
            store.array[failed_disk].restore(wipe=True)
        else:
            self.done.update(_resume_committed)

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def _heat_order(self, heat: dict[int, float] | None) -> list[int]:
        windows = list(range(self.num_windows))
        if not heat:
            return windows
        def score(w: int) -> float:
            return sum(heat.get(r, 0.0) for r in self._window_rows(w))
        return sorted(windows, key=lambda w: (-score(w), w))

    def _window_rows(self, window: int) -> range:
        start = window * self.unit_rows
        return range(start, min(self.rows, start + self.unit_rows))

    def _window_cost(self, window: int) -> int:
        """Physical element operations: ``k`` reads + lost writes per row
        (repairs on faulted rows cost extra, deliberately not pre-charged)."""
        k, n = self.store.code.k, self.store.code.n
        per_row = k + max(1, n - k)  # >= 1 lost element per row, all forms
        return len(self._window_rows(window)) * per_row

    def _context(self) -> dict:
        return {
            "kind": JOURNAL_KIND,
            "failed_disk": self.failed_disk,
            "rows": self.rows,
            "unit_rows": self.unit_rows,
            "windows": self.num_windows,
            "element_size": self.store.element_size,
            "order": list(self.order),
            "staged": self.staged_mode,
        }

    def _lost_elements(self, row: int) -> list[int]:
        """Element indices of ``row`` living on the rebuilt disk, ascending."""
        placement = self.store.placement
        return [
            e
            for e in range(self.store.code.n)
            if placement.locate_row_element(row, e).disk == self.failed_disk
        ]

    # ------------------------------------------------------------------
    # progress
    # ------------------------------------------------------------------
    @property
    def windows_committed(self) -> int:
        return len(self.done)

    @property
    def parked_windows(self) -> list[int]:
        """Windows currently parked as temporarily unreadable."""
        return sorted(self._parked)

    def parked_rows(self) -> list[int]:
        """Candidate rows covered by parked windows, ascending."""
        return sorted(r for w in self._parked for r in self._window_rows(w))

    # ------------------------------------------------------------------
    # the rebuild loop
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run one throttled quantum; returns True while work remains.

        Deposits the throttle's tokens; if the bucket covers the next
        window's cost, rebuilds it (stage -> reconstruct -> commit ->
        invalidate), else records a stall.  A window whose stripes are
        temporarily undecodable (overlapping failure) parks and is
        retried after the rest of the schedule — repeated barren retry
        rounds raise :class:`DataLossError`.
        """
        if self.complete:
            return False
        window = self._next_window(self._parked)
        if window is None:
            # everything left is parked: begin a retry round
            if self._round_progress == 0:
                self._barren_rounds += 1
                if self._barren_rounds >= self.max_barren_rounds:
                    rows = self.parked_rows()
                    if self.store.array[self.failed_disk].failed:
                        # the bound spare is the thing that is dead — the
                        # parked rows stay reconstructible; this executor
                        # just cannot land them anywhere
                        raise SpareFailedError(
                            f"disk {self.failed_disk}: bound spare died "
                            f"mid-rebuild and stayed dead for "
                            f"{self._barren_rounds} retry rounds; "
                            f"{len(rows)} rows pending — bind a fresh spare"
                        )
                    raise DataLossError(
                        f"disk {self.failed_disk}: rows {rows} unrecoverable "
                        f"after {self._barren_rounds} barren retry rounds "
                        f"(failed disks now: {self.store.array.failed_disks})",
                        rows,
                    )
            else:
                self._barren_rounds = 0
            self._round_progress = 0
            self.retry_rounds += 1
            self._parked.clear()
            window = self._next_window(self._parked)
            assert window is not None
        if not self._pay(self._window_cost(window)):
            return True
        try:
            self.run_window(window)
            self._round_progress += 1
        except (DecodeFailure, _SpareDown):
            self._parked.add(window)
            self.parked_events += 1
        return not self.complete

    def run(self, max_steps: int | None = None) -> int:
        """Drive :meth:`step` until complete; returns steps taken.

        Raises :class:`DataLossError` if parked windows stop converging.
        ``max_steps`` bounds the loop (RuntimeError on overrun) so a
        misconfigured throttle cannot spin forever.
        """
        steps = 0
        while True:
            steps += 1
            if not self.step():
                return steps
            if max_steps is not None and steps >= max_steps:
                raise RecoveryError(
                    f"rebuild of disk {self.failed_disk} incomplete after "
                    f"{steps} steps ({self.windows_committed}/{self.num_windows}"
                    " windows)"
                )

    # ------------------------------------------------------------------
    # executor hooks
    # ------------------------------------------------------------------
    def _fetch(self, window: int, rows) -> list[list[bytes]]:
        # verified payloads (faulted elements repaired on the way; a
        # not-yet-rebuilt slot on the spare self-heals here).  In
        # lost-elements mode only the reconstructed targets are staged,
        # fetched through the min-transfer repair planner.
        if self.staged_mode == "lost-elements":
            payloads = []
            for row in rows:
                repaired = self.store.fetch_repair_payloads(
                    row, self._lost_elements(row)
                )
                payloads.append([repaired[e] for e in sorted(repaired)])
        else:
            payloads = [self.store.fetch_row_data(row) for row in rows]
        if self.store.array[self.failed_disk].failed:
            # the bound spare died during the fetches.  Faults fire on
            # batch entry and writes never tick the clock, so checking
            # here — after the last fetch, before the stage record — is
            # race-free: a window that does get staged is guaranteed an
            # up spare for every put, keeping put_element's dropped-write
            # intent path out of the rebuild entirely and the WAL free of
            # a second uncommitted stage.
            self.spare_down_events += 1
            raise _SpareDown(window)
        return payloads

    def _apply_row(self, row: int, payloads) -> None:
        """Reconstruct the row's lost elements on the spare."""
        lost = self._lost_elements(row)
        if not lost:
            return
        k, s = self.store.code.k, self.store.element_size
        if self.staged_mode == "lost-elements":
            # the staged record *is* the lost payloads, in lost order
            targets = list(zip(lost, payloads))
        else:
            data = np.stack([np.frombuffer(p, dtype=np.uint8) for p in payloads])
            parity = (
                self.store.code.encode(data) if any(e >= k for e in lost) else None
            )
            targets = [(e, data[e] if e < k else parity[e - k]) for e in lost]
        placement = self.store.placement
        for e, payload in targets:
            addr = placement.locate_row_element(row, e)
            if self.store.put_element(addr, payload):
                self.bytes_repaired += s
            else:
                self.write_intents += 1
            self.elements_rebuilt += 1
        self.rows_rebuilt += 1

    def _on_commit(self, window: int, rows) -> None:
        if self.cache is not None:
            k = self.store.code.k
            self.cache_invalidations += self.cache.invalidate_elements(
                rows[0] * k, (rows[-1] + 1) * k, placement=self.store.placement
            )

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def stats_snapshot(self) -> dict:
        """Nested-dict view for the ``recovery.rebuild.*`` namespace."""
        return {
            "rebuild": {
                "failed_disk": self.failed_disk,
                "windows_committed": self.windows_committed,
                "windows_total": self.num_windows,
                "progress_ratio": self.progress_ratio,
                "rows_rebuilt": self.rows_rebuilt,
                "elements_rebuilt": self.elements_rebuilt,
                "bytes_repaired": self.bytes_repaired,
                "bytes_staged": self.bytes_staged,
                "write_intents": self.write_intents,
                "parked_windows": self.parked_windows,
                "parked_events": self.parked_events,
                "spare_down_events": self.spare_down_events,
                "retry_rounds": self.retry_rounds,
                "resumes": self.resumes,
                "cache_invalidations": self.cache_invalidations,
                "complete": int(self.complete),
            }
        }


def resume_disk_rebuild(
    store,
    journal: MigrationJournal | str | Path,
    *,
    cache=None,
    throttle: RepairThrottle | None = None,
    tracer: Tracer | None = None,
    registry=None,
    crash_after: str | None = None,
    crash_at_window: int = 0,
) -> DiskRebuild:
    """Recover a crashed disk rebuild from its journal.

    Trusts committed windows, replays the pending window before
    returning, and returns a :class:`DiskRebuild` ready to
    :meth:`~DiskRebuild.step` / :meth:`~DiskRebuild.run` the rest.  Also
    re-binds the spare if the crash left the disk failed (a crash
    *between* confirmation and binding).
    """
    journal, state = open_journal(journal, JOURNAL_KIND, RecoveryError, store)
    ctx = state.context
    failed_disk = int(ctx["failed_disk"])
    if store.array[failed_disk].failed:
        store.array[failed_disk].restore(wipe=True)
    rb = DiskRebuild(
        store,
        failed_disk,
        journal=journal,
        cache=cache,
        throttle=throttle,
        unit_rows=int(ctx["unit_rows"]),
        tracer=tracer,
        registry=registry,
        crash_after=crash_after,
        crash_at_window=crash_at_window,
        _resume_committed=set(state.committed),
        _resume_order=[int(w) for w in ctx["order"]],
        _resume_rows=int(ctx["rows"]),
        _resume_staged=str(ctx.get("staged", "row-data")),
    )
    if rb.num_windows != ctx["windows"]:
        raise RecoveryError(
            "rebuilt schedule geometry disagrees with the journal's plan record"
        )
    rb.resumes += 1
    if cache is not None:
        # entries for windows whose commit landed but whose invalidation
        # did not must go; resume is rare, sweep the whole planned range.
        rb.cache_invalidations += cache.invalidate_elements(
            0, ctx["rows"] * store.code.k, placement=store.placement
        )
    if state.pending is not None:
        rb.replay(state.pending)
    return rb


class RecoveryOrchestrator:
    """Autonomous supervisor: detect failures, bind spares, rebuild online.

    Parameters
    ----------
    store:
        The live store whose array is supervised.
    journal_dir:
        Directory for rebuild WALs (one journal per rebuild attempt).
    spares:
        :class:`SparePool` or an int inventory size (default 1).
    detector:
        :class:`FailureDetector` to drive; built over the store's array
        (with ``detector_config``) when omitted.
    throttle:
        Shared :class:`RepairThrottle` for every rebuild (default: a
        fresh one with stock knobs).
    cache / tracer / registry:
        Passed to each :class:`DiskRebuild`; registry also receives the
        ``recovery`` namespace collector and the foreground-impact
        histogram.
    unit_rows / heat / steps_per_tick:
        Rebuild granularity, heal-priority map, and how many throttled
        rebuild quanta one :meth:`tick` runs.
    """

    def __init__(
        self,
        store,
        *,
        journal_dir: str | Path,
        spares: SparePool | int = 1,
        detector: FailureDetector | None = None,
        detector_config: DetectorConfig | None = None,
        straggler=None,
        throttle: RepairThrottle | None = None,
        cache=None,
        tracer: Tracer | None = None,
        registry=None,
        unit_rows: int = 4,
        heat: dict[int, float] | None = None,
        steps_per_tick: int = 1,
    ) -> None:
        if steps_per_tick < 1:
            raise ValueError(f"steps_per_tick must be >= 1, got {steps_per_tick}")
        self.store = store
        self.journal_dir = Path(journal_dir)
        self.journal_dir.mkdir(parents=True, exist_ok=True)
        self.spares = spares if isinstance(spares, SparePool) else SparePool(spares)
        self.detector = detector or FailureDetector(
            store.array, straggler=straggler, config=detector_config
        )
        self.throttle = throttle if throttle is not None else RepairThrottle()
        self.cache = cache
        self.tracer = tracer if tracer is not None else getattr(store, "tracer", NULL_TRACER)
        self.registry = registry if registry is not None else getattr(store, "registry", None)
        self.unit_rows = unit_rows
        self.heat = heat
        self.steps_per_tick = steps_per_tick

        self.active: DiskRebuild | None = None
        self._active_disk: int | None = None
        self._active_journal: Path | None = None
        self._queue: list[int] = []
        self._journal_seq = 0

        self.ticks = 0
        self.rebuilds_started = 0
        self.rebuilds_completed = 0
        self.rebuilds_abandoned = 0
        self.spare_waits = 0
        self.data_loss_events = 0
        self._impact_hist = None
        if self.registry is not None:
            self.registry.register_collector("recovery", self.stats_snapshot)
            self.detector.register_metrics(self.registry)
            self._impact_hist = self.registry.histogram(
                "recovery.foreground_impact_ratio"
            )

    # ------------------------------------------------------------------
    @property
    def rebuilding_disk(self) -> int | None:
        """Disk currently under rebuild, or None when idle."""
        return self._active_disk

    @property
    def queued_disks(self) -> list[int]:
        """Confirmed failures awaiting a rebuild slot or a spare."""
        return list(self._queue)

    @property
    def idle(self) -> bool:
        """True when nothing is rebuilding, queued, or pending confirmation."""
        return (
            self.active is None
            and not self._queue
            and not self.detector.pending_failures()
        )

    # ------------------------------------------------------------------
    # the supervision loop
    # ------------------------------------------------------------------
    def tick(self) -> bool:
        """One supervision heartbeat; returns True while work remains.

        Polls the detector, enqueues newly confirmed failures, starts the
        next rebuild when idle (skipping it gracefully while the spare
        pool is dry), and runs ``steps_per_tick`` throttled rebuild
        quanta.  :class:`DataLossError` from a stuck rebuild propagates
        after being counted — losing data silently is not an option.
        """
        self.ticks += 1
        for disk in self.detector.poll():
            if disk != self._active_disk and disk not in self._queue:
                self._queue.append(disk)
        if self.active is None and self._queue:
            self._start_next()
        if self.active is not None:
            for _ in range(self.steps_per_tick):
                try:
                    more = self.active.step()
                except SpareFailedError:
                    # the bound spare died mid-rebuild: abandon, re-queue
                    # the disk, and let the next tick bind a fresh spare
                    # (or stay degraded-but-live if the pool is dry)
                    self._abandon_active()
                    break
                except DataLossError:
                    self.data_loss_events += 1
                    raise
                if not more:
                    self._finish_active()
                    break
        return not self.idle

    def run_until_idle(self, max_ticks: int = 10_000) -> int:
        """Tick until the plane is idle; returns ticks taken.

        Stops early (without raising) if the only remaining work is
        queued disks with no spare to bind — the system stays degraded
        but live, which is the contract.
        """
        ticks = 0
        while ticks < max_ticks:
            ticks += 1
            if not self.tick():
                return ticks
            if (
                self.active is None
                and self._queue
                and self.spares.available <= 0
            ):
                return ticks  # degraded steady-state: out of spares
        raise RecoveryError(
            f"recovery plane still busy after {max_ticks} ticks "
            f"(active={self._active_disk}, queue={self._queue})"
        )

    def _start_next(self) -> None:
        disk = self._queue[0]
        if not self.store.array[disk].failed:
            # restored out from under us after confirmation (flap past
            # the damping window): contents are intact, no rebuild needed
            self._queue.pop(0)
            self.detector.mark_healthy(disk)
            return
        try:
            self.spares.bind(disk)
        except SpareExhaustedError:
            self.spare_waits += 1
            return  # stay degraded; retried every tick
        self._journal_seq += 1
        journal_path = self.journal_dir / f"rebuild-d{disk}-{self._journal_seq}.wal"
        self.active = DiskRebuild(
            self.store,
            disk,
            journal=journal_path,
            cache=self.cache,
            throttle=self.throttle,
            unit_rows=self.unit_rows,
            heat=self.heat,
            tracer=self.tracer,
            registry=self.registry,
        )
        self._active_disk = disk
        self._active_journal = journal_path
        self._queue.pop(0)
        self.detector.mark_rebuilding(disk)
        self.rebuilds_started += 1
        if self.active.complete:  # empty store: nothing to rebuild
            self._finish_active()

    def _finish_active(self) -> None:
        assert self._active_disk is not None and self.active is not None
        disk = self._active_disk
        if self.store.array[disk].failed or self.active.write_intents > 0:
            # every window committed, but the disk is not actually whole:
            # the spare died (or dropped writes) in a gap the executor's
            # own checks could not see.  Declaring this disk healthy
            # would silently leave redundancy unrestored.
            self._abandon_active()
            return
        # the spare is now permanently installed as the disk: unbind it
        # without refunding the shelf, so a later failure of the same bay
        # can bind a fresh spare instead of tripping over a stale binding
        self.spares.complete(disk)
        self.detector.mark_healthy(disk)
        self.rebuilds_completed += 1
        self.active = None
        self._active_disk = None
        self._active_journal = None

    def _abandon_active(self) -> None:
        """Give up on the in-flight rebuild: its bound spare is dead.

        The dead spare stays consumed (:meth:`SparePool.complete` — the
        drive is gone either way), the detector returns the disk to
        ``failed``, and the disk re-queues at the front so the next tick
        retries with a fresh spare; with the pool dry the system stays
        degraded-but-live, which is the contract.  The abandoned WAL is
        left behind — the next attempt opens a new journal sequence.
        """
        assert self._active_disk is not None
        disk = self._active_disk
        self.spares.complete(disk)
        self.detector.mark_failed(disk)
        self._queue.insert(0, disk)
        self.rebuilds_abandoned += 1
        self.active = None
        self._active_disk = None
        self._active_journal = None

    def resume_active(self) -> DiskRebuild:
        """Recover the in-flight rebuild after a :class:`RecoveryCrash`.

        Re-opens the active journal through :func:`resume_disk_rebuild`
        (replaying the pending window) and re-installs the executor, so
        the next :meth:`tick` continues where the crash hit.
        """
        if self._active_journal is None or self._active_disk is None:
            raise RecoveryError("no crashed rebuild to resume")
        self.active = resume_disk_rebuild(
            self.store,
            self._active_journal,
            cache=self.cache,
            throttle=self.throttle,
            tracer=self.tracer,
            registry=self.registry,
        )
        return self.active

    # ------------------------------------------------------------------
    # repair QoS feedback
    # ------------------------------------------------------------------
    def observe_foreground(self, p99_s: float, clean_p99_s: float) -> float:
        """Report a foreground-tail sample into the throttle's AIMD loop.

        Returns the observed p99 ratio; also lands in the
        ``recovery.foreground_impact_ratio`` histogram.
        """
        ratio = self.throttle.observe_foreground(p99_s, clean_p99_s)
        if self._impact_hist is not None:
            self._impact_hist.observe(ratio)
        return ratio

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def stats_snapshot(self) -> dict:
        """The orchestrator's share of the ``recovery.*`` namespace."""
        out = {
            "ticks": self.ticks,
            "rebuilds_started": self.rebuilds_started,
            "rebuilds_completed": self.rebuilds_completed,
            "rebuilds_abandoned": self.rebuilds_abandoned,
            "spare_waits": self.spare_waits,
            "data_loss_events": self.data_loss_events,
            "rebuilding_disk": self._active_disk,
            "queued_disks": list(self._queue),
            "spares": self.spares.stats_snapshot(),
            "throttle": self.throttle.stats_snapshot(),
        }
        if self.active is not None:
            out.update(self.active.stats_snapshot())
        return out
