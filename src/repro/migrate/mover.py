"""The migration engine: :class:`Migrator` and :func:`resume_migration`.

:class:`Migrator` converts a live :class:`~repro.store.blockstore.
BlockStore` from its current placement to a target placement window by
window, while the store keeps serving byte-correct reads.  It runs on
the :mod:`~repro.migrate.transfer` executor and adds these hooks:

* **routing** — the store's placement is swapped to a
  :class:`~repro.migrate.router.MigrationRouter` up front, so every read
  resolves each element's *current* physical address, and each commit
  flips its window to the target side.  Reads interleave *between*
  :meth:`Migrator.step` calls, never inside one, so a window apply is
  atomic to them;
* **apply** — the fetch reads verified data payloads through the
  router's source side; the apply re-encodes parity from them
  (deterministic, so parity is not journaled) and rewrites all ``n``
  elements of each row at their target addresses;
* **cache** — each commit drops the plan-cache entries covering the
  window: the rewritten slots carry fresh checksums, so a stale plan
  would fetch bytes that *pass* verification yet belong to a different
  element;
* **checkpoints** — every ``checkpoint_every`` commits, and after the
  last, a checkpoint record journals the Lemma-1 invariant checked
  under the current routing.

``budget_per_step`` builds a :class:`~repro.recovery.throttle.
RepairThrottle`; a window costs ``rows × (k reads + n writes)`` element
operations.  All I/O flows through ``DiskArray.execute_batch`` /
``write_slot``, so migration work is charged to disk stats and ticks the
fault-injector clock like foreground traffic.  The crash points are
``"stage"``, ``"mid-write"`` and ``"commit"``.
"""

from __future__ import annotations

import numpy as np

from ..engine.plancache import PlanCache
from ..layout import Placement, make_placement
from ..obs import NULL_TRACER, MetricsRegistry, Tracer
from ..recovery.throttle import RepairThrottle
from .journal import MigrationJournal
from .plan import MigrationPlan, plan_migration
from .router import MigrationError, MigrationRouter
from .transfer import COMMIT, STAGE, TransferCrash, WindowedTransfer, open_journal

__all__ = ["MigrationCrash", "MigrationError", "Migrator", "resume_migration"]

#: valid ``crash_after`` hook points, in WAL order.
CRASH_POINTS = (STAGE, "mid-write", COMMIT)

#: a simulated crash of the migrator (the executor's one crash type).
MigrationCrash = TransferCrash


class Migrator(WindowedTransfer):
    """Online layout migration of one store, driven by :meth:`step`.

    Parameters
    ----------
    store:
        The live store to migrate.  Its current placement becomes the
        migration source; it must not already be mid-migration.
    target:
        Target form name (``standard`` / ``rotated`` / ``ec-frm``) or a
        ready-made placement built for the store's code.
    journal:
        Journal (or path) for crash-safe move records.  A fresh start
        requires a fresh journal; resuming goes through
        :func:`resume_migration`.
    cache:
        Plan cache serving reads over this store (e.g.
        ``ReadService.cache``); entries covering each migrated window are
        invalidated at commit.  ``None`` if no cache is in play.
    registry:
        Metrics registry; when given, a ``migration`` namespace collector
        is registered.  Defaults to the store's registry.
    tracer:
        Span tracer (``migrate`` spans).  Defaults to the store's tracer.
    budget_per_step:
        Token-bucket deposit per :meth:`step`, in physical element
        operations, paid through a :class:`~repro.recovery.throttle.
        RepairThrottle` (:attr:`throttle`).  ``None`` means unthrottled
        (a window per step).
    checkpoint_every:
        Commit count between journal checkpoints (the final commit always
        checkpoints).  Each checkpoint verifies the Lemma-1 invariant
        under the current routing and records the result.
    crash_after / crash_at_window:
        Testing hooks, see module docstring.
    """

    span_name = "migrate"
    apply_point = "mid-write"

    def __init__(
        self,
        store,
        target: str | Placement = "ec-frm",
        *,
        journal: MigrationJournal | str,
        cache: PlanCache | None = None,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        budget_per_step: int | None = None,
        checkpoint_every: int = 4,
        crash_after: str | None = None,
        crash_at_window: int = 0,
        context_extra: dict | None = None,
        _resume_committed: set[int] | None = None,
    ) -> None:
        if isinstance(store.placement, MigrationRouter):
            raise MigrationError(
                "store is already mid-migration; use resume_migration()"
            )
        super().__init__(
            journal,
            tracer=tracer if tracer is not None else getattr(store, "tracer", NULL_TRACER),
            crash_after=crash_after,
            crash_at_window=crash_at_window,
        )
        if checkpoint_every <= 0:
            raise ValueError(f"checkpoint_every must be > 0, got {checkpoint_every}")
        self.store = store
        self.source = store.placement
        self.target = (
            target
            if isinstance(target, Placement)
            else make_placement(target, store.code)
        )
        if self.target.code is not store.code:
            raise MigrationError("target placement was built for a different code")
        self.cache = cache
        self.registry = registry if registry is not None else getattr(store, "registry", None)
        self.budget_per_step = budget_per_step
        self.checkpoint_every = checkpoint_every
        self.context_extra = dict(context_extra or {})

        self.plan: MigrationPlan = plan_migration(
            self.source, self.target, store.rows_written
        )
        self.order = range(self.plan.num_windows)
        self.router = MigrationRouter(
            self.source,
            self.target,
            unit_rows=self.plan.unit_rows,
            planned_rows=self.plan.rows,
        )
        if budget_per_step is not None:
            # a burst bound one deposit above the dearest (full) window
            # never caps the bucket: every step pays as it deposits
            full = self.plan.unit_rows * (store.code.k + store.code.n)
            self.throttle = RepairThrottle(
                budget_per_step, min_budget=budget_per_step, max_budget=budget_per_step + full
            )

        self.rows_moved = 0
        self.elements_moved = 0
        self.bytes_moved = 0
        self.resumes = 0
        self.write_intents = 0
        self.cache_invalidations = 0
        self.checkpoints = 0
        self.invariant_ok = True
        self._finalized = False

        if _resume_committed is None:
            self._write_plan(self._context(), MigrationError)
        else:
            self.done.update(_resume_committed)
            for w in sorted(_resume_committed):
                self.router.mark_migrated(w)
                self.rows_moved += len(self.plan.window_rows(w))

        # route reads through the migration table from here on
        store.placement = self.router
        if self.registry is not None:
            self.registry.register_collector("migration", self.stats_snapshot)

    # ------------------------------------------------------------------
    # progress
    # ------------------------------------------------------------------
    @property
    def windows_done(self) -> int:
        """Committed window count."""
        return len(self.done)

    @property
    def throttle_stalls(self) -> int:
        """Steps the throttle refused (0 when unthrottled)."""
        return self.throttle.stalls if self.throttle is not None else 0

    def _context(self) -> dict:
        """Plan context persisted in the journal's first record.

        ``context_extra`` rides along (e.g. the CLI stores its code spec
        and data seed so ``migrate resume`` can rebuild the store)."""
        return {
            "source": self.source.name,
            "target": self.target.name,
            "code": self.store.code.describe(),
            "rows": self.plan.rows,
            "unit_rows": self.plan.unit_rows,
            "windows": self.plan.num_windows,
            "element_size": self.store.element_size,
            **self.context_extra,
        }

    def _window_cost(self, window: int) -> int:
        """Physical element operations one window costs: ``k`` reads plus
        ``n`` writes per row (repairs on faulted rows cost extra, which
        the throttle deliberately does not pre-charge)."""
        rows = self.plan.window_rows(window)
        return len(rows) * (self.store.code.k + self.store.code.n)

    # ------------------------------------------------------------------
    # the move loop
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run one throttled quantum; returns True while work remains.

        Deposits ``budget_per_step`` tokens; if the bucket covers the next
        window's cost, migrates it, else records a throttle stall.
        Foreground reads interleave between steps.
        """
        if self.complete:
            self._finalize()
            return False
        window = self._next_window()
        assert window is not None
        if not self._pay(self._window_cost(window)):
            return True
        self.run_window(window)
        if self.complete:
            self._finalize()
        return not self.complete

    def run(self) -> int:
        """Drive :meth:`step` to completion; returns steps taken."""
        steps = 0
        while True:
            steps += 1
            if not self.step():
                return steps

    # ------------------------------------------------------------------
    # executor hooks
    # ------------------------------------------------------------------
    def _window_rows(self, window: int) -> range:
        return self.plan.window_rows(window)

    def _fetch(self, window: int, rows) -> list[list[bytes]]:
        # verified data payloads via the router's source side, repairing
        # faulted elements through the normal machinery
        return [self.store.fetch_row_data(row) for row in rows]

    def _apply_row(self, row: int, payloads) -> None:
        """Re-encode parity and rewrite the row at its target addresses."""
        k, n, s = self.store.code.k, self.store.code.n, self.store.element_size
        data = np.stack([np.frombuffer(p, dtype=np.uint8) for p in payloads])
        parity = self.store.code.encode(data)
        for e in range(n):
            addr = self.target.locate_row_element(row, e)
            payload = data[e] if e < k else parity[e - k]
            if not self.store.put_element(addr, payload):
                self.write_intents += 1
            self.elements_moved += 1
            self.bytes_moved += s
        self.rows_moved += 1

    def _on_commit(self, window: int, rows) -> None:
        """Flip routing to the target side and drop stale cached plans."""
        self.router.mark_migrated(window)
        if self.cache is not None:
            k = self.store.code.k
            dropped = self.cache.invalidate_elements(
                rows[0] * k, (rows[-1] + 1) * k, placement=self.router
            )
            self.cache_invalidations += dropped
        if (
            self.windows_done % self.checkpoint_every == 0
            or self.complete
        ):
            self.checkpoint()

    # ------------------------------------------------------------------
    # finalization & observability
    # ------------------------------------------------------------------
    def _finalize(self) -> None:
        """Swap the store onto the native target placement once done.

        The router already routes every row (planned and beyond) to the
        target, so this is an identity change of addressing — it restores
        the native placement signature so post-migration stores are
        indistinguishable from natively created ones (plan-cache entries
        included).
        """
        if self._finalized:
            return
        if not self.router.verify_invariant():
            self.invariant_ok = False
            raise MigrationError(
                "post-migration invariant check failed; refusing to finalize"
            )
        self.store.placement = self.target
        self._finalized = True

    def checkpoint(self) -> dict:
        """Verify the Lemma-1 invariant under current routing and journal
        the result.  Returns the checkpoint payload."""
        ok = self.router.verify_invariant()
        self.invariant_ok = self.invariant_ok and ok
        payload = {
            "windows_done": self.windows_done,
            "windows_total": self.plan.num_windows,
            "progress": self.progress_ratio,
            "invariant_ok": ok,
            "rows_moved": self.rows_moved,
            "elements_moved": self.elements_moved,
        }
        self.journal.write_checkpoint(payload)
        self.checkpoints += 1
        if not ok:
            raise MigrationError(
                f"Lemma-1 invariant violated at window {self.windows_done}"
            )
        return payload

    def stats_snapshot(self) -> dict:
        """The ``migration.*`` metrics namespace."""
        routed = self.router.counters
        return {
            "windows_done": self.windows_done,
            "windows_total": self.plan.num_windows,
            "progress_ratio": self.progress_ratio,
            "rows_moved": self.rows_moved,
            "elements_moved": self.elements_moved,
            "bytes_moved": self.bytes_moved,
            "bytes_staged": self.bytes_staged,
            "throttle_stalls": self.throttle_stalls,
            "resumes": self.resumes,
            "write_intents": self.write_intents,
            "cache_invalidations": self.cache_invalidations,
            "checkpoints": self.checkpoints,
            "invariant_ok": int(self.invariant_ok),
            "routed_source": routed.routed_source,
            "routed_target": routed.routed_target,
            "bytes_forwarded": routed.routed_target * self.store.element_size,
            "complete": int(self.complete),
        }


def resume_migration(
    store,
    journal: MigrationJournal | str,
    *,
    cache: PlanCache | None = None,
    registry: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
    budget_per_step: int | None = None,
    checkpoint_every: int = 4,
    crash_after: str | None = None,
    crash_at_window: int = 0,
    restage: bool = False,
) -> Migrator:
    """Recover a crashed migration from its journal.

    Rebuilds the router from the journal's committed windows, replays the
    pending window before returning, and returns a :class:`Migrator`
    ready to :meth:`~Migrator.step`/:meth:`~Migrator.run` the rest.

    With ``restage=False`` (in-process recovery: the disks survived the
    crash), ``store`` must hold the partially migrated content the
    journal describes.  With ``restage=True`` (cross-process recovery:
    the CLI rebuilds a pristine *source-form* store from the recorded
    context), every committed window is re-applied from its staged
    payloads first, re-deriving the exact partially-migrated disk state
    the journal promises — possible because the journal is a complete
    WAL of every move.
    """
    journal, state = open_journal(journal, "migration", MigrationError, store)
    ctx = state.context
    if isinstance(store.placement, MigrationRouter):
        # crashed in-process: drop the dead router, recover from source
        store.placement = store.placement.source
    if store.placement.name != ctx["source"]:
        raise MigrationError(
            f"store placement {store.placement.name!r} does not match the "
            f"journal's source form {ctx['source']!r}"
        )
    mig = Migrator(
        store,
        ctx["target"],
        journal=journal,
        cache=cache,
        registry=registry,
        tracer=tracer,
        budget_per_step=budget_per_step,
        checkpoint_every=checkpoint_every,
        crash_after=crash_after,
        crash_at_window=crash_at_window,
        _resume_committed=set() if restage else state.committed,
    )
    if mig.plan.rows != ctx["rows"] or mig.plan.unit_rows != ctx["unit_rows"]:
        raise MigrationError(
            "rebuilt plan geometry disagrees with the journal's plan record"
        )
    mig.resumes += 1
    if restage:
        for w in sorted(state.committed):
            st = state.staged.get(w)
            if st is None:
                raise MigrationError(
                    f"window {w} committed but its stage record is missing; "
                    "journal is not a complete WAL"
                )
            mig._apply(w, st.rows, st.payloads, crash=False)
            mig.done.add(w)
            mig.router.mark_migrated(w)
    if cache is not None:
        # A cache that survived the "crash" (tests reuse the object; a real
        # restart would start cold) may hold entries for windows whose
        # commit record landed but whose invalidation did not.  Sweep the
        # whole planned range once — resume is rare, correctness is not.
        mig.cache_invalidations += cache.invalidate_elements(
            0, mig.plan.rows * store.code.k, placement=mig.router
        )
    if state.pending is not None:
        mig.replay(state.pending)
    elif not mig.complete:
        mig.checkpoint()
    if mig.complete:
        mig._finalize()
    return mig
