"""Stripe rebalancing when a shard joins the cluster.

Adding a shard to a hash-ring cluster remaps an expected ``1/(S+1)``
fraction of stripes — all of them onto the new shard (a consistent-
hashing property the tests pin).  The rebalancer moves exactly those
stripes: it fetches each stripe's verified data payloads from the source
shard, appends them to the new shard's store (parity is re-encoded there,
deterministically), and flips the cluster's stripe-location entry.

Reads stay byte-correct *throughout*: the cluster routes reads through
its stripe-location table, not the shard map, so a stripe serves from its
old shard until the instant its location entry flips — there is no window
where a read can chase a stripe that has not arrived yet.

Crash safety comes from the :mod:`~repro.migrate.transfer` executor,
one window per moved stripe; this module adds its hooks.  The apply
skips the append if the stripe's location entry already flipped (a crash
between apply and commit), since re-appending would duplicate the
stripe.  A single checkpoint record closes the run.
:meth:`~repro.cluster.service.ClusterService.resume_rebalance` replays
the pending window and carries on with the remaining moves.  The source
copy of a moved stripe is never deleted (shard stores are append-only);
it is tracked as garbage rows, the cluster's compaction debt.

Shard *failure* recovery rides the exact same mover: draining a failing
shard (:meth:`~repro.cluster.service.ClusterService.fail_shard`) is a
rebalance whose target map is :meth:`~repro.cluster.shardmap.ShardMap.
without_shard` — the moved set is the failed shard's stripes, the WAL
windows are identical, and ``verify=True`` additionally reads every
landed stripe back from its new shard and byte-compares it against the
moved payloads before its window commits (scrub-on-land), so recovery is
verified end to end and each survivor's recovery *reads* are accounted
on its own disks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..migrate.transfer import STAGE, TransferCrash, WindowedTransfer

if TYPE_CHECKING:  # pragma: no cover - layering: service imports this module
    from ..migrate.journal import MigrationJournal, PendingStage
    from .service import ClusterService

__all__ = [
    "RebalanceCrash",
    "RebalanceReport",
    "RecoveryVerifyError",
    "ShardRecoveryReport",
    "run_rebalance",
]


#: a simulated crash of a rebalance or drain (the executor's one crash type).
RebalanceCrash = TransferCrash


class RecoveryVerifyError(RuntimeError):
    """A recovered stripe's read-back diverged from the moved payloads."""


@dataclass(frozen=True)
class RebalanceReport:
    """Outcome of one ``add_shard`` rebalance (or its resume)."""

    new_shard: int
    stripes_total: int
    stripes_moved: int
    windows_committed: int
    resumed: bool = False

    @property
    def moved_fraction(self) -> float:
        """Fraction of all stripes that changed shards."""
        if self.stripes_total == 0:
            return 0.0
        return self.stripes_moved / self.stripes_total


@dataclass(frozen=True)
class ShardRecoveryReport:
    """Outcome of one ``fail_shard`` drain recovery (or its resume).

    Attributes
    ----------
    failed_shard:
        The drained shard.
    stripes_recovered:
        Stripes the failed shard owned (all of them re-hosted).
    windows_committed:
        WAL windows committed by this call (equals
        ``stripes_recovered`` on a clean run; fewer on a resumed one).
    spread:
        Surviving shard → stripes received, every survivor present
        (zero-receivers included) so the imbalance statistic is honest.
    recovery_makespan_s:
        Max per-*survivor* disk busy-time delta over the recovery —
        survivors work in parallel, so the hottest one gates completion.
        The map controls this: a balanced spread parallelizes evenly.
    source_drain_s:
        The failed shard's own busy-time delta (the map-independent
        cost of reading every stripe off the draining shard).
    """

    failed_shard: int
    stripes_recovered: int
    windows_committed: int
    spread: dict[int, int] = field(default_factory=dict)
    recovery_makespan_s: float = 0.0
    source_drain_s: float = 0.0
    resumed: bool = False

    @property
    def imbalance(self) -> float:
        """Max/mean stripes received across survivors (0.0 if none)."""
        if not self.spread:
            return 0.0
        mean = sum(self.spread.values()) / len(self.spread)
        return (max(self.spread.values()) / mean) if mean > 0 else 0.0

    @property
    def spread_bound(self) -> int:
        """Max − min stripes received across survivors."""
        if not self.spread:
            return 0
        return max(self.spread.values()) - min(self.spread.values())


class _StripeMoves(WindowedTransfer):
    """Window ``w`` moves stripe ``moved[w]`` to its shard under the
    cluster's current map."""

    def __init__(self, cluster, moved, journal, windows, crash_at, verify):
        super().__init__(
            journal,
            crash_after=None if crash_at is None else STAGE,
            crash_at_window=max(crash_at or 0, 0),
        )
        self.cluster = cluster
        self.moved = moved
        self.order = windows
        self.verify = verify

    def _window_rows(self, window: int) -> list[int]:
        return [self.moved[window]]

    def _fetch(self, window: int, rows) -> list[list[bytes]]:
        sid, row = self.cluster.locate_stripe(rows[0])
        return [self.cluster.volumes[sid].store.fetch_row_data(row)]

    def _apply_row(self, stripe: int, data_elems) -> None:
        cluster = self.cluster
        target = cluster.map.shard_of(stripe)
        # a replayed window may have landed before the crash: the flipped
        # location entry says so, and re-appending would duplicate it
        if cluster.locate_stripe(stripe)[0] != target:
            cluster.apply_move(stripe, target, data_elems)
        if self.verify:
            sid_now, row_now = cluster.locate_stripe(stripe)
            landed = cluster.volumes[sid_now].store.fetch_row_data(row_now)
            if landed != list(data_elems):
                raise RecoveryVerifyError(
                    f"stripe {stripe}: read-back on shard {sid_now} diverged "
                    "from the moved payloads"
                )


def run_rebalance(
    cluster: "ClusterService",
    moved: list[int],
    journal: "MigrationJournal | None",
    *,
    committed: set[int] | None = None,
    pending: "PendingStage | None" = None,
    crash_after_moves: int | None = None,
    verify: bool = False,
) -> int:
    """Move ``moved`` stripes to their new shards; returns windows committed.

    ``committed`` windows (from a journal replay) are skipped; ``pending``
    supplies the staged payloads of a window that crashed between stage
    and commit.  ``crash_after_moves`` raises :class:`RebalanceCrash`
    after that many moves have committed *and* the next window has been
    staged — the worst-case WAL crash point.  With ``verify`` (the
    recovery path), every moved stripe is read back from its new shard
    through the accounted read path and byte-compared against the moved
    payloads before its window commits.
    """
    committed = committed or set()
    windows = [w for w in range(len(moved)) if w not in committed]
    mover = _StripeMoves(cluster, moved, journal, windows, crash_after_moves, verify)
    for w in windows:
        if pending is not None and pending.window == w:
            mover.replay(pending)
        else:
            mover.run_window(w)
    if journal is not None:
        journal.write_checkpoint(
            {
                "windows_done": len(moved),
                "windows_total": len(moved),
                "stripes_total": cluster.stripes_written,
            }
        )
    return len(mover.done)
