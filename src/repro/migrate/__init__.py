"""Online layout migration: convert live volumes between placement forms.

The paper frames EC-FRM as a layout *transformation* (Eq. (1)-(4),
Lemma 1); this subsystem makes the transformation executable on a volume
that already holds data, without taking reads offline:

* :mod:`~repro.migrate.plan` — the move schedule: windowed, closure- and
  Lemma-1-verified before a single byte moves;
* :mod:`~repro.migrate.router` — a dual-layout placement that resolves
  every element to its current physical address mid-migration;
* :mod:`~repro.migrate.journal` — the write-ahead log's record format
  (plan, stage, commit, checkpoint);
* :mod:`~repro.migrate.transfer` — the windowed-transfer executor: the
  one stage → apply → commit loop, its crash points and its replay,
  shared with disk rebuild, cluster rebalance and shard drain;
* :mod:`~repro.migrate.mover` — the migrator's hooks on that executor:
  routing flips, plan-cache invalidation and Lemma-1 checkpoints.

Typical use::

    mig = Migrator(store, "ec-frm", journal="migration.jsonl",
                   cache=service.cache, budget_per_step=200)
    while mig.step():
        ...   # foreground reads interleave here
    # after a crash:
    mig = resume_migration(store, "migration.jsonl", cache=service.cache)
    mig.run()
"""

from .journal import JournalError, JournalState, MigrationJournal, PendingStage
from .mover import CRASH_POINTS, MigrationCrash, Migrator, resume_migration
from .plan import MigrationPlan, MigrationPlanError, natural_unit_rows, plan_migration
from .router import MigrationError, MigrationRouter, RouterCounters

__all__ = [
    "CRASH_POINTS",
    "JournalError",
    "JournalState",
    "MigrationCrash",
    "MigrationError",
    "MigrationJournal",
    "MigrationPlan",
    "MigrationPlanError",
    "MigrationRouter",
    "Migrator",
    "PendingStage",
    "RouterCounters",
    "natural_unit_rows",
    "plan_migration",
    "resume_migration",
]
