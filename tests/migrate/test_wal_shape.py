"""The write-ahead-log shape of every windowed transfer, pinned.

Migration, disk rebuild (both staging modes), cluster rebalance and
shard drain all write the same JSONL record types through
:class:`~repro.migrate.MigrationJournal`.  This suite pins, per kind,
the exact record-type sequence of a clean run and of a crash at each
crash point followed by a resume, the plan-context keys, and the key
order of every record type — so a change to the transfer executor
cannot silently change what lands in the log (the per-kind checkpoint
cadence included: the migrator every ``checkpoint_every`` commits plus
the last, rebalance and drain once at the end, rebuild never).

Sequences use one letter per record: ``P`` plan, ``S`` stage,
``C`` commit, ``K`` checkpoint.
"""

import json

import numpy as np
import pytest

from repro.cluster import ClusterService, RebalanceCrash
from repro.codes import make_rs
from repro.migrate import (
    CRASH_POINTS,
    MigrationCrash,
    MigrationJournal,
    Migrator,
    resume_migration,
)
from repro.recovery import (
    REBUILD_CRASH_POINTS,
    DiskRebuild,
    RecoveryCrash,
    resume_disk_rebuild,
)
from repro.store import BlockStore

LETTER = {"plan": "P", "stage": "S", "commit": "C", "checkpoint": "K"}
STAGE_KEYS = ["type", "window", "rows", "data"]
COMMIT_KEYS = ["type", "window"]


def _store(form, rows, **kw):
    store = BlockStore(make_rs(3, 2), form, element_size=32, **kw)
    data = np.random.default_rng(7).integers(
        0, 256, size=rows * store.row_bytes, dtype=np.uint8
    ).tobytes()
    store.append(data)
    store.flush()
    return store


def _cluster():
    cluster = ClusterService(make_rs(4, 2), shards=3, element_size=64, map="d3")
    data = np.random.default_rng(7).integers(
        0, 256, size=12 * cluster.stripe_bytes, dtype=np.uint8
    ).tobytes()
    cluster.append(data)
    cluster.flush()
    return cluster


# ----------------------------------------------------------------------
# one runner per kind: run to completion, crashing once at ``crash``
# (then resuming) when it is given
# ----------------------------------------------------------------------
def _migration(path, crash):
    store = _store("standard", 11)  # three windows of 5, 5 and 1 rows
    mig = Migrator(
        store, "ec-frm", journal=path, crash_after=crash, crash_at_window=1
    )
    if crash is not None:
        with pytest.raises(MigrationCrash):
            mig.run()
        mig = resume_migration(store, path)
    mig.run()


def _rebuild(topology):
    def run(path, crash):
        store = _store("ec-frm", 8, topology=topology)
        store.array.fail_disk(1)
        rb = DiskRebuild(
            store, 1, journal=path, unit_rows=3,
            crash_after=crash, crash_at_window=1,
        )
        if crash is not None:
            with pytest.raises(RecoveryCrash):
                rb.run()
            rb = resume_disk_rebuild(store, path)
        rb.run()
    return run


def _cluster_run(start, resume):
    def run(path, crash):
        cluster = _cluster()
        journal = MigrationJournal(path)
        if crash is None:
            start(cluster, journal, None)
            return
        with pytest.raises(RebalanceCrash):
            start(cluster, journal, 1)
        resume(cluster, MigrationJournal(path))
    return run


_rebalance = _cluster_run(
    lambda c, j, n: c.add_shard(journal=j, crash_after_moves=n),
    lambda c, j: c.resume_rebalance(j),
)
_drain = _cluster_run(
    lambda c, j, n: c.fail_shard(1, journal=j, crash_after_moves=n),
    lambda c, j: c.resume_recovery(j),
)

MIGRATION_CHECKPOINT = [
    "type", "windows_done", "windows_total", "progress", "invariant_ok",
    "rows_moved", "elements_moved",
]
REBALANCE_CHECKPOINT = ["type", "windows_done", "windows_total", "stripes_total"]

#: kind -> (runner, crash points, plan-context keys, checkpoint keys,
#: clean sequence, {crash point: sequence after crash + resume + run})
CASES = {
    "migration": (
        _migration,
        CRASH_POINTS,
        ["source", "target", "code", "rows", "unit_rows", "windows",
         "element_size"],
        MIGRATION_CHECKPOINT,
        "PSCSCSCK",
        {"stage": "PSCSCSCK", "mid-write": "PSCSCSCK", "commit": "PSCSCKSCK"},
    ),
    "rebuild-row-data": (
        _rebuild(None),
        REBUILD_CRASH_POINTS,
        ["kind", "failed_disk", "rows", "unit_rows", "windows",
         "element_size", "order", "staged"],
        None,
        "PSCSCSC",
        {"stage": "PSCSCSC", "reconstruct": "PSCSCSC", "commit": "PSCSCSC"},
    ),
    "rebuild-lost-elements": (
        _rebuild("racks:5"),
        REBUILD_CRASH_POINTS,
        ["kind", "failed_disk", "rows", "unit_rows", "windows",
         "element_size", "order", "staged"],
        None,
        "PSCSCSC",
        {"stage": "PSCSCSC", "reconstruct": "PSCSCSC", "commit": "PSCSCSC"},
    ),
    "cluster-rebalance": (
        _rebalance,
        ("stage",),
        ["kind", "map", "from_shards", "to_shards", "stripes", "windows",
         "moved", "element_size"],
        REBALANCE_CHECKPOINT,
        "PSCSCSCK",
        {"stage": "PSCSCSCK"},
    ),
    "cluster-recovery": (
        _drain,
        ("stage",),
        ["kind", "map", "failed_shard", "to_shards", "stripes", "windows",
         "moved", "element_size"],
        REBALANCE_CHECKPOINT,
        "PSCSCSCSCK",
        {"stage": "PSCSCSCSCK"},
    ),
}


def _shape(path):
    records = [json.loads(line) for line in path.read_text().splitlines()]
    return "".join(LETTER[r["type"]] for r in records), records


def _check_records(records, kind, ctx_keys, checkpoint_keys):
    assert list(records[0]) == ["type", "context"]
    assert list(records[0]["context"]) == ctx_keys
    if "staged" in ctx_keys:
        mode = "lost-elements" if kind.endswith("lost-elements") else "row-data"
        assert records[0]["context"]["staged"] == mode
    expected = {"stage": STAGE_KEYS, "commit": COMMIT_KEYS,
                "checkpoint": checkpoint_keys}
    for r in records[1:]:
        assert list(r) == expected[r["type"]], r["type"]


@pytest.mark.parametrize("kind", sorted(CASES))
def test_clean_run_wal_shape(tmp_path, kind):
    run, _, ctx_keys, checkpoint_keys, clean, _ = CASES[kind]
    path = tmp_path / "wal.jsonl"
    run(path, None)
    sequence, records = _shape(path)
    assert sequence == clean
    _check_records(records, kind, ctx_keys, checkpoint_keys)


@pytest.mark.parametrize(
    "kind,point",
    [(kind, point) for kind in sorted(CASES) for point in CASES[kind][1]],
)
def test_crash_resume_wal_shape(tmp_path, kind, point):
    run, _, ctx_keys, checkpoint_keys, _, after_crash = CASES[kind]
    path = tmp_path / "wal.jsonl"
    run(path, point)
    sequence, records = _shape(path)
    assert sequence == after_crash[point]
    _check_records(records, kind, ctx_keys, checkpoint_keys)
