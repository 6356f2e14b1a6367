"""Migrator scenarios: online conversion, throttling, crash recovery,
faulted migration, cache interplay and finalization."""

import numpy as np
import pytest

from repro.codes import make_rs
from repro.engine import PlanCache, ReadService
from repro.layout import make_placement
from repro.layout.frm import FRMPlacement
from repro.migrate import (
    CRASH_POINTS,
    MigrationCrash,
    MigrationError,
    MigrationJournal,
    Migrator,
    resume_migration,
)
from repro.obs import MetricsRegistry, Tracer
from repro.recovery import DiskRebuild
from repro.store import BlockStore

ELEMENT_SIZE = 32
ROWS = 11  # deliberately not a multiple of the window unit (5)


def _build(form="standard", rows=ROWS, registry=None, tracer=None):
    code = make_rs(3, 2)  # n=5, ec-frm unit = 5 rows
    store = BlockStore(
        code, form, element_size=ELEMENT_SIZE, registry=registry, tracer=tracer
    )
    rng = np.random.default_rng(7)
    data = rng.integers(0, 256, size=rows * store.row_bytes, dtype=np.uint8).tobytes()
    store.append(data)
    return store, data


class TestHappyPath:
    def test_bytes_identical_at_every_step(self, tmp_path):
        store, data = _build()
        mig = Migrator(store, "ec-frm", journal=tmp_path / "j.jsonl")
        while True:
            assert store.read(0, store.user_bytes) == data
            if not mig.step():
                break
        assert store.read(0, store.user_bytes) == data
        assert mig.complete

    def test_finalized_store_is_native_target(self, tmp_path):
        store, data = _build()
        Migrator(store, "ec-frm", journal=tmp_path / "j.jsonl").run()
        assert isinstance(store.placement, FRMPlacement)
        # every element sits exactly where a native ec-frm store puts it
        native = make_placement("ec-frm", store.code)
        for row in range(store.rows_written):
            for e in range(store.code.n):
                assert store.placement.locate_row_element(row, e) == \
                    native.locate_row_element(row, e)

    def test_matches_natively_written_store_physically(self, tmp_path):
        store, data = _build()
        Migrator(store, "ec-frm", journal=tmp_path / "j.jsonl").run()
        native = BlockStore(make_rs(3, 2), "ec-frm", element_size=ELEMENT_SIZE)
        native.append(data)
        for row in range(store.rows_written):
            for e in range(store.code.n):
                addr = native.placement.locate_row_element(row, e)
                want = native.array[addr.disk].peek_slot(addr.slot)
                got = store.array[addr.disk].peek_slot(addr.slot)
                assert got == want, f"row {row} element {e} diverges"

    @pytest.mark.parametrize(
        "src,dst", [("rotated", "ec-frm"), ("ec-frm", "standard")]
    )
    def test_other_form_pairs(self, src, dst, tmp_path):
        store, data = _build(form=src)
        mig = Migrator(store, dst, journal=tmp_path / "j.jsonl")
        while mig.step():
            assert store.read(0, store.user_bytes) == data
        assert store.placement.name == dst
        assert store.read(0, store.user_bytes) == data

    def test_appends_work_after_completion(self, tmp_path):
        store, data = _build()
        Migrator(store, "ec-frm", journal=tmp_path / "j.jsonl").run()
        extra = bytes(range(96)) * (store.row_bytes // 96)
        store.append(extra)
        assert store.read(0, store.user_bytes) == data + extra

    def test_appends_frozen_during_migration(self, tmp_path):
        store, data = _build(rows=10)  # 2 full windows
        mig = Migrator(store, "ec-frm", journal=tmp_path / "j.jsonl")
        mig.step()  # one window committed, migration still active
        assert not mig.complete
        with pytest.raises(MigrationError, match="frozen"):
            store.append(b"\x01" * store.row_bytes)


class TestThrottle:
    def test_small_budget_stalls(self, tmp_path):
        store, data = _build()
        # a full window costs 5 * (3 + 5) = 40 ops; budget 15 needs
        # three deposits per window
        mig = Migrator(
            store, "ec-frm", journal=tmp_path / "j.jsonl", budget_per_step=15
        )
        steps = mig.run()
        assert mig.complete
        assert mig.throttle_stalls > 0
        assert steps > mig.plan.num_windows
        assert store.read(0, store.user_bytes) == data

    def test_unthrottled_one_window_per_step(self, tmp_path):
        store, _ = _build()
        mig = Migrator(store, "ec-frm", journal=tmp_path / "j.jsonl")
        assert mig.run() == mig.plan.num_windows
        assert mig.throttle_stalls == 0

    def test_invalid_budget_rejected(self, tmp_path):
        store, _ = _build()
        with pytest.raises(ValueError):
            Migrator(
                store, "ec-frm", journal=tmp_path / "j.jsonl", budget_per_step=0
            )


class TestPlanCacheInterplay:
    def test_warm_cache_stays_correct_through_migration(self, tmp_path):
        store, data = _build()
        svc = ReadService(store)
        # spans all three windows so interleaved reads re-cache entries
        # that later window commits must invalidate
        ranges = [(0, 200), (500, 300), (900, 156)]
        expected = [data[o : o + n] for o, n in ranges]
        assert svc.submit(ranges).payloads == expected  # warm the cache
        assert svc.submit(ranges).cache_hits == len(ranges)

        mig = Migrator(
            store, "ec-frm", journal=tmp_path / "j.jsonl", cache=svc.cache
        )
        while mig.step():
            assert svc.submit(ranges).payloads == expected
        assert svc.submit(ranges).payloads == expected
        assert mig.cache_invalidations > 0

    def test_invalidation_only_hits_overlapping_entries(self):
        store, _ = _build()
        cache = PlanCache()
        svc = ReadService(store, cache=cache)
        svc.read(0, 64)  # elements 0..1 (window 0)
        svc.read(9 * store.row_bytes, 64)  # row 9 -> window 1
        assert len(cache) == 2
        k = store.code.k
        dropped = cache.invalidate_elements(0, 5 * k, placement=store.placement)
        assert dropped == 1
        assert len(cache) == 1

    def test_invalidation_respects_placement_filter(self):
        store, _ = _build()
        other, _ = _build(form="ec-frm")
        cache = PlanCache()
        ReadService(store, cache=cache).read(0, 64)
        ReadService(other, cache=cache).read(0, 64)
        assert len(cache) == 2
        dropped = cache.invalidate_elements(
            0, 1000, placement=store.placement
        )
        assert dropped == 1  # the ec-frm store's entry survives


class TestCrashRecovery:
    @pytest.mark.parametrize("point", CRASH_POINTS)
    def test_crash_then_resume_converges(self, point, tmp_path):
        store, data = _build()
        journal = MigrationJournal(tmp_path / "j.jsonl")
        mig = Migrator(
            store,
            "ec-frm",
            journal=journal,
            crash_after=point,
            crash_at_window=1,
            checkpoint_every=1,
        )
        with pytest.raises(MigrationCrash):
            mig.run()
        resumed = resume_migration(store, journal, checkpoint_every=1)
        assert resumed.resumes == 1
        # recovery replayed the pending window before returning: the
        # store is readable right now, mid-migration
        assert store.read(0, store.user_bytes) == data
        resumed.run()
        assert resumed.complete
        assert store.read(0, store.user_bytes) == data
        state = journal.load()
        assert state.complete
        assert all(cp["invariant_ok"] for cp in state.checkpoints)

    def test_restage_resume_rebuilds_from_pristine_source(self, tmp_path):
        """The CLI path: the disks did not survive, only the journal did."""
        store, data = _build()
        journal = MigrationJournal(tmp_path / "j.jsonl")
        mig = Migrator(
            store, "ec-frm", journal=journal,
            crash_after="mid-write", crash_at_window=1,
        )
        with pytest.raises(MigrationCrash):
            mig.run()
        fresh, _ = _build()  # same seed: identical source-form content
        resumed = resume_migration(fresh, journal, restage=True)
        resumed.run()
        assert fresh.read(0, fresh.user_bytes) == data
        assert isinstance(fresh.placement, FRMPlacement)

    def test_resume_validates_store_against_journal(self, tmp_path):
        store, _ = _build()
        journal = MigrationJournal(tmp_path / "j.jsonl")
        mig = Migrator(
            store, "ec-frm", journal=journal,
            crash_after="stage", crash_at_window=0,
        )
        with pytest.raises(MigrationCrash):
            mig.run()
        wrong_form, _ = _build(form="rotated")
        with pytest.raises(MigrationError, match="source form"):
            resume_migration(wrong_form, journal)
        wrong_size = BlockStore(make_rs(3, 2), "standard", element_size=64)
        wrong_size.append(b"\0" * (ROWS * wrong_size.row_bytes))
        with pytest.raises(MigrationError, match="element size"):
            resume_migration(wrong_size, journal)

    def test_resume_requires_plan_record(self, tmp_path):
        store, _ = _build()
        with pytest.raises(MigrationError, match="no plan record"):
            resume_migration(store, tmp_path / "missing.jsonl")

    def test_resume_rejects_foreign_journal(self, tmp_path):
        store, _ = _build(form="ec-frm")
        store.array.fail_disk(1)
        journal = tmp_path / "rebuild.wal"
        DiskRebuild(store, 1, journal=journal).run()
        with pytest.raises(MigrationError, match="not a migration journal") as err:
            resume_migration(store, journal)
        assert "'disk-rebuild'" in str(err.value)

    def test_fresh_start_refuses_existing_journal(self, tmp_path):
        store, _ = _build()
        journal = MigrationJournal(tmp_path / "j.jsonl")
        journal.write_plan({"windows": 1})
        with pytest.raises(MigrationError, match="already exists"):
            Migrator(store, "ec-frm", journal=journal)

    def test_double_migration_rejected(self, tmp_path):
        store, _ = _build()
        Migrator(
            store, "ec-frm", journal=tmp_path / "a.jsonl",
            crash_after="stage", crash_at_window=0,
        )
        with pytest.raises(MigrationError, match="mid-migration"):
            Migrator(store, "ec-frm", journal=tmp_path / "b.jsonl")


class TestFaultedMigration:
    def test_migration_with_crashed_disk_and_rebuild(self, tmp_path):
        store, data = _build()
        store.array.fail_disk(2)
        mig = Migrator(store, "ec-frm", journal=tmp_path / "j.jsonl")
        while mig.step():
            assert store.read(0, store.user_bytes) == data  # degraded reads
        assert mig.write_intents > 0  # moves to disk 2 were intent-only
        assert store.read(0, store.user_bytes) == data
        rebuilt = store.rebuild_disk(2)
        assert rebuilt > 0
        assert store.array.failed_disks == []
        assert store.read(0, store.user_bytes) == data

    def test_transient_outage_checksum_poisoning_heals(self, tmp_path):
        """A write skipped during an outage leaves stale source-layout
        bytes on the disk; the recorded intent checksum flags them as
        corrupt and the read path self-heals the correct target bytes."""
        store, data = _build()
        store.array.fail_disk(1)
        mig = Migrator(store, "ec-frm", journal=tmp_path / "j.jsonl")
        mig.run()
        assert mig.write_intents > 0
        store.array[1].restore(wipe=False)  # outage over: stale content back
        before = store.health.corruptions_detected
        assert store.read(0, store.user_bytes) == data
        assert store.health.corruptions_detected > before
        # healed in place: second read is clean
        clean = store.health.corruptions_detected
        assert store.read(0, store.user_bytes) == data
        assert store.health.corruptions_detected == clean


class TestObservability:
    def test_migration_metrics_namespace(self, tmp_path):
        registry = MetricsRegistry()
        store, _ = _build(registry=registry)
        svc = ReadService(store)
        mig = Migrator(
            store, "ec-frm", journal=tmp_path / "j.jsonl",
            cache=svc.cache, budget_per_step=15,
        )
        mig.run()
        snap = registry.snapshot()
        m = snap["migration"]
        assert m["complete"] == 1
        assert m["progress_ratio"] == 1.0
        assert m["windows_done"] == m["windows_total"] == 3
        assert m["rows_moved"] == ROWS
        assert m["elements_moved"] == ROWS * store.code.n
        assert m["bytes_moved"] == ROWS * store.code.n * ELEMENT_SIZE
        assert m["throttle_stalls"] > 0
        assert m["invariant_ok"] == 1
        assert m["routed_source"] > 0

    def test_migrate_spans_emitted(self, tmp_path):
        tracer = Tracer(enabled=True)
        store, _ = _build(tracer=tracer)
        Migrator(store, "ec-frm", journal=tmp_path / "j.jsonl").run()
        names = {s.name for s in tracer.spans}
        assert "migrate" in names

    def test_bytes_forwarded_counts_target_routed_lookups(self, tmp_path):
        store, data = _build()
        mig = Migrator(store, "ec-frm", journal=tmp_path / "j.jsonl")
        mig.step()  # window 0 now target-routed
        store.read(0, 2 * ELEMENT_SIZE)  # row 0 -> target side
        stats = mig.stats_snapshot()
        assert stats["routed_target"] > 0
        assert stats["bytes_forwarded"] == \
            stats["routed_target"] * ELEMENT_SIZE
