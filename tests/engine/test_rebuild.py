"""Tests for whole-disk rebuild planning and timing."""

import json
from pathlib import Path

import pytest

from repro.codes import LocalReconstructionCode, ReedSolomonCode, make_lrc, make_rs
from repro.disks import SAVVIO_10K3, UNIFORM_UNIT
from repro.engine import RebuildPlan, plan_disk_rebuild, rebuild_time_s
from repro.gf import matrix as gfm
from repro.layout import FRMPlacement, StandardPlacement, make_placement

MiB = 1024 * 1024


class TestPlanShape:
    def test_one_element_per_row_rebuilt(self, paper_code):
        for form in ("standard", "rotated", "ec-frm"):
            p = make_placement(form, paper_code)
            plan = plan_disk_rebuild(p, 0, rows=24)
            assert plan.elements_rebuilt == 24

    def test_reads_avoid_failed_disk(self):
        p = FRMPlacement(make_lrc(6, 2, 2))
        plan = plan_disk_rebuild(p, 4, rows=30)
        assert 4 not in plan.reads

    def test_total_reads_counts_dedup(self):
        p = StandardPlacement(make_rs(6, 3))
        plan = plan_disk_rebuild(p, 0, rows=10)
        # RS repair of data 0 reads k helpers per row, no cross-row overlap
        assert plan.total_reads == 10 * 6
        assert plan.max_disk_load == 10

    def test_lrc_rebuild_reads_fewer(self):
        """LRC's local repair makes whole-disk rebuild read k/l per row."""
        rs = plan_disk_rebuild(StandardPlacement(make_rs(6, 3)), 0, rows=20)
        lrc = plan_disk_rebuild(StandardPlacement(make_lrc(6, 2, 2)), 0, rows=20)
        assert lrc.total_reads == 20 * 3 < rs.total_reads

    def test_validation(self):
        p = StandardPlacement(make_rs(6, 3))
        with pytest.raises(ValueError):
            plan_disk_rebuild(p, 0, rows=0)
        with pytest.raises(ValueError):
            plan_disk_rebuild(p, 99, rows=5)


class TestOptimizedRebuild:
    def test_never_worse_max_load(self, paper_code):
        for form in ("standard", "ec-frm"):
            p = make_placement(form, paper_code)
            naive = plan_disk_rebuild(p, 0, rows=36)
            opt = plan_disk_rebuild(p, 0, rows=36, optimize=True)
            assert opt.max_disk_load <= naive.max_disk_load
            assert opt.elements_rebuilt == naive.elements_rebuilt

    def test_frm_rs_reaches_balanced_optimum(self):
        """With helper choice, EC-FRM-RS rebuild balances to
        ceil(total_reads / surviving disks)."""
        import math

        p = FRMPlacement(make_rs(6, 3))
        rows = 120
        opt = plan_disk_rebuild(p, 0, rows=rows, optimize=True)
        balanced = math.ceil(opt.total_reads / (p.num_disks - 1))
        assert opt.max_disk_load == balanced

    def test_same_io_count(self):
        """The optimizer flattens load without spending extra reads."""
        p = FRMPlacement(make_rs(6, 3))
        naive = plan_disk_rebuild(p, 0, rows=60)
        opt = plan_disk_rebuild(p, 0, rows=60, optimize=True)
        assert opt.total_reads == naive.total_reads


class TestPlanningRankMemo:
    """Optimized rebuild planning asks each code the same span-rank
    questions row after row; the per-code memo answers repeats without
    Gaussian elimination, and the chosen helpers do not change."""

    #: optimized plans for every disk of both forms of rs-6-3 and
    #: lrc-6-2-2, recorded before the memo existed
    FIXTURE = json.loads((Path(__file__).parent / "rebuild_plans.json").read_text())

    def _sweep(self, placements):
        rows = self.FIXTURE["rows"]
        return {
            key: [
                plan_disk_rebuild(p, disk, rows, optimize=True)
                for disk in range(p.num_disks)
            ]
            for key, p in placements.items()
        }

    def _expected(self, key):
        rows = self.FIXTURE["rows"]
        return [
            RebuildPlan(
                failed_disk=disk,
                rows=rows,
                reads={int(d): [tuple(a) for a in v] for d, v in reads.items()},
                elements_rebuilt=rows,
            )
            for disk, reads in enumerate(self.FIXTURE["plans"][key])
        ]

    def test_second_sweep_makes_no_rank_calls(self, monkeypatch):
        # fresh code objects: the shared lru_cache'd ones may be warm
        codes = {
            "rs-6-3": ReedSolomonCode(6, 3),
            "lrc-6-2-2": LocalReconstructionCode(6, 2, 2),
        }
        placements = {
            f"{spec}/{form}": make_placement(form, code)
            for spec, code in codes.items()
            for form in ("standard", "ec-frm")
        }
        calls = []
        rank = gfm.rank

        def counted(field, m):
            calls.append(1)
            return rank(field, m)

        monkeypatch.setattr(gfm, "rank", counted)
        first = self._sweep(placements)
        # one elimination per distinct row set queried
        assert 0 < len(calls) == sum(len(c._rank_memo) for c in codes.values())
        calls.clear()
        second = self._sweep(placements)
        assert len(calls) == 0
        for key in placements:
            assert first[key] == self._expected(key)
            assert second[key] == self._expected(key)


class TestRebuildTime:
    def test_unit_model_counts_bottleneck(self):
        p = StandardPlacement(make_rs(6, 3))
        plan = plan_disk_rebuild(p, 0, rows=10)
        t = rebuild_time_s(plan, UNIFORM_UNIT, 1)
        # reads: 10 accesses on each of 6 disks -> 10 units; writes ~ 0
        assert t == pytest.approx(11.0, rel=0.01) or t == pytest.approx(10.0, rel=0.01)

    def test_write_phase_floor(self):
        """Rebuild can never beat streaming the replacement disk."""
        p = FRMPlacement(make_lrc(6, 2, 2))
        plan = plan_disk_rebuild(p, 0, rows=120, optimize=True)
        t = rebuild_time_s(plan, SAVVIO_10K3, MiB)
        write_floor = SAVVIO_10K3.positioning_time_s + 120 * SAVVIO_10K3.transfer_time_s(MiB)
        assert t >= write_floor - 1e-9

    def test_validation(self):
        p = StandardPlacement(make_rs(6, 3))
        plan = plan_disk_rebuild(p, 0, rows=5)
        with pytest.raises(ValueError):
            rebuild_time_s(plan, SAVVIO_10K3, 0)
