"""Tests for the bottleneck-aware degraded-read planner."""

import pytest

from repro.codes import make_lrc, make_pb_rs, make_rs
from repro.engine import (
    ReadRequest,
    plan_degraded_read,
    plan_degraded_read_optimized,
)
from repro.layout import FRMPlacement, StandardPlacement, make_placement


def _supports(code, lost, have=frozenset(), **kwargs):
    """Whole-element supports of ``code.repair_candidates``, in order."""
    return [frozenset(c) for c in code.repair_candidates(lost, have, **kwargs)]


class TestRepairSetAlternatives:
    """The alternatives the bottleneck-aware planners choose among come
    from :meth:`ErasureCode.repair_candidates`."""

    def test_contains_preferred(self):
        rs = make_rs(6, 3)
        alts = _supports(rs, 0)
        assert rs.repair_plan(0) in alts

    def test_mds_alternatives_all_sufficient(self):
        rs = make_rs(6, 3)
        for helpers in _supports(rs, 2, frozenset({0, 1})):
            assert rs.repairable_from(2, helpers)
            assert 2 not in helpers

    def test_limit_respected(self):
        rs = make_rs(10, 5)
        assert len(_supports(rs, 0, limit=5)) == 5

    def test_lrc_offers_local_and_global(self):
        lrc = make_lrc(6, 2, 2)
        alts = _supports(lrc, 0)
        assert lrc.repair_plan(0) == alts[0]
        assert len(alts) == 2
        # the global alternative rebuilds from all other data + a global
        assert lrc.global_parity_index(0) in alts[1]
        assert alts[1] == frozenset({1, 2, 3, 4, 5, lrc.global_parity_index(0)})

    def test_lrc_parity_repair_alternatives(self):
        lrc = make_lrc(6, 2, 2)
        alts = _supports(lrc, lrc.local_parity_index(0))
        assert alts[0] == frozenset({0, 1, 2})

    @pytest.mark.parametrize("limit", [1, 2, 24])
    @pytest.mark.parametrize(
        "code",
        [make_rs(6, 3), make_lrc(6, 2, 2), make_pb_rs(6, 3)],
        ids=lambda c: c.describe(),
    )
    def test_limit_caps_every_code(self, code, limit):
        for lost in range(code.n):
            for have in (frozenset(), frozenset(range(code.k)) - {lost}):
                capped = code.repair_candidates(lost, have, limit=limit)
                full = code.repair_candidates(lost, have, limit=10_000)
                assert 1 <= len(capped) <= limit
                # the cap truncates the enumeration, never reorders it
                assert capped == full[:limit]

    @pytest.mark.parametrize("limit", [0, -1])
    @pytest.mark.parametrize(
        "code",
        [make_rs(6, 3), make_lrc(6, 2, 2), make_pb_rs(6, 3)],
        ids=lambda c: c.describe(),
    )
    def test_limit_below_one_raises(self, code, limit):
        for lost in (0, code.n - 1):
            with pytest.raises(ValueError, match="limit"):
                code.repair_candidates(lost, limit=limit)


class TestOptimizedPlanner:
    def test_fixes_paper_fig7c_hotspot(self):
        """The paper's Figure 7(c): naive helper choice pushes one disk to
        3 accesses; the optimizer flattens it back to 2 at equal I/O."""
        p = FRMPlacement(make_lrc(6, 2, 2))
        req = ReadRequest(0, 14)
        naive = plan_degraded_read(p, req, 0, 1)
        opt = plan_degraded_read_optimized(p, req, 0, 1)
        assert naive.max_disk_load == 3
        assert opt.max_disk_load == 2
        assert opt.read_cost <= naive.read_cost

    @pytest.mark.parametrize("form", ["standard", "rotated", "ec-frm"])
    def test_never_worse_bottleneck_than_naive(self, form, paper_code):
        placement = make_placement(form, paper_code)
        for failed in (0, paper_code.n - 1):
            for start in (0, 5):
                for size in (6, 14, 20):
                    req = ReadRequest(start, size)
                    naive = plan_degraded_read(placement, req, failed, 1)
                    opt = plan_degraded_read_optimized(placement, req, failed, 1)
                    opt.verify()
                    assert opt.max_disk_load <= naive.max_disk_load

    def test_io_slack_zero_keeps_min_io(self):
        p = FRMPlacement(make_lrc(6, 2, 2))
        req = ReadRequest(0, 14)
        naive = plan_degraded_read(p, req, 0, 1)
        opt = plan_degraded_read_optimized(p, req, 0, 1, io_slack=0)
        assert opt.total_elements_read <= naive.total_elements_read

    def test_io_slack_budget_respected(self):
        p = StandardPlacement(make_rs(6, 3))
        req = ReadRequest(0, 9)
        base = plan_degraded_read_optimized(p, req, 0, 1, io_slack=0)
        loose = plan_degraded_read_optimized(p, req, 0, 1, io_slack=2)
        # per lost element at most +2 reads; one lost element here
        assert loose.total_elements_read <= base.total_elements_read + 2

    def test_decodability_of_chosen_helpers(self):
        """Every reconstruction access set must actually suffice to decode,
        verified by replaying through a real store."""
        import numpy as np

        from repro.store import BlockStore

        code = make_lrc(6, 2, 2)
        bs = BlockStore(code, "ec-frm", element_size=16)
        data = np.random.default_rng(5).integers(
            0, 256, size=6 * bs.row_bytes, dtype=np.uint8
        ).tobytes()
        bs.append(data)
        bs.array.fail_disk(0)
        # materialize through the optimized plan by hand
        req = ReadRequest(0, 14)
        plan = plan_degraded_read_optimized(bs.placement, req, 0, bs.element_size)
        timing = bs.array.execute_batch(plan.per_disk_batches(), fetch=True)
        got = bs._materialize_plan(plan, timing.payloads)
        expect = {
            t: data[t * 16 : (t + 1) * 16] for t in req.elements
        }
        assert {t: bytes(v) for t, v in got.items()} == expect

    def test_validation(self):
        p = StandardPlacement(make_rs(6, 3))
        with pytest.raises(ValueError):
            plan_degraded_read_optimized(p, ReadRequest(0, 1), 99, 1)
        with pytest.raises(ValueError):
            plan_degraded_read_optimized(p, ReadRequest(0, 1), 0, 0)
        with pytest.raises(ValueError):
            plan_degraded_read_optimized(p, ReadRequest(0, 1), 0, 1, io_slack=-1)
