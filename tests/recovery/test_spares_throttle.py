"""SparePool inventory accounting and RepairThrottle token/AIMD behavior
(the migrator's ``budget_per_step`` included)."""

import pytest

from repro.codes import make_rs
from repro.migrate import Migrator
from repro.obs import MetricsRegistry
from repro.recovery import RepairThrottle, SpareExhaustedError, SparePool
from repro.store import BlockStore


# ----------------------------------------------------------------------
# spares
# ----------------------------------------------------------------------
def test_spare_pool_bind_release_restock():
    pool = SparePool(2)
    assert pool.available == 2
    s0 = pool.bind(4)
    s1 = pool.bind(7)
    assert s0 != s1
    assert pool.available == 0
    assert pool.bound == {4: s0, 7: s1}
    with pytest.raises(SpareExhaustedError):
        pool.bind(9)
    assert pool.exhausted_binds == 1
    pool.release(4)
    assert pool.available == 1
    pool.bind(9)  # the released spare is reusable
    pool.restock(3)
    assert pool.total == 5 and pool.available == 3
    assert pool.restocked == 3


def test_spare_pool_complete_unbinds_without_refund():
    pool = SparePool(2)
    s0 = pool.bind(3)
    pool.complete(3)  # rebuild finished: the spare is installed for good
    assert pool.available == 1  # not refunded, unlike release()
    assert pool.bound == {}
    s1 = pool.bind(3)  # the same bay failing again binds a fresh spare
    assert s1 != s0
    pool.complete(3)
    assert pool.available == 0
    with pytest.raises(ValueError, match="no bound spare"):
        pool.complete(3)


def test_spare_pool_misuse():
    pool = SparePool(1)
    with pytest.raises(ValueError):
        SparePool(-1)
    pool.bind(0)
    with pytest.raises(ValueError, match="already has spare"):
        pool.bind(0)
    with pytest.raises(ValueError, match="no bound spare"):
        pool.release(5)
    with pytest.raises(ValueError):
        pool.restock(-1)


def test_zero_pool_is_always_exhausted():
    pool = SparePool(0)
    with pytest.raises(SpareExhaustedError):
        pool.bind(0)
    assert pool.stats_snapshot()["exhausted_binds"] == 1


# ----------------------------------------------------------------------
# throttle
# ----------------------------------------------------------------------
def test_token_bucket_spend_and_stall():
    th = RepairThrottle(budget_per_step=10, min_budget=1, max_budget=25)
    assert not th.spend(5)  # empty bucket: stall
    assert th.stalls == 1
    th.refill()
    assert th.spend(8)
    assert th.spent == 8
    th.refill()
    th.refill()
    th.refill()  # capped at max_budget, not 2 + 30
    assert th.spend(25)
    assert not th.spend(1)


def test_aimd_backs_off_and_recovers():
    th = RepairThrottle(
        budget_per_step=64, min_budget=8, target_ratio=1.5,
        increase=8, decrease=0.5,
    )
    # over target: multiplicative decrease
    assert th.observe_foreground(p99_s=2.0, clean_p99_s=1.0) == 2.0
    assert th.budget_per_step == 32
    assert th.backoffs == 1
    th.observe_foreground(2.0, 1.0)
    th.observe_foreground(2.0, 1.0)
    th.observe_foreground(2.0, 1.0)
    assert th.budget_per_step == 8  # clamped at min_budget
    # under target: additive recovery
    th.observe_foreground(1.2, 1.0)
    assert th.budget_per_step == 16
    assert th.recoveries == 1
    assert th.last_ratio == pytest.approx(1.2)
    # no baseline, no adjustment
    before = th.budget_per_step
    assert th.observe_foreground(1.0, 0.0) == 1.0
    assert th.budget_per_step == before


def test_migrator_budget_spends_through_a_repair_throttle(tmp_path):
    registry = MetricsRegistry()
    store = BlockStore(make_rs(3, 2), "standard", element_size=32, registry=registry)
    store.append(bytes(range(256)) * 4 + bytes(32))  # 11 rows: windows of 5, 5, 1
    mig = Migrator(store, "ec-frm", journal=tmp_path / "j.jsonl", budget_per_step=15)
    # a full window costs 5 * (3 + 5) = 40 ops: two stalls per full window
    # at 15 tokens a step, then the 8-op tail window pays at once
    assert mig.run() == 7
    assert isinstance(mig.throttle, RepairThrottle)
    assert mig.throttle.stalls == 4
    assert registry.snapshot()["migration"]["throttle_stalls"] == mig.throttle.stalls


def test_throttle_validation():
    with pytest.raises(ValueError):
        RepairThrottle(0)
    with pytest.raises(ValueError):
        RepairThrottle(10, min_budget=20, max_budget=10)
    with pytest.raises(ValueError):
        RepairThrottle(100, max_budget=50)
    with pytest.raises(ValueError):
        RepairThrottle(10, target_ratio=1.0)
    with pytest.raises(ValueError):
        RepairThrottle(10, increase=0)
    with pytest.raises(ValueError):
        RepairThrottle(10, decrease=1.0)
    with pytest.raises(ValueError):
        RepairThrottle(16).spend(-1)
