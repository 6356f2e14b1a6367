"""A read batch that fails validation leaves no trace.

Both cluster read entry points validate every range of the call before
any side effect: no tier lookup, no sketch observation, no promotion
decision and no cluster counter moves for a batch that then raises.
"""

from copy import deepcopy
from dataclasses import asdict

import numpy as np
import pytest

from repro.cache import CacheConfig
from repro.cluster import ClusterService
from repro.codes import make_rs


def _cluster():
    cluster = ClusterService(
        make_rs(3, 2),
        shards=2,
        map="round-robin",
        element_size=64,
        cache=CacheConfig(capacity_stripes=4, admit_after=2),
    )
    data = np.random.default_rng(3).integers(
        0, 256, size=6 * cluster.stripe_bytes, dtype=np.uint8
    ).tobytes()
    cluster.append(data)
    return cluster, data


def _trace(cluster) -> dict:
    tier = cluster.hot_tier
    return {
        "tier": tier.snapshot(),
        "sketch": [tier.sketch.estimate(g) for g in range(cluster.stripes_written)],
        "counters": deepcopy(asdict(cluster.counters)),
    }


def _submit(cluster, ranges):
    return cluster.submit(ranges).payloads


def _submit_open_loop(cluster, ranges):
    arrivals = [(i * 1e-3, off, n) for i, (off, n) in enumerate(ranges)]
    return cluster.submit_open_loop(arrivals).payloads


@pytest.mark.parametrize("entry", [_submit, _submit_open_loop])
def test_rejected_batch_leaves_tier_and_counters_untouched(entry):
    cluster, data = _cluster()
    sb = cluster.stripe_bytes
    before = _trace(cluster)
    # the first range is valid and spans stripes 0-1 (two shards); the
    # second runs past the stored bytes, so the whole call is refused
    with pytest.raises(ValueError, match="beyond stored"):
        entry(cluster, [(sb // 2, sb), (0, 10**9)])
    assert _trace(cluster) == before
    # with admit_after=2 the first real read of stripe 0 must not promote
    assert entry(cluster, [(0, 16)]) == [data[:16]]
    assert cluster.hot_tier.counters.promotions == 0
    assert 0 not in cluster.hot_tier


@pytest.mark.parametrize("entry", [_submit, _submit_open_loop])
def test_invalid_range_rejected_before_any_lookup(entry):
    cluster, _ = _cluster()
    before = _trace(cluster)
    with pytest.raises(ValueError, match="invalid byte range"):
        entry(cluster, [(0, 32), (5, 0)])
    assert _trace(cluster) == before
