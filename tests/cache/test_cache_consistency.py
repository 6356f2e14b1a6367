"""Randomized hot-tier consistency harness.

The tier's whole contract is transparency: with a (deliberately tiny,
eviction-heavy) hot tier in front, every byte-range read served through
:class:`ClusterService` — by ``submit`` and by ``submit_open_loop`` —
must stay byte-equal to the raw stream and to a flat cache-less
reference :class:`BlockStore` across repeated hot reads (promotions
then hits), appends, direct migration moves, hash-ring rebalances onto
a new shard, and degraded reads with a failed disk.  A stale replica
surviving any of those transitions is an automatic failure, both
through the read path and via direct inspection of every resident
payload after each phase.

Each seed draws a random shard count, tier geometry (capacity, admission
threshold, eviction sample, sketch aging), stream length and hot set.
``ECFRM_CACHE_SEED`` offsets the seed block so CI matrix jobs cover
disjoint sweeps; the default is seeds ``base*1000 .. base*1000+99``.
"""

import os
import random

import numpy as np
import pytest

from repro.cache import CacheConfig
from repro.cluster import ClusterService
from repro.codes import make_rs
from repro.engine import ReadService
from repro.store import BlockStore

ELEMENT_SIZE = 32
NUM_SEEDS = 100

BASE = int(os.environ.get("ECFRM_CACHE_SEED", "1"))


def _build(seed: int):
    """Random cached cluster + flat cache-less reference store."""
    rng = random.Random(seed)
    code = make_rs(3, 2)
    shards = rng.randint(1, 3)
    config = CacheConfig(
        capacity_stripes=rng.randint(2, 8),  # tiny: every seed evicts
        admit_after=rng.choice([1, 1, 2, 3]),
        evict_sample=rng.choice([1, 2, 4]),
        sketch_decay_every=rng.choice([0, 0, 64]),
        seed=seed,
    )
    hash_ring = rng.random() < 0.8
    if hash_ring:
        cluster = ClusterService(
            code,
            shards=shards,
            map="hash-ring",
            element_size=ELEMENT_SIZE,
            map_seed=rng.randrange(1 << 16),
            vnodes=rng.choice([16, 48, 96]),
            cache=config,
        )
    else:
        cluster = ClusterService(
            code, shards=shards, map="round-robin",
            element_size=ELEMENT_SIZE, cache=config,
        )
    sb = cluster.stripe_bytes
    stripes_a = rng.randint(3, 7)
    stripes_b = rng.randint(1, 3)
    tail = rng.choice([0, rng.randint(1, sb - 1)])
    data = np.random.default_rng(seed).integers(
        0, 256, size=(stripes_a + stripes_b) * sb + tail, dtype=np.uint8
    ).tobytes()
    # phase-one bytes: whole stripes, placed eagerly — readable pre-flush
    cluster.append(data[: stripes_a * sb])
    flat = BlockStore(code, "ec-frm", element_size=ELEMENT_SIZE)
    flat.append(data[: stripes_a * sb])
    return rng, cluster, ReadService(flat), data, stripes_a * sb


def _hot_ranges(rng: random.Random, hot: list[int], sb: int, limit: int):
    """Sub-ranges inside the hot stripes (plus one wildcard read)."""
    out = []
    for g in hot:
        off = g * sb + rng.randrange(sb // 2)
        ln = rng.randint(1, min(sb, limit - off))
        out.append((off, ln))
    off = rng.randrange(limit)
    out.append((off, rng.randint(1, limit - off)))
    return out


def _assert_agree(cluster, flat_svc, data, ranges, *, tag):
    expected = [data[o : o + n] for o, n in ranges]
    got = cluster.submit(ranges, queue_depth=4)
    assert got.payloads == expected, f"{tag}: cached cluster diverged from raw"
    ref = flat_svc.submit(ranges, queue_depth=4)
    assert got.payloads == ref.payloads, (
        f"{tag}: cached cluster diverged from flat reference"
    )
    # the same ranges as open-loop arrivals 1 ms apart: the pipeline path
    # shares the router and assembler, and its promotions land here too
    arrivals = [(i * 1e-3, o, n) for i, (o, n) in enumerate(ranges)]
    open_loop = cluster.submit_open_loop(arrivals)
    assert open_loop.payloads == expected, f"{tag}: open-loop read diverged from raw"
    assert open_loop.payloads == ref.payloads, (
        f"{tag}: open-loop read diverged from flat reference"
    )
    # every resident replica must byte-match the raw stream right now —
    # a stale payload is caught here even before a read lands on it
    tier, sb = cluster.hot_tier, cluster.stripe_bytes
    for g in tier.resident_stripes():
        payload = tier.peek(g)
        raw = data[g * sb : (g + 1) * sb]
        assert payload[: len(raw)] == raw, f"{tag}: stale replica, stripe {g}"
        assert not any(payload[len(raw):]), f"{tag}: tail padding not zero"


def _run(seed: int) -> ClusterService:
    rng, cluster, flat_svc, data, visible = _build(seed)
    sb = cluster.stripe_bytes
    tier = cluster.hot_tier

    # hot loop: repeated reads of a small stripe set — promotions, then
    # hits, then (capacity is tiny) evictions
    hot = rng.sample(range(visible // sb), rng.randint(1, 3))
    for round_no in range(3):
        _assert_agree(cluster, flat_svc, data, _hot_ranges(rng, hot, sb, visible),
                      tag=f"seed {seed} hot round {round_no}")

    # append the rest (including any tail), flush both sides
    cluster.append(data[visible:])
    cluster.flush()
    flat_svc.store.append(data[visible:])
    flat_svc.store.flush()
    _assert_agree(cluster, flat_svc, data, [(0, len(data))],
                  tag=f"seed {seed} post-append full-stream")

    # direct migration move of a resident (hot) stripe if the cluster
    # has somewhere to move it — write-through invalidation under test
    if cluster.num_shards > 1:
        resident = tier.resident_stripes()
        g = resident[-1] if resident else 0
        sid, row = cluster.locate_stripe(g)
        target = (sid + rng.randint(1, cluster.num_shards - 1)) % cluster.num_shards
        elems = cluster.volumes[sid].store.fetch_row_data(row)
        cluster.apply_move(g, target, elems)
        assert g not in tier, f"seed {seed}: moved stripe {g} still resident"
        _assert_agree(cluster, flat_svc, data,
                      [(g * sb, min(sb, len(data) - g * sb))] + _hot_ranges(rng, hot, sb, len(data)),
                      tag=f"seed {seed} post-move")

    # hash-ring clusters grow a shard: every moved stripe's replica must
    # be dropped, reads stay correct throughout
    if cluster.map.name == "hash-ring":
        cluster.add_shard()
        _assert_agree(cluster, flat_svc, data,
                      [(0, len(data))] + _hot_ranges(rng, hot, sb, len(data)),
                      tag=f"seed {seed} post-rebalance")

    # degraded: one disk fails; hits keep bypassing, misses decode
    victim = rng.randrange(cluster.num_shards)
    array = cluster.volumes[victim].store.array
    array.fail_disk(rng.randrange(len(array)))
    for round_no in range(2):
        _assert_agree(cluster, flat_svc, data, _hot_ranges(rng, hot, sb, len(data)),
                      tag=f"seed {seed} degraded round {round_no}")
    return cluster


@pytest.mark.parametrize("seed", range(BASE * 1000, BASE * 1000 + NUM_SEEDS))
def test_cached_reads_match_flat_reference(seed):
    _run(seed)


def test_sweep_actually_exercises_tier_regimes():
    """Guard: the sweep must produce real hits, promotions, evictions and
    invalidations — not silently degenerate to an idle tier."""
    hits = promotions = evictions = invalidations = degraded_hits = 0
    for seed in range(BASE * 1000, BASE * 1000 + NUM_SEEDS):
        cluster = _run(seed)
        c = cluster.hot_tier.counters
        hits += c.hits
        promotions += c.promotions
        evictions += c.evictions
        invalidations += c.invalidations
        if c.hits and any(
            d.failed for vol in cluster.volumes for d in vol.store.array.disks
        ):
            degraded_hits += 1
    assert promotions >= NUM_SEEDS  # every seed promotes its hot set
    assert hits >= NUM_SEEDS
    assert evictions >= NUM_SEEDS // 4  # tiny capacities force churn
    assert invalidations >= NUM_SEEDS // 4  # moves + rebalances drop replicas
    assert degraded_hits >= NUM_SEEDS // 2  # hits served while a disk is down
