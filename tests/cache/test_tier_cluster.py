"""The hot tier wired into ClusterService: hits bypass disks, writes
invalidate, eviction weighs live degraded-read cost, and the new
metrics()/InjectorHandle surfaces behave."""

import warnings

import numpy as np

import repro
from repro.cache import CacheConfig, HotTierCache
from repro.cluster import ClusterService, InjectorHandle
from repro.codes import make_rs
from repro.faults import FaultSchedule

ELEMENT_SIZE = 64


def _cluster(stripes=8, *, shards=2, cache=None, **kwargs):
    cluster = ClusterService(
        make_rs(3, 2), shards=shards, map="hash-ring",
        element_size=ELEMENT_SIZE, cache=cache, **kwargs,
    )
    data = np.random.default_rng(11).integers(
        0, 256, size=stripes * cluster.stripe_bytes, dtype=np.uint8
    ).tobytes()
    cluster.append(data)
    return cluster, data


def _disk_accesses(cluster) -> int:
    return sum(
        d.stats.accesses
        for vol in cluster.volumes
        for d in vol.store.array.disks
    )


class TestReadPath:
    def test_no_tier_by_default(self):
        cluster, _ = _cluster()
        assert cluster.hot_tier is None
        assert cluster.metrics()["cache"] == {"enabled": False}

    def test_promotion_then_hit(self):
        cluster, data = _cluster(cache=CacheConfig(admit_after=1))
        sb = cluster.stripe_bytes
        assert cluster.read(0, sb) == data[:sb]  # miss; promotes
        assert cluster.hot_tier.counters.promotions == 1
        assert cluster.read(0, sb) == data[:sb]  # hit
        assert cluster.hot_tier.counters.hits == 1

    def test_hit_issues_zero_disk_accesses(self):
        """The pinned property: a resident stripe is served without the
        DiskArray ever seeing the read."""
        cluster, data = _cluster(cache=CacheConfig(admit_after=1))
        sb = cluster.stripe_bytes
        cluster.read(3 * sb, sb)  # promote stripe 3
        before = _disk_accesses(cluster)
        assert cluster.read(3 * sb + 5, sb - 9) == data[3 * sb + 5 : 4 * sb - 4]
        assert _disk_accesses(cluster) == before

    def test_sub_range_of_resident_stripe_is_a_hit(self):
        cluster, data = _cluster(cache=CacheConfig(admit_after=1))
        sb = cluster.stripe_bytes
        cluster.read(0, sb)
        assert cluster.read(17, 31) == data[17:48]
        assert cluster.hot_tier.counters.hits == 1

    def test_spanning_read_mixes_hits_and_ec_path(self):
        cluster, data = _cluster(cache=CacheConfig(admit_after=1))
        sb = cluster.stripe_bytes
        cluster.read(0, sb)  # stripe 0 resident, stripe 1 not
        before_hits = cluster.hot_tier.counters.hits
        assert cluster.read(sb // 2, sb) == data[sb // 2 : sb // 2 + sb]
        assert cluster.hot_tier.counters.hits == before_hits + 1

    def test_batch_cannot_hit_its_own_promotions(self):
        # lookups happen at job-build time, inserts at assembly: the
        # second identical range in one batch is still a miss
        cluster, _ = _cluster(cache=CacheConfig(admit_after=1))
        sb = cluster.stripe_bytes
        result = cluster.submit([(0, sb), (0, sb)])
        assert len(result.payloads) == 2
        assert cluster.hot_tier.counters.hits == 0
        assert cluster.hot_tier.counters.promotions == 1

    def test_admission_threshold_delays_promotion(self):
        cluster, _ = _cluster(cache=CacheConfig(admit_after=3))
        sb = cluster.stripe_bytes
        for _ in range(2):
            cluster.read(0, sb)
        assert cluster.hot_tier.counters.promotions == 0
        cluster.read(0, sb)  # third touch reaches the threshold
        assert cluster.hot_tier.counters.promotions == 1

    def test_prebuilt_tier_adopted_and_cost_bound(self):
        tier = HotTierCache(CacheConfig(admit_after=1))
        assert tier.cost_of is None
        cluster, _ = _cluster(cache=tier)
        assert cluster.hot_tier is tier
        assert tier.cost_of is not None  # bound to the cluster's live view

    def test_tier_lookup_traced(self):
        tracer = repro.Tracer(enabled=True)
        cluster, _ = _cluster(cache=CacheConfig(admit_after=1),
                              tracer=tracer)
        sb = cluster.stripe_bytes
        cluster.read(0, sb)
        cluster.read(0, sb)
        lookups = [s for s in tracer.spans if s.name == "tier_lookup"]
        assert [s.attrs["hit"] for s in lookups] == [False, True]


class TestWriteThroughInvalidation:
    def test_apply_move_invalidates(self):
        cluster, data = _cluster(cache=CacheConfig(admit_after=1))
        sb = cluster.stripe_bytes
        g = 2
        cluster.read(g * sb, sb)
        assert g in cluster.hot_tier
        sid, row = cluster.locate_stripe(g)
        target = (sid + 1) % cluster.num_shards
        elems = cluster.volumes[sid].store.fetch_row_data(row)
        cluster.apply_move(g, target, elems)
        assert g not in cluster.hot_tier
        assert cluster.hot_tier.counters.invalidations == 1
        # and the post-move read is still byte-correct
        assert cluster.read(g * sb, sb) == data[g * sb : (g + 1) * sb]

    def test_rebalance_invalidates_moved_stripes(self):
        cluster, data = _cluster(
            stripes=16, cache=CacheConfig(capacity_stripes=32, admit_after=1)
        )
        cluster.submit([(0, len(data))])  # promote everything
        resident = set(cluster.hot_tier.resident_stripes())
        assert resident
        before = {g: cluster.locate_stripe(g)[0] for g in range(16)}
        report = cluster.add_shard()
        moved = [
            g for g in range(16) if cluster.locate_stripe(g)[0] != before[g]
        ]
        assert report.stripes_moved == len(moved) > 0
        for g in moved:
            assert g not in cluster.hot_tier
        # full stream still byte-correct after the rebalance
        assert cluster.submit([(0, len(data))]).payloads == [data]


class TestDegradedCost:
    def test_stripe_cost_reflects_failed_disk(self):
        cluster, _ = _cluster(cache=CacheConfig(admit_after=1))
        g = 0
        sid, _ = cluster.locate_stripe(g)
        assert cluster._stripe_cost(g) == 1.0
        array = cluster.volumes[sid].store.array
        array.fail_disk(0)
        assert cluster._stripe_cost(g) == cluster.hot_tier.config.degraded_cost

    def test_eviction_spares_degraded_shard_stripes(self):
        cluster, data = _cluster(
            stripes=8, shards=2,
            cache=CacheConfig(capacity_stripes=4, admit_after=1,
                              evict_sample=4, degraded_cost=8.0),
        )
        sb = cluster.stripe_bytes
        by_shard: dict[int, list[int]] = {}
        for g in range(8):
            by_shard.setdefault(cluster.locate_stripe(g)[0], []).append(g)
        assert len(by_shard) == 2, "need stripes on both shards"
        victim_sid = min(by_shard)
        cluster.volumes[victim_sid].store.array.fail_disk(0)
        # fill the tier with degraded-shard stripes first (coldest), then
        # healthy ones; the next promotion must evict a healthy stripe
        order = by_shard[victim_sid][:2] + by_shard[1 - victim_sid][:2]
        for g in order:
            cluster.read(g * sb, sb)
        extra = by_shard[1 - victim_sid][2]
        cluster.read(extra * sb, sb)
        tier = cluster.hot_tier
        assert all(g in tier for g in by_shard[victim_sid][:2])
        assert tier.counters.cost_saves >= 1

    def test_degraded_hit_still_byte_correct(self):
        cluster, data = _cluster(cache=CacheConfig(admit_after=1))
        sb = cluster.stripe_bytes
        cluster.read(0, sb)
        sid, _ = cluster.locate_stripe(0)
        cluster.volumes[sid].store.array.fail_disk(1)
        assert cluster.read(0, sb) == data[:sb]
        assert cluster.hot_tier.counters.hits == 1


class TestMetricsSurface:
    def test_metrics_namespaces(self):
        cluster, data = _cluster(cache=CacheConfig(admit_after=1))
        cluster.submit([(0, len(data))])
        m = cluster.metrics()
        assert {"cluster", "cache", "recovery", "service"} <= set(m)
        assert m["cache"]["enabled"] is True
        assert m["recovery"] == {"enabled": False}
        assert m["service"]["requests"] >= 1
        assert m["cluster"]["stripes"] == 8

    def test_metrics_emits_no_deprecation_warning(self):
        cluster, _ = _cluster()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            cluster.metrics()


class TestInjectorHandle:
    def _schedule(self):
        return FaultSchedule.random(1, ops=4, num_disks=5, latent_prob=0.5)

    def test_attach_returns_detachable_handle(self):
        cluster, _ = _cluster()
        handle = cluster.attach_injector(0, self._schedule(), seed=1)
        assert isinstance(handle, InjectorHandle)
        assert handle in cluster._injectors
        handle.detach()
        assert handle not in cluster._injectors

    def test_detach_is_idempotent(self):
        cluster, _ = _cluster()
        handle = cluster.attach_injector(0, self._schedule(), seed=1)
        handle.detach()
        handle.detach()  # second call must not raise
        assert cluster._injectors == []

    def test_bulk_detach_still_works(self):
        cluster, _ = _cluster()
        cluster.attach_injector(0, self._schedule(), seed=1)
        cluster.attach_injector(1, self._schedule(), seed=2)
        cluster.detach_injectors()
        assert cluster._injectors == []

    def test_handle_delegates_to_injector(self):
        cluster, data = _cluster()
        handle = cluster.attach_injector(0, self._schedule(), seed=1)
        cluster.submit([(0, len(data))])
        assert isinstance(handle.fired, list)  # delegated attribute


class TestOpenCluster:
    def test_cache_true_builds_default_tier(self):
        cluster = repro.open_cluster("rs-3-2", shards=2, element_size=64,
                                     cache=True)
        assert cluster.hot_tier is not None
        assert cluster.hot_tier.config == CacheConfig()

    def test_cache_config_passes_through(self):
        cfg = CacheConfig(capacity_stripes=7, admit_after=1)
        cluster = repro.open_cluster("rs-3-2", shards=2, element_size=64,
                                     cache=cfg)
        assert cluster.hot_tier.config is cfg

    def test_end_to_end_with_hits(self):
        cluster = repro.open_cluster(
            "rs-3-2", shards=2, element_size=64,
            cache=CacheConfig(admit_after=1),
        )
        data = np.random.default_rng(3).integers(
            0, 256, size=4 * cluster.stripe_bytes, dtype=np.uint8
        ).tobytes()
        cluster.append(data)
        assert cluster.read(0, len(data)) == data
        assert cluster.read(0, len(data)) == data
        assert cluster.metrics()["cache"]["hits"] > 0

    def test_faults_and_recovery_wiring(self, tmp_path):
        schedule = FaultSchedule.random(1, ops=4, num_disks=5, latent_prob=0.5)
        cluster = repro.open_cluster(
            "rs-3-2", shards=2, element_size=64,
            faults={1: schedule},
            recovery={"journal_dir": tmp_path / "j", "spares": 1},
        )
        assert len(cluster._injectors) == 1
        assert cluster._injectors[0].shard == 1
        assert len(cluster.orchestrators) == 2
        assert cluster.metrics()["recovery"]["enabled"] is True
