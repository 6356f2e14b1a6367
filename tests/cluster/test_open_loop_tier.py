"""Open-loop reads through the hot tier, pinned to a recorded fixture.

Four seeded epochs run in order on one cached 3-shard cluster (flushed,
so the last stripe carries pad bytes): a Zipf epoch that promotes the
hot set, an epoch the tier serves entirely, a timing-only
(``materialize=False``) Zipf epoch, and a Zipf epoch with one disk
failed.  ``open_loop_tier.json`` holds what each epoch produced before
the cluster's two read paths shared one router: every
:meth:`OpenLoopResult.summary` field, the tier and cluster counters, the
tier's resident set and every disk's access count.  Payloads are checked
byte for byte against the raw stream.

``makespan_s`` (and the ``throughput_bps`` derived from it) is compared
to 1e-12 relative: the old path re-anchored a mixed run's horizon as
``first pipeline arrival + pipeline makespan - first arrival``, which
can differ from the direct difference in the last bit.  Everything else
must match exactly.

Regenerate (only when the pinned behaviour is meant to change) with
``PYTHONPATH=src python tests/cluster/test_open_loop_tier.py``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from repro.cache import CacheConfig
from repro.cluster import ClusterService
from repro.codes import make_rs
from repro.engine import OpenLoopWorkload

FIXTURE_PATH = Path(__file__).with_name("open_loop_tier.json")
ELEMENT_SIZE = 64
STRIPES = 24
TAIL = 37
#: summary fields compared to 1e-12 relative instead of exactly
RELATIVE = ("makespan_s", "throughput_bps")


def _cluster():
    cluster = ClusterService(
        make_rs(4, 2),
        shards=3,
        map="round-robin",
        element_size=ELEMENT_SIZE,
        cache=CacheConfig(capacity_stripes=6, admit_after=2, evict_sample=2, seed=3),
    )
    data = np.random.default_rng(17).integers(
        0, 256, size=STRIPES * cluster.stripe_bytes + TAIL, dtype=np.uint8
    ).tobytes()
    cluster.append(data)
    cluster.flush()
    return cluster, data


def _zipf(cluster, *, seed: int, start: float) -> list[tuple[float, int, int]]:
    wl = OpenLoopWorkload(
        cluster.user_bytes,
        requests=120,
        rate_rps=400.0,
        min_bytes=16,
        max_bytes=2 * cluster.stripe_bytes,
        zipf_s=1.3,
        seed=seed,
    )
    return [(start + t, off, n) for t, off, n in wl]


def _resident(cluster, *, start: float) -> list[tuple[float, int, int]]:
    """Reads inside resident stripes only (never the padded last one)."""
    sb = cluster.stripe_bytes
    stripes = [g for g in cluster.hot_tier.resident_stripes() if g < STRIPES]
    assert len(stripes) >= 3, "the first epoch left too few resident stripes"
    return [
        (start + i * 1e-3, g * sb + (i * 29) % (sb // 2), sb // 2)
        for i, g in enumerate(stripes * 3)
    ]


def _state(cluster) -> dict:
    return {
        "tier": asdict(cluster.hot_tier.counters),
        "resident": cluster.hot_tier.resident_stripes(),
        "cluster": {
            **asdict(cluster.counters),
            "sub_reads": {str(k): v for k, v in sorted(cluster.counters.sub_reads.items())},
        },
        "disk_accesses": [
            [d.stats.accesses for d in vol.store.array.disks]
            for vol in cluster.volumes
        ],
    }


def _observe() -> dict:
    """Run the four epochs and record each one (``byte_exact`` is False
    for the timing-only epoch, which returns no payloads)."""
    cluster, data = _cluster()
    epochs = []

    def epoch(name, arrivals, **kwargs):
        result = cluster.submit_open_loop(arrivals, **kwargs)
        exact = None
        if result.payloads is not None:
            exact = [
                p == data[off : off + n]
                for p, (_, off, n) in zip(result.payloads, arrivals)
            ]
        epochs.append(
            {
                "name": name,
                "summary": result.summary(),
                "materialized": result.payloads is not None,
                "byte_exact": exact is not None and all(exact),
                **_state(cluster),
            }
        )

    epoch("zipf", _zipf(cluster, seed=21, start=0.5))
    epoch("tier-only", _resident(cluster, start=2.0))
    epoch("timing-only", _zipf(cluster, seed=22, start=3.0), materialize=False)
    cluster.volumes[1].store.array.fail_disk(2)
    epoch("degraded", _zipf(cluster, seed=23, start=4.0))
    return {"epochs": epochs}


@pytest.fixture(scope="module")
def observed() -> dict:
    return _observe()


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(FIXTURE_PATH.read_text())


EPOCHS = ["zipf", "tier-only", "timing-only", "degraded"]


def _epoch(doc: dict, name: str) -> dict:
    (out,) = [e for e in doc["epochs"] if e["name"] == name]
    return out


def test_fixture_covers_every_regime(recorded):
    by_name = {e["name"]: e for e in recorded["epochs"]}
    assert list(by_name) == EPOCHS
    tier_only = by_name["tier-only"]
    assert tier_only["summary"]["completed"] == tier_only["summary"]["arrived"]
    assert tier_only["disk_accesses"] == by_name["zipf"]["disk_accesses"]
    assert not by_name["timing-only"]["materialized"]
    timing_tier = by_name["timing-only"]["tier"]
    assert timing_tier["hits"] > by_name["tier-only"]["tier"]["hits"]
    assert timing_tier["misses"] > by_name["tier-only"]["tier"]["misses"]


@pytest.mark.parametrize("name", EPOCHS)
def test_payloads_are_byte_exact(observed, recorded, name):
    got, want = _epoch(observed, name), _epoch(recorded, name)
    assert got["materialized"] == want["materialized"]
    assert got["byte_exact"] == got["materialized"]


@pytest.mark.parametrize("name", EPOCHS)
def test_summary_matches_recording(observed, recorded, name):
    got = _epoch(observed, name)["summary"]
    want = _epoch(recorded, name)["summary"]
    assert got.keys() == want.keys()
    for key in RELATIVE:
        assert math.isclose(got[key], want[key], rel_tol=1e-12, abs_tol=0.0), key
    assert {k: v for k, v in got.items() if k not in RELATIVE} == {
        k: v for k, v in want.items() if k not in RELATIVE
    }


@pytest.mark.parametrize("name", EPOCHS)
def test_counters_and_disk_accesses_match_recording(observed, recorded, name):
    got, want = _epoch(observed, name), _epoch(recorded, name)
    for key in ("tier", "resident", "cluster", "disk_accesses"):
        assert got[key] == want[key], key


if __name__ == "__main__":
    FIXTURE_PATH.write_text(json.dumps(_observe(), indent=1, sort_keys=True) + "\n")
