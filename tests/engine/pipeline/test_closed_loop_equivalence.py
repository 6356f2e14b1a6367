"""The two queue models agree: closed-loop batches through the pipeline.

``simulate_concurrent`` (closed loop: ``queue_depth`` requests in
flight, the next dispatched as one completes) and :class:`RequestPipeline`
(open loop) model the same per-disk FCFS queues over the same
:class:`~repro.disks.model.DiskModel`.  With every arrival at t=0, an
admission gate of ``max_inflight=D`` whose queue holds the whole batch,
hedging and coalescing off and timing only, the pipeline *is* the closed
loop: this differential test runs seeded random batches (rs-6-3 and
lrc-6-2-2, both placement forms, depth 1-8, 1-12 ranges, with and
without a straggler disk) through both and requires equal makespans,
exactly.

Two definitional differences remain, and this test does not assert
them:

* a pipeline job's latency includes its wait at the admission gate,
  while the closed loop measures latency from dispatch;
* the closed loop's ``queue_waits_s`` is latency minus the request's
  standalone critical path, while the pipeline's ``queue_wait`` is the
  admission wait.

``ECFRM_PIPELINE_SEED`` offsets the batch seeds, as for the rest of the
pipeline suite.
"""

import os

import numpy as np
import pytest

from repro import open_store
from repro.engine import AdmissionController, HedgeConfig, RequestPipeline
from repro.engine.concurrency import simulate_concurrent
from repro.obs import MetricsRegistry

PIPELINE_SEED = int(os.environ.get("ECFRM_PIPELINE_SEED", "0"))
BATCHES = 40
ROWS = 24


def _service(code: str, form: str):
    svc = open_store(code, form, element_size=64)
    data = np.random.default_rng(5).integers(
        0, 256, size=ROWS * svc.store.row_bytes, dtype=np.uint8
    ).tobytes()
    svc.store.append(data)
    return svc


def _batch(rng: np.random.Generator, user_bytes: int, row_bytes: int):
    ranges = []
    for _ in range(int(rng.integers(1, 13))):
        length = int(rng.integers(1, 3 * row_bytes + 1))
        offset = int(rng.integers(0, user_bytes - length + 1))
        ranges.append((offset, length))
    return ranges


def _makespans(svc, ranges, depth: int) -> tuple[float, float]:
    failed = svc.store.array.failed_disks
    plans = [svc._plan(offset, length, failed)[0] for offset, length in ranges]
    closed = simulate_concurrent(
        plans,
        svc.store.array.model,
        depth,
        slowdowns=svc.store.array.slowdowns(),
    )
    pipe = RequestPipeline(
        [svc],
        admission=AdmissionController(max_inflight=depth, queue_limit=len(ranges)),
        hedge=HedgeConfig(enabled=False),
        coalesce=False,
        materialize=False,
        registry=MetricsRegistry(),
    )
    opened = pipe.run((0.0, offset, length) for offset, length in ranges)
    assert opened.completed == len(ranges)
    return closed.makespan_s, opened.makespan_s


@pytest.mark.parametrize("straggler", [False, True], ids=["clean", "straggler"])
@pytest.mark.parametrize("form", ["standard", "ec-frm"])
@pytest.mark.parametrize("code", ["rs-6-3", "lrc-6-2-2"])
def test_pipeline_reproduces_closed_loop_makespan(code, form, straggler):
    svc = _service(code, form)
    rng = np.random.default_rng(
        [PIPELINE_SEED, ["rs-6-3", "lrc-6-2-2"].index(code), form == "ec-frm", straggler]
    )
    store = svc.store
    for batch in range(BATCHES):
        for disk in store.array.disks:
            disk.slowdown = 1.0
        if straggler:
            disk = int(rng.integers(0, len(store.array)))
            store.array[disk].slowdown = float(rng.uniform(2.0, 8.0))
        ranges = _batch(rng, store.user_bytes, store.row_bytes)
        depth = int(rng.integers(1, 9))
        closed, opened = _makespans(svc, ranges, depth)
        assert opened == closed, (
            f"batch {batch}: depth {depth}, {len(ranges)} ranges: "
            f"pipeline {opened!r} != closed loop {closed!r}"
        )
