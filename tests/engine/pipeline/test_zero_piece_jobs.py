"""Jobs with no pieces: served without disk work, complete on arrival.

A cluster's hot tier can serve an arrival entirely; it reaches the
pipeline as a job with no ranges.  Such a job never enters admission,
hedging or a disk queue: it completes at its arrival time with a
zero-latency sample and payload ``assemble(meta, [])``, and its bytes
count toward ``bytes_served``.
"""

import numpy as np

from repro import open_store
from repro.engine import AdmissionController, RequestPipeline
from repro.obs import MetricsRegistry


def _service():
    svc = open_store("rs-6-3", "ec-frm", element_size=64)
    data = np.random.default_rng(4).integers(
        0, 256, size=8 * svc.store.row_bytes, dtype=np.uint8
    ).tobytes()
    svc.store.append(data)
    return svc, data


def _assemble(meta, parts):
    return meta if not parts else b"".join(parts)


def test_zero_piece_jobs_complete_on_arrival():
    svc, data = _service()
    admission = AdmissionController(max_inflight=1, queue_limit=0)
    pipe = RequestPipeline(
        [svc], admission=admission, assemble=_assemble, registry=MetricsRegistry()
    )
    jobs = [(0.0, [(0, 0, 100)]), (0.001, []), (5.0, [])]
    metas = [None, b"tier-served", b"late"]
    result = pipe.run_jobs(jobs, metas=metas)
    # the gate admits one job at a time with no queue: the zero-piece
    # arrival at 1 ms would be shed if it were offered while job 0 runs
    assert result.rejected == 0
    assert result.completed == 3
    assert result.payloads == [data[:100], b"tier-served", b"late"]
    assert result.bytes_served == 100 + len(b"tier-served") + len(b"late")
    assert result.latency.count == 3 and result.latency.min == 0.0
    assert result.queue_wait.count == 1  # only the disk job passed the gate
    # the last arrival extends the completion horizon
    assert result.makespan_s == 5.0
    assert [lat for _, lat in pipe.job_latencies()][1:] == [0.0, 0.0]


def test_all_zero_piece_timing_only_run():
    svc, _ = _service()
    accesses = [d.stats.accesses for d in svc.store.array.disks]
    pipe = RequestPipeline(
        [svc], assemble=_assemble, materialize=False, registry=MetricsRegistry()
    )
    result = pipe.run_jobs([(1.0, []), (1.5, [])], metas=[b"ab", b"cde"])
    assert result.completed == 2
    assert result.payloads is None
    assert result.bytes_served == 5
    assert result.makespan_s == 0.5
    assert result.disk_depth.count == 0
    assert [d.stats.accesses for d in svc.store.array.disks] == accesses
