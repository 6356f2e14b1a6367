"""The open-loop request pipeline: an event loop over the simulated clock.

This is the explicit completion-queue scheduler ROADMAP calls the
"frontend refactor": instead of the closed-loop batch model (fixed
``queue_depth`` requests in flight, offered load self-throttles), the
pipeline replays a *timestamped arrival process* against per-disk FCFS
servers and measures what a real frontend would: queue waits under
admission control, per-disk depth, hedge races, and tail latency of the
whole request — all on the simulated clock, with no real asyncio.

Mechanics
---------
* **Events** are ``(time, seq, kind)`` heap entries — arrivals, disk
  completions, hedge deadlines.  ``seq`` makes ordering total, so runs
  are bit-deterministic.
* **Admission** (:class:`~repro.engine.pipeline.admission.
  AdmissionController`) gates arrivals; a queued job's wait is recorded
  in the tracer's ``queue_wait`` stage and the result histogram.
* **Per-disk FCFS servers**: each admitted request's plan fans out into
  one sub-read per disk; a disk serves one sub-read at a time at the
  disk model's (slowdown-scaled) service time.
* **Coalescing**: a request whose byte range is contained in an
  in-flight request on the same service joins it instead of dispatching
  — both complete together, the follower's payload is sliced from the
  leader's.
* **Hedging** (:class:`~repro.engine.pipeline.hedging.HedgeConfig`):
  when a piece is still incomplete past its deadline and exactly one
  sub-read is outstanding, a degraded-read plan *around* that disk races
  the straggler; a :class:`~repro.faults.stragglers.StragglerDetector`
  flag arms the hedge at dispatch.  The loser is cancelled (queued
  sub-reads dropped; the in-flight one runs out, holding its disk).

Two planes, as everywhere in this repo: the event loop is the *timing*
plane; payloads and :class:`~repro.disks.disk.DiskStats` accounting flow
through the store's accounted pass (``materialize=True``), which charges
only the winning attempt's physical accesses.  Timing-only runs
(``materialize=False``) skip the store entirely and scale to ~10⁵
requests.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from itertools import count
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from ...codes.base import DecodeFailure
from ...disks import DiskFailedError
from ...obs import NULL_TRACER, Histogram, MetricsRegistry, Tracer
from ..plancache import UnsupportedFailurePatternError
from ..requests import AccessPlan
from .admission import AdmissionController
from .hedging import HedgeConfig, HedgeCounters

if TYPE_CHECKING:  # pragma: no cover - import cycle: service imports pipeline
    from ...faults.stragglers import StragglerDetector
    from ..service import ReadService

__all__ = ["OpenLoopResult", "RequestPipeline"]


@dataclass
class _SubRead:
    """One disk's share of an attempt."""

    disk: int
    accesses: list[tuple[int, int]]
    attempt: "_Attempt"
    state: str = "queued"  # queued | running | done | cancelled
    nominal_s: float = 0.0
    actual_s: float = 0.0


@dataclass
class _Attempt:
    """One dispatched plan (primary or hedge) of a piece."""

    piece: "_Piece"
    plan: AccessPlan | None  # None: multi-failure synthetic timing
    kind: str  # "primary" | "hedge"
    subreads: list[_SubRead] = field(default_factory=list)
    remaining: int = 0
    cancelled: bool = False


@dataclass
class _Piece:
    """One (service, byte-range) execution unit of a job."""

    job: "_Job"
    service_idx: int
    offset: int
    length: int
    primary: _Attempt | None = None
    hedge: _Attempt | None = None
    hedge_armed: bool = False
    done: bool = False
    winner: str | None = None
    leader: "_Piece | None" = None
    followers: list["_Piece"] = field(default_factory=list)
    payload: bytes | None = None

    @property
    def end(self) -> int:
        return self.offset + self.length


@dataclass
class _Job:
    """One arrival: possibly several pieces across services (cluster)."""

    index: int
    arrival_s: float
    pieces: list[_Piece] = field(default_factory=list)
    remaining: int = 0
    rejected: bool = False
    done_s: float | None = None
    payload: bytes | None = None
    meta: Any = None


class _DiskServer:
    """FCFS queue of sub-reads in front of one simulated disk."""

    __slots__ = ("service_idx", "disk", "queue", "current")

    def __init__(self, service_idx: int, disk: int) -> None:
        self.service_idx = service_idx
        self.disk = disk
        self.queue: list[_SubRead] = []
        self.current: _SubRead | None = None

    def depth(self) -> int:
        return len(self.queue) + (1 if self.current is not None else 0)


@dataclass
class OpenLoopResult:
    """Outcome of one :meth:`RequestPipeline.run`.

    Scalar counters cover this run only; the histograms are this run's
    samples.  ``payloads`` is per arrival, submission order, ``None`` for
    rejected jobs — and ``None`` entirely for timing-only runs.
    """

    arrived: int
    completed: int
    rejected: int
    coalesced: int
    hedges_launched: int
    hedges_won: int
    hedges_wasted: int
    retries: int
    makespan_s: float
    bytes_served: int
    latency: Histogram
    queue_wait: Histogram
    disk_depth: Histogram
    peak_queue_depth: int
    peak_disk_depth: int
    #: physical accesses per service per disk (snapshot deltas; only
    #: materialized runs move these).
    disk_load: dict[int, dict[int, int]]
    payloads: list[bytes | None] | None = None

    @property
    def throughput_bps(self) -> float:
        """Served bytes over the completion horizon."""
        return self.bytes_served / self.makespan_s if self.makespan_s > 0 else 0.0

    def summary(self) -> dict:
        """JSON-ready scalar view (payloads excluded)."""
        return {
            "arrived": self.arrived,
            "completed": self.completed,
            "rejected": self.rejected,
            "coalesced": self.coalesced,
            "hedges_launched": self.hedges_launched,
            "hedges_won": self.hedges_won,
            "hedges_wasted": self.hedges_wasted,
            "retries": self.retries,
            "makespan_s": self.makespan_s,
            "bytes_served": self.bytes_served,
            "throughput_bps": self.throughput_bps,
            "peak_queue_depth": self.peak_queue_depth,
            "peak_disk_depth": self.peak_disk_depth,
            "latency": self.latency.summary(),
            "queue_wait": self.queue_wait.summary(),
            "disk_depth": self.disk_depth.summary(),
        }


class RequestPipeline:
    """Event-loop scheduler driving open-loop arrivals through one or
    more read services.

    Parameters
    ----------
    services:
        The read services (one per shard for a cluster); piece
        ``service_idx`` indexes into this sequence.
    admission:
        Admission controller; a default-sized one is created when
        omitted.
    hedge:
        Hedging policy (:class:`HedgeConfig`); hedging is on by default.
    detector:
        Optional straggler detector fed from completed sub-reads; a
        flagged disk arms that piece's hedge at dispatch.
    coalesce:
        Collapse contained byte ranges onto in-flight executions.
    materialize:
        Fetch real payloads through the store's accounted pass on piece
        completion.  Timing-only (``False``) scales to ~10⁵ requests.
    max_retries:
        Materialization retries after a mid-run disk failure before
        falling back to the exhaustive multi-failure decoder.
    tracer / registry:
        Default to the first service's; the pipeline publishes a
        ``pipeline`` sub-namespace under ``service.*`` in the registry
        snapshot (``service.pipeline.*`` when flattened).
    assemble:
        Job payload assembler ``(meta, piece_payloads) -> bytes`` (the
        cluster's pad-excising reassembly, which also supplies the bytes
        of jobs with no pieces); the default concatenates.
    """

    def __init__(
        self,
        services: Sequence["ReadService"],
        *,
        admission: AdmissionController | None = None,
        hedge: HedgeConfig | None = None,
        detector: "StragglerDetector | None" = None,
        coalesce: bool = True,
        materialize: bool = True,
        max_retries: int = 3,
        tracer: Tracer | None = None,
        registry: MetricsRegistry | None = None,
        assemble: Callable[[Any, list[bytes]], bytes] | None = None,
    ) -> None:
        if not services:
            raise ValueError("need at least one service")
        self.services = list(services)
        self.admission = admission if admission is not None else AdmissionController()
        self.hedge_config = hedge if hedge is not None else HedgeConfig()
        self.detector = detector
        self.coalesce = coalesce
        self.materialize = materialize
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.max_retries = max_retries
        self.tracer = tracer if tracer is not None else self.services[0].tracer
        if self.tracer is None:
            self.tracer = NULL_TRACER
        self.registry = (
            registry if registry is not None else self.services[0].registry
        )
        self.registry.register_collector("service", self._pipeline_namespace)
        self.assemble = assemble
        self.hedges = HedgeCounters()
        self.retries = 0
        self.coalesced = 0
        self.completed = 0
        self.bytes_served = 0
        self._last_result: OpenLoopResult | None = None
        # run-scoped state, reset by run_jobs()
        self._heap: list[tuple[float, int, str, Any]] = []
        self._seq = count()
        self._servers: dict[tuple[int, int], _DiskServer] = {}
        self._inflight: dict[int, list[_Piece]] = {}
        self._jobs: list[_Job] = []

    # ------------------------------------------------------------------
    # public entry points
    # ------------------------------------------------------------------
    def run(
        self, arrivals: Iterable[tuple[float, int, int]]
    ) -> OpenLoopResult:
        """Drive ``(arrival_s, offset, length)`` arrivals through the
        first (only) service."""
        return self.run_jobs(
            (t, [(0, offset, length)]) for t, offset, length in arrivals
        )

    def run_jobs(
        self,
        jobs: Iterable[tuple[float, list[tuple[int, int, int]]]],
        *,
        metas: Sequence[Any] | None = None,
    ) -> OpenLoopResult:
        """Drive jobs of ``(arrival_s, [(service_idx, offset, length)])``
        through the event loop; returns when the last event drains.

        Arrivals must be in nondecreasing time order (the load generator
        produces them that way).  ``metas`` optionally attaches one
        opaque context object per job, handed to ``assemble``.  A job
        with no ranges needs no disk work (a cluster's hot tier served
        it): it completes at its arrival time with payload
        ``assemble(meta, [])`` and a zero-latency sample, never entering
        admission, hedging or a disk queue.
        """
        self._heap = []
        self._seq = count()
        self._servers = {}
        self._inflight = {i: [] for i in range(len(self.services))}
        self._latency = Histogram("service.pipeline.latency_s")
        self._queue_wait = Histogram("service.pipeline.queue_wait_s")
        self._depth = Histogram("service.pipeline.disk_depth")
        self._peak_disk_depth = 0
        self._run_counts = Counter()
        self._hedges0 = (self.hedges.launched, self.hedges.won, self.hedges.wasted)
        self._retries0 = self.retries
        self._bytes0 = self.bytes_served
        self._load_base = [
            {d.disk_id: d.stats.accesses for d in svc.store.array.disks}
            for svc in self.services
        ]
        self._jobs: list[_Job] = []
        self._last_completion = 0.0
        first_arrival: float | None = None

        for idx, (arrival_s, ranges) in enumerate(jobs):
            job = _Job(index=idx, arrival_s=arrival_s)
            if metas is not None:
                if idx >= len(metas):
                    raise ValueError(
                        f"metas has {len(metas)} entries but the job stream "
                        f"produced a job at index {idx}; pass one meta per job"
                    )
                job.meta = metas[idx]
            job.pieces = [
                _Piece(job=job, service_idx=sid, offset=off, length=ln)
                for sid, off, ln in ranges
            ]
            job.remaining = len(job.pieces)
            self._jobs.append(job)
            if first_arrival is None:
                first_arrival = arrival_s
            self._push(arrival_s, "arrival", job)
        if not self._jobs:
            raise ValueError("no jobs to run")
        if metas is not None and len(metas) != len(self._jobs):
            raise ValueError(
                f"metas has {len(metas)} entries for {len(self._jobs)} jobs; "
                "pass one meta per job"
            )

        while self._heap:
            t, _, kind, obj = heapq.heappop(self._heap)
            if kind == "arrival":
                self._on_arrival(t, obj)
            elif kind == "disk_done":
                self._on_disk_done(t, obj)
            else:  # "hedge"
                self._on_hedge(t, obj)

        hl, hw, hx = self._hedges0
        disk_load = {
            i: {
                d.disk_id: d.stats.accesses - self._load_base[i].get(d.disk_id, 0)
                for d in svc.store.array.disks
                if d.stats.accesses > self._load_base[i].get(d.disk_id, 0)
            }
            for i, svc in enumerate(self.services)
        }
        result = OpenLoopResult(
            arrived=len(self._jobs),
            completed=self._run_counts["completed"],
            rejected=self._run_counts["rejected"],
            coalesced=self._run_counts["coalesced"],
            hedges_launched=self.hedges.launched - hl,
            hedges_won=self.hedges.won - hw,
            hedges_wasted=self.hedges.wasted - hx,
            retries=self.retries - self._retries0,
            makespan_s=max(0.0, self._last_completion - (first_arrival or 0.0)),
            bytes_served=self.bytes_served - self._bytes0,
            latency=self._latency,
            queue_wait=self._queue_wait,
            disk_depth=self._depth,
            peak_queue_depth=self.admission.peak_queue_depth,
            peak_disk_depth=self._peak_disk_depth,
            disk_load=disk_load,
            payloads=(
                [j.payload for j in self._jobs] if self.materialize else None
            ),
        )
        self._last_result = result
        return result

    def job_latencies(self) -> list[tuple[Any, float | None]]:
        """Per-job ``(meta, latency_s)`` of the most recent run, arrival
        order; latency is ``None`` for rejected jobs.

        The per-class drill-down the aggregate histograms cannot give:
        callers that tag jobs via ``metas`` (e.g. ``"fg"`` foreground vs
        ``"bg"`` repair traffic) slice their own tails from one mixed
        run — the recovery throttle's AIMD loop feeds on exactly this.
        """
        return [
            (
                job.meta,
                None if job.done_s is None else job.done_s - job.arrival_s,
            )
            for job in self._jobs
        ]

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------
    def _push(self, when: float, kind: str, obj: Any) -> None:
        heapq.heappush(self._heap, (when, next(self._seq), kind, obj))

    def _on_arrival(self, t: float, job: _Job) -> None:
        if not job.pieces:
            self._last_completion = max(self._last_completion, t)
            self._finish_job(job, t)
            return
        verdict = self.admission.offer(job)
        if verdict == "admit":
            self._start_job(job, t)
        elif verdict == "reject":
            job.rejected = True
            self._run_counts["rejected"] += 1
        # "queue": the controller hands the job back via release()

    def _start_job(self, job: _Job, t: float) -> None:
        wait = t - job.arrival_s
        self._queue_wait.observe(wait)
        if self.tracer.enabled:
            self.tracer.record("queue_wait", wait, index=job.index)
        for piece in job.pieces:
            self._start_piece(piece, t)

    def _start_piece(self, piece: _Piece, t: float) -> None:
        if self.coalesce:
            for leader in self._inflight[piece.service_idx]:
                if (
                    not leader.done
                    and leader.offset <= piece.offset
                    and leader.end >= piece.end
                ):
                    leader.followers.append(piece)
                    piece.leader = leader
                    self.coalesced += 1
                    self._run_counts["coalesced"] += 1
                    return
        self._inflight[piece.service_idx].append(piece)
        self._launch_primary(piece, t)

    def _launch_primary(self, piece: _Piece, t: float) -> None:
        svc = self.services[piece.service_idx]
        failed = svc.store.array.failed_disks
        plan: AccessPlan | None
        try:
            if len(failed) > 1:
                raise UnsupportedFailurePatternError(tuple(sorted(failed)))
            plan, _ = svc._plan(piece.offset, piece.length, failed)
            batches = plan.per_disk_batches()
        except UnsupportedFailurePatternError:
            plan = None
            batches = self._multi_failure_batches(svc, piece)
        attempt = _Attempt(piece=piece, plan=plan, kind="primary")
        piece.primary = attempt
        nominal = max(
            (
                svc.store.array.model.service_time_s(acc)
                for acc in batches.values()
            ),
            default=0.0,
        )
        self._enqueue_attempt(attempt, batches, t)
        if not (
            self.hedge_config.enabled
            and plan is not None
            and plan.failed_disk is None
        ):
            return
        deadline = t + self.hedge_config.deadline_after(nominal)
        if self.detector is not None and any(
            self.detector.is_straggling(d) for d in batches
        ):
            # pre-hedge: a known-slow disk is on the plan, skip the wait
            deadline = t + self.hedge_config.min_delay_s
        self._push(deadline, "hedge", piece)

    def _enqueue_attempt(
        self, attempt: _Attempt, batches: dict[int, list[tuple[int, int]]], t: float
    ) -> None:
        svc_idx = attempt.piece.service_idx
        attempt.remaining = len(batches)
        for disk in sorted(batches):
            sub = _SubRead(disk=disk, accesses=batches[disk], attempt=attempt)
            attempt.subreads.append(sub)
            server = self._server(svc_idx, disk)
            depth = server.depth()
            self._depth.observe(depth)
            self._peak_disk_depth = max(self._peak_disk_depth, depth)
            server.queue.append(sub)
            if server.current is None:
                self._start_next(server, t)

    def _server(self, svc_idx: int, disk: int) -> _DiskServer:
        key = (svc_idx, disk)
        server = self._servers.get(key)
        if server is None:
            server = self._servers[key] = _DiskServer(svc_idx, disk)
        return server

    def _start_next(self, server: _DiskServer, t: float) -> None:
        array = self.services[server.service_idx].store.array
        while server.queue:
            sub = server.queue.pop(0)
            if sub.state == "cancelled":
                continue
            sub.nominal_s = array.model.service_time_s(sub.accesses)
            slowdown = array[sub.disk].slowdown
            sub.actual_s = sub.nominal_s * slowdown
            sub.state = "running"
            server.current = sub
            self._push(t + sub.actual_s, "disk_done", server)
            return
        server.current = None

    def _on_disk_done(self, t: float, server: _DiskServer) -> None:
        sub = server.current
        assert sub is not None
        sub.state = "done"
        self._last_completion = max(self._last_completion, t)
        if self.detector is not None:
            self.detector.observe(sub.disk, sub.nominal_s, sub.actual_s)
        attempt = sub.attempt
        piece = attempt.piece
        if not attempt.cancelled and not piece.done:
            attempt.remaining -= 1
            if attempt.remaining == 0:
                self._complete_piece(piece, attempt, t)
            elif (
                attempt.kind == "primary"
                and piece.hedge_armed
                and piece.hedge is None
            ):
                unfinished = [
                    s
                    for s in attempt.subreads
                    if s.state in ("queued", "running")
                ]
                if len(unfinished) == 1:
                    self._launch_hedge(piece, unfinished[0].disk, t)
        self._start_next(server, t)

    def _on_hedge(self, t: float, piece: _Piece) -> None:
        if piece.done or piece.hedge is not None or piece.primary is None:
            return
        if piece.primary.plan is None:
            return
        unfinished = [
            s for s in piece.primary.subreads if s.state in ("queued", "running")
        ]
        if not unfinished:
            return
        if len(unfinished) > 1:
            # reconstruction around one disk cannot beat several laggards;
            # re-check as the primary's sub-reads drain
            piece.hedge_armed = True
            return
        self._launch_hedge(piece, unfinished[0].disk, t)

    def _launch_hedge(self, piece: _Piece, target_disk: int, t: float) -> None:
        svc = self.services[piece.service_idx]
        store = svc.store
        plan = svc.cache.plan(
            store.placement,
            store.byte_request(piece.offset, piece.length),
            store.element_size,
            (target_disk,),
        )
        attempt = _Attempt(piece=piece, plan=plan, kind="hedge")
        piece.hedge = attempt
        self.hedges.launched += 1
        if self.tracer.enabled:
            self.tracer.record("hedge", 0.0, clock="wall", disk=target_disk)
        self._enqueue_attempt(attempt, plan.per_disk_batches(), t)

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------
    def _complete_piece(self, piece: _Piece, winner: _Attempt, t: float) -> None:
        piece.done = True
        piece.winner = winner.kind
        if piece.hedge is not None:
            if winner is piece.hedge:
                self.hedges.won += 1
            else:
                self.hedges.wasted += 1
        loser = piece.hedge if winner is piece.primary else piece.primary
        if loser is not None:
            loser.cancelled = True
            for sub in loser.subreads:
                if sub.state == "queued":
                    sub.state = "cancelled"
        if self.materialize:
            piece.payload = self._materialize_piece(piece, winner)
        self._inflight[piece.service_idx].remove(piece)
        for follower in piece.followers:
            follower.done = True
            follower.winner = "coalesced"
            if piece.payload is not None:
                rel = follower.offset - piece.offset
                follower.payload = piece.payload[rel : rel + follower.length]
            self._job_piece_done(follower.job, t)
        self._job_piece_done(piece.job, t)

    def _materialize_piece(self, piece: _Piece, winner: _Attempt) -> bytes:
        """Fetch the piece's real bytes through the store's accounted pass.

        Exactly-once accounting: only the *winning* plan executes, so
        ``DiskStats`` (and the pipeline's ``disk_load`` deltas) charge
        the served work; a wasted hedge costs simulated time, not
        physical accounting.  A mid-run disk failure surfaces here as
        :class:`DiskFailedError` — the piece replans under the new
        signature up to ``max_retries`` times, then falls back to the
        exhaustive multi-failure decoder.
        """
        svc = self.services[piece.service_idx]
        store = svc.store
        plan = winner.plan
        attempts = 0
        while True:
            failed = store.array.failed_disks
            try:
                if plan is None or len(failed) > 1:
                    return store.read_degraded_multi(piece.offset, piece.length)
                payload, _ = store.execute_read(plan, piece.offset, piece.length)
                return payload
            except (DiskFailedError, DecodeFailure):
                svc.cache.invalidate_failure(failed)
                if attempts >= self.max_retries:
                    return store.read_degraded_multi(piece.offset, piece.length)
                attempts += 1
                self.retries += 1
                now_failed = store.array.failed_disks
                try:
                    if len(now_failed) > 1:
                        raise UnsupportedFailurePatternError(
                            tuple(sorted(now_failed))
                        )
                    plan, _ = svc._plan(piece.offset, piece.length, now_failed)
                except UnsupportedFailurePatternError:
                    plan = None

    def _job_piece_done(self, job: _Job, t: float) -> None:
        job.remaining -= 1
        if job.remaining > 0:
            return
        self._finish_job(job, t)
        nxt = self.admission.release()
        if nxt is not None:
            self._start_job(nxt, t)

    def _finish_job(self, job: _Job, t: float) -> None:
        job.done_s = t
        self._latency.observe(t - job.arrival_s)
        self._run_counts["completed"] += 1
        self.completed += 1
        if self.materialize or not job.pieces:
            parts = [p.payload if p.payload is not None else b"" for p in job.pieces]
            if self.assemble is not None:
                job.payload = self.assemble(job.meta, parts)
            else:
                job.payload = parts[0] if len(parts) == 1 else b"".join(parts)
        self.bytes_served += (
            sum(p.length for p in job.pieces) if job.pieces else len(job.payload)
        )

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _multi_failure_batches(
        svc: "ReadService", piece: _Piece
    ) -> dict[int, list[tuple[int, int]]]:
        """Synthetic timing batches for the plan-less multi-failure path:
        every surviving disk serves one element per affected row (what
        ``read_degraded_multi`` physically fetches; slot indices are
        approximated by row numbers, which only timing sees)."""
        store = svc.store
        request = store.byte_request(piece.offset, piece.length)
        k = store.code.k
        rows = sorted({e // k for e in request.elements})
        return {
            d.disk_id: [(row, store.element_size) for row in rows]
            for d in store.array.disks
            if not d.failed
        }

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """The ``service.pipeline.*`` metrics payload: cumulative race /
        admission counters plus the latest run's histograms."""
        out = {
            "completed": self.completed,
            "coalesced": self.coalesced,
            "retries": self.retries,
            "bytes_served": self.bytes_served,
            **self.hedges.snapshot(),
            "admission": self.admission.snapshot(),
        }
        if self.detector is not None:
            out["stragglers"] = self.detector.snapshot()
        last = self._last_result
        if last is not None:
            out["latency"] = last.latency.summary()
            out["queue_wait"] = last.queue_wait.summary()
            out["disk_depth"] = last.disk_depth.summary()
            out["peak_disk_depth"] = last.peak_disk_depth
        return out

    def _pipeline_namespace(self) -> dict:
        return {"pipeline": self.snapshot()}
