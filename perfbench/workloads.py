"""The four benchmark workloads.

A run is a fixed number of rounds.  Each round stands up a fresh system
(timed as set-up), drives a fixed op program through the public API, and
checks every byte read against a flat in-memory reference.
``make_inputs(workload, seed, round)`` derives every input of a round
from the seed and the round number alone: the bytes to store, the read
ranges, the append payloads, the disks to fail and the open-loop epoch
seeds.  The program only ever sees those generated inputs, so one seed
gives the same work, the same simulated outputs and the same layer
counts on every run.  Workloads are sized by op count, never by time.
"""

from __future__ import annotations

import bisect
import shutil
import signal
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

import repro
from repro import engine, harness
from repro.codes import parse_code_spec
from repro.layout import make_placement
from repro.migrate import MigrationJournal

KiB = 1024
MiB = 1024 * 1024

WORKLOADS = ("clean-mixed", "zipf-openloop", "degraded-recovery", "paper-sim")


# ----------------------------------------------------------------------
# sizes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Size:
    """Op counts of one round.  ``full`` is the benchmark; ``tiny`` is the
    self-test's smoke size and runs every code path in well under 1 s."""

    preload: int
    #: wall seconds of one round at the seed commit; sets the round count
    round_s: float
    groups: int = 0  # clean-mixed: 4 reads + 1 append per group
    epochs: int = 0  # open-loop epochs per round
    arrivals: int = 0  # arrivals per epoch
    phase_reads: int = 0  # degraded-recovery: read ops in phase A and C
    reads_per_tick: int = 0  # degraded-recovery: read ops between ticks
    trials: int = 0  # paper-sim: trials per compare_*_forms call
    rebuild_rows: int = 0  # paper-sim: rows per plan_disk_rebuild, every disk


SIZES: dict[str, dict[str, Size]] = {
    "full": {
        "clean-mixed": Size(preload=16 * MiB, round_s=6.5, groups=36),
        "zipf-openloop": Size(preload=16 * MiB, round_s=7.5, epochs=4, arrivals=300),
        "degraded-recovery": Size(
            preload=4 * MiB, round_s=5.0, phase_reads=40, reads_per_tick=4
        ),
        "paper-sim": Size(
            preload=2 * MiB, round_s=4.0, epochs=12, arrivals=400, trials=500,
            rebuild_rows=12,
        ),
    },
    "tiny": {
        "clean-mixed": Size(preload=512 * KiB, round_s=0.3, groups=3),
        "zipf-openloop": Size(preload=512 * KiB, round_s=0.3, epochs=2, arrivals=20),
        "degraded-recovery": Size(
            preload=256 * KiB, round_s=0.3, phase_reads=3, reads_per_tick=1
        ),
        "paper-sim": Size(
            preload=256 * KiB, round_s=0.3, epochs=2, arrivals=40, trials=40,
            rebuild_rows=2,
        ),
    },
}
MIN_ROUNDS = 3


def rounds_for(workload: str, seconds: float, size: str = "full") -> int:
    """Round count of a run: ``seconds`` over the nominal round time.

    A fixed function of the arguments, not of measured time, so a faster
    or slower commit does the same work; at least three rounds, so that
    set-up is timed several times.
    """
    return max(MIN_ROUNDS, int(seconds / SIZES[size][workload].round_s))


#: Read op shape shared by clean-mixed and degraded-recovery: B ranges
#: submitted together at queue depth B.  4-64 KiB ranges cross the
#: 24 KiB rs-6-3 stripes, so most ops span stripes and shards.
READ_BATCH = 4
READ_MIN, READ_MAX = 4 * KiB, 64 * KiB
APPEND_MIN, APPEND_MAX = 4 * KiB, 256 * KiB
#: zipf-openloop arrival process.  300 req/s on 4 shards sheds nothing,
#: so an admission rejection signals a regression, not load.
ZIPF_RATE, ZIPF_S = 300.0, 1.2
OPENLOOP_MIN, OPENLOOP_MAX = 4 * KiB, 128 * KiB
#: paper-sim timing-only open loop on one 9-disk volume, below saturation.
SIM_RATE, SIM_MAX = 50.0, 64 * KiB
PAPER_CODES = ("rs-6-3", "lrc-6-2-2")
SHARDS = 4
PRELOAD_CHUNK = 1 * MiB


def _rng(seed: int, rnd: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, rnd, stream])


def _read_ranges(rng: np.random.Generator, user_bytes: int) -> list[tuple[int, int]]:
    out = []
    for _ in range(READ_BATCH):
        n = int(rng.integers(READ_MIN, READ_MAX + 1))
        out.append((int(rng.integers(0, user_bytes - n + 1)), n))
    return out


def _epochs(seed, rnd, sz: Size, stream: int, **shape) -> list[list[tuple]]:
    return [
        list(
            repro.OpenLoopWorkload(
                user_bytes=sz.preload,
                requests=sz.arrivals,
                seed=int(_rng(seed, rnd, stream + e).integers(2**31)),
                **shape,
            ).arrivals()
        )
        for e in range(sz.epochs)
    ]


def make_inputs(workload: str, seed: int, rnd: int = 0, size: str = "full") -> dict[str, Any]:
    """Every input of round ``rnd`` of one workload, from ``seed`` alone."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    sz = SIZES[size][workload]
    inp: dict[str, Any] = {
        "workload": workload,
        "size": sz,
        "data": _rng(seed, rnd, 0).bytes(sz.preload),
    }
    rng = _rng(seed, rnd, 1)
    if workload == "clean-mixed":
        ops: list[tuple[str, Any]] = []
        user = sz.preload
        for _ in range(sz.groups):
            for _ in range(4):
                ops.append(("read", _read_ranges(rng, user)))
            n = int(rng.integers(APPEND_MIN, APPEND_MAX + 1))
            ops.append(("append", rng.bytes(n)))
            user += n
        inp["ops"] = ops
    elif workload == "zipf-openloop":
        inp["epochs"] = _epochs(
            seed, rnd, sz, 10, rate_rps=ZIPF_RATE, min_bytes=OPENLOOP_MIN,
            max_bytes=OPENLOOP_MAX, zipf_s=ZIPF_S,
        )
    elif workload == "degraded-recovery":
        n = make_placement("ec-frm", parse_code_spec("rs-6-3")).num_disks
        inp["failed_disks"] = [int(rng.integers(n)) for _ in range(SHARDS)]
        inp["failed_shard"] = int(rng.integers(SHARDS))
        # Enough read ops for the longest rebuild; the phases take them in
        # order, so the count each phase uses is fixed per seed.
        inp["reads"] = [
            _read_ranges(rng, sz.preload)
            for _ in range(2 * sz.phase_reads + 200 * sz.reads_per_tick)
        ]
    else:  # paper-sim
        inp["config_seed"] = int(rng.integers(2**31))
        inp["epochs"] = _epochs(
            seed, rnd, sz, 20, rate_rps=SIM_RATE, min_bytes=OPENLOOP_MIN,
            max_bytes=SIM_MAX,
        )
    return inp


# ----------------------------------------------------------------------
# samples
# ----------------------------------------------------------------------
class FlatReference:
    """Flat copy of every byte appended: the oracle for every read."""

    def __init__(self, data: bytes = b"") -> None:
        self.buf = bytearray(data)

    def append(self, data: bytes) -> None:
        self.buf.extend(data)

    def matches(self, offset: int, length: int, payload: bytes | None) -> bool:
        return payload is not None and self.buf[offset : offset + length] == payload

    def corrupt(self, offset: int) -> None:
        """Flip one reference byte (self-test: proves the check can fail)."""
        self.buf[offset] ^= 0xFF


#: Calibration loop.  On a shared VM the CPU's speed can drift by +-25%
#: over tens of seconds (other tenants), and the drift hits the program and
#: a plain interpreter loop alike.  While a run measures, a timer signal
#: runs this loop (table lookup, xor and shift: the interpreter work most
#: of the program does) every 20 ms, and each call's wall time is rescaled
#: to the loop's nominal speed averaged over the call and 0.25 s either
#: side.  That cuts the run-to-run spread of a 20 s median from ~20% to a
#: few percent.  Raw wall times are kept beside the normalized ones.
SPIN_ITERS = 1_000
SPIN_NOMINAL_S = 0.2e-3
_SPIN_TABLE = [(i * 2654435761) & 0xFFFFFFFF for i in range(256)]


def _spin() -> float:
    table = _SPIN_TABLE
    t0 = perf_counter()
    acc = 0
    for i in range(SPIN_ITERS):
        acc = table[(acc ^ i) & 0xFF] ^ (acc >> 8)
    return perf_counter() - t0


SAMPLE_EVERY_S = 0.02
SAMPLE_WINDOW_S = 0.25


class SpeedSampler:
    """Times the calibration loop every ``SAMPLE_EVERY_S`` from ``SIGALRM``
    while entered; each sample costs ~0.2 ms."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.spins: list[float] = []
        self._old: Any = None

    def _tick(self, signum, frame) -> None:
        self.times.append(perf_counter())
        self.spins.append(_spin())

    def __enter__(self) -> "SpeedSampler":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def scale(self, t0: float, t1: float) -> float:
        """Nominal over measured loop time around ``[t0, t1]``; 1 without
        samples."""
        lo = bisect.bisect_left(self.times, t0 - SAMPLE_WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + SAMPLE_WINDOW_S)
        if hi <= lo:
            return 1.0
        return SPIN_NOMINAL_S * (hi - lo) / sum(self.spins[lo:hi])


@dataclass
class Round:
    """Samples of one round.

    ``calls`` records every timed call as ``(kind, start, end)``; kinds
    are ``setup``, ``read`` (the workload's foreground reads), ``append``,
    ``recovery`` and ``sweep``.  :meth:`finish` turns them into per-kind
    normalized (``walls``) and raw (``raw``) seconds.  ``sim_*`` hold
    simulated outputs, which repeat exactly for one seed.
    """

    calls: list[tuple[str, float, float]] = field(default_factory=list)
    read_bytes: int = 0
    append_bytes: int = 0
    arrivals: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: bytes and summed simulated makespans behind sim_read_mib_s
    sim_bytes: int = 0
    sim_time_s: float = 0.0
    #: closed loop: each read op's simulated makespan; open loop: each
    #: epoch's simulated p99 latency
    sim_lat_s: list[float] = field(default_factory=list)
    sim_extra: dict[str, float] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    walls: dict[str, list[float]] = field(default_factory=dict)
    raw: dict[str, list[float]] = field(default_factory=dict)

    def finish(self, sampler: SpeedSampler) -> "Round":
        """Fill ``walls`` and ``raw`` once the sampler has run past the
        round's last call."""
        self.walls, self.raw = {}, {}
        for kind, t0, t1 in self.calls:
            self.raw.setdefault(kind, []).append(t1 - t0)
            self.walls.setdefault(kind, []).append((t1 - t0) * sampler.scale(t0, t1))
        return self

    def total(self, field: str = "walls", setup: bool = False) -> float:
        """Seconds in set-up calls, or in every other call."""
        return sum(
            sum(v) for k, v in getattr(self, field).items() if (k == "setup") == setup
        )

    def setup(self, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """A set-up call: its time counts towards ``setup_s``."""
        return self.timed("setup", fn, *args, **kwargs)

    def timed(self, kind: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        self.calls.append((kind, t0, perf_counter()))
        return out

    def op(self, kind: str, fn: Callable, *args: Any, weight: int = 1, **kwargs: Any):
        """One attempted op of ``weight`` requests; an exception fails
        all of them and the round goes on."""
        self.attempted += weight
        try:
            return self.timed(kind, fn, *args, **kwargs)
        except Exception:
            self.fail(weight, traceback.format_exc(limit=3))
            return None

    def fail(self, n: int, why: str) -> None:
        self.failed += n
        if len(self.errors) < 5:
            self.errors.append(why)


class Hooks:
    """Points where the traced run brackets the op program."""

    def ops_begin(self) -> None:
        pass

    def ops_end(self) -> None:
        pass

    def request(self) -> None:
        pass


NO_HOOKS = Hooks()


def _preload(r: Round, target, data: bytes) -> None:
    for i in range(0, len(data), PRELOAD_CHUNK):
        r.setup(target.append, data[i : i + PRELOAD_CHUNK])
    r.setup(target.flush)


def _read_op(r: Round, cluster, ref: FlatReference, ranges, hooks: Hooks, sim: bool = True):
    """One closed-loop read op; ``sim`` adds it to sim_read_mib_s."""
    hooks.request()
    res = r.op("read", cluster.submit, ranges, queue_depth=len(ranges))
    if res is None:
        return
    nbytes = sum(len(p) for p in res.payloads)
    r.read_bytes += nbytes
    if not all(ref.matches(o, n, p) for (o, n), p in zip(ranges, res.payloads)):
        r.fail(1, f"read op {ranges} returned wrong bytes")
    if res.makespan_s:
        r.sim_lat_s.append(res.makespan_s)
        if sim:
            r.sim_bytes += nbytes
            r.sim_time_s += res.makespan_s


def _openloop_epoch(r: Round, call, arrivals, ref: FlatReference | None, hooks: Hooks):
    hooks.request()
    n = len(arrivals)
    res = r.op("read", call, arrivals, weight=n)
    if res is None:
        return
    r.arrivals += n
    r.read_bytes += res.bytes_served
    if res.rejected:
        r.fail(res.rejected, f"{res.rejected} arrivals rejected by admission")
    if ref is not None:
        bad = sum(
            1
            for (_, o, n), p in zip(arrivals, res.payloads)
            if p is not None and not ref.matches(o, n, p)
        )
        if bad:
            r.fail(bad, f"{bad} open-loop payloads returned wrong bytes")
    r.sim_bytes += res.bytes_served
    r.sim_time_s += res.makespan_s
    r.sim_lat_s.append(res.latency.quantile(0.99))


def _cluster_counters(cluster) -> dict[str, float]:
    c = cluster.counters
    out = {
        "cluster.spanning_reads": c.spanning_reads,
        "cluster.sub_reads": sum(c.sub_reads.values()),
        "store.self_heal_writes": sum(
            v.store.health.self_heal_writes for v in cluster.volumes
        ),
    }
    if cluster.hot_tier is not None:
        out["tier.evictions"] = cluster.hot_tier.snapshot()["evictions"]
    return out


def _counter_delta(before: dict, cluster) -> dict[str, float]:
    after = _cluster_counters(cluster)
    out = {k: after[k] - before.get(k, 0) for k in after}
    out["user_bytes"] = cluster.user_bytes
    return out


# ----------------------------------------------------------------------
# rounds
# ----------------------------------------------------------------------
def run_round(
    inp: dict[str, Any],
    *,
    scratch: Path,
    hooks: Hooks = NO_HOOKS,
    corrupt: bool = False,
) -> Round:
    """Set up a fresh system and drive one round of ``inp``'s op program.

    ``corrupt`` flips the reference byte under the first read, which
    must make at least one op fail (paper-sim reads no bytes).
    """
    return _RUNNERS[inp["workload"]](Round(), inp, scratch, hooks, corrupt)


def _clean_mixed(r: Round, inp, scratch, hooks, corrupt) -> Round:
    cluster = r.setup(
        repro.open_cluster, "rs-6-3", shards=SHARDS, layout="ec-frm", element_size=4096
    )
    _preload(r, cluster, inp["data"])
    ref = FlatReference(inp["data"])
    if corrupt:
        ref.corrupt(inp["ops"][0][1][0][0])
    before = _cluster_counters(cluster)
    hooks.ops_begin()
    for kind, arg in inp["ops"]:
        if kind == "read":
            _read_op(r, cluster, ref, arg, hooks)
        else:
            hooks.request()
            if r.op("append", _append_flush, cluster, arg) is not None:
                ref.append(arg)
                r.append_bytes += len(arg)
    hooks.ops_end()
    r.counters = _counter_delta(before, cluster)
    if cluster.user_bytes != len(ref.buf):
        r.fail(1, f"cluster holds {cluster.user_bytes} user bytes, reference {len(ref.buf)}")
    return r


def _append_flush(cluster, data: bytes) -> int:
    off = cluster.append(data)
    cluster.flush()
    return off


def _zipf_openloop(r: Round, inp, scratch, hooks, corrupt) -> Round:
    cluster = r.setup(
        repro.open_cluster, "rs-6-3", shards=SHARDS, layout="ec-frm",
        element_size=4096, cache=True,
    )
    _preload(r, cluster, inp["data"])
    ref = FlatReference(inp["data"])
    if corrupt:
        ref.corrupt(inp["epochs"][0][0][1])
    before = _cluster_counters(cluster)
    hooks.ops_begin()
    # Epochs run in order on one cluster: stripes promoted in one epoch
    # serve the next.
    for arrivals in inp["epochs"]:
        _openloop_epoch(
            r, lambda a: cluster.submit_open_loop(a, materialize=True), arrivals, ref, hooks
        )
    hooks.ops_end()
    r.counters = _counter_delta(before, cluster)
    return r


def _degraded_recovery(r: Round, inp, scratch, hooks, corrupt) -> Round:
    sz: Size = inp["size"]
    journal_dir = Path(tempfile.mkdtemp(prefix="round-", dir=scratch))
    try:
        cluster = r.setup(
            repro.open_cluster, "rs-6-3", shards=SHARDS, map="d3",
            element_size=4096, recovery=journal_dir / "rebuild",
        )
        _preload(r, cluster, inp["data"])
        for vol, disk in zip(cluster.volumes, inp["failed_disks"]):
            r.setup(vol.store.array.fail_disk, disk)
        ref = FlatReference(inp["data"])
        if corrupt:
            ref.corrupt(inp["reads"][0][0][0])
        reads = iter(inp["reads"])
        before = _cluster_counters(cluster)
        hooks.ops_begin()
        # phase A: degraded reads before any repair
        for _ in range(sz.phase_reads):
            _read_op(r, cluster, ref, next(reads), hooks)
        # phase B: rebuild tick by tick, foreground reads in between
        ticks = 0
        while True:
            hooks.request()
            busy = r.op("recovery", cluster.recovery_tick)
            ticks += 1
            if not busy:
                break
            if ticks > 200:
                r.fail(1, "recovery still busy after 200 ticks")
                break
            for _ in range(sz.reads_per_tick):
                _read_op(r, cluster, ref, next(reads), hooks, sim=False)
        r.sim_extra["ticks"] = ticks
        # phase C: drain one shard, then read from the survivors
        hooks.request()
        report = r.op(
            "recovery",
            cluster.fail_shard,
            inp["failed_shard"],
            journal=MigrationJournal(journal_dir / "drain.jsonl"),
        )
        for _ in range(sz.phase_reads):
            _read_op(r, cluster, ref, next(reads), hooks, sim=False)
        hooks.ops_end()
        r.counters = _counter_delta(before, cluster)
        r.counters["drain.stripes_moved"] = report.stripes_recovered if report else 0
    finally:
        shutil.rmtree(journal_dir, ignore_errors=True)
    return r


def _paper_sim(r: Round, inp, scratch, hooks, corrupt) -> Round:
    sz: Size = inp["size"]
    codes = {spec: r.setup(parse_code_spec, spec) for spec in PAPER_CODES}
    placements = {
        (spec, form): r.setup(make_placement, form, code)
        for spec, code in codes.items()
        for form in ("standard", "ec-frm")
    }
    svc = r.setup(repro.open_store, "rs-6-3")
    _preload(r, svc.store, inp["data"])
    config = harness.ExperimentConfig(
        normal_trials=sz.trials, degraded_trials=sz.trials, seed=inp["config_seed"]
    )
    hooks.ops_begin()
    normal = {}
    for spec, code in codes.items():
        hooks.request()
        normal[spec] = r.op("sweep", harness.compare_normal_forms, code, config=config)
        hooks.request()
        r.op("sweep", harness.compare_degraded_forms, code, config=config)
    # Rebuild planning for every disk: its cost depends on which disk
    # failed, so planning all of them keeps the sweep's cost seed-free.
    for placement in placements.values():
        for disk in range(placement.num_disks):
            hooks.request()
            r.op(
                "sweep", engine.plan_disk_rebuild, placement, disk,
                sz.rebuild_rows, optimize=True,
            )
    for arrivals in inp["epochs"]:
        _openloop_epoch(
            r, lambda a: svc.open_loop(a, materialize=False), arrivals, None, hooks
        )
    hooks.ops_end()
    rs = normal.get("rs-6-3")
    if rs is not None:
        # The paper's shape: EC-FRM reads faster than the standard form.
        # A simulator that breaks it must not post a time.
        frm, std = rs["ec-frm"].mean_speed, rs["standard"].mean_speed
        if not frm > std:
            r.fail(1, f"paper shape broken: ec-frm {frm:.2f} <= standard {std:.2f} MiB/s")
        r.sim_extra["frm_normal_mib_s"] = frm
    r.counters = {"user_bytes": svc.store.user_bytes}
    return r


_RUNNERS: dict[str, Callable[..., Round]] = {
    "clean-mixed": _clean_mixed,
    "zipf-openloop": _zipf_openloop,
    "degraded-recovery": _degraded_recovery,
    "paper-sim": _paper_sim,
}
