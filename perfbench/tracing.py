"""Traced run: spans around each layer's public entry points.

The wrappers are installed from here, at the module (or class) where the
program looks each name up, and removed when the run ends; nothing in
``src/`` knows about them.  Every call records a span ``(name, start,
end, parent, request)`` in memory.  A layer's self time is its spans'
durations minus the time their child spans cover.  Counts are recorded
at the same boundaries, so they repeat exactly for one seed.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import repro
from repro.cache.tier import HotTierCache
from repro.cluster.service import ClusterService
from repro.disks.array import DiskArray
from repro.disks.model import DiskModel
from repro.engine.concurrency import simulate_concurrent
from repro.engine.degraded import plan_degraded_read
from repro.engine.pipeline.scheduler import RequestPipeline
from repro.engine.plancache import PlanCache
from repro.engine.planner import plan_normal_read
from repro.engine.rebuild import plan_disk_rebuild
from repro.gf import field as gf_field
from repro.gf.matrix import rank as gf_rank
from repro.harness.experiment import compare_degraded_forms, compare_normal_forms
from repro.migrate.journal import MigrationJournal
from repro.recovery.orchestrator import RecoveryOrchestrator
from repro.store.blockstore import BlockStore
from repro.store.verify import crc32c

from workloads import Hooks

Hook = Callable[["Recorder", tuple, dict, Any], None]


class Recorder(Hooks):
    """In-memory span store plus per-layer self time, calls and counts."""

    def __init__(self) -> None:
        #: (layer, start, end, parent span index, request id); a slot is
        #: reserved when a span opens and filled when it closes
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        #: open spans: [span index, child time, layer]
        self.stack: list[list] = []
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.req = 0
        #: spans are recorded only around the op program, not set-up
        self.active = False
        self._journal_sizes: dict[Path, int] = {}

    # -- Hooks --------------------------------------------------------
    def request(self) -> None:
        self.req += 1

    def ops_begin(self) -> None:
        self.active = True

    def ops_end(self) -> None:
        self.active = False

    # -- spans --------------------------------------------------------
    def in_layer(self, layer: str) -> bool:
        return any(frame[2] == layer for frame in self.stack)

    def wrap(self, layer: str, fn: Callable, after: Hook | None = None) -> Callable:
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            parent = rec.stack[-1][0] if rec.stack else -1
            idx = len(rec.spans)
            rec.spans.append(None)
            frame = [idx, 0.0, layer]
            rec.stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                if after is not None:
                    after(rec, args, kwargs, out)
                return out
            finally:
                t1 = perf_counter()
                rec.stack.pop()
                dur = t1 - t0
                rec.spans[idx] = (layer, t0, t1, parent, rec.req)
                rec.self_s[layer] += dur - frame[1]
                rec.calls[layer] += 1
                if rec.stack:
                    rec.stack[-1][1] += dur

        return traced

    def write(self, path: Path) -> None:
        """Write the spans out as JSON lines (one span per line)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, req in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "request": req},
                        separators=(",", ":"),
                    )
                    + "\n"
                )


# ----------------------------------------------------------------------
# counting hooks
# ----------------------------------------------------------------------
def _verify(rec, args, kwargs, out):
    rec.counts["verify.bytes"] += len(args[0])


def _lookup(prefix: str) -> Hook:
    def hook(rec, args, kwargs, out):
        rec.counts[f"{prefix}.lookups"] += 1
        rec.counts[f"{prefix}.hits"] += out is not None

    return hook


def _promotion(rec, args, kwargs, out):
    rec.counts["tier.promotions"] += 1


def _pipeline(rec, args, kwargs, out):
    c = rec.counts
    c["pipeline.arrivals"] += out.arrived
    c["pipeline.coalesced"] += out.coalesced
    c["pipeline.hedges_launched"] += out.hedges_launched
    c["pipeline.hedges_wasted"] += out.hedges_wasted
    c["pipeline.rejected"] += out.rejected


def _batch(rec, args, kwargs, out):
    rec.counts["disks.accesses"] += out.total_accesses
    rec.counts["disks.bytes"] += out.total_bytes


def _journal(rec, args, kwargs, out):
    journal = args[0]
    size = journal.path.stat().st_size
    rec.counts["journal.records"] += 1
    rec.counts["journal.bytes"] += size - rec._journal_sizes.get(journal.path, 0)
    rec._journal_sizes[journal.path] = size


def _commit(rec, args, kwargs, out):
    _journal(rec, args, kwargs, out)
    if rec.in_layer("recovery"):
        rec.counts["recovery.windows"] += 1


# What is wrapped: (layer, function, hook) and (layer, class, method,
# hook), the hook counting work after each call.  A function is wrapped in
# every repro module that binds it, i.e. wherever the program looks it up
# (for example crc32c as repro.store.blockstore.crc32c); a method on its
# class and on every subclass that overrides it.
FUNCTIONS = [
    ("verify", crc32c, _verify),
    ("gf.rank", gf_rank, None),
    ("plan.normal", plan_normal_read, None),
    ("plan.degraded", plan_degraded_read, None),
    ("plan.rebuild", plan_disk_rebuild, None),
    ("concurrency", simulate_concurrent, None),
    ("harness", compare_normal_forms, None),
    ("harness", compare_degraded_forms, None),
]
METHODS = [
    ("encode", repro.codes.base.ErasureCode, "encode", None),
    ("decode", repro.codes.base.ErasureCode, "decode", None),
    ("gf.axpy", gf_field.GF, "axpy", None),
    ("plancache.lookup", PlanCache, "lookup", _lookup("plancache")),
    ("plancache.build", PlanCache, "build", None),
    ("pipeline", RequestPipeline, "run_jobs", _pipeline),
    ("disks.batch", DiskArray, "execute_batch", _batch),
    ("disks.service_time", DiskModel, "service_time_s", None),
    ("tier", HotTierCache, "lookup", _lookup("tier")),
    ("tier", HotTierCache, "insert", _promotion),
    ("tier", HotTierCache, "wants_promotion", None),
    ("cluster", ClusterService, "submit", None),
    ("cluster", ClusterService, "submit_open_loop", None),
    ("cluster", ClusterService, "append", None),
    ("cluster", ClusterService, "flush", None),
    ("store", BlockStore, "execute_read", None),
    ("store", BlockStore, "append", None),
    ("recovery", RecoveryOrchestrator, "tick", None),
    ("journal", MigrationJournal, "write_plan", _journal),
    ("journal", MigrationJournal, "write_stage", _journal),
    ("journal", MigrationJournal, "write_commit", _commit),
    ("journal", MigrationJournal, "write_checkpoint", _journal),
    ("drain", ClusterService, "fail_shard", None),
]


def _subclasses(cls: type) -> list[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


class Installed:
    """Context manager: wrappers in place while the block runs."""

    def __init__(self, rec: Recorder) -> None:
        self.rec = rec
        self._undo: list[tuple[Any, str, Any]] = []

    def _patch(self, owner: Any, name: str, new: Any) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def __enter__(self) -> Recorder:
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "repro"]
        for layer, fn, hook in FUNCTIONS:
            traced = self.rec.wrap(layer, fn, hook)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, name, traced)
        for layer, base, attr, hook in METHODS:
            for cls in _subclasses(base):
                fn = cls.__dict__.get(attr)
                if inspect.isfunction(fn) and not getattr(fn, "__isabstractmethod__", False):
                    self._patch(cls, attr, self.rec.wrap(layer, fn, hook))
        return self.rec

    def __exit__(self, *exc) -> None:
        for owner, name, old in reversed(self._undo):
            setattr(owner, name, old)
        self._undo.clear()


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, traced, untraced) -> dict[str, float]:
    """Every per-layer metric of one traced round, by name.

    ``traced`` and ``untraced`` are the :class:`workloads.Round` of the
    traced round and of an untraced round of the same inputs.  The
    end-to-end wall is the raw time spent inside the program's API calls;
    ``traced.counters`` are the program's own counters, read through its
    public objects after the round.
    """
    s, n, c = rec.self_s, rec.calls, rec.counts
    wall = traced.total("raw")
    counters, read_bytes = traced.counters, traced.read_bytes
    covered = sum(s.values())
    return {
        "verify.calls": n["verify"],
        "verify.kib": c["verify.bytes"] / 1024,
        "verify.self_s": s["verify"],
        "verify.share": _ratio(s["verify"], wall),
        "encode.calls": n["encode"],
        "encode.self_s": s["encode"],
        "encode.us_per_row": _ratio(s["encode"], n["encode"]) * 1e6,  # one row per call
        "decode.calls": n["decode"],
        "decode.self_s": s["decode"],
        "decode.us_per_call": _ratio(s["decode"], n["decode"]) * 1e6,
        "gf.axpy.calls": n["gf.axpy"],
        "gf.axpy.self_s": s["gf.axpy"],
        "gf.rank.calls": n["gf.rank"],
        "gf.rank.self_s": s["gf.rank"],
        "plancache.lookups": c["plancache.lookups"],
        "plancache.hit_rate": _ratio(c["plancache.hits"], c["plancache.lookups"]),
        "plancache.builds": n["plancache.build"],
        "plancache.build.self_s": s["plancache.build"],
        "plan.normal.self_s": s["plan.normal"],
        "plan.degraded.self_s": s["plan.degraded"],
        "plan.rebuild.self_s": s["plan.rebuild"],
        "plan.calls": n["plan.normal"] + n["plan.degraded"] + n["plan.rebuild"],
        "concurrency.calls": n["concurrency"],
        "concurrency.self_s": s["concurrency"],
        "pipeline.self_s": s["pipeline"],
        "pipeline.arrivals": c["pipeline.arrivals"],
        "pipeline.us_per_arrival": _ratio(s["pipeline"], c["pipeline.arrivals"]) * 1e6,
        "pipeline.coalesced": c["pipeline.coalesced"],
        "pipeline.hedges_launched": c["pipeline.hedges_launched"],
        "pipeline.hedge_waste_ratio": _ratio(
            c["pipeline.hedges_wasted"], c["pipeline.hedges_launched"]
        ),
        "pipeline.rejected": c["pipeline.rejected"],
        "disks.batches": n["disks.batch"],
        "disks.batch.self_s": s["disks.batch"],
        "disks.service_time.calls": n["disks.service_time"],
        "disks.service_time.self_s": s["disks.service_time"],
        "disks.accesses": c["disks.accesses"],
        "disks.read_amp": _ratio(c["disks.bytes"], read_bytes),
        "tier.lookups": c["tier.lookups"],
        "tier.hit_rate": _ratio(c["tier.hits"], c["tier.lookups"]),
        "tier.promotions": c["tier.promotions"],
        "tier.evictions": counters.get("tier.evictions", 0),
        "tier.self_s": s["tier"],
        "cluster.self_s": s["cluster"],
        "cluster.spanning_reads": counters.get("cluster.spanning_reads", 0),
        "cluster.sub_reads": counters.get("cluster.sub_reads", 0),
        "store.self_s": s["store"],
        "store.self_heal_writes": counters.get("store.self_heal_writes", 0),
        "recovery.ticks": n["recovery"],
        "recovery.tick.self_s": s["recovery"],
        "recovery.windows": c["recovery.windows"],
        "journal.records": c["journal.records"],
        "journal.self_s": s["journal"],
        "journal.bytes_per_user_byte": _ratio(c["journal.bytes"], counters.get("user_bytes", 0)),
        "drain.stripes_moved": counters.get("drain.stripes_moved", 0),
        "drain.self_s": s["drain"],
        "harness.self_s": s["harness"],
        "trace.spans": len(rec.spans),
        "trace.overhead": _ratio(traced.total(), untraced.total()) - 1.0,
        "trace.coverage": _ratio(covered, wall),
    }


_C, _S = ("count", "lower"), ("s", "lower")
#: Per-layer metrics: name -> (unit, better).
LAYER_SPEC: dict[str, tuple[str, str]] = {
    "verify.calls": _C,
    "verify.kib": ("KiB", "lower"),
    "verify.self_s": _S,
    "verify.share": ("fraction", "lower"),
    "encode.calls": _C,
    "encode.self_s": _S,
    "encode.us_per_row": ("us", "lower"),
    "decode.calls": _C,
    "decode.self_s": _S,
    "decode.us_per_call": ("us", "lower"),
    "gf.axpy.calls": _C,
    "gf.axpy.self_s": _S,
    "gf.rank.calls": _C,
    "gf.rank.self_s": _S,
    "plancache.lookups": _C,
    "plancache.hit_rate": ("fraction", "higher"),
    "plancache.builds": _C,
    "plancache.build.self_s": _S,
    "plan.normal.self_s": _S,
    "plan.degraded.self_s": _S,
    "plan.rebuild.self_s": _S,
    "plan.calls": _C,
    "concurrency.calls": _C,
    "concurrency.self_s": _S,
    "pipeline.self_s": _S,
    "pipeline.arrivals": ("count", "higher"),
    "pipeline.us_per_arrival": ("us", "lower"),
    "pipeline.coalesced": ("count", "higher"),
    "pipeline.hedges_launched": _C,
    "pipeline.hedge_waste_ratio": ("fraction", "lower"),
    "pipeline.rejected": _C,
    "disks.batches": _C,
    "disks.batch.self_s": _S,
    "disks.service_time.calls": _C,
    "disks.service_time.self_s": _S,
    "disks.accesses": _C,
    "disks.read_amp": ("ratio", "lower"),
    "tier.lookups": ("count", "higher"),
    "tier.hit_rate": ("fraction", "higher"),
    "tier.promotions": _C,
    "tier.evictions": _C,
    "tier.self_s": _S,
    "cluster.self_s": _S,
    "cluster.spanning_reads": _C,
    "cluster.sub_reads": _C,
    "store.self_s": _S,
    "store.self_heal_writes": _C,
    "recovery.ticks": _C,
    "recovery.tick.self_s": _S,
    "recovery.windows": _C,
    "journal.records": _C,
    "journal.self_s": _S,
    "journal.bytes_per_user_byte": ("ratio", "lower"),
    "drain.stripes_moved": _C,
    "drain.self_s": _S,
    "harness.self_s": _S,
    "trace.spans": _C,
    "trace.overhead": ("fraction", "lower"),
    "trace.coverage": ("fraction", "higher"),
}
