"""Sharded multi-volume cluster: stripes spread across independent volumes.

EC-FRM's row-major placement spreads one volume's reads across all ``n``
disks of *its* array; this module scales the same idea out.  A
:class:`ClusterService` places whole candidate stripes across ``S``
independent :class:`~repro.store.blockstore.BlockStore` volumes — each
with its own :class:`~repro.disks.array.DiskArray`, placement and
:class:`~repro.engine.service.ReadService` — via a deterministic
stripe→shard map (:mod:`repro.cluster.shardmap`), and serves byte-range
reads by splitting them at stripe boundaries, fanning the pieces out to
the owning shards' services, and reassembling byte-correct results.

Faults stay shard-local: a crashed disk degrades reads on its shard only
(that shard's service replans and reconstructs as usual) while every
other shard serves clean — the cluster-level analogue of the paper's
single-failure story.  Per-shard metrics registries roll up into a
``cluster.`` namespace carrying the cluster-wide load-imbalance statistic
(max/mean disk busy time, the Figure 8/9 metric lifted to the cluster),
tracer spans carry a ``shard`` attribute, fault schedules can target an
individual shard (:meth:`ClusterService.attach_injector`), and
:meth:`ClusterService.add_shard` rebalances stripes onto a new shard with
the migration journal providing crash safety.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, NamedTuple, Sequence

from ..cache import CacheConfig, HotTierCache
from ..codes.base import ErasureCode
from ..disks.model import DiskModel
from ..disks.presets import SAVVIO_10K3
from ..engine.service import BatchReadResult, ReadService
from ..migrate.transfer import open_journal
from ..net import Topology, TransferSummary
from ..obs import NULL_TRACER, MetricsRegistry, Tracer
from ..store.blockstore import BlockStore
from .rebalance import RebalanceReport, ShardRecoveryReport, run_rebalance
from .shardmap import ShardMap, make_shard_map

if TYPE_CHECKING:  # pragma: no cover - optional collaborators
    from ..engine.pipeline import RequestPipeline
    from ..faults import FaultInjector, FaultSchedule
    from ..migrate.journal import MigrationJournal
    from ..recovery import DetectorConfig, RecoveryOrchestrator

__all__ = [
    "RebalanceUnsupportedError",
    "ShardTracer",
    "ShardVolume",
    "ClusterCounters",
    "ClusterReadResult",
    "ClusterService",
    "InjectorHandle",
]


class RebalanceUnsupportedError(ValueError):
    """Raised by :meth:`ClusterService.add_shard` on an unstable map.

    Subclasses :class:`ValueError` so existing callers (including the CLI's
    ``add-shard refused`` path) keep working; carries the offending
    :class:`~repro.cluster.shardmap.ShardMap` so programmatic callers can
    switch maps instead of string-matching the message.
    """

    def __init__(self, map: ShardMap) -> None:
        self.map = map
        super().__init__(
            f"{map.name} map ({type(map).__name__}) does not support "
            "rebalancing (adding a shard would remap ~S/(S+1) of all "
            "stripes); use hash-ring"
        )


class ShardTracer:
    """A shard-tagging view of a shared :class:`~repro.obs.Tracer`.

    Every span the shard's store and service emit through this view
    carries a ``shard`` attribute, so one cluster-wide trace can be
    filtered per shard.  Duck-typed to the tracer surface the read path
    uses (``enabled`` / ``request`` / ``span`` / ``record`` / ``point`` /
    ``breakdown``); disabled parents stay zero-overhead because every
    call forwards to the parent's own enabled check.
    """

    __slots__ = ("_parent", "shard")

    def __init__(self, parent: Tracer, shard: int) -> None:
        self._parent = parent
        self.shard = shard

    @property
    def enabled(self) -> bool:
        return self._parent.enabled

    @property
    def spans(self):
        return self._parent.spans

    def request(self, name: str = "read", **attrs: Any):
        return self._parent.request(name, shard=self.shard, **attrs)

    def span(self, name: str, **attrs: Any):
        return self._parent.span(name, shard=self.shard, **attrs)

    def record(
        self, name: str, duration_s: float, *, clock: str = "sim", **attrs: Any
    ) -> None:
        self._parent.record(
            name, duration_s, clock=clock, shard=self.shard, **attrs
        )

    def point(self, name: str, **attrs: Any) -> None:
        self._parent.point(name, shard=self.shard, **attrs)

    def breakdown(self, **kwargs: Any) -> dict:
        return self._parent.breakdown(**kwargs)


@dataclass(frozen=True)
class ShardVolume:
    """One shard: an independent store + service + metrics registry."""

    shard_id: int
    store: BlockStore
    service: ReadService
    registry: MetricsRegistry


@dataclass
class ClusterCounters:
    """Cumulative cluster-frontend counters."""

    requests: int = 0
    batches: int = 0
    bytes_served: int = 0
    #: requests whose byte range crossed at least one shard boundary.
    spanning_reads: int = 0
    #: sub-reads fanned out, per shard id.
    sub_reads: dict[int, int] = field(default_factory=dict)
    rebalances: int = 0
    stripes_moved: int = 0
    #: completed single-shard drain recoveries (``fail_shard``).
    recoveries: int = 0


@dataclass(frozen=True)
class ClusterReadResult:
    """Outcome of one :meth:`ClusterService.submit` batch.

    Attributes
    ----------
    payloads:
        The requested byte ranges, submission order, byte-exact.
    shard_results:
        The per-shard :class:`BatchReadResult` of every shard that served
        at least one sub-read, keyed by shard id.
    makespan_s:
        Cluster batch wall-clock on the simulated clock: shards run in
        parallel, so this is the *max* of the per-shard makespans.
        ``None`` when any shard served through the plan-less
        multi-failure fallback (no closed-loop timing exists for it).
    bytes_served:
        Total payload bytes across the batch.
    """

    payloads: list[bytes]
    shard_results: dict[int, BatchReadResult]
    makespan_s: float | None
    bytes_served: int

    @property
    def throughput_mib_s(self) -> float | None:
        """Aggregate cluster throughput in MiB/s (None if untimed)."""
        if not self.makespan_s:
            return None
        return self.bytes_served / self.makespan_s / (1024 * 1024)


class _Route(NamedTuple):
    """One logical range as routed by :meth:`ClusterService._route`."""

    #: physical offset of the range's first byte (pad excision anchor).
    phys_start: int
    #: logical bytes wanted.
    length: int
    #: assembly program, see :meth:`ClusterService._assemble`.
    segments: list[tuple]
    #: indices into the call's sub-read list, in assembly order.
    reads: list[int]


class InjectorHandle:
    """Detachable handle for one shard-targeted fault injector.

    Returned by :meth:`ClusterService.attach_injector` so attach and
    detach are symmetric: call :meth:`detach` to unhook exactly this
    schedule (``detach_injectors`` remains the bulk form).  Every other
    attribute (``fired``, ``skipped``, counters, …) delegates to the
    wrapped :class:`~repro.faults.FaultInjector`, so existing callers
    that treated the return value as the injector keep working.
    """

    __slots__ = ("injector", "shard", "_cluster")

    def __init__(
        self, injector: "FaultInjector", shard: int, cluster: "ClusterService"
    ) -> None:
        self.injector = injector
        self.shard = shard
        self._cluster = cluster

    def detach(self) -> None:
        """Unhook this injector from its shard; idempotent."""
        self.injector.detach()
        try:
            self._cluster._injectors.remove(self)
        except ValueError:
            pass

    def __getattr__(self, name: str) -> Any:
        return getattr(self.injector, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"InjectorHandle(shard={self.shard}, injector={self.injector!r})"


class ClusterService:
    """Byte-range read/write frontend over ``S`` sharded volumes.

    Parameters
    ----------
    code:
        The erasure code every volume uses.
    shards:
        Number of shards (ignored when ``map`` is a pre-built
        :class:`ShardMap`, which knows its own count).
    map:
        Shard-map name (``"hash-ring"`` / ``"round-robin"``) or instance.
    form:
        Placement form for every shard's store.
    element_size / disk_model:
        Per-volume store geometry, as for :class:`BlockStore`.
    tracer:
        Cluster-wide tracer; each shard sees it through a
        :class:`ShardTracer`, so every span carries its shard id.
    registry:
        Cluster-level registry the ``cluster`` namespace collector is
        registered into (fresh when omitted).  Each shard additionally
        keeps its own private registry — see :meth:`shard_metrics`.
    map_seed / vnodes:
        Hash-ring parameters when ``map`` is given by name.
    cache_capacity:
        Per-shard plan-cache capacity (caches are per shard: plans embed
        per-volume failure signatures, which shards don't share).
    cache:
        Hot-tier replica cache in front of the whole cluster: ``None``
        (default) disables the tier, a
        :class:`~repro.cache.CacheConfig` builds one, and a pre-built
        :class:`~repro.cache.HotTierCache` is adopted as-is.  The tier
        serves whole-stripe replicas of Zipf-hot stripes straight from
        memory — hits bypass the shards (and their
        :class:`~repro.disks.array.DiskArray` simulators) entirely —
        and its eviction weight tracks each stripe's live degraded-read
        cost through the recovery plane's detector state.
    """

    def __init__(
        self,
        code: ErasureCode,
        *,
        shards: int = 2,
        map: str | ShardMap = "hash-ring",
        form: str = "ec-frm",
        element_size: int = 1024,
        disk_model: DiskModel = SAVVIO_10K3,
        tracer: Tracer | None = None,
        registry: MetricsRegistry | None = None,
        map_seed: int = 0,
        vnodes: int = 96,
        cache_capacity: int = 256,
        cache: CacheConfig | HotTierCache | None = None,
        topology: Topology | str | None = None,
    ) -> None:
        self.code = code
        #: rack topology shared by every shard's store (Topology is
        #: immutable, so one instance serves all volumes).  When set,
        #: each shard plans minimum-transfer repairs and the cluster
        #: publishes the rolled-up ``net.*`` namespace.
        self.topology = (
            Topology.from_spec(topology, code.n) if topology is not None else None
        )
        self.map = (
            map
            if isinstance(map, ShardMap)
            else make_shard_map(map, shards, vnodes=vnodes, seed=map_seed)
        )
        self.form = form
        self.element_size = element_size
        self.disk_model = disk_model
        self.cache_capacity = cache_capacity
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.registry = registry if registry is not None else MetricsRegistry()
        self.volumes: list[ShardVolume] = [
            self._new_volume(sid) for sid in range(self.map.num_shards)
        ]
        self.counters = ClusterCounters()
        self._pending = bytearray()
        self._user_bytes = 0
        #: global stripe id -> (shard id, local row on that shard's store).
        #: Reads route through this table, not the map, so rebalancing can
        #: flip entries one stripe at a time without a stale-read window.
        self._locations: list[tuple[int, int]] = []
        #: physical (start, length) of flush-inserted zero-pad runs in the
        #: cluster's stripe-space byte stream (same scheme as BlockStore).
        self._pad_runs: list[tuple[int, int]] = []
        #: orphaned source rows left behind by rebalance moves, per shard.
        self.garbage_rows: dict[int, int] = {}
        self._injectors: list[InjectorHandle] = []
        #: per-shard recovery planes, populated by :meth:`enable_recovery`.
        self.orchestrators: list["RecoveryOrchestrator"] = []
        #: the latest open-loop run's pipeline (``service.pipeline.*``).
        self._pipeline: "RequestPipeline | None" = None
        #: the hot-tier replica cache (None when disabled).
        self.hot_tier: HotTierCache | None
        if isinstance(cache, HotTierCache):
            self.hot_tier = cache
            if self.hot_tier.cost_of is None:
                self.hot_tier.cost_of = self._stripe_cost
        elif cache is not None:
            self.hot_tier = HotTierCache(cache, cost_of=self._stripe_cost)
        else:
            self.hot_tier = None
        self.registry.register_collector("cluster", self._cluster_snapshot)
        self.registry.register_collector("net", self._net_snapshot)
        self.registry.register_collector("cache", self._cache_snapshot)
        self.registry.register_collector("recovery", self._recovery_snapshot)
        self.registry.register_collector("service", self._service_rollup)

    def _new_volume(self, shard_id: int) -> ShardVolume:
        registry = MetricsRegistry()
        tracer = ShardTracer(self.tracer, shard_id)
        store = BlockStore(
            self.code,
            self.form,
            element_size=self.element_size,
            disk_model=self.disk_model,
            tracer=tracer,  # duck-typed tracer view
            registry=registry,
            topology=self.topology,
        )
        service = ReadService(store, cache_capacity=self.cache_capacity)
        return ShardVolume(
            shard_id=shard_id, store=store, service=service, registry=registry
        )

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        """Shards currently in the cluster (failed ones included)."""
        return len(self.volumes)

    @property
    def failed_shards(self) -> set[int]:
        """Shards drained by :meth:`fail_shard`; they own no stripes."""
        return set(self.map.excluded)

    @property
    def live_shard_ids(self) -> list[int]:
        """Shard ids that can own stripes, ascending."""
        return [
            vol.shard_id
            for vol in self.volumes
            if vol.shard_id not in self.map.excluded
        ]

    @property
    def stripe_bytes(self) -> int:
        """User bytes per stripe — the placement and read-split unit."""
        return self.code.k * self.element_size

    @property
    def stripes_written(self) -> int:
        """Stripes durably placed across the cluster."""
        return len(self._locations)

    @property
    def user_bytes(self) -> int:
        """Durable bytes appended, excluding cluster flush padding."""
        return self._user_bytes

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered awaiting a full stripe."""
        return len(self._pending)

    def locate_stripe(self, stripe: int) -> tuple[int, int]:
        """Current ``(shard id, local row)`` of global stripe ``stripe``."""
        return self._locations[stripe]

    def stripes_per_shard(self) -> dict[int, int]:
        """Live stripe count per shard (moved-away stripes excluded)."""
        out = {vol.shard_id: 0 for vol in self.volumes}
        for sid, _ in self._locations:
            out[sid] += 1
        return out

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def append(self, data: bytes) -> int:
        """Append bytes; each completed stripe is placed on its shard.

        Returns the logical offset at which ``data`` begins (flush padding
        excluded), directly usable with :meth:`read` — the same contract
        as :meth:`BlockStore.append`.
        """
        offset = self._user_bytes + len(self._pending)
        self._pending.extend(data)
        sb = self.stripe_bytes
        while len(self._pending) >= sb:
            chunk = bytes(self._pending[:sb])
            del self._pending[:sb]
            self._place_stripe(chunk, user_len=sb)
        return offset

    def flush(self) -> None:
        """Zero-pad and place any partial pending stripe.

        Pad bytes are durable on the owning shard but invisible to the
        cluster's logical stream, exactly like :meth:`BlockStore.flush`.
        """
        if self._pending:
            pending_len = len(self._pending)
            sb = self.stripe_bytes
            pad_start = len(self._locations) * sb + pending_len
            self._pad_runs.append((pad_start, sb - pending_len))
            chunk = bytes(self._pending).ljust(sb, b"\0")
            self._pending.clear()
            self._place_stripe(chunk, user_len=pending_len)

    def _place_stripe(self, chunk: bytes, user_len: int) -> None:
        g = len(self._locations)
        sid = self.map.shard_of(g)
        vol = self.volumes[sid]
        local_row = vol.store.rows_written
        vol.store.append(chunk)  # exactly one full row: flushes immediately
        self._locations.append((sid, local_row))
        self._user_bytes += user_len
        if self.hot_tier is not None:
            # global stripe ids are append-only so g cannot be resident;
            # the unconditional invalidate keeps the write path honest.
            self.hot_tier.invalidate(g)

    def apply_move(
        self, stripe: int, target: int, data_elems: Sequence[bytes]
    ) -> None:
        """Rebalance write point: land ``stripe`` on shard ``target``.

        Appends the stripe's data payloads to the target store (parity is
        re-encoded there) and flips the location entry; the source copy
        becomes garbage.  Called by :func:`repro.cluster.rebalance.
        run_rebalance` — one location flip per move keeps concurrent
        reads byte-correct throughout.
        """
        sid_old, _ = self._locations[stripe]
        tvol = self.volumes[target]
        local_row = tvol.store.rows_written
        tvol.store.append(b"".join(data_elems))
        self._locations[stripe] = (target, local_row)
        self.garbage_rows[sid_old] = self.garbage_rows.get(sid_old, 0) + 1
        self.counters.stripes_moved += 1
        if self.hot_tier is not None:
            # write-through invalidation: the replica (keyed by global
            # stripe id) must never outlive a relocation of its row.
            self.hot_tier.invalidate(stripe)

    # ------------------------------------------------------------------
    # logical <-> physical translation (cluster pad runs)
    # ------------------------------------------------------------------
    def _logical_to_physical(self, offset: int) -> int:
        phys = offset
        for pad_start, pad_len in self._pad_runs:
            if phys >= pad_start:
                phys += pad_len
            else:
                break
        return phys

    def _excise_padding(self, buf: bytes, phys_start: int) -> bytes:
        end = phys_start + len(buf)
        pieces: list[bytes] = []
        cursor = phys_start
        for pad_start, pad_len in self._pad_runs:
            pad_end = pad_start + pad_len
            if pad_end <= cursor:
                continue
            if pad_start >= end:
                break
            if pad_start > cursor:
                pieces.append(buf[cursor - phys_start : pad_start - phys_start])
            cursor = min(pad_end, end)
        if cursor < end:
            pieces.append(buf[cursor - phys_start :])
        return b"".join(pieces)

    def _split_physical(
        self, phys_start: int, phys_len: int
    ) -> list[tuple[int, int, int, int]]:
        """Split a physical byte window into per-stripe sub-ranges.

        Returns ``[(global stripe id, shard id, local offset, length),
        ...]`` in stream order — one piece per stripe touched (shard
        stores never pad, so local offsets are plain ``row *
        stripe_bytes`` arithmetic; the stripe id keys the hot tier).
        """
        sb = self.stripe_bytes
        end = phys_start + phys_len
        pieces: list[tuple[int, int, int, int]] = []
        for g in range(phys_start // sb, (end - 1) // sb + 1):
            lo = max(phys_start, g * sb)
            hi = min(end, (g + 1) * sb)
            sid, local_row = self._locations[g]
            pieces.append((g, sid, local_row * sb + (lo - g * sb), hi - lo))
        return pieces

    # ------------------------------------------------------------------
    # hot tier
    # ------------------------------------------------------------------
    def _shard_degraded(self, sid: int) -> bool:
        """Whether shard ``sid`` currently serves through reconstruction.

        With a recovery plane attached this is the detector's live view
        (SUSPECTED / FAILED / REBUILDING all mean reads there may pay a
        decode); without one it falls back to raw array failure flags.
        """
        if self.orchestrators:
            from ..recovery import DiskState

            return any(
                st is not DiskState.HEALTHY
                for st in self.orchestrators[sid].detector.states().values()
            )
        return any(d.failed for d in self.volumes[sid].store.array.disks)

    def _stripe_cost(self, stripe: int) -> float:
        """Live eviction weight of a resident stripe.

        Stripes whose shard is degraded cost ``degraded_cost`` (a miss
        re-reads through a k-element reconstruction); healthy shards
        cost 1.0.  Bound into the tier as its ``cost_of`` callback."""
        sid, _ = self._locations[stripe]
        if self._shard_degraded(sid):
            return (
                self.hot_tier.config.degraded_cost
                if self.hot_tier is not None
                else 1.0
            )
        return 1.0

    def _tier_lookup(self, g: int) -> bytes | None:
        """One traced hot-tier consult for global stripe ``g``."""
        payload = self.hot_tier.lookup(g)
        if self.tracer.enabled:
            self.tracer.point(
                "tier_lookup", stripe=g, hit=payload is not None
            )
        return payload

    # ------------------------------------------------------------------
    # read path: one router and one assembler behind both entry points
    # ------------------------------------------------------------------
    def _route(
        self, ranges: Sequence[tuple[int, int]], *, share_widened: bool
    ) -> tuple[list[_Route], list[tuple[int, int, int]]]:
        """Map logical byte ranges to assembly segments and sub-reads.

        Every range is validated before anything is looked up or counted,
        so a refused call leaves the tier and the counters untouched.
        Each range is then split at stripe boundaries and, with a hot
        tier attached, every piece consults it once: a hit becomes a
        literal slice of the replica, a hot-enough miss widens its
        sub-read to the whole stripe (promoted, then sliced, on
        assembly), and anything else is a sub-read as-is.  With
        ``share_widened`` a stripe already widened earlier in the call
        reuses that fetch instead of issuing another.

        Returns one :class:`_Route` per range plus the call's distinct
        ``(shard id, local offset, length)`` sub-reads, which the routes'
        ``reads`` index.
        """
        for offset, length in ranges:
            if offset < 0 or length <= 0:
                raise ValueError(
                    f"invalid byte range offset={offset} length={length}"
                )
            if offset + length > self._user_bytes:
                raise ValueError(
                    f"range [{offset}, {offset + length}) beyond stored "
                    f"{self._user_bytes} user bytes (flush() pending data "
                    "first)"
                )
        sb = self.stripe_bytes
        tier = self.hot_tier
        subreads: list[tuple[int, int, int]] = []
        #: stripe -> index of its whole-stripe sub-read (sharing only).
        widened: dict[int, int] = {}
        routes: list[_Route] = []
        for offset, length in ranges:
            phys_first = self._logical_to_physical(offset)
            phys_last = self._logical_to_physical(offset + length - 1)
            pieces = self._split_physical(phys_first, phys_last - phys_first + 1)
            if len({sid for _, sid, _, _ in pieces}) > 1:
                self.counters.spanning_reads += 1
            segments: list[tuple] = []
            reads: list[int] = []
            for g, sid, local_off, piece_len in pieces:
                in_off = local_off % sb
                read, segment = (sid, local_off, piece_len), ("part",)
                if tier is not None:
                    payload = self._tier_lookup(g)
                    if payload is not None:
                        segments.append(("lit", payload[in_off : in_off + piece_len]))
                        continue
                    if g in widened:
                        reads.append(widened[g])
                        segments.append(("stripe", in_off, piece_len, g))
                        continue
                    if tier.wants_promotion(g):
                        read = (sid, local_off - in_off, sb)
                        segment = ("stripe", in_off, piece_len, g)
                        if share_widened:
                            widened[g] = len(subreads)
                reads.append(len(subreads))
                subreads.append(read)
                segments.append(segment)
                self.counters.sub_reads[sid] = self.counters.sub_reads.get(sid, 0) + 1
            routes.append(_Route(phys_first, length, segments, reads))
        return routes, subreads

    def _assemble(self, route: _Route, parts: Sequence[bytes]) -> bytes:
        """The logical bytes of one routed range.

        ``parts`` are the payloads of ``route.reads``, in order.  Segment
        kinds: ``("lit", bytes)`` is a tier slice; ``("part",)`` takes
        the next payload as-is; ``("stripe", in_off, n, g)`` takes the
        next payload as the whole of stripe ``g``, promotes it unless
        resident, and slices it.  Flush padding is excised last.  A route
        assembles once, so its program is dropped here: a pipeline keeps
        every job's meta after the run, and the tier slices need not
        outlive the payload.
        """
        out: list[bytes] = []
        it = iter(parts)
        for segment in route.segments:
            kind = segment[0]
            if kind == "lit":
                out.append(segment[1])
            elif kind == "part":
                out.append(next(it))
            else:
                _, in_off, piece_len, g = segment
                stripe_payload = next(it)
                if g not in self.hot_tier:
                    self.hot_tier.insert(g, stripe_payload)
                out.append(stripe_payload[in_off : in_off + piece_len])
        route.segments.clear()
        logical = self._excise_padding(b"".join(out), route.phys_start)
        assert len(logical) == route.length, (
            f"reassembled {len(logical)} bytes, wanted {route.length}"
        )
        return logical

    def read(self, offset: int, length: int) -> bytes:
        """Read ``length`` bytes at logical ``offset``, shard-transparent."""
        return self.submit([(offset, length)], queue_depth=1).payloads[0]

    def submit(
        self,
        ranges: Sequence[tuple[int, int]],
        queue_depth: int = 8,
        *,
        max_retries: int = 3,
    ) -> ClusterReadResult:
        """Serve a batch of byte ranges across the cluster.

        Each range is split at stripe boundaries into per-stripe pieces.
        With a hot tier attached every piece consults it first: a hit is
        served from the stripe's in-memory replica (no shard, no
        :class:`~repro.disks.array.DiskArray` access at all), and a
        hot-enough miss widens its sub-read to the whole stripe so the
        replica can be promoted from the same accounted fetch (once per
        batch, however many ranges touch the stripe).  The remaining
        pieces fan out to the owning shards' services (plan cache,
        closed-loop timing, degraded replan, bounded fault retries — all
        per shard) and everything is reassembled in submission order.
        Shards are independent arrays, so the batch's simulated
        wall-clock is the slowest shard's.
        """
        if not ranges:
            raise ValueError("empty batch")
        routes, subreads = self._route(ranges, share_widened=True)
        per_shard: dict[int, list[tuple[int, int]]] = {}
        #: sub-read index -> (shard id, position in that shard's batch).
        slots: list[tuple[int, int]] = []
        for sid, local_off, piece_len in subreads:
            bucket = per_shard.setdefault(sid, [])
            slots.append((sid, len(bucket)))
            bucket.append((local_off, piece_len))

        shard_results: dict[int, BatchReadResult] = {}
        for sid in sorted(per_shard):
            with self.tracer.span(
                "shard_fanout", shard=sid, sub_reads=len(per_shard[sid])
            ):
                shard_results[sid] = self.volumes[sid].service.submit(
                    per_shard[sid], queue_depth, max_retries=max_retries
                )

        payloads = []
        for route in routes:
            parts = []
            for i in route.reads:
                sid, j = slots[i]
                parts.append(shard_results[sid].payloads[j])
            payloads.append(self._assemble(route, parts))

        makespan: float | None = 0.0
        for result in shard_results.values():
            if result.throughput is None:
                makespan = None
                break
            makespan = max(makespan, result.throughput.makespan_s)
        nbytes = sum(len(p) for p in payloads)
        self.counters.requests += len(ranges)
        self.counters.batches += 1
        self.counters.bytes_served += nbytes
        return ClusterReadResult(
            payloads=payloads,
            shard_results=shard_results,
            makespan_s=makespan,
            bytes_served=nbytes,
        )

    def submit_open_loop(self, arrivals, **pipeline_kwargs):
        """Drive an open-loop arrival process across the cluster.

        ``arrivals`` is an iterable of ``(arrival_s, offset, length)``
        logical byte reads (e.g. an
        :class:`~repro.engine.pipeline.OpenLoopWorkload` over
        :attr:`user_bytes`).  Each arrival is routed exactly as
        :meth:`submit` routes a range, and the whole process runs through
        one :class:`~repro.engine.pipeline.RequestPipeline` spanning every
        shard's service — asynchronous scatter-gather: a spanning read's
        pieces queue on their shards *concurrently*, and the request
        completes when the slowest piece does.  Admission, coalescing and
        hedging apply per piece exactly as on a single volume; remaining
        keyword arguments go to the pipeline constructor.  Returns the
        run's :class:`~repro.engine.pipeline.OpenLoopResult` (payloads in
        arrival order when materializing, reassembled and pad-excised).

        With a hot tier attached, an arrival the tier serves entirely is
        a job with no pieces: it completes *at its arrival time* with a
        zero-latency sample and never enters admission, hedging or any
        disk queue.  Partially resident arrivals enqueue only their
        uncached pieces.  Hot-enough misses widen to full-stripe fetches
        (one per arrival: jobs complete at different times) and are
        promoted into the tier as their jobs complete (materializing
        runs only).
        """
        from ..engine.pipeline import RequestPipeline

        arrivals = list(arrivals)
        if not arrivals:
            raise ValueError("no jobs to run")
        routes, subreads = self._route(
            [(offset, length) for _, offset, length in arrivals],
            share_widened=False,
        )
        jobs = [
            (arrival_s, [subreads[i] for i in route.reads])
            for (arrival_s, _, _), route in zip(arrivals, routes)
        ]
        # A private registry: the cluster publishes only the latest run's
        # pipeline, so earlier runs (and their jobs) are not kept alive.
        self._pipeline = RequestPipeline(
            [vol.service for vol in self.volumes],
            tracer=self.tracer,
            registry=MetricsRegistry(),
            assemble=self._assemble,
            **pipeline_kwargs,
        )
        result = self._pipeline.run_jobs(jobs, metas=routes)
        self.counters.requests += result.completed
        self.counters.batches += 1
        self.counters.bytes_served += result.bytes_served
        return result

    # ------------------------------------------------------------------
    # faults
    # ------------------------------------------------------------------
    def attach_injector(
        self, shard: int, schedule: "FaultSchedule", *, seed: int = 0
    ) -> InjectorHandle:
        """Attach a fault schedule to one shard's disk array.

        Returns an :class:`InjectorHandle` — call its ``.detach()`` to
        unhook exactly this schedule (the symmetric counterpart of this
        method; :meth:`detach_injectors` stays as the bulk form).  The
        handle forwards every injector attribute, so counters like
        ``fired`` read straight through it.

        The injector's audit counters are published into that shard's
        registry (``faults`` namespace of :meth:`shard_metrics`); other
        shards are untouched, so the schedule exercises exactly the
        degraded-on-one-shard / healthy-elsewhere regime.
        """
        from ..faults import FaultInjector

        if not 0 <= shard < len(self.volumes):
            raise ValueError(f"shard {shard} out of range [0, {len(self.volumes)})")
        vol = self.volumes[shard]
        injector = FaultInjector(vol.store.array, schedule, seed=seed)
        injector.register_metrics(vol.registry)
        injector.attach()
        handle = InjectorHandle(injector, shard, self)
        self._injectors.append(handle)
        return handle

    def detach_injectors(self) -> None:
        """Detach every injector attached through :meth:`attach_injector`.

        The bulk counterpart of :meth:`InjectorHandle.detach`.
        """
        for handle in list(self._injectors):
            handle.injector.detach()
        self._injectors.clear()

    # ------------------------------------------------------------------
    # recovery plane
    # ------------------------------------------------------------------
    def enable_recovery(
        self,
        journal_dir: str | Path,
        *,
        spares: int = 1,
        detector_config: "DetectorConfig | None" = None,
        unit_rows: int = 4,
        steps_per_tick: int = 1,
        budget_per_step: int | None = None,
    ) -> list["RecoveryOrchestrator"]:
        """Attach an autonomous recovery plane to every shard.

        One :class:`~repro.recovery.RecoveryOrchestrator` per shard —
        its own failure detector, hot-spare pool (``spares`` each) and
        throttled crash-safe rebuild executor, journaling rebuild WALs
        under ``journal_dir/shard-<id>/``.  Metrics land in each shard's
        private registry (``recovery.*`` of :meth:`shard_metrics`), and
        :meth:`metrics` rolls the plane up cluster-wide.  Shards added
        later by :meth:`add_shard` join the plane automatically.
        ``budget_per_step`` (physical element operations per repair
        quantum) gives every shard a
        :class:`~repro.recovery.RepairThrottle` at that deposit.
        """
        from ..recovery import RecoveryOrchestrator

        self._recovery_config = {
            "journal_dir": Path(journal_dir),
            "spares": spares,
            "detector_config": detector_config,
            "unit_rows": unit_rows,
            "steps_per_tick": steps_per_tick,
            "budget_per_step": budget_per_step,
        }
        self.orchestrators = [
            self._new_orchestrator(vol) for vol in self.volumes
        ]
        return list(self.orchestrators)

    def _new_orchestrator(self, vol: ShardVolume) -> "RecoveryOrchestrator":
        from ..recovery import RecoveryOrchestrator, RepairThrottle

        cfg = self._recovery_config
        throttle = (
            RepairThrottle(cfg["budget_per_step"])
            if cfg.get("budget_per_step") is not None
            else None
        )
        return RecoveryOrchestrator(
            vol.store,
            journal_dir=cfg["journal_dir"] / f"shard-{vol.shard_id}",
            spares=cfg["spares"],
            detector_config=cfg["detector_config"],
            throttle=throttle,
            cache=vol.service.cache,
            tracer=ShardTracer(self.tracer, vol.shard_id),
            registry=vol.registry,
            unit_rows=cfg["unit_rows"],
            steps_per_tick=cfg["steps_per_tick"],
        )

    def recovery_tick(self) -> bool:
        """One heartbeat of every shard's recovery plane.

        Returns True while any shard still has recovery work (shards
        tick independently; a stuck rebuild's
        :class:`~repro.recovery.DataLossError` propagates).
        """
        busy = False
        for orch in self.orchestrators:
            busy = orch.tick() or busy
        return busy

    def run_recovery_until_idle(self, max_ticks: int = 10_000) -> int:
        """Tick all shards' planes until idle; returns ticks taken.

        Like :meth:`RecoveryOrchestrator.run_until_idle`, shards that
        are out of spares stay degraded-but-live rather than spinning.
        """
        ticks = 0
        while ticks < max_ticks:
            ticks += 1
            if not self.recovery_tick():
                return ticks
            if all(
                orch.active is None
                and (not orch.queued_disks or orch.spares.available <= 0)
                for orch in self.orchestrators
            ) and any(orch.queued_disks for orch in self.orchestrators):
                return ticks  # degraded steady-state: out of spares
        from ..recovery import RecoveryError

        raise RecoveryError(
            f"cluster recovery plane still busy after {max_ticks} ticks"
        )

    def recovery_rollup(self) -> dict:
        """Cluster-wide recovery totals plus the per-shard plane states."""
        totals = {
            "rebuilds_started": 0,
            "rebuilds_completed": 0,
            "spare_waits": 0,
            "data_loss_events": 0,
            "flaps": 0,
            "spares_available": 0,
        }
        per_shard = {}
        for vol, orch in zip(self.volumes, self.orchestrators):
            totals["rebuilds_started"] += orch.rebuilds_started
            totals["rebuilds_completed"] += orch.rebuilds_completed
            totals["spare_waits"] += orch.spare_waits
            totals["data_loss_events"] += orch.data_loss_events
            totals["flaps"] += orch.detector.flaps
            totals["spares_available"] += orch.spares.available
            per_shard[str(vol.shard_id)] = {
                "rebuilding_disk": orch.rebuilding_disk,
                "queued_disks": orch.queued_disks,
                "rebuilds_completed": orch.rebuilds_completed,
                "flaps": orch.detector.flaps,
                "spares_available": orch.spares.available,
            }
        totals["per_shard"] = per_shard
        return totals

    # ------------------------------------------------------------------
    # rebalance
    # ------------------------------------------------------------------
    def add_shard(
        self,
        *,
        journal: "MigrationJournal | None" = None,
        crash_after_moves: int | None = None,
    ) -> RebalanceReport:
        """Grow the cluster by one shard and rebalance stripes onto it.

        Only stable maps rebalance: the hash-ring's ``with_added_shard``
        moves an expected ``1/(S+1)`` of stripes, all onto the new shard;
        round-robin would move ``~S/(S+1)`` of everything and is refused.
        With ``journal``, every move is staged/committed through the
        migration WAL so a crash mid-rebalance (``crash_after_moves``
        simulates one) is recoverable via :meth:`resume_rebalance`.
        """
        if not self.map.supports_rebalance:
            raise RebalanceUnsupportedError(self.map)
        old_map = self.map
        new_map = old_map.with_added_shard()
        new_sid = old_map.num_shards
        self.volumes.append(self._new_volume(new_sid))
        if self.orchestrators:
            # the recovery plane covers new shards from their first tick
            self.orchestrators.append(self._new_orchestrator(self.volumes[-1]))
        moved, committed = self._move_to(
            new_map, "cluster-rebalance", journal, crash_after_moves,
            verify=False, from_shards=old_map.num_shards,
        )
        self.counters.rebalances += 1
        return RebalanceReport(
            new_shard=new_sid,
            stripes_total=len(self._locations),
            stripes_moved=len(moved),
            windows_committed=committed,
        )

    def resume_rebalance(self, journal: "MigrationJournal") -> RebalanceReport:
        """Finish a crashed rebalance from its write-ahead journal.

        The cluster must already carry the new shard (``add_shard`` adds
        it before any move).  Committed windows are skipped; a pending
        staged window is re-applied from its journaled payloads — or just
        committed, if the crash hit between apply and commit — and the
        remaining moves run normally.
        """
        journal, state = self._open_moves(journal, "cluster-rebalance")
        moved = list(state.context["moved"])
        committed = run_rebalance(
            self,
            moved,
            journal,
            committed=state.committed,
            pending=state.pending,
        )
        return RebalanceReport(
            new_shard=self.map.num_shards - 1,
            stripes_total=len(self._locations),
            stripes_moved=len(moved),
            windows_committed=committed,
            resumed=True,
        )

    # ------------------------------------------------------------------
    # shard-failure drain recovery
    # ------------------------------------------------------------------
    def fail_shard(
        self,
        failed: int,
        *,
        journal: "MigrationJournal | None" = None,
        crash_after_moves: int | None = None,
    ) -> ShardRecoveryReport:
        """Drain a failing shard: re-host every one of its stripes.

        The cluster swaps its map for :meth:`~repro.cluster.shardmap.
        ShardMap.without_shard` — the deterministic recovery map — and
        moves exactly the failed shard's stripes to wherever that map
        says, through the same staged/committed WAL windows as
        :meth:`add_shard` (``journal`` / ``crash_after_moves`` /
        :meth:`resume_recovery` work identically).  Each stripe's data
        elements are fetched from the draining shard (reconstructing
        through its own erasure code if disks there have failed),
        re-encoded on the receiving shard, and *read back* from it for a
        byte-exact scrub-on-land before the window commits — so every
        survivor's recovery reads are accounted on its own disks.

        Reads stay byte-correct throughout: routing goes through the
        stripe-location table, so a stripe serves from the draining
        shard until the instant it lands on its survivor.  Afterwards
        the failed shard owns nothing, new appends never place there,
        and :attr:`failed_shards` reports it.

        The returned :class:`~repro.cluster.rebalance.
        ShardRecoveryReport` carries the per-survivor spread and the
        recovery makespan — the map-controlled quantities the D3 map
        bounds (max − min ≤ 1 stripe) and a hash ring does not.
        """
        if not 0 <= failed < len(self.volumes):
            raise ValueError(
                f"shard {failed} out of range [0, {len(self.volumes)})"
            )
        new_map = self.map.without_shard(failed)  # validates failed/last-live
        busy_before = self._busy_per_shard()
        moved, committed = self._move_to(
            new_map, "cluster-recovery", journal, crash_after_moves,
            verify=True, failed_shard=failed,
        )
        self.counters.recoveries += 1
        return self._recovery_report(
            failed, moved, committed, busy_before, resumed=False
        )

    def resume_recovery(self, journal: "MigrationJournal") -> ShardRecoveryReport:
        """Finish a crashed shard drain from its write-ahead journal.

        The map must already exclude the failed shard (``fail_shard``
        swaps it before any move).  Committed windows are skipped, a
        pending staged window is re-applied from its journaled payloads,
        and every remaining stripe moves — with the same read-back
        verification — exactly as on the clean path.  The report's
        timing fields cover the resumed portion only; its ``spread``
        covers the whole recovery.
        """
        journal, state = self._open_moves(journal, "cluster-recovery")
        ctx = state.context
        failed = ctx["failed_shard"]
        if failed not in self.map.excluded:
            raise ValueError(
                f"cluster map does not mark shard {failed} failed; call "
                "fail_shard before resuming its journal"
            )
        moved = list(ctx["moved"])
        busy_before = self._busy_per_shard()
        committed = run_rebalance(
            self,
            moved,
            journal,
            committed=state.committed,
            pending=state.pending,
            verify=True,
        )
        self.counters.recoveries += 1
        return self._recovery_report(
            failed, moved, committed, busy_before, resumed=True
        )

    def _move_to(
        self, new_map: ShardMap, kind: str, journal, crash_after_moves, *,
        verify: bool, **plan: int,
    ) -> tuple[list[int], int]:
        """Swap in ``new_map`` and move every stripe it relocates, under a
        ``kind`` plan record; returns the moved stripes and the windows
        committed."""
        old_map, self.map = self.map, new_map
        moved = [
            g
            for g in range(len(self._locations))
            if new_map.shard_of(g) != old_map.shard_of(g)
        ]
        if journal is not None:
            journal.write_plan(
                {
                    "kind": kind,
                    "map": new_map.name,
                    **plan,
                    "to_shards": new_map.num_shards,
                    "stripes": len(self._locations),
                    "windows": len(moved),
                    "moved": moved,
                    "element_size": self.element_size,
                }
            )
        committed = run_rebalance(
            self, moved, journal, crash_after_moves=crash_after_moves, verify=verify
        )
        return moved, committed

    def _open_moves(self, journal: "MigrationJournal", kind: str):
        """Open a ``kind`` journal for a resume on this cluster's map."""
        journal, state = open_journal(journal, kind, ValueError)
        if state.context["to_shards"] != self.map.num_shards:
            raise ValueError(
                f"journal expects {state.context['to_shards']} shards, "
                f"cluster has {self.map.num_shards}"
            )
        return journal, state

    def _busy_per_shard(self) -> dict[int, float]:
        """Summed disk busy time per shard, for recovery makespans."""
        return {
            vol.shard_id: sum(
                d.stats.busy_time_s for d in vol.store.array.disks
            )
            for vol in self.volumes
        }

    def _recovery_report(
        self,
        failed: int,
        moved: list[int],
        committed: int,
        busy_before: dict[int, float],
        *,
        resumed: bool,
    ) -> ShardRecoveryReport:
        spread = {s: 0 for s in self.live_shard_ids}
        for g in moved:
            spread[self.map.shard_of(g)] += 1
        busy_after = self._busy_per_shard()
        deltas = {
            sid: busy_after[sid] - busy_before.get(sid, 0.0)
            for sid in busy_after
        }
        survivor_deltas = [deltas[s] for s in spread] or [0.0]
        return ShardRecoveryReport(
            failed_shard=failed,
            stripes_recovered=len(moved),
            windows_committed=committed,
            spread=spread,
            recovery_makespan_s=max(survivor_deltas),
            source_drain_s=deltas.get(failed, 0.0),
            resumed=resumed,
        )

    def recovery_balance(self) -> dict[str, dict]:
        """What-if recovery spread for each live shard's failure.

        For every live shard ``f``, computes where ``f``'s stripes would
        re-host under ``map.without_shard(f)`` and summarizes the
        per-survivor spread — the load-table view the ``cluster`` CLI
        prints and the ``cluster.*`` snapshot carries.  Empty when the
        map lacks recovery routing or fewer than two shards are live.
        """
        live = self.live_shard_ids
        out: dict[str, dict] = {}
        if len(live) < 2 or not self.map.supports_recovery:
            return out
        owners: dict[int, list[int]] = {s: [] for s in live}
        for g, (sid, _) in enumerate(self._locations):
            owners.setdefault(sid, []).append(g)
        for f in live:
            rmap = self.map.without_shard(f)
            counts = {s: 0 for s in live if s != f}
            for g in owners.get(f, ()):
                counts[rmap.shard_of(g)] += 1
            vals = list(counts.values())
            mean = sum(vals) / len(vals) if vals else 0.0
            out[str(f)] = {
                "stripes": len(owners.get(f, ())),
                "spread_max": max(vals) if vals else 0,
                "spread_min": min(vals) if vals else 0,
                "imbalance": (max(vals) / mean) if mean > 0 else 0.0,
            }
        return out

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def load_imbalance(self) -> dict[str, float]:
        """Cluster-wide disk-load balance: max/mean busy time over every
        disk of every shard — the paper's Figure 8/9 bottleneck metric
        lifted to the cluster.  ``imbalance`` is 0.0 before any traffic."""
        busy = [
            d.stats.busy_time_s
            for vol in self.volumes
            for d in vol.store.array.disks
        ]
        mean = sum(busy) / len(busy) if busy else 0.0
        peak = max(busy) if busy else 0.0
        return {
            "disk_busy_max_s": peak,
            "disk_busy_mean_s": mean,
            "imbalance": (peak / mean) if mean > 0 else 0.0,
        }

    def _cluster_snapshot(self) -> dict:
        """The ``cluster.*`` namespace: frontend counters, the rolled-up
        per-shard summaries, and the cluster load-imbalance stats."""
        live = self.stripes_per_shard()
        balance = self.recovery_balance()
        per_shard = {}
        for vol in self.volumes:
            stats = vol.store.array.stats_snapshot()
            per_shard[str(vol.shard_id)] = {
                "stripes": live[vol.shard_id],
                "garbage_rows": self.garbage_rows.get(vol.shard_id, 0),
                "sub_reads": self.counters.sub_reads.get(vol.shard_id, 0),
                "requests": vol.service.counters.requests,
                "bytes_served": vol.service.counters.bytes_served,
                "degraded_serves": vol.service.counters.degraded_serves,
                "retries": vol.service.counters.retries,
                "busy_time_s": stats["total_busy_time_s"],
                "failed_disks": stats["failed"],
                "recovery_imbalance": balance.get(str(vol.shard_id), {}).get(
                    "imbalance", 0.0
                ),
            }
        out = {
            "shards": len(self.volumes),
            "map": self.map.name,
            "stripes": len(self._locations),
            "requests": self.counters.requests,
            "batches": self.counters.batches,
            "bytes_served": self.counters.bytes_served,
            "spanning_reads": self.counters.spanning_reads,
            "rebalances": self.counters.rebalances,
            "stripes_moved": self.counters.stripes_moved,
            "recoveries": self.counters.recoveries,
            "failed_shards": sorted(self.map.excluded),
            "recovery_balance": balance,
            **self.load_imbalance(),
            "per_shard": per_shard,
        }
        if self.orchestrators:
            out["recovery"] = self.recovery_rollup()
        return out

    def _net_snapshot(self) -> dict:
        """The ``net.*`` namespace: repair traffic summed over every
        shard's store (``{"enabled": False}`` without a topology)."""
        if self.topology is None:
            return {"enabled": False}
        total = TransferSummary()
        net_time_s = 0.0
        for vol in self.volumes:
            if vol.store.net is not None:
                total.add(vol.store.net)
                net_time_s += vol.store._net_time_s
        out = total.snapshot()
        out["net_time_s"] = net_time_s
        out["racks"] = self.topology.num_racks
        out["enabled"] = True
        return out

    def _cache_snapshot(self) -> dict:
        """The ``cache.*`` namespace: hot-tier hit/miss/promotion/eviction
        counters and residency (``{"enabled": False}`` without a tier)."""
        if self.hot_tier is None:
            return {"enabled": False}
        return self.hot_tier.snapshot()

    def _recovery_snapshot(self) -> dict:
        """The ``recovery.*`` namespace: the cluster-wide rollup of every
        shard's recovery plane (``{"enabled": False}`` without one)."""
        if not self.orchestrators:
            return {"enabled": False}
        return {"enabled": True, **self.recovery_rollup()}

    def _service_rollup(self) -> dict:
        """The ``service.*`` namespace: per-shard read services summed
        cluster-wide, plus ``service.pipeline.*`` from the latest
        :meth:`submit_open_loop` run."""
        out = {
            "requests": 0,
            "bytes_served": 0,
            "degraded_serves": 0,
            "retries": 0,
            "plan_cache_hits": 0,
            "plan_cache_misses": 0,
        }
        for vol in self.volumes:
            c = vol.service.counters
            out["requests"] += c.requests
            out["bytes_served"] += c.bytes_served
            out["degraded_serves"] += c.degraded_serves
            out["retries"] += c.retries
            out["plan_cache_hits"] += vol.service.cache.stats.hits
            out["plan_cache_misses"] += vol.service.cache.stats.misses
        if self._pipeline is not None:
            out["pipeline"] = self._pipeline.snapshot()
        return out

    def metrics(self) -> dict:
        """The rolled-up, versioned cluster snapshot.

        One call, every namespace: ``cluster.*`` (frontend counters and
        per-shard rollup), ``cache.*`` (hot tier), ``recovery.*``
        (cluster-wide recovery plane), ``service.*`` (summed per-shard
        read services, plus ``service.pipeline.*`` of the latest
        open-loop run) — and anything else registered into
        :attr:`registry`.  This is the single metrics entry point."""
        return self.registry.snapshot()

    def shard_metrics(self, shard: int) -> dict:
        """One shard's full namespaced snapshot (``service.* / cache.* /
        health.* / disks.*`` — and ``faults.*`` when an injector targets
        it)."""
        return self.volumes[shard].service.metrics()
