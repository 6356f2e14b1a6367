"""A functional erasure-coded block store over the simulated disk array.

This is the end-to-end verification layer the paper's claims implicitly
rest on: data written through a (code, placement) pair must come back
byte-exact through normal reads, degraded reads (any single disk down, or
any pattern the code tolerates), and full disk rebuilds.

The store follows the paper's cloud-storage write model (§I): writes are
append-only and buffered until a whole candidate row is available, then
encoded and flushed ("full stripe writes").

Offsets are *logical*: they address the stream of bytes the user appended.
:meth:`BlockStore.flush` zero-pads a partial row to make it durable; the
pad bytes occupy physical slots but are invisible to the logical stream —
``append`` offsets and ``read`` ranges never include them (see
:attr:`user_bytes` vs :attr:`size_bytes`).

Every physical element access a read performs is accounted into the owning
disk's :class:`~repro.disks.disk.DiskStats` exactly once (accesses, bytes
read, and busy time together), via :meth:`DiskArray.execute_batch` — the
single accounting pass shared by :meth:`read`, :meth:`read_with_outcome`,
:meth:`read_many`, :meth:`read_degraded_multi` and :meth:`rebuild_disk`.

Integrity: every element payload is checksummed (CRC32C) at write time and
verified on every read.  A mismatch (silent bit rot) or an unreadable slot
(latent sector error) demotes that element to an *erasure*: the read
reconstructs it through the code, returns the correct bytes, and
**self-heals** by rewriting the repaired element in place — so the next
read of the same range is clean and fault-free.  :class:`HealthCounters`
tracks detections and repairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..codes.base import DecodeFailure, ErasureCode
from ..disks.array import DiskArray
from ..disks.disk import DiskFailedError
from ..disks.model import DiskModel
from ..disks.presets import SAVVIO_10K3
from ..engine.degraded import plan_degraded_read
from ..engine.executor import ReadOutcome
from ..engine.planner import plan_normal_read
from ..engine.requests import AccessPlan, ReadRequest
from ..layout import Placement, make_placement
from ..layout.base import Address
from ..net import RepairTransferPlan, Topology, TransferSummary, plan_min_transfer_repair
from ..obs import NULL_TRACER, MetricsRegistry, Tracer
from .verify import crc32c

__all__ = ["BlockStore", "HealthCounters"]


def _payload_bytes(payload: bytes | np.ndarray) -> bytes:
    """An element payload as the bytes a disk slot stores."""
    if isinstance(payload, np.ndarray):
        return np.asarray(payload, dtype=np.uint8).tobytes()
    return bytes(payload)


@dataclass
class HealthCounters:
    """Cumulative integrity/self-heal counters for one store.

    ``*_detected`` counts every time a read-side verification flags an
    element (scrubs included); ``*_repaired`` counts the subset that was
    reconstructed *and* rewritten in place.  ``self_heal_writes`` is the
    total number of heal rewrites (corrupt + latent).
    """

    corruptions_detected: int = 0
    corruptions_repaired: int = 0
    latent_errors_detected: int = 0
    latent_errors_repaired: int = 0
    self_heal_writes: int = 0

    def snapshot(self) -> dict[str, int]:
        """Plain-dict view for metrics export."""
        return {
            "corruptions_detected": self.corruptions_detected,
            "corruptions_repaired": self.corruptions_repaired,
            "latent_errors_detected": self.latent_errors_detected,
            "latent_errors_repaired": self.latent_errors_repaired,
            "self_heal_writes": self.self_heal_writes,
        }


class BlockStore:
    """Append-only erasure-coded store with normal/degraded byte reads.

    Parameters
    ----------
    code:
        The candidate erasure code.
    form:
        Placement form name (``standard`` / ``rotated`` / ``ec-frm``) or a
        ready-made :class:`Placement`.
    element_size:
        Element payload size in bytes.
    disk_model:
        Service model for the backing array (timing statistics only; the
        data plane is exact regardless).
    tracer:
        Span tracer for the read path (``disk_io`` / ``decode`` / ``heal``
        stages).  Defaults to the shared disabled tracer: zero overhead,
        identical behaviour.
    registry:
        Metrics registry to publish ``health`` and ``disks`` collectors
        into (and the array's batch-service histogram).  ``None`` (the
        default) skips registration entirely.
    topology:
        Optional :class:`repro.net.Topology` (or a spec string for
        :meth:`Topology.from_spec`) assigning the array's disks to racks.
        When set, degraded reads and rebuilds plan minimum-transfer
        repair sets, read makespans include network shipping time (the
        ``net_transfer`` tracer stage), and repair traffic is counted
        into the ``net.*`` metrics namespace.
    """

    def __init__(
        self,
        code: ErasureCode,
        form: str | Placement = "ec-frm",
        element_size: int = 1024,
        disk_model: DiskModel = SAVVIO_10K3,
        *,
        tracer: Tracer | None = None,
        registry: MetricsRegistry | None = None,
        topology: Topology | str | None = None,
    ) -> None:
        if element_size <= 0:
            raise ValueError(f"element size must be > 0, got {element_size}")
        self.code = code
        self.placement = form if isinstance(form, Placement) else make_placement(form, code)
        if self.placement.code is not code:
            raise ValueError("placement was built for a different code")
        self.element_size = element_size
        self.array = DiskArray(code.n, disk_model)
        self._pending = bytearray()
        self._elements_written = 0  # completed logical data elements
        self._user_bytes = 0  # durable bytes the user wrote (pad excluded)
        #: write-time CRC32C per physical address; verified on every read.
        self._checksums: dict[tuple[int, int], int] = {}
        self.health = HealthCounters()
        self.topology = (
            Topology.from_spec(topology, code.n) if topology is not None else None
        )
        #: ``net.*`` repair-traffic counters (None without a topology).
        self.net: TransferSummary | None = (
            TransferSummary() if self.topology is not None else None
        )
        self._net_time_s = 0.0
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.registry = registry
        if registry is not None:
            registry.register_collector("health", self.health.snapshot)
            registry.register_collector("disks", self.array.stats_snapshot)
            if self.topology is not None:
                registry.register_collector("net", self.net_snapshot)
            self.array.bind_registry(registry)
        #: physical (start, length) of every flush-inserted zero-pad run,
        #: ascending and disjoint; the logical<->physical translation walks
        #: this list.
        self._pad_runs: list[tuple[int, int]] = []

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    @property
    def row_bytes(self) -> int:
        """User bytes per candidate row (the append/flush unit)."""
        return self.code.k * self.element_size

    @property
    def size_bytes(self) -> int:
        """Physical bytes durably stored (flushed), *including* flush
        padding; excludes the pending buffer.  See :attr:`user_bytes` for
        the logical stream length."""
        return self._elements_written * self.element_size

    @property
    def user_bytes(self) -> int:
        """Durable bytes the user actually appended — the high-water mark
        of the logical stream.  ``read`` offsets address ``[0,
        user_bytes)``; flush padding is excluded."""
        return self._user_bytes

    @property
    def padding_bytes(self) -> int:
        """Durable zero-pad bytes inserted by :meth:`flush`."""
        return self.size_bytes - self._user_bytes

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered awaiting a full row."""
        return len(self._pending)

    @property
    def rows_written(self) -> int:
        """Candidate rows durably flushed (the migration planning unit)."""
        return self._elements_written // self.code.k

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def append(self, data: bytes) -> int:
        """Append bytes; full rows are encoded and flushed immediately.

        Returns the true logical offset at which ``data`` begins: the
        number of user bytes written before it, *excluding* any zero
        padding earlier ``flush`` calls inserted.  The offset is directly
        usable with :meth:`read`.
        """
        offset = self._user_bytes + len(self._pending)
        self._pending.extend(data)
        while len(self._pending) >= self.row_bytes:
            chunk = bytes(self._pending[: self.row_bytes])
            del self._pending[: self.row_bytes]
            self._flush_row(chunk, user_len=self.row_bytes)
        return offset

    def flush(self) -> None:
        """Zero-pad and flush any partial pending row.

        The pad bytes become durable physically (they participate in
        parity and occupy slots — see :attr:`padding_bytes`) but are *not*
        part of the logical stream: subsequent ``append`` offsets and
        ``read`` ranges skip them, so ``flush`` never perturbs logical
        addressing.
        """
        if self._pending:
            pending_len = len(self._pending)
            pad_start = self.size_bytes + pending_len
            self._pad_runs.append((pad_start, self.row_bytes - pending_len))
            chunk = bytes(self._pending).ljust(self.row_bytes, b"\0")
            self._pending.clear()
            self._flush_row(chunk, user_len=pending_len)

    def _flush_row(self, row_payload: bytes, user_len: int) -> None:
        k, s = self.code.k, self.element_size
        data = np.frombuffer(row_payload, dtype=np.uint8).reshape(k, s)
        parity = self.code.encode(data)
        row = self._elements_written // k
        for e in range(self.code.n):
            addr = self.placement.locate_row_element(row, e)
            payload = data[e] if e < k else parity[e - k]
            if not self.array[addr.disk].failed:
                self._write_element(addr, payload)
        self._elements_written += k
        self._user_bytes += user_len

    def _write_element(self, addr: Address, payload: bytes | np.ndarray) -> None:
        """The single element-write point: store the payload and record its
        write-time CRC32C.  Every write path (flush, rebuild, in-place
        update, scrub repair, self-heal) must come through here, or reads
        would flag the stale checksum as corruption."""
        buf = _payload_bytes(payload)
        self.array[addr.disk].write_slot(addr.slot, buf)
        self._checksums[(addr.disk, addr.slot)] = crc32c(buf)

    def put_element(self, addr: Address, payload: bytes | np.ndarray) -> bool:
        """Write one element payload at ``addr``; returns True if written.

        The migration mover's write point.  When ``addr.disk`` is down the
        write is skipped but the *new* payload's checksum is still
        recorded — so after the disk comes back (``restore(wipe=False)``)
        the stale on-disk content fails verification and the regular
        read-side self-heal machinery rewrites the correct bytes.  Without
        the recorded intent, the stale element would carry a *matching*
        stale checksum and read back silently wrong.
        """
        buf = _payload_bytes(payload)
        if self.array[addr.disk].failed:
            self._checksums[(addr.disk, addr.slot)] = crc32c(buf)
            return False
        self._write_element(addr, buf)
        return True

    def fetch_row_data(self, row: int) -> list[bytes]:
        """Verified data payloads of candidate ``row``, candidate order.

        Fetches the ``k`` data elements in one accounted batch and repairs
        any that are lost, corrupt, or unreadable (self-healing live disks
        as usual).  Parity is *not* returned: a caller that needs it
        (e.g. the migration mover re-laying a row) re-encodes from data —
        encoding is deterministic and placement-independent, so the bytes
        are identical, and this sidesteps parity stranded on a crashed
        disk, which the repair path deliberately never reconstructs.
        """
        if not 0 <= row < self.rows_written:
            raise ValueError(f"row {row} out of range [0, {self.rows_written})")
        # A disk can fail at the batch boundary (fault injection fires on
        # execute_batch entry), after the batch was planned against the
        # previous failure set.  Re-plan against the refreshed set, like
        # the read service does; each retry excludes the newly dead disk,
        # so the loop is bounded by the array width.
        for _ in range(len(self.array) + 1):
            try:
                good, bad = self._fetch_elements(row, range(self.code.k))
                if bad:
                    good.update(self._repair_row(row, good, bad))
                return [good[e] for e in range(self.code.k)]
            except DiskFailedError:
                continue
        raise DiskFailedError(f"row {row}: disks kept failing mid-fetch")

    def fetch_repair_payloads(self, row: int, lost: Sequence[int]) -> dict[int, bytes]:
        """Reconstruct the payloads of ``lost`` elements of candidate
        ``row`` from a minimum-transfer helper set.

        The staging primitive of topology-aware rebuilds: with a topology
        attached (and a single lost element, the rebuild case) the helper
        set comes from :func:`repro.net.plan_min_transfer_repair` against
        the lost element's rack and its traffic lands in the ``net.*``
        counters; otherwise every surviving row element is fetched.  A
        faulted helper escalates to a whole-row repair exactly like
        :meth:`rebuild_disk` (self-healing the helper on the way).
        Raises :class:`DecodeFailure` when the row is undecodable.
        """
        lost = sorted(set(lost))
        if not lost:
            return {}
        if not 0 <= row < self.rows_written:
            raise ValueError(f"row {row} out of range [0, {self.rows_written})")
        for _ in range(len(self.array) + 1):
            try:
                transfer = None
                if self.topology is not None and len(lost) == 1:
                    transfer = self._min_transfer_repair(row, lost[0])
                    need = sorted(transfer.elements)
                else:
                    need = [i for i in range(self.code.n) if i not in lost]
                good, bad = self._fetch_elements(row, need)
                if not bad:
                    available = {
                        h: np.frombuffer(buf, dtype=np.uint8)
                        for h, buf in good.items()
                    }
                    recovered = self.code.decode(available, lost, self.element_size)
                    if transfer is not None and self.net is not None:
                        self.net.add(transfer.summary())
                    return {e: recovered[e].tobytes() for e in lost}
                # a helper is faulted: escalate to a whole-row repair,
                # which reconstructs the targets and self-heals the helper.
                for e in lost:
                    bad[e] = "rebuild"
                repaired = self._repair_row(row, good, bad)
                return {e: repaired[e] for e in lost}
            except DiskFailedError:
                continue
        raise DiskFailedError(f"row {row}: disks kept failing mid-fetch")

    def _min_transfer_repair(self, row: int, lost: int) -> RepairTransferPlan:
        """Minimum-transfer helper set for element ``lost`` of ``row``,
        priced against the rack of the disk that holds it."""

        def element_rack(h: int) -> int:
            return self.topology.rack_of(self.placement.locate_row_element(row, h).disk)

        return plan_min_transfer_repair(
            self.code,
            lost,
            element_rack=element_rack,
            site_rack=element_rack(lost),
            element_size=self.element_size,
        )

    # ------------------------------------------------------------------
    # logical <-> physical offset translation
    # ------------------------------------------------------------------
    def _logical_to_physical(self, offset: int) -> int:
        """Physical stream position of logical byte ``offset``."""
        phys = offset
        for pad_start, pad_len in self._pad_runs:
            if phys >= pad_start:
                phys += pad_len
            else:
                break
        return phys

    def _excise_padding(self, buf: bytes, phys_start: int) -> bytes:
        """Drop pad bytes from ``buf`` covering physical ``[phys_start,
        phys_start + len(buf))``, yielding contiguous logical bytes."""
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

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def read(self, offset: int, length: int) -> bytes:
        """Read ``length`` bytes at logical ``offset``.

        Transparently degrades: if exactly one disk is down, the degraded
        planner reconstructs through repair sets; with zero failures the
        normal planner is used.  (Multi-failure reads go through
        :meth:`read_degraded_multi`.)
        """
        data, _ = self.read_with_outcome(offset, length)
        return data

    def read_with_outcome(self, offset: int, length: int) -> tuple[bytes, ReadOutcome]:
        """Like :meth:`read` but also returns the simulated timing outcome."""
        plan = self.plan_read(offset, length)
        return self.execute_read(plan, offset, length)

    def plan_read(self, offset: int, length: int) -> AccessPlan:
        """Build (but do not execute) the access plan of a byte read.

        This is the planning half of :meth:`read_with_outcome`, exposed so
        a plan cache (:class:`repro.engine.plancache.PlanCache`) or a
        batched service can reuse plans across requests.  The plan depends
        only on the placement, the element-aligned request, and the
        current failure signature.
        """
        request = self.byte_request(offset, length)
        failed = self.array.failed_disks
        if not failed:
            return plan_normal_read(self.placement, request, self.element_size)
        if len(failed) == 1:
            return plan_degraded_read(
                self.placement,
                request,
                failed[0],
                self.element_size,
                topology=self.topology,
            )
        raise DecodeFailure(
            f"{len(failed)} disks down; use read_degraded_multi for "
            "multi-failure reads"
        )

    def execute_read(
        self, plan: AccessPlan, offset: int, length: int
    ) -> tuple[bytes, ReadOutcome]:
        """Execute a previously built plan: one accounted pass that times
        the batch, fetches payloads, decodes losses, and slices bytes.

        ``plan`` must have been built by :meth:`plan_read` for the same
        ``(offset, length)`` under the current failure signature (a cached
        plan is fine — byte ranges with the same element request share
        plans).
        """
        with self.tracer.span("disk_io") as sp:
            timing = self.array.execute_batch(plan.per_disk_batches(), fetch=True)
            sp.set(
                sim_service_s=timing.completion_time_s,
                accesses=timing.total_accesses,
            )
        if timing.completion_time_s <= 0.0:
            raise ValueError("plan has no accesses; cannot compute a speed")
        completion_s = timing.completion_time_s
        if self.topology is not None:
            completion_s = self._account_network(plan, timing)
        outcome = ReadOutcome(
            plan=plan,
            completion_time_s=completion_s,
            speed_bps=plan.requested_bytes / completion_s,
        )
        elements = self._materialize_plan(plan, timing.payloads or {})
        return self._slice_bytes(elements, plan.request, offset, length), outcome

    def read_many(self, ranges: Sequence[tuple[int, int]]) -> list[bytes]:
        """Read several ``(offset, length)`` ranges; returns their payloads.

        The batch-submission primitive under
        :class:`repro.engine.service.ReadService` — each range is planned
        and executed through the unified accounting pass.  For concurrent
        timing and plan caching, use the service; this method models the
        data plane only.
        """
        return [self.read(offset, length) for offset, length in ranges]

    def read_degraded_multi(self, offset: int, length: int) -> bytes:
        """Read under any decodable multi-disk failure pattern.

        Fetches *all* surviving elements of every affected row and decodes;
        not I/O-minimal (the paper only evaluates single-failure degraded
        reads), but exercises the full fault-tolerance envelope.  Fetched
        elements are checksum-verified like every other read path;
        corrupt/unreadable survivors become additional erasures and are
        self-healed when their disks are alive.
        """
        request = self.byte_request(offset, length)
        elements: dict[int, bytes] = {}
        k = self.code.k
        for row in sorted({t // k for t in request.elements}):
            good, bad = self._fetch_elements(row, range(self.code.n))
            wanted = [t % k for t in request.elements if t // k == row]
            if bad:
                try:
                    good.update(self._repair_row(row, good, bad))
                except DecodeFailure:
                    if any(e in bad for e in wanted):
                        raise
                    # unneeded elements are beyond repair; serve what we have
            for e in wanted:
                elements[row * k + e] = good[e]
        return self._slice_bytes(elements, request, offset, length)

    # ------------------------------------------------------------------
    # rebuild
    # ------------------------------------------------------------------
    def rebuild_disk(self, disk_id: int) -> int:
        """Reconstruct a failed disk's contents onto a fresh replacement.

        Returns the number of elements rebuilt.  Uses each code's repair
        plan per row (LRC rebuilds a lost data element from its local
        group only).  Helper reads are accounted through the unified batch
        pass, so per-disk stats (accesses, bytes, busy time) reflect the
        rebuild I/O exactly.
        """
        disk = self.array[disk_id]
        if not disk.failed:
            raise ValueError(f"disk {disk_id} has not failed; nothing to rebuild")
        others = set(self.array.failed_disks) - {disk_id}
        if others:
            raise DecodeFailure(
                f"cannot rebuild disk {disk_id} while disks {sorted(others)} are down"
            )
        disk.restore(wipe=True)

        rebuilt = 0
        total_rows = self._elements_written // self.code.k
        for row in range(total_rows):
            lost = [
                e
                for e in range(self.code.n)
                if self.placement.locate_row_element(row, e).disk == disk_id
            ]
            for e in lost:
                transfer = None
                if self.topology is not None:
                    transfer = self._min_transfer_repair(row, e)
                    helpers = sorted(transfer.elements)
                else:
                    helpers = self.code.repair_plan(e)
                batch: dict[int, list[tuple[int, int]]] = {}
                helper_addrs: list[tuple[int, Address]] = []
                for h in helpers:
                    addr = self.placement.locate_row_element(row, h)
                    batch.setdefault(addr.disk, []).append(
                        (addr.slot, self.element_size)
                    )
                    helper_addrs.append((h, addr))
                timing = self.array.execute_batch(batch, fetch=True)
                payloads = timing.payloads or {}
                good: dict[int, bytes] = {}
                bad: dict[int, str] = {}
                for h, addr in helper_addrs:
                    buf = payloads.get((addr.disk, addr.slot))
                    if buf is None:
                        bad[h] = "latent"
                        self.health.latent_errors_detected += 1
                    elif not self._element_ok(addr.disk, addr.slot, buf):
                        bad[h] = "corrupt"
                        self.health.corruptions_detected += 1
                    else:
                        good[h] = buf
                addr = self.placement.locate_row_element(row, e)
                if not bad:
                    available = {
                        h: np.frombuffer(buf, dtype=np.uint8)
                        for h, buf in good.items()
                    }
                    recovered = self.code.decode(available, [e], self.element_size)
                    self._write_element(addr, recovered[e])
                    if transfer is not None and self.net is not None:
                        self.net.add(transfer.summary())
                else:
                    # a helper is corrupt or unreadable: escalate to a
                    # whole-row repair, which rebuilds the target *and*
                    # self-heals the bad helper in one decode.
                    bad[e] = "rebuild"
                    self._repair_row(row, good, bad)
                rebuilt += 1
        return rebuilt

    # ------------------------------------------------------------------
    # network accounting (topology-attached stores only)
    # ------------------------------------------------------------------
    def _account_network(self, plan: AccessPlan, timing) -> float:
        """Price the plan's network shipping on top of the disk batch.

        Every fetched element ships to the reader rack — whole elements
        for requested fetches, only the planned fraction for
        reconstruction-only helpers (disks read whole slots; the wire
        carries less).  Each disk's contribution completes at its service
        time plus its ship time; the batch completes at the max, so the
        returned makespan composes ``DiskModel.service_time_s`` with the
        link model.  Repair traffic is accumulated into :attr:`net`
        against the failed disk's rack, and the added network time is
        emitted as a ``net_transfer`` span.
        """
        from ..engine.requests import AccessKind

        topo = self.topology
        ship: dict[int, int] = {}
        requested: set[Address] = set()
        for a in plan.accesses:
            if a.kind is AccessKind.REQUESTED:
                ship[a.address.disk] = ship.get(a.address.disk, 0) + self.element_size
                requested.add(a.address)
        for addr, nbytes in plan.repair_reads:
            if addr not in requested:
                ship[addr.disk] = ship.get(addr.disk, 0) + nbytes
        completion = timing.completion_time_s
        for disk, disk_time_s in timing.per_disk_time_s.items():
            total = disk_time_s + topo.transfer_time_s(ship.get(disk, 0), disk)
            completion = max(completion, total)
        net_s = completion - timing.completion_time_s
        self._net_time_s += net_s
        if plan.repair_reads:
            site = (
                topo.rack_of(plan.failed_disk)
                if plan.failed_disk is not None
                else topo.reader_rack
            )
            moved = plan.repair_bytes_moved
            cross = sum(
                nbytes
                for addr, nbytes in plan.repair_reads
                if topo.rack_of(addr.disk) != site
            )
            self.net.add(
                TransferSummary(
                    bytes_moved=moved,
                    cross_rack_bytes=cross,
                    repair_sets=plan.repair_sets,
                    repair_elements=len(plan.repair_reads),
                )
            )
        with self.tracer.span("net_transfer") as sp:
            sp.set(sim_net_s=net_s, bytes_shipped=sum(ship.values()))
        return completion

    def net_snapshot(self) -> dict:
        """The ``net.*`` namespace: repair traffic and network time."""
        out = self.net.snapshot()
        out["net_time_s"] = self._net_time_s
        out["racks"] = self.topology.num_racks
        return out

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def byte_request(self, offset: int, length: int) -> ReadRequest:
        """Element-aligned :class:`ReadRequest` covering a logical byte range.

        Public because the read service keys its plan cache on the request;
        the mapping is stable for any already-written range (flush padding
        is only ever appended past the current high-water mark).
        """
        if offset < 0 or length <= 0:
            raise ValueError(f"invalid byte range offset={offset} length={length}")
        if offset + length > self.user_bytes:
            raise ValueError(
                f"range [{offset}, {offset + length}) beyond stored "
                f"{self.user_bytes} user bytes (flush() pending data first)"
            )
        phys_first = self._logical_to_physical(offset)
        phys_last = self._logical_to_physical(offset + length - 1)
        first = phys_first // self.element_size
        last = phys_last // self.element_size
        return ReadRequest(start=first, count=last - first + 1)

    def _element_ok(self, disk: int, slot: int, buf: bytes) -> bool:
        """Verify one fetched payload against its write-time CRC32C.

        Payloads with no recorded checksum (written directly to the disk
        plane, bypassing the store) are trusted and fingerprinted on first
        read.
        """
        key = (disk, slot)
        expected = self._checksums.get(key)
        if expected is None:
            self._checksums[key] = crc32c(buf)
            return True
        return crc32c(buf) == expected

    def _fetch_elements(
        self, row: int, need: Sequence[int]
    ) -> tuple[dict[int, bytes], dict[int, str]]:
        """Fetch and verify elements ``need`` of candidate ``row`` in one
        accounted batch.

        Returns ``(good, bad)``: verified payloads keyed by element, and
        undeliverable elements keyed to a reason — ``"failed-disk"``
        (crashed disk, not fetched), ``"latent"`` (unreadable slot), or
        ``"corrupt"`` (checksum mismatch).  Detections are counted into
        :attr:`health`.
        """
        failed = set(self.array.failed_disks)
        batch: dict[int, list[tuple[int, int]]] = {}
        addrs: list[tuple[int, Address]] = []
        good: dict[int, bytes] = {}
        bad: dict[int, str] = {}
        for e in need:
            addr = self.placement.locate_row_element(row, e)
            if addr.disk in failed:
                bad[e] = "failed-disk"
                continue
            batch.setdefault(addr.disk, []).append((addr.slot, self.element_size))
            addrs.append((e, addr))
        with self.tracer.span("disk_io", row=row) as sp:
            timing = self.array.execute_batch(batch, fetch=True)
            sp.set(sim_service_s=timing.completion_time_s)
        payloads = timing.payloads or {}
        for e, addr in addrs:
            buf = payloads.get((addr.disk, addr.slot))
            if buf is None:
                bad[e] = "latent"
                self.health.latent_errors_detected += 1
            elif not self._element_ok(addr.disk, addr.slot, buf):
                bad[e] = "corrupt"
                self.health.corruptions_detected += 1
            else:
                good[e] = buf
        return good, bad

    def _repair_row(
        self, row: int, good: dict[int, bytes], bad: dict[int, str]
    ) -> dict[int, bytes]:
        """Reconstruct the ``bad`` elements of ``row`` and self-heal.

        ``good`` holds already-verified payloads (mutated in place as the
        remaining row elements are fetched).  Decodes every bad *data*
        element plus every healable bad element, rewrites repaired elements
        whose disks are alive (``corrupt``/``latent`` reasons — plus
        ``"rebuild"``, the rebuild escalation target), and returns the
        repaired payloads keyed by element.

        Raises :class:`DecodeFailure` when the combined erasure pattern
        exceeds the code's tolerance.
        """
        with self.tracer.span("heal", row=row) as sp:
            need = [
                e for e in range(self.code.n) if e not in good and e not in bad
            ]
            if need:
                more_good, more_bad = self._fetch_elements(row, need)
                good.update(more_good)
                bad.update(more_bad)
            # Parity on a crashed disk is neither requested nor healable; do
            # not make the decode harder by asking for it.
            lost = sorted(
                e
                for e, reason in bad.items()
                if e < self.code.k or reason in ("corrupt", "latent", "rebuild")
            )
            sp.set(lost=lost)
            available = {
                e: np.frombuffer(buf, dtype=np.uint8) for e, buf in good.items()
            }
            recovered = self.code.decode(available, lost, self.element_size)
            failed = set(self.array.failed_disks)
            out: dict[int, bytes] = {}
            for e in lost:
                payload = recovered[e]
                out[e] = payload.tobytes()
                reason = bad[e]
                addr = self.placement.locate_row_element(row, e)
                if addr.disk in failed:
                    continue
                if reason == "corrupt":
                    self._write_element(addr, payload)
                    self.health.corruptions_repaired += 1
                    self.health.self_heal_writes += 1
                elif reason == "latent":
                    self._write_element(addr, payload)
                    self.health.latent_errors_repaired += 1
                    self.health.self_heal_writes += 1
                elif reason == "rebuild":
                    self._write_element(addr, payload)
            return out

    def _materialize_plan(
        self, plan: AccessPlan, payloads: dict[tuple[int, int], bytes]
    ) -> dict[int, bytes]:
        """Assemble fetched payloads and decode any lost requested elements.

        ``payloads`` comes from the accounted batch execution.  Every
        payload is checksum-verified; corrupt or unreadable elements are
        demoted to erasures, reconstructed (fetching the rest of their row
        in a further accounted batch) and self-healed in place.  On the
        fault-free path — including planned degraded decodes — this method
        performs no disk I/O of its own.
        """
        k = self.code.k
        good_by_row: dict[int, dict[int, bytes]] = {}
        bad_by_row: dict[int, dict[int, str]] = {}
        for access in plan.accesses:
            row, e = access.row, access.element
            buf = payloads.get((access.address.disk, access.address.slot))
            if buf is None:
                bad_by_row.setdefault(row, {})[e] = "latent"
                self.health.latent_errors_detected += 1
            elif not self._element_ok(access.address.disk, access.address.slot, buf):
                bad_by_row.setdefault(row, {})[e] = "corrupt"
                self.health.corruptions_detected += 1
            else:
                good_by_row.setdefault(row, {})[e] = buf

        for t in plan.request.elements:
            row, e = divmod(t, k)
            if e not in good_by_row.get(row, {}) and e not in bad_by_row.get(row, {}):
                # never fetched: the degraded planner deliberately skipped
                # it and scheduled a repair set instead.
                bad_by_row.setdefault(row, {})[e] = "planned"

        resolved: dict[int, dict[int, bytes]] = {}
        for row, bad in bad_by_row.items():
            good = good_by_row.get(row, {})
            if set(bad.values()) == {"planned"}:
                # fault-free degraded decode from the planned repair set:
                # exactly the fetched elements, no extra I/O.
                with self.tracer.span("decode", row=row, lost=sorted(bad)):
                    available = {
                        e: np.frombuffer(buf, dtype=np.uint8)
                        for e, buf in good.items()
                    }
                    lost = sorted(bad)
                    recovered = self.code.decode(
                        available, lost, self.element_size
                    )
                    resolved[row] = {e: recovered[e].tobytes() for e in lost}
            else:
                resolved[row] = self._repair_row(row, dict(good), bad)

        elements: dict[int, bytes] = {}
        for t in plan.request.elements:
            row, e = divmod(t, k)
            if e in good_by_row.get(row, {}):
                elements[t] = good_by_row[row][e]
            else:
                elements[t] = resolved[row][e]
        return elements

    def _slice_bytes(
        self,
        elements: dict[int, bytes],
        request: ReadRequest,
        offset: int,
        length: int,
    ) -> bytes:
        joined = b"".join(elements[t] for t in request.elements)
        phys_start = request.start * self.element_size
        logical = self._excise_padding(joined, phys_start)
        skip = self._logical_to_physical(offset) - phys_start
        # translate the skip into the pad-free buffer: subtract pad bytes
        # that preceded the target inside the fetched physical window.
        pad_before = sum(
            min(pad_start + pad_len, self._logical_to_physical(offset)) - pad_start
            for pad_start, pad_len in self._pad_runs
            if phys_start <= pad_start < self._logical_to_physical(offset)
        )
        skip -= pad_before
        return logical[skip : skip + length]
