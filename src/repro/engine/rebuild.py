"""Whole-disk rebuild planning and timing (paper §II-D's recovery metric).

Rebuilding a failed disk reads each lost element's repair set and writes
the reconstructed element to a replacement.  Reads proceed in parallel
across surviving spindles; the rebuild makespan is gated by the busiest
surviving disk (reads) or by the replacement disk (writes), whichever is
longer.  Placement decides everything: the standard form concentrates
helper reads on the dedicated data disks, while EC-FRM spreads them over
all survivors — so EC-FRM speeds up recovery for the same reason it
speeds up reads.

Each lost element is repaired from the code's preferred
:meth:`~repro.codes.base.ErasureCode.repair_plan` set, or, with
``optimize=True``, from whichever of its smallest
:meth:`~repro.codes.base.ErasureCode.repair_candidates` keeps the
per-disk read histogram flattest.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from ..disks.model import DiskModel
from ..layout.base import Address, Placement

__all__ = ["RebuildPlan", "plan_disk_rebuild", "rebuild_time_s"]


@dataclass(frozen=True)
class RebuildPlan:
    """Read schedule for rebuilding one failed disk over ``rows`` rows.

    Attributes
    ----------
    failed_disk:
        The disk being rebuilt.
    rows:
        Number of candidate rows of data covered.
    reads:
        Deduplicated helper reads: disk -> [(slot, element_index), ...].
    elements_rebuilt:
        Lost elements reconstructed (one per row for all shipped forms).
    """

    failed_disk: int
    rows: int
    reads: dict[int, list[tuple[int, int]]]
    elements_rebuilt: int

    @property
    def total_reads(self) -> int:
        """Distinct element reads across all surviving disks."""
        return sum(len(v) for v in self.reads.values())

    def per_disk_loads(self) -> Counter:
        """Read count per surviving disk."""
        return Counter({d: len(v) for d, v in self.reads.items()})

    @property
    def max_disk_load(self) -> int:
        """Busiest surviving disk's read count — the rebuild bottleneck."""
        loads = self.per_disk_loads()
        return max(loads.values()) if loads else 0


def plan_disk_rebuild(
    placement: Placement, failed_disk: int, rows: int, *, optimize: bool = False
) -> RebuildPlan:
    """Plan the helper reads to rebuild ``failed_disk`` over ``rows`` rows.

    Every element of the failed disk (exactly one per candidate row in all
    three forms) is repaired with the code's preferred repair set; reads
    shared between rows are deduplicated.

    With ``optimize=True`` each row chooses among the smallest supports
    of the code's :meth:`~repro.codes.base.ErasureCode.repair_candidates`
    to keep the cumulative per-disk read histogram flat — a load-aware
    rebuild in the spirit of the paper's bottleneck argument, at equal
    per-row I/O.
    """
    if rows <= 0:
        raise ValueError(f"rows must be > 0, got {rows}")
    if not 0 <= failed_disk < placement.num_disks:
        raise ValueError(
            f"failed disk {failed_disk} out of range for {placement.num_disks} disks"
        )
    code = placement.code
    seen: set[Address] = set()
    reads: dict[int, list[tuple[int, int]]] = {}
    loads: Counter = Counter()
    rebuilt = 0

    def commit(row: int, helpers) -> None:
        for h in sorted(helpers):
            addr = placement.locate_row_element(row, h)
            if addr in seen:
                continue
            seen.add(addr)
            reads.setdefault(addr.disk, []).append((addr.slot, h))
            loads[addr.disk] += 1

    for row in range(rows):
        lost = [
            e
            for e in range(code.n)
            if placement.locate_row_element(row, e).disk == failed_disk
        ]
        for e in lost:
            rebuilt += 1
            if not optimize:
                commit(row, code.repair_plan(e))
                continue
            candidates = [frozenset(c) for c in code.repair_candidates(e)]
            min_size = min(len(helpers) for helpers in candidates)
            best_helpers = None
            best_score = None
            for helpers in candidates:
                if len(helpers) != min_size:
                    continue
                trial = loads.copy()
                fresh = 0
                touched = 0
                for h in helpers:
                    addr = placement.locate_row_element(row, h)
                    touched += trial[addr.disk]
                    if addr not in seen:
                        trial[addr.disk] += 1
                        fresh += 1
                # tie-break on the cumulative hotness of the disks touched,
                # so ties on the max rotate the choice toward cold disks.
                score = (max(trial.values(), default=0), fresh, touched)
                if best_score is None or score < best_score:
                    best_score = score
                    best_helpers = helpers
            assert best_helpers is not None
            commit(row, best_helpers)
    return RebuildPlan(
        failed_disk=failed_disk, rows=rows, reads=reads, elements_rebuilt=rebuilt
    )


def rebuild_time_s(
    plan: RebuildPlan, model: DiskModel, element_size: int
) -> float:
    """Simulated rebuild makespan.

    Surviving disks serve their read lists concurrently; the replacement
    disk streams ``elements_rebuilt`` sequential writes.  Makespan is the
    slower of the two phases (reads and writes overlap in a pipelined
    rebuild).
    """
    if element_size <= 0:
        raise ValueError(f"element size must be > 0, got {element_size}")
    read_time = 0.0
    for disk, accesses in plan.reads.items():
        t = model.service_time_s([(slot, element_size) for slot, _ in accesses])
        read_time = max(read_time, t)
    # The replacement disk is written front to back: one positioning, then
    # pure streaming — regardless of the chunk-store read model.
    write_time = model.positioning_time_s + plan.elements_rebuilt * model.transfer_time_s(
        element_size
    )
    return max(read_time, write_time)
