"""Minimum-transfer repair planning over a rack topology.

A conventional degraded read repairs a lost element from *any* solvable
helper set — usually "the first k survivors" — and every helper byte
fetched is a helper byte shipped.  With a :class:`~repro.net.Topology`
attached, two extra degrees of freedom open up:

* **which** helper set to use: codes expose alternatives through
  :meth:`ErasureCode.repair_candidates` (an LRC's local group vs its
  global set; a piggybacked code's sub-element schedule vs plain RS;
  single-helper swaps of an MDS set) and through the cost-directed
  greedy :meth:`ErasureCode.repair_plan` with ``cost=``;
* **how much** of each helper to ship: sub-element repair reads whole
  slots off the platters (checksum verification stays intact) but ships
  only the needed fraction over the network.

:func:`plan_min_transfer_repair` scores every candidate by
``(cross_rack_bytes, bytes_moved, reads, tie)`` against the repair
site's rack and returns the cheapest — deterministically, so plans are
cacheable and replayable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

from ..codes.base import ErasureCode

__all__ = [
    "TransferSummary",
    "RepairTransferPlan",
    "ship_bytes",
    "score_reads",
    "plan_min_transfer_repair",
]


def ship_bytes(fraction: float, element_size: int) -> int:
    """Network bytes shipped for reading ``fraction`` of one element."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"read fraction must be in (0, 1], got {fraction}")
    return min(element_size, max(1, math.ceil(fraction * element_size)))


@dataclass
class TransferSummary:
    """Accumulated ``net.*`` repair-traffic counters.

    ``bytes_moved`` is every network byte shipped for reconstruction
    (helpers shared with requested fetches included — they travel either
    way, and counting them keeps planner comparisons honest);
    ``cross_rack_bytes`` is the subset that left the repair site's rack.
    """

    bytes_moved: int = 0
    cross_rack_bytes: int = 0
    repair_sets: int = 0
    repair_elements: int = 0

    @property
    def intra_rack_bytes(self) -> int:
        return self.bytes_moved - self.cross_rack_bytes

    def add(self, other: "TransferSummary") -> None:
        self.bytes_moved += other.bytes_moved
        self.cross_rack_bytes += other.cross_rack_bytes
        self.repair_sets += other.repair_sets
        self.repair_elements += other.repair_elements

    def snapshot(self) -> dict:
        """Plain-dict view for metrics export."""
        return {
            "bytes_moved": self.bytes_moved,
            "cross_rack_bytes": self.cross_rack_bytes,
            "intra_rack_bytes": self.intra_rack_bytes,
            "repair_sets": self.repair_sets,
            "repair_elements": self.repair_elements,
            "repair_set_size": (
                self.repair_elements / self.repair_sets if self.repair_sets else 0.0
            ),
        }


@dataclass(frozen=True)
class RepairTransferPlan:
    """One lost element's chosen repair read-set, priced.

    ``reads`` is ``((helper element, fraction), ...)`` sorted by element;
    the fraction is the share of the element's bytes that must travel
    (disks still read whole slots — verification is unchanged — the
    fraction prices the *network*).  The whole-element support
    (:attr:`elements`) is always solvable for ``lost`` on its own.
    """

    lost: int
    reads: tuple[tuple[int, float], ...]
    bytes_moved: int
    cross_rack_bytes: int
    site_rack: int

    @property
    def elements(self) -> frozenset[int]:
        """The whole-element helper support set."""
        return frozenset(e for e, _ in self.reads)

    def summary(self) -> TransferSummary:
        return TransferSummary(
            bytes_moved=self.bytes_moved,
            cross_rack_bytes=self.cross_rack_bytes,
            repair_sets=1,
            repair_elements=len(self.reads),
        )


def score_reads(
    reads,
    element_rack: Callable[[int], int],
    site_rack: int,
    element_size: int,
) -> tuple[int, int]:
    """``(bytes_moved, cross_rack_bytes)`` of a fractional read-set."""
    moved = 0
    cross = 0
    for element, fraction in reads:
        nbytes = ship_bytes(fraction, element_size)
        moved += nbytes
        if element_rack(element) != site_rack:
            cross += nbytes
    return moved, cross


def _normalize_candidate(candidate: Mapping[int, float]) -> tuple[tuple[int, float], ...]:
    return tuple(sorted((int(e), float(f)) for e, f in candidate.items()))


def plan_min_transfer_repair(
    code: ErasureCode,
    lost: int,
    *,
    element_rack: Callable[[int], int],
    site_rack: int,
    element_size: int,
    have: frozenset[int] = frozenset(),
) -> RepairTransferPlan:
    """Choose the repair read-set for ``lost`` that moves the fewest bytes.

    Candidates come from two sources: the code's own
    :meth:`~ErasureCode.repair_candidates` (structural alternatives,
    possibly sub-element), and :meth:`~ErasureCode.repair_plan` with a
    ``cost`` pricing cross-rack helpers above in-rack ones (a greedy
    whole-element set).  The winner minimizes
    ``(cross_rack_bytes, bytes_moved, len(reads))`` with the read tuple
    itself as the deterministic tiebreak.

    Parameters
    ----------
    code / lost / have:
        As for :meth:`ErasureCode.repair_plan`.
    element_rack:
        ``element index -> rack id`` under the row's placement.
    site_rack:
        Rack where the reconstruction happens (the failed/rebuilt disk's
        rack); bytes entering it from elsewhere are cross-rack.
    element_size:
        Element payload size in bytes.
    """
    def rack_cost(element: int) -> float:
        return 0.0 if element_rack(element) == site_rack else 1.0

    def key(reads: tuple[tuple[int, float], ...]):
        moved, cross = score_reads(reads, element_rack, site_rack, element_size)
        return cross, moved, len(reads), reads

    candidates = [_normalize_candidate(c) for c in code.repair_candidates(lost, have)]
    costed = code.repair_plan(lost, have, cost=rack_cost)
    candidates.append(tuple((h, 1.0) for h in sorted(costed)))
    cross, moved, _, reads = key(min(candidates, key=key))
    return RepairTransferPlan(
        lost=lost,
        reads=reads,
        bytes_moved=moved,
        cross_rack_bytes=cross,
        site_rack=site_rack,
    )
