"""Bottleneck-aware degraded-read planning (extension beyond the paper).

The baseline planner (:mod:`repro.engine.degraded`) takes each code's
*preferred* repair set — minimal I/O count, maximal overlap with the
request.  The paper's Figure 7(c) shows what that leaves on the table:
the extra helper fetches can land on already-loaded disks and raise the
bottleneck (max per-disk load), which is what actually gates read speed
(§III).

This planner minimizes the bottleneck instead: for each lost element it
enumerates the code's *alternative* repair sets and picks helpers that
keep the per-disk load histogram flat, at equal (or explicitly bounded)
I/O count.  For MDS codes any ``k`` survivors work, so there is real
freedom; for LRC the local set is unique but the planner may fall back
to a global repair when the local one concentrates load.

The paper's future-work reading: EC-FRM + load-aware repair selection.
``benchmarks/bench_optimizing_planner.py`` quantifies the gain.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from ..codes.base import ErasureCode
from ..codes.lrc import LocalReconstructionCode
from ..layout.base import Address, Placement
from .requests import AccessKind, AccessPlan, ElementAccess, ReadRequest

__all__ = ["repair_set_alternatives", "plan_degraded_read_optimized"]


def repair_set_alternatives(
    code: ErasureCode, lost: int, have: frozenset[int], *, limit: int = 24
) -> list[frozenset[int]]:
    """Candidate helper sets for rebuilding ``lost``, cheapest first.

    Always contains the code's preferred plan.  For MDS matrix codes it
    additionally enumerates swaps of the preferred set's non-``have``
    members against unused survivors (each swap of one helper preserves
    decodability for MDS codes: any ``k`` survivors work).  For LRC it
    adds the global repair set as a fallback.
    """
    preferred = code.repair_plan(lost, have)
    alternatives: list[frozenset[int]] = [preferred]

    if isinstance(code, LocalReconstructionCode) and code.is_data(lost):
        # unique minimal local set; the only alternative with bounded cost
        # is an MDS-style global repair via the global parities.
        global_set = frozenset(
            j for j in range(code.k) if j != lost
        ) | {code.global_parity_index(0)}
        alternatives.append(frozenset(global_set))
        return alternatives[:limit]

    survivors = [i for i in range(code.n) if i != lost]
    unused = [i for i in survivors if i not in preferred]
    swappable = sorted(preferred - have)
    for out in swappable:
        for incoming in unused:
            candidate = (preferred - {out}) | {incoming}
            if candidate not in alternatives:
                alternatives.append(candidate)
            if len(alternatives) >= limit:
                return alternatives
    return alternatives


def plan_degraded_read_optimized(
    placement: Placement,
    request: ReadRequest,
    failed_disk: int,
    element_size: int,
    *,
    io_slack: int = 1,
) -> AccessPlan:
    """Degraded-read plan minimizing the most-loaded disk.

    Parameters
    ----------
    placement, request, failed_disk, element_size:
        As for :func:`repro.engine.degraded.plan_degraded_read`.
    io_slack:
        How many extra element reads (vs the cheapest repair set per lost
        element) the optimizer may spend to flatten the load histogram.
        ``0`` keeps I/O minimal; the default ``1`` allows one extra read
        per lost element when it removes a hotspot.
    """
    if element_size <= 0:
        raise ValueError(f"element size must be > 0, got {element_size}")
    if not 0 <= failed_disk < placement.num_disks:
        raise ValueError(
            f"failed disk {failed_disk} out of range for {placement.num_disks} disks"
        )
    if io_slack < 0:
        raise ValueError(f"io_slack must be >= 0, got {io_slack}")

    code = placement.code
    plan = AccessPlan(request=request, element_size=element_size, failed_disk=failed_disk)
    loads: Counter = Counter()
    planned: set[Address] = set()
    surviving_by_row: dict[int, set[int]] = {}
    lost: list[tuple[int, int]] = []

    for t in request.elements:
        row, e = placement.row_of_data(t)
        addr = placement.locate_data(t)
        if addr.disk == failed_disk:
            lost.append((row, e))
            continue
        plan.add(ElementAccess(address=addr, kind=AccessKind.REQUESTED, row=row, element=e))
        planned.add(addr)
        loads[addr.disk] += 1
        surviving_by_row.setdefault(row, set()).add(e)

    for row, e in lost:
        have = frozenset(surviving_by_row.get(row, set()))
        candidates = repair_set_alternatives(code, e, have)
        scored = list(
            _scored_candidates(
                code, e, candidates, placement, row, failed_disk, planned, loads
            )
        )
        if not scored:
            raise ValueError(
                f"no feasible repair set for row {row} element {e} with "
                f"disk {failed_disk} down"
            )
        # I/O budget: at most io_slack extra reads beyond the cheapest
        # feasible repair; within budget, flatten the bottleneck.
        cheapest_extra = min(score[1] for score, _, _ in scored)
        within_budget = [
            entry for entry in scored if entry[0][1] <= cheapest_extra + io_slack
        ]
        _, _, fetches = min(within_budget, key=lambda entry: entry[0])
        for h, addr in fetches:
            plan.add(
                ElementAccess(
                    address=addr, kind=AccessKind.RECONSTRUCTION, row=row, element=h
                )
            )
            planned.add(addr)
            loads[addr.disk] += 1
    return plan


def _scored_candidates(
    code: ErasureCode,
    lost: int,
    candidates: Iterable[frozenset[int]],
    placement: Placement,
    row: int,
    failed_disk: int,
    planned: set[Address],
    loads: Counter,
):
    """Yield ``(score, helpers, new_fetches)`` for feasible candidates."""
    for helpers in candidates:
        if not code.repairable_from(lost, helpers):
            continue
        new_fetches: list[tuple[int, Address]] = []
        ok = True
        for h in sorted(helpers):
            addr = placement.locate_row_element(row, h)
            if addr.disk == failed_disk:
                ok = False
                break
            if addr not in planned:
                new_fetches.append((h, addr))
        if not ok:
            continue
        trial = loads.copy()
        for _, addr in new_fetches:
            trial[addr.disk] += 1
        score = (
            max(trial.values(), default=0),
            len(new_fetches),
            sum(trial[addr.disk] for _, addr in new_fetches),
        )
        yield score, helpers, new_fetches
