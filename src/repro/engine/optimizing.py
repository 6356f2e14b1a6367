"""Bottleneck-aware degraded-read planning (extension beyond the paper).

The baseline planner (:mod:`repro.engine.degraded`) takes each code's
*preferred* repair set — minimal I/O count, maximal overlap with the
request.  The paper's Figure 7(c) shows what that leaves on the table:
the extra helper fetches can land on already-loaded disks and raise the
bottleneck (max per-disk load), which is what actually gates read speed
(§III).

This planner minimizes the bottleneck instead: for each lost element it
takes the supports of the code's
:meth:`~repro.codes.base.ErasureCode.repair_candidates` and picks the
helpers that keep the per-disk load histogram flat, at equal (or
explicitly bounded) I/O count.  For MDS codes any ``k`` survivors work,
so the single-helper swaps give real freedom; for LRC the local set is
unique but the planner may fall back to the global set (other data plus
a global parity) when the local one concentrates load.

The paper's future-work reading: EC-FRM + load-aware repair selection.
``benchmarks/bench_optimizing_planner.py`` quantifies the gain.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from ..layout.base import Address, Placement
from .requests import AccessKind, AccessPlan, ElementAccess, ReadRequest

__all__ = ["plan_degraded_read_optimized"]


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
        candidates = [frozenset(c) for c in code.repair_candidates(e, have)]
        scored = list(
            _scored_candidates(candidates, placement, row, failed_disk, planned, loads)
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
    candidates: Iterable[frozenset[int]],
    placement: Placement,
    row: int,
    failed_disk: int,
    planned: set[Address],
    loads: Counter,
):
    """Yield ``(score, helpers, new_fetches)`` for candidates clear of the
    failed disk."""
    for helpers in candidates:
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
