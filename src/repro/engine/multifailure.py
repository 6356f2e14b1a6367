"""Degraded-read planning under multiple concurrent disk failures.

The paper evaluates single-failure degraded reads (the dominant case —
its §II-D cites that 99.75% of recoveries are single-disk), but cloud
operators care how gracefully performance degrades as failures stack up
during upgrades.  This planner generalises the single-failure one: per
candidate row it determines the erased elements, selects a sufficient
helper set (preferring elements the request already fetches, then data,
then parities, adding more until the erasures are decodable), and
schedules only the missing fetches.

``benchmarks/bench_multi_failure.py`` sweeps the failure count and shows
the EC-FRM ordering persists all the way to the fault-tolerance limit.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..codes.base import DecodeFailure, ErasureCode, MatrixCode
from ..layout.base import Address, Placement
from .requests import AccessKind, AccessPlan, ElementAccess, ReadRequest

__all__ = ["plan_degraded_read_multi"]


def _sufficient_helpers(
    code: ErasureCode, erased: Sequence[int], preferred: Sequence[int]
) -> frozenset[int]:
    """A helper set sufficient to decode ``erased``, built greedily from
    ``preferred`` order; minimal in the sense of not adding helpers after
    sufficiency is reached."""
    if not isinstance(code, MatrixCode):
        raise TypeError("multi-failure planning requires a MatrixCode candidate")

    def covers(helpers: list[int]) -> bool:
        # erased rows inside span(helpers) <=> stacking them adds no rank
        own = code.span_rank(helpers)
        combined = code.span_rank(helpers + list(erased))
        return combined == own

    chosen: list[int] = []
    own_rank = 0
    reached = False
    for h in preferred:
        new_rank = code.span_rank(chosen + [h])
        if new_rank == own_rank:
            continue  # h adds nothing to the span
        chosen.append(h)
        own_rank = new_rank
        if covers(chosen):
            reached = True
            break
    if not reached:
        raise DecodeFailure(f"erasures {sorted(erased)} not decodable from survivors")

    # Prune: drop helpers (least-preferred first) whose removal keeps
    # coverage — the greedy keeps rank-increasing but irrelevant picks.
    for h in reversed(chosen.copy()):
        trimmed = [x for x in chosen if x != h]
        if covers(trimmed):
            chosen = trimmed
    return frozenset(chosen)


def plan_degraded_read_multi(
    placement: Placement,
    request: ReadRequest,
    failed_disks: Iterable[int],
    element_size: int,
) -> AccessPlan:
    """Access plan for a read while several disks are down.

    Degenerates to the single-failure planner's behaviour for one failed
    disk (helper sets may differ but the counting semantics match).  The
    returned plan's ``failed_disk`` field holds the first failed disk for
    reporting; the plan itself avoids *all* failed disks.
    """
    failed = sorted({int(d) for d in failed_disks})
    if element_size <= 0:
        raise ValueError(f"element size must be > 0, got {element_size}")
    for d in failed:
        if not 0 <= d < placement.num_disks:
            raise ValueError(
                f"failed disk {d} out of range for {placement.num_disks} disks"
            )
    failed_set = set(failed)
    code = placement.code
    plan = AccessPlan(
        request=request,
        element_size=element_size,
        failed_disk=failed[0] if failed else None,
    )
    planned: set[Address] = set()
    surviving_by_row: dict[int, set[int]] = {}
    lost_by_row: dict[int, list[int]] = {}

    for t in request.elements:
        row, e = placement.row_of_data(t)
        addr = placement.locate_data(t)
        if addr.disk in failed_set:
            lost_by_row.setdefault(row, []).append(e)
            continue
        plan.add(ElementAccess(address=addr, kind=AccessKind.REQUESTED, row=row, element=e))
        planned.add(addr)
        surviving_by_row.setdefault(row, set()).add(e)

    for row, erased_requested in lost_by_row.items():
        erased_all = [
            e
            for e in range(code.n)
            if placement.locate_row_element(row, e).disk in failed_set
        ]
        # Solve for every erased *data* element of the row, not only the
        # requested ones: the equation solver treats them all as unknowns,
        # so the helper span must determine them all.
        erased_data = [e for e in erased_all if code.is_data(e)]
        have = surviving_by_row.get(row, set())
        preference = sorted(
            (e for e in range(code.n) if e not in erased_all),
            key=lambda e: (e not in have, code.is_parity(e), e),
        )
        helpers = _sufficient_helpers(code, erased_data, preference)
        for h in sorted(helpers):
            addr = placement.locate_row_element(row, h)
            if addr in planned:
                continue
            plan.add(
                ElementAccess(
                    address=addr, kind=AccessKind.RECONSTRUCTION, row=row, element=h
                )
            )
            planned.add(addr)
    return plan
