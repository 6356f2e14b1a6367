"""Degraded-read planning: serve a read while one disk is down.

Requested elements on surviving disks are fetched directly.  Each requested
element lost with the failed disk is reconstructed inside its candidate
row: the code's :meth:`repair_plan` chooses helper elements, preferring
ones the request already fetches (so the marginal I/O is minimal), and the
planner schedules only the helpers not already in the plan.

A structural invariant shared by all three placement forms makes single-
failure planning exact: every candidate row has **exactly one element per
disk**, so one failed disk erases at most one element of any row and the
single-loss repair API suffices (asserted below).

With a :class:`~repro.net.Topology` attached, helper selection goes
through the minimum-transfer planner: candidate repair sets are priced
by cross-rack bytes then bytes moved against the failed disk's rack.
Either way the plan records its repair traffic in
:attr:`AccessPlan.repair_reads`, so any plan can be summarized against
any topology (the benchmarks compare planners this way).
"""

from __future__ import annotations

from ..layout.base import Address, Placement
from ..net.planner import plan_min_transfer_repair, ship_bytes
from .requests import AccessKind, AccessPlan, ElementAccess, ReadRequest

__all__ = ["plan_degraded_read"]


def plan_degraded_read(
    placement: Placement,
    request: ReadRequest,
    failed_disk: int,
    element_size: int,
    topology=None,
) -> AccessPlan:
    """Build the access plan of a read with ``failed_disk`` down.

    Parameters
    ----------
    placement:
        The form under test; its ``code`` provides repair planning.
    request:
        Contiguous logical element range.
    failed_disk:
        Disk id that is unavailable.
    element_size:
        Element payload size in bytes.
    topology:
        Optional :class:`repro.net.Topology`; when given, each lost
        element's helpers come from
        :func:`repro.net.plan_min_transfer_repair` with the failed
        disk's rack as the repair site.
    """
    if element_size <= 0:
        raise ValueError(f"element size must be > 0, got {element_size}")
    if not 0 <= failed_disk < placement.num_disks:
        raise ValueError(
            f"failed disk {failed_disk} out of range for {placement.num_disks} disks"
        )

    code = placement.code
    plan = AccessPlan(request=request, element_size=element_size, failed_disk=failed_disk)
    planned: set[Address] = set()
    surviving_by_row: dict[int, set[int]] = {}
    lost: list[tuple[int, int]] = []

    # Pass 1: direct fetches for survivors; collect losses.
    for t in request.elements:
        row, e = placement.row_of_data(t)
        addr = placement.locate_data(t)
        if addr.disk == failed_disk:
            if any(le[0] == row for le in lost):  # pragma: no cover - layout invariant
                raise AssertionError(
                    f"row {row} has two elements on disk {failed_disk}; "
                    "placement violates the one-element-per-disk invariant"
                )
            lost.append((row, e))
            continue
        plan.add(ElementAccess(address=addr, kind=AccessKind.REQUESTED, row=row, element=e))
        planned.add(addr)
        surviving_by_row.setdefault(row, set()).add(e)

    # Pass 2: reconstruction fetches for each lost element.
    site_rack = topology.rack_of(failed_disk) if topology is not None else None
    for row, e in lost:
        have = frozenset(surviving_by_row.get(row, set()))
        if topology is None:
            reads = [(h, 1.0) for h in sorted(code.repair_plan(e, have))]
        else:
            transfer = plan_min_transfer_repair(
                code,
                e,
                element_rack=lambda h, row=row: topology.rack_of(
                    placement.locate_row_element(row, h).disk
                ),
                site_rack=site_rack,
                element_size=element_size,
                have=have,
            )
            reads = list(transfer.reads)
        plan.repair_sets += 1
        for h, fraction in reads:
            addr = placement.locate_row_element(row, h)
            if addr.disk == failed_disk:  # pragma: no cover - repair invariant
                raise AssertionError(
                    f"repair plan for row {row} element {e} uses helper {h} "
                    f"on the failed disk"
                )
            plan.repair_reads.append((addr, ship_bytes(fraction, element_size)))
            if addr in planned:
                continue
            plan.add(
                ElementAccess(
                    address=addr, kind=AccessKind.RECONSTRUCTION, row=row, element=h
                )
            )
            planned.add(addr)
    return plan
