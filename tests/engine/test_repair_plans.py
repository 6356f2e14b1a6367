"""Pinned single-loss repair choices, recorded before the planners shared
one repair-set enumeration (:meth:`ErasureCode.repair_candidates`).

``repair_plans.json`` holds two parts:

* ``degraded``: :func:`plan_degraded_read_optimized` for four codes over
  the standard, rotated and ec-frm forms, every failed disk and a few
  fixed request ranges — per plan, the access count and the
  reconstruction fetches ``[disk, slot, row, element]`` in plan order.
  These must not change.
* ``min_transfer``: :func:`plan_min_transfer_repair` for the same codes,
  every lost element, seeded rack maps and both an empty and a seeded
  ``have`` set — ``[rack map, lost, have, reads, cross_rack_bytes,
  bytes_moved]``.  Only the entries in :data:`CHANGED` may differ: each
  is a lost LRC data element or a candidate the shared enumeration newly
  offers, and it must be no worse on ``(cross_rack_bytes, bytes_moved)``.
"""

import json
from pathlib import Path

import pytest

from repro.codes.registry import parse_code_spec
from repro.engine import ReadRequest, plan_degraded_read_optimized
from repro.layout import make_placement
from repro.net import Topology, plan_min_transfer_repair

FIXTURE = json.loads((Path(__file__).parent / "repair_plans.json").read_text())
ELEMENT_SIZE = FIXTURE["element_size"]

#: min-transfer entries whose chosen plan changed, as ``(spec, index)``:
#: both are lost lrc-6-2-2 global parities, repaired from a single-helper
#: swap of the all-data set that trades a cross-rack data element for
#: in-rack local parity 6.
CHANGED = {("lrc-6-2-2", 98), ("lrc-6-2-2", 116)}


@pytest.mark.parametrize("key", sorted(FIXTURE["degraded"]))
def test_optimized_degraded_plans_unchanged(key):
    spec, form = key.split("/")
    placement = make_placement(form, parse_code_spec(spec))
    for disk, expected in enumerate(FIXTURE["degraded"][key]):
        for (start, count), (accesses, helpers) in zip(FIXTURE["requests"], expected):
            plan = plan_degraded_read_optimized(
                placement, ReadRequest(start, count), disk, ELEMENT_SIZE
            )
            got = [
                [a.address.disk, a.address.slot, a.row, a.element]
                for a in plan.accesses
                if a.kind.value == "reconstruction"
            ]
            assert (len(plan.accesses), got) == (accesses, helpers), (key, disk, start)


@pytest.mark.parametrize("spec", sorted(FIXTURE["min_transfer"]))
def test_min_transfer_plans_unchanged_or_no_worse(spec):
    code = parse_code_spec(spec)
    racks = FIXTURE["min_transfer"][spec]["racks"]
    for index, entry in enumerate(FIXTURE["min_transfer"][spec]["plans"]):
        topo_index, lost, have, reads, cross, moved = entry
        topo = Topology(racks[topo_index])
        have = frozenset(have)
        plan = plan_min_transfer_repair(
            code,
            lost,
            element_rack=topo.rack_of,
            site_rack=topo.rack_of(lost),
            element_size=ELEMENT_SIZE,
            have=have,
        )
        recorded = tuple((e, f) for e, f in reads)
        if (spec, index) not in CHANGED:
            assert (plan.reads, plan.cross_rack_bytes, plan.bytes_moved) == (
                recorded,
                cross,
                moved,
            ), (spec, index)
            continue
        assert plan.reads != recorded, (spec, index)
        assert (plan.cross_rack_bytes, plan.bytes_moved) <= (cross, moved)
        swaps = [frozenset(c) for c in code.repair_candidates(lost, have)[1:]]
        assert (spec.startswith("lrc") and code.is_data(lost)) or plan.elements in swaps
