"""Property test: minimum-transfer repair over every registered code.

For every registered code spec and every single-failure signature (each
element of the row lost alone), under a randomized rack topology seeded
by ``ECFRM_NET_SEED``:

* the planner's whole-element support set decodes the lost element
  byte-exactly on its own;
* the plan is never worse than the conventional repair set
  (:meth:`ErasureCode.repair_plan`, always among the candidates) under
  the planner's lexicographic objective ``(cross_rack, bytes_moved)`` —
  in particular it never ships more total bytes unless that strictly
  reduces cross-rack bytes, and on a flat topology (where cross-rack is
  identically zero) total bytes moved is always ≤ conventional;
* the plan is deterministic for a fixed topology;
* every candidate :meth:`ErasureCode.repair_candidates` offers the
  planner decodes the lost element byte-exactly from its whole-element
  support, never contains the lost element, and the enumeration returns
  at most ``limit`` candidates.
"""

import os

import numpy as np
import pytest

from repro.codes.registry import parse_code_spec
from repro.net import (
    RepairTransferPlan,
    Topology,
    plan_min_transfer_repair,
    score_reads,
    ship_bytes,
)

SEED = int(os.environ.get("ECFRM_NET_SEED", "0"))
ELEMENT_SIZE = 64

# one spec per registered code family (see repro.codes.registry)
SPECS = ("rs-3-2", "rs-6-3", "lrc-6-2-2", "cauchy-rs-4-2", "pb-rs-6-3")


def _random_topology(rng: np.random.Generator, num_disks: int) -> Topology:
    racks = int(rng.integers(2, min(4, num_disks) + 1))
    rack_map = [int(r) for r in rng.integers(0, racks, num_disks)]
    return Topology(rack_map)


def _encode_row(code, rng: np.random.Generator) -> np.ndarray:
    data = rng.integers(0, 256, size=(code.k, ELEMENT_SIZE), dtype=np.uint8)
    parity = code.encode(data)
    return np.concatenate([data, parity], axis=0)


@pytest.mark.parametrize("spec", SPECS)
def test_min_transfer_repair_properties(spec):
    code = parse_code_spec(spec)
    rng = np.random.default_rng([SEED, SPECS.index(spec)])
    limit_rng = np.random.default_rng([SEED, SPECS.index(spec), 1])
    row = _encode_row(code, rng)

    for trial in range(3):
        topo = _random_topology(rng, code.n)
        for lost in range(code.n):
            site = topo.rack_of(lost)
            plan = plan_min_transfer_repair(
                code,
                lost,
                element_rack=topo.rack_of,
                site_rack=site,
                element_size=ELEMENT_SIZE,
            )
            assert isinstance(plan, RepairTransferPlan)
            assert plan.lost == lost
            assert lost not in plan.elements

            # the support set alone reconstructs the element byte-exactly
            available = {h: row[h] for h in plan.elements}
            out = code.decode(available, [lost], ELEMENT_SIZE)
            got = np.asarray(out[lost], dtype=np.uint8).reshape(-1)
            assert got.tobytes() == row[lost].tobytes(), (
                f"{spec}: repair of element {lost} from {sorted(plan.elements)} "
                f"diverged under {topo.describe()}"
            )

            # never worse than the conventional repair set under the
            # planner's objective: cross-rack bytes first, then total.
            # (more total bytes is allowed only when it strictly cuts
            # cross-rack traffic — e.g. an LRC global parity assembling
            # in-rack helpers instead of the compact global set.)
            conv = [(h, 1.0) for h in sorted(code.repair_plan(lost))]
            conv_moved, conv_cross = score_reads(
                conv, topo.rack_of, site, ELEMENT_SIZE
            )
            assert (plan.cross_rack_bytes, plan.bytes_moved) <= (
                conv_cross,
                conv_moved,
            )

            # the priced totals agree with re-scoring the read tuple
            moved, cross = score_reads(
                plan.reads, topo.rack_of, site, ELEMENT_SIZE
            )
            assert (moved, cross) == (plan.bytes_moved, plan.cross_rack_bytes)

            # deterministic for a fixed topology
            again = plan_min_transfer_repair(
                code,
                lost,
                element_rack=topo.rack_of,
                site_rack=site,
                element_size=ELEMENT_SIZE,
            )
            assert again == plan

            # every offered candidate repairs on its own, within the limit
            limit = int(limit_rng.integers(1, 25))
            candidates = code.repair_candidates(lost, limit=limit)
            assert 1 <= len(candidates) <= limit
            for candidate in candidates:
                assert lost not in candidate
                out = code.decode({h: row[h] for h in candidate}, [lost], ELEMENT_SIZE)
                got = np.asarray(out[lost], dtype=np.uint8).reshape(-1)
                assert got.tobytes() == row[lost].tobytes(), (
                    f"{spec}: candidate {sorted(candidate)} for element {lost} "
                    "does not decode it"
                )


@pytest.mark.parametrize("spec", SPECS)
def test_flat_topology_never_ships_more_than_conventional(spec):
    """With no rack asymmetry, cross-rack bytes are identically zero and
    the plan's total bytes moved is at most the conventional set's."""
    code = parse_code_spec(spec)
    topo = Topology.flat(code.n)
    for lost in range(code.n):
        plan = plan_min_transfer_repair(
            code,
            lost,
            element_rack=topo.rack_of,
            site_rack=0,
            element_size=ELEMENT_SIZE,
        )
        conv = [(h, 1.0) for h in sorted(code.repair_plan(lost))]
        conv_moved, _ = score_reads(conv, topo.rack_of, 0, ELEMENT_SIZE)
        assert plan.cross_rack_bytes == 0
        assert plan.bytes_moved <= conv_moved


def test_lrc_local_repair_stays_in_rack():
    """Rack-aligned local groups: repairing any data element of the LRC
    crosses no rack boundary, while the global set must."""
    code = parse_code_spec("lrc-6-2-2")
    # group A = data 0,1,2 + local parity 6 in rack 0;
    # group B = data 3,4,5 + local parity 7 in rack 1; globals in rack 2.
    topo = Topology([0, 0, 0, 1, 1, 1, 0, 1, 2, 2])
    for lost in range(code.k):
        plan = plan_min_transfer_repair(
            code,
            lost,
            element_rack=topo.rack_of,
            site_rack=topo.rack_of(lost),
            element_size=ELEMENT_SIZE,
        )
        assert plan.cross_rack_bytes == 0
        assert len(plan.reads) == 3  # the local group minus the lost element


def test_lrc_global_set_beats_costed_greedy():
    """The LRC's global set (other data plus global parity 0) wins when the
    local group sits off-rack and the cost-ordered greedy, led by in-rack
    survivors that include a local parity, needs seven helpers."""
    code = parse_code_spec("lrc-6-2-2")
    # data 3,4,5, local parity 7 and global parity 8 share the repair
    # site's rack 0; data 1,2, local parity 6 and global parity 9 do not.
    topo = Topology([0, 1, 1, 0, 0, 0, 1, 0, 0, 1])
    plan = plan_min_transfer_repair(
        code,
        0,
        element_rack=topo.rack_of,
        site_rack=0,
        element_size=ELEMENT_SIZE,
    )
    assert plan.elements == {1, 2, 3, 4, 5, code.global_parity_index(0)}
    assert plan.cross_rack_bytes == 2 * ELEMENT_SIZE
    assert plan.bytes_moved == code.k * ELEMENT_SIZE


def test_piggyback_candidate_wins_on_flat_topology():
    """With no rack asymmetry the tie-break is bytes moved, so pb-rs
    repairs a data element with its sub-element schedule."""
    code = parse_code_spec("pb-rs-6-3")
    topo = Topology.flat(code.n)
    plan = plan_min_transfer_repair(
        code,
        0,
        element_rack=topo.rack_of,
        site_rack=0,
        element_size=ELEMENT_SIZE,
    )
    t, members = code.carrier_group(0)
    expected = (len(members) - 1) + (code.k - len(members)) * 0.5 + 1.0
    assert plan.bytes_moved == sum(
        ship_bytes(f, ELEMENT_SIZE) for _, f in plan.reads
    )
    assert plan.bytes_moved == int(expected * ELEMENT_SIZE)
    assert plan.bytes_moved < code.k * ELEMENT_SIZE
