"""Piggybacked RS: MDS preservation, repair schedule, and Lemma 1.

The pb-rs element geometry is RS(k, m) — any k of the n elements decode
a row — so the EC-FRM transform must carry its fault tolerance through
unchanged (paper Lemma 1, §IV-C).  The last test class verifies that
directly with the FRM grid harness, alongside the code-level MDS and
repair-candidate properties.
"""

from itertools import combinations

import numpy as np
import pytest

from repro.codes import parse_code_spec
from repro.codes.piggyback import PiggybackRSCode, make_pb_rs
from repro.frm import FRMCode

ELEMENT_SIZE = 32


def _row(code, rng):
    data = rng.integers(0, 256, size=(code.k, ELEMENT_SIZE), dtype=np.uint8)
    parity = code.encode(data)
    return np.concatenate([data, parity], axis=0)


class TestConstruction:
    def test_registry_spec(self):
        code = parse_code_spec("pb-rs-6-3")
        assert isinstance(code, PiggybackRSCode)
        assert (code.k, code.m, code.n) == (6, 3, 9)
        assert code.fault_tolerance == 3
        assert code is make_pb_rs(6, 3)  # memoized

    @pytest.mark.parametrize("k,m", [(0, 2), (-1, 3), (4, 1), (4, 0)])
    def test_bad_geometry_rejected(self, k, m):
        with pytest.raises(ValueError):
            PiggybackRSCode(k, m)

    def test_odd_payload_rejected(self, rng):
        code = make_pb_rs(4, 2)
        data = rng.integers(0, 256, size=(4, 7), dtype=np.uint8)
        with pytest.raises(ValueError, match="even size"):
            code.encode(data)

    def test_carrier_groups_partition_data(self):
        code = make_pb_rs(6, 3)
        seen = set()
        for j in range(code.k):
            t, members = code.carrier_group(j)
            assert 1 <= t < code.m
            assert j in members
            seen |= members
        assert seen == set(range(code.k))
        with pytest.raises(ValueError):
            code.carrier_group(code.k)  # parity elements carry, not ride


class TestMDS:
    """Any ≤ m element erasures decode — the piggyback costs nothing."""

    @pytest.mark.parametrize("k,m", [(4, 2), (6, 3)])
    def test_all_erasure_patterns_roundtrip(self, k, m, rng):
        code = make_pb_rs(k, m)
        row = _row(code, rng)
        for f in range(1, m + 1):
            for erased in combinations(range(code.n), f):
                available = {
                    i: row[i] for i in range(code.n) if i not in erased
                }
                out = code.decode(available, list(erased), ELEMENT_SIZE)
                for e in erased:
                    got = np.asarray(out[e], dtype=np.uint8).reshape(-1)
                    assert got.tobytes() == row[e].tobytes(), (k, m, erased)

    def test_beyond_tolerance_refused(self):
        code = make_pb_rs(4, 2)
        assert code.can_decode([0, 5])
        assert not code.can_decode([0, 1, 5])


class TestRepairCandidates:
    def test_data_repair_reads_fewer_bytes(self):
        """The sub-element schedule reads (k + |S_t|)/2 element-equivalents
        instead of k — the Hitchhiker saving the planner exploits."""
        code = make_pb_rs(6, 3)
        for j in range(code.k):
            sub, conventional, *swaps = code.repair_candidates(j)
            t, members = code.carrier_group(j)
            assert sum(sub.values()) == (code.k + len(members)) / 2
            assert sum(sub.values()) < code.k
            assert sum(conventional.values()) == code.k
            assert conventional == {h: 1.0 for h in code.repair_plan(j)}
            assert all(sum(c.values()) == code.k for c in swaps)
            # the carrier parity and the clean parity both ride along
            assert sub[code.k] == 0.5 and sub[code.k + t] == 0.5

    def test_sub_element_support_is_solvable(self, rng):
        """The whole-element support behind the fractional schedule must
        reconstruct the lost element on its own (the data plane fetches
        whole slots)."""
        code = make_pb_rs(6, 3)
        row = _row(code, rng)
        for j in range(code.k):
            sub = code.repair_candidates(j)[0]
            out = code.decode({h: row[h] for h in sub}, [j], ELEMENT_SIZE)
            got = np.asarray(out[j], dtype=np.uint8).reshape(-1)
            assert got.tobytes() == row[j].tobytes()

    def test_parity_repair_falls_back_to_conventional(self):
        code = make_pb_rs(6, 3)
        for j in range(code.k, code.n):
            candidates = code.repair_candidates(j)
            assert candidates[0] == {h: 1.0 for h in code.repair_plan(j)}
            # no sub-element schedule: every candidate is k whole elements
            for candidate in candidates:
                assert set(candidate.values()) == {1.0}
                assert len(candidate) == code.k and j not in candidate


class TestLemma1:
    """EC-FRM over pb-rs: one element per disk column per group keeps the
    candidate's fault tolerance (paper Lemma 1)."""

    def test_frm_tolerance_matches_candidate(self):
        code = make_pb_rs(6, 3)
        frm = FRMCode(code)
        f = code.fault_tolerance
        assert frm.fault_tolerance == f
        all_patterns = set(combinations(range(frm.n), f))
        assert {
            cols for cols in all_patterns if frm.can_decode_columns(cols)
        } == all_patterns

    def test_frm_stripe_roundtrip_under_column_failures(self, rng):
        code = make_pb_rs(6, 3)
        frm = FRMCode(code)
        g = frm.geometry
        data = rng.integers(
            0, 256, size=(g.data_elements_per_stripe, 4), dtype=np.uint8
        )
        grid = frm.encode_stripe(data)
        # every single- and a sample of triple-column failures decode
        patterns = [(c,) for c in range(frm.n)]
        patterns += [(0, 1, 2), (0, 4, 8), (frm.n - 3, frm.n - 2, frm.n - 1)]
        for cols in patterns:
            broken = grid.copy()
            broken[:, list(cols), :] = 0
            recovered = frm.decode_columns(broken, cols)
            assert np.array_equal(recovered, grid), cols
