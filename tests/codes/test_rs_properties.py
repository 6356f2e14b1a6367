"""Property-based tests for Reed-Solomon: the MDS contract."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes import make_rs

params = st.tuples(st.integers(2, 10), st.integers(1, 5))


@st.composite
def rs_with_erasures(draw):
    k, m = draw(params)
    rs = make_rs(k, m)
    f = draw(st.integers(1, m))
    erased = draw(
        st.lists(st.integers(0, rs.n - 1), min_size=f, max_size=f, unique=True)
    )
    seed = draw(st.integers(0, 2**32 - 1))
    return rs, erased, seed


class TestMDSContract:
    @given(rs_with_erasures())
    @settings(max_examples=60, deadline=None)
    def test_any_tolerable_erasure_decodes(self, case):
        rs, erased, seed = case
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 256, size=(rs.k, 8), dtype=np.uint8)
        full = np.vstack([data, rs.encode(data)])
        available = {i: full[i] for i in range(rs.n) if i not in erased}
        out = rs.decode(available, erased, 8)
        for e in erased:
            assert np.array_equal(out[e], full[e])

    @given(params, st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_encode_is_linear(self, km, seed):
        """encode(a ^ b) == encode(a) ^ encode(b) — linearity over GF(2)."""
        k, m = km
        rs = make_rs(k, m)
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 256, size=(k, 4), dtype=np.uint8)
        b = rng.integers(0, 256, size=(k, 4), dtype=np.uint8)
        assert np.array_equal(rs.encode(a ^ b), rs.encode(a) ^ rs.encode(b))

    @given(params)
    @settings(max_examples=30, deadline=None)
    def test_zero_data_zero_parity(self, km):
        k, m = km
        rs = make_rs(k, m)
        assert not rs.encode(np.zeros((k, 4), dtype=np.uint8)).any()

    @given(params, st.data())
    @settings(max_examples=40, deadline=None)
    def test_repair_plan_always_sufficient(self, km, data):
        k, m = km
        rs = make_rs(k, m)
        lost = data.draw(st.integers(0, rs.n - 1))
        have = frozenset(
            data.draw(
                st.lists(
                    st.integers(0, rs.n - 1).filter(lambda i: i != lost),
                    max_size=rs.n - 1,
                    unique=True,
                )
            )
        )
        plan = rs.repair_plan(lost, have)
        assert lost not in plan
        assert len(plan) == rs.k
        # the plan must actually span the lost element's equation
        assert rs.repairable_from(lost, plan)
