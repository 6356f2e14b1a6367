"""Property tests for the per-code span-rank memo.

Every element-set rank question a :class:`~repro.codes.base.MatrixCode`
answers — ``repairable_from``, ``can_decode``, ``_span_coefficients`` and
the multi-failure planner's ``_sufficient_helpers`` — goes through one
memo keyed on the index set.  For each registered code spec this suite
draws random ``(lost, helpers)`` and erased sets and checks each answer
against a fresh ``gfm.rank`` of the stacked generator rows: on the first
query (a memo miss) and on repeats, with the indices passed as a set, a
list and a permuted list with repeats.

``ECFRM_RANK_SEED`` offsets the seed (CI runs a small matrix of values so
successive jobs draw different index sets).
"""

import os
import random

import numpy as np
import pytest

from repro.codes import CODE_FACTORIES, DecodeFailure, MatrixCode, parse_code_spec
from repro.engine.multifailure import _sufficient_helpers
from repro.gf import matrix as gfm

BASE = int(os.environ.get("ECFRM_RANK_SEED", "1"))
CASES = 40

#: specs per registered factory; pb-rs is not a matrix code, so only its
#: inner Reed-Solomon generator's rank is checked (through can_decode)
SPECS = {
    "rs": ["rs-6-3", "rs-10-4"],
    "lrc": ["lrc-6-2-2", "lrc-10-2-4"],
    "cauchy-rs": ["cauchy-rs-4-2", "cauchy-rs-6-3"],
    "pb-rs": ["pb-rs-6-3"],
}
ALL_SPECS = [spec for specs in SPECS.values() for spec in specs]
MATRIX_SPECS = [s for s in ALL_SPECS if isinstance(parse_code_spec(s), MatrixCode)]


def fresh_rank(code: MatrixCode, indices) -> int:
    """Reference: eliminate the stacked generator rows, no memo."""
    return gfm.rank(code.field, code.generator[sorted(set(indices))])


def spellings(rng: random.Random, indices):
    """The same index set as a set, a sorted list and a permuted list
    with repeats (rank depends on none of these)."""
    items = sorted(set(indices))
    shuffled = items + rng.sample(items, len(items) // 2)
    rng.shuffle(shuffled)
    return [set(items), items, shuffled]


def draw_subset(rng: random.Random, pool, low: int = 0):
    return rng.sample(pool, rng.randint(low, len(pool)))


def test_every_registered_factory_has_specs():
    assert set(SPECS) == set(CODE_FACTORIES)


@pytest.mark.parametrize("spec", MATRIX_SPECS)
def test_repairable_from_matches_fresh_rank(spec):
    code = parse_code_spec(spec)
    rng = random.Random(f"{BASE}-repair-{spec}")
    for _ in range(CASES):
        code._rank_memo.clear()  # the first query below is a miss
        lost = rng.randrange(code.n)
        helpers = draw_subset(rng, [i for i in range(code.n) if i != lost])
        expected = fresh_rank(code, helpers + [lost]) == fresh_rank(code, helpers)
        for spelled in spellings(rng, helpers):
            assert code.repairable_from(lost, spelled) == expected
        if helpers:
            coeffs = code._span_coefficients(sorted(helpers), lost)
            assert (coeffs is not None) == expected
        for spelled in spellings(rng, helpers):
            assert code.span_rank(spelled) == fresh_rank(code, helpers)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_can_decode_matches_fresh_rank(spec):
    code = parse_code_spec(spec)
    matrix = code if isinstance(code, MatrixCode) else code.inner
    rng = random.Random(f"{BASE}-decode-{spec}")
    for _ in range(CASES):
        matrix._rank_memo.clear()
        erased = draw_subset(rng, list(range(code.n)))
        survivors = [i for i in range(code.n) if i not in erased]
        expected = fresh_rank(matrix, survivors) == code.k
        for spelled in spellings(rng, erased):
            assert code.can_decode(spelled) == expected


@pytest.mark.parametrize("spec", MATRIX_SPECS)
def test_sufficient_helpers_match_fresh_rank(spec):
    code = parse_code_spec(spec)
    rng = random.Random(f"{BASE}-multi-{spec}")

    def covers(helpers, erased):
        return fresh_rank(code, list(helpers) + erased) == fresh_rank(code, helpers)

    for _ in range(CASES):
        code._rank_memo.clear()
        erased = draw_subset(rng, list(range(code.n)), low=1)[: code.num_parity + 1]
        preferred = [i for i in range(code.n) if i not in erased]
        rng.shuffle(preferred)
        answers = []
        for _repeat in range(2):  # a cold memo, then a warm one
            try:
                answers.append(_sufficient_helpers(code, erased, preferred))
            except DecodeFailure:
                answers.append(None)
        assert answers[0] == answers[1]
        helpers = answers[0]
        if helpers is None:
            assert not covers(preferred, erased)
            continue
        assert helpers <= set(preferred)
        assert covers(helpers, erased)
        for h in helpers:  # minimal: every helper is needed
            assert not covers(helpers - {h}, erased)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_out_of_range_indices_raise(spec):
    code = parse_code_spec(spec)
    for bad in (code.n, -1):
        with pytest.raises(ValueError):
            code.can_decode([0, bad])
        if isinstance(code, MatrixCode):
            with pytest.raises(ValueError):
                code.span_rank([0, bad])
            with pytest.raises(ValueError):
                code.repairable_from(bad, {0, 1})
            with pytest.raises(ValueError):
                code.repairable_from(0, {1, bad})


def test_generator_is_read_only():
    """The memo is sound only because the generator cannot change."""
    code = parse_code_spec("rs-6-3")
    with pytest.raises(ValueError):
        code.generator[code.k, 0] = np.uint8(1)
