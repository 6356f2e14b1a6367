"""Property tests for the table-driven CRC32C kernel.

``crc32c`` is checked against a bit-at-a-time reference on edge and
random lengths, on continuation at random split points, on every
accepted input type, and on single-bit flips in both nibbles of every
byte of one 4 KiB element (which reach every row of the position
table).  The RFC 3720 vectors live in ``test_self_heal.py``.

``ECFRM_CRC_SEED`` offsets the seed (CI runs a small matrix of values so
successive jobs draw different random lengths and split points).
"""

import os
import random
import time
import zlib

import pytest

from repro.store import crc32c

BASE = int(os.environ.get("ECFRM_CRC_SEED", "1"))
CHUNK = 4096  # the kernel's gather width


def reference(data: bytes, crc: int = 0) -> int:
    """CRC32C one bit at a time, straight from the reflected polynomial."""
    crc ^= 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ (0x82F63B78 if crc & 1 else 0)
    return crc ^ 0xFFFFFFFF


@pytest.fixture()
def rng():
    return random.Random(BASE)


EDGE_LENGTHS = [0, 1, 2, 3, 4, 5, 63, 64, 65, 4095, 4096, 4097, 3 * 4096 + 7]


@pytest.mark.parametrize("length", EDGE_LENGTHS)
def test_edge_lengths_match_reference(length, rng):
    data = rng.randbytes(length)
    assert crc32c(data) == reference(data)
    start = rng.getrandbits(32)
    assert crc32c(data, start) == reference(data, start)


def test_random_lengths_match_reference(rng):
    for _ in range(12):
        data = rng.randbytes(rng.randrange(3 * CHUNK + 100))
        assert crc32c(data) == reference(data), len(data)


def test_continuation_at_split_points(rng):
    data = rng.randbytes(3 * CHUNK + 7)
    whole = reference(data)
    # splits inside the first four bytes of a chunk, then random ones
    splits = [0, 1, 2, 3, CHUNK + 1, CHUNK + 2, CHUNK + 3, len(data)]
    splits += [rng.randrange(len(data) + 1) for _ in range(20)]
    for cut in splits:
        assert crc32c(data[cut:], crc32c(data[:cut])) == whole, cut
    a, b, c = sorted(rng.randrange(len(data) + 1) for _ in range(3))
    parts = [data[:a], data[a:b], data[b:c], data[c:]]
    crc = 0
    for part in parts:
        crc = crc32c(part, crc)
    assert crc == whole


def test_input_types_agree(rng):
    data = rng.randbytes(CHUNK + 5)
    want = reference(data)
    assert crc32c(bytearray(data)) == want
    assert crc32c(memoryview(data)) == want
    assert crc32c(memoryview(data)[1:]) == reference(data[1:])
    # a strided view is not a contiguous buffer; it is read as bytes(view)
    assert crc32c(memoryview(data)[::3]) == reference(data[::3])


def test_single_bit_flip_changes_crc_at_every_byte(rng):
    element = bytearray(rng.randbytes(CHUNK))
    base = crc32c(element)
    seen = set()
    for pos in range(CHUNK):
        # one bit in the low nibble and one in the high nibble, so every
        # table row (two per byte position) is exercised
        for bit in (pos % 4, 4 + pos % 4):
            element[pos] ^= 1 << bit
            flipped = crc32c(element)
            element[pos] ^= 1 << bit
            assert flipped != base, (pos, bit)
            seen.add(flipped)
    # distinct bit positions give distinct CRCs: no two table rows alias
    assert len(seen) == 2 * CHUNK


def test_verify_cost_ratio_to_zlib():
    """A 4 KiB element's CRC32C costs at most 40x the C CRC32 of it.

    An in-run ratio, so runner speed cancels out: the table kernel sits
    near 12-25x, a Python-speed loop near 250x.
    """
    element = random.Random(BASE).randbytes(CHUNK)
    reps, best_crc, best_zlib = 20, float("inf"), float("inf")
    for _ in range(15):
        t0 = time.perf_counter()
        for _ in range(reps):
            crc32c(element)
        t1 = time.perf_counter()
        for _ in range(reps):
            zlib.crc32(element)
        t2 = time.perf_counter()
        best_crc = min(best_crc, t1 - t0)
        best_zlib = min(best_zlib, t2 - t1)
    ratio = best_crc / best_zlib
    assert ratio <= 40, f"crc32c costs {ratio:.0f}x zlib.crc32 on 4 KiB"
