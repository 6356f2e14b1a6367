"""Checksum utilities for the object and block layers."""

from __future__ import annotations

import zlib

import numpy as np

__all__ = [
    "checksum",
    "crc32c",
    "ChecksumMismatchError",
    "CorruptPayloadError",
    "verify_checksum",
]


class ChecksumMismatchError(ValueError):
    """Raised when stored data fails its integrity check on read."""


class CorruptPayloadError(ChecksumMismatchError):
    """A stored element's payload no longer matches its write-time CRC32C.

    This is the *silent bit rot* failure class: the disk served the slot
    without error, but the bytes changed since the store wrote them.  The
    block store raises this only when corruption cannot be repaired; on
    the read path a corrupt element is normally demoted to an erasure,
    reconstructed, and self-healed without surfacing an exception.
    """


def checksum(data: bytes) -> int:
    """CRC32 of ``data`` (stable across runs and platforms)."""
    return zlib.crc32(data) & 0xFFFFFFFF


# ----------------------------------------------------------------------
# CRC32C (Castagnoli) — the polynomial storage systems standardised on
# (iSCSI, ext4, Btrfs), reflected form.  Every fetched element is checked
# against it on every read, so this is on the blocking path of reads,
# appends, self-heal, scrub and rebuild.  A CRC is linear over GF(2): with
# the register at zero, a message's CRC is the XOR of one contribution per
# input nibble, and that contribution depends only on the nibble's value
# and how many nibbles follow it.  ``_TABLE[r, v]`` holds it for nibble
# ``v`` followed by ``r`` zero nibbles, for every position in a chunk of
# ``_CHUNK`` bytes (8192 x 16 uint32, 0.5 MiB, built in ~5 ms).  A chunk
# then costs one NumPy gather and one XOR-reduce: ~25 µs per 4 KiB
# element, about 20x the C ``zlib.crc32`` of the same bytes.
# ----------------------------------------------------------------------
_CRC32C_POLY = 0x82F63B78
_CHUNK = 4096


def _build_table() -> np.ndarray:
    table = np.empty((2 * _CHUNK, 16), dtype=np.uint32)
    # Rows 0..7 bit by bit: nibble v, then r zero nibbles.
    for v in range(16):
        crc = v
        for r in range(8):
            for _ in range(4):
                crc = (crc >> 1) ^ _CRC32C_POLY if crc & 1 else crc >> 1
            table[r, v] = crc
    # Rows m..2m-1 are rows 0..m-1 pushed through m more zero nibbles.
    # Pushing a register x through m >= 8 zero nibbles is the same as
    # feeding x's eight nibbles, lowest first, followed by m - 8 zeros, so
    # nibble j of x contributes row m - 1 - j.
    m = 8
    while m < len(table):
        head, out = table[:m], table[m : 2 * m]
        np.take(table[m - 1], head & 0xF, out=out)
        for j in range(1, 8):
            out ^= table[m - 1 - j].take((head >> 4 * j) & 0xF)
        m *= 2
    return table


_TABLE = _build_table()
_FLAT = _TABLE.reshape(-1)
# Flat offsets of the rows for each byte of a full chunk, in byte order:
# a byte d bytes from the chunk's end has its low nibble (fed first) at
# row 2d + 1 and its high nibble at row 2d.  A chunk of n bytes uses the
# last n entries.
_HI_ROWS = 32 * np.arange(_CHUNK - 1, -1, -1, dtype=np.intp)
_LO_ROWS = _HI_ROWS + 16
# Byte-at-a-time table, for inputs and tails too short to repay a gather's
# fixed cost (~10 µs, about what the byte loop spends on 64 bytes).
_BYTE = [int(_TABLE[1, b & 0xF] ^ _TABLE[0, b >> 4]) for b in range(256)]
_GATHER_MIN = 64


def _register_share(crc: int, n: int) -> int:
    """What register ``crc`` contributes to the CRC after ``n`` more bytes.

    The same as XORing the register into the first four of those bytes
    and starting from zero: nibble j of the register, lowest first, lands
    at row 2n - 1 - j.  Needs ``n >= 4``.
    """
    share, row = 0, 16 * (2 * n - 1)
    for _ in range(8):
        share ^= _FLAT.item(row + (crc & 0xF))
        crc >>= 4
        row -= 16
    return share


def crc32c(data: bytes | bytearray | memoryview, crc: int = 0) -> int:
    """CRC32C (Castagnoli) of ``data``, optionally continuing ``crc``."""
    crc = ~crc & 0xFFFFFFFF
    if not isinstance(data, (bytes, bytearray)):
        data = bytes(data)
    buf = np.frombuffer(data, dtype=np.uint8)
    pos, size = 0, len(buf)
    while size - pos >= _GATHER_MIN:
        chunk = buf[pos : pos + _CHUNK]
        n = len(chunk)
        nibbles = np.empty(2 * n, dtype=np.uint8)
        np.bitwise_and(chunk, 0xF, out=nibbles[:n])
        np.right_shift(chunk, 4, out=nibbles[n:])
        idx = nibbles.astype(np.intp)
        idx[:n] += _LO_ROWS[-n:]
        idx[n:] += _HI_ROWS[-n:]
        crc = _register_share(crc, n) ^ int(np.bitwise_xor.reduce(_FLAT.take(idx)))
        pos += n
    for b in buf[pos:].tobytes():
        crc = _BYTE[(crc ^ b) & 0xFF] ^ (crc >> 8)
    return ~crc & 0xFFFFFFFF


def verify_checksum(data: bytes, expected: int, *, context: str = "") -> None:
    """Raise :class:`ChecksumMismatchError` if ``data`` does not match."""
    actual = checksum(data)
    if actual != expected:
        where = f" for {context}" if context else ""
        raise ChecksumMismatchError(
            f"checksum mismatch{where}: expected {expected:#010x}, got {actual:#010x}"
        )
