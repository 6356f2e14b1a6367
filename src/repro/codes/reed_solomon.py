"""Systematic Reed-Solomon erasure codes RS(k, m) over GF(2^8).

The construction mirrors Jerasure's ``reed_sol_vandermonde_coding_matrix``:
a Vandermonde matrix column-reduced to systematic form, which yields an MDS
code for any ``k + m <= 256``.  This is the "(k, m) Reed-Solomon code" of
the paper (§II-C, Figure 1): ``k`` data disks, ``m`` parity disks, tolerant
of any ``m`` concurrent failures.
"""

from __future__ import annotations

from functools import lru_cache

from ..gf import GF, GF8
from ..gf.vandermonde import extended_generator, systematic_vandermonde_coding_matrix
from .base import MatrixCode

__all__ = ["ReedSolomonCode", "make_rs"]


class ReedSolomonCode(MatrixCode):
    """MDS Reed-Solomon code with ``k`` data and ``m`` parity elements.

    Parameters
    ----------
    k:
        Number of data elements per row.
    m:
        Number of parity elements per row.
    field:
        Coefficient field; defaults to GF(2^8) (byte payloads).

    Notes
    -----
    *Any* ``k`` of the ``n = k + m`` elements suffice to rebuild the row, so
    the generic :meth:`repair_plan` greedy stops at its first ``k`` picks.
    The MDS property is asserted at construction time for small parameters
    and covered by property tests for the rest.
    """

    name = "rs"

    def __init__(self, k: int, m: int, field: GF = GF8) -> None:
        if k <= 0 or m <= 0:
            raise ValueError(f"RS requires k > 0 and m > 0, got k={k}, m={m}")
        block = systematic_vandermonde_coding_matrix(field, k, m)
        super().__init__(extended_generator(field, block), field)
        self.m = m

    def describe(self) -> str:
        return f"RS({self.k},{self.m})"

    @property
    def fault_tolerance(self) -> int:
        # Vandermonde-derived systematic RS is MDS by construction; skip the
        # exhaustive search the generic MatrixCode would run.
        return self.m


@lru_cache(maxsize=None)
def make_rs(k: int, m: int) -> ReedSolomonCode:
    """Memoized RS(k, m) constructor over GF(2^8)."""
    return ReedSolomonCode(k, m)
