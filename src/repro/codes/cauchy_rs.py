"""Cauchy Reed-Solomon codes (Blomer et al. 1995) over GF(2^w).

An alternative MDS construction: the coding block is a Cauchy matrix, every
square submatrix of which is invertible by construction, so ``[I ; C]`` is
MDS with no Vandermonde reduction step.  The original motivation (and why
the EC-FRM paper lists it among XOR-based horizontal codes) is that a
Cauchy generator converts mechanically to a pure-XOR bitmatrix schedule;
:meth:`CauchyReedSolomonCode.bitmatrix` exposes that expansion.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..gf import GF, GF8
from ..gf.vandermonde import cauchy_matrix, extended_generator
from .base import MatrixCode

__all__ = ["CauchyReedSolomonCode", "make_cauchy_rs"]


class CauchyReedSolomonCode(MatrixCode):
    """MDS code whose coding block is a Cauchy matrix.

    Parameters
    ----------
    k, m:
        Data / parity element counts; requires ``k + m <= 2^w``.
    field:
        Coefficient field, GF(2^8) by default.
    x_points, y_points:
        Optional explicit Cauchy evaluation points (``m`` x-points for the
        parity rows, ``k`` y-points for the data columns).  Defaults follow
        Jerasure's ``cauchy_original_coding_matrix``: ``x_i = i`` for
        parities and ``y_j = m + j`` for data.
    """

    name = "cauchy-rs"

    def __init__(
        self,
        k: int,
        m: int,
        field: GF = GF8,
        x_points: tuple[int, ...] | None = None,
        y_points: tuple[int, ...] | None = None,
    ) -> None:
        if k <= 0 or m <= 0:
            raise ValueError(f"Cauchy RS requires k > 0 and m > 0, got k={k}, m={m}")
        if k + m > field.order:
            raise ValueError(f"k + m = {k + m} exceeds field order {field.order}")
        if x_points is None:
            x_points = tuple(range(m))
        if y_points is None:
            y_points = tuple(range(m, m + k))
        block = cauchy_matrix(field, x_points, y_points)
        super().__init__(extended_generator(field, block), field)
        self.m = m
        self.x_points = tuple(int(x) for x in x_points)
        self.y_points = tuple(int(y) for y in y_points)

    def describe(self) -> str:
        return f"CRS({self.k},{self.m})"

    @property
    def fault_tolerance(self) -> int:
        # Cauchy blocks make the generator MDS by construction.
        return self.m

    def bitmatrix(self) -> np.ndarray:
        """Expand the coding block to its GF(2) bitmatrix form.

        Each field coefficient ``c`` becomes a ``w x w`` 0/1 block whose
        column ``b`` is the bit pattern of ``c * alpha^b`` — multiplying a
        ``w``-bit data word by ``c`` is then a plain GF(2) matrix-vector
        product, i.e. XORs only.  Shape: ``(m*w, k*w)``.
        """
        f = self.field
        w = f.w
        out = np.zeros((self.m * w, self.k * w), dtype=np.uint8)
        block = self.coding_block
        for r in range(self.m):
            for c in range(self.k):
                coeff = int(block[r, c])
                for b in range(w):
                    value = f.mul(coeff, 1 << b)
                    for bit in range(w):
                        out[r * w + bit, c * w + b] = (value >> bit) & 1
        return out

    def xor_count(self) -> int:
        """Number of XOR ops per coded word implied by the bitmatrix.

        The classic cost metric for XOR-based codes: ones in the bitmatrix
        minus one per output row (the first term of each row is a copy).
        """
        bm = self.bitmatrix()
        return int(bm.sum()) - bm.shape[0]

    @staticmethod
    def _bit_weight(field: GF, coeff: int) -> int:
        """Ones in the w x w bitmatrix block of field coefficient ``coeff``."""
        return sum(
            int(field.mul(coeff, 1 << b)).bit_count() for b in range(field.w)
        )

    @classmethod
    def optimized(cls, k: int, m: int, field: GF = GF8) -> "CauchyReedSolomonCode":
        """A "good" Cauchy code: the Jerasure ``cauchy_good`` trick.

        Scaling any row or column of a Cauchy matrix by a non-zero field
        element preserves the all-square-submatrices-invertible property
        (every minor scales by a non-zero constant), so we greedily divide
        each column, then each row, by the entry whose normalisation
        minimises the bitmatrix weight — fewer ones means fewer XORs per
        encoded word.  Typically saves 10-40% of the XOR cost of the
        default matrix.
        """
        base = cls(k, m, field)
        block = base.coding_block.astype(field.dtype).copy()

        def column_weight(col: np.ndarray) -> int:
            return sum(cls._bit_weight(field, int(v)) for v in col)

        for j in range(k):
            best = block[:, j].copy()
            best_w = column_weight(best)
            for divisor in {int(v) for v in block[:, j]}:
                if divisor in (0, 1):
                    continue
                scaled = field.scalar_mul_vec(field.inv(divisor), block[:, j])
                w = column_weight(scaled)
                if w < best_w:
                    best, best_w = scaled, w
            block[:, j] = best
        for i in range(m):
            best = block[i].copy()
            best_w = column_weight(best)
            for divisor in {int(v) for v in block[i]}:
                if divisor in (0, 1):
                    continue
                scaled = field.scalar_mul_vec(field.inv(divisor), block[i])
                w = column_weight(scaled)
                if w < best_w:
                    best, best_w = scaled, w
            block[i] = best

        code = cls.__new__(cls)
        MatrixCode.__init__(code, extended_generator(field, block), field)
        code.m = m
        code.x_points = base.x_points
        code.y_points = base.y_points
        return code


@lru_cache(maxsize=None)
def make_cauchy_rs(k: int, m: int) -> CauchyReedSolomonCode:
    """Memoized Cauchy RS(k, m) constructor over GF(2^8)."""
    return CauchyReedSolomonCode(k, m)
