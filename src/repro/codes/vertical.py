"""Vertical codes: X-Code and WEAVER (extensions for the paper's §II/§III).

The EC-FRM paper motivates its framework by contrasting horizontal codes
(RS, LRC) with *vertical* codes, which spread parity across all disks and
therefore balance normal-read load — but cannot combine high fault
tolerance, low overhead, and arbitrary disk counts.  To make that
comparison runnable (``benchmarks/bench_vertical_codes.py``) we implement
the two vertical codes the paper names:

* **X-Code** (Xu & Bruck 1999): ``p`` disks (``p`` prime), ``p`` rows per
  stripe; the last two rows hold diagonal/anti-diagonal XOR parities.
  Tolerates any 2 disk failures at optimal (MDS array) overhead.
* **WEAVER** (Hafner 2005): each disk holds one data and one parity
  element; parity on disk ``i`` XORs the data of the next ``t`` disks.
  Tolerates ``t`` failures but never exceeds 50% storage efficiency.

Both are XOR codes, expressed here as linear codes with 0/1 coefficients
over GF(2^8) so the whole :class:`MatrixCode` machinery (encode, decode,
rank oracles) applies unchanged.  Unlike candidate codes, an element index
maps to a ``(disk, row)`` grid slot via :meth:`VerticalCode.grid_position`,
and fault tolerance is counted in *disks* (columns), not elements.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Callable

import numpy as np

from ..gf import GF8
from .base import MatrixCode

__all__ = ["VerticalCode", "XCode", "WeaverCode", "make_xcode", "make_weaver"]


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for d in range(2, int(p**0.5) + 1):
        if p % d == 0:
            return False
    return True


class VerticalCode(MatrixCode):
    """A linear code whose elements live on a ``rows x disks`` grid.

    Subclasses fill ``_grid``: an integer array of shape ``(rows, disks)``
    holding each slot's element index (data elements first, then parities,
    matching the MatrixCode convention).
    """

    def __init__(self, generator: np.ndarray, grid: np.ndarray) -> None:
        super().__init__(generator, GF8)
        grid = np.asarray(grid, dtype=np.int64)
        if sorted(grid.ravel().tolist()) != list(range(self.n)):
            raise ValueError("grid must contain each element index exactly once")
        self._grid = grid
        self._grid.setflags(write=False)
        self._positions = {
            int(grid[r, c]): (r, c)
            for r in range(grid.shape[0])
            for c in range(grid.shape[1])
        }

    @property
    def rows(self) -> int:
        """Rows per stripe."""
        return self._grid.shape[0]

    @property
    def disks(self) -> int:
        """Number of disks (columns)."""
        return self._grid.shape[1]

    @property
    def grid(self) -> np.ndarray:
        """Read-only ``(rows, disks)`` array of element indices."""
        return self._grid

    def grid_position(self, element: int) -> tuple[int, int]:
        """``(row, disk)`` slot of element ``element``."""
        return self._positions[element]

    def disk_of_element(self, element: int) -> int:
        """Disk (column) holding element ``element``."""
        return self._positions[element][1]

    def elements_on_disk(self, disk: int) -> list[int]:
        """All element indices stored on ``disk``, top row first."""
        return [int(e) for e in self._grid[:, disk]]

    def can_decode_disks(self, failed_disks) -> bool:
        """True if losing whole disks ``failed_disks`` is decodable."""
        erased = [e for d in failed_disks for e in self.elements_on_disk(d)]
        return self.can_decode(erased)

    @property
    def disk_fault_tolerance(self) -> int:
        """Largest ``f`` such that any ``f`` whole-disk failures decode."""
        best = 0
        for f in range(1, self.disks):
            ok = all(
                self.can_decode_disks(pattern)
                for pattern in combinations(range(self.disks), f)
            )
            if ok:
                best = f
            else:
                break
        return best

    def repair_plan(
        self,
        lost: int,
        have: frozenset[int] = frozenset(),
        *,
        cost: Callable[[int], float] | None = None,
    ) -> frozenset[int]:
        """Single-loss repair via the code's XOR equations.

        The generic greedy starts at ``k`` helpers — absurd for array
        codes whose parity chains repair one element from a handful of
        blocks.  Here we pick the equation containing ``lost`` that
        maximises overlap with ``have`` (fewest extra reads), falling back
        to the generic search only if no single equation applies.  With
        ``cost`` the generic cost-ordered greedy runs instead.
        """
        from ..recovery.single import recovery_equations

        if cost is not None:
            return super().repair_plan(lost, have, cost=cost)
        if not 0 <= lost < self.n:
            raise ValueError(f"element index {lost} out of range for n={self.n}")
        best: frozenset[int] | None = None
        best_extra: int | None = None
        for eq in recovery_equations(self):
            if lost not in eq:
                continue
            helpers = eq - {lost}
            extra = len(helpers - have)
            if best_extra is None or extra < best_extra or (
                extra == best_extra and len(helpers) < len(best)  # type: ignore[arg-type]
            ):
                best, best_extra = frozenset(helpers), extra
        if best is not None:
            return best
        return super().repair_plan(lost, have)  # pragma: no cover - all shipped codes have equations

    def data_disk_of_logical(self, t: int) -> int:
        """Disk holding the ``t``-th logical data element (row-major grid order).

        Vertical codes interleave data across all disks, which is exactly
        the normal-read property the EC-FRM paper wants to borrow.
        """
        if not 0 <= t < self.k:
            raise ValueError(f"logical data index {t} out of range for k={self.k}")
        return self._positions[t][1]


class XCode(VerticalCode):
    """X-Code over ``p`` disks (``p`` prime): RAID-6 class vertical MDS code.

    Grid: ``p`` rows by ``p`` disks.  Rows ``0..p-3`` hold data, row ``p-2``
    holds the slope ``+1`` diagonal parities and row ``p-1`` the slope
    ``-1`` anti-diagonal parities:

    * ``P1[j] = XOR_{i=0}^{p-3} d[i, (j + i + 2) mod p]``
    * ``P2[j] = XOR_{i=0}^{p-3} d[i, (j - i - 2) mod p]``

    Tolerates any 2 disk failures with optimal update complexity.
    """

    name = "x-code"

    def __init__(self, p: int) -> None:
        if not _is_prime(p) or p < 3:
            raise ValueError(f"X-Code requires a prime number of disks >= 3, got {p}")
        self.p = p
        k = (p - 2) * p
        n = p * p
        gen = np.zeros((n, k), dtype=np.uint8)
        gen[:k] = np.eye(k, dtype=np.uint8)

        def data_index(i: int, j: int) -> int:
            return i * p + j

        for j in range(p):
            row_p1 = k + j              # parity row p-2, disk j
            row_p2 = k + p + j          # parity row p-1, disk j
            for i in range(p - 2):
                gen[row_p1, data_index(i, (j + i + 2) % p)] = 1
                gen[row_p2, data_index(i, (j - i - 2) % p)] = 1

        grid = np.zeros((p, p), dtype=np.int64)
        for i in range(p - 2):
            for j in range(p):
                grid[i, j] = data_index(i, j)
        for j in range(p):
            grid[p - 2, j] = k + j
            grid[p - 1, j] = k + p + j
        super().__init__(gen, grid)

    def describe(self) -> str:
        return f"X-Code(p={self.p})"


class WeaverCode(VerticalCode):
    """WEAVER(n, t): one data and one parity element per disk.

    Parity on disk ``i`` XORs the data of disks ``i+o`` for offsets ``o``
    in the code's offset set (``t`` offsets).  Storage efficiency is fixed
    at 50% regardless of ``t`` — the overhead weakness the EC-FRM paper
    calls out.

    Hafner's higher-``t`` WEAVER designs require carefully chosen offset
    sets; the naive ``{1..t}`` only reaches tolerance 2.  When ``offsets``
    is omitted the constructor searches the lexicographically smallest
    offset set that achieves disk fault tolerance ``t`` (cheap for the
    array sizes this library simulates), and raises if none exists.
    """

    name = "weaver"

    def __init__(
        self, n_disks: int, t: int, offsets: tuple[int, ...] | None = None
    ) -> None:
        if n_disks < 3 or not 1 <= t < n_disks:
            raise ValueError(f"invalid WEAVER parameters n={n_disks}, t={t}")
        self.t = t
        if offsets is None:
            offsets = self._find_offsets(n_disks, t)
        else:
            offsets = tuple(int(o) for o in offsets)
            if len(offsets) != t:
                raise ValueError(f"need exactly {t} offsets, got {len(offsets)}")
            if len({o % n_disks for o in offsets}) != t or any(
                o % n_disks == 0 for o in offsets
            ):
                raise ValueError("offsets must be distinct and non-zero mod n")
        self.offsets = offsets
        super().__init__(*self._build(n_disks, offsets))

    @staticmethod
    def _build(n_disks: int, offsets: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        k = n_disks
        gen = np.zeros((2 * n_disks, k), dtype=np.uint8)
        gen[:k] = np.eye(k, dtype=np.uint8)
        for i in range(n_disks):
            for o in offsets:
                gen[k + i, (i + o) % n_disks] = 1
        grid = np.zeros((2, n_disks), dtype=np.int64)
        grid[0] = np.arange(n_disks)
        grid[1] = np.arange(n_disks) + n_disks
        return gen, grid

    @classmethod
    def _find_offsets(cls, n_disks: int, t: int) -> tuple[int, ...]:
        from itertools import combinations as _comb

        for offsets in _comb(range(1, n_disks), t):
            gen, grid = cls._build(n_disks, offsets)
            probe = VerticalCode(gen, grid)
            if probe.disk_fault_tolerance >= t:
                return offsets
        raise ValueError(
            f"no WEAVER offset set of size {t} achieves tolerance {t} on "
            f"{n_disks} disks"
        )

    def describe(self) -> str:
        return f"WEAVER(n={self.disks},t={self.t})"

    @property
    def storage_efficiency(self) -> float:
        """Usable fraction of raw capacity (always 0.5 for WEAVER)."""
        return self.k / self.n


@lru_cache(maxsize=None)
def make_xcode(p: int) -> XCode:
    """Memoized X-Code constructor."""
    return XCode(p)


@lru_cache(maxsize=None)
def make_weaver(n_disks: int, t: int) -> WeaverCode:
    """Memoized WEAVER constructor."""
    return WeaverCode(n_disks, t)
