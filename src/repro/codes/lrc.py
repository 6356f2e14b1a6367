"""Azure-style Local Reconstruction Codes LRC(k, l, m) over GF(2^8).

The LRC of Huang et al. (USENIX ATC'12), as used by Windows Azure Storage
and evaluated by the EC-FRM paper: ``k`` data elements split into ``l``
local groups of ``k/l`` elements each, one XOR *local parity* per group,
plus ``m`` *global parities* over all data elements.

Element layout within a row (indices):

* ``0 .. k-1``            data, group ``g`` owns ``g*k/l .. (g+1)*k/l - 1``;
* ``k .. k+l-1``          local parities, one per group;
* ``k+l .. k+l+m-1``      global parities.

Global parity ``t`` uses coefficient ``beta_j ** (t+1)`` on data element
``j`` where the ``beta_j`` are distinct non-zero field elements (powers of
the primitive element by default).  With distinct betas the code decodes
any ``m + 1`` erasures — the "(6,2,2) LRC recovers any triple failure"
property the paper relies on (its Eq. (12) Vandermonde argument) — and the
degraded-read win comes from single-data-element repair touching only its
local group (``k/l`` reads instead of ``k``).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

from ..gf import GF, GF8
from ..gf import matrix as gfm
from .base import MatrixCode

__all__ = ["LocalReconstructionCode", "make_lrc"]


class LocalReconstructionCode(MatrixCode):
    """Azure LRC with ``k`` data, ``l`` local parities, ``m`` global parities.

    Parameters
    ----------
    k, l, m:
        Code parameters; ``l`` must divide ``k``.
    field:
        Coefficient field, GF(2^8) by default.
    beta_exponents:
        Optional explicit exponents ``e_j`` assigning ``beta_j = alpha**e_j``
        to data element ``j``; must be distinct mod the group order.  The
        default assigns ``e_j = j``.
    """

    name = "lrc"

    def __init__(
        self,
        k: int,
        l: int,
        m: int,
        field: GF = GF8,
        beta_exponents: tuple[int, ...] | None = None,
    ) -> None:
        if k <= 0 or l <= 0 or m <= 0:
            raise ValueError(f"LRC requires positive parameters, got ({k},{l},{m})")
        if k % l != 0:
            raise ValueError(f"l={l} must divide k={k}")
        if k >= field.order:
            raise ValueError(f"k={k} too large for GF(2^{field.w})")
        if beta_exponents is None:
            beta_exponents = tuple(range(k))
        if len(beta_exponents) != k:
            raise ValueError(f"need {k} beta exponents, got {len(beta_exponents)}")
        if len({e % field.group_order for e in beta_exponents}) != k:
            raise ValueError("beta exponents must be distinct modulo the group order")

        self.l = l
        self.m = m
        self.group_size = k // l
        self.betas = tuple(field.exp(e) for e in beta_exponents)

        gen = np.zeros((k + l + m, k), dtype=field.dtype)
        gen[:k] = gfm.identity(field, k)
        for g in range(l):
            gen[k + g, g * self.group_size : (g + 1) * self.group_size] = 1
        for t in range(m):
            for j, beta in enumerate(self.betas):
                gen[k + l + t, j] = field.pow(beta, t + 1)
        super().__init__(gen, field)

    # ------------------------------------------------------------------
    # geometry helpers
    # ------------------------------------------------------------------
    def describe(self) -> str:
        return f"LRC({self.k},{self.l},{self.m})"

    def group_of_data(self, j: int) -> int:
        """Local group owning data element ``j``."""
        if not self.is_data(j):
            raise ValueError(f"{j} is not a data element index")
        return j // self.group_size

    def data_of_group(self, g: int) -> range:
        """Data element indices of local group ``g``."""
        if not 0 <= g < self.l:
            raise ValueError(f"group {g} out of range for l={self.l}")
        return range(g * self.group_size, (g + 1) * self.group_size)

    def local_parity_index(self, g: int) -> int:
        """Element index of the local parity of group ``g``."""
        if not 0 <= g < self.l:
            raise ValueError(f"group {g} out of range for l={self.l}")
        return self.k + g

    def global_parity_index(self, t: int) -> int:
        """Element index of global parity ``t``."""
        if not 0 <= t < self.m:
            raise ValueError(f"global parity {t} out of range for m={self.m}")
        return self.k + self.l + t

    def is_local_parity(self, index: int) -> bool:
        """True if ``index`` is one of the ``l`` local parities."""
        return self.k <= index < self.k + self.l

    def is_global_parity(self, index: int) -> bool:
        """True if ``index`` is one of the ``m`` global parities."""
        return self.k + self.l <= index < self.n

    # ------------------------------------------------------------------
    # repair planning: this is where LRC shines on degraded reads
    # ------------------------------------------------------------------
    def repair_plan(
        self,
        lost: int,
        have: frozenset[int] = frozenset(),
        *,
        cost: Callable[[int], float] | None = None,
    ) -> frozenset[int]:
        """Single-erasure repair using the smallest helper set.

        * lost data element: the rest of its local group plus its local
          parity (``k/l`` reads);
        * lost local parity: its group's data (``k/l`` reads);
        * lost global parity: all ``k`` data elements.

        With ``cost`` the generic cost-ordered greedy runs instead, so a
        topology planner can assemble whichever mix its racks favour.
        """
        if cost is not None:
            return super().repair_plan(lost, have, cost=cost)
        if not 0 <= lost < self.n:
            raise ValueError(f"element index {lost} out of range for n={self.n}")
        if self.is_data(lost):
            g = self.group_of_data(lost)
            helpers = set(self.data_of_group(g))
            helpers.discard(lost)
            helpers.add(self.local_parity_index(g))
            return frozenset(helpers)
        if self.is_local_parity(lost):
            return frozenset(self.data_of_group(lost - self.k))
        return frozenset(range(self.k))

    def repair_candidates(
        self, lost: int, have: frozenset[int] = frozenset(), *, limit: int = 24
    ) -> list[dict[int, float]]:
        """For a lost data element, the local set, then the global set.

        The local set (``k/l`` reads) is what makes LRC cheap.  The global
        set is the other ``k - 1`` data elements plus global parity 0
        (``k`` reads, no local parity): when the local group is scattered
        across racks and the data is co-located with the repair site, it
        can ship fewer cross-rack bytes, and a load-aware planner can use
        it to steer reads off a hot disk.  A lost parity gets the generic
        candidates.
        """
        if not self.is_data(lost):
            return super().repair_candidates(lost, have, limit=limit)
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        global_set = [j for j in range(self.k) if j != lost]
        global_set.append(self.global_parity_index(0))
        candidates = [
            dict.fromkeys(sorted(self.repair_plan(lost, have)), 1.0),
            dict.fromkeys(global_set, 1.0),
        ]
        return candidates[:limit]

    # ------------------------------------------------------------------
    # information-theoretic decodability oracle (topology-level)
    # ------------------------------------------------------------------
    def information_theoretically_decodable(self, erased) -> bool:
        """Whether ``erased`` could be decoded by *some* coefficient choice.

        Evaluates the topology's matroid rank with random coefficients over
        GF(2^16) on the same support; by Schwartz-Zippel this matches the
        generic rank with overwhelming probability.  Used in tests to show
        the default GF(2^8) coefficients achieve (near-)maximal
        recoverability.
        """
        from ..gf import get_field

        big = get_field(16)
        rng = np.random.default_rng(0xECF12)
        erased_set = frozenset(int(e) for e in erased)
        gen = np.zeros((self.n, self.k), dtype=big.dtype)
        gen[: self.k] = gfm.identity(big, self.k)
        for g in range(self.l):
            gen[self.k + g, g * self.group_size : (g + 1) * self.group_size] = 1
        for t in range(self.m):
            gen[self.k + self.l + t] = big.random(rng, self.k, nonzero=True)
        available = [i for i in range(self.n) if i not in erased_set]
        return gfm.rank(big, gen[available]) == self.k


@lru_cache(maxsize=None)
def make_lrc(k: int, l: int, m: int) -> LocalReconstructionCode:
    """Memoized LRC(k, l, m) constructor over GF(2^8)."""
    return LocalReconstructionCode(k, l, m)
