"""Piggybacked Reed-Solomon codes: MDS with cheap single-data repair.

The piggybacking framework (Rashmi, Shah, Ramchandran, ISIT'13 /
Sigcomm'14 "Hitchhiker") transforms an existing MDS code into a
same-rate, same-fault-tolerance *vector* code whose single-data-element
repair reads strictly fewer bytes.  This module applies design 1 with
two substripes to the library's RS(k, m):

Every element payload is split into halves ``(a, b)`` — substripe *a*
and substripe *b*.  Data element ``i`` stores ``(a_i, b_i)``.  Parity
element ``t`` stores ``(p_t(a), q_t)`` where ``p_t`` is RS parity
function ``t`` and the second half carries a *piggyback*:

* ``q_0     = p_0(b)``                                (kept clean)
* ``q_t     = p_t(b) xor g_t(a)``  for ``t >= 1``,

with ``g_t(a) = xor of {a_i : i in S_t}`` and ``S_1 .. S_{m-1}`` a
near-equal partition of the data indices (GF(2^8) addition is XOR, so
the piggyback is itself a valid linear combination).

**MDS is preserved** (fault tolerance stays ``m``): for any ≤ m element
erasures, the *a*-substripe symbols are a plain RS codeword with ≤ m
erasures — decode substripe *a* fully; every piggyback ``g_t(a)`` is
then computable, which cleans the ``q_t`` back into ``p_t(b)`` — decode
substripe *b*.

**Repair of data element j** (the degraded-read hot path) with
``j in S_t`` reads: the *b*-halves of the other ``k-1`` data elements
plus ``q_0`` (decode substripe *b*, giving ``b_j`` and every ``p_t(b)``),
then ``q_t`` and the *a*-halves of ``S_t \\ {j}`` (strip the piggyback
and XOR out ``a_j``).  That is ``(k + |S_t|) / 2`` element-equivalents
instead of ``k`` — 25% fewer bytes for pb-rs-6-3 — and it is exactly
what :meth:`repair_candidates` hands the minimum-transfer planner.
Disks still read whole slots (checksums verify as usual); the fractions
price the *network*.

The element-level geometry is identical to RS(k, m) — ``n = k + m``
elements, any ``k`` decode the row — so the EC-FRM transform applies
unchanged and Lemma 1 (one element per disk column per group) carries
the fault tolerance through, which ``tests/codes/test_piggyback.py``
verifies with the cross-placement harness.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..gf import GF, GF8
from .base import ErasureCode
from .reed_solomon import ReedSolomonCode

__all__ = ["PiggybackRSCode", "make_pb_rs"]


class PiggybackRSCode(ErasureCode):
    """Two-substripe piggybacked RS(k, m) over GF(2^8).

    Parameters
    ----------
    k:
        Number of data elements per row.
    m:
        Number of parity elements; must be >= 2 (the piggyback needs a
        clean parity plus at least one carrier).  Repair savings require
        m >= 3 (with m = 2 the single carrier group spans all data).
    field:
        Coefficient field of the inner RS code; GF(2^8) by default.

    Payloads must have even size — each element splits into two
    substripe halves.
    """

    name = "pb-rs"

    def __init__(self, k: int, m: int, field: GF = GF8) -> None:
        if k <= 0:
            raise ValueError(f"pb-rs requires k > 0, got k={k}")
        if m < 2:
            raise ValueError(
                f"pb-rs requires m >= 2 (a clean parity plus a piggyback "
                f"carrier), got m={m}"
            )
        self.inner = ReedSolomonCode(k, m, field)
        self.m = m
        # S_1 .. S_{m-1}: near-equal contiguous partition of the data
        # indices; carrier parity t piggybacks group S_t.
        groups = m - 1
        bounds = [k * g // groups for g in range(groups + 1)]
        self._groups: tuple[frozenset[int], ...] = tuple(
            frozenset(range(bounds[g], bounds[g + 1])) for g in range(groups)
        )

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    @property
    def k(self) -> int:
        return self.inner.k

    @property
    def n(self) -> int:
        return self.inner.n

    @property
    def fault_tolerance(self) -> int:
        # substripe a is a clean RS codeword and substripe b is one after
        # stripping piggybacks, so any m erasures decode (see module doc).
        return self.m

    def describe(self) -> str:
        return f"PB-RS({self.k},{self.m})"

    def carrier_group(self, j: int) -> tuple[int, frozenset[int]]:
        """``(t, S_t)`` of the carrier parity piggybacking data ``j``."""
        if not self.is_data(j):
            raise ValueError(f"{j} is not a data element index")
        for g, members in enumerate(self._groups):
            if j in members:
                return g + 1, members
        raise AssertionError("groups do not partition the data")  # pragma: no cover

    # ------------------------------------------------------------------
    # substripe plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _halves(payload: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        size = payload.shape[-1]
        if size % 2:
            raise ValueError(
                f"pb-rs payloads must have even size (two substripes), got {size}"
            )
        half = size // 2
        return payload[..., :half], payload[..., half:]

    def _piggyback(self, a_data: np.ndarray, t: int) -> np.ndarray:
        """``g_t(a)``: XOR of substripe-a data halves in carrier group t."""
        members = sorted(self._groups[t - 1])
        out = a_data[members[0]].copy()
        for i in members[1:]:
            np.bitwise_xor(out, a_data[i], out=out)
        return out

    # ------------------------------------------------------------------
    # coding
    # ------------------------------------------------------------------
    def encode(self, data: np.ndarray) -> np.ndarray:
        data = np.asarray(data, dtype=np.uint8)
        if data.ndim != 2 or data.shape[0] != self.k:
            raise ValueError(
                f"encode expects ({self.k}, element_size) data, got {data.shape}"
            )
        a, b = self._halves(data)
        pa = self.inner.encode(a)
        q = self.inner.encode(b)
        for t in range(1, self.m):
            np.bitwise_xor(q[t], self._piggyback(a, t), out=q[t])
        return np.concatenate([pa, q], axis=1)

    def can_decode(self, erased: Iterable[int]) -> bool:
        erased_set = frozenset(int(e) for e in erased)
        for e in erased_set:
            if not 0 <= e < self.n:
                raise ValueError(f"element index {e} out of range for n={self.n}")
        return len(erased_set) <= self.m

    def decode(
        self,
        available: Mapping[int, np.ndarray],
        erased: Sequence[int],
        element_size: int,
    ) -> dict[int, np.ndarray]:
        if element_size % 2:
            raise ValueError(
                f"pb-rs payloads must have even size (two substripes), "
                f"got {element_size}"
            )
        erased_list = [int(e) for e in erased]
        erased_set = set(erased_list)
        if erased_set & set(int(i) for i in available):
            raise ValueError("an element cannot be both available and erased")
        half = element_size // 2

        payloads: dict[int, np.ndarray] = {}
        for i, buf in available.items():
            arr = np.asarray(buf, dtype=np.uint8).reshape(-1)
            if arr.shape[0] != element_size:
                raise ValueError(
                    f"element {i} has size {arr.shape[0]}, expected {element_size}"
                )
            payloads[int(i)] = arr

        missing = [i for i in range(self.n) if i not in payloads]

        # Substripe a: every available element contributes a clean RS
        # symbol (data a_i or parity p_t(a)); decode all missing symbols.
        avail_a = {i: buf[:half] for i, buf in payloads.items()}
        solved_a = (
            self.inner.decode(avail_a, missing, half) if missing else {}
        )
        a_data = np.zeros((self.k, half), dtype=np.uint8)
        for i in range(self.k):
            a_data[i] = avail_a[i] if i in avail_a else solved_a[i]

        # Substripe b: strip the piggybacks (computable now that substripe
        # a is fully known) to recover clean p_t(b) symbols, then decode.
        avail_b: dict[int, np.ndarray] = {}
        for i, buf in payloads.items():
            bhalf = buf[half:]
            if i >= self.k and i - self.k >= 1:
                bhalf = np.bitwise_xor(bhalf, self._piggyback(a_data, i - self.k))
            avail_b[i] = bhalf
        solved_b = (
            self.inner.decode(avail_b, missing, half) if missing else {}
        )

        def b_symbol(i: int) -> np.ndarray:
            return avail_b[i] if i in avail_b else solved_b[i]

        out: dict[int, np.ndarray] = {}
        for e in erased_list:
            a_half = avail_a[e] if e in avail_a else solved_a[e]
            b_half = b_symbol(e)
            if e >= self.k and e - self.k >= 1:
                # stored format carries the piggyback; re-add it.
                b_half = np.bitwise_xor(b_half, self._piggyback(a_data, e - self.k))
            out[e] = np.concatenate([a_half, b_half])
        return out

    # ------------------------------------------------------------------
    # repair planning
    # ------------------------------------------------------------------
    def repairable_from(self, lost: int, helpers: Iterable[int]) -> bool:
        """Whole-element repairability is the inner RS code's (any ``k``)."""
        return self.inner.repairable_from(lost, helpers)

    def repair_candidates(
        self, lost: int, have: frozenset[int] = frozenset(), *, limit: int = 24
    ) -> list[dict[int, float]]:
        """The piggyback sub-element schedule, then the generic candidates.

        For a lost data element the sub-element candidate reads half of
        every helper except the carrier-group peers (whose *a*-halves are
        needed too): ``(k + |S_t|) / 2`` element-equivalents total.  Its
        whole-element support is ``k + 1`` elements, solvable on its own
        (MDS), so the data plane's full-element fallback always works.
        """
        candidates = super().repair_candidates(lost, have, limit=limit)
        if not self.is_data(lost):
            return candidates
        t, members = self.carrier_group(lost)
        reads: dict[int, float] = {}
        for i in range(self.k):
            if i == lost:
                continue
            # b_i always; a_i too when i sits in the carrier group.
            reads[i] = 1.0 if i in members else 0.5
        reads[self.k] = 0.5        # q_0 = p_0(b), clean
        reads[self.k + t] = 0.5    # q_t, the piggyback carrier
        return [reads, *candidates][:limit]


@lru_cache(maxsize=None)
def make_pb_rs(k: int, m: int) -> PiggybackRSCode:
    """Memoized piggybacked RS(k, m) constructor over GF(2^8)."""
    return PiggybackRSCode(k, m)
