"""Abstract interfaces for single-row erasure codes ("candidate codes").

EC-FRM (paper §IV-A) integrates *candidate codes*: codes whose stripe is a
single row of ``n`` elements, ``k`` of them data.  Reed-Solomon and Azure
LRC are the two candidates the paper evaluates; both are expressed here as
systematic linear codes over GF(2^w) with an ``n x k`` *extended generator*
matrix whose top ``k`` rows are the identity.

Element indexing convention used across the library:

* indices ``0 .. k-1`` are the data elements of the row, in logical order;
* indices ``k .. n-1`` are the parity elements.

Payloads are byte buffers: an element is a 1-D ``uint8`` array, and a row's
worth of elements is a 2-D array of shape ``(count, element_size)``.  All
encode/decode kernels are vectorized across the payload axis.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from itertools import combinations, islice
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from ..gf import GF, GF8
from ..gf import matrix as gfm

__all__ = ["DecodeFailure", "ErasureCode", "MatrixCode"]


class DecodeFailure(ValueError):
    """Raised when an erasure pattern exceeds what the code can decode."""


class ErasureCode(ABC):
    """A systematic single-row erasure code.

    Subclasses must provide the code geometry (``k``, ``n``), an
    ``encode``/``decode`` pair, and :meth:`repairable_from`, which the
    shared repair planning for degraded reads relies on.
    """

    #: short registry name, e.g. ``"rs"`` or ``"lrc"``.
    name: str = "abstract"

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    @property
    @abstractmethod
    def k(self) -> int:
        """Number of data elements per row."""

    @property
    @abstractmethod
    def n(self) -> int:
        """Total number of elements per row (data + parity)."""

    @property
    def num_parity(self) -> int:
        """Number of parity elements per row."""
        return self.n - self.k

    @property
    @abstractmethod
    def fault_tolerance(self) -> int:
        """Largest ``f`` such that *any* ``f`` erasures are decodable."""

    @property
    def storage_overhead(self) -> float:
        """Raw-to-usable storage ratio, ``n / k``."""
        return self.n / self.k

    def is_data(self, index: int) -> bool:
        """True if element ``index`` is a data element."""
        return 0 <= index < self.k

    def is_parity(self, index: int) -> bool:
        """True if element ``index`` is a parity element."""
        return self.k <= index < self.n

    def describe(self) -> str:
        """Human-readable one-line description."""
        return f"{self.name}(k={self.k}, n={self.n}, f={self.fault_tolerance})"

    # ------------------------------------------------------------------
    # coding
    # ------------------------------------------------------------------
    @abstractmethod
    def encode(self, data: np.ndarray) -> np.ndarray:
        """Compute parities for one row.

        Parameters
        ----------
        data:
            ``(k, element_size)`` uint8 array of data payloads.

        Returns
        -------
        ``(n - k, element_size)`` uint8 array of parity payloads.
        """

    @abstractmethod
    def decode(
        self,
        available: Mapping[int, np.ndarray],
        erased: Sequence[int],
        element_size: int,
    ) -> dict[int, np.ndarray]:
        """Reconstruct the payloads of ``erased`` element indices.

        Parameters
        ----------
        available:
            Map from surviving element index to its payload.  Need not
            contain every surviving element, only enough to decode.
        erased:
            Element indices to reconstruct.
        element_size:
            Payload size in bytes (used when ``available`` is overdetermined
            or to size outputs).

        Raises
        ------
        DecodeFailure
            If the erasures cannot be reconstructed from ``available``.
        """

    @abstractmethod
    def can_decode(self, erased: Iterable[int]) -> bool:
        """True if the erasure pattern is decodable (given all survivors)."""

    # ------------------------------------------------------------------
    # repair planning (used by the degraded-read planner)
    # ------------------------------------------------------------------
    def repair_plan(
        self,
        lost: int,
        have: frozenset[int] = frozenset(),
        *,
        cost: Callable[[int], float] | None = None,
    ) -> frozenset[int]:
        """A read set sufficient to reconstruct single lost element ``lost``.

        Greedily takes survivors in order of ``cost`` (when given; the
        topology planner charges cross-rack helpers above in-rack ones),
        then elements the caller already holds, then data before parity,
        widening from ``k`` helpers until :meth:`repairable_from` holds.

        Parameters
        ----------
        lost:
            The erased element index.
        have:
            Element indices whose payloads the caller will already hold
            (e.g. because the user's read request covers them); the plan
            prefers these as helpers to minimise *extra* disk accesses.
        cost:
            Optional ``element -> price`` ranking survivors before any
            other preference.

        Returns
        -------
        The complete helper set (``have`` members it uses included); never
        contains ``lost``.
        """
        if not 0 <= lost < self.n:
            raise ValueError(f"element index {lost} out of range for n={self.n}")
        survivors = [i for i in range(self.n) if i != lost]
        preference = sorted(
            survivors,
            key=lambda i: (cost(i) if cost else 0, i not in have, self.is_parity(i), i),
        )
        for size in range(self.k, len(survivors) + 1):
            candidate = frozenset(preference[:size])
            if self.repairable_from(lost, candidate):
                return candidate
        raise DecodeFailure(f"element {lost} cannot be repaired from survivors")

    @abstractmethod
    def repairable_from(self, lost: int, helpers: Iterable[int]) -> bool:
        """True if ``lost`` can be rebuilt from ``helpers``' whole elements."""

    def repair_io_count(self, lost: int) -> int:
        """Number of element reads needed to repair ``lost`` from scratch."""
        return len(self.repair_plan(lost))

    def repair_candidates(
        self, lost: int, have: frozenset[int] = frozenset(), *, limit: int = 24
    ) -> list[dict[int, float]]:
        """Alternative repair read-sets for ``lost``, as ``{helper: fraction}``.

        Each candidate maps helper element indices to the fraction of the
        element's bytes the reconstruction consumes — sub-element repair
        (piggybacked codes) reads the whole slot off the disk but only
        ships that fraction over the network.  Contract: every candidate's
        *whole-element* support set decodes ``[lost]`` on its own, so the
        data plane can always fall back to full-element decoding, and at
        most ``limit`` candidates are returned.  Every single-loss planner
        chooses among these: the bottleneck-aware degraded and rebuild
        planners (:mod:`repro.engine.optimizing`,
        :mod:`repro.engine.rebuild`) on disk load, the minimum-transfer
        planner (:mod:`repro.net.planner`) on network bytes.

        The default yields :meth:`repair_plan`'s set first, then every
        single swap of one of its non-``have`` helpers for an unused
        survivor that still repairs ``lost`` (for MDS codes, all of them),
        each at full fraction.
        """
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        preferred = self.repair_plan(lost, have)
        unused = [i for i in range(self.n) if i != lost and i not in preferred]
        swaps = (
            (preferred - {out}) | {incoming}
            for out in sorted(preferred - have)
            for incoming in unused
        )
        found = [preferred]
        found += islice((s for s in swaps if self.repairable_from(lost, s)), limit - 1)
        return [dict.fromkeys(sorted(helpers), 1.0) for helpers in found]

    # ------------------------------------------------------------------
    # verification helpers
    # ------------------------------------------------------------------
    def verify_codeword(self, elements: np.ndarray) -> bool:
        """Check that a full row ``(n, element_size)`` is a valid codeword."""
        elements = np.asarray(elements, dtype=np.uint8)
        if elements.shape[0] != self.n:
            raise ValueError(f"expected {self.n} elements, got {elements.shape[0]}")
        parity = self.encode(elements[: self.k])
        return bool(np.array_equal(parity, elements[self.k :]))


class MatrixCode(ErasureCode):
    """Systematic linear code defined by an extended generator matrix.

    The extended generator ``G`` has shape ``(n, k)`` with ``G[:k] = I``.
    Element ``i`` of a codeword is ``G[i] @ data`` over GF(2^w).  Decoding
    treats every available element as a linear equation over the erased
    data unknowns and solves by Gaussian elimination, which is *maximally
    recoverable*: any pattern that is information-theoretically decodable
    under these coefficients is decoded.
    """

    def __init__(self, generator: np.ndarray, field: GF = GF8) -> None:
        gen = field.asarray(generator)
        if gen.ndim != 2:
            raise ValueError("generator must be 2-D")
        n, k = gen.shape
        if n <= k:
            raise ValueError(f"generator must have more rows than columns, got {gen.shape}")
        if not np.array_equal(gen[:k], gfm.identity(field, k)):
            raise ValueError("extended generator must start with the identity block")
        self.field = field
        self._generator = gen.copy()
        self._generator.setflags(write=False)
        self._k = k
        self._n = n
        self._fault_tolerance: int | None = None
        #: span rank of the generator rows of an element-index set, keyed
        #: by the set's bitmask (row order and repeats do not change rank)
        self._rank_memo: dict[int, int] = {}

    # -- geometry -------------------------------------------------------
    @property
    def k(self) -> int:
        return self._k

    @property
    def n(self) -> int:
        return self._n

    @property
    def generator(self) -> np.ndarray:
        """The read-only ``(n, k)`` extended generator matrix."""
        return self._generator

    @property
    def coding_block(self) -> np.ndarray:
        """The bottom ``(n-k, k)`` coefficient block of the generator."""
        return self._generator[self._k :]

    @property
    def fault_tolerance(self) -> int:
        """Computed (and cached) by exhaustive erasure-pattern search."""
        if self._fault_tolerance is None:
            self._fault_tolerance = self._compute_fault_tolerance()
        return self._fault_tolerance

    def _compute_fault_tolerance(self) -> int:
        best = 0
        for f in range(1, self.num_parity + 1):
            if all(self.can_decode(pattern) for pattern in combinations(range(self.n), f)):
                best = f
            else:
                break
        return best

    def span_rank(self, indices: Iterable[int]) -> int:
        """Rank of the generator rows of the element indices ``indices``.

        Answers are memoized per code on the index set (at most ``2**n``
        entries): the generator is read-only, so a set's rank never
        changes.  Two threads missing on one set both store the same
        value, so the memo needs no lock.
        """
        mask = 0
        for i in indices:
            i = int(i)
            if not 0 <= i < self._n:
                raise ValueError(f"element index {i} out of range for n={self._n}")
            mask |= 1 << i
        r = self._rank_memo.get(mask)
        if r is None:
            rows = [i for i in range(self._n) if mask >> i & 1]
            r = self._rank_memo[mask] = gfm.rank(self.field, self._generator[rows])
        return r

    @property
    def is_mds(self) -> bool:
        """True if the code tolerates the theoretical maximum ``n - k``."""
        return self.fault_tolerance == self.num_parity

    # -- coding ---------------------------------------------------------
    @staticmethod
    def _payload(data, element_size: int | None = None) -> np.ndarray:
        arr = np.asarray(data, dtype=np.uint8)
        if arr.ndim == 1:
            arr = arr[np.newaxis, :]
        if arr.ndim != 2:
            raise ValueError(f"payload must be 1-D or 2-D, got shape {arr.shape}")
        if element_size is not None and arr.shape[1] != element_size:
            raise ValueError(
                f"payload element size {arr.shape[1]} != expected {element_size}"
            )
        return arr

    def _symbols(self, buf: np.ndarray) -> np.ndarray:
        """View a uint8 payload as field symbols (w=8: identity; w=16:
        little-endian uint16 pairs).  Requires the payload length to be a
        multiple of the symbol width."""
        if self.field.w == 8:
            return buf
        width = self.field.w // 8
        if buf.shape[-1] % width:
            raise ValueError(
                f"payload size {buf.shape[-1]} not a multiple of the "
                f"{width}-byte symbol width of GF(2^{self.field.w})"
            )
        return np.ascontiguousarray(buf).view(self.field.dtype)

    @staticmethod
    def _bytes_of(symbols: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`_symbols`: back to a uint8 payload view."""
        if symbols.dtype == np.uint8:
            return symbols
        return symbols.view(np.uint8)

    def encode(self, data: np.ndarray) -> np.ndarray:
        data = self._payload(data)
        if data.shape[0] != self.k:
            raise ValueError(f"encode expects {self.k} data elements, got {data.shape[0]}")
        if self.field.w not in (8, 16):
            raise NotImplementedError("byte payloads require a GF(2^8) or GF(2^16) code")
        symbols = self._symbols(data)
        out = np.zeros((self.num_parity, symbols.shape[1]), dtype=self.field.dtype)
        block = self.coding_block
        for row in range(self.num_parity):
            for col in range(self.k):
                self.field.axpy(out[row], int(block[row, col]), symbols[col], trusted=True)
        return self._bytes_of(out).reshape(self.num_parity, data.shape[1])

    def element_equation(self, index: int) -> np.ndarray:
        """Generator row for element ``index`` (its coefficients over data)."""
        if not 0 <= index < self.n:
            raise ValueError(f"element index {index} out of range for n={self.n}")
        return self._generator[index]

    def can_decode(self, erased: Iterable[int]) -> bool:
        erased_set = frozenset(int(e) for e in erased)
        for e in erased_set:
            if not 0 <= e < self.n:
                raise ValueError(f"element index {e} out of range for n={self.n}")
        return self.span_rank(i for i in range(self.n) if i not in erased_set) == self.k

    def decode(
        self,
        available: Mapping[int, np.ndarray],
        erased: Sequence[int],
        element_size: int,
    ) -> dict[int, np.ndarray]:
        try:
            return self._decode_strict(available, erased, element_size)
        except DecodeFailure:
            # The strict path solves erased data then re-encodes erased
            # parity from the full data row, which rejects sparse helper
            # sets (e.g. a minimum-transfer set mixing a local parity with
            # globals) that are nonetheless sufficient.  Fall back to
            # per-element span reconstruction; re-raise if even that fails.
            out = self._decode_by_span(available, erased, element_size)
            if out is None:
                raise
            return out

    def _decode_strict(
        self,
        available: Mapping[int, np.ndarray],
        erased: Sequence[int],
        element_size: int,
    ) -> dict[int, np.ndarray]:
        erased_list = [int(e) for e in erased]
        erased_set = set(erased_list)
        if erased_set & set(available.keys()):
            raise ValueError("an element cannot be both available and erased")

        payloads = {
            int(i): self._payload(buf, element_size)[0] for i, buf in available.items()
        }
        erased_data = sorted(e for e in erased_set if self.is_data(e))
        known_data = {i: payloads[i] for i in payloads if self.is_data(i)}

        solved: dict[int, np.ndarray] = {}
        if erased_data:
            solved.update(
                self._solve_data(payloads, known_data, erased_data, element_size)
            )
        # Every data element is now known (directly or reconstructed);
        # erased parities are recomputed from the generator row.
        full_data = np.zeros((self.k, element_size), dtype=np.uint8)
        for j in range(self.k):
            if j in known_data:
                full_data[j] = known_data[j]
            elif j in solved:
                full_data[j] = solved[j]
            elif j in erased_set:
                raise AssertionError("erased data left unsolved")  # pragma: no cover
            else:
                # Data element neither provided nor erased: only legal if no
                # erased parity depends on it... recomputing parity needs all
                # data, so require it.
                needed = any(
                    self.is_parity(e) and self._generator[e, j] for e in erased_set
                )
                if needed:
                    raise DecodeFailure(
                        f"data element {j} required to rebuild an erased parity "
                        "but was neither provided nor listed as erased"
                    )
        full_symbols = self._symbols(full_data)
        for e in erased_list:
            if self.is_parity(e):
                row = self._generator[e]
                buf = np.zeros(full_symbols.shape[1], dtype=self.field.dtype)
                for j in range(self.k):
                    self.field.axpy(buf, int(row[j]), full_symbols[j], trusted=True)
                solved[e] = self._bytes_of(buf)
        return {e: solved[e] for e in erased_list}

    def _decode_by_span(
        self,
        available: Mapping[int, np.ndarray],
        erased: Sequence[int],
        element_size: int,
    ) -> dict[int, np.ndarray] | None:
        """Reconstruct each erased element as a GF-linear combination of the
        available payloads, or None if any erased row is outside their span.

        This realizes the maximally-recoverable contract for helper subsets
        the strict path cannot use: an element is recoverable from a helper
        set iff its generator row lies in the span of the helpers' rows, in
        which case the same combination applied to the payloads yields the
        element bytes.
        """
        f = self.field
        payloads = {
            int(i): self._payload(buf, element_size)[0] for i, buf in available.items()
        }
        helpers = sorted(payloads)
        symbols = {
            h: self._symbols(payloads[h][np.newaxis, :])[0] for h in helpers
        }
        symbol_count = self._symbols(
            np.zeros((1, element_size), dtype=np.uint8)
        ).shape[1]
        out: dict[int, np.ndarray] = {}
        for e in (int(x) for x in erased):
            coeffs = self._span_coefficients(helpers, e)
            if coeffs is None:
                return None
            acc = np.zeros(symbol_count, dtype=f.dtype)
            for h, c in coeffs.items():
                f.axpy(acc, c, symbols[h], trusted=True)
            out[e] = self._bytes_of(acc)
        return out

    def _span_coefficients(
        self, helpers: Sequence[int], target: int
    ) -> dict[int, int] | None:
        """Coefficients ``{helper: c}`` with ``row(target) = Σ c·row(helper)``
        over the field, or None when the target row is outside the span."""
        f = self.field
        rows = self._generator[list(helpers)]
        r = self.span_rank(helpers)
        if r == 0:
            return None
        basis = self._independent_rows(rows.copy(), r)
        sub = rows[basis]
        cols = self._independent_rows(np.ascontiguousarray(sub.T), r)
        square = sub[:, cols].T
        b = self._generator[target][cols]
        y = gfm.solve(f, square, b)
        combo = np.zeros(self.k, dtype=f.dtype)
        for i in range(r):
            f.axpy(combo, int(y[i]), sub[i], trusted=True)
        if not np.array_equal(combo, self._generator[target]):
            return None
        return {
            helpers[basis[i]]: int(y[i]) for i in range(r) if int(y[i])
        }

    def _solve_data(
        self,
        payloads: Mapping[int, np.ndarray],
        known_data: Mapping[int, np.ndarray],
        erased_data: list[int],
        element_size: int,
    ) -> dict[int, np.ndarray]:
        """Solve for erased data elements from available parity equations."""
        f = self.field
        unknowns = erased_data
        col_of = {j: c for c, j in enumerate(unknowns)}

        avail_parity = sorted(i for i in payloads if self.is_parity(i))
        if len(avail_parity) < len(unknowns):
            raise DecodeFailure(
                f"{len(unknowns)} data erasures but only {len(avail_parity)} "
                "parity elements available"
            )

        # Coefficient matrix restricted to erased-data columns, plus the
        # right-hand side (in field symbols) with known-data folded in.
        symbol_count = self._symbols(
            np.zeros((1, element_size), dtype=np.uint8)
        ).shape[1]
        a = np.zeros((len(avail_parity), len(unknowns)), dtype=f.dtype)
        rhs = np.zeros((len(avail_parity), symbol_count), dtype=f.dtype)
        for r, p in enumerate(avail_parity):
            row = self._generator[p]
            rhs[r] = self._symbols(payloads[p][np.newaxis, :])[0]
            for j in range(self.k):
                coeff = int(row[j])
                if coeff == 0:
                    continue
                if j in col_of:
                    a[r, col_of[j]] = coeff
                else:
                    if j not in known_data:
                        raise DecodeFailure(
                            f"parity {p} depends on data {j} which is neither "
                            "available nor erased"
                        )
                    f.axpy(rhs[r], coeff, self._symbols(known_data[j][np.newaxis, :])[0], trusted=True)

        # Select an invertible square system by row reduction over a copy.
        rows = self._independent_rows(a, len(unknowns))
        if rows is None:
            raise DecodeFailure(
                f"erasure pattern {sorted(unknowns)} not decodable from "
                f"available parities {avail_parity}"
            )
        square = a[rows]
        rhs_sel = rhs[rows]
        solution = gfm.solve(f, square, rhs_sel)
        return {j: self._bytes_of(solution[c]) for j, c in col_of.items()}

    def _independent_rows(self, a: np.ndarray, need: int) -> list[int] | None:
        """Indices of ``need`` linearly independent rows of ``a``, or None."""
        f = self.field
        work = a.copy()
        chosen: list[int] = []
        used = np.zeros(len(work), dtype=bool)
        for _ in range(need):
            pivot_row = None
            for r in range(len(work)):
                if not used[r] and work[r].any():
                    pivot_row = r
                    break
            if pivot_row is None:
                return None
            used[pivot_row] = True
            chosen.append(pivot_row)
            pivot_col = int(np.nonzero(work[pivot_row])[0][0])
            pivot_inv = f.inv(int(work[pivot_row, pivot_col]))
            work[pivot_row] = f.scalar_mul_vec(pivot_inv, work[pivot_row])
            for r in range(len(work)):
                if r != pivot_row and work[r, pivot_col]:
                    factor = int(work[r, pivot_col])
                    work[r] ^= f.scalar_mul_vec(factor, work[pivot_row], trusted=True)
        return chosen

    # -- repair planning --------------------------------------------------
    def repairable_from(self, lost: int, helpers: Iterable[int]) -> bool:
        """True if ``lost`` is a GF-linear combination of ``helpers``' rows."""
        helpers = frozenset(helpers)
        return self.span_rank(helpers | {lost}) == self.span_rank(helpers)
