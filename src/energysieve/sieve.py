"""Occupancy-based sieve inequalities and divisor sums over difference sets.

Two results are made executable here.  First, the composite-moduli inequality:
if every prime-power class count of A stays under the multiplicative ceiling,
then |A|^2 / delta(v) <= sum over classes h mod v of |A(v;h)|^2, checked in
exact rational arithmetic.  Second, the divisor sum
sum_{1 <= u < v <= sqrt(N)} r_{A-A}(uv), computed both by direct product
enumeration against r_{A-A}, streamed block by block from the energy module's
pair-counting core, and by an independent congruence-window scan that shares
no counting with it; the two totals agree exactly, pair for pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .arith import EPS_ZERO, EpsilonSpec, delta, delta_prime_power, factorize, sieve_primes
from .energy import _BLOCK, _exact_dot, _pair_counts
from .limits import check_allocation
from .sets import IntegerSet, ResidueProfile, occupancy

__all__ = [
    "SieveCheckResult",
    "DivisorSumRow",
    "DivisorSumTrace",
    "DivisorGrowthReport",
    "DifferenceTable",
    "composite_moduli_check",
    "gallagher_bound",
    "divisor_sum_direct",
    "divisor_sum_partition",
    "divisor_growth_report",
]

@dataclass(frozen=True)
class SieveCheckResult:
    """One modulus check of |A|^2/delta(v) against the class-count square sum."""

    modulus: int
    card: int
    delta_value: Fraction
    lhs: Fraction        # |A|^2 / delta(v)
    rhs: int             # sum_h |A(v;h)|^2
    hypothesis_ok: bool  # occupancy under the ceiling at every prime power of v
    holds: bool          # lhs <= rhs


def composite_moduli_check(A: IntegerSet, v: int, eps: EpsilonSpec) -> SieveCheckResult:
    """Evaluate the inequality at modulus v; hypothesis failures are reported,
    never raised, since the conclusion is only guaranteed under the hypothesis."""
    if v < 1:
        raise ValueError("modulus must be positive")
    counts = occupancy(A, v).counts
    card = len(A)
    rhs = _exact_dot([(counts, counts)], card * card)  # a class count is at most |A|
    dv = delta(v, eps)
    lhs = Fraction(card * card) / dv
    return SieveCheckResult(
        modulus=v,
        card=card,
        delta_value=dv,
        lhs=lhs,
        rhs=rhs,
        hypothesis_ok=_under_ceiling(
            (((p, k), occupancy(A, p**k).occupancy) for p, k in factorize(v).factors), eps
        ),
        holds=lhs <= rhs,
    )


def _under_ceiling(occupied, eps: EpsilonSpec) -> bool:
    """The occupancy hypothesis: for each ((p, k), classes occupied modulo p^k)
    in turn, until one fails, at most delta_prime_power(p, k, eps) classes."""
    return all(count <= delta_prime_power(p, k, eps) for (p, k), count in occupied)


def gallagher_bound(profiles: Sequence[ResidueProfile], N: int) -> float | None:
    """The larger-sieve cardinality bound from prime occupancy data.

    Returns (sum log p - log N) / (sum log p / |A_p| - log N) over the given
    prime moduli, or None when the denominator is not positive (inconclusive).
    """
    if N < 1:
        raise ValueError("N must be positive")
    seen: set[int] = set()
    num = -math.log(N)
    den = -math.log(N)
    for prof in profiles:
        p = prof.modulus
        if p in seen:
            raise ValueError(f"duplicate prime modulus {p}")
        seen.add(p)
        if prof.occupancy < 1:
            raise ValueError(f"profile at {p} has empty occupancy")
        num += math.log(p)
        den += math.log(p) / prof.occupancy
    if den <= 0:
        return None
    return num / den


# ---------------------------------------------------------------------------
# Difference counts, streamed
# ---------------------------------------------------------------------------

class DifferenceTable:
    """Sums of r_{A-A}(d) over [1, min(max_diff, span of A)], streamed block by
    block from `energy._pair_counts`; no count is stored.

    `lookup` takes enumerators: values(D, E) returns the int64 differences in
    [D, E] to sum r at, with multiplicity.  Each consumer's are products uv of
    distinct pairs u < v, so u < R = isqrt(max_diff) + 1, and a block of L
    differences holds at most sum_{u < R} (L/u + 1) <= L (1 + ln R) + R of them.
    """

    def __init__(self, A: IntegerSet, max_diff: int):
        self.elements = A.elements
        self.hi = min(max_diff, int(A.elements[-1] - A.elements[0])) if len(A) > 1 else 0
        self.rows = math.isqrt(max(max_diff, 0)) + 1

    def lookup(self, *products) -> tuple[int, ...]:
        """sum of r(d) over the values of each enumerator, from one counting pass."""
        xs = self.elements
        per_block = int(min(_BLOCK, self.hi) * (1 + math.log(self.rows))) + self.rows
        # per value: the values and a temporary, then the offsets and the
        # gathered counts; per row, the enumerators' row arrays
        held = 16 * per_block + 80 * self.rows
        _, blocks, _ = _pair_counts(xs, -xs[::-1], 1, self.hi, "auto", held=held)
        totals = [0] * len(products)
        for start, counts in blocks:
            for i, values in enumerate(products):
                ds = values(start, start + len(counts) - 1)
                ds -= start
                totals[i] += int(counts[ds].sum())
        return tuple(totals)


def _ragged(first: np.ndarray, last: np.ndarray, step: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """first[i], first[i] + step, ... up to last[i], row after row, as one int64
    array; and the row lengths (0 where last[i] < first[i])."""
    lens = np.maximum((last - first) // step + 1, 0)
    starts = np.cumsum(lens) - lens
    out = np.arange(int(lens.sum()), dtype=np.int64) * step
    out += np.repeat(first - step * starts, lens)
    return out, lens


def _isqrt(x: np.ndarray) -> np.ndarray:
    """floor(sqrt(x)) of nonnegative int64 values below 2^62, exactly: the float
    root is off by at most one either way."""
    r = np.sqrt(x.astype(np.float64)).astype(np.int64)
    r -= r * r > x
    r += (r + 1) * (r + 1) <= x
    return r


# ---------------------------------------------------------------------------
# Divisor sums, two ways
# ---------------------------------------------------------------------------

def divisor_sum_direct(A: IntegerSet, N: int, *, radius: int | None = None) -> int:
    """sum over 1 <= u < v <= radius of r_{A-A}(uv); radius defaults to isqrt(N)."""
    if radius is None:
        radius = math.isqrt(N)
    u = np.arange(1, radius, dtype=np.int64)

    def products(D: int, E: int) -> np.ndarray:  # uv in [D, E]
        v, lens = _ragged(np.maximum(u + 1, -(-D // u)), np.minimum(radius, E // u))
        v *= np.repeat(u, lens)
        return v

    return DifferenceTable(A, radius * radius).lookup(products)[0]


@dataclass(frozen=True)
class DivisorSumRow:
    v: int
    j_count: int               # number of length-v^2 blocks covering [1, N]
    window_count: int          # pairs a > b, a = b mod v, a - b < v^2
    partition_lower_bound: int # same-class pairs inside single blocks


@dataclass(frozen=True)
class DivisorSumTrace:
    cap: int
    rows: tuple[DivisorSumRow, ...]
    total: int
    partition_total: int


def divisor_sum_partition(A: IntegerSet, N: int) -> DivisorSumTrace:
    """The congruence-window route: for each v count pairs a = b mod v with
    0 < a - b < v^2, by a sorted-window rule inside each residue class.

    Shares nothing with the product-enumeration route (no difference table,
    no products uv), yet the totals are equal: a - b = uv with 1 <= u < v
    exactly when v divides a - b and the difference is under v^2.  Also
    records, per v, the count of same-class pairs falling inside a single
    length-v^2 block of [1, N]; every such pair is a window pair, so this is a
    valid per-v lower bound.

    For each v one sort orders A by the key (a mod v) * W + a, where W exceeds
    every element, so each class is a contiguous ascending run; a mod v is
    a - (a // v) * v and the class base (a mod v) * W is key // W * W.  The
    window pairs of a are the keys in [max(key - v^2 + 1, base), key of a): the
    clamp at the base keeps a window from reaching into class h - 1.  The block
    pairs are the runs of equal base + (key - base) // v^2, that is of equal
    (a mod v, a // v^2); each element counts the run members before it.
    """
    radius = math.isqrt(N)
    elems = A.elements
    width = max(N, int(elems[-1]) if len(elems) else 0) + 1
    n = len(elems)
    # index, then per modulus the key, the class base, the window queries and
    # their search result; the run keys reuse the queries' array, and the run
    # starts and their change mask replace the base and the search result
    check_allocation(8 * 5 * n, f"partition scan of {n} elements")
    index = np.arange(n)
    rows: list[DivisorSumRow] = []
    total = 0
    part_total = 0
    for v in range(1, radius + 1):
        vsq = v * v
        j_count = max(1, N // vsq)
        window = 0
        partition = 0
        if n >= 2:
            window, partition = _class_pairs(elems, index, width, v)
        rows.append(
            DivisorSumRow(
                v=v, j_count=j_count, window_count=window, partition_lower_bound=partition
            )
        )
        total += window
        part_total += partition
    return DivisorSumTrace(cap=N, rows=tuple(rows), total=total, partition_total=part_total)


def _class_pairs(elems: np.ndarray, index: np.ndarray, width: int, v: int) -> tuple[int, int]:
    """(window pairs, block pairs) of the sorted elements at modulus v, as
    described in `divisor_sum_partition`; index is arange(len(elems))."""
    vsq = v * v
    pairs = len(elems) * (len(elems) - 1) // 2
    key = elems // v
    key *= -v
    key += elems
    key *= width
    key += elems
    key.sort()
    base = key // width
    base *= width
    query = key - (vsq - 1)
    np.maximum(query, base, out=query)
    window = pairs - int(np.searchsorted(key, query, side="left").sum())
    run = np.subtract(key, base, out=query)
    run //= vsq
    run += base
    del base
    # the start of i's run is the last j <= i whose run key differs from its
    # predecessor's, or 0; element 0 adds nothing
    starts = np.where(np.not_equal(run[1:], run[:-1]), index[1:], 0)
    np.maximum.accumulate(starts, out=starts)
    return window, pairs - int(starts.sum())


@dataclass(frozen=True)
class DivisorGrowthReport:
    cap: int
    card: int
    total: int
    scale: float   # |A|^2 log N
    ratio: float   # total / scale
    hypothesis_ok: bool
    hypothesis_checked_to: int


def divisor_growth_report(A: IntegerSet, N: int, eps: EpsilonSpec = EPS_ZERO) -> DivisorGrowthReport:
    """Measured constant in the divisor-sum growth: total / (|A|^2 log N).

    The occupancy hypothesis is tested against eps for all primes up to
    isqrt(N) and reported, not enforced.
    """
    if N < 2:
        raise ValueError("N must be at least 2")
    total = divisor_sum_direct(A, N)
    card = len(A)
    scale = card * card * math.log(N)
    limit = math.isqrt(N)
    return DivisorGrowthReport(
        cap=N,
        card=card,
        total=total,
        scale=scale,
        ratio=total / scale if scale > 0 else 0.0,
        hypothesis_ok=_under_ceiling(
            (((p, 1), occupancy(A, p).occupancy) for p in sieve_primes(limit)), eps
        ),
        hypothesis_checked_to=limit,
    )
