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
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .arith import EPS_ZERO, EpsilonSpec, delta, delta_prime_power, factorize, sieve_primes
from .energy import _exact_dot, _gather, _groups, _pair_counts
from .errors import ResourceLimitError
from .limits import check_allocation
from .sets import IntegerSet, _check_occupancy, _distinct, occupancy

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

PARTITION_MODULI_GUARD = 1 << 16  # moduli of one partition scan, one pass each: N < 65537^2
_LOOKUP_GROUP = 1 << 13  # values per group of a lookup enumeration's gather


class SieveCheckResult(NamedTuple):
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
    _check_occupancy(A, v)  # the first refusal, before v is factored
    factors = factorize(v)
    # the counts and the bool column of classes occupied modulo the largest
    # p^k || v, which a casting reduction fills through one numpy buffer
    column = max((p**k for p, k in factors), default=0) + 8 * np.getbufsize()
    check_allocation(8 * v + column, f"class counts modulo {v} and one prime-power column")
    counts = occupancy(A, v)
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
        hypothesis_ok=_under_ceiling(  # classes h = r (mod p^k) make column r of counts
            (((p, k), np.count_nonzero(counts.reshape(-1, p**k).any(axis=0)))
             for p, k in factors), eps),
        holds=lhs <= rhs,
    )


def _under_ceiling(occupied, eps: EpsilonSpec) -> bool:
    """The occupancy hypothesis: for each ((p, k), classes occupied modulo p^k)
    in turn, until one fails, at most delta_prime_power(p, k, eps) classes."""
    return all(count <= delta_prime_power(p, k, eps) for (p, k), count in occupied)


def gallagher_bound(A: IntegerSet, Q: int) -> float | None:
    """Gallagher's larger-sieve bound on |A| from its occupancy at the primes up to Q.

    Returns (sum log p - log N) / (sum log p / |A_p| - log N), N = A.cap and
    |A_p| the classes modulo p that A occupies, or None when the denominator
    is not positive (inconclusive; always so for Q < 2).  A prime above |A|
    leaves most classes empty, so there the distinct residues are counted
    instead of a length-p table.
    """
    if len(A) == 0:
        raise ValueError("set must be nonempty")
    num = den = -math.log(A.cap)
    for p in sieve_primes(Q).tolist():
        if p <= len(A):
            occupied = int(np.count_nonzero(occupancy(A, p)))
        else:
            occupied = len(_distinct(A.elements % p))
        num += math.log(p)
        den += math.log(p) / occupied
    if den <= 0:
        return None
    return num / den


# ---------------------------------------------------------------------------
# Difference counts, streamed
# ---------------------------------------------------------------------------

class DifferenceTable:
    """Sums of r_{A-A}(d) over [1, min(max_diff, span of A)], streamed block by
    block from `energy._pair_counts` (a verified transform is one block); no
    count is stored.

    `lookup` takes enumerators: values(D, E) yields, in groups, the int64
    differences in [D, E] to sum r at, with multiplicity.  Each consumer's are
    products uv of distinct pairs u < v, so u < R = isqrt(max_diff) + 1, and a
    block of L differences holds at most sum_{u < R} (L/u + 1) <= L (1 + ln R)
    + R of them.  They are gathered by `_ragged_groups`: a group holds at
    most _LOOKUP_GROUP values, or one row of at most min(L, R) <= min(hi, R).
    """

    def __init__(self, A: IntegerSet, max_diff: int):
        xs = self.elements = A.elements
        self.hi = min(max_diff, int(xs[-1] - xs[0])) if len(A) > 1 else 0
        self.rows = math.isqrt(max(max_diff, 0)) + 1
        # a block holds L <= hi differences, whatever block `_pair_counts` yields
        group = min(max(_LOOKUP_GROUP, min(self.hi, self.rows)),
                    int(self.hi * (1 + math.log(self.rows))) + self.rows)
        # per value of a group: the values, a temporary, and the last group's
        # values, which the consumer holds until the next one is made; per
        # row, the enumerators' row arrays (a consumer's own rows among them,
        # so it makes them after this check)
        self.held = 24 * group + 80 * self.rows
        check_allocation(self.held, f"difference lookups over {self.rows} rows")

    def lookup(self, *products) -> tuple[int, ...]:
        """sum of r(d) over the values of each enumerator, from one counting pass."""
        xs = self.elements
        _, blocks, _ = _pair_counts(xs, None, 1, self.hi, "auto", held=self.held)
        totals = [0] * len(products)
        for start, counts in blocks:
            for i, values in enumerate(products):
                for ds in values(start, start + len(counts) - 1):
                    ds -= start
                    totals[i] += int(counts[ds].sum())
        return tuple(totals)


def _ragged_groups(first: np.ndarray, last: np.ndarray, step: int = 1):
    """The rows first[k], first[k] + step, ... up to last[k] (empty where
    last[k] < first[k]), gathered by `energy._groups` at most _LOOKUP_GROUP
    values at a time: yields (rows, lens, values), the group's slice of rows,
    their lengths and their values as one int64 array.  The lengths and
    their running ends are computed once for all groups."""
    lens = last - first
    if step != 1:
        lens //= step
    lens += 1
    np.maximum(lens, 0, out=lens)
    ends = np.cumsum(lens)
    for i, j in _groups(ends, _LOOKUP_GROUP):
        yield slice(i, j), lens[i:j], _gather(first[i:j], lens[i:j], ends[i:j], step)


def _products(u: np.ndarray, low, high, step: int = 1):
    """The `DifferenceTable.lookup` enumerator of the products u[k] v in [D, E]
    over v = low[k], low[k] + step, ... up to high[k]: row k's v run from the
    least of them at least D / u[k] to min(high[k], E // u[k])."""
    def values(D: int, E: int):
        first = np.maximum(low, -(-D // u))
        if step != 1:
            first += (low - first) % step
        for rows, lens, v in _ragged_groups(first, np.minimum(high, E // u), step):
            v *= np.repeat(u[rows], lens)
            yield v
    return values


def _square_differences(squares: np.ndarray):
    """The `DifferenceTable.lookup` enumerator of n^2 - m^2 in [D, E], D >= 1,
    over 1 <= m < n <= R, given the squares 1, 4, ..., R^2: row m's n run from
    the first with n^2 >= m^2 + D to the last with n^2 <= m^2 + E, two
    searches on the squares (squares[i] = (i + 1)^2)."""
    msq = squares[:-1]

    def values(D: int, E: int):
        first = np.searchsorted(squares, msq + D) + 1
        for rows, lens, n in _ragged_groups(first, np.searchsorted(squares, msq + E, side="right")):
            n *= n
            n -= np.repeat(msq[rows], lens)
            yield n
    return values


# ---------------------------------------------------------------------------
# Divisor sums, two ways
# ---------------------------------------------------------------------------

def divisor_sum_direct(A: IntegerSet, N: int, *, radius: int | None = None) -> int:
    """sum over 1 <= u < v <= radius of r_{A-A}(uv); radius defaults to isqrt(N)."""
    if radius is None:
        radius = math.isqrt(N)
    table = DifferenceTable(A, radius * radius)
    u = np.arange(1, radius, dtype=np.int64)
    return table.lookup(_products(u, u + 1, radius))[0]


class DivisorSumRow(NamedTuple):
    v: int
    j_count: int               # max(1, N // v^2); the scan's blocks a // v^2 number N // v^2 + 1
    window_count: int          # pairs a > b, a = b mod v, a - b < v^2
    partition_lower_bound: int # same-class pairs inside single blocks


class DivisorSumTrace(NamedTuple):
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
    valid per-v lower bound.  Each modulus is one pass in Python (about 27 us
    on two elements), so a scan over more than PARTITION_MODULI_GUARD moduli,
    N >= 65537^2, is refused at once.

    For each v one sort orders A by the key (a mod v) * W + a, where W exceeds
    every element, so each class is a contiguous ascending run; a mod v is
    a - (a // v) * v and the class base (a mod v) * W is key // W * W.  The
    window pairs of a are the keys in [max(key - v^2 + 1, base), key of a): the
    clamp at the base keeps a window from reaching into class h - 1.  The block
    pairs are the runs of equal base + (key - base) // v^2, that is of equal
    (a mod v, a // v^2); each element counts the run members before it.
    """
    radius = _partition_admitted(A, N)
    elems = A.elements
    width = max(N, int(elems[-1]) if len(elems) else 0) + 1
    n = len(elems)
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


def _partition_admitted(A: IntegerSet, N: int) -> int:
    """isqrt(N), the last modulus of `divisor_sum_partition`, once the scan is
    admitted: it is refused with a working set over the cap, or with more
    than PARTITION_MODULI_GUARD moduli.  A caller that runs other work before
    the scan checks here first, so that the refusal comes before that work."""
    radius = math.isqrt(N)
    n = len(A)
    # index, then per modulus the key, the class base, the window queries and
    # their search result (the run keys, run starts and change mask reuse
    # their space); and each of the radius rows kept, 156-181 bytes measured
    # at 2,000-10,000 rows, with their counts as Python ints
    check_allocation(8 * 5 * n + 192 * radius, f"partition scan of {n} elements, {radius} rows")
    if radius > PARTITION_MODULI_GUARD:
        raise ResourceLimitError(
            f"partition scan over {radius} moduli exceeds guard {PARTITION_MODULI_GUARD}"
        )
    return radius


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


class DivisorGrowthReport(NamedTuple):
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
    primes = sieve_primes(limit).tolist()
    return DivisorGrowthReport(
        cap=N,
        card=card,
        total=total,
        scale=scale,
        ratio=total / scale if scale > 0 else 0.0,
        hypothesis_ok=_under_ceiling(
            (((p, 1), int(np.count_nonzero(occupancy(A, p)))) for p in primes), eps
        ),
        hypothesis_checked_to=limit,
    )
