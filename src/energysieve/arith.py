"""Primes, factorization, and the sieve occupancy ceiling.

The central object is the multiplicative function used as a per-modulus
occupancy ceiling: on a prime power it takes the value p^(k-1) * (p/2 + eps(p)),
where eps is a nonnegative, uniformly bounded weight per prime.  Everything
here is exact: the ceiling is evaluated in rational arithmetic whenever eps is
rational, and floats appear only in the partial-sum reports.

`_prime_segments` is the one source of primes: `sieve_primes` concatenates its
segments, and `factorize` (and through it `delta` and `is_squarefree`)
trial-divides by them one segment at a time and keeps only the factorization,
so no caller handles a prime table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ResourceLimitError
from .limits import SIEVE_LIMIT_CAP, check_allocation, exact_fraction

__all__ = [
    "EpsilonSpec",
    "EPS_ZERO",
    "EPS_HALF",
    "EPS_ONE",
    "SeriesTable",
    "sieve_primes",
    "factorize",
    "delta",
    "delta_prime_power",
    "is_squarefree",
    "m_partial_sum",
    "t_partial_sum",
    "singular_series",
    "series_table",
]


# ---------------------------------------------------------------------------
# Prime generation
# ---------------------------------------------------------------------------

_SEGMENT = 1 << 20  # odd values sieved at a time


def _prime_segments(limit: int):
    """The primes in [2, limit], ascending, as int64 arrays: first the base
    primes up to sqrt(limit), then the primes of each segment of _SEGMENT odd
    values past it, each sieved only when asked for.  The caller checks limit
    and counts the memory."""
    # the base sieve reaches 2 whenever limit does, so that the segments hold odd values only
    root = max(math.isqrt(limit), min(limit, 2))
    base = np.ones(root + 1, dtype=bool)
    base[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if base[p]:
            base[p * p :: p] = False
    base_primes = np.flatnonzero(base)
    odd_primes = base_primes[1:].tolist()
    yield base_primes
    lo = (root + 1) | 1
    while lo <= limit:
        # entry i of the segment stands for the odd value lo + 2i
        size = min(_SEGMENT, (limit - lo) // 2 + 1)
        hi = lo + 2 * size
        seg = np.ones(size, dtype=bool)
        for p in odd_primes:
            if p * p >= hi:
                break
            start = max(p * p, -(-lo // p) * p)
            start += p * (start % 2 == 0)  # the first odd multiple
            seg[(start - lo) // 2 :: p] = False
        found = np.flatnonzero(seg)
        del seg  # before the next segment's flags are made
        found *= 2
        found += lo
        yield found
        lo = hi


def _sieve_bytes(limit: int, per_prime: int, count_to: int) -> int:
    """Bytes of the base sieve's flags, one segment's flags and per_prime bytes
    per prime up to count_to, for the primes up to limit, which is refused
    above SIEVE_LIMIT_CAP; pi(x) < 1.26 x / ln x (Rosser and Schoenfeld 1962)."""
    if limit > SIEVE_LIMIT_CAP:
        raise ResourceLimitError(f"sieve limit {limit} exceeds cap {SIEVE_LIMIT_CAP}")
    flags = max(math.isqrt(limit), min(limit, 2)) + 1 + min(_SEGMENT, limit // 2)
    return flags + per_prime * (int(1.26 * count_to / math.log(max(count_to, 2))) + 1)


def sieve_primes(limit: int) -> np.ndarray:
    """The primes in [2, limit], ascending, as a read-only int64 array: a
    segmented sieve of Eratosthenes over the odd numbers past sqrt(limit).
    Iterate it through `.tolist()`, so that exact arithmetic gets Python ints."""
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    # 16 bytes per prime: the chunks (each made in place) and their
    # concatenation are both alive at the end
    check_allocation(_sieve_bytes(limit, 16, limit), f"primes up to {limit}")
    primes = np.concatenate(list(_prime_segments(limit)))
    primes.setflags(write=False)
    return primes


# ---------------------------------------------------------------------------
# Factoring
# ---------------------------------------------------------------------------

def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """n as its prime powers (p, k), p ascending and k >= 1; () for n = 1."""
    if n < 1:
        raise ValueError("n must be positive")
    return _factors(n)


@lru_cache(maxsize=65536)
def _factors(n: int) -> tuple[tuple[int, int], ...]:
    """Trial division by the primes up to sqrt(n), a sieve segment at a time in
    int64 (sqrt(n) <= SIEVE_LIMIT_CAP = 2^31, so n < 2^63), until a segment ends
    at a p with p^2 >= what is left of n.  A prime that divides what is left at
    a segment's start still divides it after the smaller primes are divided out."""
    limit = math.isqrt(n)
    # 17 bytes per prime up to the end of the first segment, which holds the
    # most: a segment's int64 primes, their remainders and the mask of hits,
    # or while the next segment is sieved, its primes and the next ones
    last = min(limit, math.isqrt(limit) + 2 + 2 * _SEGMENT)
    check_allocation(_sieve_bytes(limit, 17, last), f"trial division of {n}")
    factors: list[tuple[int, int]] = []
    rest = n
    for primes in _prime_segments(limit):
        for p in primes[rest % primes == 0].tolist():
            k = 0
            while rest % p == 0:
                rest //= p
                k += 1
            factors.append((p, k))
        if primes.size and int(primes[-1]) ** 2 >= rest:
            break
    if rest > 1:
        # rest has no prime factor <= sqrt(rest), so it is prime
        factors.append((rest, 1))
    return tuple(factors)


# ---------------------------------------------------------------------------
# The epsilon weights and the occupancy ceiling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EpsilonSpec:
    """Nonnegative weight eps(p) per prime: a default plus optional overrides."""

    default: Fraction
    overrides: tuple[tuple[int, Fraction], ...] = ()

    def __post_init__(self):
        if self.default < 0:
            raise ValueError("eps default must be >= 0")
        for p, v in self.overrides:
            if p < 2:
                raise ValueError(f"override key {p} is not a prime candidate")
            if v < 0:
                raise ValueError(f"eps({p}) must be >= 0")

    @property
    def bound(self) -> Fraction:
        """sup over primes of eps(p)."""
        vals = [self.default, *(v for _, v in self.overrides)]
        return max(vals)

    def at(self, p: int) -> Fraction:
        for q, v in self.overrides:
            if q == p:
                return v
        return self.default

    @classmethod
    def constant(cls, value) -> "EpsilonSpec":
        return cls(default=Fraction(value))

    @classmethod
    def from_file(cls, path) -> "EpsilonSpec":
        """Key-value text config: lines `p=value` plus `default=value`.

        Values are rationals `a/b` or decimals; blank lines and `#` comments
        are skipped.  A key given twice (`3` and `03` are one key) is an error.
        """
        entries: dict = {}
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
                key, _, val = line.partition("=")
                key = key.strip()
                try:
                    value = exact_fraction(val.strip())
                except (ValueError, ZeroDivisionError) as exc:
                    raise ValueError(f"{path}:{lineno}: bad value {val.strip()!r}") from exc
                if key != "default" and not key.isdigit():
                    raise ValueError(f"{path}:{lineno}: bad key {key!r}")
                name = key if key == "default" else int(key)
                if name in entries:
                    raise ValueError(f"{path}:{lineno}: repeated key {key!r}")
                entries[name] = value
        if not entries:
            raise ValueError(f"{path}: empty epsilon config")
        default = entries.pop("default", Fraction(0))
        return cls(default=default, overrides=tuple(sorted(entries.items())))


EPS_ZERO = EpsilonSpec.constant(0)
EPS_HALF = EpsilonSpec.constant(Fraction(1, 2))
EPS_ONE = EpsilonSpec.constant(1)


def delta_prime_power(p: int, k: int, eps: EpsilonSpec) -> Fraction:
    """Ceiling value on p^k: p^(k-1) * (p/2 + eps(p)), normalised once."""
    e = eps.at(p)
    return Fraction(p ** (k - 1) * (p * e.denominator + 2 * e.numerator), 2 * e.denominator)


def delta(v: int, eps: EpsilonSpec) -> Fraction:
    """Multiplicative extension of the prime-power ceiling; delta(1) = 1."""
    if v < 1:
        raise ValueError("v must be positive")
    out = Fraction(1)
    for p, k in _factors(v):
        out *= delta_prime_power(p, k, eps)
    return out


def is_squarefree(n: int) -> bool:
    return all(k == 1 for _, k in factorize(n))


# ---------------------------------------------------------------------------
# Partial sums and the truncated singular series
# ---------------------------------------------------------------------------

# values of n sieved and summed at a time by _partial_sums
_SERIES_SEGMENT = 1 << 15
# Bytes per value of a segment live at its peak: delta(n) as float64 and the
# squarefree mask with, at the end of the sieve, the float64 product of the
# sieved prime powers and the float64 cofactor, and in the T terms the int64 n^2
# and the float64 n^2/delta(n)
_SERIES_BYTES = 8 + 1 + 8 + 8
# Bytes per entry of a segment's ragged multiples of the large primes: the
# int64 positions and one float64 column of prime powers or of factors
_RAGGED_BYTES = 8 + 8
# Bytes held per prime up to sqrt(x) through the pass: a small prime's int64
# entry in the sieve's output, its Python int and the small float64 array of
# its factors (an ndarray header near 112 bytes, 8 per factor); a large prime's
# int64 entry, its float64 factor and its entries in the dozen 8-byte arrays
# made over the large primes in each segment
_SMALL_PRIME_BYTES = 256
_LARGE_PRIME_BYTES = 128
# terms split and binned at a time by _ExactSum
_PREFIX_BLOCK = 1 << 12
# Bytes per term of one block's scratch: the frexp mantissa and exponent, the
# exponents as intp bin numbers, the class offsets, the high half and one
# product temporary
_BLOCK_TERM_BYTES = 8 + 4 + 8 + 8 + 8 + 8
# terms binned between two folds of the bins into one integer: each bin then
# sums fewer than 2^26 halves of a mantissa below 2^27, below 2^53
_FOLD_TERMS = 1 << 26
# frexp exponents of finite float64 run from -1073 (the least subnormal) to 1024
_MIN_EXPONENT = -1073
_EXPONENT_BINS = 1024 - _MIN_EXPONENT + 1
_MAX_SQUARE_ROOT = math.isqrt(np.iinfo(np.int64).max)


class _ExactSum:
    """Running sums of float64 terms in disjoint classes, read as the float
    nearest the exact sum of the terms of one class or of all of them.

    Each finite float64 term is M * 2^(e - 53) with M = frexp mantissa * 2^53 an
    integer, |M| < 2^53.  M splits into a high half below 2^27 in magnitude and a
    low half in [0, 2^26); each half is summed per class and exponent by one
    float64 bincount over all the classes, which is exact while every bin stays
    below 2^53.  On each read and every _FOLD_TERMS terms the bins are folded
    into one Python integer per class, the exact sum in units of
    2^(_MIN_EXPONENT - 53), and cleared.  One int true division of a sum of
    these rounds it correctly, as math.fsum rounds, so the values are identical,
    whatever the order the terms come in.
    """

    def __init__(self, classes: int = 1):
        self.totals = [0] * classes
        self.bins = np.zeros((2, classes * _EXPONENT_BINS))
        self.binned = 0

    def add(self, terms: np.ndarray, labels: np.ndarray | None = None) -> None:
        """Add the terms, each to the class `labels` gives it (class 0 without)."""
        start = 0
        while start < len(terms):
            stop = min(len(terms), start + _PREFIX_BLOCK, start + _FOLD_TERMS - self.binned)
            mantissa, exponent = np.frexp(terms[start:stop])
            bins = exponent.astype(np.intp)
            bins -= _MIN_EXPONENT
            if labels is not None:
                bins += labels[start:stop] * _EXPONENT_BINS
            high = mantissa * 2.0**27
            np.floor(high, out=high)
            mantissa *= 2.0**53
            mantissa -= high * 2.0**26
            size = self.bins.shape[1]
            self.bins[0] += np.bincount(bins, weights=high, minlength=size)
            self.bins[1] += np.bincount(bins, weights=mantissa, minlength=size)
            self.binned += stop - start
            start = stop
            if self.binned == _FOLD_TERMS:
                self._fold()

    def _fold(self) -> None:
        for b in np.flatnonzero(self.bins.any(axis=0)).tolist():
            c, e = divmod(b, _EXPONENT_BINS)
            self.totals[c] += (int(self.bins[0, b]) << (e + 26)) + (int(self.bins[1, b]) << e)
        self.bins[:] = 0
        self.binned = 0

    def value(self, label: int | None = None) -> float:
        """The float nearest the exact sum of the terms of class `label`, or of all."""
        self._fold()
        total = sum(self.totals) if label is None else self.totals[label]
        return total / (1 << (53 - _MIN_EXPONENT))


def _delta_segment(
    lo: int,
    hi: int,
    small: list[tuple[int, np.ndarray]],
    large: tuple[np.ndarray, np.ndarray],
    default: float,
    beyond: dict[int, float],
) -> tuple[np.ndarray, np.ndarray]:
    """delta(n) as float64 and the squarefree mask for n in [lo, hi), lo >= 1.

    A sieve over the primes p <= sqrt(x), in ascending order.  Each small prime
    comes with its factors[k] = p^(k-1) * (p/2 + eps(p)): the entries with
    p^k || n are multiplied by factors[k], stride by stride.  The large primes,
    those with p^2 above the segment length, come as one int64 array and one of
    p/2 + eps(p); each has at most one multiple of p^2 here, so all their
    multiples are taken at once as one ragged array of positions, prime after
    prime, and applied by one `np.multiply.at`, which takes repeated positions
    in array order.  What is left of n is 1 or a single prime P > sqrt(x),
    applied last with the factor P/2 + eps(P); `beyond` holds the overridden
    P/2 + eps(P).  Each entry starts at 1.0 and takes its prime-power factors in
    ascending prime order, which is the float product of the factorization,
    left to right.  Since lo >= 1, the first multiple of p^k at or after lo is
    at least p^k.
    """
    d = np.ones(hi - lo)
    squarefree = np.ones(hi - lo, dtype=bool)
    # the product of the p^k || n over the primes p <= sqrt(x): it divides
    # n < 2^53, so it is exact in float64
    sieved = np.ones(hi - lo)
    for p, table in small:
        first = -(-lo // p) * p
        if first >= hi:
            continue
        sieved[first - lo :: p] *= p
        q = p * p
        start = -(-lo // q) * q
        if start >= hi:  # no multiple of p^2 here: every exponent of p is 1
            d[first - lo :: p] *= table[1]
            continue
        squarefree[start - lo :: q] = False
        # exponent of p in each multiple of p, counted one power of p at a time;
        # a power with no multiple here has no higher power with one
        k = np.ones((hi - 1 - first) // p + 1, dtype=np.int8)
        while start < hi:
            k[(start - first) // p :: q // p] += 1
            sieved[start - lo :: q] *= p
            q *= p
            start = -(-lo // q) * q
        d[first - lo :: p] *= table[k]
    _sieve_large(lo, hi, *large, d, squarefree, sieved)
    # what is left of n, 1 or a prime P > sqrt(x), by one exact division
    factor = np.arange(lo, hi, dtype=np.float64)
    factor /= sieved
    del sieved
    big = factor > 1
    factor /= 2.0
    factor += default
    for q, f in beyond.items():
        start = -(-lo // q) * q
        if start < hi:
            factor[start - lo :: q] = f
    np.multiply(d, factor, out=d, where=big)
    return d, squarefree


def _sieve_large(
    lo: int, hi: int, primes: np.ndarray, f: np.ndarray,
    d: np.ndarray, squarefree: np.ndarray, sieved: np.ndarray,
) -> None:
    """Apply the large primes, each with p^2 > hi - lo and f = p/2 + eps(p), to
    the arrays of `_delta_segment` over [lo, hi), in place."""
    first = -(-lo // primes) * primes
    count = (hi - 1 - first) // primes + 1  # multiples of p in [lo, hi)
    live = count > 0
    if not live.any():
        return
    primes, f, first, count = primes[live], f[live], first[live] - lo, count[live]
    rows = np.cumsum(count)
    rows -= count  # where each prime's multiples start in the ragged array
    # positions by a running sum of steps: p within a row, and from the last
    # multiple of the previous prime to the first of the next across rows
    at = np.repeat(primes, count)
    last = first + (count - 1) * primes
    at[rows[1:]] = first[1:] - last[:-1]
    at[0] = first[0]
    np.cumsum(at, out=at)
    # the one multiple of p^2 here, if any, and the exponent of p in it
    power = primes * primes
    square = -(-lo // power) * power
    hit = np.flatnonzero(square < hi)
    p, power, square = primes[hit], power[hit], square[hit]
    left = square // power
    while (more := np.flatnonzero(left % p == 0)).size:
        left[more] //= p[more]
        power[more] *= p[more]
    index = rows[hit] + (square - lo - first[hit]) // p
    squarefree[square - lo] = False
    powers = np.repeat(primes.astype(np.float64), count)
    powers[index] = power
    np.multiply.at(sieved, at, powers)
    del powers
    factors = np.repeat(f, count)
    # p^(k-1) * (p/2 + eps(p)) at p^k || n, rounded once, as in the small tables
    factors[index] = (power // p) * f[hit]
    np.multiply.at(d, at, factors)


def _partial_sums(xs: Sequence[int], eps: EpsilonSpec) -> tuple[tuple[float, ...], ...]:
    """For each x in xs, strictly increasing: M(x), T(x) over squarefree n, and
    T(x) over all n <= x.

    One pass over n = 1..max(xs) in segments of at most _SERIES_SEGMENT values,
    each x ending one: `_delta_segment` sieves each segment over the primes up to
    sqrt(max(xs)), one `_ExactSum` takes its terms 1/delta(n) over squarefree n
    and one more its terms n^2/delta(n), over all n and, through the squarefree
    mask, over squarefree n.  The working set is one segment's, fixed whatever x
    is.  Each value is the float nearest the exact sum of its terms, as
    math.fsum gives it.
    """
    top = xs[-1]
    if top > _MAX_SQUARE_ROOT:
        raise ResourceLimitError(f"x = {top} is too large: n^2 would overflow int64")
    root = math.isqrt(top)
    segment = min(_SERIES_SEGMENT, top)
    primes = sieve_primes(root)
    # the small primes, p^2 <= segment, are sieved stride by stride; the rest as one vector
    split = int(np.searchsorted(primes, math.isqrt(segment), side="right"))
    large = primes[split:]
    # multiples of the large primes in a segment: at most ceil(segment / p) each
    ragged = int(np.sum((segment - 1) // large + 1))
    m_sum, t_sums = _ExactSum(), _ExactSum(2)
    check_allocation(
        _SERIES_BYTES * segment
        + _RAGGED_BYTES * ragged
        + _SMALL_PRIME_BYTES * split
        + _LARGE_PRIME_BYTES * len(large)
        + m_sum.bins.nbytes + t_sums.bins.nbytes
        + _BLOCK_TERM_BYTES * _PREFIX_BLOCK,
        "delta segment and partial-sum terms",
    )
    small = []
    for p in primes[:split].tolist():
        f = p / 2.0 + float(eps.at(p))
        table, power = [1.0], 1
        while power * p <= top:  # p^(k-1) * (p/2 + eps(p)) for each p^k <= x
            table.append(power * f)
            power *= p
        small.append((p, np.array(table)))
    large_factor = large / 2.0 + np.array([float(eps.at(p)) for p in large.tolist()])
    # the overridden primes q > sqrt(x), the first listed override winning: such
    # a q <= x is prime exactly when no prime up to sqrt(x) divides it
    beyond: dict[int, float] = {}
    for q, v in eps.overrides:
        if root < q <= top and q not in beyond and np.all(q % primes):
            beyond[q] = q / 2.0 + float(v)
    default = float(eps.default)
    values = []
    lo = 1
    for x in xs:
        while lo <= x:
            hi = min(lo + _SERIES_SEGMENT, x + 1)
            d, squarefree = _delta_segment(lo, hi, small, (large, large_factor), default, beyond)
            t = np.arange(lo, hi, dtype=np.int64)
            t *= t
            t = t / d
            t_sums.add(t, squarefree)
            del t
            d = d[squarefree]
            np.divide(1.0, d, out=d)
            m_sum.add(d)
            del d, squarefree  # before the next segment is sieved
            lo = hi
        values.append((m_sum.value(), t_sums.value(1), t_sums.value()))
    return tuple(zip(*values))


def m_partial_sum(x: int, eps: EpsilonSpec = EPS_ZERO) -> float:
    """Sum over squarefree n <= x of 1/delta(n)."""
    if x < 1:
        raise ValueError("x must be positive")
    return _partial_sums((x,), eps)[0][0]


def t_partial_sum(x: int, eps: EpsilonSpec = EPS_ZERO, *, squarefree_only: bool = True) -> float:
    """Sum of n^2/delta(n) for n <= x, restricted to squarefree n by default.

    The unrestricted variant (squarefree_only=False) is exposed as well since
    both versions are of interest when measuring the x^2 log x growth.
    """
    if x < 1:
        raise ValueError("x must be positive")
    return _partial_sums((x,), eps)[1 if squarefree_only else 2][0]


def singular_series(eps: EpsilonSpec = EPS_ZERO, trunc_prime: int = 10**5) -> float:
    """Truncated Euler product: prod over p <= trunc_prime of (1-1/p)^2 (1+1/delta(p))."""
    if trunc_prime < 2:
        raise ValueError("truncation bound must be at least 2")
    out = 1.0
    for p in sieve_primes(trunc_prime).tolist():
        e = eps.at(p)
        num, den = e.numerator, e.denominator
        # delta(p) = p/2 + eps(p) = (p den + 2 num) / (2 den); int true division
        # rounds correctly, as float(delta_prime_power(p, 1, eps)) does
        out *= (1.0 - 1.0 / p) ** 2 * (1.0 + 1.0 / ((p * den + 2 * num) / (2 * den)))
    return out


@dataclass(frozen=True)
class SeriesTable:
    """Partial sums on an increasing grid, plus the truncated Euler product."""

    xs: tuple[int, ...]
    m_values: tuple[float, ...]
    t_values: tuple[float, ...]        # squarefree-restricted
    t_all_values: tuple[float, ...]    # unrestricted variant
    trunc_prime: int
    singular: float

    def __post_init__(self):
        for name in ("m_values", "t_values", "t_all_values"):
            col = getattr(self, name)
            if any(not (v > 0) or not math.isfinite(v) for v in col):
                raise ValueError(f"{name} must be finite and positive")
            if any(a > b for a, b in zip(col, col[1:])):
                raise ValueError(f"{name} must be nondecreasing")


def series_table(
    xs: Sequence[int], eps: EpsilonSpec = EPS_ZERO, trunc_prime: int = 10**5
) -> SeriesTable:
    xs = tuple(int(x) for x in xs)
    if not xs or any(x < 1 for x in xs):
        raise ValueError("need a nonempty grid of positive x values")
    if any(a >= b for a, b in zip(xs, xs[1:])):
        raise ValueError("x-grid must be strictly increasing")
    m_values, t_values, t_all_values = _partial_sums(xs, eps)
    return SeriesTable(
        xs=xs,
        m_values=m_values,
        t_values=t_values,
        t_all_values=t_all_values,
        trunc_prime=trunc_prime,
        singular=singular_series(eps, trunc_prime),
    )
