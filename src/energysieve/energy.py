"""Representation functions and additive energy, computed along independent paths.

Energy E(X,Y) counts quadruples x1 + y1 = x2 + y2.  Three routes are provided:
the sum identity (square the x+y representation counts), the difference
identity (correlate the x-x and y-y counts), and a quadruple-counting brute
force.  The routes share no identity-level logic, so exact agreement between
them is a meaningful check, and all counting is integer-exact: the transform
backend is verified by rounding-distance and falls back to direct counting if
the verification fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolationError, ResourceLimitError
from .limits import check_allocation
from .sets import IntegerSet

__all__ = [
    "RepFunction",
    "EnergyReport",
    "CauchySchwarzReport",
    "rep_sum",
    "rep_diff",
    "energy_sum_path",
    "energy_diff_path",
    "energy_bruteforce",
    "sumset",
    "cauchy_schwarz_check",
]

BRUTE_FORCE_GUARD = 10**9
_CHUNK = 1 << 22


@dataclass(frozen=True, eq=False)
class RepFunction:
    """Counts r(n) over a tight value window: counts[i] = r(offset + i).

    `backend` names the counting that produced them: "direct", "fft", or
    "fft-fallback" (the transform failed verification and direct counting ran).
    """

    offset: int
    counts: np.ndarray
    backend: str = "direct"

    def __post_init__(self):
        self.counts.setflags(write=False)

    def at(self, n: int) -> int:
        i = n - self.offset
        if 0 <= i < len(self.counts):
            return int(self.counts[i])
        return 0

    def total(self) -> int:
        return int(self.counts.sum())

    def max_count(self) -> int:
        return int(self.counts.max()) if len(self.counts) else 0

    def support(self) -> np.ndarray:
        """Values n with r(n) > 0, ascending."""
        return np.flatnonzero(self.counts) + self.offset

    def to_csv(self, path) -> None:
        """Header `n,count`; one row per nonzero count."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("n,count\n")
            for i in np.flatnonzero(self.counts):
                fh.write(f"{self.offset + int(i)},{int(self.counts[i])}\n")


@dataclass(frozen=True)
class EnergyReport:
    value: int
    method: str
    lower_trivial: int
    upper_trivial: int

    def __post_init__(self):
        if not self.lower_trivial <= self.value <= self.upper_trivial:
            raise InvariantViolationError(
                f"energy {self.value} outside trivial bounds "
                f"[{self.lower_trivial}, {self.upper_trivial}]"
            )


@dataclass(frozen=True)
class CauchySchwarzReport:
    lhs: int  # E(X,Y)^2
    rhs: int  # E(X,X) * E(Y,Y)
    holds: bool


def _report(value: int, method: str, X: IntegerSet, Y: IntegerSet) -> EnergyReport:
    nx, ny = len(X), len(Y)
    return EnergyReport(
        value=value,
        method=method,
        lower_trivial=nx * ny,
        upper_trivial=nx * ny * min(nx, ny),
    )


# ---------------------------------------------------------------------------
# Pair-sum counting core (differences are sums against a reflected set)
# ---------------------------------------------------------------------------

def _rows_per_chunk(ny: int) -> int:
    return max(1, _CHUNK // ny)


def _count_direct(xs: np.ndarray, ys: np.ndarray, lo: int, length: int) -> np.ndarray:
    counts = np.zeros(length, dtype=np.int64)
    step = _rows_per_chunk(len(ys))
    for i in range(0, len(xs), step):
        # unnamed, so each chunk of sums is freed before the next is made
        rows = (xs[i : i + step] - lo)[:, None]
        counts += np.bincount((rows + ys[None, :]).ravel(), minlength=length)
    return counts


def _indicator(v: np.ndarray) -> np.ndarray:
    f = np.zeros(int(v[-1] - v[0]) + 1)
    f[v - v[0]] = 1.0
    return f


def _count_fft(
    xs: np.ndarray, ys: np.ndarray, lo: int, length: int, size: int
) -> np.ndarray | None:
    """Integer convolution of the two indicator vectors; None if not verified.

    The rounded output must sit within 0.25 of the floats, be nonnegative, and
    match two exact identities of the pair counts: the total |X||Y| and the
    first moment sum (lo + i) counts[i] = |Y| sum(X) + |X| sum(Y).
    """
    spec = np.fft.rfft(_indicator(xs), size)
    spec *= np.fft.rfft(_indicator(ys), size)
    conv = np.fft.irfft(spec, size)[:length]
    del spec
    rounded = np.rint(conv)
    conv -= rounded
    np.abs(conv, out=conv)
    if conv.max() >= 0.25:
        return None
    del conv
    counts = rounded.astype(np.int64)
    del rounded
    nx, ny = len(xs), len(ys)
    if counts.min() < 0 or counts.sum() != nx * ny:
        return None
    moment = lo * nx * ny + _dot(counts, np.arange(length, dtype=np.int64))
    if moment != ny * _exact_sum(xs) + nx * _exact_sum(ys):
        return None
    return counts


def _exact_sum(v: np.ndarray) -> int:
    """Sum of a sorted integer array, in Python integers if int64 could overflow."""
    if max(abs(int(v[0])), abs(int(v[-1]))) * len(v) < 2**62:
        return int(v.sum())
    return sum(int(x) for x in v)


def _direct_bytes(nx: int, ny: int, length: int) -> int:
    """The table, one bincount result of its length, and one chunk of sums."""
    step = min(_rows_per_chunk(ny), nx)
    return 16 * length + 8 * step * ny + 8 * step


def _fft_bytes(xs: np.ndarray, ys: np.ndarray, size: int) -> int:
    """Two complex spectra, the larger float input and the transform's padded
    copy of it (held by the FFT library, so tracemalloc does not see it): the
    peak is while the second spectrum is made.  Later stages hold at most two
    arrays of `size` floats.
    """
    span = max(int(xs[-1] - xs[0]), int(ys[-1] - ys[0])) + 1
    return 32 * (size // 2 + 1) + 8 * size + 8 * span


def _pair_counts(xs: np.ndarray, ys: np.ndarray, method: str) -> RepFunction:
    """r(n) = #{(x, y) : x + y = n} for two sorted integer arrays.

    `auto` runs the backend with the lower estimated cost; a transform that
    fails verification falls back to direct counting.
    """
    if method not in ("auto", "direct", "fft"):
        raise ValueError(f"unknown counting method {method!r}")
    if len(xs) == 0 or len(ys) == 0:
        return RepFunction(offset=0, counts=np.zeros(0, dtype=np.int64))
    lo = int(xs[0] + ys[0])
    hi = int(xs[-1] + ys[-1])
    length = hi - lo + 1
    size = 1 << (length - 1).bit_length()
    nx, ny = len(xs), len(ys)
    if method == "auto":
        # Estimated costs in nanoseconds, fitted to timings of both backends on
        # squares and random sets (16 shapes, N = 1e5 to 1.2e7, pairs 1e5 to
        # 9e8; 2-CPU x86-64, numpy 2.4): direct pays about 7 ns per pair and
        # 3 ns per window entry for each chunk's full-length bincount, FFT
        # about 4 ns per size * log2(size) (3 at 2^17, 6 at 2^25).
        chunks = -(-nx // _rows_per_chunk(ny))
        direct_cost = 7 * nx * ny + 3 * length * chunks
        fft_cost = 4 * size * (size.bit_length() - 1)
        method = "fft" if fft_cost < direct_cost else "direct"

    counts = None
    backend = "direct"
    if method == "fft":
        check_allocation(_fft_bytes(xs, ys, size), "FFT pair counting")
        counts = _count_fft(xs, ys, lo, length, size)
        backend = "fft" if counts is not None else "fft-fallback"
    if counts is None:
        check_allocation(_direct_bytes(nx, ny, length), "direct pair counting")
        counts = _count_direct(xs, ys, lo, length)
    # tight window: endpoints are realized sums, so edges are already nonzero
    return RepFunction(offset=lo, counts=counts, backend=backend)


def rep_sum(X: IntegerSet, Y: IntegerSet, *, method: str = "auto") -> RepFunction:
    """Counts of x + y = n over X x Y."""
    return _pair_counts(X.elements, Y.elements, method)


def rep_diff(X: IntegerSet, Y: IntegerSet, *, method: str = "auto") -> RepFunction:
    """Counts of x - y = n; computed as sums against the reflected second set."""
    return _pair_counts(X.elements, (-Y.elements)[::-1].copy(), method)


# ---------------------------------------------------------------------------
# Exact accumulator (checked against 64-bit overflow)
# ---------------------------------------------------------------------------

def _dot(a: np.ndarray, b: np.ndarray) -> int:
    if len(a) == 0:
        return 0
    if int(a.max()) * int(b.max()) * len(a) < 2**62:
        return int(np.dot(a, b))
    return sum(int(x) * int(y) for x, y in zip(a, b) if x and y)


# ---------------------------------------------------------------------------
# The three energy routes
# ---------------------------------------------------------------------------

def energy_sum_path(X: IntegerSet, Y: IntegerSet, *, method: str = "auto") -> EnergyReport:
    """E(X,Y) as the sum of squared x+y representation counts."""
    counts = rep_sum(X, Y, method=method).counts
    value = _dot(counts, counts)
    return _report(value, "sum-identity", X, Y)


def energy_diff_path(X: IntegerSet, Y: IntegerSet, *, method: str = "auto") -> EnergyReport:
    """E(X,Y) as the correlation of the X-X and Y-Y difference counts."""
    rx = rep_diff(X, X, method=method)
    ry = rep_diff(Y, Y, method=method)
    lo = max(rx.offset, ry.offset)
    hi = min(rx.offset + len(rx.counts), ry.offset + len(ry.counts))
    if lo >= hi:
        value = 0
    else:
        value = _dot(
            rx.counts[lo - rx.offset : hi - rx.offset],
            ry.counts[lo - ry.offset : hi - ry.offset],
        )
    return _report(value, "diff-identity", X, Y)


def energy_bruteforce(X: IntegerSet, Y: IntegerSet) -> EnergyReport:
    """Count quadruples outright: for (x1, x2, y1), test x1 + y1 - x2 in Y."""
    nx, ny = len(X), len(Y)
    if nx * nx * ny > BRUTE_FORCE_GUARD:
        raise ResourceLimitError(
            f"brute force over {nx * nx * ny} triples exceeds guard {BRUTE_FORCE_GUARD}"
        )
    if nx == 0 or ny == 0:
        return _report(0, "brute-force", X, Y)
    ys = Y.elements
    ylo, yhi = int(ys[0]), int(ys[-1])
    ymask = np.zeros(yhi - ylo + 1, dtype=bool)
    ymask[ys - ylo] = True
    value = 0
    rows = max(1, _CHUNK // max(nx, 1))
    for i in range(0, nx, rows):
        diffs = (X.elements[i : i + rows, None] - X.elements[None, :]).ravel()
        for y1 in ys:
            cand = diffs + int(y1) - ylo
            ok = (cand >= 0) & (cand < len(ymask))
            value += int(ymask[cand[ok]].sum())
    return _report(value, "brute-force", X, Y)


def sumset(X: IntegerSet, Y: IntegerSet) -> IntegerSet:
    """X + Y as a set; the support of the x+y representation counts."""
    rep = rep_sum(X, Y)
    return IntegerSet.from_elements(X.cap + Y.cap, rep.support())


def cauchy_schwarz_check(X: IntegerSet, Y: IntegerSet) -> CauchySchwarzReport:
    """E(X,Y)^2 <= E(X,X) E(Y,Y), exactly."""
    exy = energy_sum_path(X, Y).value
    exx = energy_sum_path(X, X).value
    eyy = energy_sum_path(Y, Y).value
    lhs = exy * exy
    rhs = exx * eyy
    return CauchySchwarzReport(lhs=lhs, rhs=rhs, holds=lhs <= rhs)
