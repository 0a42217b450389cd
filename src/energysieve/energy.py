"""Representation functions and additive energy, computed along independent paths.

Energy E(X,Y) counts quadruples x1 + y1 = x2 + y2.  Three routes are provided:
the sum identity (square the x+y representation counts), the difference
identity (correlate the x-x and y-y counts), and a quadruple-counting brute
force.  The routes share no identity-level logic, so exact agreement between
them is a meaningful check, and all counting is integer-exact: the transform
backend is verified by rounding-distance and falls back to direct counting if
the verification fails.  Every sum of products goes through one accumulator,
`_exact_dot`, which the caller gives a proven bound on each product.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import InvariantViolationError, ResourceLimitError
from .limits import check_allocation
from .records import Checked, Frozen
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
# cells of _GUARD_CELL values a direct pair count may visit: sums up to 2^33
# apart, whatever length its own cells have
DIRECT_BLOCK_GUARD = 1 << 16
_GUARD_CELL = 1 << 17
_CHUNK = 1 << 22
_GROUP = 1 << 15  # pairs per group of a direct count's gather


class RepFunction(Frozen):
    """Counts r(n) over a tight value window: counts[i] = r(offset + i).

    `backend` names the counting that produced them: "direct", "fft", or
    "fft-fallback" (the transform failed verification and direct counting ran).
    """

    __slots__ = ("offset", "counts", "backend")
    offset: int
    counts: np.ndarray
    backend: str

    def __init__(self, offset: int, counts: np.ndarray, backend: str = "direct"):
        counts.setflags(write=False)
        super().__init__(offset, counts, backend)

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


class _EnergyFields(NamedTuple):
    value: int
    method: str
    lower_trivial: int
    upper_trivial: int


class EnergyReport(Checked, _EnergyFields):
    __slots__ = ()

    def _check(self):
        if not self.lower_trivial <= self.value <= self.upper_trivial:
            raise InvariantViolationError(
                f"energy {self.value} outside trivial bounds "
                f"[{self.lower_trivial}, {self.upper_trivial}]"
            )


class CauchySchwarzReport(NamedTuple):
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

def _direct_blocks(xs: np.ndarray, ys: np.ndarray, lo: int, hi: int, left: np.ndarray,
                   cell: int):
    """Counts of x + y over [lo, hi] by the cells [lo + k cell, lo + (k + 1)
    cell), given the first edges left = searchsorted(ys, lo - xs), which it
    moves in place.  A cell's band is its rows x with x + ys[-1] >= start and
    x + ys[0] < end (2x < end when `ys is xs`); row x of the band is
    ys[left:right], at most `cell` y, and its left edges are the right edges
    of the last cell that held it (a row below the band is spent, one above
    it has not started), so one `searchsorted` over the band per cell finds
    them.  A cell yields its counts, from its first sum to its last if it
    holds fewer than cell / 128 pairs (in a fuller cell finding them costs
    more than the zeros they save), and nothing if it holds no sum: the walk
    then jumps to the cell of the next sum, the least of x + ys[right] over
    the band and the first sum above it, so its time follows the sums, not
    the span of [lo, hi].  Every cell is counted in one buffer of a cell's
    length: the part the last cell used is cleared and its rows, gathered by
    `_groups` in groups of at most _GROUP pairs, are added in place by
    `np.add.at`; a yielded block is a view of that buffer, valid until the
    next one is requested.  When `ys is xs` edges clamp to the first y > x,
    so only pairs x < y are gathered, each with weight 2, and the diagonal
    n = 2x is added once."""
    same = ys is xs
    if same:
        left = np.maximum(left, np.arange(1, len(xs) + 1))
    sparse = cell >> 7
    counts = np.zeros(min(cell, hi - lo + 1), dtype=np.int64)
    used = 0
    start = lo
    while start <= hi:
        end = min(start + cell, hi + 1)
        if same:  # 2x in the cell, and the rows 2x < end
            a, top = np.searchsorted(xs, [(start + 1) // 2, (end + 1) // 2])
        else:  # x < end - ys[0], in Python integers: the bound may pass 2^63
            top = np.searchsorted(xs, min(end - int(ys[0]) - 1, int(xs[-1])), side="right")
        band = slice(int(np.searchsorted(xs, start - int(ys[-1]))), int(top))
        x, edges = xs[band], left[band]
        right = np.searchsorted(ys, end - x)
        np.maximum(right, edges, out=right)  # moves an edge only when ys is xs
        lens = right - edges
        ends = np.cumsum(lens)
        first, length = start, end - start
        if (ends[-1] if len(ends) else 0) < sparse:
            full = right > edges
            firsts = x[full] + ys[edges[full]]
            lasts = x[full] + ys[right[full] - 1]
            if same:
                firsts = np.append(firsts, 2 * xs[a:top][:1])
                lasts = np.append(lasts, 2 * xs[a:top][-1:])
            if len(firsts) == 0:
                # these edges are also the left edges of the next sum's cell
                later = right < len(ys)
                nexts = x[later] + ys[right[later]]
                if top < len(xs):  # the least sum above the band
                    nexts = np.append(nexts, xs[top] + (xs[top] if same else ys[0]))
                following = int(nexts.min()) if len(nexts) else hi + 1
                if following > hi:
                    return
                start += (following - start) // cell * cell
                left[band] = right
                continue
            first = int(firsts.min())
            length = int(lasts.max()) - first + 1
        counts[:used] = 0
        for i, j in _groups(ends, _GROUP):
            sums = ys[_gather(edges[i:j], lens[i:j], ends[i:j])]
            sums += np.repeat(x[i:j] - first, lens[i:j])
            np.add.at(counts, sums, 2 if same else 1)
            del sums  # not held while the next group is gathered
        if same:
            counts[2 * xs[a:top] - first] += 1
        used = length
        yield first, counts[:length]
        left[band] = right
        start = end


def _groups(ends: np.ndarray, limit: int):
    """Row ranges (i, j), consecutive, that gather rows i to j - 1 of a ragged
    array whose rows end at `ends` (the running sum of the row lengths): each
    holds at most `limit` values, or one longer row and the empty rows before
    it.  Empty rows at the end may be left out."""
    i = done = 0
    total = int(ends[-1]) if len(ends) else 0
    while done < total:
        # the first row that holds a value past `done` is always taken
        first, j = np.searchsorted(ends, [done, done + limit], side="right")
        j = max(int(j), int(first) + 1)
        yield i, j
        i, done = j, int(ends[j - 1])


def _gather(first: np.ndarray, lens: np.ndarray, ends: np.ndarray, step: int = 1) -> np.ndarray:
    """first[k], first[k] + step, ... (lens[k] values), row after row, as one
    int64 array, given each row's running end `ends[k]` (its numbering may
    start anywhere); at least one row.  A step of 1 takes no step arithmetic."""
    starts = ends - lens
    out = np.arange(int(starts[0]), int(ends[-1]), dtype=np.int64)
    if step != 1:
        out *= step
        starts *= step
    out += np.repeat(first - starts, lens)
    return out


def _smooth_size(length: int) -> int:
    """The smallest 2^a 3^b 5^c >= length, a transform length with only the
    radices 2, 3 and 5; never above the next power of two."""
    best = 1 << (length - 1).bit_length()
    fives = 1
    while fives < best:
        odd = fives
        while odd < best:
            # the least power of two times `odd` that reaches `length`
            size = odd << ((length - 1) // odd).bit_length()
            if size < best:
                best = size
            odd *= 3
        fives *= 5
    return best


# A transform counts chunks of at most _MAX_CHUNK values of each indicator,
# so its size, and the FFT library's scratch, do not grow with the span
_MAX_CHUNK = 1 << 14


def _chunking(width: int) -> tuple[int, int]:
    """(B, M) for indicators at most `width` values long: the chunk length
    B = ceil(width / K) of the K = ceil(width / _MAX_CHUNK) chunks that fit
    the span tightly, and the transform size M, the smallest 2^a 3^b 5^c
    that holds the 2B - 1 sums of two chunks."""
    chunks = -(-width // _MAX_CHUNK)
    chunk = -(-width // chunks)
    return chunk, _smooth_size(2 * chunk - 1)


def _chunk_spectra(v: np.ndarray, chunk: int, size: int) -> np.ndarray:
    """One row per chunk of `chunk` values of v's indicator, from v[0] on:
    its rfft at `size` points.  One array, so that nothing is freed in
    pieces that the allocator may keep."""
    rows = int(v[-1] - v[0]) // chunk + 1
    starts = int(v[0]) + chunk * np.arange(rows + 1)
    ends = np.searchsorted(v, starts)
    spectra = np.empty((rows, size // 2 + 1), dtype=complex)
    f = np.empty(chunk)
    for i in range(rows):
        f[:] = 0
        f[v[ends[i] : ends[i + 1]] - starts[i]] = 1.0
        spectra[i] = np.fft.rfft(f, size)
    return spectra


def _store_rounded(counts: np.ndarray, at: int, values: np.ndarray, rounded: np.ndarray
                   ) -> bool:
    """Stores the floats `values`, rounded, in the int32 counts[at:], the
    part that falls inside counts, and overwrites them and the scratch
    `rounded`; False if one sits 0.25 or more from its rounding (or is NaN)
    or rounds outside int32."""
    lo, hi = max(at, 0), min(at + len(values), len(counts))
    if lo >= hi:
        return True
    values = values[lo - at : hi - at]
    rounded = np.rint(values, out=rounded[: hi - lo])
    values -= rounded
    np.abs(values, out=values)
    if not (values.max() < 0.25 and -2**31 < rounded.min() and rounded.max() < 2**31):
        return False
    counts[lo:hi] = rounded
    return True


def _count_fft(xs: np.ndarray, ys: np.ndarray | None, length: int, chunk: int, size: int
               ) -> np.ndarray | None:
    """Integer convolution of the two indicator vectors, from their least sum
    on, as `length` int64 counts; None if not verified.  Each indicator is
    cut into chunks of `chunk` values from its least element, each chunk
    transformed at `size` >= 2 chunk - 1 points (`_chunking`), and the
    spectra of a set held as one array.  Chunks i of X and j of Y meet in
    output block i + j, the 2 chunk - 1 sums from (i + j) chunk on: block s
    inverts the sum of X_i Y_j over i + j = s, and its last chunk - 1 values
    overlap the next block's first.  When `ys is xs` one set of spectra is
    made and each pair of chunks i < j taken once, doubled.  When `ys` is
    None (the differences of xs) block s inverts the sum of X_{j+s}
    conj(X_j): the lags s chunk .. (s + 1) chunk - 1 at the front of the
    transform and (s - 1) chunk + 1 .. s chunk - 1 wrapped to its end, for
    the lags d = 0 .. length - 1, and r(-d) = r(d).

    A block's overlap with the next is carried over as floats and added to
    that block's, so each count is rounded once: it must sit within 0.25 of
    its float (`_store_rounded`), and is stored in one int32 array, which is
    widened to int64 once the spectra are freed.  The counts must then be
    nonnegative and match exact identities of the pair counts
    (`_sums_verified`, `_lags_verified`).
    """
    if length > _MOMENT_LENGTH:
        return None
    lags = ys is None
    fx = _chunk_spectra(xs, chunk, size)
    fy = fx if lags or ys is xs else _chunk_spectra(ys, chunk, size)
    counts = np.zeros(length, dtype=np.int32)
    kx, ky = len(fx), len(fy)
    spec = np.empty(size // 2 + 1, dtype=complex)
    term = np.empty_like(spec)
    carry = np.zeros(chunk)  # the floats of the last block's values that the next one meets
    rounded = np.empty(chunk)
    for s in range(kx if lags else kx + ky - 1):
        if lags:  # X_{j+s} conj(X_j)
            pairs = [(j + s, j) for j in range(kx - s)]
        elif fy is fx:  # X_i X_{s-i} with i < s - i, doubled, then the square
            pairs = [(i, s - i) for i in range(max(0, s - kx + 1), (s + 1) // 2)]
        else:
            pairs = [(i, s - i) for i in range(max(0, s - ky + 1), min(s, kx - 1) + 1)]
        spec[:] = 0
        for i, j in pairs:
            if lags:
                np.conjugate(fy[j], out=term)
                term *= fx[i]
            else:
                np.multiply(fx[i], fy[j], out=term)
            spec += term
        if fy is fx and not lags:
            spec *= 2
            if s % 2 == 0:
                np.multiply(fx[s // 2], fx[s // 2], out=term)
                spec += term
        conv = np.fft.irfft(spec, size)
        if lags:  # lags from (s - 1) chunk + 1, wrapped to the end, and from s chunk
            carry[1:] += conv[size - chunk + 1 :]
            placed = _store_rounded(counts, (s - 1) * chunk, carry, rounded)
            carry[:] = conv[:chunk]
        else:  # sums from s chunk
            conv[: chunk - 1] += carry[: chunk - 1]
            placed = _store_rounded(counts, s * chunk, conv[:chunk], rounded)
            carry[: chunk - 1] = conv[chunk : 2 * chunk - 1]
        del conv
        if not placed:
            return None
    if lags:
        placed = _store_rounded(counts, (kx - 1) * chunk, carry, rounded)
    else:
        placed = _store_rounded(counts, (kx + ky - 1) * chunk, carry[: chunk - 1], rounded)
    if not placed:
        return None
    del fx, fy, spec, term, carry, rounded
    counts = counts.astype(np.int64)
    if counts.min() < 0:
        return None
    verified = _lags_verified(counts, xs) if lags else _sums_verified(counts, xs, ys)
    return counts if verified else None


# the moments of a transform's counts are summed in int64 (`_moments`): every
# count and index is below 2^31
_MOMENT_LENGTH = 1 << 31
_RUN = 1 << 10  # indices per run of `_moments`


def _power_sums(u: np.ndarray) -> tuple[int, int]:
    """sum(u) and sum(u^2) of sorted nonnegative int64 values u."""
    top = int(u[-1])
    return _exact_dot([(u, np.ones_like(u))], top), _exact_dot([(u, u)], top * top)


def _moments(counts: np.ndarray, top: int) -> tuple[int, int]:
    """sum(i c[i]) and sum(i^2 c[i]) over the indices i, given 0 <= c[i] <=
    top < 2^31 and fewer than 2^31 indices.  Each run of _RUN indices from k
    (i = k + j) sums c, j c and j^2 c in int64, each below 2^31 _RUN^3 =
    2^61; `_exact_dot` weighs the run sums by k and k^2.  The whole runs are
    a view of `counts` (contiguous int64); only the last, partial run is a
    new array."""
    whole = len(counts) - len(counts) % _RUN
    runs, last = counts[:whole].reshape(-1, _RUN), counts[whole:]
    j = np.arange(_RUN, dtype=np.int64)
    jj = j * j
    c0 = np.append(runs.sum(axis=1), last.sum())
    c1 = np.append(runs @ j, last @ j[: len(last)])
    c2 = np.append(runs @ jj, last @ jj[: len(last)])
    k = np.arange(len(c0), dtype=np.int64) * _RUN
    ones = np.ones_like(k)
    end = len(counts) + _RUN  # k + j < end
    first = _exact_dot([(c0, k), (c1, ones)], top * _RUN * end)
    second = _exact_dot([(c0, k * k), (c1, 2 * k), (c2, ones)], top * _RUN * end * end)
    return first, second


def _sums_verified(counts: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> bool:
    """Whether counts[i] = r(first + i), first = xs[0] + ys[0], can be the
    counts of x + y: with u = x - xs[0], v = y - ys[0] and i = u + v, the
    total is |X||Y|, sum(i r) = |Y| sum(u) + |X| sum(v) and sum(i^2 r) =
    |Y| sum(u^2) + 2 sum(u) sum(v) + |X| sum(v^2)."""
    nx, ny = len(xs), len(ys)
    if counts.sum() != nx * ny:  # a count is at most min(nx, ny), the total nx ny
        return False
    (u1, u2), (v1, v2) = _power_sums(xs - xs[0]), _power_sums(ys - ys[0])
    first, second = _moments(counts, min(nx, ny))
    return first == ny * u1 + nx * v1 and second == ny * u2 + 2 * u1 * v1 + nx * v2


def _lags_verified(counts: np.ndarray, xs: np.ndarray) -> bool:
    """Whether counts[d] = r(d), d = 0 .. span, can be the counts of x - x' for
    the n sorted elements x_0 < ... < x_{n-1} of X: r(0) = n, n + 2
    sum_{d>=1} r(d) = n^2 and, over the pairs x' < x, sum d r(d) = sum_k
    (2k - n + 1) x_k and sum d^2 r(d) = n sum(x^2) - (sum x)^2, both with
    x - x_0 in place of x."""
    n = len(xs)
    if counts[0] != n or n + 2 * int(counts[1:].sum()) != n * n:  # r(d) <= n
        return False
    u = xs - xs[0]
    rank = 2 * np.arange(n, dtype=np.int64) - (n - 1)  # |2k - n + 1| < n
    spread = _exact_dot([(rank, u)], n * int(u[-1]))
    del rank
    u1, u2 = _power_sums(u)
    first, second = _moments(counts, n)
    return first == spread and second == n * u2 - u1 * u1


def _fft_bytes(length: int, chunk: int, size: int, rows: int) -> int:
    """The larger of two peaks of `_count_fft` for `length` counts.  While
    the chunks are transformed: the `rows` chunk spectra, 16 bytes a point
    over size // 2 + 1 points (16 bytes per value of each indicator's span),
    the int32 counts and one chunk's transform, 48 bytes a point at most:
    a block's spectrum and one product term (8 each), the carried and the
    rounded floats of a chunk (4 each), the float output (8) and the FFT
    library's scratch, two arrays of `size` floats (16; tracemalloc does not
    see it).  While the counts are widened to int64: both copies of them,
    12 bytes a count.  So one set of spectra costs about 24 bytes per value
    of the span (20 for the lags), two about 40: a dense set in [1, 2 10^5]
    counts 6.3 MB against itself, 5.5 MB for its lags and 9.6 MB with the
    squares.
    """
    spectra = 16 * rows * (size // 2 + 1)
    return max(spectra + 4 * length + 48 * size, 12 * length)


# auto's estimates: direct counting's ns per pair gathered and per window
# value, the transform's per size * log2(size) of each chunk transform and
# per point of each product of two chunk spectra (fitted in `_pair_counts`)
_PAIR_NS, _VALUE_NS = 7, 1.5
_TRANSFORM_NS, _PRODUCT_NS = 1.5, 2.5
# Direct counting's cell lengths: powers of two from _MIN_CELL, whose count
# buffer (8 bytes a value) stays well inside a 2 MiB L2 cache, to _MAX_CELL,
# past which E(S, S) at N = 1e9 ran slower (14.2-15.3 s at 2^19, 16.6-17.8 s
# at 2^20, 17.5-19.9 s at 2^17).  The walk over the cells costs about _CELL_NS per
# cell and _ROW_NS per row of X in a cell: the least-squares fit of the
# relative error to in-process timings (2-CPU x86-64, numpy 2.4) of the
# benchmark's direct streams and those of the lone rows at 1e8, at cells of
# 2^15 to 2^21, with the gather and add skipped.  A cell is taken when that
# overhead is at most _CELL_SHARE of the count's estimated cost: then the
# streams of the squares and the Sidon sets at 1e7 and 1.2e7 keep 2^17, where
# 2^16 cost them 2% to 25%, a lookup over the 1,414 squares to 2e6 takes 2^16
# (as fast, and 0.3 MiB less), and E(S, S) takes 2^18 at 1e8 and 2^19 at 1e9.
_MIN_CELL, _MAX_CELL = 1 << 16, 1 << 19
_CELL_NS, _ROW_NS = 17_000, 7.4
_CELL_SHARE = 0.11


def _cell_length(rows: int, window: int, pairs: int) -> int:
    """The cell length of a direct count of `pairs` gathered pairs over
    `window` values, with `rows` rows in X: the least power of two from
    _MIN_CELL whose walk overhead, _CELL_NS + _ROW_NS rows per cell visited
    (at most min(cells, pairs)), is at most _CELL_SHARE of the count's cost,
    or whose doubling saves none (the cells are as few as the pairs); at most
    _MAX_CELL."""
    def overhead(cell: int) -> float:
        return min(-(-window // cell), pairs) * (_CELL_NS + _ROW_NS * rows)

    budget = _CELL_SHARE * (_PAIR_NS * pairs + _VALUE_NS * window)
    cell = _MIN_CELL
    while cell < _MAX_CELL and overhead(cell) > budget and overhead(2 * cell) < overhead(cell):
        cell *= 2
    return cell


def _pair_counts(xs: np.ndarray, ys: np.ndarray | None, lo: int, hi: int, method: str,
                 held: int = 0):
    """r(n) = #{(x, y) : x + y = n} for lo <= n <= hi, two sorted integer
    arrays; with `ys` None, r(n) = #{(x, x') : x - x' = n} for lo >= 0, the
    differences of xs (counted as sums against the reflected set, -xs[::-1]).

    Returns (backend, blocks, resident): `blocks` yields (offset, counts) in
    order (none if lo > hi); `resident` is the bytes they hold meanwhile.  A
    verified transform is one block, its view of [lo, hi].  Direct counting
    yields one block for each cell [lo + k cell, lo + (k + 1) cell) of
    [lo, hi] that holds a sum (a sparse cell cut to its first and last sum),
    the cell length `_cell_length`'s for these rows, window and pairs,
    counted as it is taken, over the cell's band of rows, into one reused
    buffer: a block is valid only until the next one is requested, so a
    caller that keeps one copies it.  [lo, hi] lies within the range of
    sums.  `held`, the bytes the caller keeps alive, is
    counted with the backend's working set against the cap.  `auto` runs the
    backend with the lower estimated cost; a transform that fails
    verification falls back to direct counting.  Direct counting visits at
    most min(cells, pairs) cells and refuses more than DIRECT_BLOCK_GUARD
    cells of _GUARD_CELL values, whatever its own cell length.
    The transform counts every sum (every lag d >= 0 of the differences) in
    chunks of B values of each indicator, B the least length that cuts the
    longer span into ceil(span / _MAX_CHUNK) chunks, each transformed at the
    smallest 2^a 3^b 5^c that holds 2B - 1 sums (`_count_fft`); its working
    set is the chunk spectra and the int32 counts (`_fft_bytes`), not a
    transform of the whole span.  A set paired with itself (equal arrays) is
    counted once: each unordered pair directly, each pair of chunks once by
    the transform, from one set of spectra; the differences of a set take
    one set of spectra too, and the transform keeps the lags d >= 0.
    """
    if method not in ("auto", "direct", "fft"):
        raise ValueError(f"unknown counting method {method!r}")
    if lo > hi:
        return "direct", iter(()), 0
    lags = ys is None
    if lags:
        ys = -xs[::-1]
    elif _same(xs, ys):
        ys = xs
    first = int(xs[0] + ys[0])
    length = int(xs[-1] + ys[-1]) - first + 1
    wx, wy = int(xs[-1] - xs[0]) + 1, int(ys[-1] - ys[0]) + 1
    chunk, size = _chunking(max(wx, wy))
    kx, ky = -(-wx // chunk), -(-wy // chunk)  # chunks of X and of Y
    if lags or ys is xs:  # one set of spectra; each pair of chunks once
        rows, inverses, products = kx, kx if lags else 2 * kx - 1, kx * (kx + 1) // 2
    else:
        rows, inverses, products = kx + ky, kx + ky - 1, kx * ky
    left = np.searchsorted(ys, lo - xs)
    pairs = int((np.searchsorted(ys, hi + 1 - xs) - left).sum())
    gathered = pairs // 2 if ys is xs else pairs  # a set with itself: x < y only
    if method == "auto":
        # Estimated costs in nanoseconds.  Direct counting pays 7 ns per pair
        # gathered and 1.5 ns per window value, the least-squares fit of the
        # relative error to best-of-3 timings in one process (2-CPU x86-64,
        # numpy 2.4) on 27 shapes: the squares to 4e6 with themselves, and
        # random sets of density 0.001 to 0.5 in [1, 6e4] to [1, 2e6] with
        # themselves, with the squares and as differences (pairs 8e4 to
        # 1.5e9).  The chunked transform, verification included, pays
        # _TRANSFORM_NS per size * log2(size) for each forward and inverse
        # transform of a chunk and _PRODUCT_NS per point of each product of
        # two chunk spectra: on 50 such shapes (the squares to 1e6 and 4e6
        # and random sets in [1, 6e4] to [1, 2e6]) the least-squares fit is
        # 0.9 and 2.4, which misses the per-call cost of small transforms and
        # picks the slower backend on 2 of the 37 shapes timed both ways; 1.5
        # and 2.5 pick the faster one on all 37, and keep E(A', S) of the
        # benchmark's dense set direct (15-20 ms, against 30-34 ms by
        # transform).  A set paired with itself gathers half the pairs.
        direct_cost = _PAIR_NS * gathered + _VALUE_NS * (hi - lo + 1)
        fft_cost = ((rows + inverses) * _TRANSFORM_NS * size * math.log2(size)
                    + products * _PRODUCT_NS * (size // 2 + 1))
        method = "fft" if fft_cost < direct_cost else "direct"

    backend = "direct"
    if method == "fft":
        del left  # not held through the transform's peak; a fallback searches again
        # the lags 0 .. span of the differences are the first wx sums
        length = wx if lags else length
        check_allocation(held + _fft_bytes(length, chunk, size, rows), "FFT pair counting")
        counts = _count_fft(xs, None if lags else ys, length, chunk, size)
        if counts is not None:
            if lags:
                first = 0
            return "fft", iter([(lo, counts[lo - first : hi - first + 1])]), counts.nbytes
        backend = "fft-fallback"
        left = np.searchsorted(ys, lo - xs)
    cell = _cell_length(len(xs), hi - lo + 1, gathered)
    visits = min(-(-(hi - lo + 1) // _GUARD_CELL), pairs)  # a cell with a sum holds a pair
    if visits > DIRECT_BLOCK_GUARD:
        raise ResourceLimitError(
            f"direct pair counting over {visits} blocks exceeds guard {DIRECT_BLOCK_GUARD}"
        )
    # the count buffer, which every block is a view of; a group's indices and
    # sums, two arrays at a time; eight arrays over the rows
    nbytes = 8 * min(cell, hi - lo + 1) + 16 * min(_GROUP, pairs) + 64 * len(xs)
    check_allocation(held + nbytes, "direct pair counting")
    return backend, _direct_blocks(xs, ys, lo, hi, left, cell), nbytes


def _same(xs: np.ndarray, ys: np.ndarray) -> bool:
    """Whether two sorted arrays hold the same elements."""
    return xs is ys or np.array_equal(xs, ys)


def _sum_window(xs: np.ndarray, ys: np.ndarray) -> tuple[int, int]:
    """Smallest and largest x + y; an empty window (0, -1) if a set is empty.
    Sums are counted in int64, so a largest sum above 2^63 - 1 is refused."""
    if len(xs) == 0 or len(ys) == 0:
        return 0, -1
    hi = int(xs[-1]) + int(ys[-1])
    if hi > 2**63 - 1:
        raise ValueError(
            f"the sum route counts x + y in int64, and {hi} passes 2^63 - 1; "
            "the difference route (--method diff) does not add two elements"
        )
    return int(xs[0]) + int(ys[0]), hi


def _rep(xs: np.ndarray, ys: np.ndarray, method: str) -> RepFunction:
    lo, hi = _sum_window(xs, ys)
    backend, blocks, _ = _pair_counts(xs, ys, lo, hi, method, held=8 * (hi - lo + 1))
    counts = np.zeros(hi - lo + 1, dtype=np.int64)
    for offset, block in blocks:
        counts[offset - lo : offset - lo + len(block)] = block
    # tight window: endpoints are realized sums, so edges are already nonzero
    return RepFunction(offset=lo, counts=counts, backend=backend)


def rep_sum(X: IntegerSet, Y: IntegerSet, *, method: str = "auto") -> RepFunction:
    """Counts of x + y = n over X x Y."""
    return _rep(X.elements, Y.elements, method)


def rep_diff(X: IntegerSet, Y: IntegerSet, *, method: str = "auto") -> RepFunction:
    """Counts of x - y = n; computed as sums against the reflected second set."""
    return _rep(X.elements, -Y.elements[::-1], method)


# ---------------------------------------------------------------------------
# Exact accumulator
# ---------------------------------------------------------------------------

def _exact_dot(pairs, bound: int) -> int:
    """Exact sum of a . b over aligned int64 arrays (a, b) with |a[i] b[i]| <= bound.

    np.dot runs over slices of at most (2^63 - 1) // bound entries, whose sum
    cannot overflow int64.  If a single product can reach 2^63, the entries
    are multiplied as Python integers instead.
    """
    if bound >= 2**63:
        return sum(int(np.dot(a.astype(object), b.astype(object))) for a, b in pairs)
    step = (2**63 - 1) // max(bound, 1)
    return sum(
        int(np.dot(a[i : i + step], b[i : i + step]))
        for a, b in pairs
        for i in range(0, len(a), step)
    )


# ---------------------------------------------------------------------------
# The three energy routes
# ---------------------------------------------------------------------------

def energy_sum_path(X: IntegerSet, Y: IntegerSet, *, method: str = "auto") -> EnergyReport:
    """E(X,Y) as the sum of squared x+y representation counts, block by block."""
    xs, ys = X.elements, Y.elements
    _, blocks, _ = _pair_counts(xs, ys, *_sum_window(xs, ys), method)
    # a sum count is at most min(|X|, |Y|)
    value = _exact_dot(((c, c) for _, c in blocks), min(len(xs), len(ys)) ** 2)
    return _report(value, "sum-identity", X, Y)


def energy_diff_path(X: IntegerSet, Y: IntegerSet, *, method: str = "auto") -> EnergyReport:
    """E(X,Y) as the correlation of the X-X and Y-Y difference counts, block by
    block; X-X is counted once when Y holds the same elements.

    r(-d) = r(d) and r(0) is the set's size, so only d in [1, m] is counted:
    E = |X||Y| + 2 sum_{d >= 1} r_X(d) r_Y(d).
    """
    xs, ys = X.elements, Y.elements
    value = 0
    if len(xs) and len(ys):
        m = min(int(xs[-1] - xs[0]), int(ys[-1] - ys[0]))
        _, rx, held = _pair_counts(xs, None, 1, m, method)
        if _same(xs, ys):
            pairs = ((a, a) for _, a in rx)
        else:
            _, ry, _ = _pair_counts(ys, None, 1, m, method, held=held)
            pairs = _matched(rx, ry)
        # a difference count of X is at most |X|, of Y at most |Y|
        value = len(xs) * len(ys) + 2 * _exact_dot(pairs, len(xs) * len(ys))
    return _report(value, "diff-identity", X, Y)


def _matched(rx, ry):
    """The counts of two block streams over one window, cut to the values both
    hold; a value outside one stream's blocks has count 0 there.  Blocks may
    differ in length (a transform's one block, direct cells of other
    lengths), so a block of either may meet several of the other; each block
    is used before the next of its stream is requested."""
    ry = iter(ry)
    at, b = next(ry, (None, None))
    for offset, a in rx:
        stop = offset + len(a)
        while at is not None and at < stop:
            first, last = max(offset, at), min(stop, at + len(b))
            if first < last:
                yield a[first - offset : last - offset], b[first - at : last - at]
            if at + len(b) > stop:  # b reaches into the next block of rx
                break
            at, b = next(ry, (None, None))


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
    rows = min(max(1, _CHUNK // nx), nx)
    # per difference: int64 differences (sorted in place), candidates, their
    # places in Y and the elements there, and the match mask; nothing grows
    # with Y's span
    check_allocation(33 * rows * nx, "brute-force energy")
    value = 0
    for i in range(0, nx, rows):
        diffs = (X.elements[i : i + rows, None] - X.elements[None, :]).ravel()
        diffs.sort()  # rising candidates x1 - x2 + y1 search Y faster
        for y1 in ys:
            # x1 - x2 + y1 wraps only above 2^63 - 1, to a negative value,
            # which is in no set
            cand = diffs + y1
            at = np.searchsorted(ys, cand)
            np.minimum(at, ny - 1, out=at)
            value += int(np.count_nonzero(ys[at] == cand))
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
