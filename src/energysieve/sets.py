"""Integer sets in [1, N]: constructions, residue diagnostics, and file I/O.

A set is one read-only sorted element array, used for iteration, windowed
scans and membership (a binary search).  Nothing is indexed by value, so a
set holds 8 bytes per element whatever its cap.
"""

from __future__ import annotations

import itertools
import math
import random
import warnings
from typing import Iterable

import numpy as np

from .arith import EpsilonSpec, delta_prime_power, factorize, sieve_primes
from .errors import SetFileError
from .limits import check_allocation
from .records import Frozen

__all__ = [
    "IntegerSet",
    "squares_up_to",
    "quadratic_image",
    "sidon_set",
    "is_sidon",
    "residue_avoiding_random",
    "occupancy",
    "mod4_restrict",
    "read_set",
    "write_set",
]


def _distinct(v: np.ndarray) -> np.ndarray:
    """The distinct values of `v`, ascending: `v` is sorted in place and cut
    to the first of each run of equal values.  Used in place of `np.unique`,
    which imports `numpy.ma` on its first call."""
    v.sort()
    first = np.ones(len(v), dtype=bool)
    np.not_equal(v[1:], v[:-1], out=first[1:])
    return v[first]


class IntegerSet(Frozen):
    """Immutable set of integers in [1, cap], held as its sorted elements."""

    __slots__ = ("cap", "elements")
    cap: int
    elements: np.ndarray

    def __init__(self, cap: int, elements: np.ndarray):
        elements.setflags(write=False)
        super().__init__(cap, elements)

    @classmethod
    def from_elements(cls, cap: int, elements: Iterable[int]) -> "IntegerSet":
        if cap < 1:
            raise ValueError("cap must be a positive integer")
        if isinstance(elements, np.ndarray) and elements.ndim == 1 and elements.dtype.kind in "iu":
            # increasing input, as the constructions give, is copied but not sorted
            increasing = bool((elements[1:] > elements[:-1]).all())
            arr = elements.copy() if increasing else _distinct(elements.copy())
        else:
            arr = sorted(set(int(e) for e in elements))
        lo, hi = (int(arr[0]), int(arr[-1])) if len(arr) else (1, cap)
        top = min(cap, 2**63 - 1)  # elements are stored as int64
        if lo < 1 or hi > top:
            raise ValueError(f"element {lo if lo < 1 else hi} outside [1, {top}]")
        return cls(cap=cap, elements=np.asarray(arr, dtype=np.int64))

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, n) -> bool:
        n = int(n)
        xs = self.elements
        # n reaches numpy only inside [first, last], so within int64
        if not len(xs) or not int(xs[0]) <= n <= int(xs[-1]):
            return False
        return bool(xs[np.searchsorted(xs, n)] == n)

    def __iter__(self):
        return (int(e) for e in self.elements)


def _check_occupancy(A: IntegerSet, v: int) -> None:
    """Refuse a modulus whose class counts `occupancy` cannot make."""
    if not 1 <= v < 2**60:  # 8v bytes of counts must be addressable
        raise ValueError(f"modulus must be in [1, 2^60), got {v}")
    check_allocation(8 * (v + len(A)), f"occupancy table modulo {v}")  # residues and counts


def occupancy(A: IntegerSet, v: int) -> np.ndarray:
    """Exact class counts of A modulo v, read-only int64: counts[h] = #{a in A :
    a = h mod v}.  The occupied classes are np.count_nonzero(counts)."""
    _check_occupancy(A, v)
    counts = np.bincount(A.elements % v, minlength=v)
    counts.setflags(write=False)
    return counts


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

def squares_up_to(N: int) -> IntegerSet:
    """The perfect squares in [1, N]; exactly isqrt(N) of them."""
    if N < 1:
        raise ValueError("N must be positive")
    r = math.isqrt(N)
    check_allocation(16 * r, f"squares up to {N}")  # the squares and their copy
    return IntegerSet.from_elements(N, np.arange(1, r + 1, dtype=np.int64) ** 2)


def quadratic_image(a: int, b: int, c: int, N: int) -> IntegerSet:
    """Values of a*x^2 + b*x + c over integer x, intersected with [1, N]."""
    if a == 0:
        raise ValueError("leading coefficient must be nonzero (degenerate quadratic)")
    if N < 1:
        raise ValueError("N must be positive")
    # With p = q for a > 0 and p = -q for a < 0, 1 <= q(x) <= N holds on the
    # integers of {p <= t_hi} minus {p <= t_lo}: two nested intervals
    if a > 0:
        outer, inner = _at_most(a, b, c, N), _at_most(a, b, c, 0)
    else:
        outer, inner = _at_most(-a, -b, -c, -1), _at_most(-a, -b, -c, -N - 1)
    if inner[0] > inner[1]:
        xs = [range(outer[0], outer[1] + 1)]
    else:
        xs = [range(outer[0], inner[0]), range(inner[1] + 1, outer[1] + 1)]
    count = sum(r.stop - r.start for r in xs)  # len() overflows past 2^63
    values = (a * x * x + b * x + c for x in itertools.chain(*xs))
    # per x: the value, sorted in place, a mask of first occurrences and the
    # kept value; then the kept values, the set's copy and its order check
    check_allocation(17 * count, f"quadratic image over {count} values of x")
    try:
        distinct = _distinct(np.fromiter(values, np.int64, count))
    except OverflowError:  # a value in [2^63, N]: a set holds int64 elements
        raise ValueError(f"quadratic image has a value outside [1, {2**63 - 1}]") from None
    return IntegerSet.from_elements(N, distinct)


def _at_most(a: int, b: int, c: int, t: int) -> tuple[int, int]:
    """Bounds of the integers x with a x^2 + b x + c <= t, for a > 0.

    They are ceil and floor of the real roots (-b -/+ sqrt(D)) / 2a,
    D = b^2 - 4a(c - t); floor((m + sqrt(D)) / k) = floor((m + isqrt(D)) / k)
    for integers m and k > 0, so both are exact.  Empty (lo > hi) if D < 0.
    """
    disc = b * b - 4 * a * (c - t)
    if disc < 0:
        return 1, 0
    root = math.isqrt(disc)
    return -((b + root) // (2 * a)), (root - b) // (2 * a)


def sidon_set(p: int, N: int) -> IntegerSet:
    """A Sidon set from quadratic residues: {2p*i + (i^2 mod p) + 1 : 0 <= i < p}.

    All pairwise sums of the result are distinct; elements beyond N are
    dropped (a subset of a Sidon set is Sidon).  Fits entirely when
    2p^2 + p <= N.
    """
    if p < 2 or factorize(p) != ((p, 1),):
        raise ValueError(f"{p} is not prime")
    if N < 1:
        raise ValueError("N must be positive")
    # element i is at least 2p*i + 1, so only i <= (N - 1) // (2p) can fit
    count = min(p, (N - 1) // (2 * p) + 1)
    check_allocation(40 * count, f"Sidon construction over {count} indices")  # i, vals, scratch
    i = np.arange(count, dtype=np.int64)
    vals = 2 * p * i + (i * i) % p + 1
    return IntegerSet.from_elements(N, vals[vals <= N])


def is_sidon(X: IntegerSet) -> bool:
    """True iff every nonzero difference of X occurs at most once.

    Checked as r_{X-X}(d) <= 1 on [1, span of X], block by block through the
    pair-counting core `energy._pair_counts`, which counts its own working set
    against the cap; the first block with a larger count ends the check.
    """
    from .energy import _pair_counts  # `energy` imports this module

    xs = X.elements
    if len(xs) < 2:
        return True
    _, blocks, _ = _pair_counts(xs, None, 1, int(xs[-1] - xs[0]), "auto")
    return all(counts.max() <= 1 for _, counts in blocks)


def residue_avoiding_random(
    N: int,
    eps: EpsilonSpec,
    prime_bound: int,
    seed: int,
    *,
    strategy: str = "qr",
) -> IntegerSet:
    """Random subset of [1, N] confined to few residue classes per small prime.

    For each prime p <= prime_bound an allowed class set of size
    floor(p/2 + eps(p)) is chosen: strategy "qr" takes the smallest classes
    hit by squares (so square-like sets survive), "uniform" samples classes
    at random.  Survivors are the n whose residue is allowed at every prime.
    Deterministic for a fixed seed; may legitimately come out empty.
    """
    if N < 1:
        raise ValueError("N must be positive")
    if strategy not in ("qr", "uniform"):
        raise ValueError(f"unknown strategy {strategy!r}")
    # the keep mask, and per prime p <= P its class mask (p bytes) and the
    # mask tiled over [0, N] (under N + 1 + p bytes)
    check_allocation(2 * (N + 1) + 2 * prime_bound, f"residue filter of [1, {N}]")
    rng = random.Random(seed)
    keep = np.ones(N + 1, dtype=bool)
    keep[0] = False
    for p in sieve_primes(prime_bound).tolist():
        size = max(1, min(math.floor(delta_prime_power(p, 1, eps)), p))
        if strategy == "qr":
            qr = sorted({(x * x) % p for x in range(p)})
            allowed = qr[:size]
        else:
            allowed = sorted(rng.sample(range(p), size))
        ok = np.zeros(p, dtype=bool)
        ok[allowed] = True
        keep &= np.tile(ok, -(-(N + 1) // p))[: N + 1]  # ok[n % p] for n = 0..N
    # with the keep mask, per survivor its int64 index, the set's copy of it
    # and one byte of the copy's order check
    kept = int(np.count_nonzero(keep))
    check_allocation(N + 1 + 17 * kept, f"{kept} survivors of the residue filter of [1, {N}]")
    out = IntegerSet.from_elements(N, np.flatnonzero(keep))
    if len(out) == 0:
        warnings.warn(
            f"residue filtering emptied [1, {N}] (prime_bound={prime_bound})",
            stacklevel=2,
        )
    return out


def mod4_restrict(A: IntegerSet) -> IntegerSet:
    """Subset of A in its most-populated class mod 4 (smallest class on ties).

    Keeps at least a quarter of the elements.
    """
    if len(A) == 0:
        raise ValueError("set must be nonempty")
    best = int(np.argmax(occupancy(A, 4)))  # argmax returns the smallest index on ties
    return IntegerSet.from_elements(A.cap, A.elements[A.elements % 4 == best])


# ---------------------------------------------------------------------------
# File format: `N=<cap>` header, one element per line, `#` comments
# ---------------------------------------------------------------------------

_WRITE_SLICE = 1 << 12  # elements formatted per write
# Bytes per line that parsing a set file holds at its peak, beside the file's
# bytes and the body's copy of them: in the one numpy pass an int64 value,
# which becomes the set's array; in the line parser the Python int, the list
# and set entries that hold it and the set's array (its whole peak measured
# 75-174 bytes a line at 10^3 to 1.6 10^5 lines, as the set's table doubles)
_PLAIN_LINE_BYTES = 8
_LINE_BYTES = 192


def _read_plain(path) -> tuple[int, np.ndarray] | None:
    """(cap, elements) of a file in the form `write_set` writes, parsed in one
    numpy pass; None for any other file.  Either way the memory that its
    parser holds is first counted against the cap.

    That form is an `N=<digits>` header with a positive cap, then one integer
    per newline-terminated line: ASCII digits with no leading zero, strictly
    increasing, at most the cap and below 10^18 (so that none overflows int64).
    """
    with open(path, "rb") as fh:
        header, newline, body = fh.read().partition(b"\n")
    cap = int(header[2:]) if newline and header.startswith(b"N=") and header[2:].isdigit() else 0
    plain = not (cap < 1 or body.translate(None, b"0123456789\n")
                 or body.startswith((b"\n", b"0")) or b"\n\n" in body or b"\n0" in body
                 or (body and not body.endswith(b"\n")))
    lines = body.count(b"\n") + 1
    per_line = _PLAIN_LINE_BYTES if plain else _LINE_BYTES
    check_allocation(2 * (len(header) + len(body)) + per_line * lines, f"set file of {lines} lines")
    if not plain:
        return None
    values = np.fromstring(body, dtype=np.int64, sep="\n")
    if len(values) and (values[-1] > min(cap, 10**18 - 1) or (values[1:] <= values[:-1]).any()):
        return None
    return cap, values


def read_set(path) -> IntegerSet:
    plain = _read_plain(path)
    if plain is not None:
        cap, values = plain
        # the values are checked as `from_elements` would check them, and
        # held by nothing else, so the set takes them without a copy; an
        # empty set's cap is still checked there
        return IntegerSet(cap, values) if len(values) else IntegerSet.from_elements(cap, values)
    with open(path, encoding="utf-8") as fh:
        cap = None
        elements: list[int] = []
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if cap is None:
                if not line.startswith("N="):
                    raise SetFileError("expected `N=<cap>` header before elements", lineno)
                try:
                    cap = int(line[2:])
                except ValueError:
                    raise SetFileError(f"bad cap {line[2:]!r}", lineno) from None
                if cap < 1:
                    raise SetFileError(f"cap must be positive, got {cap}", lineno)
                continue
            try:
                value = int(line)
            except ValueError:
                raise SetFileError(f"not an integer: {line!r}", lineno) from None
            if not 1 <= value <= cap:
                raise SetFileError(f"element {value} outside [1, {cap}]", lineno)
            elements.append(value)
    if cap is None:
        raise SetFileError("missing `N=<cap>` header")
    A = IntegerSet.from_elements(cap, elements)
    if len(elements) > len(A):
        warnings.warn(f"{path}: ignored {len(elements) - len(A)} duplicate element(s)",
                      stacklevel=2)
    return A


def write_set(A: IntegerSet, path) -> None:
    """Writes sorted, deduplicated, newline-terminated; round-trips exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"N={A.cap}\n")
        # in slices, so the text held at once stays small for any set
        for i in range(0, len(A), _WRITE_SLICE):
            fh.write("\n".join(map(str, A.elements[i : i + _WRITE_SLICE].tolist())) + "\n")
