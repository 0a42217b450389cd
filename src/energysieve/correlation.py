"""Correlation of a set with the perfect squares, measured through energy.

The energy E(A,S) against the squares decomposes exactly into difference-count
sums: since s1 - s2 = n^2 - m^2 = (n-m)(n+m), the pair sums over (m, n) and
over the factor pair (u, v) = (n-m, n+m) count the same thing.  This module
computes E(A,S) three ways and insists on exact agreement, then evaluates the
half-divisor-sum lower bound on the mod-4-restricted set, locates the
quadratic shift realizing the peak representation count, and runs the Sidon
and squares-only contrast experiments.
"""

from __future__ import annotations

import math
import time
from typing import NamedTuple

import numpy as np

from .arith import EPS_HALF, EpsilonSpec, sieve_primes
from .energy import _exact_dot, _pair_counts, _sum_window, energy_sum_path
from .errors import InvariantViolationError
from .records import Checked
from .sets import IntegerSet, is_sidon, mod4_restrict, occupancy, sidon_set, squares_up_to
from .sieve import DifferenceTable, _products, _square_differences, _under_ceiling, divisor_sum_direct

__all__ = [
    "DecompositionReport",
    "LowerBoundReport",
    "QuadraticHitsReport",
    "SidonEnergyReport",
    "ExperimentRow",
    "energy_decomposition",
    "is_diff_of_squares",
    "energy_lower_bound",
    "quadratic_hits",
    "sidon_report",
    "ramanujan_ratio",
    "correlation_row",
    "ramanujan_row",
    "sidon_row",
]


class DecompositionReport(NamedTuple):
    cap: int
    card_a: int
    card_s: int
    energy: int           # route (i): energy module on (A, S)
    via_square_pairs: int # route (ii): |A||S| + 2 sum over m < n of r(n^2 - m^2)
    via_factor_pairs: int # route (iii): |A||S| + 2 sum over parity-matched (u, v) of r(uv)
    ok: bool


def energy_decomposition(A: IntegerSet, N: int) -> DecompositionReport:
    """E(A, S) three ways, with exact agreement enforced.

    Routes (ii) and (iii) run over index sets in explicit bijection
    ((u, v) = (n-m, n+m), so u >= 1, v >= u+2, u = v mod 2, u+v <= 2*isqrt(N));
    route (i) is the independent sum-identity energy.  Routes (ii) and (iii)
    stay separate sums over one stream of r_{A-A} (`DifferenceTable`), at most
    L (1 + ln R) + R values per block of L differences, R = isqrt(N) + 1,
    gathered a group of rows at a time.
    """
    if N < 1:
        raise ValueError("N must be positive")
    S = squares_up_to(N)
    root = math.isqrt(N)
    base = len(A) * len(S)

    e_direct = energy_sum_path(A, S).value
    table = DifferenceTable(A, N)  # counts the rows below before they are made
    u = np.arange(1, root, dtype=np.int64)  # v >= u + 2, u + v <= 2 root force u < root
    off_diag, factor_sum = table.lookup(_square_differences(S.elements), _products(u, u + 2, 2 * root - u, 2))
    e_squares = base + 2 * off_diag
    e_factors = base + 2 * factor_sum

    ok = e_direct == e_squares == e_factors
    report = DecompositionReport(
        cap=N,
        card_a=len(A),
        card_s=len(S),
        energy=e_direct,
        via_square_pairs=e_squares,
        via_factor_pairs=e_factors,
        ok=ok,
    )
    if not ok:
        raise InvariantViolationError(
            f"energy decomposition mismatch at N={N}: "
            f"{e_direct} vs {e_squares} vs {e_factors}"
        )
    return report


def is_diff_of_squares(k: int) -> bool:
    """Whether k = n^2 - m^2 has an integer solution; true iff k != 2 mod 4."""
    if k == 0:
        raise ValueError("k must be nonzero")
    return k % 4 != 2


class LowerBoundReport(NamedTuple):
    cap: int
    card: int              # |A| before restriction
    restricted_card: int   # |A'| in the dominant class mod 4
    energy: int            # exact E(A', S)
    half_divisor_sum: float
    holds: bool
    ratio: float           # half sum / energy


def energy_lower_bound(A: IntegerSet, N: int) -> LowerBoundReport:
    """Half the divisor sum over u < v <= isqrt(N)/2 of the mod-4-restricted
    set, checked against that set's exact energy with the squares."""
    if len(A) == 0:
        return LowerBoundReport(N, 0, 0, 0, 0.0, True, 0.0)
    restricted = mod4_restrict(A)
    energy = energy_sum_path(restricted, squares_up_to(N)).value
    total = divisor_sum_direct(restricted, N, radius=math.isqrt(N) // 2)
    holds = total <= 2 * energy  # exact integer comparison of total/2 <= energy
    return LowerBoundReport(
        cap=N,
        card=len(A),
        restricted_card=len(restricted),
        energy=energy,
        half_divisor_sum=total / 2.0,
        holds=holds,
        ratio=(total / 2.0) / energy if energy else 0.0,
    )


class QuadraticHitsReport(NamedTuple):
    shift: int                      # n* maximizing r_{A+S}; smallest on ties
    count: int                      # max_n r_{A+S}(n)
    witnesses: tuple[tuple[int, int], ...]  # (x, a) with a = shift - x^2 in A
    chain_lhs: float                # log(N) |A| |S|
    chain_mid: int                  # sum of squared counts = E(A, S)
    chain_rhs: int                  # |A| |S| max count

    def quadratic(self) -> tuple[int, int, int]:
        """Coefficients (a, b, c) of the witness polynomial shift - x^2."""
        return (-1, 0, self.shift)


def quadratic_hits(A: IntegerSet, N: int) -> QuadraticHitsReport:
    """Locate the shift n with the most representations a + s = n.

    Every representation is a point of A on the parabola n - x^2, so the
    peak count is the best single-quadratic hit count reachable this way.
    """
    if len(A) == 0:
        raise ValueError("set must be nonempty")
    xs, ys = A.elements, squares_up_to(N).elements
    _, blocks, _ = _pair_counts(xs, ys, *_sum_window(xs, ys), "auto")
    shift = count = energy = 0
    for offset, counts in blocks:
        peak = int(counts.argmax())  # first index: smallest shift on ties
        if counts[peak] > count:
            shift, count = offset + peak, int(counts[peak])
        energy += _exact_dot([(counts, counts)], min(len(xs), len(ys)) ** 2)  # r <= min(|A|, |S|)
    witnesses = []
    for x in range(1, math.isqrt(max(min(N, shift - 1), 0)) + 1):  # x^2 in S, a >= 1
        a = shift - x * x
        if a in A:
            witnesses.append((x, a))
    if len(witnesses) != count:
        raise InvariantViolationError(
            f"witness scan found {len(witnesses)} hits, table says {count}"
        )
    return QuadraticHitsReport(
        shift=shift,
        count=count,
        witnesses=tuple(witnesses),
        chain_lhs=math.log(N) * len(xs) * len(ys),
        chain_mid=energy,
        chain_rhs=len(xs) * len(ys) * count,
    )


class SidonEnergyReport(NamedTuple):
    cap: int
    card: int
    squares_card: int
    energy: int
    linear_bound: int      # |S| (|X| + |S|)
    holds: bool
    occupancies: tuple[tuple[int, int], ...]  # (p, |X_p|) for primes p <= prime_bound
    hypothesis_ok: bool    # |X_p| <= p/2 + eps(p) at all checked primes


def sidon_report(
    X: IntegerSet, N: int, eps: EpsilonSpec = EPS_HALF, prime_bound: int = 100
) -> SidonEnergyReport:
    """Exact energy of a Sidon set against the squares, with the linear bound.

    A Sidon set repeats no nonzero difference, so its energy with any set Y
    is at most |X||Y| + sum over n of r_{Y-Y}(n) = |Y| (|X| + |Y|).
    """
    if not is_sidon(X):
        raise ValueError("input set is not Sidon")
    S = squares_up_to(N)
    energy = energy_sum_path(X, S).value
    bound = len(S) * (len(X) + len(S))
    occ = tuple(
        (p, int(np.count_nonzero(occupancy(X, p)))) for p in sieve_primes(prime_bound).tolist()
    )
    return SidonEnergyReport(
        cap=N,
        card=len(X),
        squares_card=len(S),
        energy=energy,
        linear_bound=bound,
        holds=energy <= bound,
        occupancies=occ,
        hypothesis_ok=_under_ceiling((((p, 1), count) for p, count in occ), eps),
    )


def ramanujan_ratio(N: int, *, method: str = "auto") -> float:
    """E(S, S) / (N log N), natural log: 0.3652, 0.3371, 0.3230 and 0.3183 at
    N = 1e4, 1e6, 1e8 and 1e9, falling slowly toward the heuristic limit
    c = 1/4 + 4 int_1^2 ((pi/2 - 2 arccos t^(-1/2)) / (2 pi))^2 dt = 0.280922...
    (Ramanujan's sum of r_2(n)^2, each pair of representations weighted by the
    squared fraction of its circle's angle inside [1, sqrt(N)]^2), not 1/4."""
    if N < 4:
        raise ValueError("N must be at least 4")
    S = squares_up_to(N)
    return energy_sum_path(S, S, method=method).value / (N * math.log(N))


# ---------------------------------------------------------------------------
# Sweep rows
# ---------------------------------------------------------------------------

class _RowFields(NamedTuple):
    n: int
    card_a: int
    card_s: int
    energy: int
    lower_bound: float
    ratio_as: float    # energy / (|A| |S|)
    ratio_log: float   # see each builder
    seconds: float


class ExperimentRow(Checked, _RowFields):
    __slots__ = ()

    def _check(self):
        if self.energy < self.card_a * self.card_s:
            raise InvariantViolationError("energy below the trivial |A||S| floor")


def _row(N: int, card_a: int, card_s: int, energy: int, lower_bound: float, scale: int,
         start: float) -> ExperimentRow:
    """The row of a run begun at perf_counter() `start`: ratio_as is
    energy / (|A||S|) and ratio_log energy / (scale log N), both 0 for empty A."""
    return ExperimentRow(
        n=N,
        card_a=card_a,
        card_s=card_s,
        energy=energy,
        lower_bound=lower_bound,
        ratio_as=energy / (card_a * card_s) if card_a else 0.0,
        ratio_log=energy / (scale * math.log(N)) if card_a else 0.0,
        seconds=time.perf_counter() - start,
    )


def correlation_row(A: IntegerSet, N: int) -> ExperimentRow:
    """Full pipeline on one set: decomposition check, lower bound, ratios.

    ratio_log is energy / (|A|^2 log N), the measured growth constant.
    """
    start = time.perf_counter()
    report = energy_decomposition(A, N)  # raises on any path mismatch
    lower = energy_lower_bound(A, N)
    if not lower.holds:
        raise InvariantViolationError(f"half divisor sum exceeds energy at N={N}")
    card = len(A)
    return _row(N, card, report.card_s, report.energy, lower.half_divisor_sum, card * card, start)


def ramanujan_row(N: int) -> ExperimentRow:
    """Squares-only row; ratio_log is E(S,S) / (N log N)."""
    start = time.perf_counter()
    S = squares_up_to(N)
    card = len(S)
    return _row(N, card, card, energy_sum_path(S, S).value, 0.0, N, start)


def largest_sidon_prime(N: int) -> int:
    """Largest prime p with 2p^2 + p <= N, so the Sidon construction fits."""
    cap = int((math.isqrt(8 * N + 1) - 1) // 4)
    return int(sieve_primes(max(cap, 2))[-1])


def sidon_row(N: int) -> ExperimentRow:
    """Sidon-set row; lower_bound column carries the |S|(|X|+|S|) cap and
    ratio_log is energy / (|X|^2 log N)."""
    start = time.perf_counter()
    p = largest_sidon_prime(N)
    X = sidon_set(p, N)
    rep = sidon_report(X, N)
    if not rep.holds:
        raise InvariantViolationError(f"Sidon linear bound failed at N={N}, p={p}")
    card = len(X)
    return _row(N, card, rep.squares_card, rep.energy, float(rep.linear_bound), card * card, start)
