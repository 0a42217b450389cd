import itertools
import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from energysieve.arith import EPS_HALF, EPS_ZERO, delta_prime_power, factorize, sieve_primes
from energysieve.sets import (
    IntegerSet,
    occupancy,
    residue_avoiding_random,
    sidon_set,
    squares_up_to,
)
from energysieve.sieve import (
    DifferenceTable,
    _LOOKUP_GROUP,
    composite_moduli_check,
    divisor_growth_report,
    divisor_sum_direct,
    divisor_sum_partition,
    gallagher_bound,
)
import energysieve.sieve as sieve_module
from conftest import make_random_set


def divisor_sum_oracle(elements, radius):
    """Bare enumeration: for each factor pair u < v <= radius, count pairs
    of elements at distance u*v."""
    diffs = {}
    for a in elements:
        for b in elements:
            if a > b:
                diffs[a - b] = diffs.get(a - b, 0) + 1
    total = 0
    for u in range(1, radius + 1):
        for v in range(u + 1, radius + 1):
            total += diffs.get(u * v, 0)
    return total


def partition_scan_oracle(A, N):
    """The per-class reference scan: for each v and each residue class h,
    mask A to the class, count window pairs with a sorted search and block
    pairs with a bincount.  Returns one (v, J_v, window, partition) per v."""
    radius = math.isqrt(N)
    elems = A.elements
    rows = []
    for v in range(1, radius + 1):
        vsq = v * v
        j_count = max(1, N // vsq)
        window = 0
        partition = 0
        if len(elems) >= 2:
            residues = elems % v if v > 1 else np.zeros(len(elems), dtype=np.int64)
            for h in np.unique(residues):
                cls = elems[residues == h]
                if len(cls) < 2:
                    continue
                # pairs (a=cls[j], b=cls[i]) with i < j and a - b < v^2
                lo = np.searchsorted(cls, cls - vsq + 1, side="left")
                window += int((np.arange(len(cls)) - lo).sum())
                # same-class pairs within one aligned block [j*v^2, (j+1)*v^2)
                blocks = cls // vsq
                m = np.bincount(blocks - blocks[0])
                partition += int((m * (m - 1) // 2).sum())
        rows.append((v, j_count, window, partition))
    return rows


def partition_rows(trace):
    return [(r.v, r.j_count, r.window_count, r.partition_lower_bound) for r in trace.rows]


class TestCompositeModuli:
    def test_squares16_eps_half(self):
        A = IntegerSet.from_elements(16, [1, 4, 9, 16])
        res = composite_moduli_check(A, 3, EPS_HALF)
        assert res.delta_value == 2
        assert res.lhs == 8
        assert res.rhs == 10
        assert res.hypothesis_ok
        assert res.holds

    def test_squares16_eps_zero_hypothesis_fails(self):
        A = IntegerSet.from_elements(16, [1, 4, 9, 16])
        res = composite_moduli_check(A, 3, EPS_ZERO)
        assert res.delta_value == Fraction(3, 2)
        assert res.lhs == Fraction(32, 3)
        assert res.rhs == 10
        assert not res.hypothesis_ok
        assert not res.holds

    def test_modulus_one_equality(self, rng):
        A = make_random_set(rng, 200, 30)
        res = composite_moduli_check(A, 1, EPS_ZERO)
        assert res.lhs == len(A) ** 2
        assert res.rhs == len(A) ** 2
        assert res.holds

    def test_hypothesis_implies_inequality(self, rng):
        # the inequality is a theorem under the prime-power occupancy ceiling
        for seed in range(10):
            A = residue_avoiding_random(4000, EPS_HALF, 13, seed=seed, strategy="uniform")
            if len(A) == 0:
                continue
            for v in range(1, 200):
                res = composite_moduli_check(A, v, EPS_HALF)
                if res.hypothesis_ok:
                    assert res.holds

    def test_unconditional_cauchy_schwarz(self, rng):
        # rhs >= |A|^2 / occupancy regardless of any hypothesis
        for _ in range(50):
            A = make_random_set(rng, 1000, 80)
            v = rng.randint(1, 500)
            res = composite_moduli_check(A, v, EPS_ZERO)
            occ = np.count_nonzero(occupancy(A, v))
            assert res.rhs * occ >= len(A) ** 2

    def test_squares_eps_half_sweep(self):
        A = squares_up_to(10**4)
        for v in list(range(1, 60)) + [121, 125, 243, 720, 997]:
            res = composite_moduli_check(A, v, EPS_HALF)
            if res.hypothesis_ok:
                assert res.holds

    def test_one_occupancy_per_check(self, monkeypatch):
        A = squares_up_to(10**4)
        moduli = []
        count = sieve_module.occupancy

        def spy(A, v):
            moduli.append(v)
            return count(A, v)

        monkeypatch.setattr(sieve_module, "occupancy", spy)
        for v in (49, 720, 997, 1000):
            moduli.clear()
            composite_moduli_check(A, v, EPS_HALF)
            assert moduli == [v]

    @pytest.mark.parametrize("eps", [EPS_ZERO, EPS_HALF])
    def test_hypothesis_equals_recount(self, rng, eps):
        def recounted(A, v):
            """The hypothesis with A counted afresh modulo each p^k of v."""
            return all(
                np.count_nonzero(occupancy(A, p**k)) <= delta_prime_power(p, k, eps)
                for p, k in factorize(v)
            )

        sets = [squares_up_to(10**4)] + [make_random_set(rng, 5000, 400) for _ in range(2)]
        for A in sets:
            for v in range(1, 1001):
                assert composite_moduli_check(A, v, eps).hypothesis_ok == recounted(A, v), v


class TestCompositeModuliMemory:
    V = 10**6 + 3  # prime: the column of classes modulo v itself has v bytes

    def test_counted_bytes_cover_peak(self, monkeypatch):
        import energysieve.sets as sets_module

        counted = []
        for module in (sieve_module, sets_module):
            monkeypatch.setattr(module, "check_allocation", lambda nbytes, what: counted.append(nbytes))
        A = IntegerSet.from_elements(100, [1, 5, 17])
        factorize(self.V)  # its factorization is cached
        tracemalloc.start()
        try:
            composite_moduli_check(A, self.V, EPS_HALF)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the v int64 class counts and the v-byte column of occupied classes
        assert peak > 9 * self.V
        assert peak <= max(counted)

    def test_column_counted_against_cap(self, monkeypatch):
        from energysieve.errors import ResourceLimitError
        from energysieve.limits import MEMORY_CAP_ENV

        A = IntegerSet.from_elements(100, [1, 5, 17])
        # admits the class counts and the residues, but not the column as well
        monkeypatch.setenv(MEMORY_CAP_ENV, str(8 * (self.V + len(A)) + self.V // 2))
        factorize(self.V)  # its factorization is cached
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="prime-power column"):
                composite_moduli_check(A, self.V, EPS_HALF)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * self.V  # refused before the class counts were made
        assert np.count_nonzero(occupancy(A, self.V)) == 3


def gallagher_oracle(A, Q):
    """The bound from bare class sets: primes by trial division, |A_p| as
    len({a % p}), the floats summed in ascending p from -log N."""
    num = den = -math.log(A.cap)
    for p in range(2, Q + 1):
        if all(p % d for d in range(2, math.isqrt(p) + 1)):
            num += math.log(p)
            den += math.log(p) / len({a % p for a in A})
    return num / den if den > 0 else None


class TestGallagher:
    def test_inconclusive_when_denominator_nonpositive(self):
        sq = squares_up_to(10**4)
        assert gallagher_bound(sq, 200) is None

    def test_conclusive_upper_bound_on_squares(self):
        sq = squares_up_to(10**4)
        for q in (500, 1000):
            bound = gallagher_bound(sq, q)
            assert bound is not None
            assert bound >= len(sq)

    def test_single_prime_degenerate(self):
        A = IntegerSet.from_elements(1, [1])
        assert gallagher_bound(A, 2) == pytest.approx(1.0)

    def test_valid_bound_on_random_sets(self, rng):
        for _ in range(20):
            A = make_random_set(rng, 3000, 100)
            bound = gallagher_bound(A, 100)
            if bound is not None:
                assert bound >= len(A) - 1e-9

    @pytest.mark.parametrize("Q", [1, 2, 30, 200])
    def test_equals_oracle(self, rng, Q):
        for _ in range(10):
            A = make_random_set(rng, rng.randint(1, 5000), rng.randint(1, 60))
            bound = gallagher_bound(A, Q)
            assert bound == gallagher_oracle(A, Q)
            assert bound is None or type(bound) is float

    def test_primes_above_the_set_make_no_class_table(self):
        A = IntegerSet.from_elements(10**6, [3, 17, 1000, 54321, 999999])
        Q = 30030
        tracemalloc.start()
        try:
            bound = gallagher_bound(A, Q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bound == gallagher_oracle(A, Q)
        # no length-p table: the primes, as an array and as a list, and 64 KiB
        primes = sieve_primes(Q)
        listed = primes.tolist()
        assert peak < 2**16 + primes.nbytes + sys.getsizeof(listed) + sum(map(sys.getsizeof, listed))

    def test_primes_up_to_the_set_size_count_class_tables(self, monkeypatch):
        moduli = []
        count = sieve_module.occupancy

        def spy(A, v):
            moduli.append(v)
            return count(A, v)

        monkeypatch.setattr(sieve_module, "occupancy", spy)
        sq = squares_up_to(10**4)  # 100 elements
        assert gallagher_bound(sq, 500) == gallagher_oracle(sq, 500)
        assert moduli == sieve_primes(100).tolist()

    @pytest.mark.parametrize("Q", [0, 1])
    def test_no_prime_is_inconclusive(self, Q):
        assert gallagher_bound(squares_up_to(10**4), Q) is None

    @pytest.mark.parametrize("Q", [0, 2, 200])
    def test_empty_set_rejected(self, Q):
        with pytest.raises(ValueError):
            gallagher_bound(IntegerSet.from_elements(100, []), Q)


class TestDivisorSums:
    def test_squares16(self):
        S = squares_up_to(16)
        assert divisor_sum_direct(S, 16) == 3
        trace = divisor_sum_partition(S, 16)
        assert trace.total == 3

    def test_singleton(self):
        A = IntegerSet.from_elements(100, [42])
        assert divisor_sum_direct(A, 100) == 0
        assert divisor_sum_partition(A, 100).total == 0

    def test_pair_no_hits(self):
        A = IntegerSet.from_elements(16, [1, 2])
        assert divisor_sum_direct(A, 16) == 0
        assert divisor_sum_partition(A, 16).total == 0

    def test_progression_fixture(self):
        # A = {5,10,...,50}: window row at v=5 counts the 30 pairs with
        # difference in {5,10,15,20}; the grand total is 60
        A = IntegerSet.from_elements(100, range(5, 51, 5))
        trace = divisor_sum_partition(A, 100)
        row5 = trace.rows[4]
        assert row5.v == 5
        assert row5.window_count == 30
        assert trace.total == 60
        assert divisor_sum_direct(A, 100) == 60
        assert divisor_sum_oracle(list(A), 10) == 60

    def test_v1_row_empty(self, rng):
        A = make_random_set(rng, 400, 50)
        trace = divisor_sum_partition(A, 400)
        assert trace.rows[0].v == 1
        assert trace.rows[0].window_count == 0

    def test_identity_random_sweep(self, rng):
        for _ in range(60):
            A = make_random_set(rng, rng.randint(10, 2000), 120)
            n = A.cap
            direct = divisor_sum_direct(A, n)
            trace = divisor_sum_partition(A, n)
            assert direct == trace.total
            for row in trace.rows:
                assert row.partition_lower_bound <= row.window_count
            assert trace.partition_total <= trace.total

    def test_identity_against_oracle(self, rng):
        for _ in range(20):
            A = make_random_set(rng, 300, 25)
            assert divisor_sum_direct(A, A.cap) == divisor_sum_oracle(
                list(A), math.isqrt(A.cap)
            )

    def test_identity_structured_sets(self):
        for A, n in [
            (squares_up_to(10**4), 10**4),
            (sidon_set(31, 2000), 2000),
            (IntegerSet.from_elements(3000, range(7, 3000, 7)), 3000),
        ]:
            assert divisor_sum_direct(A, n) == divisor_sum_partition(A, n).total

    def test_partition_rows_match_scan_random(self, rng):
        for _ in range(40):
            A = make_random_set(rng, rng.randint(1, 3000), 200)
            # N at, below and above the set's cap
            for n in (A.cap, max(1, A.cap // 3), 2 * A.cap):
                trace = divisor_sum_partition(A, n)
                rows = partition_rows(trace)
                assert rows == partition_scan_oracle(A, n)
                assert trace.total == sum(r[2] for r in rows)
                assert trace.partition_total == sum(r[3] for r in rows)

    @pytest.mark.parametrize(
        "cap, elements",
        [
            (1, []),
            (100, []),
            (1, [1]),
            (100, [1, 2, 3, 98, 99, 100]),       # elements near 1 and near N
            (100, [1, 10, 50, 100]),             # class 1 is a singleton below class 0
            (400, [1, 2, 400]),                  # windows at a < v^2 need the clamp
            (1000, list(range(1, 1001))),        # every class full
            (1000, [7, 507, 1000]),              # one pair 500 apart, one element at N
            (10**4, [5000, 5001, 5003, 5010]),   # v^2 exceeds the span of A from v = 4
            (10**5, [1, 27721, 55441, 83161]),   # one class mod every v | lcm(1..12)
            (10**4, [100, 2500, 9801, 9900, 10**4]),  # the largest element is N = 100^2
        ],
    )
    def test_partition_rows_match_scan_edges(self, cap, elements):
        A = IntegerSet.from_elements(cap, elements)
        trace = divisor_sum_partition(A, cap)
        assert partition_rows(trace) == partition_scan_oracle(A, cap)
        assert trace.rows[0].v == 1
        assert trace.total == divisor_sum_direct(A, cap)

    def test_benchmark_scale_totals(self):
        # the squares of the benchmark's divisor-series workload
        trace = divisor_sum_partition(squares_up_to(2 * 10**6), 2 * 10**6)
        assert (trace.total, trace.partition_total) == (3127318, 2294093)

    def test_partition_counted_bytes_cover_peak(self, monkeypatch):
        import tracemalloc

        A = IntegerSet.from_elements(10**5, range(1, 10**5 + 1))
        counted = []
        monkeypatch.setattr(sieve_module, "check_allocation",
                            lambda nbytes, what: counted.append(nbytes))
        tracemalloc.start()
        try:
            divisor_sum_partition(A, 10**4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counted and peak <= max(counted) + 2**16

    @pytest.mark.parametrize("N", [4 * 10**6, 10**7])
    def test_partition_counted_against_traced_on_the_squares(self, monkeypatch, N):
        # 2,000 and 3,162 rows, most of whose counts are Python ints of their own
        A = squares_up_to(N)
        counted = []
        monkeypatch.setattr(sieve_module, "check_allocation",
                            lambda nbytes, what: counted.append(nbytes))
        tracemalloc.start()
        try:
            divisor_sum_partition(A, N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= max(counted) + 2**16 and max(counted) <= 2 * peak

    def test_partition_cap_refuses(self, monkeypatch):
        from energysieve.errors import ResourceLimitError
        from energysieve.limits import MEMORY_CAP_ENV

        monkeypatch.setenv(MEMORY_CAP_ENV, str(10**6))
        A = IntegerSet.from_elements(10**5, range(1, 10**5 + 1))
        with pytest.raises(ResourceLimitError):
            divisor_sum_partition(A, 10**5)

    @pytest.mark.parametrize("route", [divisor_sum_partition, divisor_sum_direct])
    def test_rows_counted_cover_peak_on_a_tiny_set(self, monkeypatch, route):
        import tracemalloc

        import energysieve.energy as energy

        # two elements and 10^4 rows: the rows are the working set
        A = IntegerSet.from_elements(10**8, [5, 7])
        counted = []
        for module in (sieve_module, energy):
            monkeypatch.setattr(module, "check_allocation",
                                lambda nbytes, what: counted.append(nbytes))
        tracemalloc.start()
        try:
            route(A, 10**8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak > 8 * 10**4 and peak <= max(counted) + 2**16

    @pytest.mark.parametrize("route", [divisor_sum_partition, divisor_sum_direct])
    def test_rows_refused_before_the_scan(self, route):
        from energysieve.errors import ResourceLimitError

        # isqrt(10^30) = 10^15 rows; nothing is allocated or looped over first
        with pytest.raises(ResourceLimitError, match="rows"):
            route(IntegerSet.from_elements(10**30, [5]), 10**30)

    def test_moduli_over_the_guard_refused_before_the_scan(self, monkeypatch):
        from energysieve.errors import ResourceLimitError

        guard = sieve_module.PARTITION_MODULI_GUARD
        N = (guard + 1) ** 2  # rows the cap admits, one modulus too many
        monkeypatch.setattr(sieve_module, "_class_pairs", None)  # never reached
        with pytest.raises(ResourceLimitError, match=f"over {guard + 1} moduli exceeds guard"):
            divisor_sum_partition(IntegerSet.from_elements(N, [1, N]), N)

    def test_radius_override(self):
        S = squares_up_to(100)
        full = divisor_sum_direct(S, 100)
        half = divisor_sum_direct(S, 100, radius=5)
        assert 0 <= half <= full

    @pytest.mark.parametrize("cut", [True, False])
    @pytest.mark.parametrize("size", [800, 2500])
    def test_counted_bytes_cover_peak(self, monkeypatch, cut, size):
        import tracemalloc

        import energysieve.energy as energy

        A = random_set(size, 10**7)
        counted = []
        monkeypatch.setattr(energy, "check_allocation", lambda nbytes, what: counted.append(nbytes))
        # cut: differences up to 707^2, four blocks; else up to 10^8 (radius
        # 10^4), the whole span
        N = 5 * 10**5 if cut else 10**8
        tracemalloc.start()
        try:
            divisor_sum_direct(A, N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= max(counted) + 2**16

    @pytest.mark.parametrize("size", [65536, 65537])
    def test_large_set_exact(self, monkeypatch, size):
        import tracemalloc

        import energysieve.energy as energy

        # {1, ..., size}: r(d) = size - d, so r(1) = size - 1 outgrows uint16
        # at size 65537
        A = IntegerSet.from_elements(size, range(1, size + 1))
        counted = []
        monkeypatch.setattr(energy, "check_allocation", lambda nbytes, what: counted.append(nbytes))
        ends = np.array([1, size - 1], dtype=np.int64)

        def ends_in(D, E):
            yield ends[(ends >= D) & (ends <= E)].copy()

        tracemalloc.start()
        try:
            got = DifferenceTable(A, 10**7).lookup(every_difference, ends_in)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == (size * (size - 1) // 2, size)
        assert peak <= max(counted) + 2**16
        # sum over u < v <= 3162, uv < size, of size - uv, one u at a time
        radius = math.isqrt(10**7)
        want = 0
        for u in range(1, radius):
            top = min(radius, (size - 1) // u)
            if top > u:
                k = top - u
                want += k * size - u * (top * (top + 1) // 2 - u * (u + 1) // 2)
        assert divisor_sum_direct(A, 10**7) == want


class DifferenceTableOracle:
    """The former table, without its memory check: r_{A-A}(d), d >= 1, from
    2^22-entry chunks of all differences; dense up to 2e7, sorted beyond."""

    def __init__(self, A, max_diff):
        self.max_diff = max_diff
        elems = A.elements
        if len(elems) < 2:
            # the former table kept one entry here, which its callers never read
            self._dense = np.zeros(max_diff + 1, dtype=np.int64)
            self._values = np.zeros(0, dtype=np.int64)
            self._counts = np.zeros(0, dtype=np.int64)
            self.dense = True
            return
        self.dense = max_diff <= 2 * 10**7
        chunk = max(1, (1 << 22) // len(elems))
        if self.dense:
            table = np.zeros(max_diff + 1, dtype=np.int64)
            for i in range(0, len(elems), chunk):
                d = (elems[i : i + chunk, None] - elems[None, :]).ravel()
                d = d[(d > 0) & (d <= max_diff)]
                table += np.bincount(d, minlength=max_diff + 1)
            self._dense = table
        else:
            parts = []
            for i in range(0, len(elems), chunk):
                d = (elems[i : i + chunk, None] - elems[None, :]).ravel()
                parts.append(d[(d > 0) & (d <= max_diff)])
            del d
            d = np.concatenate(parts)
            del parts
            d.sort()
            first = np.empty(len(d), dtype=bool)
            first[:1] = True
            np.not_equal(d[1:], d[:-1], out=first[1:])
            self._values = d[first]
            del d
            self._counts = np.diff(np.flatnonzero(np.append(first, True)))

    def lookup(self, ds):
        if self.dense:
            return self._dense[ds]
        if len(self._values) == 0:
            return np.zeros(len(ds), dtype=np.int64)
        idx = np.minimum(np.searchsorted(self._values, ds), len(self._values) - 1)
        hit = self._values[idx] == ds
        out = np.zeros(len(ds), dtype=np.int64)
        out[hit] = self._counts[idx[hit]]
        return out


def former_routes(A, N):
    """Routes (ii) and (iii) of `energy_decomposition` and `divisor_sum_direct`,
    as the per-row loops that read the former stored table, here the oracle."""
    root = radius = math.isqrt(N)
    table = DifferenceTableOracle(A, N)

    def r(values):
        return int(table.lookup(values).sum()) if len(values) else 0

    square = sum(r(np.arange(m + 1, root + 1, dtype=np.int64) ** 2 - m * m) for m in range(1, root))
    factor = sum(r(u * np.arange(u + 2, 2 * root - u + 1, 2, dtype=np.int64)) for u in range(1, root))
    divisor = sum(r(u * np.arange(u + 1, radius + 1, dtype=np.int64)) for u in range(1, radius))
    return square, factor, divisor


def block_bound(length, rows):
    """The values an enumerator may give for a block of L differences:
    L (1 + ln R) + R, R = isqrt(max_diff) + 1."""
    return int(length * (1 + math.log(rows))) + rows


def random_set(size, cap=10**6):
    import random

    return IntegerSet.from_elements(cap, random.Random(size).sample(range(1, cap + 1), size))


def every_difference(D, E):
    """Every d in [D, E], at most _LOOKUP_GROUP at a time, as a consumer gathers."""
    for start in range(D, E + 1, _LOOKUP_GROUP):
        yield np.arange(start, min(start + _LOOKUP_GROUP, E + 1), dtype=np.int64)


def enumerators(R):
    """The three lookup consumers' enumerators over R, each with a brute-force
    listing of its values: route (ii)'s n^2 - m^2, 1 <= m < n <= R; route
    (iii)'s parity-matched uv, v >= u + 2, u + v <= 2R; the divisor sum's
    uv, u < v <= R."""
    u = np.arange(1, R, dtype=np.int64)
    return {
        "square-differences": (sieve_module._square_differences(np.arange(1, R + 1, dtype=np.int64) ** 2),
                               [n * n - m * m for m in range(1, R) for n in range(m + 1, R + 1)]),
        "factor-pairs": (sieve_module._products(u, u + 2, 2 * R - u, 2),
                         [a * b for a in range(1, R) for b in range(a + 2, 2 * R - a + 1, 2)]),
        "divisor-products": (sieve_module._products(u, u + 1, R),
                             [a * b for a in range(1, R) for b in range(a + 1, R + 1)]),
    }


class TestEnumerators:
    """`_square_differences` and `_products` (steps 2 and 1) against a listing
    of their values, with multiplicity, window by window."""

    @staticmethod
    def check(values, listing, D, E):
        groups = list(values(D, E))
        for ds in groups:
            assert ds.dtype == np.int64 and 0 < len(ds) <= _LOOKUP_GROUP
        got = np.sort(np.concatenate(groups)) if groups else []
        want = np.sort(listing)
        want = want[(want >= D) & (want <= E)]
        assert len(got) == len(want) and (got == want).all(), (D, E)

    @pytest.mark.parametrize("name", ["square-differences", "factor-pairs", "divisor-products"])
    @pytest.mark.parametrize("R", [1, 2, 3, 9])
    def test_every_small_window(self, name, R):
        # every [D, E] with 1 <= D <= E + 1 <= top + 2: D = 1, empty windows,
        # each end on a value and one below and above it, and windows past
        # the range of the first rows (whose v or n are used up) or of all
        values, listing = enumerators(R)[name]
        top = max(listing, default=0)
        for D in range(1, top + 3):
            for E in range(D - 1, top + 2):
                self.check(values, listing, D, E)

    @pytest.mark.parametrize("name", ["square-differences", "factor-pairs", "divisor-products"])
    def test_windows_ending_on_a_value(self, name):
        values, listing = enumerators(300)[name]
        distinct = sorted(set(listing))
        ends = distinct[:3] + distinct[1000::7919] + distinct[-3:]
        listing = np.array(listing, dtype=np.int64)
        for D, E in itertools.combinations_with_replacement(ends, 2):
            for a, b in itertools.product((-1, 0, 1), repeat=2):
                if 1 <= D + a <= E + b + 1:
                    self.check(values, listing, D + a, E + b)


class TestDifferenceTable:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: random_set(1),        # no differences: an empty window
            lambda: random_set(2),
            lambda: random_set(30),
            lambda: random_set(1000),
            lambda: squares_up_to(10**4),
            lambda: squares_up_to(10**6),
            lambda: squares_up_to(4 * 10**6),
        ],
        ids=["random1", "random2", "random30", "random1000", "sq1e4", "sq1e6", "sq4e6"],
    )
    # the whole span in several blocks, a cut second block, a cut first
    # block, the smallest N with values on every route, and one value
    @pytest.mark.parametrize("N", [None, 150_001, 1000, 4, 1])
    def test_consumers_match_former_loops(self, make, N):
        from energysieve.correlation import energy_decomposition

        A = make()
        N = A.cap if N is None else N
        rep = energy_decomposition(A, N)
        square, factor, divisor = former_routes(A, N)
        base = len(A) * math.isqrt(N)
        assert (rep.via_square_pairs, rep.via_factor_pairs) == (base + 2 * square, base + 2 * factor)
        assert divisor_sum_direct(A, N) == divisor

    @pytest.mark.parametrize(
        "cap, size, max_diff",
        [
            (10**6, 1000, 10**6),     # the whole span: several blocks, the last cut
            (10**6, 1000, 150_001),   # cuts the second block
            (10**6, 1000, 1000),      # cuts the first block
            (10**6, 1000, 1),         # one value
            (10**6, 1000, 0),         # an empty window
            (10**6, 30, 10**6),
            (10**6, 30, 5 * 10**5 + 3),
            (10**6, 1, 10**6),        # no differences
            (10**6, 2, 10**6),
        ],
    )
    def test_random_sets_match_oracle(self, cap, size, max_diff):
        self.check_windows(random_set(size, cap), max_diff)

    @pytest.mark.parametrize("N", [10**4, 10**6, 4 * 10**6])
    def test_squares_match_oracle(self, N):
        S = squares_up_to(N)
        for max_diff in (N, N // 3, 12, 1, 0):
            self.check_windows(S, max_diff)

    @staticmethod
    def check_windows(A, max_diff):
        """Every difference, and every seventh twice over, summed in one pass."""
        oracle = DifferenceTableOracle(A, max_diff)
        probe = np.arange(1, max_diff + 1, dtype=np.int64)
        sample = probe[::7]

        def sampled(D, E):
            yield sample[(sample >= D) & (sample <= E)].copy()

        got = DifferenceTable(A, max_diff).lookup(every_difference, sampled, sampled)
        want = int(oracle.lookup(probe).sum()), int(oracle.lookup(sample).sum())
        assert got == (want[0], want[1], want[1])

    @pytest.mark.parametrize("backend", ["direct", "fft"])
    def test_lookup_counted_bytes_cover_peak(self, monkeypatch, backend):
        import tracemalloc

        import energysieve.energy as energy
        from energysieve.correlation import energy_decomposition

        if backend == "fft":
            rng = np.random.default_rng(3)
            A = IntegerSet.from_elements(200_000, np.flatnonzero(rng.random(200_001) < 0.115)[1:])
        else:
            A = random_set(2500, 10**7)
        counted, peaks, backends = [], [], []
        monkeypatch.setattr(energy, "check_allocation", lambda nbytes, what: counted.append(nbytes))
        count = energy._pair_counts

        def spy(*args, **kwargs):
            out = count(*args, **kwargs)
            backends.append(out[0])
            return out

        monkeypatch.setattr(sieve_module, "_pair_counts", spy)
        lookup = DifferenceTable.lookup

        def measured(self, *products):
            counted.clear()
            tracemalloc.start()
            try:
                out = lookup(self, *products)
                peaks.append((tracemalloc.get_traced_memory()[1], max(counted)))
            finally:
                tracemalloc.stop()
            return out

        monkeypatch.setattr(DifferenceTable, "lookup", measured)
        energy_decomposition(A, A.cap)
        divisor_sum_direct(A, A.cap)
        assert backends == [backend, backend]
        for peak, bound in peaks:
            assert peak <= bound + 2**16

    @pytest.mark.parametrize(
        "make, N",
        [
            (lambda: squares_up_to(10**6), 10**6),
            (lambda: random_set(1000), 10**6),
            (lambda: IntegerSet.from_elements(10**6, range(1, 10**6 + 1, 3)), 10**6),
            (lambda: random_set(1000), 10**5),
        ],
        ids=["sq1e6", "random1000", "step3", "random1000-N1e5"],
    )
    def test_values_per_block_within_bound(self, monkeypatch, make, N):
        from energysieve.correlation import energy_decomposition

        lookup = DifferenceTable.lookup
        blocks, groups = [], []

        def checked(self, *products):
            assert self.rows == math.isqrt(N) + 1  # max_diff is N or isqrt(N)^2

            def check(values):
                def inner(D, E):
                    total = 0
                    for ds in values(D, E):
                        # every row here is under R <= 1001 values, so no
                        # group may pass the limit
                        assert ds.dtype == np.int64 and 0 < len(ds) <= _LOOKUP_GROUP
                        assert D <= ds.min() and ds.max() <= E
                        groups.append(len(ds))
                        total += len(ds)
                        yield ds
                    assert total <= block_bound(E - D + 1, self.rows)
                    blocks.append(total)

                return inner

            return lookup(self, *map(check, products))

        monkeypatch.setattr(DifferenceTable, "lookup", checked)
        A = make()
        energy_decomposition(A, N)
        divisor_sum_direct(A, N)
        assert max(blocks) > 0
        if max(blocks) > _LOOKUP_GROUP:
            assert max(groups) > _LOOKUP_GROUP // 2  # a block's values make several full groups

    def test_row_longer_than_a_group_gathered_alone(self, monkeypatch):
        # differences 1 to 39999 in one full cell, and radius isqrt(4e9) =
        # 63245: rows u = 1 to 4 of the products, v = u + 1 to 39999 // u,
        # pass the limit
        A = IntegerSet.from_elements(10**5, [*range(1, 1101), 40000])
        N = 4 * 10**9
        lookup = DifferenceTable.lookup
        groups = []

        def checked(self, *products):
            def spy(values):
                def inner(D, E):
                    for ds in values(D, E):
                        groups.append(ds.copy())
                        yield ds

                return inner

            return lookup(self, *map(spy, products))

        monkeypatch.setattr(DifferenceTable, "lookup", checked)
        got = divisor_sum_direct(A, N)
        long = [g.tolist() for g in groups if len(g) > _LOOKUP_GROUP]
        assert long == [list(range(u * (u + 1), 40000, u)) for u in range(1, 5)]
        xs = A.elements
        d = (xs[:, None] - xs[None, :]).ravel()
        r = np.bincount(d[d > 0])
        # d = uv with u < v: d = u (u + 1), u (u + 2), ...; v <= 39999 < radius
        assert got == sum(int(r[u * (u + 1) :: u].sum()) for u in range(1, 200))

    # Counted against traced: the largest count passed to `check_allocation`
    # covers the traced peak within 64 KiB, and is at most twice that peak.
    SHAPES = {
        "sq1e6": (lambda: squares_up_to(10**6), 10**6),
        "sq1e7": (lambda: squares_up_to(10**7), 10**7),
        "sq2e6": (lambda: squares_up_to(2 * 10**6), 2 * 10**6),  # the divisor-sum job's set
        "random2500": (lambda: random_set(2500, 10**7), 10**7),
    }

    @pytest.mark.parametrize("site", ["lookup", "decomposition-lookup", "direct"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_counted_against_traced(self, monkeypatch, site, shape):
        import energysieve.energy as energy
        from energysieve.correlation import energy_decomposition

        make, N = self.SHAPES[shape]
        A = make()
        xs = A.elements
        ys = -xs[::-1]
        counted = []
        for module in (sieve_module, energy):
            monkeypatch.setattr(module, "check_allocation",
                                lambda nbytes, what: counted.append(nbytes))

        measured = []

        def traced(run):
            counted.clear()
            tracemalloc.start()
            try:
                out = run()
                measured.append((tracemalloc.get_traced_memory()[1], max(counted)))
                return out
            finally:
                tracemalloc.stop()

        if site == "lookup":  # the table, its lookup and divisor_sum_direct's rows
            traced(lambda: divisor_sum_direct(A, N))
        elif site == "decomposition-lookup":  # routes (ii) and (iii) in one lookup
            lookup = DifferenceTable.lookup
            monkeypatch.setattr(DifferenceTable, "lookup",
                                lambda self, *products: traced(lambda: lookup(self, *products)))
            energy_decomposition(A, N)
        else:  # direct counting of the differences, a caller holding each block
            def run():
                for _ in energy._pair_counts(xs, ys, 1, int(xs[-1] - xs[0]), "direct")[1]:
                    pass

            traced(run)
        (peak, count), = measured
        assert peak <= count + 2**16
        assert count <= 2 * peak

    def test_dense_set_uses_the_transform(self, monkeypatch):
        import energysieve.energy as energy

        rng = np.random.default_rng(3)
        A = IntegerSet.from_elements(200_000, np.flatnonzero(rng.random(200_001) < 0.115)[1:])
        backends = []
        count = energy._pair_counts

        def spy(*args, **kwargs):
            out = count(*args, **kwargs)
            backends.append(out[0])
            return out

        monkeypatch.setattr(sieve_module, "_pair_counts", spy)
        total = DifferenceTable(A, A.cap).lookup(every_difference)
        assert backends == ["fft"]
        assert total == (len(A) * (len(A) - 1) // 2,)

    def test_transform_enumerated_once(self):
        """The transform is one block, so each enumerator is asked for its
        values once, over the table's whole window."""
        rng = np.random.default_rng(3)
        A = IntegerSet.from_elements(200_000, np.flatnonzero(rng.random(200_001) < 0.115)[1:])
        radius = math.isqrt(A.cap)
        u = np.arange(1, radius, dtype=np.int64)
        table = DifferenceTable(A, radius * radius)
        calls = {}

        def counted(name, values):
            def inner(D, E):
                calls.setdefault(name, []).append((D, E))
                return values(D, E)
            return inner

        totals = table.lookup(counted("every", every_difference),
                              counted("products", sieve_module._products(u, u + 1, radius)))
        assert sieve_module._pair_counts(A.elements, None, 1, table.hi, "auto")[0] == "fft"
        assert calls == {"every": [(1, table.hi)], "products": [(1, table.hi)]}
        xs = A.elements
        within = int((np.arange(len(xs)) - np.searchsorted(xs, xs - table.hi)).sum())
        assert totals == (within, divisor_sum_partition(A, A.cap).total)


class TestGrowthReport:
    def test_squares(self):
        rep = divisor_growth_report(squares_up_to(10**4), 10**4, EPS_HALF)
        assert rep.total > 0
        assert rep.ratio > 0

    def test_singleton(self):
        rep = divisor_growth_report(IntegerSet.from_elements(100, [5]), 100, EPS_HALF)
        assert rep.total == 0
        assert rep.ratio == 0.0

    def test_squares_ratio_band(self):
        ratios = []
        for n in (10**3, 10**4, 10**5, 10**6):
            rep = divisor_growth_report(squares_up_to(n), n, EPS_HALF)
            ratios.append(rep.ratio)
        assert min(ratios) > 0
        assert max(ratios) / min(ratios) < 10
