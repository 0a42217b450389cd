import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from energysieve.arith import (
    EPS_HALF,
    EPS_ONE,
    EPS_ZERO,
    EpsilonSpec,
    delta,
    delta_prime_power,
    factorize,
    is_squarefree,
    m_partial_sum,
    series_table,
    sieve_primes,
    singular_series,
    t_partial_sum,
)
from energysieve.errors import ResourceLimitError
from energysieve.limits import MEMORY_CAP_ENV


def trial_division_primes(limit):
    """Independent oracle: primes by bare trial division."""
    out = []
    for n in range(2, limit + 1):
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            out.append(n)
    return out


def plain_sieve(limit):
    """Independent oracle: one-shot unsegmented sieve."""
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(flags[p * p :: p]))
    return [n for n in range(limit + 1) if flags[n]]


def trial_division_factors(n):
    """Oracle: (p, k) pairs by bare trial division over all d."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            k = 0
            while n % d == 0:
                n //= d
                k += 1
            out.append((d, k))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def exact_delta(n, eps):
    """Oracle: delta via bare factorization, exact rationals."""
    out = Fraction(1)
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            k = 0
            while m % p == 0:
                m //= p
                k += 1
            out *= Fraction(p) ** (k - 1) * (Fraction(p, 2) + eps.at(p))
        p += 1
    if m > 1:
        out *= Fraction(m, 2) + eps.at(m)
    return out


class TestSievePrimes:
    def test_small(self):
        assert sieve_primes(10).tolist() == [2, 3, 5, 7]

    def test_empty(self):
        assert sieve_primes(1).tolist() == []
        assert sieve_primes(0).tolist() == []

    def test_hundred_matches_trial_division(self):
        table = sieve_primes(100).tolist()
        assert table == trial_division_primes(100)
        assert len(table) == 25

    def test_crosses_default_segments(self):
        # two segments of 2^20 odd values past sqrt(3e6)
        assert sieve_primes(3 * 10**6).tolist() == plain_sieve(3 * 10**6)

    @pytest.mark.parametrize("segment", [1, 2, 7])
    def test_short_odd_segments(self, monkeypatch, segment):
        import energysieve.arith as arith

        # every limit up to 400, odd and even, against segments of a few odd values
        monkeypatch.setattr(arith, "_SEGMENT", segment)
        for limit in range(400):
            assert arith.sieve_primes(limit).tolist() == plain_sieve(limit), limit

    def test_counted_bytes_cover_peak(self, monkeypatch):
        import energysieve.arith as arith

        counted = []
        monkeypatch.setattr(arith, "check_allocation", lambda nbytes, what: counted.append(nbytes))
        tracemalloc.start()
        try:
            arith.sieve_primes(3 * 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= counted[0]

    @pytest.mark.parametrize("limit", [10**6, 10**7])
    def test_counted_against_traced(self, monkeypatch, limit):
        import energysieve.arith as arith

        counted = []
        monkeypatch.setattr(arith, "check_allocation", lambda nbytes, what: counted.append(nbytes))
        tracemalloc.start()
        try:
            arith.sieve_primes(limit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= max(counted) + 2**16 and max(counted) <= 2 * peak

    def test_cap_refuses_before_sieving(self, monkeypatch):
        monkeypatch.setenv(MEMORY_CAP_ENV, str(10**6))
        with pytest.raises(ResourceLimitError):
            sieve_primes(10**6)

    def test_limit_cap(self):
        with pytest.raises(ResourceLimitError):
            sieve_primes(2**31 + 1)

    def test_strictly_increasing(self):
        primes = sieve_primes(10**4)
        assert (primes[1:] > primes[:-1]).all()
        assert primes.dtype == np.int64 and not primes.flags.writeable
        assert not sieve_primes(1).flags.writeable


class TestFactorize:
    @pytest.mark.parametrize(
        "n,expected",
        [(12, ((2, 2), (3, 1))), (1, ()), (97, ((97, 1),)), (360, ((2, 3), (3, 2), (5, 1)))],
    )
    def test_examples(self, n, expected):
        assert factorize(n) == expected

    def test_random_reconstruction(self, rng):
        for _ in range(300):
            n = rng.randint(1, 10**4)
            fac = factorize(n)
            assert math.prod(p**k for p, k in fac) == n
            for p, k in fac:
                assert k >= 1
                assert all(p % d for d in range(2, math.isqrt(p) + 1))
            assert [p for p, _ in fac] == sorted(p for p, _ in fac)

    def test_nonpositive(self):
        with pytest.raises(ValueError):
            factorize(0)

    @pytest.mark.parametrize("segment", [64, 1000, 1 << 20])
    def test_segments_match_trial_division(self, monkeypatch, rng, segment):
        import energysieve.arith as arith

        # odd values sieved per segment; the factorizations cached so far were
        # found with the default segments
        monkeypatch.setattr(arith, "_SEGMENT", segment)
        arith._factors.cache_clear()
        # prime powers, a square of a prime, a product of two primes near
        # sqrt(n), primes and random n up to 10^10
        ns = [1, 2**33, 3**20, 1009**2, 99991 * 100003, 9999999967, 65537]
        ns += [rng.randint(1, 10**10) for _ in range(30)]
        for n in ns:
            assert factorize(n) == trial_division_factors(n)

    @pytest.mark.parametrize("n", [10**12 + 39, 10**16 + 61])
    def test_counted_against_traced(self, monkeypatch, n):
        import energysieve.arith as arith

        # primes: trial division runs over every segment up to sqrt(n)
        counted = []
        monkeypatch.setattr(arith, "check_allocation", lambda nbytes, what: counted.append(nbytes))
        arith._factors.cache_clear()
        tracemalloc.start()
        try:
            assert factorize(n) == ((n, 1),)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= max(counted) + 2**16 and max(counted) <= 2 * peak

    def test_limit_refused_before_sieving(self, monkeypatch):
        import energysieve.arith as arith

        def sieve(limit):
            raise AssertionError("sieved")

        monkeypatch.setattr(arith, "_prime_segments", sieve)
        with pytest.raises(ResourceLimitError, match="sieve limit 4294967296 exceeds cap"):
            factorize(2**64)


class TestDelta:
    def test_examples(self):
        assert delta(3, EPS_ZERO) == Fraction(3, 2)
        assert delta(4, EPS_ZERO) == 2
        assert delta(12, EPS_ZERO) == 3
        assert delta(1, EPS_ZERO) == 1

    def test_prime_power_formula(self):
        assert delta_prime_power(2, 3, EPS_HALF) == Fraction(2) ** 2 * Fraction(3, 2)
        assert delta(8, EPS_HALF) == 6

    def test_prime_power_equals_former_expression(self, tmp_path):
        cfg = tmp_path / "eps.txt"
        cfg.write_text("default=3/7\n2=0\n3=5/4\n97=0.125\n")
        specs = [EpsilonSpec.constant(e) for e in (0, Fraction(1, 2), 1, Fraction(2, 3))]
        for eps in specs + [EpsilonSpec.from_file(cfg)]:
            for p in trial_division_primes(100):
                for k in range(1, 5):
                    former = Fraction(p) ** (k - 1) * (Fraction(p, 2) + eps.at(p))
                    assert delta_prime_power(p, k, eps) == former

    def test_against_oracle(self, rng):
        for eps in (EPS_ZERO, EPS_HALF, EPS_ONE):
            for _ in range(100):
                n = rng.randint(1, 10**4)
                assert delta(n, eps) == exact_delta(n, eps)

    def test_multiplicativity(self, rng):
        pairs = 0
        while pairs < 1000:
            u = rng.randint(1, 10**4)
            v = rng.randint(1, 10**4)
            if math.gcd(u, v) != 1 or u * v > 10**8:
                continue
            assert delta(u * v, EPS_HALF) == delta(u, EPS_HALF) * delta(v, EPS_HALF)
            pairs += 1


class TestSquarefree:
    @pytest.mark.parametrize("n,expected", [(10, True), (12, False), (1, True), (49, False)])
    def test_examples(self, n, expected):
        assert is_squarefree(n) is expected

    def test_against_divisibility_scan(self):
        for n in range(1, 2000):
            oracle = all(n % (d * d) for d in range(2, math.isqrt(n) + 1))
            assert is_squarefree(n) is oracle


def spf_oracle(limit):
    """Smallest-prime-factor table for 2..limit (the per-n reference loop)."""
    spf = np.zeros(limit + 1, dtype=np.int64)
    for p in range(2, limit + 1):
        if spf[p] == 0:
            sl = spf[p::p]
            sl[sl == 0] = p
    return spf


def delta_terms_oracle(x, eps):
    """Yield (n, delta(n) as float, squarefree?) for n = 1..x via one SPF pass."""
    yield 1, 1.0, True
    if x < 2:
        return
    spf = spf_oracle(x)
    eps_f = {}
    for n in range(2, x + 1):
        m = n
        d = 1.0
        squarefree = True
        while m > 1:
            p = int(spf[m])
            k = 0
            while m % p == 0:
                m //= p
                k += 1
            if k > 1:
                squarefree = False
            e = eps_f.get(p)
            if e is None:
                e = eps_f[p] = float(eps.at(p))
            d *= p ** (k - 1) * (p / 2.0 + e)
        yield n, d, squarefree


def series_oracle(xs, eps):
    """(M, T, T over all n) at each x, by fsum over the per-n terms."""
    want = set(xs)
    at = {}
    m_terms, t_terms, ta_terms = [], [], []
    for n, d, sf in delta_terms_oracle(max(xs), eps):
        if sf:
            m_terms.append(1.0 / d)
            t_terms.append(n * n / d)
        ta_terms.append(n * n / d)
        if n in want:
            at[n] = (math.fsum(m_terms), math.fsum(t_terms), math.fsum(ta_terms))
    return tuple(zip(*(at[x] for x in xs)))


# overrides below and above sqrt(x) for the x used with it, a duplicate key
# (the first one wins), a composite key and a prime beyond every x
EPS_OVERRIDES = EpsilonSpec(
    default=Fraction(1, 3),
    overrides=(
        (2, Fraction(1, 7)), (3, Fraction(0)), (3, Fraction(5)), (53, Fraction(2, 9)),
        (91, Fraction(4)), (997, Fraction(3, 11)), (1009, Fraction(1, 10**6)),
        (4999, Fraction(7)), (10007, Fraction(1)),
    ),
)


class TestPartialSumsAgainstLoop:
    # 1, 2, a prime, prime powers, and x with primes above sqrt(x) overridden
    XS = (1, 2, 3, 4, 97, 121, 128, 1009, 5000)

    @pytest.mark.parametrize("eps", [EPS_ZERO, EPS_HALF, EPS_ONE, EPS_OVERRIDES])
    def test_partial_sums_equal(self, eps):
        for x in self.XS:
            m, t, t_all = series_oracle([x], eps)
            assert m_partial_sum(x, eps) == m[0]
            assert t_partial_sum(x, eps) == t[0]
            assert t_partial_sum(x, eps, squarefree_only=False) == t_all[0]

    @pytest.mark.parametrize("eps", [EPS_HALF, EPS_OVERRIDES])
    def test_series_table_equal(self, eps):
        xs = [1, 2, 97, 1009, 4096, 20000]
        tab = series_table(xs, eps, trunc_prime=100)
        assert (tab.m_values, tab.t_values, tab.t_all_values) == series_oracle(xs, eps)


def whole_table_delta(x, eps):
    """delta(n) as float64 and the squarefree mask for n = 0..x, sieved over the
    whole table at once: the route the segment sieve replaced, kept as its
    exact oracle.  Entry 0 is unused."""
    d = np.ones(x + 1)
    squarefree = np.ones(x + 1, dtype=bool)
    squarefree[0] = False
    rest = np.arange(x + 1, dtype=np.int64)
    root = math.isqrt(x)
    for p in sieve_primes(root).tolist():
        e = float(eps.at(p))
        # exponent of p in n = j*p is 1 + (exponent of p in j)
        k = np.ones(x // p, dtype=np.int8)
        q = p
        while q * p <= x:
            k[q - 1 :: q] += 1
            rest[q::q] //= p
            q *= p
        rest[q::q] //= p
        factors = [1.0] + [p ** (j - 1) * (p / 2.0 + e) for j in range(1, int(k.max()) + 1)]
        d[p::p] *= np.array(factors)[k]
        squarefree[p * p :: p * p] = False
    factor = rest / 2.0
    factor += float(eps.default)
    for q, v in reversed(eps.overrides):
        # the multiples of a prime q > sqrt(x) are exactly the n whose cofactor is q
        if root < q <= x and rest[q] == q:
            factor[q::q] = q / 2.0 + float(v)
    np.multiply(d, factor, out=d, where=rest > 1)
    return d, squarefree


def whole_table_sums(xs, eps):
    """(M, T, T over all n) at each x: math.fsum of the whole table's terms up to x."""
    d, squarefree = whole_table_delta(max(xs), eps)
    t_all = np.arange(len(d), dtype=np.int64)
    t_all *= t_all
    t_all = t_all / d
    positive = np.arange(len(d)) > 0

    def fsums(terms, keep):  # over the n <= x that keep holds
        return tuple(math.fsum(terms[: x + 1][keep[: x + 1]].tolist()) for x in xs)

    return fsums(1.0 / d, squarefree), fsums(t_all, squarefree), fsums(t_all, positive)


class TestSegmentedPartialSums:
    """The segment sieve and running sums against the whole-table route, with ==,
    at and around segment ends: x = 1, s - 1, s, s + 1 and 2s + 1 one at a time
    (each x ends a segment), then on one grid with several x in one segment."""

    @pytest.mark.parametrize("segment", [7, 64, 1000, None])
    @pytest.mark.parametrize("eps", [EPS_ZERO, EPS_HALF, EPS_OVERRIDES])
    def test_equal_to_whole_table(self, monkeypatch, segment, eps):
        import energysieve.arith as arith

        if segment is not None:
            monkeypatch.setattr(arith, "_SERIES_SEGMENT", segment)
        s = arith._SERIES_SEGMENT
        edges = [1, s - 1, s, s + 1, 2 * s + 1]
        grid = sorted({*edges, s + 2, s + 3, s + s // 2})
        want = dict(zip(grid, zip(*whole_table_sums(grid, eps))))
        for x in edges:
            assert tuple(c[0] for c in arith._partial_sums((x,), eps)) == want[x], x
        assert arith._partial_sums(grid, eps) == tuple(zip(*(want[x] for x in grid)))

    # n = 3^3 * 5^2 * 7 * 11: in segments of 8 values every prime but 2 has
    # p^2 above the segment length, so n takes p^3, p^2 and two more primes
    # through the vector path
    EDGE = 3**3 * 5**2 * 7 * 11

    def test_large_prime_powers_at_segment_edges(self, monkeypatch):
        import energysieve.arith as arith

        # overrides on the large primes 3 (listed twice) and 53
        eps = EPS_OVERRIDES
        monkeypatch.setattr(arith, "_SERIES_SEGMENT", 8)
        n = self.EDGE
        union = [n - 5, n - 1, n, n + 7]
        want = series_oracle(union, eps)
        assert want == whole_table_sums(union, eps)
        want = dict(zip(union, zip(*want)))
        # each x ends a segment: n ends one of 5 values, then starts one of 8
        for grid in [n - 5, n], [n - 1, n + 7]:
            assert arith._partial_sums(grid, eps) == tuple(zip(*(want[x] for x in grid))), grid

    def test_peak_fixed_in_x(self):
        import energysieve.arith as arith

        peaks = []
        for x in 2 * 10**5, 10**6:
            tracemalloc.start()
            try:
                t_partial_sum(x, EPS_OVERRIDES)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # one full segment's arrays and a few small fixed buffers; the whole
        # table took 26 bytes per n <= x
        assert max(peaks) <= arith._SERIES_BYTES * arith._SERIES_SEGMENT + 2**19, peaks

    def test_runs_under_small_cap(self, monkeypatch):
        monkeypatch.setenv(MEMORY_CAP_ENV, str(16 * 2**20))
        tab = series_table([10**6], EPS_HALF)
        assert tab.t_all_values[0] > tab.t_values[0] > 0


class TestPrefixSums:
    """The exact running sum `_ExactSum` fed in chunks, read after each one
    against math.fsum of every term added so far, compared with ==."""

    @staticmethod
    def check(terms, ends):
        """One accumulator fed terms[start:end] for each of the nondecreasing ends."""
        from energysieve.arith import _ExactSum

        acc = _ExactSum()
        got, start = [], 0
        for end in ends:
            acc.add(terms[start:end])
            start = end
            got.append(acc.value())
        assert got == [math.fsum(terms[:end].tolist()) for end in ends]
        return tuple(got)

    def test_random_magnitudes(self):
        gen = np.random.default_rng(5)
        size = 3 * (1 << 12) + 5
        mags = 10.0 ** gen.uniform(-300, 300, size)
        signs = gen.choice([-1.0, 1.0], size)
        ends = [0, 1, 4095, 4096, 4097, 8192, size - 1, size]
        self.check(mags, ends)
        self.check(mags * signs, ends)

    def test_cancellation(self):
        # fsum's classic cases: the exact sums are 2.0, 1e-100 and 0.0
        self.check(np.array([1e100, 1.0, -1e100, 1.0]), [1, 2, 3, 4])
        self.check(np.array([1e308, 1e-100, -1e308]), [1, 2, 3])
        self.check(np.array([0.1] * 10 + [-0.1] * 10), [10, 20])

    def test_subnormals_and_zeros(self):
        tiny = np.array([5e-324, 0.0, 2.2250738585072014e-308, -0.0, 1e-310, 3e-320, 0.0])
        self.check(tiny, range(len(tiny) + 1))
        # subnormal sums that cross into the normal range, and halfway cases
        self.check(np.array([2.2250738585072009e-308] * 3 + [5e-324]), [1, 2, 3, 4])
        self.check(np.array([1.0, 2.0**-53, 2.0**-105]), [2, 3])

    def test_block_boundaries(self):
        gen = np.random.default_rng(9)
        for size in (1 << 12) - 1, 1 << 12, (1 << 12) + 1, 2 << 12:
            terms = gen.random(size) * 1e6
            self.check(terms, [size])
            self.check(terms, [size // 3, size - 1, size])

    def test_empty_and_repeated_ends(self):
        terms = np.array([1.5, 2.25, 1e-3])
        assert self.check(terms, []) == ()
        assert self.check(np.empty(0), [0, 0]) == (0.0, 0.0)
        # a repeated end adds an empty chunk and reads the same value again
        self.check(terms, [0, 1, 1, 3, 3])

    @pytest.mark.parametrize("fold", [1, 2, 7, 4096])
    def test_fold_interval(self, monkeypatch, fold):
        import energysieve.arith as arith

        monkeypatch.setattr(arith, "_FOLD_TERMS", fold)
        gen = np.random.default_rng(fold)
        terms = 10.0 ** gen.uniform(-30, 30, 10_000) * gen.choice([-1.0, 1.0], 10_000)
        # subnormals of either sign among the normal terms
        tiny = len(terms[::97])
        terms[::97] = gen.integers(1, 2**52, tiny) * 5e-324 * gen.choice([-1.0, 1.0], tiny)
        # chunks that end just before, at and after a fold, and that span several
        ends = {0, 1, 2, 7, fold - 1, fold, fold + 1, 3 * fold + 2, 4095, 4097, 9999, 10_000}
        self.check(terms, sorted(end for end in ends if 0 <= end <= len(terms)))


class TestPartialSumMemory:
    def test_cap_refuses_series_table(self, monkeypatch):
        monkeypatch.setenv(MEMORY_CAP_ENV, str(10**6))
        with pytest.raises(ResourceLimitError):
            series_table([10**5], EPS_HALF)
        with pytest.raises(ResourceLimitError):
            m_partial_sum(10**5, EPS_HALF)

    def test_square_overflow_refused(self):
        # n^2 is formed in int64; x beyond its square root is refused up front
        with pytest.raises(ResourceLimitError):
            t_partial_sum(math.isqrt(2**63 - 1) + 1, EPS_ZERO)

    def test_counted_bytes_cover_peak(self, monkeypatch):
        import energysieve.arith as arith

        counted = []
        monkeypatch.setattr(arith, "check_allocation", lambda nbytes, what: counted.append(nbytes))
        x = 2 * 10**5
        tracemalloc.start()
        try:
            arith.t_partial_sum(x, EPS_OVERRIDES)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # what the per-entry count leaves out is a few small fixed buffers:
        # the primes up to sqrt(x) and the exponent bins of the prefix sums
        assert peak <= max(counted) + 2**16

    @pytest.mark.parametrize("x", [10**5, 10**6])
    def test_counted_against_traced(self, monkeypatch, x):
        import energysieve.arith as arith

        counted = []
        monkeypatch.setattr(arith, "check_allocation", lambda nbytes, what: counted.append(nbytes))
        tracemalloc.start()
        try:
            arith.t_partial_sum(x, EPS_OVERRIDES)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= max(counted) + 2**16 and max(counted) <= 2 * peak


class TestPartialSums:
    def test_m_tiny(self):
        assert m_partial_sum(1, EPS_ZERO) == 1.0
        assert m_partial_sum(2, EPS_ZERO) == 2.0

    def test_m_ten_exact_oracle(self):
        expected = Fraction(0)
        for n in range(1, 11):
            if all(n % (d * d) for d in range(2, 4)):
                expected += 1 / exact_delta(n, EPS_ZERO)
        assert expected == Fraction(464, 105)
        assert m_partial_sum(10, EPS_ZERO) == pytest.approx(float(expected), abs=1e-12)

    def test_t_tiny(self):
        assert t_partial_sum(1, EPS_ZERO) == 1.0
        assert t_partial_sum(2, EPS_ZERO) == 5.0

    def test_t_hundred_exact_oracle(self):
        expected = Fraction(0)
        for n in range(1, 101):
            if all(n % (d * d) for d in range(2, 11)):
                expected += n * n / exact_delta(n, EPS_ZERO)
        assert t_partial_sum(100, EPS_ZERO) == pytest.approx(float(expected), rel=1e-12)
        ratio = t_partial_sum(100, EPS_ZERO) / (100**2 * math.log(100))
        assert ratio > 0

    def test_unrestricted_variant_includes_more(self):
        assert t_partial_sum(12, EPS_ZERO, squarefree_only=False) > t_partial_sum(12, EPS_ZERO)

    def test_monotone_in_x(self):
        for fn in (m_partial_sum, t_partial_sum):
            values = [fn(x, EPS_HALF) for x in range(1, 60)]
            assert all(a <= b for a, b in zip(values, values[1:]))

    def test_growth_band(self):
        # t(x)/(x^2 log x) bounded below, bounded spread across the grid
        ratios = [
            t_partial_sum(x, EPS_ZERO) / (x * x * math.log(x))
            for x in (10**2, 10**3, 10**4, 10**5)
        ]
        assert min(ratios) > 0
        assert max(ratios) / min(ratios) < 10

    def test_m_quadratic_log_growth(self):
        ratios = [m_partial_sum(x, EPS_ZERO) / math.log(x) ** 2 for x in (10**3, 10**4, 10**5)]
        assert max(ratios) / min(ratios) < 2
        # drifts toward singular/2; recorded, not asserted as a limit
        target = singular_series(EPS_ZERO, 10**5) / 2
        assert abs(ratios[-1] - target) < abs(ratios[0] - target)


class TestSingularSeries:
    def test_single_factor(self):
        assert singular_series(EPS_ZERO, 2) == pytest.approx(0.5, abs=1e-15)

    def test_two_factors(self):
        assert singular_series(EPS_ZERO, 3) == pytest.approx(10 / 27, abs=1e-15)

    def test_truncation_converged(self):
        assert abs(singular_series(EPS_ZERO, 10**5) - singular_series(EPS_ZERO, 10**4)) < 1e-4

    @pytest.mark.parametrize(
        "eps",
        [
            EPS_ZERO,
            EPS_HALF,
            EpsilonSpec(Fraction(1, 3), ((2, Fraction(5, 7)), (7, Fraction(0)), (99991, Fraction(2)))),
        ],
    )
    @pytest.mark.parametrize("trunc", [2, 3, 1000, 10**5])
    def test_equals_fraction_loop(self, eps, trunc):
        # the former product: one Fraction delta(p) per prime, rounded by float()
        out = 1.0
        for p in sieve_primes(trunc).tolist():
            out *= (1.0 - 1.0 / p) ** 2 * (1.0 + 1.0 / float(delta_prime_power(p, 1, eps)))
        assert singular_series(eps, trunc) == out


class TestSeriesTable:
    def test_columns_consistent(self):
        tab = series_table([10, 100, 1000], EPS_ZERO, trunc_prime=10**4)
        assert tab.m_values == tuple(m_partial_sum(x, EPS_ZERO) for x in tab.xs)
        assert tab.t_values == tuple(t_partial_sum(x, EPS_ZERO) for x in tab.xs)
        assert all(a < b for a, b in zip(tab.m_values, tab.m_values[1:]))
        assert all(t <= ta for t, ta in zip(tab.t_values, tab.t_all_values))
        assert tab.singular > 0

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            series_table([], EPS_ZERO)

    def test_grid_order_checked_before_sieving(self, monkeypatch):
        import energysieve.arith as arith

        def sieve(limit):
            raise AssertionError("sieved")

        monkeypatch.setattr(arith, "sieve_primes", sieve)
        for xs in ([10**8, 10], [10, 10]):
            with pytest.raises(ValueError, match="strictly increasing"):
                series_table(xs, EPS_ZERO)

    def test_benchmark_scale_values(self):
        # the nine partial sums of the benchmark's divisor-series reference
        tab = series_table([10**4, 10**5, 10**6], EPS_HALF)
        assert tab.m_values == (16.450035914045735, 22.847798736558286, 30.248770521530663)
        assert tab.t_values == (123443199.40237677, 14511801545.872808, 1668613863236.6626)
        assert tab.t_all_values == (206925556.44097006, 24813051629.468285, 2893785563365.401)


class TestEpsilonSpec:
    def test_presets(self):
        assert EPS_ZERO.at(7) == 0
        assert EPS_HALF.at(2) == Fraction(1, 2)
        assert EPS_ONE.bound == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            EpsilonSpec.constant(-1)
        with pytest.raises(ValueError):
            EpsilonSpec(default=Fraction(0), overrides=((3, Fraction(-1, 2)),))

    def test_bound_is_sup(self):
        spec = EpsilonSpec(default=Fraction(1, 4), overrides=((2, Fraction(3)), (5, Fraction(1))))
        assert spec.bound == 3
        assert spec.at(2) == 3
        assert spec.at(7) == Fraction(1, 4)

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "eps.txt"
        cfg.write_text("# per-prime overrides\ndefault=1/2\n2=0.25\n7=2/3\n")
        spec = EpsilonSpec.from_file(cfg)
        assert spec.at(2) == Fraction(1, 4)
        assert spec.at(7) == Fraction(2, 3)
        assert spec.at(11) == Fraction(1, 2)

    def test_config_file_errors(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("default=1/2\nnot a line\n")
        with pytest.raises(ValueError):
            EpsilonSpec.from_file(bad)
        bad.write_text("7=1/0\n")
        with pytest.raises(ValueError):
            EpsilonSpec.from_file(bad)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("default=1/2\n3=1/2\n# again\n3=1\n", 4),
            ("3=1/2\n03=1/2\n", 2),
            ("default=1/2\n5=1\ndefault=1\n", 3),
        ],
    )
    def test_config_file_repeated_key(self, tmp_path, text, line):
        cfg = tmp_path / "eps.txt"
        cfg.write_text(text)
        with pytest.raises(ValueError, match=f"eps.txt:{line}: repeated key"):
            EpsilonSpec.from_file(cfg)
