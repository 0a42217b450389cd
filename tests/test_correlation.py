import math
from fractions import Fraction

import numpy as np
import pytest

from energysieve import correlation, sets, sieve
from energysieve.arith import EPS_HALF, EPS_ZERO, EpsilonSpec, delta_prime_power
from energysieve.correlation import (
    energy_decomposition,
    energy_lower_bound,
    is_diff_of_squares,
    largest_sidon_prime,
    quadratic_hits,
    ramanujan_ratio,
    ramanujan_row,
    correlation_row,
    sidon_report,
    sidon_row,
)
from energysieve.energy import energy_sum_path, rep_sum
from energysieve.sets import (
    IntegerSet,
    is_sidon,
    mod4_restrict,
    quadratic_image,
    residue_avoiding_random,
    sidon_set,
    squares_up_to,
)
from conftest import make_random_set


def diff_of_squares_oracle(k, n_cap):
    """Existence of 0 <= m < n <= n_cap with n^2 - m^2 = k, by enumeration."""
    for d in range(1, n_cap):
        # k = (n-m)(n+m) = d*(2m+d), m >= 0
        rem = k - d * d
        if rem < 0:
            break
        if rem % (2 * d) == 0:
            return True
    return False


class TestDecomposition:
    def test_squares16_all_paths(self):
        rep = energy_decomposition(squares_up_to(16), 16)
        assert rep.energy == rep.via_square_pairs == rep.via_factor_pairs == 28
        assert rep.ok

    def test_no_offdiagonal_hits(self):
        # differences of {2,3} are +-1, never a difference of two squares
        A = IntegerSet.from_elements(16, [2, 3])
        rep = energy_decomposition(A, 16)
        assert rep.energy == 2 * 4

    def test_singleton(self):
        A = IntegerSet.from_elements(100, [37])
        rep = energy_decomposition(A, 100)
        assert rep.energy == rep.card_s == 10

    def test_structured_and_random(self, rng):
        cases = [
            (squares_up_to(2000), 2000),
            (sidon_set(13, 1000), 1000),
            (quadratic_image(1, 3, -2, 1500), 1500),
            (quadratic_image(-2, 1, 900, 1000), 1000),
        ]
        for _ in range(25):
            A = make_random_set(rng, rng.randint(20, 3000), 100)
            cases.append((A, A.cap))
        for A, n in cases:
            rep = energy_decomposition(A, n)
            assert rep.ok
            # cross-check route (i) against the energy module's own value
            assert rep.energy == energy_sum_path(A, squares_up_to(n)).value


class TestDiffOfSquares:
    def test_examples(self):
        assert is_diff_of_squares(6) is False
        assert is_diff_of_squares(8) is True  # 8 = 3^2 - 1^2
        assert is_diff_of_squares(-6) is False
        assert is_diff_of_squares(-8) is True

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            is_diff_of_squares(0)

    def test_sweep_against_enumeration(self):
        for k in range(1, 10001):
            assert is_diff_of_squares(k) is diff_of_squares_oracle(k, (k + 3) // 2 + 2)


class TestLowerBound:
    def test_squares(self):
        rep = energy_lower_bound(squares_up_to(10**4), 10**4)
        assert rep.holds
        assert rep.half_divisor_sum <= rep.energy
        assert 0 <= rep.ratio <= 1

    def test_tiny_set(self):
        rep = energy_lower_bound(IntegerSet.from_elements(100, [8, 24]), 100)
        assert rep.restricted_card == 2
        assert rep.holds
        # by hand: restricted set {8,24}, difference 16, radius isqrt(100)/2=5,
        # 16=2*8? 8>5 no; 16=4*4 not u<v; so half sum is 0
        assert rep.half_divisor_sum == 0.0

    def test_empty(self):
        rep = energy_lower_bound(IntegerSet.from_elements(10, []), 10)
        assert rep.holds
        assert rep.energy == 0

    def test_random_avoiding_sweep(self, rng):
        for seed in range(30):
            A = residue_avoiding_random(10**4, EPS_HALF, 11, seed=seed, strategy="qr")
            if len(A) == 0:
                continue
            rep = energy_lower_bound(A, 10**4)
            assert rep.holds

    def test_random_sets(self, rng):
        for _ in range(40):
            A = make_random_set(rng, 2000, 80)
            assert energy_lower_bound(A, A.cap).holds

    def test_restriction_used(self, rng):
        A = make_random_set(rng, 500, 60)
        rep = energy_lower_bound(A, 500)
        assert rep.restricted_card == len(mod4_restrict(A))


class TestQuadraticHits:
    def test_squares_100(self):
        # full-table oracle: the peak representation count over all shifts
        S = squares_up_to(100)
        table = rep_sum(S, S)
        assert table.max_count() == 4
        rep = quadratic_hits(S, 100)
        assert rep.count == 4
        assert rep.shift == 65  # smallest of the count-4 shifts
        assert rep.witnesses == ((1, 64), (4, 49), (7, 16), (8, 1))
        assert rep.quadratic() == (-1, 0, 65)

    def test_singleton(self):
        rep = quadratic_hits(IntegerSet.from_elements(50, [9]), 50)
        assert rep.count == 1
        assert rep.shift == 10  # a + 1 is the smallest shift hit
        assert rep.witnesses == ((1, 9),)

    def test_planted_quadratic(self):
        A = quadratic_image(1, 0, 5, 2000)
        rep = quadratic_hits(A, 2000)
        # every a = x^2 + 5 is hit by the shift through a reflected parabola;
        # at minimum the structure gives a healthy peak
        assert rep.count >= 3
        for x, a in rep.witnesses:
            assert a in A
            assert a == rep.shift - x * x

    def test_count_matches_full_table(self, rng):
        for _ in range(20):
            A = make_random_set(rng, 800, 60)
            rep = quadratic_hits(A, 800)
            assert rep.count == rep_sum(A, squares_up_to(800)).max_count()
            assert rep.chain_mid <= rep.chain_rhs


class TestSidonReport:
    def test_generated(self):
        X = sidon_set(23, 10**4)
        rep = sidon_report(X, 10**4)
        assert rep.holds
        assert rep.energy <= rep.linear_bound

    def test_singleton(self):
        X = IntegerSet.from_elements(100, [7])
        rep = sidon_report(X, 100)
        assert rep.energy == 10  # E({a}, S) = |S|
        assert rep.holds

    def test_small_fixture(self):
        X = IntegerSet.from_elements(100, [1, 2, 5, 11])
        rep = sidon_report(X, 100)
        brute = energy_sum_path(X, squares_up_to(100)).value
        assert rep.energy == brute
        assert rep.energy <= 10 * 14

    def test_non_sidon_rejected(self):
        X = IntegerSet.from_elements(10, [1, 2, 3])
        with pytest.raises(ValueError):
            sidon_report(X, 10)

    def test_occupancy_profile_present(self):
        rep = sidon_report(sidon_set(11, 300), 300, prime_bound=30)
        assert [p for p, _ in rep.occupancies] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


    @pytest.mark.parametrize("X, N", [(sidon_set(11, 300), 300), (sidon_set(23, 10**4), 10**4),
                                      (IntegerSet.from_elements(100, [2, 4, 8, 16, 32]), 100)])
    @pytest.mark.parametrize("eps", [EPS_ZERO, EPS_HALF, EpsilonSpec.constant(Fraction(3))])
    def test_one_occupancy_pass_per_prime(self, monkeypatch, X, N, eps):
        moduli = []

        def spy(A, v):
            moduli.append(int(v))
            return sets.occupancy(A, v)

        monkeypatch.setattr(correlation, "occupancy", spy)
        monkeypatch.setattr(sieve, "occupancy", spy)
        rep = sidon_report(X, N, eps, prime_bound=30)
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert moduli == primes
        assert rep.occupancies == tuple((p, sets.occupancy(X, p).occupancy) for p in primes)
        assert rep.hypothesis_ok == all(
            occupied <= delta_prime_power(p, 1, eps) for p, occupied in rep.occupancies
        )


class TestRamanujanRatio:
    def test_n16(self):
        assert ramanujan_ratio(16) == pytest.approx(28 / (16 * math.log(16)), abs=1e-12)

    def test_drift_toward_quarter(self):
        r4 = ramanujan_ratio(10**4)
        r5 = ramanujan_ratio(10**5)
        assert abs(r5 - 0.25) < abs(r4 - 0.25)

    def test_too_small(self):
        with pytest.raises(ValueError):
            ramanujan_ratio(3)

    def test_second_order_constant(self):
        # E(S,S)/(N log N) = c + c1/log N + o(1/log N), with c = 1/4 +
        # 4 int_1^2 ((pi/2 - 2 arccos t^(-1/2)) / (2 pi))^2 dt and c1 = 0.775...;
        # t = 1 + s^2 turns arccos t^(-1/2) into arctan s, a smooth integrand
        s, w = np.polynomial.legendre.leggauss(20)
        s, w = (s + 1) / 2, w / 2
        c = 0.25 + 8 * float(np.dot(w, s * ((math.pi / 2 - 2 * np.arctan(s)) / (2 * math.pi)) ** 2))
        assert c == pytest.approx(0.280922, abs=1e-6)
        for N in (10**4, 10**5, 10**6):
            assert 0.769 <= (ramanujan_row(N).ratio_log - c) * math.log(N) <= 0.777, N


class TestRows:
    def test_correlation_row_squares(self):
        row = correlation_row(squares_up_to(1000), 1000)
        assert row.card_a == row.card_s == 31
        assert row.energy >= row.card_a * row.card_s
        assert row.ratio_as == row.energy / (31 * 31)

    def test_monotone_correlation_growth(self):
        ratios = [
            correlation_row(squares_up_to(n), n).ratio_as for n in (10**3, 10**4, 10**5)
        ]
        assert ratios[0] < ratios[1] < ratios[2]

    def test_ramanujan_row(self):
        row = ramanujan_row(16)
        assert row.energy == 28
        assert row.ratio_log == pytest.approx(28 / (16 * math.log(16)))

    def test_sidon_row(self):
        row = sidon_row(3000)
        assert row.energy <= row.lower_bound  # column carries the linear cap
        p = largest_sidon_prime(3000)
        assert 2 * p * p + p <= 3000
        assert row.card_a == p

    def test_largest_sidon_prime(self):
        for n in (10, 100, 3000, 10**4):
            p = largest_sidon_prime(n)
            assert all(p % q for q in range(2, math.isqrt(p) + 1))
            if 2 * p * p + p <= n:
                X = sidon_set(p, n)
                assert is_sidon(X)
