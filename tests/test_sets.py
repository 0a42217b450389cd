import itertools
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

import energysieve.sets as sets
from energysieve.arith import EPS_HALF, EPS_ZERO, EpsilonSpec, sieve_primes
from energysieve.errors import ResourceLimitError, SetFileError
from energysieve.sets import (
    IntegerSet,
    is_sidon,
    mod4_restrict,
    occupancy,
    quadratic_image,
    read_set,
    residue_avoiding_random,
    sidon_set,
    squares_up_to,
    write_set,
)
from conftest import make_random_set


def sidon_oracle(elements):
    """Brute force: all pairwise sums x_i + x_j (i <= j) are distinct."""
    sums = [a + b for a, b in itertools.combinations_with_replacement(elements, 2)]
    return len(sums) == len(set(sums))


class TestIntegerSet:
    def test_membership_agrees_with_elements(self, rng):
        for _ in range(50):
            A = make_random_set(rng, rng.randint(1, 500), 60)
            assert len(A) == len(A.elements)
            assert [n for n in range(-2, A.cap + 4) if n in A] == list(A.elements)
            assert np.int64(A.elements[0]) in A and 2**63 not in A and -(2**70) not in A
        assert 1 not in IntegerSet.from_elements(10, [])

    def test_range_validation(self):
        with pytest.raises(ValueError):
            IntegerSet.from_elements(10, [0, 5])
        with pytest.raises(ValueError):
            IntegerSet.from_elements(10, [11])

    def test_elements_beyond_int64_refused(self):
        # stored as int64, 2^63 + 1 would wrap to -2^63 + 1
        message = f"element {2**63 + 1} outside [1, {2**63 - 1}]"
        for elements in (np.array([1, 2**63 + 1], dtype=np.uint64), [1, 2**63 + 1]):
            with pytest.raises(ValueError) as err:
                IntegerSet.from_elements(2**64, elements)
            assert str(err.value) == message
        top = IntegerSet.from_elements(2**64, np.array([2**63 - 1], dtype=np.uint64))
        assert top.elements.tolist() == [2**63 - 1]

    def test_immutable(self):
        A = IntegerSet.from_elements(10, [1, 2])
        with pytest.raises(ValueError):
            A.elements[0] = 5

    def test_membership_allocates_nothing_by_value(self):
        A = IntegerSet.from_elements(10**12, [3, 10**6, 10**12])
        assert not hasattr(A, "mask")
        tracemalloc.start()
        try:
            found = [n in A for n in (3, 10**6, 10**12, 4, 10**9, 0, 10**12 + 1, 2**63, 10**30)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert found == [True] * 3 + [False] * 6
        assert peak < 2**16

    def test_construction_counts_no_table_by_value(self, monkeypatch):
        counted = []
        monkeypatch.setattr(sets, "check_allocation", lambda nbytes, what: counted.append(nbytes))
        A = IntegerSet.from_elements(10**30, [1, 5])
        assert counted == [] and 5 in A
        squares_up_to(10**6)
        assert counted == [16 * 1000]  # the squares and their copy, not the cap

    @pytest.mark.parametrize("build", [
        lambda: squares_up_to(10**7),
        lambda: sidon_set(int(sieve_primes(2236)[-1]), 10**7),  # 2p^2 + p <= 1e7
    ])
    def test_sparse_sets_allocate_no_mask(self, build):
        tracemalloc.start()
        try:
            A = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert A.cap == 10**7 and len(A) > 2000
        assert peak < 2**20

    @pytest.mark.parametrize("build", [
        # 19,700 distinct values, all kept: the worst peak per x
        lambda: quadratic_image(3, 1, 2, 3 * 9850**2),
        lambda: quadratic_image(1, 0, 0, 10**9),                 # two x per value
        lambda: quadratic_image(-1, 0, 10**10, 10**10),          # two x ranges
        lambda: sidon_set(2999, 2 * 2999**2 + 2999),
        lambda: sidon_set(int(sieve_primes(2236)[-1]), 10**7),
        lambda: squares_up_to(10**8),                            # 10^4 squares
        # N >= 2^63 with every value below 2^63: 19,207 x, counted as any N
        lambda: quadratic_image(10**11, 1, 1, 2**63),
        # every value survives (eps = 20 allows every class)
        lambda: residue_avoiding_random(10**6, EpsilonSpec.constant(Fraction(20)), 31, 0,
                                        strategy="uniform"),
        # the residues and the counts modulo 10^6 + 3; the 40 KB input set,
        # made inside the trace, is the rest of the peak
        lambda: occupancy(squares_up_to(25 * 10**6), 10**6 + 3),
        # 1,319 of 10^6 values survive: the two byte masks are the peak
        lambda: residue_avoiding_random(10**6, EPS_HALF, 31, 0, strategy="uniform"),
    ])
    def test_constructions_count_their_peak(self, monkeypatch, build):
        """Counted against traced at a stated shape: peak <= counted + 64 KiB
        and counted <= 2 peak."""
        counted = []
        monkeypatch.setattr(sets, "check_allocation", lambda nbytes, what: counted.append(nbytes))
        tracemalloc.start()
        try:
            A = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(A) > 1000 and peak <= max(counted) + 2**16
        assert max(counted) <= 2 * peak

    @pytest.mark.parametrize("build, message", [
        (lambda: quadratic_image(1, 0, 0, 10**30), "quadratic image over 2000000000000000 values"),
        (lambda: quadratic_image(3, 1, 2, 10**40), "quadratic image over"),  # past 2^63 values
        (lambda: sidon_set(1000000007, 10**30), "Sidon construction over 1000000007 indices"),
    ])
    def test_huge_constructions_refused_before_drawing(self, build, message):
        with pytest.raises(ResourceLimitError, match=message):
            build()

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint16, np.uint64])
    def test_array_path_matches_python_path(self, rng, dtype):
        for size in (0, 1, 2, 50, 400):
            values = [rng.randint(1, 1000) for _ in range(size)]  # unsorted, with repeats
            for given in (values, sorted(values), sorted(set(values))):
                A = IntegerSet.from_elements(1000, np.array(given, dtype=dtype))
                B = IntegerSet.from_elements(1000, given)
                assert A.elements.dtype == B.elements.dtype == np.int64
                assert list(A.elements) == list(B.elements) == sorted(set(values))
                assert not A.elements.flags.writeable

    def test_distinct_values_without_numpy_ma(self):
        # np.unique imports numpy.ma on its first call; the unsorted array path,
        # quadratic images and Gallagher's primes above |A| keep first occurrences
        code = """if True:
            import json, sys
            import numpy as np
            from energysieve.sets import IntegerSet, quadratic_image
            from energysieve.sieve import gallagher_bound
            given = np.random.default_rng(7).integers(1, 5000, 3000)
            A = IntegerSet.from_elements(5000, given)
            small = IntegerSet.from_elements(10**6, given[:40] * 199)
            print(json.dumps({
                "ma": "numpy.ma" in sys.modules,
                "set": A.elements.tolist(),
                "image": quadratic_image(2, -3, 1, 10**6).elements.tolist(),
                "gallagher": gallagher_bound(small, 400),
            }))
        """
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60)
        got = json.loads(out.stdout)
        assert got["ma"] is False
        given = np.random.default_rng(7).integers(1, 5000, 3000)
        assert got["set"] == np.unique(given).tolist()
        x = np.arange(-1000, 1001)
        image = 2 * x * x - 3 * x + 1
        assert got["image"] == np.unique(image[(image >= 1) & (image <= 10**6)]).tolist()
        elements = np.unique(given[:40] * 199)
        num = den = -math.log(10**6)
        for p in sieve_primes(400).tolist():  # 40 elements: most primes lie above |A|
            num += math.log(p)
            den += math.log(p) / len(np.unique(elements % p))
        assert got["gallagher"] == num / den

    @pytest.mark.parametrize("values", [[5, 2, 5, 9], [2, 5, 9]])
    def test_array_path_leaves_its_input_alone(self, values):
        given = np.array(values)
        A = IntegerSet.from_elements(10, given)
        assert list(given) == values and given.flags.writeable
        assert list(A) == [2, 5, 9] and A.elements is not given

    @pytest.mark.parametrize("values", [[0, 5], [11], [5, -3, 2], [12, 0, 4], [-9, 40]])
    def test_out_of_range_same_error_on_both_paths(self, values):
        messages = []
        for elements in (values, np.array(values), np.array(sorted(values)), iter(values)):
            with pytest.raises(ValueError) as err:
                IntegerSet.from_elements(10, elements)
            messages.append(str(err.value))
        bad = min(values) if min(values) < 1 else max(values)
        assert messages == [f"element {bad} outside [1, 10]"] * 4


class TestSquares:
    def test_small(self):
        assert list(squares_up_to(10)) == [1, 4, 9]
        assert list(squares_up_to(1)) == [1]

    def test_hundred(self):
        sq = squares_up_to(100)
        assert len(sq) == 10
        assert list(sq)[-1] == 100

    def test_cardinality_is_isqrt(self):
        for n in (1, 2, 3, 15, 16, 17, 99, 100, 101, 12345):
            assert len(squares_up_to(n)) == math.isqrt(n)


class TestQuadraticImage:
    def test_squares_as_image(self):
        assert list(quadratic_image(1, 0, 0, 10)) == [1, 4, 9]

    def test_shifted(self):
        assert list(quadratic_image(1, 0, -1, 10)) == [3, 8]

    def test_downward(self):
        assert list(quadratic_image(-1, 0, 50, 100)) == [1, 14, 25, 34, 41, 46, 49, 50]

    def test_degenerate(self):
        with pytest.raises(ValueError):
            quadratic_image(0, 1, 1, 10)

    def test_against_enumeration(self, rng):
        for _ in range(50):
            a = rng.choice([-3, -2, -1, 1, 2, 3])
            b = rng.randint(-10, 10)
            c = rng.randint(-50, 50)
            N = rng.randint(1, 500)
            oracle = sorted(
                {
                    a * x * x + b * x + c
                    for x in range(-600, 601)
                    if 1 <= a * x * x + b * x + c <= N
                }
            )
            assert list(quadratic_image(a, b, c, N)) == oracle


    @pytest.mark.parametrize("a", [-3, -2, -1, 1, 2, 3])
    def test_small_coefficients_against_scan(self, a):
        for b in range(-9, 10):
            for c in range(-30, 31, 3):
                for N in (1, 2, 7, 40):
                    scan = sorted(
                        {a * x * x + b * x + c for x in range(-80, 81)} & set(range(1, N + 1))
                    )
                    assert list(quadratic_image(a, b, c, N)) == scan, (a, b, c, N)

    @pytest.mark.parametrize(
        "a, b, c, N, expected",
        [
            (1, 0, 1, 1, [1]),              # q = 1 at its vertex
            (1, -4, 5, 10, [1, 2, 5, 10]),  # (x - 2)^2 + 1: roots of q = 1 and q = 10 integral
            (1, 1, -1, 1, [1]),             # x^2 + x - 1 = 1 at x = 1 and x = -2
            (-1, 0, 10, 10, [1, 6, 9, 10]), # 10 - x^2 = 1 at x = +-3 and = 10 at 0
            (-2, 4, 1, 3, [1, 3]),          # vertex at q(1) = 3 = N
            (2, 0, 0, 1, []),               # no value in [1, 1]
            (-1, 0, 0, 5, []),              # never positive
        ],
    )
    def test_roots_on_the_boundary(self, a, b, c, N, expected):
        assert list(quadratic_image(a, b, c, N)) == expected

    @pytest.mark.parametrize("a, b, c, N", [
        (1, 0, 2**63 - 10, 2**63 + 5),           # x^2 <= 15: up to 2^63 - 1
        (5, 0, 2**63 - 501, 2**63 + 3),          # 5 x^2 <= 500
        (-10**12, 3, 2**63 - 1, 2**64),          # 6,075 values, all below c
        (-10**15, 10**7, 2**63 - 2, 2**70),      # |x| <= 96
    ])
    def test_int64_path_matches_set_path(self, a, b, c, N):
        # every value in [1, N] lies below 2^63, so a cap N >= 2^63 gives the
        # same elements as the cap 2^63 - 1
        wide, narrow = quadratic_image(a, b, c, N), quadratic_image(a, b, c, 2**63 - 1)
        assert len(wide) > 1 and wide.elements.dtype == narrow.elements.dtype == np.int64
        assert (wide.elements == narrow.elements).all()
        assert (wide.cap, narrow.cap) == (N, 2**63 - 1)

    def test_int64_path_matches_generator(self, rng):
        for _ in range(40):
            a = rng.choice([-9, -2, -1, 1, 2, 7])
            b, c = rng.randint(-10**4, 10**4), rng.randint(-10**6, 10**8)
            N = rng.randint(1, 10**8)
            xs = range(-(10**4) - 50, 10**4 + 51)
            values = [a * x * x + b * x + c for x in xs]
            expected = IntegerSet.from_elements(N, (v for v in values if 1 <= v <= N))
            assert list(quadratic_image(a, b, c, N)) == list(expected), (a, b, c, N)

    def test_values_beyond_int64_refused_on_the_set_path(self):
        # a set holds int64 elements, so N >= 2^63 admits no value past 2^63 - 1
        with pytest.raises(ValueError, match="outside"):
            quadratic_image(1, 0, 2**63 - 10, 2**63 + 100)  # x^2 = 100 gives 2^63 + 90

    def test_huge_coefficients(self):
        b = 10**11
        assert list(quadratic_image(1, b, 0, 100)) == []
        assert list(quadratic_image(1, b, 7, 100)) == [7]
        assert list(quadratic_image(-1, 0, 10**18, 10**6)) == []
        assert list(quadratic_image(-1, 0, 10**12 + 5, 10)) == [5]  # x = +-10^6


class TestSidon:
    def test_examples(self):
        assert list(sidon_set(3, 20)) == [1, 8, 14]
        assert list(sidon_set(2, 20)) == [1, 6]
        five = sidon_set(5, 60)
        assert len(five) == 5
        assert is_sidon(five)

    def test_not_prime(self):
        with pytest.raises(ValueError):
            sidon_set(6, 100)

    @pytest.mark.parametrize("triple,expected", [((1, 2, 3), False), ((1, 2, 4), True), ((1, 2, 5, 11), True)])
    def test_is_sidon_examples(self, triple, expected):
        assert is_sidon(IntegerSet.from_elements(max(triple), triple)) is expected

    def test_construction_always_sidon(self):
        for p in sieve_primes(200).tolist():
            X = sidon_set(p, 2 * p * p + p)
            assert len(X) == p
            assert is_sidon(X)
            assert sidon_oracle(list(X))

    def test_truncation_stays_sidon(self):
        X = sidon_set(13, 200)  # 2*13^2+13 = 351 > 200, so truncated
        assert len(X) < 13
        assert is_sidon(X)

    def test_is_sidon_matches_oracle_on_random(self, rng):
        for _ in range(200):
            A = make_random_set(rng, 60, 12)
            assert is_sidon(A) is sidon_oracle(list(A))

    def test_is_sidon_memory_cap(self, monkeypatch):
        X = sidon_set(101, 10**6)  # 101 elements, 5151 pair sums
        monkeypatch.setenv("ENERGYSIEVE_MEMORY_CAP", "40000")
        with pytest.raises(ResourceLimitError):
            is_sidon(X)
        monkeypatch.setenv("ENERGYSIEVE_MEMORY_CAP", str(10**6))
        assert is_sidon(X)

    def test_is_sidon_counted_bytes_cover_peak(self, monkeypatch):
        import tracemalloc

        import energysieve.energy as energy

        X = sidon_set(1009, 10**7)
        counted = []
        monkeypatch.setattr(energy, "check_allocation", lambda nbytes, what: counted.append(nbytes))
        tracemalloc.start()
        try:
            assert is_sidon(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= max(counted) + 2**16

    def test_is_sidon_counted_bytes_cover_peak_fft(self, monkeypatch):
        import energysieve.energy as energy

        # dense enough that the transform is cheaper: one block of r_{X-X}
        # fails, after the whole transform
        rng = np.random.default_rng(3)
        X = IntegerSet.from_elements(200_000, np.flatnonzero(rng.random(200_001) < 0.115)[1:])
        counted, backends = [], []
        count = energy._pair_counts

        def spy(*args, **kwargs):
            out = count(*args, **kwargs)
            backends.append(out[0])
            return out

        monkeypatch.setattr(energy, "_pair_counts", spy)
        monkeypatch.setattr(energy, "check_allocation", lambda nbytes, what: counted.append(nbytes))
        tracemalloc.start()
        try:
            assert not is_sidon(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert backends == ["fft"]
        assert peak <= max(counted) + 2**16

    def test_is_sidon_stops_at_first_failing_block(self, monkeypatch):
        import energysieve.energy as energy

        # 2 - 1 = 3 - 2 repeats in the first block; the span has eight cells,
        # of which the first and last hold differences
        X = IntegerSet.from_elements(10**6, [1, 2, 3, 10**6])
        taken = []
        count = energy._pair_counts

        def spy(*args, **kwargs):
            backend, blocks, resident = count(*args, **kwargs)
            return backend, (taken.append(offset) or (offset, c) for offset, c in blocks), resident

        monkeypatch.setattr(energy, "_pair_counts", spy)
        assert not is_sidon(X)
        assert taken == [1]
        taken.clear()
        assert is_sidon(IntegerSet.from_elements(10**6, [1, 2, 4, 10**6]))
        assert taken == [1, 10**6 - 4]


def residue_filter_oracle(N, eps, prime_bound, seed, strategy):
    """The former filter: the same allowed classes, their number by the former
    float rule floor(p/2 + float(eps(p))), each prime's bits gathered as
    ok[np.arange(N + 1) % p]; the survivors' values."""
    rng = random.Random(seed)
    keep = np.ones(N + 1, dtype=bool)
    keep[0] = False
    for p in sieve_primes(prime_bound).tolist():
        size = max(1, min(int(math.floor(p / 2 + float(eps.at(p)))), p))
        if strategy == "qr":
            allowed = sorted({(x * x) % p for x in range(p)})[:size]
        else:
            allowed = sorted(rng.sample(range(p), size))
        ok = np.zeros(p, dtype=bool)
        ok[allowed] = True
        keep &= ok[np.arange(N + 1) % p]
    return np.flatnonzero(keep)


class TestOccupancy:
    def test_example(self):
        counts = occupancy(IntegerSet.from_elements(16, [1, 4, 9, 16]), 3)
        assert counts.tolist() == [1, 3, 0]
        assert np.count_nonzero(counts) == 2

    def test_modulus_one(self, rng):
        A = make_random_set(rng, 100, 20)
        counts = occupancy(A, 1)
        assert np.count_nonzero(counts) == 1
        assert counts.tolist() == [len(A)]

    def test_counts_sum_to_cardinality(self, rng):
        for _ in range(100):
            A = make_random_set(rng, 2000, 150)
            v = rng.randint(1, 1000)
            counts = occupancy(A, v)
            assert counts.sum() == len(A)
            assert np.count_nonzero(counts) <= min(v, len(A))

    def test_squares_quadratic_residues(self):
        # squares over a full period occupy exactly (p+1)/2 classes mod odd p
        for p in sieve_primes(300).tolist():
            if p == 2:
                continue
            assert np.count_nonzero(occupancy(squares_up_to(p * p), p)) == (p + 1) // 2
        assert np.count_nonzero(occupancy(squares_up_to(10**4), 7)) == 4


    @pytest.mark.parametrize("size", [0, 1, 7, 40])
    def test_matches_bincount_form(self, rng, size):
        A = IntegerSet.from_elements(5000, rng.sample(range(1, 5001), size))
        for v in sorted({1, 2, max(1, size - 1), max(1, size), size + 1, 3 * size + 5, 4999, 10007}):
            oracle = np.bincount(A.elements % v, minlength=v).astype(np.int64)
            counts = occupancy(A, v)
            assert counts.dtype == np.int64 and len(counts) == v
            assert (counts == oracle).all()
            assert not counts.flags.writeable

    @pytest.mark.parametrize("size, v", [(3, 10**6 + 3), (1000, 10**5), (5000, 2**10 * 3**7)])
    def test_counted_bytes_cover_peak(self, monkeypatch, rng, size, v):
        A = IntegerSet.from_elements(10**5, rng.sample(range(1, 10**5 + 1), size))
        counted = []
        monkeypatch.setattr(sets, "check_allocation", lambda nbytes, what: counted.append(nbytes))
        tracemalloc.start()
        try:
            counts = occupancy(A, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counted == [8 * (v + size)] and counts.sum() == size
        assert peak <= max(counted) + 2**16

    def test_table_over_cap_raises(self, monkeypatch):
        A = IntegerSet.from_elements(10, [1, 2, 3])
        monkeypatch.setenv("ENERGYSIEVE_MEMORY_CAP", str(8 * (1000 + 3)))
        assert np.count_nonzero(occupancy(A, 1000)) == 3
        with pytest.raises(ResourceLimitError, match="occupancy table modulo 1001"):
            occupancy(A, 1001)


class TestMod4Restrict:
    def test_tie_breaks_to_smallest_class(self):
        out = mod4_restrict(IntegerSet.from_elements(16, [1, 4, 9, 16]))
        assert list(out) == [4, 16]

    def test_dominant_class(self):
        out = mod4_restrict(IntegerSet.from_elements(9, [1, 5, 9, 2]))
        assert list(out) == [1, 5, 9]

    def test_singleton(self):
        assert list(mod4_restrict(IntegerSet.from_elements(8, [8]))) == [8]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mod4_restrict(IntegerSet.from_elements(5, []))

    def test_keeps_a_quarter(self, rng):
        for _ in range(100):
            A = make_random_set(rng, 400, 50)
            out = mod4_restrict(A)
            assert len(out) >= -(-len(A) // 4)
            assert len(set(e % 4 for e in out)) == 1
            assert all(e in A for e in out)


class TestResidueAvoiding:
    def test_single_prime_evens(self):
        A = residue_avoiding_random(100, EPS_HALF, 2, seed=1)
        assert list(A) == list(range(2, 101, 2))

    def test_qr_classes_mod3(self):
        A = residue_avoiding_random(50, EPS_HALF, 3, seed=5)
        assert all(e % 3 in (0, 1) for e in A)

    def test_deterministic(self):
        a = residue_avoiding_random(1000, EPS_HALF, 13, seed=42, strategy="uniform")
        b = residue_avoiding_random(1000, EPS_HALF, 13, seed=42, strategy="uniform")
        assert list(a) == list(b)
        c = residue_avoiding_random(1000, EPS_HALF, 13, seed=43, strategy="uniform")
        assert a.cap == c.cap  # different seed may differ in content, same contract

    def test_occupancy_under_ceiling(self, rng):
        for seed in range(20):
            eps = EPS_HALF if seed % 2 else EPS_ZERO
            A = residue_avoiding_random(5000, eps, 13, seed=seed, strategy="uniform")
            if len(A) == 0:
                continue
            for p in sieve_primes(13).tolist():
                allowed = math.floor(p / 2 + eps.at(p))
                assert np.count_nonzero(occupancy(A, p)) <= max(1, allowed)

    @pytest.mark.parametrize("strategy", ["qr", "uniform"])
    @pytest.mark.parametrize("P", [2, 3, 7, 13, 31])
    def test_matches_former_gather_filter(self, strategy, P):
        q = int(sieve_primes(P)[-1])
        for N in sorted({1, max(1, q - 1), q, 10**4}):
            # the class budget is exact; the oracle keeps the former float rule
            for eps in (EPS_ZERO, EPS_HALF, EpsilonSpec(Fraction(1, 3), ((5, Fraction(2, 9)),))):
                for seed in range(3):
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        A = residue_avoiding_random(N, eps, P, seed, strategy=strategy)
                    oracle = residue_filter_oracle(N, eps, P, seed, strategy)
                    assert A.cap == N
                    assert A.elements.tolist() == oracle.tolist(), (N, eps, seed)

    @pytest.mark.parametrize("eps", [EPS_HALF, EpsilonSpec.constant(Fraction(20))])
    def test_counted_bytes_cover_peak(self, monkeypatch, eps):
        # a large eps allows every class, so every value survives: the worst case
        N = 10**6
        counted = []
        monkeypatch.setattr(sets, "check_allocation", lambda nbytes, what: counted.append(nbytes))
        tracemalloc.start()
        try:
            A = residue_avoiding_random(N, eps, 31, seed=0, strategy="uniform")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (len(A) == N) == (eps is not EPS_HALF)
        assert len(counted) == 2 and peak <= max(counted) + 2**16

    @pytest.mark.parametrize("P", [100, 1000])
    def test_qr_filter_keeps_the_even_squares(self, P):
        # class 0 mod 2, and mod every odd p <= P all (p + 1) / 2 squares:
        # of [1, 10^6] only the even squares are squares mod every such p
        A = residue_avoiding_random(10**6, EPS_HALF, P, 0, strategy="qr")
        assert A.cap == 10**6
        assert A.elements.tolist() == [(2 * k) ** 2 for k in range(1, 501)]

    def test_empty_result_warns(self):
        # tiny interval, many congruence conditions: nothing survives
        with pytest.warns(UserWarning):
            A = residue_avoiding_random(3, EPS_ZERO, 13, seed=0)
        assert len(A) == 0

    def test_bad_strategy(self):
        with pytest.raises(ValueError):
            residue_avoiding_random(10, EPS_ZERO, 3, seed=0, strategy="magic")


class TestSetFiles:
    def test_round_trip(self, tmp_path, rng):
        extra = [IntegerSet.from_elements(7, []), squares_up_to(10**8)]  # 10^4 elements: several slices
        for A in [make_random_set(rng, 300, 40) for _ in range(20)] + extra:
            path = tmp_path / "set.txt"
            write_set(A, path)
            # the bytes of the former line-by-line writer
            assert path.read_bytes() == (f"N={A.cap}\n" + "".join(f"{e}\n" for e in A)).encode()
            assert sets._read_plain(path) is not None
            B = read_set(path)
            assert B.cap == A.cap
            assert list(B) == list(A)

    def test_basic_parse(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("N=10\n1\n4\n9\n")
        A = read_set(path)
        assert A.cap == 10
        assert list(A) == [1, 4, 9]

    def test_comments_and_order(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("# header comment\nN=10\n9\n1  # inline\n\n4\n")
        assert list(read_set(path)) == [1, 4, 9]

    def test_duplicates_warn(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("N=10\n4\n4\n1\n4\n")
        with pytest.warns(UserWarning, match=r"ignored 2 duplicate element\(s\)$"):
            A = read_set(path)
        assert list(A) == [1, 4]

    def test_out_of_range(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("N=10\n11\n")
        with pytest.raises(SetFileError) as err:
            read_set(path)
        assert err.value.line == 2

    def test_missing_header(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("1\n2\n")
        with pytest.raises(SetFileError) as err:
            read_set(path)
        assert err.value.line == 1

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("N=10\n1\nx7\n")
        with pytest.raises(SetFileError) as err:
            read_set(path)
        assert err.value.line == 3

    def test_empty_file(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("")
        with pytest.raises(SetFileError):
            read_set(path)


def parse_outcome(path, plain: bool):
    """What read_set makes of a file: the set, or the error; and its warnings.
    With plain=False the single-pass parser is bypassed."""
    with warnings.catch_warnings(record=True) as caught, \
            mock.patch.object(sets, "_read_plain", sets._read_plain if plain else lambda p: None):
        warnings.simplefilter("always")
        try:
            A = read_set(path)
            result = ("set", A.cap, list(A))
        except Exception as exc:  # the outcomes are compared, whatever they are
            result = ("error", type(exc), str(exc), getattr(exc, "line", None))
    return result, [str(w.message) for w in caught]


def test_plain_parser_agrees_with_line_parser(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    path = tmp_path / "set.txt"
    # huge caps are read, not refused, so values beyond int64 reach the parsers

    # sorted, distinct, one per line: plain unless a value is 0, over the cap or
    # at least 10^18
    plain = st.one_of(st.integers(1, 10**6), st.integers(10**17, 10**20)).flatmap(
        lambda cap: st.lists(st.integers(0, cap + 1), max_size=30).map(
            lambda values: f"N={cap}\n" + "".join(f"{v}\n" for v in sorted(set(values)))))
    number = st.one_of(
        st.integers(-5, 300),
        st.sampled_from([2**63 - 1, 2**63, 10**18 - 1, 10**18, 10**19, 10**30]),
    )
    token = st.one_of(
        number.map(str),
        number.map(lambda v: "00" + str(v)),                 # leading zeros
        number.map(lambda v: "+" + str(v)),
        st.sampled_from(["1_0", "2_5_0", "_5", "5_", "0", "00", "-0", "x7", "1.5", "", "#c",
                         "3 4", "9\t", "\t12", " 8 ", "7 # note", "N=50", "N=", "\u0661\u0662"]),
    )
    header = st.one_of(
        st.integers(-1, 400).map(lambda c: f"N={c}"),
        st.sampled_from(["N=+90", "N=9_0", "N=090", "N= 90", "N=abc", "N=90 # cap", "# top"]),
    )
    messy = st.builds(
        lambda head, lines, eol, last: eol.join(head + lines) + (eol if last else ""),
        st.one_of(st.just([]), header.map(lambda h: [h])),  # a missing header, or one
        st.lists(token, max_size=12),
        st.sampled_from(["\n", "\r\n"]),
        st.booleans(),
    )

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True,
                         suppress_health_check=list(hypothesis.HealthCheck))
    @hypothesis.given(st.one_of(plain, messy))
    @hypothesis.example(f"N={10**19}\n5\n{10**19 - 1}\n")  # one value past int64
    @hypothesis.example(f"N={2**63}\n{2**63 - 1}\n")         # int64's largest
    @hypothesis.example("N=0\n")
    @hypothesis.example("N=5\n\n")  # numpy alone reads a blank body as [0]
    @hypothesis.example("N=0\n1\n")
    def check(text):
        path.write_bytes(text.encode("utf-8"))
        assert parse_outcome(path, plain=True) == parse_outcome(path, plain=False), text

    check()
    # a file as write_set writes it takes the single pass; a leading zero does not
    path.write_text("N=100\n3\n7\n99\n")
    assert sets._read_plain(path)[0] == 100 and list(sets._read_plain(path)[1]) == [3, 7, 99]
    path.write_text("N=100\n3\n07\n99\n")
    assert sets._read_plain(path) is None
