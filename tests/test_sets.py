import itertools
import math
import random
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
    def test_views_agree(self, rng):
        for _ in range(50):
            A = make_random_set(rng, rng.randint(1, 500), 60)
            assert list(np.flatnonzero(A.mask)) == list(A.elements)
            assert len(A) == len(A.elements)
            for e in list(A)[:5]:
                assert e in A
            assert 0 not in A
            assert A.cap + 3 not in A

    def test_range_validation(self):
        with pytest.raises(ValueError):
            IntegerSet.from_elements(10, [0, 5])
        with pytest.raises(ValueError):
            IntegerSet.from_elements(10, [11])

    def test_immutable(self):
        A = IntegerSet.from_elements(10, [1, 2])
        with pytest.raises(ValueError):
            A.elements[0] = 5

    def test_mask_built_once_on_first_membership_test(self):
        A = IntegerSet.from_elements(100, [3, 50, 100])
        assert "mask" not in vars(A)
        assert 50 in A
        mask = vars(A)["mask"]
        assert 51 not in A and 100 in A and 101 not in A
        assert A.mask is mask
        assert not mask.flags.writeable
        with pytest.raises(ValueError):
            mask[4] = True
        assert list(np.flatnonzero(mask)) == [3, 50, 100] and len(mask) == 101

    def test_construction_checks_the_mask_bytes(self, monkeypatch):
        counted = []
        monkeypatch.setattr(sets, "check_allocation", lambda nbytes, what: counted.append(nbytes))
        IntegerSet.from_elements(1000, [1, 5])
        assert counted == [1001]
        counted.clear()
        squares_up_to(10**6)
        assert 10**6 + 1 in counted

    @pytest.mark.parametrize("build", [
        lambda: squares_up_to(10**7),
        lambda: sidon_set(int(sieve_primes(2236).primes[-1]), 10**7),  # 2p^2 + p <= 1e7
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
        for p in sieve_primes(200):
            p = int(p)
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

        # 2 - 1 = 3 - 2 repeats in the first block; the span has eight blocks
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
        assert len(taken) == 8


def residue_filter_oracle(N, eps, prime_bound, seed, strategy):
    """The former filter: the same allowed classes, each prime's bits gathered
    as ok[np.arange(N + 1) % p]; the survivors' values."""
    rng = random.Random(seed)
    keep = np.ones(N + 1, dtype=bool)
    keep[0] = False
    for p in sieve_primes(prime_bound).primes:
        p = int(p)
        size = max(1, min(int(math.floor(p / 2 + eps.at(p))), p))
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
        prof = occupancy(IntegerSet.from_elements(16, [1, 4, 9, 16]), 3)
        assert list(prof.counts) == [1, 3, 0]
        assert prof.occupancy == 2

    def test_modulus_one(self, rng):
        A = make_random_set(rng, 100, 20)
        prof = occupancy(A, 1)
        assert prof.occupancy == 1
        assert list(prof.counts) == [len(A)]

    def test_counts_sum_to_cardinality(self, rng):
        for _ in range(100):
            A = make_random_set(rng, 2000, 150)
            v = rng.randint(1, 1000)
            prof = occupancy(A, v)
            assert prof.total == len(A)
            assert prof.occupancy == int((prof.counts > 0).sum())
            assert prof.occupancy <= min(v, len(A))

    def test_squares_quadratic_residues(self):
        # squares over a full period occupy exactly (p+1)/2 classes mod odd p
        for p in sieve_primes(300):
            p = int(p)
            if p == 2:
                continue
            assert occupancy(squares_up_to(p * p), p).occupancy == (p + 1) // 2
        assert occupancy(squares_up_to(10**4), 7).occupancy == 4


    @pytest.mark.parametrize("size", [0, 1, 7, 40])
    def test_matches_bincount_form(self, rng, size):
        A = IntegerSet.from_elements(5000, rng.sample(range(1, 5001), size))
        for v in sorted({1, 2, max(1, size - 1), max(1, size), size + 1, 3 * size + 5, 4999, 10007}):
            oracle = np.bincount(A.elements % v, minlength=v).astype(np.int64)
            prof = occupancy(A, v)
            assert prof.counts.dtype == np.int64 and len(prof.counts) == v
            assert (prof.counts == oracle).all()
            assert prof.occupancy == int((oracle > 0).sum())
            assert not prof.counts.flags.writeable


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
            for p in sieve_primes(13):
                p = int(p)
                allowed = math.floor(p / 2 + eps.at(p))
                assert occupancy(A, p).occupancy <= max(1, allowed)

    @pytest.mark.parametrize("strategy", ["qr", "uniform"])
    @pytest.mark.parametrize("P", [2, 3, 7, 13, 31])
    def test_matches_former_gather_filter(self, strategy, P):
        q = int(sieve_primes(P).primes[-1])
        for N in sorted({1, max(1, q - 1), q, 10**4}):
            for eps in (EPS_ZERO, EPS_HALF):
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
        counted = {}
        monkeypatch.setattr(sets, "check_allocation",
                            lambda nbytes, what: counted.setdefault(what, nbytes))
        tracemalloc.start()
        try:
            A = residue_avoiding_random(N, eps, 31, seed=0, strategy="uniform")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (len(A) == N) == (eps is not EPS_HALF)
        assert peak <= counted[f"residue filter of [1, {N}]"] + 2**16

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
        path.write_text("N=10\n4\n4\n1\n")
        with pytest.warns(UserWarning):
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


def test_plain_parser_agrees_with_line_parser(tmp_path, monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    path = tmp_path / "set.txt"
    # huge caps are then read (no mask is built) instead of refused, so values
    # beyond int64 reach the parsers
    monkeypatch.setenv("ENERGYSIEVE_MEMORY_CAP", str(10**21))

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
