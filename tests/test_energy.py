import itertools
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import energysieve.energy as energy
from energysieve.energy import (
    cauchy_schwarz_check,
    energy_bruteforce,
    energy_diff_path,
    energy_sum_path,
    rep_diff,
    rep_sum,
    sumset,
    _exact_dot,
)
from energysieve.errors import ResourceLimitError
from energysieve.sets import IntegerSet, is_sidon, sidon_set, squares_up_to
from conftest import make_random_set


def rep_oracle(xs, ys, op):
    """Counts by bare enumeration of ordered pairs."""
    return Counter(op(x, y) for x in xs for y in ys)


def energy_oracle(xs, ys):
    """Quadruple count by definition, no identities."""
    return sum(
        1
        for x1 in xs
        for x2 in xs
        for y1 in ys
        for y2 in ys
        if x1 + y1 == x2 + y2
    )


def iset(cap, elems):
    return IntegerSet.from_elements(cap, elems)


def count_direct_oracle(xs, ys, lo, length):
    """The former direct backend: a full-window bincount per 2^22-pair chunk."""
    counts = np.zeros(length, dtype=np.int64)
    step = max(1, (1 << 22) // len(ys))
    for i in range(0, len(xs), step):
        rows = (xs[i : i + step] - lo)[:, None]
        counts += np.bincount((rows + ys[None, :]).ravel(), minlength=length)
    return counts


def rule_cell(xs, ys, lo, hi):
    """The cell length `_cell_length` gives the stream of `_pair_counts(xs, ys,
    lo, hi, ...)`: its rows, window and gathered pairs."""
    if ys is None:
        ys = -xs[::-1]
    elif np.array_equal(xs, ys):
        ys = xs
    pairs = int((np.searchsorted(ys, hi + 1 - xs) - np.searchsorted(ys, lo - xs)).sum())
    return energy._cell_length(len(xs), hi - lo + 1, pairs // 2 if ys is xs else pairs)


def former_direct_blocks(xs, ys, lo, hi, cell):
    """The direct kernel as it was: both edges searched in every block, the pair
    index built inline."""
    after = np.arange(1, len(xs) + 1) if ys is xs else None
    for start in range(lo, hi + 1, cell):
        length = min(cell, hi + 1 - start)
        left = np.searchsorted(ys, start - xs)
        right = np.searchsorted(ys, start + length - xs)
        if after is not None:
            np.maximum(left, after, out=left)
            np.maximum(right, left, out=right)
        lens = right - left
        ends = np.cumsum(lens)
        counts = None
        i = done = 0
        while done < ends[-1]:
            j = int(np.searchsorted(ends, done + cell, side="right"))
            rows = lens[i:j]
            idx = np.repeat(left[i:j] - ends[i:j] + rows, rows) + np.arange(done, ends[j - 1])
            sums = ys[idx] + np.repeat(xs[i:j] - start, rows)
            group = np.bincount(sums, minlength=length)
            counts = group if counts is None else np.add(counts, group, out=counts)
            i, done = j, int(ends[j - 1])
        if counts is None:
            counts = np.zeros(length, dtype=np.int64)
        if after is not None:
            counts *= 2
            a, b = np.searchsorted(xs, [(start + 1) // 2, (start + length + 1) // 2])
            counts[2 * xs[a:b] - start] += 1
        yield start, counts


def streamed(xs, ys, lo, hi, method):
    """The core's blocks over [lo, hi], checked to come in order, at most one
    per cell lo + k L, L the rule's cell length: each whole cell from the
    transform, each cell with a sum from direct counting; placed in a window
    of zeros."""
    backend, blocks, _ = energy._pair_counts(xs, ys, lo, hi, method)
    length = rule_cell(xs, ys, lo, hi) if lo <= hi else None
    joined = np.zeros(max(hi - lo + 1, 0), dtype=np.int64)
    at = lo
    for offset, counts in blocks:
        cell = lo + (offset - lo) // length * length
        assert at <= cell and offset + len(counts) <= min(cell + length, hi + 1)
        if backend == "fft":
            assert offset == at == cell and len(counts) == min(length, hi + 1 - cell)
        else:
            assert counts.any()
        joined[offset - lo : offset - lo + len(counts)] = counts
        at = cell + length
    assert backend != "fft" or at >= hi + 1
    return backend, joined


class TestRepFunctions:
    def test_rep_sum_pair(self):
        X = iset(2, [1, 2])
        rep = rep_sum(X, X)
        assert rep.offset == 2
        assert list(rep.counts) == [1, 2, 1]

    def test_rep_sum_singletons(self):
        rep = rep_sum(iset(1, [1]), iset(5, [5]))
        assert rep.at(6) == 1
        assert rep.total() == 1

    def test_rep_sum_squares16(self):
        rep = rep_sum(squares_up_to(16), squares_up_to(16))
        expected = {2: 1, 5: 2, 8: 1, 10: 2, 13: 2, 17: 2, 18: 1, 20: 2, 25: 2, 32: 1}
        oracle = rep_oracle([1, 4, 9, 16], [1, 4, 9, 16], lambda a, b: a + b)
        assert dict(oracle) == expected
        for n, c in expected.items():
            assert rep.at(n) == c
        assert rep.total() == 16

    def test_rep_diff_squares16(self):
        rep = rep_diff(squares_up_to(16), squares_up_to(16))
        assert rep.at(0) == 4
        for d in (3, 5, 7, 8, 12, 15):
            assert rep.at(d) == 1
            assert rep.at(-d) == 1
        assert rep.total() == 16

    def test_rep_diff_simple(self):
        assert rep_diff(iset(5, [5]), iset(2, [2])).at(3) == 1

    def test_totals_and_tight_window(self, rng):
        for _ in range(80):
            X = make_random_set(rng, 300, 30)
            Y = make_random_set(rng, 300, 30)
            for rep in (rep_sum(X, Y), rep_diff(X, Y)):
                assert rep.total() == len(X) * len(Y)
                assert rep.counts[0] > 0 and rep.counts[-1] > 0

    def test_diff_symmetry(self, rng):
        for _ in range(40):
            X = make_random_set(rng, 500, 40)
            rep = rep_diff(X, X)
            assert rep.at(0) == len(X)
            counts = np.asarray(rep.counts)
            assert (counts == counts[::-1]).all()

    def test_against_oracle_random(self, rng):
        for _ in range(40):
            X = make_random_set(rng, 80, 15)
            Y = make_random_set(rng, 80, 15)
            oracle = rep_oracle(list(X), list(Y), lambda a, b: a + b)
            rep = rep_sum(X, Y)
            for n in range(2, 161):
                assert rep.at(n) == oracle.get(n, 0)

    def test_empty(self):
        rep = rep_sum(iset(5, []), iset(5, [1]))
        assert rep.total() == 0
        assert rep.at(1) == 0


class TestBackends:
    def test_fft_matches_direct(self, rng):
        for _ in range(30):
            X = make_random_set(rng, 2000, 80)
            Y = make_random_set(rng, 2000, 80)
            d = rep_sum(X, Y, method="direct")
            f = rep_sum(X, Y, method="fft")
            assert d.offset == f.offset
            assert (d.counts == f.counts).all()
            dd = rep_diff(X, Y, method="direct")
            ff = rep_diff(X, Y, method="fft")
            assert dd.offset == ff.offset
            assert (dd.counts == ff.counts).all()

    def test_fft_on_squares(self):
        S = squares_up_to(10**5)
        d = energy_sum_path(S, S, method="direct").value
        f = energy_sum_path(S, S, method="fft").value
        assert d == f

    def test_checked_accumulator_big_counts(self):
        big = np.full(5, 2**32, dtype=np.int64)
        # entries multiply to 2^64: a single product overflows int64
        assert _exact_dot([(big, big)], 2**64) == 5 * (2**64)

    def test_block_sums_fall_back_when_a_block_could_overflow(self):
        big = np.full(5, 2**32, dtype=np.int64)
        assert _exact_dot([(big, big), (big[:2], big[:2])], 2**64) == 7 * 2**64
        small = np.arange(5, dtype=np.int64)
        assert _exact_dot([(small, small)], 16) == 30


def dot_oracle(pairs):
    return sum(int(x) * int(y) for a, b in pairs for x, y in zip(a, b))


class TestExactDot:
    """The accumulator against Python-integer sums of products, with `==`."""

    def test_bound_just_below_and_at_2_63(self):
        # 2^31 * (2^32 - 1) < 2^63 and 2^32 * 2^31 = 2^63: slices of one and of
        # one entry, then Python integers
        for a, b in [(2**31, 2**32 - 1), (2**32, 2**31)]:
            pairs = [(np.full(7, a, dtype=np.int64), np.full(7, b, dtype=np.int64))]
            assert _exact_dot(pairs, a * b) == dot_oracle(pairs) == 7 * a * b

    def test_slices_cut_a_block(self, rng):
        # a bound of root^2 leaves 3 entries per slice, so blocks of 10 and 4 are
        # cut; ten products of root^2 would overflow int64 in one np.dot
        root = math.isqrt((2**63 - 1) // 3)
        full = np.full(10, root, dtype=np.int64)
        pairs = [(full, full)] + [
            tuple(np.array([rng.randint(-root, root) for _ in range(n)], dtype=np.int64)
                  for _ in range(2))
            for n in (10, 4, 3, 1)
        ]
        assert _exact_dot(pairs, root * root) == dot_oracle(pairs)

    def test_negative_entries_of_reflected_sets(self, rng):
        X = make_random_set(rng, 10**6, 50)
        Y = make_random_set(rng, 10**6, 50)
        n = min(len(X), len(Y))
        pairs = [(X.elements[:n], -Y.elements[::-1][:n]), (-X.elements[::-1], -X.elements[::-1])]
        assert _exact_dot(pairs, 10**12) == dot_oracle(pairs)
        big = [(np.array([-(2**62), 3], dtype=np.int64), np.array([4, -(2**62)], dtype=np.int64))]
        assert _exact_dot(big, 2**64) == dot_oracle(big) == -(2**64) - 3 * 2**62

    def test_empty(self):
        empty = np.zeros(0, dtype=np.int64)
        assert _exact_dot([], 10) == 0
        for bound in (0, 10, 2**63):
            assert _exact_dot([(empty, empty)], bound) == 0


class TestWindowedCore:
    """The block-streaming core against the former direct backend, with `==`."""

    CASES = {
        "squares": lambda rng: (squares_up_to(10**6), squares_up_to(10**6)),
        "random": lambda rng: (make_random_set(rng, 2 * 10**5, 900), make_random_set(rng, 10**5, 900)),
        "random-squares": lambda rng: (make_random_set(rng, 10**5, 500), squares_up_to(3 * 10**5)),
    }

    @pytest.mark.parametrize("method", ["auto", "direct", "fft"])
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("diff", [False, True])
    def test_windows_match_oracle(self, rng, method, case, diff):
        X, Y = self.CASES[case](rng)
        xs = X.elements
        ys = -Y.elements[::-1] if diff else Y.elements
        lo, hi = int(xs[0] + ys[0]), int(xs[-1] + ys[-1])
        full = count_direct_oracle(xs, ys, lo, hi - lo + 1)
        block = rule_cell(xs, ys, lo, hi)
        windows = [
            (lo, hi),                          # every sum, several blocks
            (lo + block // 3, hi - block // 5),  # cuts the first and last blocks
            (lo + block, lo + 2 * block - 1),  # exactly one block
            (lo + 7, lo + 7),                  # one value
            (lo + block + 1, lo + block + 1),
            (hi, hi),
            (lo + 5, lo + 4),                  # empty
        ]
        for a, b in windows:
            backend, counts = streamed(xs, ys, a, b, method)
            assert (counts == full[a - lo : b - lo + 1]).all(), (a, b)
            if method != "auto":
                assert backend == method or a > b

    @pytest.mark.parametrize("method", ["auto", "direct", "fft"])
    @pytest.mark.parametrize("case", ["random", "squares", "one", "two"])
    def test_differences_match_oracle(self, rng, method, case):
        """`ys` None, the differences of xs, over windows of lags d >= 0 (the
        transform keeps only those); `rep_diff` gives the whole window
        [-span, span], as sums against the reflected set."""
        X = {
            "random": lambda: make_random_set(rng, 3 * 10**5, 900),
            "squares": lambda: squares_up_to(10**6),
            "one": lambda: iset(100, [37]),
            "two": lambda: iset(10**6, [5, 3 * 10**5]),
        }[case]()
        xs = X.elements
        span = int(xs[-1] - xs[0])
        full = count_direct_oracle(xs, -xs[::-1], -span, 2 * span + 1)
        block = rule_cell(xs, None, 0, span)
        windows = [
            (0, span),                        # every lag
            (1, span),                        # d >= 1, as the callers ask
            (0, block // 2),                  # cuts the first block
            (0, 0),
            (block, 2 * block - 1),
            (span, span),
            (5, 4),                           # empty
        ]
        for a, b in windows:
            b = min(b, span)
            backend, counts = streamed(xs, None, a, b, method)
            assert (counts == full[a + span : b + span + 1]).all(), (a, b)
            if method != "auto":
                assert backend == method or a > b
        rep = rep_diff(X, X, method=method)
        assert rep.offset == -span and (rep.counts == full).all()

    @pytest.mark.parametrize("diff", [False, True])
    def test_differences_take_one_spectrum(self, monkeypatch, rng, diff):
        X = make_random_set(rng, 3 * 10**5, 700)
        xs = X.elements
        span = int(xs[-1] - xs[0])
        full = count_direct_oracle(xs, -xs[::-1], -span, 2 * span + 1)
        transforms = []
        rfft, irfft = np.fft.rfft, np.fft.irfft

        def forward(f, n):
            transforms.append("rfft")
            return rfft(f, n)

        def inverse(spec, n):
            transforms.append("irfft")
            return irfft(spec, n)

        monkeypatch.setattr(np.fft, "rfft", forward)
        monkeypatch.setattr(np.fft, "irfft", inverse)
        # the differences asked for as such, or as sums against the reflected set
        backend, counts = streamed(xs, None if diff else -xs[::-1], 1, span, "fft")
        assert backend == "fft"
        assert (counts == full[span + 1 :]).all()
        assert transforms == (["rfft", "irfft"] if diff else ["rfft", "rfft", "irfft"])

    def test_reflected_window_is_symmetric(self, rng):
        X = make_random_set(rng, 3 * 10**5, 400)
        xs = X.elements
        span = int(xs[-1] - xs[0])
        _, counts = streamed(xs, -xs[::-1], -span, span, "direct")
        assert (counts == counts[::-1]).all()
        assert counts[span] == len(xs)

    @pytest.mark.parametrize("method", ["auto", "direct", "fft"])
    @pytest.mark.parametrize("case", ["random", "squares"])
    def test_self_pairs_match_oracle(self, rng, method, case):
        X = make_random_set(rng, 2 * 10**5, 900) if case == "random" else squares_up_to(10**6)
        xs = X.elements
        lo, hi = 2 * int(xs[0]), 2 * int(xs[-1])
        full = count_direct_oracle(xs, xs, lo, hi - lo + 1)
        block = rule_cell(xs, xs, lo, hi)
        windows = [
            (lo, hi),
            (lo + block // 3, hi - block // 5),
            (lo + block, lo + 2 * block - 1),
            (lo + 7, lo + 7),
            (lo + block + 1, lo + block + 1),
            (hi, hi),
            (lo + 5, lo + 4),
        ]
        for ys in (xs, xs.copy()):  # the same array, and an equal one
            for a, b in windows:
                backend, counts = streamed(xs, ys, a, b, method)
                assert (counts == full[a - lo : b - lo + 1]).all(), (a, b)
                if method != "auto":
                    assert backend == method or a > b

    @pytest.mark.parametrize("method", ["direct", "fft"])
    @pytest.mark.parametrize("same", [True, False])  # the same array, or an equal copy
    def test_self_pairs_counted_once(self, monkeypatch, rng, method, same):
        X = make_random_set(rng, 3 * 10**5, 700)
        xs = X.elements
        lo, hi = 2 * int(xs[0]), 2 * int(xs[-1])
        full = count_direct_oracle(xs, xs, lo, hi - lo + 1)
        gathered, transforms = [], []
        add, rfft = np.add, np.fft.rfft

        class Counting:
            """np.add, with its `at` recording each group and its weight."""

            def __getattr__(self, name):
                return getattr(add, name)

            def __call__(self, *args, **kwargs):
                return add(*args, **kwargs)

            def at(self, a, indices, b=None):
                gathered.append((len(indices), b))
                return add.at(a, indices, b)

        def transform(*args):
            transforms.append(len(args[0]))
            return rfft(*args)

        monkeypatch.setattr(np, "add", Counting())
        monkeypatch.setattr(np.fft, "rfft", transform)
        backend, counts = streamed(xs, xs if same else xs.copy(), lo, hi, method)
        assert backend == method
        assert (counts == full).all()
        n = len(xs)
        if method == "direct":
            assert sum(size for size, _ in gathered) == n * (n - 1) // 2  # each pair x < y once
            assert {weight for _, weight in gathered} == {2}
        else:
            assert len(transforms) == 1

    @pytest.mark.parametrize("path", [energy_sum_path, energy_diff_path])
    @pytest.mark.parametrize("method", ["direct", "fft"])
    @pytest.mark.parametrize("cap", [5 * 10**4, 10**6])  # one block of sums, then many
    def test_self_paths_counted_bytes_cover_peak(self, monkeypatch, path, method, cap):
        X = IntegerSet.from_elements(cap, random.Random(cap).sample(range(1, cap + 1), 2000))
        expected = path(X, X, method="direct" if method == "fft" else "fft").value
        counted = []
        monkeypatch.setattr(energy, "check_allocation", lambda nbytes, what: counted.append(nbytes))
        tracemalloc.start()
        try:
            value = path(X, X, method=method).value
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == expected
        assert peak <= max(counted) + 2**16

    @pytest.mark.parametrize("path", [energy_sum_path, energy_diff_path])
    @pytest.mark.parametrize("method", ["direct", "fft"])
    @pytest.mark.parametrize("cap", [5 * 10**4, 10**6])  # one block of sums, then many
    def test_streamed_paths_counted_bytes_cover_peak(self, monkeypatch, path, method, cap):
        X = IntegerSet.from_elements(cap, random.Random(cap).sample(range(1, cap + 1), 2000))
        Y = squares_up_to(cap)
        expected = path(X, Y, method="direct" if method == "fft" else "fft").value
        counted = []
        monkeypatch.setattr(energy, "check_allocation", lambda nbytes, what: counted.append(nbytes))
        tracemalloc.start()
        try:
            value = path(X, Y, method=method).value
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == expected
        assert peak <= max(counted) + 2**16


class TestDirectBlocks:
    """The direct kernel against its former self, block by block, with `==`."""

    CASES = {
        "random": lambda rng: (make_random_set(rng, 6 * 10**5, 900), make_random_set(rng, 3 * 10**5, 900)),
        "squares": lambda rng: (squares_up_to(10**6), squares_up_to(4 * 10**5)),
        "clusters": lambda rng: (iset(10**6, list(range(1, 60)) + list(range(10**6 - 60, 10**6 + 1))),
                                 iset(10**6, list(range(1, 40)) + list(range(10**6 - 40, 10**6 + 1)))),
        "one": lambda rng: (iset(100, [37]), make_random_set(rng, 4 * 10**5, 300)),
        "two": lambda rng: (iset(10**6, [5, 9 * 10**5]), iset(10**6, [2, 3 * 10**5])),
        # rows enter and leave the band as the cells pass: X low and dense, Y
        # sparse and high
        "low-high": lambda rng: (iset(10**6, range(1, 4001)),
                                 iset(10**6, [7 * 10**5, 8 * 10**5, 81 * 10**4, 999_999])),
    }

    @staticmethod
    def windows(lo, hi, block):
        mid = (lo + hi) // 2
        return [
            (lo, hi),                              # every sum
            (lo + block // 3, hi - block // 5),    # cuts the first and last blocks
            (lo + block, lo + 2 * block - 1),      # exactly one block
            (lo + 7, lo + 7),                      # one value
            (hi, hi),
            (mid, hi),                             # starts mid-range: rows already spent
            (mid + 11, mid + 3 * block),
        ]

    @staticmethod
    def blocks(xs, ys, lo, hi, cell=None):
        """The kernel given its first edges, as `_pair_counts` gives them, in
        cells of the rule's length unless `cell` is given; each block copied,
        since it is valid only until the next is requested."""
        cell = cell or rule_cell(xs, ys, lo, hi)
        return [(offset, counts.copy()) for offset, counts in
                energy._direct_blocks(xs, ys, lo, hi, np.searchsorted(ys, lo - xs), cell)]

    def assert_same_blocks(self, xs, ys, lo, hi, cell=None):
        """The former kernel's blocks less those without a sum, and cut to their
        first and last sum where they hold fewer than cell / 128 pairs (x < y
        when `ys is xs`: a count 2c(n) + [n = 2x] is odd at each 2x)."""
        cell = cell or rule_cell(xs, ys, lo, hi)
        got = self.blocks(xs, ys, lo, hi, cell)
        want = []
        for offset, counts in former_direct_blocks(xs, ys, lo, hi, cell):
            held = np.flatnonzero(counts)
            pairs = counts.sum() if ys is not xs else (counts.sum() - (counts % 2).sum()) // 2
            if len(held) and pairs < cell >> 7:
                want.append((offset + held[0], counts[held[0] : held[-1] + 1]))
            elif len(held):
                want.append((offset, counts))
        assert [offset for offset, _ in got] == [offset for offset, _ in want]
        for (_, a), (_, b) in zip(got, want):
            assert a.dtype == b.dtype and (a == b).all()

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("diff", [False, True])
    def test_sums_and_differences(self, rng, case, diff):
        X, Y = self.CASES[case](rng)
        xs = X.elements
        ys = -Y.elements[::-1] if diff else Y.elements
        lo, hi = int(xs[0] + ys[0]), int(xs[-1] + ys[-1])
        for a, b in self.windows(lo, hi, rule_cell(xs, ys, lo, hi)):
            if lo <= a <= b <= hi:
                self.assert_same_blocks(xs, ys, a, b)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_set_paired_with_itself(self, rng, case):
        xs = self.CASES[case](rng)[0].elements
        lo, hi = 2 * int(xs[0]), 2 * int(xs[-1])
        for a, b in self.windows(lo, hi, rule_cell(xs, xs, lo, hi)):
            if lo <= a <= b <= hi:
                self.assert_same_blocks(xs, xs, a, b)         # the same array
                self.assert_same_blocks(xs, xs.copy(), a, b)  # an equal one

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_longest_cells(self, rng, case):
        # sums, differences and the set with itself in cells of _MAX_CELL,
        # which the rule gives only to far larger counts than these
        X, Y = self.CASES[case](rng)
        xs = X.elements
        cell = energy._MAX_CELL
        for ys in (Y.elements, -Y.elements[::-1], xs):
            lo, hi = int(xs[0] + ys[0]), int(xs[-1] + ys[-1])
            for a, b in self.windows(lo, hi, cell):
                if lo <= a <= b <= hi:
                    self.assert_same_blocks(xs, ys, a, b, cell)

    def test_far_apart_clusters_leave_blocks_without_pairs(self, rng):
        xs = self.CASES["clusters"](rng)[0].elements
        lo, hi = 2 * int(xs[0]), 2 * int(xs[-1])
        # sums near 2, 10^6 and 2 10^6: three cells of 2^17 (the rule's), the
        # first, eighth and last of sixteen, each with over 2^17 / 128 pairs,
        # so whole
        block = rule_cell(xs, xs, lo, hi)
        assert block == 1 << 17
        assert [(offset, len(counts)) for offset, counts in self.blocks(xs, xs, lo, hi)] == [
            (lo, block), (lo + 7 * block, block), (lo + 15 * block, hi + 1 - lo - 15 * block)]
        self.assert_same_blocks(xs, xs, lo, hi)
        self.assert_same_blocks(xs, -xs[::-1], int(xs[0] - xs[-1]), int(xs[-1] - xs[0]))

    @pytest.mark.parametrize("lags", [False, True])
    def test_far_apart_clusters_in_every_window(self, rng, lags):
        # the lags of two clusters: rows of one cluster leave the band while the
        # other's enter, and the cells between hold no sum
        X, Y = self.CASES["clusters"](rng)
        xs = X.elements
        ys = -xs[::-1] if lags else -Y.elements[::-1]
        lo, hi = int(xs[0] + ys[0]), int(xs[-1] + ys[-1])
        block = rule_cell(xs, ys, lo, hi)
        for a, b in self.windows(lo, hi, block) + [(lo + 100, hi - 100), (-5 * block, hi)]:
            if lo <= a <= b <= hi:
                self.assert_same_blocks(xs, ys, a, b)

    @pytest.mark.parametrize("same", [True, False])
    def test_jump_to_a_sum_above_the_band(self, same):
        # an empty cell with an empty band, where 1 is spent and 10^6 has not
        # started: against {1, 2} the cell after the sums near 2; with itself
        # the cell after 10^6 + 1, where the left edge of row 10^6 is len(ys)
        # (pairs x < y only).  The next sum is that row's
        xs = np.array([1, 10**6], dtype=np.int64)
        ys = xs if same else np.array([1, 2], dtype=np.int64)
        lo, hi = int(xs[0] + ys[0]), int(xs[-1] + ys[-1])
        got = self.blocks(xs, ys, lo, hi)
        if same:
            assert [(offset, c.tolist()) for offset, c in got] == [
                (2, [1]), (10**6 + 1, [2]), (2 * 10**6, [1])]
        else:
            assert [(offset, c.tolist()) for offset, c in got] == [
                (2, [1, 1]), (10**6 + 1, [1, 1])]
        self.assert_same_blocks(xs, ys, lo, hi)
        self.assert_same_blocks(xs, ys, lo + 5, hi)

    @pytest.mark.parametrize("same", [True, False])
    def test_edges_searched_once_per_block_plus_once(self, monkeypatch, rng, same):
        X, Y = self.CASES["random"](rng)
        xs = X.elements
        ys = xs if same else Y.elements
        lo, hi = int(xs[0] + ys[0]), int(xs[-1] + ys[-1])
        searchsorted = np.searchsorted
        edges = []

        def spy(a, v, *args, **kwargs):
            if a is ys and isinstance(v, np.ndarray):  # one edge per row searched
                edges.append(len(v))
            return searchsorted(a, v, *args, **kwargs)

        block = rule_cell(xs, ys, lo, hi)
        monkeypatch.setattr(np, "searchsorted", spy)
        cells = [lo + (offset - lo) // block * block
                 for offset, _ in self.blocks(xs, ys, lo, hi, block)]
        blocks = len(cells)
        # each cell searches its band once: the rows x with x + max Y >= start
        # and x + min Y < end (2x < end for a set with itself); every cell
        # holds sums, so none is jumped
        assert blocks > 3 and cells == list(range(lo, hi + 1, block))
        x = xs.tolist()
        band = [sum(1 for v in x if v + int(ys[-1]) >= start
                    and (2 * v if same else v + int(ys[0])) < min(start + block, hi + 1))
                for start in cells]
        assert 0 < min(band) and min(band) < len(xs)  # some cells leave rows out
        assert edges == [len(xs)] + band
        edges.clear()
        # the core searches the first edges once, for its pair count and the kernel,
        # and the last edges once, for the pair count
        _, stream, _ = energy._pair_counts(xs, ys, lo, hi, "direct")
        assert len(list(stream)) == blocks and edges == [len(xs)] * 2 + band
        edges.clear()
        assert len(list(former_direct_blocks(xs, ys, lo, hi, block))) == blocks
        assert len(edges) == 2 * blocks

    def test_empty_cells_cost_one_search_each_jump(self, monkeypatch):
        # one sum in every third cell or sparser, whatever length the rule
        # takes: beside the first edges, the walk searches the cells with a
        # sum and the empty cell after each but the last, never those between
        xs = np.array([5], dtype=np.int64)
        ys = np.arange(1, 668, dtype=np.int64) * 3 * energy._MAX_CELL
        lo, hi = 5 + int(ys[0]), 5 + int(ys[-1])
        searchsorted = np.searchsorted
        edges = []

        def spy(a, v, *args, **kwargs):
            if a is ys and np.shape(v) == xs.shape:
                edges.append(len(v))
            return searchsorted(a, v, *args, **kwargs)

        cell = rule_cell(xs, ys, lo, hi)
        monkeypatch.setattr(np, "searchsorted", spy)
        blocks = self.blocks(xs, ys, lo, hi, cell)
        assert [(offset, list(counts)) for offset, counts in blocks] == [
            (5 + int(y), [1]) for y in ys]
        assert len(edges) == 1 + len(ys) + len(ys) - 1

    def test_visits_over_the_guard_refused_before_counting(self):
        # one sum in each of guard + 1 cells of 2^17, 2^33 values apart and
        # more; the rule's cells are 2^16, as long cells save nothing here
        guard, unit = energy.DIRECT_BLOCK_GUARD, energy._GUARD_CELL
        xs = np.array([5], dtype=np.int64)
        ys = np.arange(1, guard + 2, dtype=np.int64) * 3 * unit
        lo, hi = 5 + int(ys[0]), 5 + int(ys[-1])
        assert rule_cell(xs, ys, lo, hi) == energy._MIN_CELL
        with pytest.raises(ResourceLimitError, match=f"over {len(ys)} blocks exceeds guard"):
            energy._pair_counts(xs, ys, lo, hi, "direct")
        # as many cells, but only a few sums: visited by the sums
        _, blocks, _ = energy._pair_counts(xs, ys[[0, -1]], lo, hi, "direct")
        assert [offset for offset, _ in blocks] == [lo, hi]
        # k multiples of 2^17 with themselves: 2k - 1 cells of 2^17, each with
        # a sum, so the guard refuses k = 2^15 + 1 and admits 2^15, though the
        # rule's cells, its longest, are fewer
        for k in ((1 << 15) + 1, 1 << 15):
            xs = np.arange(k, dtype=np.int64) * unit
            lo, hi = 0, 2 * int(xs[-1])
            assert rule_cell(xs, xs, lo, hi) == energy._MAX_CELL
            if 2 * k - 1 > guard:
                with pytest.raises(ResourceLimitError, match=f"over {2 * k - 1} blocks exceeds"):
                    energy._pair_counts(xs, xs, lo, hi, "direct")
            else:
                assert energy._pair_counts(xs, xs, lo, hi, "direct")[0] == "direct"

    @pytest.mark.parametrize("swap", [False, True])
    @pytest.mark.parametrize("methods",
                             [("direct", "fft"), ("fft", "direct"), ("direct", "direct")])
    def test_matched_streams_meet_where_both_hold_counts(self, rng, methods, swap):
        # a few differences (cut blocks, when direct) against many (whole cells)
        X, Y = iset(10**6, [5, 17, 40, 9 * 10**5, 10**6]), make_random_set(rng, 10**6, 3000)
        if swap:
            X, Y = Y, X
        m = min(int(X.elements[-1] - X.elements[0]), int(Y.elements[-1] - Y.elements[0]))
        # the streams' cells differ: a block of the longer meets two of the other
        assert {rule_cell(Z.elements, None, 1, m) for Z in (X, Y)} == {1 << 16, 1 << 17}
        rx, ry = (energy._pair_counts(Z.elements, -Z.elements[::-1], 1, m, method)[1]
                  for Z, method in zip((X, Y), methods))
        got = sum(int(np.dot(a, b)) for a, b in energy._matched(rx, ry))
        fx, fy = (streamed(Z.elements, -Z.elements[::-1], 1, m, "direct")[1] for Z in (X, Y))
        assert got == int(np.dot(fx, fy)) > 0


class TestCellLength:
    """`_cell_length` as a function of a stream's rows, window and gathered
    pairs alone, on the direct streams of the benchmark's jobs and of the lone
    rows; no counting runs."""

    @staticmethod
    def sums(X, Y):
        xs, ys = X.elements, Y.elements
        return rule_cell(xs, ys, int(xs[0] + ys[0]), int(xs[-1] + ys[-1])).bit_length() - 1

    @pytest.mark.parametrize("N, expected", [
        (10**6, {"S+S": 17, "S'+S": 16, "X+S": 16, "X-X": 16, "lookup": 16, "S' lookup": 16}),
        (10**7, {"S+S": 17, "S'+S": 17, "X+S": 17, "X-X": 17, "lookup": 17, "S' lookup": 17}),
        (12 * 10**6, {"S+S": 17, "S'+S": 17, "X+S": 17, "X-X": 17, "lookup": 17, "S' lookup": 17}),
    ])
    def test_sweep_streams(self, N, expected):
        """The `sweeps` jobs' streams (ramanujan's S+S; theorem's S+S, S'+S
        and two lookups; sidon's X-X and X+S) take 2^16 or 2^17, never more."""
        from energysieve.correlation import largest_sidon_prime
        from energysieve.sets import mod4_restrict
        from energysieve.sieve import DifferenceTable

        S = squares_up_to(N)
        restricted = mod4_restrict(S)
        X = sidon_set(largest_sidon_prime(N), N)
        span = int(X.elements[-1] - X.elements[0])
        assert {
            "S+S": self.sums(S, squares_up_to(N)),
            "S'+S": self.sums(restricted, S),
            "X+S": self.sums(X, S),
            "X-X": rule_cell(X.elements, None, 1, span).bit_length() - 1,
            "lookup": DifferenceTable(S, N).cell.bit_length() - 1,
            "S' lookup": DifferenceTable(restricted, (math.isqrt(N) // 2) ** 2).cell.bit_length() - 1,
        } == expected

    def test_divisor_sum_lookup_takes_the_least(self):
        from energysieve.sieve import DifferenceTable

        S = squares_up_to(2 * 10**6)  # the divisor-series job's 1,414 squares
        table = DifferenceTable(S, math.isqrt(2 * 10**6) ** 2)
        assert table.cell == energy._MIN_CELL == rule_cell(S.elements, None, 1, table.hi)

    @pytest.mark.parametrize("N, cell", [(10**8, 18), (10**9, 19)])
    def test_lone_rows_take_longer_cells(self, N, cell):
        assert self.sums(squares_up_to(N), squares_up_to(N)) == cell

    def test_cells_grow_with_rows_per_pair(self):
        rule = energy._cell_length
        # one pair per cell saves nothing by longer cells; a window with no
        # pair is one cell
        assert rule(10**6, 10**10, 1000) == rule(1, 10**5, 0) == energy._MIN_CELL
        lengths = [rule(rows, 10**9, 10**8) for rows in (10, 10**3, 10**4, 10**5, 10**6)]
        assert lengths == sorted(lengths) and lengths[-1] == energy._MAX_CELL


class TestBlockLifetime:
    """A block is valid until the next one is requested: with each block
    overwritten by -1 the moment the next is requested, every consumer of the
    core still gives the values it gives unpoisoned."""

    @pytest.fixture
    def poison(self, monkeypatch):
        import energysieve.sieve as sieve

        count = energy._pair_counts

        def poisoned(*args, **kwargs):
            backend, blocks, resident = count(*args, **kwargs)

            def stream():
                for offset, counts in blocks:
                    yield offset, counts
                    counts[...] = -1

            return backend, stream(), resident

        def apply():
            monkeypatch.setattr(energy, "_pair_counts", poisoned)
            monkeypatch.setattr(sieve, "_pair_counts", poisoned)

        return apply

    @staticmethod
    def sets():
        X = IntegerSet.from_elements(10**6, random.Random(5).sample(range(1, 10**6 + 1), 3000))
        return X, squares_up_to(10**6)  # whole cells, and sparse cells cut to their sums

    def test_energies_and_representations(self, poison):
        X, S = self.sets()
        runs = [
            lambda: [energy_sum_path(X, S, method=m).value for m in ("direct", "fft")],
            lambda: [energy_sum_path(X, X, method=m).value for m in ("direct", "fft")],
            # one stream, then two matched streams
            lambda: [energy_diff_path(X, X, method=m).value for m in ("direct", "fft")],
            lambda: [energy_diff_path(X, S, method=m).value for m in ("direct", "fft")],
            lambda: [energy_diff_path(S, X, method="direct").value],
            lambda: [rep.counts.tolist() for rep in
                     (rep_sum(X, S, method="direct"), rep_sum(S, S, method="direct"),
                      rep_diff(X, S, method="direct"), rep_diff(S, S, method="direct"),
                      rep_sum(X, S, method="fft"))],
        ]
        expected = [run() for run in runs]
        poison()
        assert [run() for run in runs] == expected

    def test_sidon_and_difference_lookups(self, poison):
        from energysieve.correlation import energy_decomposition
        from energysieve.sieve import divisor_sum_direct

        X, S = self.sets()
        runs = [
            lambda: [is_sidon(sidon_set(691, 10**6)), is_sidon(S), is_sidon(X)],
            lambda: [divisor_sum_direct(A, 10**6) for A in (X, S)],
            lambda: [energy_decomposition(A, 10**6) for A in (X, S)],  # routes (ii), (iii)
        ]
        expected = [run() for run in runs]
        assert expected[0] == [True, False, False]
        poison()
        assert [run() for run in runs] == expected

    def test_direct_blocks_share_one_buffer(self):
        X, S = self.sets()
        xs, ys = X.elements, S.elements
        lo, hi = int(xs[0] + ys[0]), int(xs[-1] + ys[-1])
        _, blocks, _ = energy._pair_counts(xs, ys, lo, hi, "direct")
        (_, first), (_, second) = itertools.islice(blocks, 2)
        assert np.shares_memory(first, second)


class TestRagged:
    @staticmethod
    def rows(first, last, step):
        return [list(range(a, b + 1, step)) for a, b in zip(first, last)]

    @staticmethod
    def gathered(first, last, step):
        """The groups of `_ragged_groups`, checked to cover their rows in order."""
        groups = list(energy._ragged_groups(first, last, step))
        at = 0
        for rows, lens, values in groups:
            assert rows.start == at and len(lens) == rows.stop - at and values.dtype == np.int64
            assert len(values) == lens.sum() > 0
            at = rows.stop
        return groups

    @pytest.mark.parametrize("step", [1, 2])
    def test_rows_in_order(self, step):
        first = np.array([3, 10, -4, 7, 0, 20], dtype=np.int64)
        last = np.array([8, 9, 1, 7, -1, 25], dtype=np.int64)  # two empty rows
        groups = self.gathered(first, last, step)
        rows = self.rows(first.tolist(), last.tolist(), step)
        assert len(groups) == 1  # 19 or 11 values: one group
        assert [v for _, _, values in groups for v in values.tolist()] == [
            v for row in rows for v in row
        ]
        assert [n for _, lens, _ in groups for n in lens.tolist()] == [len(row) for row in rows]

    @pytest.mark.parametrize("step", [1, 2])
    def test_all_rows_empty(self, step):
        assert self.gathered(np.array([5, 9]), np.array([4, 2]), step) == []
        empty = np.zeros(0, dtype=np.int64)
        assert self.gathered(empty, empty, step) == []

    @pytest.mark.parametrize("step", [1, 2])
    def test_groups_within_limit_and_long_rows_alone(self, step):
        G = energy._LOOKUP_GROUP
        # row lengths in values: 3, 0, G + 1 (longer than a group: alone),
        # G - 3, 3 and 0 (together exactly G), 2 G (alone), 1 and 0
        lens = [3, 0, G + 1, G - 3, 3, 0, 2 * G, 1, 0]
        first = np.arange(len(lens), dtype=np.int64) * 10**6
        last = first + (np.array(lens) - 1) * step
        groups = self.gathered(first, last, step)
        assert [(r.start, r.stop) for r, _, _ in groups] == [(0, 2), (2, 3), (3, 6), (6, 7), (7, 9)]
        assert [len(v) for _, _, v in groups] == [3, G + 1, G, 2 * G, 1]
        rows = self.rows(first.tolist(), last.tolist(), step)
        assert [v for _, _, values in groups for v in values.tolist()] == [
            v for row in rows for v in row
        ]

    def test_groups_take_the_ends_they_are_given(self):
        ends = np.array([0, 0, 5, 5, 9, 30, 30], dtype=np.int64)
        # 30 - 9 values in row 5, over the limit: alone; row 6 holds none
        assert list(energy._groups(ends, 8)) == [(0, 4), (4, 5), (5, 6)]
        assert list(energy._groups(ends, 100)) == [(0, 7)]
        assert list(energy._groups(ends[:2], 8)) == []


class TestDispatch:
    @pytest.mark.parametrize("N", [10**6, 12 * 10**6])
    def test_auto_picks_direct_for_squares(self, N):
        S = squares_up_to(N)
        assert rep_sum(S, S).backend == "direct"

    def test_auto_picks_fft_for_dense_set(self):
        rng = np.random.default_rng(3)
        A = IntegerSet.from_elements(200_000, np.flatnonzero(rng.random(200_001) < 0.115)[1:])
        assert 22_000 < len(A) < 24_000
        S = squares_up_to(A.cap)
        assert rep_sum(A, A).backend == "fft"
        assert rep_sum(A, S).backend == "fft"
        assert rep_sum(S, A).backend == "fft"

    def test_auto_counts_equal_direct_on_both_sides(self):
        rng = random.Random(11)
        seen = set()
        # few elements spread over a long window go direct; many elements
        # packed into a short window go to the transform
        for cap, size in [(10**6, 300), (3 * 10**5, 60), (2 * 10**4, 3000), (5000, 2500)] * 3:
            X = IntegerSet.from_elements(cap, rng.sample(range(1, cap + 1), size))
            Y = IntegerSet.from_elements(cap, rng.sample(range(1, cap + 1), size))
            for count in (rep_sum, rep_diff):
                auto = count(X, Y)
                direct = count(X, Y, method="direct")
                assert direct.backend == "direct"
                assert auto.offset == direct.offset
                assert (auto.counts == direct.counts).all()
                seen.add(auto.backend)
        assert seen == {"direct", "fft"}

    def test_failed_transform_falls_back(self, monkeypatch, rng):
        monkeypatch.setattr(energy, "_count_fft", lambda *args: None)
        X = make_random_set(rng, 2000, 80)
        rep = rep_sum(X, X, method="fft")
        assert rep.backend == "fft-fallback"
        assert (rep.counts == rep_sum(X, X, method="direct").counts).all()

    def test_first_moment_rejects_cancelling_errors(self, monkeypatch):
        X = IntegerSet.from_elements(5000, random.Random(5).sample(range(1, 5001), 400))
        length = 2 * int(X.elements[-1] - X.elements[0]) + 1
        irfft = np.fft.irfft
        seen = []

        def shifted(spec, n):
            # move one pair from the smallest sum to the next: the total,
            # the signs and every rounding distance are unchanged
            out = irfft(spec, n)
            out[0] -= 1.0
            out[1] += 1.0
            seen.append(out[:length].copy())
            return out

        monkeypatch.setattr(np.fft, "irfft", shifted)
        rep = rep_sum(X, X, method="fft")
        (conv,) = seen
        rounded = np.rint(conv)
        assert np.abs(conv - rounded).max() < 0.25
        assert rounded.min() >= 0
        assert rounded.sum() == len(X) ** 2
        assert rep.backend == "fft-fallback"
        assert (rep.counts == rep_sum(X, X, method="direct").counts).all()

    def test_corrupted_self_spectrum_falls_back(self, monkeypatch):
        X = IntegerSet.from_elements(5000, random.Random(7).sample(range(1, 5001), 400))
        rfft = np.fft.rfft
        made = []

        def shifted(f, n):
            # the indicator moved up one place: squared, every count moves up
            # two, with the same rounding, signs and (if none leaves) total
            spec = rfft(f, n)
            made.append(n)
            return spec * np.exp(-2j * np.pi * np.arange(len(spec)) / n)

        monkeypatch.setattr(np.fft, "rfft", shifted)
        rep = rep_sum(X, X, method="fft")
        assert len(made) == 1
        assert rep.backend == "fft-fallback"
        assert (rep.counts == rep_sum(X, X, method="direct").counts).all()

    @pytest.mark.parametrize("method", ["direct", "fft"])
    @pytest.mark.parametrize("size", [300, 3000])  # one chunk of sums, then three
    def test_counted_bytes_cover_peak(self, monkeypatch, method, size):
        X = IntegerSet.from_elements(10**6, random.Random(size).sample(range(1, 10**6 + 1), size))
        counted = []
        monkeypatch.setattr(energy, "check_allocation", lambda nbytes, what: counted.append(nbytes))
        tracemalloc.start()
        try:
            rep = rep_sum(X, X, method=method)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.backend == method
        assert peak <= max(counted) + 2**16

    def test_second_moment_rejects_cancelling_errors(self, monkeypatch):
        X = IntegerSet.from_elements(5000, random.Random(5).sample(range(1, 5001), 400))
        length = 2 * int(X.elements[-1] - X.elements[0]) + 1
        k = length // 2
        irfft = np.fft.irfft
        seen = []

        def spread(spec, n):
            # one pair from the middle sum to each neighbour: the total, the
            # signs, the rounding and the first moment are unchanged, the
            # second moment grows by 2
            out = irfft(spec, n)
            out[k - 1 : k + 2] += [1.0, -2.0, 1.0]
            seen.append(out[:length].copy())
            return out

        monkeypatch.setattr(np.fft, "irfft", spread)
        rep = rep_sum(X, X, method="fft")
        (conv,) = seen
        rounded = np.rint(conv)
        assert np.abs(conv - rounded).max() < 0.25 and rounded.min() >= 0
        assert rounded.sum() == len(X) ** 2
        i = np.arange(length)
        direct = rep_sum(X, X, method="direct").counts
        assert (rounded * i).sum() == (direct * i).sum()
        assert (rounded * i * i).sum() == (direct * i * i).sum() + 2
        assert rep.backend == "fft-fallback"
        assert (rep.counts == direct).all()

    # changes at lags 0 to 3 that keep the total r(0) + 2 sum_{d>=1} r(d), so
    # that exactly one of r(0) = |X|, the first moment and the second moment
    # fails
    LAG_ERRORS = {
        "lag-0": [2, -3, 3, -1],
        "first-moment": [0, 5, -8, 3],
        "second-moment": [0, 1, -2, 1],
    }

    @pytest.mark.parametrize("error", sorted(LAG_ERRORS))
    def test_one_spectrum_checks_reject_cancelling_errors(self, monkeypatch, error):
        X = IntegerSet.from_elements(5000, random.Random(5).sample(range(1, 5001), 400))
        xs, n = X.elements, len(X)
        span = int(xs[-1] - xs[0])
        delta = np.array(self.LAG_ERRORS[error])
        true = rep_diff(X, X, method="direct").counts[span:]  # lags 0 .. span
        wrong = true.copy()
        wrong[:4] += delta
        d = np.arange(span + 1)
        assert wrong.min() >= 0 and wrong[0] + 2 * wrong[1:].sum() == n * n
        failing = {
            "lag-0": wrong[0] != n,
            "first-moment": (wrong * d).sum() != (true * d).sum(),
            "second-moment": (wrong * d * d).sum() != (true * d * d).sum(),
        }
        assert [name for name, fails in failing.items() if fails] == [error]
        irfft = np.fft.irfft

        def shifted(spec, n):
            out = irfft(spec, n)
            out[:4] += delta  # whole numbers: every rounding distance is kept
            return out

        monkeypatch.setattr(np.fft, "irfft", shifted)
        verdicts = []
        lags_verified = energy._lags_verified
        monkeypatch.setattr(energy, "_lags_verified",
                            lambda *args: verdicts.append(lags_verified(*args)) or verdicts[-1])
        # the lags asked for as such, which take the one-spectrum checks
        backend, counts = streamed(xs, None, 0, span, "fft")
        assert verdicts == [False]
        assert backend == "fft-fallback"
        assert (counts == true).all()

    SHAPES = {
        "dense": lambda: IntegerSet.from_elements(
            200_000, np.flatnonzero(np.random.default_rng(3).random(200_001) < 0.115)[1:]),
        "sparse": lambda: IntegerSet.from_elements(
            3 * 10**5, random.Random(9).sample(range(1, 3 * 10**5 + 1), 3000)),
    }

    @pytest.mark.parametrize("form", ["two-spectra", "self", "differences"])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_fft_counted_against_traced(self, monkeypatch, form, shape):
        X = self.SHAPES[shape]()
        xs = X.elements
        if form == "differences":
            ys, lo, hi = None, 1, int(xs[-1] - xs[0])
        else:
            ys = squares_up_to(X.cap).elements if form == "two-spectra" else xs
            lo, hi = int(xs[0] + ys[0]), int(xs[-1] + ys[-1])
        counted = []
        monkeypatch.setattr(energy, "check_allocation", lambda nbytes, what: counted.append(nbytes))
        tracemalloc.start()
        try:
            backend, blocks, _ = energy._pair_counts(xs, ys, lo, hi, "fft")
            for _ in blocks:  # a caller holding each block
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        (count,) = counted
        assert backend == "fft"
        assert peak <= count + 2**16
        assert count <= 2 * peak

    @staticmethod
    def peak_rise(make, count):
        """The resident peak's rise (VmHWM: ru_maxrss keeps the forking
        process's peak across exec) over one count in a fresh process, and the
        bytes counted for it: `make` makes the sets X and Y from numpy, and
        `count` is the count's statement."""
        code = f"""if True:
            import json
            import numpy as np
            from energysieve import energy
            from energysieve.sets import IntegerSet, squares_up_to

            def peak():
                with open("/proc/self/status") as fh:
                    line = next(line for line in fh if line.startswith("VmHWM:"))
                return 1024 * int(line.split()[1])

            {make}
            counted = []
            energy.check_allocation = lambda nbytes, what: counted.append(nbytes)
            before = peak()
            {count}
            print(json.dumps({{"rise": peak() - before, "counted": counted}}))
        """
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60)
        got = json.loads(out.stdout)
        (count,) = got["counted"]
        return got["rise"], count

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM")
    def test_fft_counted_against_peak_rss(self):
        # tracemalloc does not see the FFT library's scratch, so the count is
        # held against the resident peak of a fresh process: E(A, S) of the
        # dense set, two spectra at 400,000 points
        rise, count = self.peak_rise(
            "rng = np.random.default_rng(3); "
            "X = IntegerSet.from_elements(200_000, np.flatnonzero(rng.random(200_001) < 0.115)[1:]); "
            "Y = squares_up_to(X.cap)",
            'energy.energy_sum_path(X, Y, method="fft")')
        assert 0 < rise <= count + 2**20

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM")
    def test_long_cells_counted_against_peak_rss(self):
        # 2,000 random elements of [1, 1e8] with 2,000 more: few pairs for the
        # rows and the window, so the rule takes cells longer than 2^17, and
        # every page of their 2 MiB buffer holds a sum
        make = ("rng = np.random.default_rng(5); "
                "X, Y = (IntegerSet.from_elements(10**8, rng.choice(10**8, 2000, replace=False) + 1) "
                "for _ in range(2))")
        rise, count = self.peak_rise(make, 'energy.energy_sum_path(X, Y, method="direct")')
        rng = np.random.default_rng(5)
        xs, ys = (np.sort(rng.choice(10**8, 2000, replace=False) + 1) for _ in range(2))
        cell = rule_cell(xs, ys, int(xs[0] + ys[0]), int(xs[-1] + ys[-1]))
        assert cell > 1 << 17 and count >= 8 * cell
        assert 0 < rise <= count + 2**20


class TestSmoothSize:
    def test_smallest_5_smooth_length(self):
        top = 10**5
        smooth = sorted(
            2**a * 3**b * 5**c
            for a in range(18) for b in range(12) for c in range(9)
            if 2**a * 3**b * 5**c <= 2 * top
        )
        at = 0
        for length in range(1, top + 1):
            while smooth[at] < length:
                at += 1
            size = energy._smooth_size(length)
            assert size == smooth[at], length
            assert size <= 1 << (length - 1).bit_length()

    def test_transform_lengths(self):
        # the benchmark's dense set: 4e5 + 1 values of x + y fit in 405,000
        # points, not 2^19
        assert energy._smooth_size(400_001) == 405_000 == 2**3 * 3**4 * 5**4
        assert energy._smooth_size(1_048_577) == 1_049_760
        assert [energy._smooth_size(n) for n in (1, 2, 7, 11, 17, 97)] == [1, 2, 8, 12, 18, 100]


class TestEnergyPaths:
    def test_small_pair(self):
        X = iset(2, [1, 2])
        assert energy_sum_path(X, X).value == 6
        assert energy_diff_path(X, X).value == 6
        assert energy_bruteforce(X, X).value == 6
        assert energy_oracle([1, 2], [1, 2]) == 6

    def test_singletons(self):
        X = iset(3, [3])
        Y = iset(7, [7])
        for fn in (energy_sum_path, energy_diff_path, energy_bruteforce):
            assert fn(X, Y).value == 1

    def test_squares16(self):
        S = squares_up_to(16)
        assert energy_sum_path(S, S).value == 28
        assert energy_diff_path(S, S).value == 28
        assert energy_bruteforce(S, S).value == 28

    def test_disjoint_difference_supports(self):
        X = iset(2, [1, 2])
        Y = iset(100, [1, 100])
        assert energy_diff_path(X, Y).value == 4
        assert energy_sum_path(X, Y).value == 4

    def test_path_agreement_random(self, rng):
        for _ in range(100):
            X = make_random_set(rng, 1000, 60)
            Y = make_random_set(rng, 1000, 60)
            a = energy_sum_path(X, Y).value
            b = energy_diff_path(X, Y).value
            c = energy_bruteforce(X, Y).value
            assert a == b == c

    @pytest.mark.parametrize("method", ["auto", "direct", "fft"])
    def test_self_energy_matches_oracles(self, rng, method):
        sets = [make_random_set(rng, 60, 12) for _ in range(12)]
        sets += [iset(9, [5]), iset(2, [1, 2]), squares_up_to(400)]
        for X in sets:
            xs = list(X)
            expected = energy_oracle(xs, xs)
            reps = rep_oracle(xs, xs, lambda x, y: x + y)
            for Y in (X, iset(X.cap, xs)):  # the same set, and an equal one
                rep = rep_sum(X, Y, method=method)
                assert {rep.offset + int(i): int(rep.counts[i]) for i in np.flatnonzero(rep.counts)} == reps
                assert energy_sum_path(X, Y, method=method).value == expected
                assert energy_diff_path(X, Y, method=method).value == expected
                assert energy_bruteforce(X, Y).value == expected

    @pytest.mark.parametrize("method", ["direct", "fft"])
    def test_diff_path_counts_positive_differences_only(self, monkeypatch, rng, method):
        windows = []
        core = energy._pair_counts

        def spy(xs, ys, lo, hi, method, held=0):
            windows.append((lo, hi))
            return core(xs, ys, lo, hi, method, held)

        monkeypatch.setattr(energy, "_pair_counts", spy)
        pairs = [(make_random_set(rng, 300, 30), make_random_set(rng, 300, 30)) for _ in range(20)]
        pairs += [(X, X) for X, _ in pairs[:5]]  # X = Y
        pairs += [(iset(50, [17]), iset(50, [3, 9, 40])), (iset(50, [3, 9, 40]), iset(9, [9]))]
        for X, Y in pairs:
            windows.clear()
            value = energy_diff_path(X, Y, method=method).value
            m = min(int(X.elements[-1] - X.elements[0]), int(Y.elements[-1] - Y.elements[0]))
            assert set(windows) == {(1, m)}  # m = 0 for a singleton: nothing counted
            assert value == energy_sum_path(X, Y, method=method).value
            assert value == energy_bruteforce(X, Y).value == energy_oracle(list(X), list(Y))

    def test_matches_quadruple_oracle(self, rng):
        for _ in range(15):
            X = make_random_set(rng, 40, 8)
            Y = make_random_set(rng, 40, 8)
            assert energy_sum_path(X, Y).value == energy_oracle(list(X), list(Y))

    def test_trivial_bounds(self, rng):
        for _ in range(60):
            X = make_random_set(rng, 500, 40)
            Y = make_random_set(rng, 500, 40)
            rep = energy_sum_path(X, Y)
            assert rep.lower_trivial <= rep.value <= rep.upper_trivial

    def test_affine_invariance(self, rng):
        for _ in range(30):
            X = make_random_set(rng, 200, 25)
            Y = make_random_set(rng, 200, 25)
            base = energy_sum_path(X, Y).value
            t = rng.randint(1, 50)
            Xt = iset(X.cap + t, [e + t for e in X])
            Yt = iset(Y.cap + t, [e + t for e in Y])
            assert energy_sum_path(Xt, Yt).value == base
            u = rng.randint(2, 5)
            Xu = iset(X.cap * u, [e * u for e in X])
            Yu = iset(Y.cap * u, [e * u for e in Y])
            assert energy_sum_path(Xu, Yu).value == base

    def test_brute_force_counts_its_chunk_not_the_span(self, monkeypatch):
        # Y spans 10^12 values; membership is a binary search, so the count is
        # the differences' working set, 33 bytes for each of the 4 differences
        X = iset(10, [1, 2])
        Y = iset(10**12, [1, 10**12])
        counted = []
        check = energy.check_allocation
        monkeypatch.setattr(energy, "check_allocation",
                            lambda nbytes, what: counted.append(nbytes) or check(nbytes, what))
        monkeypatch.setenv("ENERGYSIEVE_MEMORY_CAP", "132")
        assert energy_bruteforce(X, Y).value == 4
        assert counted == [132]
        monkeypatch.setenv("ENERGYSIEVE_MEMORY_CAP", "131")
        with pytest.raises(ResourceLimitError):
            energy_bruteforce(X, Y)
        # 300 of 10^6 on each side: 90,000 differences in one chunk
        X, Y = (IntegerSet.from_elements(10**6, random.Random(s).sample(range(1, 10**6 + 1), 300))
                for s in (1, 2))
        monkeypatch.delenv("ENERGYSIEVE_MEMORY_CAP")
        counted.clear()
        tracemalloc.start()
        try:
            value = energy_bruteforce(X, Y).value
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == energy_sum_path(X, Y).value
        assert peak <= counted[0] + 2**16 and counted[0] <= 2 * peak

    def test_brute_force_membership_near_int64_limits(self):
        # x1 - x2 + y1 passes 2^63 - 1 and wraps to a negative value, in no set
        top = 2**63 - 1
        X = iset(top, [1, top - 5, top])
        Y = iset(top, [2, 7, top - 1, top])
        assert energy_bruteforce(X, Y).value == energy_oracle(list(X), list(Y))

    def test_brute_guard(self):
        X = iset(3000, range(1, 2001))
        with pytest.raises(ResourceLimitError):
            energy_bruteforce(X, X)


class TestSumset:
    def test_examples(self):
        assert list(sumset(iset(2, [1, 2]), iset(2, [1, 2]))) == [2, 3, 4]
        assert list(sumset(iset(1, [1]), iset(5, [5]))) == [6]

    def test_squares16(self):
        S = squares_up_to(16)
        assert list(sumset(S, S)) == [2, 5, 8, 10, 13, 17, 18, 20, 25, 32]

    def test_oracle_and_cs_display(self, rng):
        for _ in range(40):
            X = make_random_set(rng, 300, 30)
            Y = make_random_set(rng, 300, 30)
            expected = sorted({x + y for x, y in itertools.product(list(X), list(Y))})
            ss = sumset(X, Y)
            assert list(ss) == expected
            # |X||Y| <= |X+Y| * E(X,Y) via Cauchy-Schwarz on the rep function
            e = energy_sum_path(X, Y).value
            assert (len(X) * len(Y)) ** 2 <= len(ss) * e


class TestCauchySchwarz:
    def test_equal_sets(self):
        S = squares_up_to(50)
        rep = cauchy_schwarz_check(S, S)
        assert rep.lhs == rep.rhs
        assert rep.holds

    def test_example(self):
        rep = cauchy_schwarz_check(iset(2, [1, 2]), iset(100, [1, 100]))
        assert rep.lhs == 16
        assert rep.rhs == 36
        assert rep.holds

    def test_random_sweep(self, rng):
        for _ in range(200):
            X = make_random_set(rng, 400, 25)
            Y = make_random_set(rng, 400, 25)
            assert cauchy_schwarz_check(X, Y).holds
