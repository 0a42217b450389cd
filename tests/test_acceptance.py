"""Acceptance suite: every release criterion, one pass/fail line each.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
The exact-identity criteria admit no tolerance at all; the trend criteria pin
the bands stated in the project contract.
"""

import math
import random
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from energysieve.arith import EPS_HALF, EPS_ZERO
from energysieve.correlation import (
    energy_decomposition,
    energy_lower_bound,
    ramanujan_ratio,
    sidon_report,
)
from energysieve.energy import (
    energy_bruteforce,
    energy_diff_path,
    energy_sum_path,
    rep_diff,
    rep_sum,
)
from energysieve.sets import (
    IntegerSet,
    occupancy,
    quadratic_image,
    residue_avoiding_random,
    sidon_set,
    squares_up_to,
)
from energysieve.sieve import (
    composite_moduli_check,
    divisor_sum_direct,
    divisor_sum_partition,
)
from energysieve.arith import sieve_primes


@contextmanager
def criterion(num, label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] C{num:02d} {label}: FAIL")
        raise
    print(f"[acceptance] C{num:02d} {label}: PASS ({time.perf_counter() - start:.1f}s)")


def random_pair(rng):
    n = rng.randint(10, 2000)
    xs = rng.sample(range(1, n + 1), rng.randint(1, min(100, n)))
    ys = rng.sample(range(1, n + 1), rng.randint(1, min(100, n)))
    return IntegerSet.from_elements(n, xs), IntegerSet.from_elements(n, ys)


@pytest.fixture(scope="module")
def corpus():
    """Structured plus random sets with N <= 1e4, shared by several criteria."""
    rng = random.Random(20260809)
    sets = [
        (squares_up_to(10**4), 10**4),
        (sidon_set(53, 10**4), 10**4),
        (sidon_set(13, 400), 400),
        (quadratic_image(1, 0, 0, 10**4), 10**4),
        (quadratic_image(2, 3, -1, 10**4), 10**4),
        (quadratic_image(-1, 5, 9000, 10**4), 10**4),
    ]
    for seed in range(8):
        sets.append(
            (residue_avoiding_random(10**4, EPS_HALF, 11, seed=seed, strategy="qr"), 10**4)
        )
    for _ in range(100):
        cap = rng.randint(20, 10**4)
        size = rng.randint(1, min(150, cap))
        sets.append(
            (IntegerSet.from_elements(cap, rng.sample(range(1, cap + 1), size)), cap)
        )
    return sets


def test_c01_exact_path_agreement():
    with criterion(1, "three energy paths agree on 500 random pairs"):
        rng = random.Random(1001)
        start = time.perf_counter()
        for _ in range(500):
            X, Y = random_pair(rng)
            a = energy_sum_path(X, Y).value
            b = energy_diff_path(X, Y).value
            c = energy_bruteforce(X, Y).value
            assert a == b == c
        assert time.perf_counter() - start < 60


def test_c02_fixed_fixture():
    with criterion(2, "E(S,S) = 28 at N=16 with the enumerated rep tables"):
        S = squares_up_to(16)
        assert energy_sum_path(S, S).value == 28
        assert energy_diff_path(S, S).value == 28
        assert energy_bruteforce(S, S).value == 28
        sums = rep_sum(S, S)
        expected = {2: 1, 5: 2, 8: 1, 10: 2, 13: 2, 17: 2, 18: 1, 20: 2, 25: 2, 32: 1}
        assert {int(n): sums.at(int(n)) for n in sums.support()} == expected
        diffs = rep_diff(S, S)
        assert diffs.at(0) == 4
        for d in (3, 5, 7, 8, 12, 15):
            assert diffs.at(d) == 1 and diffs.at(-d) == 1
        assert diffs.total() == 16


def test_c03_divisor_sum_identity():
    with criterion(3, "divisor-sum identity on 200 random sets and squares at 1e5"):
        rng = random.Random(3003)
        start = time.perf_counter()
        for _ in range(200):
            cap = rng.randint(10, 10**4)
            size = rng.randint(2, min(200, cap))
            A = IntegerSet.from_elements(cap, rng.sample(range(1, cap + 1), size))
            assert divisor_sum_direct(A, cap) == divisor_sum_partition(A, cap).total
        S = squares_up_to(10**5)
        assert divisor_sum_direct(S, 10**5) == divisor_sum_partition(S, 10**5).total
        assert time.perf_counter() - start < 120


def test_c04_composite_moduli_suite():
    with criterion(4, "modulus inequality under the hypothesis, v <= 1e3"):
        S = squares_up_to(10**4)
        for v in range(1, 1001):
            res = composite_moduli_check(S, v, EPS_HALF)
            if res.hypothesis_ok:
                assert res.holds, f"squares, v={v}"
        # generating epsilon keeps each set under its own ceiling at sieved primes
        checked = 0
        for seed in range(100):
            eps = EPS_HALF if seed % 2 else EPS_ZERO
            strategy = "qr" if seed % 3 else "uniform"
            A = residue_avoiding_random(4000, eps, 13, seed=seed, strategy=strategy)
            if len(A) == 0:
                continue
            checked += 1
            for v in range(1, 1001):
                res = composite_moduli_check(A, v, eps)
                if res.hypothesis_ok:
                    assert res.holds, f"seed={seed}, v={v}"
        assert checked >= 90
        # and the eps=0 squares case must report the v=3 hypothesis failure
        res = composite_moduli_check(S, 3, EPS_ZERO)
        assert not res.hypothesis_ok
        assert not res.holds


def test_c05_decomposition_equality(corpus):
    with criterion(5, "three-route decomposition of E(A,S), incl. squares at 1e6"):
        start = time.perf_counter()
        for A, n in corpus:
            if len(A) == 0:
                continue
            assert energy_decomposition(A, n).ok
        assert energy_decomposition(squares_up_to(10**6), 10**6).ok
        assert time.perf_counter() - start < 300


def test_c06_lower_bound_never_exceeds(corpus):
    with criterion(6, "half divisor sum of the mod-4 restriction stays under E(A,S)"):
        for A, n in corpus:
            if len(A) == 0:
                continue
            rep = energy_lower_bound(A, n)
            assert rep.holds
            assert rep.half_divisor_sum <= rep.energy
        big = energy_lower_bound(squares_up_to(10**6), 10**6)
        assert big.holds


def test_c07_ramanujan_trend():
    with criterion(7, "squares-energy ratio in [0.125, 0.5] at 1e7, tail tightening"):
        start = time.perf_counter()
        ratios = {n: ramanujan_ratio(n) for n in (10**3, 10**4, 10**5, 10**6)}
        ratios[10**7] = ramanujan_ratio(10**7, method="fft")
        assert 0.125 <= ratios[10**7] <= 0.5
        gaps = [abs(ratios[n] - 0.25) for n in (10**5, 10**6, 10**7)]
        assert gaps[0] >= gaps[1] >= gaps[2]
        assert time.perf_counter() - start < 600


def test_c08_log_growth_signature():
    with criterion(8, "E/( |A||S| ) strictly grows; E/(|A|^2 log N) in a 10x band"):
        ratio_as = []
        ratio_log = []
        for n in (10**3, 10**4, 10**5, 10**6):
            S = squares_up_to(n)
            e = energy_sum_path(S, S).value
            ratio_as.append(e / (len(S) * len(S)))
            ratio_log.append(e / (len(S) ** 2 * math.log(n)))
        assert all(a < b for a, b in zip(ratio_as, ratio_as[1:]))
        assert min(ratio_log) > 0
        assert max(ratio_log) / min(ratio_log) < 10


def test_c09_sidon_contrast():
    with criterion(9, "Sidon sets obey the linear energy cap; squares break it at 1e6"):
        for p in sieve_primes(200).tolist():
            n = 2 * p * p + p
            rep = sidon_report(sidon_set(p, n), n)
            assert rep.holds, f"p={p}"
            assert rep.energy <= rep.linear_bound
        S = squares_up_to(10**6)
        e = energy_sum_path(S, S).value
        assert e > len(S) * (len(S) + len(S))  # same |S|(|X|+|S|) shape with X=S


def test_c10_quadratic_residue_occupancy():
    with criterion(10, "squares occupy exactly (p+1)/2 classes mod every odd p <= 1e4"):
        S = squares_up_to(10**8)  # covers a full period mod every p <= 1e4
        for p in sieve_primes(10**4).tolist():
            if p == 2:
                # squares meet both classes mod 2; (p+1)/2 is not integral here
                assert np.count_nonzero(occupancy(S, 2)) == 2
                continue
            assert np.count_nonzero(occupancy(S, p)) == (p + 1) // 2, f"p={p}"


def test_c11_cli_determinism(tmp_path):
    with criterion(11, "byte-identical CLI outputs for a fixed seed"):
        def run(*argv):
            return subprocess.run(
                [sys.executable, "-m", "energysieve.cli", *argv],
                capture_output=True,
                text=True,
                check=True,
            )

        outs = []
        for name in ("a", "b"):
            gen = tmp_path / f"set_{name}.txt"
            run(
                "gen", "random-avoiding", "--N", "2000", "--P", "13", "--eps", "1/2",
                "--strategy", "uniform", "--seed", "7", "--out", str(gen),
            )
            sweep = tmp_path / f"sweep_{name}.csv"
            run("sweep", "theorem", "--grid", "1e3,2e3", "--out", str(sweep))
            energy_out = run("energy", str(gen), "--squares").stdout
            sieve_out = run("sieve", str(gen), "--check-v", "60", "--eps", "1/2").stdout
            sweep_rows = [
                line.rsplit(",", 1)[0]  # timing column is excluded from the contract
                for line in sweep.read_text().splitlines()
            ]
            outs.append((gen.read_bytes(), energy_out, sieve_out, sweep_rows))
        assert outs[0] == outs[1]
