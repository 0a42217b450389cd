import csv
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from energysieve import arith, cli, correlation, energy, limits, sets
from energysieve.energy import EnergyReport
from energysieve.limits import MEMORY_CAP_ENV, check_allocation
from energysieve.sets import read_set, sidon_set, is_sidon


def run(*argv):
    return cli.main(list(argv))


def write_squares(tmp_path, n=16, name="sq.txt"):
    path = tmp_path / name
    assert run("gen", "squares", "--N", str(n), "--out", str(path)) == 0
    return path


class TestGen:
    def test_squares(self, tmp_path):
        path = write_squares(tmp_path, 100)
        A = read_set(path)
        assert len(A) == 10
        assert A.cap == 100

    def test_sidon(self, tmp_path):
        path = tmp_path / "sidon.txt"
        assert run("gen", "sidon", "--p", "5", "--N", "60", "--out", str(path)) == 0
        A = read_set(path)
        assert len(A) == 5
        assert is_sidon(A)
        assert list(A) == list(sidon_set(5, 60))

    def test_quadratic(self, tmp_path):
        path = tmp_path / "q.txt"
        assert run(
            "gen", "quadratic", "--a", "1", "--b", "0", "--c", "0", "--N", "10",
            "--out", str(path),
        ) == 0
        assert list(read_set(path)) == [1, 4, 9]

    def test_random_avoiding_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
        args = ["gen", "random-avoiding", "--N", "1000", "--P", "13", "--eps", "0.5",
                "--strategy", "uniform", "--seed", "7", "--out"]
        assert run(*args, str(p1)) == 0
        assert run(*args, str(p2)) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_sidon_large_prime_small_cap(self, tmp_path):
        # only i <= (N - 1) // (2p) can land in [1, N]; the scan stops there
        path = tmp_path / "sidon.txt"
        assert run("gen", "sidon", "--p", "1000000007", "--N", "100", "--out", str(path)) == 0
        assert list(read_set(path)) == [1]

    def test_sidon_needs_p(self, tmp_path):
        assert run("gen", "sidon", "--N", "60", "--out", str(tmp_path / "x.txt")) == 2

    def test_bad_usage(self):
        assert run("gen", "nonsense", "--N", "10", "--out", "x") == 2


@pytest.mark.parametrize("argv, foreign", [
    (["gen", "squares", "--N", "16", "--seed", "3"], "--seed"),
    (["gen", "sidon", "--p", "5", "--N", "60", "--a", "2"], "--a"),
    (["gen", "quadratic", "--N", "10", "--P", "7"], "--P"),
    (["gen", "random-avoiding", "--N", "100", "--p", "5"], "--p"),
    (["sweep", "ramanujan", "--grid", "100", "--set", "{set}"], "--set"),
    (["sweep", "sidon", "--grid", "100", "--set", "{set}"], "--set"),
    (["energy", "{set}", "{set}", "--squares"], "--squares"),
    (["sweep", "ramanujan", "--grid", "100", "--jobs", "2"], "--jobs"),
    (["gen", "random-avoiding", "--N", "100", "--seed", "7"], "--seed"),
    (["gen", "random-avoiding", "--N", "100", "--strategy", "qr", "--seed", "7"], "--seed"),
    (["sieve", "{set}", "--gallagher", "30", "--eps", "7"], "--eps"),
    (["sieve", "{set}", "--divisor-sum", "--eps", "1/2"], "--eps"),
])
def test_option_the_command_does_not_read_is_a_usage_error(tmp_path, capsys, argv, foreign):
    """Each command takes only the options it reads: a foreign one exits 2
    with the command's own usage error before anything is written."""
    path = write_squares(tmp_path)
    out = tmp_path / "out.txt"
    capsys.readouterr()
    assert run(*(a.format(set=path) for a in argv), "--out", str(out)) == 2
    stdout, err = capsys.readouterr()
    command = "energysieve " + " ".join(argv[:2] if argv[0] in ("gen", "sweep") else argv[:1])
    assert err.startswith(f"usage: {command} [-h]")
    last = err.splitlines()[-1]
    assert last.startswith(f"{command}: error: ") and foreign in last
    assert stdout == "" and not out.exists()


class TestResourceRefusals:
    """Inputs whose tables would not fit exit 4 before allocating, without a traceback."""

    def test_random_avoiding_huge_range(self, tmp_path, capsys):
        out = tmp_path / "r.txt"
        assert run("gen", "random-avoiding", "--N", "3000000000", "--P", "3",
                   "--out", str(out)) == 4
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    def test_sidon_prime_sieve_over_small_cap(self, tmp_path, monkeypatch, capsys):
        # certifying p trial-divides by the primes up to 10^9 a sieve segment at
        # a time: about 4 MB, counted first
        monkeypatch.setenv(MEMORY_CAP_ENV, str(10**6))
        arith._factors.cache_clear()
        out = tmp_path / "sidon.txt"
        assert run("gen", "sidon", "--p", str(10**18 + 3), "--N", "100", "--out", str(out)) == 4
        assert capsys.readouterr().err.startswith(
            "resource limit: trial division of 1000000000000000003 needs")
        assert not out.exists()

    def test_sidon_prime_certified_under_small_cap(self, tmp_path, monkeypatch):
        # the primes up to 10^7 are never all held: one segment's are, about 4 MB
        monkeypatch.setenv(MEMORY_CAP_ENV, str(12 * 10**6))
        arith._factors.cache_clear()
        out = tmp_path / "sidon.txt"
        assert run("gen", "sidon", "--p", "100000000000031", "--N", "100", "--out", str(out)) == 0
        assert list(read_set(out)) == [1]

    def test_sidon_prime_sieve_within_default_cap(self, tmp_path, monkeypatch):
        monkeypatch.delenv(MEMORY_CAP_ENV, raising=False)
        out = tmp_path / "sidon.txt"
        # sieving to 2^21 crosses two segments
        assert run("gen", "sidon", "--p", "4398046511093", "--N", "100", "--out", str(out)) == 0
        assert list(read_set(out)) == [1]

        # trial division of 10^18 + 3 takes about five seconds: stop once the
        # default cap has admitted its count
        class Admitted(Exception):
            pass

        def admit(nbytes, what):
            check_allocation(nbytes, what)
            raise Admitted

        monkeypatch.setattr(arith, "check_allocation", admit)
        with pytest.raises(Admitted):
            sidon_set(10**18 + 3, 100)

    def test_divisor_sum_partition_over_small_cap(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "full.txt"
        path.write_text("N=100000\n" + "".join(f"{a}\n" for a in range(1, 10**5 + 1)))
        # reading the file is counted at 2.8 MB, the scan at 4.1 MB
        monkeypatch.setenv(MEMORY_CAP_ENV, str(3 * 10**6))
        assert run("sieve", str(path), "--divisor-sum") == 4
        assert capsys.readouterr().err.startswith("resource limit: partition scan of 100000")

    def test_set_file_over_small_cap(self, tmp_path, monkeypatch, capsys):
        # 22,857 elements of [1, 2 * 10^5] in the writer's form: about 147 KB of
        # text, counted with its parse at 660 KB
        path = tmp_path / "A.txt"
        elements = np.random.default_rng(5).choice(2 * 10**5, 22857, replace=False) + 1
        sets.write_set(sets.IntegerSet.from_elements(2 * 10**5, elements), path)
        monkeypatch.setenv(MEMORY_CAP_ENV, str(250000))
        assert run("sieve", str(path), "--gallagher", "400") == 4
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("resource limit: set file of 22858 ")
        assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err
        monkeypatch.setenv(MEMORY_CAP_ENV, str(10**6))
        assert run("sieve", str(path), "--gallagher", "400") == 0

    def test_divisor_sum_partition_refused_before_the_direct_route(
            self, tmp_path, monkeypatch, capsys):
        # the direct route runs first, so that its lookup's peak meets no
        # partition rows, but only once the partition scan is admitted
        direct, partition = cli.sieve.divisor_sum_direct, cli.sieve.divisor_sum_partition
        calls = []
        monkeypatch.setattr(cli.sieve, "divisor_sum_direct",
                            lambda *args: calls.append("direct") or direct(*args))
        monkeypatch.setattr(cli.sieve, "divisor_sum_partition",
                            lambda *args: calls.append("partition") or partition(*args))
        assert run("sieve", str(write_squares(tmp_path, 10**4)), "--divisor-sum") == 0
        assert calls == ["direct", "partition"]

        def refused(*args):
            raise AssertionError("the direct route ran before the partition's refusals")

        monkeypatch.setattr(cli.sieve, "divisor_sum_direct", refused)
        full, far = tmp_path / "full.txt", tmp_path / "far.txt"
        full.write_text("N=100000\n" + "".join(f"{a}\n" for a in range(1, 10**5 + 1)))
        far.write_text(f"N={65537**2}\n1\n2\n")
        capsys.readouterr()
        monkeypatch.setenv(MEMORY_CAP_ENV, str(3 * 10**6))  # admits reading the file
        assert run("sieve", str(full), "--divisor-sum") == 4
        assert capsys.readouterr().err.startswith("resource limit: partition scan of 100000")
        monkeypatch.delenv(MEMORY_CAP_ENV)
        assert run("sieve", str(far), "--divisor-sum") == 4
        assert capsys.readouterr().err == (
            "resource limit: partition scan over 65537 moduli exceeds guard 65536\n")

    @pytest.mark.parametrize("message, line", [
        ("Unable to allocate 8.00 EiB for an array", "Unable to allocate 8.00 EiB for an array"),
        ("", "out of memory"),
    ])
    def test_memory_error_exits_4(self, tmp_path, monkeypatch, capsys, message, line):
        def exhausted(N):
            raise MemoryError(message)

        monkeypatch.setattr(cli.sets, "squares_up_to", exhausted)
        assert run("gen", "squares", "--N", "100", "--out", str(tmp_path / "s.txt")) == 4
        assert capsys.readouterr().err == f"resource limit: {line}\n"

    def test_huge_cap_refused_at_once_where_the_work_grows(self, tmp_path, monkeypatch, capsys):
        # under the default memory cap: 2 * 10^15 values of x; 10^15 and 10^7
        # moduli; 10^6 and 2 * 10^6 sums, each alone in a cell of 2^17 values
        monkeypatch.delenv(MEMORY_CAP_ENV, raising=False)
        huge, wide, one = tmp_path / "huge.txt", tmp_path / "wide.txt", tmp_path / "one.txt"
        huge.write_text(f"N={10**30}\n5\n")
        wide.write_text(f"N={10**14}\n1\n{10**14}\n")
        one.write_text(f"N={10**12}\n5\n")
        (tmp_path / "wide12.txt").write_text(f"N={10**12}\n1\n{10**12}\n")
        out = tmp_path / "q.txt"
        for argv in (["gen", "quadratic", "--N", str(10**30), "--out", str(out)],
                     ["sieve", str(huge), "--divisor-sum"],
                     ["sieve", str(wide), "--divisor-sum"],
                     ["energy", str(one), "--squares"],
                     ["energy", str(tmp_path / "wide12.txt"), "--squares", "--method", "diff"]):
            start = time.perf_counter()
            assert run(*argv) == 4
            assert time.perf_counter() - start < 5
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("resource limit: ")
            assert len(captured.err.splitlines()) == 1
        assert not out.exists()

    def test_quadratic_huge_linear_coefficient(self, tmp_path):
        out = tmp_path / "q.txt"
        # x^2 + 10^11 x is 0 at x = 0 and -10^11 and at least 10^11 + 1 elsewhere
        assert run("gen", "quadratic", "--a", "1", "--b", str(10**11), "--N", "100",
                   "--out", str(out)) == 0
        assert list(read_set(out)) == []
        assert run("gen", "quadratic", "--a", "1", "--b", str(10**11), "--c", "100",
                   "--N", "100", "--out", str(out)) == 0
        assert list(read_set(out)) == [100]

    def test_few_survivors_counted_as_kept(self, tmp_path, monkeypatch):
        # 1,319 of 10^6 values survive: about 2 bytes per value, not 17
        monkeypatch.setenv(MEMORY_CAP_ENV, str(4 * 10**6))
        out = tmp_path / "r.txt"
        assert run("gen", "random-avoiding", "--N", str(10**6), "--P", "31",
                   "--strategy", "uniform", "--out", str(out)) == 0
        assert len(read_set(out)) == 1319

    def test_quadratic_value_beyond_int64_exit2(self, tmp_path, capsys):
        # x^2 + 2^63 - 10 <= 2^63 + 100 for |x| <= 10; x = 4 gives 2^63 + 6
        out = tmp_path / "q.txt"
        assert run("gen", "quadratic", "--a", "1", "--b", "0", "--c", str(2**63 - 10),
                   "--N", str(2**63 + 100), "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: quadratic image has a value outside [1, {2**63 - 1}]\n"
        assert not out.exists()

    def test_quadratic_cap_beyond_int64_when_values_fit(self, tmp_path):
        # 2^63 - 1 + 3x - 10^12 x^2 >= 1 for 6,075 values of x, all below 2^63
        wide, narrow = tmp_path / "wide.txt", tmp_path / "narrow.txt"
        for N, out in ((2**64, wide), (2**63 - 1, narrow)):
            assert run("gen", "quadratic", "--a", str(-10**12), "--b", "3", "--c", str(2**63 - 1),
                       "--N", str(N), "--out", str(out)) == 0
        A, B = read_set(wide), read_set(narrow)
        assert (A.cap, B.cap) == (2**64, 2**63 - 1) and len(A) == 6075
        assert A.elements.tolist() == B.elements.tolist()


class TestEnergy:
    def test_tiny_fixture(self, tmp_path):
        pair = tmp_path / "pair.txt"
        pair.write_text("N=2\n1\n2\n")
        out = tmp_path / "e.csv"
        assert run("energy", str(pair), str(pair), "--out", str(out)) == 0
        rows = list(csv.DictReader(out.open()))
        assert [r["method"] for r in rows] == ["sum-identity", "diff-identity", "brute-force"]
        assert all(r["value"] == "6" for r in rows)

    def test_squares_flag(self, tmp_path):
        path = write_squares(tmp_path, 16)
        out = tmp_path / "e.csv"
        assert run("energy", str(path), "--squares", "--out", str(out)) == 0
        rows = list(csv.DictReader(out.open()))
        assert all(r["value"] == "28" for r in rows)

    def test_json_mirror(self, tmp_path, capsys):
        path = write_squares(tmp_path, 16)
        assert run("energy", str(path), "--squares", "--format", "json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert [r["value"] for r in payload] == [28, 28, 28]

    def test_single_method(self, tmp_path, capsys):
        path = write_squares(tmp_path, 16)
        assert run("energy", str(path), "--squares", "--method", "brute") == 0
        assert "brute-force,28" in capsys.readouterr().out

    @pytest.mark.parametrize("method", ["sum", "all", "diff", "brute"])
    def test_sums_past_int64_refused_by_the_sum_route(self, tmp_path, method):
        # {1, 2^63 - 2}: the largest sum passes 2^63 - 1, no difference does
        path = tmp_path / "top.txt"
        path.write_text(f"N={2**63 - 1}\n1\n{2**63 - 2}\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run(
            [sys.executable, "-m", "energysieve.cli", "energy", str(path), str(path),
             "--method", method], env=env, capture_output=True, text=True, timeout=60)
        if method in ("sum", "all"):
            assert out.returncode == 2 and out.stdout == ""
            assert len(out.stderr.splitlines()) == 1 and out.stderr.startswith("error: ")
            assert "--method diff" in out.stderr
        else:
            assert out.returncode == 0 and out.stderr == ""
            assert out.stdout.splitlines()[1].split(",")[1] == "6"

    def test_wide_span_counted_by_its_sums(self, tmp_path, monkeypatch, capsys):
        # 10^12 apart: the sum and difference routes visit the cells with a sum
        monkeypatch.delenv(MEMORY_CAP_ENV, raising=False)
        path = tmp_path / "wide.txt"
        path.write_text(f"N={10**12}\n1\n{10**6}\n{10**12}\n")
        for method in ("sum", "diff"):
            start = time.perf_counter()
            assert run("energy", str(path), str(path), "--method", method) == 0
            assert time.perf_counter() - start < 5
            assert capsys.readouterr().out.splitlines()[1].split(",")[1] == "15"

    def test_brute_force_far_apart_set(self, tmp_path, monkeypatch, capsys):
        # membership in Y is a binary search: nothing is made per value of its span
        monkeypatch.delenv(MEMORY_CAP_ENV, raising=False)
        a, b, f = tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "f.txt"
        a.write_text("N=10\n1\n2\n")
        b.write_text(f"N={10**11}\n1\n{10**11}\n")
        f.write_text(f"N={10**12}\n1\n{10**12}\n")
        assert run("energy", str(a), str(b), "--method", "brute") == 0
        assert capsys.readouterr().out.splitlines()[1].split(",")[1] == "4"
        assert run("energy", str(f), str(f)) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert [(r["method"], r["value"]) for r in rows] == [
            ("sum-identity", "6"), ("diff-identity", "6"), ("brute-force", "6")]

    def test_one_spectrum_differences_fit_a_cap_that_three_transforms_did_not(
            self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "dense.txt"
        assert run("gen", "random-avoiding", "--N", "200000", "--P", "7", "--eps", "1/2",
                   "--strategy", "uniform", "--seed", "1", "--out", str(path)) == 0
        xs = read_set(path).elements
        width = int(xs[-1] - xs[0]) + 1
        # the transform of the differences as it was counted: two spectra and
        # the float input at 2^19 points; now one spectrum at a 5-smooth size
        former = 16 * 2 * (2**18 + 1) + 8 * 2**19 + 8 * width
        now = energy._fft_bytes(width, energy._smooth_size(2 * width - 1), 1)
        assert now < former
        capsys.readouterr()
        monkeypatch.delenv(MEMORY_CAP_ENV, raising=False)
        assert run("energy", str(path), str(path), "--method", "sum") == 0
        value = capsys.readouterr().out.splitlines()[1].split(",")[1]
        monkeypatch.setenv(MEMORY_CAP_ENV, str((former + now) // 2))
        assert run("energy", str(path), str(path), "--method", "diff") == 0
        assert capsys.readouterr().out.splitlines()[1].split(",")[1] == value

    def test_sparse_sets_under_a_huge_cap(self, tmp_path, monkeypatch, capsys):
        # under the default memory cap: a set holds its elements, not its cap
        monkeypatch.delenv(MEMORY_CAP_ENV, raising=False)
        N = 5 * 10**9
        A, B = [N - 1000, N - 900, N - 10, N], [N - 2000, N - 963, N - 1]
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        a.write_text(f"N={N}\n" + "".join(f"{e}\n" for e in A))
        b.write_text(f"N={N}\n" + "".join(f"{e}\n" for e in B))
        oracle = sum(c * c for c in Counter(x + y for x in A for y in B).values())
        assert run("energy", str(a), str(b), "--method", "all") == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert [r["method"] for r in rows] == ["sum-identity", "diff-identity", "brute-force"]
        assert {int(r["value"]) for r in rows} == {oracle}

    def test_parse_error_exit2(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("no header\n")
        assert run("energy", str(bad), "--squares") == 2

    def test_missing_second_set(self, tmp_path):
        path = write_squares(tmp_path, 16)
        assert run("energy", str(path)) == 2

    def test_injected_mismatch_exit3(self, tmp_path, monkeypatch):
        path = write_squares(tmp_path, 16)

        def corrupted(X, Y):
            return EnergyReport(
                value=27, method="brute-force", lower_trivial=16, upper_trivial=64
            )

        monkeypatch.setattr(cli.energy, "energy_bruteforce", corrupted)
        assert run("energy", str(path), "--squares", "--method", "all") == 3

    def test_report_out_of_bounds_exit3(self, tmp_path, monkeypatch):
        path = write_squares(tmp_path, 16)
        empty = [(0, np.zeros(1, dtype=np.int64))]
        monkeypatch.setattr(energy, "_pair_counts", lambda *args: ("direct", iter(empty), 0))
        assert run("energy", str(path), "--squares", "--method", "sum") == 3


class TestSieve:
    def test_check_v(self, tmp_path, capsys):
        path = write_squares(tmp_path, 16)
        assert run("sieve", str(path), "--check-v", "3", "--eps", "0.5") == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "v,card,delta,lhs,rhs,hypothesis_ok,holds"
        assert out[1] == "3,4,2,8,10,true,true"

    @pytest.mark.parametrize("text", ["default=1/2\n3=1/2\n3=1\n", "default=1/2\ndefault=1\n"])
    def test_check_v_repeated_eps_key_exit2(self, tmp_path, capsys, text):
        path = write_squares(tmp_path, 16)
        cfg = tmp_path / "eps.txt"
        cfg.write_text(text)
        assert run("sieve", str(path), "--check-v", "3", "--eps", str(cfg)) == 2
        assert "repeated key" in capsys.readouterr().err

    @pytest.mark.parametrize("in_file", [False, True])
    def test_huge_eps_exponent_exit2_at_once(self, tmp_path, in_file):
        # Fraction alone would raise 10 to the written power first
        path = write_squares(tmp_path, 16)
        eps = "1e999999999"
        if in_file:
            cfg = tmp_path / "eps.txt"
            cfg.write_text(f"default=1/2\n3={eps}\n")
            eps = str(cfg)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run(
            [sys.executable, "-m", "energysieve.cli", "sieve", str(path), "--check-v", "3",
             "--eps", eps], env=env, capture_output=True, text=True, timeout=5)
        assert out.returncode == 2 and out.stdout == ""
        assert len(out.stderr.splitlines()) == 1 and out.stderr.startswith("error: ")

    @pytest.mark.parametrize("text", ["0", "-1", "1/2", " 3/4 ", "0.5", "-0.0", "1e-3",
                                      "2.5E2", "1e300", "5e-324", "123456789e-330"])
    def test_eps_values_read_as_before(self, text):
        assert limits.exact_fraction(text) == Fraction(text)

    @pytest.mark.parametrize("text", ["1e400", "1e-400", "-1e999999999", "1e-999999999",
                                      "0.1e-999999999", "abc", "inf"])
    def test_eps_values_beyond_the_float_range_refused(self, text):
        with pytest.raises(ValueError):
            limits.exact_fraction(text)

    def test_zero_mantissa_read_as_zero(self):
        assert limits.exact_fraction("0e999999999") == limits.exact_fraction("-0.0e-999999999") == 0

    @pytest.mark.parametrize("command", ["sieve", "energy"])
    def test_element_beyond_int64_exit2(self, tmp_path, monkeypatch, capsys, command):
        # a huge cap is read; the element cannot be an int64
        big, small = tmp_path / "big.txt", tmp_path / "small.txt"
        big.write_text(f"N={10**20}\n{10**20 - 1}\n")
        small.write_text("N=10\n1\n4\n")
        args = {"sieve": [big, "--check-v", "3"], "energy": [small, big, "--method", "sum"]}
        assert run(command, *map(str, args[command])) == 2
        err = capsys.readouterr().err
        assert err == f"error: element {10**20 - 1} outside [1, {2**63 - 1}]\n"

    @pytest.mark.parametrize("v", [2**63 - 1, 2**63])
    def test_check_v_beyond_int64_exit2(self, tmp_path, capsys, v):
        path = write_squares(tmp_path, 16)
        capsys.readouterr()
        assert run("sieve", str(path), "--check-v", str(v)) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_check_v_table_over_cap_exit4(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "three.txt"
        path.write_text("N=10\n1\n2\n3\n")
        monkeypatch.setenv(MEMORY_CAP_ENV, str(2**24))
        capsys.readouterr()
        assert run("sieve", str(path), "--check-v", str(10**9 + 7)) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("resource limit: occupancy table modulo 1000000007 needs")
        assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err

    def test_divisor_sum(self, tmp_path, capsys):
        path = write_squares(tmp_path, 16)
        assert run("sieve", str(path), "--divisor-sum") == 0
        captured = capsys.readouterr()
        rows = list(csv.DictReader(captured.out.splitlines()))
        assert sum(int(r["window_count"]) for r in rows) == 3
        assert "total=3" in captured.err

    @pytest.mark.parametrize("make", [lambda p: p.write_text("default=5\n"), Path.mkdir])
    def test_numeric_eps_is_never_a_path(self, tmp_path, monkeypatch, capsys, make):
        # a file or directory named 0 beside the run leaves the default --eps 0 alone
        path = write_squares(tmp_path, 16)
        monkeypatch.chdir(tmp_path)
        make(tmp_path / "0")
        capsys.readouterr()
        assert run("sieve", str(path), "--check-v", "3") == 0
        assert capsys.readouterr().out.splitlines()[1] == "3,4,3/2,32/3,10,false,false"
        # text that is no number is still a config file when one exists
        (tmp_path / "abc").write_text("default=5\n")
        assert run("sieve", str(path), "--check-v", "3", "--eps", "abc") == 0
        assert capsys.readouterr().out.splitlines()[1] == "3,4,13/2,32/13,10,true,true"

    @pytest.mark.parametrize("text", ["abc", "1/0"])
    def test_bad_eps_message(self, tmp_path, monkeypatch, capsys, text):
        path = write_squares(tmp_path, 16)
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        assert run("sieve", str(path), "--check-v", "3", "--eps", text) == 2
        assert capsys.readouterr().err == (
            f"error: bad epsilon {text!r}: not a number and not a file\n")

    def test_gallagher(self, tmp_path, capsys):
        path = write_squares(tmp_path, 10**4, "sq4.txt")
        assert run("sieve", str(path), "--gallagher", "200") == 0
        assert "inconclusive" in capsys.readouterr().out
        assert run("sieve", str(path), "--gallagher", "500") == 0
        bound = float(capsys.readouterr().out.splitlines()[1].split(",")[-1])
        assert bound >= 100

    def test_requires_mode(self, tmp_path):
        path = write_squares(tmp_path)
        assert run("sieve", str(path)) == 2


class TestSweep:
    def test_ramanujan_rows(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run("sweep", "ramanujan", "--grid", "1e3,1e4", "--out", str(out)) == 0
        rows = list(csv.DictReader(out.open()))
        assert [r["N"] for r in rows] == ["1000", "10000"]
        assert all(float(r["ratio_log"]) > 0 for r in rows)

    def test_theorem_rows(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run("sweep", "theorem", "--set", "squares", "--grid", "1e3,2e3",
                   "--out", str(out)) == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 2
        for r in rows:
            assert int(r["energy"]) >= int(r["card_A"]) * int(r["card_S"])

    def test_theorem_on_file(self, tmp_path):
        path = write_squares(tmp_path, 500)
        out = tmp_path / "t.csv"
        assert run("sweep", "theorem", "--set", str(path), "--grid", "500",
                   "--out", str(out)) == 0
        rows = list(csv.DictReader(out.open()))
        assert rows[0]["card_A"] == "22"

    def test_empty_grid_exit2(self):
        assert run("sweep", "ramanujan", "--grid", ",") == 2

    def test_seed_exit2(self):
        # sweep rows read no random set, so sweep takes no seed
        assert run("sweep", "ramanujan", "--grid", "1e3", "--seed", "1") == 2

    def test_infinite_grid_exit2(self):
        for grid in ("inf", "1e400", "1e3,-inf", "nan"):
            assert run("sweep", "ramanujan", "--grid", grid) == 2

    @pytest.mark.parametrize("grid", ["1000.7", "2.9", "1e3,2.5e0", "6/2", "0e99999999999"])
    def test_grid_value_not_an_integer_exit2(self, grid, capsys):
        assert run("sweep", "ramanujan", "--grid", grid) == 2
        assert capsys.readouterr().out == ""

    def test_grid_exponent_forms_still_parse(self):
        assert cli._parse_grid("1e6, 1.2e7,1E3,100,1e3") == [100, 1000, 10**6, 12 * 10**6]

    @pytest.mark.parametrize("grid, first_cut", [("1e3,9007199254740993", 2**53 + 1),
                                                 ("1e3,1e30", 10**30)])
    def test_truncated_at_is_exact(self, grid, first_cut, capsys):
        assert run("sweep", "ramanujan", "--grid", grid, "--format", "json") == 4
        assert json.loads(capsys.readouterr().out)["truncated_at"] == first_cut

    def test_row_below_floor_exit3(self, monkeypatch):
        real = correlation.energy_decomposition

        def zero_energy(A, N, **kwargs):
            report = real(A, N, **kwargs)
            return correlation.DecompositionReport(
                cap=report.cap, card_a=report.card_a, card_s=report.card_s, energy=0,
                via_square_pairs=0, via_factor_pairs=0, ok=True,
            )

        monkeypatch.setattr(correlation, "energy_decomposition", zero_energy)
        assert run("sweep", "theorem", "--grid", "1e3") == 3

    def test_cap_exceeded_exit4(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ENERGYSIEVE_MAX_N", "1000")
        out = tmp_path / "r.csv"
        assert run("sweep", "ramanujan", "--grid", "1e3,1e4", "--out", str(out)) == 4
        text = out.read_text()
        assert "truncated" in text
        rows = list(csv.DictReader(l for l in text.splitlines() if not l.startswith("#")))
        assert [r["N"] for r in rows] == ["1000"]  # partial output flushed

    def test_environment_caps_read_like_grid_values(self, monkeypatch):
        monkeypatch.setenv("ENERGYSIEVE_MAX_N", "4e9")
        monkeypatch.setenv(MEMORY_CAP_ENV, "2e9")
        assert (limits.max_sweep_n(), limits.memory_cap()) == (4 * 10**9, 2 * 10**9)
        assert run("sweep", "ramanujan", "--grid", "1e3") == 0

    @pytest.mark.parametrize("name", ["ENERGYSIEVE_MAX_N", MEMORY_CAP_ENV])
    @pytest.mark.parametrize("text", ["1000.7", "abc", "inf", "6/2", "1e-99999999999"])
    def test_bad_environment_cap_exit2(self, monkeypatch, capsys, name, text):
        monkeypatch.setenv(name, text)
        assert run("sweep", "ramanujan", "--grid", "1e3") == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {name} {text!r} is not")

    @pytest.mark.parametrize("experiment", ["ramanujan", "theorem", "sidon"])
    def test_rows_do_not_depend_on_the_rows_before_them(self, tmp_path, experiment):
        """A grid gives the rows of one run per grid value, each begun with a cold
        factorization cache: so a grid may be split over processes and joined."""
        def rows(grid):
            arith._factors.cache_clear()
            out = tmp_path / f"{grid}.csv"
            assert run("sweep", experiment, "--grid", grid, "--out", str(out)) == 0
            return [line.rsplit(",", 1)[0] for line in out.read_text().splitlines()]

        whole = rows("1e3,2e3,4e3")
        header, *joined = [line for n in ("1e3", "2e3", "4e3") for line in rows(n)]
        assert whole == [header] + [line for line in joined if line != header]

    def test_csv_roundtrip_integers(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run("sweep", "theorem", "--grid", "1e3", "--out", str(out)) == 0
        rows = list(csv.DictReader(out.open()))
        for key in ("N", "card_A", "card_S", "energy"):
            assert str(int(rows[0][key])) == rows[0][key]


class TestAutoBackends:
    """`auto` on the benchmark's shapes picks the backend it picked when its
    cost weights were fitted: a spy on the pair-counting core, job by job."""

    @pytest.fixture
    def backends(self, monkeypatch):
        import energysieve.sieve as sieve

        log = []
        count = energy._pair_counts

        def spy(*args, **kwargs):
            out = count(*args, **kwargs)
            log.append(out[0])
            return out

        monkeypatch.setattr(energy, "_pair_counts", spy)
        monkeypatch.setattr(sieve, "_pair_counts", spy)
        return log

    @staticmethod
    def job(backends, tmp_path, *argv):
        backends.clear()
        assert run(*argv, "--out", str(tmp_path / "out")) == 0
        return backends[:]

    def test_sweeps_count_directly(self, tmp_path, backends):
        for experiment, grid, calls in [("ramanujan", "1e6,1e7,1.2e7", 3),
                                        ("theorem", "1e6,1e7", 8), ("sidon", "1e6,1e7", 4)]:
            assert self.job(backends, tmp_path, "sweep", experiment,
                            "--grid", grid) == ["direct"] * calls

    def test_dense_random_set_transforms(self, tmp_path, backends):
        a = str(tmp_path / "A.txt")
        assert run("gen", "random-avoiding", "--N", "200000", "--P", "7", "--eps", "1/2",
                   "--strategy", "uniform", "--seed", "1", "--out", a) == 0
        assert self.job(backends, tmp_path, "energy", a, a, "--method", "sum") == ["fft"]
        assert self.job(backends, tmp_path, "energy", a, a, "--method", "diff") == ["fft"]
        assert self.job(backends, tmp_path, "energy", a, "--squares", "--method", "sum") == ["fft"]
        # E(A', S) is the close call, about 36.4e6 ns direct against 55.8e6 by transform
        assert self.job(backends, tmp_path, "sweep", "theorem", "--set", a,
                        "--grid", "200000") == ["fft", "fft", "direct", "fft"]

    def test_divisor_sum_counts_directly(self, tmp_path, backends):
        s = str(tmp_path / "S.txt")
        assert run("gen", "squares", "--N", "2000000", "--out", s) == 0
        assert self.job(backends, tmp_path, "sieve", s, "--divisor-sum") == ["direct"]


class TestDeterminism:
    def test_byte_identical_outputs(self, tmp_path):
        fixtures = []
        for name in ("x.csv", "y.csv"):
            out = tmp_path / name
            assert run("sweep", "sidon", "--grid", "1e3,3e3", "--out", str(out)) == 0
            lines = out.read_text().splitlines()
            fixtures.append([l.rsplit(",", 1)[0] for l in lines])  # drop seconds
        assert fixtures[0] == fixtures[1]

    def test_gen_outputs_bytes(self, tmp_path):
        p1 = write_squares(tmp_path, 1000, "a.txt")
        p2 = write_squares(tmp_path, 1000, "b.txt")
        assert p1.read_bytes() == p2.read_bytes()


# Exact CLI output of every subcommand and mode, pinned against the files in
# tests/golden/cli (named <case>.<format>).  Set files are squares up to a cap
# and are referred to as {sq<cap>} in the argument lists.
GOLDEN = Path(__file__).parent / "golden" / "cli"
GOLDEN_SETS = {"sq16": 16, "sq100": 100, "sq1e4": 10**4}
GOLDEN_CASES = {  # name: (exit code, environment, argv)
    "energy-all": (0, {}, ["energy", "{sq16}", "--squares", "--method", "all"]),
    "energy-sum": (0, {}, ["energy", "{sq16}", "--squares", "--method", "sum"]),
    "check-v": (0, {}, ["sieve", "{sq16}", "--check-v", "6", "--eps", "0"]),
    "gallagher": (0, {}, ["sieve", "{sq1e4}", "--gallagher", "500"]),
    "gallagher-inconclusive": (0, {}, ["sieve", "{sq1e4}", "--gallagher", "200"]),
    "divisor-sum": (0, {}, ["sieve", "{sq100}", "--divisor-sum"]),
    "sweep-theorem": (0, {}, ["sweep", "theorem", "--grid", "100,300"]),
    "sweep-ramanujan": (0, {}, ["sweep", "ramanujan", "--grid", "100,300"]),
    "sweep-sidon": (0, {}, ["sweep", "sidon", "--grid", "100,300"]),
    "sweep-truncated": (
        4, {"ENERGYSIEVE_MAX_N": "200"}, ["sweep", "ramanujan", "--grid", "100,300"]
    ),
    "sweep-truncated-empty": (
        4, {"ENERGYSIEVE_MAX_N": "50"}, ["sweep", "sidon", "--grid", "100,300"]
    ),
}


def mask_seconds(text):
    """The sweep timing column is the one field outside the byte contract."""
    text = re.sub(r'("seconds": )[^,\n]+', r'\1"<seconds>"', text)
    return re.sub(r"^(\d+,.*,)[^,\n]+$", r"\1<seconds>", text, flags=re.M)


def golden_run(tmp_path, capsys, monkeypatch, case, fmt):
    """Run one golden case; returns (stdout, --out file text), seconds masked."""
    code, env, argv = GOLDEN_CASES[case]
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    paths = {name: str(write_squares(tmp_path, n, f"{name}.txt")) for name, n in GOLDEN_SETS.items()}
    argv = [a.format(**paths) for a in argv] + ["--format", fmt]
    out = tmp_path / "out.txt"
    capsys.readouterr()
    assert run(*argv) == code
    stdout = capsys.readouterr().out
    assert run(*argv, "--out", str(out)) == code
    mask = mask_seconds if argv[0] == "sweep" else str
    return mask(stdout), mask(out.read_text())


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_golden_output(tmp_path, capsys, monkeypatch, case, fmt):
    expected = (GOLDEN / f"{case}.{fmt}").read_text()
    assert golden_run(tmp_path, capsys, monkeypatch, case, fmt) == (expected, expected)


def test_csv_rows_equal_json_rows():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    def outputs(argv):
        texts = []
        for fmt in ("csv", "json"):
            with tempfile.TemporaryDirectory() as tmp:
                out = Path(tmp) / "out.txt"
                assert run(*argv, "--format", fmt, "--out", str(out)) == 0
                texts.append(out.read_text())
        return list(csv.DictReader(texts[0].splitlines())), json.loads(texts[1])

    def as_text(rows):
        return [{k: str(v) for k, v in row.items()} for row in rows]

    @hypothesis.settings(max_examples=25, deadline=None)
    @hypothesis.given(
        st.integers(1, 80).flatmap(
            lambda cap: st.tuples(st.just(cap), st.sets(st.integers(1, cap), min_size=1))
        )
    )
    def check(case):
        cap, elements = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "a.txt"
            path.write_text(f"N={cap}\n" + "".join(f"{e}\n" for e in sorted(elements)))
            csv_rows, json_rows = outputs(["energy", str(path), "--squares"])
            assert csv_rows == as_text(json_rows)
            csv_rows, payload = outputs(["sieve", str(path), "--divisor-sum"])
            assert csv_rows == as_text(payload["rows"])
            assert payload["total"] == payload["direct"]

    check()


def test_import_starts_no_process_machinery():
    # every CLI run is one process: sweep rows run one after another in it
    code = (
        "import sys, energysieve.cli; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_import_defines_no_dataclass_and_loads_no_cli_modules():
    # a fresh process: what `import energysieve` adds to what numpy loaded
    code = (
        "import dataclasses, inspect, sys, numpy; before = set(sys.modules); "
        "import energysieve; added = set(sys.modules) - before; "
        "package = [m for n, m in sys.modules.items() if n.startswith('energysieve.')]; "
        "print(sorted(c.__qualname__ for m in package for c in vars(m).values() "
        "if inspect.isclass(c) and dataclasses.is_dataclass(c))); "
        "print(sorted(added & {'argparse', 'json'}))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.splitlines() == ["[]", "[]"]


# Values for every integer option and grid point: small, boundary, negative,
# huge, and not integers at all.
CLI_VALUES = ["-7", "-1", "0", "1", "2", "3", "16", "100", "30030", "1000000007",
              "9223372036854775808", "1" + "0" * 30, "1e3", "abc", "", "1/2", "inf", "nan"]
CLI_EPS = ["0", "1/2", "-1", "abc", "1/0", "1e400", "{eps}", "{badeps}", "{missing}"]
CLI_WALL_LIMIT = 10  # seconds per invocation: a loop no cap check stops fails, not stalls
CLI_FILES = ["{sq16}", "{sidon}", "{single}", "{missing}", "{bad}", "{empty}", "{outside}",
             "{huge}", "{wide}", "{binary}", "{dir}"]
CLI_OUTS = ["{out}", "{dir}", "{nodir}"]
CLI_FILE_TEXT = {
    "sq16": "N=16\n1\n4\n9\n16\n", "sidon": "N=60\n1\n13\n27\n48\n58\n", "single": "N=5\n3\n",
    "bad": "N=abc\n1\n", "empty": "", "outside": "N=10\n11\n", "huge": "N=" + "9" * 30 + "\n5\n",
    "wide": f"N={10**12}\n1\n{10**12}\n",
    "eps": "default=1/2\n3=1\n", "badeps": "default=\nx=1\n",
}


def test_every_invocation_exits_with_a_contract_code(tmp_path, monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    # small caps: huge sizes are refused (exit 4) instead of allocated
    monkeypatch.setenv("ENERGYSIEVE_MEMORY_CAP", str(1 << 24))
    monkeypatch.setenv("ENERGYSIEVE_MAX_N", str(10**5))
    paths = {}
    for name, text in CLI_FILE_TEXT.items():
        (tmp_path / name).write_text(text)
        paths[name] = str(tmp_path / name)
    (tmp_path / "binary").write_bytes(b"N=5\n\xff\xfe\n")
    paths.update(binary=str(tmp_path / "binary"), missing=str(tmp_path / "missing"),
                 dir=str(tmp_path), nodir=str(tmp_path / "no" / "out.txt"),
                 out=str(tmp_path / "out.txt"))

    def opt(flag, values):
        return st.one_of(st.just([]), st.sampled_from(values).map(lambda v: [flag, v]))

    def one(values):
        return st.sampled_from(values).map(lambda v: [v])

    fmt, out = opt("--format", ["csv", "json", "xml"]), opt("--out", CLI_OUTS)
    grid = st.lists(st.sampled_from(CLI_VALUES), max_size=3).map(",".join)
    values = {**dict.fromkeys(["--N", "--p", "--a", "--b", "--c", "--P", "--seed"], CLI_VALUES),
              "--eps": CLI_EPS, "--strategy": ["qr", "uniform", "other"], "--set": CLI_FILES}
    gen_own = {"squares": [], "sidon": ["--p"], "quadratic": ["--a", "--b", "--c"],
               "random-avoiding": ["--P", "--eps", "--seed", "--strategy"], "other": [], "": []}
    gen_flags = [f for own in gen_own.values() for f in own]
    sieve_modes = [  # (one mode, or none, or two; the options that mode reads)
        (st.sampled_from(CLI_VALUES).map(lambda v: ["--check-v", v]), ["--eps"]),
        (st.sampled_from(CLI_VALUES).map(lambda v: ["--gallagher", v]), []),
        (st.sampled_from([["--divisor-sum"], [], ["--divisor-sum", "--check-v", "3"]]), []),
    ]

    def command(head, own, foreign, *rest):
        """head, each of its own options or not, at most one foreign option, then rest"""
        extra = [st.sampled_from(foreign).flatmap(lambda f: opt(f, values[f]))] if foreign else []
        return st.tuples(st.just(head), *(opt(f, values[f]) for f in own),
                         st.one_of(st.just([]), *extra), *rest)

    commands = st.one_of(
        *(command(["gen", kind] if kind else ["gen"], ["--N", *own],
                  [f for f in gen_flags if f not in own], out)
          for kind, own in gen_own.items()),
        st.tuples(
            st.just(["energy"]), one(CLI_FILES), st.one_of(st.just([]), one(CLI_FILES)),
            st.sampled_from([[], ["--squares"]]),
            opt("--method", ["sum", "diff", "brute", "all", "other"]), fmt, out,
        ),
        *(command(["sieve"], own, [f for f in ["--eps"] if f not in own], one(CLI_FILES), mode,
                  fmt, out)
          for mode, own in sieve_modes),
        *(command(["sweep", experiment], ["--set"] if experiment == "theorem" else [],
                  [] if experiment == "theorem" else ["--set"],
                  st.one_of(st.just([]), grid.map(lambda g: ["--grid", g])),
                  fmt, out)
          for experiment in ("theorem", "ramanujan", "sidon", "other")),
    ).map(lambda parts: [a.format(**paths) for part in parts for a in part])

    class Stalled(BaseException):
        """Not an Exception: neither the CLI's handlers nor shrinking catch it."""

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                         suppress_health_check=list(hypothesis.HealthCheck))
    @hypothesis.given(commands)
    @hypothesis.example(["sieve", paths["huge"], "--divisor-sum"])  # 10^15 moduli
    @hypothesis.example(["energy", paths["huge"], "--squares"])     # 10^15 squares
    @hypothesis.example(["sieve", paths["wide"], "--divisor-sum"])  # 10^6 moduli
    @hypothesis.example(["energy", paths["wide"], "--squares"])     # 2 * 10^6 sums
    @hypothesis.example(["energy", paths["wide"], paths["wide"]])   # 10^12 apart
    def check(argv):
        def stalled(signum, frame):
            raise Stalled(f"no exit within {CLI_WALL_LIMIT} s: {argv}")

        previous = signal.signal(signal.SIGALRM, stalled)
        signal.setitimer(signal.ITIMER_REAL, CLI_WALL_LIMIT)
        try:
            code = run(*argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert code in (0, 2, 3, 4), argv

    check()
