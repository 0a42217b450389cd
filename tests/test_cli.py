import concurrent.futures
import csv
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from energysieve import arith, cli, correlation, energy
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
                "--seed", "7", "--out"]
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


class TestResourceRefusals:
    """Inputs whose tables would not fit exit 4 before allocating, without a traceback."""

    def test_brute_force_far_apart_set(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        a.write_text("N=10\n1\n2\n")
        b.write_text(f"N={10**11}\n1\n{10**11}\n")
        assert run("energy", str(a), str(b), "--method", "brute") == 4
        assert "Traceback" not in capsys.readouterr().err

    def test_random_avoiding_huge_range(self, tmp_path, capsys):
        out = tmp_path / "r.txt"
        assert run("gen", "random-avoiding", "--N", "3000000000", "--P", "3",
                   "--out", str(out)) == 4
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    def test_sidon_prime_sieve_over_small_cap(self, tmp_path, monkeypatch, capsys):
        # certifying p sieves the primes up to 2^30: about 1 GB, counted first
        monkeypatch.setenv(MEMORY_CAP_ENV, str(10**6))
        out = tmp_path / "sidon.txt"
        assert run("gen", "sidon", "--p", str(10**18 + 3), "--N", "100", "--out", str(out)) == 4
        assert capsys.readouterr().err.startswith("resource limit: primes up to 1073741824")
        assert not out.exists()

    def test_sidon_prime_sieve_within_default_cap(self, tmp_path, monkeypatch):
        monkeypatch.delenv(MEMORY_CAP_ENV, raising=False)
        out = tmp_path / "sidon.txt"
        # sieving to 2^21 crosses two segments
        assert run("gen", "sidon", "--p", "4398046511093", "--N", "100", "--out", str(out)) == 0
        assert list(read_set(out)) == [1]

        # the sieve to 2^30 for 10^18 + 3 takes about ten seconds: stop once the
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
        monkeypatch.setenv(MEMORY_CAP_ENV, str(10**6))
        assert run("sieve", str(path), "--divisor-sum") == 4
        assert capsys.readouterr().err.startswith("resource limit: partition scan of 100000")

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

    def test_quadratic_huge_linear_coefficient(self, tmp_path):
        out = tmp_path / "q.txt"
        # x^2 + 10^11 x is 0 at x = 0 and -10^11 and at least 10^11 + 1 elsewhere
        assert run("gen", "quadratic", "--a", "1", "--b", str(10**11), "--N", "100",
                   "--out", str(out)) == 0
        assert list(read_set(out)) == []
        assert run("gen", "quadratic", "--a", "1", "--b", str(10**11), "--c", "100",
                   "--N", "100", "--out", str(out)) == 0
        assert list(read_set(out)) == [100]


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

    @pytest.mark.parametrize("v", [2**63 - 1, 2**63])
    def test_check_v_beyond_int64_exit2(self, tmp_path, capsys, v):
        path = write_squares(tmp_path, 16)
        capsys.readouterr()
        assert run("sieve", str(path), "--check-v", str(v)) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_divisor_sum(self, tmp_path, capsys):
        path = write_squares(tmp_path, 16)
        assert run("sieve", str(path), "--divisor-sum") == 0
        captured = capsys.readouterr()
        rows = list(csv.DictReader(captured.out.splitlines()))
        assert sum(int(r["window_count"]) for r in rows) == 3
        assert "total=3" in captured.err

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

    def test_jobs_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("sweep", "ramanujan", "--grid", "1e3,2e3,4e3", "--jobs", "1",
                   "--out", str(a)) == 0
        assert run("sweep", "ramanujan", "--grid", "1e3,2e3,4e3", "--jobs", "2",
                   "--out", str(b)) == 0
        strip = lambda p: [l.rsplit(",", 1)[0] for l in p.read_text().splitlines()]
        assert strip(a) == strip(b)

    @pytest.mark.parametrize(
        "jobs, cpus, workers",
        [(64, 8, 3), (64, 2, 2), (2, 8, 2), (1, 8, None), (64, None, None), (64, 1, None)],
    )
    def test_jobs_clamped_to_rows_and_cpus(self, monkeypatch, capsys, jobs, cpus, workers):
        made = []

        class RecordingPool:
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        assert run("sweep", "ramanujan", "--grid", "100,200,300", "--jobs", str(jobs)) == 0
        assert made == ([] if workers is None else [workers])
        assert len(capsys.readouterr().out.splitlines()) == 4

    def test_csv_roundtrip_integers(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run("sweep", "theorem", "--grid", "1e3", "--out", str(out)) == 0
        rows = list(csv.DictReader(out.open()))
        for key in ("N", "card_A", "card_S", "energy"):
            assert str(int(rows[0][key])) == rows[0][key]


class TestDeterminism:
    def test_byte_identical_outputs(self, tmp_path):
        fixtures = []
        for name in ("x.csv", "y.csv"):
            out = tmp_path / name
            assert run("sweep", "sidon", "--grid", "1e3,3e3", "--seed", "9",
                       "--out", str(out)) == 0
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
    # a sweep imports the pool only when it makes one; every CLI run is a new process
    code = (
        "import sys, energysieve.cli; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"


# Values for every integer option and grid point: small, boundary, negative,
# huge, and not integers at all.
CLI_VALUES = ["-7", "-1", "0", "1", "2", "3", "16", "100", "30030", "1000000007",
              "9223372036854775808", "1" + "0" * 30, "1e3", "abc", "", "1/2", "inf", "nan"]
CLI_EPS = ["0", "1/2", "-1", "abc", "1/0", "1e400", "{eps}", "{badeps}", "{missing}"]
CLI_FILES = ["{sq16}", "{sidon}", "{single}", "{missing}", "{bad}", "{empty}", "{outside}",
             "{huge}", "{binary}", "{dir}"]
CLI_OUTS = ["{out}", "{dir}", "{nodir}"]
CLI_FILE_TEXT = {
    "sq16": "N=16\n1\n4\n9\n16\n", "sidon": "N=60\n1\n13\n27\n48\n58\n", "single": "N=5\n3\n",
    "bad": "N=abc\n1\n", "empty": "", "outside": "N=10\n11\n", "huge": "N=" + "9" * 30 + "\n5\n",
    "eps": "default=1/2\n3=1\n", "badeps": "default=\nx=1\n",
}


def test_every_invocation_exits_with_a_contract_code(tmp_path, monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    # small caps: huge sizes are refused (exit 4) instead of allocated
    monkeypatch.setenv("ENERGYSIEVE_MEMORY_CAP", str(1 << 24))
    monkeypatch.setenv("ENERGYSIEVE_MAX_N", str(10**5))
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 1)  # no worker processes
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
    commands = st.one_of(
        st.tuples(
            st.just(["gen"]), st.sampled_from([["squares"], ["sidon"], ["quadratic"],
                                               ["random-avoiding"], ["other"], []]),
            *(opt(f, CLI_VALUES) for f in ("--N", "--p", "--a", "--b", "--c", "--P", "--seed")),
            opt("--eps", CLI_EPS), opt("--strategy", ["qr", "uniform", "other"]), out,
        ),
        st.tuples(
            st.just(["energy"]), one(CLI_FILES), st.one_of(st.just([]), one(CLI_FILES)),
            st.sampled_from([[], ["--squares"]]),
            opt("--method", ["sum", "diff", "brute", "all", "other"]), fmt, out,
        ),
        st.tuples(
            st.just(["sieve"]), one(CLI_FILES),
            st.one_of(opt("--check-v", CLI_VALUES), opt("--gallagher", CLI_VALUES),
                      st.just(["--divisor-sum"]), st.just(["--divisor-sum", "--check-v", "3"])),
            opt("--eps", CLI_EPS), fmt, out,
        ),
        st.tuples(
            st.just(["sweep"]), st.sampled_from([["theorem"], ["ramanujan"], ["sidon"], ["other"]]),
            st.one_of(st.just([]), grid.map(lambda g: ["--grid", g])), opt("--set", CLI_FILES),
            opt("--seed", CLI_VALUES), opt("--jobs", CLI_VALUES), fmt, out,
        ),
    ).map(lambda parts: [a.format(**paths) for part in parts for a in part])

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                         suppress_health_check=list(hypothesis.HealthCheck))
    @hypothesis.given(commands)
    def check(argv):
        assert run(*argv) in (0, 2, 3, 4), argv

    check()
