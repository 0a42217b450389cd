"""The benchmark's workloads: which jobs each one runs, and how their outputs
are checked.

A job is one `python -m energysieve.cli ...` invocation, or one call of the
series driver where the CLI has no command.  Set-up jobs make the workload's
input files; pass jobs are the measured work.  Every job writes its output to
a file, so the same checks serve the timed subprocess runs and the traced
in-process runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REF_DIR = BENCH_DIR / "ref"

WORKLOADS = ("sweeps", "dense-random", "divisor-series")

# `full` is what the benchmark measures; `tiny` only proves that every job,
# check and metric runs, in seconds.
SCALES = {
    "full": {
        "ramanujan_grid": "1e6,1e7,1.2e7",  # 1.2e7: first point where auto picks FFT
        "sweep_grid": "1e6,1e7",
        "dense_n": 200_000,
        "squares_n": 2_000_000,
        "series_xs": (10**4, 10**5, 10**6),
        # set-up repetitions per pass: one set-up varies by about 20% from
        # one repetition to the next, so each run takes its median over 8 to
        # 12 of them, and the cheaper the set-up the more repetitions
        "setup_reps": {"sweeps": 5, "dense-random": 4, "divisor-series": 4},
    },
    "tiny": {
        "ramanujan_grid": "1e4,2e4",
        "sweep_grid": "1e4",
        "dense_n": 3_000,
        "squares_n": 20_000,
        "series_xs": (100, 1000),
        "setup_reps": {"sweeps": 1, "dense-random": 1, "divisor-series": 1},
    },
}

# dense-random: sieving by primes <= 7 with eps = 1/2 keeps about 11% of
# [1, N].  `uniform` is the strategy that reads the seed; `qr` ignores it.
DENSE_PRIME_BOUND = "7"
DENSE_EPS = "1/2"
CHECK_MODULUS = 30030  # 2*3*5*7*11*13
GALLAGHER_Q = 400


@dataclass(frozen=True)
class Job:
    """One unit of work: CLI arguments, or the x-grid of the series driver."""

    name: str
    out: Path
    cli_args: tuple[str, ...] = ()
    series_xs: tuple[int, ...] = ()

    @property
    def is_cli(self) -> bool:
        return bool(self.cli_args)


def _cli(name: str, work: Path, *args: str, out: Path | None = None) -> Job:
    out = out or work / f"{name}.out"
    return Job(name=name, out=out, cli_args=(*args, "--out", str(out)))


def setup_jobs(workload: str, scale: str, seed: int, work: Path) -> list[Job]:
    """Jobs that make the workload's input files; the seed reaches the
    program only through these files."""
    cfg = SCALES[scale]
    if workload == "sweeps":
        return []
    if workload == "dense-random":
        return [
            _cli(
                "gen_random", work, "gen", "random-avoiding",
                "--N", str(cfg["dense_n"]), "--P", DENSE_PRIME_BOUND, "--eps", DENSE_EPS,
                "--strategy", "uniform", "--seed", str(seed),
                out=work / "A.txt",
            )
        ]
    if workload == "divisor-series":
        return [_cli("gen_squares", work, "gen", "squares", "--N", str(cfg["squares_n"]),
                     out=work / "S.txt")]
    raise ValueError(f"unknown workload {workload!r}")


def pass_jobs(workload: str, scale: str, work: Path) -> list[Job]:
    """The measured jobs of one pass, run one at a time in this order."""
    cfg = SCALES[scale]
    if workload == "sweeps":
        return [
            _cli("sweep_ramanujan", work, "sweep", "ramanujan", "--grid", cfg["ramanujan_grid"]),
            _cli("sweep_theorem", work, "sweep", "theorem", "--grid", cfg["sweep_grid"]),
            _cli("sweep_sidon", work, "sweep", "sidon", "--grid", cfg["sweep_grid"]),
        ]
    if workload == "dense-random":
        a = str(work / "A.txt")
        return [
            _cli("energy_sum", work, "energy", a, a, "--method", "sum"),
            _cli("energy_diff", work, "energy", a, a, "--method", "diff"),
            _cli("energy_squares", work, "energy", a, "--squares", "--method", "sum"),
            _cli("sweep_theorem", work, "sweep", "theorem", "--set", a,
                 "--grid", str(cfg["dense_n"])),
            _cli("sieve_check_v", work, "sieve", a, "--check-v", str(CHECK_MODULUS),
                 "--eps", DENSE_EPS),
            _cli("sieve_gallagher", work, "sieve", a, "--gallagher", str(GALLAGHER_Q)),
        ]
    if workload == "divisor-series":
        return [
            _cli("divisor_sum", work, "sieve", str(work / "S.txt"), "--divisor-sum"),
            Job(name="series_table", out=work / "series_table.out",
                series_xs=cfg["series_xs"]),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def normalize(text: str) -> str:
    """Drop the run-dependent `seconds` column of sweep CSVs; other text is
    compared as it is."""
    lines = text.splitlines()
    if not lines or "seconds" not in lines[0].split(","):
        return text
    col = lines[0].split(",").index("seconds")
    kept = []
    for line in lines:
        if line.startswith("#"):
            kept.append(line)
            continue
        fields = line.split(",")
        kept.append(",".join(fields[:col] + fields[col + 1:]))
    return "\n".join(kept) + "\n"


def reference_path(scale: str, workload: str, job: str) -> Path:
    return REF_DIR / scale / workload / f"{job}.out"


def has_reference(workload: str) -> bool:
    """Deterministic workloads are checked against recorded outputs; the
    seeded one is checked through identities between its jobs."""
    return workload != "dense-random"


def _csv_rows(text: str) -> list[dict[str, str]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _read_set(text: str) -> tuple[int, list[int]]:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("N="):
        raise ValueError("missing N= header")
    return int(lines[0][2:]), [int(x) for x in lines[1:]]


def _dense_failures(outputs: dict[str, str], cap: int) -> dict[str, str]:
    """Cross-route identities on the seeded set A."""
    bad: dict[str, str] = {}
    try:
        n, elems = _read_set(outputs["gen_random"])
    except ValueError as exc:
        return {"gen_random": f"unparsable set file: {exc!r}"}
    if n != cap or not elems or elems[0] < 1 or elems[-1] > n or any(
        a >= b for a, b in zip(elems, elems[1:])
    ):
        return {"gen_random": "set file is empty, unsorted or out of range"}
    card = len(elems)
    root = math.isqrt(n)

    def value(job: str) -> int:
        (row,) = _csv_rows(outputs[job])
        return int(row["value"])

    def check(job: str, ok, why: str) -> None:
        if job not in outputs:
            return
        try:
            if not ok():
                bad[job] = why
        except (IndexError, KeyError, ValueError) as exc:
            bad[job] = f"unparsable output: {exc!r}"

    check("energy_sum", lambda: value("energy_sum") >= card * card,
          "E(A,A) below |A|^2")
    check("energy_diff", lambda: value("energy_diff") == value("energy_sum"),
          "E(A,A): sum route != diff route")
    check("energy_squares", lambda: value("energy_squares") >= card * root,
          "E(A,S) below |A||S|")

    def theorem_ok() -> bool:
        (row,) = _csv_rows(outputs["sweep_theorem"])
        return (int(row["N"]), int(row["card_A"]), int(row["card_S"]), int(row["energy"])) == (
            n, card, root, value("energy_squares"))

    check("sweep_theorem", theorem_ok, "theorem row disagrees with energy A --squares")

    def check_v_ok() -> bool:
        counts: dict[int, int] = {}
        for a in elems:
            counts[a % CHECK_MODULUS] = counts.get(a % CHECK_MODULUS, 0) + 1
        (row,) = _csv_rows(outputs["sieve_check_v"])
        return (int(row["v"]), int(row["card"]), int(row["rhs"])) == (
            CHECK_MODULUS, card, sum(c * c for c in counts.values()))

    check("sieve_check_v", check_v_ok, "class-count square sum or |A| wrong")

    def gallagher_ok() -> bool:
        (row,) = _csv_rows(outputs["sieve_gallagher"])
        return (int(row["Q"]), int(row["N"]), int(row["card"])) == (GALLAGHER_Q, n, card)

    check("sieve_gallagher", gallagher_ok, "Q, N or |A| wrong")
    return bad


def failures(workload: str, scale: str, outputs: dict[str, str]) -> dict[str, str]:
    """Job name -> reason, for every job whose output is wrong.

    `outputs` maps job names to output text.  Checks of a pass need the
    outputs of the set-up jobs as well, since identities refer to the input.
    """
    if not has_reference(workload):
        return _dense_failures(outputs, SCALES[scale]["dense_n"])
    bad = {}
    for job, text in outputs.items():
        ref = reference_path(scale, workload, job)
        if not ref.is_file():
            bad[job] = f"no reference at {ref.relative_to(REF_DIR)}"
        elif normalize(text) != ref.read_text(encoding="utf-8"):
            bad[job] = "output differs from the recorded reference"
    return bad
