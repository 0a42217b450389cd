"""Benchmark of the energysieve toolkit.

    python3 bench/run.py --workload sweeps|dense-random|divisor-series \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is used from its `src`.

`--trace 0` times the workload as a closed loop with one client: each job of
a pass is one `python -m energysieve.cli` subprocess (or the series driver),
started after the previous one ended, and passes repeat while the next one
is expected to end within `--seconds`.  It reports wall, CPU and peak RSS of
a pass and the set-up time (import plus input generation, repeated and taken
as the median), with every output checked.

`--trace 1` runs the same jobs in this process: one untraced pass, then
traced passes with spans around every public function of the package (see
tracer.py), and reports the per-layer metrics and the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Details, the host and every sample go to
bench/_work/<run>/result.json; spans of a traced run to spans.jsonl there.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.metadata
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
import tracemalloc
import warnings
from pathlib import Path

import tracer
import workloads as wl

ROOT = wl.BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = wl.BENCH_DIR / "_work"
SERIES_DRIVER = wl.BENCH_DIR / "series_driver.py"

# Every child gets these, whatever the caller's environment holds.  The two
# caps are the package's defaults, set explicitly so that a caller's
# environment cannot change them.
FIXED_ENV = {
    "PYTHONPATH": str(SRC),
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "ENERGYSIEVE_MEMORY_CAP": str(2**31),
    "ENERGYSIEVE_MAX_N": str(10**8),
}
# a run must end within 180 s; a job still running at this point is killed
RUN_DEADLINE_S = 170.0
# a sweeps pass takes 13 s of a 30 s run; two passes even when the host is slow
MIN_PASSES = 2
# the exit code recorded for an in-process job that the deadline kept from starting
NOT_STARTED = -1000
# tracemalloc slows the package's Python loops about six times
TRACEMALLOC_SLOWDOWN = 8.0
# kept in result.json but not declared: a signed difference near zero, which
# cannot be compared as a share of a baseline
UNDECLARED = ("trace.overhead_s",)


def child_env() -> dict[str, str]:
    env = {k: os.environ[k] for k in ("PATH", "HOME", "LD_LIBRARY_PATH") if k in os.environ}
    env.update(FIXED_ENV)
    return env


def host_info() -> dict:
    cpu_model = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
    }


def summarize(samples: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    out = {"n": n, "median": statistics.median(samples)}
    if n >= 20:
        pct = int(100 * (1 - 10 / n))
        out[f"p{pct}"] = statistics.quantiles(samples, n=100)[pct - 1]
    return out


class Run:
    """One benchmark run: counts jobs, records failures and samples."""

    def __init__(self, args):
        self.args = args
        self.work = WORK_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
        self.attempted = 0
        self.failures: list[dict] = []
        self.job_walls: dict[str, list[float]] = {}
        self.started = time.perf_counter()

    def record(self, jobs, rcs: dict[str, int], outputs: dict[str, str], context=None,
               changed=()) -> None:
        """Count `jobs` as attempted; fail each one that exited nonzero or
        whose output is wrong.  `context` adds outputs the checks refer to;
        `changed` names jobs whose output differs from an earlier identical run."""
        bad = {}
        if outputs:
            bad = wl.failures(self.args.workload, self.args.scale, {**(context or {}), **outputs})
        for job in jobs:
            self.attempted += 1
            rc = rcs[job.name]
            if rc == NOT_STARTED:
                why = "not started: the run's deadline would have passed"
            else:
                why = f"exit code {rc}" if rc else bad.get(job.name)
            if not why and job.name in changed:
                why = "output differs between set-up repetitions with the same seed"
            if why:
                self.failures.append({"job": job.name, "why": why})
                print(f"FAILED {job.name}: {why}", file=sys.stderr)

    def remaining_s(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.started)


def read_output(job: wl.Job) -> str:
    try:
        return job.out.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError):
        return ""


# ---------------------------------------------------------------------------
# Untraced: one subprocess per job
# ---------------------------------------------------------------------------

def run_child(cmd: list[str], env: dict, err_path: Path, timeout: float) -> tuple[int, float, float, float]:
    """Exit code, wall s, CPU s (user + system) and peak RSS MiB of one child."""
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(max(timeout, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped above
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def job_command(job: wl.Job) -> list[str]:
    if job.is_cli:
        return [sys.executable, "-m", "energysieve.cli", *job.cli_args]
    return [sys.executable, str(SERIES_DRIVER), str(job.out), *map(str, job.series_xs)]


def run_jobs(run: Run, jobs, env) -> tuple[dict, float, float, float]:
    """Runs jobs one after another: exit codes, and wall, CPU and peak RSS."""
    rcs, cpu, rss = {}, 0.0, 0.0
    t0 = time.perf_counter()
    for job in jobs:
        job.out.unlink(missing_ok=True)
        rc, wall, job_cpu, job_rss = run_child(job_command(job), env,
                                               run.work / f"{job.name}.err", run.remaining_s())
        rcs[job.name] = rc
        run.job_walls.setdefault(job.name, []).append(wall)
        cpu += job_cpu
        rss = max(rss, job_rss)
    return rcs, time.perf_counter() - t0, cpu, rss


def measure(run: Run) -> tuple[dict, dict]:
    """Cycles of set-up repetitions and one pass: at least MIN_PASSES, and
    more while the next cycle is expected to end within --seconds.  Set-up is repeated in every cycle, so
    that its median and the pass median cover the same stretch of time on a
    host whose speed drifts."""
    args, env = run.args, child_env()
    setup = wl.setup_jobs(args.workload, args.scale, args.seed, run.work)
    jobs = wl.pass_jobs(args.workload, args.scale, run.work)
    probe = wl.Job(name="import", out=run.work / "import.out")
    setup_s, walls, cpus, rsss, cycles = [], [], [], [], []
    first_outputs = None
    while len(cycles) < MIN_PASSES or (
            time.perf_counter() - run.started) + statistics.median(cycles) <= args.seconds:
        if run.remaining_s() <= 0:
            break
        t_cycle = time.perf_counter()
        for _ in range(wl.SCALES[args.scale]["setup_reps"][args.workload]):
            t0 = time.perf_counter()
            rc, _, _, _ = run_child([sys.executable, "-c", "import energysieve"], env,
                                    run.work / "import.err", run.remaining_s())
            rcs, _, _, _ = run_jobs(run, setup, env)
            setup_s.append(time.perf_counter() - t0)
            run.record([probe], {"import": rc}, {})
            outputs = {job.name: read_output(job) for job in setup}
            first_outputs = first_outputs or outputs
            # the same seed must give the same inputs
            run.record(setup, rcs, outputs,
                       changed={name for name, text in outputs.items() if text != first_outputs[name]})

        rcs, wall, cpu, rss = run_jobs(run, jobs, env)
        walls.append(wall)
        cpus.append(cpu)
        rsss.append(rss)
        run.record(jobs, rcs, {job.name: read_output(job) for job in jobs}, first_outputs)
        cycles.append(time.perf_counter() - t_cycle)

    samples = {"wall_s": walls, "cpu_s": cpus, "peak_rss_mb": rsss, "setup_s": setup_s}
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    return metrics, samples


# ---------------------------------------------------------------------------
# Traced: the same jobs in this process
# ---------------------------------------------------------------------------

def load_package():
    os.environ.update(FIXED_ENV)  # before numpy is imported, for the thread counts
    sys.path.insert(0, str(SRC))
    importlib.import_module("energysieve.cli")  # imports every other module
    return importlib.import_module("series_driver")


def reset_caches() -> None:
    """Empty the package's memo caches, so each job starts as cold as a new
    process would."""
    for mod in tracer.package_modules().values():
        for obj in list(vars(mod).values()):
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def run_in_process(job: wl.Job, driver) -> int:
    job.out.unlink(missing_ok=True)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            if job.is_cli:
                return sys.modules["energysieve.cli"].main(list(job.cli_args))
            driver.write_table(str(job.out), job.series_xs)
            return 0
        except Exception:  # a crash is a failed job, not a failed benchmark
            (job.out.parent / f"{job.name}.err").write_text(traceback.format_exc())
            return 1


def measure_traced(run: Run) -> tuple[dict, dict]:
    """A tiny warm-up, then pairs of one untraced and one traced pass while
    the next pair is expected to end within --seconds, then one traced pass
    with tracemalloc on for the memory metrics."""
    args = run.args
    driver = load_package()
    setup = wl.setup_jobs(args.workload, args.scale, args.seed, run.work)
    jobs = setup + wl.pass_jobs(args.workload, args.scale, run.work)
    trace = tracer.Tracer()

    # first calls pay for lazy imports inside numpy; keep that out of both sides
    warm = run.work / "warm-up"
    warm.mkdir()
    for job in wl.setup_jobs(args.workload, "tiny", args.seed, warm) + wl.pass_jobs(
            args.workload, "tiny", warm):
        run_in_process(job, driver)

    def one_pass(traced: bool, slowdown: float = 1.0) -> float:
        """In-process jobs cannot be killed, so a job starts only if it is
        expected to end before the deadline: within `slowdown` times its
        last wall time."""
        restore = tracer.instrument(trace) if traced else (lambda: None)
        rcs = {}
        try:
            t0 = time.perf_counter()
            for job in jobs:
                last = run.job_walls.get(job.name, [0.0])[-1]
                if run.remaining_s() <= slowdown * last:
                    rcs[job.name] = NOT_STARTED
                    continue
                reset_caches()
                t_job = time.perf_counter()
                if not traced:
                    rcs[job.name] = run_in_process(job, driver)
                else:
                    with trace.job(job.name):
                        rcs[job.name] = run_in_process(job, driver)
                run.job_walls.setdefault(job.name, []).append(time.perf_counter() - t_job)
                if traced and job.is_cli and job not in setup:
                    # sweep rows carry a timing column; without it the count repeats exactly
                    trace.counts["cli.out_bytes"] += len(wl.normalize(read_output(job)).encode())
            wall = time.perf_counter() - t0
        finally:
            restore()
        run.record(jobs, rcs, {job.name: read_output(job) for job in jobs})
        return wall

    per_pass, pairs = [], []
    while not pairs or (time.perf_counter() - run.started) + statistics.median(pairs) <= args.seconds:
        t_pair = time.perf_counter()
        untraced = one_pass(False)
        trace.begin_pass(len(per_pass))
        wall = one_pass(True)
        metrics = trace.pass_metrics()
        metrics["trace.wall_s"] = wall
        metrics["trace.untraced_wall_s"] = untraced
        metrics["trace.overhead_s"] = wall - untraced
        metrics["trace.unattributed_s"] = wall - trace.attributed_s()
        per_pass.append(metrics)
        pairs.append(time.perf_counter() - t_pair)

    tracemalloc.start()
    try:
        trace.begin_pass(len(per_pass))
        memory_wall = one_pass(True, TRACEMALLOC_SLOWDOWN)
        memory = trace.pass_metrics()
    finally:
        tracemalloc.stop()
    with open(run.work / "spans.jsonl", "w", encoding="utf-8") as fh:
        for span in trace.spans:
            fh.write(json.dumps(span) + "\n")
    samples = {name: [p[name] for p in per_pass] for name in per_pass[0]}
    for name in tracer.MEMORY_METRICS:
        samples[name] = [memory[name]]
    samples["trace.tracemalloc_wall_s"] = [memory_wall]
    return {name: statistics.median(values) for name, values in samples.items()}, samples


# ---------------------------------------------------------------------------

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=sorted(wl.SCALES), default="full",
                   help="`tiny` shrinks every input, for the benchmark's own tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "energysieve" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no energysieve sources (src/energysieve) "
              "or no BENCHMARK.json; run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    run = Run(args)
    shutil.rmtree(run.work, ignore_errors=True)
    run.work.mkdir(parents=True)
    metrics, samples = (measure_traced if args.trace else measure)(run)
    metrics = {name: value for name, value in metrics.items() if name not in UNDECLARED}
    if set(metrics) != set(declared):
        print(f"error: metrics {sorted(set(metrics) ^ set(declared))} are measured but not "
              "declared in BENCHMARK.json, or the reverse", file=sys.stderr)
        return 3

    stats = {name: summarize(values) for name, values in samples.items()}
    fail_frac = len(run.failures) / run.attempted
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "host": host_info(),
        "env": FIXED_ENV, "fail_frac": fail_frac, "failures": run.failures,
        "stats": stats, "samples": samples, "job_wall_s": run.job_walls,
    }
    (run.work / "result.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    print(f"host: {json.dumps(result['host'])}")
    for name in [*declared, *(n for n in UNDECLARED if n in stats)]:
        s = stats[name]
        tail = next((f", {k} {v:.6g}" for k, v in s.items() if k.startswith("p")), "")
        print(f"{name}: median {s['median']:.6g} {declared.get(name, 's')} (n={s['n']}{tail})")
    print(f"fail_frac: {fail_frac:.6g} ({len(run.failures)} of {run.attempted} jobs)")
    print(f"details: {run.work.relative_to(ROOT)}/result.json")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
