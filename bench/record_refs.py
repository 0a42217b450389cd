"""Record the reference outputs of the deterministic workloads.

    python3 bench/record_refs.py [--scale full|tiny]

Runs each set-up and pass job of `sweeps` and `divisor-series` once and
writes its output, with the sweep `seconds` column dropped, to
bench/ref/<scale>/<workload>/<job>.out.  The references in the repository
were recorded from the code the benchmark was defined on; re-recording them
makes the checks compare a program with itself, so do it only when an
output is meant to change.
"""

from __future__ import annotations

import argparse
import sys

import run as bench
import workloads as wl


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--scale", choices=sorted(wl.SCALES), default="full")
    scale = p.parse_args().scale
    env = bench.child_env()
    for workload in wl.WORKLOADS:
        if not wl.has_reference(workload):
            continue
        work = bench.WORK_ROOT / f"record-{scale}-{workload}"
        work.mkdir(parents=True, exist_ok=True)
        for job in wl.setup_jobs(workload, scale, 0, work) + wl.pass_jobs(workload, scale, work):
            rc, wall, _, _ = bench.run_child(bench.job_command(job), env,
                                             work / f"{job.name}.err", timeout=600)
            if rc:
                print(f"{workload}/{job.name}: exit code {rc}", file=sys.stderr)
                return 1
            text = wl.normalize(bench.read_output(job))
            ref = wl.reference_path(scale, workload, job.name)
            ref.parent.mkdir(parents=True, exist_ok=True)
            ref.write_text(text, encoding="utf-8")
            print(f"{workload}/{job.name}: {len(text)} bytes in {wall:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
