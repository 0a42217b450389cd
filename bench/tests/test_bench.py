"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload: str, seed: int = 1, trace: int = 0, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_smoke_prints_every_declared_metric(workload, trace):
    result = result_of(run_bench(workload=workload, trace=trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_reference_is_a_failed_job(tmp_path, monkeypatch, capsys):
    refs = tmp_path / "ref"
    shutil.copytree(wl.REF_DIR, refs)
    monkeypatch.setattr(wl, "REF_DIR", refs)
    target = wl.reference_path("tiny", "sweeps", "sweep_theorem")
    text = target.read_text(encoding="utf-8")
    target.write_text(text.replace("10000,", "10001,", 1), encoding="utf-8")
    assert bench.main(["--workload", "sweeps", "--seed", "1", "--seconds", "1",
                       "--trace", "0", "--scale", "tiny"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert not result["correct"]
    assert 1 <= result["failed"] < result["attempted"]


def test_broken_identity_is_a_failed_job(tmp_path):
    work = tmp_path
    jobs = wl.setup_jobs("dense-random", "tiny", 1, work) + wl.pass_jobs("dense-random", "tiny", work)
    env = bench.child_env()
    for job in jobs:
        assert bench.run_child(bench.job_command(job), env, work / "err", 60)[0] == 0
    outputs = {job.name: job.out.read_text(encoding="utf-8") for job in jobs}
    assert wl.failures("dense-random", "tiny", outputs) == {}
    value = outputs["energy_diff"].splitlines()[1].split(",")[1]
    outputs["energy_diff"] = outputs["energy_diff"].replace(value, str(int(value) + 1), 1)
    assert set(wl.failures("dense-random", "tiny", outputs)) == {"energy_diff"}


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.rglob("*")):
        if f.is_file():
            h.update(str(f.relative_to(path)).encode() + f.read_bytes())
    return h.hexdigest()


def test_seed_changes_dense_input_only(tmp_path):
    texts = []
    for seed in (1, 2):
        (job,) = wl.setup_jobs("dense-random", "tiny", seed, tmp_path / str(seed))
        job.out.parent.mkdir()
        assert bench.run_child(bench.job_command(job), bench.child_env(), tmp_path / "err", 60)[0] == 0
        texts.append(job.out.read_text(encoding="utf-8"))
    assert texts[0] != texts[1]

    before = _digest(wl.REF_DIR)
    for seed in (1, 2):
        assert result_of(run_bench(workload="sweeps", seed=seed))["correct"]
    assert _digest(wl.REF_DIR) == before


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = run_bench(workload="sweeps", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
