"""Smoke test for the benchmark: every workload at a tiny corpus size.

Run from the root of a checkout with ``python -m pytest bench/test_smoke.py``.
Each run must pass all of its checks and print exactly the metrics that
``BENCHMARK.json`` declares for its mode, each with its declared unit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_SCENES = "60"


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--scenes", TINY_SCENES],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric_and_passes_its_checks(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    *before, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    env = json.loads(before[-1])["env"]
    assert env["seed"] == 7 and env["numpy"] and env["cpu_count"]


def test_a_rerun_whose_artifacts_differ_from_the_first_run_fails():
    workload = SPEC["workloads"][0]["name"]
    assert run_bench(workload, 0).returncode == 0
    (digest_file,) = (ROOT / ".bench_work" / "digests").glob(f"{workload}-7-{TINY_SCENES}-*.json")
    digests = json.loads(digest_file.read_text())
    assert set(digests) == {"corpus.jsonl", "ckpt.json", "manifest.json", "traces.jsonl"}
    digest_file.write_text(json.dumps({**digests, "ckpt.json": "0" * 64}))
    try:
        proc = run_bench(workload, 0)
    finally:
        digest_file.write_text(json.dumps(digests))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode != 0 and not result["correct"] and result["failed"] == 1
    assert "ckpt.json" in proc.stderr


def copy_benchmark(dest: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, dest / path, ignore=shutil.ignore_patterns("__pycache__"))


def test_a_renamed_hook_is_reported_absent_and_the_traced_run_still_finishes(tmp_path):
    copy_benchmark(tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    toymodel = tmp_path / "src" / "visdep" / "toymodel.py"
    toymodel.write_text(toymodel.read_text().replace("_class_means", "_means_by_class"))
    proc = run_bench(SPEC["workloads"][0]["name"], 1, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    *before, last = proc.stdout.strip().splitlines()
    assert json.loads(before[-1])["absent_hooks"] == ["visdep.toymodel._class_means"]
    result = json.loads(last)
    assert result["correct"]
    assert "toymodel.trainlog.self_s" not in result["metrics"]
    assert "toymodel.backward.self_s" in result["metrics"]


def test_fails_without_the_program(tmp_path):
    copy_benchmark(tmp_path)
    proc = run_bench(SPEC["workloads"][0]["name"], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
