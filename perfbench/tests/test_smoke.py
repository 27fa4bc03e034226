"""Smoke test of the benchmark at tiny sizes.

Run from the root of a checkout: python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(cwd: Path, workload: str, trace: int) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_reported_with_its_unit(workload, trace):
    code, stdout = bench(ROOT, workload, trace)
    assert code == 0, stdout
    result = json.loads(stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def copy_benchmark(dst: Path, with_program: bool) -> None:
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copy(ROOT / "BENCHMARK.json", dst)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, dst / path, ignore=ignore)
    if with_program:
        shutil.copytree(ROOT / "src", dst / "src", ignore=ignore)


def test_corrupted_digest_fails_the_run(tmp_path):
    copy_benchmark(tmp_path, with_program=True)
    digests = tmp_path / "perfbench" / "digests.json"
    table = json.loads(digests.read_text(encoding="utf-8"))
    table["union-mixed/tiny/seed=1"] = "0" * 64
    digests.write_text(json.dumps(table), encoding="utf-8")
    code, stdout = bench(tmp_path, "union-mixed", 0)
    assert code != 0
    result = json.loads(stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == result["attempted"]


def test_without_the_program_there_is_no_result(tmp_path):
    copy_benchmark(tmp_path, with_program=False)
    code, stdout = bench(tmp_path, "union-mixed", 0)
    assert code != 0
    assert stdout.strip() == ""
