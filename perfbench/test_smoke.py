"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def raw():
    functions, classes, _ = worker.load_library()
    return SimpleNamespace(**functions, **classes)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_round_passes_its_checks(name, raw, tmp_path):
    workload = WORKLOADS[name](raw, raw, 0, str(tmp_path))
    ops = workload.ops(-1, tiny=True)
    assert ops
    for op in ops:
        try:
            out, raised = op.fn(*op.args), None
        except Exception as exc:
            raised = type(exc).__name__
        assert raised == op.raises, (op.kind, raised)
        if raised is None:
            assert workload.check(op, workload.digest(op, out)), op.kind


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_reports_every_declared_metric(trace, key):
    proc = run_bench("--workload", "cli_scripts", "--seed", "1", "--seconds", "0.3",
                     "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "cli_scripts", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
