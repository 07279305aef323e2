"""Tiny-size passes of every workload, traced and untraced, and the correctness gates."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from pb import driver
from pb.workloads import SMOKE

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]


def reference(workload):
    return json.loads((ROOT / "perfbench" / "reference.json").read_text()).get(workload)


def run(tmp_path, workload, trace=0, ref=None):
    args = driver.parse_args(["--workload", workload, "--seed", "0", "--seconds", "0.01",
                              "--trace", str(trace)])
    return driver.run(args, ROOT, tmp_path, scale=SMOKE, reference=ref)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_untraced_smoke_pass_is_correct_and_reports_every_end_to_end_metric(tmp_path, workload):
    result, record, tracer = run(tmp_path, workload, ref=reference(workload))
    assert result["correct"], record["failures"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert tracer is None
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["metadata"]["shapes"]
    assert not list(tmp_path.iterdir())  # the work directory is removed


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_smoke_pass_reports_every_per_layer_metric(tmp_path, workload):
    result, record, tracer = run(tmp_path, workload, trace=1, ref=reference(workload))
    assert result["correct"], record["failures"]
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert tracer.spans
    ops = {span[5] for span in tracer.spans if span[5] is not None}
    assert ops
    if workload == "batch-small":
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        # solve + three policy evaluations + the ratio check's own myopic evaluation
        assert metrics["dp.sweeps_per_row"] == 5
        assert metrics["serialize.fingerprint.calls_per_row"] == 11
        assert any(op.endswith("/row1") for op in ops)


def test_wrong_ladder_reference_is_caught(tmp_path):
    ref = dict(reference("exact-ladder"))
    ref["cov-189"] *= 1.0 + 1e-6
    result, record, _ = run(tmp_path, "exact-ladder", ref=ref)
    assert not result["correct"]
    assert result["failed"] == 1
    assert "cov-189" in record["failures"][0] and "reference" in record["failures"][0]


def test_wrong_batch_reference_is_caught(tmp_path):
    ref = json.loads(json.dumps(reference("batch-small")))
    row = ref["random-linear-decaying"]["1"]
    row["j[myopic]"] += 1e-6
    result, record, _ = run(tmp_path, "batch-small", ref=ref)
    assert not result["correct"]
    assert result["failed"] == 1
    assert "seed 1" in record["failures"][0] and "j[myopic]" in record["failures"][0]


def test_run_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "exact-ladder",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
