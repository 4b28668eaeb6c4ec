"""Every workload runs at a small configuration, passes its checks and
prints exactly the metrics BENCHMARK.json names."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from inputs import Scale

BENCH_DIR = Path(run.__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

SMALL = Scale(dims=4, channels=2, window=9, horizon=4, hidden=8, batch=4,
              families=2, corpus_frames=40, train_mini_batches=1,
              gate_corpus=3, gate_calib_stride=3, stream_in=40, stream_oof=10,
              gate_warmup_frames=15, calib_stride=4, oracle_items=2, fd_items=2)


def _names_units(metrics):
    return {m["name"]: m["unit"] for m in metrics}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_metrics_match_benchmark_json(workload, trace, tmp_path):
    result = run.run(workload, seed=5, seconds=0.0, trace=trace, scale=SMALL, out=tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = _names_units(SPEC["per_layer" if trace else "end_to_end"])
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace:
        assert (tmp_path / f"trace-{workload}-seed5.jsonl").stat().st_size > 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_setups_of_other_processes_join_setup_s_and_the_checks(tmp_path):
    others = ({"setup_s": 1e6, "failures": []}, {"setup_s": 2e6, "failures": ["bad arrays"]})
    result = run.run("calibrate_corpus", seed=5, seconds=0.0, trace=False, scale=SMALL,
                     out=tmp_path, other_setups=others)
    assert result["metrics"]["setup_s"]["value"] == 1e6  # the median of three
    assert not result["correct"]


def test_without_program_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "train_paper",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
