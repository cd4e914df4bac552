"""Smoke test of the benchmark itself: each workload once, at minimal length.

    python3 -m pytest perfbench/test_smoke.py -q

Takes a few minutes.  It is not part of the package's test suite.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

END_TO_END = {
    "check_commute_s": "s", "kstep_s": "s", "normalize_s": "s",
    "simulate_s": "s", "ranks_s": "s", "tour_s": "s", "setup_s": "s",
    "peak_rss_mb": "MB", "ok_frac": "fraction",
}
PER_LAYER = {
    "cli.startup_s": "s",
    "fileio.load_model_s": "s", "fileio.load_params_s": "s",
    "fileio.save_model_s": "s", "fileio.save_params_s": "s",
    "fileio.write_matrix_csv_s": "s", "fileio.write_frequency_csv_s": "s",
    "fileio.kstep_csv_bytes": "bytes",
    "lattice.build_grid_s": "s", "lattice.directed_edges_s": "s",
    "lattice.edges": "count",
    "param.build_model_s": "s", "param.recover_params_s": "s",
    "model.validate_s": "s", "model.full_matrix_s": "s",
    "commute.commutes_direct_s": "s", "commute.constraint_residuals_s": "s",
    "commute.constraints": "count",
    "spectral.k_step_s": "s", "spectral.matrix_power_s": "s",
    "stochastic.normalize_stochastic_s": "s",
    "stochastic.row_gap_max": "1",
    "simulate.empirical_kstep_s": "s", "simulate.trajectories_per_s": "1/s",
    "simulate.absorbed_frac": "fraction",
    "algebra.build_Q_s": "s", "algebra.build_R_s": "s",
    "algebra.integer_rank_s": "s", "algebra.q_rows": "count",
    "spectral.k_step.peak_mb": "MB",
    "stochastic.normalize_stochastic.peak_mb": "MB",
    "commute.commutes_direct.peak_mb": "MB",
    "model.full_matrix.peak_mb": "MB",
    "trace.overhead_ratio": "ratio",
}
CHECKS = {"check-commute", "kstep", "normalize", "simulate", "ranks", "tour"}


def bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_spec_lists_the_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["ref", "cube", "band"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["ref", "cube", "band"])
def test_workload_prints_every_metric_and_runs_every_check(workload, trace):
    proc = bench(ROOT, "--workload", workload, "--seed", "1",
                 "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= len(CHECKS)
    want = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and m["value"] > 0, name
    summary = json.loads(
        next(l for l in lines if l.startswith("checks: "))[len("checks: "):])
    assert set(summary) == CHECKS
    assert all(s["ran"] >= 1 for s in summary.values())
    env = json.loads(
        next(l for l in lines if l.startswith("env: "))[len("env: "):])
    for key in ("python", "numpy", "blas", "blas_threads", "nproc"):
        assert key in env


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", "ref", "--seed", "1",
                 "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
