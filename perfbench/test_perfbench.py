"""Self-tests of the benchmark at tiny sizes.

Run from the root of a source checkout:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import sparseflr  # noqa: E402

# Functions each workload must reach, from the layer -> metric mapping in
# README.md. Binning is only reached by dense-n400 at smoke sizes.
REACHES = {
    "sparse-n2000": (
        "fpca.pace_scores", "fpca.select_ncomp", "fpca.raw_covariances",
        "smoothing.local_diag_rotated", "smoothing.local_linear_1d",
        "flr.fit_flr", "flr.predict_response", "flr.prediction_band",
    ),
    "dense-n400": (
        "smoothing.local_diag_rotated", "smoothing.local_linear_1d",
        "smoothing.bin_scatter_2d", "fpca.pace_scores", "fpca.select_ncomp",
    ),
    "mc-sparse-n100": (
        "smoothing.local_linear_2d", "simulation.gen_pair", "simulation.run_monte_carlo",
        "simulation.in_scores", "simulation.rmspe", "flr.predict_response",
    ),
    "cli-sparse-n400": (
        "cli.main", "data.load_sample", "serialize.save_model", "serialize.load_model",
        "smoothing.local_linear_2d", "flr.predict_response", "flr.prediction_band",
    ),
}


def smoke(capsys, workload: str, trace: int):
    code = run.main([
        "--workload", workload, "--seed", "3", "--seconds", "0.2",
        "--trace", str(trace), "--smoke",
    ])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-2]), json.loads(lines[-1])


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in doc["end_to_end"]},
        {m["name"]: m["unit"] for m in doc["per_layer"]},
        [w["name"] for w in doc["workloads"]],
    )


def test_declared_workloads_are_the_benchmarks(declared):
    assert declared[2] == list(run.WORKLOADS) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(capsys, declared, workload):
    code, report, result = smoke(capsys, workload, 0)
    assert code == 0 and result["correct"], report["errors"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared[0]
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_emits_every_layer_metric_and_reaches_its_layers(capsys, declared, workload):
    code, report, result = smoke(capsys, workload, 1)
    assert code == 0 and result["correct"], report["errors"]
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == declared[1]
    missing = [f for f in REACHES[workload] if metrics[f"{f}.calls"]["value"] == 0]
    assert not missing, f"{workload} never called {missing}"


def test_self_times_partition_the_traced_time():
    tracer = tracing.Tracer()
    x, y, _ = sparseflr.gen_pair(sparseflr.SimConfig(n_subjects=30), np.random.default_rng(1))
    with tracer:
        sparseflr.fit_flr(x, y)
    roots = [end - start for _, start, end, parent, _ in tracer.spans if parent < 0]
    assert len(roots) == 1  # fit_flr; everything else nests inside it
    assert sum(tracer.self_times()) == pytest.approx(roots[0], rel=1e-9)
    assert all(s >= 0 for s in tracer.self_times())
    # uninstalled: the package's own bindings are the originals again
    assert not hasattr(sparseflr.fpca.pace_scores, "__wrapped__")


def test_single_observation_cohort_is_counted_not_fatal():
    wl = workloads.make("sparse-n2000", smoke=True)
    x, y, _ = sparseflr.gen_pair(sparseflr.SimConfig(n_subjects=20), np.random.default_rng(2))
    one = lambda s: sparseflr.SparseFunctionalSample(
        s.domain,
        tuple(sparseflr.SubjectRecord(r.subject_id, r.times[:1], r.values[:1]) for r in s.subjects),
    )
    ledger = workloads.Ledger()
    out = wl.run_once(one(x), one(y), ledger)
    assert (ledger.attempted, ledger.failed) == (1, 1)
    assert "FitError" in ledger.errors[0]
    assert out["predict_subject_s"] == []


def test_failed_output_check_exits_nonzero(capsys, monkeypatch):
    def broken(pred):
        raise workloads.OutputCheckError("injected")

    monkeypatch.setattr(workloads, "check_prediction", broken)
    code, report, result = smoke(capsys, "dense-n400", 0)
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0
    assert report["error_rate"] > 0


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sparse-n2000", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_all_workloads_in_one_command():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "1",
         "--seconds", "0.2", "--trace", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout
    lines = proc.stdout.strip().splitlines()
    assert [line.split(" ", 1)[0] for line in lines] == list(run.WORKLOADS)
    for line in lines:
        result = json.loads(line.split(" ", 1)[1])
        assert result["correct"] and "fit_s" in result["metrics"]


def test_summary_reports_the_highest_percentile_with_ten_samples_beyond():
    assert set(run.summary(list(range(20)))) == {"median", "n", "p50"}
    s = run.summary([float(v) for v in range(1, 101)])
    assert (s["n"], s["p90"]) == (100, 90.0)
    assert set(run.summary([1.0, 2.0])) == {"median", "n"}
