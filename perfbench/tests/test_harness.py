"""Tests of the benchmark harness, at the tiny `--smoke` sizes.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from sbaformer.data import make_grid_graph  # noqa: E402
from sbaformer.graph import build_gaussian_graph, connected_components, laplacian_pe  # noqa: E402

# Every metric the benchmark defines, with its unit, per workload.
E2E = {
    "train_grid64": {
        "setup_s": "s", "train_windows_per_s": "windows/s", "train_step_ms.p50": "ms",
        "train_step_ms.tail": "ms", "forecast_windows_per_s": "windows/s", "val_mae": "norm",
        "cut_frac": "ratio", "peak_rss_mb": "MB", "error_rate": "failed/attempted",
    },
    "forecast_grid576": {
        "setup_s": "s", "forecast_windows_per_s": "windows/s", "forecast_batch_ms.p50": "ms",
        "cut_frac": "ratio", "peak_rss_mb": "MB", "error_rate": "failed/attempted",
    },
    "setup_sensors256": {
        "setup_s": "s", "cut_frac": "ratio", "peak_rss_mb": "MB", "error_rate": "failed/attempted",
    },
}
_SETUP_LAYERS = {
    "graph.pe_s": "s", "partition.series_s": "s", "graph.build_s": "s", "graph.edges": "count",
    "graph.components": "count", "data.synth_s": "s", "partition.padding_ratio.l0": "ratio",
    "partition.padding_ratio.l1": "ratio", "partition.padding_ratio.l2": "ratio",
}
_MODEL_LAYERS = {
    **{f"model.{s}_s": "s" for s in ("embed", "intra", "pool", "inter", "fuse", "head")},
    "partition.layout_s": "s", "model.attn_flops": "flops", "model.score_bytes": "bytes",
    "autodiff.matmul_flops": "flops", "data.window_s": "s",
}
LAYERS = {
    "train_grid64": {
        **_SETUP_LAYERS, **_MODEL_LAYERS, "model.loss_s": "s", "autodiff.backward_s": "s",
        "autodiff.tape_nodes": "count", "training.adam_s": "s",
        "graph.laplacian_s": "s", "graph.eigen_s": "s",
    },
    "forecast_grid576": {**_SETUP_LAYERS, **_MODEL_LAYERS},
    "setup_sensors256": {**_SETUP_LAYERS, "graph.laplacian_s": "s", "graph.eigen_s": "s"},
}
DETERMINISTIC = (
    "val_mae", "cut_frac", "autodiff.tape_nodes", "autodiff.matmul_flops", "model.attn_flops",
    "partition.padding_ratio.l0", "partition.padding_ratio.l1", "partition.padding_ratio.l2",
)


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT, script: Path = RUN):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    record = next(json.loads(x[len("record: "):]) for x in lines if x.startswith("record: "))
    return record, json.loads(lines[-1])


@pytest.fixture(scope="module")
def contract():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def runs():
    """Per workload: trace 0 seed 5, trace 1 seed 5 twice, trace 1 seed 6."""
    out = {}
    for w in E2E:
        out[w] = [parse(run_bench(w, seed, trace)) for seed, trace in ((5, 0), (5, 1), (5, 1), (6, 1))]
    return out


@pytest.mark.parametrize("workload", list(E2E))
def test_every_named_metric_is_emitted_with_its_unit(runs, contract, workload):
    (plain, plain_result), (traced, traced_result) = runs[workload][:2]
    for record, expected in ((plain, E2E[workload]), (traced, LAYERS[workload])):
        got = {name: m["unit"] for name, m in record["metrics"].items()}
        missing = {k: v for k, v in expected.items() if got.get(k) != v}
        assert not missing, f"missing or wrong unit: {missing}"
    listed = workload in {w["name"] for w in contract["workloads"]}
    for result, record, kind in ((plain_result, plain, "end_to_end"), (traced_result, traced, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {
            m["name"]: m["unit"] for m in contract[kind]
            if listed or m["name"].replace("op_ms", record["op_metric"]) in record["metrics"]
        }
        assert {k: m["unit"] for k, m in result["metrics"].items()} == expected


@pytest.mark.parametrize("workload", list(E2E))
def test_deterministic_values_repeat_and_seeds_change_inputs(runs, workload):
    (plain, _), (first, _), (second, _), (other, _) = runs[workload]
    for name in DETERMINISTIC:
        if name in first["metrics"]:
            assert first["metrics"][name] == second["metrics"][name], name
    # Tracing changes no result: the untraced run reads the same values.
    for name in ("val_mae", "cut_frac"):
        if name in plain["metrics"]:
            assert plain["metrics"][name] == first["metrics"][name], name
    assert first["inputs_sha256"] == second["inputs_sha256"] == plain["inputs_sha256"]
    assert other["inputs_sha256"] != first["inputs_sha256"]
    assert set(other["metrics"]) == set(first["metrics"])


def test_records_carry_the_environment(runs):
    env = runs["train_grid64"][0][0]["environment"]
    for key in ("cpu_model", "nproc", "python", "numpy", "blas", "blas_threads", "git_sha"):
        assert env[key] not in (None, ""), key
    assert 1 <= env["blas_threads"] <= env["nproc"]
    assert env["library_defaults"]["debug_checks"] is True


def test_staged_pe_is_the_whole_graph_laplacian_pe():
    g = make_grid_graph(5, 6)
    staged = workloads.staged_pe(g, 4, workloads.Tracer(False))
    assert np.array_equal(staged.vectors, laplacian_pe(g, 4).vectors)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    run = workloads.Run(trace=False)
    run.timing("op_ms", [i / 1000.0 for i in range(1, 31)])
    m = run.metrics
    assert m["op_ms.p50"]["value"] == pytest.approx(15.5)
    assert m["op_ms.tail"]["value"] == pytest.approx(20.0)  # samples 21..30 lie beyond
    assert m["op_ms.samples"]["value"] == 30
    run.timing("few_ms", [0.001] * 19)
    assert "few_ms.tail" not in run.metrics


def test_sensor_layout_has_two_components_on_every_seed():
    for mode in ("smoke", "full"):
        cfg = workloads.SIZES[mode]["setup_sensors256"]
        for seed in range(3):
            coords = workloads.sensor_coords(cfg, seed)
            assert coords.shape == (cfg["n"], 2)
            assert coords.min() >= 0.0 and coords.max() <= cfg["box"]
            g = build_gaussian_graph(coords, cfg["sigma"], cfg["threshold"])
            assert len(connected_components(g)) == 2


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = run_bench("train_grid64", 0, 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
