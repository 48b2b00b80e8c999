"""Smoke test of the benchmark harness at a tiny geometry (64x48, 2 frames),
still above the VIF, MS-SSIM and disparity minimum sizes.

    python3 -m pytest perfbench/test_smoke.py

It records references into a temporary directory, runs both workloads in
both modes against them, and checks the result format, the names in
BENCHMARK.json, the per-layer time accounting and the output checks.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SIZE = "64x48"
WORKLOADS = ("fr_live", "study")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def _run(script, *args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", script), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def _bench(workload, refs, seed=0, trace=0, cwd=ROOT):
    return _run("run.py", "--workload", workload, "--seed", str(seed),
                "--seconds", "0", "--trace", str(trace), "--size", SIZE,
                "--refs", str(refs), cwd=cwd)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def refs(tmp_path_factory):
    path = tmp_path_factory.mktemp("refs")
    for workload in WORKLOADS:
        proc = _run("record.py", "--workload", workload, "--seeds", "0",
                    "--size", SIZE, "--refs", str(path))
        assert proc.returncode == 0, proc.stderr
    return path


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(refs, workload):
    res = _result(_bench(workload, refs))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_times_add_up(refs, workload):
    res = _result(_bench(workload, refs, trace=1))
    assert res["correct"]
    metrics = res["metrics"]
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    layers = [k for k in metrics if k.count(".") == 1 and k.endswith(".self_s")]
    assert len(layers) == 11
    total = sum(metrics[k]["value"] for k in layers) + metrics["trace.unattributed_s"]["value"]
    assert total == pytest.approx(metrics["trace.batch_wall_s"]["value"], rel=1e-9)
    assert metrics["trace.unattributed_s"]["value"] >= 0
    assert all(metrics[f"{layer}.errors"]["value"] == 0
               for layer in (k.split(".")[0] for k in layers))


def test_unrecorded_seed_runs_a_recorded_scene(refs):
    proc = _bench("fr_live", refs, seed=7)
    assert _result(proc)["correct"]
    provenance = json.loads(proc.stdout.splitlines()[0].partition(" ")[2])
    assert (provenance["seed"], provenance["scene_seed"]) == (7, 0)


def test_score_off_the_reference_fails_its_job(refs, tmp_path):
    bad = tmp_path / "refs"
    shutil.copytree(refs, bad)
    path = bad / "fr_live" / "seed-0.json"
    data = json.loads(path.read_text())
    data["scores"]["score-fr:ssim_s"]["score"] *= 1.0 + 1e-9
    path.write_text(json.dumps(data))
    res = _result(_bench("fr_live", bad))
    assert not res["correct"] and res["failed"] == 1


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("fr_live", tmp_path / "perfbench" / "refs", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
