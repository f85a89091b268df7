"""The benchmark's own tests: python3 -m pytest perfbench -q

They run the benchmark itself, so they take about two minutes.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (pins BLAS threads, then makes crossmodal importable)

run._import_program()

import layertrace  # noqa: E402
import workloads  # noqa: E402
from crossmodal import training  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_per_iteration_steps_match_unbroken_train(tmp_path):
    bench = workloads.TrainDesk(variant=3, work_dir=tmp_path)
    bench.setup(0)
    ops = bench.operations()
    records = [next(ops).fn() for _ in range(6)]

    cfg = dataclasses.replace(bench.cfg, iterations=6)
    unbroken = training.train(bench.spec, bench.handles, cfg)

    assert [r["terms"] for r in records] == [row.terms for row in unbroken.trajectory]
    assert [r["pair_type"] for r in records] == [row.pair_type for row in unbroken.trajectory]
    for name, tensor in unbroken.params.items():
        assert np.array_equal(tensor.data, bench.params[name].data), name
        assert np.array_equal(unbroken.state.m[name], bench.state.m[name]), name
        assert np.array_equal(unbroken.state.v[name], bench.state.v[name]), name
    assert unbroken.state.step == bench.state.step == 6


def test_compare_separates_tolerance_from_bitwise():
    ref = {"terms": {"total": 1.0}, "sha256": "a"}
    assert run.compare(ref, ref, 1e-6, 0.0) == (True, True)
    near = {"terms": {"total": 1.0 + 1e-9}, "sha256": "b"}
    assert run.compare(near, ref, 1e-6, 0.0) == (True, False)
    far = {"terms": {"total": 1.1}, "sha256": "a"}
    assert run.compare(far, ref, 1e-6, 0.0) == (False, False)
    assert run.compare({"terms": {}}, ref, 1e-6, 0.0) == (False, False)


def test_per_layer_names_do_not_depend_on_the_workload():
    names = set(layertrace.layer_metrics([])) | {"trace.overhead_pct"}
    assert names == {m["name"] for m in SPEC["per_layer"]}


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload,trace", [(w["name"], 0) for w in SPEC["workloads"]]
                         + [("train-desk", 1)])
def test_every_metric_is_reported_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "11", "--seconds", "0",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert report["failed_op_share"] == 0
    assert set(workloads.WORKLOADS[workload].aliases) <= set(report["as_described"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_run", "__pycache__"))
    proc = _bench("--workload", "train-desk", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert os.listdir(tmp_path / "perfbench") and not (tmp_path / "perfbench" / "_run").exists()
