"""Tests of the benchmark itself.

    python3 -m pytest perfbench

They cover the trace wrappers (installed and removed cleanly, outputs
unchanged, spans nested), the output checks, and the command's contract:
every printed metric is named in BENCHMARK.json, and without the package
sources the command fails without printing a result.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (sets BLAS threads, finds src/)

run.import_package()

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from mcvtests import cli, sim  # noqa: E402
from mcvtests.estimation import McvVariant, Sample, estimate  # noqa: E402


def _targets():
    return [(spans._resolve(t), attr) for t, attr, _ in spans.BOUNDARIES]


def test_uninstall_restores_every_original():
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr in _targets()]
    tracer = spans.Tracer()
    with tracer.installed():
        assert all(getattr(o, a) is not f for o, a, f in originals)
        with pytest.raises(RuntimeError):
            tracer.install()
    assert all(getattr(o, a) is f for o, a, f in originals)


def test_uninstall_runs_when_the_traced_code_raises():
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr in _targets()]
    tracer = spans.Tracer()
    with pytest.raises(ValueError):
        with tracer.installed():
            raise ValueError("boom")
    assert all(getattr(o, a) is f for o, a, f in originals)


def _small_cell() -> sim.ScenarioConfig:
    base = sim.preset_configs("paper-size-small")[0]
    return dataclasses.replace(base, replicates=2, resamples=25, seed=5)


def test_traced_and_untraced_outputs_are_identical(tmp_path):
    cfg = _small_cell()
    x = np.random.default_rng(1).normal(1.0, 0.5, (60, 6))
    data = tmp_path / "data.csv"
    rows = ["group," + ",".join(f"x{j}" for j in range(6))]
    rows += [f"g{i % 3}," + ",".join(repr(float(v)) for v in r) for i, r in enumerate(x)]
    data.write_text("\n".join(rows) + "\n")

    def outputs(tag: str) -> tuple:
        tidy = sim.tidy_rows(sim.run_scenario(cfg, workers=1))
        reports = []
        for argv in (["test", "--method", "bootstrap", "--B", "30"],
                     ["mct", "--method", "asymptotic", "--mc-draws", "5000"]):
            out = tmp_path / f"{tag}-{argv[0]}.json"
            assert cli.main([argv[0], str(data), "--out", str(out)] + argv[1:]) == 0
            reports.append(out.read_text())
        est = [estimate(v, Sample(x)) for v in McvVariant]
        return tidy, reports, est

    untraced = outputs("plain")
    tracer = spans.Tracer()
    with tracer.installed():
        traced = outputs("traced")
    assert traced == untraced
    assert len(tracer.names) > 0


def test_spans_nest_and_self_times_are_non_negative():
    tracer = spans.Tracer()
    with tracer.installed():
        with tracer.operation("op.sim"):
            sim.run_scenario(_small_cell(), workers=1)
        with tracer.operation("op.estimate"):
            estimate(McvVariant.RR, Sample(np.random.default_rng(2).normal(1, 1, (40, 5))))
    a = tracer.arrays()
    child = np.nonzero(a["parent"] >= 0)[0]
    parent = a["parent"][child]
    assert np.all(a["start"][parent] <= a["start"][child])
    assert np.all(a["end"][child] <= a["end"][parent])
    assert np.all(a["op"][child] == a["op"][parent])
    assert np.all(a["self"] >= -1e-12)
    assert set(a["op"]) == {0, 1}
    metrics = spans.layer_metrics(tracer)
    assert metrics["estimation.calls"] == 2 * (4 + 2 * 25 * 4 + 1) + 1
    assert metrics["numkit.pinv_calls"] == 2 * (4 + 4 * 25)
    assert metrics["resampling.useful_ratio"] == 1.0


def test_self_time_subtracts_direct_children_only():
    tracer = spans.Tracer()
    tracer.names += ["a", "b", "c", "d"]
    tracer.starts += [0.0, 1.0, 1.5, 4.0]
    tracer.ends += [10.0, 3.0, 2.0, 5.0]
    tracer.parents += [-1, 0, 1, 0]
    tracer.ops += [0, 0, 0, 0]
    assert tracer.arrays()["self"].tolist() == [7.0, 1.5, 0.5, 1.0]


def test_estimate_check_rejects_a_wrong_variance(tmp_path):
    wl = workloads.EstimateHighdim(3, workloads.Ledger(), tmp_path)
    wl.prepare()
    res = wl._estimate(5, "vn")
    assert wl._check(5, "vn", res, "t") == []
    bad = dataclasses.replace(res, var_c=res.var_c * (1 + 1e-7))
    assert wl._check(5, "vn", bad, "t")


def test_calibration_scales_by_the_blocks_around_a_step_and_stops_its_processes():
    with calibrate.Calibrator("tiny", 1, processes=2) as cal:
        pool = cal.pool
        assert cal.blocks == []  # the warm-up block is not kept
        before, after = cal.block(), cal.block()
        assert cal.blocks == [before, after]
        assert cal.factor(before, after) == pytest.approx(
            calibrate.REF_MS["tiny"] / 1e3 / (0.5 * (before + after)))
    assert cal.pool is None and all(not p.is_alive() for p in pool._pool)


def test_calibration_kernels_import_nothing_from_the_package():
    for source in ("calibrate.py", "oracle.py"):
        tree = ast.parse((HERE / source).read_text())
        imported = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names]
        imported += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        assert not any(name.startswith("mcvtests") for name in imported), source
    for name in calibrate.REF_MS:
        calibrate.Kernel(name).work()


def _declared(group: str) -> dict[str, str]:
    return run.declared_metrics()[group]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_printed_metrics_are_the_declared_ones(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    every = {**_declared("end_to_end"), **_declared("per_layer")}
    printed = [ln.split(" = ", 1) for ln in lines[:-1] if " = " in ln and not ln.startswith("#")]
    assert printed and all(name in every for name, _ in printed)
    assert all(rest.split()[1] == every[name] for name, rest in printed)


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "estimate-highdim", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
