import contextlib
import csv
import io
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcvtests import _resampling, cli, tests_global, tests_multiple
from mcvtests.cli import (
    EXIT_DEGENERATE,
    EXIT_INPUT,
    EXIT_OK,
    build_contrast,
    main,
    parse_layout,
    read_groups,
)
from mcvtests.design import centering_matrix
from mcvtests.numkit import make_rng
from mcvtests.sim import run_scenario


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


@pytest.fixture
def single_group_file(tmp_path):
    path = tmp_path / "one.csv"
    write_csv(path, ["group", "y"], [["a", 1.0], ["a", 2.0], ["a", 3.0]])
    return str(path)


@pytest.fixture
def four_group_file(tmp_path):
    gen = make_rng(42).generator()
    rows = []
    for g in ("CH", "EH", "JH", "GB"):
        scale = {"CH": 1.0, "EH": 1.1, "JH": 1.2, "GB": 0.5}[g]
        for row in 2.0 + scale * gen.standard_normal((40, 3)):
            rows.append([g, *[f"{v:.10f}" for v in row]])
    path = tmp_path / "four.csv"
    write_csv(path, ["group", "x1", "x2", "x3"], rows)
    return str(path)


@pytest.fixture
def two_group_file(tmp_path):
    gen = make_rng(7).generator()
    rows = []
    for g in ("a", "b"):
        for row in 2.0 + gen.standard_normal((25, 2)):
            rows.append([g, *[f"{v:.10f}" for v in row]])
    path = tmp_path / "two.csv"
    write_csv(path, ["group", "x1", "x2"], rows)
    return str(path)


class TestReadGroups:
    def test_reads_in_file_order(self, four_group_file):
        groups = read_groups(four_group_file)
        assert [g for g, _ in groups] == ["CH", "EH", "JH", "GB"]
        assert groups[0][1].shape == (40, 3)

    def test_missing_group_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_csv(path, ["g", "y"], [["a", 1.0]])
        with pytest.raises(ValueError, match="group"):
            read_groups(str(path))

    def test_non_numeric_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_csv(path, ["group", "y"], [["a", "oops"]])
        with pytest.raises(ValueError, match="non-numeric"):
            read_groups(str(path))


class TestBuildContrast:
    def test_ksample_is_centering(self):
        cm = build_contrast("ksample", 4, ("a", "b", "c", "d"), None)
        np.testing.assert_allclose(cm.h, centering_matrix(4), atol=1e-15)

    def test_tukey_uses_group_names(self):
        cm = build_contrast("tukey", 3, ("x", "y", "z"), None)
        assert cm.labels == ("x-y", "x-z", "y-z")

    def test_factorial_needs_layout(self):
        with pytest.raises(ValueError, match="layout"):
            build_contrast("factorial:A", 4, ("a", "b", "c", "d"), None)
        layout = parse_layout("A:2,E:2")
        cm = build_contrast("factorial:A", 4, ("a", "b", "c", "d"), layout)
        assert cm.h.shape == (2, 4)

    def test_factorial_effect_spellings(self):
        layout = parse_layout("A:2,E:2")
        inter = build_contrast("factorial:AE", 4, ("a", "b", "c", "d"), layout)
        assert inter.h.shape == (4, 4)
        named = parse_layout("trt:2,site:3")
        cm = build_contrast("factorial:site", 6, tuple("abcdef"), named)
        assert cm.h.shape == (3, 6)
        both = build_contrast("factorial:trt+site", 6, tuple("abcdef"), named)
        assert both.h.shape == (6, 6)

    def test_csv_contrast(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("-1,1,0\n-1,0,1\n")
        cm = build_contrast(f"csv:{path}", 3, ("a", "b", "c"), None)
        assert cm.h.shape == (2, 3)

    def test_unknown_spec(self):
        with pytest.raises(ValueError, match="unknown contrast"):
            build_contrast("scheffe", 3, ("a", "b", "c"), None)


class TestEstimateCommand:
    def test_single_group_values(self, single_group_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["estimate", single_group_file, "--out", str(out)])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        rows = report["estimates"]
        assert {r["variant"] for r in rows} == {"rr", "vv", "vn", "az"}
        for r in rows:
            assert r["c"] == pytest.approx(0.4082, abs=1e-4)
            assert r["b"] == pytest.approx(2.4495, abs=1e-4)
            assert r["ci_c"][0] < r["c"] < r["ci_c"][1]

    def test_zero_mean_group_names_group(self, tmp_path, capsys):
        path = tmp_path / "zero.csv"
        write_csv(
            path,
            ["group", "x1", "x2"],
            [["bad", 1.0, -1.0], ["bad", -1.0, 1.0], ["bad", 1.0, -1.0], ["bad", -1.0, 1.0]],
        )
        code = main(["estimate", str(path)])
        assert code == EXIT_DEGENERATE
        assert "bad" in capsys.readouterr().err

    @pytest.mark.parametrize("variant,scale", [("rr", 1e40), ("rr", 1e-40), ("az", 1e60)])
    def test_units_do_not_matter(self, tmp_path, variant, scale):
        x = 1.0 + 0.4 * make_rng(11).generator().standard_normal((40, 5))
        header = ["group"] + [f"x{j + 1}" for j in range(5)]
        c = {}
        for factor in (1.0, scale):
            path = tmp_path / f"data{factor:g}.csv"
            write_csv(path, header, [["g", *(repr(float(v)) for v in row)] for row in factor * x])
            out = tmp_path / f"report{factor:g}.json"
            code = main(["estimate", str(path), "--variant", variant, "--out", str(out)])
            assert code == EXIT_OK
            c[factor] = json.loads(out.read_text())["estimates"][0]["c"]
        assert c[scale] == pytest.approx(c[1.0], rel=1e-9)

    def test_four_group_table_shape(self, four_group_file, tmp_path):
        out = tmp_path / "report.json"
        assert main(["estimate", four_group_file, "--out", str(out)]) == EXIT_OK
        rows = json.loads(out.read_text())["estimates"]
        assert len(rows) == 16  # 4 groups x 4 variants
        assert {r["group"] for r in rows} == {"CH", "EH", "JH", "GB"}


class TestTestCommand:
    def test_identical_groups_asymptotic(self, tmp_path):
        rows = [["a", v] for v in (1.0, 2.0, 3.0, 4.0)] + [["b", v] for v in (1.0, 2.0, 3.0, 4.0)]
        path = tmp_path / "same.csv"
        write_csv(path, ["group", "y"], rows)
        out = tmp_path / "report.json"
        code = main(
            ["test", str(path), "--variant", "vv", "--method", "asymptotic", "--out", str(out)]
        )
        assert code == EXIT_OK
        res = json.loads(out.read_text())["tests"][0]
        assert res["p_value"] == pytest.approx(1.0)
        assert res["reject"] is False

    def test_permutation_deterministic(self, two_group_file, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = [
            "test", two_group_file, "--variant", "vv", "--method", "permutation",
            "--B", "199", "--seed", "11",
        ]
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_all_variants_run(self, four_group_file, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            ["test", four_group_file, "--method", "bootstrap", "--B", "59", "--out", str(out)]
        )
        assert code == EXIT_OK
        res = json.loads(out.read_text())["tests"]
        assert [r["variant"] for r in res] == ["rr", "vv", "vn", "az"]
        for r in res:
            assert 0.0 < r["p_value"] <= 1.0
            assert r["resamples_used"] == 59

    @pytest.mark.parametrize(
        "command, method",
        [("test", "permutation"), ("test", "bootstrap"), ("mct", "bootstrap"), ("mct", "asymptotic")],
    )
    def test_negative_seed_is_input_error(self, two_group_file, capsys, command, method):
        args = [command, two_group_file, "--method", method, "--B", "19", "--seed", "-1"]
        if command == "mct":
            args += ["--mc-draws", "1000"]
        assert main(args) == EXIT_INPUT
        assert "non-negative" in capsys.readouterr().err

    def test_bad_contrast_spec_is_input_error(self, two_group_file, capsys):
        assert main(["test", two_group_file, "--contrasts", "what"]) == EXIT_INPUT


class TestMctCommand:
    def test_table_columns_and_duality(self, four_group_file, tmp_path):
        out = tmp_path / "report.json"
        table = tmp_path / "table.csv"
        code = main(
            [
                "mct", four_group_file, "--variant", "vv", "--method", "asymptotic",
                "--mc-draws", "20000", "--out", str(out), "--table", str(table),
            ]
        )
        assert code == EXIT_OK
        with open(table, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == [
            "comparison", "variant", "target", "method", "estimate", "lower", "upper", "significant",
        ]
        assert len(rows) == 6
        for row in rows:
            lo, hi = float(row["lower"]), float(row["upper"])
            outside = lo > 0.0 or hi < 0.0
            assert (row["significant"] == "true") == outside

    def test_single_contrast_matches_z_interval(self, two_group_file, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "mct", two_group_file, "--variant", "vv", "--method", "asymptotic",
                "--contrasts", "tukey", "--mc-draws", "100000", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        block = json.loads(out.read_text())["mct"][0]
        assert block["critical_value"] == pytest.approx(1.96, abs=0.02)
        assert 0.0 <= block["global_p"] <= 1.0

    def test_bootstrap_deterministic(self, two_group_file, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            main(
                [
                    "mct", two_group_file, "--variant", "vv", "--method", "bootstrap",
                    "--B", "99", "--seed", "3", "--out", str(out),
                ]
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


@pytest.mark.usefixtures("fresh_pool")
class TestResamplingWorkers:
    """A resampling command writes the same bytes whatever workers its calls use."""

    @pytest.mark.parametrize(
        "argv",
        [["test", "--method", "permutation"], ["test", "--method", "bootstrap"], ["mct", "--method", "bootstrap"]],
    )
    def test_report_bytes_do_not_depend_on_workers(self, four_group_file, tmp_path, monkeypatch, argv):
        # A threshold of 0 lets every call of 300 resamples (three chunks) run
        # on the workers; the spy records the worker cap each call is given.
        monkeypatch.setattr(_resampling, "WORKER_MIN_ELEMENTS", 0)
        caps = []

        def spy(*args, **kwargs):
            caps.append(kwargs["workers"])
            return engine(*args, **kwargs)

        engine = _resampling.pooled_resample_estimates
        monkeypatch.setattr(tests_global, "pooled_resample_estimates", spy)
        monkeypatch.setattr(tests_multiple, "pooled_resample_estimates", spy)
        reports = {}
        for setting in ("1", None, "3"):
            if setting is None:
                monkeypatch.delenv("MCV_THREADS", raising=False)
            else:
                monkeypatch.setenv("MCV_THREADS", setting)
            out = tmp_path / f"workers-{setting}.json"
            command = [argv[0], four_group_file, *argv[1:], "--B", "300", "--seed", "5", "--out", str(out)]
            assert main(command) == EXIT_OK
            reports[setting] = out.read_bytes()
        assert reports["1"] == reports[None] == reports["3"]
        cpus = len(os.sched_getaffinity(0))
        assert caps == [1] * 4 + [cpus] * 4 + [3] * 4

    def test_one_shot_command_exits_and_leaves_no_process(self, tmp_path):
        # 4 groups of 100 rows at d = 10: each chunk's stacks reach the worker
        # threshold, so with two workers and no serial start-up budget the
        # command forks a pool.  It must exit 0, write the serial run's bytes,
        # and leave no process of its session (workers keep their parent's
        # session) behind.
        assert 128 * 100 * 10 >= _resampling.WORKER_MIN_ELEMENTS
        command = (
            "import sys\n"
            "from mcvtests import _resampling, cli\n"
            "_resampling.POOL_START_SECONDS = 0.0\n"
            "code = cli.main(sys.argv[1:])\n"
            "print(_resampling._pool is not None)\n"
            "sys.exit(code)\n"
        )
        gen = make_rng(9).generator()
        rows = [[g, *[f"{v:.10f}" for v in 2.0 + gen.standard_normal(10)]] for g in "abcd" for _ in range(100)]
        data = tmp_path / "wide.csv"
        write_csv(data, ["group", *[f"x{j}" for j in range(10)]], rows)
        reports = []
        for workers in ("1", "2"):
            out = tmp_path / f"workers-{workers}.json"
            env = dict(os.environ, MCV_THREADS=workers, PYTHONPATH=str(Path(cli.__file__).parents[1]))
            proc = subprocess.Popen(
                [sys.executable, "-c", command, "test", str(data), "--method", "permutation",
                 "--B", "300", "--seed", "2", "--out", str(out)],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
            )
            try:
                stdout, stderr = proc.communicate(timeout=120)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                raise
            assert proc.returncode == EXIT_OK, stderr
            assert stdout.split() == [str(workers == "2")]
            deadline = time.monotonic() + 5.0
            while _session_alive(proc.pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not _session_alive(proc.pid)
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]


def _session_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


class TestIlrCommand:
    def test_closed_form_two_parts(self, tmp_path, capsys):
        path = tmp_path / "comp.csv"
        write_csv(path, ["group", "p1", "p2"], [["a", math.e, 1.0], ["a", 1.0, 1.0]])
        out = tmp_path / "ilr.csv"
        assert main(["ilr", str(path), "--out", str(out)]) == EXIT_OK
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["group", "ilr1"]
        assert float(rows[0]["ilr1"]) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
        assert float(rows[1]["ilr1"]) == pytest.approx(0.0, abs=1e-15)

    def test_equal_parts_map_to_zero(self, tmp_path):
        path = tmp_path / "comp.csv"
        write_csv(path, ["group", "a", "b", "c"], [["g", 2.0, 2.0, 2.0]])
        out = tmp_path / "ilr.csv"
        assert main(["ilr", str(path), "--out", str(out)]) == EXIT_OK
        with open(out, newline="") as fh:
            row = next(csv.DictReader(fh))
        assert float(row["ilr1"]) == pytest.approx(0.0, abs=1e-15)
        assert float(row["ilr2"]) == pytest.approx(0.0, abs=1e-15)

    def test_nonpositive_entry_rejected(self, tmp_path, capsys):
        path = tmp_path / "comp.csv"
        write_csv(path, ["group", "a", "b"], [["g", 1.0, 0.0]])
        assert main(["ilr", str(path)]) == EXIT_INPUT

    def test_pipeline_into_estimate(self, tmp_path):
        # A 5-part composition file survives ilr and feeds estimation.
        gen = make_rng(9).generator()
        rows = []
        for g in ("a", "b"):
            raw = np.exp(gen.normal(0.0, 0.2, size=(30, 5)) + np.array([1.0, 0.5, 0.2, 0.8, 0.3]))
            comp = raw / raw.sum(axis=1, keepdims=True)
            rows += [[g, *map(str, r)] for r in comp]
        src = tmp_path / "comp.csv"
        write_csv(src, ["group", "p1", "p2", "p3", "p4", "p5"], rows)
        ilr_out = tmp_path / "ilr.csv"
        assert main(["ilr", str(src), "--out", str(ilr_out)]) == EXIT_OK
        report = tmp_path / "report.json"
        assert main(["estimate", str(ilr_out), "--out", str(report)]) == EXIT_OK
        rows = json.loads(report.read_text())["estimates"]
        assert len(rows) == 8  # 2 groups x 4 variants


class TestSimulateCommand:
    def write_config(self, tmp_path, **overrides):
        values = {
            "name": "cli-tiny",
            "d": 2,
            "n": "10,10",
            "distribution": "normal",
            "rho": "0.1",
            "mu": "2.0,1.0",
            "targets": "0.5,0.5",
            "variant": "vv",
            "alpha": "0.05",
            "replicates": "8",
            "resamples": "12",
            "seed": "3",
            "tests": "perm_wald,boot_wald",
        }
        values.update(overrides)
        path = tmp_path / "scenario.cfg"
        path.write_text(
            "# tiny scenario\n" + "\n".join(f"{k} = {v}" for k, v in values.items()) + "\n"
        )
        return str(path)

    def test_runs_and_emits_tidy_csv(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "tidy.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert rows[0]["scenario"] == "cli-tiny"
        assert rows[0]["test"] == "perm_wald"
        assert rows[0]["target"] == "c"

    def test_zero_replicates_is_input_error(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, replicates="0")
        assert main(["simulate", "--config", cfg]) == EXIT_INPUT

    def test_same_seed_same_bytes(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == EXIT_OK
        assert main(["simulate", "--config", cfg, "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out1, out2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
        assert main(["simulate", "--config", cfg, "--workers", "1", "--out", str(out1)]) == EXIT_OK
        assert main(["simulate", "--config", cfg, "--workers", "2", "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_non_integer_thread_count_is_input_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MCV_THREADS", "many")
        cfg = self.write_config(tmp_path)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "t.csv")]) == EXIT_INPUT
        assert "MCV_THREADS" in capsys.readouterr().err

    def test_mimic_mode(self, tmp_path):
        path = tmp_path / "mimic.cfg"
        path.write_text(
            "mode = mimic\n"
            "name = mimic-tiny\n"
            "n = 12,12\n"
            "variant = vv\n"
            "tests = perm_wald\n"
            "replicates = 6\n"
            "resamples = 10\n"
            "seed = 4\n"
            "mu_1 = 2.0,1.0\n"
            "mu_2 = 2.0,1.0\n"
            "sigma_1 = 1.0,0.2;0.2,1.0\n"
            "sigma_2 = 1.0,0.2;0.2,1.0\n"
        )
        out = tmp_path / "tidy.csv"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_OK
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["scenario"] == "mimic-tiny"

    def test_requires_exactly_one_source(self, tmp_path, capsys):
        assert main(["simulate"]) == EXIT_INPUT
        cfg = self.write_config(tmp_path)
        assert main(["simulate", "--config", cfg, "--preset", "paper-size-small"]) == EXIT_INPUT

    def test_preset_reports_each_scenario_as_it_finishes(self, tmp_path, monkeypatch, capsys):
        base = cli.load_config(self.write_config(tmp_path, replicates="2", resamples="5"))["config"]
        cells = [replace(base, name="first"), replace(base, name="second")]
        monkeypatch.setattr(cli, "preset_configs", lambda name: cells)
        stderr_before_run = []

        def run(cfg, workers=None):
            stderr_before_run.append(capsys.readouterr().err)
            return run_scenario(cfg, workers=workers)

        monkeypatch.setattr(cli, "run_scenario", run)
        assert main(["simulate", "--preset", "two-cells", "--out", str(tmp_path / "t.csv")]) == EXIT_OK
        assert stderr_before_run[0] == ""
        assert stderr_before_run[1].startswith("[first] 2 replicates in ")
        assert capsys.readouterr().err.startswith("[second] 2 replicates in ")

    def test_preset_cells_share_one_pool(self, tmp_path, monkeypatch, pool_builds):
        base = cli.load_config(self.write_config(tmp_path, replicates="4", resamples="8"))["config"]
        cells = [replace(base, name="first"), replace(base, name="second", seed=4)]
        monkeypatch.setattr(cli, "preset_configs", lambda name: cells)
        out1, out2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
        assert main(["simulate", "--preset", "two-cells", "--workers", "1", "--out", str(out1)]) == EXIT_OK
        assert pool_builds == []
        assert main(["simulate", "--preset", "two-cells", "--workers", "2", "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()
        assert len(pool_builds) == 1

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_non_positive_workers_is_input_error(self, tmp_path, capsys, workers):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "t.csv"
        assert main(["simulate", "--config", cfg, "--workers", workers, "--out", str(out)]) == EXIT_INPUT
        assert "at least 1" in capsys.readouterr().err
        assert not out.exists()


def _sweep_data(tmp_path, case):
    """A data CSV for one exit-code sweep case, or a path that does not exist."""
    path = tmp_path / f"{case}.csv"
    gen = make_rng(3).generator()
    rows = [[g, *(2.0 + gen.standard_normal(2))] for g in ("a", "b") for _ in range(12)]
    if case == "missing":
        return str(path)
    if case == "empty":
        path.write_text("")
        return str(path)
    if case == "single_group":
        rows = [r for r in rows if r[0] == "a"]
    elif case == "non_numeric":
        rows[4][1] = "oops"
    elif case == "nan":
        rows[4][1] = "nan"
    elif case == "constant_rr":
        rows = [[g, 1.5, y] for g, _, y in rows]
    write_csv(path, ["group", "x1", "x2"], rows)
    return str(path)


_SCENARIO = {
    "name": "sweep", "d": "2", "n": "10,10", "mu": "2.0,1.0", "targets": "0.5,0.5",
    "variant": "vv", "alpha": "0.05", "replicates": "2", "resamples": "5", "seed": "1",
    "tests": "perm_wald,boot_mct",
}
_MIMIC = {
    "mode": "mimic", "n": "10,10", "mu_1": "2.0,1.0", "mu_2": "2.0,1.0",
    "sigma_1": "1,0;0,1", "sigma_2": "1,0;0,1", "variant": "vv", "alpha": "0.05",
    "replicates": "2", "resamples": "5", "tests": "perm_wald,boot_mct",
}


def _sweep_config(tmp_path, case, base):
    """A simulate config for one exit-code sweep case, or a path that does not exist."""
    path = tmp_path / f"{case}.cfg"
    overrides = {
        "single_group": {"n": "10", "targets": "0.5"},
        "non_numeric": {"replicates": "oops"},
        "nan": {"mu": "nan,1.0", "mu_1": "nan,1.0"},
        "B0": {"resamples": "0"},
        "alpha2": {"alpha": "2"},
        "alpha0": {"alpha": "0", "tests": "asym_wald,asym_mct"},
    }
    if case == "missing":
        return str(path)
    text = ""
    if case != "empty":
        values = dict(base)
        values.update({k: v for k, v in overrides.get(case, {}).items() if k in base})
        text = "".join(f"{k} = {v}\n" for k, v in values.items())
    path.write_text(text)
    return str(path)


class TestExitCodeSweep:
    """Every command ends with 0, 2 or 3 on every input it accepts, never a traceback."""

    @pytest.mark.parametrize(
        "command, case, flags, expected",
        [
            (command, case, flags, expected)
            for command in ("estimate", "test", "mct")
            for case, flags, expected in [
                ("missing", [], EXIT_INPUT),
                ("empty", [], EXIT_INPUT),
                ("single_group", [], EXIT_OK if command == "estimate" else EXIT_INPUT),
                ("non_numeric", [], EXIT_INPUT),
                ("nan", [], EXIT_INPUT),
                ("constant_rr", ["--variant", "rr"], EXIT_DEGENERATE),
                ("valid", ["--alpha", "2"], EXIT_INPUT),
            ]
            + ([("valid", ["--B", "0"], EXIT_INPUT)] if command != "estimate" else [])
        ]
        + [(command, "valid", ["--alpha", "0"], EXIT_INPUT) for command in ("estimate", "test", "mct")],
    )
    def test_data_commands(self, tmp_path, capsys, command, case, flags, expected):
        argv = [command, _sweep_data(tmp_path, case), "--out", str(tmp_path / "r.json")]
        if command != "estimate":
            argv += ["--B", "20"] + (["--mc-draws", "500"] if command == "mct" else [])
        code = main(argv + flags)
        err = capsys.readouterr().err
        assert code == expected, err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [["test"], ["test", "--method", "bootstrap"], ["mct"]])
    def test_non_integer_thread_count(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.setenv("MCV_THREADS", "two")
        out = str(tmp_path / "r.json")
        code = main([argv[0], _sweep_data(tmp_path, "valid"), *argv[1:], "--B", "20", "--out", out])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT, err
        assert "MCV_THREADS" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("mode", ["scenario", "mimic"])
    @pytest.mark.parametrize(
        "case",
        ["missing", "empty", "single_group", "non_numeric", "nan", "B0", "alpha2", "workers0", "alpha0"],
    )
    def test_simulate(self, tmp_path, capsys, mode, case):
        cfg = _sweep_config(tmp_path, case, _SCENARIO if mode == "scenario" else _MIMIC)
        argv = ["simulate", "--config", cfg, "--out", str(tmp_path / "t.csv")]
        if case == "workers0":
            argv += ["--workers", "0"]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == EXIT_INPUT, err
        assert "Traceback" not in err


# Column kinds the fuzzer mixes: regular noise, a constant, a copy of the
# first column, the first column plus 1e-9 noise, and values near the ends of
# the float range.
_FUZZ_COLUMNS = ("normal", "constant", "duplicate", "near_collinear", "tiny", "huge")
_FUZZ_COMMANDS = (
    ["test", "--method", "permutation"],
    ["test", "--method", "bootstrap"],
    ["mct", "--method", "bootstrap"],
)


@st.composite
def fuzz_group_rows(draw):
    """CSV rows (group label, then d values) of 2-4 groups of 2-12 rows each."""
    k, d = draw(st.integers(2, 4)), draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(2, 12), min_size=k, max_size=k))
    kinds = draw(st.lists(st.sampled_from(_FUZZ_COLUMNS), min_size=d, max_size=d))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = 1.0 + gen.standard_normal((sum(sizes), d))
    for j, kind in enumerate(kinds):
        if kind == "constant":
            x[:, j] = 2.5
        elif kind == "duplicate":
            x[:, j] = x[:, 0]
        elif kind == "near_collinear":
            x[:, j] = x[:, 0] + 1e-9 * gen.standard_normal(len(x))
        elif kind == "tiny":
            x[:, j] *= 1e-250
        elif kind == "huge":
            x[:, j] *= 1e250
    labels = np.repeat([f"g{g}" for g in range(k)], sizes)
    return [[label, *map(repr, row.tolist())] for label, row in zip(labels, x)], d


class TestCliFuzz:
    """Degenerate columns through the resampled rr and vn paths end in 0, 2 or 3."""

    @given(fuzz_group_rows(), st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_resampling_commands_exit_cleanly(self, data, seed):
        rows, d = data
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "groups.csv")
            write_csv(path, ["group"] + [f"x{j + 1}" for j in range(d)], rows)
            for command in _FUZZ_COMMANDS:
                for variant in ("rr", "vn"):
                    argv = [command[0], path, *command[1:], "--variant", variant, "--B", "20",
                            "--seed", str(seed), "--out", os.path.join(tmp, "r.json")]
                    err = io.StringIO()
                    with contextlib.redirect_stderr(err):
                        code = main(argv)
                    assert code in (EXIT_OK, EXIT_INPUT, EXIT_DEGENERATE), (argv, err.getvalue())
                    assert "Traceback" not in err.getvalue()
