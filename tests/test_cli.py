import contextlib
import csv
import inspect
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mcvtests import _resampling, cli, estimation, tests_global, tests_multiple
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
from mcvtests.sim import ScenarioConfig, run_moment_mimic, run_scenario


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

    def test_each_group_and_variant_is_estimated_once(self, four_group_file, tmp_path, monkeypatch):
        calls = []
        original = estimation._estimate_array
        monkeypatch.setattr(
            cli, "_estimate_array",
            lambda variant, x: calls.append((variant.value, x[0, 0])) or original(variant, x),
        )
        out = tmp_path / "report.json"
        assert main(["estimate", four_group_file, "--out", str(out)]) == EXIT_OK
        assert len(calls) == len(set(calls)) == 16
        # The intervals are still those of one_sample_ci.
        row = json.loads(out.read_text())["estimates"][0]
        sample = estimation.Sample(read_groups(four_group_file)[0][1])
        ci_c, ci_b = estimation.one_sample_ci(estimation.McvVariant(row["variant"]), sample, 0.05)
        assert row["ci_c"] == list(ci_c) and row["ci_b"] == list(ci_b)

    @pytest.mark.parametrize("sizes, variant", [((4, 4), "all"), ((4, 3), "vv")])
    def test_one_small_group_warning_per_command(self, tmp_path, sizes, variant):
        # In a fresh interpreter, where the first normal quantile imports
        # scipy.special, which resets the warning registry.
        gen = make_rng(8).generator()
        rows = [[g, *(2.0 + gen.standard_normal(3))] for g, m in zip("ab", sizes) for _ in range(m)]
        path = tmp_path / "small.csv"
        write_csv(path, ["group", "x1", "x2", "x3"], rows)
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "mcvtests.cli", "estimate", str(path), "--variant", variant,
             "--out", str(tmp_path / "r.json")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stderr.count("variance estimation is unreliable") == 1, proc.stderr
        assert f"n={min(sizes)} < d+2=5" in proc.stderr


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


class TestReportInputs:
    """A report's inputs are every flag of its command except the output paths and --workers."""

    FLAGS = {
        "estimate": {"file", "variant", "alpha"},
        "test": {"file", "variant", "target", "alpha", "seed", "contrasts", "layout", "method", "B"},
        "mct": {"file", "variant", "target", "alpha", "seed", "contrasts", "layout", "method", "B", "mc_draws"},
    }

    @pytest.mark.parametrize("command", ["test", "mct"])
    def test_a_factorial_report_records_its_layout(self, four_group_file, tmp_path, command):
        out = tmp_path / "r.json"
        argv = [command, four_group_file, "--variant", "vv", "--contrasts", "factorial:A",
                "--layout", "A:2,E:2", "--method", "bootstrap", "--B", "20", "--out", str(out)]
        if command == "mct":
            argv += ["--table", str(tmp_path / "t.csv")]
        assert main(argv) == EXIT_OK
        inputs = json.loads(out.read_text())["inputs"]
        assert set(inputs) == self.FLAGS[command]
        assert inputs["layout"] == "A:2,E:2"

    def test_estimate_takes_no_seed(self, four_group_file, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["estimate", four_group_file, "--out", str(out)]) == EXIT_OK
        assert set(json.loads(out.read_text())["inputs"]) == self.FLAGS["estimate"]
        with pytest.raises(SystemExit) as exc:
            main(["estimate", four_group_file, "--seed", "1"])
        assert exc.value.code == EXIT_INPUT


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


_SCIPY_PROBE = """
import contextlib, io, json, sys
import mcvtests, mcvtests.cli
steps = [("import", None)] + [(" ".join(argv), argv) for argv in json.loads(sys.argv[1])]
seen = {}
for name, argv in steps:
    if argv is not None:
        with contextlib.redirect_stdout(io.StringIO()):
            assert mcvtests.cli.main(argv) == 0, name
    seen[name] = sorted(m for m in ("scipy.special", "scipy.stats") if m in sys.modules)
print(json.dumps(seen))
"""


class TestScipyLoading:
    """Only a chi-square tail or a normal quantile loads scipy, and only scipy.special."""

    def test_only_a_chi_square_tail_loads_scipy_special(self, four_group_file):
        runs = [
            ["test", "--method", "permutation", "--B", "20"],
            ["test", "--method", "bootstrap", "--B", "20"],
            ["mct", "--method", "bootstrap", "--B", "20"],
            ["mct", "--method", "asymptotic", "--mc-draws", "500"],
            ["test", "--method", "asymptotic"],
        ]
        runs = [[argv[0], four_group_file, *argv[1:]] for argv in runs]
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, json.dumps(runs)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        seen = list(json.loads(proc.stdout).values())
        assert seen == [[]] * 5 + [["scipy.special"]]


class TestClosedPipe:
    def test_a_reader_that_stops_after_one_line_ends_with_exit_0(self, tmp_path):
        # 20,000 rows give about 900 KB of ilr coordinates, far more than a
        # pipe buffers, so the command is still writing when the reader stops.
        data = tmp_path / "big.csv"
        parts = 1.0 + np.random.default_rng(4).random((20_000, 3))
        write_csv(data, ["group", "p1", "p2", "p3"], [["a", *row] for row in parts])
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.Popen([sys.executable, "-m", "mcvtests.cli", "ilr", str(data)], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.communicate(timeout=120)[1].decode()
        assert proc.returncode == EXIT_OK, err
        assert first == b"group,ilr1,ilr2\n"
        assert "Traceback" not in err


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

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_entry_rejected(self, tmp_path, capsys, cell):
        path = tmp_path / "comp.csv"
        write_csv(path, ["group", "a", "b", "c"], [["g", 1.0, 2.0, 3.0], ["g", 1.0, cell, 3.0]])
        out = tmp_path / "ilr.csv"
        assert main(["ilr", str(path), "--out", str(out)]) == EXIT_INPUT
        assert "finite" in capsys.readouterr().err and not out.exists()

    def test_a_row_whose_sum_overflows_gives_finite_coordinates(self, tmp_path):
        # ilr coordinates do not change when a row is scaled, so the row and
        # the same row scaled by 2**-1000 (exact) give the same coordinates.
        row = [1e308, 1e308, 1.0]
        path = tmp_path / "comp.csv"
        write_csv(path, ["group", "a", "b", "c"],
                  [["g", *row], ["g", *(math.ldexp(v, -1000) for v in row)]])
        out = tmp_path / "ilr.csv"
        assert main(["ilr", str(path), "--out", str(out)]) == EXIT_OK
        with open(out, newline="") as fh:
            z = np.array([[float(r["ilr1"]), float(r["ilr2"])] for r in csv.DictReader(fh)])
        assert np.isfinite(z).all()
        np.testing.assert_allclose(z[0], z[1], rtol=1e-12, atol=1e-12)

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

    def test_report_inputs_leave_out_outputs_and_workers(self, tmp_path):
        cfg = self.write_config(tmp_path)
        report = tmp_path / "r.json"
        argv = ["simulate", "--config", cfg, "--workers", "1", "--out", str(tmp_path / "t.csv"), "--report", str(report)]
        assert main(argv) == EXIT_OK
        assert json.loads(report.read_text())["inputs"] == {"config": cfg, "preset": None}

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
                # A bad flag is an input error even where the data are degenerate.
                ("constant_rr", ["--variant", "rr", "--alpha", "0"], EXIT_INPUT),
                ("valid", ["--alpha", "2"], EXIT_INPUT),
            ]
            + ([("valid", ["--B", "0"], EXIT_INPUT)] if command != "estimate" else [])
        ]
        + [(command, "valid", ["--alpha", "0"], EXIT_INPUT) for command in ("estimate", "test", "mct")]
        # A bad seed or draw count is an input error, checked before any estimate.
        + [(command, "constant_rr", ["--variant", "rr", "--seed", "-1"], EXIT_INPUT) for command in ("test", "mct")]
        + [("mct", "constant_rr", ["--variant", "rr", "--method", "asymptotic", "--mc-draws", "0"], EXIT_INPUT),
           ("mct", "valid", ["--mc-draws", "0"], EXIT_INPUT)],
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

    @pytest.mark.parametrize("base", [_SCENARIO, _MIMIC], ids=["scenario", "mimic"])
    @pytest.mark.parametrize("key, value", [("seed", "-1"), ("mc_draws", "0")])
    def test_simulate_bad_seed_or_draws_fails_before_any_worker(self, tmp_path, capsys, pool_builds,
                                                                base, key, value):
        cfg = _write_config(tmp_path / "c.cfg", {**base, key: value, "tests": "asym_mct"})
        code = main(["simulate", "--config", cfg, "--workers", "2", "--out", str(tmp_path / "t.csv")])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT, err
        assert key in err and "Traceback" not in err
        assert pool_builds == []


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


def _write_config(path, values):
    Path(path).write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    return str(path)


class TestConfigFiles:
    """Config keys are parsed through one table; a key the mode does not read is an input error."""

    @pytest.mark.parametrize(
        "base, key, value",
        [
            (_SCENARIO, "replicate", "3"),
            (_SCENARIO, "test", "boot_wald"),
            (_SCENARIO, "mu_1", "2.0,1.0"),
            (_MIMIC, "mu", "2.0,1.0"),
            (_MIMIC, "rho", "0.1"),
            (_MIMIC, "sigma_3", "1,0;0,1"),
        ],
    )
    def test_a_key_its_mode_does_not_read_is_named(self, tmp_path, capsys, base, key, value):
        cfg = _write_config(tmp_path / "c.cfg", {**base, key: value})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "t.csv")]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert repr(key) in err and err.count(cfg) == 1, err

    @pytest.mark.parametrize(
        "base, key",
        [(_SCENARIO, k) for k in ("d", "n", "mu", "targets", "variant")]
        + [(_MIMIC, k) for k in ("n", "variant", "mu_2", "sigma_1")],
    )
    def test_a_missing_required_key_is_named(self, tmp_path, capsys, base, key):
        cfg = _write_config(tmp_path / "c.cfg", {k: v for k, v in base.items() if k != key})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "t.csv")]) == EXIT_INPUT
        assert f"missing key {key!r}" in capsys.readouterr().err

    def test_an_absent_key_takes_the_library_default(self, tmp_path):
        scenario = cli.load_config(_write_config(tmp_path / "s.cfg", _SCENARIO))["config"]
        assert (scenario.mc_draws, scenario.target_kind, scenario.rho) == (100_000, "c", 0.0)
        mimic = cli.load_config(_write_config(tmp_path / "m.cfg", _MIMIC))["config"]
        assert {"seed", "mc_draws", "target_kind"}.isdisjoint(mimic)
        assert (mimic["name"], mimic["distribution"]) == ("m.cfg", "normal")

    def test_every_key_is_a_library_setting(self):
        # Scenario keys are ScenarioConfig fields; mimic keys are
        # run_moment_mimic parameters, with mu_<i> and sigma_<i> gathered
        # into mus and sigmas.
        settings = {
            "scenario": {f.name for f in fields(ScenarioConfig)},
            "mimic": set(inspect.signature(run_moment_mimic).parameters),
        }
        for key, (_, modes) in cli.CONFIG_KEYS.items():
            name = {"mu_<i>": "mus", "sigma_<i>": "sigmas"}.get(key, key)
            for mode in modes:
                assert key == "mode" or name in settings[mode], (key, mode)

    def test_readme_lists_every_key_and_its_example_loads(self, tmp_path):
        # The docs cannot drift from the loader: README's key table is the
        # loader's, mode for mode, with the library's defaults; its example
        # config loads.
        text = (Path(cli.__file__).parents[2] / "README.md").read_text(encoding="utf-8")
        rows = re.findall(r"^\| `([^`]+)` \| (\w+) \| ([^|]+) \|", text, flags=re.M)
        table = {key: (read_by, default.strip()) for key, read_by, default in rows}
        assert set(table) == set(cli.CONFIG_KEYS)
        modes = {"both": ("scenario", "mimic"), "scenario": ("scenario",), "mimic": ("mimic",)}
        defaults = {f.name: f.default for f in fields(ScenarioConfig) if f.default is not MISSING}
        for key, (parse, read_by) in cli.CONFIG_KEYS.items():
            assert modes[table[key][0]] == read_by, key
            if key in defaults:
                assert parse(table[key][1].strip("`")) == defaults[key], key
        path = tmp_path / "readme.cfg"
        path.write_text(re.search(r"```ini\n(.*?)```", text, flags=re.S).group(1))
        loaded = cli.load_config(str(path))
        assert loaded["mode"] == "scenario"
        assert (loaded["config"].name, loaded["config"].k, len(loaded["config"].tests)) == ("my-size-study", 4, 5)


# Values a fuzzed config may give a key: well-formed ones within small
# limits (n_i <= 12, d <= 3, replicates <= 3, resamples <= 5, mc_draws <=
# 200), and malformed ones.
_FUZZ_NUMBERS = st.lists(st.sampled_from(["2.0", "-1.5", "0.5", "1e-3", "0"]), min_size=1, max_size=3).map(",".join)
_FUZZ_GOOD = {
    "mode": st.sampled_from(["scenario", "mimic", "other"]),
    "name": st.just("fuzz"),
    "d": st.integers(0, 3).map(str),
    # Two groups, as the base configs have, or any count.
    "n": st.one_of(st.lists(st.integers(1, 12), min_size=2, max_size=2),
                   st.lists(st.integers(1, 12), min_size=1, max_size=4)).map(lambda v: ",".join(map(str, v))),
    "distribution": st.sampled_from(["normal", "student5", "chisq10", "cauchy"]),
    "rho": st.sampled_from(["0", "0.3", "-0.2", "1"]),
    "mu": _FUZZ_NUMBERS,
    "targets": _FUZZ_NUMBERS,
    "mu_<i>": _FUZZ_NUMBERS,
    "sigma_<i>": st.sampled_from(["1,0;0,1", "1,0.5;0.5,1", "1,2;2,1", "2", "1,0;0", "0,0;0,0", "1,0,0;0,1,0;0,0,1"]),
    "variant": st.sampled_from(["rr", "vv", "vn", "az", "xx"]),
    "target_kind": st.sampled_from(["c", "b", "z"]),
    "alpha": st.sampled_from(["0.05", "0.5", "0", "1"]),
    "replicates": st.integers(1, 3).map(str),
    "resamples": st.integers(1, 5).map(str),
    "mc_draws": st.integers(0, 200).map(str),
    "seed": st.integers(-1, 5).map(str),
    "tests": st.lists(
        st.sampled_from(["asym_wald", "perm_wald:b", "boot_wald", "asym_mct:c", "boot_mct", "boot_mct:x", "oops"]),
        max_size=3,
    ).map(",".join),
}
_FUZZ_BAD = st.sampled_from(["", "oops", "1,,2", "nan", "inf", "-1", "2;x"])
# Misspelled keys, and per-group keys of groups that may not exist.
_FUZZ_KEYS = sorted(
    (set(cli.CONFIG_KEYS) - {"mu_<i>", "sigma_<i>"})
    | {f"{p}_{i}" for p in ("mu", "sigma") for i in range(4)}
    | {"replicate", "test", "targetkind", "Variant"}
)
# Never dropped: their defaults (1000 replicates of 500 resamples, 100,000
# draws) would make one example take minutes.
_FUZZ_KEPT = ("replicates", "resamples", "mc_draws")


@st.composite
def fuzz_config(draw):
    """A scenario or mimic config with a few keys set, spoilt, dropped or added."""
    values = dict(draw(st.sampled_from([_SCENARIO, _MIMIC])), mc_draws="50")
    # Mostly the mode's own keys, set to well-formed values, so that some
    # configs run.
    keys = st.one_of(st.sampled_from(sorted(values)), st.sampled_from(_FUZZ_KEYS))
    for key in draw(st.lists(keys, max_size=3, unique=True)):
        action = draw(st.sampled_from(["set", "set", "set", "spoil", "drop"]))
        if action == "drop" and key not in _FUZZ_KEPT:
            values.pop(key, None)
        elif action == "spoil":
            values[key] = draw(_FUZZ_BAD)
        else:
            prefix, _, number = key.rpartition("_")
            values[key] = draw(_FUZZ_GOOD.get(f"{prefix}_<i>" if number.isdigit() else key, _FUZZ_BAD))
    return values


class TestConfigFuzz:
    """Any config file ends ``simulate`` with exit 0, 2 or 3, never a traceback."""

    @given(fuzz_config())
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_simulate_exits_cleanly(self, monkeypatch, values):
        monkeypatch.delenv("MCV_THREADS", raising=False)
        with tempfile.TemporaryDirectory() as tmp:
            cfg = _write_config(os.path.join(tmp, "fuzz.cfg"), values)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["simulate", "--config", cfg, "--out", os.path.join(tmp, "t.csv")])
        assert code in (EXIT_OK, EXIT_INPUT, EXIT_DEGENERATE), (values, err.getvalue())
        assert "Traceback" not in err.getvalue()
