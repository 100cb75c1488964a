import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mcvtests import cli

MIMIC_STUDY = Path(__file__).parents[1] / "scripts" / "run_mimic_study.py"


def run_mimic_study(tmp_path, data, *flags):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    env.pop("MCV_THREADS", None)
    argv = [sys.executable, str(MIMIC_STUDY), str(data), "--replicates", "2", "--resamples", "5",
            "--workers", "1", "--out", str(tmp_path / "tidy.csv"), *flags]
    return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)


class TestMimicStudy:
    @pytest.mark.parametrize("case", ["missing", "one_group"])
    def test_bad_input_ends_with_one_line_and_exit_2(self, tmp_path, case):
        data = tmp_path / "data.csv"
        if case == "one_group":
            data.write_text("group,x,y\na,1,2\na,2,3\na,3,5\n")
        proc = run_mimic_study(tmp_path, data)
        assert proc.returncode == cli.EXIT_INPUT, proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert not (tmp_path / "tidy.csv").exists()

    def test_a_closed_output_pipe_ends_with_exit_0(self, tmp_path):
        # The reader is gone before the first row is written: every write fails.
        data = tmp_path / "data.csv"
        data.write_text("group,x,y\na,1,2\na,2,3\na,3,5\nb,1,1\nb,2,2.5\nb,3,1\n")
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, str(MIMIC_STUDY), str(data), "--replicates", "2", "--resamples", "5",
                 "--workers", "1"],
                env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        assert "Traceback" not in proc.stderr

    def test_power_study_writes_every_distribution_and_test(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("group,x,y\na,1,2\na,2,3\na,3,5\nb,1,1\nb,2,2.5\nb,3,1\n")
        proc = run_mimic_study(tmp_path, data, "--mode", "power")
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        with open(tmp_path / "tidy.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 * 6
        assert {r["scenario"] for r in rows} == {f"mimic-power-{d}" for d in ("normal", "student5", "chisq10")}
