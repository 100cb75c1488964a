"""The benchmark workloads: inputs made from a seed, timed passes and checks.

Each workload is a closed loop driven by one client, this process: the next
operation starts only when the previous one has returned.  Only
``sim-size-cell`` starts program worker processes (``NPROC`` of them, through
``run_scenario(workers=NPROC)``).  The program receives generated inputs
only; the workload seed never reaches it except as the ``seed`` every
mcvtests entry point already takes.

Every operation's output is checked.  An operation that raises, exits with a
non-zero code or fails a check is counted in ``Ledger.failed``.

The timed pass calls one *step* (a ``run_scenario`` call, a CLI call, a
sweep over the dimensions) at a time, with a block of the workload's
calibration kernel (``calibrate.py``) before the first step and after every
step.  Each step's latency samples are kept as measured and also scaled to
the reference speed by the mean of the two blocks around the step.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import statistics
import time
import traceback
from pathlib import Path

import numpy as np

import oracle
from calibrate import Calibrator

HERE = Path(__file__).resolve().parent
REFS_PATH = HERE / "refs.json"
NPROC = len(os.sched_getaffinity(0))
VARIANTS = oracle.VARIANTS

# sim-size-cell: replicates per run_scenario call; small enough for several
# calls per run, large enough that each of the NPROC workers gets 3 replicates.
SIM_REPLICATES = 6
# Calibration units per block, by workload: blocks take 10-20% of the time.
SIM_CALIBRATION_UNITS = 16
CLI_CALIBRATION_UNITS = 5
EST_CALIBRATION_UNITS = 1

# cli-inference: one 4-group file; the mix below is cycled with the variant
# advancing by one per cycle, so any 4 consecutive cycles run every command
# once with every variant.
CLI_GROUPS, CLI_N, CLI_D, CLI_B = 4, 100, 10, 1000
CLI_COMMANDS = (
    ("test_perm", ["test", "--method", "permutation", "--B", str(CLI_B)]),
    ("test_boot", ["test", "--method", "bootstrap", "--B", str(CLI_B)]),
    ("mct_boot", ["mct", "--method", "bootstrap", "--B", str(CLI_B)]),
    ("mct_asym", ["mct", "--method", "asymptotic"]),
)

# estimate-highdim: one group per dimension, all four variants each time.
EST_N = 200
EST_DIMS = (5, 20, 40)

# Relative tolerance against the independent oracle.  Observed Wald and
# contrast statistics pass through a pseudoinverse / ratio, hence the looser
# second value.
ORACLE_RTOL = 1e-9
STAT_RTOL = 1e-8
# Relative tolerance against stored references.
REF_RTOL = 1e-9


class Ledger:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def op(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.extend(problems[:3])


# A class's latency is the mean of its samples without the fastest and the
# slowest 10%.  On a shared host the speed moves between levels in phases of
# seconds; a median then jumps between them, a mean moves in proportion to the
# time spent at each.
TRIM = 0.1


@dataclasses.dataclass
class Timing:
    """Timed-pass result: latency samples per operation class, in ms, as
    measured (``classes``) and at the calibration reference speed
    (``scaled``).  ``kinds[c][i]`` names the input kind of sample i of class
    c (the MCV variant of a CLI call); a class's latency weighs each kind
    alike, so it does not depend on how many of each kind the run fitted in."""

    classes: dict[str, list[float]]
    scaled: dict[str, list[float]]
    kinds: dict[str, list[str]]
    work: int
    unit: str
    calibration_s: list[float]

    def latencies(self, scaled: bool = True) -> dict[str, float]:
        """Per class, the mean over kinds of the trimmed mean of the samples."""
        from scipy.stats import trim_mean

        out = {}
        for cls, samples in (self.scaled if scaled else self.classes).items():
            by_kind: dict[str, list[float]] = {}
            for kind, value in zip(self.kinds[cls], samples):
                by_kind.setdefault(kind, []).append(value)
            out[cls] = statistics.fmean(trim_mean(v, TRIM) for v in by_kind.values())
        return out


def run_for(budget_s: float, step, calibrator: Calibrator, min_steps: int = 1) -> list[float]:
    """Call ``step()`` (which returns its own duration) until another call
    would overrun ``budget_s``; it always runs at least ``min_steps`` times.
    A calibration block runs before the first step and after each one.
    Returns, per step, the factor that scales its times to the reference
    speed."""
    durations: list[float] = []
    factors: list[float] = []
    start = time.perf_counter()
    before = calibrator.block()
    while True:
        durations.append(step())
        after = calibrator.block()
        factors.append(calibrator.factor(before, after))
        before = after
        elapsed = time.perf_counter() - start
        if len(durations) >= min_steps and elapsed + statistics.median(durations) + after > budget_s:
            return factors


def timing(classes: dict[str, list[float]], factors: dict[str, list[float]], work: int,
           unit: str, calibrator: Calibrator, kinds: dict[str, list[str]] | None = None) -> Timing:
    """Timing from samples and the factors of the steps they were measured
    in, sample by sample.  Without ``kinds`` every sample is of one kind."""
    return Timing(
        classes=classes,
        scaled={c: [v * f for v, f in zip(vals, factors[c], strict=True)]
                for c, vals in classes.items()},
        kinds=kinds or {c: [""] * len(vals) for c, vals in classes.items()},
        work=work,
        unit=unit,
        calibration_s=list(calibrator.blocks),
    )


def load_refs(workload: str, seed: int):
    if not REFS_PATH.is_file():
        return None
    with open(REFS_PATH, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def compare(got, want, rtol: float, where: str = "") -> list[str]:
    """Differences between two JSON-shaped values; floats compared by rtol."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys differ"]
        return [p for k in want for p in compare(got[k], want[k], rtol, f"{where}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: length differs"]
        return [p for i, (g, w) in enumerate(zip(got, want)) for p in compare(g, w, rtol, f"{where}[{i}]")]
    if isinstance(want, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        if oracle.close(float(got), want, rtol) or got == want:
            return []
        return [f"{where}: {got!r} != {want!r}"]
    return [] if got == want and type(got) is type(want) else [f"{where}: {got!r} != {want!r}"]


def failure(exc: BaseException) -> list[str]:
    return [f"raised {type(exc).__name__}: {exc} @ {traceback.format_tb(exc.__traceback__)[-1].strip()}"]


# ---------------------------------------------------------------------------
# sim-size-cell


class SimSizeCell:
    """``run_scenario`` on the ``paper-size-small`` cell with NPROC workers."""

    name = "sim-size-cell"
    work_unit = "replicates"
    kernel = "tiny"

    def __init__(self, seed: int, ledger: Ledger, out_dir: Path) -> None:
        self.seed = seed
        self.ledger = ledger
        self.first_rows = None
        self.parallel_s: list[float] = []

    def prepare(self) -> None:
        from mcvtests import sim

        self.sim = sim
        base = sim.preset_configs("paper-size-small")[0]
        self.cfg = dataclasses.replace(base, replicates=SIM_REPLICATES, seed=self.seed)
        self.ref = load_refs(self.name, self.seed)

    def warm_up(self) -> None:
        # Forks the pool once and fills lazy caches in this process.
        self.sim.run_scenario(dataclasses.replace(self.cfg, replicates=NPROC), workers=NPROC)

    def reference_entry(self) -> list[dict]:
        return self._call(NPROC)[1]

    def _call(self, workers: int) -> tuple[float, list[dict]]:
        start = time.perf_counter()
        result = self.sim.run_scenario(self.cfg, workers=workers)
        elapsed = time.perf_counter() - start
        return elapsed, json.loads(json.dumps(self.sim.tidy_rows(result)))

    def _checked_call(self, workers: int, label: str) -> float:
        start = time.perf_counter()
        try:
            elapsed, rows = self._call(workers)
        except Exception as exc:  # counted as a failed operation
            self.ledger.op(failure(exc))
            return time.perf_counter() - start
        self.ledger.op(self._check(rows, label))
        return elapsed

    def _check(self, rows: list[dict], label: str) -> list[str]:
        problems = []
        for row in rows:
            valid, rej = row["valid_replicates"], row["rejections"]
            if valid + row["degenerate_replicates"] != SIM_REPLICATES or not 0 <= rej <= valid:
                problems.append(f"{label} {row['test']}:{row['target']}: inconsistent counts")
            elif valid and row["proportion"] != f"{rej / valid:.6f}":
                problems.append(f"{label} {row['test']}:{row['target']}: proportion mismatch")
        if [(r["test"], r["target"]) for r in rows] != [
            tuple(t.split(":")) for t in self.cfg.tests
        ]:
            problems.append(f"{label}: unexpected test rows")
        if self.first_rows is None:
            self.first_rows = rows
        elif rows != self.first_rows:
            problems.append(f"{label}: tidy rows differ from the first parallel call")
        if self.ref is not None:
            problems += [f"{label} vs reference{p}" for p in compare(rows, self.ref, REF_RTOL)]
        return problems

    def measure(self, seconds: float) -> Timing:
        def step() -> float:
            elapsed = self._checked_call(NPROC, "parallel")
            self.parallel_s.append(elapsed)
            return elapsed

        with Calibrator(self.kernel, SIM_CALIBRATION_UNITS, processes=NPROC) as calibrator:
            factors = run_for(seconds, step, calibrator)
        per_replicate = [1e3 * s / SIM_REPLICATES for s in self.parallel_s]
        return timing({"sim.replicate": per_replicate}, {"sim.replicate": factors},
                      SIM_REPLICATES * len(self.parallel_s), self.work_unit, calibrator)

    def detail(self, timing: Timing) -> dict[str, float]:
        return {"sim.replicates_per_s": 1e3 / statistics.median(timing.classes["sim.replicate"])}

    def traced_pass(self, tracer) -> dict[str, float]:
        """Serial untraced call, then the same call traced; both rows must
        equal the parallel rows (the determinism contract)."""
        serial_s = self._checked_call(1, "serial")
        with tracer.installed(), tracer.operation("op.sim.run_scenario"):
            traced_s = self._checked_call(1, "traced serial")
        parallel_rate = SIM_REPLICATES / statistics.median(self.parallel_s)
        return {
            "sim.parallel_efficiency": parallel_rate / (NPROC * SIM_REPLICATES / serial_s),
            "tracing_overhead": traced_s / serial_s,
        }


# ---------------------------------------------------------------------------
# cli-inference


def _wald(theta: np.ndarray, sigma: np.ndarray, h: np.ndarray, n: int) -> float:
    v = h @ theta
    return float(n * v @ np.linalg.pinv((h * sigma) @ h.T) @ v)


def _all_pairs(k: int) -> np.ndarray:
    rows = []
    for i in range(k):
        for j in range(i + 1, k):
            row = np.zeros(k)
            row[i], row[j] = -1.0, 1.0
            rows.append(row)
    return np.array(rows)


class CliInference:
    """In-process ``cli.main`` calls over one generated 4-group CSV."""

    name = "cli-inference"
    work_unit = "calls"
    kernel = "mid"

    def __init__(self, seed: int, ledger: Ledger, out_dir: Path) -> None:
        self.seed = seed
        self.ledger = ledger
        self.out_dir = out_dir
        self.csv = out_dir / f"cli-input-seed{seed}.csv"
        self.first: dict[tuple[str, str], dict] = {}
        self.calls = 0
        self.last_cycle: dict[str, tuple[str, float]] = {}
        self.samples: dict[str, list[float]] = {key: [] for key, _ in CLI_COMMANDS}
        self.variants: dict[str, list[str]] = {key: [] for key, _ in CLI_COMMANDS}

    def prepare(self) -> None:
        from mcvtests import cli

        self.cli = cli
        rng = np.random.default_rng([self.seed, 1])
        mu = 1.0 + 0.5 * rng.standard_normal(CLI_D)
        arrays = [
            mu + 0.4 * (1.0 + 0.05 * g) * rng.standard_normal((CLI_N, CLI_D))
            for g in range(CLI_GROUPS)
        ]
        # repr() round-trips float64 exactly, so the oracle sees what the CLI reads.
        lines = ["group," + ",".join(f"x{j + 1}" for j in range(CLI_D))]
        for g, x in enumerate(arrays):
            lines += [f"g{g + 1}," + ",".join(repr(float(v)) for v in row) for row in x]
        self.csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
        n = CLI_GROUPS * CLI_N
        self.expected = {}
        for variant in VARIANTS:
            est = np.array([oracle.mcv_and_variance(variant, x) for x in arrays])
            theta, sigma = est[:, 0], (n / CLI_N) * est[:, 2]
            h = _all_pairs(CLI_GROUPS)
            self.expected[variant] = {
                "wald": _wald(theta, sigma, np.eye(CLI_GROUPS) - 1.0 / CLI_GROUPS, n),
                "t": math.sqrt(n) * (h @ theta) / np.sqrt(np.einsum("lk,k,lk->l", h, sigma, h)),
            }
        self.ref = load_refs(self.name, self.seed)

    def _argv(self, key: str, variant: str, extra: list[str] | None = None) -> list[str]:
        args = dict(CLI_COMMANDS)[key]
        out = self.out_dir / f"cli-{key}.json"
        return [args[0], str(self.csv), "--variant", variant, "--seed", str(self.seed),
                "--out", str(out)] + args[1:] + (extra or [])

    def warm_up(self) -> None:
        # Small B and few MC draws: argparse, LAPACK and the index caches
        # initialise without paying for a full call.
        for key, _ in CLI_COMMANDS:
            extra = ["--B", "20", "--mc-draws", "2000"] if key.startswith("mct") else ["--B", "20"]
            if self.cli.main(self._argv(key, "vv", extra)) != 0:
                raise RuntimeError(f"warm-up call {key} failed")

    def _call(self, key: str, variant: str) -> tuple[float, dict | None, list[str]]:
        argv = self._argv(key, variant)
        start = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except Exception as exc:  # counted as a failed operation
            return time.perf_counter() - start, None, failure(exc)
        elapsed = time.perf_counter() - start
        if code != 0:
            return elapsed, None, [f"{key}/{variant}: exit code {code}"]
        with open(argv[argv.index("--out") + 1], encoding="utf-8") as fh:
            return elapsed, summarize(json.load(fh)), []

    def _checked_call(self, key: str, variant: str, label: str) -> tuple[float, dict | None]:
        elapsed, summary, problems = self._call(key, variant)
        if summary is not None:
            problems = self._check(key, variant, summary, label)
        self.ledger.op(problems)
        return elapsed, summary

    def _check(self, key: str, variant: str, s: dict, label: str) -> list[str]:
        where = f"{label} {key}/{variant}"
        want = self.expected[variant]
        problems = []
        if key.startswith("test"):
            if s["rank"] != CLI_GROUPS - 1 or s["resamples_used"] != CLI_B:
                problems.append(f"{where}: rank or resample count wrong")
            if not oracle.close(s["statistic"], want["wald"], STAT_RTOL):
                problems.append(f"{where}: statistic {s['statistic']} != oracle {want['wald']}")
            scaled = s["p_value"] * (CLI_B + 1)
            if not (1.0 - 1e-9 <= scaled <= CLI_B + 1 + 1e-9 and abs(scaled - round(scaled)) < 1e-6):
                problems.append(f"{where}: p-value {s['p_value']} is not a resampling p-value")
        else:
            t = np.asarray(s["t"])
            if t.shape != want["t"].shape or not all(
                oracle.close(a, b, STAT_RTOL) for a, b in zip(t, want["t"])
            ):
                problems.append(f"{where}: contrast statistics differ from the oracle")
            crit = s["critical_value"]
            if s["decisions"] != [bool(abs(v) > crit) for v in t]:
                problems.append(f"{where}: decisions disagree with |t| > critical value")
            # Six all-pairs contrasts at alpha 0.05: between the marginal
            # 1.96 and the Bonferroni 2.64 normal quantiles.
            if key == "mct_asym" and not 1.95 < crit < 2.65:
                problems.append(f"{where}: critical value {crit} out of range")
            if key == "mct_boot" and not (crit > 0 and s["resamples_used"] == CLI_B):
                problems.append(f"{where}: bad bootstrap critical value or count")
            if not 0.0 <= s["global_p"] <= 1.0:
                problems.append(f"{where}: global p-value out of range")
        first = self.first.setdefault((key, variant), s)
        if first is not s:
            problems += [f"{where} vs first call{p}" for p in compare(s, first, 0.0)]
        if self.ref is not None:
            ref = self.ref.get(f"{key}/{variant}")
            problems += [f"{where} vs reference{p}" for p in compare(s, ref, REF_RTOL)]
        return problems

    def reference_entry(self) -> dict:
        return {
            f"{key}/{variant}": self._call(key, variant)[1]
            for key, _ in CLI_COMMANDS
            for variant in VARIANTS
        }

    def _step(self) -> float:
        """One call.  The commands take turns, a cycle of the mix per four
        calls; the variant advances by one per cycle, so any four
        consecutive cycles run every command with every variant."""
        j = self.calls % len(CLI_COMMANDS)
        key = CLI_COMMANDS[j][0]
        variant = VARIANTS[(self.calls // len(CLI_COMMANDS) + j) % len(VARIANTS)]
        elapsed, _ = self._checked_call(key, variant, "untraced")
        self.samples[key].append(1e3 * elapsed)
        self.variants[key].append(variant)
        self.last_cycle[key] = (variant, elapsed)
        self.calls += 1
        return elapsed

    def measure(self, seconds: float) -> Timing:
        # A calibration block after every call: the calls last 0.05-2 s and
        # the speed moves within a cycle of the mix.
        n = len(CLI_COMMANDS)
        with Calibrator(self.kernel, CLI_CALIBRATION_UNITS) as calibrator:
            factors = run_for(seconds, self._step, calibrator, min_steps=n)
        return timing({f"cli.{key}": v for key, v in self.samples.items()},
                      {f"cli.{key}": factors[j::n] for j, (key, _) in enumerate(CLI_COMMANDS)},
                      len(factors), self.work_unit, calibrator,
                      {f"cli.{key}": v for key, v in self.variants.items()})

    def detail(self, timing: Timing) -> dict[str, float]:
        return {
            f"cli.{key}_s_p50": statistics.median(timing.classes[f"cli.{key}"]) / 1e3
            for key, _ in CLI_COMMANDS
        }

    def traced_pass(self, tracer) -> dict[str, float]:
        """The last cycle of the mix again, traced; its outputs must equal the
        untraced ones, and its time is compared with the cycle just run."""
        traced = 0.0
        with tracer.installed():
            for key, (variant, _) in self.last_cycle.items():
                with tracer.operation(f"op.cli.{key}"):
                    elapsed, _ = self._checked_call(key, variant, "traced")
                traced += elapsed
        untraced = sum(elapsed for _, elapsed in self.last_cycle.values())
        return {"tracing_overhead": traced / untraced}


def summarize(report: dict) -> dict:
    """The checked part of a test or mct report."""
    if report["command"] == "test":
        t = report["tests"][0]
        keys = ("statistic", "p_value", "rank", "resamples_used", "resamples_degenerate")
        return {k: t[k] for k in keys}
    m = report["mct"][0]
    keys = ("t", "critical_value", "decisions", "global_p", "resamples_used", "resamples_degenerate")
    return {k: m[k] for k in keys}


# ---------------------------------------------------------------------------
# estimate-highdim


class EstimateHighdim:
    """Public ``estimate(variant, Sample)`` on one n=200 group per dimension."""

    name = "estimate-highdim"
    work_unit = "estimates"
    kernel = "highdim"

    def __init__(self, seed: int, ledger: Ledger, out_dir: Path) -> None:
        self.seed = seed
        self.ledger = ledger
        self.samples: dict[int, list[float]] = {d: [] for d in EST_DIMS}
        self.results: dict[tuple[int, str], tuple] = {}

    def prepare(self) -> None:
        from mcvtests import estimation

        self.estimation = estimation
        self.inputs = {}
        self.expected = {}
        for d in EST_DIMS:
            rng = np.random.default_rng([self.seed, 2, d])
            mu = 1.0 + 0.5 * rng.standard_normal(d)
            a = rng.standard_normal((d, d))
            root = np.linalg.cholesky(a @ a.T / d + np.eye(d))
            x = mu + 0.3 * rng.standard_normal((EST_N, d)) @ root.T
            self.inputs[d] = estimation.Sample(x)
            for variant in VARIANTS:
                self.expected[d, variant] = oracle.mcv_and_variance(variant, x)

    def _estimate(self, d: int, variant: str):
        return self.estimation.estimate(self.estimation.McvVariant(variant), self.inputs[d])

    def warm_up(self) -> None:
        for d in EST_DIMS:
            for variant in VARIANTS:
                self._estimate(d, variant)

    def _check(self, d: int, variant: str, res, label: str) -> list[str]:
        got = (res.c, res.b, res.var_c, res.var_b)
        want = self.expected[d, variant]
        problems = [
            f"{label} d={d} {variant} {name}: {g!r} vs oracle {w!r}"
            for name, g, w in zip(("c", "b", "var_c", "var_b"), got, want)
            if not oracle.close(g, w, ORACLE_RTOL)
        ]
        first = self.results.setdefault((d, variant), got)
        if first != got:
            problems.append(f"{label} d={d} {variant}: differs from the first call")
        return problems

    def _block(self, d: int, label: str, tracer=None) -> float:
        """Estimate all four variants at dimension d; returns the block time."""
        results = []
        start = time.perf_counter()
        for variant in VARIANTS:
            try:
                if tracer is None:
                    results.append(self._estimate(d, variant))
                else:
                    with tracer.operation(f"op.estimate.d{d}.{variant}"):
                        results.append(self._estimate(d, variant))
            except Exception as exc:  # counted as a failed operation
                results.append(exc)
        elapsed = time.perf_counter() - start
        for variant, res in zip(VARIANTS, results):
            if isinstance(res, Exception):
                self.ledger.op(failure(res))
            else:
                self.ledger.op(self._check(d, variant, res, label))
        return elapsed

    def _sweep(self) -> float:
        total = 0.0
        for d in EST_DIMS:
            elapsed = self._block(d, "untraced")
            self.samples[d].append(1e3 * elapsed / len(VARIANTS))
            total += elapsed
        return total

    def measure(self, seconds: float) -> Timing:
        with Calibrator(self.kernel, EST_CALIBRATION_UNITS) as calibrator:
            factors = run_for(seconds, self._sweep, calibrator)
        return timing({f"estimate.d{d}": v for d, v in self.samples.items()},
                      {f"estimate.d{d}": factors for d in EST_DIMS},
                      len(factors) * len(EST_DIMS) * len(VARIANTS), self.work_unit,
                      calibrator)

    def detail(self, timing: Timing) -> dict[str, float]:
        return {f"estimate.d{d}_ms_p50": statistics.median(self.samples[d]) for d in EST_DIMS}

    def traced_pass(self, tracer, sweeps: int = 2) -> dict[str, float]:
        """Two traced sweeps; outputs must equal the untraced ones."""
        traced = 0.0
        with tracer.installed():
            for _ in range(sweeps):
                traced += sum(self._block(d, "traced", tracer) for d in EST_DIMS)
        untraced = sum(statistics.median(self.samples[d]) for d in EST_DIMS) * len(VARIANTS) / 1e3
        return {"tracing_overhead": traced / (sweeps * untraced)}


WORKLOADS = {w.name: w for w in (SimSizeCell, CliInference, EstimateHighdim)}
