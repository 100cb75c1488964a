"""Benchmark command for mcvtests.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
``src/`` there and nowhere else.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the metrics are the ``end_to_end`` list of BENCHMARK.json,
with ``--trace 1`` the ``per_layer`` list.  The lines before it print the
same metrics with units and sample counts, and the run metadata.  A run
record (and, with ``--trace 1``, the spans) is written under ``.perfbench/``.

One run:
  1. set up in this process: import ``mcvtests.cli``, generate the inputs
     from the seed, warm up (pool fork, LAPACK, the index caches);
  2. the timed pass, tracing off, for ``--seconds``, interleaved with
     calibration blocks; the end-to-end timing metrics are scaled to the
     reference speed (``calibrate.py``), the measured ones are printed too;
  3. ``--trace 0``: ``setup_s``, step 1 repeated in fresh processes, median
     of the wall times, scaled to the reference speed by calibration blocks
     run between them;
     ``--trace 1``: the traced pass, fixed work with the layer wrappers
     installed, serial for ``sim-size-cell``.
"""

from __future__ import annotations

import os

# Same BLAS threading on every commit and run; set before numpy loads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_PROBES = 5
# Calibration units per block around the set-up probes (about 0.12 s).
SETUP_CALIBRATION_UNITS = 4


def timing_metrics(latencies: dict[str, float]) -> dict[str, float]:
    """From per-class latencies (ms): operations per second in a mix with one
    operation of each class, and the geometric mean latency."""
    return {
        "throughput_per_s": 1e3 * len(latencies) / sum(latencies.values()),
        "op_ms_geomean": statistics.geometric_mean(latencies.values()),
    }


def declared_metrics() -> dict[str, dict[str, str]]:
    """Metric name -> unit, for 'end_to_end' and 'per_layer', from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        group: {m["name"]: m["unit"] for m in spec[group]}
        for group in ("end_to_end", "per_layer")
    }


def import_package():
    """Import mcvtests.cli from this checkout's src/, or exit with code 2."""
    if not (SRC / "mcvtests" / "__init__.py").is_file():
        sys.exit(f"error: no mcvtests sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mcvtests.cli

    if SRC.resolve() not in Path(mcvtests.cli.__file__).resolve().parents:
        sys.exit(f"error: imported mcvtests from {mcvtests.cli.__file__}, not {SRC}")
    return mcvtests.cli


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "mcvtests").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def metadata(args) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    from workloads import NPROC

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": NPROC,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "source_digest": source_digest(),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process or any program worker it reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def tail(samples: list[float]) -> tuple[str, float] | None:
    """Highest of p99.9/p99/p95/p90 with at least ten samples beyond it."""
    import numpy as np

    for q in (99.9, 99.0, 95.0, 90.0):
        if len(samples) * (1.0 - q / 100.0) >= 10:
            return f"p{q:g}", float(np.percentile(samples, q))
    return None


def setup_probes(args, kernel: str) -> tuple[list[float], list[float], float]:
    """Wall times of fresh processes that only set the workload up; the
    blocks of the workload's calibration kernel run before each probe and
    after the last; and the factor to the reference speed.  That is one
    factor, from the median block: set-up is short, so a factor per probe
    would add more noise than the drift it removes."""
    from calibrate import Calibrator

    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-only"]
    with Calibrator(kernel, SETUP_CALIBRATION_UNITS) as calibrator:
        calibrator.block()
        for _ in range(SETUP_PROBES):
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
            times.append(time.perf_counter() - start)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr[-2000:]}")
            calibrator.block()
    block = statistics.median(calibrator.blocks)
    return times, calibrator.blocks, calibrator.factor(block, block)


def run_workload(args) -> int:
    declared = declared_metrics()
    import_package()
    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS, Ledger

    OUT_DIR.mkdir(exist_ok=True)
    ledger = Ledger()
    workload = WORKLOADS[args.workload](args.seed, ledger, OUT_DIR)
    workload.prepare()
    workload.warm_up()
    if args.setup_only:
        return 0

    timing = workload.measure(args.seconds)
    rss = peak_rss_mb()
    medians = {cls: statistics.median(v) for cls, v in timing.classes.items()}
    # The workload's own latency medians (per_layer names); printed in both
    # modes, with their sample counts.
    detail = workload.detail(timing)
    if args.trace:
        tracer = Tracer()
        values = dict.fromkeys(declared["per_layer"], 0)
        extra = workload.traced_pass(tracer)
        values.update(layer_metrics(tracer))
        values.update(extra)
        values.update(detail)
    else:
        tracer = None
        setup, setup_blocks, setup_factor = setup_probes(args, workload.kernel)
        values = {
            "setup_s": statistics.median(setup) * setup_factor,
            "peak_rss_mb": rss,
            "success_rate": 1.0 - ledger.failed / max(ledger.attempted, 1),
            **timing_metrics(timing.latencies(scaled=True)),
        }

    chosen = "per_layer" if args.trace else "end_to_end"
    if set(values) != set(declared[chosen]):
        raise RuntimeError(f"computed metrics {sorted(values)} != BENCHMARK.json {chosen}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared[chosen].items()}
    counts = {cls: len(v) for cls, v in timing.classes.items()}
    tails = {cls: tail(v) for cls, v in timing.classes.items()}
    samples = {
        "setup_s": f"{SETUP_PROBES} fresh processes",
        "peak_rss_mb": "maximum over the run",
        "success_rate": f"{ledger.attempted} operations",
        "throughput_per_s": f"{timing.work} {timing.unit}",
        "op_ms_geomean": ", ".join(f"{cls}: {n}" for cls, n in counts.items()),
    }

    # The timing metrics as measured, before scaling to the reference speed.
    measured = {
        **timing_metrics(timing.latencies(scaled=False)),
        "calibration_block_s_p50": statistics.median(timing.calibration_s),
    }
    meta = metadata(args)
    record = {
        "meta": meta,
        "metrics": values,
        "measured": measured,
        "detail": detail,
        "samples": samples,
        "class_samples_ms": timing.classes,
        "class_samples_scaled_ms": timing.scaled,
        "calibration_blocks_s": timing.calibration_s,
        "class_tails_ms": tails,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.reasons,
    }
    if not args.trace:
        record["setup_probes_s"] = setup
        record["setup_calibration_blocks_s"] = setup_blocks
        measured["setup_s"] = statistics.median(setup)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}.spans.jsonl")

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{ledger.attempted} operations, {ledger.failed} failed, "
          f"error_rate={ledger.failed / max(ledger.attempted, 1):g}")
    print("# meta " + json.dumps(meta, sort_keys=True))
    for reason in ledger.reasons:
        print(f"# FAILED {reason}")
    print("# measured, not scaled to the reference speed: "
          + ", ".join(f"{k} {v:.6g}" for k, v in measured.items())
          + f" over {len(timing.calibration_s)} calibration blocks")
    for cls, n in counts.items():
        extra_tail = f", {tails[cls][0]} {tails[cls][1]:.4f} ms" if tails[cls] else ""
        print(f"# class {cls}: p50 {medians[cls]:.4f} ms over {n} samples{extra_tail}")
    shown = {**detail, **{name: m["value"] for name, m in metrics.items()}}
    units = {**declared["end_to_end"], **declared["per_layer"]}
    for name, value in shown.items():
        print(f"{name} = {value:.6g} {units[name]}" + (f"  [{samples[name]}]" if name in samples else ""))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; prints their lines, then one summary."""
    from workloads import WORKLOADS

    summary = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        summary[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(summary))
    return 0


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or math.isnan(args.seconds):
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
