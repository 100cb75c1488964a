"""Alternating benchmark pairs of two commits, written as one BENCH_<n>.json.

    python3 scripts/bench_pairs.py --parent <rev> --out BENCH_8.json [--change HEAD]
        [--first-seed 0] [--what "one line on the change"]

Each side runs from its own ``git archive`` of its commit in a temporary
directory, so neither sees uncommitted files.  Pair i of PAIRS runs
``python3 perfbench/run.py --workload all --seed F+i --seconds S --trace 0``
on both sides, with F the first seed and S the ``run_seconds`` of
BENCHMARK.json, the parent first in even pairs and the change first in odd
ones.  A first seed past those used while a change was written shows that
its gain holds on fresh inputs (perfbench/refs.json covers seeds 0-31).
Nothing under ``perfbench/`` is edited; the run records each side writes to
its own ``.perfbench/`` are read back for the figures as measured, for the
median calibration block and the median set-up probe of each workload and
for the per-variant ``cli-inference`` latencies.  Each run's minor page
faults and CPU seconds (user + sys) are the growth of this process's
RUSAGE_CHILDREN counts across the run, so they cover the run and every
process it reaped (simulation workers included); its wall seconds are timed
beside them.
Run it on an otherwise idle machine.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# perfbench/oracle.py's order; cli-inference runs sample i of its class j with
# variant VARIANTS[(i + j) % 4].
VARIANTS = ("rr", "vv", "vn", "az")
SIDES = ("parent", "change")
# Pairs per comparison: a gain is claimed only on at least nine of ten.
PAIRS = 10


def archive(rev: str, into: Path) -> str:
    """Extract the tree of ``rev`` into ``into``; returns the full commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    data = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                          check=True, capture_output=True).stdout
    into.mkdir(parents=True)
    with tempfile.TemporaryFile() as fh:
        fh.write(data)
        fh.seek(0)
        with tarfile.open(fileobj=fh) as tar:
            tar.extractall(into, filter="data")
    return commit


def run_side(tree: Path, seed: int, seconds: float) -> dict:
    """One ``--workload all`` run: its summary line, every workload's run record,
    and the minor page faults, CPU seconds and wall seconds of the run's processes."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    before, wall = resource.getrusage(resource.RUSAGE_CHILDREN), time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    after, wall = resource.getrusage(resource.RUSAGE_CHILDREN), time.perf_counter() - wall
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    records = {
        name: json.loads((tree / ".perfbench" / f"{name}-seed{seed}-trace0.json").read_text())
        for name in summary
    }
    return {
        "summary": summary,
        "records": records,
        "minor_faults": after.ru_minflt - before.ru_minflt,
        "cpu_s": (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime),
        "wall_s": wall,
    }


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """BENCH_<n>.json's block for one metric over the pairs."""
    sign = 1.0 if better == "higher" else -1.0
    pq, cq = (np.percentile(v, [25, 75]) for v in (parent, change))
    pm, cm = statistics.median(parent), statistics.median(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    return {
        "parent_runs": [round(v, 6) for v in parent],
        "change_runs": [round(v, 6) for v in change],
        "parent_median": round(pm, 6),
        "change_median": round(cm, 6),
        "parent_quartiles": [round(float(v), 6) for v in pq],
        "change_quartiles": [round(float(v), 6) for v in cq],
        "parent_quartile_spread": round(float(pq[1] - pq[0]), 6),
        "change_over_parent": round(cm / pm, 4) if pm else None,
        "pairs_change_better": f"{wins}/{len(parent)}",
    }


def variant_medians(record: dict) -> dict[str, dict[str, float]]:
    """Median scaled latency (ms) of each cli-inference class, by variant."""
    out = {}
    for j, (cls, samples) in enumerate(record["class_samples_scaled_ms"].items()):
        out[cls] = {
            v: statistics.median(samples[(k - j) % len(VARIANTS)::len(VARIANTS)])
            for k, v in enumerate(VARIANTS)
            if samples[(k - j) % len(VARIANTS)::len(VARIANTS)]
        }
    return out


def build(runs: dict[str, list[dict]], commits: dict[str, str], declared: dict, args) -> dict:
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    workloads = list(runs["parent"][0]["summary"])
    first = runs["change"][0]["records"][workloads[0]]["meta"]

    def series(side, name, pick):
        return [pick(r["records"][name], r["summary"][name]) for r in runs[side]]

    seeds = f"{{{args.first_seed}..{args.first_seed + PAIRS - 1}}}"
    out = {
        "what": args.what,
        "commits": commits,
        "commands": {
            "end_to_end": f"python3 perfbench/run.py --workload all --seed {seeds} "
                          f"--seconds {declared['run_seconds']:g} --trace 0",
            "order": f"{PAIRS} pairs; parent and change alternate (even pairs parent first, "
                     "odd pairs change first); each side runs from a git archive of its commit",
            "script": f"python3 scripts/bench_pairs.py --parent {args.parent} --change {args.change} "
                      f"--first-seed {args.first_seed} --out {args.out.name}",
        },
        "machine": {k: first[k] for k in ("nproc", "cpu_model", "python", "numpy", "scipy",
                                          "blas", "blas_thread_env")},
        "end_to_end": {},
        "measured_throughput_per_s": {
            "what": "the '# measured' line: throughput as measured, not scaled to the "
                    "reference speed by the calibration blocks",
        },
        "calibration_block_s": {
            "what": "per run, the median of the run record's calibration_blocks_s: the seconds "
                    "of one block of perfbench's reference kernel, which sets the factor that "
                    "scales the end-to-end timings; a change that speeds the kernel itself up "
                    "moves this figure and scales its own gains down",
        },
        "setup_probes_s": {
            "what": "per run, the median of the run record's setup_probes_s: the wall seconds "
                    "of the fresh processes that only set the workload up, as measured; setup_s "
                    "is this median times the factor from the set-up calibration blocks, which "
                    "swing between runs",
        },
        "correct": {},
        "minor_page_faults": {
            "what": "minor page faults of each whole --workload all run (every workload, set-up "
                    "and checks, and the processes it reaped), as the RUSAGE_CHILDREN growth "
                    "across the run; a faster side also completes more operations",
            **compare(*([r["minor_faults"] for r in runs[s]] for s in SIDES), "lower"),
        },
        "cpu_seconds": {
            "what": "user + sys CPU seconds of each whole --workload all run, counted like the "
                    "page faults; every workload runs for a fixed time, so threads that finish "
                    "more operations in it raise this figure",
            **compare(*([r["cpu_s"] for r in runs[s]] for s in SIDES), "lower"),
        },
        "wall_seconds": {
            "what": "wall seconds of each whole --workload all run, set-up and checks included",
            **compare(*([r["wall_s"] for r in runs[s]] for s in SIDES), "lower"),
        },
    }
    for name in workloads:
        out["end_to_end"][name] = {
            metric: compare(
                *(series(s, name, lambda rec, summ, m=metric: summ["metrics"][m]["value"])
                  for s in SIDES),
                better[metric])
            for metric in better
        }
        out["measured_throughput_per_s"][name] = compare(
            *(series(s, name, lambda rec, summ: rec["measured"]["throughput_per_s"]) for s in SIDES),
            "higher")
        out["calibration_block_s"][name] = compare(
            *(series(s, name, lambda rec, summ: statistics.median(rec["calibration_blocks_s"]))
              for s in SIDES),
            "lower")
        out["setup_probes_s"][name] = compare(
            *(series(s, name, lambda rec, summ: statistics.median(rec["setup_probes_s"]))
              for s in SIDES),
            "lower")
        out["correct"][name] = {
            s: all(series(s, name, lambda rec, summ: summ["correct"])) for s in SIDES
        } | {"failed_ops": {s: sum(series(s, name, lambda rec, summ: summ["failed"])) for s in SIDES}}
    if "cli-inference" in workloads:
        per_run = {s: series(s, "cli-inference", lambda rec, summ: variant_medians(rec)) for s in SIDES}
        by_variant = {"what": "per run, the median scaled latency (ms) of each class and variant "
                              "from the run record's class_samples_scaled_ms; then as above"}
        for cls, variants in per_run["parent"][0].items():
            by_variant[cls] = {
                v: compare(*([run[cls][v] for run in per_run[s]] for s in SIDES), "lower")
                for v in variants
            }
        out["cli_inference_by_variant_ms"] = by_variant
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit measured as the parent")
    parser.add_argument("--change", default="HEAD", help="commit measured as the change")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--first-seed", type=int, default=0,
                        help="workload seed of the first pair; pair i runs seed first-seed + i")
    parser.add_argument("--what", default="")
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {s: Path(tmp) / s for s in SIDES}
        commits = {s: archive(getattr(args, s), trees[s]) for s in SIDES}
        runs: dict[str, list[dict]] = {s: [] for s in SIDES}
        for i in range(PAIRS):
            seed = args.first_seed + i
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                print(f"# pair {i} (seed {seed}): {side}", file=sys.stderr, flush=True)
                runs[side].append(run_side(trees[side], seed, declared["run_seconds"]))
        result = build(runs, commits, declared, args)
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"# wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
