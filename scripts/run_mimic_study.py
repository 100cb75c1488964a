#!/usr/bin/env python3
"""Size/power study that mimics an observed dataset's moments.

Reads a grouped data CSV, then simulates groups whose mean and covariance
are either the pooled moments of the file (size study: every group equal)
or the per-group moments (power study), across the three innovation
distributions.

    python scripts/run_mimic_study.py data.csv --variant vv --mode size --out mimic.csv

A bad file or setting ends with a one-line message and exit code 2, and
leaves no output file.  A reader that closes the output pipe early ends it
with exit code 0.
"""

import argparse
import contextlib
import csv
import os
import sys

import numpy as np

from mcvtests.cli import EXIT_INPUT, EXIT_OK, read_groups
from mcvtests.estimation import McvVariant
from mcvtests.sim import TIDY_COLUMNS, run_moment_mimic, tidy_rows

TESTS = ("perm_wald:c", "perm_wald:b", "boot_wald:c", "boot_wald:b", "boot_mct:c", "boot_mct:b")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("file")
    parser.add_argument("--variant", default="vv", choices=[v.value for v in McvVariant])
    parser.add_argument("--mode", default="size", choices=("size", "power"))
    parser.add_argument("--replicates", type=int, default=1000)
    parser.add_argument("--resamples", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    groups = read_groups(args.file)
    sizes = tuple(v.shape[0] for _, v in groups)
    if args.mode == "size":
        pooled = np.vstack([v for _, v in groups])
        mu = pooled.mean(axis=0)
        xc = pooled - mu
        cov = xc.T @ xc / pooled.shape[0]
        mus = [mu] * len(groups)
        sigmas = [cov] * len(groups)
    else:
        mus, sigmas = [], []
        for _, v in groups:
            mu = v.mean(axis=0)
            xc = v - mu
            mus.append(mu)
            sigmas.append(xc.T @ xc / v.shape[0])

    with contextlib.ExitStack() as stack:
        writer = None
        for dist in ("normal", "student5", "chisq10"):
            result = run_moment_mimic(
                mus,
                sigmas,
                n=sizes,
                distribution=dist,
                variant=McvVariant(args.variant),
                tests=TESTS,
                replicates=args.replicates,
                resamples=args.resamples,
                seed=args.seed,
                workers=args.workers,
                name=f"mimic-{args.mode}-{dist}",
            )
            if writer is None:
                # Opened only now, so a setting the first study rejects leaves no file.
                fh = stack.enter_context(open(args.out, "w", newline="")) if args.out else sys.stdout
                writer = csv.DictWriter(fh, fieldnames=list(TIDY_COLUMNS), lineterminator="\n")
                writer.writeheader()
            writer.writerows(tidy_rows(result))
            fh.flush()
            print(f"{dist}: {result.wall_clock:.0f}s", file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # The reader closed stdout on purpose (``| head``).  Point stdout at
        # devnull, so the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(EXIT_OK)
    except ValueError as exc:  # a bad file or setting, InputError included
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(EXIT_INPUT)
