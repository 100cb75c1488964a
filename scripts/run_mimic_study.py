#!/usr/bin/env python3
"""Size/power study that mimics an observed dataset's moments.

Reads a grouped data CSV, then simulates groups whose mean and covariance
are either the pooled moments of the file (size study: every group equal)
or the per-group moments (power study), across the three innovation
distributions.

    python scripts/run_mimic_study.py data.csv --variant vv --mode size --out mimic.csv

Each distribution's study writes its tidy rows as it ends, flushed, and a
``[mimic-<mode>-<dist>] R replicates in Ts`` line to stderr, so a stopped run
keeps the studies that ended.  Exit codes are those of ``mcvtests``: a bad
file or setting ends with a one-line message and exit code 2, and leaves no
output file; a degenerate study ends with exit code 3; a reader that closes
the output pipe early ends it with exit code 0.
"""

import argparse
import sys

import numpy as np

from mcvtests.cli import guarded, read_groups, write_tidy
from mcvtests.estimation import McvVariant
from mcvtests.sim import DISTRIBUTIONS, run_moment_mimic

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

    arrays = [v for _, v in read_groups(args.file)]
    # Size mode: every group takes the pooled moments; power mode: its own.
    parts = [np.vstack(arrays)] * len(arrays) if args.mode == "size" else arrays
    mus, sigmas = [], []
    for x in parts:
        mu = x.mean(axis=0)
        xc = x - mu
        mus.append(mu)
        sigmas.append(xc.T @ xc / x.shape[0])
    studies = (
        run_moment_mimic(
            mus,
            sigmas,
            n=tuple(v.shape[0] for v in arrays),
            distribution=dist,
            variant=McvVariant(args.variant),
            tests=TESTS,
            replicates=args.replicates,
            resamples=args.resamples,
            seed=args.seed,
            workers=args.workers,
            name=f"mimic-{args.mode}-{dist}",
        )
        for dist in DISTRIBUTIONS
    )
    write_tidy(args.out, studies)
    return 0


if __name__ == "__main__":
    sys.exit(guarded(main))
