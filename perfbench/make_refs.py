"""Regenerate perfbench/refs.json: expected outputs for the default seeds.

    python3 perfbench/make_refs.py

For every seed in DEFAULT_SEEDS it stores the sim-size-cell tidy rows and the
checked fields of every cli-inference (command, variant) report, computed by
the package in this checkout.  Run it only when a change to the package is
meant to alter these outputs, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run  # sets the BLAS thread variables and locates the package

DEFAULT_SEEDS = range(32)


def main() -> int:
    run.import_package()
    from workloads import REFS_PATH, CliInference, Ledger, SimSizeCell

    refs: dict[str, dict[str, object]] = {SimSizeCell.name: {}, CliInference.name: {}}
    out_dir = run.OUT_DIR
    out_dir.mkdir(exist_ok=True)
    for seed in DEFAULT_SEEDS:
        for cls in (SimSizeCell, CliInference):
            workload = cls(seed, Ledger(), out_dir)
            workload.prepare()
            entry = workload.reference_entry()
            if entry is None or (isinstance(entry, dict) and None in entry.values()):
                raise RuntimeError(f"{cls.name} seed {seed}: an operation failed")
            refs[cls.name][str(seed)] = entry
        print(f"seed {seed} done", file=sys.stderr, flush=True)
    Path(REFS_PATH).write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
