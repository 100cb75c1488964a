"""Command-line surface: estimation, tests, multiple contrasts, simulation, ilr.

Data files are UTF-8 CSV with a header row, a string ``group`` column, and
numeric coordinate columns.  Reports are JSON documents whose bodies are
byte-identical across reruns with the same inputs and seed.  Exit codes:
0 success, 2 input or validation error, 3 statistical degeneracy.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .design import (
    ContrastMatrix,
    FactorLayout,
    centering_matrix,
    contrast_from_csv,
    dunnett_contrasts,
    factorial_effect_matrix,
    tukey_contrasts,
    validate_contrast,
)
from .estimation import (
    DegeneracyError,
    McvVariant,
    Sample,
    estimate,
    one_sample_ci,
)
from .sim import (
    ScenarioConfig,
    preset_configs,
    run_moment_mimic,
    run_scenario,
    tidy_rows,
    TIDY_COLUMNS,
)
from .tests_global import (
    GroupedData,
    Target,
    asymptotic_test,
    bootstrap_test,
    permutation_test,
)
from .tests_multiple import TABLE_COLUMNS, asymptotic_mct, bootstrap_mct, mct_global_p
from .numkit import make_rng

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DEGENERATE = 3


class InputError(ValueError):
    """Malformed file, flag, or configuration."""


# ---------------------------------------------------------------------------
# Data ingestion


def read_groups(path: str) -> list[tuple[str, np.ndarray]]:
    """Read (label, rows) pairs from a data CSV, groups in file order."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise InputError(f"{path}: empty file")
            header = [h.strip() for h in header]
            if "group" not in header:
                raise InputError(f"{path}: missing required 'group' column")
            gidx = header.index("group")
            value_cols = [i for i in range(len(header)) if i != gidx]
            if not value_cols:
                raise InputError(f"{path}: no numeric columns besides 'group'")
            order: list[str] = []
            rows: dict[str, list[list[float]]] = {}
            for lineno, row in enumerate(reader, start=2):
                if not row or all(not c.strip() for c in row):
                    continue
                if len(row) != len(header):
                    raise InputError(f"{path}:{lineno}: expected {len(header)} columns, got {len(row)}")
                label = row[gidx].strip()
                try:
                    values = [float(row[i]) for i in value_cols]
                except ValueError as exc:
                    raise InputError(f"{path}:{lineno}: non-numeric value ({exc})") from None
                if label not in rows:
                    order.append(label)
                    rows[label] = []
                rows[label].append(values)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    return [(label, np.array(rows[label])) for label in order]


def grouped_data(groups: list[tuple[str, np.ndarray]]) -> GroupedData:
    if len(groups) < 2:
        raise InputError(f"need at least two groups for testing, found {len(groups)}")
    try:
        return GroupedData.from_arrays([g[1] for g in groups], tuple(g[0] for g in groups))
    except ValueError as exc:
        raise InputError(str(exc)) from None


def parse_layout(text: str) -> FactorLayout:
    """Parse 'A:2,E:3' into a factor layout (last factor fastest in the data)."""
    factors, levels = [], []
    for piece in text.split(","):
        name, _, lv = piece.partition(":")
        if not name or not lv.isdigit():
            raise InputError(f"bad layout piece {piece!r}; expected NAME:LEVELS")
        factors.append(name.strip())
        levels.append(int(lv))
    try:
        return FactorLayout(tuple(factors), tuple(levels))
    except ValueError as exc:
        raise InputError(str(exc)) from None


def build_contrast(spec: str, k: int, names: tuple[str, ...], layout: FactorLayout | None) -> ContrastMatrix:
    """Contrast from a spec: ksample | tukey | dunnett | factorial:<effect> | csv:<path>."""
    if spec == "ksample":
        return validate_contrast(centering_matrix(k), tuple(f"level{i + 1}" for i in range(k)))
    if spec == "tukey":
        return tukey_contrasts(k, names)
    if spec == "dunnett":
        return dunnett_contrasts(k, names)
    if spec.startswith("factorial:"):
        if layout is None:
            raise InputError("factorial contrasts need --layout NAME:LEVELS[,NAME:LEVELS...]")
        if layout.k != k:
            raise InputError(f"layout describes {layout.k} subgroups but data has {k}")
        raw_effect = spec.split(":", 1)[1]
        if "+" in raw_effect:
            effect = tuple(p for p in raw_effect.split("+") if p)
        elif raw_effect in layout.factors:
            effect = (raw_effect,)
        else:
            # Single-letter factors may be run together, e.g. factorial:AE.
            effect = tuple(raw_effect)
        try:
            return factorial_effect_matrix(layout, effect)
        except ValueError as exc:
            raise InputError(str(exc)) from None
    if spec.startswith("csv:"):
        try:
            cm = contrast_from_csv(spec[4:])
        except (OSError, ValueError) as exc:
            raise InputError(f"bad contrast file: {exc}") from None
        if cm.k != k:
            raise InputError(f"contrast file has {cm.k} columns but data has {k} groups")
        return cm
    raise InputError(f"unknown contrast spec {spec!r}")


def _variants(arg: str) -> list[McvVariant]:
    if arg == "all":
        return list(McvVariant)
    try:
        return [McvVariant(arg)]
    except ValueError:
        raise InputError(f"unknown variant {arg!r}; use rr, vv, vn, az, or all") from None


def _versions() -> dict:
    import scipy

    return {"mcvtests": __version__, "numpy": np.__version__, "scipy": scipy.__version__}


def _emit_report(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(path: str | None, columns: tuple[str, ...], rows: list[dict]) -> None:
    fh = open(path, "w", newline="", encoding="utf-8") if path else sys.stdout
    try:
        writer = csv.DictWriter(fh, fieldnames=list(columns), lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    finally:
        if path:
            fh.close()


# ---------------------------------------------------------------------------
# Subcommands


def cmd_estimate(args: argparse.Namespace) -> int:
    groups = read_groups(args.file)
    if not groups:
        raise InputError(f"{args.file}: no data rows")
    table = []
    for label, values in groups:
        try:
            sample = Sample(values)
        except ValueError as exc:
            raise InputError(f"group {label}: {exc}") from None
        for variant in _variants(args.variant):
            try:
                est = estimate(variant, sample)
                ci_c, ci_b = one_sample_ci(variant, sample, args.alpha)
            except DegeneracyError as exc:
                raise DegeneracyError(f"group {label}: {exc}") from None
            table.append(
                {
                    "group": label,
                    "variant": variant.value,
                    "n": sample.n,
                    "d": sample.d,
                    "c": est.c,
                    "b": est.b,
                    "var_c": est.var_c,
                    "var_b": est.var_b,
                    "ci_c": list(ci_c),
                    "ci_b": list(ci_b),
                }
            )
    report = {
        "command": "estimate",
        "inputs": {"file": args.file, "variant": args.variant, "alpha": args.alpha},
        "estimates": table,
        "versions": _versions(),
    }
    _emit_report(report, args.out)
    return EXIT_OK


def cmd_test(args: argparse.Namespace) -> int:
    groups = read_groups(args.file)
    data = grouped_data(groups)
    layout = parse_layout(args.layout) if args.layout else None
    cm = build_contrast(args.contrasts, data.k, data.labels, layout)
    results = []
    for variant in _variants(args.variant):
        target = Target(args.target, variant)
        rng = make_rng(args.seed)
        if args.method == "asymptotic":
            res = asymptotic_test(target, data, cm, args.alpha)
        elif args.method == "permutation":
            res = permutation_test(target, data, cm, args.alpha, args.B, rng)
        elif args.method == "bootstrap":
            res = bootstrap_test(target, data, cm, args.alpha, args.B, rng)
        else:
            raise InputError(f"unknown method {args.method!r}")
        results.append(
            {
                "variant": variant.value,
                "target": args.target,
                "method": res.method,
                "statistic": res.statistic,
                "rank": res.rank,
                "p_value": res.p_value,
                "alpha": res.alpha,
                "reject": res.reject,
                "resamples_used": res.resamples_used,
                "resamples_degenerate": res.resamples_degenerate,
                "seed": res.seed,
            }
        )
    report = {
        "command": "test",
        "inputs": {
            "file": args.file,
            "variant": args.variant,
            "target": args.target,
            "contrasts": args.contrasts,
            "method": args.method,
            "alpha": args.alpha,
            "B": args.B,
            "seed": args.seed,
        },
        "groups": [{"label": g, "n": int(v.shape[0])} for g, v in groups],
        "contrast_labels": list(cm.labels),
        "tests": results,
        "versions": _versions(),
    }
    _emit_report(report, args.out)
    return EXIT_OK


def cmd_mct(args: argparse.Namespace) -> int:
    groups = read_groups(args.file)
    data = grouped_data(groups)
    layout = parse_layout(args.layout) if args.layout else None
    cm = build_contrast(args.contrasts, data.k, data.labels, layout)
    blocks = []
    table: list[dict] = []
    for variant in _variants(args.variant):
        target = Target(args.target, variant)
        rng = make_rng(args.seed)
        if args.method == "asymptotic":
            res = asymptotic_mct(target, data, cm, args.alpha, args.mc_draws, rng)
        elif args.method == "bootstrap":
            res = bootstrap_mct(target, data, cm, args.alpha, args.B, rng)
        else:
            raise InputError(f"unknown method {args.method!r}")
        block = res.to_dict()
        block["global_p"] = mct_global_p(res, args.mc_draws, rng.substream(987))
        blocks.append(block)
        table.extend(res.table_rows())
    report = {
        "command": "mct",
        "inputs": {
            "file": args.file,
            "variant": args.variant,
            "target": args.target,
            "contrasts": args.contrasts,
            "method": args.method,
            "alpha": args.alpha,
            "B": args.B,
            "mc_draws": args.mc_draws,
            "seed": args.seed,
        },
        "groups": [{"label": g, "n": int(v.shape[0])} for g, v in groups],
        "mct": blocks,
        "table": table,
        "versions": _versions(),
    }
    if args.table:
        _write_csv(args.table, TABLE_COLUMNS, [_format_table_row(r) for r in table])
    _emit_report(report, args.out)
    return EXIT_OK


def _format_table_row(row: dict) -> dict:
    out = dict(row)
    for key in ("estimate", "lower", "upper"):
        out[key] = f"{row[key]:.6g}"
    out["significant"] = str(row["significant"]).lower()
    return out


def cmd_ilr(args: argparse.Namespace) -> int:
    groups = read_groups(args.file)
    if not groups:
        raise InputError(f"{args.file}: no data rows")
    d = groups[0][1].shape[1]
    if d < 2:
        raise InputError("ilr needs at least two composition parts")
    out_rows = []
    for label, values in groups:
        if np.any(values <= 0.0):
            raise InputError(f"group {label}: ilr requires strictly positive entries")
        comp = values / values.sum(axis=1, keepdims=True)
        logs = np.log(comp)
        z = np.empty((comp.shape[0], d - 1))
        for j in range(1, d):
            gm_log = logs[:, :j].mean(axis=1)
            z[:, j - 1] = math.sqrt(j / (j + 1.0)) * (gm_log - logs[:, j])
        for row in z:
            out_rows.append({"group": label, **{f"ilr{j + 1}": f"{row[j]:.17g}" for j in range(d - 1)}})
    columns = ("group",) + tuple(f"ilr{j + 1}" for j in range(d - 1))
    _write_csv(args.out, columns, out_rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Simulation config files


def _parse_config_text(text: str, path: str) -> dict:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise InputError(f"{path}:{lineno}: expected 'key = value'")
        values[key.strip()] = value.strip()
    return values


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v.strip())


def _matrix(text: str) -> np.ndarray:
    return np.array([[float(v) for v in row.split(",")] for row in text.split(";")])


def load_config(path: str) -> dict:
    """Parse a key = value scenario (or mimic) description."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = _parse_config_text(fh.read(), path)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    try:
        return _config_from_values(raw, path)
    except KeyError as exc:
        raise InputError(f"{path}: missing key {exc}") from None
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None


def _config_from_values(raw: dict, path: str) -> dict:
    mode = raw.get("mode", "scenario")
    common = {
        "name": raw.get("name", os.path.basename(path)),
        "distribution": raw.get("distribution", "normal"),
        "alpha": float(raw.get("alpha", "0.05")),
        "replicates": int(raw.get("replicates", "1000")),
        "resamples": int(raw.get("resamples", "500")),
        "mc_draws": int(raw.get("mc_draws", "100000")),
        "seed": int(raw.get("seed", "0")),
        "variant": raw["variant"],
        "target_kind": raw.get("target_kind", "c"),
        "tests": tuple(t.strip() for t in raw.get("tests", "perm_wald").split(",") if t.strip()),
    }
    n = tuple(int(v) for v in raw["n"].split(","))
    if mode == "scenario":
        cfg = ScenarioConfig(
            k=len(n),
            d=int(raw["d"]),
            n=n,
            rho=float(raw.get("rho", "0")),
            mu=_floats(raw["mu"]),
            targets=_floats(raw["targets"]),
            **common,
        )
        return {"mode": "scenario", "config": cfg}
    if mode == "mimic":
        k = len(n)
        mus = [_floats(raw[f"mu_{i + 1}"]) for i in range(k)]
        sigmas = [_matrix(raw[f"sigma_{i + 1}"]) for i in range(k)]
        return {"mode": "mimic", "n": n, "mus": mus, "sigmas": sigmas, **common}
    raise InputError(f"unknown mode {mode!r}; use scenario or mimic")


def cmd_simulate(args: argparse.Namespace) -> int:
    if bool(args.config) == bool(args.preset):
        raise InputError("exactly one of --config or --preset is required")
    results = []

    def finished(res) -> None:
        # Progress per scenario, as it ends: a multi-cell preset runs for hours.
        results.append(res)
        print(f"[{res.meta['scenario']}] {res.replicates_run} replicates in {res.wall_clock:.1f}s",
              file=sys.stderr, flush=True)

    if args.preset:
        try:
            configs = preset_configs(args.preset)
        except ValueError as exc:
            raise InputError(str(exc)) from None
        for cfg in configs:
            finished(run_scenario(cfg, workers=args.workers))
    else:
        loaded = load_config(args.config)
        if loaded["mode"] == "scenario":
            finished(run_scenario(loaded["config"], workers=args.workers))
        else:
            finished(
                run_moment_mimic(
                    mus=[np.array(m) for m in loaded["mus"]],
                    sigmas=loaded["sigmas"],
                    n=loaded["n"],
                    distribution=loaded["distribution"],
                    variant=loaded["variant"],
                    tests=loaded["tests"],
                    alpha=loaded["alpha"],
                    replicates=loaded["replicates"],
                    resamples=loaded["resamples"],
                    target_kind=loaded["target_kind"],
                    mc_draws=loaded["mc_draws"],
                    seed=loaded["seed"],
                    workers=args.workers,
                    name=loaded["name"],
                )
            )
    rows = [row for res in results for row in tidy_rows(res)]
    _write_csv(args.out, TIDY_COLUMNS, rows)
    if args.report:
        report = {
            "command": "simulate",
            "inputs": {"config": args.config, "preset": args.preset},
            "scenarios": [
                {"meta": res.meta, "outcomes": [vars(oc) for oc in res.outcomes]}
                for res in results
            ],
            "versions": _versions(),
        }
        _emit_report(report, args.report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mcvtests", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_target: bool = True) -> None:
        p.add_argument("--variant", default="all", help="rr, vv, vn, az, or all")
        if with_target:
            p.add_argument("--target", default="c", choices=("c", "b"))
        p.add_argument("--alpha", type=float, default=0.05)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="report path (default stdout)")

    p_est = sub.add_parser("estimate", help="per-group MCV and standardized-mean estimates")
    p_est.add_argument("file")
    common(p_est, with_target=False)
    p_est.set_defaults(func=cmd_estimate)

    p_test = sub.add_parser("test", help="global Wald-type test")
    p_test.add_argument("file")
    common(p_test)
    p_test.add_argument("--contrasts", default="ksample")
    p_test.add_argument("--layout", default=None, help="factor layout, e.g. A:2,E:2")
    p_test.add_argument("--method", default="permutation", choices=("asymptotic", "permutation", "bootstrap"))
    p_test.add_argument("--B", type=int, default=1000, help="resampling iterations")
    p_test.set_defaults(func=cmd_test)

    p_mct = sub.add_parser("mct", help="multiple contrast test with simultaneous CIs")
    p_mct.add_argument("file")
    common(p_mct)
    p_mct.add_argument("--contrasts", default="tukey")
    p_mct.add_argument("--layout", default=None)
    p_mct.add_argument("--method", default="bootstrap", choices=("asymptotic", "bootstrap"))
    p_mct.add_argument("--B", type=int, default=1000)
    p_mct.add_argument("--mc-draws", dest="mc_draws", type=int, default=100_000)
    p_mct.add_argument("--table", default=None, help="write the contrast table CSV here")
    p_mct.set_defaults(func=cmd_mct)

    p_sim = sub.add_parser("simulate", help="run size/power scenarios to a tidy CSV")
    p_sim.add_argument("--config", default=None)
    p_sim.add_argument("--preset", default=None)
    p_sim.add_argument("--workers", type=int, default=None)
    p_sim.add_argument("--out", default=None, help="tidy CSV path (default stdout)")
    p_sim.add_argument("--report", default=None, help="optional JSON report path")
    p_sim.set_defaults(func=cmd_simulate)

    p_ilr = sub.add_parser("ilr", help="isometric log-ratio transform of compositions")
    p_ilr.add_argument("file")
    p_ilr.add_argument("--out", default=None)
    p_ilr.set_defaults(func=cmd_ilr)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DegeneracyError as exc:
        print(f"degenerate: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
