"""Command-line surface: estimation, tests, multiple contrasts, simulation, ilr.

Data files are UTF-8 CSV with a header row, a string ``group`` column, and
numeric coordinate columns.  Reports are JSON documents whose bodies are
byte-identical across reruns with the same inputs and seed.  Exit codes:
0 success (also when a reader closes the output pipe early), 2 input or
validation error, 3 statistical degeneracy.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import inspect
import json
import math
import os
import sys
from collections.abc import Callable, Iterable

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
from .estimation import DegeneracyError, McvVariant, Sample, _estimate_one, _intervals, _warn_small_n
from .sim import (
    ScenarioConfig,
    ScenarioResult,
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
from .numkit import check_alpha, check_count, make_rng, normal_quantile

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


# Namespace entries a report's ``inputs`` leaves out: the subcommand and its
# function, which are not flags, the output paths, and the worker count,
# which changes no result.
_NOT_INPUTS = frozenset({"command", "func", "out", "table", "report", "workers"})


def _report(args: argparse.Namespace, **body) -> dict:
    """A command's JSON report: its name, every flag that can change the result, the body, the versions."""
    inputs = {k: v for k, v in vars(args).items() if k not in _NOT_INPUTS}
    return {"command": args.command, "inputs": inputs, **body, "versions": _versions()}


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
    check_alpha(args.alpha)
    groups = read_groups(args.file)
    if not groups:
        raise InputError(f"{args.file}: no data rows")
    variants = _variants(args.variant)
    samples = []
    for label, values in groups:
        try:
            samples.append((label, Sample(values)))
        except ValueError as exc:
            raise InputError(f"group {label}: {exc}") from None
    _warn_small_n(min(s.n for _, s in samples), samples[0][1].d)
    z = normal_quantile(1.0 - args.alpha / 2.0)
    table = []
    for label, sample in samples:
        for variant in variants:
            try:
                est = _estimate_one(variant, sample.values)
                ci_c, ci_b = _intervals(est, z)
            except DegeneracyError as exc:
                raise DegeneracyError(f"group {label}: {exc}") from None
            table.append({**vars(est), "variant": variant.value, "group": label, "d": sample.d,
                          "ci_c": list(ci_c), "ci_b": list(ci_b)})
    _emit_report(_report(args, estimates=table), args.out)
    return EXIT_OK


def _load_design(args: argparse.Namespace) -> tuple[GroupedData, ContrastMatrix]:
    """The grouped data and the contrast of a ``test`` or ``mct`` command."""
    data = grouped_data(read_groups(args.file))
    layout = parse_layout(args.layout) if args.layout else None
    return data, build_contrast(args.contrasts, data.k, data.labels, layout)


def _group_sizes(data: GroupedData) -> list[dict]:
    return [{"label": g, "n": n} for g, n in zip(data.labels, data.sizes)]


def cmd_test(args: argparse.Namespace) -> int:
    rng = make_rng(args.seed)
    data, cm = _load_design(args)
    results = []
    for variant in _variants(args.variant):
        target = Target(args.target, variant)
        if args.method == "asymptotic":
            res = asymptotic_test(target, data, cm, args.alpha)
        elif args.method == "permutation":
            res = permutation_test(target, data, cm, args.alpha, args.B, rng)
        else:
            res = bootstrap_test(target, data, cm, args.alpha, args.B, rng)
        results.append({**vars(res), "reject": res.reject, "variant": variant.value, "target": args.target})
    report = _report(args, groups=_group_sizes(data), contrast_labels=list(cm.labels), tests=results)
    _emit_report(report, args.out)
    return EXIT_OK


def cmd_mct(args: argparse.Namespace) -> int:
    check_count("mc_draws", args.mc_draws)
    rng = make_rng(args.seed)
    data, cm = _load_design(args)
    blocks = []
    table: list[dict] = []
    for variant in _variants(args.variant):
        target = Target(args.target, variant)
        if args.method == "asymptotic":
            res = asymptotic_mct(target, data, cm, args.alpha, args.mc_draws, rng)
        else:
            res = bootstrap_mct(target, data, cm, args.alpha, args.B, rng)
        block = res.to_dict()
        block["global_p"] = mct_global_p(res, args.mc_draws, rng.substream(987))
        blocks.append(block)
        table.extend(res.table_rows())
    if args.table:
        _write_csv(args.table, TABLE_COLUMNS, [_format_table_row(r) for r in table])
    _emit_report(_report(args, groups=_group_sizes(data), mct=blocks, table=table), args.out)
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
        if not np.all(np.isfinite(values)):
            raise InputError(f"group {label}: ilr requires finite entries")
        if np.any(values <= 0.0):
            raise InputError(f"group {label}: ilr requires strictly positive entries")
        # Logs of the raw parts: ilr coordinates do not change when a row is
        # scaled, so closing rows to sum one first (which can overflow) is
        # not needed.
        logs = np.log(values)
        z = np.empty((values.shape[0], d - 1))
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


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _names(text: str) -> tuple[str, ...]:
    return tuple(t.strip() for t in text.split(",") if t.strip())


def _matrix(text: str) -> np.ndarray:
    return np.array([[float(v) for v in row.split(",")] for row in text.split(";")])


_SCENARIO, _MIMIC = ("scenario",), ("mimic",)
_BOTH = _SCENARIO + _MIMIC

# Every config key: the parser of its value and the modes that read it.
# ``mu_<i>`` and ``sigma_<i>`` stand for mu_1, sigma_1, ... of group i.
CONFIG_KEYS = {
    "mode": (str, _BOTH),
    "name": (str, _BOTH),
    "d": (int, _SCENARIO),
    "n": (_ints, _BOTH),
    "distribution": (str, _BOTH),
    "rho": (float, _SCENARIO),
    "mu": (_floats, _SCENARIO),
    "targets": (_floats, _SCENARIO),
    "mu_<i>": (_floats, _MIMIC),
    "sigma_<i>": (_matrix, _MIMIC),
    "variant": (str, _BOTH),
    "target_kind": (str, _BOTH),
    "alpha": (float, _BOTH),
    "replicates": (int, _BOTH),
    "resamples": (int, _BOTH),
    "mc_draws": (int, _BOTH),
    "seed": (int, _BOTH),
    "tests": (_names, _BOTH),
}


def load_config(path: str) -> dict:
    """Parse a key = value scenario (or mimic) description.

    Returns ``{"mode": "scenario", "config": ScenarioConfig}`` or
    ``{"mode": "mimic", "config": run_moment_mimic's keyword arguments}``.
    """
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
    """Parse every key through CONFIG_KEYS; an absent key takes the library's default."""
    mode = raw.get("mode", "scenario")
    if mode not in _BOTH:
        raise InputError(f"unknown mode {mode!r}; use scenario or mimic")
    # The settings that ScenarioConfig or run_moment_mimic give no default.
    values = {"name": os.path.basename(path), "distribution": "normal"}
    values.update({"rho": 0.0} if mode == "scenario" else {"tests": ("perm_wald",)})
    for key, text in raw.items():
        prefix, _, number = key.rpartition("_")
        parse, modes = CONFIG_KEYS.get(f"{prefix}_<i>" if number.isdigit() else key, (None, ()))
        if mode not in modes:
            raise InputError(f"key {key!r} is not a {mode} setting")
        try:
            values[key] = parse(text)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None
    values.pop("mode", None)
    k = len(values["n"])
    if mode == "scenario":
        values["k"] = k
        entry = ScenarioConfig
    else:
        values["mus"] = [values.pop(f"mu_{i + 1}") for i in range(k)]
        values["sigmas"] = [values.pop(f"sigma_{i + 1}") for i in range(k)]
        extra = [key for key in values if key.startswith(("mu_", "sigma_"))]
        if extra:
            raise InputError(f"key {extra[0]!r} is not read; n gives {k} groups")
        entry = run_moment_mimic
    params = inspect.signature(entry).parameters.values()
    missing = [p.name for p in params if p.default is p.empty and p.name not in values]
    if missing:
        raise InputError(f"missing key {missing[0]!r}")
    return {"mode": mode, "config": ScenarioConfig(**values) if mode == "scenario" else values}


def write_tidy(path: str | None, studies: Iterable[ScenarioResult]) -> list[ScenarioResult]:
    """Write each study's tidy rows to ``path`` (default stdout) as the study ends.

    The rows are flushed and a ``[scenario] R replicates in Ts`` line goes to
    stderr before the next study starts, so a stopped run keeps every study
    that ended.  The file is opened only when the first study has ended, so a
    setting that the first study rejects leaves no file.  Returns the results.
    """
    results = []
    with contextlib.ExitStack() as stack:
        for res in studies:
            if not results:
                fh = stack.enter_context(open(path, "w", newline="", encoding="utf-8")) if path else sys.stdout
                writer = csv.DictWriter(fh, fieldnames=list(TIDY_COLUMNS), lineterminator="\n")
                writer.writeheader()
            results.append(res)
            writer.writerows(tidy_rows(res))
            fh.flush()
            print(f"[{res.meta['scenario']}] {res.replicates_run} replicates in {res.wall_clock:.1f}s",
                  file=sys.stderr, flush=True)
    return results


def cmd_simulate(args: argparse.Namespace) -> int:
    if bool(args.config) == bool(args.preset):
        raise InputError("exactly one of --config or --preset is required")
    if args.preset:
        try:
            configs = preset_configs(args.preset)
        except ValueError as exc:
            raise InputError(str(exc)) from None
        results = write_tidy(args.out, (run_scenario(cfg, workers=args.workers) for cfg in configs))
    else:
        loaded = load_config(args.config)
        if loaded["mode"] == "scenario":
            study = run_scenario(loaded["config"], workers=args.workers)
        else:
            study = run_moment_mimic(**loaded["config"], workers=args.workers)
        results = write_tidy(args.out, [study])
    if args.report:
        scenarios = [{"meta": res.meta, "outcomes": [vars(oc) for oc in res.outcomes]} for res in results]
        _emit_report(_report(args, scenarios=scenarios), args.report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mcvtests", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, tests: bool = True) -> None:
        p.add_argument("file")
        p.add_argument("--variant", default="all", help="rr, vv, vn, az, or all")
        p.add_argument("--alpha", type=float, default=0.05)
        p.add_argument("--out", default=None, help="report path (default stdout)")
        if tests:
            p.add_argument("--target", default="c", choices=("c", "b"))
            p.add_argument("--layout", default=None, help="factor layout, e.g. A:2,E:2")
            p.add_argument("--B", type=int, default=1000, help="resampling iterations")
            p.add_argument("--seed", type=int, default=0)

    p_est = sub.add_parser("estimate", help="per-group MCV and standardized-mean estimates")
    common(p_est, tests=False)
    p_est.set_defaults(func=cmd_estimate)

    p_test = sub.add_parser("test", help="global Wald-type test")
    common(p_test)
    p_test.add_argument("--contrasts", default="ksample")
    p_test.add_argument("--method", default="permutation", choices=("asymptotic", "permutation", "bootstrap"))
    p_test.set_defaults(func=cmd_test)

    p_mct = sub.add_parser("mct", help="multiple contrast test with simultaneous CIs")
    common(p_mct)
    p_mct.add_argument("--contrasts", default="tukey")
    p_mct.add_argument("--method", default="bootstrap", choices=("asymptotic", "bootstrap"))
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


def guarded(command: Callable[[], int]) -> int:
    """Run ``command`` and map its failure to an exit code, with a one-line message.

    A closed stdout pipe is 0, an input or validation error 2, a statistical
    degeneracy 3.
    """
    try:
        code = command()
        if sys.stdout is not None:  # None when the process started without a stdout
            sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # The reader closed stdout on purpose (``| head``).  Point stdout at
        # devnull, so the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except DegeneracyError as exc:
        print(f"degenerate: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return guarded(lambda: args.func(args))


if __name__ == "__main__":
    sys.exit(main())
