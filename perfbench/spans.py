"""In-memory span tracer that wraps mcvtests functions at layer boundaries.

Nothing under ``src/`` knows about tracing.  For a traced pass the
benchmark swaps module-level names for timing wrappers, at the place where
each caller looks the name up: ``from .x import y`` binds ``y`` in the
importing module, so ``sim.pooled_resample_estimates`` and
``_resampling.pooled_resample_estimates`` are separate names and both are
replaced.  ``uninstall`` puts every original object back.

A span records (name, start, end, parent span, operation id).  Spans are kept
in parallel lists while the pass runs and turned into layer metrics, or
written to disk, only when it ends.  Self time is a span's duration minus
the time covered by its direct children; calls are synchronous and run on
one thread, so children never overlap each other or leave their parent.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import json
import time

import numpy as np

# (module, attribute, span name).  ``RngStream.generator`` is a method, so
# the name callers look up is the class attribute.
BOUNDARIES = (
    # estimation
    ("mcvtests._resampling", "_estimate_array", "estimation.estimate"),
    ("mcvtests.tests_multiple", "_estimate_array", "estimation.estimate"),
    ("mcvtests.sim", "_estimate_array", "estimation.estimate"),
    ("mcvtests.estimation", "_estimate_array", "estimation.estimate"),
    ("mcvtests.estimation", "_moments_from_array", "estimation.moments"),
    ("mcvtests.estimation", "_variance_at", "estimation.variance"),
    ("mcvtests.estimation", "a_matrix", "estimation.a_matrix"),
    ("mcvtests.estimation", "dtilde", "estimation.dtilde"),
    # numkit
    ("mcvtests.numkit:RngStream", "generator", "numkit.generator"),
    ("mcvtests._resampling", "pinv", "numkit.pinv"),
    ("mcvtests.tests_multiple", "mvn_equicoordinate_quantile", "numkit.mc_quantile"),
    ("mcvtests.sim", "mvn_equicoordinate_quantile", "numkit.mc_quantile"),
    ("mcvtests.numkit", "mvn_maxabs_sample", "numkit.mc_sample"),
    ("mcvtests.tests_multiple", "mvn_maxabs_sample", "numkit.mc_sample"),
    # resampling
    ("mcvtests.tests_global", "pooled_resample_estimates", "resampling.pooled"),
    ("mcvtests.tests_multiple", "pooled_resample_estimates", "resampling.pooled"),
    ("mcvtests.sim", "pooled_resample_estimates", "resampling.pooled"),
    ("mcvtests.tests_global", "wald_resample_stats", "resampling.wald_resample_stats"),
    ("mcvtests.sim", "wald_resample_stats", "resampling.wald_resample_stats"),
    ("mcvtests._resampling", "wald_value", "resampling.wald_value"),
    ("mcvtests.tests_global", "wald_value", "resampling.wald_value"),
    ("mcvtests.sim", "wald_value", "resampling.wald_value"),
    # tests_global
    ("mcvtests.cli", "permutation_test", "tests_global.permutation_test"),
    ("mcvtests.cli", "bootstrap_test", "tests_global.bootstrap_test"),
    ("mcvtests.tests_global", "wald_statistic", "tests_global.wald_statistic"),
    # tests_multiple
    ("mcvtests.cli", "bootstrap_mct", "tests_multiple.bootstrap_mct"),
    ("mcvtests.cli", "asymptotic_mct", "tests_multiple.asymptotic_mct"),
    ("mcvtests.cli", "mct_global_p", "tests_multiple.mct_global_p"),
    ("mcvtests.tests_multiple", "bootstrap_mct_max_stats", "tests_multiple.max_stats"),
    ("mcvtests.sim", "bootstrap_mct_max_stats", "tests_multiple.max_stats"),
    # sim
    ("mcvtests.sim", "_run_replicate", "sim.replicate"),
    # cli
    ("mcvtests.cli", "read_groups", "cli.read_groups"),
    ("mcvtests.cli", "_emit_report", "cli.emit"),
)


def _resolve(target: str):
    module, _, cls = target.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_moments(tracer: "Tracer", args: tuple, kwargs: dict, result) -> None:
    n, d = _arg(args, kwargs, 0, "x").shape
    tracer.counters["estimation.moment_bytes_computed"] += 8 * (n * d * d + d**3 + d**4)


def _count_resamples(tracer: "Tracer", args: tuple, kwargs: dict, result) -> None:
    _, degenerate = result
    tracer.counters["resampling.resamples"] += int(degenerate.size)
    tracer.counters["resampling.useful"] += int(degenerate.size - degenerate.sum())


def _count_draws(tracer: "Tracer", args: tuple, kwargs: dict, result) -> None:
    tracer.counters["numkit.mc_draws"] += int(_arg(args, kwargs, 1, "draws"))


COUNTERS = {
    "estimation.moments": _count_moments,
    "resampling.pooled": _count_resamples,
    "numkit.mc_sample": _count_draws,
}


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.counters: collections.Counter[str] = collections.Counter()
        self.errors: collections.Counter[str] = collections.Counter()
        self._stack: list[int] = []
        self._op = -1
        self._installed: list[tuple[object, str, object, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self._op)
        self.ends.append(float("nan"))
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def operation(self, name: str):
        """Root span of one benchmark operation; its spans share an op id."""
        self._op += 1
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name: str):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.errors[f"{name}:{type(exc).__name__}"] += 1
                raise
            finally:
                self._close(idx)
            if count is not None:
                count(self, args, kwargs, result)
            return result

        traced.__wrapped_by_tracer__ = True
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer is already installed")
        for target, attr, name in BOUNDARIES:
            owner = _resolve(target)
            original = getattr(owner, attr)
            wrapper = self.wrap(original, name)
            setattr(owner, attr, wrapper)
            self._installed.append((owner, attr, original, wrapper))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original, wrapper = self._installed.pop()
            if getattr(owner, attr) is not wrapper:
                raise RuntimeError(f"{owner!r}.{attr} was replaced while traced")
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.asarray(self.starts)
        end = np.asarray(self.ends)
        parent = np.asarray(self.parents, dtype=np.int64)
        dur = end - start
        child = np.zeros(len(dur))
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return {
            "name": np.asarray(self.names, dtype=object),
            "start": start,
            "end": end,
            "parent": parent,
            "op": np.asarray(self.ops, dtype=np.int64),
            "dur": dur,
            "self": dur - child,
        }

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for row in zip(self.names, self.starts, self.ends, self.parents, self.ops):
                fh.write(json.dumps(row) + "\n")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals over one traced pass (zero where a layer was bypassed)."""
    a = tracer.arrays()
    names, self_s, dur = a["name"], a["self"], a["dur"]

    def self_of(*span_names: str) -> float:
        return float(self_s[np.isin(names, span_names)].sum())

    def total_of(span_name: str) -> float:
        return float(dur[names == span_name].sum())

    def count_of(span_name: str) -> int:
        return int(np.sum(names == span_name))

    resamples = tracer.counters.get("resampling.resamples", 0)
    replicate = dur[names == "sim.replicate"]
    return {
        "estimation.calls": count_of("estimation.estimate"),
        "estimation.moments_self_s": self_of("estimation.moments"),
        "estimation.gradient_self_s": self_of("estimation.a_matrix", "estimation.dtilde"),
        "estimation.variance_self_s": self_of("estimation.variance"),
        "estimation.degenerate": tracer.errors.get("estimation.estimate:DegeneracyError", 0),
        "estimation.moment_bytes_computed": tracer.counters.get(
            "estimation.moment_bytes_computed", 0
        ),
        "numkit.stream_self_s": self_of("numkit.generator"),
        "numkit.pinv_calls": count_of("numkit.pinv"),
        "numkit.pinv_self_s": self_of("numkit.pinv"),
        "numkit.mc_quantile_s": self_of("numkit.mc_quantile", "numkit.mc_sample"),
        "numkit.mc_draws": tracer.counters.get("numkit.mc_draws", 0),
        "resampling.resamples": resamples,
        "resampling.useful_ratio": (
            tracer.counters.get("resampling.useful", 0) / resamples if resamples else 0.0
        ),
        "resampling.pooled_self_s": self_of("resampling.pooled"),
        "resampling.wald_self_s": self_of(
            "resampling.wald_resample_stats", "resampling.wald_value"
        ),
        "tests_multiple.max_stats_s": total_of("tests_multiple.max_stats"),
        "sim.replicate_s_p50": float(np.median(replicate)) if replicate.size else 0.0,
        "cli.read_groups_s": total_of("cli.read_groups"),
        "cli.emit_s": total_of("cli.emit"),
    }
