"""Monte-Carlo harness for empirical size and power of the MCV tests.

A scenario fixes the design (groups, dimension, sample sizes), the data law
(innovation distribution, compound-symmetric correlation, shared mean,
per-group MCV targets), and a list of tests.  Each replicate generates
fresh data and records each test's rejection; aggregation reports rejection
proportions with binomial-band verdicts.

Group covariances are rescaled so the configured variant hits its target
MCV exactly; equal targets across groups put the replicate under the global
null, unequal ones under an alternative.  Wald tests use the k-sample
centering contrast, multiple contrast tests use all-pairs contrasts.

Determinism: replicate r draws everything from substreams of (seed, r),
so results are bit-identical for any worker count or schedule.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from ._resampling import (
    can_start_workers,
    group_stats,
    pool_map,
    pooled_resample_estimates,
    target_values,
    worker_count,
)
from .design import centering_matrix, tukey_contrasts
from .estimation import DegeneracyError, McvVariant, Sample, _estimate_array, mcv
from .numkit import RngStream, check_alpha, check_count, load_scipy, make_rng, normal_quantile, sym_sqrt
from .tests_global import Target, _wald_test
from .tests_multiple import _mct_test

# Not called here: bound only so that the benchmark's span tracer
# (perfbench/spans.py, BOUNDARIES) still finds these names in this module.
from ._resampling import wald_resample_stats, wald_value  # noqa: F401
from .numkit import mvn_equicoordinate_quantile  # noqa: F401
from .tests_multiple import bootstrap_mct_max_stats  # noqa: F401

__all__ = [
    "DISTRIBUTIONS",
    "ScenarioConfig",
    "ScenarioResult",
    "TestOutcome",
    "band_bounds",
    "compound_symmetric",
    "generate_sample",
    "preset_configs",
    "run_moment_mimic",
    "run_scenario",
    "scale_to_target",
    "tidy_rows",
    "worker_count",
]

DISTRIBUTIONS = ("normal", "student5", "chisq10")

TEST_FAMILIES = ("asym_wald", "perm_wald", "boot_wald", "asym_mct", "boot_mct")

TIDY_COLUMNS = (
    "scenario",
    "k",
    "d",
    "n_per_group",
    "distribution",
    "rho",
    "variant",
    "targets",
    "test",
    "target",
    "alpha",
    "seed",
    "replicates",
    "resamples",
    "valid_replicates",
    "rejections",
    "proportion",
    "in_band95",
    "in_band99",
    "degenerate_replicates",
    "degenerate_resamples",
)

# Mean vector used by the protocol presets: a single standard-normal draw
# from stream (2022, 0), frozen here so preset runs are comparable.
PRESET_MU_5D = (2.676415, -0.842794, 2.07818, -1.52766, 0.396179)


def compound_symmetric(d: int, rho: float) -> np.ndarray:
    """(1 - rho) I + rho 1 1^T; positive definite for -1/(d-1) < rho < 1."""
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    low = -1.0 / (d - 1) if d > 1 else -np.inf
    if not low < rho < 1.0:
        raise ValueError(f"rho={rho} outside the positive-definite range ({low}, 1)")
    return (1.0 - rho) * np.eye(d) + rho * np.ones((d, d))


def scale_to_target(
    variant: McvVariant, mu: np.ndarray, sigma: np.ndarray, target: float
) -> np.ndarray:
    """Rescale sigma so the variant's MCV at (mu, sigma) equals target exactly.

    Every variant is homogeneous of degree 1/2 in sigma, so the factor
    (target / current)^2 is exact.
    """
    if target <= 0.0:
        raise ValueError(f"target must be positive, got {target}")
    current = mcv(variant, mu, sigma)
    return (target / current) ** 2 * np.asarray(sigma, dtype=float)


def _standard_innovations(distribution: str, shape: tuple[int, int], gen: np.random.Generator) -> np.ndarray:
    """IID innovations with mean zero and unit variance coordinate-wise."""
    if distribution == "normal":
        return gen.standard_normal(shape)
    if distribution == "student5":
        return gen.standard_t(5, shape) / math.sqrt(5.0 / 3.0)
    if distribution == "chisq10":
        return (gen.chisquare(10, shape) - 10.0) / math.sqrt(20.0)
    raise ValueError(f"unknown distribution {distribution!r}; choose from {DISTRIBUTIONS}")


def _generate_array(
    distribution: str, mu: np.ndarray, sigma_root: np.ndarray, n: int, gen: np.random.Generator
) -> np.ndarray:
    z = _standard_innovations(distribution, (n, mu.size), gen)
    return mu + z @ sigma_root


def generate_sample(
    distribution: str, mu: np.ndarray, sigma: np.ndarray, n: int, rng: RngStream
) -> Sample:
    """Draw n observations with mean mu and covariance sigma exactly.

    Observations are mu + sigma^{1/2} z with z having iid standardized
    coordinates from the chosen distribution, so the first two moments match
    for every distribution.
    """
    mu = np.asarray(mu, dtype=float).reshape(-1)
    root = sym_sqrt(sigma)
    return Sample(_generate_array(distribution, mu, root, n, rng.generator()))


@dataclass(frozen=True)
class _TestSpec:
    """A configured test: family plus the target kind it is applied to."""

    ident: str
    family: str
    kind: str


def _parse_tests(tests: tuple[str, ...], default_kind: str) -> tuple[_TestSpec, ...]:
    specs = []
    for ident in tests:
        family, _, suffix = ident.partition(":")
        kind = suffix or default_kind
        if family not in TEST_FAMILIES:
            raise ValueError(f"unknown test {ident!r}; families are {TEST_FAMILIES}")
        if kind not in ("c", "b"):
            raise ValueError(f"test {ident!r} has target {kind!r}, expected 'c' or 'b'")
        specs.append(_TestSpec(ident=f"{family}:{kind}", family=family, kind=kind))
    if len({s.ident for s in specs}) != len(specs):
        raise ValueError("duplicate test identifiers after target resolution")
    return tuple(specs)


def _check_settings(
    n: tuple[int, ...], distribution: str, target_kind: str, tests: tuple[str, ...],
    alpha: float, replicates: int, resamples: int, mc_draws: int, seed: int,
) -> tuple[_TestSpec, ...]:
    """Check the settings that ScenarioConfig and run_moment_mimic share, and parse the tests.

    Both call it before any replicate runs or any worker starts.
    """
    if len(n) < 2:
        raise ValueError(f"a study needs at least two groups, got {len(n)}")
    if any(v < 2 for v in n):
        raise ValueError("every group needs at least two observations")
    if distribution not in DISTRIBUTIONS:
        raise ValueError(f"unknown distribution {distribution!r}; choose from {DISTRIBUTIONS}")
    if target_kind not in ("c", "b"):
        raise ValueError(f"target_kind must be 'c' or 'b', got {target_kind!r}")
    check_alpha(alpha)
    check_count("replicates", replicates)
    check_count("resamples", resamples)
    check_count("mc_draws", mc_draws)
    make_rng(seed)  # RngStream rejects a negative seed
    return _parse_tests(tests, target_kind)


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation cell."""

    name: str
    k: int
    d: int
    n: tuple[int, ...]
    distribution: str
    rho: float
    mu: tuple[float, ...]
    targets: tuple[float, ...]
    variant: McvVariant
    target_kind: str = "c"
    alpha: float = 0.05
    replicates: int = 1000
    resamples: int = 500
    mc_draws: int = 100_000
    seed: int = 0
    tests: tuple[str, ...] = ("perm_wald",)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", tuple(int(v) for v in self.n))
        object.__setattr__(self, "mu", tuple(float(v) for v in self.mu))
        object.__setattr__(self, "targets", tuple(float(v) for v in self.targets))
        object.__setattr__(self, "tests", tuple(self.tests))
        object.__setattr__(self, "variant", McvVariant(self.variant))
        if len(self.n) != self.k or len(self.targets) != self.k:
            raise ValueError("k, n, and targets must describe the same number of groups")
        _check_settings(self.n, self.distribution, self.target_kind, self.tests,
                        self.alpha, self.replicates, self.resamples, self.mc_draws, self.seed)
        if len(self.mu) != self.d:
            raise ValueError(f"mu has length {len(self.mu)}, expected d={self.d}")
        if not all(math.isfinite(v) for v in self.mu + self.targets):
            raise ValueError("mu and targets must be finite")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho must lie in [0, 1), got {self.rho}")
        if any(t <= 0.0 for t in self.targets):
            raise ValueError("MCV targets must be positive")


@dataclass(frozen=True)
class TestOutcome:
    """Aggregated rejections of one test across replicates."""

    test: str
    rejections: int
    valid_replicates: int
    degenerate_replicates: int
    degenerate_resamples: int

    @property
    def proportion(self) -> float:
        return self.rejections / self.valid_replicates if self.valid_replicates else float("nan")


@dataclass(frozen=True)
class ScenarioResult:
    """Per-test rejection proportions for one scenario."""

    meta: dict
    outcomes: tuple[TestOutcome, ...]
    replicates_run: int
    alpha: float
    wall_clock: float = field(compare=False)


def band_bounds(alpha: float, replicates: int, level: float = 0.95) -> tuple[float, float]:
    """Binomial-proportion band around alpha for the given replicate count."""
    z = normal_quantile(0.5 + level / 2.0)
    half = z * math.sqrt(alpha * (1.0 - alpha) / replicates)
    return alpha - half, alpha + half


# ---------------------------------------------------------------------------
# Replicate engine


@dataclass(frozen=True)
class _EngineSpec:
    """Fully resolved scenario shared by run_scenario and run_moment_mimic."""

    mus: tuple
    sigma_roots: tuple
    n: tuple[int, ...]
    distribution: str
    variant: McvVariant
    alpha: float
    resamples: int
    mc_draws: int
    seed: int
    specs: tuple[_TestSpec, ...]


def _replicate_worker(args: tuple[_EngineSpec, int]) -> tuple[int, dict]:
    spec, r = args
    return r, _run_replicate(spec, r)


def _run_replicate(es: _EngineSpec, r: int) -> dict:
    """One replicate: generate data, resample once per scheme, run every configured test.

    Tests go through the public tests' calibration (``_wald_test``,
    ``_mct_test``).  Substream 1 drives the permutations, 2 the bootstrap,
    (3, j) the Monte-Carlo draws of test j.  Returns ident -> (reject: bool
    | None, degenerate_resamples: int); None marks a degenerate replicate.
    """
    k = len(es.n)
    stream = make_rng(es.seed, r)
    gen = stream.substream(0).generator()
    arrays = [
        _generate_array(es.distribution, np.asarray(es.mus[i]), np.asarray(es.sigma_roots[i]), es.n[i], gen)
        for i in range(k)
    ]
    try:
        obs = group_stats(es.variant, arrays)
    except DegeneracyError:
        return {s.ident: (None, 0) for s in es.specs}

    pool = np.vstack(arrays)
    families = {s.family for s in es.specs}
    perm = boot = pooled = None
    if "perm_wald" in families:
        perm = pooled_resample_estimates(
            es.variant, pool, es.n, es.resamples, stream.substream(1), replace=False
        )
    if families & {"boot_wald", "boot_mct"}:
        boot = pooled_resample_estimates(
            es.variant, pool, es.n, es.resamples, stream.substream(2), replace=True
        )
    if "boot_mct" in families:
        try:
            pooled = _estimate_array(es.variant, pool)
        except DegeneracyError:
            pass

    h_global = centering_matrix(k)
    pairs = tukey_contrasts(k)
    wald = {"asym_wald": (None, "asymptotic"), "perm_wald": (perm, "permutation"),
            "boot_wald": (boot, "bootstrap")}
    out: dict[str, tuple[bool | None, int]] = {}
    for j, spec in enumerate(es.specs):
        theta, sigma = target_values(obs, spec.kind, es.n)
        target = Target(spec.kind, es.variant)
        try:
            if spec.family in wald:
                res = _wald_test(spec.kind, theta, sigma, h_global, es.n, es.alpha, *wald[spec.family])
            elif spec.family == "asym_mct":
                mc = (es.mc_draws, stream.substream(3).substream(j))
                res = _mct_test(target, pairs, theta, sigma, es.n, es.alpha, mc=mc)
            elif pooled is None:
                raise DegeneracyError("the pooled sample is degenerate; the bootstrap has no centre")
            else:
                centred = (*boot, getattr(pooled, spec.kind))
                res = _mct_test(target, pairs, theta, sigma, es.n, es.alpha, boot=centred)
        except DegeneracyError:
            out[spec.ident] = (None, 0)
        else:
            out[spec.ident] = (res.reject, res.resamples_degenerate)
    return out


def _run_engine(es: _EngineSpec, replicates: int, workers: int | None) -> list[dict]:
    workers = worker_count(workers)
    if workers <= 1 or replicates <= 1 or not can_start_workers():
        return [_run_replicate(es, r) for r in range(replicates)]
    if any(spec.family == "asym_wald" for spec in es.specs):
        # Its chi-square tail needs scipy.special: imported once here, the
        # forked workers inherit it rather than each importing it.
        load_scipy()
    tasks = [(es, r) for r in range(replicates)]
    chunk = max(1, replicates // (workers * 8))
    # Replicates are keyed by (seed, r), so pool_map's rerun gives the same rows.
    return [res for _, res in pool_map(_replicate_worker, tasks, workers, chunk)]


def _aggregate(
    meta: dict, specs: tuple[_TestSpec, ...], per_replicate: list[dict], alpha: float, elapsed: float
) -> ScenarioResult:
    outcomes = []
    for spec in specs:
        rej = valid = degen_rep = degen_res = 0
        for rep in per_replicate:
            decision, dres = rep[spec.ident]
            if decision is None:
                degen_rep += 1
                continue
            valid += 1
            rej += int(decision)
            degen_res += dres
        outcomes.append(
            TestOutcome(
                test=spec.ident,
                rejections=rej,
                valid_replicates=valid,
                degenerate_replicates=degen_rep,
                degenerate_resamples=degen_res,
            )
        )
    return ScenarioResult(
        meta=meta,
        outcomes=tuple(outcomes),
        replicates_run=len(per_replicate),
        alpha=alpha,
        wall_clock=elapsed,
    )


def run_scenario(cfg: ScenarioConfig, workers: int | None = None) -> ScenarioResult:
    """Run one scenario; replicate r uses streams derived from (seed, r).

    A scenario is run_moment_mimic's study with mean mu in every group and
    the compound-symmetric covariance scaled to each group's target; its
    tidy rows also carry rho and the targets.

    Replicates run in ``worker_count(workers)`` processes, the process's one
    worker pool, which resampling calls share.  With more than one, the
    workers start at the first parallel call and are reused by later calls
    that the pool fits; another count replaces them, and they end when the
    interpreter exits.  They start by the platform's start method (forked
    on Linux before Python 3.14), so code patched in this process after the
    first parallel call does not reach them.  A daemonic process, which may not
    have children, runs the replicates itself.
    """
    mu = np.asarray(cfg.mu, dtype=float)
    base = compound_symmetric(cfg.d, cfg.rho)
    result = run_moment_mimic(
        mus=[mu] * cfg.k, sigmas=[scale_to_target(cfg.variant, mu, base, t) for t in cfg.targets],
        n=cfg.n, distribution=cfg.distribution, variant=cfg.variant, tests=cfg.tests,
        alpha=cfg.alpha, replicates=cfg.replicates, resamples=cfg.resamples,
        target_kind=cfg.target_kind, mc_draws=cfg.mc_draws, seed=cfg.seed, workers=workers, name=cfg.name,
    )
    targets = "|".join(f"{t:g}" for t in cfg.targets)
    return replace(result, meta={**result.meta, "rho": f"{cfg.rho:g}", "targets": targets})


def run_moment_mimic(
    mus: list[np.ndarray],
    sigmas: list[np.ndarray],
    n: tuple[int, ...],
    distribution: str,
    variant: McvVariant,
    tests: tuple[str, ...],
    alpha: float = 0.05,
    replicates: int = 1000,
    resamples: int = 500,
    target_kind: str = "c",
    mc_draws: int = 100_000,
    seed: int = 0,
    workers: int | None = None,
    name: str = "mimic",
) -> ScenarioResult:
    """Size/power study at user-supplied per-group means and covariances.

    Identical groups make this a size study, differing groups a power study.
    The settings ScenarioConfig also checks (``_check_settings``), the
    shapes and the finiteness of the moments are checked before any
    replicate runs.
    """
    start = time.perf_counter()
    if not len(mus) == len(sigmas) == len(n):
        raise ValueError("mus, sigmas, and n must describe the same number of groups")
    specs = _check_settings(n, distribution, target_kind, tests, alpha, replicates, resamples, mc_draws, seed)
    mus = [np.asarray(m, dtype=float).reshape(-1) for m in mus]
    sigmas = [np.asarray(s, dtype=float) for s in sigmas]
    d = mus[0].size
    if any(m.size != d for m in mus) or any(s.shape != (d, d) for s in sigmas):
        raise ValueError(f"every mean needs length d={d} and every covariance shape ({d}, {d})")
    if not all(np.isfinite(a).all() for a in mus + sigmas):
        raise ValueError("means and covariances must be finite")
    es = _EngineSpec(
        mus=tuple(mus),
        sigma_roots=tuple(sym_sqrt(s) for s in sigmas),
        n=tuple(int(v) for v in n),
        distribution=distribution,
        variant=McvVariant(variant),
        alpha=alpha,
        resamples=resamples,
        mc_draws=mc_draws,
        seed=seed,
        specs=specs,
    )
    per_rep = _run_engine(es, replicates, workers)
    meta = {
        "scenario": name,
        "k": len(es.n),
        "d": d,
        "n_per_group": "|".join(str(v) for v in es.n),
        "distribution": distribution,
        "rho": "",
        "variant": es.variant.value,
        "targets": "",
        "alpha": f"{alpha:g}",
        "seed": seed,
        "replicates": replicates,
        "resamples": resamples,
    }
    return _aggregate(meta, specs, per_rep, alpha, time.perf_counter() - start)


def tidy_rows(result: ScenarioResult) -> list[dict]:
    """One dict per scenario x test, ready for CSV (no wall-clock, stable order)."""
    lo95, hi95 = band_bounds(result.alpha, max(result.replicates_run, 1), 0.95)
    lo99, hi99 = band_bounds(result.alpha, max(result.replicates_run, 1), 0.99)
    rows = []
    for oc in result.outcomes:
        family, _, kind = oc.test.partition(":")
        prop = oc.proportion
        rows.append(
            {
                **result.meta,
                **vars(oc),
                "test": family,
                "target": kind,
                "proportion": f"{prop:.6f}" if not math.isnan(prop) else "",
                "in_band95": str(lo95 <= prop <= hi95).lower() if not math.isnan(prop) else "",
                "in_band99": str(lo99 <= prop <= hi99).lower() if not math.isnan(prop) else "",
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Presets reproducing the size/power protocol at various scales

_SIZE_TESTS = (
    "perm_wald:c",
    "perm_wald:b",
    "boot_wald:c",
    "boot_wald:b",
    "boot_mct:c",
    "boot_mct:b",
)


def _protocol_cell(
    name: str,
    variant: McvVariant,
    targets: tuple[float, ...],
    n_i: int,
    rho: float = 0.1,
    distribution: str = "normal",
    replicates: int = 1000,
    resamples: int = 500,
    seed: int = 2023,
) -> ScenarioConfig:
    return ScenarioConfig(
        name=name,
        k=4,
        d=5,
        n=(n_i,) * 4,
        distribution=distribution,
        rho=rho,
        mu=PRESET_MU_5D,
        targets=targets,
        variant=variant,
        target_kind="c",
        alpha=0.05,
        replicates=replicates,
        resamples=resamples,
        seed=seed,
        tests=_SIZE_TESTS,
    )


def preset_configs(name: str) -> list[ScenarioConfig]:
    """Named scenario lists; 'small' presets are desk scale, 'full' the whole grid."""
    if name == "paper-size-small":
        return [_protocol_cell("size-vv-n30-c0.5-rho0.1", McvVariant.VV, (0.5,) * 4, 30)]
    if name == "paper-power-small":
        return [
            _protocol_cell("power-vv-n50-c0.7-rho0.1", McvVariant.VV, (0.5, 0.5, 0.5, 0.7), 50)
        ]
    if name == "paper-size-nightly":
        return [
            _protocol_cell(f"size-{v.value}-n30-c0.5-rho0.1", v, (0.5,) * 4, 30)
            for v in McvVariant
        ] + [
            _protocol_cell(f"power-{v.value}-n50-c0.7-rho0.1", v, (0.5, 0.5, 0.5, 0.7), 50)
            for v in McvVariant
        ]
    if name == "paper-size-full":
        cells = []
        for variant in McvVariant:
            for dist in DISTRIBUTIONS:
                for rho in (0.1, 0.4, 0.7):
                    for level in (0.1, 0.5, 1.0, 1.5):
                        for n_i in (30, 50, 70, 100, 150, 200):
                            cells.append(
                                replace(
                                    _protocol_cell(
                                        f"size-{variant.value}-{dist}-rho{rho:g}-c{level:g}-n{n_i}",
                                        variant,
                                        (level,) * 4,
                                        n_i,
                                        rho=rho,
                                        distribution=dist,
                                        replicates=1000,
                                        resamples=1000,
                                    ),
                                    tests=_SIZE_TESTS + ("asym_wald:c", "asym_wald:b", "asym_mct:c", "asym_mct:b"),
                                )
                            )
        return cells
    if name == "paper-power-full":
        layouts = {
            0.1: (0.1, 0.1, 0.1, 0.15),
            0.5: (0.5, 0.5, 0.5, 0.7),
            1.0: (1.0, 1.0, 1.0, 1.5),
        }
        cells = []
        for variant in McvVariant:
            for dist in DISTRIBUTIONS:
                for rho in (0.1, 0.4, 0.7):
                    for level, targets in layouts.items():
                        for n_i in (30, 50):
                            cells.append(
                                _protocol_cell(
                                    f"power-{variant.value}-{dist}-rho{rho:g}-c{level:g}-n{n_i}",
                                    variant,
                                    targets,
                                    n_i,
                                    rho=rho,
                                    distribution=dist,
                                    replicates=1000,
                                    resamples=1000,
                                )
                            )
        return cells
    raise ValueError(f"unknown preset {name!r}")
