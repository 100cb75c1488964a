import math
import multiprocessing
import os
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mcvtests import _resampling, sim
from mcvtests.design import centering_matrix, tukey_contrasts
from mcvtests.estimation import VARIANTS, DegeneracyError, McvVariant, mcv, sample_moments
from mcvtests.numkit import make_rng, sym_sqrt
from mcvtests.sim import (
    PRESET_MU_5D,
    TEST_FAMILIES,
    ScenarioConfig,
    band_bounds,
    compound_symmetric,
    generate_sample,
    preset_configs,
    run_moment_mimic,
    run_scenario,
    scale_to_target,
    tidy_rows,
    worker_count,
)
from mcvtests.tests_global import (
    GroupedData,
    Target,
    asymptotic_test,
    bootstrap_test,
    permutation_test,
)
from mcvtests.tests_multiple import asymptotic_mct, bootstrap_mct

ALL_TESTS = tuple(f"{family}:{kind}" for family in TEST_FAMILIES for kind in ("c", "b"))


def tiny_config(**overrides):
    base = dict(
        name="tiny",
        k=3,
        d=2,
        n=(12, 12, 12),
        distribution="normal",
        rho=0.2,
        mu=(2.0, 1.0),
        targets=(0.5, 0.5, 0.5),
        variant=McvVariant.VV,
        target_kind="c",
        alpha=0.05,
        replicates=30,
        resamples=40,
        mc_draws=4000,
        seed=11,
        tests=("asym_wald", "perm_wald", "boot_wald", "boot_mct"),
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestCompoundSymmetric:
    def test_rho_zero_is_identity(self):
        np.testing.assert_array_equal(compound_symmetric(4, 0.0), np.eye(4))

    def test_entries(self):
        m = compound_symmetric(3, 0.4)
        np.testing.assert_allclose(np.diag(m), 1.0)
        off = m[~np.eye(3, dtype=bool)]
        np.testing.assert_allclose(off, 0.4)

    def test_spectrum(self):
        d, rho = 5, 0.7
        eigs = np.sort(np.linalg.eigvalsh(compound_symmetric(d, rho)))
        np.testing.assert_allclose(eigs[:-1], 1.0 - rho, atol=1e-12)
        assert eigs[-1] == pytest.approx(1.0 + (d - 1) * rho)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            compound_symmetric(3, 1.0)
        with pytest.raises(ValueError):
            compound_symmetric(3, -0.6)
        # d=2 tolerates any rho above -1.
        assert compound_symmetric(2, -0.5).shape == (2, 2)


class TestScaleToTarget:
    def test_noop_when_on_target(self):
        mu = np.array([2.0, 1.0])
        sigma = np.eye(2)
        current = mcv(McvVariant.VV, mu, sigma)
        out = scale_to_target(McvVariant.VV, mu, sigma, current)
        np.testing.assert_allclose(out, sigma, rtol=1e-12)

    def test_quadratic_scaling(self):
        mu = np.array([1.0, 0.0])
        sigma = np.eye(2)  # current vv value sqrt(2)
        out = scale_to_target(McvVariant.VV, mu, sigma, math.sqrt(2.0) / 2.0)
        np.testing.assert_allclose(out, 0.25 * sigma, rtol=1e-12)

    def test_exact_for_all_variants(self):
        rng = np.random.default_rng(1)
        for _ in range(8):
            d = int(rng.integers(2, 6))
            mu = rng.normal(size=d)
            while np.abs(mu).min() < 0.2:
                mu = rng.normal(size=d)
            m = rng.normal(size=(d, d + 2))
            sigma = m @ m.T / (d + 2)
            target = float(rng.uniform(0.1, 1.5))
            factors = {}
            for variant in VARIANTS:
                scaled = scale_to_target(variant, mu, sigma, target)
                assert mcv(variant, mu, scaled) == pytest.approx(target, rel=1e-10)
                factors[variant] = scaled[0, 0] / sigma[0, 0]
            # Hitting a common target needs variant-specific factors.
            assert len({round(f, 10) for f in factors.values()}) > 1

    def test_rejects_nonpositive_target(self):
        with pytest.raises(ValueError):
            scale_to_target(McvVariant.VV, np.array([1.0]), np.eye(1), 0.0)


class TestGenerateSample:
    @pytest.mark.parametrize("dist", ["normal", "student5", "chisq10"])
    def test_first_two_moments(self, dist):
        mu = np.array([1.5, -0.5])
        sigma = np.array([[1.0, 0.4], [0.4, 2.0]])
        sample = generate_sample(dist, mu, sigma, 100_000, make_rng(3))
        m = sample_moments(sample)
        # 3 MC standard errors, normal-scale approximations.
        se_mean = np.sqrt(np.diag(sigma) / sample.n)
        np.testing.assert_array_less(np.abs(m.mean - mu), 3.5 * se_mean)
        np.testing.assert_allclose(m.cov, sigma, atol=0.12)

    def test_zero_covariance(self):
        mu = np.array([1.0, 2.0])
        sample = generate_sample("normal", mu, np.zeros((2, 2)), 50, make_rng(4))
        np.testing.assert_allclose(sample.values, np.tile(mu, (50, 1)), atol=1e-12)

    def test_normal_fourth_moment(self):
        sample = generate_sample("normal", np.array([0.0]), np.eye(1), 100_000, make_rng(5))
        m4 = np.mean(sample.values**4)
        se = math.sqrt(96.0 / sample.n)
        assert abs(m4 - 3.0) < 3.0 * se

    def test_unknown_distribution(self):
        with pytest.raises(ValueError, match="unknown distribution"):
            generate_sample("cauchy", np.zeros(1), np.eye(1), 10, make_rng(0))


class TestRunScenario:
    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_alpha_outside_open_unit_interval_is_a_config_error(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            tiny_config(alpha=alpha, tests=("asym_wald", "asym_mct"))

    def test_deterministic_across_runs_and_workers(self):
        cfg = tiny_config(replicates=12, resamples=25)
        r1 = run_scenario(cfg, workers=1)
        r2 = run_scenario(cfg, workers=1)
        r3 = run_scenario(cfg, workers=2)
        assert r1.outcomes == r2.outcomes == r3.outcomes
        assert tidy_rows(r1) == tidy_rows(r3)

    def test_monotone_in_alpha_on_shared_replicates(self):
        props = {}
        for alpha in (0.01, 0.05, 0.2):
            cfg = tiny_config(alpha=alpha, tests=("asym_wald", "perm_wald"), replicates=40)
            res = run_scenario(cfg)
            for oc in res.outcomes:
                props.setdefault(oc.test, []).append(oc.proportion)
        for vals in props.values():
            assert vals == sorted(vals)

    def test_target_suffix_overrides(self):
        cfg = tiny_config(tests=("perm_wald:c", "perm_wald:b"), replicates=8, resamples=15)
        res = run_scenario(cfg)
        assert [oc.test for oc in res.outcomes] == ["perm_wald:c", "perm_wald:b"]

    def test_asymptotic_liberal_where_permutation_holds_level(self):
        # Small groups in higher dimension: the chi-square calibration
        # over-rejects while the permutation test stays near the level.
        cfg = replace(
            preset_configs("paper-size-small")[0],
            replicates=200,
            resamples=100,
            seed=606,
            tests=("asym_wald:c", "perm_wald:c"),
        )
        res = run_scenario(cfg, workers=1)
        props = {oc.test: oc.proportion for oc in res.outcomes}
        assert props["asym_wald:c"] >= 0.07
        assert props["perm_wald:c"] <= 0.085
        assert props["asym_wald:c"] > props["perm_wald:c"]

    def test_tidy_rows_shape(self):
        cfg = tiny_config(replicates=6, resamples=10)
        rows = tidy_rows(run_scenario(cfg))
        assert len(rows) == len(cfg.tests)
        for row in rows:
            assert row["scenario"] == "tiny"
            assert row["n_per_group"] == "12|12|12"
            assert row["in_band95"] in ("true", "false")
            assert 0.0 <= float(row["proportion"]) <= 1.0


class TestRunMomentMimic:
    def test_deterministic(self):
        mus = [np.array([2.0, 1.0]), np.array([2.0, 1.0])]
        sigmas = [np.eye(2), np.eye(2)]
        kwargs = dict(
            n=(15, 15),
            distribution="normal",
            variant=McvVariant.VV,
            tests=("perm_wald",),
            alpha=0.05,
            replicates=10,
            resamples=20,
            seed=5,
        )
        r1 = run_moment_mimic(mus, sigmas, **kwargs)
        r2 = run_moment_mimic(mus, sigmas, **kwargs)
        assert r1.outcomes == r2.outcomes

    def test_unequal_groups_reject_more(self):
        mus = [np.array([2.0, 1.0])] * 2
        base = dict(
            n=(40, 40),
            distribution="normal",
            variant=McvVariant.VV,
            tests=("perm_wald",),
            alpha=0.05,
            replicates=40,
            resamples=60,
            seed=6,
        )
        size = run_moment_mimic(mus, [np.eye(2), np.eye(2)], **base)
        power = run_moment_mimic(mus, [np.eye(2), 6.0 * np.eye(2)], **base)
        assert power.outcomes[0].proportion > size.outcomes[0].proportion

    def test_validates_group_count(self):
        with pytest.raises(ValueError):
            run_moment_mimic([np.ones(2)], [np.eye(2)], n=(10,), distribution="normal",
                             variant=McvVariant.VV, tests=("perm_wald",))

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"resamples": 0}, "resamples"),
            ({"replicates": 0}, "replicates"),
            ({"alpha": 2.0}, "alpha"),
            ({"mus": [np.array([np.nan, 1.0]), np.array([2.0, 1.0])]}, "finite"),
            ({"sigmas": [np.full((2, 2), np.inf), np.eye(2)]}, "finite"),
            ({"mus": [np.ones(3), np.ones(2)]}, "length"),
            ({"sigmas": [np.eye(3), np.eye(2)]}, "shape"),
        ],
    )
    def test_rejects_bad_inputs(self, overrides, match):
        kwargs = dict(
            mus=[np.array([2.0, 1.0])] * 2, sigmas=[np.eye(2)] * 2, n=(10, 10),
            distribution="normal", variant=McvVariant.VV, tests=("perm_wald",),
            replicates=2, resamples=5,
        )
        kwargs.update(overrides)
        with pytest.raises(ValueError, match=match):
            run_moment_mimic(**kwargs)

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"distribution": "cauchy"}, "unknown distribution"),
            ({"n": (1, 10)}, "two observations"),
            ({"target_kind": "x"}, "target_kind"),
            ({"tests": ("perm_wald:x",)}, "target"),
            ({"seed": -1}, "non-negative"),
            ({"mc_draws": 0, "tests": ("asym_mct",)}, "mc_draws"),
        ],
    )
    def test_rejects_bad_settings_before_any_worker_starts(self, pool_builds, overrides, match):
        # The checks ScenarioConfig makes; without them a run would fail, or
        # count degenerate replicates, only inside its replicates.
        kwargs = dict(
            mus=[np.array([2.0, 1.0])] * 2, sigmas=[np.eye(2)] * 2, n=(10, 10),
            distribution="normal", variant=McvVariant.VV, tests=("perm_wald",),
            replicates=4, resamples=5, workers=2,
        )
        kwargs.update(overrides)
        with pytest.raises(ValueError, match=match):
            run_moment_mimic(**kwargs)
        assert pool_builds == []


class TestConfigValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            tiny_config(targets=(0.5, 0.5))  # wrong length
        with pytest.raises(ValueError):
            tiny_config(targets=(0.5, 0.5, -1.0))
        with pytest.raises(ValueError):
            tiny_config(rho=1.0)
        with pytest.raises(ValueError):
            tiny_config(distribution="poisson")
        with pytest.raises(ValueError):
            tiny_config(replicates=0)
        with pytest.raises(ValueError):
            tiny_config(tests=("nonsense",))
        with pytest.raises(ValueError):
            tiny_config(tests=("perm_wald:x",))
        with pytest.raises(ValueError):
            tiny_config(mu=(1.0,))
        with pytest.raises(ValueError, match="finite"):
            tiny_config(mu=(float("nan"), 1.0))
        with pytest.raises(ValueError, match="finite"):
            tiny_config(targets=(0.5, 0.5, float("inf")))

    def test_one_group_is_told_it_needs_two(self):
        with pytest.raises(ValueError, match="at least two groups"):
            tiny_config(k=1, n=(10,), targets=(0.5,))

    def test_band_bounds_match_published_values(self):
        lo95, hi95 = band_bounds(0.05, 1000, 0.95)
        lo99, hi99 = band_bounds(0.05, 1000, 0.99)
        assert (round(lo95, 3), round(hi95, 3)) == (0.036, 0.064)
        assert (round(lo99, 3), round(hi99, 3)) == (0.032, 0.068)


class TestPresets:
    def test_small_presets(self):
        size = preset_configs("paper-size-small")
        power = preset_configs("paper-power-small")
        assert len(size) == len(power) == 1
        assert size[0].targets == (0.5, 0.5, 0.5, 0.5)
        assert power[0].targets == (0.5, 0.5, 0.5, 0.7)
        assert size[0].mu == PRESET_MU_5D
        assert size[0].variant is McvVariant.VV

    def test_nightly_covers_all_variants(self):
        cells = preset_configs("paper-size-nightly")
        assert {c.variant for c in cells} == set(McvVariant)
        assert len(cells) == 8

    def test_full_grids_construct(self):
        assert len(preset_configs("paper-size-full")) == 4 * 3 * 3 * 4 * 6
        assert len(preset_configs("paper-power-full")) == 4 * 3 * 3 * 3 * 2

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset_configs("nope")


_SCIPY_POOL_PROBE = """
import json, sys
import numpy as np
from mcvtests import sim
seen = []

def spy(fn, tasks, workers, chunksize=1):
    seen.append("scipy.special" in sys.modules)
    return [fn(task) for task in tasks]

sim.pool_map = spy
for tests in json.loads(sys.argv[1]):
    sim.run_moment_mimic([np.array([2.0, 1.0])] * 2, [np.eye(2)] * 2, n=(10, 10), distribution="normal",
                         variant="vv", tests=tests, replicates=2, resamples=5, mc_draws=100, workers=2)
print(json.dumps(seen))
"""


class TestWorkerCount:
    @pytest.mark.parametrize("raw", [None, "", "0"])
    def test_unset_defaults_to_one_and_caps_nothing(self, monkeypatch, raw):
        if raw is None:
            monkeypatch.delenv("MCV_THREADS", raising=False)
        else:
            monkeypatch.setenv("MCV_THREADS", raw)
        assert worker_count() == 1
        assert worker_count(4) == 4

    def test_set_is_default_and_cap(self, monkeypatch):
        monkeypatch.setenv("MCV_THREADS", "2")
        assert worker_count() == 2
        assert worker_count(4) == 2
        assert worker_count(1) == 1

    def test_non_integer_is_value_error(self, monkeypatch):
        monkeypatch.setenv("MCV_THREADS", "two")
        with pytest.raises(ValueError, match="MCV_THREADS"):
            worker_count()

    @pytest.mark.parametrize("requested", [0, -3])
    def test_non_positive_request_is_value_error(self, monkeypatch, requested):
        monkeypatch.setenv("MCV_THREADS", "2")
        with pytest.raises(ValueError, match="at least 1"):
            worker_count(requested)

    def test_run_scenario_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="at least 1"):
            run_scenario(tiny_config(replicates=2), workers=0)

    def test_workers_inherit_scipy_special_from_a_run_that_needs_it(self):
        # Only asym_wald's chi-square tail needs scipy.special, so only its
        # run imports it, once, before the pool would fork.
        env = dict(os.environ, PYTHONPATH=str(Path(sim.__file__).parents[1]))
        env.pop("MCV_THREADS", None)
        runs = '[["perm_wald", "asym_mct"], ["asym_wald"]]'
        proc = subprocess.run([sys.executable, "-c", _SCIPY_POOL_PROBE, runs], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["[false,", "true]"]


class TestWorkerPool:
    """One executor per process, reused while the worker count stays the same."""

    CFG = tiny_config(replicates=6, resamples=10, tests=("perm_wald", "boot_mct"))

    def rows(self, workers):
        return tidy_rows(run_scenario(self.CFG, workers=workers))

    def test_consecutive_calls_share_one_pool(self, pool_builds):
        serial = self.rows(1)
        assert pool_builds == []
        assert self.rows(2) == serial
        assert self.rows(2) == serial
        assert len(pool_builds) == 1

    def test_a_new_count_replaces_the_pool(self, pool_builds):
        first = self.rows(2)
        assert self.rows(1) == first  # the serial path leaves the pool alone
        assert self.rows(2) == first
        assert len(pool_builds) == 1
        assert self.rows(3) == first
        assert len(pool_builds) == 2
        with pytest.raises(RuntimeError, match="shutdown"):
            pool_builds[0].submit(os.getpid)

    def test_a_pool_forks_no_more_workers_than_tasks(self, pool_builds):
        run_scenario(replace(self.CFG, replicates=2), workers=4)
        assert len(pool_builds) == 1
        assert _resampling._pool[1] == 2
        assert len(pool_builds[0]._processes) == 2

    def test_a_worker_killed_between_calls_fails_no_call(self, pool_builds, kill_a_worker):
        expected = self.rows(2)
        kill_a_worker(pool_builds[0])
        assert self.rows(2) == expected
        assert len(pool_builds) == 2
        assert self.rows(2) == expected
        assert len(pool_builds) == 2

    def test_a_pool_that_breaks_in_its_first_call_raises(self, pool_builds, monkeypatch):
        monkeypatch.setattr(sim, "_replicate_worker", _die)
        with pytest.raises(BrokenProcessPool):
            self.rows(2)
        assert _resampling._pool is None
        assert len(pool_builds) == 1

    def test_a_forked_child_makes_its_own_pool(self, pool_builds):
        expected = self.rows(2)

        def child():
            ok = self.rows(2) == expected and _resampling._pool[0] == os.getpid()
            sys.exit(0 if ok else 1)

        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        proc.join(timeout=60)
        proc.kill()  # a no-op once it has exited
        proc.join()
        assert proc.exitcode == 0
        assert self.rows(2) == expected
        assert len(pool_builds) == 1  # the child's pool was built in the child

    def test_interpreter_exit_stops_the_workers(self, tmp_path):
        script = tmp_path / "run.py"
        script.write_text(
            "import multiprocessing\n"
            "from mcvtests.estimation import McvVariant\n"
            "from mcvtests.sim import ScenarioConfig, run_scenario\n"
            "cfg = ScenarioConfig(name='exit', k=2, d=2, n=(10, 10), distribution='normal', rho=0.1,\n"
            "                     mu=(2.0, 1.0), targets=(0.5, 0.5), variant=McvVariant.VV,\n"
            "                     replicates=4, resamples=8)\n"
            "run_scenario(cfg, workers=2)\n"
            "print(*(p.pid for p in multiprocessing.active_children()))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(sim.__file__).parents[1]))
        env.pop("MCV_THREADS", None)
        proc = subprocess.run([sys.executable, str(script)], env=env, capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        workers = [int(pid) for pid in proc.stdout.split()]
        assert len(workers) == 2
        deadline = time.monotonic() + 5.0
        while workers and time.monotonic() < deadline:
            workers = [pid for pid in workers if _alive(pid)]
            time.sleep(0.05)
        assert workers == []


def _die(args):
    os._exit(1)


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _engine_spec(k, variant, seed=21):
    """A k-group replicate engine with spread-out group covariances, so tests reject sometimes."""
    roots = tuple(sym_sqrt(s * compound_symmetric(2, 0.2)) for s in np.linspace(1.0, 2.5, k))
    return sim._EngineSpec(
        mus=(np.array([2.0, 1.0]),) * k,
        sigma_roots=roots,
        n=(15,) * k,
        distribution="normal",
        variant=variant,
        alpha=0.1,
        resamples=30,
        mc_draws=2000,
        seed=seed,
        specs=sim._parse_tests(ALL_TESTS, "c"),
    )


def _public_outcome(es, spec, j, arrays, stream):
    """(decision, degenerate resamples) of the public test on one replicate's arrays."""
    k = len(arrays)
    data = GroupedData.from_arrays(arrays)
    target = Target(spec.kind, es.variant)
    h, pairs = centering_matrix(k), tukey_contrasts(k)
    try:
        if spec.family == "asym_wald":
            res = asymptotic_test(target, data, h, es.alpha)
        elif spec.family == "perm_wald":
            res = permutation_test(target, data, h, es.alpha, es.resamples, stream.substream(1))
        elif spec.family == "boot_wald":
            res = bootstrap_test(target, data, h, es.alpha, es.resamples, stream.substream(2))
        elif spec.family == "asym_mct":
            rng = stream.substream(3).substream(j)
            res = asymptotic_mct(target, data, pairs, es.alpha, es.mc_draws, rng)
        else:
            res = bootstrap_mct(target, data, pairs, es.alpha, es.resamples, stream.substream(2))
    except DegeneracyError:
        return None, 0
    decision = res.reject if spec.family.endswith("_wald") else bool(res.decisions.any())
    return decision, res.resamples_degenerate


class TestOneEngine:
    """The simulator's decisions are the public tests' decisions on the same data and streams."""

    @pytest.mark.parametrize("variant", list(McvVariant))
    @pytest.mark.parametrize("k", [3, 4])
    def test_replicate_matches_public_tests(self, k, variant):
        es = _engine_spec(k, variant)
        seen = set()
        for r in range(4):
            stream = make_rng(es.seed, r)
            gen = stream.substream(0).generator()
            arrays = [
                sim._generate_array(es.distribution, es.mus[i], es.sigma_roots[i], es.n[i], gen)
                for i in range(k)
            ]
            got = sim._run_replicate(es, r)
            for j, spec in enumerate(es.specs):
                assert got[spec.ident] == _public_outcome(es, spec, j, arrays, stream), (r, spec.ident)
                seen.add(got[spec.ident][0])
        assert {True, False} <= seen

    # Tidy rows of run_scenario on all ten tests, recorded before the
    # simulator called the shared calibration layer:
    # (test, target, valid_replicates, rejections, degenerate_replicates,
    # degenerate_resamples).
    GOLDEN = {
        "vv": [
            ("asym_wald", "c", 10, 5, 0, 0), ("asym_wald", "b", 10, 7, 0, 0),
            ("perm_wald", "c", 10, 3, 0, 0), ("perm_wald", "b", 10, 4, 0, 0),
            ("boot_wald", "c", 10, 4, 0, 0), ("boot_wald", "b", 10, 6, 0, 0),
            ("asym_mct", "c", 10, 6, 0, 0), ("asym_mct", "b", 10, 7, 0, 0),
            ("boot_mct", "c", 10, 1, 0, 0), ("boot_mct", "b", 10, 6, 0, 0),
        ],
        "rr": [
            ("asym_wald", "c", 10, 5, 0, 0), ("asym_wald", "b", 10, 7, 0, 0),
            ("perm_wald", "c", 10, 3, 0, 0), ("perm_wald", "b", 10, 3, 0, 0),
            ("boot_wald", "c", 10, 1, 0, 4), ("boot_wald", "b", 10, 2, 0, 4),
            ("asym_mct", "c", 10, 4, 0, 0), ("asym_mct", "b", 10, 9, 0, 0),
            ("boot_mct", "c", 10, 0, 0, 4), ("boot_mct", "b", 10, 1, 0, 4),
        ],
    }

    @pytest.mark.parametrize("variant", ["vv", "rr"])
    def test_golden_tidy_rows(self, variant):
        small = {"n": (5, 5, 6)} if variant == "rr" else {}
        cfg = tiny_config(
            variant=McvVariant(variant), targets=(0.5, 0.5, 0.8), replicates=10, resamples=30,
            mc_draws=2000, alpha=0.1, tests=ALL_TESTS, **small,
        )
        rows = tidy_rows(run_scenario(cfg))
        keys = ("test", "target", "valid_replicates", "rejections", "degenerate_replicates",
                "degenerate_resamples")
        assert [tuple(row[key] for key in keys) for row in rows] == self.GOLDEN[variant]
