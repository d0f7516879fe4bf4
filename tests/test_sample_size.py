"""Bootstrap sample-size procedure: reference fit, resample loop, crossings."""

import numpy as np
import pytest
from scipy import stats as sps

from qevt import stats
from qevt.errors import ConfigError, DegenerateSamplesError, EstimationImpossibleError
from qevt.sample_size import (
    FLAG_DEGENERATE_RESAMPLES,
    SampleSizeConfig,
    SampleSizeResult,
    estimate_required_extremes,
    reference_parameters,
)


def gev_pool(mu, sigma, xi, size, seed):
    return sps.genextreme.rvs(c=-xi, loc=mu, scale=sigma, size=size, random_state=seed)


@pytest.fixture(scope="module")
def pool_2000():
    # minima whose negation follows GEV(0, 1, 0.1)
    return -gev_pool(0.0, 1.0, 0.1, 2000, seed=7)


class TestReferenceParameters:
    def test_recovers_known_generator(self):
        pool = -gev_pool(0.0, 1.0, 0.1, 5000, seed=3)
        theta = reference_parameters(pool, seed=1)
        assert theta.mu == pytest.approx(0.0, abs=0.05)
        assert theta.sigma == pytest.approx(1.0, abs=0.05)
        assert theta.xi == pytest.approx(0.1, abs=0.05)

    def test_deterministic(self):
        pool = -gev_pool(0.0, 1.0, 0.0, 1000, seed=5)
        assert reference_parameters(pool, seed=2) == reference_parameters(pool, seed=2)

    def test_constant_pool_degenerate(self):
        with pytest.raises(DegenerateSamplesError):
            reference_parameters(np.full(500, 3.25), seed=0)


class TestConfigValidation:
    def test_n_min_floor(self):
        with pytest.raises(ConfigError):
            SampleSizeConfig(n_min=10, n_max=100)

    def test_range_ordering(self):
        # the regression needs two sizes: an empty range and a one-size grid
        for grid in [dict(n_min=50, n_max=50), dict(n_min=20, n_max=25, stride=100)]:
            with pytest.raises(ConfigError, match="fewer than two sizes"):
                SampleSizeConfig(**grid)

    def test_inner_draws_must_exceed_dimension(self):
        with pytest.raises(ConfigError):
            SampleSizeConfig(inner_draws=3)

    def test_pool_must_exceed_n_max(self, pool_2000):
        cfg = SampleSizeConfig(n_min=20, n_max=2500, inner_draws=8, outer_reps=2, seed=0)
        theta = reference_parameters(pool_2000, seed=0)
        with pytest.raises(ConfigError, match="pool"):
            estimate_required_extremes(pool_2000, cfg, theta)


@pytest.fixture(scope="module")
def small_run(pool_2000):
    cfg = SampleSizeConfig(
        n_min=20, n_max=120, stride=25, inner_draws=12, outer_reps=3,
        seed=11, mvsw_replicates=400,
    )
    theta = reference_parameters(pool_2000, seed=11)
    return cfg, theta, estimate_required_extremes(pool_2000, cfg, theta)


class TestEstimate:
    def test_estimate_in_range_and_is_max_of_crossings(self, small_run):
        cfg, _, result = small_run
        assert cfg.n_min <= result.n_estimate <= cfg.n_max
        assert result.n_estimate == max(result.n_ht2, result.n_mst)

    def test_per_n_p_values_valid(self, small_run):
        _, _, result = small_run
        for record in result.per_n:
            assert 0.0 <= record.mean_p_ht2 <= 1.0
            assert 0.0 <= record.mean_p_mst <= 1.0

    def test_deterministic(self, small_run, pool_2000):
        cfg, theta, result = small_run
        repeat = estimate_required_extremes(pool_2000, cfg, theta)
        assert repeat == result

    def test_serializable(self, small_run):
        _, _, result = small_run
        payload = result.to_dict()
        assert payload["n_estimate"] == result.n_estimate
        assert len(payload["per_n"]) == len(result.per_n)

    def test_all_failures_raise_estimation_impossible(self):
        from qevt.gev import GevParams

        pool = np.full(300, 1.0)
        cfg = SampleSizeConfig(n_min=20, n_max=60, stride=20, inner_draws=8, outer_reps=2, seed=0)
        theta = GevParams(0.0, 1.0, 0.0)
        with pytest.raises(EstimationImpossibleError) as excinfo:
            estimate_required_extremes(pool, cfg, theta)
        # every attempted fit is in the failure table
        assert all(f == a for f, a in excinfo.value.failure_table.values())

    def test_mostly_constant_pool_sets_degenerate_flag(self):
        # 95% one value: many resamples collapse, but some survive
        rng = np.random.default_rng(4)
        pool = np.where(rng.random(600) < 0.95, -1.0, rng.normal(0.0, 0.3, 600))
        cfg = SampleSizeConfig(n_min=20, n_max=80, stride=30, inner_draws=10, outer_reps=2, seed=3)
        from qevt.gev import GevParams

        theta = GevParams(1.0, 0.2, -0.2)
        try:
            result = estimate_required_extremes(pool, cfg, theta)
        except EstimationImpossibleError:
            pytest.skip("all cells failed under this stream; flag path untestable here")
        assert FLAG_DEGENERATE_RESAMPLES in result.flags

    def test_hotelling_line_usually_rises(self, pool_2000):
        # p-values against the reference improve with subset size on healthy pools
        theta = reference_parameters(pool_2000, seed=0)
        rising = 0
        runs = 10
        for seed in range(runs):
            cfg = SampleSizeConfig(
                n_min=20, n_max=120, stride=25, inner_draws=10, outer_reps=2,
                seed=seed, mvsw_replicates=200,
            )
            result = estimate_required_extremes(pool_2000, cfg, theta)
            if result.line_ht2[0] >= 0:
                rising += 1
        print(f"hotelling slope non-negative in {rising}/{runs} runs")
        assert rising >= 0.8 * runs


ATOM_LEVELS = np.array([-12.0, -11.0, -10.5, -9.0, -7.5])


@pytest.mark.parametrize("probs, size, cfg, min_sizes", [
    # the pool and config of SAMPLE_SIZE_SHA256 (tests/test_artifact_bytes.py)
    ([0.88, 0.06, 0.03, 0.02, 0.01], 200,
     SampleSizeConfig(n_min=20, n_max=60, stride=20, inner_draws=10, outer_reps=2, seed=5,
                      mvsw_replicates=200), 2),
    # 97% on one level: the cells take more sizes than the table cache holds
    ([0.97, 0.0075, 0.0075, 0.0075, 0.0075], 300,
     SampleSizeConfig(n_min=20, n_max=80, stride=10, inner_draws=30, outer_reps=8, seed=5,
                      mvsw_replicates=50), 17),
])
def test_each_null_table_is_built_once(monkeypatch, probs, size, cfg, min_sizes):
    pool = np.random.default_rng(5).choice(ATOM_LEVELS, size=size, p=probs)
    tables = stats.mvsw_null_stats
    sizes = set()

    def lookup(m, d, n_replicates, seed):
        sizes.add(m)
        return tables(m, d, n_replicates, seed)

    monkeypatch.setattr(stats, "mvsw_null_stats", lookup)
    tables.cache_clear()
    estimate_required_extremes(pool, cfg, reference_parameters(pool, cfg.seed))
    assert len(sizes) >= min_sizes
    assert tables.cache_info().misses == len(sizes)
