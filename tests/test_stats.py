"""Hotelling T2, Shapiro-Wilk variants, regression and crossing helpers."""

import numpy as np
import pytest
from scipy import stats as sps

from qevt.errors import InsufficientSamplesError, SingularCovarianceError
from qevt.stats import (
    MVSW_BLOCK,
    Crossing,
    _mvsw_statistics,
    _shapiro_w,
    _standardize,
    crossing_sample_size,
    fit_regression_line,
    hotelling_t2,
    mvsw_null_stats,
    shapiro_wilk_multivariate,
)


class TestHotelling:
    def test_exact_mean_gives_zero_statistic(self):
        samples = np.array([[1.0, 2.0], [3.0, 4.0], [2.0, 3.0], [2.0, 3.0]])
        result = hotelling_t2(samples, samples.mean(axis=0))
        assert result.statistic == pytest.approx(0.0, abs=1e-12)
        assert result.p_value == pytest.approx(1.0)

    def test_univariate_reduces_to_squared_t(self):
        xs = np.array([2.1, 1.9, 2.4, 2.0, 1.7, 2.2, 2.3, 1.8, 2.0, 2.1])
        result = hotelling_t2(xs[:, None], [2.0])
        # scalar oracle: t = (mean - mu0) / (s / sqrt(m)); T2 = t^2 = 9/17
        t_stat = (xs.mean() - 2.0) / (xs.std(ddof=1) / np.sqrt(10))
        assert result.statistic == pytest.approx(t_stat**2, abs=1e-12)
        assert result.statistic == pytest.approx(9 / 17, abs=1e-12)
        p_t = 2 * sps.t.sf(abs(t_stat), df=9)
        assert result.p_value == pytest.approx(p_t, abs=1e-12)

    def test_type_one_error_calibrated(self):
        rng = np.random.default_rng(42)
        mu0 = np.zeros(3)
        rejections = 0
        trials = 10_000
        for _ in range(trials):
            x = rng.standard_normal((30, 3))
            if hotelling_t2(x, mu0).p_value < 0.05:
                rejections += 1
        rate = rejections / trials
        print(f"hotelling type-I rate at 0.05: {rate:.4f}")
        assert 0.04 <= rate <= 0.06

    def test_affine_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((40, 3))
        mu0 = np.array([0.1, -0.2, 0.3])
        a = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        b = rng.standard_normal(3)
        base = hotelling_t2(x, mu0).statistic
        transformed = hotelling_t2(x @ a + b, mu0 @ a + b).statistic
        assert transformed == pytest.approx(base, abs=1e-8)

    def test_statistic_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.standard_normal((15, 2))
            assert hotelling_t2(x, rng.standard_normal(2)).statistic >= 0

    def test_singular_covariance_raises(self):
        x = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0], [4.0, 8.0]])
        with pytest.raises(SingularCovarianceError):
            hotelling_t2(x, [0.0, 0.0])

    def test_too_few_samples(self):
        with pytest.raises(InsufficientSamplesError):
            hotelling_t2(np.eye(3), np.zeros(3))


class TestShapiroWilkMultivariate:
    def test_statistic_in_unit_interval(self):
        rng = np.random.default_rng(3)
        result = shapiro_wilk_multivariate(rng.standard_normal((50, 3)), n_replicates=200, seed=0)
        assert 0.0 < result.statistic <= 1.0
        assert 0.0 <= result.p_value <= 1.0

    def test_type_one_error_calibrated(self):
        rng = np.random.default_rng(4)
        rejections = 0
        trials = 500
        for _ in range(trials):
            x = rng.standard_normal((50, 3))
            if shapiro_wilk_multivariate(x, 4000, 99).p_value < 0.05:
                rejections += 1
        rate = rejections / trials
        print(f"multivariate SW type-I rate at 0.05: {rate:.4f}")
        assert 0.03 <= rate <= 0.07

    def test_power_against_skewed_coordinate(self):
        rng = np.random.default_rng(5)
        rejections = 0
        trials = 200
        for _ in range(trials):
            x = rng.standard_normal((100, 3))
            x[:, 0] = rng.exponential(size=100)
            if shapiro_wilk_multivariate(x, 1000, 98).p_value < 0.05:
                rejections += 1
        assert rejections / trials > 0.5

    def test_identical_vectors_singular(self):
        x = np.tile([1.0, 2.0, 3.0], (10, 1))
        with pytest.raises(SingularCovarianceError):
            shapiro_wilk_multivariate(x)

    def test_shift_and_scale_invariance(self):
        # exact invariance class of the Mahalanobis standardization;
        # general affine maps mix the standardized coordinates orthogonally
        # and perturb the averaged W at O(m^-1/2)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((40, 3))
        base = shapiro_wilk_multivariate(x, n_replicates=50, seed=1).statistic
        moved = shapiro_wilk_multivariate(3.7 * x + np.array([1.0, -2.0, 0.5]),
                                          n_replicates=50, seed=1).statistic
        assert moved == pytest.approx(base, abs=1e-9)

    def test_dimension_requirements(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError):
            shapiro_wilk_multivariate(rng.standard_normal((10, 1)))
        with pytest.raises(InsufficientSamplesError):
            shapiro_wilk_multivariate(rng.standard_normal((3, 3)))

    def test_null_table_deterministic(self):
        a = mvsw_null_stats(20, 3, 50, seed=5)
        b = mvsw_null_stats(20, 3, 50, seed=5)
        assert np.array_equal(a, b)


class TestShapiroKernel:
    """The direct ``swilk`` call is ``sps.shapiro`` bit for bit."""

    @pytest.mark.parametrize("m", [3, 4, 5, 11, 30, 200])
    def test_w_matches_scipy_bitwise(self, m):
        rng = np.random.default_rng(m)
        draws = [
            rng.standard_normal(m),
            rng.exponential(size=m),
            np.round(rng.standard_normal(m), 1),   # ties
            np.r_[np.zeros(m - 1), 1.0],           # one value apart from a tie block
        ]
        for x in draws:
            assert _shapiro_w(x) == sps.shapiro(x).statistic
        # a stack of rows, as the null table calls it
        want = [sps.shapiro(x).statistic for x in draws]
        assert np.array_equal(_shapiro_w(np.array(draws)), want)

    def test_strided_column_matches_scipy_bitwise(self):
        z = _standardize(np.random.default_rng(2).standard_normal((30, 3)))
        for j in range(3):
            assert _shapiro_w(z[:, j]) == sps.shapiro(z[:, j]).statistic

    def test_null_table_matches_a_table_built_with_scipy(self):
        seed = 17
        rng = np.random.default_rng(seed)
        want = []
        for _ in range(1000):
            z = _standardize(rng.standard_normal((30, 3)))
            want.append(np.mean([sps.shapiro(z[:, j]).statistic for j in range(3)]))
        want.sort()
        assert np.array_equal(mvsw_null_stats(30, 3, 1000, seed), np.array(want))


def looped_statistic(x: np.ndarray) -> float:
    """The MVSW statistic of one sample as first written: ``np.cov``, ``eigh``
    and ``np.diag`` whitening, W by ``sps.shapiro`` per column."""
    m, d = x.shape
    cov = np.cov(x, rowvar=False, ddof=1).reshape(d, d)
    vals, vecs = np.linalg.eigh(cov)
    if vals[0] <= 1e-12 * max(vals[-1], 1.0):
        raise SingularCovarianceError("singular")
    z = (x - x.mean(axis=0)) @ (vecs @ np.diag(1.0 / np.sqrt(vals)) @ vecs.T)
    return np.mean([sps.shapiro(z[:, j]).statistic for j in range(d)])


class TestBlockedNullTable:
    """The stacked table is the per-replicate loop's, double for double."""

    @pytest.mark.parametrize("m", [20, 25, 41])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_the_per_replicate_loop(self, m, d):
        # a last block of 5 replicates, shorter than the others
        seed, n_replicates = 100 * m + d, 2 * MVSW_BLOCK + 5
        rng = np.random.default_rng(seed)
        want = np.sort([looped_statistic(rng.standard_normal((m, d)))
                        for _ in range(n_replicates)])
        assert np.array_equal(mvsw_null_stats(m, d, n_replicates, seed), want)

    def test_observed_statistic_matches_the_loop(self):
        rng = np.random.default_rng(8)
        for m in (5, 20, 41):
            x = rng.standard_normal((m, 3)) * [1e-3, 1.0, 50.0] + [3.0, -1.0, 0.0]
            assert shapiro_wilk_multivariate(x).statistic == looped_statistic(x)

    def test_a_singular_matrix_in_a_block_raises(self):
        x = np.random.default_rng(4).standard_normal((MVSW_BLOCK, 20, 3))
        k = MVSW_BLOCK - 5
        x[k, :, 2] = 2.0 * x[k, :, 0]
        with pytest.raises(SingularCovarianceError):
            _mvsw_statistics(x)
        assert _mvsw_statistics(np.delete(x, k, axis=0)).shape == (MVSW_BLOCK - 1,)


class TestRegression:
    def test_exact_line(self):
        xs = np.array([0.0, 1.0, 2.0, 3.0])
        slope, intercept = fit_regression_line(xs, 2 * xs + 1)
        assert slope == pytest.approx(2.0, abs=1e-12)
        assert intercept == pytest.approx(1.0, abs=1e-12)

    def test_constant_ys(self):
        slope, intercept = fit_regression_line([1.0, 2.0, 3.0], [4.0, 4.0, 4.0])
        assert slope == pytest.approx(0.0, abs=1e-12)
        assert intercept == pytest.approx(4.0, abs=1e-12)

    def test_residuals_orthogonal_to_xs(self):
        rng = np.random.default_rng(8)
        xs = rng.uniform(0, 10, 20)
        ys = rng.normal(size=20)
        slope, intercept = fit_regression_line(xs, ys)
        residuals = ys - (slope * xs + intercept)
        assert abs(residuals @ xs) < 1e-9
        assert abs(residuals.sum()) < 1e-9

    def test_identical_xs_rejected(self):
        with pytest.raises(ValueError):
            fit_regression_line([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


class TestCrossing:
    def test_closed_form(self):
        assert crossing_sample_size(0.001, 0.0, 0.05, 10, 200) == Crossing(50, False)

    def test_already_above_at_n_min(self):
        assert crossing_sample_size(0.001, 0.2, 0.05, 10, 200) == Crossing(10, False)

    def test_negative_slope_never_crosses(self):
        assert crossing_sample_size(-0.001, 0.03, 0.05, 10, 200) == Crossing(200, True)

    def test_declining_line_already_above_level(self):
        # the level is met from n_min on (or at least there): answer n_min
        assert crossing_sample_size(-0.0001, 0.5, 0.05, 10, 200) == Crossing(10, False)

    def test_crossing_beyond_range(self):
        assert crossing_sample_size(0.0001, 0.0, 0.05, 10, 200) == Crossing(200, True)

    def test_ceil_applied(self):
        result = crossing_sample_size(0.003, 0.0, 0.05, 10, 200)
        assert result == Crossing(17, False)  # 16.67 rounded up
