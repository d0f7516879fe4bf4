"""Extreme-value law: CDF/quantile, jitter, ML fitting, run-count estimates."""

import math
import warnings

import numpy as np
import pytest
from scipy import optimize
from scipy import stats as sps

from qevt.errors import DegenerateSamplesError, FitFailureError, InsufficientSamplesError
from qevt.gev import (
    _SUPPORT_EPS,
    BASELINE_RTOL,
    EULER_GAMMA,
    FIT_MAXITER,
    FIT_XI_STARTS,
    GUMBEL_XI_EPS,
    MIN_FIT_SAMPLES,
    ROUTE_GEV,
    ROUTE_HIT_RATE,
    STOPS,
    XI_MAX,
    XI_MIN,
    GevParams,
    JitteredSamples,
    _hessian_lanes,
    _newton_lanes,
    _nll_and_grad_lanes,
    estimate_runs,
    estimate_shots,
    fit_gev_minima,
    fit_gev_minima_batch,
    gev_cdf,
    gev_nll,
    gev_pdf,
    jitter,
    required_runs,
    success_probability,
)


def draw_maxima(mu, sigma, xi, size, seed):
    """Independent sample oracle (scipy uses c = -xi)."""
    return sps.genextreme.rvs(c=-xi, loc=mu, scale=sigma, size=size, random_state=seed)


class TestCdf:
    def test_gumbel_at_location(self):
        assert gev_cdf(GevParams(0, 1, 0), 0.0) == pytest.approx(math.exp(-1), abs=1e-12)

    def test_frechet_value(self):
        assert gev_cdf(GevParams(0, 1, 1), 1.0) == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_bounded_support_above_endpoint(self):
        params = GevParams(0, 1, -0.5)       # upper endpoint at mu + sigma/|xi| = 2
        assert gev_cdf(params, 2.5) == 1.0
        assert gev_cdf(params, 1.9) < 1.0

    def test_frechet_below_lower_endpoint(self):
        params = GevParams(0, 1, 0.5)        # lower endpoint at -2
        assert gev_cdf(params, -2.5) == 0.0

    def test_monotone_and_limits(self):
        params = GevParams(1.5, 2.0, 0.2)
        zs = np.linspace(-10, 40, 300)
        values = gev_cdf(params, zs)
        assert np.all(np.diff(values) >= -1e-15)
        assert values[0] == pytest.approx(0.0, abs=1e-6)
        assert values[-1] == pytest.approx(1.0, abs=1e-3)

    def test_matches_scipy(self):
        for mu, sigma, xi in [(0, 1, 0.3), (2, 0.5, -0.2), (-1, 3, 0.0)]:
            params = GevParams(mu, sigma, xi)
            zs = np.linspace(mu - 2 * sigma, mu + 5 * sigma, 50)
            ours = gev_cdf(params, zs)
            theirs = sps.genextreme.cdf(zs, c=-xi, loc=mu, scale=sigma)
            assert np.allclose(ours, theirs, atol=1e-10)

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            GevParams(0, 0, 0)


class TestJitter:
    def test_delta_is_smallest_nonzero_gap(self):
        smoothed = jitter([-3.0, -2.5, -2.5, -1.0], seed=1)
        assert smoothed.delta == pytest.approx(0.5)

    def test_identical_values_degenerate(self):
        with pytest.raises(DegenerateSamplesError):
            jitter([5.0, 5.0, 5.0], seed=0)

    def test_perturbation_bounded_by_half_delta(self):
        original = np.array([-3.0, -2.5, -2.5, -1.0])
        smoothed = jitter(original, seed=7)
        assert np.all(np.abs(smoothed.values - original) < 0.25)

    def test_deterministic(self):
        values = [1.0, 2.0, 2.5, 4.0]
        assert np.array_equal(jitter(values, seed=3).values, jitter(values, seed=3).values)


class TestFit:
    def test_gumbel_recovery(self):
        maxima = draw_maxima(0.0, 1.0, 0.0, 10_000, seed=1)
        fitted = fit_gev_minima(jitter(-maxima, seed=2))
        assert fitted.mu == pytest.approx(0.0, abs=0.05)
        assert fitted.sigma == pytest.approx(1.0, abs=0.05)
        assert fitted.xi == pytest.approx(0.0, abs=0.05)

    def test_frechet_recovery(self):
        maxima = draw_maxima(0.0, 1.0, 0.2, 10_000, seed=3)
        fitted = fit_gev_minima(jitter(-maxima, seed=4))
        assert fitted.xi == pytest.approx(0.2, abs=0.05)

    def test_location_equivariance(self):
        maxima = draw_maxima(1.0, 2.0, 0.1, 3_000, seed=5)
        base = fit_gev_minima(jitter(-maxima, seed=6))
        shifted = fit_gev_minima(jitter(-maxima - 7.5, seed=6))
        # shifting minima by -7.5 shifts the negated-domain location by +7.5
        assert shifted.mu - base.mu == pytest.approx(7.5, abs=1e-3)
        assert shifted.sigma == pytest.approx(base.sigma, abs=1e-3)
        assert shifted.xi == pytest.approx(base.xi, abs=1e-3)

    def test_requires_twenty_samples(self):
        with pytest.raises(InsufficientSamplesError):
            fit_gev_minima(jitter(np.arange(10.0), seed=0))

    def test_recovery_improves_with_samples(self):
        errors_small, errors_large = [], []
        for seed in range(20):
            for size, sink in ((100, errors_small), (10_000, errors_large)):
                maxima = draw_maxima(0.0, 1.0, 0.1, size, seed=seed)
                fitted = fit_gev_minima(jitter(-maxima, seed=seed + 1))
                sink.append(abs(fitted.xi - 0.1) + abs(fitted.mu) + abs(fitted.sigma - 1.0))
        assert np.median(errors_large) < np.median(errors_small)

    def test_nll_matches_scipy(self):
        maxima = draw_maxima(0.5, 1.5, 0.15, 500, seed=8)
        params = GevParams(0.5, 1.5, 0.15)
        ours = gev_nll(params, maxima)
        theirs = -sps.genextreme.logpdf(maxima, c=-0.15, loc=0.5, scale=1.5).sum()
        assert ours == pytest.approx(theirs, rel=1e-10)

    def test_gradient_matches_finite_differences(self):
        y = draw_maxima(1.0, 2.0, 0.2, 400, seed=7)
        for theta in ([0.8, 1.9, 0.15], [1.1, 2.2, 0.4], [1.0, 2.0, 1e-9]):
            theta = np.array(theta, dtype=float)
            _, grad = _nll_and_grad_lanes(theta[None, :], y[None, :])
            for k in range(3):
                h = 1e-6 * max(1.0, abs(theta[k]))
                tp, tm = theta.copy(), theta.copy()
                tp[k] += h
                tm[k] -= h
                values, _ = _nll_and_grad_lanes(np.stack([tp, tm]), np.stack([y, y]))
                fd = (values[0] - values[1]) / (2 * h)
                # skip comparisons that straddle the Gumbel switch
                if k == 2 and abs(theta[2]) < 1e-5:
                    continue
                assert grad[0, k] == pytest.approx(fd, rel=1e-4, abs=1e-4)


class TestSuccessProbability:
    def test_far_above_mass(self):
        params = GevParams(0, 1, 0.1)
        assert success_probability(params, 1e6) == pytest.approx(1.0, abs=1e-9)

    def test_below_bounded_tail_is_exactly_zero(self):
        params = GevParams(0, 1, -0.5)
        # negated-domain upper endpoint 2 -> minima cannot fall below -2
        assert success_probability(params, -3.0) == 0.0

    def test_matches_monte_carlo(self):
        mu, sigma, xi = 1.0, 2.0, 0.15
        params = GevParams(mu, sigma, xi)
        minima = -draw_maxima(mu, sigma, xi, 100_000, seed=9)
        for y_ideal in (-3.0, -1.0, 0.5):
            empirical = float((minima <= y_ideal).mean())
            assert success_probability(params, y_ideal) == pytest.approx(empirical, abs=0.01)

    def test_negation_coherence_after_fit(self):
        mu, sigma, xi = 0.5, 1.5, -0.1
        fit_minima = -draw_maxima(mu, sigma, xi, 30_000, seed=10)
        held_out = -draw_maxima(mu, sigma, xi, 100_000, seed=11)
        fitted = fit_gev_minima(jitter(fit_minima, seed=12))
        for y_ideal in (-2.0, -0.5, 0.3):
            empirical = float((held_out <= y_ideal).mean())
            assert success_probability(fitted, y_ideal) == pytest.approx(empirical, abs=0.01)


class TestRequiredRuns:
    def test_closed_form_examples(self):
        assert required_runs(0.5, 0.95) == 5
        assert required_runs(0.05, 0.95) == 59

    def test_zero_probability_sentinel(self):
        assert required_runs(0.0, 0.95) == math.inf
        assert required_runs(0.0, 0.5) == math.inf

    def test_certain_success(self):
        assert required_runs(1.0, 0.95) == 1

    def test_high_probability_floors_at_one(self):
        assert required_runs(0.9999, 0.5) == 1

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            required_runs(0.5, 0.0)
        with pytest.raises(ValueError):
            required_runs(0.5, 1.0)

    def test_monotone_in_probability_and_alpha(self):
        probs = [0.01, 0.05, 0.2, 0.5, 0.9]
        runs = [required_runs(p, 0.95) for p in probs]
        assert runs == sorted(runs, reverse=True)
        alphas = [0.5, 0.8, 0.9, 0.95, 0.99]
        runs = [required_runs(0.1, a) for a in alphas]
        assert runs == sorted(runs)


class TestEstimateShots:
    def test_composition(self):
        # p = 0.5 exactly: y_ideal at the negated-domain median, the median
        # of GEV(0, 1, 0) being -log(log 2)
        params = GevParams(0, 1, 0)
        y_ideal = math.log(math.log(2.0))
        est = estimate_shots(params, y_ideal, 0.95, 500)
        assert est.n_evt == 5
        assert est.total_shots == 2500

    def test_alpha_ordering(self):
        params = GevParams(0, 1, 0.1)
        lo = estimate_shots(params, -0.5, 0.90, 100)
        hi = estimate_shots(params, -0.5, 0.95, 100)
        assert lo.n_evt <= hi.n_evt

    def test_infinite_sentinel_propagates(self):
        params = GevParams(0, 1, -0.5)
        est = estimate_shots(params, -5.0, 0.95, 200)
        assert est.success_prob == 0.0
        assert est.n_evt == math.inf
        assert est.total_shots == math.inf


class TestEstimateRuns:
    def test_no_hits_is_the_fitted_estimate(self):
        params = GevParams(0, 1, 0.1)
        minima = np.linspace(1.0, 3.0, 50)          # every run above y_ideal = 0.5
        est = estimate_runs(minima, params, 0.5, 0.95, 100)
        assert est == estimate_shots(params, 0.5, 0.95, 100)
        assert est.route == ROUTE_GEV

    def test_no_hits_keeps_unreachable_sentinel(self):
        params = GevParams(0, 1, -0.5)
        est = estimate_runs(np.arange(40) - 1.0, params, -5.0, 0.95, 200)
        assert est == estimate_shots(params, -5.0, 0.95, 200)
        assert est.success_prob == 0.0
        assert est.n_evt == math.inf
        assert est.total_shots == math.inf

    def test_every_run_hits(self):
        params = GevParams(0, 1, -0.5)
        est = estimate_runs(np.full(30, -2.0), params, -2.0, 0.95, 100)
        assert est.route == ROUTE_HIT_RATE
        assert est.success_prob == 1.0
        assert est.n_evt == 1
        assert est.total_shots == 100
        assert est.fitted_prob == estimate_shots(params, -2.0, 0.95, 100).success_prob

    def test_hit_rate_is_the_success_probability(self):
        minima = np.array([-2.0] * 5 + [-1.0] * 15)
        est = estimate_runs(minima, GevParams(0, 1, 0), -2.0, 0.95, 100)
        assert est.success_prob == 0.25
        assert est.n_evt == required_runs(0.25, 0.95)

    def test_minimum_within_tolerance_counts_as_hit(self):
        y_ideal = -2.0
        tol = BASELINE_RTOL * abs(y_ideal)
        minima = np.array([y_ideal + 0.5 * tol, y_ideal + 10.0 * tol, 0.0, 1.0])
        est = estimate_runs(minima, GevParams(0, 1, 0), y_ideal, 0.95, 100)
        assert est.route == ROUTE_HIT_RATE
        assert est.success_prob == 0.25

    @pytest.mark.parametrize("hits", [0, 1, 7, 20, 40])
    def test_monotone_in_alpha(self, hits):
        minima = np.array([-2.0] * hits + [-1.0] * (40 - hits))
        params = GevParams(1.0, 0.5, 0.1)
        alphas = [0.5, 0.8, 0.9, 0.95, 0.99, 0.999]
        runs = [estimate_runs(minima, params, -2.0, a, 100).n_evt for a in alphas]
        assert runs == sorted(runs)


def test_pdf_integrates_to_cdf():
    params = GevParams(0.3, 1.2, -0.2)
    zs = np.linspace(-3, 6, 20_000)
    pdf = gev_pdf(params, zs)
    integral = np.trapezoid(pdf, zs)
    assert integral == pytest.approx(1.0, abs=1e-3)


# -- the scipy L-BFGS-B fit that the Newton lanes are judged against -------

# the graded support penalty that lets L-BFGS-B start outside the support
# and be pushed back into it
_PENALTY = 1e8


def scalar_nll_and_grad(theta: np.ndarray, y: np.ndarray):
    """The one-lane likelihood as first written, with a support penalty in
    place of +inf: the objective of the scipy reference fit."""
    mu, sigma, xi = theta
    m = y.size
    if sigma <= 0.0:
        return _PENALTY * (1.0 + abs(sigma)), np.array([0.0, -_PENALTY, 0.0])
    u = (y - mu) / sigma
    if abs(xi) < GUMBEL_XI_EPS:
        e = np.exp(-u)
        nll = m * np.log(sigma) + u.sum() + e.sum()
        dmu = (-m + e.sum()) / sigma
        dsigma = (m - u.sum() + (u * e).sum()) / sigma
        dxi = (u - 0.5 * u * u * (1.0 - e)).sum()
        return nll, np.array([dmu, dsigma, dxi])
    t = 1.0 + xi * u
    bad = t <= _SUPPORT_EPS
    if bad.any():
        viol = (_SUPPORT_EPS - t[bad]).sum()
        f = _PENALTY * (1.0 + viol)
        g = _PENALTY * np.array(
            [
                (xi / sigma) * bad.sum(),
                (xi / sigma) * u[bad].sum(),
                -u[bad].sum(),
            ]
        )
        return f, g
    logt = np.log(t)
    w = np.exp(np.minimum(-logt / xi, 500.0))
    inv_t = 1.0 / t
    nll = m * np.log(sigma) + (1.0 + 1.0 / xi) * logt.sum() + w.sum()
    s1 = inv_t.sum()
    s2 = (u * inv_t).sum()
    sw1 = (w * inv_t).sum()
    sw2 = (w * u * inv_t).sum()
    dmu = (-(1.0 + xi) * s1 + sw1) / sigma
    dsigma = (m - (1.0 + xi) * s2 + sw2) / sigma
    dxi = -logt.sum() / xi**2 + (1.0 + 1.0 / xi) * s2 + (w * logt).sum() / xi**2 - sw2 / xi
    grad = np.array([dmu, dsigma, dxi])
    if not (np.isfinite(nll) and np.all(np.isfinite(grad))):
        return _PENALTY * 2.0, np.zeros(3)
    return nll, grad


def inside_support(params: GevParams, y: np.ndarray) -> bool:
    if abs(params.xi) < GUMBEL_XI_EPS:
        return True
    return bool(np.all(1.0 + params.xi * (y - params.mu) / params.sigma > 0.0))


def reference_fit(samples: JitteredSamples):
    """The multi-start fit as a loop of ``scipy.optimize.minimize`` calls,
    the starts ranked by ``gev_nll`` at each returned point; returns the
    GevParams or the exception the fit raises."""
    values = np.asarray(samples.values, dtype=np.float64)
    if values.size < MIN_FIT_SAMPLES:
        return InsufficientSamplesError("too few samples")
    y = -values
    spread = float(y.std(ddof=1))
    if spread == 0.0:
        return DegenerateSamplesError("samples have zero variance")
    sigma0 = spread * math.sqrt(6.0) / math.pi
    mu0 = float(y.mean()) - EULER_GAMMA * sigma0
    bounds = [(None, None), (1e-8 * sigma0, None), (XI_MIN, XI_MAX)]
    results = []
    for idx, xi0 in enumerate(FIT_XI_STARTS):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            res = optimize.minimize(
                scalar_nll_and_grad, np.array([mu0, sigma0, xi0]), args=(y,), jac=True,
                method="L-BFGS-B", bounds=bounds, options={"maxiter": FIT_MAXITER},
            )
        if np.all(np.isfinite(res.x)):
            params = GevParams(*map(float, res.x))
            nll = gev_nll(params, y)
            if math.isfinite(nll):
                results.append((nll, idx, params))
    if not results:
        return FitFailureError("failed from every start")
    return min(results, key=lambda t: (t[0], t[1]))[2]


# levels and weights of the run-minimum law behind the benchmark's
# sample-size pool: one atom holds more than half the mass
ATOM_LEVELS = np.array([-0.1898, -0.1753, -0.1292, -0.1131, -0.1090, -0.1022, -0.0959,
                        -0.0918, -0.0802])
ATOM_WEIGHTS = np.array([559, 247, 109, 48, 21, 9, 4, 2, 1]) / 1000.0


def atom_heavy_samples(n, count, seed):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        draw = rng.choice(ATOM_LEVELS, size=n, p=ATOM_WEIGHTS)
        if np.unique(draw).size > 1:
            out.append(jitter(draw, seed=1000 * seed + i))
    return out


def start_points(samples: JitteredSamples) -> tuple:
    """The lanes fit_gev_minima_batch builds for one sample: its starts and maxima."""
    y = -np.asarray(samples.values)
    sigma0 = float(y.std(ddof=1)) * math.sqrt(6.0) / math.pi
    mu0 = float(y.mean()) - EULER_GAMMA * sigma0
    x0 = np.array([(mu0, sigma0, xi0) for xi0 in FIT_XI_STARTS])
    return x0, np.tile(y, (len(FIT_XI_STARTS), 1))


def assert_same_fits(got, want):
    assert len(got) == len(want)
    for k, (a, b) in enumerate(zip(got, want)):
        if isinstance(b, Exception):
            assert type(a) is type(b), (k, a, b)
        else:
            assert isinstance(a, GevParams) and a == b, (k, a, b)


class TestBatchFitMatchesScipy:
    """The lockstep Newton fit reaches scipy L-BFGS-B's likelihood on regular
    samples, stops inside the support on atom-heavy ones, and fits every
    sample of a batch as it fits that sample alone."""

    @pytest.mark.parametrize("n", [20, 40, 60])
    def test_atom_heavy_pools(self, n):
        samples = atom_heavy_samples(n, 12, seed=n)
        got = fit_gev_minima_batch(samples)
        for fitted, smoothed in zip(got, samples):
            y = -smoothed.values
            assert isinstance(fitted, GevParams)
            assert math.isfinite(gev_nll(fitted, y)) and inside_support(fitted, y)
            x, f, stop = _newton_lanes(*start_points(smoothed))
            # every lane ends with a recorded reason, and the fit is the
            # lane of least likelihood value
            assert np.all((stop >= 0) & (stop < len(STOPS)))
            assert np.all(np.isfinite(f) == (stop != STOPS.index("start outside the support")))
            best = int(np.argmin(f))
            assert (fitted.mu, fitted.sigma, fitted.xi) == tuple(x[best])
            if fitted.xi <= -1.0:
                assert stop[best] == STOPS.index("xi <= -1")
        assert_same_fits([fit_gev_minima(s) for s in samples[:3]], got[:3])

    @pytest.mark.parametrize("xi", [-0.1, 0.0, 0.2])
    def test_regular_and_gumbel_samples(self, xi):
        samples = [
            jitter(-np.round(draw_maxima(0.0, 1.0, xi, n, seed=n), 3), seed=n)
            for n in (20, 35, 100, 1000, 10_000)
        ]
        # mixed sizes run as one batch, one lockstep per size
        got = fit_gev_minima_batch(samples)
        for fitted, want, smoothed in zip(got, map(reference_fit, samples), samples):
            y = -smoothed.values
            reference = gev_nll(want, y)
            assert gev_nll(fitted, y) <= reference + 1e-9 * abs(reference), (fitted, want)
        assert fit_gev_minima(samples[-1]) == got[-1]

    def test_failures_keep_their_positions(self):
        ok = atom_heavy_samples(20, 2, seed=3)
        nan_lane = JitteredSamples(values=np.r_[np.arange(25.0), np.nan], delta=1.0, seed=0)
        constant = JitteredSamples(values=np.full(30, 2.0), delta=1.0, seed=0)
        short = JitteredSamples(values=np.arange(10.0), delta=1.0, seed=0)
        # finite, but its squared deviations overflow: no start is run, no warning
        huge = JitteredSamples(values=1e300 * (1 + np.arange(30) / 1000), delta=1.0, seed=0)
        samples = [ok[0], nan_lane, constant, ok[1], short, huge]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fit_gev_minima_batch(samples)
        for failed in (got[1], got[5]):
            assert isinstance(failed, FitFailureError)
            assert len(failed.diagnostics) == len(FIT_XI_STARTS)
        assert isinstance(got[2], DegenerateSamplesError)
        assert isinstance(got[4], InsufficientSamplesError)
        assert_same_fits([got[0], got[3]], [fit_gev_minima(ok[0]), fit_gev_minima(ok[1])])
        with pytest.raises(FitFailureError):
            fit_gev_minima(nan_lane)

    def test_empty_batch(self):
        assert fit_gev_minima_batch([]) == []

    def test_lanes_objective_matches_scalar_bitwise(self):
        rng = np.random.default_rng(5)
        y = rng.gumbel(size=(5, 40))
        theta = np.array(
            [
                [0.1, 1.2, 0.3],       # regular
                [0.0, 1.0, 1e-8],      # Gumbel branch
                [3.0, 0.2, -2.0],      # outside the support
                [0.2, 0.9, -0.25],     # bounded shape, outside the support too
                [0.0, 1.0, 4.9],       # regular, large shape
            ]
        )
        values, grads = _nll_and_grad_lanes(theta, y)
        for k in range(theta.shape[0]):
            with np.errstate(all="ignore"):
                value, grad = scalar_nll_and_grad(theta[k], y[k])
            if value >= _PENALTY:
                # outside the support: +inf where the reference has its penalty
                assert values[k] == np.inf
                continue
            assert values[k] == value
            assert np.array_equal(grads[k], grad)


def central_hessian(theta: np.ndarray, y: np.ndarray, h: float) -> np.ndarray:
    """Central differences of the analytic gradient, column by column."""
    cols = []
    for k in range(3):
        step = np.zeros(3)
        step[k] = h * max(1.0, abs(theta[k]))
        _, grads = _nll_and_grad_lanes(np.stack([theta + step, theta - step]), np.stack([y, y]))
        cols.append((grads[0] - grads[1]) / (2.0 * step[k]))
    return np.column_stack(cols)


@pytest.mark.parametrize("xi, theta", [(0.1, [0.8, 1.9, 0.15]), (0.1, [1.1, 2.2, 0.4]),
                                       (-0.3, [0.9, 1.7, -0.2]), (-0.5, [1.1, 2.2, -0.4])])
def test_hessian_matches_central_differences_on_the_regular_branch(xi, theta):
    y = draw_maxima(1.0, 2.0, xi, 400, seed=7)
    theta = np.array(theta)
    assert inside_support(GevParams(*theta), y)
    got = _hessian_lanes(theta[None, :], y[None, :])[0]
    assert np.allclose(got, got.T)
    assert np.allclose(got, central_hessian(theta, y, 1e-6), rtol=1e-5, atol=1e-5)


@pytest.mark.parametrize("xi", [0.0, 5e-7, -5e-7])
def test_hessian_matches_central_differences_on_the_gumbel_branch(xi):
    y = draw_maxima(1.0, 2.0, 0.0, 400, seed=9)
    theta = np.array([0.9, 2.1, xi])
    got = _hessian_lanes(theta[None, :], y[None, :])[0]
    assert np.allclose(got, got.T)
    # mu and sigma steps stay on the branch; the xi column is the limit
    # xi -> 0, so its steps (1e-4) land on the regular branch either side
    want = central_hessian(theta, y, 1e-6)
    want[:, 2] = central_hessian(theta, y, 1e-4)[:, 2]
    assert np.allclose(got, want, rtol=1e-4, atol=1e-4)
    # and it continues the regular branch's Hessian across the switch
    regular = _hessian_lanes(np.array([[0.9, 2.1, 1e-5]]), y[None, :])[0]
    assert np.allclose(got, regular, rtol=1e-3, atol=1e-3)

