"""Generalized extreme value law and run-count estimation.

Per-run minimum energies are modelled through the standard negation trick:
negate the minima, fit a GEV to the resulting maxima by maximum likelihood,
and answer probability queries about minima through the fitted law,

    P(min <= y) = 1 - G(-y),

where G is the fitted CDF.  All parameters returned by the fitting routines
therefore live in the negated (maxima) domain.

Discrete energy samples are continuized first by adding uniform jitter of
width delta, the smallest nonzero gap between sorted unique values.

Run minima of a discrete spectrum carry an atom: a run either reaches the
baseline energy y_ideal exactly or stops at one of a few levels above it,
and on small instances a third or more of the runs sit on y_ideal.  A
continuous law cannot hold that mass.  Fitted to such samples its shape
falls below -1, where the maximum-likelihood estimate is non-regular (Smith
1985; Coles 2001, section 3.3.2), and its P(min <= y_ideal) can miss the
atom's mass several-fold.  :func:`estimate_runs` therefore takes one of two
routes to the success probability:

* ``hit_rate``: when k >= 1 of the runs meet the baseline, k / runs, the
  maximum-likelihood mass of the atom at y_ideal;
* ``gev``: when no run meets it, the fitted law's tail extrapolated to
  y_ideal (:func:`estimate_shots`), which is what the extreme-value model
  is for.

Fitting is maximum likelihood by a projected Newton iteration from several
shape starts, the Newton-Raphson GEV fit of Hosking (1985, Algorithm AS 215)
with a line search.  :func:`fit_gev_minima_batch` runs every (sample, start)
pair as one lane, and the lanes advance in lockstep: each round evaluates
the analytic Hessian once, vectorised over every lane still running, and
each halving of the line search evaluates the likelihood and its gradient
once for every lane still searching.  A lane's direction is the Newton step
on its Hessian made positive definite (each eigenvalue by its absolute
value, floored); the step is clipped to the bounds (mu free, sigma >= 1e-8
sigma0, XI_MIN <= xi <= XI_MAX) and halved until it passes the Armijo test.
The likelihood is +inf outside the support, so a step that leaves it is
halved like any other that fails the test.  A lane stops on a relative
decrease of at most FIT_FTOL, on a line search that finds no decrease, at
FIT_MAXITER iterations, or at its first iterate with xi <= -1, and records
which (``STOPS``).  The starts are ranked by the likelihood at each lane's
last iterate, ties by start index.  Every step is elementwise, a per-lane
reduction or a per-lane 3x3 ``eigh``, so a lane gets the doubles of a
one-lane fit and a sample's fit does not depend on the batch it runs in.

At xi <= -1 the likelihood has no interior maximum (Smith 1985): it grows
without bound as the upper endpoint mu - sigma / xi closes on the sample
maximum.  A lane that gets there returns its first iterate with xi <= -1:
a finite triple inside the support whose shape says the sample is
non-regular, not a maximum-likelihood estimate.  Run minima with an atom,
above, end there.

The program fits through the batch: the estimate's answer step
(``qevt.pipeline.answer_minima``) fits every draw it is given in one call,
and the sample-size procedure fits each subset size's refits in one call.
:func:`fit_gev_minima` is a batch of one, for a lone sample such as the
sample-size reference fit.  No fit imports scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSamplesError, FitFailureError, InsufficientSamplesError

EULER_GAMMA = 0.5772156649015329

# below this |xi| the Gumbel branch is used to avoid catastrophic cancellation
GUMBEL_XI_EPS = 1e-6

XI_MIN, XI_MAX = -5.0, 5.0

FIT_XI_STARTS = (-0.3, -0.1, 0.0, 0.1, 0.3)

MIN_FIT_SAMPLES = 20

# "at or below the baseline" must not flip on 1e-16 float-path noise when the
# quantum minimum and the SA energy are the same mathematical value
BASELINE_RTOL = 1e-9

ROUTE_HIT_RATE = "hit_rate"
ROUTE_GEV = "gev"

_SUPPORT_EPS = 1e-12


def __getattr__(name: str):
    """``qevt.gev.optimize`` is ``scipy.optimize``, imported on first use.

    Kept only for the benchmark's tracer, which reads and rebinds that name;
    no code in this module uses it.
    """
    if name == "optimize":
        from scipy import optimize

        return optimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class GevParams:
    """Location / scale / shape of a fitted extreme-value law."""

    mu: float
    sigma: float
    xi: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma) and math.isfinite(self.xi)):
            raise ValueError("GEV parameters must be finite")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")


@dataclass(frozen=True, eq=False)
class JitteredSamples:
    """Continuized samples plus the jitter width and seed that produced them."""

    values: np.ndarray
    delta: float
    seed: int

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class ShotEstimate:
    """Required runs and total shots for one (alpha, shots_s) setting.

    ``n_evt`` is ``math.inf`` when the target is unreachable (zero success
    probability); ``total_shots`` mirrors that sentinel.  ``route`` names
    where ``success_prob`` came from (``hit_rate`` or ``gev``) and
    ``fitted_prob`` is the fitted law's own P(min <= y_ideal), whichever
    route was taken.
    """

    success_prob: float
    alpha: float
    n_evt: float
    shots_s: int
    total_shots: float
    route: str
    fitted_prob: float

    def __post_init__(self):
        if not 0.0 <= self.success_prob <= 1.0:
            raise ValueError("success_prob must lie in [0, 1]")
        if not 0.0 <= self.fitted_prob <= 1.0:
            raise ValueError("fitted_prob must lie in [0, 1]")
        if self.route not in (ROUTE_HIT_RATE, ROUTE_GEV):
            raise ValueError(f"unknown route {self.route!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if math.isfinite(self.n_evt) and self.total_shots != self.n_evt * self.shots_s:
            raise ValueError("total_shots must equal n_evt * shots_s")


def gev_cdf(params: GevParams, z):
    """CDF of the GEV law; scalar in, scalar out (arrays broadcast)."""
    z = np.asarray(z, dtype=np.float64)
    mu, sigma, xi = params.mu, params.sigma, params.xi
    u = (z - mu) / sigma
    if abs(xi) < GUMBEL_XI_EPS:
        out = np.exp(-np.exp(-u))
    else:
        t = 1.0 + xi * u
        inside = t > 0.0
        out = np.where(inside, np.exp(-np.power(np.where(inside, t, 1.0), -1.0 / xi)), 0.0)
        # outside the support: CDF is 0 below a lower endpoint (xi > 0),
        # 1 above an upper endpoint (xi < 0)
        out = np.where(inside, out, 0.0 if xi > 0 else 1.0)
    return float(out) if out.ndim == 0 else out


def gev_pdf(params: GevParams, z):
    """Density of the GEV law (0 outside the support)."""
    z = np.asarray(z, dtype=np.float64)
    mu, sigma, xi = params.mu, params.sigma, params.xi
    u = (z - mu) / sigma
    if abs(xi) < GUMBEL_XI_EPS:
        out = np.exp(-u - np.exp(-u)) / sigma
    else:
        t = 1.0 + xi * u
        inside = t > 0.0
        ts = np.where(inside, t, 1.0)
        w = np.power(ts, -1.0 / xi)
        out = np.where(inside, np.power(ts, -1.0 / xi - 1.0) * np.exp(-w) / sigma, 0.0)
    return float(out) if out.ndim == 0 else out


def jitter(energies, seed: int = 0) -> JitteredSamples:
    """Add uniform noise of width delta, the smallest nonzero gap between
    sorted unique values.

    Raises :class:`DegenerateSamplesError` when every value is identical
    (no gap exists, so the samples carry no variability to model).
    """
    values = np.asarray(energies, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("energies must be a non-empty 1-D sequence")
    uniq = np.unique(values)
    if uniq.size < 2:
        raise DegenerateSamplesError(
            f"all {values.size} samples are identical ({uniq[0]!r}); "
            "jitter width is undefined"
        )
    delta = float(np.diff(uniq).min())
    rng = np.random.default_rng(seed)
    noisy = values + rng.uniform(-delta / 2.0, delta / 2.0, size=values.size)
    return JitteredSamples(values=noisy, delta=delta, seed=seed)


def gev_nll(params: GevParams, maxima) -> float:
    """Negative log-likelihood of maxima-domain data under the law (+inf
    outside its support)."""
    theta = np.array([[params.mu, params.sigma, params.xi]])
    value, _ = _nll_and_grad_lanes(theta, np.asarray(maxima, dtype=np.float64)[None, :])
    return float(value[0])


def _nll_and_grad_lanes(theta: np.ndarray, y: np.ndarray):
    """Negative log-likelihood and its gradient for every lane at once.

    Row k of ``theta`` holds (mu, sigma, xi) and row k of ``y`` the maxima of
    lane k.  Returns the values (L,) and gradients (L, 3).

    Each lane gets the doubles a one-lane evaluation would give: the
    elementwise steps are the same IEEE operations on every row, each sum is
    a whole-row sum (the pairwise sum of a 1-D array), and ``xi`` squared is
    ``np.float_power``, the libm ``pow`` of a scalar ``xi ** 2`` (an array's
    ``** 2`` is a multiply, which differs in the last bit for about one
    value in a thousand).  sigma must be positive, as the fit's bounds keep
    it.  A lane with some t = 1 + xi (y - mu) / sigma <= _SUPPORT_EPS off the
    Gumbel branch lies outside the support; it and a lane whose value or
    gradient is not finite get the value +inf and a NaN gradient.
    """
    mu, sigma, xi = theta.T.copy()
    n_lanes, m = y.shape
    f = np.full(n_lanes, np.inf)
    g = np.full((n_lanes, 3), np.nan)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        u = (y - mu[:, None]) / sigma[:, None]
        t = 1.0 + xi[:, None] * u
        gumbel = np.abs(xi) < GUMBEL_XI_EPS
        regular = ~gumbel & (t > _SUPPORT_EPS).all(axis=1)

        if gumbel.any():
            lanes = np.flatnonzero(gumbel)
            ug, sg = u[lanes], sigma[lanes]
            e = np.exp(-ug)
            su, se = ug.sum(axis=1), e.sum(axis=1)
            f[lanes] = m * np.log(sg) + su + se
            g[lanes, 0] = (-m + se) / sg
            g[lanes, 1] = (m - su + (ug * e).sum(axis=1)) / sg
            # exact limit of the shape derivative as xi -> 0, keeps the switch smooth
            g[lanes, 2] = (ug - 0.5 * ug * ug * (1.0 - e)).sum(axis=1)

        if regular.any():
            lanes = np.flatnonzero(regular)
            ur, tr, sr, xr = u[lanes], t[lanes], sigma[lanes], xi[lanes]
            logt = np.log(tr)
            # cap the exponent: far-off iterates would overflow, and a huge
            # finite value turns the line search back just as well
            w = np.exp(np.minimum(-logt / xr[:, None], 500.0))
            inv_t = 1.0 / tr
            slog = logt.sum(axis=1)
            s1 = inv_t.sum(axis=1)
            s2 = (ur * inv_t).sum(axis=1)
            sw1 = (w * inv_t).sum(axis=1)
            sw2 = (w * ur * inv_t).sum(axis=1)
            xi_sq = np.float_power(xr, 2)
            value = m * np.log(sr) + (1.0 + 1.0 / xr) * slog + w.sum(axis=1)
            grad = np.stack(
                [
                    (-(1.0 + xr) * s1 + sw1) / sr,
                    (m - (1.0 + xr) * s2 + sw2) / sr,
                    -slog / xi_sq + (1.0 + 1.0 / xr) * s2 + (w * logt).sum(axis=1) / xi_sq
                    - sw2 / xr,
                ],
                axis=1,
            )
            finite = np.isfinite(value) & np.isfinite(grad).all(axis=1)
            f[lanes] = np.where(finite, value, np.inf)
            g[lanes] = grad
    return f, g


def _hessian_lanes(theta: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Hessian (L, 3, 3) of the negative log-likelihood of every lane, at
    points inside the support.

    With u = (y - mu) / sigma, t = 1 + xi u, a = 1 / t and w = t^(-1/xi),
    one maximum contributes log sigma + log t - log w + w, and with
    p = a / sigma, v = u a, c = w - 1 - xi, b = w + xi c and
    r = d(log w)/d(xi) = (log t / xi - v) / xi its second derivatives are

        mu mu:    p^2 b                  mu xi:    p (w r - 1 - v c)
        mu sigma: u p^2 b - c p / sigma  sigma xi: u p (w r - 1 - v c)
        sigma sigma: u^2 p^2 b - 2 c u p / sigma - 1 / sigma^2
        xi xi:    w r^2 + (c v^2 - 2 (w - 1) r) / xi.

    The Gumbel branch (|xi| < GUMBEL_XI_EPS) takes their limits as xi -> 0,
    from the expansion of the contribution to second order in xi.  Every
    entry is a per-lane row sum, as in :func:`_nll_and_grad_lanes`.
    """
    mu, sigma, xi = theta.T.copy()
    n_lanes, m = y.shape
    # per lane: mu mu, mu sigma, sigma sigma (less m / sigma^2), mu xi,
    # sigma xi, xi xi
    sums = np.empty((n_lanes, 6))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        u = (y - mu[:, None]) / sigma[:, None]
        gumbel = np.abs(xi) < GUMBEL_XI_EPS

        if gumbel.any():
            lanes = np.flatnonzero(gumbel)
            ug, sg = u[lanes], sigma[lanes, None]
            e = np.exp(-ug)
            dx = (1.0 - ug + e * ug * (1.0 - 0.5 * ug)) / sg
            u2 = ug * ug
            sums[lanes] = np.stack(
                [e / sg**2, (1.0 - e + ug * e) / sg**2, (2.0 * ug * (1.0 - e) + u2 * e) / sg**2,
                 -dx, -ug * dx, -u2 + u2 * ug * (2.0 / 3.0)
                 + e * u2 * (0.25 * u2 - ug * (2.0 / 3.0))],
                axis=1,
            ).sum(axis=2)

        if not gumbel.all():
            lanes = np.flatnonzero(~gumbel)
            ur, sr, xr = u[lanes], sigma[lanes, None], xi[lanes, None]
            # log1p keeps log t accurate to the last bit near xi = 0, where r
            # and the xi xi entry cancel to O(xi) of their terms
            logt = np.log1p(xr * ur)
            a = 1.0 / (1.0 + xr * ur)
            w = np.exp(np.minimum(-logt / xr, 500.0))
            p, v = a / sr, ur * a
            c = w - 1.0 - xr
            r = (logt / xr - v) / xr
            pb = p * p * (w + xr * c)
            cp = c * p / sr
            q = p * (w * r - 1.0 - v * c)
            sums[lanes] = np.stack(
                [pb, ur * pb - cp, ur * (ur * pb - 2.0 * cp), q, ur * q,
                 w * r * r + (c * v * v - 2.0 * (w - 1.0) * r) / xr],
                axis=1,
            ).sum(axis=2)
    h = sums[:, [0, 1, 3, 1, 2, 4, 3, 4, 5]].reshape(-1, 3, 3)
    h[:, 1, 1] -= m / sigma**2
    return h


FIT_MAXITER = 200
# the relative decrease that ends a lane: scipy L-BFGS-B's default factr * eps
FIT_FTOL = 2.2204460492503131e-09
# Armijo's sufficient-decrease share, halvings per line search, and the
# floor on a Hessian eigenvalue as a share of the lane's largest
_ARMIJO = 1e-4
_MAX_HALVINGS = 30
_EIG_FLOOR = 1e-10

# why a lane stopped, indexed by the codes _newton_lanes records
STOPS = ("converged", "no decrease", "FIT_MAXITER iterations", "xi <= -1",
         "start outside the support")
_CONVERGED, _NO_DECREASE, _MAXITER, _NON_REGULAR, _START_OUTSIDE = range(len(STOPS))


def _newton_direction(h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """-H'^-1 g per lane, where H' is H with each eigenvalue by its absolute
    value, floored at _EIG_FLOOR of the largest.  A Hessian that is not
    finite gives a NaN direction, which the line search rejects."""
    lam, vec = np.linalg.eigh(h)
    lam = np.abs(lam)
    lam = np.maximum(lam, _EIG_FLOOR * lam.max(axis=1, keepdims=True))
    coef = (vec * g[:, :, None]).sum(axis=1) / lam
    return -(vec * coef[:, None, :]).sum(axis=2)


def _newton_lanes(x0: np.ndarray, y: np.ndarray):
    """Projected Newton fits of the GEV likelihood from every row of ``x0``.

    Lane k starts at ``x0[k]`` = (mu0, sigma0, xi0) on maxima ``y[k]``, with
    the bounds mu free, sigma >= 1e-8 sigma0, XI_MIN <= xi <= XI_MAX.
    Returns each lane's last iterate (L, 3), the likelihood there (L,) and
    its stop code, an index into STOPS.  A lane whose start lies outside
    the support (likelihood +inf) stops there.  All running lanes take
    their i-th iteration in the same round.
    """
    lower = np.column_stack([np.full(len(x0), -np.inf), 1e-8 * x0[:, 1],
                             np.full(len(x0), XI_MIN)])
    upper = np.array([np.inf, np.inf, XI_MAX])
    x = np.clip(x0, lower, upper)
    f, g = _nll_and_grad_lanes(x, y)
    stop = np.where(np.isfinite(f), -1, _START_OUTSIDE)
    run = np.flatnonzero(stop < 0)
    nit = 0
    while run.size:
        nit += 1
        d = _newton_direction(_hessian_lanes(x[run], y[run]), g[run])
        f_old, step, search = f[run], 1.0, np.arange(run.size)
        for _ in range(_MAX_HALVINGS):
            lanes = run[search]
            trial = np.clip(x[lanes] + step * d[search], lower[lanes], upper)
            f_new, g_new = _nll_and_grad_lanes(trial, y[lanes])
            slope = np.minimum(((trial - x[lanes]) * g[lanes]).sum(axis=1), 0.0)
            ok = f_new <= f[lanes] + _ARMIJO * slope
            x[lanes[ok]], f[lanes[ok]], g[lanes[ok]] = trial[ok], f_new[ok], g_new[ok]
            search, step = search[~ok], 0.5 * step
            if not search.size:
                break
        f_now = f[run]
        scale = np.maximum(np.maximum(np.abs(f_old), np.abs(f_now)), 1.0)
        codes = np.select(
            [np.isin(np.arange(run.size), search), x[run, 2] <= -1.0,
             f_old - f_now <= FIT_FTOL * scale, nit >= FIT_MAXITER],
            [_NO_DECREASE, _NON_REGULAR, _CONVERGED, _MAXITER],
            -1,
        )
        stop[run] = codes
        run = run[codes < 0]
    return x, f, stop


def fit_gev_minima_batch(samples_list) -> list:
    """:func:`fit_gev_minima` of every entry of ``samples_list`` in one batch.

    Returns, per entry, its :class:`GevParams` or the
    :class:`~qevt.errors.QevtError` that :func:`fit_gev_minima` would raise
    for it.  Every (sample, start) pair of FIT_XI_STARTS is one lane of
    :func:`_newton_lanes`, and samples of one size share the lockstep, so
    a bootstrap's refits cost one vectorised evaluation per round instead of
    one per start.  A lane's doubles do not depend on the other lanes, so
    each entry is exactly the fit of that sample alone.
    """
    results: list = [None] * len(samples_list)
    by_size: dict[int, list] = {}
    for i, samples in enumerate(samples_list):
        values = np.asarray(samples.values, dtype=np.float64)
        if values.size < MIN_FIT_SAMPLES:
            results[i] = InsufficientSamplesError(
                f"need at least {MIN_FIT_SAMPLES} samples for a stable fit, got {values.size}"
            )
            continue
        y = -values
        spread = float(y.std(ddof=1))
        if spread == 0.0:
            results[i] = DegenerateSamplesError("samples have zero variance")
            continue
        by_size.setdefault(y.size, []).append((i, y, spread))

    n_starts = len(FIT_XI_STARTS)
    for entries in by_size.values():
        x0, ys = [], []
        for _, y, spread in entries:
            sigma0 = spread * math.sqrt(6.0) / math.pi
            mu0 = float(y.mean()) - EULER_GAMMA * sigma0
            for xi0 in FIT_XI_STARTS:
                x0.append((mu0, sigma0, xi0))
                ys.append(y)
        x, f, stop = _newton_lanes(np.array(x0), np.array(ys))
        for s, (i, _, _) in enumerate(entries):
            lanes = slice(s * n_starts, (s + 1) * n_starts)
            results[i] = _best_start(x[lanes], f[lanes], stop[lanes])
    return results


def _best_start(x: np.ndarray, f: np.ndarray, stop: np.ndarray):
    """The start whose last iterate has the least likelihood value, ties by
    start index, or the :class:`FitFailureError` when no start ended finite
    (every start outside the support, or data that are not finite)."""
    if not np.isfinite(f).any():
        return FitFailureError(
            f"GEV fit failed from all {len(FIT_XI_STARTS)} starts",
            diagnostics=[f"start xi={xi0}: {STOPS[code]} (fun={fun})"
                         for xi0, code, fun in zip(FIT_XI_STARTS, stop, f)],
        )
    best = x[int(np.argmin(f))]
    return GevParams(mu=float(best[0]), sigma=float(best[1]), xi=float(best[2]))


def fit_gev_minima(samples: JitteredSamples) -> GevParams:
    """Maximum-likelihood GEV parameters for block minima.

    The samples are negated and the GEV of the resulting maxima fitted;
    the returned parameters describe that negated domain (use
    :func:`success_probability` for queries about the original minima).

    Initialization is Gumbel method-of-moments on the negated data, with
    projected Newton multi-starts over shape values FIT_XI_STARTS, ranked
    by the likelihood at each start's last iterate, ties by start index.
    At xi <= -1 that iterate is the first one past -1 (module docstring).

    A batch of one for :func:`fit_gev_minima_batch`, so both take one path.
    """
    result = fit_gev_minima_batch([samples])[0]
    if isinstance(result, Exception):
        raise result
    return result


def success_probability(params: GevParams, y_ideal: float) -> float:
    """P(per-run minimum <= y_ideal) under the fitted (negated-domain) law."""
    return 1.0 - gev_cdf(params, -y_ideal)


def required_runs(success_prob: float, alpha: float):
    """Smallest run count giving at least one success with confidence alpha.

    ceil(log(1-alpha) / log(1-p)); 1 when a single run already suffices,
    ``math.inf`` when the success probability is zero.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if not 0.0 <= success_prob <= 1.0:
        raise ValueError(f"success_prob must lie in [0, 1], got {success_prob}")
    if success_prob == 0.0:
        return math.inf
    if success_prob == 1.0:
        return 1
    ratio = math.log(1.0 - alpha) / math.log(1.0 - success_prob)
    return max(1, math.ceil(ratio))


def _shot_estimate(p: float, alpha: float, shots_s: int, route: str, fitted_prob: float):
    n_evt = required_runs(p, alpha)
    total = n_evt * shots_s if math.isfinite(n_evt) else math.inf
    return ShotEstimate(
        success_prob=p, alpha=alpha, n_evt=n_evt, shots_s=shots_s, total_shots=total,
        route=route, fitted_prob=fitted_prob,
    )


def estimate_shots(params: GevParams, y_ideal: float, alpha: float, shots_s: int) -> ShotEstimate:
    """Bundle success probability, required runs, and total shots."""
    if shots_s < 1:
        raise ValueError("shots_s must be positive")
    p = success_probability(params, y_ideal)
    return _shot_estimate(p, alpha, shots_s, ROUTE_GEV, p)


def meets_baseline(energies, y_ideal: float):
    """Elementwise ``energies <= y_ideal``, up to BASELINE_RTOL."""
    tol = BASELINE_RTOL * max(1.0, abs(y_ideal))
    return np.asarray(energies) <= y_ideal + tol


def count_hits(minima, y_ideal: float) -> int:
    """Number of run minima that meet the baseline."""
    return int(meets_baseline(minima, y_ideal).sum())


def estimate_runs(
    minima, params: GevParams, y_ideal: float, alpha: float, shots_s: int
) -> ShotEstimate:
    """Run-count estimate from the observed run minima and their fitted law.

    With k >= 1 of the runs meeting the baseline the success probability is
    the observed hit rate k / runs (route ``hit_rate``); with none it is the
    fitted law's tail at y_ideal, exactly :func:`estimate_shots` (route
    ``gev``).  See the module docstring for why the fit is not used when
    the runs reach the baseline.
    """
    fitted = estimate_shots(params, y_ideal, alpha, shots_s)
    minima = np.asarray(minima, dtype=np.float64)
    hits = count_hits(minima, y_ideal)
    if hits == 0:
        return fitted
    return _shot_estimate(hits / minima.size, alpha, shots_s, ROUTE_HIT_RATE, fitted.success_prob)
