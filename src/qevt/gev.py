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

Fitting is maximum likelihood by bounded L-BFGS-B from several shape
starts.  :func:`fit_gev_minima_batch` runs every (sample, start) pair as
one lane with its own state of scipy's L-BFGS-B kernel (``setulb``); the
lanes advance in lockstep and each round evaluates the likelihood once,
vectorised over every lane that asked.  The driver around the kernel is
``scipy.optimize.minimize``'s, step for step (same memory, tolerances,
line-search and iteration limits, one evaluation at the start, none
repeated at an unchanged point), and the vectorised likelihood gives each
lane the doubles of a one-lane evaluation, so a batch returns exactly what
fitting each sample alone through ``minimize`` returns.  That bit-exactness
is the point: with xi < -1 the likelihood is unbounded and the fits move
far under last-bit changes, so a different optimizer would move every
bootstrap triple.  :func:`fit_gev_minima` is a batch of one.

scipy is imported inside the functions that call its kernel, not at module
level: ``scipy.optimize`` takes longer to import than most commands take to
run, and ``qevt --help``, ``generate``, ``solve-sa`` and ``validate`` never
fit.  The first fit in a process pays the import.
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
_PENALTY = 1e8


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
    """Negative log-likelihood of maxima-domain data under the law."""
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
    value in a thousand).  Lanes outside the support take a graded penalty
    computed lane by lane, since its sums run over the violating entries
    only.
    """
    mu, sigma, xi = theta.T.copy()
    n_lanes, m = y.shape
    f = np.empty(n_lanes)
    g = np.empty((n_lanes, 3))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        u = (y - mu[:, None]) / sigma[:, None]
        t = 1.0 + xi[:, None] * u
        scale_bad = sigma <= 0.0
        gumbel = ~scale_bad & (np.abs(xi) < GUMBEL_XI_EPS)
        outside = ~scale_bad & ~gumbel & (t <= _SUPPORT_EPS).any(axis=1)
        regular = ~(scale_bad | gumbel | outside)

        for k in np.flatnonzero(scale_bad):
            f[k] = _PENALTY * (1.0 + abs(sigma[k]))
            g[k] = (0.0, -_PENALTY, 0.0)
        for k in np.flatnonzero(outside):
            # graded penalty whose gradient pushes the support constraint back
            bad = t[k] <= _SUPPORT_EPS
            u_bad = u[k][bad]
            f[k] = _PENALTY * (1.0 + (_SUPPORT_EPS - t[k][bad]).sum())
            ratio = xi[k] / sigma[k]
            g[k] = _PENALTY * np.array([ratio * bad.sum(), ratio * u_bad.sum(), -u_bad.sum()])

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
            # finite value steers the optimizer back just as well
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
            f[lanes] = np.where(finite, value, _PENALTY * 2.0)
            g[lanes] = np.where(finite[:, None], grad, 0.0)
    return f, g


def _support_ok(theta: np.ndarray, y: np.ndarray) -> bool:
    mu, sigma, xi = theta
    if sigma <= 0.0:
        return False
    if abs(xi) < GUMBEL_XI_EPS:
        return True
    return bool(np.all(1.0 + xi * (y - mu) / sigma > 0.0))


# scipy.optimize.minimize(method="L-BFGS-B") defaults, plus FIT_MAXITER
_LBFGSB_MAXCOR = 10
_LBFGSB_FACTR = 2.2204460492503131e-09 / np.finfo(float).eps
_LBFGSB_PGTOL = 1e-5
_LBFGSB_MAXLS = 20
_LBFGSB_MAXFUN = 15000
FIT_MAXITER = 200

# L-BFGS-B task codes (task[0] states, task[1] stop reasons)
_TASK_NEW_X, _TASK_FG, _TASK_STOP = 1, 3, 5
_STOP_MAXFUN, _STOP_MAXITER = 502, 504

# setulb's bound kind per parameter: mu none, sigma lower only, xi both
_BOUND_KINDS = np.array([0, 1, 2], dtype=np.int32)


class _Lane:
    """One L-BFGS-B run: scipy's ``setulb`` state plus the bookkeeping of
    ``scipy.optimize._lbfgsb_py._minimize_lbfgsb`` and its memoizing
    objective wrapper (the point last evaluated, its value and gradient)."""

    __slots__ = ("x", "lower", "upper", "f", "g", "wa", "iwa", "task", "ln_task",
                 "lsave", "isave", "dsave", "nit", "nfev", "x_eval", "f_eval", "g_eval")

    def __init__(self, x, lower, upper, f_eval, g_eval):
        n, m = x.size, _LBFGSB_MAXCOR
        self.x, self.lower, self.upper = x, lower, upper
        self.f = 0.0
        self.g = np.zeros(n)
        self.wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
        self.iwa = np.zeros(3 * n, dtype=np.int32)
        self.task = np.zeros(2, dtype=np.int32)
        self.ln_task = np.zeros(2, dtype=np.int32)
        self.lsave = np.zeros(4, dtype=np.int32)
        self.isave = np.zeros(44, dtype=np.int32)
        self.dsave = np.zeros(29)
        self.nit = 0
        self.nfev = 1
        # the point as a list: list equality is np.array_equal's on three
        # floats (NaN never equal, -0.0 == 0.0) at a tenth of the cost
        self.x_eval, self.f_eval, self.g_eval = x.tolist(), f_eval, g_eval

    def advance(self, setulb) -> bool:
        """Step until the lane wants f and g at a new point (True) or stops.

        A request at the point last evaluated is answered from memory, and
        each new iterate counts toward FIT_MAXITER and the evaluation budget,
        exactly as scipy's driver does.
        """
        while True:
            setulb(_LBFGSB_MAXCOR, self.x, self.lower, self.upper, _BOUND_KINDS, self.f, self.g,
                   _LBFGSB_FACTR, _LBFGSB_PGTOL, self.wa, self.iwa, self.task, self.lsave,
                   self.isave, self.dsave, _LBFGSB_MAXLS, self.ln_task)
            state = self.task[0]
            if state == _TASK_FG:
                if self.x.tolist() != self.x_eval:
                    return True
                self.f = self.f_eval
                self.g[:] = self.g_eval
            elif state == _TASK_NEW_X:
                self.nit += 1
                if self.nit >= FIT_MAXITER:
                    self.task[:] = (_TASK_STOP, _STOP_MAXITER)
                elif self.nfev > _LBFGSB_MAXFUN:
                    self.task[:] = (_TASK_STOP, _STOP_MAXFUN)
            else:
                return False

    def take(self, f_eval, g_eval) -> None:
        self.nfev += 1
        self.x_eval, self.f_eval, self.g_eval = self.x.tolist(), f_eval, g_eval
        self.f = f_eval
        self.g[:] = g_eval

    def message(self) -> str:
        from scipy.optimize import _lbfgsb_py as lbfgsb

        return f"{lbfgsb.status_messages[self.task[0]]}: {lbfgsb.task_messages[self.task[1]]}"


def _minimize_lanes(x0: np.ndarray, y: np.ndarray) -> list:
    """Bounded L-BFGS-B of the GEV likelihood from every row of ``x0``.

    Lane k starts at ``x0[k]`` = (mu0, sigma0, xi0) on maxima ``y[k]``, with
    the fit's bounds: mu free, sigma >= 1e-8 sigma0, XI_MIN <= xi <= XI_MAX.
    Every lane runs its own ``setulb`` state; the lanes advance in lockstep,
    and each round evaluates the likelihood once for all lanes that asked.
    Each lane takes the path of ``scipy.optimize.minimize(_, x0[k],
    jac=True, method="L-BFGS-B", bounds=..., options={"maxiter":
    FIT_MAXITER})`` step for step and ends at the same ``x`` with the same
    ``fun`` (the value last evaluated).  Returns the lanes.
    """
    from scipy.optimize._lbfgsb import setulb

    n_lanes = x0.shape[0]
    lower = np.column_stack([np.full(n_lanes, -np.inf), 1e-8 * x0[:, 1], np.full(n_lanes, XI_MIN)])
    x = np.clip(x0, lower, [np.inf, np.inf, XI_MAX])
    # setulb reads 0 for an absent bound, as scipy passes it
    lower[:, 0] = 0.0
    upper = np.array([0.0, 0.0, XI_MAX])
    f0, g0 = _nll_and_grad_lanes(x, y)
    lanes = [_Lane(x[k], lower[k], upper, f0[k], g0[k]) for k in range(n_lanes)]
    waiting = [k for k, lane in enumerate(lanes) if lane.advance(setulb)]
    while waiting:
        idx = np.array(waiting)
        f, g = _nll_and_grad_lanes(x[idx], y[idx])
        for j, k in enumerate(waiting):
            lanes[k].take(f[j], g[j])
        waiting = [k for k in waiting if lanes[k].advance(setulb)]
    return lanes


def fit_gev_minima_batch(samples_list) -> list:
    """:func:`fit_gev_minima` of every entry of ``samples_list`` in one batch.

    Returns, per entry, its :class:`GevParams` or the
    :class:`~qevt.errors.QevtError` that :func:`fit_gev_minima` would raise
    for it.  Every (sample, start) pair of FIT_XI_STARTS is one lane of
    :func:`_minimize_lanes`, and samples of one size share the lockstep, so
    a bootstrap's refits cost one vectorised likelihood per round instead of
    one scipy driver per start.  The lanes reproduce scipy's L-BFGS-B
    bit for bit, so each entry is exactly the fit a lone
    ``scipy.optimize.minimize`` loop over the starts would return.
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
        lanes = _minimize_lanes(np.array(x0), np.array(ys))
        for s, (i, y, _) in enumerate(entries):
            results[i] = _best_start(lanes[s * n_starts:(s + 1) * n_starts], y)
    return results


def _best_start(lanes, y: np.ndarray):
    """The best-ranked start that ended finite and inside the support, or
    the :class:`FitFailureError` when no start did."""
    results = []
    diagnostics = []
    for idx, (xi0, lane) in enumerate(zip(FIT_XI_STARTS, lanes)):
        theta = lane.x
        if np.all(np.isfinite(theta)) and math.isfinite(lane.f) and _support_ok(theta, y):
            results.append((float(lane.f), idx, theta))
        else:
            diagnostics.append(f"start xi={xi0}: {lane.message()} (fun={lane.f})")
    if not results:
        return FitFailureError(
            f"GEV fit failed from all {len(FIT_XI_STARTS)} starts", diagnostics=diagnostics
        )
    _, _, best = min(results, key=lambda t: (t[0], t[1]))
    return GevParams(mu=float(best[0]), sigma=float(best[1]), xi=float(best[2]))


def fit_gev_minima(samples: JitteredSamples) -> GevParams:
    """Maximum-likelihood GEV parameters for block minima.

    The samples are negated and the GEV of the resulting maxima fitted;
    the returned parameters describe that negated domain (use
    :func:`success_probability` for queries about the original minima).

    Initialization is Gumbel method-of-moments on the negated data, with
    bounded L-BFGS-B multi-starts over shape values FIT_XI_STARTS.  The
    starts are ranked by the objective value L-BFGS-B evaluated last, ties
    by start index.  That value is the likelihood at the returned point
    only when the run converged: after an abnormal line search it is the
    rejected trial's, often a support penalty of 1e8 or more.

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
