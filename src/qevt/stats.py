"""Multivariate test machinery for the sample-size procedure.

Hotelling's T-squared against a reference mean, the multivariate
Shapiro-Wilk test (average univariate W over Mahalanobis-standardized
coordinates, Monte Carlo p-value; W comes straight from scipy's ``swilk``
kernel, the statistic of ``scipy.stats.shapiro`` without its per-call
wrapper),
and the regression/crossing helpers that turn per-n p-value averages into a
sample-size decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy import stats as sps
from scipy.stats._ansari_swilk_statistics import swilk

from .errors import InsufficientSamplesError, SingularCovarianceError

MVSW_DEFAULT_REPLICATES = 1000

METHOD_HOTELLING = "hotelling_t2"
METHOD_SW_MULTI = "shapiro_wilk_multi"


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float
    method: str

    def __post_init__(self):
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError("p_value must lie in [0, 1]")


def _as_matrix(samples) -> np.ndarray:
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"samples must be a 2-D array (m rows, d columns), got ndim={x.ndim}")
    return x


def hotelling_t2(samples, mu0) -> TestResult:
    """One-sample Hotelling T-squared test of mean(samples) == mu0.

    Exact p-value via F = T2*(m-d)/(d*(m-1)) ~ F(d, m-d).  A singular sample
    covariance raises instead of falling back to a pseudo-inverse: collapse
    to a point is a signal the caller must see, not smooth over.
    """
    x = _as_matrix(samples)
    m, d = x.shape
    mu0 = np.asarray(mu0, dtype=np.float64)
    if mu0.shape != (d,):
        raise ValueError(f"mu0 must have length {d}, got shape {mu0.shape}")
    if m <= d:
        raise InsufficientSamplesError(f"need more samples than dimensions: m={m}, d={d}")
    diff = x.mean(axis=0) - mu0
    cov = np.cov(x, rowvar=False, ddof=1).reshape(d, d)
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise SingularCovarianceError(f"sample covariance is singular ({exc})") from exc
    solved = np.linalg.solve(chol.T, np.linalg.solve(chol, diff))
    t2 = float(m * diff @ solved)
    f_stat = t2 * (m - d) / (d * (m - 1))
    p = float(sps.f.sf(f_stat, d, m - d))
    return TestResult(statistic=t2, p_value=p, method=METHOD_HOTELLING)


def _standardize(x: np.ndarray) -> np.ndarray:
    """Center and whiten by the inverse symmetric square root of the covariance."""
    m, d = x.shape
    cov = np.cov(x, rowvar=False, ddof=1).reshape(d, d)
    vals, vecs = np.linalg.eigh(cov)
    if vals[0] <= 1e-12 * max(vals[-1], 1.0):
        raise SingularCovarianceError(
            f"sample covariance is singular (smallest eigenvalue {vals[0]:.3e})"
        )
    inv_half = vecs @ np.diag(1.0 / np.sqrt(vals)) @ vecs.T
    return (x - x.mean(axis=0)) @ inv_half


def _shapiro_w(x: np.ndarray) -> float:
    """``sps.shapiro(x).statistic``, bit for bit, without its wrapper.

    The same preprocessing as ``scipy.stats.shapiro`` (sort, subtract
    ``x[N // 2]`` of the unsorted data, zeroed coefficients, ``init=0``)
    handed to the same ``swilk`` kernel; the axis and NaN handling around it
    costs more than the statistic on the short columns tested here.
    """
    y = np.sort(x)
    y -= x[x.size // 2]
    w, _, _ = swilk(y, np.zeros(x.size // 2), 0)
    return w


def _mvsw_statistic(x: np.ndarray) -> float:
    z = _standardize(x)
    return float(np.mean([_shapiro_w(z[:, j]) for j in range(z.shape[1])]))


@lru_cache(maxsize=16)
def mvsw_null_stats(m: int, d: int, n_replicates: int, seed: int) -> np.ndarray:
    """Sorted null statistics from n_replicates standard-normal datasets.

    The null law depends only on (m, d), so one table serves every test of
    that shape; memoized on all four arguments to stay reproducible.
    """
    rng = np.random.default_rng(seed)
    stats = np.array(
        [_mvsw_statistic(rng.standard_normal((m, d))) for _ in range(n_replicates)]
    )
    stats.sort()
    stats.flags.writeable = False
    return stats


def shapiro_wilk_multivariate(
    samples,
    n_replicates: int = MVSW_DEFAULT_REPLICATES,
    seed: int = 0,
    null_stats: np.ndarray | None = None,
) -> TestResult:
    """Multivariate normality test: average univariate W over the
    Mahalanobis-standardized coordinates.

    The p-value is the fraction of Monte Carlo null statistics (same m and d,
    standard multivariate normal) at or below the observed statistic; pass a
    precomputed ``null_stats`` table to amortize calibration across calls.
    """
    x = _as_matrix(samples)
    m, d = x.shape
    if d < 2:
        raise ValueError(f"need dimension d >= 2, got d={d}")
    if m <= d:
        raise InsufficientSamplesError(f"need more samples than dimensions: m={m}, d={d}")
    stat = _mvsw_statistic(x)
    if null_stats is None:
        null_stats = mvsw_null_stats(m, d, n_replicates, seed)
    p = float(np.searchsorted(null_stats, stat, side="right") / null_stats.size)
    return TestResult(statistic=stat, p_value=p, method=METHOD_SW_MULTI)


def fit_regression_line(xs, ys) -> tuple[float, float]:
    """Ordinary least squares line; returns (slope, intercept)."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ValueError("xs and ys must be equal-length 1-D sequences of size >= 2")
    if np.ptp(x) == 0.0:
        raise ValueError("xs are all identical: slope undefined")
    slope, intercept = np.polyfit(x, y, 1)
    return float(slope), float(intercept)


class Crossing(NamedTuple):
    n: int
    never_crossed: bool


def crossing_sample_size(
    slope: float, intercept: float, level: float, n_min: int, n_max: int
) -> Crossing:
    """Smallest integer n in [n_min, n_max] where the line reaches ``level``.

    A line already at or above the level at n_min answers n_min outright
    (whatever its slope: the level is met on the whole tested range or at
    least at its start).  Otherwise a non-positive slope, or an upward
    crossing beyond n_max, reports (n_max, True): the level is never reached
    inside the tested range.
    """
    if n_min > n_max:
        raise ValueError("n_min must not exceed n_max")
    if slope * n_min + intercept >= level:
        return Crossing(n=n_min, never_crossed=False)
    if slope <= 0.0:
        return Crossing(n=n_max, never_crossed=True)
    crossing = (level - intercept) / slope
    if crossing > n_max:
        return Crossing(n=n_max, never_crossed=True)
    n = int(np.ceil(crossing))
    return Crossing(n=min(max(n, n_min), n_max), never_crossed=False)
