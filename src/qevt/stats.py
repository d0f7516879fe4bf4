"""Multivariate test machinery for the sample-size procedure.

Hotelling's T-squared against a reference mean, the multivariate
Shapiro-Wilk test (average univariate W over Mahalanobis-standardized
coordinates, Monte Carlo p-value; W comes straight from scipy's ``swilk``
kernel, the statistic of ``scipy.stats.shapiro`` without its per-call
wrapper),
and the regression/crossing helpers that turn per-n p-value averages into a
sample-size decision.

The MVSW statistic is computed for a stack of samples at once: one mean,
one covariance ``matmul``, one stacked ``eigh`` and the whitening
``matmul``s per stack, then one ``swilk`` call per column.  The null table
runs in stacks of MVSW_BLOCK datasets and an observed sample goes through
the same functions as a single (m, d) matrix, so both take one path, and
every statistic is the double the 2-D ``np.cov``/``eigh``/``np.diag``
computation of one sample gives.

The null tables live here alone: each test looks its table up in
:func:`mvsw_null_stats`, so a caller names only the table's seed.

``scipy.stats`` is imported inside the functions that call it, not
at module level: importing it costs more than most commands take to run,
and only the sample-size procedure calls them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import InsufficientSamplesError, SingularCovarianceError

MVSW_DEFAULT_REPLICATES = 1000
# null datasets drawn and whitened as one stack; at 32 the temporaries of a
# table of (m, d) = (30, 3) peak at 89 KiB, as one dataset at a time did
# (88 KiB), and a stack of 100 (254 KiB) saves under a millisecond per table
MVSW_BLOCK = 32


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float

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
    from scipy.stats import f

    p = float(f.sf(f_stat, d, m - d))
    return TestResult(statistic=t2, p_value=p)


def _standardize(x: np.ndarray) -> np.ndarray:
    """Center and whiten each (m, d) matrix of ``x`` (..., m, d) by the
    inverse symmetric square root of its covariance.

    Each matrix gets the doubles of the 2-D computation (``np.cov``, ``eigh``,
    ``vecs @ np.diag(v) @ vecs.T``): the covariance is ``xcᵀ xc`` times the
    reciprocal of m - 1, as ``np.cov`` forms it, and every stacked ``matmul``
    and ``eigh`` runs the 2-D call's kernel on each matrix.  A singular
    covariance anywhere in the stack raises, naming the first.
    """
    m, d = x.shape[-2:]
    xc = x - x.mean(axis=-2, keepdims=True)
    cov = np.matmul(xc.swapaxes(-1, -2), xc) * np.true_divide(1, m - 1)
    vals, vecs = np.linalg.eigh(cov)
    smallest = vals[..., 0]
    singular = smallest <= 1e-12 * np.maximum(vals[..., -1], 1.0)
    if singular.any():
        raise SingularCovarianceError(
            f"sample covariance is singular (smallest eigenvalue {smallest[singular][0]:.3e})"
        )
    diag = np.zeros(vals.shape + (d,))
    diag[..., np.arange(d), np.arange(d)] = 1.0 / np.sqrt(vals)
    inv_half = np.matmul(np.matmul(vecs, diag), vecs.swapaxes(-1, -2))
    return np.matmul(xc, inv_half)


def _shapiro_w(x: np.ndarray) -> np.ndarray:
    """``scipy.stats.shapiro(row).statistic`` of each row of ``x`` (..., m),
    bit for bit, without its wrapper.

    The same preprocessing as ``scipy.stats.shapiro`` (sort, subtract
    ``row[m // 2]`` of the unsorted row, zeroed coefficients, ``init=0``)
    handed to the same ``swilk`` kernel, one call per row; the axis and NaN
    handling around it costs more than the statistic on the short rows
    tested here.
    """
    from scipy.stats._ansari_swilk_statistics import swilk

    m = x.shape[-1]
    rows = np.ascontiguousarray(x).reshape(-1, m)
    y = np.sort(rows, axis=1)
    y -= rows[:, m // 2, None]
    w = [swilk(row, np.zeros(m // 2), 0)[0] for row in y]
    return np.reshape(w, x.shape[:-1])


def _mvsw_statistics(x: np.ndarray) -> np.ndarray:
    """The MVSW statistic of each (m, d) matrix of ``x`` (..., m, d): the
    mean :func:`_shapiro_w` of its standardized columns."""
    return _shapiro_w(_standardize(x).swapaxes(-1, -2)).mean(axis=-1)


@lru_cache(maxsize=16)
def mvsw_null_stats(m: int, d: int, n_replicates: int, seed: int) -> np.ndarray:
    """Sorted null statistics from n_replicates standard-normal datasets.

    The null law depends only on (m, d), so one table serves every test of
    that shape; memoized on all four arguments to stay reproducible.  The
    datasets are drawn and scored in stacks of MVSW_BLOCK, the same stream
    and the same doubles as one dataset at a time, in bounded memory.
    """
    rng = np.random.default_rng(seed)
    stats = np.empty(n_replicates)
    for start in range(0, n_replicates, MVSW_BLOCK):
        block = rng.standard_normal((min(MVSW_BLOCK, n_replicates - start), m, d))
        stats[start:start + block.shape[0]] = _mvsw_statistics(block)
    stats.sort()
    stats.flags.writeable = False
    return stats


def shapiro_wilk_multivariate(
    samples, n_replicates: int = MVSW_DEFAULT_REPLICATES, seed: int = 0
) -> TestResult:
    """Multivariate normality test: average univariate W over the
    Mahalanobis-standardized coordinates.

    The p-value is the fraction of Monte Carlo null statistics (same m and d,
    standard multivariate normal) at or below the observed statistic.  The
    null table is :func:`mvsw_null_stats` of (m, d, ``n_replicates``,
    ``seed``), built on the first test of that shape and seed and reused by
    every later one.
    """
    x = _as_matrix(samples)
    m, d = x.shape
    if d < 2:
        raise ValueError(f"need dimension d >= 2, got d={d}")
    if m <= d:
        raise InsufficientSamplesError(f"need more samples than dimensions: m={m}, d={d}")
    stat = float(_mvsw_statistics(x))
    null_stats = mvsw_null_stats(m, d, n_replicates, seed)
    p = float(np.searchsorted(null_stats, stat, side="right") / null_stats.size)
    return TestResult(statistic=stat, p_value=p)


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
