"""Bootstrap estimation of the number of extreme samples a stable GEV fit needs.

Given a large pool of per-run minima and reference parameters fitted on the
whole pool, every candidate subset size n gets repeatedly resampled (with
replacement), refitted, and the resulting parameter triples tested two ways:
Hotelling's T-squared for consistency with the reference mean, and the
multivariate Shapiro-Wilk test for normality of the estimates.  Regression
lines through the per-n average p-values locate the smallest n where both
tests clear the significance level; since the mean test presupposes
normality, the final estimate is whichever crossing is larger.

Each n takes one pass: draw and jitter every resample, refit them all as one
:func:`~qevt.gev.fit_gev_minima_batch`, count the failures, and score each
cell of triples.  Every draw keeps its own draw and jitter seeds, and the
batch reproduces each lone fit bit for bit, so the triples, their order and
the failure counts are those of fitting the draws one by one.  A cell's
normality test names only the seed of its null table; :mod:`qevt.stats`
builds and keeps the tables.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DegenerateSamplesError,
    EstimationImpossibleError,
    InsufficientSamplesError,
    SingularCovarianceError,
)
from .gev import MIN_FIT_SAMPLES, GevParams, fit_gev_minima, fit_gev_minima_batch, jitter
from .seeding import derive_seed
from .stats import (
    MVSW_DEFAULT_REPLICATES,
    crossing_sample_size,
    fit_regression_line,
    hotelling_t2,
    shapiro_wilk_multivariate,
)
from .utils import INTEGER, OPEN_UNIT, POSITIVE_INTEGER, check_rules, is_integer

FLAG_NEVER_CROSSED_HT2 = "never_crossed_ht2"
FLAG_NEVER_CROSSED_MST = "never_crossed_mst"
FLAG_DEGENERATE_RESAMPLES = "degenerate_resamples"

# an n whose inner fits fail more often than this sets the degenerate flag
MAX_FAILED_FIT_FRACTION = 0.2

PARAM_DIM = 3


@dataclass(frozen=True)
class SampleSizeConfig:
    n_min: int = 20
    n_max: int = 200
    inner_draws: int = 30        # refits per test (I)
    outer_reps: int = 10         # test repetitions averaged per n (J)
    stride: int = 5
    level: float = 0.05
    seed: int = 0
    mvsw_replicates: int = MVSW_DEFAULT_REPLICATES

    RULES = {
        "n_min": (lambda v: is_integer(v) and v >= MIN_FIT_SAMPLES,
                  f"an integer of at least {MIN_FIT_SAMPLES} (the GEV fit-stability floor)"),
        "n_max": INTEGER,
        "inner_draws": (lambda v: is_integer(v) and v > PARAM_DIM,
                        f"an integer above the parameter dimension {PARAM_DIM}"),
        "outer_reps": POSITIVE_INTEGER,
        "stride": POSITIVE_INTEGER,
        "level": OPEN_UNIT,
        "seed": INTEGER,
        "mvsw_replicates": POSITIVE_INTEGER,
    }

    def __post_init__(self):
        check_rules(vars(self), self.RULES, "sample_size")
        # the regression of p-values on n needs at least two sizes
        if len(range(self.n_min, self.n_max + 1, self.stride)) < 2:
            raise ConfigError(
                f"sample_size: the grid n_min {self.n_min} to n_max {self.n_max} by stride "
                f"{self.stride} holds fewer than two sizes"
            )


@dataclass(frozen=True)
class PerNRecord:
    n: int
    mean_p_ht2: float
    mean_p_mst: float


@dataclass(frozen=True)
class SampleSizeResult:
    per_n: tuple
    line_ht2: tuple        # (slope, intercept)
    line_mst: tuple
    n_ht2: int
    n_mst: int
    n_estimate: int
    flags: frozenset
    fit_failures: dict = field(default_factory=dict)   # n -> (failed, attempted)

    def to_dict(self) -> dict:
        return {
            "per_n": [
                {"n": r.n, "mean_p_ht2": r.mean_p_ht2, "mean_p_mst": r.mean_p_mst}
                for r in self.per_n
            ],
            "line_ht2": {"slope": self.line_ht2[0], "intercept": self.line_ht2[1]},
            "line_mst": {"slope": self.line_mst[0], "intercept": self.line_mst[1]},
            "n_ht2": self.n_ht2,
            "n_mst": self.n_mst,
            "n_estimate": self.n_estimate,
            "flags": sorted(self.flags),
            "fit_failures": {
                str(n): {"failed": f, "attempted": a}
                for n, (f, a) in sorted(self.fit_failures.items())
            },
        }


def _pool(y_sim) -> np.ndarray:
    y = np.asarray(y_sim, dtype=np.float64)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("extreme-sample pool must be a non-empty 1-D sequence")
    return y


def reference_parameters(y_sim, seed: int = 0) -> GevParams:
    """Reference GEV parameters from one jitter-and-fit of the whole pool."""
    y = _pool(y_sim)
    return fit_gev_minima(jitter(y, derive_seed(seed, "reference-jitter")))


def _cell_p_values(triples: list, theta_ref: np.ndarray, cfg: SampleSizeConfig):
    """``(p_ht2, p_mst)`` of one cell's parameter triples, or None when the
    cell holds at most PARAM_DIM triples or they collapse.  The seed of a
    full cell's null table names no size; a short cell's names its size."""
    m = len(triples)
    if m <= PARAM_DIM:
        return None
    table_seed = derive_seed(cfg.seed, "mvsw-null", *([m] if m < cfg.inner_draws else []))
    try:
        p_ht2 = hotelling_t2(triples, theta_ref).p_value
        p_mst = shapiro_wilk_multivariate(triples, cfg.mvsw_replicates, table_seed).p_value
    except (DegenerateSamplesError, InsufficientSamplesError, SingularCovarianceError):
        # collapsed estimates: the cell yields no p-values
        return None
    return p_ht2, p_mst


def estimate_required_extremes(
    y_sim, cfg: SampleSizeConfig, theta_sim: GevParams
) -> SampleSizeResult:
    """Run the full resample/refit/test procedure and pick the sample size.

    Inner fits that fail (degenerate resample, non-convergence) are skipped
    and counted; an n losing more than MAX_FAILED_FIT_FRACTION of its fits
    sets the ``degenerate_resamples`` flag.  Deterministic for a fixed
    config seed.
    """
    y = _pool(y_sim)
    if cfg.n_max >= y.size:
        raise ConfigError(
            f"n_max={cfg.n_max} must stay strictly below the pool size {y.size}: "
            "resampled subsets close to the full pool keep repeating the same "
            "discrete values, and the normality test degenerates"
        )
    theta_ref = np.array([theta_sim.mu, theta_sim.sigma, theta_sim.xi])

    ns = list(range(cfg.n_min, cfg.n_max + 1, cfg.stride))
    per_n: list[PerNRecord] = []
    fit_failures: dict[int, tuple[int, int]] = {}
    flags = set()

    for n in ns:
        # draw: every resample of this n, jittered on its own seeds; one that
        # jitter refuses is left out, and counted below as a failed fit
        jittered, owners = [], []
        for j in range(cfg.outer_reps):
            for i in range(cfg.inner_draws):
                rng = np.random.default_rng(derive_seed(cfg.seed, "draw", n, j, i))
                subset = y[rng.integers(0, y.size, size=n)]
                with suppress(DegenerateSamplesError):
                    jittered.append(jitter(subset, derive_seed(cfg.seed, "jitter", n, j, i)))
                    owners.append(j)
        # fit: one batch, which gives each draw the triple a lone fit would
        triples_by_rep: list[list] = [[] for _ in range(cfg.outer_reps)]
        for j, fitted in zip(owners, fit_gev_minima_batch(jittered)):
            if isinstance(fitted, GevParams):
                triples_by_rep[j].append([fitted.mu, fitted.sigma, fitted.xi])
        # count: every attempted draw that left no triple failed
        attempted = cfg.outer_reps * cfg.inner_draws
        failed = attempted - sum(map(len, triples_by_rep))
        fit_failures[n] = (failed, attempted)
        if failed > MAX_FAILED_FIT_FRACTION * attempted:
            flags.add(FLAG_DEGENERATE_RESAMPLES)
        # score: the mean p-values of the cells that yield them
        cells = [_cell_p_values(triples, theta_ref, cfg) for triples in triples_by_rep]
        p_values = [p for p in cells if p is not None]
        if p_values:
            p_ht2_cells, p_mst_cells = zip(*p_values)
            per_n.append(
                PerNRecord(
                    n=n,
                    mean_p_ht2=float(np.mean(p_ht2_cells)),
                    mean_p_mst=float(np.mean(p_mst_cells)),
                )
            )

    if len(per_n) < 2:
        raise EstimationImpossibleError(
            f"only {len(per_n)} of {len(ns)} candidate sizes produced usable "
            "p-values; the pool cannot support the procedure",
            failure_table=fit_failures,
        )

    xs = [r.n for r in per_n]
    line_ht2 = fit_regression_line(xs, [r.mean_p_ht2 for r in per_n])
    line_mst = fit_regression_line(xs, [r.mean_p_mst for r in per_n])
    cross_ht2 = crossing_sample_size(*line_ht2, cfg.level, cfg.n_min, cfg.n_max)
    cross_mst = crossing_sample_size(*line_mst, cfg.level, cfg.n_min, cfg.n_max)
    if cross_ht2.never_crossed:
        flags.add(FLAG_NEVER_CROSSED_HT2)
    if cross_mst.never_crossed:
        flags.add(FLAG_NEVER_CROSSED_MST)

    # the mean test presupposes normality of the estimates, so the normality
    # crossing wins whenever it is the later one
    n_estimate = max(cross_ht2.n, cross_mst.n)

    return SampleSizeResult(
        per_n=tuple(per_n),
        line_ht2=line_ht2,
        line_mst=line_mst,
        n_ht2=cross_ht2.n,
        n_mst=cross_mst.n,
        n_estimate=n_estimate,
        flags=frozenset(flags),
        fit_failures=fit_failures,
    )
