"""Frozen artifact bytes of one small noisy estimate followed by a validation,
and of one sample-size run.

The estimate draws each run's minimum from the circuit's exact per-run
minimum law (``qevt.qaoa.RunMinimumLaw``) at one uniform per run; the
validation draws only whether each run meets the baseline, from the one
number of that law the report records.  The estimate has two hashes and the
validation one:

- ``ESTIMATE_SHA256`` covers ``report.json`` and ``extremes_s*.csv``.  Their
  per-run minima come from ``collect_extreme_samples``, run r at the first
  double of its own recorded seed, and the fits and run counts are built on
  them.  Next to those answers the report holds the law's exact values:
  ``p_run_exact`` per shots setting, ``n_exact`` per estimate, and
  ``log_miss_per_shot``, the log-probability that one shot misses the
  baseline, with the ``initial_state`` the circuit started from.
- ``FIT_SVG_SHA256`` covers the estimate's ``fit_s*.json`` and
  ``gev_s*.svg``: the jittered GEV fit of each setting's minima and the plot
  of the law and the answer's route.
- ``VALIDATE_SHA256`` covers ``validate_*.json``.  A run hits when its
  uniform, a double of one generator in run order, lies below the hit
  probability ``log_miss_per_shot`` gives at s shots; that is the hit of the
  run minimum the law would draw from the same uniform.  Its run counts come
  from the ``n_evt`` of the report, its ``p_run_exact`` and each
  ``exact_ratio`` from the same number at s and at runs x s shots.

A change that moves any stream -- other tuned angles, another law or
readout-flip map, another
energy table, another seed derivation -- or that changes the report layout
or the package version changes a hash below.
Such a change must be deliberate: update the constant in the same commit and
say in CHANGES.md why the bytes moved.

``SAMPLE_SIZE_SHA256`` covers ``sample_size.json`` of the bootstrap procedure
on a pool where one level holds 88% of the mass, so some n=20 resamples are
constant and fail at the jitter, and those cells refit with fewer triples
than ``inner_draws``.  Any change to a fitted bootstrap triple, to the order
of the draws or to the multivariate Shapiro-Wilk statistic moves it.
"""

import hashlib

import numpy as np

from qevt.pipeline import (
    ExperimentConfig,
    SyntheticSpec,
    run_estimate,
    run_sample_size,
    run_validate,
    write_csv,
)
from qevt.sample_size import SampleSizeConfig

ESTIMATE_SHA256 = "669bc24d1219a2c216878b28260c948b247aa89084021ed9f4b3518577ddb011"
FIT_SVG_SHA256 = "c99e7edfc685deec8e3d01516f76b66850e78415b2ebf32c4d7df860c3bf4ab3"
VALIDATE_SHA256 = "bd42a2997a94ca7be0c7ebe61396aeb9518f5e5b7af14a81b43f4f13c3ce78f3"
SAMPLE_SIZE_SHA256 = "e24b6861239a92b890691530129acf8083c1d991ee3e0ba3c462a3e8f6e5718e"


def _digest(out, names) -> str:
    digest = hashlib.sha256()
    for name in names:
        digest.update(name.encode())
        digest.update((out / name).read_bytes())
    return digest.hexdigest()


def test_noisy_n10_estimate_and_validate_bytes_are_frozen(tmp_path):
    cfg = ExperimentConfig(
        synthetic=SyntheticSpec(n=10, k=8, seed=4),
        qaoa_restarts=2,
        qaoa_maxiter=40,
        shots_grid=(50, 200),
        runs=60,
        readout_flip_prob=0.05,
        seed=11,
        sa={"sweeps": 300, "restarts": 5},
    )
    run_estimate(cfg, tmp_path)
    run_validate(cfg, tmp_path, shots_s=50, alpha=0.95, delta_range=(-1, 1), trials=400)
    estimate = ["report.json", *sorted(p.name for p in tmp_path.glob("extremes_s*.csv"))]
    assert _digest(tmp_path, estimate) == ESTIMATE_SHA256
    fit_svg = [*sorted(p.name for p in tmp_path.glob("fit_s*.json")),
               *sorted(p.name for p in tmp_path.glob("gev_s*.svg"))]
    assert _digest(tmp_path, fit_svg) == FIT_SVG_SHA256
    validate = sorted(p.name for p in tmp_path.glob("validate_*.json"))
    assert _digest(tmp_path, validate) == VALIDATE_SHA256


def test_atom_heavy_sample_size_bytes_are_frozen(tmp_path):
    rng = np.random.default_rng(5)
    levels = np.array([-12.0, -11.0, -10.5, -9.0, -7.5])
    pool = rng.choice(levels, size=200, p=[0.88, 0.06, 0.03, 0.02, 0.01])
    write_csv(tmp_path / "extremes_s100.csv", ["run_index", "min_energy"],
              [(i, repr(float(e))) for i, e in enumerate(pool)])
    cfg = ExperimentConfig(
        synthetic=SyntheticSpec(n=8, seed=1),
        sample_size=SampleSizeConfig(
            n_min=20, n_max=60, stride=20, inner_draws=10, outer_reps=2, seed=5,
            mvsw_replicates=200,
        ),
    )
    payload = run_sample_size(cfg, tmp_path, shots_s=100)
    failures = payload["result"]["fit_failures"]
    assert failures["20"]["failed"] > 0 and failures["60"]["failed"] == 0
    assert _digest(tmp_path, ["sample_size.json"]) == SAMPLE_SIZE_SHA256
