"""Frozen artifact bytes of one small noisy estimate followed by a validation.

Two hashes, one per sampler:

- ``ESTIMATE_SHA256`` covers ``report.json`` and ``extremes_s*.csv``.  Their
  per-run minima come from ``collect_extreme_samples``, which draws every
  shot and its readout flips, and the fits and run counts are built on them.
- ``VALIDATE_SHA256`` covers ``validate_*.json``.  Its run minima come from
  ``run_minima_batch``, which draws one uniform per run from the exact
  per-run minimum law.

A change that moves any stream -- another draw order in the measurement,
flip or law kernels, another energy table, another seed derivation -- or
that changes the report layout or the package version changes a hash below.
Such a change must be deliberate: update the constant in the same commit and
say in CHANGES.md why the bytes moved.
"""

import hashlib

from qevt.pipeline import ExperimentConfig, SyntheticSpec, run_estimate, run_validate

ESTIMATE_SHA256 = "75973191e10256c2039438063469a99773d97a595eea398e8085a51b3f1b7958"
VALIDATE_SHA256 = "25ef8631cc6a779365c1215ca44f4c5b239134b0ec22a074a9c1f66a65cd90e8"


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
    payload = run_validate(cfg, tmp_path, shots_s=50, alpha=0.95, delta_range=(-1, 1), trials=400)
    assert sum(c["runs"] for c in payload["curve"]) * 400 * 50 > 1 << 16
    estimate = ["report.json", *sorted(p.name for p in tmp_path.glob("extremes_s*.csv"))]
    assert _digest(tmp_path, estimate) == ESTIMATE_SHA256
    validate = sorted(p.name for p in tmp_path.glob("validate_*.json"))
    assert _digest(tmp_path, validate) == VALIDATE_SHA256
