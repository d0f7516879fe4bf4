"""Frozen artifact bytes of one small noisy estimate followed by a validation.

Every seed stream of the samplers feeds these files: the per-run minima of
``collect_extreme_samples`` (``extremes_s*.csv``), the fits and run counts
built on them (``report.json``) and the batched validation draws of
``run_minima_batch`` (``validate_*.json``, large enough to span several
readout-flip blocks).  A change that moves any stream -- another draw order
in the measurement or flip kernels, another energy table, another seed
derivation -- or that changes the report layout or the package version
changes the hash below.  Such a change must be deliberate: update
``EXPECTED_SHA256`` in the same commit and say in CHANGES.md why the bytes
moved.
"""

import hashlib

from qevt.pipeline import ExperimentConfig, SyntheticSpec, run_estimate, run_validate

EXPECTED_SHA256 = "2e06c4e5b4c311f9bafd638009d3eca0a3dfd78f9c86e7722f362d465c88ca2a"


def _digest(out) -> str:
    names = ["report.json", *sorted(p.name for p in out.glob("extremes_s*.csv")),
             *sorted(p.name for p in out.glob("validate_*.json"))]
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
    assert _digest(tmp_path) == EXPECTED_SHA256
