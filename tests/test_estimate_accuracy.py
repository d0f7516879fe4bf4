"""Estimated run counts against the exact run counts of small instances.

For n <= 12 the circuit's exact per-run minimum law
(:func:`qevt.qaoa.circuit_law`, readout flips included) gives the exact run
count, so the estimate can be judged against it directly rather than only
through trend tests.
"""

import math

import pytest

from qevt.pipeline import ExperimentConfig, SyntheticSpec, run_estimate
from qevt.qaoa import QaoaParams, circuit_law

SHOTS = 100
ALPHA = 0.95
FLIP_PROBS = (0.0, 0.02)


@pytest.mark.parametrize("n,inst_seed", [(10, 1), (12, 1), (12, 3)])
def test_n_evt_within_factor_two_of_exact(tmp_path, n, inst_seed):
    cells = []
    for flip_prob in FLIP_PROBS:
        # the second configuration reuses the first one's instance, SA
        # baseline and angles from the output directory
        cfg = ExperimentConfig(
            synthetic=SyntheticSpec(n=n, seed=inst_seed),
            shots_grid=(SHOTS,),
            runs=200,
            alphas=(ALPHA,),
            qaoa_restarts=1,
            readout_flip_prob=flip_prob,
            seed=0,
        )
        report = run_estimate(cfg, tmp_path)
        assert report["status"] == "ok"
        n_evt = report["per_shots"][0]["estimates"][0]["n_evt"]
        law = circuit_law(
            cfg.synthetic.build(), QaoaParams.from_dict(report["qaoa_params"]), flip_prob
        )
        n_exact = law.n_exact(report["y_ideal"], SHOTS, ALPHA)
        cells.append((flip_prob, n_evt, n_exact, abs(math.log2(n_evt / n_exact))))
    assert all(err <= 1.0 for *_, err in cells), f"(flip_prob, n_evt, n_exact, |log2|): {cells}"
