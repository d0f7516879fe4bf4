"""Estimated run counts against the exact run counts of small instances.

For n <= 12 the circuit's exact per-run minimum law
(:func:`qevt.qaoa.circuit_law`, readout flips included) gives the exact run
count, so the estimate can be judged against it directly rather than only
through trend tests.  The panels answer many exact-law draws at once
(:mod:`exact_panel`) and bound the median miss over them.
"""

import math

import numpy as np
import pytest

from exact_panel import answer_panel
from qevt.pipeline import ExperimentConfig, SyntheticSpec, ensure_stage_artifacts, run_estimate
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


PANEL_SEED = 12


@pytest.fixture(scope="module")
def n12_laws(tmp_path_factory):
    """flip_prob -> (law, y_ideal) of the n = 12, instance-seed-1 instance
    with one-start angles, resolved as the estimate command resolves them;
    the noisy law reuses the noise-free one's baseline and angles."""
    out = tmp_path_factory.mktemp("n12")
    laws = {}
    for flip_prob in FLIP_PROBS:
        cfg = ExperimentConfig(synthetic=SyntheticSpec(n=12, seed=1), qaoa_restarts=1,
                               readout_flip_prob=flip_prob, seed=0)
        _, _, y_ideal, _, law = ensure_stage_artifacts(cfg, out)
        laws[flip_prob] = (law, y_ideal)
    return laws


def _panel_summary(panel) -> str:
    return ", ".join(f"({a.hits}, {a.route}, {a.n_evt})" for a in panel[:10])


@pytest.mark.parametrize("flip_prob", FLIP_PROBS)
@pytest.mark.parametrize("shots_s,runs", [(20, 40), (100, 200)])
def test_panel_median_within_factor_two(n12_laws, flip_prob, shots_s, runs):
    law, y_ideal = n12_laws[flip_prob]
    panel = answer_panel(law, y_ideal, shots_s, runs, 100, PANEL_SEED, (ALPHA,))[ALPHA]
    median = float(np.median([a.log2_error for a in panel]))
    assert median <= 1.0, (
        f"median |log2(n_evt / n_exact)| {median} with n_exact {panel[0].n_exact}; "
        f"first draws (hits, route, n_evt): {_panel_summary(panel)}"
    )


# s = 2, 40 runs: p_run 0.0243 and n_exact 122 noise-free, so about a third
# of the draws have no hit and take the gev route
@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: with no hit, the gev route mostly "
                   "answers unreachable")
@pytest.mark.parametrize("flip_prob", FLIP_PROBS)
def test_no_hit_panel_median_within_factor_two(n12_laws, flip_prob):
    law, y_ideal = n12_laws[flip_prob]
    panel = answer_panel(law, y_ideal, 2, 40, 200, PANEL_SEED, (ALPHA,))[ALPHA]
    no_hit = [a for a in panel if a.hits == 0]
    assert no_hit
    median = float(np.median([a.log2_error for a in no_hit]))
    assert median <= 1.0, (
        f"median |log2(n_evt / n_exact)| {median} over {len(no_hit)} no-hit draws "
        f"(unreachable counts as infinite), n_exact {panel[0].n_exact}; "
        f"first no-hit draws (hits, route, n_evt): {_panel_summary(no_hit)}"
    )
