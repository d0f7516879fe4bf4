"""Checks of the benchmark's exact oracle and pinned angles.

Run from the root of a source checkout:  python3 -m pytest qevtbench -q
"""

import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from qevt.pipeline import meets_baseline  # noqa: E402
from qevt.qaoa import NoiseConfig, QaoaParams, circuit_state, run_minima_batch  # noqa: E402
from qevt.pipeline import SyntheticSpec  # noqa: E402
from qevt.qubo import brute_force_minimum, energy_table, generate_synthetic_q, to_ising  # noqa: E402

from qevtbench.oracle import (  # noqa: E402
    apply_readout_flips,
    exact_runs,
    minimum_law,
    run_hit_probability,
    sample_run_minima,
    shot_hit_probability,
)
from qevtbench.workloads import ALPHA, EstimateN18Warm, pinned_angles  # noqa: E402

PARAMS = QaoaParams(depth_p=2, gammas=[0.4, -0.7], betas=[0.3, 0.9])


def _small_instance():
    inst = generate_synthetic_q(6, seed=4, k=3, magnitude=0.3, signal_to_noise=1.0)
    return inst, brute_force_minimum(inst)[1]


@pytest.mark.parametrize("flip_prob", [0.0, 0.02, 0.3])
def test_p_shot_matches_enumeration(flip_prob):
    inst, y_ideal = _small_instance()
    state = circuit_state(to_ising(inst), PARAMS)
    probs = (state.conj() * state).real
    table = energy_table(inst)
    n = inst.n
    hit = 0.0
    for measured, true in itertools.product(range(1 << n), repeat=2):
        flips = bin(measured ^ true).count("1")
        if meets_baseline(table[measured], y_ideal):
            hit += probs[true] * flip_prob**flips * (1.0 - flip_prob) ** (n - flips)
    assert shot_hit_probability(inst, PARAMS, y_ideal, flip_prob) == pytest.approx(hit, rel=1e-12)


def test_readout_flips_keep_total_probability():
    rng = np.random.default_rng(0)
    probs = rng.random(1 << 7)
    probs /= probs.sum()
    out = apply_readout_flips(probs, 0.1)
    assert out.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(out >= 0.0)


@pytest.mark.parametrize("flip_prob", [0.0, 0.05])
def test_p_shot_matches_batched_sampler_hit_rate(flip_prob):
    inst, y_ideal = _small_instance()
    state = circuit_state(to_ising(inst), PARAMS)
    shots_s, runs = 3, 40_000
    minima = run_minima_batch(state, inst, shots_s, runs, NoiseConfig(flip_prob), seed=11)
    observed = float(meets_baseline(minima, y_ideal).mean())
    p_run = run_hit_probability(shot_hit_probability(inst, PARAMS, y_ideal, flip_prob), shots_s)
    assert abs(observed - p_run) <= 5.0 * math.sqrt(p_run * (1.0 - p_run) / runs)


def test_exact_law_sampler_matches_batched_sampler():
    inst, _ = _small_instance()
    state = circuit_state(to_ising(inst), PARAMS)
    levels, cdf = minimum_law(inst, PARAMS, 0.05)
    ours = sample_run_minima(levels, cdf, 4, 40_000, np.random.default_rng(3))
    theirs = run_minima_batch(state, inst, 4, 40_000, NoiseConfig(0.05), seed=3)
    for level in np.quantile(theirs, [0.1, 0.5, 0.9]):
        a, b = float((ours <= level).mean()), float((theirs <= level).mean())
        assert abs(a - b) <= 5.0 * math.sqrt(2 * b * (1 - b) / 40_000) + 1e-12


def test_exact_runs_closed_form():
    # p_run = 1 - (1 - 0.01)^100 = 0.634; ceil(log(0.05) / log(0.366)) = 3
    assert exact_runs(0.01, 100, 0.95) == 3
    assert exact_runs(0.0, 100, 0.95) == math.inf


@pytest.mark.parametrize("key", ["n12", "n18"])
def test_pinned_angles_load(key):
    entry, params = pinned_angles(key)
    assert params.depth_p == 3
    assert params.to_dict() == QaoaParams.from_dict(entry["params"]).to_dict()
    assert entry["origin"]


def test_pinned_validate_runs_are_exact():
    entry, params = pinned_angles("n18")
    inst = SyntheticSpec(n=entry["instance"]["n"], seed=entry["instance"]["seed"]).build()
    _, y_opt = brute_force_minimum(inst)
    p_shot = shot_hit_probability(inst, params, y_opt, EstimateN18Warm.FLIP_PROB)
    assert exact_runs(p_shot, EstimateN18Warm.VALIDATE_SHOTS, ALPHA) == entry["validate_runs"]
