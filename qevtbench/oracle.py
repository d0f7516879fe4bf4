"""Exact run-count oracle for statevector-sized instances.

For n <= 24 the circuit's statevector gives the exact probability that one
measured shot lands at or below the baseline energy.  Readout flips act on
the measured distribution as a product of independent per-bit 2x2 stochastic
maps, applied with the same reshape pattern as ``qaoa.apply_mixer_layer`` in
O(n 2^n).  From the per-shot probability the per-run success probability is
``1 - (1 - p_shot)^s`` and the exact run count follows from the same closed
form the estimator uses.
"""

from __future__ import annotations

import math

import numpy as np

from qevt.gev import required_runs
from qevt.pipeline import meets_baseline
from qevt.qaoa import QaoaParams, circuit_state
from qevt.qubo import QuboInstance, energy_table, to_ising


def apply_readout_flips(probs: np.ndarray, flip_prob: float) -> np.ndarray:
    """Distribution of measured indices after independent per-bit flips."""
    out = np.array(probs, dtype=np.float64)
    n = int(round(math.log2(out.size)))
    if 1 << n != out.size:
        raise ValueError("probability vector length must be a power of two")
    if flip_prob == 0.0:
        return out
    keep = 1.0 - flip_prob
    for i in range(n):
        view = out.reshape(-1, 2, 1 << i)
        a = view[:, 0, :].copy()
        b = view[:, 1, :]
        view[:, 0, :] = keep * a + flip_prob * b
        view[:, 1, :] = flip_prob * a + keep * b
    return out


def measured_distribution(
    inst: QuboInstance, params: QaoaParams, flip_prob: float = 0.0, variant: str = "minus"
) -> np.ndarray:
    """Exact probability of each measured basis index, readout noise included."""
    state = circuit_state(to_ising(inst), params, variant)
    probs = (state.conj() * state).real
    return apply_readout_flips(probs / probs.sum(), flip_prob)


def shot_hit_probability(
    inst: QuboInstance,
    params: QaoaParams,
    y_ideal: float,
    flip_prob: float = 0.0,
    variant: str = "minus",
) -> float:
    """Exact P(one shot's energy meets the baseline), same tolerance as the pipeline."""
    probs = measured_distribution(inst, params, flip_prob, variant)
    return float(probs[meets_baseline(energy_table(inst), y_ideal)].sum())


def run_hit_probability(p_shot: float, shots_s: int) -> float:
    """P(the minimum of ``shots_s`` independent shots meets the baseline)."""
    return float(-math.expm1(shots_s * math.log1p(-p_shot))) if p_shot < 1.0 else 1.0


def exact_runs(p_shot: float, shots_s: int, alpha: float):
    """True run count: ceil(log(1-alpha) / log(1-(1-(1-p_shot)^s)))."""
    return required_runs(run_hit_probability(p_shot, shots_s), alpha)


def minimum_law(
    inst: QuboInstance, params: QaoaParams, flip_prob: float = 0.0, variant: str = "minus"
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted shot energies and P(shot energy <= each of them)."""
    probs = measured_distribution(inst, params, flip_prob, variant)
    table = energy_table(inst)
    order = np.argsort(table, kind="stable")
    return table[order], np.cumsum(probs[order])


def sample_run_minima(levels, cdf, shots_s: int, runs: int, rng) -> np.ndarray:
    """Independent per-run minima of ``shots_s`` shots from the exact law."""
    return run_minima_at(levels, cdf, shots_s, rng.random(runs))


def stratified_run_minima(levels, cdf, shots_s: int, runs: int, rng) -> np.ndarray:
    """Per-run minima with one uniform in each of ``runs`` equal strata, shuffled:
    every draw holds the law's level frequencies to within one count."""
    return run_minima_at(levels, cdf, shots_s, (rng.permutation(runs) + rng.random(runs)) / runs)


def run_minima_at(levels, cdf, shots_s: int, uniforms) -> np.ndarray:
    """Inverse of the exact law P(min <= e) = 1 - (1 - P(E <= e))^s at ``uniforms``."""
    with np.errstate(divide="ignore"):  # cdf reaching 1 gives log1p(-1) = -inf, law 1
        law = -np.expm1(shots_s * np.log1p(-np.minimum(cdf, 1.0)))
    idx = np.searchsorted(law, uniforms, side="right")
    return levels[np.minimum(idx, levels.size - 1)]
