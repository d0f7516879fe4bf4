"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria involving quantum sampling run on fixed synthetic instances chosen
to exercise the relevant regime (rich extreme-value spectra, adequate QAOA
concentration); all seeds are pinned, so every check is deterministic.
"""

import functools
import math

import numpy as np
import pytest
from scipy import stats as sps

import qevt
from qevt.annealing import default_sa_config, simulated_annealing
from qevt.gev import fit_gev_minima, jitter
from qevt.pipeline import (
    ExperimentConfig,
    SyntheticSpec,
    answer_minima,
    run_estimate,
    run_shot_sweep,
    run_validate,
)
from qevt.qaoa import OptimizerConfig, circuit_law, collect_extreme_samples, optimize_parameters
from qevt.qubo import energy_table, generate_synthetic_q
from qevt.sample_size import SampleSizeConfig, estimate_required_extremes, reference_parameters
from qevt.seeding import derive_seed
from qevt.stats import hotelling_t2, shapiro_wilk_multivariate
from test_qubo import binary_energy_table


def report(num: int, ok: bool, detail: str):
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, f"criterion {num}: {detail}"


@functools.lru_cache(maxsize=None)
def tuned_instance(n, inst_seed, master_seed):
    """Instance, tuned angles and SA baseline of one (n, instance seed, master
    seed).  They depend on nothing else, so criteria that sample one instance
    at several shots settings or noise levels tune it once."""
    inst = generate_synthetic_q(n, seed=inst_seed)
    params = optimize_parameters(inst, 3, OptimizerConfig(seed=master_seed))
    _, y_ideal = simulated_annealing(
        inst, default_sa_config(inst, seed=derive_seed(master_seed, "sa", inst_seed))
    )
    return inst, params, y_ideal


def estimate_n_evt(n, inst_seed, shots_s, alpha, noise_p=0.0, runs=200, master_seed=0):
    """Estimation pipeline distilled to the number it produces.

    The stages are called one by one so each instance keeps its own seed
    streams; the run count itself comes from the pipeline's answer step,
    :func:`qevt.pipeline.answer_minima`, not from a copy of its logic.
    """
    inst, params, y_ideal = tuned_instance(n, inst_seed, master_seed)
    minima = collect_extreme_samples(
        inst, circuit_law(inst, params, noise_p), shots_s, runs,
        seed=derive_seed(master_seed, "extremes", inst_seed, shots_s, int(noise_p * 1000)),
    )
    jitter_seed = derive_seed(master_seed, "jitter", inst_seed, shots_s)
    (entry,) = answer_minima([(shots_s, minima, jitter_seed)], y_ideal, (alpha,))
    return entry["estimates"][0]["n_evt"]


def test_criterion_01_qubo_ising_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for i in range(100):
        n = int(rng.integers(4, 13))
        inst = generate_synthetic_q(
            n, seed=int(rng.integers(1_000_000)), k=int(rng.integers(0, n + 1)),
            magnitude=float(rng.uniform(0.02, 1.0)),
        )
        gap = float(np.abs(binary_energy_table(inst) - energy_table(inst)).max())
        worst = max(worst, gap)
    report(1, worst <= 1e-9, f"max |binary - spin| energy gap over 100 instances = {worst:.2e}")


def test_criterion_02_required_runs_closed_form():
    a = qevt.required_runs(0.5, 0.95)
    b = qevt.required_runs(0.05, 0.95)
    report(2, a == 5 and b == 59, f"required runs: (p=0.5, a=0.95) -> {a}, (p=0.05, a=0.95) -> {b}")


def test_criterion_03_gev_parameter_recovery():
    targets = [(0.0, 1.0, 0.2), (0.0, 1.0, 0.0)]
    passes = 0
    seeds = 50
    for seed in range(seeds):
        ok = True
        for mu, sigma, xi in targets:
            maxima = sps.genextreme.rvs(c=-xi, loc=mu, scale=sigma, size=10_000,
                                        random_state=seed + 1)
            fitted = fit_gev_minima(jitter(-maxima, seed=seed + 1000))
            if not (abs(fitted.mu - mu) <= 0.05 and abs(fitted.sigma - sigma) <= 0.05
                    and abs(fitted.xi - xi) <= 0.05):
                ok = False
        passes += ok
    report(3, passes >= 45, f"parameter recovery within 0.05: {passes}/{seeds} seeds")


def test_criterion_04_test_calibration():
    rng = np.random.default_rng(77)
    trials_ht2 = 2000
    rejections = sum(
        hotelling_t2(rng.standard_normal((30, 3)), np.zeros(3)).p_value < 0.05
        for _ in range(trials_ht2)
    )
    rate_ht2 = rejections / trials_ht2

    trials_mst = 1000
    rejections = sum(
        shapiro_wilk_multivariate(rng.standard_normal((30, 3)), 10_000, 40).p_value < 0.05
        for _ in range(trials_mst)
    )
    rate_mst = rejections / trials_mst
    ok = abs(rate_ht2 - 0.05) <= 0.02 and abs(rate_mst - 0.05) <= 0.02
    report(4, ok, f"type-I error at level 0.05: Hotelling {rate_ht2:.3f} ({trials_ht2} trials), "
                  f"multivariate SW {rate_mst:.3f} ({trials_mst} trials)")


def test_criterion_05_validation_curve(tmp_path):
    cfg = ExperimentConfig(
        synthetic=SyntheticSpec(n=10, seed=0),
        shots_grid=(200,),
        runs=200,
        alphas=(0.95,),
        seed=0,
    )
    est_report = run_estimate(cfg, tmp_path)
    assert est_report["status"] == "ok"
    payload = run_validate(cfg, tmp_path, shots_s=200, alpha=0.95,
                           delta_range=(-3, 3), trials=500)
    curve = {point["delta"]: point["ratio"] for point in payload["curve"]}
    at_zero = curve[0]
    ratios = [point["ratio"] for point in payload["curve"]]
    non_decreasing = all(b >= a - 0.03 for a, b in zip(ratios, ratios[1:]))
    ok = 0.88 <= at_zero <= 1.00 and non_decreasing
    report(5, ok, f"ratio at delta=0 is {at_zero:.3f} (n_evt={payload['n_evt']}); "
                  f"curve {ratios} non-decreasing within 0.03: {non_decreasing}")


@pytest.fixture(scope="module")
def shots_trend_estimates():
    return {
        (s, a): estimate_n_evt(14, 1, s, a)
        for s in (500, 2000)
        for a in (0.90, 0.95)
    }


def test_criterion_06_shots_trend(shots_trend_estimates):
    e = shots_trend_estimates
    ok = e[(2000, 0.95)] <= e[(500, 0.95)] and e[(2000, 0.90)] <= e[(500, 0.90)]
    report(6, ok, "n_evt by (shots, alpha): "
                  f"500->({e[(500, 0.90)]}, {e[(500, 0.95)]}), "
                  f"2000->({e[(2000, 0.90)]}, {e[(2000, 0.95)]})")


def test_criterion_07_scale_trend():
    small = [estimate_n_evt(8, seed, 100, 0.95) for seed in range(5)]
    large = [estimate_n_evt(14, seed, 100, 0.95) for seed in range(5)]
    med_small, med_large = np.median(small), np.median(large)
    report(7, med_large >= med_small,
           f"median n_evt at s=100: n=8 -> {med_small} {small}, n=14 -> {med_large} {large}")


def test_criterion_08_noise_trend():
    seeds = (1, 2, 3, 4, 5)
    clean = [estimate_n_evt(12, seed, 100, 0.95, noise_p=0.0) for seed in seeds]
    noisy = [estimate_n_evt(12, seed, 100, 0.95, noise_p=0.02) for seed in seeds]
    med_clean, med_noisy = np.median(clean), np.median(noisy)
    report(8, med_noisy >= med_clean,
           f"median n_evt at s=100: noiseless {med_clean} {clean}, "
           f"flip_prob=0.02 {med_noisy} {noisy}")


def test_criterion_09_sample_size_end_to_end():
    pool = -sps.genextreme.rvs(c=-0.1, loc=0.0, scale=1.0, size=2000, random_state=123)
    estimates = []
    for seed in range(5):
        cfg = SampleSizeConfig(n_min=20, n_max=200, stride=10, inner_draws=20,
                               outer_reps=6, seed=seed, mvsw_replicates=1000)
        theta = reference_parameters(pool, seed=seed)
        result = estimate_required_extremes(pool, cfg, theta)
        assert result.n_estimate == max(result.n_ht2, result.n_mst)
        assert 20 <= result.n_estimate <= 200
        estimates.append(result.n_estimate)
        if seed == 0:
            repeat = estimate_required_extremes(pool, cfg, theta)
            assert repeat == result, "rerun with identical seed must be identical"
    med = float(np.median(estimates))
    stable = all(abs(e - med) <= 0.30 * med for e in estimates)
    report(9, stable, f"n_estimate over 5 seeds: {estimates} (median {med}, all within 30%)")


def test_criterion_10_shot_sweep_approaches_baseline(tmp_path):
    # mid-range cardinality with equal-strength couplings leaves the tuned
    # circuit a per-shot hit probability near 1e-3, so the averaged minimum
    # starts visibly above the baseline at 500 shots and descends toward it
    spec = SyntheticSpec(n=13, k=6, seed=0, magnitude=0.3, signal_to_noise=1.0)
    cfg = ExperimentConfig(synthetic=spec, shots_grid=(500, 5000, 20000), seed=0)
    payload = run_shot_sweep(cfg, tmp_path, reps=20)
    means = [p["mean_min_energy"] for p in payload["points"]]
    y_ideal = payload["y_ideal"]
    inst = spec.build()
    table = energy_table(inst)
    energy_range = float(table.max() - table.min())
    non_increasing = all(b <= a + 1e-12 for a, b in zip(means, means[1:]))
    within_band = means[-1] <= y_ideal + 0.05 * energy_range
    report(10, non_increasing and within_band,
           f"mean minima {means} vs baseline {y_ideal:.4f} "
           f"(band +{0.05 * energy_range:.4f}); non-increasing: {non_increasing}")


def test_criterion_11_breakdown_handling(tmp_path):
    # degenerate outputs: a tiny instance where every run reaches the optimum
    degenerate_cfg = ExperimentConfig(
        synthetic=SyntheticSpec(n=6, k=5, seed=1),
        shots_grid=(500,), runs=40, seed=2,
        qaoa_restarts=3, qaoa_maxiter=60,
    )
    degenerate = run_estimate(degenerate_cfg, tmp_path / "degen")
    degenerate_ok = (
        degenerate["status"] == "degenerate"
        and degenerate["per_shots"][0]["breakdown"] == "degenerate_samples"
    )

    # unreachable target: baseline forced below the true ground state, at a
    # shots setting whose minima vary (a run reaches the ground state with
    # probability about 0.46); with minima all equal the report says
    # "degenerate" first (tests/test_cli.py pins that order)
    unreachable_cfg = ExperimentConfig(
        synthetic=SyntheticSpec(n=12, seed=1),
        shots_grid=(50,), runs=120, seed=3,
        qaoa_restarts=6, qaoa_maxiter=120,
        y_ideal_override=float(energy_table(generate_synthetic_q(12, seed=1)).min()) - 1.0,
    )
    unreachable = run_estimate(unreachable_cfg, tmp_path / "unreach")
    est = unreachable["per_shots"][0]["estimates"][0]
    unreachable_ok = (
        unreachable["status"] == "unreachable"
        and est["success_prob"] == 0.0
        and not math.isfinite(est["n_evt"])
    )
    report(11, degenerate_ok and unreachable_ok,
           f"degenerate path: {degenerate['status']}; "
           f"unreachable path: {unreachable['status']} with p={est['success_prob']}, "
           f"n_evt={est['n_evt']}")
