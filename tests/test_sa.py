"""Simulated-annealing baseline behavior."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qevt.annealing import (
    SaConfig,
    _anneal_once,
    _sweep_draws,
    default_sa_config,
    simulated_annealing,
)
from qevt.qubo import QuboInstance, brute_force_minimum, generate_synthetic_q, qubo_energy
from qevt.seeding import rng_from


def test_penalty_only_reaches_zero():
    inst = QuboInstance(n=8, q=np.zeros((8, 8)), k=3)
    bits, energy = simulated_annealing(inst, default_sa_config(inst, seed=0))
    assert energy == pytest.approx(0.0, abs=1e-12)
    assert bits.sum() == 3


def test_generous_budget_matches_brute_force():
    inst = generate_synthetic_q(10, seed=42)
    _, optimum = brute_force_minimum(inst)
    cfg = default_sa_config(inst, seed=0, restarts=20, sweeps=2000)
    _, energy = simulated_annealing(inst, cfg)
    assert energy == pytest.approx(optimum, abs=1e-9)


def test_deterministic():
    inst = generate_synthetic_q(9, seed=5)
    cfg = default_sa_config(inst, seed=77)
    bits_a, e_a = simulated_annealing(inst, cfg)
    bits_b, e_b = simulated_annealing(inst, cfg)
    assert e_a == e_b
    assert np.array_equal(bits_a, bits_b)


def test_reported_energy_is_exact_objective_of_reported_bits():
    inst = generate_synthetic_q(8, seed=1)
    bits, energy = simulated_annealing(inst, default_sa_config(inst, seed=3))
    assert energy == qubo_energy(inst, bits)


def test_never_worse_than_any_initial_state():
    # restart r's initial state is reproducible from the seeding contract
    inst = generate_synthetic_q(9, seed=2)
    cfg = default_sa_config(inst, seed=123, restarts=5, sweeps=50)
    _, energy = simulated_annealing(inst, cfg)
    initial_energies = []
    for r in range(cfg.restarts):
        rng = rng_from(cfg.seed, "sa-restart", r)
        x = rng.integers(0, 2, size=inst.n)
        initial_energies.append(qubo_energy(inst, x))
    assert energy <= min(initial_energies) + 1e-12


def test_budget_monotonicity_in_expectation():
    inst = generate_synthetic_q(10, seed=7)
    short, long = [], []
    for seed in range(30):
        _, e_short = simulated_annealing(inst, default_sa_config(inst, seed=seed, sweeps=20))
        _, e_long = simulated_annealing(inst, default_sa_config(inst, seed=seed, sweeps=2000))
        short.append(e_short)
        long.append(e_long)
    assert np.mean(long) <= np.mean(short)


def test_config_validation():
    with pytest.raises(ValueError):
        SaConfig(initial_temperature=0.0)
    with pytest.raises(ValueError):
        SaConfig(initial_temperature=1.0, cooling_rate=1.0)
    with pytest.raises(ValueError):
        SaConfig(initial_temperature=1.0, sweeps=0)


def test_default_temperature_scales_with_q():
    inst = generate_synthetic_q(10, seed=0, magnitude=2.0)
    cfg = default_sa_config(inst)
    assert cfg.initial_temperature == pytest.approx(10 * np.max(np.abs(inst.q)))
    flat = QuboInstance(n=4, q=np.zeros((4, 4)), k=2)
    assert default_sa_config(flat).initial_temperature == 1.0


def _anneal_once_numpy(inst, cfg, rng):
    """The flip loop on numpy scalars and a numpy column add: the reference
    the Python-float loop of ``qevt.annealing._anneal_once`` must match."""
    n, q, k, w = inst.n, inst.q, inst.k, inst.penalty_weight
    x = rng.integers(0, 2, size=n).astype(np.float64)
    gx = q @ x
    s = float(x.sum())
    energy = float(x @ gx) + w * (s - k) ** 2
    best_bits = x.copy()
    best_energy = energy
    temperature = cfg.initial_temperature
    for _ in range(cfg.sweeps):
        sites = rng.integers(0, n, size=n)
        accept_draws = rng.random(n)
        for i, u in zip(sites, accept_draws):
            d = 1.0 - 2.0 * x[i]
            delta = 2.0 * d * gx[i] + q[i, i] + w * (2.0 * d * (s - k) + 1.0)
            if delta <= 0.0 or (temperature > 0.0 and u < math.exp(-delta / temperature)):
                x[i] += d
                gx += d * q[:, i]
                s += d
                energy += delta
                if energy < best_energy:
                    best_energy = energy
                    best_bits = x.copy()
        temperature *= cfg.cooling_rate
    return best_bits.astype(np.int8), best_energy


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 24),
    inst_seed=st.integers(0, 10_000),
    k_frac=st.floats(0.0, 1.0),
    penalty_weight=st.floats(0.0, 5.0),
    magnitude=st.floats(0.01, 3.0),
    initial_temperature=st.floats(1e-3, 50.0),
    cooling_rate=st.floats(0.5, 0.999),
    sweeps=st.integers(1, 40),
    rng_seed=st.integers(0, 2**32 - 1),
)
def test_python_float_loop_matches_the_numpy_loop(n, inst_seed, k_frac, penalty_weight, magnitude,
                                                  initial_temperature, cooling_rate, sweeps,
                                                  rng_seed):
    if n == 1:  # below generate_synthetic_q's smallest size
        inst = QuboInstance(n=1, q=[[magnitude * (-1) ** inst_seed]], k=round(k_frac),
                            penalty_weight=penalty_weight)
    else:
        inst = generate_synthetic_q(n, seed=inst_seed, k=round(k_frac * n), magnitude=magnitude,
                                    penalty_weight=penalty_weight)
    cfg = SaConfig(initial_temperature=initial_temperature, cooling_rate=cooling_rate,
                   sweeps=sweeps, restarts=1)
    bits, energy = _anneal_once(inst, cfg, np.random.default_rng(rng_seed))
    ref_bits, ref_energy = _anneal_once_numpy(inst, cfg, np.random.default_rng(rng_seed))
    assert bits.dtype == ref_bits.dtype and np.array_equal(bits, ref_bits)
    assert energy == ref_energy


def _per_sweep_draws(rng, n, sweeps):
    sites, uniforms = [], []
    for _ in range(sweeps):
        sites.append(rng.integers(0, n, size=n))
        uniforms.append(rng.random(n))
    return np.array(sites), np.array(uniforms)


@pytest.mark.parametrize("n", range(2, 25))
def test_sweep_draws_replay_the_per_sweep_calls(n):
    # a spare 32-bit half is held before the sweeps after an odd number of
    # 32-bit draws, and odd n pass one on from sweep to sweep
    for seed, before in [(0, 0), (1, 1), (2, 3), (3, 2)]:
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        rng.integers(0, 2, size=before)
        ref.integers(0, 2, size=before)
        sites, uniforms = _sweep_draws(rng, n, 7)
        ref_sites, ref_uniforms = _per_sweep_draws(ref, n, 7)
        assert sites.dtype == ref_sites.dtype and np.array_equal(sites, ref_sites)
        assert np.array_equal(uniforms, ref_uniforms)
        # the generator is left where the per-sweep calls leave it
        assert rng.bit_generator.state == ref.bit_generator.state


def _philox():
    return np.random.Generator(np.random.Philox(5))


@pytest.mark.parametrize("make_rng, n", [(_philox, 9), (lambda: np.random.default_rng(4), 1)])
def test_sweeps_without_a_replay_draw_per_sweep(make_rng, n):
    rng = make_rng()
    assert _sweep_draws(rng, n, 5) is None
    assert np.array_equal(rng.random(4), make_rng().random(4))  # the generator is untouched
    inst = (QuboInstance(n=1, q=[[0.4]], k=0) if n == 1
            else generate_synthetic_q(n, seed=n, magnitude=0.5))
    cfg = SaConfig(initial_temperature=2.0, cooling_rate=0.9, sweeps=30, restarts=1)
    bits, energy = _anneal_once(inst, cfg, make_rng())
    ref_bits, ref_energy = _anneal_once_numpy(inst, cfg, make_rng())
    assert np.array_equal(bits, ref_bits) and energy == ref_energy


def _zero_spare():
    # a held 32-bit half of 0 puts the first site at Lemire's rejection test:
    # (0 * n) mod 2^32 = 0 < n, and for n = 18 numpy rejects it and draws again
    rng = np.random.default_rng(6)
    state = rng.bit_generator.state
    state["has_uint32"], state["uinteger"] = 1, 0
    rng.bit_generator.state = state
    return rng


def test_a_possible_rejection_is_not_replayed():
    rng = _zero_spare()
    assert _sweep_draws(rng, 18, 5) is None
    assert rng.bit_generator.state == _zero_spare().bit_generator.state
    # numpy drew again: a replay would have put the first site at 0
    sites, uniforms = _per_sweep_draws(rng, 18, 5)
    assert sites[0, 0] != 0
