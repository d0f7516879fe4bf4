"""Simulated-annealing baseline behavior."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qevt.annealing import (
    SaConfig,
    _anneal_once,
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
    sites = rng.integers(0, n, size=(cfg.sweeps, n))
    uniforms = rng.random((cfg.sweeps, n))
    temperature = cfg.initial_temperature
    for sweep_sites, sweep_uniforms in zip(sites, uniforms):
        for i, u in zip(sweep_sites, sweep_uniforms):
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


BIT_GENERATORS = [np.random.PCG64, np.random.Philox]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    bit_generator=st.sampled_from(BIT_GENERATORS),
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
def test_python_float_loop_matches_the_numpy_loop(bit_generator, n, inst_seed, k_frac,
                                                  penalty_weight, magnitude, initial_temperature,
                                                  cooling_rate, sweeps, rng_seed):
    if n == 1:  # below generate_synthetic_q's smallest size
        inst = QuboInstance(n=1, q=[[magnitude * (-1) ** inst_seed]], k=round(k_frac),
                            penalty_weight=penalty_weight)
    else:
        inst = generate_synthetic_q(n, seed=inst_seed, k=round(k_frac * n), magnitude=magnitude,
                                    penalty_weight=penalty_weight)
    cfg = SaConfig(initial_temperature=initial_temperature, cooling_rate=cooling_rate,
                   sweeps=sweeps, restarts=1)
    bits, energy = _anneal_once(inst, cfg, np.random.Generator(bit_generator(rng_seed)))
    ref_bits, ref_energy = _anneal_once_numpy(inst, cfg,
                                              np.random.Generator(bit_generator(rng_seed)))
    assert bits.dtype == ref_bits.dtype and np.array_equal(bits, ref_bits)
    assert energy == ref_energy


class _Recorder:
    """A generator that records the name and shape of each draw."""

    def __init__(self, rng):
        self.rng, self.draws = rng, []

    def __getattr__(self, name):
        def draw(*args, **kwargs):
            out = getattr(self.rng, name)(*args, **kwargs)
            self.draws.append((name, np.shape(out)))
            return out
        return draw


@pytest.mark.parametrize("n", range(1, 25))
def test_a_restart_draws_bits_then_sites_then_uniforms(n):
    # the module's draw rule, on every bit generator; the float-loop property
    # checks what the loop does with the draws, and the benchmark's tracer
    # counts the acceptance uniforms of the (sweeps, n) block
    inst = (QuboInstance(n=1, q=[[0.4]], k=0) if n == 1
            else generate_synthetic_q(n, seed=n, magnitude=0.5))
    cfg = SaConfig(initial_temperature=2.0, cooling_rate=0.9, sweeps=7, restarts=1)
    for make in BIT_GENERATORS:
        rng = _Recorder(np.random.Generator(make(n)))
        _anneal_once(inst, cfg, rng)
        assert rng.draws == [("integers", (n,)), ("integers", (7, n)), ("random", (7, n))]
