"""Statevector engine: state prep, layers, expectation, optimization, sampling."""

import numpy as np
import pytest
from scipy import stats as sps

from qevt.errors import CapacityError
from qevt.qaoa import (
    NoiseConfig,
    OptimizerConfig,
    QaoaParams,
    ShotBatch,
    apply_cost_layer,
    apply_mixer_layer,
    circuit_state,
    collect_extreme_samples,
    expectation_energy,
    optimize_parameters,
    prepare_initial_state,
    run_minima_batch,
    sample_shots,
)
from qevt.qubo import (
    IsingModel,
    QuboInstance,
    bits_to_index,
    brute_force_minimum,
    energy_table,
    generate_synthetic_q,
    ising_energy,
    ising_energy_table,
    to_ising,
)
from qevt.seeding import derive_seed


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    state = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return state / np.linalg.norm(state)


class TestInitialState:
    def test_single_qubit_plus(self):
        state = prepare_initial_state(1, "plus")
        assert np.allclose(state, [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_single_qubit_minus(self):
        state = prepare_initial_state(1, "minus")
        assert np.allclose(state, [1 / np.sqrt(2), -1 / np.sqrt(2)])

    @pytest.mark.parametrize("variant", ["plus", "minus"])
    def test_uniform_measurement_distribution(self, variant):
        state = prepare_initial_state(5, variant)
        probs = np.abs(state) ** 2
        assert np.allclose(probs, 1 / 32)

    def test_minus_signs_follow_parity(self):
        state = prepare_initial_state(3, "minus")
        for idx in range(8):
            sign = (-1) ** bin(idx).count("1")
            assert state[idx] == pytest.approx(sign * 2 ** -1.5)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            prepare_initial_state(2, "bogus")

    def test_capacity(self):
        with pytest.raises(CapacityError):
            prepare_initial_state(25)


class TestCostLayer:
    def test_zero_angle_identity(self):
        model = to_ising(generate_synthetic_q(4, seed=0))
        state = random_state(4, 1)
        assert np.allclose(apply_cost_layer(state, model, 0.0), state)

    def test_pure_phase_preserves_magnitudes(self):
        model = to_ising(generate_synthetic_q(5, seed=2))
        state = random_state(5, 3)
        out = apply_cost_layer(state, model, 0.83)
        assert np.allclose(np.abs(out), np.abs(state), atol=1e-12)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-10)

    def test_two_qubit_phases_hand_enumerated(self):
        model = IsingModel(n=2, h=[1.0, -1.0], j={(0, 1): 2.0}, offset=0.0)
        gamma = np.pi / 4
        state = np.full(4, 0.5, dtype=np.complex128)
        out = apply_cost_layer(state, model, gamma)
        for idx in range(4):
            z = [2 * ((idx >> b) & 1) - 1 for b in range(2)]
            energy = ising_energy(model, z)
            assert out[idx] == pytest.approx(0.5 * np.exp(-1j * gamma * energy), abs=1e-12)


class TestMixerLayer:
    def test_zero_angle_identity(self):
        state = random_state(4, 7)
        assert np.allclose(apply_mixer_layer(state, 0.0), state)

    def test_half_pi_flips_single_qubit(self):
        out = apply_mixer_layer(np.array([1.0 + 0j, 0.0]), np.pi / 2)
        assert np.allclose(out, [0.0, -1j])

    def test_unitarity(self):
        state = random_state(6, 11)
        for beta in (0.3, -1.2, 2.9):
            state = apply_mixer_layer(state, beta)
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-10)


class TestExpectation:
    def test_uniform_state_gives_mean_energy(self):
        inst = generate_synthetic_q(6, seed=4)
        model = to_ising(inst)
        state = prepare_initial_state(6, "plus")
        assert expectation_energy(state, model) == pytest.approx(
            energy_table(inst).mean(), abs=1e-9
        )

    def test_basis_state_gives_exact_energy(self):
        inst = generate_synthetic_q(4, seed=9)
        model = to_ising(inst)
        table = energy_table(inst)
        state = np.zeros(16, dtype=np.complex128)
        state[5] = 1.0
        assert expectation_energy(state, model) == pytest.approx(table[5], abs=1e-12)

    def test_random_state_matches_enumeration_oracle(self):
        inst = generate_synthetic_q(8, seed=1)
        model = to_ising(inst)
        state = random_state(8, 2)
        expected = float(np.sum(np.abs(state) ** 2 * ising_energy_table(model)))
        assert expectation_energy(state, model) == pytest.approx(expected, abs=1e-10)


class TestCircuit:
    def test_zero_angles_leave_initial_state(self):
        model = to_ising(generate_synthetic_q(5, seed=3))
        params = QaoaParams(3, np.zeros(3), np.zeros(3))
        for variant in ("plus", "minus"):
            state = circuit_state(model, params, variant)
            assert np.allclose(state, prepare_initial_state(5, variant), atol=1e-12)

    def test_unitarity_deep_circuit(self):
        model = to_ising(generate_synthetic_q(6, seed=6))
        rng = np.random.default_rng(0)
        params = QaoaParams(5, rng.uniform(-np.pi, np.pi, 5), rng.uniform(-1.5, 1.5, 5))
        state = circuit_state(model, params)
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-10)

    def test_variant_beta_sign_symmetry(self):
        # |-> start equals Z^n |+> start; the diagonal layers commute with Z^n
        # and conjugating the mixer flips beta, so the distributions coincide
        model = to_ising(generate_synthetic_q(5, seed=8))
        rng = np.random.default_rng(4)
        gammas = rng.uniform(-np.pi, np.pi, 3)
        betas = rng.uniform(-1.5, 1.5, 3)
        probs_minus = np.abs(circuit_state(model, QaoaParams(3, gammas, betas), "minus")) ** 2
        probs_plus = np.abs(circuit_state(model, QaoaParams(3, gammas, -betas), "plus")) ** 2
        assert np.allclose(probs_minus, probs_plus, atol=1e-10)


class TestOptimizer:
    def test_flat_landscape_returns_constant_expectation(self):
        inst = QuboInstance(n=3, q=np.zeros((3, 3)), k=0, penalty_weight=0.0)
        params = optimize_parameters(inst, 2, OptimizerConfig(restarts=2, maxiter=30, seed=0))
        model = to_ising(inst)
        assert expectation_energy(circuit_state(model, params), model) == pytest.approx(0.0, abs=1e-9)

    def test_never_worse_than_zero_angles(self):
        inst = generate_synthetic_q(6, seed=42)
        model = to_ising(inst)
        params = optimize_parameters(inst, 3, OptimizerConfig(restarts=10, maxiter=80, seed=0))
        optimized = expectation_energy(circuit_state(model, params), model)
        uniform_mean = energy_table(inst).mean()
        assert optimized <= uniform_mean + 1e-9

    def test_boosts_ground_state_mass(self):
        inst = generate_synthetic_q(8, seed=5)
        bits, _ = brute_force_minimum(inst)
        ground = bits_to_index(bits)
        model = to_ising(inst)
        params = optimize_parameters(inst, 3, OptimizerConfig(restarts=6, maxiter=120, seed=1))
        probs = np.abs(circuit_state(model, params)) ** 2
        assert probs[ground] > 1 / 256

    def test_deterministic(self):
        inst = generate_synthetic_q(5, seed=11)
        cfg = OptimizerConfig(restarts=4, maxiter=50, seed=9)
        a = optimize_parameters(inst, 2, cfg)
        b = optimize_parameters(inst, 2, cfg)
        assert np.array_equal(a.gammas, b.gammas)
        assert np.array_equal(a.betas, b.betas)

    def test_angles_respect_bounds(self):
        inst = generate_synthetic_q(5, seed=14)
        params = optimize_parameters(inst, 3, OptimizerConfig(restarts=5, maxiter=60, seed=2))
        assert np.all(np.abs(params.gammas) <= np.pi + 1e-9)
        assert np.all(np.abs(params.betas) <= np.pi / 2 + 1e-9)


class TestSampling:
    def test_basis_state_zero_noise(self):
        inst = generate_synthetic_q(4, seed=0)
        table = energy_table(inst)
        state = np.zeros(16, dtype=np.complex128)
        state[9] = 1.0
        batch = sample_shots(state, inst, 50, NoiseConfig(0.0), seed=5)
        assert np.all(batch.energies == table[9])
        assert batch.minimum == table[9]

    def test_uniform_state_chi_square(self):
        inst = generate_synthetic_q(8, seed=3)
        state = prepare_initial_state(8, "minus")
        batch = sample_shots(state, inst, 100_000, NoiseConfig(0.0), seed=1)
        table = energy_table(inst)
        # recover sampled indices through the (injective a.s.) energy map
        order = np.argsort(table)
        counts = np.bincount(np.searchsorted(table[order], batch.energies), minlength=256)
        _, p = sps.chisquare(counts)
        assert p > 0.01

    def test_full_readout_scrambling_uniform(self):
        inst = generate_synthetic_q(4, seed=6)
        state = np.zeros(16, dtype=np.complex128)
        state[0] = 1.0
        batch = sample_shots(state, inst, 80_000, NoiseConfig(0.5), seed=2)
        table = energy_table(inst)
        order = np.argsort(table)
        counts = np.bincount(np.searchsorted(table[order], batch.energies), minlength=16)
        _, p = sps.chisquare(counts)
        assert p > 0.01

    def test_deterministic(self):
        inst = generate_synthetic_q(5, seed=1)
        state = prepare_initial_state(5, "minus")
        a = sample_shots(state, inst, 200, NoiseConfig(0.1), seed=33)
        b = sample_shots(state, inst, 200, NoiseConfig(0.1), seed=33)
        assert np.array_equal(a.energies, b.energies)

    def test_shot_batch_minimum_invariant(self):
        batch = ShotBatch(shots_s=3, energies=[2.0, -1.0, 0.5])
        assert batch.minimum == -1.0


class TestExtremeSamples:
    def test_single_run(self):
        inst = generate_synthetic_q(5, seed=2)
        params = QaoaParams(1, [0.4], [0.3])
        minima = collect_extreme_samples(inst, params, 30, 1, seed=4)
        assert minima.shape == (1,)

    def test_reproducible(self):
        inst = generate_synthetic_q(6, seed=3)
        params = QaoaParams(2, [0.4, -0.2], [0.3, 0.1])
        a = collect_extreme_samples(inst, params, 100, 20, seed=8)
        b = collect_extreme_samples(inst, params, 100, 20, seed=8)
        assert np.array_equal(a, b)

    def test_minima_stochastically_decrease_with_shots(self):
        inst = generate_synthetic_q(10, seed=4)
        params = optimize_parameters(inst, 2, OptimizerConfig(restarts=3, maxiter=60, seed=0))
        few = collect_extreme_samples(inst, params, 100, 50, seed=10)
        many = collect_extreme_samples(inst, params, 2000, 50, seed=11)
        assert many.mean() <= few.mean()

    @pytest.mark.parametrize("flip", [0.0, 0.1])
    def test_each_run_is_sample_shots_on_its_csv_seed(self, flip):
        # the seed column of extremes_s*.csv promises that run r reproduces
        # alone through sample_shots with derive_seed(seed, "extreme-run", r)
        inst = generate_synthetic_q(8, seed=5)
        params = QaoaParams(2, [0.3, -0.4], [0.2, 0.1])
        noise = NoiseConfig(flip)
        minima = collect_extreme_samples(inst, params, 60, 25, noise, seed=7)
        state = circuit_state(to_ising(inst), params)
        per_run = [
            sample_shots(state, inst, 60, noise, derive_seed(7, "extreme-run", r)).minimum
            for r in range(25)
        ]
        assert minima.tolist() == per_run

    @pytest.mark.parametrize("flip", [0.0, 0.1])
    def test_one_batch_run_is_sample_shots_on_the_same_seed(self, flip):
        inst = generate_synthetic_q(8, seed=6)
        state = circuit_state(to_ising(inst), QaoaParams(1, [0.5], [0.4]))
        noise = NoiseConfig(flip)
        batched = run_minima_batch(state, inst, 80, 1, noise, seed=21)
        assert batched[0] == sample_shots(state, inst, 80, noise, seed=21).minimum

    def test_batch_runs_match_distribution(self):
        # the vectorized batch sampler must agree with per-run sampling in law
        inst = generate_synthetic_q(8, seed=9)
        params = QaoaParams(1, [0.5], [0.4])
        looped = collect_extreme_samples(inst, params, 50, 400, seed=12)
        state = circuit_state(to_ising(inst), params)
        batched = run_minima_batch(state, inst, 50, 400, seed=13)
        ks = sps.ks_2samp(looped, batched)
        assert ks.pvalue > 0.01


class TestNoiseConfig:
    def test_bounds(self):
        with pytest.raises(ValueError):
            NoiseConfig(-0.1)
        with pytest.raises(ValueError):
            NoiseConfig(0.6)
