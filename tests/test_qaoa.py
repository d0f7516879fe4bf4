"""Statevector engine: state prep, layers, expectation, optimization, sampling."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sps

import qevt.qaoa
from qevt.errors import CapacityError
from qevt.gev import meets_baseline, required_runs
from qevt.qaoa import (
    BETA_BOUND,
    GAMMA_BOUND,
    NoiseConfig,
    OptimizerConfig,
    QaoaParams,
    RunMinimumLaw,
    apply_mixer_layer,
    circuit_law,
    circuit_state,
    collect_extreme_samples,
    expectation_and_gradient,
    expectation_energy,
    measured_distribution,
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

    @pytest.mark.parametrize("variant", ["plus", "minus"])
    @pytest.mark.parametrize("n", range(1, 19))
    def test_doubled_signs_match_the_parity_mask(self, n, variant):
        # the former construction: a sign flip through a boolean parity mask
        amp = 2.0 ** (-n / 2.0)
        expected = np.full(1 << n, amp, dtype=np.complex128)
        if variant == "minus":
            parity = np.bitwise_count(np.arange(1 << n, dtype=np.uint32)) & 1
            expected[parity == 1] *= -1.0
        state = prepare_initial_state(n, variant)
        assert np.array_equal(state, expected)
        assert state.tobytes() == expected.tobytes()  # signed zeros too


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


def reference_mixer_layer(state, beta):
    """e^{-i beta X} per qubit by the plain per-bit reshape: the reference
    the cache-blocked pair kernel must match bit for bit."""
    n = int(np.log2(state.size))
    out = state.copy()
    c, s = np.cos(beta), np.sin(beta)
    for i in range(n):
        view = out.reshape(-1, 2, 1 << i)
        a = view[:, 0, :].copy()
        b = view[:, 1, :]
        view[:, 0, :] = c * a - 1j * s * b
        view[:, 1, :] = -1j * s * a + c * b
    return out


def reference_readout_flips(state, flip_prob):
    """The readout-flip map one bit at a time by the plain per-bit reshape."""
    n = int(np.log2(state.size))
    probs = (state.conj() * state).real.copy()
    if flip_prob == 0.0:
        return probs
    keep = 1.0 - flip_prob
    for i in range(n):
        view = probs.reshape(-1, 2, 1 << i)
        a = view[:, 0, :].copy()
        b = view[:, 1, :]
        view[:, 0, :] = keep * a + flip_prob * b
        view[:, 1, :] = flip_prob * a + keep * b
    return probs


def reference_circuit_state(model, params, variant, energies):
    state = prepare_initial_state(model.n, variant)
    for gamma, beta in zip(params.gammas, params.betas):
        state *= np.exp(-1j * gamma * energies)
        state = reference_mixer_layer(state, beta)
    return state


# n = 14..16 run the pair kernel's column-chunk pass, for bits above a block
PAIR_KERNEL_SIZES = st.integers(1, 16)


class TestPairKernel:
    """The cache-blocked pair kernel gives the doubles of the per-bit reshape."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n=PAIR_KERNEL_SIZES,
        beta=st.sampled_from([0.0, np.pi / 2, -np.pi / 2]) | st.floats(-np.pi, np.pi),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=14, beta=0.3, seed=1)
    @example(n=16, beta=-np.pi / 2, seed=2)
    def test_mixer_matches_the_reshape_mixer(self, n, beta, seed):
        state = random_state(n, seed)
        assert np.array_equal(apply_mixer_layer(state, beta), reference_mixer_layer(state, beta))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        n=PAIR_KERNEL_SIZES,
        depth=st.integers(1, 3),
        variant=st.sampled_from(["plus", "minus"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=15, depth=2, variant="minus", seed=3)
    def test_circuit_state_matches_the_reshape_circuit(self, n, depth, variant, seed):
        rng = np.random.default_rng(seed)
        model = IsingModel(n=n, h=rng.normal(size=n),
                           j={(a, b): float(rng.normal()) for a in range(n) for b in range(a + 1, n)},
                           offset=float(rng.normal()))
        params = QaoaParams(depth, rng.uniform(-np.pi, np.pi, depth), rng.uniform(-1.5, 1.5, depth))
        energies = ising_energy_table(model)
        assert np.array_equal(circuit_state(model, params, variant, energies),
                              reference_circuit_state(model, params, variant, energies))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        n=PAIR_KERNEL_SIZES,
        flip=st.sampled_from([0.0, 0.02, 0.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=16, flip=0.02, seed=4)
    def test_readout_flips_match_the_reshape_loop(self, n, flip, seed):
        state = random_state(n, seed)
        assert np.array_equal(measured_distribution(state, flip),
                              reference_readout_flips(state, flip))


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

    @pytest.mark.parametrize("size", [1, 4, 16])
    def test_table_of_another_size_refused(self, size):
        model = to_ising(generate_synthetic_q(3, seed=1))
        params = QaoaParams(1, [0.5], [0.4])
        with pytest.raises(ValueError, match="energy table"):
            circuit_state(model, params, energies=np.full(size, 2.0))

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

    def test_zero_angles_win_when_every_start_ends_worse(self, monkeypatch):
        # a ramp far too steep, stopped after one iteration, starts (5.11) and
        # ends (3.59) above the uniform state (1.95); the zero angles are a
        # candidate of their own
        monkeypatch.setattr(qevt.qaoa, "_RAMP_SCALE", 2.5)
        inst = generate_synthetic_q(4, seed=0)
        params = optimize_parameters(inst, 2, OptimizerConfig(restarts=1, maxiter=1))
        assert not params.gammas.any() and not params.betas.any()

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

    def test_ramp_start_follows_the_initial_state(self):
        # |+>^n with betas -b measures as |->^n with b, and the first start's
        # betas change sign with the start state, so one start reaches the
        # same expectation from either
        inst = generate_synthetic_q(8, seed=3)
        model = to_ising(inst)
        values = []
        for variant in ("plus", "minus"):
            params = optimize_parameters(inst, 3, OptimizerConfig(restarts=1, initial_state=variant))
            values.append(expectation_energy(circuit_state(model, params, variant), model))
        assert values[0] == pytest.approx(values[1], abs=1e-9)
        assert values[1] < energy_table(inst).mean() - 1.0

    def test_angles_respect_bounds(self):
        inst = generate_synthetic_q(5, seed=14)
        params = optimize_parameters(inst, 3, OptimizerConfig(restarts=5, maxiter=60, seed=2))
        assert np.all(np.abs(params.gammas) <= np.pi + 1e-9)
        assert np.all(np.abs(params.betas) <= np.pi / 2 + 1e-9)


def random_model(n, seed):
    rng = np.random.default_rng(seed)
    return IsingModel(n=n, h=rng.normal(size=n),
                      j={(a, b): float(rng.normal()) for a in range(n) for b in range(a + 1, n)},
                      offset=float(rng.normal()))


class TestGradient:
    """The adjoint gradient the optimizer runs on."""

    CASES = dict(
        n=st.integers(1, 10),
        depth=st.integers(1, 4),
        variant=st.sampled_from(["plus", "minus"]),
        seed=st.integers(0, 2**32 - 1),
    )

    @staticmethod
    def params(depth, seed):
        rng = np.random.default_rng([seed, 1])
        return QaoaParams(depth, rng.uniform(-GAMMA_BOUND, GAMMA_BOUND, depth),
                          rng.uniform(-BETA_BOUND, BETA_BOUND, depth))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(**CASES)
    def test_value_is_the_circuits_expectation(self, n, depth, variant, seed):
        model, params = random_model(n, seed), self.params(depth, seed)
        energies = ising_energy_table(model)
        value, _ = expectation_and_gradient(model, params, variant, energies)
        assert value == expectation_energy(circuit_state(model, params, variant, energies),
                                           model, energies)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(**CASES)
    def test_gradient_matches_central_differences(self, n, depth, variant, seed):
        model, params = random_model(n, seed), self.params(depth, seed)
        energies = ising_energy_table(model)
        _, grad = expectation_and_gradient(model, params, variant, energies)
        angles, h = np.concatenate([params.gammas, params.betas]), 1e-6

        def value(x):
            state = circuit_state(model, QaoaParams(depth, x[:depth], x[depth:]), variant, energies)
            return expectation_energy(state, model, energies)

        step = h * np.eye(2 * depth)
        central = [(value(angles + e) - value(angles - e)) / (2 * h) for e in step]
        # the differences' rounding is about 1e-16 |E| / h, their truncation
        # h^2 |E|^3 / 6: both far below 1e-8 |E| here
        np.testing.assert_allclose(grad, central, rtol=1e-6, atol=1e-8 * np.abs(energies).max())

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(**CASES)
    def test_zero_angles_are_stationary(self, n, depth, variant, seed):
        # the phases leave the start's probabilities alone and the start is an
        # X eigenstate, so a gradient method started at zero stops there: the
        # optimizer's first start is a ramp
        model = random_model(n, seed)
        _, grad = expectation_and_gradient(
            model, QaoaParams(depth, np.zeros(depth), np.zeros(depth)), variant)
        assert np.all(np.abs(grad) < 1e-12)


def reference_cobyla_parameters(inst, depth_p, cfg):
    """The former optimizer, the reference the gradient optimizer must not
    lose to: COBYLA from the all-zero angles plus the same Halton starts,
    each start and each end point a candidate."""
    from scipy import optimize
    from scipy.stats import qmc

    model = to_ising(inst)
    energies = ising_energy_table(model)
    lo = np.array([-GAMMA_BOUND] * depth_p + [-BETA_BOUND] * depth_p)
    hi = -lo

    def objective(angles):
        params = QaoaParams(depth_p, angles[:depth_p], angles[depth_p:])
        return expectation_energy(circuit_state(model, params, cfg.initial_state, energies), model, energies)

    starts = [np.zeros(2 * depth_p)]
    if cfg.restarts > 1:
        sampler = qmc.Halton(d=2 * depth_p, scramble=True, seed=derive_seed(cfg.seed, "qaoa-starts"))
        starts.extend(qmc.scale(sampler.random(cfg.restarts - 1), lo, hi))
    candidates = []
    for idx, x0 in enumerate(starts):
        candidates.append((objective(x0), idx, 0, np.asarray(x0, dtype=np.float64)))
        res = optimize.minimize(objective, x0, method="COBYLA", bounds=list(zip(lo, hi)),
                                options={"maxiter": cfg.maxiter, "rhobeg": 0.5})
        x = np.clip(res.x, lo, hi)
        candidates.append((float(objective(x)), idx, 1, x))
    best = min(candidates, key=lambda t: (t[0], t[1], t[2]))[3]
    return QaoaParams(depth_p, best[:depth_p], best[depth_p:])


@pytest.mark.parametrize("variant", ["plus", "minus"])
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("n", [6, 8, 10])
def test_angles_never_worse_than_cobyla(n, seed, variant):
    inst = generate_synthetic_q(n, seed=seed)
    model = to_ising(inst)
    cfg = OptimizerConfig(restarts=2, maxiter=60, seed=seed, initial_state=variant)

    def value(params):
        return expectation_energy(circuit_state(model, params, variant), model)

    assert value(optimize_parameters(inst, 3, cfg)) <= (
        value(reference_cobyla_parameters(inst, 3, cfg)) + 1e-9)


class TestSampling:
    def test_basis_state_zero_noise(self):
        inst = generate_synthetic_q(4, seed=0)
        table = energy_table(inst)
        state = np.zeros(16, dtype=np.complex128)
        state[9] = 1.0
        shots = sample_shots(state, inst, 50, NoiseConfig(0.0), seed=5)
        assert shots.shape == (50,)
        assert np.all(shots == table[9])

    def test_uniform_state_chi_square(self):
        inst = generate_synthetic_q(8, seed=3)
        state = prepare_initial_state(8, "minus")
        shots = sample_shots(state, inst, 100_000, NoiseConfig(0.0), seed=1)
        table = energy_table(inst)
        # recover sampled indices through the (injective a.s.) energy map
        order = np.argsort(table)
        counts = np.bincount(np.searchsorted(table[order], shots), minlength=256)
        _, p = sps.chisquare(counts)
        assert p > 0.01

    def test_full_readout_scrambling_uniform(self):
        inst = generate_synthetic_q(4, seed=6)
        state = np.zeros(16, dtype=np.complex128)
        state[0] = 1.0
        shots = sample_shots(state, inst, 80_000, NoiseConfig(0.5), seed=2)
        table = energy_table(inst)
        order = np.argsort(table)
        counts = np.bincount(np.searchsorted(table[order], shots), minlength=16)
        _, p = sps.chisquare(counts)
        assert p > 0.01

    def test_deterministic(self):
        inst = generate_synthetic_q(5, seed=1)
        state = prepare_initial_state(5, "minus")
        a = sample_shots(state, inst, 200, NoiseConfig(0.1), seed=33)
        b = sample_shots(state, inst, 200, NoiseConfig(0.1), seed=33)
        assert np.array_equal(a, b)


class TestExtremeSamples:
    def test_single_run(self):
        inst = generate_synthetic_q(5, seed=2)
        params = QaoaParams(1, [0.4], [0.3])
        minima = collect_extreme_samples(inst, circuit_law(inst, params), 30, 1, seed=4)
        assert minima.shape == (1,)

    def test_reproducible(self):
        inst = generate_synthetic_q(6, seed=3)
        params = QaoaParams(2, [0.4, -0.2], [0.3, 0.1])
        a = collect_extreme_samples(inst, circuit_law(inst, params), 100, 20, seed=8)
        b = collect_extreme_samples(inst, circuit_law(inst, params), 100, 20, seed=8)
        assert np.array_equal(a, b)

    def test_minima_stochastically_decrease_with_shots(self):
        inst = generate_synthetic_q(10, seed=4)
        params = optimize_parameters(inst, 2, OptimizerConfig(restarts=3, maxiter=60, seed=0))
        law = circuit_law(inst, params)
        few = collect_extreme_samples(inst, law, 100, 50, seed=10)
        many = collect_extreme_samples(inst, law, 2000, 50, seed=11)
        assert many.mean() <= few.mean()

    @pytest.mark.parametrize("flip", [0.0, 0.1])
    def test_each_run_inverts_the_law_at_its_csv_seed(self, flip):
        # the seed column of extremes_s*.csv promises that run r reproduces
        # alone: the exact per-run minimum law inverted at the first double
        # of default_rng(derive_seed(seed, "extreme-run", r))
        inst = generate_synthetic_q(8, seed=5)
        params = QaoaParams(2, [0.3, -0.4], [0.2, 0.1])
        minima = collect_extreme_samples(inst, circuit_law(inst, params, flip), 60, 25, seed=7)
        state = circuit_state(to_ising(inst), params)
        uniforms = [
            np.random.default_rng(derive_seed(7, "extreme-run", r)).random() for r in range(25)
        ]
        expected = reference_run_minima(
            reference_measured_distribution(state, flip), energy_table(inst), 60, uniforms
        )
        assert np.array_equal(minima, expected)

    @pytest.mark.parametrize("shots_s", [1, 80])
    @pytest.mark.parametrize("flip", [0.0, 0.1])
    def test_batch_run_r_inverts_the_law_at_uniform_r(self, flip, shots_s):
        # the stream fact of the batch sampler: run r is the exact per-run
        # minimum law inverted at the r-th double of default_rng(seed)
        inst = generate_synthetic_q(8, seed=6)
        state = circuit_state(to_ising(inst), QaoaParams(1, [0.5], [0.4]))
        noise = NoiseConfig(flip)
        batched = run_minima_batch(state, inst, shots_s, 500, noise, seed=21)
        uniforms = np.random.default_rng(21).random(500)
        expected = reference_run_minima(
            reference_measured_distribution(state, flip), energy_table(inst), shots_s, uniforms
        )
        assert np.array_equal(batched, expected)

    @pytest.mark.parametrize("flip", [0.0, 0.1])
    def test_prebuilt_law_gives_the_same_minima(self, flip):
        inst = generate_synthetic_q(8, seed=6)
        table = energy_table(inst)
        state = circuit_state(to_ising(inst), QaoaParams(1, [0.5], [0.4]), energies=table)
        law = RunMinimumLaw.from_distribution(measured_distribution(state, flip), table)
        built = run_minima_batch(state, inst, 30, 200, NoiseConfig(flip), seed=4)
        assert np.array_equal(run_minima_batch(state, inst, 30, 200, seed=4, law=law), built)

    def test_law_of_another_size_refused(self):
        law = circuit_law(generate_synthetic_q(6, seed=1), QaoaParams(1, [0.5], [0.4]))
        with pytest.raises(ValueError, match="dimensions"):
            collect_extreme_samples(generate_synthetic_q(5, seed=1), law, 20, 10)

    def test_state_of_another_size_refused(self):
        # a law built from a 6-qubit state and a 5-variable table would read
        # only part of the distribution
        state = prepare_initial_state(6)
        inst = generate_synthetic_q(5, seed=1)
        with pytest.raises(ValueError, match="sizes disagree"):
            run_minima_batch(state, inst, 20, 10)
        with pytest.raises(ValueError, match="sizes disagree"):
            sample_shots(state, inst, 20)

    def test_batch_runs_match_distribution(self):
        # the vectorized batch sampler must agree with per-run sampling in law
        inst = generate_synthetic_q(8, seed=9)
        params = QaoaParams(1, [0.5], [0.4])
        looped = collect_extreme_samples(inst, circuit_law(inst, params), 50, 400, seed=12)
        state = circuit_state(to_ising(inst), params)
        batched = run_minima_batch(state, inst, 50, 400, seed=13)
        ks = sps.ks_2samp(looped, batched)
        assert ks.pvalue > 0.01


def reference_measured_distribution(state, flip_prob):
    """The readout-flip channel as an explicit 2^n x 2^n matrix: the
    Kronecker product of one 2x2 stochastic map per bit, bit 0 last."""
    n = int(np.log2(state.size))
    bit = np.array([[1.0 - flip_prob, flip_prob], [flip_prob, 1.0 - flip_prob]])
    channel = np.ones((1, 1))
    for _ in range(n):
        channel = np.kron(bit, channel)
    return channel @ np.abs(state) ** 2


def reference_run_minima(probs, table, shots_s, uniforms):
    """Per-run minima by enumeration of the distinct levels: the smallest
    level e with 1 - (1 - P(E <= e))^s above the uniform."""
    levels = np.unique(table)
    law = np.array([1.0 - (1.0 - probs[table <= e].sum()) ** shots_s for e in levels])
    return levels[np.minimum(np.searchsorted(law, uniforms, side="right"), levels.size - 1)]


def reference_flipped_distribution(state, flip_prob):
    """The readout-flip channel one bit at a time by index XOR, for n where
    the explicit 2^n x 2^n matrix does not fit."""
    probs = np.abs(state) ** 2
    index = np.arange(state.size)
    for i in range(int(np.log2(state.size))):
        probs = (1.0 - flip_prob) * probs + flip_prob * probs[index ^ (1 << i)]
    return probs


def reference_run_minima_by_level(probs, table, shots_s, uniforms):
    """:func:`reference_run_minima` with the mass of each distinct level
    gathered by one ``bincount``, for tables with too many levels to scan."""
    levels, level_of = np.unique(table, return_inverse=True)
    cdf = np.cumsum(np.bincount(level_of, weights=probs, minlength=levels.size))
    law = 1.0 - (1.0 - cdf) ** shots_s
    return levels[np.minimum(np.searchsorted(law, uniforms, side="right"), levels.size - 1)]


class TestMeasuredDistribution:
    @pytest.mark.parametrize("variant", ["plus", "minus"])
    @pytest.mark.parametrize("flip", [0.0, 0.02, 0.5])
    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_matches_the_explicit_channel(self, n, flip, variant):
        params = QaoaParams(2, [0.7, -0.3], [0.4, 0.9])
        state = circuit_state(to_ising(generate_synthetic_q(n, seed=n)), params, variant)
        probs = measured_distribution(state, flip)
        assert np.allclose(probs, reference_measured_distribution(state, flip), rtol=0, atol=1e-12)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)


class TestRunMinimumLaw:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        n=st.integers(2, 6),
        inst_seed=st.integers(0, 1000),
        flip=st.sampled_from([0.0, 0.02, 0.3]),
        shots_s=st.sampled_from([1, 7, 100]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_empirical_cdf_within_five_sigma(self, n, inst_seed, flip, shots_s, seed):
        # rounded energies put several basis states on one level, as the
        # penalty terms of real instances do
        table = np.round(energy_table(generate_synthetic_q(n, seed=inst_seed)), 1)
        state = random_state(n, inst_seed)
        probs = reference_measured_distribution(state, flip)
        runs = 40_000
        minima = RunMinimumLaw.from_distribution(measured_distribution(state, flip), table).draw(
            shots_s, np.random.default_rng(seed).random(runs)
        )
        for level in np.unique(table):
            exact = min(1.0, 1.0 - (1.0 - probs[table <= level].sum()) ** shots_s)
            empirical = float((minima <= level).mean())
            assert abs(empirical - exact) <= 5.0 * np.sqrt(exact * (1.0 - exact) / runs) + 1e-12

    @pytest.mark.parametrize("table", ["zero", "integer"])
    def test_tied_levels_keep_the_stable_order(self, table):
        # Q = 0 puts every basis state of one Hamming weight on one level;
        # integer Q ties many more.  The mass of tied states differs, so the
        # order inside a tie moves log_survival
        n = 12
        q = np.zeros((n, n)) if table == "zero" else np.round(generate_synthetic_q(n, seed=3).q * 40)
        energies = energy_table(QuboInstance(n=n, q=q, k=4))
        probs = measured_distribution(random_state(n, 5), 0.0)
        law = RunMinimumLaw.from_distribution(probs, energies)
        order = np.argsort(energies, kind="stable")
        cdf = np.cumsum(probs[order])
        cdf /= cdf[-1]
        with np.errstate(divide="ignore"):
            assert np.array_equal(law.log_survival, np.log1p(-cdf))
        assert np.array_equal(law.levels, energies[order])

    def test_minima_are_table_levels_with_mass(self):
        table = np.array([3.0, -1.0, 2.0, -1.0])
        probs = np.array([0.5, 0.0, 0.5, 0.0])
        minima = RunMinimumLaw.from_distribution(probs, table).draw(
            5, np.random.default_rng(0).random(1000)
        )
        assert set(minima.tolist()) == {2.0, 3.0}

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n=st.integers(2, 6),
        inst_seed=st.integers(0, 1000),
        flip=st.sampled_from([0.0, 0.02, 0.3]),
        shots_s=st.sampled_from([1, 7, 100]),
        alpha=st.sampled_from([0.5, 0.9, 0.95]),
    )
    def test_p_run_and_n_exact_match_enumeration(self, n, inst_seed, flip, shots_s, alpha):
        # rounded energies put several basis states on one level; every
        # level is tried as the baseline, plus one below all levels and one
        # above them
        table = np.round(energy_table(generate_synthetic_q(n, seed=inst_seed)), 1)
        state = random_state(n, inst_seed)
        probs = reference_measured_distribution(state, flip)
        law = RunMinimumLaw.from_distribution(measured_distribution(state, flip), table)
        levels = np.unique(table)
        for y_ideal in (levels[0] - 1.0, *levels, levels[-1] + 1.0):
            p_shot = probs[meets_baseline(table, y_ideal)].sum()
            exact = min(1.0, 1.0 - (1.0 - p_shot) ** shots_s)
            assert abs(law.p_run(y_ideal, shots_s) - exact) <= 1e-12
            assert law.n_exact(y_ideal, shots_s, alpha) == required_runs(exact, alpha)
        assert law.p_run(levels[0] - 1.0, shots_s) == 0.0
        assert law.n_exact(levels[0] - 1.0, shots_s, alpha) == np.inf
        assert law.p_run(levels[-1], shots_s) == 1.0


class TestMeasurementKernel:
    """Single shots are the per-run minimum law at s = 1: shot k is the
    enumerated law inverted at the k-th double of ``default_rng(seed)``."""

    @pytest.mark.parametrize("flip", [0.0, 0.02, 0.5])
    @pytest.mark.parametrize("shape", [(1,), (1000,), (65535,), (65537,)])
    @pytest.mark.parametrize("n, sparse", [(1, False), (2, False), (8, False), (9, True),
                                           (18, True)])
    def test_measure_matches_reference(self, n, sparse, shape, flip):
        # the generator starts at n = 2
        inst = generate_synthetic_q(n, seed=n) if n > 1 else QuboInstance(1, [[0.03]], k=1)
        state = random_state(n, seed=n)
        if sparse:
            # zero-probability entries make runs of equal CDF values (ties)
            state[np.random.default_rng(1).random(state.size) < 0.75] = 0.0
            state[-1] = 0.0
            state /= np.linalg.norm(state)
        (shots_s,) = shape
        got = sample_shots(state, inst, shots_s, NoiseConfig(flip), shots_s)
        assert got.shape == shape
        uniforms = np.random.default_rng(shots_s).random(shots_s)
        if n <= 9:
            expected = reference_run_minima(
                reference_measured_distribution(state, flip), energy_table(inst), 1, uniforms,
            )
        else:
            expected = reference_run_minima_by_level(
                reference_flipped_distribution(state, flip), energy_table(inst), 1, uniforms,
            )
        assert np.array_equal(got, expected)


class TestNoiseConfig:
    def test_bounds(self):
        with pytest.raises(ValueError):
            NoiseConfig(-0.1)
        with pytest.raises(ValueError):
            NoiseConfig(0.6)
