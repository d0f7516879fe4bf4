"""QUBO core: energies, Ising conversion, oracles, generator, file round trips."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qevt.errors import CapacityError, InstanceFormatError
from qevt.qubo import (
    IsingModel,
    QuboInstance,
    bits_to_index,
    brute_force_minimum,
    energy_table,
    generate_synthetic_q,
    index_to_bits,
    ising_energy,
    ising_energy_table,
    load_instance,
    qubo_energy,
    save_instance,
    to_ising,
)


def direct_energy(q, k, x, w=1.0):
    """Independent oracle: literal double loop over the objective terms."""
    total = 0.0
    n = len(x)
    for i in range(n):
        for j in range(n):
            total += q[i][j] * x[i] * x[j]
    return total + w * (sum(x) - k) ** 2


def all_bitstrings(n):
    return [np.array(bits, dtype=np.int8) for bits in itertools.product([0, 1], repeat=n)]


def binary_energy_table(inst):
    """Reference: the binary form x^T Q x + w (sum x - k)^2 of every
    bitstring, evaluated in blocks with einsum and never through
    ``to_ising``, so comparing it with ``energy_table`` tests the conversion."""
    n, k, w = inst.n, inst.k, inst.penalty_weight
    size = 1 << n
    out = np.empty(size, dtype=np.float64)
    shifts = np.arange(n, dtype=np.int64)
    block = min(size, 1 << 16)
    for start in range(0, size, block):
        idx = np.arange(start, min(start + block, size), dtype=np.int64)
        bits = ((idx[:, None] >> shifts) & 1).astype(np.float64)
        quad = np.einsum("bi,ij,bj->b", bits, inst.q, bits)
        out[start : start + idx.size] = quad + w * (bits.sum(axis=1) - k) ** 2
    return out


def float_spin_table(model):
    """Reference: the spin-form table with float64 spins and the terms
    added in the same order as ``ising_energy_table``."""
    size = 1 << model.n
    out = np.full(size, model.offset, dtype=np.float64)
    idx = np.arange(size, dtype=np.int64)
    spins = []
    for i in range(model.n):
        z = (2 * ((idx >> i) & 1) - 1).astype(np.float64)
        spins.append(z)
        out += model.h[i] * z
    for (a, b), v in model.j.items():
        out += v * spins[a] * spins[b]
    return out


def int8_spin_table(model):
    """Reference: the spin-form table from int8 spin arrays, each term
    ``h_i * z_i`` and ``J_ij * (z_i * z_j)`` added over the whole table in
    the order offset, fields, couplings."""
    size = 1 << model.n
    out = np.full(size, model.offset, dtype=np.float64)
    idx = np.arange(size, dtype=np.uint32)
    spins = []
    for i in range(model.n):
        z = ((idx >> i) & 1).astype(np.int8) * 2 - 1
        spins.append(z)
        out += model.h[i] * z
    for (a, b), v in model.j.items():
        out += v * (spins[a] * spins[b])
    return out


class TestQuboEnergy:
    def test_pure_penalty(self):
        inst = QuboInstance(n=2, q=np.zeros((2, 2)), k=2)
        assert qubo_energy(inst, [0, 0]) == 4.0
        assert qubo_energy(inst, [1, 1]) == 0.0

    def test_matches_direct_summation_oracle(self):
        rng = np.random.default_rng(7)
        q = rng.normal(size=(3, 3))
        q = (q + q.T) / 2
        inst = QuboInstance(n=3, q=q, k=1)
        for x in all_bitstrings(3):
            assert qubo_energy(inst, x) == pytest.approx(direct_energy(q, 1, x), abs=1e-12)

    def test_dimension_mismatch(self):
        inst = QuboInstance(n=2, q=np.zeros((2, 2)), k=1)
        with pytest.raises(ValueError):
            qubo_energy(inst, [0, 1, 1])

    def test_penalty_weight_scales_penalty(self):
        inst = QuboInstance(n=2, q=np.zeros((2, 2)), k=2, penalty_weight=3.0)
        assert qubo_energy(inst, [0, 0]) == 12.0


class TestInstanceValidation:
    def test_asymmetric_rejected(self):
        q = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            QuboInstance(n=2, q=q, k=1)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            QuboInstance(n=2, q=np.zeros((2, 2)), k=3)

    def test_non_finite_rejected(self):
        q = np.full((2, 2), np.nan)
        with pytest.raises(ValueError):
            QuboInstance(n=2, q=q, k=1)

    def test_matrix_is_read_only(self):
        inst = QuboInstance(n=2, q=np.zeros((2, 2)), k=1)
        with pytest.raises(ValueError):
            inst.q[0, 0] = 1.0


class TestIsingEnergy:
    def test_offset_only(self):
        model = IsingModel(n=3, h=np.zeros(3), j={}, offset=2.5)
        assert ising_energy(model, [1, -1, 1]) == 2.5

    def test_hand_value(self):
        model = IsingModel(n=2, h=[1.0, -1.0], j={(0, 1): 2.0}, offset=0.0)
        assert ising_energy(model, [1, 1]) == pytest.approx(2.0)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(3)
        n = 4
        h = rng.normal(size=n)
        j = {(a, b): float(rng.normal()) for a in range(n) for b in range(a + 1, n)}
        model = IsingModel(n=n, h=h, j=j, offset=0.7)
        for z in itertools.product([-1, 1], repeat=n):
            expected = 0.7 + sum(h[i] * z[i] for i in range(n))
            expected += sum(v * z[a] * z[b] for (a, b), v in j.items())
            assert ising_energy(model, z) == pytest.approx(expected, abs=1e-12)

    def test_bad_spin_values(self):
        model = IsingModel(n=2, h=np.zeros(2), j={}, offset=0.0)
        with pytest.raises(ValueError):
            ising_energy(model, [0, 1])


class TestToIsing:
    def assert_equivalent(self, inst):
        model = to_ising(inst)
        for x in all_bitstrings(inst.n):
            z = 2 * x.astype(int) - 1
            assert ising_energy(model, z) == pytest.approx(
                qubo_energy(inst, x), abs=1e-9
            )

    def test_single_variable(self):
        q = 1.7
        inst = QuboInstance(n=1, q=[[q]], k=0)
        model = to_ising(inst)
        # f(0) = 0 at z=-1, f(1) = q+1 at z=+1
        assert ising_energy(model, [-1]) == pytest.approx(0.0, abs=1e-12)
        assert ising_energy(model, [1]) == pytest.approx(q + 1.0, abs=1e-12)

    def test_zero_q_penalty_only(self):
        for n in (2, 5, 10):
            inst = QuboInstance(n=n, q=np.zeros((n, n)), k=0)
            model = to_ising(inst)
            # couplings come from the penalty expansion alone: w/2 each
            assert all(v == pytest.approx(0.5) for v in model.j.values())
            self.assert_equivalent(inst)

    def test_uniform_diagonal_gives_identical_fields(self):
        inst = QuboInstance(n=5, q=2.0 * np.eye(5), k=2)
        model = to_ising(inst)
        assert np.allclose(model.h, model.h[0])

    @pytest.mark.parametrize("n,seed", [(2, 0), (3, 1), (4, 2), (6, 3), (8, 4)])
    def test_random_equivalence(self, n, seed):
        inst = generate_synthetic_q(n, seed=seed, k=n // 2)
        self.assert_equivalent(inst)

    def test_penalty_weight_respected(self):
        inst = generate_synthetic_q(4, seed=9, k=2, penalty_weight=2.5)
        self.assert_equivalent(inst)


class TestEnergyTables:
    def test_tables_agree(self):
        inst = generate_synthetic_q(7, seed=11)
        assert np.max(np.abs(binary_energy_table(inst) - energy_table(inst))) < 1e-9

    @pytest.mark.parametrize("n", [1, 2, 7, 13])
    @pytest.mark.parametrize("w", [1.0, 2.5])
    def test_int8_spins_give_the_float_spin_bits(self, n, w):
        q = [[0.3]] if n == 1 else generate_synthetic_q(n, seed=n).q
        inst = QuboInstance(n=n, q=q, k=n // 2, penalty_weight=w)
        assert np.array_equal(energy_table(inst), float_spin_table(to_ising(inst)))

    def test_integer_couplings_stay_in_float(self):
        model = IsingModel(n=3, h=[0.5, 0.0, 1.0], j={(0, 1): 300, (1, 2): -2}, offset=1)
        assert np.array_equal(ising_energy_table(model), float_spin_table(model))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 16),
        w=st.floats(0.0, 5.0),
        integer_couplings=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_table_matches_the_int8_spin_table(self, n, w, integer_couplings, seed):
        rng = np.random.default_rng(seed)
        if integer_couplings:
            j = {(a, b): int(rng.integers(-3, 4)) for a in range(n) for b in range(a + 1, n)}
            model = IsingModel(n=n, h=rng.integers(-3, 4, n) * w, j=j, offset=w)
        else:
            q = rng.uniform(-1.0, 1.0, (n, n))
            model = to_ising(QuboInstance(n=n, q=(q + q.T) / 2, k=int(rng.integers(0, n + 1)),
                                          penalty_weight=w))
        assert np.array_equal(ising_energy_table(model), int8_spin_table(model))

    def test_table_matches_pointwise_energy(self):
        inst = generate_synthetic_q(5, seed=2)
        table = energy_table(inst)
        for idx in range(32):
            assert table[idx] == pytest.approx(
                qubo_energy(inst, index_to_bits(idx, 5)), abs=1e-12
            )

    def test_bit_order_round_trip(self):
        assert bits_to_index(index_to_bits(11, 5)) == 11
        assert list(index_to_bits(1, 3)) == [1, 0, 0]  # bit 0 is x_0


class TestBruteForce:
    def test_weight_one_tie_break(self):
        inst = QuboInstance(n=3, q=np.zeros((3, 3)), k=1)
        bits, energy = brute_force_minimum(inst)
        # ties resolve to the smallest index: x_0 set
        assert list(bits) == [1, 0, 0]
        assert energy == 0.0

    def test_negative_identity(self):
        n = 5
        inst = QuboInstance(n=n, q=-np.eye(n), k=n)
        bits, energy = brute_force_minimum(inst)
        assert list(bits) == [1] * n
        assert energy == pytest.approx(-n)

    def test_matches_enumeration(self):
        inst = generate_synthetic_q(10, seed=42)
        bits, energy = brute_force_minimum(inst)
        energies = [qubo_energy(inst, x) for x in all_bitstrings(10)]
        assert energy == pytest.approx(min(energies), abs=1e-12)
        assert qubo_energy(inst, bits) == pytest.approx(energy, abs=1e-12)

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            brute_force_minimum(QuboInstance(n=25, q=np.zeros((25, 25)), k=1))


class TestGenerator:
    def test_deterministic(self):
        a = generate_synthetic_q(10, seed=1)
        b = generate_synthetic_q(10, seed=1)
        assert np.array_equal(a.q, b.q)
        assert a.k == b.k

    def test_entries_bounded_by_magnitude(self):
        inst = generate_synthetic_q(12, seed=5, magnitude=0.2, signal_to_noise=4.0)
        assert np.max(np.abs(np.diag(inst.q))) <= 0.2
        off = inst.q - np.diag(np.diag(inst.q))
        assert np.max(np.abs(off)) <= 0.05 + 1e-15

    def test_cardinality_presets(self):
        assert generate_synthetic_q(10, seed=0).k == 8
        assert generate_synthetic_q(13, seed=0).k == 11
        assert generate_synthetic_q(15, seed=0).k == 12
        assert generate_synthetic_q(18, seed=0).k == 14
        assert generate_synthetic_q(6, seed=0).k == 5

    def test_unique_minimizer_logged(self):
        unique = 0
        trials = 10
        for seed in range(trials):
            inst = generate_synthetic_q(8, seed=seed)
            table = energy_table(inst)
            best = table.min()
            if int((table == best).sum()) == 1:
                unique += 1
        print(f"unique minimizer in {unique}/{trials} generated instances")
        assert unique == trials  # continuous draws: ties have probability zero


class TestInstanceIO:
    def test_json_round_trip(self, tmp_path):
        inst = generate_synthetic_q(6, seed=3, penalty_weight=1.5)
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        loaded = load_instance(path)
        assert loaded.n == inst.n and loaded.k == inst.k
        assert loaded.penalty_weight == inst.penalty_weight
        assert np.array_equal(loaded.q, inst.q)

    def test_asymmetric_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2, "k": 1, "q": [[0.0, 1.0], [0.5, 0.0]]}')
        with pytest.raises(InstanceFormatError, match="symmetric"):
            load_instance(path)

    def test_k_greater_than_n_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2, "k": 5, "q": [[0.0, 0.0], [0.0, 0.0]]}')
        with pytest.raises(InstanceFormatError):
            load_instance(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2, "k": 1}')
        with pytest.raises(InstanceFormatError, match="q"):
            load_instance(path)

    def test_csv_round_trip(self, tmp_path):
        inst = generate_synthetic_q(4, seed=8)
        path = tmp_path / "inst.csv"
        rows = "\n".join(",".join(repr(float(v)) for v in row) for row in inst.q)
        path.write_text(f"# n={inst.n} k={inst.k}\n{rows}\n")
        loaded = load_instance(path)
        assert np.array_equal(loaded.q, inst.q)
        assert loaded.k == inst.k

    def test_csv_missing_header(self, tmp_path):
        path = tmp_path / "inst.csv"
        path.write_text("0.0,0.0\n0.0,0.0\n")
        with pytest.raises(InstanceFormatError, match="header"):
            load_instance(path)

    def test_csv_bad_entry_reports_line(self, tmp_path):
        path = tmp_path / "inst.csv"
        path.write_text("# n=2 k=1\n0.0,0.0\n0.0,oops\n")
        with pytest.raises(InstanceFormatError, match=":3"):
            load_instance(path)


class TestInvariants:
    def test_equivalence_sweep(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            inst = generate_synthetic_q(n, seed=int(rng.integers(10_000)), k=int(rng.integers(0, n + 1)))
            diff = np.abs(binary_energy_table(inst) - energy_table(inst))
            assert diff.max() < 1e-9

    def test_permutation_relabels_minimizers(self):
        rng = np.random.default_rng(5)
        inst = generate_synthetic_q(6, seed=13)
        perm = rng.permutation(6)
        q_perm = inst.q[np.ix_(perm, perm)]
        permuted = QuboInstance(n=6, q=q_perm, k=inst.k)
        table = energy_table(inst)
        table_perm = energy_table(permuted)
        best = table.min()
        argmins = {i for i in range(64) if table[i] <= best + 1e-12}
        # x'_i = x_{perm[i]}: map each original minimizer through the relabeling
        mapped = set()
        for idx in argmins:
            bits = index_to_bits(idx, 6)
            mapped.add(bits_to_index(bits[perm]))
        best_p = table_perm.min()
        argmins_p = {i for i in range(64) if table_perm[i] <= best_p + 1e-12}
        assert mapped == argmins_p

    def test_psd_weight_k_floor(self):
        rng = np.random.default_rng(21)
        a = rng.normal(size=(5, 5))
        inst = QuboInstance(n=5, q=a @ a.T, k=2)
        weight_k = [x for x in all_bitstrings(5) if x.sum() == 2]
        floor = min(qubo_energy(inst, x) for x in weight_k)
        for x in weight_k:
            assert qubo_energy(inst, x) >= floor - 1e-12
