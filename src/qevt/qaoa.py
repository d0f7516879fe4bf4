"""Exact statevector simulation of depth-p alternating-layer circuits.

The cost layer is applied as a diagonal phase (the cost Hamiltonian is
diagonal in the computational basis), the mixer as a product of single-qubit
e^{-i beta X} rotations.  Measurement sampling, optional readout bit-flip
noise, and the collection of per-run minimum energies live here too.

Basis-state index convention matches :mod:`qevt.qubo`: bit i of the index is
variable x_i.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import optimize
from scipy.stats import qmc

from .errors import CapacityError
from .qubo import IsingModel, QuboInstance, energy_table, ising_energy_table, to_ising
from .seeding import derive_seed

MAX_QUBITS = 24

INITIAL_STATE_VARIANTS = ("plus", "minus")

GAMMA_BOUND = np.pi
BETA_BOUND = np.pi / 2


@dataclass(frozen=True, eq=False)
class QaoaParams:
    """Variational angles for a depth-p circuit (radians)."""

    depth_p: int
    gammas: np.ndarray
    betas: np.ndarray

    def __post_init__(self):
        if self.depth_p < 1:
            raise ValueError("depth_p must be at least 1")
        gammas = np.array(self.gammas, dtype=np.float64)
        betas = np.array(self.betas, dtype=np.float64)
        if gammas.shape != (self.depth_p,) or betas.shape != (self.depth_p,):
            raise ValueError("gammas and betas must each have length depth_p")
        gammas.flags.writeable = False
        betas.flags.writeable = False
        object.__setattr__(self, "gammas", gammas)
        object.__setattr__(self, "betas", betas)

    def to_dict(self) -> dict:
        return {
            "depth_p": self.depth_p,
            "gammas": [float(g) for g in self.gammas],
            "betas": [float(b) for b in self.betas],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "QaoaParams":
        return cls(
            depth_p=int(payload["depth_p"]),
            gammas=np.asarray(payload["gammas"], dtype=np.float64),
            betas=np.asarray(payload["betas"], dtype=np.float64),
        )


@dataclass(frozen=True)
class NoiseConfig:
    """Independent readout bit-flips, probability per measured bit."""

    readout_flip_prob: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.readout_flip_prob <= 0.5:
            raise ValueError("readout_flip_prob must lie in [0, 0.5]")


@dataclass(frozen=True, eq=False)
class ShotBatch:
    """Energies of one run of shots_s measurements; minimum is derived."""

    shots_s: int
    energies: np.ndarray
    minimum: float = field(init=False)

    def __post_init__(self):
        if self.shots_s < 1:
            raise ValueError("shots_s must be positive")
        energies = np.array(self.energies, dtype=np.float64)
        if energies.shape != (self.shots_s,):
            raise ValueError("energies must have length shots_s")
        energies.flags.writeable = False
        object.__setattr__(self, "energies", energies)
        object.__setattr__(self, "minimum", float(energies.min()))


@dataclass(frozen=True)
class OptimizerConfig:
    """Derivative-free angle optimization settings (COBYLA, multi-start)."""

    restarts: int = 10
    maxiter: int = 200
    seed: int = 0
    initial_state: str = "minus"

    def __post_init__(self):
        if self.restarts < 1 or self.maxiter < 1:
            raise ValueError("restarts and maxiter must be positive")
        if self.initial_state not in INITIAL_STATE_VARIANTS:
            raise ValueError(f"unknown initial-state variant {self.initial_state!r}")


def _num_qubits(state: np.ndarray) -> int:
    n = int(np.log2(state.size))
    if 1 << n != state.size:
        raise ValueError("statevector length must be a power of two")
    return n


def prepare_initial_state(n: int, variant: str = "minus") -> np.ndarray:
    """Uniform-magnitude product state.

    ``plus``  -> |+>^n: every amplitude 2^(-n/2).
    ``minus`` -> |->^n (Hadamard after a bit flip on each qubit): magnitude
    2^(-n/2) with sign (-1)^(Hamming weight of the index).

    Both variants measure uniformly over all 2^n outcomes.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > MAX_QUBITS:
        raise CapacityError(f"n={n} exceeds the statevector limit of {MAX_QUBITS}")
    if variant not in INITIAL_STATE_VARIANTS:
        raise ValueError(f"unknown initial-state variant {variant!r}")
    amp = 2.0 ** (-n / 2.0)
    state = np.full(1 << n, amp, dtype=np.complex128)
    if variant == "minus":
        parity = np.bitwise_count(np.arange(1 << n, dtype=np.uint32)) & 1
        state[parity == 1] *= -1.0
    return state


def apply_cost_layer(
    state: np.ndarray, model: IsingModel, gamma: float, energies: np.ndarray | None = None
) -> np.ndarray:
    """Multiply each amplitude by exp(-i*gamma*E(x)); pure phase, norm preserved.

    ``energies`` may carry a precomputed spin-energy table to avoid
    recomputing it once per layer.
    """
    if energies is None:
        energies = ising_energy_table(model)
    if energies.size != state.size:
        raise ValueError("state and model dimensions disagree")
    return state * np.exp(-1j * gamma * energies)


def apply_mixer_layer(state: np.ndarray, beta: float) -> np.ndarray:
    """Apply e^{-i beta X} to every qubit."""
    n = _num_qubits(state)
    out = state.copy()
    c, s = np.cos(beta), np.sin(beta)
    for i in range(n):
        view = out.reshape(-1, 2, 1 << i)
        a = view[:, 0, :].copy()
        b = view[:, 1, :]
        view[:, 0, :] = c * a - 1j * s * b
        view[:, 1, :] = -1j * s * a + c * b
    return out


def expectation_energy(
    state: np.ndarray, model: IsingModel, energies: np.ndarray | None = None
) -> float:
    """<state| H |state> including the constant offset, so values are
    directly comparable with the binary objective."""
    if energies is None:
        energies = ising_energy_table(model)
    if energies.size != state.size:
        raise ValueError("state and model dimensions disagree")
    probs = (state.conj() * state).real
    return float(probs @ energies)


def circuit_state(
    model: IsingModel,
    params: QaoaParams,
    variant: str = "minus",
    energies: np.ndarray | None = None,
) -> np.ndarray:
    """Statevector after depth_p alternating cost/mixer layers."""
    if energies is None:
        energies = ising_energy_table(model)
    state = prepare_initial_state(model.n, variant)
    for gamma, beta in zip(params.gammas, params.betas):
        state *= np.exp(-1j * gamma * energies)
        state = apply_mixer_layer(state, beta)
    return state


def optimize_parameters(
    inst: QuboInstance, depth_p: int, cfg: OptimizerConfig = OptimizerConfig()
) -> QaoaParams:
    """Angles minimizing the exact expectation of the cost Hamiltonian.

    COBYLA from multiple starts: the all-zero angles (uniform state) plus
    scrambled-Halton points inside gamma in [-pi, pi], beta in [-pi/2, pi/2].
    Every start itself counts as a candidate, so the result is never worse
    than the best start.  Deterministic for a fixed seed.
    """
    if depth_p < 1:
        raise ValueError("depth_p must be at least 1")
    model = to_ising(inst)
    energies = ising_energy_table(model)

    lo = np.array([-GAMMA_BOUND] * depth_p + [-BETA_BOUND] * depth_p)
    hi = -lo

    def objective(angles: np.ndarray) -> float:
        params = QaoaParams(depth_p, angles[:depth_p], angles[depth_p:])
        return expectation_energy(circuit_state(model, params, cfg.initial_state, energies), model, energies)

    starts = [np.zeros(2 * depth_p)]
    if cfg.restarts > 1:
        sampler = qmc.Halton(d=2 * depth_p, scramble=True, seed=derive_seed(cfg.seed, "qaoa-starts"))
        starts.extend(qmc.scale(sampler.random(cfg.restarts - 1), lo, hi))

    candidates = []
    for idx, x0 in enumerate(starts):
        candidates.append((objective(x0), idx, 0, np.asarray(x0, dtype=np.float64)))
        res = optimize.minimize(
            objective,
            x0,
            method="COBYLA",
            bounds=list(zip(lo, hi)),
            options={"maxiter": cfg.maxiter, "rhobeg": 0.5},
        )
        x = np.clip(res.x, lo, hi)
        candidates.append((float(objective(x)), idx, 1, x))
    best = min(candidates, key=lambda t: (t[0], t[1], t[2]))[3]
    return QaoaParams(depth_p, best[:depth_p], best[depth_p:])


def _flip_indices(indices: np.ndarray, n: int, flip_prob: float, rng) -> np.ndarray:
    flips = rng.random((indices.size, n)) < flip_prob
    masks = (flips.astype(np.int64) << np.arange(n, dtype=np.int64)).sum(axis=1)
    return indices ^ masks


def _shot_sampler(state: np.ndarray, flip_prob: float):
    """The one measurement step behind every sampler.

    Builds the shot distribution of ``state`` once and returns
    ``measure(count, shots_s, rng)``, which draws a (count, shots_s) array of
    measured basis indices with readout flips applied.  ``rng.random((1, s))``
    draws the same doubles as ``rng.random(s)``, so a generator gives the same
    shots whichever sampler asks.
    """
    n = _num_qubits(state)
    cdf = np.cumsum((state.conj() * state).real)
    cdf /= cdf[-1]

    def measure(count: int, shots_s: int, rng) -> np.ndarray:
        idx = np.searchsorted(cdf, rng.random((count, shots_s)), side="right")
        idx = np.minimum(idx, (1 << n) - 1)
        if flip_prob > 0.0:
            idx = _flip_indices(idx.ravel(), n, flip_prob, rng).reshape(count, shots_s)
        return idx

    return measure


def sample_shots(
    state: np.ndarray,
    inst: QuboInstance,
    shots_s: int,
    noise: NoiseConfig = NoiseConfig(),
    seed: int = 0,
    energies: np.ndarray | None = None,
) -> ShotBatch:
    """Measure shots_s basis states, apply readout flips, record energies.

    Energies are the binary objective of the (possibly flipped) bitstrings;
    ``energies`` may carry a precomputed table from :func:`energy_table`.
    """
    if shots_s < 1:
        raise ValueError("shots_s must be positive")
    n = _num_qubits(state)
    if n != inst.n:
        raise ValueError("state and instance dimensions disagree")
    if energies is None:
        energies = energy_table(inst)
    measure = _shot_sampler(state, noise.readout_flip_prob)
    idx = measure(1, shots_s, np.random.default_rng(seed))
    return ShotBatch(shots_s=shots_s, energies=energies[idx[0]])


def collect_extreme_samples(
    inst: QuboInstance,
    params: QaoaParams,
    shots_s: int,
    runs: int,
    noise: NoiseConfig = NoiseConfig(),
    seed: int = 0,
    variant: str = "minus",
) -> np.ndarray:
    """Per-run minimum energies from ``runs`` independent runs of shots_s shots.

    The circuit, energy table and shot distribution are built once; run r
    draws on its own generator seeded with ``derive_seed(seed, "extreme-run",
    r)``, so its minimum equals that of :func:`sample_shots` with that seed.
    """
    if runs < 1:
        raise ValueError("runs must be positive")
    if shots_s < 1:
        raise ValueError("shots_s must be positive")
    measure = _shot_sampler(circuit_state(to_ising(inst), params, variant), noise.readout_flip_prob)
    table = energy_table(inst)
    minima = np.empty(runs, dtype=np.float64)
    for r in range(runs):
        rng = np.random.default_rng(derive_seed(seed, "extreme-run", r))
        minima[r] = table[measure(1, shots_s, rng)].min()
    return minima


def run_minima_batch(
    state: np.ndarray,
    inst: QuboInstance,
    shots_s: int,
    runs: int,
    noise: NoiseConfig = NoiseConfig(),
    seed: int = 0,
    energies: np.ndarray | None = None,
) -> np.ndarray:
    """Vectorized batch of per-run minima for Monte Carlo validation sweeps.

    Statistically equivalent to ``runs`` independent shot batches, drawn from
    a single RNG stream in run-major order.
    """
    if runs < 1 or shots_s < 1:
        raise ValueError("runs and shots_s must be positive")
    if energies is None:
        energies = energy_table(inst)
    measure = _shot_sampler(state, noise.readout_flip_prob)
    rng = np.random.default_rng(seed)
    minima = np.empty(runs, dtype=np.float64)
    # chunked so trials * shots never materializes more than ~2M draws at once
    chunk = max(1, (1 << 21) // shots_s)
    for start in range(0, runs, chunk):
        count = min(chunk, runs - start)
        minima[start : start + count] = energies[measure(count, shots_s, rng)].min(axis=1)
    return minima
