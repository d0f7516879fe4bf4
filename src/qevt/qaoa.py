"""Exact statevector simulation of depth-p alternating-layer circuits.

The cost layer is applied as a diagonal phase (the cost Hamiltonian is
diagonal in the computational basis), the mixer as a product of single-qubit
e^{-i beta X} rotations.  Measurement sampling, optional readout bit-flip
noise, and the collection of per-run minimum energies live here too.

One law serves every sampler.  The readout flips are folded into the
measured distribution (:func:`measured_distribution`), and each run's
minimum energy is drawn from the exact per-run minimum law
(:func:`_run_minimum_law`) with one uniform per run: the same minima in law
as drawing every shot, at a cost that does not grow with the shots.
:func:`circuit_law` builds that law for an instance and its angles.  Single
shots (:func:`sample_shots`) are the law at s = 1, one uniform per shot.

Basis-state index convention matches :mod:`qevt.qubo`: bit i of the index is
variable x_i.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def measured_distribution(state: np.ndarray, flip_prob: float) -> np.ndarray:
    """Probability of each measured basis index, readout flips included.

    Independent per-bit flips act on the distribution as one 2x2 stochastic
    map per bit, applied in place with the reshape of
    :func:`apply_mixer_layer`: O(n 2^n).
    """
    n = _num_qubits(state)
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


def _run_minimum_law(probs: np.ndarray, energies: np.ndarray):
    """The exact law of one run's minimum energy, built once.

    ``probs`` is the measured distribution (:func:`measured_distribution`)
    and ``energies`` the energy table it is scored with.  With F the per-shot
    CDF over the stably sorted table, a run of s independent shots has
    P(min <= e) = 1 - (1 - F(e))^s.  Returns ``draw(shots_s, uniforms)``,
    which forms that law once per call and inverts it at ``uniforms``: one
    uniform per run, the same minima in law as drawing every shot.
    """
    order = np.argsort(energies, kind="stable")
    levels = energies[order]
    cdf = np.cumsum(probs[order])
    cdf /= cdf[-1]
    # the last F is exactly 1, so log(1 - F) = -inf and the law reaches 1
    # there: every uniform in [0, 1) finds a level
    with np.errstate(divide="ignore"):
        log_survival = np.log1p(-cdf)

    def draw(shots_s: int, uniforms: np.ndarray) -> np.ndarray:
        law = -np.expm1(shots_s * log_survival)
        return levels[np.searchsorted(law, uniforms, side="right")]

    return draw


def _measured_law(state: np.ndarray, flip_prob: float, energies: np.ndarray):
    """The per-run minimum law of ``state`` measured under readout flips of
    ``flip_prob`` and scored with ``energies``, with the measured
    distribution it was built from."""
    probs = measured_distribution(state, flip_prob)
    return _run_minimum_law(probs, energies), probs


def circuit_law(inst: QuboInstance, params: QaoaParams, flip_prob: float = 0.0,
                variant: str = "minus"):
    """The exact per-run minimum law of the circuit's measured shots, with
    the measured distribution (readout flips included) and the energy table
    it was built from.  The circuit's phases come from the same table the
    minima are read from, the one the angles were tuned on.  Returns
    ``(law, probs, table)``; build it once and share it between draws."""
    table = energy_table(inst)
    state = circuit_state(to_ising(inst), params, variant, energies=table)
    law, probs = _measured_law(state, flip_prob, table)
    return law, probs, table


def sample_shots(
    state: np.ndarray,
    inst: QuboInstance,
    shots_s: int,
    noise: NoiseConfig = NoiseConfig(),
    seed: int = 0,
    energies: np.ndarray | None = None,
) -> np.ndarray:
    """Energies of shots_s measured shots, readout flips included.

    A single shot's minimum is the shot's own energy, so each shot is the
    per-run minimum law at s = 1 inverted at one double of
    ``default_rng(seed)``, in shot order.  Energies are read from the
    instance's energy table (:func:`energy_table`, the one the circuit's
    phases come from), which ``energies`` may carry prebuilt.
    """
    if shots_s < 1:
        raise ValueError("shots_s must be positive")
    if _num_qubits(state) != inst.n:
        raise ValueError("state and instance dimensions disagree")
    if energies is None:
        energies = energy_table(inst)
    law, _ = _measured_law(state, noise.readout_flip_prob, energies)
    return law(1, np.random.default_rng(seed).random(shots_s))


def collect_extreme_samples(
    inst: QuboInstance,
    params: QaoaParams,
    shots_s: int,
    runs: int,
    noise: NoiseConfig = NoiseConfig(),
    seed: int = 0,
    variant: str = "minus",
    *,
    law=None,
) -> np.ndarray:
    """Per-run minimum energies from ``runs`` independent runs of shots_s shots.

    Run r is the exact per-run minimum law (:func:`_run_minimum_law`)
    inverted at the first double of ``default_rng(derive_seed(seed,
    "extreme-run", r))``, so each run reproduces alone from that seed.

    ``law`` may carry the law prebuilt by :func:`circuit_law` under
    ``noise``, so that a caller collecting at several shots settings builds
    it once; ``params``, ``noise`` and ``variant`` are then unused.  When
    omitted it is built here.
    """
    if runs < 1:
        raise ValueError("runs must be positive")
    if shots_s < 1:
        raise ValueError("shots_s must be positive")
    if law is None:
        law, _, _ = circuit_law(inst, params, noise.readout_flip_prob, variant)
    uniforms = np.array(
        [np.random.default_rng(derive_seed(seed, "extreme-run", r)).random() for r in range(runs)]
    )
    return law(shots_s, uniforms)


def run_minima_batch(
    state: np.ndarray | None,
    inst: QuboInstance,
    shots_s: int,
    runs: int,
    noise: NoiseConfig = NoiseConfig(),
    seed: int = 0,
    energies: np.ndarray | None = None,
    *,
    law=None,
) -> np.ndarray:
    """Per-run minima of ``runs`` independent runs of shots_s shots, for Monte
    Carlo validation sweeps.

    Each minimum is drawn from the exact per-run minimum law
    (:func:`_run_minimum_law`) at one double of ``default_rng(seed)``, in
    run order.  ``law`` may carry that sampler prebuilt from the state's
    :func:`measured_distribution` under ``noise`` and the table, so that a
    caller drawing at several settings builds it once; ``state``,
    ``noise`` and ``energies`` are then unused.
    """
    if runs < 1 or shots_s < 1:
        raise ValueError("runs and shots_s must be positive")
    if law is None:
        if energies is None:
            energies = energy_table(inst)
        law, _ = _measured_law(state, noise.readout_flip_prob, energies)
    return law(shots_s, np.random.default_rng(seed).random(runs))
