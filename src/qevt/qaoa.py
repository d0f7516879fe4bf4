"""Exact statevector simulation of depth-p alternating-layer circuits.

The cost layer is applied as a diagonal phase (the cost Hamiltonian is
diagonal in the computational basis), the mixer as a product of single-qubit
e^{-i beta X} rotations.  Measurement sampling, optional readout bit-flip
noise, and the collection of per-run minimum energies live here too.

One pair kernel, :func:`_pair_map`, applies both per-bit maps, the mixer's
rotation and the readout flips: each sets an entry to c times itself plus m
times its partner across one bit.  It works on cache-sized blocks and gives
the doubles of the plain per-bit reshape, which the tests keep as its
reference.

One law serves every sampler.  :class:`RunMinimumLaw` is the exact law of
one run's minimum energy, readout flips included (folded into
:func:`measured_distribution`), built once by :func:`circuit_law`.  Each run
is that law inverted at one uniform, single shots (:func:`sample_shots`)
are the law at s = 1, and the law also gives the exact success probability
and run count the estimates are judged by.  Against a baseline the law
reduces to one number, the log-probability that a shot misses it
(:meth:`RunMinimumLaw.log_miss`); the estimate records it, and validation
draws run hits from it through :func:`run_hit_probability` without
rebuilding the circuit.

Basis-state index convention matches :mod:`qevt.qubo`: bit i of the index is
variable x_i.

:func:`optimize_parameters` tunes the angles with bounded L-BFGS-B on the
exact expectation and its adjoint gradient (:func:`expectation_and_gradient`),
both read off the energy table they are handed; its candidates are the zero
angles and each end point.  Their inner products take one reduction,
:func:`_inner`, whose doubles do not depend on the BLAS thread count.  It
imports scipy itself (``scipy.optimize`` for L-BFGS-B, ``scipy.stats.qmc``
only when it draws Halton starts), so that importing this module, and every
command that reuses stored angles, loads no scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gev import count_hits, required_runs
from .qubo import IsingModel, QuboInstance, check_qubits, energy_table, ising_energy_table, to_ising
from .seeding import derive_seed
from .utils import INTEGER, POSITIVE_INTEGER, check_rules, is_number

INITIAL_STATE_VARIANTS = ("plus", "minus")

GAMMA_BOUND = np.pi
BETA_BOUND = np.pi / 2

# the pair kernel works on blocks of 2^13 amplitudes (128 KiB complex), which
# stay in cache across all of a block's bits; :func:`_inner` reduces by them
_BLOCK_QUBITS = 13


@dataclass(frozen=True, eq=False)
class QaoaParams:
    """Variational angles for a depth-p circuit (radians)."""

    depth_p: int
    gammas: np.ndarray
    betas: np.ndarray

    def __post_init__(self):
        check_rules({"depth": self.depth_p}, {"depth": POSITIVE_INTEGER}, "qaoa")
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

    RULES = {
        "readout_flip_prob": (lambda v: is_number(v) and 0 <= v <= 0.5, "a number in [0, 0.5]"),
    }

    def __post_init__(self):
        check_rules(vars(self), self.RULES, "noise")


@dataclass(frozen=True)
class OptimizerConfig:
    """Angle optimization settings: multi-start bounded L-BFGS-B, at most
    ``maxiter`` iterations per start."""

    restarts: int = 10
    maxiter: int = 200
    seed: int = 0
    initial_state: str = "minus"

    RULES = {
        "restarts": POSITIVE_INTEGER,
        "maxiter": POSITIVE_INTEGER,
        "seed": INTEGER,
        "initial_state": (lambda v: v in INITIAL_STATE_VARIANTS,
                          f"one of {INITIAL_STATE_VARIANTS}"),
    }

    def __post_init__(self):
        check_rules(vars(self), self.RULES, "optimizer")


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
    check_qubits(n)
    check_rules({"initial_state": variant}, OptimizerConfig.RULES, "qaoa")
    # the signs by doubling: bit i's upper half is the lower half times
    # sign, every entry exactly +-amp (real, so each imaginary part is +0.0)
    sign = -1.0 if variant == "minus" else 1.0
    signs = np.empty(1 << n)
    signs[0] = 2.0 ** (-n / 2.0)
    for i in range(n):
        half = 1 << i
        np.multiply(signs[:half], sign, out=signs[half:2 * half])
    return signs.astype(np.complex128)


def _pair_map(x: np.ndarray, c, m) -> None:
    """For each bit i in order, x <- c * x + m * (x with bit i flipped), in
    place: e^{-i beta X} per qubit with c = cos(beta), m = -i sin(beta), and
    the readout-flip map per bit with c = 1 - p, m = p.

    Bits below ``_BLOCK_QUBITS`` run on each contiguous block of
    2^_BLOCK_QUBITS entries, the higher bits on column chunks of the same
    size gathered across the blocks, so every pass stays in cache.  Each pass
    is ``c * a + m * b`` on the pair (a, b) and ``c * b + m * a`` on its
    partner, the products and sums of the plain per-bit reshape.
    """
    n = _num_qubits(x)
    low = min(n, _BLOCK_QUBITS)
    size = 1 << low
    spare, chunk, partner = (np.empty(size, x.dtype) for _ in range(3))

    def passes(src, dst, strides):
        # src and dst alternate; returns the array holding the result
        for stride in strides:
            v, d = src.reshape(-1, 2, stride), dst.reshape(-1, 2, stride)
            t = partner.reshape(-1, 2, stride)
            np.multiply(c, v, out=d)
            np.multiply(m, v[:, ::-1, :], out=t)
            d += t
            src, dst = dst, src
        return src

    low_strides = [1 << i for i in range(low)]
    for block in x.reshape(-1, size):
        out = passes(block, spare, low_strides)
        if out is not block:
            block[...] = out
    rows = 1 << (n - low)
    if rows == 1:
        return
    # bit low + h of x is bit h of a row index of the (rows, size) view; a
    # chunk is `width` whole columns (rows <= size, as n <= qubo.MAX_QUBITS)
    width = size // rows
    columns = x.reshape(rows, size)
    high_strides = [width << h for h in range(n - low)]
    for start in range(0, size, width):
        view = columns[:, start:start + width]
        np.copyto(chunk.reshape(rows, width), view)
        view[...] = passes(chunk, spare, high_strides).reshape(rows, width)


def _inner(a: np.ndarray, b: np.ndarray):
    """np.vdot(a, b) summed block by block, 2^_BLOCK_QUBITS entries each, in
    index order: OpenBLAS threads no dot that short, so the doubles do not
    depend on its thread count (up to 13 qubits it is the one whole dot)."""
    size = 1 << _BLOCK_QUBITS
    total = np.vdot(a[:size], b[:size])
    for start in range(size, a.size, size):
        total += np.vdot(a[start:start + size], b[start:start + size])
    return total


def expectation_energy(state: np.ndarray, energies: np.ndarray) -> float:
    """<state| H |state> on the energy table ``energies``, constant offset
    included, so values are directly comparable with the binary objective."""
    if energies.size != state.size:
        raise ValueError("state and energy table dimensions disagree")
    probs = (state.conj() * state).real
    return float(_inner(probs, energies))


def circuit_state(
    model: IsingModel,
    params: QaoaParams,
    variant: str = "minus",
    energies: np.ndarray | None = None,
) -> np.ndarray:
    """Statevector after depth_p alternating cost/mixer layers."""
    if energies is None:  # the benchmark's oracle passes no table
        energies = ising_energy_table(model)
    if energies.size != 1 << model.n:
        raise ValueError("energy table and model dimensions disagree")
    state = prepare_initial_state(model.n, variant)
    for gamma, beta in zip(params.gammas, params.betas):
        phase = (-1j * gamma) * energies
        np.exp(phase, out=phase)
        state *= phase
        _pair_map(state, np.cos(beta), -1j * np.sin(beta))
    return state


def _flip_sum(x: np.ndarray) -> np.ndarray:
    """sum_i X_i x: each entry the sum of its n partners across one bit."""
    n = _num_qubits(x)
    # bit 0's partners, then each higher bit's added in place
    out = x.reshape(-1, 2)[:, ::-1].flatten()
    for i in range(1, n):
        view = out.reshape(-1, 2, 1 << i)
        view += x.reshape(-1, 2, 1 << i)[:, ::-1, :]
    return out


def expectation_and_gradient(
    model: IsingModel, params: QaoaParams, variant: str, energies: np.ndarray
) -> tuple[float, np.ndarray]:
    """<H> of the circuit and its derivatives in (gammas..., betas...).

    The value is :func:`expectation_energy` of one :func:`circuit_state`.
    The derivatives come by adjoint differentiation (Jones & Gacon,
    arXiv:2009.02823): with lam = E psi, walk the layers backwards, reading
    d beta_k = 2 Im <lam| sum_i X_i |phi> and d gamma_k = 2 Im <lam| E |phi>
    and undoing layer k's mixer and phase on both phi and lam.
    """
    phi = circuit_state(model, params, variant, energies)
    value = expectation_energy(phi, energies)
    lam = energies * phi
    p = params.depth_p
    grad = np.empty(2 * p)
    for k in reversed(range(p)):
        gamma, beta = params.gammas[k], params.betas[k]
        grad[p + k] = 2.0 * _inner(lam, _flip_sum(phi)).imag
        for x in (phi, lam):
            _pair_map(x, np.cos(beta), 1j * np.sin(beta))
        grad[k] = 2.0 * _inner(lam, energies * phi).imag
        phase = (1j * gamma) * energies
        np.exp(phase, out=phase)
        phi *= phase
        lam *= phase
    return value, grad


# start 0 is the linear ramp gamma_k = s (k + 1/2) / p, beta_k = +-s (1 - (k
# + 1/2) / p) of Sack & Serbyn (Quantum 5, 491, 2021): at the all-zero angles
# every derivative vanishes, so a gradient method would stop there at once
_RAMP_SCALE = 0.5


def optimize_parameters(
    inst: QuboInstance, depth_p: int, cfg: OptimizerConfig = OptimizerConfig()
) -> QaoaParams:
    """Angles minimizing the exact expectation of the cost Hamiltonian.

    Bounded L-BFGS-B on the adjoint gradient (:func:`expectation_and_gradient`)
    inside gamma in [-pi, pi], beta in [-pi/2, pi/2], from multiple starts: a
    linear ramp plus scrambled-Halton points.  The candidates are the
    all-zero angles (the uniform state) and each start's end point, the
    least <H> winning, ties to the earliest.  L-BFGS-B never ends above its
    start, so the result is never worse than any start or the uniform state.
    Deterministic for a fixed seed, whatever the BLAS thread count.
    """
    from scipy import optimize

    check_rules({"depth": depth_p}, {"depth": POSITIVE_INTEGER}, "qaoa")
    model = to_ising(inst)
    energies = ising_energy_table(model)

    lo = np.array([-GAMMA_BOUND] * depth_p + [-BETA_BOUND] * depth_p)
    hi = -lo

    def split(angles: np.ndarray) -> QaoaParams:
        return QaoaParams(depth_p, angles[:depth_p], angles[depth_p:])

    # the ramp follows the adiabatic path out of the start state: |->^n is the
    # ground state of sum_i X_i and |+>^n that of -sum_i X_i, so the ramp's
    # betas take that sign (the two variants then give mirrored angles)
    frac = (np.arange(depth_p) + 0.5) / depth_p
    beta_sign = 1.0 if cfg.initial_state == "minus" else -1.0
    starts = [_RAMP_SCALE * np.concatenate([frac, beta_sign * (1.0 - frac)])]
    if cfg.restarts > 1:
        from scipy.stats import qmc

        sampler = qmc.Halton(d=2 * depth_p, scramble=True, seed=derive_seed(cfg.seed, "qaoa-starts"))
        starts.extend(qmc.scale(sampler.random(cfg.restarts - 1), lo, hi))

    def value_and_gradient(angles: np.ndarray) -> tuple[float, np.ndarray]:
        return expectation_and_gradient(model, split(angles), cfg.initial_state, energies)

    zeros = np.zeros(2 * depth_p)
    candidates = [(value_and_gradient(zeros)[0], zeros)]
    for x0 in starts:
        res = optimize.minimize(value_and_gradient, x0, jac=True, method="L-BFGS-B",
                                bounds=optimize.Bounds(lo, hi), options={"maxiter": cfg.maxiter})
        candidates.append((res.fun, res.x))
    best = min(candidates, key=lambda c: c[0])[1]
    return split(best)


def measured_distribution(state: np.ndarray, flip_prob: float) -> np.ndarray:
    """Probability of each measured basis index, readout flips included.

    Independent per-bit flips act on the distribution as one 2x2 stochastic
    map per bit, applied in place by the mixer's pair kernel: O(n 2^n).
    """
    _num_qubits(state)  # refuses a length that is not a power of two
    probs = (state.conj() * state).real.copy()
    if flip_prob != 0.0:
        _pair_map(probs, 1.0 - flip_prob, flip_prob)
    return probs


def run_hit_probability(log_miss: float, shots: int) -> float:
    """P(at least one of ``shots`` shots meets the baseline) when one shot
    misses it with log-probability ``log_miss``: 1 - exp(shots * log_miss).
    numpy's expm1, as in :meth:`RunMinimumLaw.draw`, so the value is the
    draw's own bound; 0.0 - x keeps a zero probability +0.0."""
    return float(0.0 - np.expm1(shots * log_miss))


@dataclass(frozen=True, eq=False)
class RunMinimumLaw:
    """The exact law of one run's minimum energy, at any shots per run.

    ``levels`` is the energy table stably sorted, ``log_survival`` log(1 - F)
    over it, F the normalised per-shot CDF of the measured distribution.  A
    run of s shots has P(min <= levels[i]) = 1 - (1 - F_i)^s, and the best of
    r runs of s shots is the law at r * s shots.
    """

    levels: np.ndarray
    log_survival: np.ndarray

    @classmethod
    def from_distribution(cls, probs: np.ndarray, energies: np.ndarray) -> "RunMinimumLaw":
        """The law of measured distribution ``probs`` scored with ``energies``."""
        if probs.shape != energies.shape:
            raise ValueError("measured distribution and energy table sizes disagree")
        # with strictly increasing levels the sorting permutation is unique,
        # so the default sort gives the stable sort's order; ties (or NaN)
        # fall back to the stable sort
        order = np.argsort(energies)
        levels = energies[order]
        if not np.all(levels[1:] > levels[:-1]):
            order = np.argsort(energies, kind="stable")
            levels = energies[order]
        # F, then log(1 - F), in place in one table-sized array
        cdf = probs[order]
        np.cumsum(cdf, out=cdf)
        cdf /= cdf[-1]
        # the last F is exactly 1, so log(1 - F) = -inf and the law reaches 1
        # there: every uniform in [0, 1) finds a level
        np.negative(cdf, out=cdf)
        with np.errstate(divide="ignore"):
            np.log1p(cdf, out=cdf)
        return cls(levels, cdf)

    def draw(self, shots_s: int, uniforms: np.ndarray) -> np.ndarray:
        """Minima of runs of shots_s shots: the law inverted at one uniform per run."""
        # in place: one table-sized array, the largest transient of a draw
        law = shots_s * self.log_survival
        np.expm1(law, out=law)
        np.negative(law, out=law)
        return self.levels[np.searchsorted(law, uniforms, side="right")]

    def log_miss(self, y_ideal: float) -> float:
        """log P(one shot misses the baseline): the log survival at the highest
        of the k levels that meet it, which are the k lowest; 0 when k = 0,
        -inf when every level meets it."""
        k = count_hits(self.levels, y_ideal)
        return 0.0 if k == 0 else float(self.log_survival[k - 1])

    def p_run(self, y_ideal: float, shots_s: int) -> float:
        """P(a run of shots_s shots meets the baseline).  A drawn run minimum
        meets it exactly when its uniform lies below this value."""
        return run_hit_probability(self.log_miss(y_ideal), shots_s)

    def n_exact(self, y_ideal: float, shots_s: int, alpha: float):
        """The run count that meets the baseline with confidence ``alpha``."""
        return required_runs(self.p_run(y_ideal, shots_s), alpha)


def circuit_law(inst: QuboInstance, params: QaoaParams, flip_prob: float = 0.0,
                variant: str = "minus") -> RunMinimumLaw:
    """The circuit's exact run-minimum law under readout flips of
    ``flip_prob``.  The circuit's phases come from the table the minima are
    read from, the one the angles were tuned on."""
    table = energy_table(inst)
    state = circuit_state(to_ising(inst), params, variant, energies=table)
    return RunMinimumLaw.from_distribution(measured_distribution(state, flip_prob), table)


def sample_shots(
    state: np.ndarray,
    inst: QuboInstance,
    shots_s: int,
    noise: NoiseConfig = NoiseConfig(),
    seed: int = 0,
) -> np.ndarray:
    """Energies of shots_s measured shots, readout flips included.

    A single shot's minimum is the shot's own energy, so each shot is the
    per-run minimum law at s = 1 inverted at one double of
    ``default_rng(seed)``, in shot order, scored with :func:`energy_table`.
    """
    if shots_s < 1:
        raise ValueError("shots_s must be positive")
    law = RunMinimumLaw.from_distribution(
        measured_distribution(state, noise.readout_flip_prob), energy_table(inst)
    )
    return law.draw(1, np.random.default_rng(seed).random(shots_s))


def extreme_run_seeds(seed: int, runs: int) -> list[int]:
    """The recorded seed of each of ``runs`` runs that
    :func:`collect_extreme_samples` draws on ``seed``, in run order."""
    return [derive_seed(seed, "extreme-run", r) for r in range(runs)]


def collect_extreme_samples(
    inst: QuboInstance,
    law: RunMinimumLaw,
    shots_s: int,
    runs: int,
    seed: int = 0,
) -> np.ndarray:
    """Per-run minimum energies of ``runs`` independent runs of shots_s shots
    of ``inst``, drawn from its law (:func:`circuit_law`).

    Run r is the law inverted at the first double of
    ``default_rng(extreme_run_seeds(seed, runs)[r])``, so each run
    reproduces alone from that seed.
    """
    if runs < 1 or shots_s < 1:
        raise ValueError("runs and shots_s must be positive")
    if law.levels.size != 1 << inst.n:
        raise ValueError("law and instance dimensions disagree")
    uniforms = np.array(
        [np.random.default_rng(run_seed).random() for run_seed in extreme_run_seeds(seed, runs)]
    )
    return law.draw(shots_s, uniforms)


def run_minima_batch(
    state: np.ndarray | None,
    inst: QuboInstance,
    shots_s: int,
    runs: int,
    noise: NoiseConfig = NoiseConfig(),
    seed: int = 0,
    *,
    law: RunMinimumLaw | None = None,
) -> np.ndarray:
    """Per-run minima of ``runs`` runs of shots_s shots: the law inverted at
    the doubles of ``default_rng(seed)`` in run order.  ``law`` may carry the
    law prebuilt; without it, it is built from ``state`` measured under
    ``noise`` and scored with :func:`energy_table`.
    """
    if runs < 1 or shots_s < 1:
        raise ValueError("runs and shots_s must be positive")
    if law is None:
        law = RunMinimumLaw.from_distribution(
            measured_distribution(state, noise.readout_flip_prob), energy_table(inst)
        )
    return law.draw(shots_s, np.random.default_rng(seed).random(runs))
