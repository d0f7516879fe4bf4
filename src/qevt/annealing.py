"""Simulated-annealing baseline producing the classical reference energy.

Single-flip Metropolis proposals with a geometric cooling schedule; one sweep
proposes n flips.  Each restart draws on its own derived RNG stream, and the
final reduction (minimum energy, ties by smallest bitstring index) does not
depend on restart order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qubo import QuboInstance, bits_to_index, qubo_energy
from .seeding import rng_from
from .utils import is_integer, is_number

DEFAULT_COOLING_RATE = 0.995
DEFAULT_SWEEPS = 1000
DEFAULT_RESTARTS = 10

# SaConfig's value rules per field: the test a value must pass, and the rule
# a refusal names
_SA_RULES = {
    "initial_temperature": (lambda v: is_number(v) and v > 0, "a positive number"),
    "cooling_rate": (lambda v: is_number(v) and 0 < v < 1, "a number in (0, 1)"),
    "sweeps": (lambda v: is_integer(v) and v >= 1, "a positive integer"),
    "restarts": (lambda v: is_integer(v) and v >= 1, "a positive integer"),
    "seed": (is_integer, "an integer"),
}


def check_sa_values(values: dict) -> None:
    """SaConfig's value rules applied to the fields ``values`` holds, all or some.

    Raises ValueError naming the first field that breaks its rule.  SaConfig
    checks itself with it, and ExperimentConfig checks a config's ``sa``
    overrides with it before anything runs or is written.
    """
    for name, value in values.items():
        test, rule = _SA_RULES[name]
        if not test(value):
            raise ValueError(f"{name} must be {rule}, got {value!r}")


@dataclass(frozen=True)
class SaConfig:
    initial_temperature: float
    cooling_rate: float = DEFAULT_COOLING_RATE
    sweeps: int = DEFAULT_SWEEPS
    restarts: int = DEFAULT_RESTARTS
    seed: int = 0

    def __post_init__(self):
        check_sa_values(vars(self))


def default_sa_config(inst: QuboInstance, seed: int = 0, **overrides) -> SaConfig:
    """Scale-aware defaults: T0 = n * max|Q| (floored at 1.0 so small-entry
    instances still anneal instead of quenching)."""
    t0 = max(inst.n * float(np.max(np.abs(inst.q)) if inst.q.size else 0.0), 1.0)
    params = {
        "initial_temperature": t0,
        "cooling_rate": DEFAULT_COOLING_RATE,
        "sweeps": DEFAULT_SWEEPS,
        "restarts": DEFAULT_RESTARTS,
        "seed": seed,
    }
    params.update(overrides)
    return SaConfig(**params)


def _anneal_once(inst: QuboInstance, cfg: SaConfig, rng) -> tuple[np.ndarray, float]:
    n, q, k, w = inst.n, inst.q, inst.k, inst.penalty_weight
    x = rng.integers(0, 2, size=n).astype(np.float64)
    gx = q @ x          # running Q@x, updated on accepted flips
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


def simulated_annealing(inst: QuboInstance, cfg: SaConfig) -> tuple[np.ndarray, float]:
    """Best bitstring and energy over all restarts.

    The returned energy is the exact objective of the returned bitstring
    (recomputed, so incremental float drift cannot leak into reports).
    Deterministic for a fixed config seed.
    """
    results = []
    for r in range(cfg.restarts):
        bits, _ = _anneal_once(inst, cfg, rng_from(cfg.seed, "sa-restart", r))
        results.append((qubo_energy(inst, bits), bits_to_index(bits), bits))
    energy, _, bits = min(results, key=lambda t: (t[0], t[1]))
    return bits, float(energy)
