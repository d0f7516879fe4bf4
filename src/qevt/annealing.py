"""Simulated-annealing baseline producing the classical reference energy.

Single-flip Metropolis proposals with a geometric cooling schedule; one sweep
proposes n flips.  Each restart draws on its own derived RNG stream, and the
final reduction (minimum energy, ties by smallest bitstring index) does not
depend on restart order.

The draw rule: from its own stream, a restart draws its n initial bits, then
every sweep's sites as one (sweeps, n) block, then every sweep's acceptance
uniforms as a second; sweep t proposes row t's sites against row t's uniforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qubo import QuboInstance, bits_to_index, qubo_energy
from .seeding import rng_from
from .utils import INTEGER, OPEN_UNIT, POSITIVE_INTEGER, check_rules, is_number


@dataclass(frozen=True)
class SaConfig:
    initial_temperature: float
    cooling_rate: float = 0.995
    sweeps: int = 1000
    restarts: int = 10
    seed: int = 0

    # ExperimentConfig applies these rules to a config's ``sa`` overrides too
    RULES = {
        "initial_temperature": (lambda v: is_number(v) and v > 0, "a positive number"),
        "cooling_rate": OPEN_UNIT,
        "sweeps": POSITIVE_INTEGER,
        "restarts": POSITIVE_INTEGER,
        "seed": INTEGER,
    }

    def __post_init__(self):
        check_rules(vars(self), self.RULES, "sa")


def default_sa_config(inst: QuboInstance, seed: int = 0, **overrides) -> SaConfig:
    """Scale-aware defaults: T0 = n * max|Q| (floored at 1.0 so small-entry
    instances still anneal instead of quenching)."""
    t0 = max(inst.n * float(np.max(np.abs(inst.q)) if inst.q.size else 0.0), 1.0)
    return SaConfig(**{"initial_temperature": t0, "seed": seed, **overrides})


def _anneal_once(inst: QuboInstance, cfg: SaConfig, rng) -> tuple[np.ndarray, float]:
    # the flip loop runs on Python floats: list reads and float arithmetic
    # cost a fraction of numpy scalar indexing, and every operation is the
    # same IEEE double operation, in the same order, as on numpy scalars
    n, q, k, w = inst.n, inst.q, inst.k, inst.penalty_weight
    x0 = rng.integers(0, 2, size=n).astype(np.float64)
    gx0 = q @ x0        # running Q@x, updated on accepted flips
    s = float(x0.sum())
    energy = float(x0 @ gx0) + w * (s - k) ** 2
    x, gx = x0.tolist(), gx0.tolist()
    diag, columns = q.diagonal().tolist(), q.T.tolist()
    best_bits = x[:]
    best_energy = energy

    # the draw rule's two blocks; one sweep's rows at a time become Python numbers
    sites = rng.integers(0, n, size=(cfg.sweeps, n))
    uniforms = rng.random((cfg.sweeps, n))
    temperature = cfg.initial_temperature
    for sweep_sites, sweep_uniforms in zip(sites, uniforms):
        for i, u in zip(sweep_sites.tolist(), sweep_uniforms.tolist()):
            d = 1.0 - 2.0 * x[i]
            delta = 2.0 * d * gx[i] + diag[i] + w * (2.0 * d * (s - k) + 1.0)
            if delta <= 0.0 or (temperature > 0.0 and u < math.exp(-delta / temperature)):
                x[i] += d
                gx = [g + d * c for g, c in zip(gx, columns[i])]
                s += d
                energy += delta
                if energy < best_energy:
                    best_energy = energy
                    best_bits = x[:]
        temperature *= cfg.cooling_rate
    return np.array(best_bits, dtype=np.int8), best_energy


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
