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


def _sweep_draws(rng, n: int, sweeps: int):
    """The sites and acceptance uniforms of ``sweeps`` sweeps, as two
    (sweeps, n) arrays: what ``sweeps`` rounds of ``rng.integers(0, n,
    size=n)`` then ``rng.random(n)`` return, bit for bit, from one
    ``random_raw`` block of PCG64, and the generator left in the state those
    calls leave it in.

    The replay follows numpy's own stream.  A site takes one 32-bit half of
    a raw 64-bit output, low half first; PCG64 keeps an unused high half for
    the next 32-bit draw, across calls (``has_uint32``, ``uinteger``).  It
    becomes ``(u32 * n) >> 32``, Lemire's multiply-shift.  A uniform takes a
    whole raw, ``(raw >> 11) * 2**-53``.  None, with the generator untouched,
    when the bit generator is not PCG64, when n < 2 (numpy draws no site for
    a range of one), or when some ``(u32 * n) mod 2**32`` is below n, where
    numpy may reject that half and draw again.
    """
    bitgen = rng.bit_generator
    if type(bitgen) is not np.random.PCG64 or n < 2:
        return None
    saved = bitgen.state
    spare = [saved["uinteger"]] if saved["has_uint32"] else []
    # raws the sites of the first k sweeps take: k * n halves, less the spare
    site_raws = (np.arange(sweeps + 1) * n - len(spare) + 1) // 2
    raw = bitgen.random_raw(int(site_raws[-1]) + sweeps * n)
    # sweep k's n uniforms follow its own site raws
    uniform_at = (site_raws[1:] + n * np.arange(sweeps))[:, None] + np.arange(n)
    is_site = np.ones(raw.size, dtype=bool)
    is_site[uniform_at] = False
    sites_raw = raw[is_site]
    halves = np.concatenate([
        np.array(spare, dtype=np.uint64),
        np.stack([sites_raw & 0xFFFFFFFF, sites_raw >> 32], axis=1).ravel(),
    ])
    scaled = halves[: sweeps * n] * np.uint64(n)
    if np.any((scaled & 0xFFFFFFFF) < n):
        bitgen.state = saved
        return None
    state = bitgen.state
    state["has_uint32"] = halves.size - sweeps * n
    state["uinteger"] = int(sites_raw[-1] >> 32)
    bitgen.state = state
    sites = (scaled >> 32).astype(np.int64).reshape(sweeps, n)
    return sites, (raw[uniform_at] >> 11) * 2.0**-53


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

    # one sweep's draws are n sites, then n acceptance uniforms: drawn in one
    # block when they can be replayed, else one call each per sweep; either
    # way one sweep at a time becomes Python numbers
    draws = _sweep_draws(rng, n, cfg.sweeps)
    if draws is None:
        draws = ((rng.integers(0, n, size=n).tolist(), rng.random(n).tolist())
                 for _ in range(cfg.sweeps))
    else:
        draws = ((sites.tolist(), uniforms.tolist()) for sites, uniforms in zip(*draws))
    temperature = cfg.initial_temperature
    for sites, accept_draws in draws:
        for i, u in zip(sites, accept_draws):
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
