"""Hierarchical seed derivation.

Every stochastic stage receives its own integer seed derived from one master
seed plus a structural path (component name, stage name, loop indices).
Stages are therefore reproducible independently of execution order: a stage
can be rerun alone, or its loop reordered, and draw the same numbers.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK63 = (1 << 63) - 1


def _encode(part) -> int:
    if isinstance(part, (bool,)):
        raise TypeError("seed path parts must be int or str, not bool")
    if isinstance(part, (int, np.integer)):
        return int(part) & _MASK63
    if isinstance(part, str):
        digest = hashlib.sha256(part.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little") & _MASK63
    raise TypeError(f"seed path parts must be int or str, got {type(part).__name__}")


def derive_seed(master_seed: int, *path) -> int:
    """Derive a child seed from ``master_seed`` and a structural path.

    The same (master_seed, path) always yields the same child seed; distinct
    paths yield statistically independent streams.
    """
    entropy = [_encode(master_seed)] + [_encode(p) for p in path]
    ss = np.random.SeedSequence(entropy)
    return int(ss.generate_state(2, np.uint32).view(np.uint64)[0]) & _MASK63


def rng_from(master_seed: int, *path) -> np.random.Generator:
    """PCG64 generator seeded from the derived child seed."""
    return np.random.default_rng(derive_seed(master_seed, *path))
