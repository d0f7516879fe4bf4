"""Constrained QUBO instances: energies, Ising form, oracles, synthetic generation.

The binary objective is

    Y(x) = x^T Q x + w * (sum_i x_i - k)^2,      x in {0,1}^n,

with a symmetric coefficient matrix Q, a cardinality target k and a penalty
multiplier w (1.0 by default).  The equivalent spin form is

    E(z) = offset + sum_i h_i z_i + sum_{i<j} J_ij z_i z_j,   z_i = 2 x_i - 1.

The conversion is defined by exact energy equivalence on every bitstring;
the offset absorbs all constant terms.  An instance has one energy table,
built from the spin form: the circuit's phases, the sampled shot energies
and the brute-force oracle all read it.  It equals the binary objective to
rounding, which the equivalence tests check against a binary-form
reference.

Bit-order convention, fixed project-wide: bit i of an integer basis-state
index holds the value of variable x_i (little-endian).  The brute-force
oracle breaks ties by the smallest index under this encoding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import CapacityError, InstanceFormatError

# the widest instance any 2^n table (energy table, statevector) is built for
MAX_QUBITS = 24

# ising_energy_table adds couplings on bits below this through a pattern over
# these bits, so no inner loop of its broadcast adds is shorter than 2^8
_PATTERN_BITS = 8

DEFAULT_CARDINALITY = {10: 8, 13: 11, 15: 12, 18: 14}


@dataclass(frozen=True, eq=False)
class QuboInstance:
    """Symmetric QUBO coefficient matrix with a cardinality-penalty target.

    Immutable after construction; the matrix is stored read-only so instances
    are safe to share across workers.
    """

    n: int
    q: np.ndarray
    k: int
    penalty_weight: float = 1.0

    def __post_init__(self):
        q = np.array(self.q, dtype=np.float64, order="C")
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if q.shape != (self.n, self.n):
            raise ValueError(f"Q must be {self.n}x{self.n}, got shape {q.shape}")
        if not np.all(np.isfinite(q)):
            raise ValueError("Q contains non-finite entries")
        if not np.array_equal(q, q.T):
            raise ValueError("Q must be symmetric")
        if not 0 <= self.k <= self.n:
            raise ValueError(f"k must satisfy 0 <= k <= n, got k={self.k}, n={self.n}")
        if not np.isfinite(self.penalty_weight):
            raise ValueError("penalty_weight must be finite")
        q.flags.writeable = False
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "penalty_weight", float(self.penalty_weight))


@dataclass(frozen=True, eq=False)
class IsingModel:
    """Diagonal spin Hamiltonian: linear fields h, couplings J (i<j), offset."""

    n: int
    h: np.ndarray
    j: dict = field(default_factory=dict)
    offset: float = 0.0

    def __post_init__(self):
        h = np.array(self.h, dtype=np.float64)
        if h.shape != (self.n,):
            raise ValueError(f"h must have length n={self.n}, got shape {h.shape}")
        if not np.all(np.isfinite(h)):
            raise ValueError("h contains non-finite entries")
        for (a, b), v in self.j.items():
            if not (0 <= a < b < self.n):
                raise ValueError(f"coupling key ({a},{b}) must satisfy 0 <= i < j < n")
            if not np.isfinite(v):
                raise ValueError(f"coupling ({a},{b}) is non-finite")
        if not np.isfinite(self.offset):
            raise ValueError("offset must be finite")
        h.flags.writeable = False
        object.__setattr__(self, "h", h)
        # float couplings keep J_ij * (z_i * z_j) in float64 for int8 spins
        object.__setattr__(self, "j", {key: float(v) for key, v in self.j.items()})
        object.__setattr__(self, "offset", float(self.offset))


def as_bits(x, n: int) -> np.ndarray:
    """Validate a length-n 0/1 vector and return it as an int8 array."""
    bits = np.asarray(x)
    if bits.shape != (n,):
        raise ValueError(f"bitstring must have length {n}, got shape {bits.shape}")
    if not np.all((bits == 0) | (bits == 1)):
        raise ValueError("bitstring entries must be 0 or 1")
    return bits.astype(np.int8)


def index_to_bits(index: int, n: int) -> np.ndarray:
    """Bits of a basis-state index, bit i -> variable x_i."""
    return ((index >> np.arange(n)) & 1).astype(np.int8)


def bits_to_index(bits) -> int:
    b = np.asarray(bits, dtype=np.int64)
    return int((b << np.arange(b.size)).sum())


def qubo_energy(inst: QuboInstance, x) -> float:
    """Objective value x^T Q x + w*(sum(x) - k)^2 for a 0/1 assignment."""
    bits = as_bits(x, inst.n).astype(np.float64)
    quad = float(bits @ inst.q @ bits)
    return quad + inst.penalty_weight * (float(bits.sum()) - inst.k) ** 2


def ising_energy(model: IsingModel, z) -> float:
    """Spin energy offset + sum_i h_i z_i + sum_{i<j} J_ij z_i z_j."""
    spins = np.asarray(z, dtype=np.float64)
    if spins.shape != (model.n,):
        raise ValueError(f"spin vector must have length {model.n}, got shape {spins.shape}")
    if not np.all(np.abs(spins) == 1):
        raise ValueError("spin entries must be +1 or -1")
    e = model.offset + float(model.h @ spins)
    for (a, b), v in model.j.items():
        e += v * spins[a] * spins[b]
    return float(e)


def to_ising(inst: QuboInstance) -> IsingModel:
    """Spin form of the instance under z_i = 2 x_i - 1.

    Derived by substituting x_i = (1 + z_i)/2 into the binary objective and
    collecting terms; exactness is checked by the equivalence tests, not
    assumed.  With row sums r_i = sum_j Q_ij and w the penalty weight:

        h_i    = r_i / 2 + w (n - 2k) / 2
        J_ij   = Q_ij / 2 + w / 2                       (i < j)
        offset = (sum(Q) + tr(Q)) / 4 + w ((n - 2k)^2 + n) / 4
    """
    n, q, k, w = inst.n, inst.q, inst.k, inst.penalty_weight
    row_sums = q.sum(axis=1)
    lin_shift = w * (n - 2 * k) / 2.0
    h = row_sums / 2.0 + lin_shift
    j = {}
    for a in range(n):
        for b in range(a + 1, n):
            j[(a, b)] = q[a, b] / 2.0 + w / 2.0
    offset = (q.sum() + np.trace(q)) / 4.0 + w * ((n - 2 * k) ** 2 + n) / 4.0
    return IsingModel(n=n, h=h, j=j, offset=float(offset))


def check_qubits(n: int) -> None:
    """Refuse, with CapacityError, an instance wider than ``MAX_QUBITS``."""
    if n > MAX_QUBITS:
        raise CapacityError(f"n={n} exceeds the statevector limit of {MAX_QUBITS}")


def energy_table(inst: QuboInstance) -> np.ndarray:
    """Energies of all 2^n bitstrings, indexed by the little-endian encoding.

    This is the instance's one table, :func:`ising_energy_table` of
    ``to_ising(inst)``: the angles are tuned on it, the circuit's phases and
    the samplers' shot energies come from it.
    """
    return ising_energy_table(to_ising(inst))


def ising_energy_table(model: IsingModel) -> np.ndarray:
    """Spin energies of all 2^n basis states under z_i = 2 x_i - 1.

    No spin arrays.  The fields fill the table by doubling: the entries with
    bit i set are those below 2^i plus h_i, and those below 2^i take -h_i.
    Each coupling is then one in-place add of +-J_ij broadcast over a view
    of the table: [[J, -J], [-J, J]] on the view whose two axes are bits i
    and j, or a +-J pattern over the lowest ``_PATTERN_BITS`` bits, so that
    numpy's inner loop stays long for low bits.  Every term added is exactly
    +-h_i or +-J_ij, in the order offset, fields, couplings: the doubles of
    ``offset + sum h_i z_i + sum J_ij z_i z_j`` summed term by term.
    """
    check_qubits(model.n)
    n = model.n
    out = np.empty(1 << n, dtype=np.float64)
    out[0] = model.offset
    for i, h in enumerate(model.h):
        half = 1 << i
        np.add(out[:half], h, out=out[half : 2 * half])
        out[:half] -= h
    low = min(n, _PATTERN_BITS)
    # row i: z_i over the entries below 2^low
    signs = np.where(np.arange(1 << low) >> np.arange(low)[:, None] & 1, 1.0, -1.0)
    for (a, b), v in model.j.items():
        if a >= low:
            view = out.reshape(-1, 2, 1 << (b - a - 1), 2, 1 << a)
            view += np.array([[v, -v], [-v, v]])[:, None, :, None]
            continue
        pattern = v * signs[a]  # J z_a on the low bits
        if b < low:
            pattern *= signs[b]
            view = out.reshape(-1, 1 << low)
            view += pattern
        else:
            view = out.reshape(-1, 2, 1 << (b - low), 1 << low)
            view += np.stack([-pattern, pattern])[:, None, :]
    return out


def brute_force_minimum(inst: QuboInstance) -> tuple[np.ndarray, float]:
    """Global minimizer by exhaustive enumeration (n <= 24).

    Ties resolve to the smallest basis-state index, i.e. the lexicographically
    smallest bitstring under the little-endian bit-order convention.
    """
    table = energy_table(inst)
    best = int(np.argmin(table))
    return index_to_bits(best, inst.n), float(table[best])


def generate_synthetic_q(
    n: int,
    seed: int = 0,
    k: int | None = None,
    magnitude: float = 0.05,
    signal_to_noise: float = 3.0,
    penalty_weight: float = 1.0,
) -> QuboInstance:
    """Deterministic synthetic instance with a non-trivial constrained landscape.

    The matrix mimics one built from differences of a bounded performance
    metric: diagonal entries are single-variable deltas drawn uniformly
    within ``magnitude``, off-diagonals are weaker pairwise deltas within
    ``magnitude / signal_to_noise``.  Entries are continuous, so
    energy ties across bitstrings have probability zero.

    When ``k`` is omitted, a preset cardinality is used for the sizes the
    sweep configurations care about (10->8, 13->11, 15->12, 18->14), falling
    back to round(0.8*n).
    """
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    if magnitude <= 0 or signal_to_noise <= 0:
        raise ValueError("magnitude and signal_to_noise must be positive")
    if k is None:
        k = DEFAULT_CARDINALITY.get(n, max(1, round(0.8 * n)))
    rng = np.random.default_rng(seed)
    diag = rng.uniform(-magnitude, magnitude, size=n)
    off = rng.uniform(-magnitude / signal_to_noise, magnitude / signal_to_noise, size=(n, n))
    q = np.triu(off, 1)
    q = q + q.T
    q[np.diag_indices(n)] = diag
    return QuboInstance(n=n, q=q, k=k, penalty_weight=penalty_weight)


def save_instance(inst: QuboInstance, path) -> None:
    """Write an instance as JSON ({n, k, penalty_weight, q} with q row-major)."""
    payload = {
        "n": inst.n,
        "k": inst.k,
        "penalty_weight": inst.penalty_weight,
        "q": [[float(v) for v in row] for row in inst.q],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def _load_json_instance(path: Path) -> QuboInstance:
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(payload, dict):
        raise InstanceFormatError(f"{path}: top-level value must be an object")
    for fld in ("n", "k", "q"):
        if fld not in payload:
            raise InstanceFormatError(f"{path}: missing required field {fld!r}")
    try:
        return QuboInstance(
            n=int(payload["n"]),
            q=np.asarray(payload["q"], dtype=np.float64),
            k=int(payload["k"]),
            penalty_weight=float(payload.get("penalty_weight", 1.0)),
        )
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError(f"{path}: {exc}") from exc


def _load_csv_instance(path: Path) -> QuboInstance:
    lines = path.read_text().splitlines()
    header = None
    rows = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if header is not None:
                raise InstanceFormatError(f"{path}:{lineno}: duplicate header line")
            header = (lineno, line)
            continue
        try:
            rows.append([float(tok) for tok in line.split(",")])
        except ValueError as exc:
            raise InstanceFormatError(f"{path}:{lineno}: non-numeric entry ({exc})") from exc
    if header is None:
        raise InstanceFormatError(f"{path}: missing '# n=<n> k=<k>' header line")
    tokens = dict(
        tok.split("=", 1) for tok in header[1].lstrip("#").split() if "=" in tok
    )
    if "n" not in tokens or "k" not in tokens:
        raise InstanceFormatError(f"{path}:{header[0]}: header must define n= and k=")
    try:
        n, k = int(tokens["n"]), int(tokens["k"])
    except ValueError as exc:
        raise InstanceFormatError(f"{path}:{header[0]}: n and k must be integers") from exc
    if len(rows) != n or any(len(r) != n for r in rows):
        raise InstanceFormatError(f"{path}: expected an {n}x{n} grid, got {len(rows)} rows")
    try:
        return QuboInstance(n=n, q=np.asarray(rows, dtype=np.float64), k=k)
    except ValueError as exc:
        raise InstanceFormatError(f"{path}: {exc}") from exc


def load_instance(path) -> QuboInstance:
    """Read an instance from a .json or .csv file (see the file-format docs)."""
    p = Path(path)
    if p.suffix.lower() == ".csv":
        return _load_csv_instance(p)
    return _load_json_instance(p)
