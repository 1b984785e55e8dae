"""Dense statevector simulation: gate application, Born sampling, expectations.

Conventions fixed here and relied on everywhere else:
  * qubit 0 is the least-significant bit of the amplitude index;
  * serialized bitstrings are written most-significant qubit first;
  * ZZ(g) = exp(+i g Z@Z), XX(g) = exp(+i g X@X), RX(b) = exp(+i b X),
    RZ(b) = exp(+i b Z), while RY uses the half-angle form exp(-i t Y/2)
    so that RY(-pi/2) maps |+> to |0>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .circuit import Circuit, Gate, GateOp, TWO_QUBIT_GATES, measure

BIT_ORDER = "q[n-1]..q[0]: leftmost character is the highest qubit index"

# Largest register the simulator accepts. 2^24 complex128 amplitudes take
# 256 MiB, and a command keeps a few register-sized arrays alive at once
# (input, working copy, projected branch, Born vector). The delayed-choice
# experiment at N=5 needs 22 qubits.
MAX_QUBITS = 24

# Largest counts the CLI accepts for its other sizes, checked before anything
# is allocated. Sampling draws one 8-byte index per shot, so MAX_SHOTS = 2^24
# shots take 128 MiB, as much as half the largest register. A calibration
# draws all its start points at once (restarts x 2*layers angles, 1.6 MB at
# both caps) and keeps one half-chain state per layer for the gradient
# (MAX_LAYERS x 32 KiB at N=11); default runs use 20 restarts of 3 layers.
MAX_SHOTS = 1 << 24
MAX_RESTARTS = 1000
MAX_LAYERS = 100

_SQRT2_INV = 1.0 / math.sqrt(2.0)
_H_MATRIX = np.array([[_SQRT2_INV, _SQRT2_INV], [_SQRT2_INV, -_SQRT2_INV]], dtype=complex)


def _check_register(n_qubits: int) -> None:
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"register of {n_qubits} qubits outside 1..{MAX_QUBITS}")


class StateVector:
    """Dense complex amplitudes over an n-qubit register. Value-like: the
    simulation functions below return new instances and never mutate inputs."""

    __slots__ = ("n_qubits", "amplitudes")

    def __init__(self, n_qubits: int, amplitudes: np.ndarray, *, _copy: bool = True):
        _check_register(n_qubits)
        amplitudes = np.asarray(amplitudes, dtype=np.complex128)
        if amplitudes.shape != (1 << n_qubits,):
            raise ValueError(f"amplitude array must have length 2^{n_qubits}, "
                             f"got shape {amplitudes.shape}")
        self.n_qubits = n_qubits
        self.amplitudes = amplitudes.copy() if _copy else amplitudes

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def __repr__(self):
        return f"StateVector(n_qubits={self.n_qubits})"


def basis_state(n_qubits: int, index: int = 0) -> StateVector:
    _check_register(n_qubits)
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(n_qubits, amps, _copy=False)


def qubit_state(n_qubits: int, qubit: int, a: complex, b: complex) -> StateVector:
    """Product state with `qubit` in a|0>+b|1> and every other qubit in |0>."""
    _check_register(n_qubits)
    if not 0 <= qubit < n_qubits:
        raise ValueError(f"qubit {qubit} out of range")
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    amps[0] = a
    amps[1 << qubit] = b
    return StateVector(n_qubits, amps, _copy=False)


def bitstring_key(index: int, n_qubits: int) -> str:
    return format(index, f"0{n_qubits}b")


def gate_matrix(op: GateOp) -> np.ndarray:
    """Unitary matrix of a non-measurement gate.

    2x2 for single-qubit kinds; 4x4 for two-qubit kinds with targets[0] as
    the high bit of the row/column index.
    """
    g, t = op.gate, op.param
    if g is Gate.H:
        return _H_MATRIX.copy()
    if g is Gate.RX:
        c, s = math.cos(t), math.sin(t)
        return np.array([[c, 1j * s], [1j * s, c]], dtype=complex)
    if g is Gate.RZ:
        return np.array([[np.exp(1j * t), 0], [0, np.exp(-1j * t)]], dtype=complex)
    if g is Gate.RY:
        c, s = math.cos(t / 2), math.sin(t / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if g is Gate.ZZ:
        p, m = np.exp(1j * t), np.exp(-1j * t)
        return np.diag([p, m, m, p]).astype(complex)
    if g is Gate.XX:
        c, s = math.cos(t), math.sin(t)
        out = c * np.eye(4, dtype=complex)
        out += 1j * s * np.fliplr(np.eye(4, dtype=complex))
        return out
    if g is Gate.CNOT:
        out = np.eye(4, dtype=complex)
        out[[2, 3]] = out[[3, 2]]
        return out
    if g is Gate.CRY:
        c, s = math.cos(t / 2), math.sin(t / 2)
        out = np.eye(4, dtype=complex)
        out[2:, 2:] = [[c, -s], [s, c]]
        return out
    raise ValueError(f"{g.value} has no unitary matrix")


# Each gate rewrites the register through strided views of one array: a
# single-qubit gate pairs the blocks of amps.reshape(-1, 2, 2^q) along its
# middle axis, a two-qubit gate splits amps into four blocks by the bits of
# both targets. No index vector is built and no amplitude is gathered.

def _pair_blocks(amps: np.ndarray, q1: int, q2: int):
    """Views of the amplitudes whose (bit q1, bit q2) is 00, 01, 10 and 11."""
    lo, hi = sorted((q1, q2))
    v = amps.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
    if q1 > q2:
        return v[:, 0, :, 0], v[:, 0, :, 1], v[:, 1, :, 0], v[:, 1, :, 1]
    return v[:, 0, :, 0], v[:, 1, :, 0], v[:, 0, :, 1], v[:, 1, :, 1]


def _mix(gate: Gate, t: float, x: np.ndarray, y: np.ndarray) -> None:
    """Apply a gate's 2x2 action to one block pair in place: x holds the
    amplitudes where the pair's bit is 0, y those where it is 1."""
    if gate in (Gate.RZ, Gate.ZZ):
        x *= np.exp(1j * t)
        y *= np.exp(-1j * t)
    elif gate in (Gate.RX, Gate.XX):
        c, js = math.cos(t), 1j * math.sin(t)
        x[...], y[...] = c * x + js * y, c * y + js * x
    elif gate in (Gate.RY, Gate.CRY):
        c, s = math.cos(t / 2), math.sin(t / 2)
        x[...], y[...] = c * x - s * y, s * x + c * y
    elif gate is Gate.H:
        x[...], y[...] = (x + y) * _SQRT2_INV, (x - y) * _SQRT2_INV
    elif gate is Gate.CNOT:
        flipped = y.copy()
        y[...] = x
        x[...] = flipped
    else:
        raise ValueError(f"cannot apply {gate.value} as a unitary")


def _apply_op(amps: np.ndarray, op: GateOp) -> None:
    """Apply one unitary gate to `amps` in place."""
    g = op.gate
    if g in TWO_QUBIT_GATES:
        b00, b01, b10, b11 = _pair_blocks(amps, *op.targets)
        if g is Gate.ZZ:    # exp(+i g) where the bits agree, exp(-i g) where not
            pairs = ((b00, b01), (b11, b10))
        elif g is Gate.XX:  # X@X flips both bits
            pairs = ((b00, b11), (b01, b10))
        else:               # CNOT and CRY act on q2 where the control q1 is 1
            pairs = ((b10, b11),)
    else:
        v = amps.reshape(-1, 2, 1 << op.targets[0])
        pairs = ((v[:, 0], v[:, 1]),)
    for x, y in pairs:
        _mix(g, op.param, x, y)


def _check_targets(op: GateOp, n: int) -> None:
    if max(op.targets) >= n:
        raise ValueError(f"{op.gate.value} targets {op.targets} out of range for {n} qubits")


def apply_gate(state: StateVector, op: GateOp) -> StateVector:
    """Apply one unitary gate and return the transformed state."""
    if op.gate is Gate.MEASURE:
        raise ValueError("apply_gate does not handle measurements; use apply_circuit")
    _check_targets(op, state.n_qubits)
    amps = state.amplitudes.copy()
    _apply_op(amps, op)
    return StateVector(state.n_qubits, amps, _copy=False)


def _branch(amps: np.ndarray, qubit: int, bit: int) -> tuple[np.ndarray, float]:
    """View of the amplitudes where `qubit` equals `bit`, and its probability.
    The probability sums the branch in index order."""
    view = amps.reshape(-1, 2, 1 << qubit)[:, bit]
    return view, float(np.sum(np.abs(view.ravel()) ** 2))


def project_qubit(state: StateVector, qubit: int, bit: int) -> tuple[float, StateVector | None]:
    """Project onto a measurement branch without sampling. The returned state
    is None when the branch has zero probability."""
    if not 0 <= qubit < state.n_qubits:
        raise ValueError(f"qubit {qubit} out of range")
    view, prob = _branch(state.amplitudes, qubit, bit)
    if prob <= 0.0:
        return 0.0, None
    amps = np.zeros_like(state.amplitudes)
    amps.reshape(-1, 2, 1 << qubit)[:, bit] = view / math.sqrt(prob)
    return prob, StateVector(state.n_qubits, amps, _copy=False)


def _collapse(amps: np.ndarray, qubit: int, rng: np.random.Generator) -> int:
    """Sample `qubit` with one rng.random() draw, collapse `amps` onto the
    outcome in place, and return the outcome."""
    ones, p1 = _branch(amps, qubit, 1)
    outcome = 1 if rng.random() < p1 else 0
    kept, prob = (ones, p1) if outcome else _branch(amps, qubit, 0)
    if prob <= 0.0:
        raise RuntimeError(f"sampled a zero-probability branch on qubit {qubit}; "
                           "state is inconsistent")
    kept /= math.sqrt(prob)
    amps.reshape(-1, 2, 1 << qubit)[:, 1 - outcome] = 0.0
    return outcome


def measure_and_collapse(state: StateVector, qubit: int,
                         rng: np.random.Generator) -> tuple[int, StateVector]:
    """Sample one computational-basis outcome for `qubit` and collapse: a
    one-measurement program run through apply_circuit."""
    bits: dict[int, int] = {}
    post = apply_circuit(state, Circuit(state.n_qubits, [measure(qubit, cbit=0)]), rng, bits)
    return bits[0], post


def apply_circuit(state: StateVector, circuit: Circuit,
                  rng: np.random.Generator | None = None,
                  classical_out: dict[int, int] | None = None) -> StateVector:
    """Run a gate program in order on one copy of the input amplitudes.

    MEASURE ops consume randomness from `rng`, collapse the state, and record
    their outcome (when they carry a cbit) for later conditioned gates.
    `classical_out`, if given, is filled with the recorded bits.
    """
    if circuit.n_qubits != state.n_qubits:
        raise ValueError(f"circuit spans {circuit.n_qubits} qubits, "
                         f"state has {state.n_qubits}")
    circuit.validate()
    amps = state.amplitudes.copy()
    classical: dict[int, int] = {}
    for op in circuit.ops:
        if op.condition is not None and classical[op.condition[0]] != op.condition[1]:
            continue
        if op.gate is Gate.MEASURE:
            if rng is None:
                raise ValueError("circuit contains measurements but no rng was given")
            outcome = _collapse(amps, op.targets[0], rng)
            if op.cbit is not None:
                classical[op.cbit] = outcome
        else:
            _apply_op(amps, op)
    if classical_out is not None:
        classical_out.update(classical)
    return StateVector(state.n_qubits, amps, _copy=False)


def born_probabilities(state: StateVector, qubits=None) -> np.ndarray:
    """Marginal Born distribution over an ordered qubit subset.

    Returns a length-2^k vector: entry i is the probability of the pattern
    bitstring_key(i, k), whose j-th character is the bit of qubits[j]. The
    default subset is the whole register in serialization order (q[n-1]
    first), so entry i is then the probability of basis state i, the same
    indexing as ShotHistogram.counts.
    """
    n = state.n_qubits
    if qubits is None:
        qubits = list(range(n - 1, -1, -1))
    qubits = [int(q) for q in qubits]
    if len(set(qubits)) != len(qubits):
        raise ValueError("qubit subset contains duplicates")
    if any(not 0 <= q < n for q in qubits):
        raise ValueError("qubit subset out of range")
    probs = np.abs(state.amplitudes) ** 2
    table = probs.reshape([2] * n)
    keep_axes = [n - 1 - q for q in qubits]
    drop = tuple(ax for ax in range(n) if ax not in set(keep_axes))
    if drop:
        table = table.sum(axis=drop)
    remaining = sorted(keep_axes)
    table = table.transpose([remaining.index(ax) for ax in keep_axes])
    return table.reshape(-1)


@dataclass
class ShotHistogram:
    """Sampled counts over the full register: counts[i] is the number of
    shots that read basis state i, a length-2^n integer vector."""

    counts: np.ndarray
    shots: int
    n_qubits: int
    bit_order: ClassVar[str] = BIT_ORDER

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        self.counts = np.asarray(self.counts)
        if self.counts.shape != (1 << self.n_qubits,):
            raise ValueError(f"counts must have length 2^{self.n_qubits}, "
                             f"got shape {self.counts.shape}")
        if np.any(self.counts < 0):
            raise ValueError("negative count")
        total = int(self.counts.sum())
        if total != self.shots:
            raise ValueError(f"counts total {total} != shots {self.shots}")

    def to_dict(self) -> dict:
        """Report form: nonzero counts keyed by bitstring, in sorted order."""
        return {"counts": {bitstring_key(int(i), self.n_qubits): int(self.counts[i])
                           for i in np.flatnonzero(self.counts)},
                "shots": self.shots, "n_qubits": self.n_qubits,
                "bit_order": BIT_ORDER}


def histogram_from_samples(indices: np.ndarray, shots: int, n_qubits: int) -> ShotHistogram:
    return ShotHistogram(np.bincount(indices, minlength=1 << n_qubits), shots, n_qubits)


def sample_shots(state: StateVector, shots: int, rng: np.random.Generator) -> ShotHistogram:
    """Draw i.i.d. full-register samples from the Born distribution."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    probs = np.abs(state.amplitudes) ** 2
    probs = probs / probs.sum()
    draws = rng.choice(state.dim, size=shots, p=probs)
    return histogram_from_samples(draws, shots, state.n_qubits)


def expectation_pauli_chain(state: StateVector, axis: str, bonds) -> float:
    """Nearest-neighbor Ising energy  -sum_k <sigma_axis sigma_axis>  over bonds."""
    axis = axis.upper()
    if axis not in ("Z", "X"):
        raise ValueError("axis must be 'Z' or 'X'")
    n = state.n_qubits
    amps = state.amplitudes
    idx = np.arange(amps.size)
    probs = np.abs(amps) ** 2 if axis == "Z" else None
    total = 0.0
    for i, j in bonds:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"bond ({i},{j}) out of range")
        if axis == "Z":
            sign = 1.0 - 2.0 * (((idx >> i) ^ (idx >> j)) & 1)
            total += float(np.dot(probs, sign))
        else:
            total += float(np.vdot(amps, amps[idx ^ ((1 << i) | (1 << j))]).real)
    return -total


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2 of two pure states."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("states live on different registers")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


ORACLE_MAX_QUBITS = 6


def _embed_matrix(op: GateOp, n: int) -> np.ndarray:
    """Full 2^n x 2^n matrix of one gate, built only from Kronecker structure."""
    m = gate_matrix(op)
    if op.gate not in TWO_QUBIT_GATES:
        q = op.targets[0]
        return np.kron(np.eye(1 << (n - 1 - q), dtype=complex),
                       np.kron(m, np.eye(1 << q, dtype=complex)))
    q1, q2 = op.targets
    dim = 1 << n
    full = np.zeros((dim, dim), dtype=complex)
    clear = ~((1 << q1) | (1 << q2))
    for col in range(dim):
        mcol = (((col >> q1) & 1) << 1) | ((col >> q2) & 1)
        base = col & clear
        for b1 in (0, 1):
            for b2 in (0, 1):
                row = base | (b1 << q1) | (b2 << q2)
                full[row, col] = m[(b1 << 1) | b2, mcol]
    return full


def dense_unitary_oracle(circuit: Circuit) -> np.ndarray:
    """Brute-force circuit unitary via per-gate matrix products.

    Deliberately independent of the fast application path; small instances
    only (n <= 6), no measurements or conditioned gates.
    """
    n = circuit.n_qubits
    if n > ORACLE_MAX_QUBITS:
        raise ValueError(f"oracle capped at {ORACLE_MAX_QUBITS} qubits, got {n}")
    circuit.validate()
    u = np.eye(1 << n, dtype=complex)
    for op in circuit.ops:
        if op.gate is Gate.MEASURE:
            raise ValueError("oracle cannot represent measurements")
        if op.condition is not None:
            raise ValueError("oracle cannot represent conditioned gates")
        u = _embed_matrix(op, n) @ u
    return u
