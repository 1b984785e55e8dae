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

import numpy as np

from .circuit import Circuit, Gate, GateOp, TWO_QUBIT_GATES

BIT_ORDER = "q[n-1]..q[0]: leftmost character is the highest qubit index"

_SQRT2_INV = 1.0 / math.sqrt(2.0)
_H_MATRIX = np.array([[_SQRT2_INV, _SQRT2_INV], [_SQRT2_INV, -_SQRT2_INV]], dtype=complex)


class StateVector:
    """Dense complex amplitudes over an n-qubit register. Value-like: the
    simulation functions below return new instances and never mutate inputs."""

    __slots__ = ("n_qubits", "amplitudes")

    def __init__(self, n_qubits: int, amplitudes: np.ndarray, *, _copy: bool = True):
        if n_qubits < 1:
            raise ValueError("need at least one qubit")
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

    def copy(self) -> StateVector:
        return StateVector(self.n_qubits, self.amplitudes)

    def __repr__(self):
        return f"StateVector(n_qubits={self.n_qubits})"


def basis_state(n_qubits: int, index: int = 0) -> StateVector:
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(n_qubits, amps, _copy=False)


def qubit_state(n_qubits: int, qubit: int, a: complex, b: complex) -> StateVector:
    """Product state with `qubit` in a|0>+b|1> and every other qubit in |0>."""
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


def _apply_1q(amps: np.ndarray, n: int, m2: np.ndarray, q: int) -> np.ndarray:
    psi = amps.reshape([2] * n)
    axis = n - 1 - q
    psi = np.moveaxis(psi, axis, 0)
    shape = psi.shape
    psi = (m2 @ psi.reshape(2, -1)).reshape(shape)
    return np.moveaxis(psi, 0, axis).reshape(-1)


def _apply_op(amps: np.ndarray, n: int, op: GateOp) -> np.ndarray:
    """Fast bitwise application of one unitary gate; returns a new array."""
    g = op.gate
    if g in (Gate.H, Gate.RX, Gate.RY, Gate.RZ):
        return _apply_1q(amps, n, gate_matrix(op), op.targets[0])

    q1, q2 = op.targets
    idx = np.arange(amps.size)
    if g is Gate.ZZ:
        anti = ((idx >> q1) ^ (idx >> q2)) & 1
        phase = np.where(anti == 0, np.exp(1j * op.param), np.exp(-1j * op.param))
        return amps * phase
    if g is Gate.XX:
        flipped = amps[idx ^ ((1 << q1) | (1 << q2))]
        return math.cos(op.param) * amps + 1j * math.sin(op.param) * flipped
    # remaining kinds act only where the control bit q1 is set
    sel = (((idx >> q1) & 1) == 1) & (((idx >> q2) & 1) == 0)
    i0 = idx[sel]
    i1 = i0 | (1 << q2)
    out = amps.copy()
    if g is Gate.CNOT:
        out[i0], out[i1] = amps[i1], amps[i0]
        return out
    if g is Gate.CRY:
        c, s = math.cos(op.param / 2), math.sin(op.param / 2)
        out[i0] = c * amps[i0] - s * amps[i1]
        out[i1] = s * amps[i0] + c * amps[i1]
        return out
    raise ValueError(f"cannot apply {g.value} as a unitary")


def _check_targets(op: GateOp, n: int) -> None:
    if max(op.targets) >= n:
        raise ValueError(f"{op.gate.value} targets {op.targets} out of range for {n} qubits")


def apply_gate(state: StateVector, op: GateOp) -> StateVector:
    """Apply one unitary gate and return the transformed state."""
    if op.gate is Gate.MEASURE:
        raise ValueError("apply_gate does not handle measurements; use apply_circuit")
    _check_targets(op, state.n_qubits)
    return StateVector(state.n_qubits, _apply_op(state.amplitudes, state.n_qubits, op),
                       _copy=False)


def _project_qubit(amps: np.ndarray, n: int, qubit: int, bit: int):
    """(probability, renormalized amplitudes) of finding `qubit` equal to `bit`."""
    idx = np.arange(amps.size)
    keep = (((idx >> qubit) & 1) == bit)
    prob = float(np.sum(np.abs(amps[keep]) ** 2))
    if prob <= 0.0:
        return 0.0, None
    out = np.where(keep, amps, 0.0) / math.sqrt(prob)
    return prob, out


def project_qubit(state: StateVector, qubit: int, bit: int) -> tuple[float, StateVector | None]:
    """Project onto a measurement branch without sampling. The returned state
    is None when the branch has zero probability."""
    if not 0 <= qubit < state.n_qubits:
        raise ValueError(f"qubit {qubit} out of range")
    prob, amps = _project_qubit(state.amplitudes, state.n_qubits, qubit, bit)
    if amps is None:
        return prob, None
    return prob, StateVector(state.n_qubits, amps, _copy=False)


def measure_and_collapse(state: StateVector, qubit: int,
                         rng: np.random.Generator) -> tuple[int, StateVector]:
    """Sample one computational-basis outcome for `qubit` and collapse."""
    if not 0 <= qubit < state.n_qubits:
        raise ValueError(f"qubit {qubit} out of range")
    p1, _ = _project_qubit(state.amplitudes, state.n_qubits, qubit, 1)
    outcome = 1 if rng.random() < p1 else 0
    prob, amps = _project_qubit(state.amplitudes, state.n_qubits, qubit, outcome)
    if amps is None:
        raise RuntimeError(f"sampled a zero-probability branch on qubit {qubit}; "
                           "state is inconsistent")
    return outcome, StateVector(state.n_qubits, amps, _copy=False)


def apply_circuit(state: StateVector, circuit: Circuit,
                  rng: np.random.Generator | None = None,
                  classical_out: dict[int, int] | None = None) -> StateVector:
    """Run a gate program in order.

    MEASURE ops consume randomness from `rng`, collapse the state, and record
    their outcome (when they carry a cbit) for later conditioned gates.
    `classical_out`, if given, is filled with the recorded bits.
    """
    if circuit.n_qubits != state.n_qubits:
        raise ValueError(f"circuit spans {circuit.n_qubits} qubits, "
                         f"state has {state.n_qubits}")
    circuit.validate()
    amps = state.amplitudes.copy()
    n = state.n_qubits
    classical: dict[int, int] = {}
    for op in circuit.ops:
        if op.condition is not None and classical[op.condition[0]] != op.condition[1]:
            continue
        if op.gate is Gate.MEASURE:
            if rng is None:
                raise ValueError("circuit contains measurements but no rng was given")
            outcome, collapsed = measure_and_collapse(StateVector(n, amps, _copy=False),
                                                      op.targets[0], rng)
            amps = collapsed.amplitudes
            if op.cbit is not None:
                classical[op.cbit] = outcome
        else:
            amps = _apply_op(amps, n, op)
    if classical_out is not None:
        classical_out.update(classical)
    return StateVector(n, amps, _copy=False)


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
    bit_order: str = BIT_ORDER

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
                "bit_order": self.bit_order}


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
