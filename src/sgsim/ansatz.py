"""Builders for the measurement circuits: parametric Z/X devices, readout
rotations, and exact cat-state reference circuits."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .circuit import Circuit, cnot, h, rx, ry, rz, xx, zz
from .layout import chain_pairs

READOUT_ANGLE = -math.pi / 2


@dataclass(frozen=True)
class ParamSet:
    """Variational angles (radians): one gamma and one beta per layer.

    Angles are stored unwrapped; the circuits they feed are 2*pi-periodic.
    """

    N: int
    gamma: tuple[float, ...]
    beta: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "gamma", tuple(float(g) for g in self.gamma))
        object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))
        if self.N < 1:
            raise ValueError("probe half-count must be >= 1")
        if len(self.gamma) != len(self.beta) or not self.gamma:
            raise ValueError("need equal, nonzero numbers of gamma and beta angles")
        if not all(math.isfinite(a) for a in self.gamma + self.beta):
            raise ValueError("angles must be finite")

    @property
    def m(self) -> int:
        return len(self.gamma)

    def to_dict(self) -> dict:
        return {"N": self.N, "m": self.m,
                "gamma": list(self.gamma), "beta": list(self.beta)}

    @classmethod
    def from_dict(cls, doc: dict) -> ParamSet:
        ps = cls(int(doc["N"]), tuple(doc["gamma"]), tuple(doc["beta"]))
        if "m" in doc and int(doc["m"]) != ps.m:
            raise ValueError(f"declared m={doc['m']} but {ps.m} angles per vector")
        return ps

    def to_json(self, path: str | Path | None = None) -> str:
        # json round-trips doubles exactly (repr is shortest-exact)
        text = json.dumps(self.to_dict(), indent=2, sort_keys=True)
        if path is not None:
            Path(path).write_text(text + "\n")
        return text

    @classmethod
    def from_json(cls, text: str) -> ParamSet:
        return cls.from_dict(json.loads(text))


def _check_chain(params_n: int, chain) -> tuple[list[int], int]:
    chain = [int(q) for q in chain]
    if len(chain) != 2 * params_n + 1:
        raise ValueError(f"chain length {len(chain)} does not match N={params_n} "
                         f"(expected {2 * params_n + 1})")
    return chain, chain[params_n]


def _base_circuit(chain, center, n_qubits, probe_role) -> Circuit:
    n = max(chain) + 1 if n_qubits is None else n_qubits
    roles = {center: "system"}
    roles.update({q: probe_role for q in chain if q != center})
    return Circuit(n, roles=roles)


def build_sg_z(params: ParamSet, chain, n_qubits: int | None = None) -> Circuit:
    """Z-basis measurement device on an ordered chain with the system qubit
    in the middle: Hadamards on the probes, then alternating ZZ(gamma_k)
    couplings and RX(beta_k) probe rotations, layer by layer."""
    chain, center = _check_chain(params.N, chain)
    circuit = _base_circuit(chain, center, n_qubits, "z_probe")
    probes = [q for q in chain if q != center]
    circuit.extend(h(q) for q in probes)
    for gamma_k, beta_k in zip(params.gamma, params.beta):
        circuit.extend(zz(a, b, gamma_k) for a, b in chain_pairs(chain))
        circuit.extend(rx(q, beta_k) for q in probes)
    return circuit


def build_sg_x(params: ParamSet, chain, n_qubits: int | None = None) -> Circuit:
    """X-basis variant: no Hadamard preparation (|0> is already unbiased in
    that basis), XX couplings instead of ZZ, RZ probe rotations instead of RX."""
    chain, center = _check_chain(params.N, chain)
    circuit = _base_circuit(chain, center, n_qubits, "x_probe")
    probes = [q for q in chain if q != center]
    for gamma_k, beta_k in zip(params.gamma, params.beta):
        circuit.extend(xx(a, b, gamma_k) for a, b in chain_pairs(chain))
        circuit.extend(rz(q, beta_k) for q in probes)
    return circuit


def attach_readout_rotations(circuit: Circuit, probe_indices) -> Circuit:
    """Append RY(-pi/2) to each probe so |+>/|-> read out as 0/1.

    Attaching twice would silently corrupt readout (RY(-pi) is not identity),
    so a second attachment is refused.
    """
    if circuit.readout_attached:
        raise ValueError("readout rotations already attached to this circuit")
    out = circuit.copy()
    for q in probe_indices:
        if not 0 <= q < circuit.n_qubits:
            raise ValueError(f"probe {q} out of range")
        out.append(ry(q, READOUT_ANGLE))
    out.readout_attached = True
    return out


def build_reference_cat(basis: str, chain, n_qubits: int | None = None) -> Circuit:
    """Exact cat-state circuit used as the ideal baseline for the variational
    devices.

    Z basis: a CNOT ladder from the central qubit outward, copying its value
    onto every probe (a|0..0> + b|1..1> for input a|0>+b|1>). X basis: the
    conjugated ladder producing a|+>|+..+> + b|->|-..-> for the input written
    in the X basis. Only chain-adjacent two-qubit gates are emitted.
    """
    basis = basis.lower()
    if basis not in ("z", "x"):
        raise ValueError("basis must be 'z' or 'x'")
    chain = [int(q) for q in chain]
    if len(chain) % 2 != 1 or len(chain) < 3:
        raise ValueError("chain must have odd length >= 3 with the system qubit central")
    half = len(chain) // 2
    center = chain[half]
    circuit = _base_circuit(chain, center, n_qubits, f"{basis}_probe")
    if basis == "x":
        circuit.append(h(center))
    for step in range(half):
        circuit.append(cnot(chain[half + step], chain[half + step + 1]))
        circuit.append(cnot(chain[half - step], chain[half - step - 1]))
    if basis == "x":
        circuit.extend(h(q) for q in chain)
    return circuit
