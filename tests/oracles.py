"""Brute-force helpers shared across tests, kept independent of the code
paths they are used to check."""

from __future__ import annotations

import math

import numpy as np

from sgsim.ansatz import ParamSet, build_sg_z
from sgsim.calibration import cost
from sgsim.circuit import (PARAMETRIC_GATES, TWO_QUBIT_GATES, Circuit, Gate,
                           GateOp)
from sgsim.layout import chain_pairs
from sgsim.state import (StateVector, apply_circuit, expectation_pauli_chain,
                         fidelity, qubit_state)

UNITARY_GATES = tuple(g for g in Gate if g is not Gate.MEASURE)


def random_circuit(rng, n_qubits: int, n_gates: int, kinds=UNITARY_GATES) -> Circuit:
    ops = []
    for _ in range(n_gates):
        gate = kinds[rng.integers(len(kinds))]
        if gate in TWO_QUBIT_GATES:
            pick = rng.choice(n_qubits, size=2, replace=False)
            targets = (int(pick[0]), int(pick[1]))
        else:
            targets = (int(rng.integers(n_qubits)),)
        param = float(rng.uniform(0.0, 2.0 * math.pi)) if gate in PARAMETRIC_GATES else None
        ops.append(GateOp(gate, targets, param))
    return Circuit(n_qubits, ops)


def grid_scan_min(N: int = 1, resolution: float = math.pi / 200) -> float:
    """Exhaustive single-layer landscape scan over [0, pi)^2."""
    steps = round(math.pi / resolution)
    best = math.inf
    for i in range(steps):
        gamma = i * resolution
        for j in range(steps):
            value = cost(ParamSet(N, (gamma,), (j * resolution,)))
            if value < best:
                best = value
    return best


def _full_chain_output(params: ParamSet, a: complex, b: complex) -> StateVector:
    """Z device simulated gate by gate on its whole 2N+1 chain, system qubit
    in the middle with input a|0>+b|1>."""
    n = 2 * params.N + 1
    circuit = build_sg_z(params, range(n))
    return apply_circuit(qubit_state(n, params.N, a, b), circuit)


def full_chain_cost(params: ParamSet) -> float:
    """Ising energy over every bond of the 2N+1 chain, system qubit in |0>."""
    out = _full_chain_output(params, 1.0, 0.0)
    return expectation_pauli_chain(out, "z", chain_pairs(range(out.n_qubits)))


def full_chain_cat_fidelity(params: ParamSet, a: complex, b: complex) -> float:
    """Fidelity of the full-chain output with a|0..0> + b|1..1>."""
    out = _full_chain_output(params, a, b)
    target = np.zeros(out.dim, dtype=np.complex128)
    target[0], target[-1] = a, b
    return fidelity(out, StateVector(out.n_qubits, target))


def binomial_sigma(p: float, shots: int) -> float:
    return math.sqrt(p * (1.0 - p) / shots)
