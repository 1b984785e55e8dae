"""Variational calibration of the measurement circuits: minimize the
nearest-neighbor Ising energy of the device output with a derivative-free
optimizer, and score the achieved cat state."""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ansatz import ParamSet, build_sg_x, build_sg_z
from .layout import chain_pairs
from .state import (StateVector, apply_circuit, basis_state,
                    expectation_pauli_chain, fidelity, qubit_state)

_SQRT2_INV = 1.0 / math.sqrt(2.0)


def ground_energy(N: int) -> float:
    """Lowest Ising energy of the 2N+1-site chain: every bond aligned."""
    return -2.0 * N


def _device_chain(N: int) -> list[int]:
    return list(range(2 * N + 1))


def cost(params: ParamSet, basis: str = "z") -> float:
    """Ising energy of the device output with the system qubit in the basis's
    unbiased-reference state (|0> for Z, |+> for X). Bonds span the whole
    chain, including the two touching the system qubit: leaving them out
    would decouple the halves and never correlate probes across the center.
    """
    N = params.N
    chain = _device_chain(N)
    bonds = chain_pairs(chain)
    center = chain[N]
    if basis == "z":
        circuit = build_sg_z(params, chain)
        state = basis_state(circuit.n_qubits)
    elif basis == "x":
        circuit = build_sg_x(params, chain)
        state = qubit_state(circuit.n_qubits, center, _SQRT2_INV, _SQRT2_INV)
    else:
        raise ValueError("basis must be 'z' or 'x'")
    return expectation_pauli_chain(apply_circuit(state, circuit), basis, bonds)


def cat_fidelity(params: ParamSet, a: complex, b: complex) -> float:
    """Overlap-squared of the device output for input a|0>+b|1> with the
    ideal collective target a|0..0> + b|1..1>."""
    if abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) > 1e-12:
        raise ValueError("input amplitudes must satisfy |a|^2+|b|^2 = 1")
    N = params.N
    chain = _device_chain(N)
    circuit = build_sg_z(params, chain)
    out = apply_circuit(qubit_state(circuit.n_qubits, chain[N], a, b), circuit)
    target = np.zeros(out.dim, dtype=np.complex128)
    target[0] = a
    target[-1] = b
    return fidelity(out, StateVector(out.n_qubits, target, _copy=False))


@dataclass
class CalibrationReport:
    best_params: ParamSet
    best_cost: float
    ground_energy: float
    cost_trace: list[tuple[int, float]]
    restarts: int
    seed: int
    cat_fidelity_0: float
    cat_fidelity_plus: float

    def to_dict(self) -> dict:
        return {
            "best_params": self.best_params.to_dict(),
            "best_cost": self.best_cost,
            "ground_energy": self.ground_energy,
            "cost_trace": [[i, v] for i, v in self.cost_trace],
            "restarts": self.restarts,
            "seed": self.seed,
            "cat_fidelity_0": self.cat_fidelity_0,
            "cat_fidelity_plus": self.cat_fidelity_plus,
        }

    def to_json(self, path: str | Path | None = None) -> str:
        text = json.dumps(self.to_dict(), indent=2, sort_keys=True)
        if path is not None:
            Path(path).write_text(text + "\n")
        return text


def scipy_minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on the first restart: importing it
    takes about 0.5 s and 49 MB, which only calibration needs."""
    from scipy.optimize import minimize as scipy_optimize_minimize
    return scipy_optimize_minimize(*args, **kwargs)


def _run_restart(args) -> tuple[float, list[float], list[float]]:
    """One local optimization; returns (best value, best angles, eval trace)."""
    x0, N, m, basis, tolerance, max_iters = args
    trace: list[float] = []
    best = [math.inf, list(x0)]

    def objective(x):
        value = cost(ParamSet(N, tuple(x[:m]), tuple(x[m:])), basis)
        trace.append(value)
        if value < best[0]:
            best[0] = value
            best[1] = [float(v) for v in x]
        return value

    scipy_minimize(objective, np.asarray(x0), method="COBYLA",
                   tol=tolerance, options={"maxiter": max_iters, "rhobeg": 0.5})
    return best[0], best[1], trace


def minimize(N: int, m: int, restarts: int = 20, seed: int = 0,
             tolerance: float = 1e-6, max_iters: int = 2000,
             basis: str = "z", workers: int | None = 1) -> CalibrationReport:
    """Best-of-restarts COBYLA minimization of the device cost.

    Starts are drawn uniformly from [0, pi)^(2m) with a generator seeded by
    `seed`, so the full report is reproducible. `workers` > 1 runs restarts
    in separate processes, never more than there are restarts; None picks one
    per CPU. Results are identical either way (restarts are independent and
    merged in order).
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if m < 1:
        raise ValueError("need at least one layer")
    rng = np.random.default_rng(seed)
    starts = rng.uniform(0.0, math.pi, size=(restarts, 2 * m))
    jobs = [(starts[r].tolist(), N, m, basis, tolerance, max_iters)
            for r in range(restarts)]

    if workers is None:
        workers = os.cpu_count() or 1
    workers = min(workers, restarts)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_restart, jobs))
    else:
        results = [_run_restart(job) for job in jobs]

    best_value, best_x = math.inf, None
    trace: list[tuple[int, float]] = []
    iteration = 0
    for value, x, run_trace in results:
        for v in run_trace:
            trace.append((iteration, float(v)))
            iteration += 1
        if value < best_value:
            best_value, best_x = value, x

    best_params = ParamSet(N, tuple(best_x[:m]), tuple(best_x[m:]))
    return CalibrationReport(
        best_params=best_params,
        best_cost=float(best_value),
        ground_energy=ground_energy(N),
        cost_trace=trace,
        restarts=restarts,
        seed=seed,
        cat_fidelity_0=cat_fidelity(best_params, 1.0, 0.0),
        cat_fidelity_plus=cat_fidelity(best_params, _SQRT2_INV, _SQRT2_INV),
    )
