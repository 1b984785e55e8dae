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

from .ansatz import ParamSet, build_sg_z
from .layout import chain_pairs
from .state import (StateVector, apply_circuit, expectation_pauli_chain,
                    fidelity, qubit_state)

_SQRT2_INV = 1.0 / math.sqrt(2.0)


def ground_energy(N: int) -> float:
    """Lowest Ising energy of the 2N+1-site chain: every bond aligned."""
    return -2.0 * N


def _device_chain(N: int) -> list[int]:
    return list(range(2 * N + 1))


def _device_output(params: ParamSet, a: complex, b: complex) -> StateVector:
    """Output of the Z device on its 2N+1 chain for system-qubit input a|0>+b|1>."""
    chain = _device_chain(params.N)
    circuit = build_sg_z(params, chain)
    return apply_circuit(qubit_state(circuit.n_qubits, chain[params.N], a, b), circuit)


def cost(params: ParamSet) -> float:
    """Ising energy of the Z device's output with the system qubit in |0>.

    Bonds span the whole chain, including the two touching the system qubit:
    leaving them out would decouple the halves and never correlate probes
    across the center. The X device is the H⊗n conjugate of the Z layers, so
    its cost with the system qubit in |+> is this same number and the
    Z-calibrated angles serve both devices.
    """
    bonds = chain_pairs(_device_chain(params.N))
    return expectation_pauli_chain(_device_output(params, 1.0, 0.0), "z", bonds)


def cat_fidelity(params: ParamSet, a: complex, b: complex) -> float:
    """Overlap-squared of the device output for input a|0>+b|1> with the
    ideal collective target a|0..0> + b|1..1>."""
    if not abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) <= 1e-12:  # NaN fails too
        raise ValueError("input amplitudes must satisfy |a|^2+|b|^2 = 1")
    out = _device_output(params, a, b)
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
    # one per restart, in order: start, best_cost, evaluations, and the
    # optimizer's return status and message
    restart_records: list[dict]

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
            "restart_records": self.restart_records,
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


def _run_restart(args) -> tuple[dict, list[float], list[float]]:
    """One local optimization; returns (its record, best angles, eval trace)."""
    x0, N, m, tolerance, max_iters = args
    trace: list[float] = []
    best = [math.inf, list(x0)]

    def objective(x):
        value = cost(ParamSet(N, tuple(x[:m]), tuple(x[m:])))
        trace.append(value)
        if value < best[0]:
            best[0] = value
            best[1] = [float(v) for v in x]
        return value

    result = scipy_minimize(objective, np.asarray(x0), method="COBYLA", tol=tolerance,
                            options={"maxiter": max_iters, "rhobeg": 0.5})
    record = {"start": list(x0), "best_cost": float(best[0]), "evaluations": len(trace),
              "status": int(result.status), "message": str(result.message)}
    return record, best[1], trace


def minimize(N: int, m: int, restarts: int = 20, seed: int = 0,
             tolerance: float = 1e-6, max_iters: int = 2000,
             workers: int | None = None) -> CalibrationReport:
    """Best-of-restarts COBYLA minimization of the device cost.

    Starts are drawn uniformly from [0, pi)^(2m) with a generator seeded by
    `seed`, so the full report is reproducible. Restarts run in `workers`
    separate processes, one per CPU by default (None) and never more than
    there are restarts; 1 runs them in this process. Results are identical
    either way (restarts are independent and merged in order).
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if m < 1:
        raise ValueError("need at least one layer")
    rng = np.random.default_rng(seed)
    starts = rng.uniform(0.0, math.pi, size=(restarts, 2 * m))
    jobs = [(starts[r].tolist(), N, m, tolerance, max_iters) for r in range(restarts)]

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
    for record, x, run_trace in results:
        for v in run_trace:
            trace.append((iteration, float(v)))
            iteration += 1
        if record["best_cost"] < best_value:
            best_value, best_x = record["best_cost"], x

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
        restart_records=[record for record, _, _ in results],
    )
