"""Variational calibration of the measurement circuits: minimize the
nearest-neighbor Ising energy of the device output with L-BFGS-B, and score
the achieved cat state. L-BFGS-B gets the exact gradient of the cost from
one forward and one backward (adjoint) pass over the half chain, so it
makes no finite-difference probes.

Both numbers are computed on one N-qubit half of the 2N+1 chain. No gate of
the Z device flips the system qubit (ZZ is diagonal, H and RX act only on
probes), so with the system in |c> each center bond ZZ(gamma) acts as
RZ(+-gamma) on the probe next to the center, and the two halves evolve
independently as mirror images of each other. Half-chain qubit 0 is the
probe next to the center.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ansatz import ParamSet
from .circuit import Gate
from .state import _mix

_SQRT2_INV = 1.0 / math.sqrt(2.0)


def ground_energy(N: int) -> float:
    """Lowest Ising energy of the 2N+1-site chain: every bond aligned."""
    return -2.0 * N


def _half_diagonal(N: int, center_bit: int) -> np.ndarray:
    """Ising diagonal of one half with the system qubit in |center_bit>:
    sum of z_i z_(i+1) along the half, plus z_0 z_center for the center bond."""
    z = 1 - 2 * ((np.arange(1 << N)[:, None] >> np.arange(N)) & 1)
    return (z[:, :-1] * z[:, 1:]).sum(axis=1) + (1 - 2 * center_bit) * z[:, 0]


def _rx_every_probe(amps: np.ndarray, n_qubits: int, beta: float) -> None:
    """RX(beta) on every qubit of a half, in place."""
    for q in range(n_qubits):
        v = amps.reshape(-1, 2, 1 << q)
        _mix(Gate.RX, beta, v[:, 0], v[:, 1])


def _half_output(params: ParamSet, diagonal: np.ndarray,
                 phased: list[np.ndarray] | None = None) -> np.ndarray:
    """Amplitudes of one half after the Z device: Hadamards, then per layer
    the ZZ couplings as one diagonal phase and RX(beta) on every probe.
    A `phased` list receives a copy of each layer's state after its phase."""
    N = params.N
    amps = np.full(1 << N, 2.0 ** (-N / 2), dtype=np.complex128)
    for gamma, beta in zip(params.gamma, params.beta):
        amps *= np.exp(1j * gamma * diagonal)
        if phased is not None:
            phased.append(amps.copy())
        _rx_every_probe(amps, N, beta)
    return amps


def _energy(amps: np.ndarray, diagonal: np.ndarray) -> float:
    """Chain energy: twice the half's expectation of its Ising diagonal."""
    return -2.0 * float(np.dot(np.abs(amps) ** 2, diagonal))


def cost(params: ParamSet) -> float:
    """Ising energy of the Z device's output with the system qubit in |0>.

    Bonds span the whole chain, including the two touching the system qubit:
    leaving them out would decouple the halves and never correlate probes
    across the center. The halves mirror each other, so this is twice one
    half's energy. The X device is the H⊗n conjugate of the Z layers, so its
    cost with the system qubit in |+> is this same number and the
    Z-calibrated angles serve both devices.
    """
    diagonal = _half_diagonal(params.N, 0)
    return _energy(_half_output(params, diagonal), diagonal)


def cost_and_gradient(params: ParamSet) -> tuple[float, np.ndarray]:
    """`cost(params)`, bit for bit, and its exact gradient with respect to
    (gamma_1..gamma_m, beta_1..beta_m).

    Adjoint method (Jones & Gacon, arXiv:2009.02823): the forward pass keeps
    each layer's state after its phase; the backward pass carries
    lam = U_after^dagger D psi from the output back to the input. With
    RX(b) = exp(+ibX), P(g) = exp(+igD) and C = -2<psi|D|psi>, layer k
    contributes dC/dbeta_k = 4 Im<lam|sum_q X_q psi> after its RX and
    dC/dgamma_k = 4 Im<lam|D psi> after its phase. One call takes about two
    cost evaluations; forward finite differences take 2m more per gradient.
    """
    N, m = params.N, params.m
    diagonal = _half_diagonal(N, 0)
    phased: list[np.ndarray] = []
    psi = _half_output(params, diagonal, phased)
    value = _energy(psi, diagonal)
    lam = diagonal * psi
    gradient = np.empty(2 * m)
    for k in reversed(range(m)):
        flipped = sum(np.vdot(lam, psi.reshape(-1, 2, 1 << q)[:, ::-1])
                      for q in range(N))
        gradient[m + k] = 4.0 * flipped.imag
        _rx_every_probe(lam, N, -params.beta[k])
        psi = phased[k]
        gradient[k] = 4.0 * np.vdot(lam, diagonal * psi).imag
        unphase = np.exp(-1j * params.gamma[k] * diagonal)
        lam *= unphase
        psi *= unphase
    return value, gradient


def cat_fidelity(params: ParamSet, a: complex, b: complex) -> float:
    """Overlap-squared of the device output for input a|0>+b|1> with the
    ideal collective target a|0..0> + b|1..1>.

    The output is a|0>|L0>|R0> + b|1>|L1>|R1>, with R_c the mirror image of
    L_c, so the overlap is |a|^2 L0[0..0]^2 + |b|^2 L1[1..1]^2.
    """
    if not abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) <= 1e-12:  # NaN fails too
        raise ValueError("input amplitudes must satisfy |a|^2+|b|^2 = 1")
    zeros = _half_output(params, _half_diagonal(params.N, 0))[0]
    ones = _half_output(params, _half_diagonal(params.N, 1))[-1]
    return float(abs(abs(a) ** 2 * zeros ** 2 + abs(b) ** 2 * ones ** 2) ** 2)


@dataclass
class CalibrationReport:
    best_params: ParamSet
    best_cost: float
    ground_energy: float
    # each restart's start cost, then its cost after every iteration
    cost_trace: list[tuple[int, float]]
    restarts: int
    seed: int
    cat_fidelity_0: float
    cat_fidelity_plus: float
    # one per restart, in order: start, best_cost, evaluations (calls of
    # cost_and_gradient), iterations, and the optimizer's return status and
    # message
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
    """One local optimization; returns (its record, final angles, cost trace).

    L-BFGS-B calls one function for the cost and its exact adjoint gradient
    together (`jac=True`); `evaluations` counts those calls, the first of
    which scores the start. The trace holds the start cost, then the cost
    after each L-BFGS-B iteration.
    """
    x0, N, m, tolerance, max_iters = args
    evaluations = 0

    def objective(x):
        nonlocal evaluations
        evaluations += 1
        return cost_and_gradient(ParamSet(N, tuple(x[:m]), tuple(x[m:])))

    start = np.asarray(x0)
    trace = [objective(start)[0]]

    def on_iteration(intermediate_result):
        trace.append(float(intermediate_result.fun))

    result = scipy_minimize(objective, start, jac=True, method="L-BFGS-B", tol=tolerance,
                            callback=on_iteration, options={"maxiter": max_iters})
    record = {"start": list(x0), "best_cost": float(result.fun),
              "evaluations": evaluations, "iterations": int(result.nit),
              "status": int(result.status), "message": str(result.message)}
    return record, [float(v) for v in result.x], trace


def minimize(N: int, m: int, restarts: int = 20, seed: int = 0,
             tolerance: float = 1e-6, max_iters: int = 2000,
             workers: int = 1) -> CalibrationReport:
    """Best-of-restarts L-BFGS-B minimization of the device cost.

    Each restart runs L-BFGS-B on the cost and its exact adjoint gradient
    (`cost_and_gradient`); `tolerance` is its ftol and gtol, `max_iters` its
    iteration cap, and the restart's result is its final iterate. Starts are
    drawn uniformly from [0, pi)^(2m) with a generator seeded by `seed`, so
    the full report is reproducible. By default the restarts run one after
    another in this process; `workers` > 1 runs them in that many separate
    processes, never more than there are restarts. Results are identical
    either way (restarts are independent and merged in order).
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if m < 1:
        raise ValueError("need at least one layer")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    rng = np.random.default_rng(seed)
    starts = rng.uniform(0.0, math.pi, size=(restarts, 2 * m))
    jobs = [(starts[r].tolist(), N, m, tolerance, max_iters) for r in range(restarts)]

    workers = min(workers, restarts)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_restart, jobs))
    else:
        results = [_run_restart(job) for job in jobs]

    trace = list(enumerate(v for _, _, run_trace in results for v in run_trace))
    best_record, best_x, _ = min(results, key=lambda result: result[0]["best_cost"])

    best_params = ParamSet(N, tuple(best_x[:m]), tuple(best_x[m:]))
    return CalibrationReport(
        best_params=best_params,
        best_cost=best_record["best_cost"],
        ground_energy=ground_energy(N),
        cost_trace=trace,
        restarts=restarts,
        seed=seed,
        cat_fidelity_0=cat_fidelity(best_params, 1.0, 0.0),
        cat_fidelity_plus=cat_fidelity(best_params, _SQRT2_INV, _SQRT2_INV),
        restart_records=[record for record, _, _ in results],
    )
