"""Variational calibration: cost landscape anchors, optimizer behavior,
report invariants."""

import math

import numpy as np
import pytest

import sgsim.calibration
from sgsim.ansatz import ParamSet, build_sg_z
from sgsim.calibration import (cat_fidelity, cost, cost_and_gradient, ground_energy,
                               minimize)
from sgsim.state import apply_circuit, basis_state

from oracles import full_chain_cat_fidelity, full_chain_cost

SQRT2_INV = 1.0 / math.sqrt(2.0)


def test_zero_parameters_cost_vanishes():
    params = ParamSet(3, (0.0,) * 3, (0.0,) * 3)
    assert cost(params) == pytest.approx(0.0, abs=1e-12)


def test_half_chain_matches_full_chain_oracle():
    rng = np.random.default_rng(17)
    for _ in range(60):
        N, m = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        params = ParamSet(N, tuple(rng.uniform(0, 2 * math.pi, m)),
                          tuple(rng.uniform(0, 2 * math.pi, m)))
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        norm = math.hypot(abs(a), abs(b))
        a, b = a / norm, b / norm
        assert abs(cost(params) - full_chain_cost(params)) <= 1e-12
        assert abs(cat_fidelity(params, a, b)
                   - full_chain_cat_fidelity(params, a, b)) <= 1e-12


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(23)
    step = 1e-6
    for _ in range(40):
        N, m = int(rng.integers(1, 7)), int(rng.integers(1, 5))
        x = rng.uniform(0, 2 * math.pi, 2 * m)

        def params(v):
            return ParamSet(N, tuple(v[:m]), tuple(v[m:]))

        value, gradient = cost_and_gradient(params(x))
        assert abs(value - cost(params(x))) <= 1e-12
        central = [(cost(params(x + step * e)) - cost(params(x - step * e))) / (2 * step)
                   for e in np.eye(2 * m)]
        np.testing.assert_allclose(gradient, central, rtol=0, atol=1e-6)


def test_cost_respects_variational_bound():
    rng = np.random.default_rng(0)
    for _ in range(25):
        params = ParamSet(2, tuple(rng.uniform(0, math.pi, 2)),
                          tuple(rng.uniform(0, math.pi, 2)))
        assert cost(params) >= ground_energy(2) - 1e-9


def test_minimize_small_instance_reaches_ground():
    report = minimize(1, 1, restarts=4, seed=2)
    assert report.ground_energy == -2.0
    assert report.best_cost <= -1.99


def test_minimize_is_deterministic():
    a = minimize(1, 1, restarts=3, seed=42)
    b = minimize(1, 1, restarts=3, seed=42)
    assert a.to_dict() == b.to_dict()


def test_parallel_restarts_match_serial():
    serial = minimize(1, 1, restarts=3, seed=5, workers=1)
    parallel = minimize(1, 1, restarts=3, seed=5, workers=2)
    assert serial.to_dict() == parallel.to_dict()


def test_worker_count_is_clamped_to_restarts(monkeypatch):
    # a stand-in pool records the requested size and maps in this process
    requested = []

    class SerialPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(sgsim.calibration, "ProcessPoolExecutor", SerialPool)
    kwargs = dict(restarts=3, seed=5, max_iters=30)
    clamped = minimize(1, 1, workers=1000, **kwargs)
    assert requested == [3]
    # the default runs the restarts in this process and starts no pool
    default = minimize(1, 1, **kwargs)
    serial = minimize(1, 1, workers=1, **kwargs)
    assert clamped.to_dict() == default.to_dict() == serial.to_dict()
    assert requested == [3]


def test_report_invariants(calibrated_n3):
    report, _ = calibrated_n3
    assert report.ground_energy == -6.0
    assert report.best_cost >= report.ground_energy - 1e-9
    assert report.best_cost == min(v for _, v in report.cost_trace)
    assert 0.0 <= report.cat_fidelity_0 <= 1.0
    assert 0.0 <= report.cat_fidelity_plus <= 1.0
    iterations = [i for i, _ in report.cost_trace]
    assert iterations == list(range(len(iterations)))
    assert report.restarts == 20 and report.seed == 0
    records = report.restart_records
    assert len(records) == report.restarts
    # the trace holds each restart's start cost, then one entry per iteration
    assert sum(r["iterations"] + 1 for r in records) == len(report.cost_trace)
    for r in records:
        assert type(r["status"]) is int
        assert 0 <= r["iterations"] < r["evaluations"]
        assert isinstance(r["message"], str) and r["message"]
        assert len(r["start"]) == 6 and all(0.0 <= x < math.pi for x in r["start"])
    # each record's best cost is the lowest value in its stretch of the trace
    start = 0
    for r in records:
        stretch = [v for _, v in report.cost_trace[start:start + r["iterations"] + 1]]
        assert r["best_cost"] == min(stretch)
        start += r["iterations"] + 1


def test_evaluations_count_cost_calls(monkeypatch):
    # every evaluation is one call of the cost-and-gradient function
    calls = []
    real_cost_and_gradient = sgsim.calibration.cost_and_gradient

    def counting_cost_and_gradient(params):
        calls.append(params)
        return real_cost_and_gradient(params)

    monkeypatch.setattr(sgsim.calibration, "cost_and_gradient", counting_cost_and_gradient)
    report = minimize(1, 2, restarts=3, seed=4, workers=1)
    assert sum(r["evaluations"] for r in report.restart_records) == len(calls)


def test_ground_cost_implies_cat_subspace(calibrated_n3):
    # chain gap is 2: cost <= ground + eps forces all but eps/2 of the
    # population into the span of the two aligned product states
    report, _ = calibrated_n3
    eps = 0.5
    assert report.best_cost <= report.ground_energy + eps
    out = apply_circuit(basis_state(7), build_sg_z(report.best_params, range(7)))
    aligned = abs(out.amplitudes[0]) ** 2 + abs(out.amplitudes[-1]) ** 2
    assert aligned > 1.0 - eps / 2


def test_cat_fidelity_anchors(calibrated_n3):
    flat = ParamSet(3, (0.0,) * 3, (0.0,) * 3)
    assert cat_fidelity(flat, 1.0, 0.0) == pytest.approx(2.0 ** -6, abs=1e-12)

    report, _ = calibrated_n3
    f0 = cat_fidelity(report.best_params, 1.0, 0.0)
    f_plus = cat_fidelity(report.best_params, SQRT2_INV, SQRT2_INV)
    assert f0 == pytest.approx(f_plus, abs=1e-12)
    assert f0 == pytest.approx(report.cat_fidelity_0, abs=0)


def test_cat_fidelity_rejects_unnormalized_input():
    params = ParamSet(1, (0.1,), (0.2,))
    with pytest.raises(ValueError):
        cat_fidelity(params, 1.0, 1.0)
    with pytest.raises(ValueError):
        cat_fidelity(params, math.nan, 0.0)


def test_minimize_argument_validation():
    with pytest.raises(ValueError):
        minimize(1, 1, restarts=0)
    with pytest.raises(ValueError):
        minimize(1, 0)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        minimize(1, 1, seed=-1)


def test_report_json_round_trip():
    report = minimize(1, 1, restarts=2, seed=9)
    import json
    doc = json.loads(report.to_json())
    assert doc["best_cost"] == report.best_cost
    assert ParamSet.from_dict(doc["best_params"]) == report.best_params
    assert len(doc["cost_trace"]) == len(report.cost_trace)
