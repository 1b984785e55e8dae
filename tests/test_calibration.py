"""Variational calibration: cost landscape anchors, optimizer behavior,
report invariants."""

import math

import numpy as np
import pytest

import sgsim.calibration
from sgsim.ansatz import ParamSet, build_sg_z
from sgsim.calibration import (_half_diagonal, cat_fidelity, cost, cost_and_gradient,
                               ground_energy, minimize, scipy_minimize)
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


def test_half_diagonal_is_cached_and_read_only():
    # a size no other test uses: a write that got through spoils no other test
    diagonal = _half_diagonal(12, 0)
    assert _half_diagonal(12, 0) is diagonal
    assert _half_diagonal(12, 1) is not diagonal
    with pytest.raises(ValueError):
        diagonal[0] = 7
    with pytest.raises(ValueError):
        diagonal *= 2


# ------------------------------------------------- the L-BFGS on its own

def rosenbrock(x):
    value = 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2
    gradient = np.array([-400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
                         200.0 * (x[1] - x[0] ** 2)])
    return value, gradient


def run_lbfgs(fun, x0, tolerance=1e-12, max_iters=2000):
    x0 = np.asarray(x0, dtype=float)
    return scipy_minimize(fun, x0, *fun(x0), tolerance, max_iters)


def test_lbfgs_reaches_quadratic_minimizer():
    rng = np.random.default_rng(1)
    factor = rng.normal(size=(5, 5))
    a, b = factor @ factor.T + np.eye(5), rng.normal(size=5)
    x, values, status, message = run_lbfgs(lambda v: (0.5 * v @ a @ v - b @ v, a @ v - b),
                                           np.zeros(5))
    assert status == 0 and message.startswith("converged")
    np.testing.assert_allclose(x, np.linalg.solve(a, b), rtol=0, atol=1e-6)
    assert values == sorted(values, reverse=True)  # every step decreases the cost


def test_lbfgs_reaches_rosenbrock_minimizer():
    x, values, status, _ = run_lbfgs(rosenbrock, [-1.2, 1.0])
    assert status == 0
    np.testing.assert_allclose(x, [1.0, 1.0], rtol=0, atol=1e-6)
    assert values[-1] <= 1e-12


def test_lbfgs_stops_at_the_iteration_cap():
    x, values, status, message = run_lbfgs(rosenbrock, [-1.2, 1.0], max_iters=3)
    assert status == 1 and message == "stopped: iteration cap reached"
    assert len(values) == 3 + 1  # the start, then one cost per iteration
    assert values[-1] == rosenbrock(x)[0]


def test_lbfgs_reports_a_failed_line_search():
    # a gradient of the wrong sign points uphill: no halved step decreases
    calls = []

    def uphill(x):
        calls.append(x)
        value, gradient = rosenbrock(x)
        return value, -gradient

    x, values, status, message = run_lbfgs(uphill, [-1.2, 1.0])
    assert status == 2 and message.startswith("line search failed")
    assert values == [rosenbrock(np.array([-1.2, 1.0]))[0]]
    np.testing.assert_array_equal(x, [-1.2, 1.0])
    assert len(calls) == 1 + 20  # the start, then 20 trial steps


def test_lbfgs_evaluates_each_point_once():
    x0 = np.array([-1.2, 1.0])
    calls = []

    def counting(x):
        calls.append(x.copy())
        return rosenbrock(x)

    _, values, _, _ = scipy_minimize(counting, x0, *rosenbrock(x0), 1e-12, 2000)
    assert len(calls) >= len(values) - 1  # one call at least per iteration
    points = {tuple(x) for x in calls}
    assert len(points) == len(calls) and tuple(x0) not in points


def test_lbfgs_retries_a_failed_search_along_steepest_descent():
    # restart 7 of this calibration keeps a pair with s'y ~ 9e-6 at its 11th
    # iteration; the next direction has norm ~1e7 and no halved step of it
    # decreases the cost, so the search starts over from -g and converges
    report = minimize(3, 3, restarts=8, seed=3)
    record = report.restart_records[7]
    assert record["status"] == 0 and record["iterations"] > 11
    assert all(r["status"] == 0 for r in report.restart_records)


def test_restart_evaluates_its_start_once(monkeypatch):
    calls = []
    real_cost_and_gradient = sgsim.calibration.cost_and_gradient

    def counting_cost_and_gradient(params):
        calls.append(params.gamma + params.beta)
        return real_cost_and_gradient(params)

    monkeypatch.setattr(sgsim.calibration, "cost_and_gradient", counting_cost_and_gradient)
    report = minimize(2, 2, restarts=1, seed=6)
    start = tuple(report.restart_records[0]["start"])
    assert calls.count(start) == 1 and calls[0] == start
    assert report.restart_records[0]["evaluations"] == len(calls)


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


def test_default_calibration_converges(calibrated_n3):
    report, _ = calibrated_n3
    assert abs(report.best_cost - report.ground_energy) <= 1e-6
    assert all(r["status"] == 0 for r in report.restart_records)


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
