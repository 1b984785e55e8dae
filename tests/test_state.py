"""Statevector core: gate semantics, sampling, collapse, expectations, oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sgsim.circuit import (PARAMETRIC_GATES, TWO_QUBIT_GATES, Circuit, Gate,
                           GateOp, cnot, cry, h, measure, ry, zz)
from sgsim.state import (MAX_QUBITS, apply_circuit, apply_gate, basis_state,
                         born_probabilities, dense_unitary_oracle,
                         expectation_pauli_chain, fidelity, gate_matrix,
                         measure_and_collapse, project_qubit, qubit_state,
                         sample_shots, ShotHistogram, StateVector)

from oracles import UNITARY_GATES, random_circuit

SQRT2_INV = 1.0 / math.sqrt(2.0)


def plus_state(n=1):
    return StateVector(n, np.full(1 << n, (0.5) ** (n / 2), dtype=complex))


# ---------------------------------------------------------------- gate basics

def test_zz_zero_angle_is_identity():
    rng = np.random.default_rng(0)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps /= np.linalg.norm(amps)
    state = StateVector(2, amps)
    out = apply_gate(state, zz(0, 1, 0.0))
    np.testing.assert_allclose(out.amplitudes, amps, atol=1e-15)


def test_hadamard_on_zero():
    out = apply_gate(basis_state(1), h(0))
    np.testing.assert_allclose(out.amplitudes, [SQRT2_INV, SQRT2_INV], atol=1e-15)


def test_zz_phases_on_basis_states():
    gamma = math.pi / 4
    out = apply_gate(basis_state(2, 0), zz(0, 1, gamma))
    assert out.amplitudes[0] == pytest.approx(np.exp(1j * gamma))
    out = apply_gate(basis_state(2, 1), zz(0, 1, gamma))
    assert out.amplitudes[1] == pytest.approx(np.exp(-1j * gamma))


def test_readout_rotation_maps_x_eigenstates():
    plus = StateVector(1, np.array([SQRT2_INV, SQRT2_INV]))
    minus = StateVector(1, np.array([SQRT2_INV, -SQRT2_INV]))
    np.testing.assert_allclose(apply_gate(plus, ry(0, -math.pi / 2)).amplitudes,
                               [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(apply_gate(minus, ry(0, -math.pi / 2)).amplitudes,
                               [0.0, -1.0], atol=1e-15)
    # and the global phase agrees with the brute-force matrix
    oracle = dense_unitary_oracle(Circuit(1, [ry(0, -math.pi / 2)]))
    np.testing.assert_allclose(oracle @ minus.amplitudes,
                               apply_gate(minus, ry(0, -math.pi / 2)).amplitudes,
                               atol=1e-15)


def test_apply_gate_rejects_bad_targets():
    state = basis_state(2)
    with pytest.raises(ValueError):
        apply_gate(state, h(2))
    with pytest.raises(ValueError):
        apply_gate(state, measure(0))
    with pytest.raises(ValueError):
        GateOp(Gate.ZZ, (1, 1), 0.3)


def test_gateop_arity_and_angle_validation():
    with pytest.raises(ValueError):
        GateOp(Gate.H, (0, 1))
    with pytest.raises(ValueError):
        GateOp(Gate.RX, (0,))          # missing angle
    with pytest.raises(ValueError):
        GateOp(Gate.CNOT, (0, 1), 0.5)  # spurious angle


def test_every_gate_matrix_is_unitary():
    rng = np.random.default_rng(1)
    for gate in Gate:
        if gate is Gate.MEASURE:
            continue
        arity = 2 if gate in (Gate.ZZ, Gate.XX, Gate.CNOT, Gate.CRY) else 1
        targets = (0, 1)[:arity]
        needs_angle = gate in (Gate.RX, Gate.RY, Gate.RZ, Gate.ZZ, Gate.XX, Gate.CRY)
        op = GateOp(gate, targets, float(rng.uniform(0, 2 * math.pi)) if needs_angle else None)
        u = gate_matrix(op)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(u.shape[0]), atol=1e-12)


# ------------------------------------------------------------------- circuits

def test_empty_circuit_is_identity():
    state = qubit_state(3, 1, 0.6, 0.8)
    out = apply_circuit(state, Circuit(3))
    np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=0)


def test_bell_circuit():
    out = apply_circuit(basis_state(2), Circuit(2, [h(0), cnot(0, 1)]))
    np.testing.assert_allclose(out.amplitudes, [SQRT2_INV, 0, 0, SQRT2_INV], atol=1e-15)


def test_norm_preserved_on_deep_random_circuits():
    rng = np.random.default_rng(2)
    for n in (5, 13):
        circuit = random_circuit(rng, n, 200)
        out = apply_circuit(basis_state(n), circuit)
        assert abs(out.norm() - 1.0) < 1e-10


def test_apply_circuit_matches_oracle_on_random_circuits():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        circuit = random_circuit(rng, n, 30)
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        amps /= np.linalg.norm(amps)
        state = StateVector(n, amps)
        expected = dense_unitary_oracle(circuit) @ amps
        np.testing.assert_allclose(apply_circuit(state, circuit).amplitudes,
                                   expected, atol=1e-12)


@st.composite
def unitary_circuits(draw):
    """Circuits of every unitary kind on 2-6 qubits; two-qubit gates take any
    ordered pair of distinct qubits, adjacent or not."""
    n = draw(st.integers(2, 6))
    ops = []
    for gate in draw(st.lists(st.sampled_from(UNITARY_GATES), min_size=1, max_size=24)):
        arity = 2 if gate in TWO_QUBIT_GATES else 1
        targets = tuple(draw(st.lists(st.integers(0, n - 1), min_size=arity,
                                      max_size=arity, unique=True)))
        param = (draw(st.floats(-2 * math.pi, 2 * math.pi))
                 if gate in PARAMETRIC_GATES else None)
        ops.append(GateOp(gate, targets, param))
    return Circuit(n, ops)


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return StateVector(n, amps / np.linalg.norm(amps))


@settings(max_examples=150, deadline=None)
@given(unitary_circuits(), st.integers(0, 2**32 - 1))
def test_kernels_match_oracle_on_any_targets(circuit, seed):
    state = random_state(circuit.n_qubits, seed)
    expected = dense_unitary_oracle(circuit) @ state.amplitudes
    out = apply_circuit(state, circuit)
    np.testing.assert_allclose(out.amplitudes, expected, rtol=0, atol=1e-12)
    # apply_gate runs the same kernel, one copy per gate
    stepped = state
    for op in circuit.ops:
        stepped = apply_gate(stepped, op)
    assert np.array_equal(stepped.amplitudes, out.amplitudes)


def test_simulation_never_mutates_its_input():
    rng = np.random.default_rng(5)
    circuit = random_circuit(rng, 5, 60)
    circuit.extend([measure(2, cbit=0), ry(3, 0.4, condition=(0, 1)), measure(0)])
    state = random_state(5, 6)
    before = state.amplitudes.copy()
    apply_circuit(state, circuit, rng=np.random.default_rng(7))
    for op in circuit.ops:
        if op.gate is not Gate.MEASURE:
            apply_gate(state, op)
    measure_and_collapse(state, 1, np.random.default_rng(8))
    project_qubit(state, 4, 1)
    assert np.array_equal(state.amplitudes, before)


def test_register_size_is_capped():
    # checked before any amplitude is allocated
    with pytest.raises(ValueError, match="qubits"):
        basis_state(MAX_QUBITS + 1)
    with pytest.raises(ValueError, match="qubits"):
        qubit_state(MAX_QUBITS + 1, 0, 1.0, 0.0)
    with pytest.raises(ValueError, match="qubits"):
        StateVector(MAX_QUBITS + 1, np.zeros(2))
    with pytest.raises(ValueError):
        StateVector(0, np.zeros(1))


def test_oracle_trivial_matrices():
    np.testing.assert_allclose(dense_unitary_oracle(Circuit(1, [h(0)])),
                               np.array([[1, 1], [1, -1]]) * SQRT2_INV, atol=1e-15)
    gamma = 0.37
    u = dense_unitary_oracle(Circuit(2, [zz(0, 1, gamma)]))
    np.testing.assert_allclose(
        u, np.diag(np.exp(1j * gamma * np.array([1, -1, -1, 1]))), atol=1e-15)


def test_oracle_output_is_unitary():
    rng = np.random.default_rng(4)
    circuit = random_circuit(rng, 4, 40)
    u = dense_unitary_oracle(circuit)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(16), atol=1e-10)


def test_oracle_size_and_measurement_caps():
    with pytest.raises(ValueError):
        dense_unitary_oracle(Circuit(7, [h(0)]))
    with pytest.raises(ValueError):
        dense_unitary_oracle(Circuit(2, [measure(0, cbit=0)]))


# ------------------------------------------------------------ born & sampling

def test_born_single_qubit_plus():
    table = born_probabilities(plus_state(), [0])
    assert table[0] == pytest.approx(0.5)
    assert table[1] == pytest.approx(0.5)


def test_born_bell_pairs():
    bell = apply_circuit(basis_state(2), Circuit(2, [h(0), cnot(0, 1)]))
    table = born_probabilities(bell, [0, 1])
    assert table[0b00] == pytest.approx(0.5)
    assert table[0b11] == pytest.approx(0.5)
    assert table[0b01] == 0.0 and table[0b10] == 0.0
    assert table.sum() == pytest.approx(1.0, abs=1e-12)


def test_born_subset_order_and_errors():
    state = apply_circuit(basis_state(3), Circuit(3, [h(2)]))
    # qubit 2 listed first: its bit is the high bit of the pattern index
    table = born_probabilities(state, [2, 0])
    assert table[0b00] == pytest.approx(0.5)
    assert table[0b10] == pytest.approx(0.5)
    with pytest.raises(ValueError):
        born_probabilities(state, [0, 0])
    with pytest.raises(ValueError):
        born_probabilities(state, [3])


def test_sample_shots_deterministic_and_concentrated():
    state = basis_state(3)
    hist = sample_shots(state, 100, np.random.default_rng(5))
    assert hist.counts.tolist() == [100, 0, 0, 0, 0, 0, 0, 0]

    hist1 = sample_shots(plus_state(), 500, np.random.default_rng(6))
    hist2 = sample_shots(plus_state(), 500, np.random.default_rng(6))
    assert hist1.counts.tolist() == hist2.counts.tolist()


def test_sample_shots_binomial_band():
    shots = 8192
    hist = sample_shots(plus_state(), shots, np.random.default_rng(7))
    assert abs(hist.counts[0] - shots / 2) <= 3 * math.sqrt(shots * 0.25)
    assert hist.shots == shots == hist.counts.sum()


def test_sampling_matches_born_within_4_sigma():
    rng = np.random.default_rng(8)
    circuit = random_circuit(rng, 4, 25)
    state = apply_circuit(basis_state(4), circuit)
    shots = 8192
    hist = sample_shots(state, shots, rng)
    probs = born_probabilities(state)
    for index, p in enumerate(probs):
        observed = hist.counts[index] / shots
        band = 4 * math.sqrt(max(p * (1 - p), 1e-12) / shots)
        assert abs(observed - p) <= band, f"bin {index}: {observed} vs {p}"


def test_shot_histogram_validation():
    with pytest.raises(ValueError):
        ShotHistogram(np.array([2, 0, 0, 0]), shots=3, n_qubits=2)
    with pytest.raises(ValueError):
        ShotHistogram(np.array([3, 0, 0]), shots=3, n_qubits=2)    # wrong length
    with pytest.raises(ValueError):
        ShotHistogram(np.array([4, -1, 0, 0]), shots=3, n_qubits=2)


# ------------------------------------------------------------------- collapse

def test_collapse_on_definite_qubit():
    outcome, post = measure_and_collapse(basis_state(1), 0, np.random.default_rng(9))
    assert outcome == 0
    np.testing.assert_allclose(post.amplitudes, [1, 0], atol=0)


def test_collapse_on_plus_gives_exact_basis_state():
    for seed in range(6):
        rng = np.random.default_rng(seed)
        outcome, post = measure_and_collapse(plus_state(), 0, rng)
        expected = np.zeros(2)
        expected[outcome] = 1.0
        np.testing.assert_allclose(post.amplitudes, expected, atol=1e-15)
        # one rng.random() draw decides the outcome, and it is the only draw
        replay = np.random.default_rng(seed)
        assert outcome == int(replay.random() < 0.5)
        assert rng.random() == replay.random()


def test_collapse_bell_correlations():
    bell = apply_circuit(basis_state(2), Circuit(2, [h(0), cnot(0, 1)]))
    rng = np.random.default_rng(10)
    for _ in range(20):
        first, post = measure_and_collapse(bell, 0, rng)
        second, _ = measure_and_collapse(post, 1, rng)
        assert first == second


def test_project_qubit_zero_branch():
    prob, state = project_qubit(basis_state(1), 0, 1)
    assert prob == 0.0 and state is None


def test_measurement_with_conditioned_gate_matches_controlled_version():
    # mid-circuit collapse + classical control vs its unitary deferral
    theta = 1.234
    mid = Circuit(2, [h(0), measure(0, cbit=0), ry(1, theta, condition=(0, 1))])
    deferred = Circuit(2, [h(0), cry(0, 1, theta)])
    target = born_probabilities(apply_circuit(basis_state(2), deferred))

    rng = np.random.default_rng(11)
    shots = 4000
    counts = np.zeros(target.size, dtype=int)
    for _ in range(shots):
        out = apply_circuit(basis_state(2), mid, rng)
        counts += sample_shots(out, 1, rng).counts
    for index, p in enumerate(target):
        band = 4 * math.sqrt(max(p * (1 - p), 1e-12) / shots)
        assert abs(counts[index] / shots - p) <= band


def test_apply_circuit_requires_rng_for_measurement():
    circuit = Circuit(1, [measure(0, cbit=0)])
    with pytest.raises(ValueError):
        apply_circuit(basis_state(1), circuit)


def test_apply_circuit_records_classical_bits():
    circuit = Circuit(2, [h(0), measure(0, cbit=3)])
    recorded = {}
    apply_circuit(basis_state(2), circuit, np.random.default_rng(12), recorded)
    assert recorded[3] in (0, 1)


# --------------------------------------------------------------- expectations

def test_chain_expectation_aligned_product():
    bonds = [(i, i + 1) for i in range(6)]
    assert expectation_pauli_chain(basis_state(7), "z", bonds) == pytest.approx(-6.0, abs=1e-12)


def test_chain_expectation_vanishes_on_plus_product():
    state = apply_circuit(basis_state(7), Circuit(7, [h(q) for q in range(7)]))
    bonds = [(i, i + 1) for i in range(6)]
    assert expectation_pauli_chain(state, "z", bonds) == pytest.approx(0.0, abs=1e-12)


def test_chain_expectation_ghz_ground_state():
    amps = np.zeros(128, dtype=complex)
    amps[0] = amps[-1] = SQRT2_INV
    ghz = StateVector(7, amps)
    bonds = [(i, i + 1) for i in range(6)]
    assert expectation_pauli_chain(ghz, "z", bonds) == pytest.approx(-6.0, abs=1e-12)
    # the X-aligned analog: |+>^7 is a ground state of the XX chain
    plus7 = apply_circuit(basis_state(7), Circuit(7, [h(q) for q in range(7)]))
    assert expectation_pauli_chain(plus7, "x", bonds) == pytest.approx(-6.0, abs=1e-12)


def test_chain_expectation_rejects_bad_input():
    with pytest.raises(ValueError):
        expectation_pauli_chain(basis_state(2), "y", [(0, 1)])
    with pytest.raises(ValueError):
        expectation_pauli_chain(basis_state(2), "z", [(0, 2)])


# ------------------------------------------------------------------- fidelity

def test_fidelity_basics():
    assert fidelity(basis_state(1), basis_state(1)) == pytest.approx(1.0)
    assert fidelity(basis_state(1), basis_state(1, 1)) == pytest.approx(0.0)
    assert fidelity(basis_state(1), plus_state()) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        fidelity(basis_state(1), basis_state(2))


def test_qubit_state_embedding():
    state = qubit_state(3, 1, 0.6, 0.8)
    assert state.amplitudes[0] == pytest.approx(0.6)
    assert state.amplitudes[2] == pytest.approx(0.8)
    assert state.norm() == pytest.approx(1.0)
