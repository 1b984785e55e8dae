"""Device builders: structure, identities, reference cats, serialization."""

import math

import numpy as np
import pytest

from sgsim.ansatz import (ParamSet, attach_readout_rotations,
                          build_reference_cat, build_sg_x, build_sg_z)
from sgsim.circuit import Circuit, Gate, h
from sgsim.state import (apply_circuit, basis_state, dense_unitary_oracle,
                         expectation_pauli_chain, fidelity, qubit_state,
                         StateVector)

SQRT2_INV = 1.0 / math.sqrt(2.0)


def kron_chain(single_vectors):
    # qubit 0 is the least-significant index bit, i.e. the rightmost factor
    out = np.array([1.0 + 0j])
    for vec in reversed(single_vectors):
        out = np.kron(out, np.asarray(vec, dtype=complex))
    return out


PLUS = np.array([SQRT2_INV, SQRT2_INV])
MINUS = np.array([SQRT2_INV, -SQRT2_INV])
ZERO = np.array([1.0, 0.0])
ONE = np.array([0.0, 1.0])


def random_params(rng, N, m):
    return ParamSet(N, tuple(rng.uniform(0, math.pi, m)), tuple(rng.uniform(0, math.pi, m)))


# ------------------------------------------------------------------ structure

def test_gate_counts():
    params = ParamSet(3, (0.1, 0.2, 0.3), (0.4, 0.5, 0.6))
    chain = range(7)
    assert len(build_sg_z(params, chain).ops) == 42
    assert len(build_sg_x(params, chain).ops) == 36
    kinds_z = [op.gate for op in build_sg_z(params, chain).ops]
    assert kinds_z[:6] == [Gate.H] * 6
    assert kinds_z[6:12] == [Gate.ZZ] * 6 and kinds_z[12:18] == [Gate.RX] * 6


def test_system_qubit_gets_no_single_qubit_rotations():
    params = ParamSet(2, (0.3, 0.7), (0.2, 0.9))
    chain = list(range(5))
    for circuit in (build_sg_z(params, chain), build_sg_x(params, chain)):
        for op in circuit.ops:
            if op.gate in (Gate.H, Gate.RX, Gate.RZ):
                assert op.targets != (2,)


def test_zero_parameters_leave_prepared_state():
    params = ParamSet(3, (0.0,) * 3, (0.0,) * 3)
    out = apply_circuit(basis_state(7), build_sg_z(params, range(7)))
    expected = kron_chain([PLUS] * 3 + [ZERO] + [PLUS] * 3)
    np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)

    out_x = apply_circuit(basis_state(7), build_sg_x(params, range(7)))
    np.testing.assert_allclose(out_x.amplitudes, basis_state(7).amplitudes, atol=0)


def test_chain_length_mismatch_is_rejected():
    params = ParamSet(2, (0.1, 0.2), (0.3, 0.4))
    with pytest.raises(ValueError):
        build_sg_z(params, range(7))


# ----------------------------------------------------------------- identities

def test_basis_conjugation_maps_z_layers_onto_x_circuit():
    params = random_params(np.random.default_rng(0), 1, 2)
    chain = [0, 1, 2]
    layers_z = Circuit(3, build_sg_z(params, chain).ops[2:])  # drop the probe Hadamards
    u_z = dense_unitary_oracle(layers_z)
    u_x = dense_unitary_oracle(Circuit(3, build_sg_x(params, chain).ops))
    h_all = dense_unitary_oracle(Circuit(3, [h(q) for q in chain]))
    np.testing.assert_allclose(h_all @ u_z @ h_all, u_x, atol=1e-12)


def test_output_is_linear_in_input_amplitudes():
    params = random_params(np.random.default_rng(1), 2, 2)
    chain = list(range(5))
    circuit = build_sg_z(params, chain)
    a, b = 0.6 + 0.3j, complex(math.sqrt(1 - abs(0.6 + 0.3j) ** 2))
    out_10 = apply_circuit(qubit_state(5, 2, 1, 0), circuit).amplitudes
    out_01 = apply_circuit(qubit_state(5, 2, 0, 1), circuit).amplitudes
    out_ab = apply_circuit(qubit_state(5, 2, a, b), circuit).amplitudes
    np.testing.assert_allclose(out_ab, a * out_10 + b * out_01, atol=1e-14)


def test_hadamard_conjugation_relates_the_two_devices():
    # applying H to every qubit of the X-device output reproduces the
    # Z-device output for the Hadamard-rotated input amplitudes
    rng = np.random.default_rng(2)
    params = random_params(rng, 2, 2)
    chain = list(range(5))
    a = complex(rng.normal(), rng.normal())
    b = complex(rng.normal(), rng.normal())
    norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    a, b = a / norm, b / norm

    psi_x = apply_circuit(qubit_state(5, 2, a, b), build_sg_x(params, chain))
    h_all = Circuit(5, [h(q) for q in chain])
    conjugated = apply_circuit(psi_x, h_all)
    psi_z = apply_circuit(qubit_state(5, 2, (a + b) * SQRT2_INV, (a - b) * SQRT2_INV),
                          build_sg_z(params, chain))
    np.testing.assert_allclose(conjugated.amplitudes, psi_z.amplitudes, atol=1e-10)


# ------------------------------------------------------------ readout attach

def test_attach_readout_rotations_converts_plus_register():
    circuit = Circuit(3, [h(0), h(1), h(2)])
    attached = attach_readout_rotations(circuit, [0, 1, 2])
    out = apply_circuit(basis_state(3), attached)
    np.testing.assert_allclose(np.abs(out.amplitudes[0]), 1.0, atol=1e-12)


def test_attach_twice_is_refused():
    attached = attach_readout_rotations(Circuit(2), [0, 1])
    assert attached.readout_attached
    with pytest.raises(ValueError):
        attach_readout_rotations(attached, [0, 1])


def test_attach_leaves_original_untouched():
    circuit = Circuit(2)
    attach_readout_rotations(circuit, [0])
    assert circuit.ops == [] and not circuit.readout_attached


# -------------------------------------------------------------- reference cats

def test_z_reference_cat_exact_outputs():
    chain = list(range(7))
    cat = build_reference_cat("z", chain)
    out = apply_circuit(basis_state(7), cat)
    np.testing.assert_allclose(out.amplitudes, basis_state(7).amplitudes, atol=0)

    ghz = apply_circuit(qubit_state(7, 3, SQRT2_INV, SQRT2_INV), cat)
    expected = np.zeros(128, dtype=complex)
    expected[0] = expected[-1] = SQRT2_INV
    np.testing.assert_allclose(ghz.amplitudes, expected, atol=1e-15)
    bonds = [(i, i + 1) for i in range(6)]
    assert expectation_pauli_chain(ghz, "z", bonds) == pytest.approx(-6.0, abs=1e-12)


def test_x_reference_cat_builds_conjugate_cat():
    chain = list(range(7))
    out = apply_circuit(basis_state(7), build_reference_cat("x", chain))
    target = (kron_chain([PLUS] * 7) + kron_chain([MINUS] * 7)) * SQRT2_INV
    assert fidelity(out, StateVector(7, target)) == pytest.approx(1.0, abs=1e-12)


def test_reference_cat_input_validation():
    with pytest.raises(ValueError):
        build_reference_cat("y", range(3))
    with pytest.raises(ValueError):
        build_reference_cat("z", range(4))


# -------------------------------------------------------------- serialization

def test_paramset_json_round_trip_is_bit_exact():
    rng = np.random.default_rng(3)
    params = ParamSet(3, tuple(rng.uniform(0, math.pi, 3)), tuple(rng.uniform(0, math.pi, 3)))
    restored = ParamSet.from_json(params.to_json())
    assert restored.gamma == params.gamma
    assert restored.beta == params.beta
    assert restored.N == params.N and restored.m == params.m


def test_paramset_validation():
    with pytest.raises(ValueError):
        ParamSet(1, (0.1, 0.2), (0.3,))
    with pytest.raises(ValueError):
        ParamSet(0, (0.1,), (0.2,))
    with pytest.raises(ValueError):
        ParamSet.from_json('{"N": 1, "m": 2, "gamma": [0.1], "beta": [0.2]}')
    with pytest.raises(ValueError):
        ParamSet(1, (math.nan,), (0.2,))
    with pytest.raises(ValueError):
        ParamSet.from_json('{"N": 1, "m": 1, "gamma": [0.1], "beta": [Infinity]}')
