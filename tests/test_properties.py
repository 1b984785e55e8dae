"""Property tests: bit-exact JSON round trips of parameters and circuits, and
the invariants of collective decoding. Registers stay at N <= 2 (9 qubits)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from sgsim.ansatz import ParamSet
from sgsim.circuit import PARAMETRIC_GATES, QUBIT_ROLES, TWO_QUBIT_GATES, Circuit, Gate, GateOp
from sgsim.experiments import decode_table
from sgsim.layout import make_cross_layout

angles = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def param_sets(draw):
    m = draw(st.integers(1, 4))
    return ParamSet(draw(st.integers(1, 5)),
                    tuple(draw(st.lists(angles, min_size=m, max_size=m))),
                    tuple(draw(st.lists(angles, min_size=m, max_size=m))))


@st.composite
def circuits(draw):
    """Any gate kind, measurements that record classical bits, gates
    conditioned on a recorded bit, role tags and the readout flag."""
    n = draw(st.integers(2, 6))
    ops, recorded = [], []
    for gate in draw(st.lists(st.sampled_from(list(Gate)), max_size=16)):
        arity = 2 if gate in TWO_QUBIT_GATES else 1
        targets = tuple(draw(st.lists(st.integers(0, n - 1), min_size=arity,
                                      max_size=arity, unique=True)))
        if gate is Gate.MEASURE:
            cbit = draw(st.none() | st.integers(0, 3))
            if cbit is not None:
                recorded.append(cbit)
            ops.append(GateOp(gate, targets, cbit=cbit))
            continue
        param = draw(angles) if gate in PARAMETRIC_GATES else None
        condition = None
        if recorded and draw(st.booleans()):
            condition = (draw(st.sampled_from(recorded)), draw(st.integers(0, 1)))
        ops.append(GateOp(gate, targets, param, condition=condition))
    roles = draw(st.dictionaries(st.integers(0, n - 1), st.sampled_from(QUBIT_ROLES)))
    return Circuit(n, ops, roles, draw(st.booleans()))


@settings(max_examples=100, deadline=None)
@given(param_sets())
def test_param_set_json_round_trip_is_bit_exact(params):
    back = ParamSet.from_json(params.to_json())
    assert back == params
    assert [a.hex() for a in back.gamma + back.beta] == \
        [a.hex() for a in params.gamma + params.beta]
    assert back.to_json() == params.to_json()


@settings(max_examples=100, deadline=None)
@given(circuits())
def test_circuit_json_round_trip_is_bit_exact(circuit):
    circuit.validate()
    back = Circuit.from_json(circuit.to_json())
    assert back == circuit
    assert [op.param.hex() for op in back.ops if op.param is not None] == \
        [op.param.hex() for op in circuit.ops if op.param is not None]
    assert back.to_json() == circuit.to_json()


def sampled_counts(N, shots, seed, ancilla):
    size = 1 << (4 * N + 1 + ancilla)
    draws = np.random.default_rng(seed).integers(0, size, shots)
    return np.bincount(draws, minlength=size)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2), st.integers(1, 5000), st.integers(0, 2**32 - 1), st.booleans())
def test_decode_table_conserves_counts(N, shots, seed, ancilla):
    layout = make_cross_layout(N)
    decoded = decode_table(sampled_counts(N, shots, seed, ancilla), layout,
                           x_rotated=True, with_parity=True)
    for name, table in decoded.items():
        assert sum(table.values()) == shots, name
        assert all(type(v) is int and v >= 0 for v in table.values()), name


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2), st.integers(1, 5000), st.integers(0, 2**32 - 1))
def test_flipping_every_probe_bit_swaps_the_votes(N, shots, seed):
    layout = make_cross_layout(N)
    counts = sampled_counts(N, shots, seed, 0)
    probes = sum(1 << q for q in layout.z_probes + layout.x_probes)
    flipped = np.empty_like(counts)
    flipped[np.arange(counts.size) ^ probes] = counts
    before = decode_table(counts, layout, x_rotated=True, with_parity=True)
    after = decode_table(flipped, layout, x_rotated=True, with_parity=True)
    swap = {"zero": "one", "one": "zero", "plus": "minus", "minus": "plus",
            "ambiguous": "ambiguous"}
    for name in ("z_collective", "x_collective"):
        assert after[name] == {swap[k]: v for k, v in before[name].items()}
    for name in ("qs_z_joint", "qs_x_joint"):
        swapped = {}
        for key, v in before[name].items():
            system, label = key.split(",")
            swapped[f"{system},{swap[label]}"] = v
        assert after[name] == swapped
    # the system qubit is not a probe, and the X arm has an even number (2N)
    # of probes, so the marginal and the parity tables are unchanged
    assert after["qs_marginal"] == before["qs_marginal"]
    assert after["qs_parity_joint"] == before["qs_parity_joint"]
