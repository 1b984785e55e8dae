"""Sequential, interferometer, and delayed-choice experiments against their
analytic oracles."""

import math

import numpy as np
import pytest

from sgsim.ansatz import ParamSet
from sgsim.experiments import (ExperimentConfig, analytic_distribution,
                               branch_equivalence_summary, decode_collective,
                               decode_table, delayed_branch_distributions,
                               delayed_branch_states, delayed_choice_circuit,
                               parity_of, run_delayed_choice, run_sequential,
                               run_wigner, total_variation_distance)
from sgsim.layout import make_cross_layout
from sgsim.state import (ShotHistogram, apply_circuit, born_probabilities,
                         qubit_state)

SHOTS = 8192
SIGMA_HALF = math.sqrt(0.25 / SHOTS)  # binomial sigma of a fair split


@pytest.fixture(scope="module")
def layout():
    return make_cross_layout(3)


def reference_config(order, seed=17):
    return ExperimentConfig(N=3, order=order, shots=SHOTS, seed=seed)


# ------------------------------------------------------------------- decoding

def test_decode_collective_majority():
    assert decode_collective("000000", "z") == "zero"
    assert decode_collective("110111", "z") == "one"
    assert decode_collective("000111", "z") == "ambiguous"
    assert decode_collective("000000", "x") == "plus"
    assert decode_collective("110111", "x") == "minus"


def test_decode_collective_rejects_garbage():
    with pytest.raises(ValueError):
        decode_collective("", "z")
    with pytest.raises(ValueError):
        decode_collective("01a", "z")
    with pytest.raises(ValueError):
        decode_collective("0101", "y")


def test_parity_of():
    assert parity_of("000000") == "even"
    assert parity_of("100000") == "odd"
    assert parity_of("110100") == "odd"
    assert parity_of("110110") == "even"


def reference_cells(index, layout):
    """(table, key) cells that basis state `index` lands in, decoded from its
    bitstring by decode_collective and parity_of."""
    bits = format(index, "b")[::-1].ljust(layout.n_qubits, "0")  # bits[q] is qubit q
    s = bits[layout.center]
    x_bits = "".join(bits[q] for q in layout.x_probes)
    z = decode_collective("".join(bits[q] for q in layout.z_probes), "z")
    x = decode_collective(x_bits, "x")
    par = parity_of(x_bits)
    return {("qs_marginal", s), ("z_collective", z), ("qs_z_joint", f"{s},{z}"),
            ("x_collective", x), ("qs_x_joint", f"{s},{x}"),
            ("parity", par), ("qs_parity_joint", f"{s},{par}")}


@pytest.mark.parametrize("N", [1, 2])
def test_decode_table_matches_reference_decoders(N):
    layout = make_cross_layout(N)
    size = 1 << (layout.n_qubits + 1)  # an ancilla above the register is ignored
    cells = [reference_cells(index, layout) for index in range(size)]
    # every basis state alone, as a count vector and as a probability vector
    for dtype, kind in ((np.int64, int), (np.float64, float)):
        for index in range(size):
            one_hot = np.zeros(size, dtype=dtype)
            one_hot[index] = 1
            decoded = decode_table(one_hot, layout, x_rotated=True, with_parity=True)
            for name, table in decoded.items():
                for key, value in table.items():
                    assert type(value) is kind
                    assert value == (1 if (name, key) in cells[index] else 0)
    # and whole vectors, summed cell by cell
    rng = np.random.default_rng(N)
    counts = rng.integers(0, 50, size)
    probs = rng.random(size)
    probs /= probs.sum()
    for weights, tol in ((counts, 0), (probs, 1e-15)):
        expected = {}
        for index, weight in enumerate(weights):
            for cell in cells[index]:
                expected[cell] = expected.get(cell, 0) + weight
        decoded = decode_table(weights, layout, x_rotated=True, with_parity=True)
        for name, table in decoded.items():
            for key, value in table.items():
                assert value == pytest.approx(expected.get((name, key), 0), abs=tol)
    # a vector that is too short, not a power of two long, or not flat is refused
    for bad in (np.ones(1 << (layout.n_qubits - 1)), np.ones(size - 1),
                np.ones((2, 1 << layout.n_qubits))):
        with pytest.raises(ValueError, match="power-of-two"):
            decode_table(bad, layout, x_rotated=True, with_parity=True)


# ------------------------------------------------------------------------ tvd

def test_tvd_trivial_cases():
    assert total_variation_distance({"a": 1, "b": 1}, {"a": 1, "b": 1}) == 0.0
    assert total_variation_distance({"00": 5, "11": 0}, {"00": 0, "11": 5}) == 1.0


def test_tvd_accepts_histograms_and_checks_alphabets():
    h1 = ShotHistogram(np.array([3, 0, 0, 1]), shots=4, n_qubits=2)
    h2 = ShotHistogram(np.array([1, 0, 0, 3]), shots=4, n_qubits=2)
    assert total_variation_distance(h1, h2) == pytest.approx(0.5)
    h3 = ShotHistogram(np.array([4, 0, 0, 0, 0, 0, 0, 0]), shots=4, n_qubits=3)
    with pytest.raises(ValueError):
        total_variation_distance(h1, h3)
    with pytest.raises(ValueError):
        total_variation_distance({}, {"a": 1})


# -------------------------------------------------------- sequential: Z first

def test_sequential_z_first_reference(layout):
    config = reference_config("zx")
    report = run_sequential(config, layout)

    assert report.z_collective == {"zero": SHOTS, "one": 0, "ambiguous": 0}
    assert report.x_collective["ambiguous"] == 0
    plus_freq = report.x_collective["plus"] / SHOTS
    assert abs(plus_freq - 0.5) <= 4 * SIGMA_HALF
    qs0 = report.qs_marginal["0"] / SHOTS
    assert abs(qs0 - 0.5) <= 4 * SIGMA_HALF
    assert sum(report.qs_marginal.values()) == SHOTS
    assert sum(report.conditional_tables["qs_z_joint"].values()) == SHOTS

    analytic = decode_table(analytic_distribution(config, layout), layout,
                            x_rotated=True, with_parity=False)
    assert analytic["z_collective"]["zero"] == pytest.approx(1.0, abs=1e-10)
    assert analytic["x_collective"]["plus"] == pytest.approx(0.5, abs=1e-10)


# -------------------------------------------------------- sequential: X first

def test_sequential_x_first_reference(layout):
    config = reference_config("xz")
    report = run_sequential(config, layout)

    qs1 = report.qs_marginal["1"] / SHOTS
    assert abs(qs1 - 0.5) <= 4 * SIGMA_HALF
    zero_freq = report.z_collective["zero"] / SHOTS
    assert abs(zero_freq - 0.5) <= 4 * SIGMA_HALF
    assert report.z_collective["ambiguous"] == 0


def test_measurement_order_changes_joint_distribution(layout):
    config_zx = reference_config("zx")
    config_xz = reference_config("xz")

    joint_zx = decode_table(analytic_distribution(config_zx, layout), layout,
                            x_rotated=True, with_parity=False)["qs_z_joint"]
    joint_xz = decode_table(analytic_distribution(config_xz, layout), layout,
                            x_rotated=True, with_parity=False)["qs_z_joint"]
    assert total_variation_distance(joint_zx, joint_xz) == pytest.approx(0.5, abs=1e-10)

    sampled_zx = run_sequential(config_zx, layout).conditional_tables["qs_z_joint"]
    sampled_xz = run_sequential(config_xz, layout).conditional_tables["qs_z_joint"]
    assert total_variation_distance(sampled_zx, sampled_xz) >= 0.45


# --------------------------------------------------------------- interferometer

def test_wigner_parity_partition_is_exact(layout):
    config = reference_config("xz")
    report = run_wigner(config, layout)

    for index in np.flatnonzero(report.raw.counts):
        x_bits = "".join(str((index >> q) & 1) for q in layout.x_probes)
        qs_bit = str((index >> layout.center) & 1)
        z_bits = "".join(str((index >> q) & 1) for q in layout.z_probes)
        if parity_of(x_bits) == "even":
            assert qs_bit == "0" and decode_collective(z_bits, "z") == "zero"
        else:
            assert qs_bit == "1" and decode_collective(z_bits, "z") == "one"

    even_freq = report.parity["even"] / SHOTS
    assert abs(even_freq - 0.5) <= 4 * SIGMA_HALF
    assert report.conditional_tables["qs_given_parity"]["even"]["0"] == 1.0
    assert report.conditional_tables["qs_given_parity"]["odd"]["1"] == 1.0
    assert report.x_collective is None


def test_wigner_analytic_state_structure(layout):
    # |1> on the system only ever pairs with the all-ones Z register
    config = reference_config("xz")
    analytic = decode_table(analytic_distribution(config, layout, wigner=True),
                            layout, x_rotated=False, with_parity=True)
    assert analytic["qs_z_joint"]["1,zero"] == pytest.approx(0.0, abs=1e-12)
    assert analytic["qs_parity_joint"]["0,odd"] == pytest.approx(0.0, abs=1e-12)
    assert analytic["parity"]["even"] == pytest.approx(0.5, abs=1e-10)


def test_wigner_requires_x_first(layout):
    with pytest.raises(ValueError):
        run_wigner(reference_config("zx"), layout)


def test_variational_wigner_conditioning(calibrated_n3, layout):
    report, _ = calibrated_n3
    config = ExperimentConfig(N=3, order="xz", shots=SHOTS, seed=23,
                              params=report.best_params)
    wigner = run_wigner(config, layout)
    conditional = wigner.conditional_tables["qs_given_parity"]
    assert conditional["even"]["0"] >= 0.95
    assert conditional["odd"]["1"] >= 0.95
    assert wigner.z_collective["ambiguous"] / SHOTS < 0.05


# --------------------------------------------------------------- delayed choice

def test_delayed_extreme_p_reproduces_pure_modes(layout):
    config = reference_config("xz")

    branches = delayed_branch_distributions(config, layout, 1.0, ("midcircuit",))["midcircuit"]
    assert set(branches) == {1}
    weight, table = branches[1]
    assert weight == pytest.approx(1.0, abs=1e-12)
    sequential = analytic_distribution(config, layout)
    assert total_variation_distance(table, sequential) <= 1e-10

    branches = delayed_branch_distributions(config, layout, 0.0, ("midcircuit",))["midcircuit"]
    assert set(branches) == {0}
    weight, table = branches[0]
    assert weight == pytest.approx(1.0, abs=1e-12)
    wigner = analytic_distribution(config, layout, wigner=True)
    assert total_variation_distance(table, wigner) <= 1e-10


def test_delayed_midcircuit_matches_deferred(layout):
    config = reference_config("xz")
    summary = branch_equivalence_summary(config, layout, 0.5)
    assert summary["max_branch_tvd"] <= 1e-10
    assert summary["max_weight_difference"] <= 1e-10
    for branch in summary["branches"].values():
        assert branch["weight_midcircuit"] == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("params", [None, ParamSet(2, (0.3, 1.1), (0.7, 2.0))])
def test_deferred_branch_mixture_is_the_deferred_distribution(params):
    # the identity that lets run_delayed_choice sample the deferred program
    # from its ancilla branches instead of simulating it a second time
    layout = make_cross_layout(2)
    config = ExperimentConfig(N=2, order="xz", a=0.6, b=0.8, params=params)
    branches = delayed_branch_states(config, layout, "deferred", 0.3)
    mixture = sum(weight * np.abs(state.amplitudes) ** 2
                  for weight, state in branches.values())
    circuit, _ = delayed_choice_circuit(config, layout, "deferred", 0.3)
    initial = qubit_state(circuit.n_qubits, layout.center, 0.6, 0.8)
    exact = born_probabilities(apply_circuit(initial, circuit))
    assert np.max(np.abs(mixture - exact)) <= 1e-12


@pytest.mark.parametrize("params", [None, ParamSet(2, (0.3, 1.1), (0.7, 2.0))])
def test_shared_prefix_matches_per_mode_simulation(params):
    # one prefix simulation serves both modes; each keeps its own readout
    layout = make_cross_layout(2)
    config = ExperimentConfig(N=2, order="xz", a=0.6, b=0.8, params=params)
    shared = delayed_branch_distributions(config, layout, 0.3)
    register = list(range(layout.n_qubits - 1, -1, -1))
    for mode in ("midcircuit", "deferred"):
        alone = delayed_branch_states(config, layout, mode, 0.3)
        assert set(shared[mode]) == set(alone) == {0, 1}
        for outcome, (weight, state) in alone.items():
            shared_weight, shared_vector = shared[mode][outcome]
            assert shared_weight == weight
            assert np.array_equal(shared_vector, born_probabilities(state, register))
        report = run_delayed_choice(config, layout, mode=mode, p_choice=0.3,
                                    branches=shared)
        assert report.to_dict() == run_delayed_choice(config, layout, mode=mode,
                                                      p_choice=0.3).to_dict()


def test_delayed_sampled_branches(layout):
    config = reference_config("xz", seed=29)
    for mode in ("midcircuit", "deferred"):
        report = run_delayed_choice(config, layout, mode=mode, p_choice=0.5)
        by_ancilla = report.conditional_tables["by_ancilla"]
        assert by_ancilla["0"]["shots"] + by_ancilla["1"]["shots"] == SHOTS
        assert report.raw.counts.sum() == SHOTS
        # branch 1 behaves like the which-way run
        qs1 = by_ancilla["1"]["qs_marginal"]
        assert abs(qs1["1"] / by_ancilla["1"]["shots"] - 0.5) <= 5 * math.sqrt(0.25 / by_ancilla["1"]["shots"])
        # branch 0 keeps the exact parity conditioning
        conditional = by_ancilla["0"]["qs_given_parity"]
        assert conditional["even"]["0"] == 1.0
        assert conditional["odd"]["1"] == 1.0


def test_delayed_input_validation(layout):
    config = reference_config("xz")
    with pytest.raises(ValueError):
        run_delayed_choice(config, layout, p_choice=1.5)
    with pytest.raises(ValueError):
        run_delayed_choice(config, layout, mode="sometimes")
    # every delayed entry point runs the X device first and refuses 'zx'
    zx = reference_config("zx")
    for call in (lambda: run_delayed_choice(zx, layout),
                 lambda: delayed_choice_circuit(zx, layout, "deferred", 0.5),
                 lambda: delayed_branch_states(zx, layout, "midcircuit", 0.5),
                 lambda: delayed_branch_distributions(zx, layout, 0.5),
                 lambda: branch_equivalence_summary(zx, layout, 0.5)):
        with pytest.raises(ValueError, match="order='xz'"):
            call()


# ------------------------------------------------------------- config contract

def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(N=3, order="xy")
    with pytest.raises(ValueError):
        ExperimentConfig(N=3, shots=0)
    with pytest.raises(ValueError):
        ExperimentConfig(N=3, a=1.0, b=1.0)
    with pytest.raises(ValueError):
        ExperimentConfig(N=3, a=math.nan)
    with pytest.raises(ValueError):
        ExperimentConfig(N=3, a=1.0, b=complex(0.0, math.nan))
    with pytest.raises(ValueError):
        ExperimentConfig(N=0)
    with pytest.raises(ValueError, match="seed"):
        ExperimentConfig(N=3, seed=-1)
    from sgsim.ansatz import ParamSet
    with pytest.raises(ValueError):
        ExperimentConfig(N=3, params=ParamSet(2, (0.1, 0.2), (0.3, 0.4)))
    assert ExperimentConfig(N=3).source == "reference_cat"


def test_reports_serialize(layout):
    config = reference_config("zx", seed=31)
    report = run_sequential(config, layout)
    import json
    doc = json.loads(report.to_json())
    assert doc["metadata"]["source"] == "reference_cat"
    assert doc["raw"]["shots"] == SHOTS
    assert sum(doc["raw"]["counts"].values()) == SHOTS
