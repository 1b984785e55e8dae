"""Sequential measurement experiments on the cross layout: both device
orders, the parity-decoded interferometer, and the delayed-choice variant."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ansatz import (READOUT_ANGLE, ParamSet, attach_readout_rotations,
                     build_reference_cat, build_sg_x, build_sg_z)
from .circuit import Circuit, cry, measure, ry
from .layout import CrossLayout
from .state import (ShotHistogram, StateVector, apply_circuit,
                    born_probabilities, histogram_from_samples, project_qubit,
                    qubit_state, sample_shots)

ORDERS = ("zx", "xz")
Z_LABELS = ("zero", "one", "ambiguous")
X_LABELS = ("plus", "minus", "ambiguous")
PARITY_LABELS = ("even", "odd")


def decode_collective(bits: str, basis: str) -> str:
    """Majority vote over a probe bitstring; an exact tie is 'ambiguous'.

    Basis 'z' votes zero/one. Basis 'x' votes plus/minus and assumes the
    readout rotations were applied, so bit 0 stands for |+>.
    """
    if not bits or set(bits) - {"0", "1"}:
        raise ValueError(f"not a probe bitstring: {bits!r}")
    labels = Z_LABELS if basis == "z" else X_LABELS if basis == "x" else None
    if labels is None:
        raise ValueError("basis must be 'z' or 'x'")
    ones = bits.count("1")
    if 2 * ones == len(bits):
        return labels[2]
    return labels[1] if 2 * ones > len(bits) else labels[0]


def parity_of(bits: str) -> str:
    """'even' iff the bitstring contains an even number of 1s."""
    return PARITY_LABELS[bits.count("1") % 2]


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment instance: device order, register size, sampling budget,
    input amplitudes of the system qubit, and the circuit source (a calibrated
    ParamSet, or None for the exact reference-cat circuits)."""

    N: int
    order: str = "zx"
    shots: int = 8192
    seed: int = 0
    a: complex = 1.0
    b: complex = 0.0
    params: ParamSet | None = None

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if self.order not in ORDERS:
            raise ValueError(f"order must be one of {ORDERS}")
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not abs(abs(self.a) ** 2 + abs(self.b) ** 2 - 1.0) <= 1e-12:  # NaN fails too
            raise ValueError("input amplitudes must satisfy |a|^2+|b|^2 = 1")
        if self.params is not None and self.params.N != self.N:
            raise ValueError(f"params built for N={self.params.N}, config has N={self.N}")

    @property
    def source(self) -> str:
        return "reference_cat" if self.params is None else "variational"


def _device_ops(basis: str, config: ExperimentConfig, layout: CrossLayout) -> list:
    chain = layout.vertical_arm if basis == "z" else layout.horizontal_arm
    if config.params is None:
        return build_reference_cat(basis, chain).ops
    builder = build_sg_z if basis == "z" else build_sg_x
    return builder(config.params, chain).ops


def build_experiment_circuit(config: ExperimentConfig, layout: CrossLayout,
                             *, readout: bool = True) -> Circuit:
    """Compose the two devices in configured order on the full register,
    optionally followed by the X-arm readout rotations."""
    if layout.arm_half != config.N:
        raise ValueError("layout and config disagree on N")
    circuit = Circuit(layout.n_qubits, roles=layout.role_map())
    first, second = ("z", "x") if config.order == "zx" else ("x", "z")
    circuit.extend(_device_ops(first, config, layout))
    circuit.extend(_device_ops(second, config, layout))
    if readout:
        circuit = attach_readout_rotations(circuit, layout.x_probes)
    return circuit


def experiment_state(config: ExperimentConfig, layout: CrossLayout,
                     *, wigner: bool = False) -> StateVector:
    """Final pre-measurement state of the (unitary) sequential circuit."""
    circuit = build_experiment_circuit(config, layout, readout=not wigner)
    return apply_circuit(qubit_state(layout.n_qubits, layout.center, config.a, config.b),
                         circuit)


def analytic_distribution(config: ExperimentConfig, layout: CrossLayout,
                          *, wigner: bool = False) -> np.ndarray:
    """Exact full-register Born vector; the oracle the sampled runs are
    checked against."""
    return born_probabilities(experiment_state(config, layout, wigner=wigner))


def decode_table(table: np.ndarray, layout: CrossLayout, *, x_rotated: bool,
                 with_parity: bool) -> dict:
    """Decode a count or probability vector indexed by basis state.

    The length must be a power of two covering the physical register;
    qubits above it (the delayed-choice ancilla) are ignored. Returns the
    system-qubit marginal, collective votes, optional parity classification,
    and the joint tables used for order-comparison and parity conditioning,
    every one with its full alphabet. Integer vectors give int cells, float
    vectors float cells.
    """
    table = np.asarray(table)
    if table.ndim != 1 or table.size < 1 << layout.n_qubits or table.size & (table.size - 1):
        raise ValueError(f"a {layout.n_qubits}-qubit register needs a power-of-two "
                         f"vector of length >= 2^{layout.n_qubits}, got shape {table.shape}")
    idx = np.arange(table.size)
    system = (idx >> layout.center) & 1

    def ones(probes):
        return np.bitwise_count(idx & sum(1 << q for q in probes)).astype(np.intp)

    def majority(probes):  # label position, as decode_collective votes
        twice = 2 * ones(probes)
        return np.where(twice == len(probes), 2, twice > len(probes))

    def joint(labels, label):
        sums = np.bincount(system * len(labels) + label, weights=table,
                           minlength=2 * len(labels))
        if np.issubdtype(table.dtype, np.integer):
            sums = sums.astype(np.int64)  # float sums of counts are exact below 2^53
        return dict(zip([f"{s},{name}" for s in "01" for name in labels], sums.tolist()))

    def column(cells, labels):
        return {name: cells[f"0,{name}"] + cells[f"1,{name}"] for name in labels}

    qs_z = joint(Z_LABELS, majority(layout.z_probes))
    qs_x = joint(X_LABELS, majority(layout.x_probes)) if x_rotated else None
    qs_par = joint(PARITY_LABELS, ones(layout.x_probes) & 1) if with_parity else None
    return {"qs_marginal": {s: sum(qs_z[f"{s},{name}"] for name in Z_LABELS) for s in "01"},
            "z_collective": column(qs_z, Z_LABELS), "qs_z_joint": qs_z,
            "x_collective": column(qs_x, X_LABELS) if x_rotated else None,
            "qs_x_joint": qs_x,
            "parity": column(qs_par, PARITY_LABELS) if with_parity else None,
            "qs_parity_joint": qs_par}


@dataclass
class ExperimentReport:
    """Sampled histogram plus decoded statistics for one experiment run."""

    raw: ShotHistogram
    qs_marginal: dict[str, int]
    z_collective: dict[str, int]
    x_collective: dict[str, int] | None
    parity: dict[str, int] | None
    conditional_tables: dict
    metadata: dict

    def to_dict(self) -> dict:
        return {
            "raw": self.raw.to_dict(),
            "qs_marginal": self.qs_marginal,
            "z_collective": self.z_collective,
            "x_collective": self.x_collective,
            "parity": self.parity,
            "conditional_tables": self.conditional_tables,
            "metadata": self.metadata,
        }

    def to_json(self, path: str | Path | None = None) -> str:
        text = json.dumps(self.to_dict(), indent=2, sort_keys=True)
        if path is not None:
            Path(path).write_text(text + "\n")
        return text


def params_digest(params: ParamSet | None) -> str | None:
    if params is None:
        return None
    return hashlib.sha256(params.to_json().encode()).hexdigest()


def _metadata(config: ExperimentConfig, mode: str, **extra) -> dict:
    meta = {
        "mode": mode,
        "order": config.order,
        "n_probes_half": config.N,
        "layers": None if config.params is None else config.params.m,
        "shots": config.shots,
        "seed": config.seed,
        "input": {"a": [config.a.real, config.a.imag],
                  "b": [config.b.real, config.b.imag]},
        "source": config.source,
        "params_sha256": params_digest(config.params),
    }
    meta.update(extra)
    return meta


def _conditional_from_joint(joint: dict, outer_labels) -> dict:
    """P(system bit | outer label) as frequencies, skipping empty bins."""
    out = {}
    for label in outer_labels:
        total = joint[f"0,{label}"] + joint[f"1,{label}"]
        if total > 0:
            out[label] = {"0": joint[f"0,{label}"] / total,
                          "1": joint[f"1,{label}"] / total}
    return out


def _decoded(counts: np.ndarray, layout: CrossLayout, *, x_rotated: bool,
             with_parity: bool) -> dict:
    """The tables decode_table fills for these flags, plus P(system bit |
    parity) when parity is decoded."""
    decoded = decode_table(counts, layout, x_rotated=x_rotated, with_parity=with_parity)
    decoded = {name: table for name, table in decoded.items() if table is not None}
    if with_parity:
        decoded["qs_given_parity"] = _conditional_from_joint(decoded["qs_parity_joint"],
                                                             PARITY_LABELS)
    return decoded


def _report(hist: ShotHistogram, layout: CrossLayout, metadata: dict, *,
            x_rotated: bool, with_parity: bool, **tables) -> ExperimentReport:
    """Decode `hist` into a report; the joint tables and any extra `tables`
    go under conditional_tables."""
    decoded = _decoded(hist.counts, layout, x_rotated=x_rotated, with_parity=with_parity)
    return ExperimentReport(
        raw=hist,
        qs_marginal=decoded.pop("qs_marginal"),
        z_collective=decoded.pop("z_collective"),
        x_collective=decoded.pop("x_collective", None),
        parity=decoded.pop("parity", None),
        conditional_tables={**decoded, **tables},
        metadata=metadata,
    )


def run_sequential(config: ExperimentConfig, layout: CrossLayout) -> ExperimentReport:
    """Both devices in configured order, X-arm readout rotations attached,
    all qubits measured."""
    hist = sample_shots(experiment_state(config, layout), config.shots,
                        np.random.default_rng(config.seed))
    return _report(hist, layout, _metadata(config, "sequential"),
                   x_rotated=True, with_parity=False)


def run_wigner(config: ExperimentConfig, layout: CrossLayout) -> ExperimentReport:
    """Interferometer mode: X device first, Z device second, readout rotations
    omitted so the X-arm parity selects the coherent branch."""
    if config.order != "xz":
        raise ValueError("the interferometer runs the X device first; use order='xz'")
    hist = sample_shots(experiment_state(config, layout, wigner=True), config.shots,
                        np.random.default_rng(config.seed))
    return _report(hist, layout, _metadata(config, "wigner"),
                   x_rotated=False, with_parity=True)


DELAYED_MODES = ("midcircuit", "deferred")


def _check_delayed(config: ExperimentConfig, modes, p_choice: float) -> None:
    if config.order != "xz":
        raise ValueError("the delayed-choice experiment runs the X device first; "
                         "use order='xz'")
    if any(mode not in DELAYED_MODES for mode in modes):
        raise ValueError("mode must be 'midcircuit' or 'deferred'")
    if not 0.0 <= p_choice <= 1.0:
        raise ValueError("p_choice must lie in [0, 1]")


def _delayed_prefix(config: ExperimentConfig, layout: CrossLayout,
                    p_choice: float) -> tuple[Circuit, int]:
    """Ancilla preparation plus both devices in the config's (checked 'xz')
    order; readout handling is appended by the caller per mode."""
    ancilla = layout.n_qubits
    circuit = Circuit(ancilla + 1, roles=layout.role_map(ancilla=ancilla))
    circuit.append(ry(ancilla, 2.0 * math.asin(math.sqrt(p_choice))))
    circuit.extend(build_experiment_circuit(config, layout, readout=False).ops)
    return circuit, ancilla


def delayed_choice_circuit(config: ExperimentConfig, layout: CrossLayout,
                           mode: str, p_choice: float) -> tuple[Circuit, int]:
    """Full delayed-choice program. midcircuit: collapse the ancilla after the
    second device and classically condition the readout rotations on it.
    deferred: controlled rotations from the ancilla, measured terminally."""
    _check_delayed(config, (mode,), p_choice)
    circuit, ancilla = _delayed_prefix(config, layout, p_choice)
    if mode == "deferred":
        circuit.extend(cry(ancilla, q, READOUT_ANGLE) for q in layout.x_probes)
    else:
        circuit.append(measure(ancilla, cbit=0))
        circuit.extend(ry(q, READOUT_ANGLE, condition=(0, 1)) for q in layout.x_probes)
    return circuit, ancilla


_BRANCH_WEIGHT_FLOOR = 1e-15  # drops rounding dust from cos(pi/2) etc.


def _prefix_state(config: ExperimentConfig, layout: CrossLayout,
                  p_choice: float) -> StateVector:
    prefix, _ = _delayed_prefix(config, layout, p_choice)
    return apply_circuit(qubit_state(prefix.n_qubits, layout.center, config.a, config.b),
                         prefix)


def _readout_branches(psi: StateVector, layout: CrossLayout, mode: str):
    """Yield (outcome, weight, state) for each ancilla branch of `mode`'s
    readout applied to the prefix state `psi`, one branch at a time.
    deferred: controlled rotations on the whole state, then projection;
    midcircuit: projection, then the rotations on branch 1 alone."""
    ancilla = layout.n_qubits
    if mode == "deferred":
        psi = apply_circuit(psi, Circuit(psi.n_qubits, [cry(ancilla, q, READOUT_ANGLE)
                                                        for q in layout.x_probes]))
    for outcome in (0, 1):
        weight, state = project_qubit(psi, ancilla, outcome)
        if state is None or weight <= _BRANCH_WEIGHT_FLOOR:
            continue
        if mode == "midcircuit" and outcome == 1:
            state = apply_circuit(state, Circuit(state.n_qubits, [ry(q, READOUT_ANGLE)
                                                                  for q in layout.x_probes]))
        yield outcome, weight, state


def delayed_branch_states(config: ExperimentConfig, layout: CrossLayout,
                          mode: str, p_choice: float) -> dict[int, tuple[float, StateVector]]:
    """Ancilla-resolved final states of one mode: {outcome: (weight, state)}.
    Branches of negligible weight are omitted. The ancilla qubit inside each
    state is collapsed to its outcome."""
    _check_delayed(config, (mode,), p_choice)
    psi = _prefix_state(config, layout, p_choice)
    return {outcome: (weight, state)
            for outcome, weight, state in _readout_branches(psi, layout, mode)}


def delayed_branch_distributions(config: ExperimentConfig, layout: CrossLayout,
                                 p_choice: float, modes=DELAYED_MODES
                                 ) -> dict[str, dict[int, tuple[float, np.ndarray]]]:
    """Analytic Born vectors over the physical register, one per ancilla
    branch of each mode: {mode: {outcome: (weight, vector)}}. One prefix
    simulation serves every mode; each mode applies its own readout to it.
    Only the vectors are kept, never the branch states."""
    _check_delayed(config, modes, p_choice)
    psi = _prefix_state(config, layout, p_choice)
    register = list(range(layout.n_qubits - 1, -1, -1))
    return {mode: {outcome: (weight, born_probabilities(state, register))
                   for outcome, weight, state in _readout_branches(psi, layout, mode)}
            for mode in modes}


def branch_equivalence_summary(config: ExperimentConfig, layout: CrossLayout,
                               p_choice: float, branches: dict | None = None) -> dict:
    """Compare the two delayed-choice formulations branch by branch.
    `branches`, if given, is delayed_branch_distributions for both modes."""
    if branches is None:
        branches = delayed_branch_distributions(config, layout, p_choice)
    mid, deferred = branches["midcircuit"], branches["deferred"]
    summary = {}
    max_tvd = 0.0
    max_weight_diff = 0.0
    for outcome in sorted(set(mid) | set(deferred)):
        w_mid, t_mid = mid.get(outcome, (0.0, None))
        w_def, t_def = deferred.get(outcome, (0.0, None))
        both = t_mid is not None and t_def is not None
        tvd = total_variation_distance(t_mid, t_def) if both else 1.0
        summary[str(outcome)] = {"weight_midcircuit": w_mid,
                                 "weight_deferred": w_def, "tvd": tvd}
        max_tvd = max(max_tvd, tvd)
        max_weight_diff = max(max_weight_diff, abs(w_mid - w_def))
    return {"branches": summary, "max_branch_tvd": max_tvd,
            "max_weight_difference": max_weight_diff}


def run_delayed_choice(config: ExperimentConfig, layout: CrossLayout,
                       mode: str = "midcircuit", p_choice: float = 0.5,
                       branches: dict | None = None) -> ExperimentReport:
    """Delayed-choice run: an ancilla decides (with probability p_choice)
    whether the X-arm readout rotations fire. Branch 1 reproduces the
    which-way statistics, branch 0 the interferometer statistics.
    `branches`, if given, is delayed_branch_distributions for at least
    this mode."""
    _check_delayed(config, (mode,), p_choice)
    if branches is None:
        branches = delayed_branch_distributions(config, layout, p_choice, (mode,))
    # The ancilla-resolved branches are orthogonal, so their weighted mixture
    # is the exact shot distribution of either formulation. The ancilla is
    # the highest qubit, so each branch fills one half of the index range.
    ancilla = layout.n_qubits
    n_total = ancilla + 1
    mixture = np.zeros((2, 1 << ancilla))
    for outcome, (weight, vector) in branches[mode].items():
        mixture[outcome] = weight * vector
    mixture = mixture.reshape(-1)
    mixture /= mixture.sum()
    rng = np.random.default_rng(config.seed)
    draws = rng.choice(1 << n_total, size=config.shots, p=mixture)
    hist = histogram_from_samples(draws, config.shots, n_total)
    # branch 1 had its readout rotations, branch 0 keeps the parity
    by_ancilla = {str(outcome): {"shots": int(counts.sum()),
                                 **_decoded(counts, layout, x_rotated=outcome == 1,
                                            with_parity=outcome == 0)}
                  for outcome, counts in enumerate(hist.counts.reshape(2, -1))}
    return _report(hist, layout, _metadata(config, f"delayed_{mode}", p_choice=p_choice,
                                           ancilla=ancilla),
                   x_rotated=False, with_parity=False, by_ancilla=by_ancilla)


def total_variation_distance(table_a, table_b) -> float:
    """Half the L1 distance between two distributions, each a probability or
    count vector indexed by basis state, a ShotHistogram, or a small
    label-keyed dict such as qs_z_joint. Vectors must have one length; dicts
    are aligned on the sorted union of their keys, a missing key counting
    as zero."""
    a, b = (t.counts if isinstance(t, ShotHistogram) else t for t in (table_a, table_b))
    if isinstance(a, dict):
        keys = sorted(set(a) | set(b))
        a, b = [a.get(k, 0) for k in keys], [b.get(k, 0) for k in keys]
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"distributions have different lengths {a.shape} and {b.shape}")
    total_a, total_b = a.sum(), b.sum()
    if total_a <= 0.0 or total_b <= 0.0:
        raise ValueError("cannot normalize an empty table")
    return float(0.5 * np.abs(a / total_a - b / total_b).sum())
