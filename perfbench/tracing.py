"""Span tracing of sgsim, applied from outside the package.

`Tracer.install` replaces the spanned public functions of each sgsim module
(plus `Circuit.validate` and the SciPy optimizer call that runs one
calibration restart) with timing wrappers, in every sgsim namespace that binds
them: `apply_circuit` is also bound in `sgsim.calibration` and
`sgsim.experiments`, `cost` in `sgsim.cli`. Spans stay in memory and are
written out when the run ends. `uninstall` restores the originals.

Per-element helpers (`bitstring_key`, `decode_collective`, `parity_of`,
`gate_matrix`, the gate constructors) run once per table entry or gate; a span
would cost more than their work, so their time stays in the caller's self
time. `sgsim.layout` gets no spans: it builds the cross once per command.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

import sgsim.calibration
import sgsim.circuit

LAYERS = ("state", "circuit", "ansatz", "calibration", "experiments", "cli")

SPANNED = {
    "state": ("basis_state", "qubit_state", "apply_gate", "apply_circuit",
              "project_qubit", "measure_and_collapse", "born_probabilities",
              "histogram_from_samples", "sample_shots",
              "expectation_pauli_chain", "fidelity"),
    "ansatz": ("build_sg_z", "build_sg_x", "build_reference_cat",
               "attach_readout_rotations"),
    "calibration": ("cost", "cat_fidelity", "minimize"),
    "experiments": ("build_experiment_circuit", "experiment_state",
                    "analytic_distribution", "decode_table", "run_sequential",
                    "run_wigner", "delayed_choice_circuit",
                    "delayed_branch_states", "delayed_branch_distributions",
                    "branch_equivalence_summary", "run_delayed_choice",
                    "total_variation_distance"),
    "cli": ("main",),
}

RESTART = "calibration.restart"

# counts that must repeat exactly between runs of one workload and seed
EXACT_COUNTS = ("state.gates", "state.bytes_moved_computed",
                "state.born_probabilities.entries", "circuit.validate.calls",
                "ansatz.build.calls", "calibration.cost.calls",
                "experiments.decode_table.entries")
AMPLITUDE_BYTES = 16  # complex128

# Every per-layer metric: unit, which direction is better, and the ROADMAP
# item it serves (2 kernels, 3 optimizer, 4 dense distributions; None for
# context that no item targets). BENCHMARK.json lists the same names.
PER_LAYER = {
    "state.gates": ("count", "lower", 2),
    "state.apply_circuit.busy_s": ("s", "lower", 2),
    "state.gate_us": ("us", "lower", 2),
    "state.bytes_moved_computed": ("bytes", "lower", 2),
    "state.apply_gate.busy_s": ("s", "lower", 2),
    "state.project_qubit.busy_s": ("s", "lower", 4),
    "state.sample_shots.busy_s": ("s", "lower", 4),
    "state.born_probabilities.busy_s": ("s", "lower", 4),
    "state.born_probabilities.entries": ("count", "lower", 4),
    "circuit.validate.calls": ("count", "lower", 2),
    "circuit.validate.busy_s": ("s", "lower", 2),
    "ansatz.build.calls": ("count", "lower", 2),
    "ansatz.build.busy_s": ("s", "lower", 2),
    "calibration.cost.calls": ("count", "lower", 3),
    "calibration.cost.busy_s": ("s", "lower", 3),
    "calibration.cost_us": ("us", "lower", 2),
    "calibration.restart_s": ("s", "lower", 3),
    "calibration.optimizer_self_s": ("s", "lower", 3),
    "calibration.evals_per_restart": ("count", "lower", 3),
    "calibration.useful_eval_ratio": ("ratio", "higher", 3),
    "experiments.experiment_state.busy_s": ("s", "lower", 2),
    "experiments.delayed_branch_states.busy_s": ("s", "lower", 4),
    "experiments.decode_table.busy_s": ("s", "lower", 4),
    "experiments.decode_table.entries": ("count", "lower", 4),
    "experiments.branch_equivalence_summary.busy_s": ("s", "lower", 4),
    "experiments.total_variation_distance.busy_s": ("s", "lower", 4),
    "state.self_s": ("s", "lower", 2),
    "circuit.self_s": ("s", "lower", 2),
    "ansatz.self_s": ("s", "lower", 2),
    "calibration.self_s": ("s", "lower", 3),
    "experiments.self_s": ("s", "lower", 4),
    "cli.self_s": ("s", "lower", None),
    "cli.report_bytes": ("bytes", "lower", None),
    "trace.overhead_s": ("s", "lower", None),
}


def _count_apply_circuit(tracer, result, state, circuit, *args, **kwargs):
    gates = len(circuit.ops)
    tracer.counts["state.gates"] += gates
    # computed, not measured: each gate reads and writes every amplitude once
    tracer.counts["state.bytes_moved_computed"] += (
        gates * 2 * AMPLITUDE_BYTES * (1 << result.n_qubits))


def _count_apply_gate(tracer, result, state, op, *args, **kwargs):
    tracer.counts["state.gates"] += 1
    tracer.counts["state.bytes_moved_computed"] += (
        2 * AMPLITUDE_BYTES * (1 << result.n_qubits))


def _count_born(tracer, result, *args, **kwargs):
    tracer.counts["state.born_probabilities.entries"] += len(result)


def _count_decode(tracer, result, table, *args, **kwargs):
    tracer.counts["experiments.decode_table.entries"] += len(table)


COUNTERS = {
    "state.apply_circuit": _count_apply_circuit,
    "state.apply_gate": _count_apply_gate,
    "state.born_probabilities": _count_born,
    "experiments.decode_table": _count_decode,
}


class Tracer:
    """In-memory span recorder. A span is [name, start, end, parent index,
    command id, value]; `value` keeps the result of calibration.cost so the
    winning restart can be found."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.command: str | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, keep_value: bool = False):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else None,
                      self.command, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if keep_value:
                record[5] = result
            if counter is not None:
                counter(self, result, *args, **kwargs)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "sgsim" or key.startswith("sgsim."))]
        for layer, names in SPANNED.items():
            home = sys.modules[f"sgsim.{layer}"]
            for fn_name in names:
                original = getattr(home, fn_name)
                name = f"{layer}.{fn_name}"
                wrapper = self.wrap(name, original, keep_value=(name == "calibration.cost"))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)
        validate = sgsim.circuit.Circuit.validate
        self._patch(sgsim.circuit.Circuit, "validate",
                    self.wrap("circuit.validate", validate))
        # each COBYLA run is one restart; its self time is the optimizer's
        self._patch(sgsim.calibration, "scipy_minimize",
                    self.wrap(RESTART, sgsim.calibration.scipy_minimize))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path) -> None:
        """Spans as JSON rows: name, start, end, parent, command."""
        rows = [record[:5] for record in self.spans]
        with open(path, "w") as handle:
            json.dump({"columns": ["name", "start", "end", "parent", "command"],
                       "spans": rows}, handle)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the spans and counts of a traced run."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start

    busy: Counter = Counter()
    calls: Counter = Counter()
    layer_self: Counter = Counter()
    for i, (name, start, end, _, _, _) in enumerate(spans):
        busy[name] += end - start
        calls[name] += 1
        layer_self[name.split(".", 1)[0]] += end - start - child_time[i]

    restarts = {i: [] for i, s in enumerate(spans) if s[0] == RESTART}
    for name, _, _, parent, _, value in spans:
        if name == "calibration.cost" and parent in restarts:
            restarts[parent].append(value)
    restart_evals = sum(len(values) for values in restarts.values())
    winner_evals = 0
    best = float("inf")
    for values in restarts.values():
        if values and min(values) < best:
            best, winner_evals = min(values), len(values)
    optimizer_self = sum(spans[i][2] - spans[i][1] - child_time[i] for i in restarts)
    n_restarts = len(restarts)

    gates = tracer.counts["state.gates"]
    kernel_busy = busy["state.apply_circuit"] + busy["state.apply_gate"]
    cost_calls = calls["calibration.cost"]
    ansatz_build = [f"ansatz.{n}" for n in SPANNED["ansatz"]]
    metrics = {
        "state.gates": gates,
        "state.apply_circuit.busy_s": busy["state.apply_circuit"],
        "state.gate_us": 1e6 * kernel_busy / gates if gates else 0.0,
        "state.bytes_moved_computed": tracer.counts["state.bytes_moved_computed"],
        "state.apply_gate.busy_s": busy["state.apply_gate"],
        "state.project_qubit.busy_s": busy["state.project_qubit"],
        "state.sample_shots.busy_s": busy["state.sample_shots"],
        "state.born_probabilities.busy_s": busy["state.born_probabilities"],
        "state.born_probabilities.entries": tracer.counts["state.born_probabilities.entries"],
        "circuit.validate.calls": calls["circuit.validate"],
        "circuit.validate.busy_s": busy["circuit.validate"],
        "ansatz.build.calls": sum(calls[n] for n in ansatz_build),
        "ansatz.build.busy_s": sum(busy[n] for n in ansatz_build),
        "calibration.cost.calls": cost_calls,
        "calibration.cost.busy_s": busy["calibration.cost"],
        "calibration.cost_us": 1e6 * busy["calibration.cost"] / cost_calls if cost_calls else 0.0,
        "calibration.restart_s": busy[RESTART] / n_restarts if n_restarts else 0.0,
        "calibration.optimizer_self_s": optimizer_self,
        "calibration.evals_per_restart": restart_evals / n_restarts if n_restarts else 0.0,
        "calibration.useful_eval_ratio": winner_evals / restart_evals if restart_evals else 0.0,
        "experiments.experiment_state.busy_s": busy["experiments.experiment_state"],
        "experiments.delayed_branch_states.busy_s": busy["experiments.delayed_branch_states"],
        "experiments.decode_table.busy_s": busy["experiments.decode_table"],
        "experiments.decode_table.entries": tracer.counts["experiments.decode_table.entries"],
        "experiments.branch_equivalence_summary.busy_s":
            busy["experiments.branch_equivalence_summary"],
        "experiments.total_variation_distance.busy_s":
            busy["experiments.total_variation_distance"],
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer]
    return metrics
