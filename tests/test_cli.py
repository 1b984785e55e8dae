"""Command-line contract: flags, exit codes, file formats, replay determinism."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sgsim
import sgsim.cli
from sgsim.ansatz import ParamSet, build_reference_cat
from sgsim.circuit import Circuit, zz
from sgsim.cli import main
from sgsim.layout import make_cross_layout
from sgsim.state import MAX_LAYERS, MAX_QUBITS, MAX_RESTARTS, MAX_SHOTS


def run_cli(*argv):
    return main(list(argv))


def strip_timestamp(path):
    doc = json.loads(path.read_text())
    doc["manifest"].pop("timestamp")
    return json.dumps(doc, sort_keys=True)


# ------------------------------------------------------------------ calibrate

def test_calibrate_writes_params_and_report(tmp_path):
    params_file = tmp_path / "params.json"
    report_file = tmp_path / "calib.json"
    rc = run_cli("calibrate", "--n-probes-half", "1", "--layers", "1",
                 "--restarts", "3", "--seed", "7",
                 "--out", str(params_file), "--report", str(report_file))
    assert rc == 0
    params = ParamSet.from_json(params_file.read_text())
    assert params.N == 1 and params.m == 1
    doc = json.loads(report_file.read_text())
    # the single-layer landscape minimum is the ground energy -2 (grid-scanned
    # in the acceptance suite); the CLI run must land within 1e-3 of it
    assert abs(doc["calibration"]["best_cost"] - (-2.0)) <= 1e-3
    assert doc["manifest"]["command"] == "calibrate"
    assert "basis" not in doc["manifest"]["config"]
    assert doc["calibration"]["cost_trace"]
    records = doc["calibration"]["restart_records"]
    assert len(records) == 3
    # the trace holds each restart's start cost, then one entry per iteration
    assert sum(r["iterations"] + 1 for r in records) == len(doc["calibration"]["cost_trace"])


def test_calibrate_same_seed_same_file(tmp_path):
    out1, out2 = tmp_path / "p1.json", tmp_path / "p2.json"
    for out in (out1, out2):
        rc = run_cli("calibrate", "--n-probes-half", "1", "--layers", "1",
                     "--restarts", "2", "--seed", "3",
                     "--out", str(out), "--report", str(tmp_path / "c.json"))
        assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_calibrate_threshold_failure_exits_2(tmp_path, capsys):
    rc = run_cli("calibrate", "--n-probes-half", "1", "--layers", "1",
                 "--restarts", "2", "--seed", "1", "--threshold", "-2.5",
                 "--out", str(tmp_path / "p.json"),
                 "--report", str(tmp_path / "c.json"))
    assert rc == 2
    assert "--layers 2" in capsys.readouterr().err


def test_calibrate_flag_validation(tmp_path, capsys):
    assert run_cli("calibrate", "--restarts", "0",
                   "--out", str(tmp_path / "p.json")) == 64
    capsys.readouterr()
    # the X device reuses the Z-calibrated angles; there is no X calibration
    assert run_cli("calibrate", "--basis", "x", "--out", str(tmp_path / "p.json"),
                   "--report", str(tmp_path / "c.json")) == 64
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "--basis" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "p.json").exists()


def test_calibrate_worker_env_does_not_change_results(tmp_path, monkeypatch):
    serial, parallel = tmp_path / "serial.json", tmp_path / "parallel.json"
    monkeypatch.setenv("SG_SEQ_THREADS", "1")
    assert run_cli("calibrate", "--n-probes-half", "1", "--layers", "1",
                   "--restarts", "2", "--seed", "11", "--out", str(serial),
                   "--report", str(tmp_path / "cs.json")) == 0
    monkeypatch.setenv("SG_SEQ_THREADS", "2")
    assert run_cli("calibrate", "--n-probes-half", "1", "--layers", "1",
                   "--restarts", "2", "--seed", "11", "--out", str(parallel),
                   "--report", str(tmp_path / "cp.json")) == 0
    assert serial.read_bytes() == parallel.read_bytes()

    monkeypatch.setenv("SG_SEQ_THREADS", "zero")
    assert run_cli("calibrate", "--n-probes-half", "1", "--layers", "1",
                   "--restarts", "1", "--out", str(tmp_path / "px.json"),
                   "--report", str(tmp_path / "cx.json")) == 64


def test_calibrate_tol_and_max_iters_validation(tmp_path, capsys):
    cases = [("--tol", "-1", "--max-iters", "0"), ("--tol", "0"), ("--tol", "nan"),
             ("--tol", "inf"), ("--max-iters", "0"), ("--threshold", "nan"),
             ("--threshold", "inf")]
    for flags in cases:
        rc = run_cli("calibrate", "--n-probes-half", "1", "--layers", "1",
                     "--restarts", "1", *flags, "--out", str(tmp_path / "p.json"),
                     "--report", str(tmp_path / "c.json"))
        err = capsys.readouterr().err
        assert rc == 64
        assert err.startswith(f"usage error: {flags[0]} must be") and err.count("\n") == 1
    assert not (tmp_path / "p.json").exists()


# ------------------------------------------------------------------------ run

def test_run_reference_z_first(tmp_path):
    out = tmp_path / "report.json"
    csv = tmp_path / "hist.csv"
    rc = run_cli("run", "--order", "zx", "--reference", "--shots", "2048",
                 "--seed", "5", "--out", str(out), "--csv", str(csv))
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["report"]["z_collective"]["zero"] == 2048
    assert doc["manifest"]["config"]["source"] == "reference_cat"

    lines = csv.read_text().splitlines()
    assert lines[0] == "bitstring,count"
    counts = [int(line.split(",")[1]) for line in lines[1:]]
    assert counts == sorted(counts, reverse=True)
    assert sum(counts) == 2048


def test_run_with_calibrated_params(tmp_path):
    params_file = tmp_path / "params.json"
    rc = run_cli("calibrate", "--n-probes-half", "1", "--layers", "1",
                 "--restarts", "3", "--seed", "7",
                 "--out", str(params_file), "--report", str(tmp_path / "c.json"))
    assert rc == 0
    out = tmp_path / "report.json"
    rc = run_cli("run", "--order", "xz", "--params", str(params_file),
                 "--shots", "1024", "--seed", "9", "--out", str(out))
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["report"]["metadata"]["source"] == "variational"
    assert doc["report"]["metadata"]["n_probes_half"] == 1


def test_run_usage_errors(tmp_path):
    out = str(tmp_path / "r.json")
    assert run_cli("run", "--order", "zx", "--reference", "--shots", "0",
                   "--out", out) == 64
    assert run_cli("run", "--order", "zx", "--out", out) == 64  # no source
    assert run_cli("run", "--order", "zx", "--reference",
                   "--input", "1,1", "--out", out) == 64
    assert run_cli("run", "--order", "zx", "--reference",
                   "--input", "abc,0", "--out", out) == 64


def test_run_missing_params_file(tmp_path):
    assert run_cli("run", "--order", "zx", "--params",
                   str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "r.json")) == 65


def test_unwritable_output_path(tmp_path):
    target = tmp_path / "a_directory"
    target.mkdir()
    assert run_cli("run", "--order", "zx", "--reference", "--shots", "64",
                   "--out", str(target)) == 74


def test_run_input_amplitudes(tmp_path):
    out = tmp_path / "r.json"
    rc = run_cli("run", "--order", "zx", "--reference", "--shots", "512",
                 "--input", "0.6,0.8", "--seed", "3", "--out", str(out))
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["report"]["metadata"]["input"]["a"] == [0.6, 0.0]


def test_nonfinite_params_are_a_data_error(tmp_path, capsys):
    params_file = tmp_path / "nan.json"
    params_file.write_text('{"N": 1, "m": 1, "gamma": [NaN], "beta": [0.5]}\n')
    for command in (("run", "--order", "zx"), ("wigner",)):
        rc = run_cli(*command, "--params", str(params_file), "--shots", "64",
                     "--out", str(tmp_path / "r.json"))
        err = capsys.readouterr().err
        assert rc == 65
        assert err == f"error: malformed parameter file {params_file}: angles must be finite\n"
    assert not (tmp_path / "r.json").exists()


# --------------------------------------------------------------------- wigner

def test_wigner_reference_conditioning(tmp_path):
    out = tmp_path / "w.json"
    rc = run_cli("wigner", "--reference", "--shots", "2048", "--seed", "13",
                 "--out", str(out))
    assert rc == 0
    doc = json.loads(out.read_text())
    conditional = doc["report"]["conditional_tables"]["qs_given_parity"]
    assert conditional["even"]["0"] == 1.0
    assert conditional["odd"]["1"] == 1.0


def test_wigner_warns_on_uncalibrated_params(tmp_path, capsys):
    params_file = tmp_path / "flat.json"
    ParamSet(1, (0.0,), (0.0,)).to_json(params_file)
    rc = run_cli("wigner", "--params", str(params_file), "--shots", "256",
                 "--seed", "1", "--out", str(tmp_path / "w.json"))
    assert rc == 0
    assert "unreliable" in capsys.readouterr().err
    assert (tmp_path / "w.json").is_file()


# -------------------------------------------------------------------- delayed

def test_delayed_analytic_summary(tmp_path):
    out = tmp_path / "d.json"
    rc = run_cli("delayed", "--reference", "--n-probes-half", "1",
                 "--shots", "1024", "--seed", "2", "--p-choice", "0.5",
                 "--mode", "midcircuit", "--analytic", "--out", str(out))
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["branch_equivalence"]["max_branch_tvd"] <= 1e-10
    branches = doc["report"]["conditional_tables"]["by_ancilla"]
    assert branches["0"]["shots"] + branches["1"]["shots"] == 1024


def test_delayed_p_choice_validation(tmp_path):
    assert run_cli("delayed", "--reference", "--p-choice", "1.5",
                   "--out", str(tmp_path / "d.json")) == 64


@pytest.mark.parametrize("argv", [
    ["run", "--order", "zx", "--reference"], ["wigner", "--reference"],
    ["delayed", "--reference", "--analytic"],
    ["calibrate", "--n-probes-half", "1", "--layers", "1"],
], ids=lambda argv: argv[0])
def test_negative_seed_is_a_usage_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)  # default output files would land here
    assert run_cli(*argv, "--seed", "-1") == 64
    assert capsys.readouterr().err == "usage error: --seed must be >= 0\n"
    assert not any(tmp_path.iterdir())


# -------------------------------------------------------------- register cap

def test_register_cap_is_a_usage_error(tmp_path, capsys):
    # 2^101..2^202 amplitudes can never be allocated: a command that skipped
    # the check would fail at once instead of exhausting memory
    out = str(tmp_path / "o.json")
    for argv in (["run", "--order", "zx", "--reference"], ["wigner", "--reference"],
                 ["delayed", "--reference"], ["delayed", "--reference", "--analytic"]):
        assert run_cli(*argv, "--n-probes-half", "50", "--out", out) == 64
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "qubits" in err
    assert run_cli("calibrate", "--n-probes-half", "50", "--out", out,
                   "--report", str(tmp_path / "c.json")) == 64
    assert "101 qubits" in capsys.readouterr().err
    params = tmp_path / "p50.json"
    params.write_text(ParamSet(50, (0.1,), (0.2,)).to_json())
    assert run_cli("run", "--order", "zx", "--params", str(params), "--out", out) == 64
    assert "201 qubits" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()
    # the largest cross the experiments use, N=5 with the delayed-choice
    # ancilla, stays within the cap
    assert 4 * 5 + 2 <= MAX_QUBITS


@pytest.mark.parametrize("argv", [
    ["run", "--order", "zx", "--reference", "--shots", str(MAX_SHOTS + 1)],
    ["wigner", "--reference", "--shots", str(MAX_SHOTS + 1)],
    ["delayed", "--reference", "--shots", str(MAX_SHOTS + 1)],
    ["calibrate", "--restarts", str(MAX_RESTARTS + 1)],
    ["calibrate", "--layers", str(MAX_LAYERS + 1)],
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_count_caps_are_usage_errors(tmp_path, monkeypatch, capsys, argv):
    # one above each cap; the count is refused before anything is drawn
    monkeypatch.chdir(tmp_path)  # default output files would land here
    assert run_cli(*argv) == 64
    flag, cap = argv[-2], int(argv[-1]) - 1
    assert capsys.readouterr().err == f"usage error: {flag} must be at most {cap}\n"
    assert not any(tmp_path.iterdir())


LAYER_CAP_COMMANDS = [["run", "--order", "zx"], ["wigner"], ["delayed", "--analytic"]]


@pytest.mark.parametrize("argv", LAYER_CAP_COMMANDS, ids=lambda argv: argv[0])
def test_params_layer_cap_is_a_data_error(tmp_path, monkeypatch, capsys, argv):
    # one layer above the cap; the file is refused before any circuit is built
    params_file = tmp_path / "deep.json"
    ParamSet(1, (0.1,) * (MAX_LAYERS + 1), (0.2,) * (MAX_LAYERS + 1)).to_json(params_file)

    def no_experiment(**kwargs):
        raise AssertionError("an experiment was configured")

    monkeypatch.setattr(sgsim.cli, "ExperimentConfig", no_experiment)
    out = tmp_path / "r.json"
    assert run_cli(*argv, "--params", str(params_file), "--shots", "16",
                   "--out", str(out)) == 65
    assert capsys.readouterr().err == (f"error: parameter file {params_file} has "
                                       f"{MAX_LAYERS + 1} layers; at most {MAX_LAYERS} "
                                       "are allowed\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", LAYER_CAP_COMMANDS, ids=lambda argv: argv[0])
def test_params_at_layer_cap_are_accepted(tmp_path, argv):
    params_file = tmp_path / "deep.json"
    ParamSet(1, (0.1,) * MAX_LAYERS, (0.2,) * MAX_LAYERS).to_json(params_file)
    out = tmp_path / "r.json"
    assert run_cli(*argv, "--params", str(params_file), "--shots", "16",
                   "--out", str(out)) == 0
    assert out.is_file()


def test_calibration_never_loads_scipy(tmp_path):
    src = str(Path(sgsim.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out, report = tmp_path / "p.json", tmp_path / "c.json"
    argv = ["calibrate", "--n-probes-half", "1", "--layers", "1", "--restarts", "2",
            "--out", str(out), "--report", str(report)]
    code = ("import sys, sgsim.cli\n"
            f"assert sgsim.cli.main({argv!r}) == 0\n"
            "loaded = [k for k in sys.modules if k == 'scipy' or k.startswith('scipy.')]\n"
            "sys.exit(repr(loaded) if loaded else 0)")
    result = subprocess.run([sys.executable, "-c", code],
                            env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0
    assert out.is_file() and report.is_file()


def test_cli_import_leaves_scipy_optimize_unloaded():
    src = str(Path(sgsim.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = "import sys, sgsim.cli; sys.exit('scipy.optimize' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code],
                            env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0


# ------------------------------------------------------------------- validate

def test_validate_accepts_builder_circuit(tmp_path, capsys):
    layout = make_cross_layout(1)
    circuit = build_reference_cat("z", layout.vertical_arm, layout.n_qubits)
    path = tmp_path / "circuit.json"
    circuit.to_json(path)
    rc = run_cli("validate", "--circuit", str(path), "--n-probes-half", "1")
    assert rc == 0
    assert "ok" in capsys.readouterr().out


def test_validate_flags_illegal_coupling(tmp_path, capsys):
    path = tmp_path / "bad.json"
    Circuit(5, [zz(0, 2, 0.4)]).to_json(path)
    rc = run_cli("validate", "--circuit", str(path), "--n-probes-half", "1")
    assert rc == 1
    out = capsys.readouterr().out
    assert "1 violation" in out and "(0, 2)" in out


def test_validate_malformed_and_empty(tmp_path, monkeypatch, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert run_cli("validate", "--circuit", str(bad), "--n-probes-half", "1") == 65

    empty = tmp_path / "empty.json"
    Circuit(5).to_json(empty)
    assert run_cli("validate", "--circuit", str(empty), "--n-probes-half", "1") == 0

    mismatched = tmp_path / "mismatch.json"
    Circuit(6).to_json(mismatched)
    assert run_cli("validate", "--circuit", str(mismatched), "--n-probes-half", "1") == 65

    # the register size is compared before the cross is built
    def no_cross(n):
        raise AssertionError(f"built the N={n} cross for a mismatched circuit")
    monkeypatch.setattr(sgsim.cli, "make_cross_layout", no_cross)
    capsys.readouterr()
    assert run_cli("validate", "--circuit", str(empty), "--n-probes-half", "1000000000") == 65
    assert capsys.readouterr().err == ("error: circuit spans 5 qubits, "
                                       "layout has 4000000001\n")


def test_validate_rejects_empty_arm(tmp_path, capsys):
    path = tmp_path / "circuit.json"
    Circuit(5).to_json(path)
    assert run_cli("validate", "--circuit", str(path), "--n-probes-half", "0") == 64
    assert capsys.readouterr().err == "usage error: --n-probes-half must be >= 1\n"


# -------------------------------------------------------------- reproducibility

def test_manifest_replay_is_byte_identical(tmp_path):
    args = ("run", "--order", "xz", "--reference", "--shots", "1024", "--seed", "77")
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2)) == 0
    assert strip_timestamp(out1) == strip_timestamp(out2)


def test_manifest_records_input_hash(tmp_path):
    params_file = tmp_path / "p.json"
    ParamSet(1, (0.5,), (0.25,)).to_json(params_file)
    out = tmp_path / "r.json"
    rc = run_cli("run", "--order", "zx", "--params", str(params_file),
                 "--shots", "128", "--seed", "4", "--out", str(out))
    assert rc == 0
    doc = json.loads(out.read_text())
    (entry,) = doc["manifest"]["input_files"]
    assert entry["path"] == str(params_file)
    assert len(entry["sha256"]) == 64


# ------------------------------------------------------------- tracing hooks

def test_every_traced_name_exists():
    """`perfbench/run.py --trace 1` looks each spanned function up by name."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer, names in tracing.SPANNED.items():
        module = importlib.import_module(f"sgsim.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"sgsim.{layer}.{name}"
    assert callable(sgsim.calibration.scipy_minimize)
    assert callable(Circuit.validate)
