"""Command-line front end: calibrate, run, wigner, delayed, validate."""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .ansatz import ParamSet
from .calibration import cost, ground_energy, minimize
from .circuit import Circuit
from .experiments import (DELAYED_MODES, ExperimentConfig,
                          branch_equivalence_summary,
                          delayed_branch_distributions, run_delayed_choice,
                          run_sequential, run_wigner)
from .layout import make_cross_layout, validate_nearest_neighbor
from .state import MAX_LAYERS, MAX_QUBITS, MAX_RESTARTS, MAX_SHOTS

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_THRESHOLD = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_IO = 74


class _UsageError(Exception):
    pass


class _DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _utc_timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _manifest(command: str, config: dict, seed: int | None,
              input_files: list[Path]) -> dict:
    return {
        "command": command,
        "config": config,
        "seed": seed,
        "tool_version": __version__,
        "input_files": [{"path": str(p), "sha256": _sha256_file(p)}
                        for p in input_files],
        "timestamp": _utc_timestamp(),
    }


def _write_text_atomic(path: Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json_atomic(path: Path, doc: dict) -> None:
    _write_text_atomic(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _histogram_csv(hist) -> str:
    rows = sorted(hist.to_dict()["counts"].items(), key=lambda kv: (-kv[1], kv[0]))
    return "bitstring,count\n" + "".join(f"{k},{c}\n" for k, c in rows)


def _parse_input_pair(text: str) -> tuple[complex, complex]:
    parts = text.split(",")
    if len(parts) != 2:
        raise _UsageError(f"--input expects 'a,b', got {text!r}")
    try:
        a, b = (complex(p.strip()) for p in parts)
    except ValueError:
        raise _UsageError(f"--input components must be complex numbers, got {text!r}")
    norm_sq = abs(a) ** 2 + abs(b) ** 2
    if not math.isfinite(norm_sq) or abs(norm_sq - 1.0) > 1e-6:
        raise _UsageError(f"--input amplitudes must be normalized, |a|^2+|b|^2 = {norm_sq:.6g}")
    scale = math.sqrt(norm_sq)
    return a / scale, b / scale


def _load_params(path_text: str) -> ParamSet:
    path = Path(path_text)
    if not path.is_file():
        raise _DataError(f"parameter file not found: {path}")
    try:
        params = ParamSet.from_json(path.read_text())
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise _DataError(f"malformed parameter file {path}: {exc}")
    if params.m > MAX_LAYERS:  # each layer adds gates on every qubit
        raise _DataError(f"parameter file {path} has {params.m} layers; "
                         f"at most {MAX_LAYERS} are allowed")
    return params


def _workers_from_env() -> int:
    """Calibration worker processes: SG_SEQ_THREADS, or 1 (no pool) if unset."""
    raw = os.environ.get("SG_SEQ_THREADS")
    if raw is None:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise _UsageError(f"SG_SEQ_THREADS must be an integer, got {raw!r}")
    if value < 1:
        raise _UsageError("SG_SEQ_THREADS must be >= 1")
    return value


def _add_source_flags(parser: _Parser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--params", metavar="FILE",
                       help="calibrated parameter file from `sgsim calibrate`")
    group.add_argument("--reference", action="store_true",
                       help="use the exact reference-cat circuits instead")


def _add_run_flags(parser: _Parser) -> None:
    parser.add_argument("--n-probes-half", type=int, default=3, metavar="N",
                        help="probes per half-arm (ignored with --params; default 3)")
    parser.add_argument("--shots", type=int, default=8192,
                        help=f"samples to draw, 1..{MAX_SHOTS} (default 8192)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--input", default="1,0", metavar="A,B",
                        help="system-qubit amplitudes, e.g. '1,0' or '0.6,0.8'")
    parser.add_argument("--out", default="report.json", metavar="FILE")
    parser.add_argument("--csv", metavar="FILE",
                        help="also dump the raw histogram as CSV")


def _check_register_size(n_half: int, qubits: int) -> None:
    """Refuse a register above the simulator's cap before anything is allocated."""
    if qubits > MAX_QUBITS:
        raise _UsageError(f"N={n_half} needs {qubits} qubits; the simulator "
                          f"allows at most {MAX_QUBITS}")


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise _UsageError("--seed must be >= 0")


def _check_count(flag: str, value: int, cap: int) -> None:
    """Refuse a count below 1 or above its cap before anything is allocated."""
    if value < 1:
        raise _UsageError(f"{flag} must be >= 1")
    if value > cap:
        raise _UsageError(f"{flag} must be at most {cap}")


def _resolve_experiment(args, order: str, ancillas: int = 0
                        ) -> tuple[ExperimentConfig, object]:
    _check_count("--shots", args.shots, MAX_SHOTS)
    _check_seed(args.seed)
    a, b = _parse_input_pair(args.input)
    params = None
    if args.params:
        params = _load_params(args.params)
        n_half = params.N
    else:
        n_half = args.n_probes_half
        if n_half < 1:
            raise _UsageError("--n-probes-half must be >= 1")
    _check_register_size(n_half, 4 * n_half + 1 + ancillas)
    config = ExperimentConfig(N=n_half, order=order, shots=args.shots,
                              seed=args.seed, a=a, b=b, params=params)
    return config, make_cross_layout(n_half)


def _emit_report(args, command: str, config: ExperimentConfig, report,
                 extra: dict | None = None, **echo) -> int:
    """Write the report with its manifest (the config echo plus `echo`) and
    any `extra` top-level sections, and the CSV histogram if asked for."""
    echo = {
        "n_probes_half": config.N,
        "order": config.order,
        "shots": config.shots,
        "input": {"a": [config.a.real, config.a.imag],
                  "b": [config.b.real, config.b.imag]},
        "source": config.source,
        "params_file": args.params or None,
        **echo,
    }
    manifest = _manifest(command, echo, args.seed,
                         [Path(args.params)] if args.params else [])
    _write_json_atomic(Path(args.out), {"manifest": manifest, "report": report.to_dict(),
                                        **(extra or {})})
    if args.csv:
        _write_text_atomic(Path(args.csv), _histogram_csv(report.raw))
    print(f"report written to {args.out}")
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    _check_count("--restarts", args.restarts, MAX_RESTARTS)
    _check_count("--layers", args.layers, MAX_LAYERS)
    if args.n_probes_half < 1:
        raise _UsageError("--n-probes-half must be >= 1")
    if not (math.isfinite(args.tol) and args.tol > 0.0):
        raise _UsageError("--tol must be a finite number > 0")
    if args.threshold is not None and not math.isfinite(args.threshold):
        raise _UsageError("--threshold must be a finite number")
    if args.max_iters < 1:
        raise _UsageError("--max-iters must be >= 1")
    _check_seed(args.seed)
    _check_register_size(args.n_probes_half, 2 * args.n_probes_half + 1)
    target = ground_energy(args.n_probes_half)
    threshold = 0.9 * target if args.threshold is None else args.threshold
    report = minimize(args.n_probes_half, args.layers, restarts=args.restarts,
                      seed=args.seed, tolerance=args.tol, max_iters=args.max_iters,
                      workers=_workers_from_env())
    config = {
        "n_probes_half": args.n_probes_half, "layers": args.layers,
        "restarts": args.restarts, "tol": args.tol, "max_iters": args.max_iters,
        "threshold": threshold,
    }
    manifest = _manifest("calibrate", config, args.seed, [])
    _write_text_atomic(Path(args.out), report.best_params.to_json() + "\n")
    _write_json_atomic(Path(args.report), {"manifest": manifest,
                                           "calibration": report.to_dict()})
    print(f"best cost {report.best_cost:.6f} (ground {target:g}, "
          f"threshold {threshold:g}); cat fidelity {report.cat_fidelity_0:.6f}")
    print(f"parameters written to {args.out}, full report to {args.report}")
    if report.best_cost > threshold:
        print(f"cost did not reach the threshold; consider --layers {args.layers + 1}",
              file=sys.stderr)
        return EXIT_THRESHOLD
    return EXIT_OK


def _cmd_run(args) -> int:
    config, layout = _resolve_experiment(args, args.order)
    return _emit_report(args, "run", config, run_sequential(config, layout))


def _warn_if_uncalibrated(config: ExperimentConfig) -> None:
    if config.params is None:
        return
    achieved = cost(config.params)
    threshold = 0.9 * ground_energy(config.params.N)
    if achieved > threshold:
        print(f"warning: parameters reach cost {achieved:.4f} "
              f"(threshold {threshold:g}); parity conditioning will be unreliable",
              file=sys.stderr)


def _cmd_wigner(args) -> int:
    config, layout = _resolve_experiment(args, "xz")
    _warn_if_uncalibrated(config)
    return _emit_report(args, "wigner", config, run_wigner(config, layout))


def _cmd_delayed(args) -> int:
    if not 0.0 <= args.p_choice <= 1.0:
        raise _UsageError("--p-choice must lie in [0, 1]")
    config, layout = _resolve_experiment(args, "xz", ancillas=1)
    # one prefix simulation serves the sampled run and the comparison
    branches = delayed_branch_distributions(
        config, layout, args.p_choice, DELAYED_MODES if args.analytic else (args.mode,))
    report = run_delayed_choice(config, layout, mode=args.mode, p_choice=args.p_choice,
                                branches=branches)
    extra = None
    if args.analytic:
        extra = {"branch_equivalence": branch_equivalence_summary(
            config, layout, args.p_choice, branches=branches)}
    return _emit_report(args, "delayed", config, report, extra, mode=args.mode,
                        p_choice=args.p_choice, analytic=bool(args.analytic))


def _cmd_validate(args) -> int:
    if args.n_probes_half < 1:
        raise _UsageError("--n-probes-half must be >= 1")
    path = Path(args.circuit)
    if not path.is_file():
        raise _DataError(f"circuit file not found: {path}")
    try:
        circuit = Circuit.from_json(path.read_text())
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise _DataError(f"malformed circuit file {path}: {exc}")
    n_qubits = 4 * args.n_probes_half + 1  # before the cross: its size grows with N
    if circuit.n_qubits != n_qubits:
        raise _DataError(f"circuit spans {circuit.n_qubits} qubits, layout has {n_qubits}")
    violations = validate_nearest_neighbor(circuit, make_cross_layout(args.n_probes_half))
    if not violations:
        print(f"ok: every two-qubit gate is nearest-neighbor on the N={args.n_probes_half} cross")
        return EXIT_OK
    for i, op in violations:
        print(f"violation at op {i}: {op.gate.value} on qubits {op.targets}")
    print(f"{len(violations)} violation(s)")
    return EXIT_VIOLATIONS


def build_parser() -> _Parser:
    parser = _Parser(prog="sgsim",
                     description="Measurement-device circuits: calibration and "
                                 "sequential experiments on a cross-shaped register.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("calibrate", help="variationally calibrate a device")
    p.add_argument("--n-probes-half", type=int, default=3, metavar="N")
    p.add_argument("--layers", type=int, default=3, metavar="M",
                   help=f"device layers, 1..{MAX_LAYERS} (default 3)")
    p.add_argument("--restarts", type=int, default=20,
                   help=f"L-BFGS runs from seeded random starts, 1..{MAX_RESTARTS} "
                        "(default 20)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-6,
                   help="a restart converges when its largest gradient component, "
                        "or its relative cost reduction over one iteration, is at "
                        "most this (default 1e-6); the gradient is exact, from one "
                        "adjoint pass")
    p.add_argument("--max-iters", type=int, default=2000,
                   help="iteration cap of each restart (default 2000); an iteration "
                        "halves its step until the cost decreases enough, making "
                        "1 to 20 cost-and-gradient evaluations")
    p.add_argument("--threshold", type=float, default=None,
                   help="acceptance cost (default 0.9 * ground energy)")
    p.add_argument("--out", default="params.json", metavar="FILE")
    p.add_argument("--report", default="calib.json", metavar="FILE")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("run", help="sequential two-device experiment")
    p.add_argument("--order", required=True, choices=("zx", "xz"),
                   help="which device acts first")
    _add_source_flags(p)
    _add_run_flags(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("wigner", help="interferometer mode (no X readout rotations)")
    _add_source_flags(p)
    _add_run_flags(p)
    p.set_defaults(func=_cmd_wigner)

    p = sub.add_parser("delayed", help="ancilla-controlled delayed-choice experiment")
    _add_source_flags(p)
    _add_run_flags(p)
    p.add_argument("--mode", choices=("midcircuit", "deferred"), default="midcircuit")
    p.add_argument("--p-choice", type=float, default=0.5,
                   help="probability that the readout rotations fire")
    p.add_argument("--analytic", action="store_true",
                   help="embed the midcircuit-vs-deferred branch comparison")
    p.set_defaults(func=_cmd_delayed)

    p = sub.add_parser("validate", help="nearest-neighbor legality of a circuit file")
    p.add_argument("--circuit", required=True, metavar="FILE")
    p.add_argument("--n-probes-half", type=int, default=3, metavar="N")
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
