"""sgsim benchmark: drives the `sgsim` CLI in-process on one seeded workload,
checks every output, and prints one JSON result as its last line.

    python3 perfbench/run.py --workload analytic-n4 --seed 0 --seconds 45 --trace 0

Run it from the repository root. `--trace 0` times untraced passes, at
least one, while the next is expected to end within `--seconds` of pass
time, and reports the end-to-end metrics; `--trace 1` runs one untraced and
one traced pass and reports the per-layer metrics and the tracing overhead. Inputs, reports, spans and results go under
`.perfbench/` in the repository root.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_EDGE_STARTS = 3  # setup starts before the first and after the last pass
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NPROC = os.cpu_count() or 1


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("calibrate-n3", "analytic-n4"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import sgsim, write the workload inputs and exit "
                             "(what setup_s times)")
    parser.add_argument("--setup-server", action="store_true",
                        help="for each line on stdin, time one --setup-only "
                             "start and print its wall time")
    return parser.parse_args(argv)


def _prepare_process() -> None:
    """Make `src/sgsim` importable and keep BLAS at one thread, so calibration
    workers do not oversubscribe the CPUs."""
    if not (SRC / "sgsim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no sgsim sources under {SRC}; run from a checkout")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))


def _self_argv(args, mode: str) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()), mode,
            "--workload", args.workload, "--seed", str(args.seed)]


def _setup_server(args) -> int:
    """Time one fresh `--setup-only` interpreter per request line."""
    for _ in sys.stdin:
        start = time.perf_counter()
        subprocess.run(_self_argv(args, "--setup-only"), check=True, timeout=120, cwd=ROOT,
                       stdout=subprocess.DEVNULL)
        print(repr(time.perf_counter() - start), flush=True)
    return 0


# numpy and sgsim must see the thread settings and the path first
if __name__ == "__main__":
    ARGS = _parse_args()
    _prepare_process()
    if ARGS.setup_server:
        sys.exit(_setup_server(ARGS))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import sgsim.cli  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Command, Workload, strip_timestamp  # noqa: E402


@dataclass
class Execution:
    command: Command
    wall: float
    rc: int | None
    error: str | None
    texts: dict[str, str]


def run_command(command: Command, tracer: tracing.Tracer | None = None) -> Execution:
    for path in command.outputs:
        path.unlink(missing_ok=True)
    if tracer is not None:
        tracer.command = f"{command.name}#{len(tracer.spans)}"
    rc, error = None, None
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            rc = sgsim.cli.main(command.argv)
    except Exception as exc:  # a crash is a failed command, not a failed benchmark
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    texts = {str(p): p.read_text() for p in command.outputs if p.is_file()}
    return Execution(command, wall, rc, error, texts)


def run_passes(commands: list[Command], seconds: float,
               between: Callable[[], object]) -> list[list[Execution]]:
    """Closed loop: whole passes over the commands, at least one, while the
    next pass is expected (by the median pass so far) to end within `seconds`
    of pass time. `between` runs between passes, outside the pass time."""
    passes, walls = [], []
    while not passes or sum(walls) + statistics.median(walls) <= seconds:
        if passes:
            between()
        begin = time.perf_counter()
        passes.append([run_command(c) for c in commands])
        walls.append(time.perf_counter() - begin)
    return passes


def traced_pass(commands: list[Command]) -> tuple[list[Execution], tracing.Tracer]:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        return [run_command(c, tracer) for c in commands], tracer
    finally:
        tracer.uninstall()


def check_executions(executions: list[Execution]) -> tuple[int, list[str], dict]:
    """Failed count, messages, and digests of each command's first output.
    An execution fails when it crashed, exited non-zero, lost an output,
    failed its command's check, or did not replay its first pass."""
    first: dict[str, dict[str, str]] = {}
    verdicts: dict[str, list[str]] = {}
    failed, messages = 0, []
    for ex in executions:
        name = ex.command.name
        errors = []
        if ex.error is not None:
            errors.append(ex.error)
        elif ex.rc != 0:
            errors.append(f"exit code {ex.rc}")
        elif len(ex.texts) != len(ex.command.outputs):
            errors.append("missing output file")
        else:
            stripped = {Path(p).name: strip_timestamp(t) for p, t in ex.texts.items()}
            if name not in first:
                first[name] = stripped
                try:
                    verdicts[name] = ex.command.check(ex.texts)
                except Exception as exc:  # a malformed report fails its check
                    verdicts[name] = [f"check raised {type(exc).__name__}: {exc}"]
            elif stripped != first[name]:
                errors.append("output differs from the first pass")
            errors += verdicts[name]
        if errors:
            failed += 1
            messages.append(f"{name}: {'; '.join(errors)}")
    digests = {name: sha256(json.dumps(texts, sort_keys=True).encode()).hexdigest()
               for name, texts in first.items()}
    return failed, messages, digests


def code_digest() -> str:
    """Digest of the sgsim sources and the benchmark's own code. Records of
    exact outputs and counts are kept per digest, so they compare only runs
    of the same code: a change to sgsim may change both by design."""
    files = sorted([*SRC.glob("sgsim/**/*.py"), *Path(__file__).parent.glob("*.py")])
    digest = sha256()
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def compare_record(path: Path, record: dict) -> list[str]:
    """Exact counts and output digests must repeat between runs of the same
    code, workload and seed in one checkout. Stores new keys, reports changed
    ones."""
    stored = json.loads(path.read_text()) if path.is_file() else {}
    errors = [f"{key} was {stored[key]!r} in an earlier run, now {value!r}"
              for key, value in record.items() if key in stored and stored[key] != value]
    stored.update({k: v for k, v in record.items() if k not in stored})
    path.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n")
    return errors


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def environment(workload: Workload) -> dict:
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}/"
        level, kind, size = (_read(base + f) for f in ("level", "type", "size"))
        if level and size and kind and kind.strip() != "Instruction":
            caches[f"L{level.strip()}"] = size.strip()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": NPROC,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "cpu_model": model,
        "caches_per_core_or_shared": caches,
        "max_register_qubits": workload.n_qubits,
        "statevector_bytes": 16 << workload.n_qubits,
    }


class SetupTimer:
    """Times fresh interpreters that import sgsim and write the workload
    inputs (`--setup-only`). The host's speed drifts over tens of seconds, so
    starts are spread over the run: before the first pass, between passes
    and after the last. They run from a helper process, so their memory
    reaches this process's RUSAGE_CHILDREN only when `close` waits for it."""

    def __init__(self, args):
        self.walls: list[float] = []
        self.helper = subprocess.Popen(
            _self_argv(args, "--setup-server"),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT)

    def start(self, count: int = 1) -> None:
        for _ in range(count):
            self.helper.stdin.write("\n")
            self.helper.stdin.flush()
            line = self.helper.stdout.readline()
            if not line:
                raise RuntimeError("a setup start failed")
            self.walls.append(float(line))

    def close(self) -> None:
        self.helper.stdin.close()
        try:
            self.helper.wait(timeout=130)
        finally:
            if self.helper.poll() is None:
                self.helper.kill()
                self.helper.wait()


def measure_untraced(args, workload: Workload):
    """Timed passes with setup starts spread around them. Peak RSS covers
    this process and the calibration workers, read before the setup helper
    is waited for."""
    os.environ["SG_SEQ_THREADS"] = str(workload.workers)
    setup = SetupTimer(args)
    try:
        setup.start(SETUP_EDGE_STARTS)
        passes = run_passes(workload.commands, args.seconds, setup.start)
        rss_mb = {who: resource.getrusage(getattr(resource, who)).ru_maxrss / 1024.0
                  for who in ("RUSAGE_SELF", "RUSAGE_CHILDREN")}
        setup.start(SETUP_EDGE_STARTS)
    finally:
        setup.close()
    executions = [ex for one_pass in passes for ex in one_pass]
    walls = {c.name: [p[i].wall for p in passes] for i, c in enumerate(workload.commands)}
    metrics = {
        "setup_s": (statistics.median(setup.walls), "s"),
        "pass_s": (statistics.median(sum(ex.wall for ex in p) for p in passes), "s"),
        "peak_rss_mb": (max(rss_mb.values()), "MB"),
    }
    details = {f"{name}_s": {"median": statistics.median(w), "runs": w, "unit": "s"}
               for name, w in walls.items()}
    details["setup_starts_s"] = setup.walls
    details["peak_rss_mb"] = rss_mb
    return executions, metrics, details, {}


def measure_traced(args, workload: Workload):
    """One untraced and one traced pass of the overhead commands, then (if
    they differ) one traced pass of the workload's own commands. Restarts
    run in this process, so their spans are recorded."""
    os.environ["SG_SEQ_THREADS"] = "1"
    probe = workload.overhead_commands or workload.commands
    untraced = [run_command(c) for c in probe]
    traced, tracer = traced_pass(probe)
    overhead = sum(ex.wall for ex in traced) - sum(ex.wall for ex in untraced)
    executions = untraced + traced
    if workload.overhead_commands:
        traced, tracer = traced_pass(workload.commands)
        executions += traced
    values = tracing.layer_metrics(tracer)
    values["cli.report_bytes"] = sum(len(t.encode()) for ex in traced
                                     for t in ex.texts.values())
    values["trace.overhead_s"] = overhead
    metrics = {name: (values[name], unit)
               for name, (unit, _, _) in tracing.PER_LAYER.items()}
    counts = {f"count.{key}": values[key] for key in tracing.EXACT_COUNTS}
    details = {"traced_pass_s": sum(ex.wall for ex in traced),
               "overhead_commands": [c.name for c in probe],
               "overhead_untraced_s": sum(ex.wall for ex in untraced)}
    tracer.write(WORK / f"spans-{workload.name}-s{args.seed}.json")
    return executions, metrics, details, counts


def main(args) -> int:
    workdir = WORK / f"{args.workload}-s{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    if args.setup_only:
        WORKLOADS[args.workload](workdir, args.seed)
        return 0

    workload = WORKLOADS[args.workload](workdir, args.seed)
    measure = measure_traced if args.trace else measure_untraced
    executions, metrics, details, counts = measure(args, workload)

    failed, messages, digests = check_executions(executions)
    record = {f"output.{name}": digest for name, digest in digests.items()}
    record.update(counts)
    drift = compare_record(
        WORK / f"record-{workload.name}-s{args.seed}-{code_digest()}.json", record)
    if drift:
        failed = min(len(executions), failed + len(drift))
        messages += drift

    attempted = len(executions)
    report = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds,
        "commands": details, "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted, "errors": messages,
        "workload_info": workload.info, "environment": environment(workload),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (WORK / f"result-{workload.name}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(report, indent=2) + "\n")
    for message in messages:
        print(f"FAILED {message}", file=sys.stderr)
    print(json.dumps({k: v for k, v in report.items() if k != "metrics"}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main(ARGS))
