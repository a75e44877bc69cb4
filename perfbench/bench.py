"""Measurement: input preparation, set-up, timed operations, traced runs.

Imported by run.py after it has pinned the BLAS threads and put the
checkout's src/ on the import path.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path
from statistics import median

import numpy as np
from seqplace import neural

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
DIGESTS = HERE / "digests.json"

SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_MIN_SECONDS = 3, 1000, 1.0


class InputChanged(RuntimeError):
    """A generated input file differs from its pinned digest."""


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "NUMPY_MADVISE_HUGEPAGE": os.environ.get("NUMPY_MADVISE_HUGEPAGE"),
        "SEQPLACE_THREADS": os.environ.get("SEQPLACE_THREADS", "unset"),
        "cores": len(os.sched_getaffinity(0)),
        "l3": l3.read_text().strip() if l3.is_file() else "unknown",
    }


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    import ctypes

    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def check_digests(key: str, seed: int, paths: dict, tally) -> None:
    """Compare the generated SPD1 files with the pinned table.

    Raises InputChanged on a mismatch or a missing entry, so a change to
    the generator cannot silently change a workload.
    """
    table = json.loads(DIGESTS.read_text())
    pinned = table.get(key, {}).get(str(seed))
    actual = workloads.file_digests(os.path.dirname(paths["reference"]))
    if not tally.add(actual == pinned, "input digests"):
        raise InputChanged(f"{key} input seed {seed}: generated inputs differ from {DIGESTS.name}")


class Tally:
    """Operations attempted and failed; an operation is a deploy call, a CLI
    command, a sweep cell, a digest comparison or a correctness check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


def prepare_inputs(workload, seed, work, in_process, tally) -> dict:
    """Generate the workload's files; the workload seed picks the input seed."""
    directory = os.path.join(work, "inputs")
    commands = [workload.inputs.synth_argv(workloads.input_seed(seed), directory)]
    paths = workloads.files(directory)
    commands += workload.extra_commands(paths, work)
    for argv in commands:
        code = workloads.run_cli(argv)[0] if in_process else workloads.run_cli_child(argv, str(ROOT))
        if not tally.add(code == 0, f"seqplace {argv[0]} exited {code}"):
            raise RuntimeError(f"input preparation failed: seqplace {argv[0]}")
    return paths


class Clock:
    """Wall and CPU seconds of one timed block."""

    def __enter__(self):
        self.wall, self.cpu = time.perf_counter(), time.process_time()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self.wall
        self.cpu = time.process_time() - self.cpu


def timed_setups(workload, paths, work):
    """Repeat set-up (min 3, until 1 s has passed); the clocks and the last state."""
    clocks, state = [], None
    while len(clocks) < SETUP_MIN_REPS or (
        sum(c.wall for c in clocks) < SETUP_MIN_SECONDS and len(clocks) < SETUP_MAX_REPS
    ):
        state = None
        with Clock() as clock:
            state = workload.setup(paths, work)
        clocks.append(clock)
    return state, clocks


def run_op(workload, state, tally):
    """The timed operation; (None, None) when it raised."""
    try:
        with Clock() as clock:
            output = workload.op(state)
    except Exception as exc:  # a failed operation is counted, not fatal
        traceback.print_exc()
        tally.add(False, f"{workload.name} operation raised {exc!r}")
        return None, None
    tally.add(True, "")
    return output, clock


def check_output(workload, state, output, tally) -> None:
    for what, ok in workload.checks(state, output):
        tally.add(ok, f"{workload.name}: {what}")


def measure(workload, seed, seconds, work, tally) -> tuple[dict, list[str]]:
    paths = prepare_inputs(workload, seed, work, False, tally)
    check_digests(workload.inputs.key, workloads.input_seed(seed), paths, tally)
    state, setups = timed_setups(workload, paths, work)
    clocks, aucs, start = [], None, time.perf_counter()
    while True:
        output, clock = run_op(workload, state, tally)
        if output is None:
            break
        check_output(workload, state, output, tally)
        clocks.append(clock)
        if aucs is None:  # outputs are deterministic: evaluate the first
            aucs = workload.aucs(state, output, work)
        output = None  # released before the next operation runs
        # start another operation only if it should end within the budget
        if time.perf_counter() - start + clock.wall > seconds:
            break
    if not clocks:
        raise RuntimeError(f"{workload.name}: no operation succeeded")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    items = workload.items(state)
    op_cpu = median(c.cpu for c in clocks)
    op_wall = median(c.wall for c in clocks)
    setup_cpu = median(c.cpu for c in setups)
    lines = [
        f"inputs {workload.inputs.key} input seed {workloads.input_seed(seed)}: digests match",
        f"{workload.rate_name} = {items / op_cpu:.6g} {workload.rate_unit} per CPU second "
        f"(median of {len(clocks)}: {items} / {op_cpu:.4f} s)",
        f"{workload.rate_name} = {items / op_wall:.6g} {workload.rate_unit} per wall second "
        f"(median of {len(clocks)}: {items} / {op_wall:.4f} s)",
        f"setup_s = {setup_cpu:.6g} s CPU, {median(c.wall for c in setups):.6g} s wall "
        f"(median of {len(setups)})",
        f"peak_rss_mb = {peak_mb:.6g} MB (1 process)",
        f"failed_frac = {tally.failed / tally.attempted:.6g} ratio "
        f"({tally.failed} of {tally.attempted} operations failed)",
    ]
    lines += [f"{name} = {value:.6g} AUC (delta = d_s + 10)" for name, value in aucs.items()]
    values = {
        "items_per_wall_s": items / op_wall,
        "items_per_cpu_s": items / op_cpu,
        "setup_s": setup_cpu,
        "peak_rss_mb": peak_mb,
        "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
    }
    return {name: (values[name], unit) for name, unit in workloads.END_TO_END.items()}, lines


def traced(workload, seed, work, tally) -> tuple[dict, list[str]]:
    """One traced pass of generation, set-up and the operation, then the probe.

    The operation also runs once untraced, with the original functions in
    place; the difference of the two CPU times is the tracing overhead.
    Correctness checks run outside the traced sections.
    """
    tracer = spans.Tracer(run_id=f"{workload.name}-s{seed}-p{os.getpid()}")
    wrapped = workloads.replacements(tracer)
    with spans.patched(workloads.TRACED_MODULES, wrapped):
        with tracer.section():
            paths = prepare_inputs(workload, seed, work, True, tally)
        check_digests(workload.inputs.key, workloads.input_seed(seed), paths, tally)
        with tracer.section():
            state = workload.setup(paths, work)
    output, untraced = run_op(workload, state, tally)
    if output is not None:
        check_output(workload, state, output, tally)
    output = None
    with spans.patched(workloads.TRACED_MODULES, wrapped):
        with tracer.section():
            output, traced_op = run_op(workload, state, tally)
        if output is not None:
            check_output(workload, state, output, tally)
        output = None
        probe = os.path.join(work, "probe")
        with tracer.section():
            for argv in workloads.probe_commands(probe):
                code = workloads.run_cli(argv)[0]
                tally.add(code == 0, f"probe: seqplace {argv[0]} exited {code}")
            neural.load_checkpoint(os.path.join(probe, "model.spm1"))
    if untraced is None or traced_op is None:
        raise RuntimeError(f"{workload.name}: operation failed in the traced run")
    values = workloads.layer_metrics(tracer, traced_op.cpu - untraced.cpu)
    out = WORK / f"spans-{tracer.run_id}.jsonl"
    with open(out, "w", encoding="ascii") as fh:
        for index, span in enumerate(tracer.spans):
            record = {"id": index, "name": span.name, "start": span.start, "end": span.end,
                      "parent": span.parent, "thread": span.thread, "run_id": span.run_id}
            fh.write(json.dumps(record) + "\n")
    lines = [f"spans written to {out.relative_to(ROOT)}"]
    lines += [f"{name} = {values[name]:.6g} {unit}" for name, unit in workloads.PER_LAYER.items()]
    metrics = {name: (values[name], unit) for name, unit in workloads.PER_LAYER.items()}
    return metrics, lines


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    """Run one workload and print its result; the process exit code."""
    if not Path(workloads.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print("error: seqplace was imported from outside this checkout", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(name)
    if workload is None:
        print(f"error: unknown workload {name!r}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK)
    tally = Tally()
    try:
        print("env " + json.dumps(environment(), sort_keys=True))
        if trace:
            metrics, lines = traced(workload, seed, work, tally)
        else:
            metrics, lines = measure(workload, seed, seconds, work, tally)
    except InputChanged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in lines:
        print(f"{workload.name}  {line}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": value, "unit": unit} for m, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0
