"""Workload definitions: inputs, set-up, the timed operation and its checks.

Each workload times one kind of user-visible operation, so that one
throughput figure per workload names exactly one thing (a matcher's
deployment, a training command or a sweep command). The program is driven
only through public entry points: ``seqplace.cli.main``,
``Method.prepare`` and the deploy callable it returns, and
``neural.load_checkpoint``/``neural.infer``. Inputs are written by the
program's own ``synth`` command from the workload seed; the program sees
only those files.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from statistics import median

import numpy as np

from seqplace import cli, dataset, descriptors, evaluation, matching_classic, neural, synthetic
from seqplace.dataset import Traversal

import spans

TRACED_MODULES = (dataset, descriptors, matching_classic, neural, evaluation, synthetic, cli)


# --------------------------------------------------------------------------
# inputs


@dataclass(frozen=True)
class Inputs:
    """One family of generated inputs; ``key`` indexes the digest table."""

    key: str
    synth_flags: tuple[str, ...]

    def synth_argv(self, seed: int, directory: str) -> list[str]:
        return ["synth", *self.synth_flags, "--seed", str(seed), "--out", directory]

    @property
    def frames(self) -> int:
        return int(self.synth_flags[self.synth_flags.index("--frames") + 1])


PAPER = Inputs("paper", ("--frames", "3577", "--dim", "4096", "--smoothness", "0.5", "--noise", "0.3"))
LONG = Inputs("long", ("--frames", "6000", "--dim", "64", "--smoothness", "0.5", "--noise", "0.15"))
TRAIN = Inputs("train", ("--frames", "600", "--dim", "4096", "--smoothness", "0.5", "--noise", "0.3"))
ALIASED = Inputs(
    "aliased",
    ("--frames", "500", "--dim", "64", "--smoothness", "0.5", "--noise", "0.2",
     "--revisit-at", "300", "--revisit-len", "150"),
)
INPUTS = (PAPER, LONG, TRAIN, ALIASED)
DIGESTED_FILES = ("reference.spd1", "query.spd1")
# every family's inputs are pinned for these many input seeds, and every
# workload seed maps onto one of them, so no run goes unchecked
INPUT_SEEDS = 32
PROBE = Inputs("probe", ("--frames", "40", "--dim", "8", "--smoothness", "0.5", "--noise", "0.1"))


def input_seed(seed: int) -> int:
    """The ``seqplace synth --seed`` a workload seed stands for."""
    return seed % INPUT_SEEDS


def file_digests(directory: str) -> dict[str, str]:
    out = {}
    for name in DIGESTED_FILES:
        sha = hashlib.sha256()
        with open(os.path.join(directory, name), "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                sha.update(block)
        out[name] = sha.hexdigest()
    return out


def files(directory: str) -> dict[str, str]:
    names = ("reference.spd1", "query.spd1", "reference_positions.txt", "query_positions.txt")
    return {name.split(".")[0]: os.path.join(directory, name) for name in names}


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run one ``seqplace`` command in this process; (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def run_cli_child(argv: list[str], root: str) -> int:
    """Run one ``seqplace`` command in a child process; its exit code.

    The command's memory does not count towards the benchmark's peak RSS;
    the BLAS pins reach it through the environment.
    """
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "seqplace.cli", *argv],
        cwd=root, env=env, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return proc.returncode


def probe_commands(directory: str) -> list[list[str]]:
    """A toy pass through every traced layer (40 frames, 8-d, H=8, 1 epoch).

    Each traced run makes it after the workload's own pass, so that every
    layer has a measured time on every workload instead of a zero that
    would read the same on every run. It takes well under a second.
    """
    paths = files(directory)
    pair = ["--ref", paths["reference"], "--query", paths["query"],
            "--ref-positions", paths["reference_positions"],
            "--query-positions", paths["query_positions"]]
    deep = ["--epochs", "1", "--hidden", "8", "--seed", "0"]
    return [
        PROBE.synth_argv(0, directory),
        ["train", "--ref", paths["reference"], "--ref-positions", paths["reference_positions"],
         "--ds", "2", *deep, "--out-checkpoint", os.path.join(directory, "model.spm1"),
         "--out-curves", os.path.join(directory, "curves.csv")],
        ["sweep", *pair, "--methods", "seqslam,delta,deep", "--ds-values", "2", *deep,
         "--out", os.path.join(directory, "sweep.csv")],
    ]


def load_traversal(desc_path: str, pos_path: str, normalize: bool) -> Traversal:
    """The load policy of the ``sweep``/``match`` commands, from public calls."""
    seq = dataset.load_descriptor_file(desc_path)
    if normalize:
        seq = descriptors.l2_normalize(seq)
    track = dataset.normalize_positions(dataset.load_positions_file(pos_path))
    name = os.path.splitext(os.path.basename(desc_path))[0]
    return Traversal(name=name, descriptors=seq, positions=track)


# --------------------------------------------------------------------------
# parsing the program's text outputs


def parse_auc(stdout: str) -> float:
    """The value of the ``auc,<value>`` line printed by ``seqplace eval``."""
    found = [line for line in stdout.splitlines() if line.startswith("auc,")]
    if len(found) != 1:
        raise ValueError(f"expected one 'auc,' line, got {len(found)}")
    return float(found[0].split(",", 1)[1])


def parse_sweep_csv(text: str) -> list[tuple[str, int, str, float | None]]:
    """Rows of a sweep table; an empty AUC field (a failed cell) is None."""
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines or lines[0] != "method,d_s,query_name,auc":
        raise ValueError("not a sweep table")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 4:
            raise ValueError(f"bad sweep row {line!r}")
        auc = float(parts[3]) if parts[3] else None
        rows.append((parts[0], int(parts[1]), parts[2], auc))
    return rows


def mean_auc_by_method(rows) -> dict[str, float]:
    """Mean AUC over the swept d_s values, per method, ignoring failed cells."""
    by_method: dict[str, list[float]] = {}
    for method, _, _, auc in rows:
        if auc is not None:
            by_method.setdefault(method, []).append(auc)
    return {m: float(np.mean(v)) for m, v in sorted(by_method.items())}


def write_match_csv(report, method: str, d_s: int, path: str) -> None:
    """A report in the layout ``seqplace match`` writes and ``seqplace eval`` reads."""
    polarity = "higher" if report.higher_is_better else "lower"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# method={method}\n# polarity={polarity}\n# ds={d_s}\n")
        fh.write("query_index,best_ref,score\n")
        for q, r, s in zip(report.query_indices, report.best_ref, report.scores):
            fh.write(f"{q},{r},{float(s)!r}\n")


# --------------------------------------------------------------------------
# checks shared by the deploy workloads


def report_checks(report, expected_queries: np.ndarray, n_ref: int) -> list[tuple[str, bool]]:
    return [
        ("one row per evaluable query frame",
         len(report) == len(expected_queries)
         and np.array_equal(report.query_indices, expected_queries)),
        ("best_ref in [0, R)",
         bool(((report.best_ref >= 0) & (report.best_ref < n_ref)).all())),
    ]


# --------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    why = ""
    inputs: Inputs
    rate_name = ""  # the metric name this workload's throughput stands for
    rate_unit = ""

    def extra_commands(self, paths: dict, work: str) -> list[list[str]]:
        """Further input-preparation commands, run untimed after ``synth``."""
        return []

    def setup(self, paths: dict, work: str):
        raise NotImplementedError

    def op(self, state):
        raise NotImplementedError

    def items(self, state) -> int:
        raise NotImplementedError

    def checks(self, state, output) -> list[tuple[str, bool]]:
        raise NotImplementedError

    def aucs(self, state, output, work: str) -> dict[str, float]:
        return {}


class ClassicDeploy(Workload):
    """One prepared classic matcher deployed on the whole query."""

    def __init__(self, name, inputs, method, d_s, why):
        self.name, self.inputs, self.method, self.d_s, self.why = name, inputs, method, d_s, why
        self.rate_name = f"{method}.query_fps"
        self.rate_unit = "frames/s"

    def setup(self, paths, work):
        reference = load_traversal(paths["reference"], paths["reference_positions"], True)
        query = load_traversal(paths["query"], paths["query_positions"], False)
        factory = {"seqslam": evaluation.seqslam_method, "delta": evaluation.delta_method}[self.method]
        return reference, query, factory().prepare(reference, self.d_s)

    def op(self, state):
        return state[2](state[1])

    def items(self, state):
        return state[1].frame_count

    def checks(self, state, report):
        reference, query = state[0], state[1]
        frames = query.frame_count
        if self.method == "delta":
            half = evaluation.delta_window_for(self.d_s) // 2
            expected = np.arange(half, frames - half + 1)
        else:
            expected = np.arange(frames)
        return report_checks(report, expected, reference.frame_count)

    def aucs(self, state, report, work):
        path = os.path.join(work, f"{self.method}-matches.csv")
        write_match_csv(report, self.method, self.d_s, path)
        code, out = run_cli(["eval", "--matches", path])
        if code != 0:
            raise RuntimeError(f"seqplace eval exited {code}")
        return {f"{self.method}.auc": parse_auc(out)}


class DeepDeploy(Workload):
    """Inference of an H=512 checkpoint over the whole query.

    The checkpoint comes from ``seqplace train --epochs 0``: inference cost
    does not depend on the weights, and training stays out of this workload.
    """

    name = "paper-deploy.deep"
    inputs = PAPER
    rate_name = "deep.query_fps"
    rate_unit = "frames/s"
    d_s = 10
    hidden = 512

    def __init__(self, why):
        self.why = why

    def extra_commands(self, paths, work):
        return [[
            "train", "--ref", paths["reference"], "--ref-positions", paths["reference_positions"],
            "--ds", str(self.d_s), "--epochs", "0", "--hidden", str(self.hidden),
            "--seed", "0", "--out-checkpoint", os.path.join(work, "model.spm1"),
            "--out-curves", os.path.join(work, "curves0.csv"),
        ]]

    def setup(self, paths, work):
        query = load_traversal(paths["query"], paths["query_positions"], True)
        return query, neural.load_checkpoint(os.path.join(work, "model.spm1"))

    def op(self, state):
        return neural.infer(state[1], state[0])

    def items(self, state):
        return state[0].frame_count

    def checks(self, state, output):
        activity, report = output
        query, model = state
        sums = activity.sum(axis=1)
        return report_checks(report, np.arange(query.frame_count), model.places) + [
            ("activity is Q x N", activity.shape == (query.frame_count, model.places)),
            ("activity rows sum to 1 within 1e-9", bool(np.all(np.abs(sums - 1.0) <= 1e-9))),
        ]


class TrainCommand(Workload):
    """One ``seqplace train`` command: load, init, train, checkpoint, curves."""

    name = "train-h512"
    inputs = TRAIN
    rate_name = "train.windows_per_s"
    rate_unit = "windows/s"
    d_s, hidden, epochs = 10, 512, 1

    def __init__(self, why):
        self.why = why

    def setup(self, paths, work):
        # the load `seqplace train` makes; the command repeats it in the op
        load_traversal(paths["reference"], paths["reference_positions"], True)
        argv = [
            "train", "--ref", paths["reference"], "--ref-positions", paths["reference_positions"],
            "--ds", str(self.d_s), "--epochs", str(self.epochs), "--hidden", str(self.hidden),
            "--seed", "0", "--out-checkpoint", os.path.join(work, "model.spm1"),
            "--out-curves", os.path.join(work, "curves.csv"),
        ]
        return argv, work

    def op(self, state):
        return run_cli(state[0])[0]

    def items(self, state):
        return (self.inputs.frames - self.d_s + 1) * self.epochs

    def checks(self, state, code):
        checks = [("train exits 0", code == 0)]
        if code != 0:
            return checks
        work = state[1]
        curves = neural.load_curves_csv(os.path.join(work, "curves.csv"))
        model = neural.load_checkpoint(os.path.join(work, "model.spm1"))
        checks.append(("one curve row per epoch", len(curves) == self.epochs))
        checks.append(("training loss is finite", all(math.isfinite(v) for v in curves.losses)))
        checks.append((
            "checkpoint has the trained shape",
            (model.places, model.lstm.hidden_dim, model.d_s)
            == (self.inputs.frames, self.hidden, self.d_s),
        ))
        return checks


class SweepCommand(Workload):
    """One ``seqplace sweep`` command over all three methods and three d_s."""

    name = "sweep-aliased"
    inputs = ALIASED
    rate_name = "sweep.cells_per_s"
    rate_unit = "cells/s"
    methods = ("seqslam", "delta", "deep")
    ds_values = (1, 2, 4)

    def __init__(self, why):
        self.why = why

    def setup(self, paths, work):
        # the loads `seqplace sweep` makes; the command repeats them in the op
        load_traversal(paths["reference"], paths["reference_positions"], True)
        load_traversal(paths["query"], paths["query_positions"], False)
        out = os.path.join(work, "sweep.csv")
        argv = [
            "sweep", "--ref", paths["reference"], "--query", paths["query"],
            "--ref-positions", paths["reference_positions"],
            "--query-positions", paths["query_positions"],
            "--methods", ",".join(self.methods),
            "--ds-values", ",".join(str(d) for d in self.ds_values),
            "--epochs", "80", "--hidden", "64", "--seed", "0", "--out", out,
        ]
        return argv, out

    def op(self, state):
        code = run_cli(state[0])[0]
        if code != 0:
            return code, []
        with open(state[1], encoding="ascii") as fh:
            return code, parse_sweep_csv(fh.read())

    def items(self, state):
        return len(self.methods) * len(self.ds_values)

    def checks(self, state, output):
        # every sweep cell is an operation; one with an empty AUC failed
        code, rows = output
        return [
            ("sweep exits 0", code == 0),
            ("one row per method x d_s", len(rows) == self.items(state)),
        ] + [(f"sweep cell {m} d_s={d} has an AUC", auc is not None) for m, d, _, auc in rows]

    def aucs(self, state, output, work):
        return {f"{m}.auc": v for m, v in mean_auc_by_method(output[1]).items()}


WORKLOADS = {
    w.name: w
    for w in (
        ClassicDeploy(
            "paper-deploy.seqslam", PAPER, "seqslam", 10,
            "paper scale, 3577 x 4096-d, d_s=10: the 105-GFLOP difference-matrix GEMM "
            "and the velocity search dominate; no training",
        ),
        ClassicDeploy(
            "paper-deploy.delta", PAPER, "delta", 10,
            "paper scale delta matching: two delta transforms per deploy plus the GEMM; "
            "moves if the reference transform goes into prepare",
        ),
        DeepDeploy(
            "paper-scale H=512 LSTM inference from a checkpoint; the matcher criterion 08 "
            "says must deploy faster than the velocity search",
        ),
        ClassicDeploy(
            "long-route.seqslam", LONG, "seqslam", 2,
            "6000 x 64-d, d_s=2: cheap GEMM but each Q x R float64 array is 288 MB "
            "(computed), 2.7x the L3, so contrast and memory traffic dominate",
        ),
        TrainCommand(
            "one H=512 training epoch (591 windows, 4096-d) through the CLI; the only "
            "workload whose time is training",
        ),
        SweepCommand(
            "aliased 500-frame route: the one workload where deep is trained enough to "
            "matter and the only one that runs ds_sweep's thread pool",
        ),
    )
}


# --------------------------------------------------------------------------
# per-layer metrics from spans

MB = 1e6


def _file_mb(arguments, result):
    return {"mb": os.path.getsize(arguments["path"]) / MB}


def _difference_cost(arguments, result):
    q, r = result.data.shape
    return {"gflop": 2.0 * q * r * arguments["query"].dim / 1e9}


def _contrast_cost(arguments, result):
    return {"mb": result.data.nbytes / MB}


def _search_cost(arguments, result):
    q, r = arguments["matrix"].data.shape
    cfg = arguments["cfg"]
    return {"samples": q * len(matching_classic.velocity_grid(cfg)) * r * cfg.d_s}


def _train_cost(arguments, result):
    model, curves = result
    d_s = arguments["d_s"]
    windows = arguments["reference"].frame_count - d_s + 1
    m, h, n = model.input_dim, model.lstm.hidden_dim, model.places
    forward = d_s * 8 * h * (m + h) + 2 * h * n
    # backward costs about twice the forward GEMMs
    return {"gflop": 3.0 * forward * windows * len(curves) / 1e9, "epoch_s": list(curves.seconds)}


def _infer_cost(arguments, result):
    model = arguments["model"]
    d_s = arguments["d_s"] or model.d_s
    m, h, n = model.input_dim, model.lstm.hidden_dim, model.places
    q = arguments["query"].frame_count
    return {"gflop": q * (8 * m * h + d_s * 8 * h * h + 2 * h * n) / 1e9}


def _sweep_cost(arguments, result):
    return {"cells": len(result), "failed_cells": sum(1 for c in result if c.auc is None)}


def _cli_name(arguments):
    argv = arguments["argv"] or ["none"]
    return f"cli.main.{argv[0]}"


# (module, function) -> (span name, cost)
LAYERS = {
    (dataset, "load_descriptor_file"): ("dataset.load_descriptor_file", _file_mb),
    (dataset, "load_positions_file"): ("dataset.load_positions_file", None),
    (descriptors, "l2_normalize"): ("descriptors.l2_normalize", None),
    (descriptors, "delta_transform"): ("descriptors.delta_transform", None),
    (matching_classic, "difference_matrix"): ("matching_classic.difference_matrix", _difference_cost),
    (matching_classic, "contrast_enhance"): ("matching_classic.contrast_enhance", _contrast_cost),
    (matching_classic, "seqslam_search"): ("matching_classic.seqslam_search", _search_cost),
    (matching_classic, "delta_match"): ("matching_classic.delta_match", None),
    (neural, "train"): ("neural.train", _train_cost),
    (neural, "adam_step"): ("neural.adam_step", None),
    (neural, "infer"): ("neural.infer", _infer_cost),
    (neural, "save_checkpoint"): ("neural.save_checkpoint", _file_mb),
    (neural, "load_checkpoint"): ("neural.load_checkpoint", _file_mb),
    (evaluation, "ds_sweep"): ("evaluation.ds_sweep", _sweep_cost),
    (evaluation, "pr_curve"): ("evaluation.pr_curve", None),
    (synthetic, "generate"): ("synthetic.generate", None),
    (synthetic, "generate_revisit"): ("synthetic.generate", None),
    (cli, "main"): (_cli_name, None),
}

CLI_COMMANDS = ("synth", "train", "sweep")  # the commands a traced run makes

# name -> unit, in report order; the untraced runs report END_TO_END, the
# traced runs PER_LAYER
END_TO_END = {
    "items_per_wall_s": "1/s",
    "items_per_cpu_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

PER_LAYER = {
    "dataset.load_descriptor_file.s": "s",
    "dataset.load_descriptor_file.mb": "MB",
    "dataset.load_positions_file.s": "s",
    "descriptors.l2_normalize.s": "s",
    "descriptors.delta_transform.s": "s",
    "descriptors.delta_transform.calls_per_deploy": "ratio",
    "matching_classic.difference_matrix.s": "s",
    "matching_classic.difference_matrix.calls": "count",
    "matching_classic.difference_matrix.gflop": "GFLOP-computed",
    "matching_classic.contrast_enhance.s": "s",
    "matching_classic.contrast_enhance.mb": "MB-computed",
    "matching_classic.seqslam_search.s": "s",
    "matching_classic.seqslam_search.samples": "samples-computed",
    "matching_classic.delta_match.s": "s",
    "neural.train.s": "s",
    "neural.train.other_s": "s",
    "neural.train.epoch_s": "s",
    "neural.train.gflop": "GFLOP-computed",
    "neural.adam_step.s": "s",
    "neural.adam_step.calls": "count",
    "neural.infer.s": "s",
    "neural.infer.gflop": "GFLOP-computed",
    "neural.save_checkpoint.s": "s",
    "neural.save_checkpoint.mb": "MB",
    "neural.load_checkpoint.s": "s",
    "neural.load_checkpoint.mb": "MB",
    "evaluation.ds_sweep.s": "s",
    "evaluation.ds_sweep.cells": "count",
    "evaluation.ds_sweep.failed_cells": "count",
    "evaluation.ds_sweep.workers": "count",
    "evaluation.ds_sweep.busy_over_wall": "ratio",
    "evaluation.pr_curve.s": "s",
    "synthetic.generate.s": "s",
    **{f"cli.main.{c}.s": "s" for c in CLI_COMMANDS},
    "trace.wall_s": "s",
    "trace.untraced_s": "s",
    "trace.overlap_s": "s",
    "trace.overhead_s": "s",
}


def replacements(tracer: spans.Tracer) -> dict:
    return {
        getattr(module, attr): spans.wrap(tracer, getattr(module, attr), name, cost)
        for (module, attr), (name, cost) in LAYERS.items()
    }


def layer_metrics(tracer: spans.Tracer, overhead: float) -> dict[str, float]:
    """Every PER_LAYER value; layers a workload does not run read 0.

    ``.s`` is self time (children subtracted), except ``neural.train.s``,
    which is the whole call; its self time is ``neural.train.other_s``.
    """
    recorded = tracer.spans
    own = spans.self_times(recorded)
    by_name: dict[str, list[int]] = {}
    for index, span in enumerate(recorded):
        by_name.setdefault(span.name, []).append(index)

    def self_s(name):
        return sum(own[i] for i in by_name.get(name, ()))

    def total(name, key):
        return sum(recorded[i].counters.get(key, 0) for i in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    out = {}
    for metric in PER_LAYER:
        layer, _, field = metric.rpartition(".")
        if field == "s":
            out[metric] = self_s(layer)
        elif field == "calls":
            out[metric] = calls(layer)
        elif field in ("mb", "gflop", "samples", "cells", "failed_cells"):
            out[metric] = total(layer, field)
    # one Q x R array, not the sum over calls
    out["matching_classic.contrast_enhance.mb"] = max(
        (recorded[i].counters["mb"] for i in by_name.get("matching_classic.contrast_enhance", ())),
        default=0.0,
    )
    trains = by_name.get("neural.train", ())
    out["neural.train.s"] = sum(recorded[i].duration for i in trains)
    out["neural.train.other_s"] = self_s("neural.train")
    # the slowest training call's median epoch, so the probe's toy epochs
    # do not stand in for the workload's own
    out["neural.train.epoch_s"] = max(
        (median(recorded[i].counters["epoch_s"]) for i in trains
         if recorded[i].counters.get("epoch_s")),
        default=0.0,
    )
    deploys = calls("matching_classic.delta_match")
    out["descriptors.delta_transform.calls_per_deploy"] = (
        calls("descriptors.delta_transform") / deploys if deploys else 0.0
    )
    sweeps = by_name.get("evaluation.ds_sweep", ())
    ratio, workers = 0.0, 0
    if sweeps:  # of the longest sweep: the workload's own, not the probe's
        longest = max(sweeps, key=lambda i: recorded[i].duration)
        ratio, workers = spans.busy_over_wall(recorded, longest)
    out["evaluation.ds_sweep.busy_over_wall"] = ratio
    out["evaluation.ds_sweep.workers"] = workers
    split = spans.accounting(recorded, tracer.wall)
    out["trace.wall_s"] = tracer.wall
    out["trace.untraced_s"] = split["untraced"]
    out["trace.overlap_s"] = split["overlap"]
    out["trace.overhead_s"] = overhead
    missing = set(PER_LAYER) - set(out)
    if missing:
        raise AssertionError(f"per-layer metrics not computed: {sorted(missing)}")
    return {k: float(out[k]) for k in PER_LAYER}

