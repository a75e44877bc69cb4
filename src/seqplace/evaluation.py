"""Correctness tolerance, precision-recall curves, d_s sweeps, benchmarks.

A retrieved reference frame counts as correct when it lies within delta
frames of the true one, with delta = d_s + 10 unless overridden. Ground
truth defaults to identity alignment (query frame q corresponds to
reference frame q); an override table handles other alignments.
"""

from __future__ import annotations

import os
import platform
import sys
import time
from dataclasses import dataclass, replace
from statistics import median
from typing import Callable

import numpy as np

from .dataset import MatchReport, Traversal, read_table, refuse_rows, write_table
from .descriptors import DeltaConfig
from .matching_classic import SeqSlamConfig, delta_match, seqslam_match
from . import neural

_PR_HEADER = "threshold,precision,recall"
_SWEEP_HEADER = "method,d_s,query_name,auc"
# the failures a command exits 3 on and a sweep cell fails alone on
RUN_ERRORS = (ValueError, OSError, RuntimeError, MemoryError, ArithmeticError)


def tolerance_for(d_s: int) -> int:
    """Correctness slack in frames for a given sequence length."""
    if d_s < 1:
        raise ValueError(f"d_s must be >= 1, got {d_s}")
    return d_s + 10


def is_correct(retrieved: int, true_index: int, delta: int) -> bool:
    if delta < 0:
        raise ValueError("delta must be >= 0")
    return abs(int(retrieved) - int(true_index)) <= delta


@dataclass(frozen=True)
class PRCurve:
    """Precision/recall swept from strictest to loosest score threshold.

    The first point is the zero-retrieval anchor (precision 1, recall 0 by
    convention) so a perfect matcher integrates to exactly 1.
    """

    thresholds: np.ndarray
    precision: np.ndarray
    recall: np.ndarray
    auc: float

    def __post_init__(self):
        th = np.array(self.thresholds, dtype=np.float64)
        pr = np.array(self.precision, dtype=np.float64)
        rc = np.array(self.recall, dtype=np.float64)
        if not (th.shape == pr.shape == rc.shape) or th.ndim != 1 or th.size == 0:
            raise ValueError("curve fields must be equal-length nonempty 1-d arrays")
        if pr.min() < 0.0 or pr.max() > 1.0 or rc.min() < 0.0 or rc.max() > 1.0:
            raise ValueError("precision and recall must lie in [0, 1]")
        if np.any(np.diff(rc) < 0.0):
            raise ValueError("recall must be nondecreasing along the sweep")
        if not 0.0 <= self.auc <= 1.0:
            raise ValueError(f"auc must lie in [0, 1], got {self.auc}")
        for name, arr in (("thresholds", th), ("precision", pr), ("recall", rc)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.thresholds)


@dataclass(frozen=True)
class BenchResult:
    """Median deployment wall time for one matcher on one traversal pair."""

    method: str
    seconds: float
    frames: int
    device: str

    def __post_init__(self):
        if not self.seconds > 0.0:
            raise ValueError("seconds must be > 0")
        if self.frames < 1:
            raise ValueError("frames must be >= 1")


def pr_curve(report: MatchReport, delta: int, ground_truth: dict[int, int] | None = None) -> PRCurve:
    """Threshold sweep over match scores, honoring the report's polarity.

    At each threshold: retrieved = queries whose score passes, precision =
    correct/retrieved, recall = correct/total queries; AUC is the
    trapezoidal area over recall.
    """
    if delta < 0:
        raise ValueError("delta must be >= 0")
    queries = report.query_indices
    if ground_truth is None:
        truth = queries
    else:
        missing = [int(q) for q in queries if int(q) not in ground_truth]
        if missing:
            raise ValueError(f"ground truth missing query indices {missing[:5]}")
        truth = np.array([ground_truth[int(q)] for q in queries], dtype=np.int64)
    correct = np.abs(report.best_ref - truth) <= delta
    scores = report.scores
    order = np.argsort(-scores if report.higher_is_better else scores, kind="stable")
    sorted_scores = scores[order]
    cum_correct = np.cumsum(correct[order])
    total = len(report)
    # one point per distinct score, taken after its whole tie group enters
    last_in_group = np.flatnonzero(
        np.concatenate([sorted_scores[1:] != sorted_scores[:-1], [True]])
    )
    anchor = np.inf if report.higher_is_better else -np.inf
    thresholds = np.concatenate([[anchor], sorted_scores[last_in_group]])
    precision = np.concatenate([[1.0], cum_correct[last_in_group] / (last_in_group + 1)])
    recall = np.concatenate([[0.0], cum_correct[last_in_group] / total])
    auc = float(np.trapezoid(precision, recall))
    return PRCurve(thresholds=thresholds, precision=precision, recall=recall, auc=auc)


def save_pr_csv(curve: PRCurve, path, delta: int | None = None) -> None:
    meta = ([] if delta is None else [("delta", delta)]) + [("auc", curve.auc)]
    write_table(path, _PR_HEADER, zip(curve.thresholds, curve.precision, curve.recall), meta)


def load_pr_csv(path) -> PRCurve:
    (thresholds, precision, recall), _, lines = read_table(path, _PR_HEADER)
    if not lines:
        raise ValueError(f"{path}: no curve points")
    auc = float(np.trapezoid(precision, recall))
    return PRCurve(thresholds=thresholds, precision=precision, recall=recall, auc=auc)


def load_ground_truth(path) -> dict[int, int]:
    """Alignment override: one "query_index,reference_index" row per query index,
    both >= 0."""
    (queries, refs), _, lines = read_table(path, fields=(int, int))
    refuse_rows(path, lines, ((queries < 0, "negative query index"),
                              (refs < 0, "negative reference index")))
    first: dict[int, int] = {}
    for q, lineno in zip(queries.tolist(), lines):
        if first.setdefault(q, lineno) != lineno:
            raise ValueError(f"{path}:{lineno}: query index {q} repeats line {first[q]}")
    return dict(zip(queries.tolist(), refs.tolist()))


Deploy = Callable[..., MatchReport]  # deploy(query), and deploy(query, out) where a matrix exists
Pair = tuple[Traversal, Traversal]  # (reference, query); a SynthPair unpacks into one


@dataclass(frozen=True)
class Method:
    """A matcher: prepare(reference, d_s) returns the deployment function.

    Preparation is the work done once per reference before any query: the
    deep method trains there. Each deploy is one call (seqslam_match,
    delta_match or neural.lstm_match) that streams the query in blocks,
    keeps each row's best match and holds no whole-query copy. The seqslam
    and deep deploys take an optional out, a Q x R array that the caller
    allocates and owns (float32 or float64), and write their matrix into it;
    without one they hold no Q x R matrix. The classic matchers'
    reference-side work is a small share of a deploy and runs inside it,
    so a prepared matcher holds no float64 copy of the reference between
    deploys. Only the returned deploy callable is benchmarked. Traversals
    arrive as stored on disk; each matcher, and neural.train, scales rows
    itself. window(d_s) is the fewest frames a traversal needs at d_s.
    """

    name: str
    prepare: Callable[[Traversal, int], Deploy]
    window: Callable[[int], int] = lambda d_s: d_s


def seqslam_method(
    v_min: float = 0.8, v_max: float = 1.2, v_step: float = 0.04, r_window: int = 10,
    metric: str = "cosine",
) -> Method:
    """Velocity-sweep SeqSLAM, one seqslam_match per deploy; deploy(query,
    out) also writes the enhanced matrix into out. A ValueError here, before
    any reference is prepared, if the velocity grid is out of bounds."""
    config = SeqSlamConfig(v_min=v_min, v_max=v_max, v_step=v_step, r_window=r_window)

    def prepare(reference: Traversal, d_s: int) -> Deploy:
        cfg = replace(config, d_s=d_s)

        def deploy(query: Traversal, out: np.ndarray | None = None) -> MatchReport:
            return seqslam_match(query.descriptors, reference.descriptors, cfg, metric, out)

        return deploy

    return Method(name="seqslam", prepare=prepare)


def delta_window_for(d_s: int) -> int:
    """Smallest even difference window covering d_s frames (minimum 2)."""
    if d_s < 1:
        raise ValueError("d_s must be >= 1")
    return max(2, d_s + (d_s % 2))


def delta_method() -> Method:
    """Delta matching, one delta_match per deploy; prepare raises ValueError
    if the reference is shorter than d_s's delta window."""

    def prepare(reference: Traversal, d_s: int) -> Deploy:
        cfg = DeltaConfig(window=delta_window_for(d_s))
        if reference.frame_count < cfg.window:
            raise ValueError(f"the reference has {reference.frame_count} frames, fewer than "
                             f"the delta window of {cfg.window} frames for d_s={d_s}")

        def deploy(query: Traversal) -> MatchReport:
            return delta_match(query.descriptors, reference.descriptors, cfg)

        return deploy

    return Method(name="delta", prepare=prepare, window=delta_window_for)


def trained_method(model: neural.SequenceModel) -> Method:
    """The LSTM of a trained model, deployed as trained_deploy deploys it.

    It deploys the model at checkpoint precision (float32 weights), so a model
    trained in this process deploys bit for bit like its saved checkpoint.
    """
    model = neural.at_checkpoint_precision(model)

    def prepare(reference: Traversal, d_s: int) -> Deploy:
        return trained_deploy(model, reference.frame_count, reference.descriptors.dim, d_s)

    return Method(name="deep", prepare=prepare)


def trained_deploy(model: neural.SequenceModel, frames: int, dim: int, d_s: int) -> Deploy:
    """The deploy of a model against a reference of `frames` frames of
    descriptor dim `dim`, which is all the LSTM needs of the reference; a
    ValueError if they are not the model's. deploy(query, out) also writes
    the activity matrix into out."""
    if (model.places, model.n) != (frames, dim):
        raise ValueError(f"checkpoint has {model.places} places of descriptor dim {model.n}, "
                         f"but the reference has {frames} frames of dim {dim}")

    def deploy(query: Traversal, out: np.ndarray | None = None) -> MatchReport:
        return neural.lstm_match(model, query, d_s, out)

    return deploy


def deep_method(
    epochs: int = 100, lr: float = 0.01, hidden: int = 512, seed: int = 0
) -> Method:
    def prepare(reference: Traversal, d_s: int) -> Deploy:
        model, _ = neural.train(
            reference, d_s, epochs=epochs, lr=lr, rng_seed=seed, hidden=hidden
        )
        return trained_method(model).prepare(reference, d_s)

    return Method(name="deep", prepare=prepare)


@dataclass(frozen=True)
class SweepCell:
    """One (method, d_s, query) evaluation; auc None when the cell failed,
    error then "TypeName: message" of the exception that failed it."""

    method: str
    d_s: int
    query_name: str
    auc: float | None
    error: str | None = None


def ds_sweep(
    methods: list[Method],
    ds_values: list[int],
    pairs: list[Pair],
) -> list[SweepCell]:
    """AUC per (method, d_s, pair) at delta = d_s + 10, sorted by key.

    A cell failing with one of RUN_ERRORS (those the CLI exits 3 on) gets
    auc None, its error and a stderr line; other exceptions abort the sweep.
    """

    def run(method: Method, d_s: int, reference: Traversal, query: Traversal) -> SweepCell:
        auc = error = None
        try:
            report = method.prepare(reference, d_s)(query)
            auc = pr_curve(report, tolerance_for(d_s)).auc
        except RUN_ERRORS as exc:
            error = f"{type(exc).__name__}: {exc}"
        return SweepCell(method.name, d_s, query.name, auc, error)

    results = [run(m, d, *p) for m in methods for d in ds_values for p in pairs]
    results.sort(key=lambda c: (c.method, c.d_s, c.query_name))
    for c in results:
        if c.error is not None:
            print(f"sweep: {c.method} d_s={c.d_s} {c.query_name} failed: {c.error}",
                  file=sys.stderr)
    return results


def save_sweep_csv(cells: list[SweepCell], path) -> None:
    write_table(path, _SWEEP_HEADER, ((c.method, c.d_s, c.query_name, c.auc) for c in cells))


def _optional_float(text: str) -> float | None:
    return None if text == "" else float(text)


def load_sweep_csv(path) -> list[SweepCell]:
    kinds = (str, int, str, _optional_float)
    (methods, ds, names, aucs), _, _ = read_table(path, _SWEEP_HEADER, kinds)
    return [SweepCell(*cell) for cell in zip(methods, ds.tolist(), names, aucs)]


def benchmark(method: Method, pair: Pair, d_s: int, repetitions: int = 3) -> BenchResult:
    """Median deployment wall time; preparation stays outside the clock."""
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    reference, query = pair
    deploy = method.prepare(reference, d_s)
    times = []
    for _ in range(repetitions):
        tick = time.perf_counter()
        deploy(query)
        times.append(time.perf_counter() - tick)
    return BenchResult(
        method=method.name,
        seconds=float(median(times)),
        frames=query.frame_count,
        device=f"{platform.machine() or 'cpu'} ({os.cpu_count() or 1} logical cores)",
    )


def save_bench_csv(results: list[BenchResult], path) -> None:
    write_table(path, "method,seconds,frames,device",
                ((r.method, r.seconds, r.frames, r.device) for r in results))
