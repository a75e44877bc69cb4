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

from .dataset import Traversal
from .descriptors import DeltaConfig, l2_normalize
from .matching_classic import MatchReport, SeqSlamConfig, delta_match, seqslam_match
from . import neural
from .synthetic import SynthPair


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
    with open(path, "w", encoding="ascii") as fh:
        if delta is not None:
            fh.write(f"# delta={delta}\n")
        fh.write(f"# auc={curve.auc!r}\n")
        fh.write("threshold,precision,recall\n")
        for th, pr, rc in zip(curve.thresholds, curve.precision, curve.recall):
            fh.write(f"{float(th)!r},{float(pr)!r},{float(rc)!r}\n")


def load_pr_csv(path) -> PRCurve:
    rows = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if line == "threshold,precision,recall":
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 fields")
            try:
                rows.append([float(v) for v in parts])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed row {line!r}") from None
    if not rows:
        raise ValueError(f"{path}: no curve points")
    arr = np.array(rows, dtype=np.float64)
    auc = float(np.trapezoid(arr[:, 1], arr[:, 2]))
    return PRCurve(thresholds=arr[:, 0], precision=arr[:, 1], recall=arr[:, 2], auc=auc)


def load_ground_truth(path) -> dict[int, int]:
    """Alignment override: one "query_index,reference_index" per line."""
    table: dict[int, int] = {}
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected query_index,reference_index")
            try:
                q, r = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            table[q] = r
    return table


Deploy = Callable[[Traversal], MatchReport]
Sink = Callable[[np.ndarray], None]


@dataclass(frozen=True)
class Method:
    """A matcher: prepare(reference, d_s) returns the deployment function.

    Preparation is the work done once per reference before any query: the
    deep method trains there. The classic methods only fix their config,
    and each of their deploys is one call into matching_classic
    (seqslam_match or delta_match) that streams the query in blocks and
    holds no Q x R matrix. Their reference-side work (the delta transform,
    the float64 unit rows of the distance GEMM) is a small share of a
    deploy and runs inside it, so a prepared matcher holds no float64 copy
    of the reference between deploys. Only the returned deploy callable is
    benchmarked. Traversals arrive as stored on disk; the LSTM normalizes
    rows itself.
    """

    name: str
    prepare: Callable[[Traversal, int], Deploy]


def seqslam_method(
    v_min: float = 0.8, v_max: float = 1.2, v_step: float = 0.04, r_window: int = 10,
    metric: str = "cosine", sink: Sink | None = None,
) -> Method:
    """Velocity-sweep SeqSLAM, one seqslam_match per deploy.

    A deploy holds no Q x R matrix unless sink is given: the sink receives
    each enhanced matrix, so only then is one built in full.
    """

    def prepare(reference: Traversal, d_s: int) -> Deploy:
        cfg = SeqSlamConfig(d_s=d_s, v_min=v_min, v_max=v_max, v_step=v_step, r_window=r_window)

        def deploy(query: Traversal) -> MatchReport:
            out = None
            if sink is not None:
                out = np.empty((query.frame_count, reference.frame_count))
            report = seqslam_match(query.descriptors, reference.descriptors, cfg, metric, out)
            if sink is not None:
                sink(out)
            return report

        return deploy

    return Method(name="seqslam", prepare=prepare)


def delta_window_for(d_s: int) -> int:
    """Smallest even difference window covering d_s frames (minimum 2)."""
    if d_s < 1:
        raise ValueError("d_s must be >= 1")
    return max(2, d_s + (d_s % 2))


def delta_method() -> Method:
    def prepare(reference: Traversal, d_s: int) -> Deploy:
        cfg = DeltaConfig(window=delta_window_for(d_s))

        def deploy(query: Traversal) -> MatchReport:
            return delta_match(query.descriptors, reference.descriptors, cfg)

        return deploy

    return Method(name="delta", prepare=prepare)


def trained_method(model: neural.SequenceModel, sink: Sink | None = None) -> Method:
    """The LSTM of a trained model; sink, if given, receives each activity matrix.
    prepare rejects a reference whose frame count or dim is not the model's.

    It deploys the model at checkpoint precision (float32 weights), so a model
    trained in this process deploys bit for bit like its saved checkpoint.
    """
    model = neural.at_checkpoint_precision(model)

    def prepare(reference: Traversal, d_s: int) -> Deploy:
        frames, dim = reference.frame_count, reference.descriptors.dim
        if (model.places, model.n) != (frames, dim):
            raise ValueError(f"checkpoint has {model.places} places of descriptor dim {model.n}, "
                             f"but the reference has {frames} frames of dim {dim}")

        def deploy(query: Traversal) -> MatchReport:
            # the model was trained on unit rows, so it is fed unit rows
            query = replace(query, descriptors=l2_normalize(query.descriptors))
            activity, report = neural.infer(model, query, d_s)
            if sink is not None:
                sink(activity)
            return report

        return deploy

    return Method(name="deep", prepare=prepare)


def deep_method(
    epochs: int = 100, lr: float = 0.01, hidden: int = 512, seed: int = 0
) -> Method:
    def prepare(reference: Traversal, d_s: int) -> Deploy:
        reference = replace(reference, descriptors=l2_normalize(reference.descriptors))
        model, _ = neural.train(
            reference, d_s, epochs=epochs, lr=lr, rng_seed=seed, hidden=hidden
        )
        return trained_method(model).prepare(reference, d_s)

    return Method(name="deep", prepare=prepare)


def thread_cap(value: int | None = None) -> int:
    """Worker budget: explicit value, else SEQPLACE_THREADS (0 = auto).

    No command reads it: ds_sweep runs its cells one after another."""
    if value is None:
        raw = os.environ.get("SEQPLACE_THREADS", "").strip()
        value = int(raw) if raw else 0
    if value < 0:
        raise ValueError("thread cap must be >= 0")
    if value == 0:
        return os.cpu_count() or 1
    return value


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
    pairs: list[SynthPair],
) -> list[SweepCell]:
    """AUC per (method, d_s, pair) at delta = d_s + 10, sorted by key.

    A cell failing with a domain error (those the CLI exits 3 on) gets auc
    None, its error and a stderr line; other exceptions abort the sweep.
    """

    def run(method: Method, d_s: int, pair: SynthPair) -> SweepCell:
        auc = error = None
        try:
            report = method.prepare(pair.reference, d_s)(pair.query)
            auc = pr_curve(report, tolerance_for(d_s)).auc
        except (ValueError, OSError, RuntimeError) as exc:
            error = f"{type(exc).__name__}: {exc}"
        return SweepCell(method.name, d_s, pair.query.name, auc, error)

    results = [run(m, d, p) for m in methods for d in ds_values for p in pairs]
    results.sort(key=lambda c: (c.method, c.d_s, c.query_name))
    for c in results:
        if c.error is not None:
            print(f"sweep: {c.method} d_s={c.d_s} {c.query_name} failed: {c.error}",
                  file=sys.stderr)
    return results


def save_sweep_csv(cells: list[SweepCell], path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("method,d_s,query_name,auc\n")
        for c in cells:
            auc = "" if c.auc is None else repr(c.auc)
            fh.write(f"{c.method},{c.d_s},{c.query_name},{auc}\n")


def load_sweep_csv(path) -> list[SweepCell]:
    cells = []
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != "method,d_s,query_name,auc":
            raise ValueError(f"{path}: unexpected sweep header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 fields")
            try:
                d_s, auc = int(parts[1]), None if parts[3] == "" else float(parts[3])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed row {line!r}") from None
            cells.append(SweepCell(parts[0], d_s, parts[2], auc))
    return cells


def _device_label() -> str:
    return f"{platform.machine() or 'cpu'}, {os.cpu_count() or 1} logical cores"


def benchmark(method: Method, pair: SynthPair, d_s: int, repetitions: int = 3) -> BenchResult:
    """Median deployment wall time; preparation stays outside the clock."""
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    deploy = method.prepare(pair.reference, d_s)
    times = []
    for _ in range(repetitions):
        tick = time.perf_counter()
        deploy(pair.query)
        times.append(time.perf_counter() - tick)
    return BenchResult(
        method=method.name,
        seconds=float(median(times)),
        frames=pair.query.frame_count,
        device=_device_label(),
    )


def save_bench_csv(results: list[BenchResult], path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("method,seconds,frames,device\n")
        for r in results:
            fh.write(f"{r.method},{r.seconds!r},{r.frames},{r.device}\n")
