"""Heuristic sequence matchers: SeqSLAM-style search and delta matching.

Both operate on a Q x R difference matrix between query and reference
descriptor sequences (rows = query frames, columns = reference frames).
SeqSLAM standardizes the matrix with a local contrast window, then sweeps
constant-velocity lines through it; delta matching is nearest-neighbor
retrieval in delta-descriptor space.

The SeqSLAM stages walk the matrix in blocks of query rows: contrast
enhancement writes one Q x R float64 output and the velocity search keeps
only per-query results, so a deploy holds about two Q x R float64 arrays
(the difference matrix and its enhanced copy) plus a few block-sized
scratch arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import DescriptorSequence
from .descriptors import DeltaConfig, delta_transform

METRICS = ("cosine", "euclidean")

# Bytes of one block of query rows in a Q x R float64 array. The blocked
# SeqSLAM stages keep a few arrays of this size, so they stay in a core's
# L2 cache while the full matrix does not.
_BLOCK_BYTES = 1 << 19


def _block_rows(n_ref: int) -> int:
    return max(1, _BLOCK_BYTES // (8 * n_ref))


@dataclass(frozen=True)
class _Fresh:
    """An array this module has just computed and holds no other reference
    to; DifferenceMatrix adopts it without a copy."""

    array: np.ndarray


@dataclass(frozen=True)
class DifferenceMatrix:
    """Pairwise distances; lower means more similar.

    The data is stored read-only. A caller's array is copied first, so it is
    never frozen or aliased.
    """

    data: np.ndarray
    metric: str

    def __post_init__(self):
        if isinstance(self.data, _Fresh):
            data = np.asarray(self.data.array, dtype=np.float64, order="C")
        else:
            data = np.array(self.data, dtype=np.float64, order="C")
        if data.ndim != 2 or data.shape[0] < 1 or data.shape[1] < 1:
            raise ValueError(f"difference matrix must be Q x R, got shape {data.shape}")
        if not np.isfinite(data).all():
            raise ValueError("difference matrix contains non-finite values")
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}, got {self.metric!r}")
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    @property
    def query_count(self) -> int:
        return self.data.shape[0]

    @property
    def reference_count(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class SeqSlamConfig:
    d_s: int = 10
    v_min: float = 0.8
    v_max: float = 1.2
    v_step: float = 0.04
    r_window: int = 10

    def __post_init__(self):
        if self.d_s < 1:
            raise ValueError("d_s must be >= 1")
        if not (0.0 < self.v_min <= self.v_max):
            raise ValueError("need 0 < v_min <= v_max")
        if self.v_step <= 0.0:
            raise ValueError("v_step must be > 0")
        if self.r_window < 1:
            raise ValueError("r_window must be >= 1")


@dataclass(frozen=True)
class MatchReport:
    """Per-query best reference frame with its score.

    higher_is_better records the score polarity so the evaluator can sweep
    thresholds uniformly across heuristic (distance) and learned
    (probability) matchers.
    """

    query_indices: np.ndarray
    best_ref: np.ndarray
    scores: np.ndarray
    higher_is_better: bool

    def __post_init__(self):
        qi = np.array(self.query_indices, dtype=np.int64)
        br = np.array(self.best_ref, dtype=np.int64)
        sc = np.array(self.scores, dtype=np.float64)
        if not (qi.shape == br.shape == sc.shape) or qi.ndim != 1 or qi.size == 0:
            raise ValueError("report fields must be equal-length nonempty 1-d arrays")
        if (br < 0).any():
            raise ValueError("reference indices must be >= 0")
        for name, arr in (("query_indices", qi), ("best_ref", br), ("scores", sc)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.query_indices)


def difference_matrix(
    query: DescriptorSequence, reference: DescriptorSequence, metric: str = "cosine"
) -> DifferenceMatrix:
    """Entry (q, r) is the distance between query row q and reference row r.

    Cosine distance is 1 - dot(a, b)/(|a||b|); any pair involving a zero
    vector gets distance 1. Euclidean is the plain L2 distance.
    """
    if query.dim != reference.dim:
        raise ValueError(f"descriptor dims differ: {query.dim} vs {reference.dim}")
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")
    a = query.data.astype(np.float64)
    b = reference.data.astype(np.float64)
    if metric == "cosine":
        na = np.linalg.norm(a, axis=1)
        nb = np.linalg.norm(b, axis=1)
        az = na == 0.0
        bz = nb == 0.0
        an = np.where(az, 1.0, na)
        bn = np.where(bz, 1.0, nb)
        dist = (a / an[:, None]) @ (b / bn[:, None]).T
        np.subtract(1.0, dist, out=dist)
        dist[az, :] = 1.0
        dist[:, bz] = 1.0
        np.clip(dist, 0.0, 2.0, out=dist)
    else:
        dist = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :]
        gram = a @ b.T
        gram *= 2.0
        dist -= gram
        del gram
        np.clip(dist, 0.0, None, out=dist)
        np.sqrt(dist, out=dist)
    return DifferenceMatrix(data=_Fresh(dist), metric=metric)


def contrast_enhance(matrix: DifferenceMatrix, r_window: int = 10) -> DifferenceMatrix:
    """Standardize each entry against its column over a local row window.

    Entry (q, r) becomes (M[q,r] - mu) / sigma where mu, sigma are the mean
    and population std of column r over rows [q - r_window, q + r_window]
    clamped to the matrix; windows with sigma < 1e-8 yield 0.

    The output is written block by block of query rows from running column
    sums of M and M*M, so besides the new Q x R matrix only block-sized
    scratch is held. The running sums are carried across blocks in row
    order, so every entry is bit-identical to one computed from whole-column
    prefix sums.
    """
    if r_window < 1:
        raise ValueError("r_window must be >= 1")
    data = matrix.data
    rows, cols = data.shape
    out = np.empty_like(data)
    step = min(_block_rows(cols), rows)
    # pre[j] and pre2[j] hold the column sums of data and data * data over
    # rows [0, base + j), for base + j in [base, top]: the prefix rows that
    # one block's windows reach
    span = min(step + 2 * r_window, rows) + 1
    pre = np.zeros((span, cols))
    pre2 = np.zeros((span, cols))
    base = top = 0
    means = np.empty((step, cols))
    stds = np.empty((step, cols))
    tmp = np.empty((step, cols))
    flat = np.empty((step, cols), dtype=bool)
    for b0 in range(0, rows, step):
        b1 = min(b0 + step, rows)
        q = np.arange(b0, b1)
        lo = np.maximum(q - r_window, 0)
        hi = np.minimum(q + r_window, rows - 1)
        first, last = int(lo[0]), int(hi[-1]) + 1
        held = slice(first - base, top - base + 1)
        pre[: held.stop - held.start] = pre[held]
        pre2[: held.stop - held.start] = pre2[held]
        base = first
        if last > top:
            new = slice(top - base + 1, last - base + 1)
            pre[new] = data[top:last]
            np.multiply(data[top:last], data[top:last], out=pre2[new])
            if top > 0:  # continue the running sums from row top
                pre[new.start] += pre[new.start - 1]
                pre2[new.start] += pre2[new.start - 1]
            for j in range(new.start + 1, new.stop):
                np.add(pre[j - 1], pre[j], out=pre[j])
                np.add(pre2[j - 1], pre2[j], out=pre2[j])
            top = last
        n = b1 - b0
        m, s, t, f = means[:n], stds[:n], tmp[:n], flat[:n]
        upper, lower = hi + 1 - base, lo - base
        count = (hi - lo + 1).astype(np.float64)[:, None]
        np.take(pre, upper, axis=0, out=m, mode="clip")
        m -= np.take(pre, lower, axis=0, out=t, mode="clip")
        m /= count
        np.take(pre2, upper, axis=0, out=s, mode="clip")
        s -= np.take(pre2, lower, axis=0, out=t, mode="clip")
        s /= count
        s -= np.multiply(m, m, out=t)
        np.clip(s, 0.0, None, out=s)
        np.sqrt(s, out=s)
        np.less(s, 1e-8, out=f)
        block = out[b0:b1]
        np.subtract(data[b0:b1], m, out=block)
        np.copyto(s, 1.0, where=f)
        block /= s
        np.copyto(block, 0.0, where=f)
    return DifferenceMatrix(data=_Fresh(out), metric=matrix.metric)


def velocity_grid(cfg: SeqSlamConfig) -> np.ndarray:
    """Sweep velocities v_min, v_min + v_step, ... capped at v_max."""
    count = int(round((cfg.v_max - cfg.v_min) / cfg.v_step)) + 1
    grid = cfg.v_min + cfg.v_step * np.arange(count)
    return grid[grid <= cfg.v_max + 1e-9]


def _offset_plan(vels: np.ndarray, d_s: int, n_ref: int) -> list[list]:
    """How to sample each (velocity, offset k >= 1) of the line search.

    The sample of reference r is column rint(r - v*k). That is almost always
    the shift r - s with s = rint(v*k): the entry is then a shift (clamped
    to n_ref). Where rounding half to even breaks the shift (v*k = 4.5, say)
    the entry is the gather (columns, out-of-range mask) instead.
    """
    refs = np.arange(n_ref)
    plan: list[list] = [[] for _ in vels]
    for k in range(1, d_s):
        raw = np.rint(refs[None, :] - vels[:, None] * k).astype(np.int64)
        for terms, cols, shift in zip(plan, raw, np.rint(vels * k).astype(np.int64)):
            if np.array_equal(cols, refs - shift):
                terms.append(min(int(shift), n_ref))
            else:
                bad = (cols < 0) | (cols >= n_ref)
                terms.append((np.where(bad, 0, cols), bad))
    return plan


def _add_sample(out, base, rows, maxes, term) -> None:
    """out = base + the samples of one (v, k) entry of the offset plan, taken
    from `rows` (the block's queries moved back by k) with row maxima
    `maxes` for out-of-range columns."""
    if isinstance(term, int):
        np.add(base[:, term:], rows[:, : rows.shape[1] - term], out=out[:, term:])
        np.add(base[:, :term], maxes[:, None], out=out[:, :term])
    else:
        cols, bad = term
        gathered = rows[:, cols]
        np.copyto(gathered, maxes[:, None], where=bad)
        np.add(base, gathered, out=out)


def _search_rows(data, row_max, plan, b0, b1, length, acc, best) -> None:
    """Least line cost per reference for queries [b0, b1), all of which use
    `length` offsets, left in `best`.

    Each velocity's sum adds the samples in the order k = 0, 1, ..., as the
    definition in `seqslam_search` does starting from 0.0. Two steps differ
    from that without changing a result: the sum starts from the offset-0
    sample, which can only turn a zero sum into -0.0 (the caller adds 0.0
    to the scores), and the division by `length` follows the minimum over
    velocities, which commutes with it because rounded division by a
    positive number is monotone.
    """
    first = data[b0:b1]
    for v, terms in enumerate(plan):
        out = best if v == 0 else acc
        if length == 1:
            out[...] = first
        for k in range(1, length):
            base = first if k == 1 else out
            _add_sample(out, base, data[b0 - k : b1 - k], row_max[b0 - k : b1 - k], terms[k - 1])
        if v > 0:
            np.minimum(best, acc, out=best)
    best /= length


def seqslam_search(matrix: DifferenceMatrix, cfg: SeqSlamConfig) -> MatchReport:
    """Constant-velocity line search through an (enhanced) difference matrix.

    For query q the trajectory ending at reference r with velocity v costs
    mean over k of M[q-k, round(r - v*k)]; samples whose reference index
    falls outside the matrix contribute the maximum of their query row
    instead. Queries earlier than d_s - 1 use the longest available prefix.
    Ties pick the lowest reference index.

    Queries are searched in blocks of rows; each (v, k) sample is a shifted
    slice of the block's rows (a gather only where rounding breaks the
    shift). Scratch is two block-sized arrays. The sums are taken in the
    order of k, so scores are bit-identical to a scalar evaluation of the
    definition.
    """
    data = matrix.data
    n_query, n_ref = data.shape
    if n_query < cfg.d_s:
        raise ValueError(f"need at least d_s={cfg.d_s} query frames, got {n_query}")
    plan = _offset_plan(velocity_grid(cfg), cfg.d_s, n_ref)
    row_max = data.max(axis=1)
    step = _block_rows(n_ref)
    acc = np.empty((step, n_ref))
    best = np.empty((step, n_ref))
    best_ref = np.empty(n_query, dtype=np.int64)
    scores = np.empty(n_query, dtype=np.float64)
    # queries before d_s - 1 see a shorter prefix each; the rest see d_s frames
    blocks = [(q, q + 1, q + 1) for q in range(cfg.d_s - 1)]
    blocks += [
        (b0, min(b0 + step, n_query), cfg.d_s) for b0 in range(cfg.d_s - 1, n_query, step)
    ]
    for b0, b1, length in blocks:
        n = b1 - b0
        _search_rows(data, row_max, plan, b0, b1, length, acc[:n], best[:n])
        winner = np.argmin(best[:n], axis=1)
        best_ref[b0:b1] = winner
        scores[b0:b1] = best[np.arange(n), winner] + 0.0
    return MatchReport(
        query_indices=np.arange(n_query),
        best_ref=best_ref,
        scores=scores,
        higher_is_better=False,
    )


def nearest_neighbor_match(
    query: DescriptorSequence, reference: DescriptorSequence, metric: str = "cosine"
) -> MatchReport:
    """Single-frame retrieval: per-query argmin of the difference matrix."""
    dist = difference_matrix(query, reference, metric).data
    best = np.argmin(dist, axis=1)
    return MatchReport(
        query_indices=np.arange(dist.shape[0]),
        best_ref=best,
        scores=dist[np.arange(dist.shape[0]), best],
        higher_is_better=False,
    )


def delta_match(
    query: DescriptorSequence, reference: DescriptorSequence, cfg: DeltaConfig
) -> MatchReport:
    """Nearest-neighbor matching in delta space, reported in frame indices.

    Only query frames with a full delta window are evaluated; retrieved
    indices are mapped back through the reference's frame-index map.
    """
    if query.frame_count < cfg.window or reference.frame_count < cfg.window:
        raise ValueError(
            f"both sequences need >= {cfg.window} frames "
            f"(got {query.frame_count} and {reference.frame_count})"
        )
    dq, q_frames = delta_transform(query, cfg)
    dr, r_frames = delta_transform(reference, cfg)
    dist = difference_matrix(dq, dr, "cosine").data
    best_cols = np.argmin(dist, axis=1)
    return MatchReport(
        query_indices=q_frames,
        best_ref=r_frames[best_cols],
        scores=dist[np.arange(dist.shape[0]), best_cols],
        higher_is_better=False,
    )
