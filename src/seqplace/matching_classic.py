"""Heuristic sequence matchers: SeqSLAM-style search and delta matching.

Both work on the distances between query and reference descriptor
sequences (rows = query frames, columns = reference frames). SeqSLAM
standardizes the Q x R difference matrix with a local contrast window, then
sweeps constant-velocity lines through it; delta matching is
nearest-neighbor retrieval in delta-descriptor space.

Distances are computed in blocks of query rows, one GEMM per block against
a float64 operand of the reference; only `difference_matrix` stores every
block. Every distance computation is one stream through a ring of block
buffers: two helper threads, the only ones that call BLAS and each at one
BLAS thread (`blas.one_thread`), compute the GEMMs of the blocks ahead
while the caller consumes the current one with elementwise work.
Nearest-neighbor and delta matching keep each row's argmin and its
distance, far less work than a GEMM, so they and `difference_matrix` keep
two GEMMs in flight, one per helper. `seqslam_match` keeps one block in
flight, so its views alternate between two buffers: a third would raise a
6000-column deploy's peak by 9 MB. When its caller had to wait for a block
(at paper scale the contrast and search take about half as long as the
GEMM), the helpers split the next block's GEMM at a bit-keeping seam where
`blas.cut` allows one, each filling one half of the block's buffer; a
caller that keeps pace gets one GEMM per block. Both baselines sum windows of
consecutive rows through one running-sum kernel, `descriptors._RunningSums`:
delta matching computes the query's delta rows a block at a time and fills
the reference operand the same way, so it holds no whole-query array and
no delta-transformed copy of either side. `seqslam_match` streams the
blocks through both SeqSLAM stages, which share one view (rows, origin) in
which rows[i] is row origin + i: a distance block after the
r_window + d_s - 1 rows before it. A run of rows is enhanced in place once
every row its windows reach is in the view, then searched in the view,
which still holds the d_s - 1 enhanced rows before the run. Besides the two
buffers its views alternate between, the stream holds the contrast window's
running sums and the Q row maxima, and no Q x R array.
`contrast_enhance` and `seqslam_search` drive the same two stages over a
whole matrix, so the stream gives their results bit for bit.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .blas import cut, one_thread
from .dataset import DescriptorSequence, _row_squares, _Vetted
from .descriptors import DeltaConfig, _delta_blocks, _RunningSums, unit_rows

METRICS = ("cosine", "euclidean")

# Bytes of one block of query rows in a Q x R float64 array. The blocked
# SeqSLAM stages keep a few arrays of this size, so they stay in a core's
# L2 cache while the full matrix does not.
_BLOCK_BYTES = 1 << 19


def _block_rows(n_ref: int) -> int:
    return max(1, _BLOCK_BYTES // (8 * n_ref))


# Query rows per GEMM of a distance computation. With one BLAS thread,
# OpenBLAS gives every entry the bits of one whole-matrix GEMM only when each
# block starts on a multiple of its dgemm kernel's row tile (24 rows on the
# SkylakeX kernel, where 16- or 256-row blocks change a few entries); 192 is
# a multiple of 24 and of the smaller tiles (4, 8, 16) of other kernels. A
# distance stream holds one block's buffer per block in flight and one that
# the caller reads: 384 rows for seqslam, 576 for the nearest-frame streams.
_DISTANCE_ROWS = 192

# The most velocities a SeqSLAM grid may hold. The search plans each velocity
# in one pass over (d_s - 1) x R reference columns, about 0.23 ms at R = 4096
# and d_s = 10 on one core, so 10001 velocities plan in about 2.3 s, as long
# as a whole deploy at paper scale. A finer grid adds no line to search: the
# 401 velocities of v_step 0.001, the finest grid the tests use, give 21.
_MAX_VELOCITIES = 10_001


@dataclass(frozen=True)
class DifferenceMatrix:
    """Pairwise distances; lower means more similar.

    The data is stored read-only as float64. A caller's array is copied
    and checked for non-finite values; a _Vetted array is adopted as it is.
    """

    data: np.ndarray
    metric: str

    def __post_init__(self):
        data, vetted = _Vetted.adopt(self.data, np.float64)
        if data.ndim != 2 or data.shape[0] < 1 or data.shape[1] < 1:
            raise ValueError(f"difference matrix must be Q x R, got shape {data.shape}")
        if vetted is None and not np.isfinite(data).all():
            raise ValueError("difference matrix contains non-finite values")
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}, got {self.metric!r}")
        data.flags.writeable = False
        object.__setattr__(self, "data", data)


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
        count = _grid_size(self)
        if count > _MAX_VELOCITIES:
            raise ValueError(f"the velocity grid from {self.v_min} to {self.v_max} in steps of "
                             f"{self.v_step} has {count:g} velocities, more than {_MAX_VELOCITIES}")


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


def _row_blocks(n_rows: int, step: int):
    """(b0, b1) of the blocks of step rows that cover [0, n_rows) in order. A
    block never has a single row unless n_rows is 1: a last block of one row
    joins the one before, since numpy hands a one-row product to GEMV, which
    sums in another order than GEMM."""
    b0 = 0
    while b0 < n_rows:
        b1 = n_rows if n_rows - b0 <= step + 1 else b0 + step
        yield b0, b1
        b0 = b1


def _distance_blocks(query, reference, metric, keep=0, ahead=2):
    """_distances of query's rows, in blocks of _DISTANCE_ROWS, against
    reference's rows cast to float64 (and scaled to unit norm by unit_rows
    for the cosine metric)."""
    if query.dim != reference.dim:
        raise ValueError(f"descriptor dims differ: {query.dim} vs {reference.dim}")
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")
    if metric == "cosine":
        b, _ = unit_rows(reference.data, np.empty(reference.data.shape))
    else:
        b = reference.data.astype(np.float64)
    n_query = query.frame_count
    blocks = (query.data[b0:b1] for b0, b1 in _row_blocks(n_query, _DISTANCE_ROWS))
    return _distances(blocks, n_query, b, metric, keep, ahead)


def _distances(blocks, n_query, b, metric, keep=0, ahead=2):
    """Yield (origin, rows): rows[i] holds the distances of query row
    origin + i to every row of the float64 reference operand b, whose rows
    have unit norm (or are zero) for the cosine metric. Each yield holds
    the next block of query rows, in row order, after up to `keep` rows of
    the ones before it.

    blocks yields the query's rows (float32, or any dtype the float64 cast
    is exact for) of each block of _row_blocks(n_query, _DISTANCE_ROWS), in
    order, so a source may compute them one block at a time; it may reuse
    its scratch for the next block. Rows are views of a ring of ahead + 1
    buffers that the blocks take in turn. A consumer may overwrite rows of
    the view, and the carried rows keep what it wrote: they are copied into
    the next block's buffer once the consumer has asked for that block.

    Two helper threads, the only ones that call BLAS, compute each block's
    GEMM and its elementwise finish up to `ahead` blocks ahead: while the
    caller consumes block i, they compute blocks i + 1 to i + ahead and the
    caller pulls the query rows of block i + ahead + 1 from blocks into a
    ring of ahead + 1 float64 row buffers (for the cosine metric normalized
    there by `unit_rows`). With ahead = 2 each helper runs one block. With
    ahead = 1, when the caller had to wait for block i (i > 0: it always
    waits for block 0), the two helpers split block i + 1 at the reference
    column that blas.cut gives for its shape, if any, and each fills its
    half of the block's view; a caller that keeps pace gets one GEMM per
    block. Which blocks are split depends on timing, but the buffers do not:
    every step is row-wise, each GEMM takes the same operands whichever
    thread runs it, and blas.cut allows only cuts that keep every bit of the
    whole GEMM, so the bits are those of a whole-query cast. The helpers run
    at one BLAS thread (blas.one_thread) and are gone once the stream ends,
    raises or is closed.
    """
    n_ref = b.shape[0]
    if metric == "cosine":
        b_zero = ~b.any(axis=1)
    else:
        b_sq = _row_squares(b)
    bounds = list(_row_blocks(n_query, _DISTANCE_ROWS))
    starts = [max(b0 - keep, 0) for b0, _ in bounds]  # origin of each block's view
    most = min(_DISTANCE_ROWS + 1, n_query)  # rows of the largest block
    slots = ahead + 1
    rows64 = np.empty((slots, most, b.shape[1]))
    views = np.empty((slots, min(keep + most, n_query), n_ref))

    def pull(i):
        """Block i's query rows in their slot of rows64, and for the
        euclidean metric their squared norms; runs on the calling thread."""
        b0, b1 = bounds[i]
        a = rows64[i % slots, : b1 - b0]
        new = next(blocks)
        if metric == "cosine":
            return unit_rows(new, a)[0], None
        a_sq = np.square(new, out=a, dtype=np.float64).sum(axis=1)  # a is scratch here
        a[...] = new
        return a, a_sq

    def compute(i, a, a_sq, c0, c1):
        """Columns [c0, c1) of block i's distances, in place in its slot of
        views; runs on a helper."""
        b0, b1 = bounds[i]
        block = views[i % slots, b0 - starts[i] : b1 - starts[i], c0:c1]
        np.matmul(a, b[c0:c1].T, out=block)
        if metric == "cosine":
            np.subtract(1.0, block, out=block)
            block[~a.any(axis=1), :] = 1.0
            block[:, b_zero[c0:c1]] = 1.0
            np.clip(block, 0.0, 2.0, out=block)
        else:
            # (|a|^2 + |b|^2) - 2ab, the formula's operations in its order,
            # a row at a time, so no block-sized temporary is held
            block *= 2.0
            for row, row_sq in zip(block, a_sq):
                np.subtract(row_sq + b_sq[c0:c1], row, out=row)
            np.clip(block, 0.0, None, out=block)
            np.sqrt(block, out=block)

    with one_thread(), ThreadPoolExecutor(max_workers=2) as pool:

        def submit(i, split, a, a_sq):
            seam = cut(len(a), b.shape[1], n_ref) if split else None
            parts = [(0, n_ref)] if seam is None else [(0, seam), (seam, n_ref)]
            return [pool.submit(compute, i, a, a_sq, c0, c1) for c0, c1 in parts]

        pending = deque(submit(i, False, *pull(i)) for i in range(min(ahead, len(bounds))))
        if ahead < len(bounds):
            pulled = pull(ahead)
        for i, (b0, b1) in enumerate(bounds):
            running = pending.popleft()
            waited = not all(part.done() for part in running)
            for part in running:
                part.result()
            rows = views[i % slots, : b1 - starts[i]]
            if i > 0:
                # the carried rows leave block i - 1's buffer before the
                # GEMM of block i + ahead may write there
                prev = starts[i - 1]
                rows[: b0 - starts[i]] = views[(i - 1) % slots, starts[i] - prev : b0 - prev]
            if i + ahead < len(bounds):
                pending.append(submit(i + ahead, ahead == 1 and waited and i > 0, *pulled))
            yield starts[i], rows
            if i + ahead + 1 < len(bounds):
                pulled = pull(i + ahead + 1)


def _nearest(blocks, n_query) -> tuple[np.ndarray, np.ndarray]:
    """Per query row of the (origin, rows) distance blocks, the first
    reference row at the least distance and that distance; the same as the
    argmin of the difference matrix."""
    best = np.empty(n_query, dtype=np.int64)
    scores = np.empty(n_query)
    with closing(blocks):
        for origin, rows in blocks:
            winner = np.argmin(rows, axis=1)
            best[origin : origin + len(rows)] = winner
            scores[origin : origin + len(rows)] = rows[np.arange(len(winner)), winner]
    return best, scores


def difference_matrix(
    query: DescriptorSequence, reference: DescriptorSequence, metric: str = "cosine"
) -> DifferenceMatrix:
    """Entry (q, r) is the distance between query row q and reference row r.

    Cosine distance is 1 - dot(a, b)/(|a||b|); any pair involving a zero
    vector gets distance 1. Euclidean is the plain L2 distance.
    """
    out = np.empty((query.frame_count, reference.frame_count))
    with closing(_distance_blocks(query, reference, metric)) as blocks:
        for origin, rows in blocks:
            out[origin : origin + len(rows)] = rows
    return DifferenceMatrix(data=_Vetted(out), metric=metric)


class _Contrast:
    """Contrast enhancement (see contrast_enhance) of a matrix M, one run of
    rows after another in row order.

    Its window sums are differences of one _RunningSums of M's rows and
    their squares, both channels of a row side by side, so every entry is
    the same to the bit as one from np.cumsum of the whole columns. The
    window of row q is prefix rows q - r to q + r + 1, clamped or not. The
    buffer holds a run's span and 2r more rows: the carried rows move every
    third run at 6000 columns and the default r_window.
    """

    def __init__(self, n_rows: int, n_cols: int, r_window: int):
        if r_window < 1:
            raise ValueError("r_window must be >= 1")
        self.r = min(r_window, n_rows)  # a wider window covers every row too
        self.step = min(_block_rows(n_cols), n_rows)  # rows per run
        self.sums = _RunningSums(n_rows, (2, n_cols), self.step + 4 * self.r + 1, -self.r)
        self.stats = np.empty((self.step, 2, n_cols))  # window means and stds
        self.flat = np.empty((self.step, n_cols), dtype=bool)

    def enhance(self, rows: np.ndarray, origin: int, r0: int, r1: int) -> np.ndarray:
        """Enhance rows [r0, r1) in place and return them as a view of rows.
        The run follows the one enhanced last (r0 = 0 first), and rows[i] is
        row origin + i of M for every row from r0 up to the last one the
        run's windows reach. The sums read no row before r0 again and read
        the run's rows before they are overwritten."""
        r, n, n_rows = self.r, r1 - r0, self.sums.n_rows

        def fill(dst, t0, t1):
            dst[:, 0] = rows[t0 - origin : t1 - origin]
            np.multiply(dst[:, 0], dst[:, 0], out=dst[:, 1])

        pre = self.sums.span(r0 - r, r1 + r, fill)  # pre[k] = P[r0 - r + k]
        q = np.arange(r0, r1)
        count = (np.minimum(q + r, n_rows - 1) - np.maximum(q - r, 0) + 1).astype(np.float64)
        stats = np.subtract(pre[2 * r + 1 : 2 * r + 1 + n], pre[:n], out=self.stats[:n])
        stats /= count[:, None, None]
        m, s = stats[:, 0], stats[:, 1]
        f = self.flat[:n]
        out = rows[r0 - origin : r1 - origin]
        out -= m
        s -= np.multiply(m, m, out=m)
        np.clip(s, 0.0, None, out=s)
        np.sqrt(s, out=s)
        np.less(s, 1e-8, out=f)
        flat = f.any()  # a flat window divides by 1 and yields 0
        if flat:
            np.copyto(s, 1.0, where=f)
        out /= s
        if flat:
            np.copyto(out, 0.0, where=f)
        return out


def contrast_enhance(matrix: DifferenceMatrix, r_window: int = 10) -> DifferenceMatrix:
    """Standardize each entry against its column over a local row window.

    Entry (q, r) becomes (M[q,r] - mu) / sigma where mu, sigma are the mean
    and population std of column r over rows [q - r_window, q + r_window]
    clamped to the matrix; windows with sigma < 1e-8 yield 0.

    The whole matrix goes through the contrast stage of `seqslam_match` as
    one view: a copy of it is enhanced in place, run by run of query rows,
    from running column sums, so besides that Q x R copy only run-sized
    scratch is held.
    """
    data = matrix.data.copy()
    stage = _Contrast(*data.shape, r_window)
    for r0 in range(0, len(data), stage.step):
        stage.enhance(data, 0, r0, min(r0 + stage.step, len(data)))
    return DifferenceMatrix(data=_Vetted(data), metric=matrix.metric)


def _grid_size(cfg: SeqSlamConfig) -> float:
    """Velocities in cfg's grid before the cap at v_max; inf if the ratio overflows."""
    return np.rint((cfg.v_max - cfg.v_min) / cfg.v_step) + 1


def velocity_grid(cfg: SeqSlamConfig) -> np.ndarray:
    """Sweep velocities v_min, v_min + v_step, ... capped at v_max."""
    grid = cfg.v_min + cfg.v_step * np.arange(int(_grid_size(cfg)))
    return grid[grid <= cfg.v_max + 1e-9]


def _offset_plan(vels: np.ndarray, d_s: int, n_ref: int) -> list[list]:
    """How to sample each distinct line of the search: per velocity, one
    entry for each offset k = 1 .. d_s - 1.

    The sample of reference r is column rint(r - v*k). That is almost always
    the shift r - s with s = rint(v*k): the entry is then a shift (clamped
    to n_ref). Where rounding half to even breaks the shift (v*k = 4.5, say)
    the entry is the gather (columns, out-of-range mask) instead.

    Velocities that sample the same columns at every offset have equal line
    costs, and the minimum over equal arrays is that array, so only the
    first of them is planned: the default grid gives 1 plan at d_s = 2 and 9
    at d_s = 10.
    """
    refs = np.arange(n_ref)
    ks = np.arange(1, d_s)
    seen: set[bytes] = set()
    plan: list[list] = []
    for v in vels:
        cols = np.rint(refs - v * ks[:, None]).astype(np.int64)
        key = cols.tobytes()
        if key in seen:
            continue
        seen.add(key)
        terms: list = []
        for k_cols, shift in zip(cols, np.rint(v * ks).astype(np.int64)):
            if np.array_equal(k_cols, refs - shift):
                terms.append(min(int(shift), n_ref))
            else:
                bad = (k_cols < 0) | (k_cols >= n_ref)
                terms.append((np.where(bad, 0, k_cols), bad))
        plan.append(terms)
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


class _Search:
    """The velocity search (see seqslam_search) of queries whose enhanced
    rows arrive in order; it keeps only per-query results and two
    block-sized scratch arrays."""

    def __init__(self, n_query: int, n_ref: int, cfg: SeqSlamConfig):
        if n_query < cfg.d_s:
            raise ValueError(f"need at least d_s={cfg.d_s} query frames, got {n_query}")
        self.d_s = cfg.d_s
        self.plan = _offset_plan(velocity_grid(cfg), cfg.d_s, n_ref)
        self.step = _block_rows(n_ref)
        self.acc = np.empty((self.step, n_ref))
        self.best = np.empty((self.step, n_ref))
        self.best_ref = np.empty(n_query, dtype=np.int64)
        self.scores = np.empty(n_query, dtype=np.float64)

    def search(self, data, row_max, origin: int, q0: int, q1: int) -> None:
        """Search queries [q0, q1). data[i] is enhanced row origin + i, with
        maximum row_max[i]; data holds every row their lines reach."""
        d_s, step = self.d_s, self.step
        # queries before d_s - 1 see a shorter prefix each; the rest see d_s frames
        blocks = [(q, q + 1, q + 1) for q in range(q0, min(q1, d_s - 1))]
        blocks += [(b0, min(b0 + step, q1), d_s) for b0 in range(max(q0, d_s - 1), q1, step)]
        for b0, b1, length in blocks:
            n = b1 - b0
            best = self.best[:n]
            _search_rows(data, row_max, self.plan, b0 - origin, b1 - origin, length,
                         self.acc[:n], best)
            winner = np.argmin(best, axis=1)
            self.best_ref[b0:b1] = winner
            self.scores[b0:b1] = best[np.arange(n), winner] + 0.0

    def report(self) -> MatchReport:
        return MatchReport(
            query_indices=np.arange(len(self.best_ref)),
            best_ref=self.best_ref,
            scores=self.scores,
            higher_is_better=False,
        )


def seqslam_search(matrix: DifferenceMatrix, cfg: SeqSlamConfig) -> MatchReport:
    """Constant-velocity line search through an (enhanced) difference matrix.

    For query q the trajectory ending at reference r with velocity v costs
    mean over k of M[q-k, round(r - v*k)]; samples whose reference index
    falls outside the matrix contribute the maximum of their query row
    instead. Queries earlier than d_s - 1 use the longest available prefix.
    Ties pick the lowest reference index.

    The whole matrix goes through the search stage of `seqslam_match`.
    Queries are searched in blocks of rows; each (v, k) sample is a shifted
    slice of the block's rows (a gather only where rounding breaks the
    shift), and velocities that sample the same columns at every offset are
    searched once. Scratch is two block-sized arrays. The sums are taken in
    the order of k, so scores are bit-identical to a scalar evaluation of
    the definition.
    """
    data = matrix.data
    stage = _Search(*data.shape, cfg)
    stage.search(data, data.max(axis=1), 0, 0, data.shape[0])
    return stage.report()


def seqslam_match(
    query: DescriptorSequence,
    reference: DescriptorSequence,
    cfg: SeqSlamConfig,
    metric: str = "cosine",
    out: np.ndarray | None = None,
) -> MatchReport:
    """SeqSLAM of query against reference without a Q x R matrix.

    The report is bit for bit that of
    seqslam_search(contrast_enhance(difference_matrix(query, reference,
    metric), cfg.r_window), cfg). The query is walked once in distance
    blocks; each run of rows is enhanced in place in the blocks' view as
    soon as the rows its windows reach have arrived, and searched right
    after in that view. If out (Q x R, float64 or float32) is given, the
    enhanced rows are written into it as well, rounded to out's dtype.

    No stage checks for non-finite values: descriptor rows are finite
    float32, so cosine distances lie in [0, 2] and euclidean ones below
    about 1e44 (n < 2^32 terms of at most (2 * 3.4e38)^2 each); squares of
    those, their running sums over fewer than 2^32 rows, the window
    statistics and d_s-term line costs all stay far below float64's 1.8e308.
    """
    n_query, n_ref = query.frame_count, reference.frame_count
    if out is not None and out.shape != (n_query, n_ref):
        raise ValueError(f"out must be {n_query} x {n_ref}, got shape {out.shape}")
    search = _Search(n_query, n_ref, cfg)
    contrast = _Contrast(n_query, n_ref, cfg.r_window)
    row_max = np.empty(n_query)
    done = 0  # rows [0, done) are enhanced
    keep = cfg.r_window + cfg.d_s - 1
    with closing(_distance_blocks(query, reference, metric, keep=keep, ahead=1)) as blocks:
        for origin, rows in blocks:
            b1 = origin + len(rows)
            # a row is complete once the rows up to r_window after it are in
            end = n_query if b1 == n_query else b1 - cfg.r_window
            for r0 in range(done, end, contrast.step):
                r1 = min(r0 + contrast.step, end)
                run = contrast.enhance(rows, origin, r0, r1)
                np.max(run, axis=1, out=row_max[r0:r1])
                if out is not None:
                    out[r0:r1] = run
                search.search(rows, row_max[origin:], origin, r0, r1)
            done = max(done, end)
    return search.report()


def nearest_neighbor_match(
    query: DescriptorSequence, reference: DescriptorSequence, metric: str = "cosine"
) -> MatchReport:
    """Single-frame retrieval: per-query argmin of the difference matrix."""
    blocks = _distance_blocks(query, reference, metric)
    best, scores = _nearest(blocks, query.frame_count)
    return MatchReport(
        query_indices=np.arange(query.frame_count),
        best_ref=best,
        scores=scores,
        higher_is_better=False,
    )


def _delta_rows(data: np.ndarray, window: int, bounds):
    """Yield the rows of delta_transform(data) for each (b0, b1) of bounds
    (see _delta_blocks), rounded to float32 as a DescriptorSequence rounds
    them, in a float64 block."""
    for raw in _delta_blocks(data, window, bounds):
        unit_rows(raw, raw)
        raw[...] = raw.astype(np.float32)
        yield raw


def _delta_operand(data: np.ndarray, window: int) -> np.ndarray:
    """The cosine operand of _distances for delta_transform(data)'s rows,
    filled a block of rows at a time."""
    n = data.shape[0] - window + 1
    b = np.empty((n, data.shape[1]))
    bounds = list(_row_blocks(n, _DISTANCE_ROWS))
    for (b0, b1), rows in zip(bounds, _delta_rows(data, window, bounds)):
        b[b0:b1] = rows
    return unit_rows(b, b)[0]


def delta_match(
    query: DescriptorSequence, reference: DescriptorSequence, cfg: DeltaConfig
) -> MatchReport:
    """Nearest-neighbor matching in delta space, reported in frame indices.

    Only query frames with a full delta window are evaluated; retrieved
    indices are mapped back through the reference's frame-index map.

    The result is bit for bit that of delta_transform on both sides, then
    nearest_neighbor_match, without either transform's whole arrays. Both
    sides are delta rows computed a block at a time, each of which takes
    delta_transform's steps and then the distance GEMM's: unit_rows,
    rounding to float32, unit_rows again. The reference's rows fill its
    float64 operand; the query's stream into the distance blocks, so the
    query side holds only block-sized scratch.
    """
    if query.frame_count < cfg.window or reference.frame_count < cfg.window:
        raise ValueError(
            f"both sequences need >= {cfg.window} frames "
            f"(got {query.frame_count} and {reference.frame_count})"
        )
    if query.dim != reference.dim:
        raise ValueError(f"descriptor dims differ: {query.dim} vs {reference.dim}")
    b = _delta_operand(reference.data, cfg.window)
    n_query = query.frame_count - cfg.window + 1
    query_rows = _delta_rows(query.data, cfg.window, list(_row_blocks(n_query, _DISTANCE_ROWS)))
    best, scores = _nearest(_distances(query_rows, n_query, b, "cosine"), n_query)
    half = cfg.window // 2
    return MatchReport(
        query_indices=np.arange(half, query.frame_count - half + 1),
        best_ref=best + half,
        scores=scores,
        higher_is_better=False,
    )
