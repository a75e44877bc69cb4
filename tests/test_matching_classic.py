import re
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from oracles import seqslam_oracle

from seqplace import blas, dataset, matching_classic
from seqplace.dataset import DescriptorSequence
from seqplace.descriptors import DeltaConfig, delta_transform
from seqplace.matching_classic import (
    METRICS,
    DifferenceMatrix,
    MatchReport,
    SeqSlamConfig,
    contrast_enhance,
    delta_match,
    difference_matrix,
    nearest_neighbor_match,
    seqslam_match,
    seqslam_search,
    velocity_grid,
)


def _seq(rng: np.random.Generator, frames: int, dim: int) -> DescriptorSequence:
    return DescriptorSequence(data=rng.standard_normal((frames, dim)).astype(np.float32))


def test_cosine_matrix_matches_direct_formula():
    rng = np.random.default_rng(1)
    q = _seq(rng, 7, 5)
    r = _seq(rng, 9, 5)
    got = difference_matrix(q, r, "cosine").data
    a = q.data.astype(np.float64)
    b = r.data.astype(np.float64)
    for i in range(7):
        for j in range(9):
            want = 1.0 - a[i] @ b[j] / (np.linalg.norm(a[i]) * np.linalg.norm(b[j]))
            assert abs(got[i, j] - want) < 1e-10
    assert got.min() >= 0.0 and got.max() <= 2.0


def test_cosine_matrix_zero_vector_and_self_similarity():
    q = DescriptorSequence(data=np.array([[0.0, 0.0], [1.0, 0.0]], dtype=np.float32))
    r = DescriptorSequence(data=np.array([[0.0, 2.0], [3.0, 0.0]], dtype=np.float32))
    got = difference_matrix(q, r, "cosine").data
    assert got[0, 0] == 1.0 and got[0, 1] == 1.0
    assert abs(got[1, 1]) < 1e-12  # parallel vectors
    assert abs(got[1, 0] - 1.0) < 1e-12  # orthogonal vectors


def test_euclidean_matrix_matches_norm():
    rng = np.random.default_rng(2)
    q = _seq(rng, 6, 4)
    r = _seq(rng, 5, 4)
    got = difference_matrix(q, r, "euclidean").data
    a = q.data.astype(np.float64)
    b = r.data.astype(np.float64)
    for i in range(6):
        for j in range(5):
            assert abs(got[i, j] - np.linalg.norm(a[i] - b[j])) < 1e-9


def test_difference_matrix_symmetry_and_validation():
    rng = np.random.default_rng(3)
    q = _seq(rng, 4, 6)
    r = _seq(rng, 5, 6)
    for metric in ("cosine", "euclidean"):
        ab = difference_matrix(q, r, metric).data
        ba = difference_matrix(r, q, metric).data
        assert np.allclose(ab, ba.T, atol=1e-9)
    with pytest.raises(ValueError):
        difference_matrix(q, _seq(rng, 5, 7))
    with pytest.raises(ValueError):
        difference_matrix(q, r, "manhattan")
    with pytest.raises(ValueError):
        DifferenceMatrix(data=np.array([[np.inf]]), metric="cosine")
    for shape in ((3,), (0, 3), (3, 0), (2, 2, 2)):
        with pytest.raises(ValueError, match=re.escape(f"must be Q x R, got shape {shape}")):
            DifferenceMatrix(data=np.zeros(shape), metric="cosine")
    with pytest.raises(ValueError, match="metric must be one of"):
        DifferenceMatrix(data=np.ones((2, 3)), metric="manhattan")
    # a caller's array is copied: it stays writable and unshared
    mine = np.ones((2, 3))
    held = DifferenceMatrix(data=mine, metric="cosine").data
    assert mine.flags.writeable and not np.shares_memory(mine, held)
    assert not held.flags.writeable


def _enhance_oracle(data: np.ndarray, r_window: int) -> np.ndarray:
    rows, cols = data.shape
    out = np.zeros_like(data)
    for q in range(rows):
        lo = max(q - r_window, 0)
        hi = min(q + r_window, rows - 1)
        for r in range(cols):
            window = data[lo : hi + 1, r]
            std = window.std()  # population std
            if std < 1e-8:
                out[q, r] = 0.0
            else:
                out[q, r] = (data[q, r] - window.mean()) / std
    return out


def test_contrast_enhance_matches_window_oracle():
    rng = np.random.default_rng(4)
    for _ in range(10):
        rows = int(rng.integers(3, 30))
        cols = int(rng.integers(2, 20))
        win = int(rng.integers(1, 8))
        data = rng.uniform(0.0, 2.0, size=(rows, cols))
        matrix = DifferenceMatrix(data=data, metric="cosine")
        got = contrast_enhance(matrix, win).data
        assert np.allclose(got, _enhance_oracle(data, win), atol=1e-9)


def _enhance_cumsum(data: np.ndarray, r_window: int) -> np.ndarray:
    """contrast_enhance from whole-column np.cumsum prefix sums."""
    rows, cols = data.shape
    pre = np.zeros((rows + 1, cols))
    pre2 = np.zeros((rows + 1, cols))
    np.cumsum(data, axis=0, out=pre[1:])
    np.cumsum(data * data, axis=0, out=pre2[1:])
    q = np.arange(rows)
    lo = np.maximum(q - r_window, 0)
    hi = np.minimum(q + r_window, rows - 1)
    count = (hi - lo + 1).astype(np.float64)[:, None]
    mean = (pre[hi + 1] - pre[lo]) / count
    var = (pre2[hi + 1] - pre2[lo]) / count - mean * mean
    std = np.sqrt(np.clip(var, 0.0, None))
    flat = std < 1e-8
    out = (data - mean) / np.where(flat, 1.0, std)
    out[flat] = 0.0
    return out


def test_contrast_enhance_equals_whole_column_prefix_sums_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(21)
    for rows, cols in ((1, 3), (5, 4), (29, 6), (64, 5)):
        mixed = rng.uniform(0.0, 2.0, size=(rows, cols))
        # few distinct values, signed zeros among them: flat and tied windows
        coarse = rng.choice(np.array([-0.0, 0.0, 0.5, 1.0]), size=(rows, cols))
        for block_rows in (None, 1, 3, 7, 16):
            if block_rows is not None:
                monkeypatch.setattr(matching_classic, "_BLOCK_BYTES", 8 * cols * block_rows)
            for data in (mixed, coarse):
                matrix = DifferenceMatrix(data=data, metric="cosine")
                for win in (1, 2, 9, rows, rows + 5):
                    label = (rows, cols, block_rows, win)
                    got = contrast_enhance(matrix, win).data
                    _assert_same_bits(got, _enhance_cumsum(data, win), label)


def test_contrast_enhance_needs_a_window_of_one_row_or_more():
    matrix = DifferenceMatrix(data=np.ones((4, 3)), metric="cosine")
    with pytest.raises(ValueError, match="r_window must be >= 1"):
        contrast_enhance(matrix, 0)


def test_contrast_enhance_flat_column_is_zero():
    data = np.ones((6, 3))
    data[:, 2] = np.arange(6.0)
    got = contrast_enhance(DifferenceMatrix(data=data, metric="cosine"), 2).data
    assert np.all(got[:, 0] == 0.0) and np.all(got[:, 1] == 0.0)
    assert np.any(got[:, 2] != 0.0)


def test_contrast_enhance_column_affine_invariance():
    rng = np.random.default_rng(5)
    data = rng.uniform(0.0, 1.0, size=(12, 4))
    scaled = data * 7.0 + 3.0
    base = contrast_enhance(DifferenceMatrix(data=data, metric="cosine"), 3).data
    moved = contrast_enhance(DifferenceMatrix(data=scaled, metric="cosine"), 3).data
    assert np.allclose(base, moved, atol=1e-9)


def test_velocity_grid_default_is_eleven_steps():
    grid = velocity_grid(SeqSlamConfig())
    assert len(grid) == 11
    assert abs(grid[0] - 0.8) < 1e-12 and abs(grid[-1] - 1.2) < 1e-12
    assert np.all(np.diff(grid) > 0.0)
    single = velocity_grid(SeqSlamConfig(v_min=1.0, v_max=1.0, v_step=0.04))
    assert len(single) == 1 and single[0] == 1.0


@pytest.mark.parametrize("field, message", [
    ({"d_s": 0}, "d_s must be >= 1"),
    ({"v_min": 0.0}, "need 0 < v_min <= v_max"),
    ({"v_min": 1.3}, "need 0 < v_min <= v_max"),
    ({"v_step": 0.0}, "v_step must be > 0"),
    ({"v_step": -0.04}, "v_step must be > 0"),
    ({"r_window": 0}, "r_window must be >= 1"),
])
def test_seqslam_config_refuses_each_field_outside_its_domain(field, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SeqSlamConfig(**field)


def test_seqslam_config_refuses_a_grid_above_the_cap():
    # v_step 1e-9 from 0.5 to 1.5 would ask for 1000000001 velocities, and
    # v_max 1e300 for about 2.5e301, which the message once printed in full
    cap = matching_classic._MAX_VELOCITIES
    assert len(velocity_grid(SeqSlamConfig(v_min=0.5, v_max=1.5, v_step=1.0 / (cap - 1)))) == cap
    for v_max, v_step, count in ((1.5, 1.0 / cap, cap + 1), (1.5, 1e-9, "1e+09"),
                                 (1.5, 5e-324, "inf"), (1e300, 0.04, "2.5e+301")):
        with pytest.raises(ValueError) as err:
            SeqSlamConfig(v_min=0.5, v_max=v_max, v_step=v_step)
        assert str(err.value).endswith(f" has {count} velocities, more than {cap}")
        assert len(str(err.value)) < 120, str(err.value)


def test_seqslam_equals_bruteforce_enumeration():
    rng = np.random.default_rng(6)
    for case in range(30):
        n_query = int(rng.integers(2, 18))
        n_ref = int(rng.integers(2, 18))
        d_s = int(rng.integers(1, min(n_query, 6) + 1))
        data = rng.uniform(-2.0, 2.0, size=(n_query, n_ref))
        cfg = SeqSlamConfig(d_s=d_s)
        report = seqslam_search(DifferenceMatrix(data=data, metric="cosine"), cfg)
        want_ref, want_score = seqslam_oracle(data, cfg)
        assert np.array_equal(report.best_ref, want_ref), f"case {case}"
        assert np.array_equal(report.scores, want_score), f"case {case}"
        assert not report.higher_is_better


def test_seqslam_ds_one_is_row_argmin():
    rng = np.random.default_rng(7)
    data = rng.uniform(0.0, 1.0, size=(9, 12))
    report = seqslam_search(
        DifferenceMatrix(data=data, metric="cosine"), SeqSlamConfig(d_s=1)
    )
    assert np.array_equal(report.best_ref, np.argmin(data, axis=1))
    assert np.array_equal(report.scores, data.min(axis=1))


def test_seqslam_ties_pick_lowest_reference():
    data = np.zeros((5, 6))
    report = seqslam_search(
        DifferenceMatrix(data=data, metric="cosine"), SeqSlamConfig(d_s=3)
    )
    assert np.all(report.best_ref == 0)


def test_seqslam_prefix_queries_use_available_frames():
    rng = np.random.default_rng(8)
    data = rng.uniform(0.0, 1.0, size=(6, 8))
    report = seqslam_search(
        DifferenceMatrix(data=data, metric="cosine"), SeqSlamConfig(d_s=4)
    )
    # query 0 has a single-frame window regardless of d_s
    assert report.best_ref[0] == int(np.argmin(data[0]))
    with pytest.raises(ValueError):
        seqslam_search(
            DifferenceMatrix(data=data[:3], metric="cosine"), SeqSlamConfig(d_s=4)
        )


def test_blocked_stages_match_oracles_across_block_seams(monkeypatch):
    rng = np.random.default_rng(12)
    rows, cols = 53, 11
    data = rng.uniform(0.0, 2.0, size=(rows, cols))
    matrix = DifferenceMatrix(data=data, metric="cosine")
    whole = contrast_enhance(matrix, 9).data  # one block holds every row
    for block_rows in (1, 3, 7, 16):
        monkeypatch.setattr(matching_classic, "_BLOCK_BYTES", 8 * cols * block_rows)
        for win in (1, 4, 9):
            got = contrast_enhance(matrix, win).data
            assert np.allclose(got, _enhance_oracle(data, win), atol=1e-9)
            if win == 9:
                assert np.array_equal(got, whole), f"{block_rows} rows per block"
        for d_s in (1, 3, 8):
            cfg = SeqSlamConfig(d_s=d_s)
            report = seqslam_search(DifferenceMatrix(data=whole, metric="cosine"), cfg)
            want_ref, want_score = seqslam_oracle(whole, cfg)
            assert np.array_equal(report.best_ref, want_ref), f"{block_rows}, d_s={d_s}"
            assert np.array_equal(report.scores, want_score), f"{block_rows}, d_s={d_s}"


def test_seqslam_half_way_velocity_products_and_ties():
    # v * k = 0.5, 1.5, 2.5, 4.5, 7.5 all occur: rint rounds half to even,
    # so those samples are no pure column shift
    cfg = SeqSlamConfig(d_s=6, v_min=0.5, v_max=1.5, v_step=0.25)
    plan = matching_classic._offset_plan(velocity_grid(cfg), cfg.d_s, 14)
    assert any(not isinstance(term, int) for terms in plan for term in terms)
    rng = np.random.default_rng(13)
    for case in range(6):
        # few distinct values (signed zeros among them) make many tied lines
        data = rng.choice(np.array([-0.0, 0.0, 1.0, 2.0]), size=(int(rng.integers(6, 20)), 14))
        report = seqslam_search(DifferenceMatrix(data=data, metric="cosine"), cfg)
        want_ref, want_score = seqslam_oracle(data, cfg)
        assert np.array_equal(report.best_ref, want_ref), f"case {case}"
        assert np.array_equal(report.scores, want_score), f"case {case}"
        assert np.array_equal(np.signbit(report.scores), np.signbit(want_score))


def test_seqslam_stages_hold_no_full_size_temporaries():
    rng = np.random.default_rng(14)
    matrix = DifferenceMatrix(data=rng.uniform(0.0, 2.0, size=(1500, 1000)), metric="cosine")
    size = matrix.data.nbytes
    tracemalloc.start()
    try:
        enhanced = contrast_enhance(matrix, 10)
        enhance_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        live = tracemalloc.get_traced_memory()[0]
        seqslam_search(enhanced, SeqSlamConfig())
        search_scratch = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    # the enhanced output is one matrix; the rest is block scratch
    assert enhance_peak <= 2.5 * size, enhance_peak / size
    assert search_scratch <= 0.5 * size, search_scratch / size


def test_default_grid_searches_each_distinct_line_once():
    # at d_s = 2 every default velocity samples column r - 1
    grid = velocity_grid(SeqSlamConfig())
    assert [len(matching_classic._offset_plan(grid, d_s, 40)) for d_s in (2, 10)] == [1, 9]
    rng = np.random.default_rng(19)
    for d_s in (2, 10):
        data = rng.uniform(-2.0, 2.0, size=(13, 40))
        cfg = SeqSlamConfig(d_s=d_s)
        report = seqslam_search(DifferenceMatrix(data=data, metric="cosine"), cfg)
        want_ref, want_score = seqslam_oracle(data, cfg)
        assert np.array_equal(report.best_ref, want_ref), d_s
        assert np.array_equal(report.scores, want_score), d_s


def _assert_same_bits(got, want, label):
    assert np.array_equal(got, want), label
    assert np.array_equal(np.signbit(got), np.signbit(want)), label


def test_seqslam_match_equals_the_stages_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(18)
    half_way = dict(v_min=0.5, v_max=1.5, v_step=0.25)
    cases = [  # query frames, reference frames, d_s, r_window, velocity grid
        (23, 17, 3, 4, {}),
        (30, 12, 1, 2, {}),
        (19, 26, 6, 3, half_way),
        (9, 9, 9, 10, {}),
        (40, 11, 10, 1, {}),
    ]
    plan = matching_classic._offset_plan(velocity_grid(SeqSlamConfig(d_s=6, **half_way)), 6, 26)
    assert any(not isinstance(term, int) for terms in plan for term in terms)
    for frames, refs, d_s, r_window, grid in cases:
        # rounded values make tied distances; zero rows on both sides
        query = np.round(rng.standard_normal((frames, 4)) * 2.0) / 2.0
        reference = np.round(rng.standard_normal((refs, 4)) * 2.0) / 2.0
        query[[0, frames // 2]] = 0.0
        reference[[1, refs - 1]] = 0.0
        q = DescriptorSequence(data=query.astype(np.float32))
        r = DescriptorSequence(data=reference.astype(np.float32))
        cfg = SeqSlamConfig(d_s=d_s, r_window=r_window, **grid)
        # rows per contrast and search run, rows per distance block: the
        # defaults, then blocks shorter than r_window and than d_s
        for run_rows, block_rows in ((None, None), (1, 1), (2, 3), (5, 7)):
            if run_rows is not None:
                monkeypatch.setattr(matching_classic, "_BLOCK_BYTES", 8 * refs * run_rows)
                monkeypatch.setattr(matching_classic, "_DISTANCE_ROWS", block_rows)
            for metric in METRICS:
                label = (frames, refs, d_s, run_rows, block_rows, metric)
                enhanced = contrast_enhance(difference_matrix(q, r, metric), r_window).data
                want = seqslam_search(DifferenceMatrix(data=enhanced, metric=metric), cfg)
                out = np.empty((frames, refs))
                got = seqslam_match(q, r, cfg, metric, out)
                assert np.array_equal(got.best_ref, want.best_ref), label
                _assert_same_bits(got.scores, want.scores, label)
                _assert_same_bits(out, enhanced, label)
                plain = seqslam_match(q, r, cfg, metric)
                assert np.array_equal(plain.best_ref, got.best_ref), label
                _assert_same_bits(plain.scores, got.scores, label)
                assert np.array_equal(got.query_indices, np.arange(frames))
                assert not got.higher_is_better


def test_seqslam_match_keeps_every_bit_across_many_buffer_swaps(monkeypatch):
    # 130 rows in 3-row blocks make 42 seams, at each of which the 12 carried
    # rows leave one buffer while the helper may start the next GEMM into it;
    # a short switch interval hands the interpreter over often
    rng = np.random.default_rng(27)
    query = np.round(rng.standard_normal((130, 4)) * 2.0) / 2.0
    reference = np.round(rng.standard_normal((64, 4)) * 2.0) / 2.0
    query[40:60] = 0.0
    q = DescriptorSequence(data=query.astype(np.float32))
    r = DescriptorSequence(data=reference.astype(np.float32))
    cfg = SeqSlamConfig(d_s=5, r_window=8)  # keep = 12 rows
    monkeypatch.setattr(matching_classic, "_DISTANCE_ROWS", 3)
    monkeypatch.setattr(dataset, "_NORM_BLOCK_BYTES", 8 * 4 * 2)  # reference norms in 2-row blocks
    assert len(list(matching_classic._row_blocks(130, 3))) - 1 >= 40
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for metric in METRICS:
            enhanced = contrast_enhance(difference_matrix(q, r, metric), cfg.r_window).data
            want = seqslam_search(DifferenceMatrix(data=enhanced, metric=metric), cfg)
            for run in range(20):
                out = np.empty((130, 64))
                got = seqslam_match(q, r, cfg, metric, out)
                assert np.array_equal(got.best_ref, want.best_ref), (metric, run)
                _assert_same_bits(got.scores, want.scores, (metric, run))
                _assert_same_bits(out, enhanced, (metric, run))
    finally:
        sys.setswitchinterval(interval)


def test_a_failing_block_source_reaches_the_caller_and_stops_the_helper(monkeypatch):
    monkeypatch.setattr(matching_classic, "_DISTANCE_ROWS", 3)
    rng = np.random.default_rng(28)
    query = rng.standard_normal((20, 4)).astype(np.float32)
    b = rng.standard_normal((9, 4))

    def source():
        for k, (b0, b1) in enumerate(matching_classic._row_blocks(20, 3)):
            if k == 2:
                raise RuntimeError("the third block failed")
            yield query[b0:b1]

    threads = threading.active_count()
    for ahead in (1, 2):  # the source fails with every helper's GEMM in flight
        for metric in METRICS:
            with pytest.raises(RuntimeError, match="the third block failed"):
                stream = matching_classic._distances(source(), 20, b, metric, ahead=ahead)
                matching_classic._nearest(stream, 20)
            assert threading.active_count() == threads, (ahead, metric)


def test_closing_the_stream_after_one_block_stops_the_helper(monkeypatch):
    monkeypatch.setattr(matching_classic, "_DISTANCE_ROWS", 3)
    rng = np.random.default_rng(29)
    q, r = _seq(rng, 20, 4), _seq(rng, 9, 4)
    threads = threading.active_count()
    for ahead in (1, 2):
        for metric in METRICS:
            stream = matching_classic._distance_blocks(q, r, metric, keep=5, ahead=ahead)
            origin, rows = next(stream)
            assert (origin, len(rows)) == (0, 3)
            # a pool starts its second helper only if the first is busy
            assert threads < threading.active_count() <= threads + ahead, (ahead, metric)
            stream.close()
            assert threading.active_count() == threads, (ahead, metric)


class _Gemms(np.ndarray):
    """A reference operand whose GEMMs log (thread, columns) as they start,
    then call `hold(columns)` before they compute."""

    log: list = []  # each test sets a fresh list
    hold = None

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        inputs = tuple(x.view(np.ndarray) if isinstance(x, _Gemms) else x for x in inputs)
        if ufunc is np.matmul:
            columns = inputs[1].shape[1]
            _Gemms.log.append((threading.get_ident(), columns))
            if _Gemms.hold is not None:
                _Gemms.hold(columns)
        return getattr(ufunc, method)(*inputs, **kwargs)


def _slow_halves(monkeypatch, n_ref):
    """Make every GEMM of a stream against n_ref reference rows take 50 ms,
    so its caller always waits, and let a half-block GEMM compute only once
    the other half has begun, so the halves must run at once."""
    meet = threading.Barrier(2, timeout=5.0)

    def hold(columns):
        if columns < n_ref:
            meet.wait()
        time.sleep(0.05)

    monkeypatch.setattr(_Gemms, "log", [])
    monkeypatch.setattr(_Gemms, "hold", staticmethod(hold))


def _cut_small(monkeypatch):
    """Let blas.cut split the 3 x 4 x 200 GEMMs of the streams below at
    column 128. Cuts that small may change bits, so the rule refuses them;
    these tests use values whose sums are exact in any order, or compare no
    distances."""
    monkeypatch.setattr(blas, "_CUT_COLUMNS", 128)
    monkeypatch.setattr(blas, "_CUT_MADDS", 1)


def _operand(reference, metric):
    """The float64 reference operand that _distance_blocks builds, as _Gemms."""
    if metric == "cosine":
        b, _ = matching_classic.unit_rows(reference, np.empty(reference.shape))
    else:
        b = reference.astype(np.float64)
    return b.view(_Gemms)


def _query_blocks(query):
    return (query[b0:b1] for b0, b1 in matching_classic._row_blocks(len(query), 3))


def test_a_waiting_caller_gets_each_later_block_from_two_gemms_at_once(monkeypatch):
    # 20 queries in 7 blocks against 200 reference rows, seam at column 128:
    # block 1 runs whole (the caller always waits for block 0), and the
    # caller waits for every block after it, so the two helpers split each
    # of blocks 2-6. The kept rows and the halves hold _blockwise's bits.
    monkeypatch.setattr(matching_classic, "_DISTANCE_ROWS", 3)
    _cut_small(monkeypatch)
    rng = np.random.default_rng(34)
    query = np.round(rng.standard_normal((20, 4)) * 2.0) / 2.0
    reference = np.round(rng.standard_normal((200, 4)) * 2.0) / 2.0
    query[[2, 11]] = 0.0
    reference[[3, 150]] = 0.0
    query, reference = query.astype(np.float32), reference.astype(np.float32)
    threads = threading.active_count()
    for metric in METRICS:
        _slow_halves(monkeypatch, 200)
        want = _blockwise(query, reference, metric)
        stream = matching_classic._distances(_query_blocks(query), 20, _operand(reference, metric),
                                             metric, keep=5, ahead=1)
        for k, (origin, rows) in enumerate(stream):
            assert origin == max(3 * k - 5, 0), (metric, k)
            _assert_same_bits(rows, want[origin : origin + len(rows)], (metric, k))
        widths = [columns for _, columns in _Gemms.log]
        assert widths[:2] == [200, 200], (metric, widths)
        assert sorted(widths[2:]) == [72] * 5 + [128] * 5, (metric, widths)
        helpers = {thread for thread, _ in _Gemms.log}
        assert len(helpers) == 2 and threading.get_ident() not in helpers, metric
        assert threading.active_count() == threads, metric


def test_a_stream_whose_consumer_lags_runs_one_gemm_per_block(monkeypatch):
    # the GEMMs are done long before the consumer asks for the next block,
    # so the caller never waits after block 0 and splits none
    monkeypatch.setattr(matching_classic, "_DISTANCE_ROWS", 3)
    rng = np.random.default_rng(35)
    query = rng.standard_normal((20, 4)).astype(np.float32)
    reference = rng.standard_normal((200, 4)).astype(np.float32)
    for metric in METRICS:
        monkeypatch.setattr(_Gemms, "log", [])
        stream = matching_classic._distances(_query_blocks(query), 20, _operand(reference, metric),
                                             metric, keep=5, ahead=1)
        for _ in stream:
            time.sleep(0.05)
        blocks = len(list(matching_classic._row_blocks(20, 3)))
        assert [columns for _, columns in _Gemms.log] == [200] * blocks, metric


def test_a_failing_source_or_a_close_with_halves_in_flight_stops_both_helpers(monkeypatch):
    # the caller waits for block 1, so block 2's halves are in flight when
    # the source fails at block 3 or the consumer closes the stream
    monkeypatch.setattr(matching_classic, "_DISTANCE_ROWS", 3)
    _cut_small(monkeypatch)
    rng = np.random.default_rng(36)
    query = rng.standard_normal((20, 4)).astype(np.float32)
    reference = rng.standard_normal((200, 4)).astype(np.float32)

    def failing():
        for k, block in enumerate(_query_blocks(query)):
            if k == 3:
                raise RuntimeError("the fourth block failed")
            yield block

    threads = threading.active_count()
    for metric in METRICS:
        _slow_halves(monkeypatch, 200)
        stream = matching_classic._distances(failing(), 20, _operand(reference, metric), metric,
                                             keep=5, ahead=1)
        with pytest.raises(RuntimeError, match="the fourth block failed"):
            matching_classic._nearest(stream, 20)
        assert sorted(columns for _, columns in _Gemms.log) == [72, 128, 200, 200], metric
        assert threading.active_count() == threads, metric

        _slow_halves(monkeypatch, 200)
        stream = matching_classic._distances(_query_blocks(query), 20,
                                             _operand(reference, metric), metric, keep=5, ahead=1)
        next(stream), next(stream)
        assert threading.active_count() == threads + 2, metric
        stream.close()
        assert sorted(columns for _, columns in _Gemms.log) == [72, 128, 200, 200], metric
        assert threading.active_count() == threads, metric


@pytest.mark.parametrize("n_ref", [300, 512])
def test_a_waiting_caller_gets_the_bits_of_whole_gemms_at_any_reference_length(
        monkeypatch, n_ref):
    # 600 queries in blocks of 192, 192, 192 and 24 rows, and the caller
    # waits for every block. A seam at column 128 of 300 changed entries, so
    # blas.cut splits no block there; of 512 it splits block 2 at column
    # 256, and its 24-row block 3 is too small to split. The stream runs at
    # one BLAS thread, and so does the whole-GEMM reference
    rng = np.random.default_rng(37)
    query = rng.standard_normal((600, 64)).astype(np.float32)
    reference = rng.standard_normal((n_ref, 64)).astype(np.float32)
    bounds = list(matching_classic._row_blocks(600, matching_classic._DISTANCE_ROWS))
    assert [b1 - b0 for b0, b1 in bounds] == [192, 192, 192, 24]
    splits = [] if n_ref == 300 else [256, 256]
    for metric in METRICS:
        _slow_halves(monkeypatch, n_ref)
        with blas.one_thread():
            want = _blockwise(query, reference, metric)
        stream = matching_classic._distances((query[b0:b1] for b0, b1 in bounds), 600,
                                             _operand(reference, metric), metric, ahead=1)
        for k, (origin, rows) in enumerate(stream):
            _assert_same_bits(rows, want[origin : origin + len(rows)], (metric, k))
        widths = sorted(columns for _, columns in _Gemms.log)
        assert widths == splits + [n_ref] * (4 - len(splits) // 2), (metric, widths)


def _blockwise(a, b, metric):
    """The distances of a's rows to b's rows, one _one_gemm per distance block."""
    blocks = matching_classic._row_blocks(len(a), matching_classic._DISTANCE_ROWS)
    return np.concatenate([_one_gemm(a[b0:b1], b, metric) for b0, b1 in blocks])


def test_nearest_streams_keep_every_bit_across_many_ring_seams(monkeypatch):
    # 130 query rows in 3-row blocks make 42 seams, at each of which two
    # helpers' GEMMs fill the two buffers of the ring that the caller is not
    # reading; queries of 2 and 6 frames make one and two blocks, fewer than
    # the helpers. A short switch interval hands the interpreter over often.
    rng = np.random.default_rng(31)
    reference = np.round(rng.standard_normal((64, 4)) * 2.0) / 2.0
    reference[[5, 40]] = 0.0
    r = DescriptorSequence(data=reference.astype(np.float32))
    cfg = DeltaConfig(window=2)
    dr, r_frames = delta_transform(r, cfg)
    monkeypatch.setattr(matching_classic, "_DISTANCE_ROWS", 3)
    assert len(list(matching_classic._row_blocks(130 - 1, 3))) - 1 >= 40
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for frames in (2, 6, 130):
            query = np.round(rng.standard_normal((frames, 4)) * 2.0) / 2.0
            query[frames // 3 : frames // 2] = 0.0
            q = DescriptorSequence(data=query.astype(np.float32))
            dq, q_frames = delta_transform(q, cfg)
            wants = {metric: _blockwise(q.data, r.data, metric) for metric in METRICS}
            delta_want = _blockwise(dq.data, dr.data, "cosine")
            delta_best = np.argmin(delta_want, axis=1)
            delta_scores = delta_want[np.arange(len(delta_best)), delta_best]
            for run in range(20):
                label = (frames, run)
                for metric, want in wants.items():
                    _assert_same_bits(difference_matrix(q, r, metric).data, want, (label, metric))
                    report = nearest_neighbor_match(q, r, metric)
                    best = np.argmin(want, axis=1)
                    assert np.array_equal(report.best_ref, best), (label, metric)
                    _assert_same_bits(report.scores, want[np.arange(frames), best], (label, metric))
                report = delta_match(q, r, cfg)
                assert np.array_equal(report.query_indices, q_frames)
                assert np.array_equal(report.best_ref, r_frames[delta_best]), label
                _assert_same_bits(report.scores, delta_scores, label)
    finally:
        sys.setswitchinterval(interval)


def test_nearest_streams_run_two_gemms_at_once(monkeypatch):
    # each stream's first two GEMMs wait until both have begun, which takes
    # two helpers: with one, the barrier's timeout fails the stream
    unit_rows = matching_classic.unit_rows

    def meeting_rows(matrix, out):  # the cosine operands, as _Gemms arrays
        rows, normalized = unit_rows(matrix, out)
        return rows.view(_Gemms), normalized

    def hold(columns):
        if len(_Gemms.log) <= 2:
            meet.wait()

    monkeypatch.setattr(matching_classic, "unit_rows", meeting_rows)
    monkeypatch.setattr(_Gemms, "hold", staticmethod(hold))
    monkeypatch.setattr(matching_classic, "_DISTANCE_ROWS", 3)
    rng = np.random.default_rng(33)
    q, r = _seq(rng, 20, 4), _seq(rng, 9, 4)
    threads = threading.active_count()
    for match in (lambda: difference_matrix(q, r), lambda: nearest_neighbor_match(q, r),
                  lambda: delta_match(q, r, DeltaConfig(window=2))):
        monkeypatch.setattr(_Gemms, "log", [])
        meet = threading.Barrier(2, timeout=5.0)
        match()
        gemms = [thread for thread, _ in _Gemms.log]
        assert len(gemms) > 2 and len(set(gemms[:2])) == 2, gemms
        assert threading.get_ident() not in gemms
        assert threading.active_count() == threads


def test_euclidean_nearest_stream_peaks_within_a_few_reference_rows_of_cosine():
    # the euclidean finish works a row at a time after the GEMM: a gram
    # block beside the distance block would take 193 reference-length rows
    rng = np.random.default_rng(32)
    query, reference = _seq(rng, 800, 32), _seq(rng, 4000, 32)
    peaks = {}
    for metric in METRICS:
        tracemalloc.start()
        try:
            nearest_neighbor_match(query, reference, metric)
            peaks[metric] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    row = 8 * 4000
    assert peaks["euclidean"] - peaks["cosine"] <= 4 * row, (peaks, row)


def test_euclidean_deploy_peaks_within_one_distance_block_of_cosine():
    # the euclidean operand's squared norms are summed a block of rows at a
    # time: a whole b * b temporary would take 8 * 400 * 2048 bytes, nearly
    # 10 of the stream's buffers
    rng = np.random.default_rng(30)
    query, reference = _seq(rng, 300, 2048), _seq(rng, 400, 2048)
    cfg = SeqSlamConfig()
    keep = cfg.r_window + cfg.d_s - 1
    block = 8 * 400 * (keep + matching_classic._DISTANCE_ROWS + 1)  # one of the stream's buffers
    peaks = {}
    for metric in METRICS:
        tracemalloc.start()
        try:
            seqslam_match(query, reference, cfg, metric)
            peaks[metric] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["euclidean"] - peaks["cosine"] <= block, (peaks, block)


def test_contrast_prefix_moves_keep_every_bit_over_long_runs(monkeypatch):
    # 300 rows in runs of 1, 2 and 5 rows against windows of 3, 10 and 40:
    # the carried prefix rows move to the front of their buffer many times,
    # at offsets that differ with each pair
    rng = np.random.default_rng(23)
    rows, cols = 300, 6
    data = rng.uniform(0.0, 2.0, size=(rows, cols))
    data[90:210, 1] = 0.5  # flat windows in some runs and not in others
    data[120:260, 4] = rng.choice(np.array([-0.0, 0.0]), size=140)
    matrix = DifferenceMatrix(data=data, metric="cosine")
    query = np.round(rng.standard_normal((rows, 4)) * 2.0) / 2.0
    query[100:180] = 0.0  # zero rows: flat windows in the streamed stage too
    reference = np.round(rng.standard_normal((9, 4)) * 2.0) / 2.0
    q = DescriptorSequence(data=query.astype(np.float32))
    r = DescriptorSequence(data=reference.astype(np.float32))
    monkeypatch.setattr(matching_classic, "_DISTANCE_ROWS", 7)
    for run_rows in (1, 2, 5):
        for r_window in (3, 10, 40):
            label = (run_rows, r_window)
            monkeypatch.setattr(matching_classic, "_BLOCK_BYTES", 8 * cols * run_rows)
            _assert_same_bits(contrast_enhance(matrix, r_window).data,
                              _enhance_cumsum(data, r_window), label)
            monkeypatch.setattr(matching_classic, "_BLOCK_BYTES", 8 * len(r.data) * run_rows)
            cfg = SeqSlamConfig(d_s=3, r_window=r_window)
            enhanced = contrast_enhance(difference_matrix(q, r), r_window).data
            want = seqslam_search(DifferenceMatrix(data=enhanced, metric="cosine"), cfg)
            out = np.empty((rows, len(r.data)))
            got = seqslam_match(q, r, cfg, "cosine", out)
            assert np.array_equal(got.best_ref, want.best_ref), label
            _assert_same_bits(got.scores, want.scores, label)
            _assert_same_bits(out, enhanced, label)


def test_seqslam_match_needs_d_s_query_frames():
    rng = np.random.default_rng(20)
    q, r = _seq(rng, 3, 5), _seq(rng, 8, 5)
    cfg = SeqSlamConfig(d_s=4)
    with pytest.raises(ValueError) as staged:
        seqslam_search(contrast_enhance(difference_matrix(q, r)), cfg)
    with pytest.raises(ValueError) as streamed:
        seqslam_match(q, r, cfg)
    assert str(streamed.value) == str(staged.value) == "need at least d_s=4 query frames, got 3"
    with pytest.raises(ValueError, match="out must be 3 x 8"):
        seqslam_match(q, r, SeqSlamConfig(d_s=2), out=np.empty((8, 3)))


def test_nearest_neighbor_match_is_row_argmin():
    rng = np.random.default_rng(9)
    q = _seq(rng, 8, 5)
    r = _seq(rng, 11, 5)
    report = nearest_neighbor_match(q, r)
    dist = difference_matrix(q, r).data
    assert np.array_equal(report.best_ref, np.argmin(dist, axis=1))
    assert not report.higher_is_better


def test_nearest_scans_match_difference_matrix_argmin_across_block_seams(monkeypatch):
    rng = np.random.default_rng(15)
    for frames in (22, 23):  # with 7-row blocks, 22 ends on a block plus one row
        # rounded values make tied distances; zero rows on both sides
        query = np.round(rng.standard_normal((frames, 4)) * 2.0) / 2.0
        reference = np.round(rng.standard_normal((17, 4)) * 2.0) / 2.0
        query[[0, 9]] = 0.0
        reference[[3, 16]] = 0.0
        query[12:17] = query[12]  # constant stretches: zero delta rows
        reference[5:11] = reference[5]
        q = DescriptorSequence(data=query.astype(np.float32))
        r = DescriptorSequence(data=reference.astype(np.float32))
        for block_rows in (1, 3, 7):
            monkeypatch.setattr(matching_classic, "_DISTANCE_ROWS", block_rows)
            for metric in ("cosine", "euclidean"):
                dist = difference_matrix(q, r, metric).data
                want = np.argmin(dist, axis=1)
                report = nearest_neighbor_match(q, r, metric)
                assert np.array_equal(report.best_ref, want), (frames, block_rows, metric)
                assert np.array_equal(report.scores, dist[np.arange(frames), want])
                assert np.array_equal(report.query_indices, np.arange(frames))
            assert any((row == row.min()).sum() > 1 for row in dist)
            for window in (2, 4):
                cfg = DeltaConfig(window=window)
                dq, q_frames = delta_transform(q, cfg)
                dr, r_frames = delta_transform(r, cfg)
                assert not dq.normalized and not dr.normalized
                dist = difference_matrix(dq, dr, "cosine").data
                want = np.argmin(dist, axis=1)
                report = delta_match(q, r, cfg)
                assert np.array_equal(report.query_indices, q_frames)
                assert np.array_equal(report.best_ref, r_frames[want]), (frames, block_rows, window)
                assert np.array_equal(report.scores, dist[np.arange(len(want)), want])


def _one_gemm(a, b, metric):
    """The distance formulas as one GEMM over every row of a."""
    a = a.astype(np.float64)
    b = b.astype(np.float64)
    if metric == "euclidean":
        dist = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :] - 2.0 * (a @ b.T)
        return np.sqrt(np.clip(dist, 0.0, None))
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    dist = 1.0 - (a / np.where(na == 0.0, 1.0, na)[:, None]) @ (
        b / np.where(nb == 0.0, 1.0, nb)[:, None]
    ).T
    dist[na == 0.0, :] = 1.0
    dist[:, nb == 0.0] = 1.0
    return np.clip(dist, 0.0, 2.0)


def test_difference_matrix_equals_one_whole_gemm_bit_for_bit():
    rng = np.random.default_rng(17)
    step = matching_classic._DISTANCE_ROWS
    # one block plus one row, two blocks plus one, and a short last block
    for frames in (step + 1, 2 * step + 1, step + 16):
        q = _seq(rng, frames, 8)
        r = _seq(rng, 19, 8)
        for metric in METRICS:
            got = difference_matrix(q, r, metric).data
            assert np.array_equal(got, _one_gemm(q.data, r.data, metric)), (frames, metric)


def test_nearest_scans_hold_no_query_by_reference_matrix():
    rng = np.random.default_rng(16)
    query = _seq(rng, 1500, 32)
    reference = _seq(rng, 1500, 32)
    cfg = DeltaConfig(window=10)
    size = 8 * (1500 - cfg.window + 1) ** 2  # one Q x R float64 delta matrix
    for match in (lambda: delta_match(query, reference, cfg),
                  lambda: nearest_neighbor_match(query, reference)):
        tracemalloc.start()
        try:
            match()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < size, peak / size


def test_delta_match_self_retrieval_and_index_map():
    rng = np.random.default_rng(10)
    ref = _seq(rng, 30, 6)
    cfg = DeltaConfig(window=4)
    report = delta_match(ref, ref, cfg)
    assert np.array_equal(report.query_indices, np.arange(2, 29))
    assert np.array_equal(report.best_ref, report.query_indices)


def test_delta_match_ignores_constant_query_drift():
    rng = np.random.default_rng(11)
    ref = _seq(rng, 25, 6)
    noisy = ref.data + rng.standard_normal((25, 6)).astype(np.float32) * 0.05
    query = DescriptorSequence(data=noisy)
    drifted = DescriptorSequence(data=noisy + np.float32(4.0))
    cfg = DeltaConfig(window=4)
    base = delta_match(query, ref, cfg)
    moved = delta_match(drifted, ref, cfg)
    assert np.array_equal(base.best_ref, moved.best_ref)
    # plain cosine matching has no such invariance on the same inputs
    plain = nearest_neighbor_match(query, ref)
    plain_drifted = nearest_neighbor_match(drifted, ref)
    assert not np.array_equal(plain.best_ref, plain_drifted.best_ref)


def test_delta_match_needs_equal_descriptor_dims():
    rng = np.random.default_rng(8)
    with pytest.raises(ValueError, match="descriptor dims differ: 4 vs 6"):
        delta_match(_seq(rng, 12, 4), _seq(rng, 12, 6), DeltaConfig(window=4))


def test_match_report_validation():
    with pytest.raises(ValueError):
        MatchReport(
            query_indices=np.arange(3),
            best_ref=np.arange(2),
            scores=np.zeros(3),
            higher_is_better=False,
        )
    with pytest.raises(ValueError):
        MatchReport(
            query_indices=np.arange(2),
            best_ref=np.array([0, -1]),
            scores=np.zeros(2),
            higher_is_better=False,
        )
    report = MatchReport(
        query_indices=np.arange(2),
        best_ref=np.arange(2),
        scores=np.zeros(2),
        higher_is_better=True,
    )
    assert len(report) == 2
    with pytest.raises(ValueError):
        report.scores[0] = 1.0


def test_delta_match_equals_the_transforms_then_the_argmin_bit_for_bit(monkeypatch):
    # windows of 6 and 10 rows carry a prefix longer than a 3-row block
    rng = np.random.default_rng(23)
    for frames in (31, 33):  # with window 10 and 7-row blocks, 31 ends on a block plus one row
        query = np.round(rng.standard_normal((frames, 5)) * 2.0) / 2.0
        reference = np.round(rng.standard_normal((27, 5)) * 2.0) / 2.0
        query[14:25] = query[14]  # constant stretches: zero delta rows
        reference[3:15] = reference[3]
        q = DescriptorSequence(data=query.astype(np.float32))
        r = DescriptorSequence(data=reference.astype(np.float32))
        for block_rows in (3, 7):
            monkeypatch.setattr(matching_classic, "_DISTANCE_ROWS", block_rows)
            for window in (6, 10):
                cfg = DeltaConfig(window=window)
                dq, q_frames = delta_transform(q, cfg)
                dr, r_frames = delta_transform(r, cfg)
                dist = difference_matrix(dq, dr, "cosine").data
                want = np.argmin(dist, axis=1)
                report = delta_match(q, r, cfg)
                assert np.array_equal(report.query_indices, q_frames)
                assert np.array_equal(report.best_ref, r_frames[want]), (frames, block_rows, window)
                scores = dist[np.arange(len(want)), want]
                assert np.array_equal(report.scores, scores)
                assert np.array_equal(np.signbit(report.scores), np.signbit(scores))


def test_delta_match_peak_does_not_grow_with_the_query():
    rng = np.random.default_rng(24)
    dim = 128
    reference = _seq(rng, 600, dim)
    cfg = DeltaConfig(window=10)
    peaks = []
    for frames in (2000, 8000):
        query = _seq(rng, frames, dim)
        tracemalloc.start()
        try:
            delta_match(query, reference, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # per query row the deploy keeps its report; a whole-query float64 delta
    # array alone would add 8 * dim bytes a row
    growth = (peaks[1] - peaks[0]) / (6000 * 8 * dim)
    assert growth < 0.25, growth


def test_offset_plan_peak_follows_the_distinct_plans():
    # 401 velocities at v_step 0.001 sample 21 distinct column sets at d_s = 10;
    # building every velocity's columns first took about 197 MB here
    vels = velocity_grid(SeqSlamConfig(d_s=10, v_step=0.001))
    tracemalloc.start()
    try:
        plan = matching_classic._offset_plan(vels, 10, 3577)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(vels), len(plan)) == (401, 21)
    assert peak <= 16 * 2**20, peak / 2**20
