import sys
import threading

import numpy as np
import pytest

from seqplace import blas, matching_classic, neural
from seqplace.dataset import DescriptorSequence, PositionTrack, Traversal


@pytest.fixture
def openblas():
    """The loaded OpenBLAS's (get, set), with its thread count put back after."""
    found = blas._openblas()
    if found is None:
        pytest.skip("no OpenBLAS thread-count functions in this process")
    get, put = found
    saved = get()
    yield get, put
    put(saved)


def test_every_deploy_runs_at_one_blas_thread_and_restores_the_count(openblas, monkeypatch):
    get, put = openblas
    put(2)
    rng = np.random.default_rng(40)
    query = rng.standard_normal((20, 4)).astype(np.float32)
    b = rng.standard_normal((9, 4))
    counts = []

    def source(fail_at=None):
        for k, (b0, b1) in enumerate(matching_classic._row_blocks(20, 3)):
            counts.append(get())
            if k == fail_at:
                raise RuntimeError("the source failed")
            yield query[b0:b1]

    monkeypatch.setattr(matching_classic, "_DISTANCE_ROWS", 3)
    for ahead in (1, 2):
        matching_classic._nearest(matching_classic._distances(source(), 20, b, "cosine", ahead=ahead), 20)
        assert get() == 2, ahead
        with pytest.raises(RuntimeError, match="the source failed"):
            matching_classic._nearest(
                matching_classic._distances(source(2), 20, b, "cosine", ahead=ahead), 20)
        assert get() == 2, ahead
    # a stream that is closed early, and one that runs while another is open
    first = matching_classic._distances(source(), 20, b, "euclidean", ahead=1)
    next(first)
    matching_classic._nearest(matching_classic._distances(source(), 20, b, "euclidean"), 20)
    assert get() == 1  # the first stream still runs
    first.close()
    assert get() == 2
    assert counts and set(counts) == {1}

    model = neural.init_model(n=4, places=9, d_s=2, hidden=3, seed=0)
    traversal = Traversal("q", DescriptorSequence(query), PositionTrack(np.zeros((20, 2))))
    project = neural._project

    def counting(params, x, out=None):
        counts.append(get())
        return project(params, x, out=out)

    monkeypatch.setattr(neural, "_project", counting)
    counts.clear()
    neural.lstm_match(model, traversal, 2)
    assert get() == 2
    assert counts and set(counts) == {1}

    def failing(params, x, out=None):
        raise RuntimeError("the projection failed")

    monkeypatch.setattr(neural, "_project", failing)
    with pytest.raises(RuntimeError, match="the projection failed"):
        neural.lstm_match(model, traversal, 2)
    assert get() == 2


def test_train_runs_at_one_blas_thread_and_restores_the_count(openblas, monkeypatch):
    get, put = openblas
    put(2)
    rng = np.random.default_rng(43)
    reference = Traversal("r", DescriptorSequence(rng.standard_normal((30, 6)).astype(np.float32)),
                          PositionTrack(rng.uniform(-1.0, 1.0, (30, 2))))
    counts = []
    neural.train(reference, d_s=2, epochs=3, hidden=4, progress=lambda *_: counts.append(get()))
    assert counts == [1, 1, 1]
    assert get() == 2

    gradients, calls = neural._batch_gradients, []

    def non_finite_in_epoch_1(*args):
        losses, logits = gradients(*args)
        calls.append(get())
        return losses * (np.nan if len(calls) > 1 else 1.0), logits

    monkeypatch.setattr(neural, "_batch_gradients", non_finite_in_epoch_1)
    with pytest.raises(neural.TrainingError, match="epoch 1, batch 0"):
        neural.train(reference, d_s=2, epochs=3, hidden=4, batch_size=29)
    assert calls == [1, 1]
    assert get() == 2


def test_one_thread_does_nothing_without_an_openblas_setter(monkeypatch):
    monkeypatch.setattr(blas, "_openblas", lambda: None)
    with blas.one_thread():
        assert blas._inside == 0


def test_overlapping_deploys_share_one_pin(monkeypatch):
    # 8 threads on 2 cores enter and leave the pin 200 times each with a
    # short switch interval: inside, the count is always 1, and the last one
    # out restores the count the first one in found
    count = [4]
    monkeypatch.setattr(blas, "_openblas", lambda: (lambda: count[0], lambda n: count.__setitem__(0, n)))
    seen = set()

    def deploys():
        for _ in range(200):
            with blas.one_thread():
                seen.add(count[0])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=deploys) for _ in range(8)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30.0)
        assert not any(worker.is_alive() for worker in workers)
    finally:
        sys.setswitchinterval(interval)
    assert seen == {1}
    assert count[0] == 4 and blas._inside == 0


def test_cut_refuses_one_row_193_to_383_columns_and_small_halves():
    assert blas.cut(1, 4096, 4096) is None  # a GEMV
    assert blas.cut(2, 4096, 4096) == 2048
    for columns in range(193, 384):
        assert blas.cut(320, 4098, columns) is None, columns
    # each half needs 2^20 multiply-adds: rows x inner x the smaller half
    assert blas.cut(8, 64, 4096) == 2048  # 8 x 64 x 2048 = 2^20
    assert blas.cut(8, 63, 4096) is None
    assert blas.cut(32, 130, 520) == 256  # a recurrence GEMM of H = 130
    assert blas.cut(32, 127, 520) is None
    assert blas.cut(24, 64, 512) is None  # a 24-row distance block of 64-d


def test_cut_takes_the_multiple_of_64_nearest_half_the_columns():
    for columns in range(384, 5000):
        seam = blas.cut(192, 4096, columns)
        assert seam % 64 == 0 and abs(seam - columns / 2) <= 32, columns
        assert min(abs(seam + 64 - columns / 2), abs(seam - 64 - columns / 2)) >= 32, columns
    assert blas.cut(192, 4096, 3577) == 1792  # paper scale
