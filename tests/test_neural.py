import math
import re
import sys
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from oracles import max_gradient_error

from seqplace import neural
from seqplace.dataset import (
    _BLOCK_BYTES,
    DescriptorSequence,
    PositionTrack,
    Traversal,
    make_windows,
)
from seqplace.descriptors import l2_normalize
from seqplace.neural import (
    AdamState,
    Gradients,
    HeadParams,
    LstmParams,
    TrainingCurves,
    TrainingError,
    _batch_gradients,
    adam_init,
    adam_step,
    cross_entropy_loss,
    infer,
    init_model,
    load_checkpoint,
    load_curves_csv,
    lstm_forward,
    model_backward,
    model_forward,
    param_items,
    save_checkpoint,
    save_curves_csv,
    train,
)
from seqplace.rng import RandomStream
from seqplace.synthetic import SynthConfig, generate


def _tiny_traversal(rng: np.random.Generator, frames: int, dim: int) -> Traversal:
    data = rng.standard_normal((frames, dim))
    data /= np.linalg.norm(data, axis=1, keepdims=True)
    pos = np.linspace(-1.0, 1.0, frames)
    return Traversal(
        name="tiny",
        descriptors=DescriptorSequence(data=data, normalized=True),
        positions=PositionTrack(np.column_stack([pos, -pos])),
    )


def test_analytic_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    for seed in range(5):
        model = init_model(n=2, places=5, d_s=3, hidden=3, seed=seed)
        window = rng.standard_normal((3, 4))
        label = int(rng.integers(0, 5))
        assert max_gradient_error(model, window, label) < 1e-4


def test_batch_gradients_are_mean_of_window_gradients():
    # B=4 windows of d_s=3 steps: a steps/batch mix-up in the fused GEMMs
    # cannot cancel out
    rng = np.random.default_rng(9)
    model = init_model(n=5, places=6, d_s=3, hidden=4, seed=2)
    windows = rng.standard_normal((4, 3, 7))
    labels = np.array([0, 5, 2, 5])
    grads = Gradients.zeros(model)
    xs = np.ascontiguousarray(windows.transpose(1, 0, 2))  # step-major, as train builds it
    losses, logits = _batch_gradients(model, xs, labels, grads)
    mean = {name: np.zeros_like(arr) for name, arr in param_items(model.lstm, model.head)}
    for b, (window, label) in enumerate(zip(windows, labels)):
        window_logits, cache = model_forward(model, window, with_cache=True)
        assert np.allclose(logits[b], window_logits, rtol=1e-12, atol=0.0)
        assert losses[b] == pytest.approx(cross_entropy_loss(window_logits, label)[0], rel=1e-12)
        window_grads = model_backward(model, window, label, cache)
        for name, g in param_items(window_grads.lstm, window_grads.head):
            mean[name] += g / len(labels)
    for name, g in param_items(grads.lstm, grads.head):
        assert np.allclose(g, mean[name], rtol=1e-10, atol=1e-15), name


def test_lstm_forward_matches_gate_equations():
    rng = np.random.default_rng(1)
    model = init_model(n=3, places=2, d_s=4, hidden=2, seed=7)
    p = model.lstm
    window = rng.standard_normal((4, 5))
    h = np.zeros(2)
    c = np.zeros(2)
    sig = lambda v: 1.0 / (1.0 + math.exp(-v))
    for x in window:
        gi = np.array([sig(p.w_ii[j] @ x + p.w_hi[j] @ h + p.b_i[j]) for j in range(2)])
        gf = np.array([sig(p.w_if[j] @ x + p.w_hf[j] @ h + p.b_f[j]) for j in range(2)])
        gg = np.array([math.tanh(p.w_ig[j] @ x + p.w_hg[j] @ h + p.b_g[j]) for j in range(2)])
        go = np.array([sig(p.w_io[j] @ x + p.w_ho[j] @ h + p.b_o[j]) for j in range(2)])
        c = gf * c + gi * gg
        h = go * np.tanh(c)
    got, _ = lstm_forward(p, window, np.zeros(2), np.zeros(2))
    assert np.allclose(got, h, rtol=1e-12, atol=1e-12)


def test_lstm_forward_validates_shapes():
    model = init_model(n=3, places=2, d_s=2, hidden=4, seed=0)
    with pytest.raises(ValueError):
        lstm_forward(model.lstm, np.zeros((2, 4)), np.zeros(4), np.zeros(4))
    with pytest.raises(ValueError):
        lstm_forward(model.lstm, np.zeros((2, 5)), np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError, match="need at least one step"):
        lstm_forward(model.lstm, np.zeros((0, 5)), np.zeros(4), np.zeros(4))
    for shape in ((2, 4), (2, 6), (5,)):
        with pytest.raises(ValueError, match=re.escape(
                f"window must be d_s x 5 (descriptor then 2-d position), got shape {shape}")):
            model_forward(model, np.zeros(shape))


def test_lstm_match_refuses_an_out_of_another_shape():
    model = init_model(n=3, places=5, d_s=2, hidden=4, seed=0)
    rng = np.random.default_rng(4)
    query = Traversal("q", DescriptorSequence(rng.standard_normal((4, 3))), PositionTrack(np.zeros((4, 2))))
    for shape in ((5, 4), (4, 6), (20,)):
        with pytest.raises(ValueError, match=re.escape(f"out must be 4 x 5, got shape {shape}")):
            neural.lstm_match(model, query, 2, np.empty(shape))


def test_cross_entropy_direct_formula_and_gradient():
    logits = np.array([0.5, -1.0, 2.0])
    loss, dlogits = cross_entropy_loss(logits, 2)
    probs = np.exp(logits) / np.exp(logits).sum()
    assert abs(loss + math.log(probs[2])) < 1e-12
    want = probs.copy()
    want[2] -= 1.0
    assert np.allclose(dlogits, want, atol=1e-12)
    assert abs(dlogits.sum()) < 1e-12
    huge, dhuge = cross_entropy_loss(np.array([1e4, 0.0]), 1)
    assert math.isfinite(huge) and np.isfinite(dhuge).all()
    with pytest.raises(ValueError):
        cross_entropy_loss(logits, 3)


def test_model_forward_argmax_invariant_to_head_bias_shift():
    rng = np.random.default_rng(2)
    model = init_model(n=4, places=6, d_s=3, hidden=5, seed=3)
    window = rng.standard_normal((3, 6))
    base = model_forward(model, window)
    model.head.b += 2.5
    shifted = model_forward(model, window)
    assert np.argmax(base) == np.argmax(shifted)
    assert np.allclose(shifted - base, 2.5, atol=1e-12)


def test_model_backward_rejects_stale_cache():
    model = init_model(n=2, places=3, d_s=2, hidden=3, seed=1)
    window = np.zeros((2, 4))
    _, cache = model_forward(model, window, with_cache=True)
    with pytest.raises(RuntimeError):
        model_backward(model, np.zeros((3, 4)), 0, cache)


def test_adam_matches_scalar_reference():
    model = init_model(n=2, places=2, d_s=2, hidden=2, seed=0)
    for _, arr in param_items(model.lstm, model.head):
        arr[...] = 0.0
    state = adam_init(model)
    stream = [0.3, -0.7, 1.1, 0.05, -2.0]
    theta, m, v = 0.0, 0.0, 0.0
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    for t, g in enumerate(stream, start=1):
        grads = Gradients(
            lstm=LstmParams.zeros(4, 2), head=HeadParams.zeros(2, 2)
        )
        for _, arr in param_items(grads.lstm, grads.head):
            arr[...] = g
        adam_step(state, model, grads, lr)
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * (g * g)
        theta = theta - lr * (m / (1.0 - b1**t)) / (math.sqrt(v / (1.0 - b2**t)) + eps)
        assert model.lstm.b_i[0] == theta
        assert model.head.w[1, 1] == theta
    assert state.step == len(stream)


def test_adam_first_step_is_signed_learning_rate():
    model = init_model(n=2, places=2, d_s=2, hidden=2, seed=0)
    for _, arr in param_items(model.lstm, model.head):
        arr[...] = 1.0
    state = adam_init(model)
    grads = Gradients(lstm=LstmParams.zeros(4, 2), head=HeadParams.zeros(2, 2))
    grads.lstm.b_i[...] = 0.5
    grads.head.b[...] = -3.0
    adam_step(state, model, grads, 0.01)
    assert np.allclose(model.lstm.b_i, 1.0 - 0.01, atol=1e-6)
    assert np.allclose(model.head.b, 1.0 + 0.01, atol=1e-6)
    assert np.all(model.lstm.b_f == 1.0)  # zero gradient leaves params alone


def test_adam_identical_streams_identical_parameters():
    rng = np.random.default_rng(3)
    first = init_model(n=2, places=3, d_s=2, hidden=3, seed=5)
    second = init_model(n=2, places=3, d_s=2, hidden=3, seed=5)
    sa, sb = adam_init(first), adam_init(second)
    for _ in range(4):
        grads = Gradients(lstm=LstmParams.zeros(4, 3), head=HeadParams.zeros(3, 3))
        for _, arr in param_items(grads.lstm, grads.head):
            arr[...] = rng.standard_normal(arr.shape)
        adam_step(sa, first, grads, 0.01)
        adam_step(sb, second, grads, 0.01)
    for (_, a), (_, b) in zip(
        param_items(first.lstm, first.head), param_items(second.lstm, second.head)
    ):
        assert np.array_equal(a, b)


def _reference_adam_init(model) -> SimpleNamespace:
    """AdamState's step and hyperparameters, with the moments as separate
    arrays, one per tensor view."""
    items = param_items(model.lstm, model.head)
    return SimpleNamespace(
        step=0,
        m={name: np.zeros_like(arr) for name, arr in items},
        v={name: np.zeros_like(arr) for name, arr in items},
        beta1=AdamState.beta1,
        beta2=AdamState.beta2,
        eps=AdamState.eps,
    )


def _reference_adam_step(state, model, grads, lr):
    """The per-tensor Adam loop: one pass, with temporaries, per tensor view."""
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** state.step
    c2 = 1.0 - b2 ** state.step
    params = dict(param_items(model.lstm, model.head))
    for name, g in param_items(grads.lstm, grads.head):
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        params[name] -= lr * (m / c1) / (np.sqrt(v / c2) + state.eps)


@pytest.mark.parametrize("chunk", [1, 3, 7, None])
def test_adam_matches_per_tensor_reference_across_chunk_seams(monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(neural, "_ADAM_CHUNK", chunk)
    rng = np.random.default_rng(21)
    # LSTM buffer 208 and head buffer 50 elements: both end mid-chunk for
    # chunks of 3, 7 and the default
    model = init_model(n=6, places=10, d_s=2, hidden=4, seed=1)
    model.lstm.flat[...] = rng.standard_normal(model.lstm.flat.size)
    model.head.flat[...] = rng.standard_normal(model.head.flat.size)
    reference = init_model(n=6, places=10, d_s=2, hidden=4, seed=1)
    reference.lstm.flat[...] = model.lstm.flat
    reference.head.flat[...] = model.head.flat
    state, ref_state = adam_init(model), _reference_adam_init(reference)
    grads = Gradients.zeros(model)
    for step in range(5):
        scale = 0.0 if step == 2 else 10.0 ** (step - 2)
        grads.lstm.flat[...] = scale * rng.standard_normal(grads.lstm.flat.size)
        grads.head.flat[...] = scale * rng.standard_normal(grads.head.flat.size)
        adam_step(state, model, grads, 0.01 * (step + 1))
        _reference_adam_step(ref_state, reference, grads, 0.01 * (step + 1))
        assert np.array_equal(model.lstm.flat, reference.lstm.flat)
        assert np.array_equal(model.head.flat, reference.head.flat)
        for moments, ref_moments in ((state.m, ref_state.m), (state.v, ref_state.v)):
            for name, arr in param_items(moments.lstm, moments.head):
                assert np.array_equal(arr, ref_moments[name]), name
    assert state.step == ref_state.step == 5
    # m and v are distinct Gradients laid out like the model
    assert isinstance(state.m, Gradients) and isinstance(state.v, Gradients)
    for moments in (state.m, state.v):
        assert moments.lstm.flat.shape == model.lstm.flat.shape
        assert moments.head.flat.shape == model.head.flat.shape
        assert moments.lstm.flat.dtype == moments.head.flat.dtype == model.lstm.flat.dtype
    flats = [state.m.lstm.flat, state.m.head.flat, state.v.lstm.flat, state.v.head.flat]
    flats += [model.lstm.flat, model.head.flat]
    assert not any(np.shares_memory(a, b) for i, a in enumerate(flats) for b in flats[i + 1 :])


def _traced_peak(step, state, model, grads) -> int:
    tracemalloc.start()
    try:
        step(state, model, grads, 0.01)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_adam_step_holds_only_chunk_scratch():
    rng = np.random.default_rng(22)
    model = init_model(n=1024, places=50, d_s=2, hidden=64, seed=0)
    grads = Gradients.zeros(model)
    grads.lstm.flat[...] = rng.standard_normal(grads.lstm.flat.size)
    grads.head.flat[...] = rng.standard_normal(grads.head.flat.size)
    chunk_bytes = 8 * neural._ADAM_CHUNK
    assert model.lstm.w_ii.nbytes >= 4 * chunk_bytes  # one view spans many chunks
    bound = 2 * chunk_bytes + 64 * 1024
    peak = _traced_peak(adam_step, adam_init(model), model, grads)
    assert peak <= bound, peak / chunk_bytes
    # the per-tensor loop allocates temporaries the size of a whole view
    reference_peak = _traced_peak(_reference_adam_step, _reference_adam_init(model), model, grads)
    assert reference_peak > bound, reference_peak / chunk_bytes


def _grad_norm(grads) -> float:
    return float(np.sqrt(grads.lstm.flat @ grads.lstm.flat + grads.head.flat @ grads.head.flat))


def test_clip_norm_bounds_the_gradient_adam_receives(monkeypatch):
    rng = np.random.default_rng(23)
    trav = _tiny_traversal(rng, 20, 6)
    kwargs = dict(d_s=3, epochs=3, lr=0.01, rng_seed=2, hidden=8, batch_size=4)
    raw, seen = [], []
    batch_gradients, step = neural._batch_gradients, neural.adam_step

    def recording_batch(model, xs, labels, grads, helper=None):
        out = batch_gradients(model, xs, labels, grads, helper)
        raw.append(_grad_norm(grads))
        return out

    def recording_step(state, model, grads, lr):
        seen.append(_grad_norm(grads))
        return step(state, model, grads, lr)

    monkeypatch.setattr(neural, "_batch_gradients", recording_batch)
    monkeypatch.setattr(neural, "adam_step", recording_step)
    unclipped, unclipped_curves = train(trav, **kwargs)
    assert seen == raw
    clip = float(np.median(raw))
    ceiling = 2.0 * max(raw)

    raw.clear()
    seen.clear()
    train(trav, clip_norm=clip, **kwargs)
    assert len(seen) == len(raw)
    over = [r > clip for r in raw]
    assert any(over) and not all(over)
    for r, s in zip(raw, seen):
        if r > clip:
            assert s <= clip * (1.0 + 1e-12)
        else:
            assert s == r

    raw.clear()
    seen.clear()
    loose, loose_curves = train(trav, clip_norm=ceiling, **kwargs)
    assert max(raw) < ceiling
    assert np.array_equal(loose.lstm.flat, unclipped.lstm.flat)
    assert np.array_equal(loose.head.flat, unclipped.head.flat)
    assert loose_curves.losses == unclipped_curves.losses
    assert loose_curves.accuracies == unclipped_curves.accuracies


def test_init_model_distribution_and_forget_bias():
    model = init_model(n=6, places=9, d_s=4, hidden=16, seed=11)
    bound = 1.0 / math.sqrt(16)
    for name, arr in param_items(model.lstm, model.head):
        if name == "b_f":
            assert np.all(arr == 1.0)
        else:
            assert arr.min() >= -bound and arr.max() < bound
    again = init_model(n=6, places=9, d_s=4, hidden=16, seed=11)
    for (_, a), (_, b) in zip(
        param_items(model.lstm, model.head), param_items(again.lstm, again.head)
    ):
        assert np.array_equal(a, b)
    assert model.rng_seed == 11 and model.input_dim == 8 and model.places == 9


def test_train_is_bitwise_deterministic():
    rng = np.random.default_rng(4)
    trav = _tiny_traversal(rng, 20, 6)
    kwargs = dict(d_s=3, epochs=3, lr=0.01, rng_seed=2, hidden=8, batch_size=4)
    m1, c1 = train(trav, **kwargs)
    m2, c2 = train(trav, **kwargs)
    for (_, a), (_, b) in zip(param_items(m1.lstm, m1.head), param_items(m2.lstm, m2.head)):
        assert np.array_equal(a, b)
    assert c1.losses == c2.losses
    assert c1.accuracies == c2.accuracies
    assert len(c1) == 3 and all(s > 0 for s in c1.seconds)


def test_train_zero_epochs_returns_seeded_init():
    rng = np.random.default_rng(5)
    trav = _tiny_traversal(rng, 12, 4)
    model, curves = train(trav, d_s=2, epochs=0, rng_seed=9, hidden=6)
    fresh = init_model(n=4, places=12, d_s=2, hidden=6, seed=9)
    for (_, a), (_, b) in zip(
        param_items(model.lstm, model.head), param_items(fresh.lstm, fresh.head)
    ):
        assert np.array_equal(a, b)
    assert len(curves) == 0


def test_train_reduces_loss_and_reports_accuracy():
    rng = np.random.default_rng(6)
    trav = _tiny_traversal(rng, 15, 8)
    _, curves = train(trav, d_s=2, epochs=25, rng_seed=0, hidden=24)
    assert curves.losses[-1] < curves.losses[0]
    assert curves.accuracies[-1] > curves.accuracies[0]
    assert 0.0 <= min(curves.accuracies) and max(curves.accuracies) <= 1.0


def test_train_scales_an_unflagged_reference_once_as_l2_normalize_does(tmp_path, monkeypatch):
    # rows at random scales and one flat frame, which clears l2_normalize's
    # flag: train scales them once, as on l2_normalize's rows taken as they are
    rng = np.random.default_rng(15)
    unit = _tiny_traversal(rng, 14, 5)
    data = unit.descriptors.data * rng.uniform(0.1, 10.0, (14, 1))
    data[6] = 0.0
    raw = replace(unit, descriptors=DescriptorSequence(data=data))
    kwargs = dict(d_s=3, epochs=3, rng_seed=2, hidden=6, batch_size=4)
    model, curves = train(raw, **kwargs)
    scaled = replace(raw, descriptors=l2_normalize(raw.descriptors))
    assert not scaled.descriptors.normalized  # the flat frame clears the flag
    monkeypatch.setattr(neural, "l2_normalize", lambda seq: seq)  # train on it as it is
    once, once_curves = train(scaled, **kwargs)
    save_checkpoint(model, tmp_path / "raw.spm1")
    save_checkpoint(once, tmp_path / "once.spm1")
    assert (tmp_path / "raw.spm1").read_bytes() == (tmp_path / "once.spm1").read_bytes()
    assert curves.losses == once_curves.losses
    assert curves.accuracies == once_curves.accuracies


def test_train_rejects_a_sequence_length_outside_the_route():
    reference = _tiny_traversal(np.random.default_rng(14), 6, 3)
    for d_s in (0, 7):
        with pytest.raises(ValueError) as trained:
            train(reference, d_s=d_s, epochs=1, hidden=4)
        with pytest.raises(ValueError) as windowed:
            make_windows(reference, d_s)
        assert str(trained.value) == str(windowed.value) == f"sequence length {d_s} outside [1, 6]"


def test_train_gathers_the_batches_of_a_float64_reference_copy_bit_for_bit(monkeypatch):
    # 23 windows of d_s = 3 in batches of 5: each epoch ends on a batch of 3
    frames, dim, d_s, batch_size, epochs, seed, hidden = 25, 6, 3, 5, 2, 7, 4
    reference = _tiny_traversal(np.random.default_rng(12), frames, dim)
    seen = []
    real_gradients = neural._batch_gradients

    def gradients(model, xs, labels, grads, helper=None):
        seen.append((xs.copy(), labels.copy()))
        return real_gradients(model, xs, labels, grads, helper)

    monkeypatch.setattr(neural, "_batch_gradients", gradients)
    train(reference, d_s=d_s, epochs=epochs, rng_seed=seed, hidden=hidden, batch_size=batch_size)
    # the gather from one float64 T x (n + 2) copy, by window start and label
    windows = make_windows(reference, d_s)
    inputs = np.hstack([reference.descriptors.data, reference.positions.data])
    starts = np.array([w.start for w in windows])
    labels = np.array([w.label for w in windows])
    offsets = np.arange(d_s)[:, None]
    rng = RandomStream(seed)  # train draws the init, then each epoch's shuffle
    neural._init_from_stream(rng, dim, frames, d_s, hidden)
    order = np.arange(len(windows))
    expected = []
    for _ in range(epochs):
        rng.shuffle(order)
        for lo in range(0, len(order), batch_size):
            idx = order[lo : lo + batch_size]
            expected.append((inputs[starts[idx] + offsets], labels[idx]))
    assert [len(ys) for _, ys in seen] == [5, 5, 5, 5, 3] * epochs
    for (xs, ys), (want_xs, want_ys) in zip(seen, expected, strict=True):
        assert xs.dtype == want_xs.dtype and xs.shape == want_xs.shape
        assert xs.tobytes() == want_xs.tobytes()
        assert np.array_equal(ys, want_ys)


def test_train_holds_no_float64_copy_of_the_reference():
    frames, dim = 2000, 256
    rng = np.random.default_rng(13)
    data = rng.standard_normal((frames, dim))
    data /= np.linalg.norm(data, axis=1, keepdims=True)
    reference = Traversal(
        name="long",
        descriptors=DescriptorSequence(data=data, normalized=True),
        positions=PositionTrack(np.zeros((frames, 2))),
    )
    copy_bytes = 8 * frames * (dim + 2)  # one float64 T x (n + 2) copy
    tracemalloc.start()
    try:
        train(reference, d_s=2, epochs=1, hidden=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about 0.67 here; a run that holds the copy peaks at about 1.75
    assert peak < copy_bytes, peak / copy_bytes


def test_infer_activity_is_softmax_of_reference_forward():
    pair = generate(SynthConfig(frames=18, dim=6, smoothness=0.4, condition_noise=0.1, seed=8))
    model, _ = train(pair.reference, d_s=3, epochs=2, rng_seed=1, hidden=8)
    activity, report = infer(model, pair.query)
    assert activity.shape == (18, 18)
    assert np.allclose(activity.sum(axis=1), 1.0, atol=1e-9)
    assert activity.min() > 0.0 and activity.max() < 1.0
    assert report.higher_is_better
    assert np.array_equal(report.best_ref, np.argmax(activity, axis=1))
    frames = np.concatenate(
        [pair.query.descriptors.data.astype(np.float64), pair.query.positions.data], axis=1
    )
    for q in (0, 1, 5, 17):  # padded prefixes and interior frames alike
        idx = [max(q - 3 + 1 + k, 0) for k in range(3)]
        logits = model_forward(model, frames[idx])
        probs = np.exp(logits - logits.max())
        probs /= probs.sum()
        assert np.allclose(activity[q], probs, rtol=1e-9, atol=1e-12)


def test_infer_windows_hold_across_query_blocks():
    # queries past the first 512-row block read their steps' projections as
    # slices; each window must still be frames [q - d_s + 1, q]
    rng = np.random.default_rng(33)
    query = _tiny_traversal(rng, 2100, 5)
    model = init_model(n=5, places=7, d_s=4, hidden=6, seed=3)
    activity, _ = infer(model, query)
    frames = np.concatenate(
        [query.descriptors.data.astype(np.float64), query.positions.data], axis=1
    )
    for q in (0, 2, 3, 511, 512, 513, 1023, 1024, 1025, 2047, 2048, 2099):
        idx = [max(q - 4 + 1 + k, 0) for k in range(4)]
        logits = model_forward(model, frames[idx])
        probs = np.exp(logits - logits.max())
        probs /= probs.sum()
        assert np.allclose(activity[q], probs, rtol=1e-9, atol=1e-12), q


@pytest.mark.parametrize("d_s", [1, 8])
def test_infer_pads_windows_that_start_before_frame_0(d_s):
    # at d_s = 8 every window of the 5 queries starts before frame 0, so its
    # first steps read the rows that repeat frame 0's projection
    rng = np.random.default_rng(35)
    query = _tiny_traversal(rng, 5, 5)
    model = init_model(n=5, places=7, d_s=3, hidden=6, seed=4)
    activity, _ = infer(model, query, d_s)
    frames = np.concatenate(
        [query.descriptors.data.astype(np.float64), query.positions.data], axis=1
    )
    for q in range(5):
        idx = [max(q - d_s + 1 + k, 0) for k in range(d_s)]
        logits = model_forward(model, frames[idx])
        probs = np.exp(logits - logits.max())
        probs /= probs.sum()
        assert np.allclose(activity[q], probs, rtol=1e-9, atol=1e-12), q


def _loaded(model, tmp_path):
    path = tmp_path / "model.spm1"
    save_checkpoint(model, path)
    return load_checkpoint(path)


def test_infer_on_a_loaded_checkpoint_stays_float32(tmp_path):
    # twelve 512-row blocks on two workers: the float32 path peaks at 0.35x
    # one float64 Q x 4H projection here, a float64 h0 at 1.24x and float64
    # inputs at 1.70x
    frames, hidden = 6144, 64
    rng = np.random.default_rng(31)
    query = _tiny_traversal(rng, frames, 8)
    model = _loaded(init_model(n=8, places=4, d_s=3, hidden=hidden, seed=2), tmp_path)
    tracemalloc.start()
    try:
        activity, report = infer(model, query)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 8 * frames * 4 * hidden
    assert peak < bound, peak / bound
    assert activity.dtype == np.float64 and report.scores.dtype == np.float64
    assert np.all(np.abs(activity.sum(axis=1) - 1.0) <= 1e-9)


def test_float32_infer_picks_the_float64_best_ref(tmp_path):
    pair = generate(SynthConfig(frames=80, dim=16, smoothness=0.5, condition_noise=0.1, seed=6))
    model, _ = train(pair.reference, d_s=3, epochs=30, rng_seed=0, hidden=32)
    act64, rep64 = infer(model, pair.query)
    act32, rep32 = infer(_loaded(model, tmp_path), pair.query)
    assert np.all(np.abs(act32.sum(axis=1) - 1.0) <= 1e-9)
    assert np.array_equal(rep32.best_ref, rep64.best_ref)
    assert np.allclose(act32, act64, rtol=1e-3, atol=1e-6)
    assert not np.array_equal(act32, act64)  # the float32 path really ran


def test_infer_checks_dimensions_and_ds_override():
    pair = generate(SynthConfig(frames=10, dim=4, smoothness=0.2, seed=3))
    model, _ = train(pair.reference, d_s=2, epochs=1, rng_seed=0, hidden=6)
    act_small, _ = infer(model, pair.query, d_s=1)
    assert act_small.shape == (10, 10)
    other = generate(SynthConfig(frames=10, dim=6, smoothness=0.2, seed=3))
    with pytest.raises(ValueError, match="dim"):
        infer(model, other.query)
    with pytest.raises(ValueError):
        infer(model, pair.query, d_s=0)


def test_checkpoint_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(7)
    for case in range(10):
        model = init_model(
            n=int(rng.integers(2, 8)),
            places=int(rng.integers(2, 12)),
            d_s=int(rng.integers(1, 6)),
            hidden=int(rng.integers(1, 10)),
            seed=case,
        )
        path = tmp_path / f"m{case}.spm1"
        save_checkpoint(model, path)
        back = load_checkpoint(path)
        assert back.d_s == model.d_s and back.n == model.n
        assert back.places == model.places
        assert back.lstm.hidden_dim == model.lstm.hidden_dim
        assert back.rng_seed is None
        for (_, a), (_, b) in zip(
            param_items(model.lstm, model.head), param_items(back.lstm, back.head)
        ):
            assert np.array_equal(a.astype(np.float32).astype(np.float64), b)
        # a second save of the loaded model reproduces identical bytes
        again = tmp_path / f"m{case}b.spm1"
        save_checkpoint(back, again)
        assert again.read_bytes() == path.read_bytes()


def test_load_checkpoint_keeps_float32_weights(tmp_path):
    model = init_model(n=5, places=7, d_s=2, hidden=4, seed=3)
    back = _loaded(model, tmp_path)
    rounded = neural.at_checkpoint_precision(model)
    for loaded in (back, rounded):
        for params in (loaded.lstm, loaded.head):
            assert params.flat.dtype == np.float32
        for (name, view), (_, ref) in zip(
            param_items(loaded.lstm, loaded.head), param_items(model.lstm, model.head)
        ):
            assert view.dtype == np.float32 and view.shape == ref.shape, name
            assert np.array_equal(view, ref.astype(np.float32)), name
    assert model.lstm.flat.dtype == np.float64 and model.head.flat.dtype == np.float64
    assert (rounded.d_s, rounded.n, rounded.rng_seed) == (model.d_s, model.n, model.rng_seed)
    assert rounded.lstm.flat.tobytes() == back.lstm.flat.tobytes()
    assert rounded.head.flat.tobytes() == back.head.flat.tobytes()


def test_checkpoint_rejects_corruption(tmp_path):
    model = init_model(n=3, places=4, d_s=2, hidden=3, seed=0)
    path = tmp_path / "m.spm1"
    save_checkpoint(model, path)
    blob = path.read_bytes()
    bad = tmp_path / "bad.spm1"
    bad.write_bytes(b"SPMX" + blob[4:])
    with pytest.raises(ValueError, match="SPM1"):
        load_checkpoint(bad)
    bad.write_bytes(blob[:-8])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(bad)
    bad.write_bytes(blob + b"\x00\x00")
    with pytest.raises(ValueError, match="trailing"):
        load_checkpoint(bad)


def test_checkpoint_sizes_are_checked_before_allocating(tmp_path):
    # a header whose tensors would fill petabytes: the file is too short for
    # them, which must be found before any buffer is allocated
    path = tmp_path / "huge.spm1"
    header = np.array([6, 1 << 24, 1 << 24, 2], dtype="<u4").tobytes()
    path.write_bytes(b"SPM1" + header + bytes(64))
    with pytest.raises(ValueError, match="truncated in the LSTM tensors"):
        load_checkpoint(path)


def test_load_checkpoint_reads_into_the_weights_it_keeps(tmp_path):
    # every weight goes from the file into the model's own buffers, with no
    # bytes object or second copy; beside them, one buffer's finiteness mask
    model = init_model(n=1022, places=2000, d_s=3, hidden=128, seed=5)
    path = tmp_path / "m.spm1"
    save_checkpoint(model, path)
    weights = 4 * (model.lstm.flat.size + model.head.flat.size)
    tracemalloc.start()
    try:
        back = load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.lstm.flat.nbytes + back.head.flat.nbytes == weights
    assert np.array_equal(back.head.flat, model.head.flat.astype(np.float32))
    assert peak <= 1.25 * weights, peak / weights


@pytest.mark.parametrize("where", ["lstm", "head", "both"])
def test_load_checkpoint_names_the_offset_of_a_non_finite_weight(tmp_path, where):
    model = init_model(n=3, places=4, d_s=2, hidden=3, seed=0)
    path = tmp_path / "m.spm1"
    save_checkpoint(model, path)
    blob = bytearray(path.read_bytes())
    lstm_end = 20 + 4 * model.lstm.flat.size
    offsets = {"lstm": [20 + 4 * 7], "head": [lstm_end + 4 * 2], "both": [lstm_end, 24]}[where]
    for offset, value in zip(offsets, (np.nan, np.inf)):
        blob[offset : offset + 4] = np.array([value], dtype="<f4").tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError) as err:
        load_checkpoint(path)
    assert str(err.value) == f"{path}: non-finite weight (byte offset {min(offsets)})"


def test_curves_csv_roundtrip(tmp_path):
    curves = TrainingCurves(
        losses=[2.5, 1.25, 0.7071067811865476],
        accuracies=[0.1, 0.5, 0.9],
        seconds=[0.01, 0.02, 0.015],
    )
    path = tmp_path / "curves.csv"
    save_curves_csv(curves, path)
    assert path.read_text().splitlines()[0] == "epoch,loss,accuracy,seconds"
    back = load_curves_csv(path)
    assert back.losses == curves.losses
    assert back.accuracies == curves.accuracies
    assert back.seconds == curves.seconds
    bad = tmp_path / "bad.csv"
    bad.write_text("wrong,header\n")
    with pytest.raises(ValueError, match="header"):
        load_curves_csv(bad)


def test_curves_csv_names_the_line_of_a_non_numeric_field(tmp_path):
    path = tmp_path / "curves.csv"
    path.write_text("epoch,loss,accuracy,seconds\n0,2.5,0.1,0.01\n1,1.25,high,0.02\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: malformed row '1,1.25,high,0.02'")):
        load_curves_csv(path)


def test_curves_csv_parses_the_epoch(tmp_path):
    path = tmp_path / "curves.csv"
    path.write_text("epoch,loss,accuracy,seconds\nx,2.5,0.1,0.01\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: malformed row 'x,2.5,0.1,0.01'")):
        load_curves_csv(path)


def test_training_error_carries_location():
    err = TrainingError(epoch=4, batch=7)
    assert err.epoch == 4 and err.batch == 7
    assert "epoch 4" in str(err) and "batch 7" in str(err)


def test_train_stops_at_the_first_non_finite_batch_before_its_step(monkeypatch):
    # the losses of epoch 1, batch 2 turn NaN: train raises there, having run
    # an Adam step for every batch before it and none for that one
    reference = _tiny_traversal(np.random.default_rng(3), frames=25, dim=4)
    batches = 3  # 24 windows of d_s = 2 in batches of 8
    calls = {"gradients": 0, "steps": 0}
    real_gradients, real_step = neural._batch_gradients, neural.adam_step

    def gradients(*args):
        losses, logits = real_gradients(*args)
        if calls["gradients"] == 1 * batches + 2:
            losses = np.full_like(losses, np.nan)
        calls["gradients"] += 1
        return losses, logits

    def step(*args):
        calls["steps"] += 1
        real_step(*args)

    monkeypatch.setattr(neural, "_batch_gradients", gradients)
    monkeypatch.setattr(neural, "adam_step", step)
    with pytest.raises(TrainingError, match="non-finite loss at epoch 1, batch 2") as err:
        train(reference, d_s=2, epochs=3, hidden=4, batch_size=8)
    assert (err.value.epoch, err.value.batch) == (1, 2)
    assert calls == {"gradients": batches + 3, "steps": batches + 2}


def test_infer_holds_only_block_sized_scratch_beyond_its_outputs(tmp_path):
    # at N = 8192 a block is 128 queries; the parent's single 300-query
    # softmax took three Q x N float64 temporaries
    frames, places, d_s, hidden = 300, 8192, 3, 8
    rng = np.random.default_rng(32)
    query = _tiny_traversal(rng, frames, 6)
    model = _loaded(init_model(n=6, places=places, d_s=d_s, hidden=hidden, seed=3), tmp_path)
    tracemalloc.start()
    try:
        activity, _ = infer(model, query)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = activity.nbytes + 4 * (d_s - 1 + frames) * 4 * hidden  # activity and projection
    block = 8 * 128 * places  # one block's float64 activity rows
    assert peak - held < block, (peak - held) / block  # about 0.57 here


def test_infer_bits_do_not_depend_on_the_block_size(tmp_path, monkeypatch):
    # 289 queries: a last block of one row joins the one before it
    frames, places = 289, 1500
    rng = np.random.default_rng(33)
    query = _tiny_traversal(rng, frames, 40)
    model = _loaded(init_model(n=40, places=places, d_s=5, hidden=32, seed=4), tmp_path)
    runs = []
    for rows in (32, 128):
        monkeypatch.setattr(neural, "_ACTIVITY_BYTES", 8 * places * rows)
        assert neural._activity_rows(places) == rows
        activity, report = infer(model, query)
        runs.append((activity.tobytes(), report.best_ref.tobytes(), report.scores.tobytes()))
    assert runs[0] == runs[1]


def test_infer_scales_an_unflagged_query_as_l2_normalize_does(tmp_path):
    # the model was trained on unit rows, so the core scales an unflagged
    # query's frames, block by block, to the bits l2_normalize gives the whole
    # query; 1100 frames make blocks of 512, 512 and 76 queries, each after
    # the first reading 3 frames of the one before
    rng = np.random.default_rng(34)
    query = _tiny_traversal(rng, 1100, 6)
    tripled = replace(query, descriptors=DescriptorSequence(data=3 * query.descriptors.data))
    unit = replace(tripled, descriptors=l2_normalize(tripled.descriptors))
    assert not tripled.descriptors.normalized and unit.descriptors.normalized
    model = init_model(n=6, places=9, d_s=4, hidden=8, seed=5)
    for weights in (model, _loaded(model, tmp_path)):
        got_activity, got = infer(weights, tripled)
        want_activity, want = infer(weights, unit)
        assert got_activity.tobytes() == want_activity.tobytes()
        assert got.best_ref.tobytes() == want.best_ref.tobytes()
        assert got.scores.tobytes() == want.scores.tobytes()


def test_an_unflagged_query_costs_only_norm_block_scratch(tmp_path):
    # 1100 frames of 1024-d made a 1027-frame first block, 8 MiB in float64;
    # scaling it through l2_normalize held that and its float32 copy (11.5 MiB
    # above the flagged query's peak), while the two workers' unit_rows-sized
    # chunks hold 1.0-1.5 MiB
    rng = np.random.default_rng(37)
    frames, dim = 1100, 1024
    pos = np.linspace(-1.0, 1.0, frames)
    raw = Traversal(name="raw", positions=PositionTrack(np.column_stack([pos, -pos])),
                    descriptors=DescriptorSequence(rng.standard_normal((frames, dim))))
    unit = replace(raw, descriptors=l2_normalize(raw.descriptors))
    model = _loaded(init_model(n=dim, places=50, d_s=4, hidden=8, seed=1), tmp_path)
    peaks, reports = [], []
    for query in (unit, raw):
        tracemalloc.start()
        try:
            reports.append(neural.lstm_match(model, query, 4))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert reports[0].scores.tobytes() == reports[1].scores.tobytes()
    excess = (peaks[1] - peaks[0]) / _BLOCK_BYTES
    assert excess < 4, excess  # 2 MiB


def test_lstm_match_names_the_query_frames_of_non_finite_logits(tmp_path):
    # gate biases of 20 hold every hidden unit above tanh(1), so a head row of
    # 3e38, finite in float32, overflows that logit of every query after
    # frame 2: the deploy must raise, not write NaN scores, and no overflow
    # warning may escape
    rng = np.random.default_rng(36)
    query = _tiny_traversal(rng, 40, 6)
    model = _loaded(init_model(n=6, places=9, d_s=3, hidden=8, seed=6), tmp_path)
    for bias in (model.lstm.b_i, model.lstm.b_g, model.lstm.b_o):
        bias[...] = 20.0
    model.head.w[4] = 3e38
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            neural.lstm_match(model, query, 3)
    assert str(err.value) == "non-finite LSTM logits at query frame 0 (40 of frames 0-39)"


def _sign_gated(model):
    """Make model's logit 4 overflow float32 exactly for the queries whose last
    frame has a positive first descriptor entry: the forget gate shuts, the
    input and output gates open, and g takes that entry's sign, so every hidden
    unit is about +-tanh(1) and head row 4 adds about +-2.3e38 to a bias of 3e38."""
    model.lstm.flat[...] = 0.0
    model.lstm.b_i[...] = model.lstm.b_o[...] = 20.0
    model.lstm.b_f[...] = -20.0
    model.lstm.w_ig[:, 0] = 1e4
    model.head.w[4] = 3e38 / model.lstm.hidden_dim
    model.head.b[4] = 3e38
    return model


def test_the_lowest_failing_block_names_the_error_on_either_worker(tmp_path, monkeypatch):
    # five 8-query blocks, the second and fourth with overflowing logits: the
    # second is projected late, so the helper, taking blocks from the back,
    # usually meets the fourth first, yet the call raises the second's error,
    # no worker takes the third block between the failures, and no overflow
    # warning escapes the helper thread
    monkeypatch.setattr(neural, "_QUERY_ROWS", 8)
    query = _tiny_traversal(np.random.default_rng(38), 40, 6)
    project, middle_block_runs = neural._project, []

    def late_at_13(lstm, x, out=None):
        def holds(frame):
            return (x[:, -2:] == query.positions.data[frame].astype(x.dtype)).all(axis=1).any()

        if holds(13):
            time.sleep(0.05)
        middle_block_runs.append(holds(19))  # only the third block's frames hold 19
        return project(lstm, x, out)

    monkeypatch.setattr(neural, "_project", late_at_13)

    def positive_at(frames):
        data = query.descriptors.data.copy()
        data[:, 0] = -np.abs(data[:, 0])
        data[frames, 0] *= -1.0
        return replace(query, descriptors=DescriptorSequence(data=data, normalized=True))

    model = _sign_gated(_loaded(init_model(n=6, places=9, d_s=3, hidden=8, seed=6), tmp_path))
    threads = threading.active_count()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(5):
            with pytest.raises(ValueError) as err:
                neural.lstm_match(model, positive_at([13, 30]), 3)
            assert str(err.value) == "non-finite LSTM logits at query frame 13 (1 of frames 8-15)"
            assert threading.active_count() == threads
        # each worker stops at the bad block on its side of the third one
        assert not any(middle_block_runs)
        with pytest.raises(ValueError, match="query frame 30 [(]1 of frames 24-31[)]"):
            neural.lstm_match(model, positive_at([30]), 3)
        neural.lstm_match(model, positive_at([]), 3)  # every logit finite


def test_a_failing_first_block_stops_the_other_worker(tmp_path, monkeypatch):
    # six 8-query blocks with overflowing logits in the first and the third:
    # every block but the first is projected late, so the first fails while
    # the helper is still in its first block, the last, after which it takes
    # none, so it never reaches the third block's failure
    monkeypatch.setattr(neural, "_QUERY_ROWS", 8)
    query = _tiny_traversal(np.random.default_rng(40), 48, 6)
    data = query.descriptors.data.copy()
    data[:, 0] = -np.abs(data[:, 0])
    data[[2, 5, 20], 0] *= -1.0
    query = replace(query, descriptors=DescriptorSequence(data=data, normalized=True))
    project, projected = neural._project, []

    def late_after_block_0(lstm, x, out=None):
        positions = query.positions.data.astype(x.dtype)
        block = int(np.flatnonzero((positions == x[-1, -2:]).all(axis=1))[0]) // 8
        projected.append(block)
        if block:
            time.sleep(0.05)
        return project(lstm, x, out)

    monkeypatch.setattr(neural, "_project", late_after_block_0)
    model = _sign_gated(_loaded(init_model(n=6, places=9, d_s=3, hidden=8, seed=6), tmp_path))
    threads = threading.active_count()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(5):
            projected.clear()
            with pytest.raises(ValueError) as err:
                neural.lstm_match(model, query, 3)
            assert str(err.value) == "non-finite LSTM logits at query frame 2 (2 of frames 0-7)"
            assert threading.active_count() == threads
            assert projected.count(0) == 1 and len(projected) <= 2, projected


def test_two_workers_keep_every_bit_of_one(tmp_path, monkeypatch):
    # 64-query blocks split 300 queries into five, which the two threads pop
    # from the two ends of one deque; 150-query blocks make two; 4096-query
    # blocks make one, which the calling thread runs alone. Which thread runs
    # a block depends on timing, so the 64-query runs are repeated with the
    # first block of either thread held back until the other thread has
    # projected the other four
    frames, places = 300, 700
    rng = np.random.default_rng(39)
    query = _tiny_traversal(rng, frames, 40)
    model = _loaded(init_model(n=40, places=places, d_s=5, hidden=32, seed=7), tmp_path)
    threads, caller, project = threading.active_count(), threading.current_thread(), neural._project

    def holding_back(caller_held):
        entered, released, others = threading.Event(), threading.Event(), []

        def late(lstm, x, out=None):
            if (threading.current_thread() is caller) == caller_held:
                entered.set()
                assert released.wait(10)
            else:
                assert entered.wait(10)  # the held thread has taken its one block
                others.append(len(x))
                if len(others) == 4:
                    released.set()
            return project(lstm, x, out)

        return late

    def recorded(lstm, x, out=None):
        projected.append((neural._QUERY_ROWS, threading.current_thread()))
        return project(lstm, x, out)

    runs, projected = [], []
    for rows, caller_held in ((64, None), (64, True), (64, False), (150, None), (4096, None)):
        monkeypatch.setattr(neural, "_QUERY_ROWS", rows)
        run = []
        for dtype in (np.float64, np.float32, None):
            late = recorded if caller_held is None else holding_back(caller_held)
            monkeypatch.setattr(neural, "_project", late)
            out = None if dtype is None else np.empty((frames, places), dtype=dtype)
            report = neural.lstm_match(model, query, 5, out)
            assert threading.active_count() == threads
            run += [report.best_ref.tobytes(), report.scores.tobytes()]
            run += [] if out is None else [out.tobytes()]
        runs.append(run)
    assert all(run == runs[-1] for run in runs)
    assert {thread for rows, thread in projected if rows == 4096} == {caller}


class _CountingPool(neural.ThreadPoolExecutor):
    """train's helper pool, recording each task it is given; the task whose
    index is fail_at raises instead of running."""

    tasks: list = []
    fail_at = None

    def submit(self, fn, /, *args, **kwargs):
        index = len(self.tasks)
        self.tasks.append(getattr(fn, "__name__", fn))
        if index == self.fail_at:
            def fn(*args, **kwargs):
                raise RuntimeError(f"helper task {index} failed")
        return super().submit(fn, *args, **kwargs)


def test_a_forced_split_keeps_every_bit_of_the_one_thread_training(monkeypatch):
    # 4H = 520 and m = 452 are not multiples of 64; W_x is far below the
    # split size, which is lowered to it. 68 windows make batches of 32, 32
    # and 4, so the 4-window batch's recurrence GEMMs are too small to cut
    # and the second split run switches threads every microsecond
    rng = np.random.default_rng(41)
    reference = _tiny_traversal(rng, 70, 450)
    monkeypatch.setattr(neural, "ThreadPoolExecutor", _CountingPool)
    runs, interval = [], sys.getswitchinterval()
    for entries, switch in ((None, interval), (1, interval), (1, 1e-6)):
        monkeypatch.setattr(neural, "_SPLIT_ENTRIES", entries or neural._SPLIT_ENTRIES)
        monkeypatch.setattr(_CountingPool, "tasks", [])
        sys.setswitchinterval(switch)
        try:
            model, curves = train(reference, d_s=3, epochs=2, hidden=130, clip_norm=1.0)
        finally:
            sys.setswitchinterval(interval)
        runs.append((model.lstm.flat.tobytes(), model.head.flat.tobytes(),
                     curves.losses, curves.accuracies))
        if entries is None:  # W_x has 58760 entries: no helper
            assert _CountingPool.tasks == []
        else:  # per epoch, each 32-window batch cuts its projection, its 2
            # recurrence GEMMs and dW_x, the 4-window batch its projection and
            # dW_x, and every batch adds 2 dW_h terms on the helper
            assert _CountingPool.tasks.count("matmul") == 2 * (2 * 4 + 2)
            assert _CountingPool.tasks.count("add_w_h") == 2 * 3 * 2
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("fail_at", range(6))
def test_a_failing_helper_task_reaches_the_caller(monkeypatch, fail_at):
    # the tasks of the first batch: the projection's half, the recurrence's
    # two, the dW_h terms of steps 2 and 1, and the dW_x half
    monkeypatch.setattr(neural, "_SPLIT_ENTRIES", 1)
    monkeypatch.setattr(_CountingPool, "tasks", [])
    monkeypatch.setattr(_CountingPool, "fail_at", fail_at)
    monkeypatch.setattr(neural, "ThreadPoolExecutor", _CountingPool)
    reference = _tiny_traversal(np.random.default_rng(42), 40, 450)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match=f"^helper task {fail_at} failed$"):
        train(reference, d_s=3, epochs=1, hidden=130)
    assert threading.active_count() == threads
    first_batch = ["matmul"] * 3 + ["add_w_h"] * 2 + ["matmul"]
    assert _CountingPool.tasks[: fail_at + 1] == first_batch[: fail_at + 1]
