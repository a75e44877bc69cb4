"""Trainable sequence matcher: LSTM over descriptor+position windows.

A single-cell LSTM consumes windows of per-frame inputs (descriptor
concatenated with the 2-d position, in that order) and a linear head maps
the final hidden state to one logit per reference frame. Training is plain
softmax cross-entropy with hand-derived backpropagation through time and
Adam; inference (lstm_match, which infer wraps) takes a softmax activity
profile over reference places for every query frame and keeps its argmax.
Training, inference and the single-window functions of the gradient check
share one core: _recur over the gates fused in the order i, f, g, o, and
its BPTT, _backward. The loss and the activity profile share one in-place
log softmax, _log_softmax_rows.

Precision follows the parameters. A model trained in this process keeps
float64 weights, so training, Adam and the reference functions the gradient
check uses run in float64. A checkpoint stores float32 weights and loads as
float32, and lstm_match runs its projection, recurrence and head GEMMs at
the parameters' dtype; only the softmax over the logits is taken in float64.
lstm_match's caller and one helper pop its query blocks from the two ends
of one deque and run each as one thread would, so they change no bit.
train's caller and one helper share each step of a large model: the helper
writes one half of the projection, recurrence and dW_x GEMMs, each cut
where blas.cut allows at a seam that keeps every bit (_gemm), and adds the
dW_h terms in the step order while the caller goes on with the BPTT. Both
run their GEMMs at one BLAS thread (blas.one_thread), so training and
deploys give the same bits at any OPENBLAS_NUM_THREADS.

Checkpoints use the SPM1 container: magic "SPM1"; m, H, N, d_s as unsigned
32-bit little-endian; then the two flat parameter buffers, the LSTM's
[W_x (4H x m) | W_h (4H x H) | b (4H)] and the head's [w (N x H) | b (N)],
as float32 little-endian, row-major. That is every tensor in declaration
order: w_ii, w_if, w_ig, w_io, w_hi, w_hf, w_hg, w_ho, b_i, b_f, b_g, b_o,
head w, head b.
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .blas import cut, one_thread
from .dataset import (MatchReport, Traversal, _block_rows, _first_nonfinite, _row_blocks,
                      read_table, write_table)
from .descriptors import l2_normalize, unit_rows
from .rng import RandomStream

SPM1_MAGIC = b"SPM1"
_CURVES_HEADER = "epoch,loss,accuracy,seconds"
# the dtype SPM1 stores weights in, and so the one loaded models compute in;
# little-endian on any host, so a load reads the file's bytes as they are
_CHECKPOINT_DTYPE = np.dtype("<f4")

# float64 elements per Adam chunk: 128 KiB of each of the four buffers and of
# the two scratch arrays, 768 KiB in all, so a chunk stays in L2 between its
# operations (fastest of 2^12-2^18 at H=512 on a Xeon with 2 MiB L2 per core)
_ADAM_CHUNK = 1 << 14

# W_x entries from which train shares each step's large GEMMs between the
# caller and one helper thread, each at one BLAS thread (see _gemm). On
# sweep-aliased's shape (W_x 256 x 66) blas.cut refuses every GEMM, and a
# helper that only added the dW_h terms took 20 epochs from 0.72-0.74 s to
# 0.80-0.81 s on a 2-core Xeon. At train-h512's shape (W_x 2048 x 4098) the
# helper took one epoch from 64 to 88 windows/s.
_SPLIT_ENTRIES = 1 << 20

# Queries per projection GEMM of lstm_match, and the cap of _activity_rows.
# OpenBLAS repacks W_x per call: at paper scale, H=512 and 1 BLAS thread,
# 256-row blocks projected 25% slower than one whole-query GEMM, 1024 10%.
# lstm_match's two threads each hold one block's frames and projection, so
# together they hold as much as one 1024-row block.
_QUERY_ROWS = 512

# Bytes of float64 activity rows per recurrence-and-head block of lstm_match (8 MiB)
_ACTIVITY_BYTES = 1 << 23


class TrainingError(RuntimeError):
    """Raised when the loss turns non-finite; carries epoch and batch."""

    def __init__(self, epoch: int, batch: int):
        super().__init__(f"non-finite loss at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch


class LstmParams:
    """LSTM weights as views of one flat buffer (float64 unless dtype says
    otherwise) in SPM1 order: the fused blocks w_x (4H x m), w_h (4H x H),
    b (4H) and their per-gate row slices w_ii ... w_io, w_hi ... w_ho,
    b_i ... b_o (gates i, f, g, o)."""

    def __init__(self, input_dim: int, hidden_dim: int, dtype=np.float64):
        four = 4 * hidden_dim
        self.flat = np.zeros(four * (input_dim + hidden_dim + 1), dtype=dtype)
        self.w_x = self.flat[: four * input_dim].reshape(four, input_dim)
        self.w_h = self.flat[four * input_dim : -four].reshape(four, hidden_dim)
        self.b = self.flat[-four:]
        self.w_ii, self.w_if, self.w_ig, self.w_io = np.split(self.w_x, 4)
        self.w_hi, self.w_hf, self.w_hg, self.w_ho = np.split(self.w_h, 4)
        self.b_i, self.b_f, self.b_g, self.b_o = np.split(self.b, 4)

    @property
    def hidden_dim(self) -> int:
        return self.w_h.shape[1]

    @property
    def input_dim(self) -> int:
        return self.w_x.shape[1]

    @classmethod
    def zeros(cls, input_dim: int, hidden_dim: int, dtype=np.float64) -> "LstmParams":
        return cls(input_dim, hidden_dim, dtype)


class HeadParams:
    """Linear place-classification head in one flat buffer (float64 unless
    dtype says otherwise) laid out in SPM1 order: [w (N x H) | b (N)]; w and
    b are views of flat."""

    def __init__(self, hidden_dim: int, places: int, dtype=np.float64):
        self.flat = np.zeros(places * (hidden_dim + 1), dtype=dtype)
        self.w = self.flat[: places * hidden_dim].reshape(places, hidden_dim)
        self.b = self.flat[places * hidden_dim :]

    @property
    def places(self) -> int:
        return self.w.shape[0]

    @classmethod
    def zeros(cls, hidden_dim: int, places: int, dtype=np.float64) -> "HeadParams":
        return cls(hidden_dim, places, dtype)


@dataclass
class Gradients:
    lstm: LstmParams
    head: HeadParams

    @classmethod
    def zeros(cls, model: "SequenceModel") -> "Gradients":
        hidden = model.lstm.hidden_dim
        return cls(
            LstmParams.zeros(model.input_dim, hidden), HeadParams.zeros(hidden, model.places)
        )


@dataclass
class SequenceModel:
    """Learned matcher: LSTM + head plus the training-time configuration."""

    lstm: LstmParams
    head: HeadParams
    d_s: int
    n: int
    rng_seed: int | None = None

    @property
    def input_dim(self) -> int:
        return self.n + 2

    @property
    def places(self) -> int:
        return self.head.places


def at_checkpoint_precision(model: SequenceModel) -> SequenceModel:
    """A copy of model with the weights load_checkpoint would return after
    save_checkpoint: each one rounded to float32."""
    hidden = model.lstm.hidden_dim
    lstm = LstmParams(model.input_dim, hidden, _CHECKPOINT_DTYPE)
    head = HeadParams(hidden, model.places, _CHECKPOINT_DTYPE)
    lstm.flat[...] = model.lstm.flat
    head.flat[...] = model.head.flat
    return replace(model, lstm=lstm, head=head)


_LSTM_TENSORS = (
    "w_ii", "w_if", "w_ig", "w_io", "w_hi", "w_hf", "w_hg", "w_ho", "b_i", "b_f", "b_g", "b_o",
)


def param_items(lstm: LstmParams, head: HeadParams) -> list[tuple[str, np.ndarray]]:
    """(name, tensor view) pairs in SPM1 order: the LSTM buffer, then the head's."""
    items = [(name, getattr(lstm, name)) for name in _LSTM_TENSORS]
    return items + [("head_w", head.w), ("head_b", head.b)]


@dataclass
class AdamState:
    """First/second moment accumulators as two Gradients, laid out like the
    model's parameters; adam_step updates their flat buffers chunk by chunk."""

    step: int
    m: Gradients
    v: Gradients
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


@dataclass
class TrainingCurves:
    """Per-epoch mean loss (nats), exact-label accuracy, and wall seconds."""

    losses: list[float]
    accuracies: list[float]
    seconds: list[float]

    def __len__(self) -> int:
        return len(self.losses)


def _gemm(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None,
          helper: ThreadPoolExecutor | None = None) -> np.ndarray:
    """a @ b into out (allocated if None). With a helper, a GEMM that
    blas.cut allows is cut at its seam: the caller writes the columns before
    it and the helper the rest, which leaves every bit as one GEMM gives it.
    A failing half raises here."""
    if out is None:
        out = np.empty((a.shape[0], b.shape[1]), dtype=np.result_type(a, b))
    seam = None if helper is None else cut(*a.shape, out.shape[1])
    if seam is None:
        return np.matmul(a, b, out=out)
    second = helper.submit(np.matmul, a, b[:, seam:], out=out[:, seam:])
    try:
        np.matmul(a, b[:, :seam], out=out[:, :seam])
    finally:
        second.result()
    return out


def _project(lstm: LstmParams, xs: np.ndarray, out: np.ndarray | None = None,
             helper: ThreadPoolExecutor | None = None) -> np.ndarray:
    """Input-side gate pre-activations x W_x^T + b of all rows of xs, one GEMM
    (into out, rows x 4H, if given; cut in two with a helper, see _gemm)."""
    proj = _gemm(xs.reshape(-1, xs.shape[-1]), lstm.w_x.T, out, helper)
    proj += lstm.b
    return proj.reshape(xs.shape[:-1] + (proj.shape[1],))


def _gate_blocks(a: np.ndarray):
    """The i, f, g, o column blocks of a B x 4H array, as views."""
    h = a.shape[1] // 4
    return a[:, :h], a[:, h : 2 * h], a[:, 2 * h : 3 * h], a[:, 3 * h :]


def _recur(lstm: LstmParams, steps, h: np.ndarray | None = None, c: np.ndarray | None = None,
           keep: bool = False, helper: ThreadPoolExecutor | None = None):
    """Run the recurrence over steps, an iterable of B x 4H projections, from
    state (h, c), or from the zero state if h is None; returns h_T and, if
    keep, the tape _backward needs. Arithmetic runs at the parameters' dtype.
    A tape that starts from the zero state records its first h_prev as None.
    With a helper, each h W_h^T is cut in two (see _gemm)."""
    # sigmoid(a) = tanh(a / 2) / 2 + 1 / 2, so one tanh activates all four
    # gates: scale is 1/2 on the sigmoid gates i, f, o and 1 on g
    scale = np.repeat(np.array([0.5, 0.5, 1.0, 0.5], dtype=lstm.flat.dtype), lstm.hidden_dim)
    shift = 1.0 - scale
    tape = []
    for proj in steps:
        h_prev = h
        if h is None:
            # h W_h^T vanishes at the zero state: start from the projection
            c = np.zeros((proj.shape[0], lstm.hidden_dim), dtype=proj.dtype)
            gates = proj.copy()
        else:
            gates = _gemm(h, lstm.w_h.T, helper=helper)
            gates += proj
        gates *= scale
        np.tanh(gates, out=gates)
        gates *= scale
        gates += shift
        i, f, g, o = _gate_blocks(gates)
        c_next = f * c + i * g
        tc = np.tanh(c_next)
        if keep:
            tape.append((h_prev, c, gates, tc))
        h = o * tc
        c = c_next
    return h, tape


def _backward(model: SequenceModel, xs: np.ndarray, tape, h_last: np.ndarray,
              dlogits: np.ndarray, grads: Gradients,
              helper: ThreadPoolExecutor | None = None) -> None:
    """Overwrite grads with the gradients of sum(dlogits * logits), where
    _recur turned inputs xs (steps, B, m) into h_last and tape.

    With a helper, it adds each step's term to dW_h, in the step order,
    while the caller goes on to the step before, and the dW_x GEMM is cut
    in two (see _gemm); grads are complete when this returns."""
    lstm = model.lstm

    def add_w_h(da_t, h_prev):
        grads.lstm.w_h += da_t.T @ h_prev

    np.matmul(dlogits.T, h_last, out=grads.head.w)
    np.sum(dlogits, axis=0, out=grads.head.b)
    dh = dlogits @ model.head.w
    dc = np.zeros_like(dh)
    da = np.empty((len(tape),) + tape[0][2].shape)
    grads.lstm.w_h[...] = 0.0
    added = []  # the helper's dW_h terms, which it adds in the order they come
    try:
        for t in reversed(range(len(tape))):
            h_prev, c_prev, gates, tc = tape[t]
            i, f, g, o = _gate_blocks(gates)
            da_i, da_f, da_g, da_o = _gate_blocks(da[t])
            dc = dc + dh * o * (1.0 - tc * tc)
            da_i[...] = dc * g * i * (1.0 - i)
            da_f[...] = dc * c_prev * f * (1.0 - f)
            da_g[...] = dc * i * (1.0 - g * g)
            da_o[...] = dh * tc * o * (1.0 - o)
            if h_prev is not None:  # the zero state adds nothing to dW_h
                if helper is None:
                    add_w_h(da[t], h_prev)
                else:
                    added.append(helper.submit(add_w_h, da[t], h_prev))
            if t > 0:  # the first step's dh and dc would never be read
                dh = da[t] @ lstm.w_h
                dc = dc * f
        da = da.reshape(-1, da.shape[-1])
        _gemm(da.T, xs.reshape(-1, xs.shape[-1]), grads.lstm.w_x, helper)
        np.sum(da, axis=0, out=grads.lstm.b)
    finally:
        for term in added:
            term.result()


def lstm_forward(params: LstmParams, inputs: np.ndarray, h0: np.ndarray, c0: np.ndarray):
    """Single-window recurrence; returns (h_T, cache for model_backward)."""
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[1] != params.input_dim:
        raise ValueError(
            f"inputs must be d_s x {params.input_dim}, got shape {inputs.shape}"
        )
    if inputs.shape[0] < 1:
        raise ValueError("need at least one step")
    h0 = np.asarray(h0, dtype=np.float64).reshape(1, -1)
    c0 = np.asarray(c0, dtype=np.float64).reshape(1, -1)
    if h0.shape[1] != params.hidden_dim or c0.shape[1] != params.hidden_dim:
        raise ValueError("h0/c0 must have the hidden dimension")
    h, tape = _recur(params, _project(params, inputs[:, None, :]), h0, c0, keep=True)
    return h[0], tape


def model_forward(model: SequenceModel, window: np.ndarray, with_cache: bool = False):
    """Logits over the N reference places for one d_s x (n+2) window.

    No softmax here; the loss and the activity-profile export apply it.
    """
    window = np.asarray(window, dtype=np.float64)
    if window.ndim != 2 or window.shape[1] != model.input_dim:
        raise ValueError(
            f"window must be d_s x {model.input_dim} "
            f"(descriptor then 2-d position), got shape {window.shape}"
        )
    h_last, cache = lstm_forward(
        model.lstm,
        window,
        np.zeros(model.lstm.hidden_dim),
        np.zeros(model.lstm.hidden_dim),
    )
    logits = model.head.w @ h_last + model.head.b
    if with_cache:
        return logits, (cache, h_last)
    return logits


def _log_softmax_rows(rows: np.ndarray) -> np.ndarray:
    """Replace each row of the float64 logits rows by its log softmax, in
    place, and return rows: subtract the row maximum, so exp cannot
    overflow, then the log of the row's sum of exp. The exps that are summed
    are taken a few rows at a time into one small scratch array; each row is
    summed on its own, so the bits do not depend on how many."""
    rows -= rows.max(axis=1, keepdims=True)
    step = _block_rows(rows.shape[1])
    scratch = np.empty((min(step, len(rows)), rows.shape[1]))
    sums = np.empty(len(rows))
    for r0 in range(0, len(rows), step):
        part = rows[r0 : r0 + step]
        np.sum(np.exp(part, out=scratch[: len(part)]), axis=1, out=sums[r0 : r0 + len(part)])
    rows -= np.log(sums)[:, None]
    return rows


def _cross_entropy_batch(logits: np.ndarray, labels: np.ndarray):
    """Per-row -log softmax(logits)[label] and its gradient w.r.t. logits."""
    log_probs = _log_softmax_rows(logits.copy())
    rows = np.arange(logits.shape[0])
    losses = -log_probs[rows, labels]
    dlogits = np.exp(log_probs)
    dlogits[rows, labels] -= 1.0
    return losses, dlogits


def cross_entropy_loss(logits: np.ndarray, label: int) -> tuple[float, np.ndarray]:
    """Stable -log softmax(logits)[label] and its gradient w.r.t. logits."""
    logits = np.asarray(logits, dtype=np.float64)
    if label < 0 or label >= logits.shape[-1]:
        raise ValueError(f"label {label} outside [0, {logits.shape[-1]})")
    losses, dlogits = _cross_entropy_batch(logits[None], np.array([label]))
    return float(losses[0]), dlogits[0]


def model_backward(model: SequenceModel, window: np.ndarray, label: int, cache) -> Gradients:
    """Exact gradients of cross_entropy_loss(model_forward(window), label)."""
    tape, h_last = cache
    window = np.asarray(window, dtype=np.float64)
    if len(tape) != window.shape[0] or h_last.shape[0] != model.lstm.hidden_dim:
        raise RuntimeError("cache does not match this window/model")
    _, dlogits = cross_entropy_loss(model.head.w @ h_last + model.head.b, label)
    grads = Gradients.zeros(model)
    _backward(model, window[:, None, :], tape, h_last[None], dlogits[None], grads)
    return grads


def _batch_gradients(model: SequenceModel, xs: np.ndarray, labels: np.ndarray, grads: Gradients,
                     helper: ThreadPoolExecutor | None = None):
    """Write the gradients of the mean loss of windows xs (d_s, B, m) into
    grads unless a loss is non-finite; returns the losses and logits. A
    helper takes part of the projection, recurrence and backward GEMMs."""
    proj = _project(model.lstm, xs, helper=helper)
    h_last, tape = _recur(model.lstm, proj, keep=True, helper=helper)
    logits = h_last @ model.head.w.T + model.head.b
    losses, dlogits = _cross_entropy_batch(logits, labels)
    if np.isfinite(losses).all():
        _backward(model, xs, tape, h_last, dlogits / len(labels), grads, helper)
    return losses, logits


def adam_init(model: SequenceModel) -> AdamState:
    return AdamState(step=0, m=Gradients.zeros(model), v=Gradients.zeros(model))


def adam_step(state: AdamState, model: SequenceModel, grads: Gradients, lr: float):
    """One bias-corrected Adam update, applied to the model in place.

    Walks the flat parameter, gradient and moment buffers in chunks of
    _ADAM_CHUNK elements with two chunk-sized scratch arrays, applying the
    per-element operations of m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2,
    p -= lr (m / c1) / (sqrt(v / c2) + eps) in that order, so the result does
    not depend on the chunk size.
    """
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** state.step
    c2 = 1.0 - b2 ** state.step
    buffers = zip(
        (model.lstm.flat, model.head.flat),
        (grads.lstm.flat, grads.head.flat),
        (state.m.lstm.flat, state.m.head.flat),
        (state.v.lstm.flat, state.v.head.flat),
    )
    scratch_a, scratch_b = np.empty(_ADAM_CHUNK), np.empty(_ADAM_CHUNK)
    for p_flat, g_flat, m_flat, v_flat in buffers:
        for lo in range(0, p_flat.size, _ADAM_CHUNK):
            chunk = slice(lo, lo + _ADAM_CHUNK)
            p, g, m, v = p_flat[chunk], g_flat[chunk], m_flat[chunk], v_flat[chunk]
            a, b = scratch_a[: p.size], scratch_b[: p.size]
            m *= b1
            np.multiply(g, 1.0 - b1, out=a)
            m += a
            v *= b2
            np.multiply(g, g, out=a)
            a *= 1.0 - b2
            v += a
            np.divide(m, c1, out=a)
            a *= lr
            np.divide(v, c2, out=b)
            np.sqrt(b, out=b)
            b += state.eps
            a /= b
            p -= a
    return model, state


def init_model(n: int, places: int, d_s: int, hidden: int = 512, seed: int = 0) -> SequenceModel:
    """Seeded uniform init in [-1/sqrt(H), 1/sqrt(H)]; forget bias fixed at +1."""
    rng = RandomStream(seed)
    model = _init_from_stream(rng, n, places, d_s, hidden)
    model.rng_seed = seed
    return model


def _init_from_stream(rng: RandomStream, n: int, places: int, d_s: int, hidden: int) -> SequenceModel:
    scale = 1.0 / np.sqrt(hidden)
    lstm = LstmParams.zeros(n + 2, hidden)
    head = HeadParams.zeros(hidden, places)
    for name, arr in param_items(lstm, head):
        if name == "b_f":
            arr[...] = 1.0  # constant; consumes no draws
        else:
            arr[...] = rng.uniform(-scale, scale, arr.size).reshape(arr.shape)
    return SequenceModel(lstm=lstm, head=head, d_s=d_s, n=n)


def train(
    reference: Traversal,
    d_s: int,
    epochs: int,
    lr: float = 0.01,
    rng_seed: int = 0,
    hidden: int = 512,
    batch_size: int = 32,
    clip_norm: float | None = None,
    progress: Callable[[int, int, float, float, float], None] | None = None,
) -> tuple[SequenceModel, TrainingCurves]:
    """Train the matcher on one traversal's overlapping windows, each batch
    gathered from the float32 unit rows and the positions (an exact cast).

    The reference is taken as stored. Rows flagged normalized are used as
    they are; an unflagged reference is scaled once through l2_normalize,
    which keeps a zero row (a flat frame) zero, even if its rows are unit
    already: the flag alone decides.

    Deterministic given (data, rng_seed, config): initialization and epoch
    shuffles all come from one seeded stream. Loss/accuracy fields of the
    curves are bitwise reproducible; wall seconds are not. progress, if
    given, is called after each epoch with (epoch, epochs, loss, accuracy,
    seconds), the epoch counted from 0 as in the curves.

    The epochs run at one BLAS thread (blas.one_thread), so the bits do not
    depend on OPENBLAS_NUM_THREADS, and the caller's count is restored when
    train returns or raises. From _SPLIT_ENTRIES W_x entries on, one helper
    thread takes part of each step's large GEMMs (see _batch_gradients);
    Adam and the elementwise work stay on the caller. The helper is gone
    once train returns or raises.
    """
    desc = l2_normalize(reference.descriptors)
    n_frames = reference.frame_count
    if d_s < 1 or d_s > n_frames:  # as make_windows checks it
        raise ValueError(f"sequence length {d_s} outside [1, {n_frames}]")
    order = np.arange(n_frames - d_s + 1)  # the first frame of every window
    rng = RandomStream(rng_seed)
    model = _init_from_stream(rng, desc.dim, reference.frame_count, d_s, hidden)
    model.rng_seed = rng_seed
    state = adam_init(model)
    grads = Gradients.zeros(model)
    curves = TrainingCurves(losses=[], accuracies=[], seconds=[])
    with one_thread(), ThreadPoolExecutor(max_workers=1) as pool:
        helper = pool if model.lstm.w_x.size >= _SPLIT_ENTRIES else None
        for epoch in range(epochs):
            tick = time.perf_counter()
            rng.shuffle(order)
            loss_sum = 0.0
            hits = 0
            for bi, lo in enumerate(range(0, len(order), batch_size)):
                frames = order[lo : lo + batch_size] + np.arange(d_s)[:, None]
                xs = np.concatenate([desc.data[frames], reference.positions.data[frames]], axis=-1)
                ys = frames[-1]
                losses, logits = _batch_gradients(model, xs, ys, grads, helper)
                if not np.isfinite(losses).all():
                    raise TrainingError(epoch, bi)
                loss_sum += float(losses.sum())
                hits += int((np.argmax(logits, axis=1) == ys).sum())
                if clip_norm is not None:
                    norm = np.sqrt(grads.lstm.flat @ grads.lstm.flat
                                   + grads.head.flat @ grads.head.flat)
                    if norm > clip_norm:
                        grads.lstm.flat *= clip_norm / norm
                        grads.head.flat *= clip_norm / norm
                adam_step(state, model, grads, lr)
            curves.losses.append(loss_sum / len(order))
            curves.accuracies.append(hits / len(order))
            curves.seconds.append(time.perf_counter() - tick)
            if progress is not None:
                progress(epoch, epochs, curves.losses[-1], curves.accuracies[-1],
                         curves.seconds[-1])
    return model, curves


def _activity_rows(places: int) -> int:
    """Queries per recurrence-and-head block of lstm_match: the largest power
    of two up to _QUERY_ROWS whose float64 activity rows fit in
    _ACTIVITY_BYTES, or 1, so blocks start on the float32 GEMM row tiles."""
    rows = min(_QUERY_ROWS, max(1, _ACTIVITY_BYTES // (8 * places)))
    return 1 << (rows.bit_length() - 1)


def lstm_match(model: SequenceModel, query: Traversal, d_s: int,
               out: np.ndarray | None = None) -> MatchReport:
    """Per query frame, the argmax of its activity profile (the softmax over
    reference places), scored by that probability; the activity rows go
    into out (Q x N, float64 or float32) too if it is given.

    Frame q's window covers frames [q - d_s + 1, q], frame 0 standing in for
    those before it. Per block of _QUERY_ROWS queries, the frames its windows
    read are scaled as l2_normalize scales them (the model was trained on
    unit rows) and projected in one GEMM at the parameters' dtype.
    Sub-blocks of _activity_rows(N) queries run the recurrence and the head
    and take their softmax in float64: in place in a float64 out, otherwise
    in a sub-block scratch that is then rounded into out. With float32
    weights the block sizes leave every bit as it is.

    The blocks wait in one deque: the calling thread pops from its front
    and one helper thread from its back until it is empty, so the faster
    thread runs more blocks, but the helper takes no block of a one-block
    query (run by the helper, such a block raised a 500-frame sweep's peak
    RSS by 3 MB). Each allocates its buffers at its first block. They write
    disjoint rows of the report and of out, and every caller block lies
    below every helper block. Non-finite logits raise ValueError. A failing
    caller block empties the deque, which stops the helper; after a failing
    helper block the caller runs every block left. The error raised is the
    lowest failing block's either way, so it names the first bad query frame.
    Both threads run at one BLAS thread (blas.one_thread), and the caller's
    count is restored when the deploy returns or raises.
    """
    desc, n, places = query.descriptors, model.n, model.places
    if d_s < 1:
        raise ValueError("d_s must be >= 1")
    if desc.dim != n:
        raise ValueError(f"query descriptor dim {desc.dim} != model dim {n}")
    n_query, dtype, step = query.frame_count, model.lstm.flat.dtype, _activity_rows(places)
    if out is not None and out.shape != (n_query, places):
        raise ValueError(f"out must be {n_query} x {places}, got shape {out.shape}")
    span = d_s - 1 + min(_QUERY_ROWS + 1, n_query)  # frames of the largest block
    in_place = out is not None and out.dtype == np.float64
    # an unflagged query's frames are scaled into a float32 scratch one
    # unit_rows chunk at a time, one block when _row_squares casts it to float64
    chunk = min(_block_rows(n), span)
    best_ref, scores = np.empty(n_query, dtype=np.int64), np.empty(n_query)
    blocks = deque(_row_blocks(n_query, _QUERY_ROWS))

    def buffers():
        """One worker's frames, projection, logits, softmax and unit-row scratch."""
        logits = np.empty((min(step + 1, n_query), places), dtype=dtype)
        return (np.empty((span, n + 2), dtype=dtype),
                np.empty((span, 4 * model.lstm.hidden_dim), dtype=dtype), logits,
                None if in_place else np.empty(logits.shape),
                None if desc.normalized else np.empty((chunk, n), dtype=np.float32))

    def run(lo, hi, frames, proj, logits, scratch, unit):
        """Queries [lo, hi) into best_ref, scores and out."""
        first = max(lo - d_s + 1, 0)
        pad = first - (lo - d_s + 1)  # window steps before frame 0
        x = frames[: hi - first]
        if unit is None:
            x[:, :n] = desc.data[first:hi]
        else:  # in float32 first, as l2_normalize stores its rows
            for r0 in range(first, hi, chunk):
                rows = desc.data[r0 : min(r0 + chunk, hi)]
                x[r0 - first : r0 - first + len(rows), :n] = unit_rows(rows, unit[: len(rows)])[0]
        x[:, n:] = query.positions.data[first:hi]
        # proj[i + k] is step k of query lo + i's window, so a step is a slice
        _project(model.lstm, x, out=proj[pad : pad + hi - first])
        proj[:pad] = proj[pad]
        for b0, b1 in _row_blocks(hi - lo, step):
            h, _ = _recur(model.lstm, (proj[b0 + k : b1 + k] for k in range(d_s)))
            block = np.matmul(h, model.head.w.T, out=logits[: b1 - b0])
            block += model.head.b
            bad = lo + b0 + np.flatnonzero(~np.isfinite(block).all(axis=1))
            if bad.size:
                raise ValueError(f"non-finite LSTM logits at query frame {bad[0]} "
                                 f"({bad.size} of frames {lo + b0}-{lo + b1 - 1})")
            act = out[lo + b0 : lo + b1] if in_place else scratch[: b1 - b0]
            act[...] = block
            np.exp(_log_softmax_rows(act), out=act)
            best_ref[lo + b0 : lo + b1] = best = np.argmax(act, axis=1)
            scores[lo + b0 : lo + b1] = act[np.arange(b1 - b0), best]
            if out is not None and not in_place:
                out[lo + b0 : lo + b1] = act

    # errstate is per thread, so each worker sets its own
    @np.errstate(over="ignore", invalid="ignore")  # the logits are checked instead
    def work(take):
        """Run the blocks that take pops until it finds the deque empty."""
        held = None
        while True:
            try:
                lo, hi = take()
            except IndexError:
                return
            if held is None:
                held = buffers()
            run(lo, hi, *held)

    with one_thread(), ThreadPoolExecutor(max_workers=1) as helper:
        second = helper.submit(work, blocks.pop if len(blocks) > 1 else [].pop)
        try:
            work(blocks.popleft)
        except BaseException:
            blocks.clear()  # the helper takes no block after this one
            raise
        second.result()
    return MatchReport(np.arange(n_query), best_ref, scores, higher_is_better=True)


def infer(model: SequenceModel, query: Traversal, d_s: int | None = None):
    """The Q x N activity and the report of lstm_match, at model.d_s by default."""
    activity = np.empty((query.frame_count, model.places))
    return activity, lstm_match(model, query, model.d_s if d_s is None else d_s, activity)


def save_checkpoint(model: SequenceModel, path) -> None:
    """Write the SPM1 container: the header, then each flat buffer as float32."""
    header = SPM1_MAGIC + np.array(
        [model.input_dim, model.lstm.hidden_dim, model.places, model.d_s], dtype="<u4"
    ).tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        for flat in (model.lstm.flat, model.head.flat):
            fh.write(flat.astype("<f4"))


def load_checkpoint(path) -> SequenceModel:
    """Read an SPM1 file straight into the float32 buffers the model keeps; a
    non-finite weight raises ValueError naming its byte offset."""
    with open(path, "rb") as fh:
        header = fh.read(20)
        if len(header) < 20 or header[:4] != SPM1_MAGIC:
            raise ValueError(f"{path}: not an SPM1 checkpoint")
        m, hidden, places, d_s = (int(v) for v in np.frombuffer(header, dtype="<u4", offset=4))
        if m < 3 or hidden < 1 or places < 1 or d_s < 1:
            raise ValueError(f"{path}: implausible SPM1 header ({m}, {hidden}, {places}, {d_s})")
        # check the file against the header's sizes before allocating them
        size = os.fstat(fh.fileno()).st_size
        lstm_end = 20 + 4 * (4 * hidden) * (m + hidden + 1)
        head_end = lstm_end + 4 * places * (hidden + 1)
        for name, end in (("LSTM", lstm_end), ("head", head_end)):
            if size < end:
                raise ValueError(f"{path}: checkpoint truncated in the {name} tensors")
        if size > head_end:
            raise ValueError(f"{path}: {size - head_end} trailing bytes")
        lstm = LstmParams.zeros(m, hidden, _CHECKPOINT_DTYPE)
        head = HeadParams.zeros(hidden, places, _CHECKPOINT_DTYPE)
        for name, flat, start in (("LSTM", lstm.flat, 20), ("head", head.flat, lstm_end)):
            if fh.readinto(flat) != flat.nbytes:  # the file shrank after its size was checked
                raise ValueError(f"{path}: checkpoint truncated in the {name} tensors")
            bad = _first_nonfinite(flat)
            if bad >= 0:
                raise ValueError(f"{path}: non-finite weight (byte offset {start + 4 * bad})")
    return SequenceModel(lstm=lstm, head=head, d_s=d_s, n=m - 2, rng_seed=None)


def save_curves_csv(curves: TrainingCurves, path) -> None:
    rows = zip(range(len(curves)), curves.losses, curves.accuracies, curves.seconds)
    write_table(path, _CURVES_HEADER, rows)


def load_curves_csv(path) -> TrainingCurves:
    columns, _, _ = read_table(path, _CURVES_HEADER, (int, float, float, float))
    _, losses, accuracies, seconds = (column.tolist() for column in columns)
    return TrainingCurves(losses=losses, accuracies=accuracies, seconds=seconds)
