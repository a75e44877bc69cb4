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
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .dataset import (_UNIT_NORM_TOL, DescriptorSequence, Traversal, _first_nonfinite, _row_norms,
                      _Vetted, make_windows, read_table, write_table)
from .descriptors import l2_normalize
from .matching_classic import MatchReport, _block_rows, _row_blocks
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

# Queries per projection GEMM of lstm_match, and the cap of _activity_rows.
# OpenBLAS repacks W_x per call: at paper scale, H=512 and 1 BLAS thread,
# 256-row blocks projected 25% slower than one whole-query GEMM, 1024 10%.
_QUERY_ROWS = 1024

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
    """First/second moment accumulators keyed like param_items.

    adam_init builds m and v as views of two flat buffers each, laid out like
    the model's LstmParams.flat and HeadParams.flat; adam_step updates those
    buffers chunk by chunk through the views' common base.
    """

    step: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
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


def _project(lstm: LstmParams, xs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Input-side gate pre-activations x W_x^T + b of all rows of xs, one GEMM
    (into out, rows x 4H, if given)."""
    proj = np.matmul(xs.reshape(-1, xs.shape[-1]), lstm.w_x.T, out=out)
    proj += lstm.b
    return proj.reshape(xs.shape[:-1] + (proj.shape[1],))


def _gate_blocks(a: np.ndarray):
    """The i, f, g, o column blocks of a B x 4H array, as views."""
    h = a.shape[1] // 4
    return a[:, :h], a[:, h : 2 * h], a[:, 2 * h : 3 * h], a[:, 3 * h :]


def _recur(lstm: LstmParams, steps, h: np.ndarray | None = None, c: np.ndarray | None = None,
           keep: bool = False):
    """Run the recurrence over steps, an iterable of B x 4H projections, from
    state (h, c), or from the zero state if h is None; returns h_T and, if
    keep, the tape _backward needs. Arithmetic runs at the parameters' dtype.
    A tape that starts from the zero state records its first h_prev as None."""
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
            gates = h @ lstm.w_h.T
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
              dlogits: np.ndarray, grads: Gradients) -> None:
    """Overwrite grads with the gradients of sum(dlogits * logits), where
    _recur turned inputs xs (steps, B, m) into h_last and tape."""
    lstm = model.lstm
    np.matmul(dlogits.T, h_last, out=grads.head.w)
    np.sum(dlogits, axis=0, out=grads.head.b)
    dh = dlogits @ model.head.w
    dc = np.zeros_like(dh)
    da = np.empty((len(tape),) + tape[0][2].shape)
    grads.lstm.w_h[...] = 0.0
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
            grads.lstm.w_h += da[t].T @ h_prev
        if t > 0:  # the first step's dh and dc would never be read
            dh = da[t] @ lstm.w_h
            dc = dc * f
    da = da.reshape(-1, da.shape[-1])
    np.matmul(da.T, xs.reshape(-1, xs.shape[-1]), out=grads.lstm.w_x)
    np.sum(da, axis=0, out=grads.lstm.b)


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


def _batch_gradients(model: SequenceModel, xs: np.ndarray, labels: np.ndarray, grads: Gradients):
    """Write the gradients of the mean loss of windows xs (d_s, B, m) into
    grads unless a loss is non-finite; returns the losses and logits."""
    h_last, tape = _recur(model.lstm, _project(model.lstm, xs), keep=True)
    logits = h_last @ model.head.w.T + model.head.b
    losses, dlogits = _cross_entropy_batch(logits, labels)
    if np.isfinite(losses).all():
        _backward(model, xs, tape, h_last, dlogits / len(labels), grads)
    return losses, logits


def adam_init(model: SequenceModel) -> AdamState:
    m, v = Gradients.zeros(model), Gradients.zeros(model)
    return AdamState(
        step=0, m=dict(param_items(m.lstm, m.head)), v=dict(param_items(v.lstm, v.head))
    )


def _flat_buffers(moment: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The LSTM and head buffers under the views of an adam_init moment dict."""
    return moment["w_ii"].base, moment["head_w"].base


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
        _flat_buffers(state.m),
        _flat_buffers(state.v),
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
    """Train the matcher on one traversal's overlapping windows.

    Deterministic given (data, rng_seed, config): initialization and epoch
    shuffles all come from one seeded stream. Loss/accuracy fields of the
    curves are bitwise reproducible; wall seconds are not. progress, if
    given, is called after each epoch with (epoch, epochs, loss, accuracy,
    seconds), the epoch counted from 0 as in the curves.
    """
    desc = reference.descriptors
    if not desc.normalized:
        # l2_normalize keeps a zero row (a flat frame) zero and clears the flag
        norms = _row_norms(desc.data)
        if np.any((np.abs(norms - 1.0) > _UNIT_NORM_TOL) & (norms != 0.0)):
            raise ValueError("reference descriptors must be L2-normalized before training")
    windows = make_windows(reference, d_s)
    rng = RandomStream(rng_seed)
    model = _init_from_stream(rng, desc.dim, reference.frame_count, d_s, hidden)
    model.rng_seed = rng_seed
    state = adam_init(model)
    grads = Gradients.zeros(model)
    inputs = np.hstack([desc.data, reference.positions.data])
    starts = np.array([w.start for w in windows])
    labels = np.array([w.label for w in windows])
    offsets = np.arange(d_s)[:, None]
    curves = TrainingCurves(losses=[], accuracies=[], seconds=[])
    order = np.arange(len(windows))
    for epoch in range(epochs):
        tick = time.perf_counter()
        rng.shuffle(order)
        loss_sum = 0.0
        hits = 0
        for bi, lo in enumerate(range(0, len(order), batch_size)):
            idx = order[lo : lo + batch_size]
            ys = labels[idx]
            losses, logits = _batch_gradients(model, inputs[starts[idx] + offsets], ys, grads)
            if not np.isfinite(losses).all():
                raise TrainingError(epoch, bi)
            loss_sum += float(losses.sum())
            hits += int((np.argmax(logits, axis=1) == ys).sum())
            if clip_norm is not None:
                norm = np.sqrt(grads.lstm.flat @ grads.lstm.flat + grads.head.flat @ grads.head.flat)
                if norm > clip_norm:
                    grads.lstm.flat *= clip_norm / norm
                    grads.head.flat *= clip_norm / norm
            adam_step(state, model, grads, lr)
        curves.losses.append(loss_sum / len(order))
        curves.accuracies.append(hits / len(order))
        curves.seconds.append(time.perf_counter() - tick)
        if progress is not None:
            progress(epoch, epochs, curves.losses[-1], curves.accuracies[-1], curves.seconds[-1])
    return model, curves


def _activity_rows(places: int) -> int:
    """Queries per recurrence-and-head block of lstm_match: the largest power
    of two up to _QUERY_ROWS whose float64 activity rows fit in
    _ACTIVITY_BYTES, or 1, so blocks start on the float32 GEMM row tiles."""
    rows = min(_QUERY_ROWS, max(1, _ACTIVITY_BYTES // (8 * places)))
    return 1 << (rows.bit_length() - 1)


@np.errstate(over="ignore", invalid="ignore")  # the logits are checked instead
def lstm_match(model: SequenceModel, query: Traversal, d_s: int,
               out: np.ndarray | None = None) -> MatchReport:
    """Per query frame, the argmax of its activity profile (the softmax over
    reference places), scored by that probability; the float64 activity
    rows go into out (Q x N) too if it is given.

    Frame q's window covers frames [q - d_s + 1, q], frame 0 standing in for
    those before it. Per block of _QUERY_ROWS queries, the frames its windows
    read are scaled as l2_normalize scales them (the model was trained on
    unit rows) and projected in one GEMM at the parameters' dtype.
    Sub-blocks of _activity_rows(N) queries run the recurrence and the head
    and take their softmax in place in float64. With float32 weights the
    block sizes leave every bit as it is. Non-finite logits raise ValueError.
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
    frames = np.empty((span, n + 2), dtype=dtype)
    proj = np.empty((span, 4 * model.lstm.hidden_dim), dtype=dtype)
    logits = np.empty((min(step + 1, n_query), places), dtype=dtype)
    scratch = np.empty(logits.shape) if out is None else None
    best_ref, scores = np.empty(n_query, dtype=np.int64), np.empty(n_query)
    for lo, hi in _row_blocks(n_query, _QUERY_ROWS):
        first = max(lo - d_s + 1, 0)
        pad = first - (lo - d_s + 1)  # window steps before frame 0
        x = frames[: hi - first]
        rows = DescriptorSequence(_Vetted(desc.data[first:hi], unit=True), desc.normalized)
        x[:, :n] = l2_normalize(rows).data
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
            act = scratch[: b1 - b0] if out is None else out[lo + b0 : lo + b1]
            act[...] = block
            np.exp(_log_softmax_rows(act), out=act)
            best_ref[lo + b0 : lo + b1] = best = np.argmax(act, axis=1)
            scores[lo + b0 : lo + b1] = act[np.arange(b1 - b0), best]
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
