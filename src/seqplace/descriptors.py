"""Descriptor frontends and descriptor-space transforms.

Two built-in routes into descriptor space:

* patch-normalized thumbnails, the classic low-fi frontend for the heuristic
  sequence matchers (grayscale PGM in, standardized 8x8 patches out);
* the delta transform, which replaces each frame by the difference of the
  trailing and leading half-window means and so cancels any additive shift
  shared by all frames.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import DescriptorSequence, _block_rows, _row_blocks, _row_squares, _Vetted


@dataclass(frozen=True)
class ThumbnailConfig:
    """Thumbnail geometry; width and height must be multiples of patch_size."""

    width: int = 64
    height: int = 32
    patch_size: int = 8

    def __post_init__(self):
        if self.width < 1 or self.height < 1 or self.patch_size < 1:
            raise ValueError("thumbnail dimensions must be positive")
        if self.width % self.patch_size or self.height % self.patch_size:
            raise ValueError(
                f"width/height ({self.width}x{self.height}) must be divisible "
                f"by patch_size ({self.patch_size})"
            )


@dataclass(frozen=True)
class DeltaConfig:
    """Delta window length in frames; must be even and >= 2."""

    window: int = 4

    def __post_init__(self):
        if self.window < 2 or self.window % 2:
            raise ValueError(f"delta window must be even and >= 2, got {self.window}")


def unit_rows(matrix: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, bool]:
    """Rows of matrix scaled to unit norm, and whether none of them was zero.

    out is a new array of matrix's dtype if None, and may be matrix itself.
    Each row's float64 norm comes from _row_squares, and the row is
    divided by it in float64 and rounded to out's dtype, so the bits are
    those of dividing the whole matrix cast to float64 by its row norms.
    Zero rows come out +0.0.
    """
    if out is None:
        out = np.empty_like(matrix)
    norms = np.sqrt(_row_squares(matrix))
    zero = norms == 0.0
    norms[zero] = 1.0
    np.divide(matrix, norms[:, None], out=out)
    out[zero] = 0.0
    return out, not zero.any()


def l2_normalize(seq: DescriptorSequence) -> DescriptorSequence:
    """Scale each nonzero row to unit Euclidean norm.

    Zero rows stay zero; if any exist the result's normalized flag is False.
    Already-flagged input is returned unchanged so renormalizing cannot
    perturb bytes that are on disk. The rows go straight into the float32
    array the result keeps.
    """
    if seq.normalized:
        return seq
    out, normalized = unit_rows(seq.data, np.empty(seq.data.shape, dtype=np.float32))
    return DescriptorSequence(data=_Vetted(out, unit=True), normalized=normalized)


def _resize_area(image: np.ndarray, width: int, height: int) -> np.ndarray:
    """Area-average downsample; crops the largest centered integer-multiple region."""
    rows, cols = image.shape
    use_rows = (rows // height) * height
    use_cols = (cols // width) * width
    if use_rows == 0 or use_cols == 0:
        raise ValueError(
            f"image {rows}x{cols} smaller than thumbnail {height}x{width}"
        )
    top = (rows - use_rows) // 2
    left = (cols - use_cols) // 2
    crop = image[top : top + use_rows, left : left + use_cols].astype(np.float64)
    return crop.reshape(height, use_rows // height, width, use_cols // width).mean(axis=(1, 3))


def thumbnail_descriptor(image: np.ndarray, cfg: ThumbnailConfig = ThumbnailConfig()) -> np.ndarray:
    """Patch-normalized thumbnail descriptor of a grayscale intensity grid.

    The image is area-averaged down to cfg.width x cfg.height, every
    patch_size^2 patch is standardized to mean 0 / population std 1 (flat
    patches become zeros), and the result is flattened row-major.
    """
    image = np.asarray(image)
    if image.ndim != 2 or image.size == 0:
        raise ValueError(f"expected a nonempty H x W grayscale image, got shape {image.shape}")
    thumb = _resize_area(image, cfg.width, cfg.height)
    p = cfg.patch_size
    blocks = thumb.reshape(cfg.height // p, p, cfg.width // p, p).transpose(0, 2, 1, 3)
    means = blocks.mean(axis=(2, 3), keepdims=True)
    stds = blocks.std(axis=(2, 3), keepdims=True)
    out = np.where(stds < 1e-8, 0.0, (blocks - means) / np.where(stds < 1e-8, 1.0, stds))
    return out.transpose(0, 2, 1, 3).reshape(cfg.height * cfg.width).astype(np.float32)


class _RunningSums:
    """Float64 sums P[t] of the rows [0, t) of an n_rows-row array, one span
    of t at a time. The first span starts at `first` <= 0; each later one
    starts no earlier than the one before, and at or before the last t so
    far. P[t] has np.cumsum's bits (row 0 is copied, each later row added to
    the sum before it), is 0 for t <= 0 and P[n_rows] past the last row. One
    buffer of `capacity` rows holds the sums; the rows a span shares with the
    ones before move to its front only when the span would not fit.
    """

    def __init__(self, n_rows: int, row_shape, capacity: int, first: int):
        self.n_rows = n_rows
        self.buf = np.empty((capacity, *row_shape))
        self.base, self.top = first, first - 1  # buf[t - base] is P[t] for t in [base, top]

    def span(self, first: int, last: int, fill) -> np.ndarray:
        """P[first .. last] as a view of the buffer, valid until the next
        span. fill(dst, t0, t1) writes rows [t0, t1) of the array into dst,
        once for the rows no span has reached before."""
        buf, n_rows = self.buf, self.n_rows
        if last - self.base >= len(buf):
            kept = buf[first - self.base : self.top - self.base + 1]
            buf[: len(kept)] = kept
            self.base = first
        base, top = self.base, self.top
        buf[top + 1 - base : max(top, min(last, 0)) + 1 - base] = 0.0
        t0, t1 = max(top, 0), min(last, n_rows)
        if t0 < t1:
            fill(buf[t0 + 1 - base : t1 + 1 - base], t0, t1)
            for t in range(max(t0, 1), t1):
                np.add(buf[t - base], buf[t + 1 - base], out=buf[t + 1 - base])
        if last > n_rows:
            end = max(top, n_rows)
            buf[end + 1 - base : last + 1 - base] = buf[end - base]
        self.top = max(top, last)
        return buf[first - base : last + 1 - base]


def _delta_blocks(data: np.ndarray, window: int, bounds):
    """Yield the unnormalized delta rows [b0, b1) of data (see delta_raw) for
    each (b0, b1) of bounds, which tile [0, T - window + 1) in order.

    The prefix sums come from one _RunningSums, so every block's rows are
    delta_raw's bit for bit whatever the bounds. Each block is a view of
    scratch sized by the largest block, valid until the next one is asked
    for; the consumer may overwrite it.
    """
    half = window // 2
    most = max(b1 - b0 for b0, b1 in bounds)
    sums = _RunningSums(data.shape[0], data.shape[1:], most + window, 0)
    means = np.empty((most + half, data.shape[1]))
    out = np.empty((most, data.shape[1]))
    for b0, b1 in bounds:
        n = b1 - b0
        # pre[k] = P[b0 + k]; means[j] is the mean of rows j .. j+half-1, and a
        # frame's leading mean is the trailing mean of the frame half rows later
        pre = sums.span(b0, b1 + window - 1, lambda dst, t0, t1: np.copyto(dst, data[t0:t1]))
        m = np.subtract(pre[half : n + window], pre[: n + half], out=means[: n + half])
        m /= half
        yield np.subtract(m[half:], m[:n], out=out[:n])


def delta_raw(data: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized delta rows and their source frame indices.

    Row for frame t (l/2 <= t <= T - l/2) is
    mean(rows t .. t+l/2-1) - mean(rows t-l/2 .. t-1); there are T - l + 1
    such frames. They are computed a block of rows at a time.
    """
    half = window // 2
    frames = data.shape[0]
    if frames < window:
        raise ValueError(f"need at least {window} frames, got {frames}")
    n = frames - window + 1
    raw = np.empty((n, data.shape[1]))
    bounds = list(_row_blocks(n, _block_rows(data.shape[1])))
    for (b0, b1), rows in zip(bounds, _delta_blocks(data, window, bounds)):
        raw[b0:b1] = rows
    return raw, np.arange(half, frames - half + 1)


def delta_transform(seq: DescriptorSequence, cfg: DeltaConfig) -> tuple[DescriptorSequence, np.ndarray]:
    """Delta-transformed sequence plus the output-row -> frame-index map.

    Rows are L2-normalized after differencing; all-zero delta rows (constant
    input stretches) are left zero and clear the normalized flag.
    """
    raw, centers = delta_raw(seq.data, cfg.window)
    _, normalized = unit_rows(raw, raw)
    # finite rows of finite input, and unit_rows set the flag itself
    return DescriptorSequence(data=_Vetted(raw, unit=True), normalized=normalized), centers


def read_pgm(path) -> np.ndarray:
    """8-bit binary PGM (P5) reader; returns a uint8 H x W array."""
    with open(path, "rb") as fh:
        blob = fh.read()
    tokens = []
    pos = 0
    while len(tokens) < 4 and pos < len(blob):
        # header tokens are whitespace-separated; '#' starts a comment line
        while pos < len(blob) and blob[pos : pos + 1].isspace():
            pos += 1
        if pos < len(blob) and blob[pos] == ord("#"):
            while pos < len(blob) and blob[pos] != ord("\n"):
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos : pos + 1].isspace():
            pos += 1
        if pos > start:
            tokens.append(blob[start:pos])
    if len(tokens) < 4 or tokens[0] != b"P5":
        raise ValueError(f"{path}: not a binary (P5) PGM")
    try:
        cols, rows, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError:
        raise ValueError(f"{path}: malformed PGM header") from None
    if maxval < 1 or maxval > 255:
        raise ValueError(f"{path}: only 8-bit PGM supported (maxval {maxval})")
    pos += 1  # single whitespace byte after maxval
    pixels = blob[pos : pos + rows * cols]
    if len(pixels) != rows * cols:
        raise ValueError(f"{path}: pixel payload truncated")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(rows, cols)
