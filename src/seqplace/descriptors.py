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

from .dataset import DescriptorSequence


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


def unit_rows(matrix: np.ndarray) -> tuple[np.ndarray, bool]:
    """Nonzero rows scaled to unit norm, zero rows kept; and whether none was zero."""
    norms = np.linalg.norm(matrix, axis=1)
    nonzero = norms > 0.0
    if nonzero.all():
        return matrix / norms[:, None], True
    out = np.zeros_like(matrix)
    out[nonzero] = matrix[nonzero] / norms[nonzero, None]
    return out, False


def l2_normalize(seq: DescriptorSequence) -> DescriptorSequence:
    """Scale each nonzero row to unit Euclidean norm.

    Zero rows stay zero; if any exist the result's normalized flag is False.
    Already-flagged input is returned unchanged so renormalizing cannot
    perturb bytes that are on disk.
    """
    if seq.normalized:
        return seq
    out, normalized = unit_rows(seq.data.astype(np.float64))
    return DescriptorSequence(data=out, normalized=normalized)


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


def delta_raw(data: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized delta rows and their source frame indices.

    Row for frame t (l/2 <= t <= T - l/2) is
    mean(rows t .. t+l/2-1) - mean(rows t-l/2 .. t-1); there are T - l + 1
    such frames.
    """
    half = window // 2
    frames = data.shape[0]
    if frames < window:
        raise ValueError(f"need at least {window} frames, got {frames}")
    # csum[t] = float64 sum of rows [0, t), added row after row in the order
    # np.cumsum uses, so every prefix sum is the same to the bit
    csum = np.empty((frames + 1, data.shape[1]))
    csum[0] = 0.0
    csum[1] = data[0]
    for t in range(1, frames):
        np.add(csum[t], data[t], out=csum[t + 1])
    # means[j] is the mean of rows j .. j+half-1; a frame's leading mean is
    # the trailing mean of the frame half rows later
    means = csum[half:] - csum[:-half]
    del csum
    means /= half
    return means[half:] - means[:-half], np.arange(half, frames - half + 1)


def delta_transform(seq: DescriptorSequence, cfg: DeltaConfig) -> tuple[DescriptorSequence, np.ndarray]:
    """Delta-transformed sequence plus the output-row -> frame-index map.

    Rows are L2-normalized after differencing; all-zero delta rows (constant
    input stretches) are left zero and clear the normalized flag.
    """
    raw, centers = delta_raw(seq.data, cfg.window)
    out, normalized = unit_rows(raw)
    return DescriptorSequence(data=out, normalized=normalized), centers


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
