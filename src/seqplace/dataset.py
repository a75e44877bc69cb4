"""Traversal ingestion: descriptor files, position tracks, sequence windows.

The SPD1 container is the bit-exact interchange format for per-frame global
descriptors (and, reusing the same layout, for exported Q x R matrices):

    bytes 0-3    magic "SPD1"
    bytes 4-7    frame count T, unsigned 32-bit little-endian
    bytes 8-11   descriptor dim n, unsigned 32-bit little-endian
    byte  12     flags (bit 0: rows are L2-normalized)
    bytes 13-15  zero padding
    then         T*n IEEE-754 float32 little-endian, row-major

Positions travel as plain text: one line per frame, two comma-separated
decimal fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SPD1_MAGIC = b"SPD1"
_HEADER_SIZE = 16
_UNIT_NORM_TOL = 1e-5


class DescriptorFileError(ValueError):
    """SPD1 parse failure; carries the byte offset of the offending data."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


# Bytes of one block of _row_norms's float64 cast.
_NORM_BLOCK_BYTES = 1 << 20


def _row_norms(data: np.ndarray) -> np.ndarray:
    """Float64 Euclidean norm of each row, cast a block of rows at a time.

    Each row's norm is summed on its own, so the result is bitwise that of
    np.linalg.norm over the whole matrix cast to float64.
    """
    norms = np.empty(data.shape[0])
    step = max(1, _NORM_BLOCK_BYTES // (8 * data.shape[1]))
    for r0 in range(0, data.shape[0], step):
        rows = slice(r0, r0 + step)
        norms[rows] = np.linalg.norm(data[rows].astype(np.float64), axis=1)
    return norms


@dataclass(frozen=True)
class DescriptorSequence:
    """T x n matrix of per-frame global descriptors (float32 rows)."""

    data: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        data = np.array(self.data, dtype=np.float32, order="C")
        if data.ndim != 2 or data.shape[0] < 1 or data.shape[1] < 1:
            raise ValueError(f"descriptor matrix must be T x n with T,n >= 1, got shape {data.shape}")
        if not np.isfinite(data).all():
            raise ValueError("descriptor matrix contains non-finite values")
        if self.normalized:
            norms = _row_norms(data)
            if np.any(np.abs(norms - 1.0) > _UNIT_NORM_TOL):
                bad = int(np.argmax(np.abs(norms - 1.0)))
                raise ValueError(
                    f"normalized flag set but row {bad} has norm {norms[bad]:.6g}"
                )
        object.__setattr__(self, "data", _freeze(data))

    @property
    def frame_count(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class PositionTrack:
    """T x 2 planar positions, normalized per axis into [-1, 1]."""

    data: np.ndarray

    def __post_init__(self):
        data = np.array(self.data, dtype=np.float64, order="C")
        if data.ndim != 2 or data.shape[1] != 2 or data.shape[0] < 1:
            raise ValueError(f"position track must be T x 2, got shape {data.shape}")
        if not np.isfinite(data).all():
            raise ValueError("position track contains non-finite values")
        if data.min() < -1.0 or data.max() > 1.0:
            raise ValueError("normalized positions must lie in [-1, 1]")
        object.__setattr__(self, "data", _freeze(data))

    @property
    def frame_count(self) -> int:
        return self.data.shape[0]


@dataclass(frozen=True)
class Traversal:
    """One pass through a route: descriptors paired with positions."""

    name: str
    descriptors: DescriptorSequence
    positions: PositionTrack

    def __post_init__(self):
        if self.descriptors.frame_count != self.positions.frame_count:
            raise ValueError(
                f"descriptor rows ({self.descriptors.frame_count}) != "
                f"position rows ({self.positions.frame_count})"
            )

    @property
    def frame_count(self) -> int:
        return self.descriptors.frame_count


@dataclass(frozen=True)
class SequenceWindow:
    """Contiguous span of frames; the label is the index of its last frame."""

    start: int
    length: int
    label: int = field(init=False)

    def __post_init__(self):
        if self.start < 0 or self.length < 1:
            raise ValueError("window needs start >= 0 and length >= 1")
        object.__setattr__(self, "label", self.start + self.length - 1)


def load_descriptor_file(path) -> DescriptorSequence:
    """Read an SPD1 file; raises DescriptorFileError naming the bad offset."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER_SIZE:
        raise DescriptorFileError("truncated header", len(blob))
    if blob[:4] != SPD1_MAGIC:
        raise DescriptorFileError(f"bad magic {blob[:4]!r}", 0)
    frames = int(np.frombuffer(blob, dtype="<u4", count=1, offset=4)[0])
    dim = int(np.frombuffer(blob, dtype="<u4", count=1, offset=8)[0])
    if frames < 1:
        raise DescriptorFileError("frame count must be >= 1", 4)
    if dim < 1:
        raise DescriptorFileError("descriptor dim must be >= 1", 8)
    flags = blob[12]
    expected = _HEADER_SIZE + 4 * frames * dim
    if len(blob) != expected:
        raise DescriptorFileError(
            f"payload size {len(blob) - _HEADER_SIZE} != {4 * frames * dim}",
            min(len(blob), expected),
        )
    data = np.frombuffer(blob, dtype="<f4", count=frames * dim, offset=_HEADER_SIZE)
    finite = np.isfinite(data)
    if not finite.all():
        first_bad = int(np.argmin(finite))
        raise DescriptorFileError(
            "non-finite descriptor value", _HEADER_SIZE + 4 * first_bad
        )
    # DescriptorSequence copies the payload out of the file's bytes
    return DescriptorSequence(data=data.reshape(frames, dim), normalized=bool(flags & 1))


def save_descriptor_file(seq: DescriptorSequence, path) -> None:
    """Write SPD1 so that load_descriptor_file reproduces seq bit-exactly."""
    header = bytearray(_HEADER_SIZE)
    header[:4] = SPD1_MAGIC
    header[4:12] = np.array([seq.frame_count, seq.dim], dtype="<u4").tobytes()
    header[12] = 1 if seq.normalized else 0
    with open(path, "wb") as fh:
        fh.write(bytes(header))
        fh.write(np.ascontiguousarray(seq.data, dtype="<f4").tobytes())


def position_bounds(raw: np.ndarray) -> np.ndarray:
    """Per-axis (min, max) of a raw T x 2 track, as a 2 x 2 array."""
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 2 or raw.shape[1] != 2 or raw.shape[0] < 1:
        raise ValueError(f"raw positions must be T x 2, got shape {raw.shape}")
    if not np.isfinite(raw).all():
        raise ValueError("raw positions contain non-finite values")
    return np.stack([raw.min(axis=0), raw.max(axis=0)])


def normalize_positions(raw: np.ndarray, bounds: np.ndarray | None = None) -> PositionTrack:
    """Affine-map each axis into [-1, 1]; a zero-range axis maps to zeros.

    Pass the reference traversal's position_bounds() so queries share the
    reference coordinate frame; values beyond those bounds clamp to +/-1.
    """
    raw = np.asarray(raw, dtype=np.float64)
    own = position_bounds(raw)
    if bounds is None:
        bounds = own
    else:
        bounds = np.asarray(bounds, dtype=np.float64)
        if bounds.shape != (2, 2):
            raise ValueError("bounds must be a 2 x 2 (min row, max row) array")
    lo, hi = bounds[0], bounds[1]
    span = hi - lo
    out = np.zeros_like(raw)
    for axis in range(2):
        if span[axis] > 0:
            out[:, axis] = 2.0 * (raw[:, axis] - lo[axis]) / span[axis] - 1.0
    np.clip(out, -1.0, 1.0, out=out)
    return PositionTrack(data=out)


def make_windows(traversal: Traversal, d_s: int) -> list[SequenceWindow]:
    """All T - d_s + 1 stride-1 windows of length d_s, labeled by last frame."""
    frames = traversal.frame_count
    if d_s < 1 or d_s > frames:
        raise ValueError(f"sequence length {d_s} outside [1, {frames}]")
    return [SequenceWindow(start=i, length=d_s) for i in range(frames - d_s + 1)]


def load_positions_file(path) -> np.ndarray:
    """Raw T x 2 positions from the one-line-per-frame text format."""
    rows = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected two comma-separated fields")
            try:
                rows.append((float(parts[0]), float(parts[1])))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric field") from None
    if not rows:
        raise ValueError(f"{path}: no position rows")
    return np.array(rows, dtype=np.float64)


def save_positions_file(raw: np.ndarray, path) -> None:
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 2 or raw.shape[1] != 2:
        raise ValueError(f"positions must be T x 2, got shape {raw.shape}")
    with open(path, "w", encoding="ascii") as fh:
        for x, y in raw:
            fh.write(f"{float(x)!r},{float(y)!r}\n")
