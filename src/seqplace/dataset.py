"""Traversal ingestion: descriptor files, position tracks, sequence windows.

The SPD1 container is the bit-exact interchange format for per-frame global
descriptors (and, reusing the same layout, for exported Q x R matrices):

    bytes 0-3    magic "SPD1"
    bytes 4-7    frame count T, unsigned 32-bit little-endian
    bytes 8-11   descriptor dim n, unsigned 32-bit little-endian
    byte  12     flags (bit 0: rows are L2-normalized; the others are zero)
    bytes 13-15  zero padding
    then         T*n IEEE-754 float32 little-endian, row-major

Positions, ground truth and every report travel as text tables, read by
read_table and written by write_table: one comma-separated row per line,
"# key=value" comments first, then an optional header line.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

SPD1_MAGIC = b"SPD1"
_HEADER_SIZE = 16
_UNIT_NORM_TOL = 1e-5


class DescriptorFileError(ValueError):
    """SPD1 parse failure; names the file and carries the byte offset of the
    offending data."""

    def __init__(self, path, message: str, offset: int):
        super().__init__(f"{path}: {message} (byte offset {offset})")
        self.offset = offset


# Bytes of one block of rows that _row_squares casts to float64 and that
# descriptors.unit_rows normalizes.
_NORM_BLOCK_BYTES = 1 << 20


def _row_squares(data: np.ndarray) -> np.ndarray:
    """Float64 sum of the squares of each row, cast a block of rows at a time.

    Each row is summed on its own, so the result is bitwise that of
    (x * x).sum(axis=1) over the whole matrix x cast to float64.
    """
    sums = np.empty(data.shape[0])
    step = max(1, min(len(data), _NORM_BLOCK_BYTES // (8 * data.shape[1])))
    cast = np.empty((step, data.shape[1]))  # one buffer for every block, so no block allocates
    for r0 in range(0, data.shape[0], step):
        rows = data[r0 : r0 + step]
        sums[r0 : r0 + step] = np.square(rows, out=cast[: len(rows)], dtype=np.float64).sum(axis=1)
    return sums


def _row_norms(data: np.ndarray) -> np.ndarray:
    """Float64 Euclidean norm of each row: the square roots of _row_squares,
    so bitwise np.linalg.norm over the whole matrix cast to float64."""
    norms = _row_squares(data)
    return np.sqrt(norms, out=norms)


def _first_nonfinite(values: np.ndarray) -> int:
    """Index of the first non-finite entry of a 1-d array, or -1."""
    finite = np.isfinite(values)
    return -1 if finite.all() else int(np.argmin(finite))


@dataclass(frozen=True)
class _Vetted:
    """An array this package has just read, or computed from checked input,
    and holds no other reference to: every value is finite and, if unit is
    set, each row has unit norm whenever the normalized flag says so."""

    array: np.ndarray
    unit: bool = False

    @staticmethod
    def adopt(data, dtype) -> tuple[np.ndarray, "_Vetted | None"]:
        """(array, token): a _Vetted array as it is (cast if its dtype does not
        fit) and itself, or a copy of a caller's array, never aliased, and None."""
        if isinstance(data, _Vetted):
            return np.asarray(data.array, dtype=dtype, order="C"), data
        return np.array(data, dtype=dtype, order="C"), None


@dataclass(frozen=True)
class DescriptorSequence:
    """T x n matrix of per-frame global descriptors (float32 rows).

    The data is stored read-only as float32. A caller's array is copied
    and checked for non-finite values and, when the normalized flag is set,
    for rows whose norm is not 1; a _Vetted array is adopted as it is.
    """

    data: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        data, vetted = _Vetted.adopt(self.data, np.float32)
        if data.ndim != 2 or data.shape[0] < 1 or data.shape[1] < 1:
            raise ValueError(f"descriptor matrix must be T x n with T,n >= 1, got shape {data.shape}")
        if vetted is None and not np.isfinite(data).all():
            raise ValueError("descriptor matrix contains non-finite values")
        if self.normalized and not (vetted is not None and vetted.unit):
            norms = _row_norms(data)
            if np.any(np.abs(norms - 1.0) > _UNIT_NORM_TOL):
                bad = int(np.argmax(np.abs(norms - 1.0)))
                raise ValueError(
                    f"normalized flag set but row {bad} has norm {norms[bad]:.6g}"
                )
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

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
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

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


def _spd1_header(fh, path) -> tuple[int, int, int]:
    """(frames, dim, flags) read from fh, the SPD1 file at path open; raises
    DescriptorFileError unless the file's size is the header's and its
    reserved flag bits and padding bytes are zero."""
    head = fh.read(_HEADER_SIZE)
    size = os.fstat(fh.fileno()).st_size
    if len(head) < _HEADER_SIZE:
        raise DescriptorFileError(path, "truncated header", len(head))
    if head[:4] != SPD1_MAGIC:
        raise DescriptorFileError(path, f"bad magic {head[:4]!r}", 0)
    frames = int(np.frombuffer(head, dtype="<u4", count=1, offset=4)[0])
    dim = int(np.frombuffer(head, dtype="<u4", count=1, offset=8)[0])
    if frames < 1:
        raise DescriptorFileError(path, "frame count must be >= 1", 4)
    if dim < 1:
        raise DescriptorFileError(path, "descriptor dim must be >= 1", 8)
    if head[12] & ~1:
        raise DescriptorFileError(path, f"reserved flag bits set in {head[12]:#04x}", 12)
    for offset in range(13, _HEADER_SIZE):
        if head[offset]:
            raise DescriptorFileError(path, f"nonzero padding byte {head[offset]:#04x}", offset)
    expected = _HEADER_SIZE + 4 * frames * dim
    if size != expected:
        raise DescriptorFileError(
            path, f"payload size {size - _HEADER_SIZE} != {4 * frames * dim}", min(size, expected)
        )
    return frames, dim, head[12]


def read_descriptor_header(path) -> tuple[int, int]:
    """Frame count and dim of an SPD1 file, read from its header alone.

    The file's size is checked against them, as load_descriptor_file does;
    the payload is not read, so its values are not checked.
    """
    with open(path, "rb") as fh:
        return _spd1_header(fh, path)[:2]


def load_descriptor_file(path) -> DescriptorSequence:
    """Read an SPD1 file straight into the array the sequence keeps; raises
    DescriptorFileError naming the file and the bad offset (the flags byte's
    when a row of a file flagged normalized does not have unit norm)."""
    with open(path, "rb") as fh:
        frames, dim, flags = _spd1_header(fh, path)
        data = np.empty((frames, dim), dtype="<f4")  # little-endian on any host
        if fh.readinto(data) != data.nbytes:  # the file shrank after its size was checked
            raise DescriptorFileError(path, "truncated payload", os.fstat(fh.fileno()).st_size)
    bad = _first_nonfinite(data.reshape(-1))
    if bad >= 0:
        raise DescriptorFileError(path, "non-finite descriptor value", _HEADER_SIZE + 4 * bad)
    try:
        return DescriptorSequence(data=_Vetted(data), normalized=bool(flags & 1))
    except ValueError as exc:  # the only check left for finite T x n rows: their norms
        raise DescriptorFileError(path, str(exc), 12) from None


def save_descriptor_file(seq: DescriptorSequence, path) -> None:
    """Write SPD1 so that load_descriptor_file reproduces seq bit-exactly."""
    header = bytearray(_HEADER_SIZE)
    header[:4] = SPD1_MAGIC
    header[4:12] = np.array([seq.frame_count, seq.dim], dtype="<u4").tobytes()
    header[12] = 1 if seq.normalized else 0
    with open(path, "wb") as fh:
        fh.write(bytes(header))
        fh.write(np.ascontiguousarray(seq.data, dtype="<f4"))


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
    reference coordinate frame; values beyond those bounds are clamped to
    them first, so they map to exactly +/-1 and no step can overflow. A
    ValueError if an axis's doubled span is not finite.
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
    for axis, (low, high) in enumerate(zip(lo.tolist(), hi.tolist())):
        # in Python floats an overflow gives inf and inf - inf nan, with no warning
        if not math.isfinite(2.0 * (high - low)):
            raise ValueError(f"bounds of axis {axis} span too wide a range to normalize: "
                             f"{low!r} to {high!r}")
    span = hi - lo
    out = np.zeros_like(raw)
    for axis in range(2):
        if span[axis] > 0:
            clamped = np.clip(raw[:, axis], lo[axis], hi[axis])
            out[:, axis] = 2.0 * (clamped - lo[axis]) / span[axis] - 1.0
    return PositionTrack(data=out)


def make_windows(traversal: Traversal, d_s: int) -> list[SequenceWindow]:
    """All T - d_s + 1 stride-1 windows of length d_s, labeled by last frame."""
    frames = traversal.frame_count
    if d_s < 1 or d_s > frames:
        raise ValueError(f"sequence length {d_s} outside [1, {frames}]")
    return [SequenceWindow(start=i, length=d_s) for i in range(frames - d_s + 1)]


def ascii_lines(path):
    """Yield (line number, line) of an ASCII text file. A byte outside ASCII
    raises ValueError naming path:line, looked for once decoding has failed."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            yield from enumerate(fh, start=1)
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            lineno = next(i for i, raw in enumerate(fh, start=1) if not raw.isascii())
        raise ValueError(f"{path}:{lineno}: a byte is not ASCII") from None


def read_table(path, header: str | None = None, fields=None) -> tuple[list, dict[str, str], list[int]]:
    """Read a text table as (columns, meta, lines), lines being each row's line number.

    "# key=value" lines fill meta; blank lines, other "#" lines and header
    lines are skipped. Each other line has one comma-separated field per
    header name (or per fields entry) and no quoting. fields gives each
    column's type (float if None); int and float columns come back as numpy
    arrays, others as lists.
    """
    width = header.count(",") + 1 if header else len(fields)
    kinds = fields or (float,) * width
    meta: dict[str, str] = {}
    cells: list[str] = []
    lines: list[int] = []
    for lineno, line in ascii_lines(path):
        line = line.strip()
        if not line or line == header:
            continue
        if line[0] == "#":
            key, sep, value = line[1:].partition("=")
            if sep:
                meta[key.strip()] = value.strip()
            continue
        parts = line.split(",")
        if len(parts) != width:
            named = f" under header {header!r}" if header else ""
            raise ValueError(f"{path}:{lineno}: expected {width} fields{named}, got {len(parts)}")
        cells += parts
        lines.append(lineno)
    try:
        # one conversion per column; rows are scanned only to name a bad line
        return _columns(cells, kinds), meta, lines
    except (ValueError, OverflowError):  # numpy overflows on a too-large int64
        for i, lineno in enumerate(lines):
            row = cells[i * width : (i + 1) * width]
            try:
                _columns(row, kinds)
            except (ValueError, OverflowError):
                raise ValueError(f"{path}:{lineno}: malformed row {','.join(row)!r}") from None
        raise


def refuse_rows(path, lines, checks) -> None:
    """For each (mask over a table's rows, what) in turn, raise ValueError
    naming path, the line of the first row the mask flags, and what."""
    for bad, what in checks:
        if bad.any():
            raise ValueError(f"{path}:{lines[int(np.argmax(bad))]}: {what}")


def _columns(cells: list[str], kinds) -> list:
    columns = []
    for j, kind in enumerate(kinds):
        column = cells[j :: len(kinds)]
        columns.append(np.array(column, dtype=kind) if kind in (int, float) else list(map(kind, column)))
    return columns


def write_table(path, header: str | None, rows, meta=()) -> None:
    """Write meta as "# key=value" lines, the header, then the rows; floats as
    repr(float(v)), which reads back bit-exactly, and None as an empty field.
    A field that read_table would split raises ValueError naming path, and a
    byte outside ASCII UnicodeEncodeError, both before path is opened, so a
    refused table leaves no file behind and an existing one as it was."""
    lines = [f"# {key}={_field(value)}\n" for key, value in meta]
    if header is not None:
        lines.append(header + "\n")
    for row in rows:
        fields = list(map(_field, row))
        bad = next((text for text in fields if splits_field(text)), None)
        if bad is not None:
            raise ValueError(f"{path}: field {bad!r} holds a comma or a line break")
        lines.append(",".join(fields) + "\n")
    text = "".join(lines).encode("ascii")
    with open(path, "wb") as fh:
        fh.write(text)


def splits_field(text: str) -> bool:
    """Whether read_table would read text as more than one field: it holds a
    comma or a line break."""
    return "," in text or "\n" in text or "\r" in text


def _field(value) -> str:
    if value is None:
        return ""
    return repr(float(value)) if isinstance(value, (float, np.floating)) else str(value)


def load_positions_file(path) -> np.ndarray:
    """Raw T x 2 positions: a headerless table of two float fields, each
    finite, and per axis a range that normalize_positions can double; a
    ValueError names path and the line of the first non-finite value."""
    columns, _, lines = read_table(path, fields=(float, float))
    if not lines:
        raise ValueError(f"{path}: no position rows")
    raw = np.stack(columns, axis=1)
    for axis, column in enumerate(columns, start=1):
        # in Python floats an overflow gives inf and inf - inf nan, with no warning
        if not math.isfinite(2.0 * (float(column.max()) - float(column.min()))):
            bad = _first_nonfinite(raw.reshape(-1))
            if bad >= 0:
                raise ValueError(f"{path}:{lines[bad // 2]}: non-finite position value")
            raise ValueError(f"{path}: positions in column {axis} span too wide a range "
                             "to normalize")
    return raw


def save_positions_file(raw: np.ndarray, path) -> None:
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 2 or raw.shape[1] != 2:
        raise ValueError(f"positions must be T x 2, got shape {raw.shape}")
    write_table(path, None, raw)
