import re
import tracemalloc
import warnings

import numpy as np
import pytest

from seqplace import dataset
from seqplace.dataset import (
    DescriptorFileError,
    DescriptorSequence,
    PositionTrack,
    SequenceWindow,
    Traversal,
    load_descriptor_file,
    load_positions_file,
    make_windows,
    normalize_positions,
    position_bounds,
    read_descriptor_header,
    save_descriptor_file,
    save_positions_file,
)


def _random_sequence(rng: np.random.Generator, frames: int, dim: int, normalized: bool):
    data = rng.standard_normal((frames, dim)).astype(np.float32)
    if normalized:
        data = data / np.linalg.norm(data.astype(np.float64), axis=1, keepdims=True)
        return DescriptorSequence(data=data.astype(np.float32), normalized=True)
    return DescriptorSequence(data=data, normalized=False)


def test_descriptor_file_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    for case in range(50):
        frames = int(rng.integers(1, 40))
        dim = int(rng.integers(1, 65))
        seq = _random_sequence(rng, frames, dim, normalized=bool(case % 2))
        path = tmp_path / f"case{case}.spd1"
        save_descriptor_file(seq, path)
        back = load_descriptor_file(path)
        assert back.frame_count == frames and back.dim == dim
        assert back.normalized == seq.normalized
        assert back.data.tobytes() == seq.data.tobytes()
        # byte stability: saving the loaded copy reproduces the file exactly
        again = tmp_path / f"case{case}b.spd1"
        save_descriptor_file(back, again)
        assert again.read_bytes() == path.read_bytes()


def test_descriptor_file_layout(tmp_path):
    seq = DescriptorSequence(data=np.arange(6, dtype=np.float32).reshape(2, 3))
    path = tmp_path / "layout.spd1"
    save_descriptor_file(seq, path)
    blob = path.read_bytes()
    assert blob[:4] == b"SPD1"
    assert int.from_bytes(blob[4:8], "little") == 2
    assert int.from_bytes(blob[8:12], "little") == 3
    assert blob[12] == 0  # normalized bit clear
    assert blob[13:16] == b"\x00\x00\x00"
    assert np.frombuffer(blob, dtype="<f4", offset=16).tolist() == [0, 1, 2, 3, 4, 5]
    assert len(blob) == 16 + 2 * 3 * 4


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.spd1"
    path.write_bytes(b"XXD1" + bytes(28))
    with pytest.raises(DescriptorFileError) as err:
        load_descriptor_file(path)
    assert err.value.offset == 0


def test_load_rejects_truncation(tmp_path):
    seq = DescriptorSequence(data=np.ones((3, 4), dtype=np.float32))
    path = tmp_path / "trunc.spd1"
    save_descriptor_file(seq, path)
    whole = path.read_bytes()
    path.write_bytes(whole[:-5])
    with pytest.raises(DescriptorFileError) as err:
        load_descriptor_file(path)
    assert err.value.offset == len(whole) - 5


def test_load_rejects_nonfinite_payload(tmp_path):
    path = tmp_path / "nan.spd1"
    seq = DescriptorSequence(data=np.ones((2, 2), dtype=np.float32))
    save_descriptor_file(seq, path)
    blob = bytearray(path.read_bytes())
    blob[16 + 4 * 3 : 16 + 4 * 4] = np.array([np.nan], dtype="<f4").tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(DescriptorFileError) as err:
        load_descriptor_file(path)
    assert err.value.offset == 16 + 4 * 3


def test_header_reader_checks_what_the_loader_checks_but_the_payload(tmp_path):
    seq = DescriptorSequence(data=np.ones((3, 4), dtype=np.float32))
    path = tmp_path / "d.spd1"
    save_descriptor_file(seq, path)
    whole = path.read_bytes()
    assert read_descriptor_header(path) == (3, 4)
    nan = bytearray(whole)
    nan[16:20] = np.array([np.nan], dtype="<f4").tobytes()
    for blob in (whole[:-5], whole + b"\0", whole[:9], b"XXD1" + whole[4:], bytes(nan)):
        path.write_bytes(blob)
        try:
            load_descriptor_file(path)
        except DescriptorFileError as exc:
            loaded = (str(exc), exc.offset)
        if blob == bytes(nan):  # the payload's values are not read
            assert read_descriptor_header(path) == (3, 4)
            continue
        with pytest.raises(DescriptorFileError) as err:
            read_descriptor_header(path)
        assert (str(err.value), err.value.offset) == loaded
        assert loaded[0].startswith(f"{path}: ")


def test_a_normalized_flag_over_other_rows_names_the_file_and_its_byte(tmp_path):
    # rows of norm 4 sqrt(2) under a flags byte that says unit rows: the flags
    # byte (offset 12) is what the file gets wrong; the header alone reads
    path = tmp_path / "flagged.spd1"
    save_descriptor_file(DescriptorSequence(data=np.full((3, 2), 4.0, dtype=np.float32)), path)
    blob = bytearray(path.read_bytes())
    blob[12] = 1
    path.write_bytes(bytes(blob))
    with pytest.raises(DescriptorFileError) as err:
        load_descriptor_file(path)
    assert err.value.offset == 12
    assert str(err.value) == f"{path}: normalized flag set but row 0 has norm 5.65685 (byte offset 12)"
    assert read_descriptor_header(path) == (3, 2)


@pytest.mark.parametrize("offset, value, message", [
    (12, 0x03, "reserved flag bits set in 0x03"),
    (12, 0x80, "reserved flag bits set in 0x80"),
    (13, 0xFF, "nonzero padding byte 0xff"),
    (14, 0x01, "nonzero padding byte 0x01"),
    (15, 0x7F, "nonzero padding byte 0x7f"),
])
def test_a_reserved_header_bit_names_the_file_and_its_byte(tmp_path, offset, value, message):
    path = tmp_path / "reserved.spd1"
    save_descriptor_file(_random_sequence(np.random.default_rng(9), 600, 4, normalized=True), path)
    blob = bytearray(path.read_bytes())
    blob[offset] = value
    path.write_bytes(bytes(blob))
    for read in (load_descriptor_file, read_descriptor_header):
        with pytest.raises(DescriptorFileError) as err:
            read(path)
        assert str(err.value) == f"{path}: {message} (byte offset {offset})"
        assert err.value.offset == offset


def test_normalized_flag_is_validated():
    with pytest.raises(ValueError):
        DescriptorSequence(data=2.0 * np.ones((2, 3), dtype=np.float32), normalized=True)
    row = np.array([[0.6, 0.8]], dtype=np.float32)
    seq = DescriptorSequence(data=row, normalized=True)
    assert seq.normalized


def test_normalized_check_uses_whole_matrix_norms(monkeypatch):
    rng = np.random.default_rng(23)
    data = rng.standard_normal((11, 7)).astype(np.float32)
    data /= np.linalg.norm(data, axis=1, keepdims=True)
    data[4] *= np.float32(1.01)
    whole = np.linalg.norm(data.astype(np.float64), axis=1)
    bad = int(np.argmax(np.abs(whole - 1.0)))
    for block_rows in (1, 3, 4, 11):
        monkeypatch.setattr(dataset, "_BLOCK_BYTES", 8 * 7 * block_rows)
        assert np.array_equal(dataset._row_norms(data), whole), block_rows
        cast = data.astype(np.float64)
        assert np.array_equal(dataset._row_squares(data), (cast * cast).sum(axis=1)), block_rows
        with pytest.raises(ValueError) as err:
            DescriptorSequence(data=data, normalized=True)
        assert str(err.value) == f"normalized flag set but row {bad} has norm {whole[bad]:.6g}"
        assert DescriptorSequence(data=np.delete(data, 4, axis=0), normalized=True).normalized


@pytest.mark.parametrize("normalized", [False, True])
def test_load_descriptor_file_copies_the_payload_once(tmp_path, monkeypatch, normalized):
    # norm blocks far smaller than the payload (raising=False: the bound
    # below is what a loader without blocks must fail)
    monkeypatch.setattr(dataset, "_BLOCK_BYTES", 1 << 15, raising=False)
    seq = _random_sequence(np.random.default_rng(24), 400, 256, normalized)
    path = tmp_path / "seq.spd1"
    save_descriptor_file(seq, path)
    payload = seq.data.nbytes
    tracemalloc.start()
    try:
        loaded = load_descriptor_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.data, seq.data) and loaded.normalized == normalized
    assert not loaded.data.flags.writeable
    # the file's bytes, one float32 copy and the quarter-size finiteness
    # masks; a second copy of the payload would exceed this
    assert peak <= 2.75 * payload, peak / payload


@pytest.mark.parametrize("normalized", [False, True])
def test_load_descriptor_file_reads_into_the_array_it_keeps(tmp_path, monkeypatch, normalized):
    # the shape and norm blocks of the test above: the payload goes from the
    # file into the sequence's own array, with no bytes object or second copy
    monkeypatch.setattr(dataset, "_BLOCK_BYTES", 1 << 15)
    seq = _random_sequence(np.random.default_rng(24), 400, 256, normalized)
    path = tmp_path / "seq.spd1"
    save_descriptor_file(seq, path)
    payload = seq.data.nbytes
    tracemalloc.start()
    try:
        loaded = load_descriptor_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.data, seq.data) and loaded.normalized == normalized
    assert not loaded.data.flags.writeable
    assert peak <= 1.6 * payload, peak / payload


def test_descriptor_sequence_copies_and_freezes():
    src = np.ones((2, 2), dtype=np.float32)
    seq = DescriptorSequence(data=src)
    src[0, 0] = 99.0
    assert seq.data[0, 0] == 1.0
    with pytest.raises(ValueError):
        seq.data[0, 0] = 5.0


def test_position_track_bounds():
    with pytest.raises(ValueError):
        PositionTrack(data=np.array([[0.0, 1.5]]))
    with pytest.raises(ValueError):
        PositionTrack(data=np.array([[np.nan, 0.0]]))
    track = PositionTrack(data=np.array([[-1.0, 1.0], [0.0, 0.0]]))
    assert track.frame_count == 2


def test_a_descriptor_matrix_that_is_not_two_dimensional_is_refused():
    for shape in ((4,), (2, 3, 4), (0, 3), (3, 0)):
        with pytest.raises(ValueError, match=re.escape(
                f"descriptor matrix must be T x n with T,n >= 1, got shape {shape}")):
            DescriptorSequence(data=np.ones(shape, dtype=np.float32))


def test_position_arrays_that_are_not_t_by_two_are_refused(tmp_path):
    for shape in ((4,), (4, 3), (0, 2), (2, 2, 2)):
        with pytest.raises(ValueError, match=re.escape(
                f"position track must be T x 2, got shape {shape}")):
            PositionTrack(data=np.zeros(shape))
        with pytest.raises(ValueError, match=re.escape(
                f"raw positions must be T x 2, got shape {shape}")):
            position_bounds(np.zeros(shape))
    for shape in ((4,), (4, 3)):
        with pytest.raises(ValueError, match=re.escape(f"positions must be T x 2, got shape {shape}")):
            save_positions_file(np.zeros(shape), tmp_path / "pos.txt")
    assert not (tmp_path / "pos.txt").exists()
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="raw positions contain non-finite values"):
            position_bounds(np.array([[0.0, 1.0], [value, 2.0]]))


def test_normalize_positions_refuses_bounds_that_are_not_two_by_two():
    raw = np.array([[0.0, 1.0], [2.0, 3.0]])
    for bounds in (np.zeros(4), np.zeros((2, 3)), np.zeros((3, 2)), np.zeros((1, 2, 2))):
        with pytest.raises(ValueError, match=re.escape(
                "bounds must be a 2 x 2 (min row, max row) array")):
            normalize_positions(raw, bounds=bounds)


def test_traversal_requires_equal_frame_counts():
    desc = DescriptorSequence(data=np.ones((3, 2), dtype=np.float32))
    with pytest.raises(ValueError):
        Traversal(name="t", descriptors=desc, positions=PositionTrack(np.zeros((2, 2))))


def test_normalize_positions_affine():
    raw = np.array([[0.0, 10.0], [5.0, 10.0], [10.0, 10.0]])
    track = normalize_positions(raw)
    assert np.allclose(track.data[:, 0], [-1.0, 0.0, 1.0])
    assert np.allclose(track.data[:, 1], 0.0)  # zero-range axis collapses to 0
    bounds = position_bounds(raw)
    assert bounds.shape == (2, 2)
    assert np.allclose(bounds[0], [0.0, 10.0]) and np.allclose(bounds[1], [10.0, 10.0])


def test_normalize_positions_foreign_bounds_clip():
    bounds = np.array([[0.0, 0.0], [10.0, 10.0]])
    track = normalize_positions(np.array([[12.0, 5.0], [-3.0, 0.0]]), bounds=bounds)
    assert track.data.max() <= 1.0 and track.data.min() >= -1.0
    assert track.data[0, 0] == 1.0 and track.data[1, 0] == -1.0
    # values far outside the bounds are clamped before the map, so nothing
    # overflows; bounds whose doubled span overflows are refused
    raw = np.array([[1.7e308, -1.7e308], [0.25, 1.0], [-1.7e308, 1.7e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        track = normalize_positions(raw, bounds=np.array([[0.0, -2.0], [1.0, 2.0]]))
        assert track.data.tolist() == [[1.0, -1.0], [-0.5, 0.5], [-1.0, 1.0]]
        for wide in ([[-1e308, 0.0], [1e308, 1.0]], [[0.0, 0.0], [1.0, np.inf]],
                     [[0.0, np.nan], [1.0, 1.0]]):
            with pytest.raises(ValueError, match="span too wide a range to normalize"):
                normalize_positions(np.zeros((2, 2)), bounds=np.array(wide))


def test_positions_file_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    raw = rng.uniform(-250.0, 300.0, size=(25, 2))
    path = tmp_path / "pos.txt"
    save_positions_file(raw, path)
    back = load_positions_file(path)
    assert np.array_equal(raw, back)


def test_positions_file_errors_name_lines(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0.0,0.0\n1.0\n")
    with pytest.raises(ValueError, match=":2"):
        load_positions_file(path)
    path.write_text("0.0,abc\n")
    with pytest.raises(ValueError, match=":1"):
        load_positions_file(path)
    path.write_text("# a comment and a blank line\n\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: no position rows")):
        load_positions_file(path)
    for value in ("nan", "-inf", "1e400"):
        path.write_text(f"0.0,0.0\n1.0,2.0\n3.0,{value}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: non-finite position value")):
            load_positions_file(path)


@pytest.mark.parametrize("rows, column", [("-1e308,0\n1e308,0\n", 1), ("0,1e308\n0,0\n", 2)])
def test_positions_whose_normalization_would_overflow_are_refused_without_a_warning(
        tmp_path, rows, column):
    path = tmp_path / "wide.txt"
    path.write_text(rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: positions in column {column} span too wide a range to normalize")):
            load_positions_file(path)
    path.write_text("-4e307,0\n4e307,1\n")  # 2 x the range is finite
    assert normalize_positions(load_positions_file(path)).data.tolist() == [[-1.0, -1.0], [1.0, 1.0]]


def test_window_label_is_last_frame():
    win = SequenceWindow(start=4, length=3)
    assert win.label == 6
    with pytest.raises(ValueError):
        SequenceWindow(start=-1, length=2)
    with pytest.raises(ValueError):
        SequenceWindow(start=0, length=0)


def test_make_windows_covers_all_full_spans():
    desc = DescriptorSequence(data=np.ones((10, 2), dtype=np.float32))
    trav = Traversal(name="t", descriptors=desc, positions=PositionTrack(np.zeros((10, 2))))
    wins = make_windows(trav, 4)
    assert len(wins) == 7
    assert [w.start for w in wins] == list(range(7))
    assert [w.label for w in wins] == list(range(3, 10))
    assert len(make_windows(trav, 1)) == 10
    assert len(make_windows(trav, 10)) == 1
    with pytest.raises(ValueError):
        make_windows(trav, 11)
    with pytest.raises(ValueError):
        make_windows(trav, 0)
