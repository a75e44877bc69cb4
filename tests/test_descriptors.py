import ast
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from seqplace import dataset, descriptors
from seqplace.dataset import DescriptorSequence
from seqplace.descriptors import (
    DeltaConfig,
    ThumbnailConfig,
    _RunningSums,
    delta_raw,
    delta_transform,
    l2_normalize,
    read_pgm,
    thumbnail_descriptor,
    unit_rows,
)


def _delta_oracle(data: np.ndarray, window: int):
    """Direct per-frame mean differencing, loop form."""
    half = window // 2
    rows, centers = [], []
    for t in range(half, data.shape[0] - half + 1):
        lead = data[t : t + half].astype(np.float64).mean(axis=0)
        trail = data[t - half : t].astype(np.float64).mean(axis=0)
        rows.append(lead - trail)
        centers.append(t)
    return np.array(rows), np.array(centers)


def test_delta_matches_bruteforce_oracle():
    rng = np.random.default_rng(12)
    for _ in range(30):
        frames = int(rng.integers(6, 40))
        dim = int(rng.integers(2, 10))
        window = int(rng.choice([2, 4, 6]))
        if frames < window:
            continue
        data = rng.standard_normal((frames, dim))
        got, centers = delta_raw(data, window)
        want, want_centers = _delta_oracle(data, window)
        assert np.array_equal(centers, want_centers)
        assert got.shape[0] == frames - window + 1
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_delta_raw_equals_cumsum_formulation_exactly():
    def cumsum_delta(data, window):
        half = window // 2
        frames = data.shape[0]
        csum = np.zeros((frames + 1, data.shape[1]), dtype=np.float64)
        np.cumsum(data, axis=0, dtype=np.float64, out=csum[1:])
        centers = np.arange(half, frames - half + 1)
        lead = (csum[centers + half] - csum[centers]) / half
        trail = (csum[centers] - csum[centers - half]) / half
        return lead - trail, centers

    rng = np.random.default_rng(21)
    values = np.array([-0.0, 0.0, 0.1, 1.0, -3.3])  # signed zeros, inexact sums
    for case in range(40):
        window = int(rng.choice([2, 4, 6, 10]))
        frames = int(rng.integers(window, 50))
        dtype = np.float32 if case % 2 else np.float64
        data = rng.choice(values, size=(frames, int(rng.integers(1, 9)))).astype(dtype)
        if case % 3 == 0:
            data = rng.standard_normal(data.shape).astype(dtype)
        got, centers = delta_raw(data, window)
        want, want_centers = cumsum_delta(data, window)
        assert np.array_equal(centers, want_centers)
        assert np.array_equal(got, want), f"case {case}"
        assert np.array_equal(np.signbit(got), np.signbit(want)), f"case {case}"


def test_running_sums_equal_a_padded_cumsum_bit_for_bit():
    # spans that overlap, repeat and reach past both ends, in buffers
    # barely larger than a span, so the carried rows move often (and onto
    # themselves); each row is handed to fill once, in order
    rng = np.random.default_rng(5)
    values = np.array([-0.0, 0.0, 0.1, 1.0, -3.3])  # signed zeros, inexact sums
    for case in range(60):
        n_rows, width = int(rng.integers(1, 30)), int(rng.integers(1, 5))
        data = rng.choice(values, size=(n_rows, 2, width))
        if case % 3 == 0:
            data = rng.standard_normal(data.shape)
        want = np.zeros((n_rows + 1, 2, width))
        np.cumsum(data, axis=0, out=want[1:])
        most = int(rng.integers(2, 8))  # rows of the longest span
        first = -int(rng.integers(0, 4))
        sums = _RunningSums(n_rows, (2, width), most + int(rng.integers(0, 3)), first)
        filled = []

        def fill(dst, t0, t1):
            filled.extend(range(t0, t1))
            dst[...] = data[t0:t1]

        top = first - 1
        while top < n_rows + 3:
            last = first + int(rng.integers(0, most))
            got = sums.span(first, last, fill)
            t = np.clip(np.arange(first, last + 1), 0, n_rows)
            assert np.array_equal(got, want[t]), f"case {case}"
            assert np.array_equal(np.signbit(got), np.signbit(want[t])), f"case {case}"
            top = max(top, last)
            first = int(rng.integers(max(first, top + 2 - most), top + 1))
        assert filled == list(range(n_rows)), f"case {case}"


def _carry_functions(tree) -> set[str]:
    """Names of the functions with a for loop that calls
    np.add(x[...], ..., out=x[...]) on one array x."""
    owner = {}
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for loop in (node for node in ast.walk(func) if isinstance(node, ast.For)):
            for call in ast.walk(loop):
                if not (isinstance(call, ast.Call) and ast.unparse(call.func) == "np.add"):
                    continue
                outs = [kw.value for kw in call.keywords if kw.arg == "out"]
                if (call.args and isinstance(call.args[0], ast.Subscript) and outs
                        and isinstance(outs[0], ast.Subscript)
                        and ast.dump(outs[0].value) == ast.dump(call.args[0].value)):
                    owner[call] = func.name  # ast.walk reaches nested functions later
    return set(owner.values())


def test_one_running_sum_kernel_carries_every_window_sum():
    # the delta transform and the contrast window take their running sums
    # from one kernel: no other function of the package carries a sum row
    # after row in place
    found = set()
    for path in sorted(Path(descriptors.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found |= {f"{path.name}:{name}" for name in _carry_functions(tree)}
    assert len(found) == 1, sorted(found)


def _masked_division(matrix):
    norms = np.linalg.norm(matrix, axis=1)
    nonzero = norms > 0.0
    want = np.zeros_like(matrix)
    want[nonzero] = matrix[nonzero] / norms[nonzero, None]
    return want


def test_unit_rows_equals_masked_division_exactly(monkeypatch):
    rng = np.random.default_rng(22)
    for dtype in (np.float32, np.float64):
        for zero_rows in ([], [0, 3]):
            matrix = rng.standard_normal((6, 5)).astype(dtype)
            matrix[zero_rows] = 0.0
            want = _masked_division(matrix)
            got, normalized = unit_rows(matrix)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert normalized == (not zero_rows)
    # cast into a wider out, in place, and zero rows of -0.0, in blocks of
    # 1 row, 3 rows and the whole matrix
    matrix = rng.standard_normal((7, 5)).astype(np.float32)
    matrix[[1, 4]] = -0.0
    matrix[2, 3] = -0.0
    wide = matrix.astype(np.float64)
    for block_rows in (1, 3, 7):
        in_place = wide.copy()
        for source, out, want in (
            (matrix, None, _masked_division(matrix)),
            (matrix, np.empty(wide.shape), _masked_division(wide)),
            (in_place, in_place, _masked_division(wide)),
        ):
            monkeypatch.setattr(dataset, "_NORM_BLOCK_BYTES", want.itemsize * 5 * block_rows)
            got, normalized = unit_rows(source, out)
            assert out is None or got is out
            assert got.dtype == want.dtype and not normalized
            assert np.array_equal(got, want), block_rows
            assert np.array_equal(np.signbit(got), np.signbit(want)), block_rows


def test_normalizers_hold_one_float64_copy():
    # float64 rows are normalized where they are computed: l2_normalize
    # holds its float64 result and the float32 copy, delta_transform its
    # window means and deltas while they are computed
    rng = np.random.default_rng(26)
    seq = DescriptorSequence(data=rng.standard_normal((2000, 1024)).astype(np.float32))
    size = 8 * seq.data.size
    for label, normalize, bound in (
        ("l2_normalize", l2_normalize, 1.75),
        ("delta_transform", lambda s: delta_transform(s, DeltaConfig(window=4)), 2.25),
    ):
        tracemalloc.start()
        try:
            normalize(seq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * size, (label, peak / size)


def test_delta_cancels_constant_shift():
    rng = np.random.default_rng(3)
    data = rng.standard_normal((20, 5))
    shifted = data + np.array([10.0, -4.0, 0.5, 3.0, 7.0])
    base, _ = delta_raw(data, 4)
    moved, _ = delta_raw(shifted, 4)
    assert np.allclose(base, moved, atol=1e-9)


def test_delta_transform_normalizes_and_maps():
    rng = np.random.default_rng(5)
    seq = DescriptorSequence(data=rng.standard_normal((15, 4)).astype(np.float32))
    out, centers = delta_transform(seq, DeltaConfig(window=4))
    assert out.frame_count == 12
    assert np.allclose(np.linalg.norm(out.data.astype(np.float64), axis=1), 1.0, atol=1e-6)
    assert centers.tolist() == list(range(2, 14))
    assert out.normalized


def test_delta_transform_constant_input_gives_zero_rows():
    seq = DescriptorSequence(data=np.ones((8, 3), dtype=np.float32))
    out, _ = delta_transform(seq, DeltaConfig(window=4))
    assert not out.normalized
    assert np.all(out.data == 0.0)


def test_delta_window_validation():
    with pytest.raises(ValueError):
        DeltaConfig(window=3)
    with pytest.raises(ValueError):
        DeltaConfig(window=0)
    with pytest.raises(ValueError):
        delta_raw(np.ones((3, 2)), 4)


def test_l2_normalize():
    seq = DescriptorSequence(data=np.array([[3.0, 4.0], [0.0, 0.0]], dtype=np.float32))
    out = l2_normalize(seq)
    assert np.allclose(out.data[0], [0.6, 0.8])
    assert np.all(out.data[1] == 0.0)
    assert not out.normalized  # zero row survives, so the flag stays off
    full = l2_normalize(DescriptorSequence(data=np.array([[3.0, 4.0]], dtype=np.float32)))
    assert full.normalized
    assert l2_normalize(full) is full


def test_fresh_rows_are_cast_without_a_second_check(monkeypatch):
    # delta_transform and l2_normalize hand their own unit rows over without
    # DescriptorSequence recomputing the norms; the bits are those of the
    # checked construction
    rng = np.random.default_rng(12)
    seq = DescriptorSequence(data=rng.standard_normal((15, 6)).astype(np.float32))
    cfg = DeltaConfig(window=4)
    expected_delta = DescriptorSequence(data=unit_rows(delta_raw(seq.data, 4)[0])[0], normalized=True)
    expected_unit = DescriptorSequence(data=unit_rows(seq.data.astype(np.float64))[0], normalized=True)

    def no_norms(data):
        raise AssertionError("row norms recomputed")

    monkeypatch.setattr(dataset, "_row_norms", no_norms)
    for out, expected in ((delta_transform(seq, cfg)[0], expected_delta),
                          (l2_normalize(seq), expected_unit)):
        assert out.normalized and out.data.dtype == np.float32
        assert out.data.tobytes() == expected.data.tobytes()
        assert not out.data.flags.writeable
    # a caller's array is still checked
    with pytest.raises(AssertionError, match="row norms"):
        DescriptorSequence(data=expected_unit.data, normalized=True)
    for bad in (np.nan, np.inf):
        data = np.ones((2, 3))
        data[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            DescriptorSequence(data=data)


def test_thumbnail_patch_statistics():
    rng = np.random.default_rng(9)
    image = rng.integers(0, 256, size=(64, 128), dtype=np.uint8)
    cfg = ThumbnailConfig(width=32, height=16, patch_size=8)
    desc = thumbnail_descriptor(image, cfg)
    assert desc.shape == (32 * 16,)
    assert desc.dtype == np.float32
    grid = desc.reshape(16, 32)
    for pr in range(2):
        for pc in range(4):
            patch = grid[pr * 8 : (pr + 1) * 8, pc * 8 : (pc + 1) * 8].astype(np.float64)
            assert abs(patch.mean()) < 1e-6
            assert abs(patch.std() - 1.0) < 1e-5


def test_thumbnail_invariance_to_brightness_and_gain():
    rng = np.random.default_rng(10)
    image = rng.uniform(50.0, 150.0, size=(32, 64))
    cfg = ThumbnailConfig(width=16, height=8, patch_size=4)
    base = thumbnail_descriptor(image, cfg)
    brighter = thumbnail_descriptor(image + 40.0, cfg)
    scaled = thumbnail_descriptor(image * 2.0, cfg)
    assert np.allclose(base, brighter, atol=1e-5)
    assert np.allclose(base, scaled, atol=1e-5)


def test_thumbnail_flat_image_is_zero():
    cfg = ThumbnailConfig(width=16, height=8, patch_size=4)
    desc = thumbnail_descriptor(np.full((8, 16), 77, dtype=np.uint8), cfg)
    assert np.all(desc == 0.0)


def test_thumbnail_crop_rule_centers():
    rng = np.random.default_rng(11)
    cfg = ThumbnailConfig(width=16, height=8, patch_size=4)
    image = rng.integers(0, 256, size=(19, 37), dtype=np.uint8)
    # 19x37 -> usable 16x32 region cropped around the center
    cropped = image[1:17, 2:34]
    assert np.array_equal(
        thumbnail_descriptor(image, cfg), thumbnail_descriptor(cropped, cfg)
    )
    with pytest.raises(ValueError):
        thumbnail_descriptor(np.ones((4, 16), dtype=np.uint8), cfg)


def test_thumbnail_refuses_an_image_that_is_not_a_nonempty_grid():
    for shape in ((8,), (0, 8), (8, 0), (8, 8, 3)):
        with pytest.raises(ValueError, match=re.escape(f"H x W grayscale image, got shape {shape}")):
            thumbnail_descriptor(np.zeros(shape, dtype=np.uint8), ThumbnailConfig(8, 8, 2))


def test_thumbnail_config_validation():
    with pytest.raises(ValueError):
        ThumbnailConfig(width=30, height=32, patch_size=8)
    with pytest.raises(ValueError):
        ThumbnailConfig(width=0, height=32, patch_size=8)


def _write_pgm(path, image: np.ndarray, comment: bool = False):
    header = b"P5\n"
    if comment:
        header += b"# test frame\n"
    header += f"{image.shape[1]} {image.shape[0]}\n255\n".encode("ascii")
    path.write_bytes(header + image.tobytes())


def test_read_pgm_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    image = rng.integers(0, 256, size=(10, 7), dtype=np.uint8)
    path = tmp_path / "frame.pgm"
    _write_pgm(path, image, comment=True)
    assert np.array_equal(read_pgm(path), image)


def test_read_pgm_rejects_bad_files(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
    with pytest.raises(ValueError, match="P5"):
        read_pgm(path)
    image = np.zeros((4, 4), dtype=np.uint8)
    _write_pgm(path, image)
    blob = path.read_bytes()
    path.write_bytes(blob[:-3])
    with pytest.raises(ValueError, match="truncated"):
        read_pgm(path)
    path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(ValueError, match="8-bit"):
        read_pgm(path)
    for header in (b"P5\n2 x\n255\n", b"P5\n2.5 2\n255\n", b"P5\n2 2\n25a\n"):
        path.write_bytes(header + bytes(4))
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: malformed PGM header"):
            read_pgm(path)
