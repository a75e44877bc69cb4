import numpy as np
import pytest

from seqplace.dataset import DescriptorSequence
from seqplace.descriptors import (
    DeltaConfig,
    ThumbnailConfig,
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


def test_unit_rows_equals_masked_division_exactly():
    rng = np.random.default_rng(22)
    for dtype in (np.float32, np.float64):
        for zero_rows in ([], [0, 3]):
            matrix = rng.standard_normal((6, 5)).astype(dtype)
            matrix[zero_rows] = 0.0
            norms = np.linalg.norm(matrix, axis=1)
            nonzero = norms > 0.0
            want = np.zeros_like(matrix)
            want[nonzero] = matrix[nonzero] / norms[nonzero, None]
            got, normalized = unit_rows(matrix)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert normalized == (not zero_rows)


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
