import argparse
import ast
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from seqplace import cli, neural
from seqplace.cli import load_match_csv, main
from seqplace.dataset import (
    DescriptorSequence,
    load_descriptor_file,
    load_positions_file,
    save_descriptor_file,
    save_positions_file,
)
from seqplace.descriptors import l2_normalize
from seqplace.evaluation import load_pr_csv, load_sweep_csv
from seqplace.matching_classic import contrast_enhance, difference_matrix


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def synth_dataset(capsys, tmp_path, name="ds", **overrides):
    flags = {
        "frames": "40",
        "dim": "8",
        "smoothness": "0.3",
        "noise": "0.0",
        "seed": "11",
    }
    flags.update({k.replace("_", "-"): str(v) for k, v in overrides.items()})
    out = tmp_path / name
    argv = ["synth"]
    for key, value in flags.items():
        argv.extend([f"--{key}", value])
    argv.extend(["--out", str(out)])
    code, _, err = run(capsys, *argv)
    assert code == 0, err
    return out


def test_help_and_bad_command(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "synth")[0] == 2  # missing --out


def test_synth_writes_dataset_deterministically(capsys, tmp_path):
    a = synth_dataset(capsys, tmp_path, "a")
    b = synth_dataset(capsys, tmp_path, "b")
    for fname in ("reference.spd1", "query.spd1", "reference_positions.txt", "manifest.txt"):
        assert (a / fname).read_bytes() == (b / fname).read_bytes()
    seq = load_descriptor_file(a / "reference.spd1")
    assert seq.data.shape == (40, 8)


def test_synth_usage_errors(capsys, tmp_path):
    code, _, err = run(capsys, "synth", "--frames", "1", "--out", str(tmp_path / "x"))
    assert code == 2
    assert "error:" in err
    code, _, err = run(
        capsys, "synth", "--revisit-at", "5", "--revisit-len", "10",
        "--frames", "30", "--out", str(tmp_path / "y"),
    )
    assert code == 2
    code, _, err = run(capsys, "synth", "--drift", "1,zap", "--out", str(tmp_path / "z"))
    assert code == 2


def test_a_config_byte_outside_ascii_is_a_usage_error(capsys, tmp_path):
    config = tmp_path / "cfg.txt"
    config.write_bytes(b"# synth\nframes = 4\xc3\xa9\n")
    code, _, err = run(capsys, "synth", "--config", str(config), "--out", str(tmp_path / "ds"))
    assert code == 2
    assert f"{config}:2: a byte is not ASCII" in err


def test_synth_revisit(capsys, tmp_path):
    out = synth_dataset(
        capsys, tmp_path, "rev", frames="80", dim="16", revisit_at="50", revisit_len="20"
    )
    assert (out / "manifest.txt").exists()


def test_config_file_with_flag_precedence(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults\nframes = 12\ndim = 6\n")
    out = tmp_path / "ds"
    code, _, err = run(
        capsys, "synth", "--config", str(cfg), "--frames", "15", "--out", str(out)
    )
    assert code == 0, err
    seq = load_descriptor_file(out / "reference.spd1")
    assert seq.data.shape == (15, 6)  # explicit --frames wins, dim comes from the file
    assert run(capsys, "synth", "--config", str(tmp_path / "nope.cfg"), "--out", "x")[0] == 2
    cfg.write_text("frames\n")
    assert run(capsys, "synth", "--config", str(cfg), "--out", str(out))[0] == 2


def test_config_flag_with_an_equals_sign_or_without_a_file(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("frames = 12\ndim = 6\n")
    out = tmp_path / "ds"
    code, _, err = run(capsys, "synth", f"--config={cfg}", "--out", str(out))
    assert code == 0, err
    assert load_descriptor_file(out / "reference.spd1").data.shape == (12, 6)
    code, _, err = run(capsys, "synth", "--out", str(out), "--config")
    assert code == 2 and "--config needs a file argument" in err


def _write_pgm(path, image):
    path.write_bytes(
        b"P5\n" + f"{image.shape[1]} {image.shape[0]}\n255\n".encode("ascii") + image.tobytes()
    )


def test_extract(capsys, tmp_path):
    rng = np.random.default_rng(0)
    images = tmp_path / "imgs"
    images.mkdir()
    _write_pgm(images / "a.pgm", rng.integers(0, 256, size=(8, 12), dtype=np.uint8))
    _write_pgm(images / "b.pgm", rng.integers(0, 256, size=(8, 12), dtype=np.uint8))
    _write_pgm(images / "c.pgm", rng.integers(0, 256, size=(9, 13), dtype=np.uint8))
    out = tmp_path / "desc.spd1"
    code, stdout, err = run(
        capsys, "extract", "--images", str(images), "--out", str(out),
        "--width", "6", "--height", "4", "--patch", "2",
    )
    assert code == 0
    assert "cropping c.pgm" in err and "9x13" in err
    seq = load_descriptor_file(out)
    assert seq.data.shape == (3, 24)

    empty = tmp_path / "empty"
    empty.mkdir()
    assert run(capsys, "extract", "--images", str(empty), "--out", str(out))[0] == 2
    assert run(capsys, "extract", "--images", str(tmp_path / "no"), "--out", str(out))[0] == 2
    code, _, err = run(capsys, "extract", "--images", str(images), "--out", str(tmp_path / "odd.spd1"),
                       "--width", "7", "--height", "4", "--patch", "2")
    assert code == 2 and "width/height (7x4) must be divisible by patch_size (2)" in err
    assert not (tmp_path / "odd.spd1").exists()
    (images / "bad.pgm").write_bytes(b"P5\n4 4\n255\nxx")
    code, _, err = run(
        capsys, "extract", "--images", str(images), "--out", str(out),
        "--width", "2", "--height", "2", "--patch", "2",
    )
    assert code == 3
    assert "bad.pgm" in err


def test_train_accepts_a_flat_frame(capsys, tmp_path):
    # a uniform image extracts to an all-zero row, which stays zero when
    # the reference is normalized
    rng = np.random.default_rng(2)
    images = tmp_path / "imgs"
    images.mkdir()
    for i in range(6):
        image = rng.integers(0, 256, size=(8, 12), dtype=np.uint8)
        _write_pgm(images / f"{i}.pgm", np.full_like(image, 90) if i == 3 else image)
    desc = tmp_path / "desc.spd1"
    code, _, err = run(
        capsys, "extract", "--images", str(images), "--out", str(desc),
        "--width", "6", "--height", "4", "--patch", "2",
    )
    assert code == 0, err
    assert not load_descriptor_file(desc).data[3].any()
    positions = tmp_path / "positions.txt"
    positions.write_text("".join(f"{i},0\n" for i in range(6)))
    code, _, err = run(
        capsys, "train", "--ref", str(desc), "--ref-positions", str(positions),
        "--out-checkpoint", str(tmp_path / "m.spm1"), "--out-curves", str(tmp_path / "c.csv"),
        "--ds", "2", "--epochs", "2", "--hidden", "4",
    )
    assert code == 0, err


def train_args(ds_dir, ckpt, curves, **overrides):
    flags = {"ds": "2", "epochs": "60", "hidden": "24", "seed": "0"}
    flags.update({k: str(v) for k, v in overrides.items()})
    argv = [
        "train",
        "--ref", str(ds_dir / "reference.spd1"),
        "--ref-positions", str(ds_dir / "reference_positions.txt"),
        "--out-checkpoint", str(ckpt),
        "--out-curves", str(curves),
    ]
    for key, value in flags.items():
        argv.extend([f"--{key}", value])
    return argv


def test_train_epochs_zero_writes_initial_checkpoint(capsys, tmp_path):
    ds = synth_dataset(capsys, tmp_path)
    ckpt = tmp_path / "init.spm1"
    code, stdout, err = run(
        capsys, *train_args(ds, ckpt, tmp_path / "curves.csv", epochs=0, hidden=16)
    )
    assert code == 0, err
    assert str(ckpt) in stdout
    expected = tmp_path / "expected.spm1"
    neural.save_checkpoint(neural.init_model(n=8, places=40, d_s=2, hidden=16, seed=0), expected)
    assert ckpt.read_bytes() == expected.read_bytes()
    assert (tmp_path / "curves.csv").read_text().startswith("epoch,loss,accuracy,seconds")


def test_train_progress_prints_each_epoch_to_stderr_only(capsys, tmp_path):
    ds = synth_dataset(capsys, tmp_path)
    ckpt, curves = tmp_path / "m.spm1", tmp_path / "c.csv"
    argv = train_args(ds, ckpt, curves, epochs=3, hidden=8)
    code, quiet_out, quiet_err = run(capsys, *argv)
    assert code == 0 and quiet_err == ""
    quiet_ckpt, quiet_curves = ckpt.read_bytes(), neural.load_curves_csv(curves)
    code, out, err = run(capsys, *argv, "--progress")
    assert code == 0
    assert out == quiet_out
    assert ckpt.read_bytes() == quiet_ckpt
    loud = neural.load_curves_csv(curves)
    assert (loud.losses, loud.accuracies) == (quiet_curves.losses, quiet_curves.accuracies)
    lines = err.splitlines()
    assert len(lines) == 3
    for epoch, line in enumerate(lines):
        assert line.startswith(f"train: epoch {epoch + 1}/3 loss ")
        fields = line.split()
        assert fields[3:8:2] == ["loss", "accuracy", "seconds"]
        assert float(fields[4]) == pytest.approx(loud.losses[epoch], abs=1e-6)
        assert float(fields[6]) == pytest.approx(loud.accuracies[epoch], abs=1e-4)
        assert float(fields[8]) == pytest.approx(loud.seconds[epoch], abs=0.01)
    bad = train_args(ds, ckpt, curves, epochs=-1)
    assert run(capsys, *bad, "--progress")[0] == 2


def test_train_usage_errors(capsys, tmp_path):
    ds = synth_dataset(capsys, tmp_path)
    assert run(capsys, *train_args(ds, tmp_path / "c", tmp_path / "v", ds=0))[0] == 2
    assert run(capsys, *train_args(ds, tmp_path / "c", tmp_path / "v", epochs=-1))[0] == 2
    bad = train_args(ds, tmp_path / "c", tmp_path / "v")
    bad[2] = str(tmp_path / "missing.spd1")
    assert run(capsys, *bad)[0] == 2


def test_training_divergence_exits_three(capsys, tmp_path, monkeypatch):
    ds = synth_dataset(capsys, tmp_path)

    def explode(*args, **kwargs):
        raise neural.TrainingError(epoch=3, batch=1)

    monkeypatch.setattr(neural, "train", explode)
    code, _, err = run(capsys, *train_args(ds, tmp_path / "c.spm1", tmp_path / "v.csv"))
    assert code == 3
    assert "non-finite loss at epoch 3" in err


def test_train_exits_three_on_a_non_finite_loss(capsys, tmp_path, monkeypatch):
    # train's own check: the second batch of epoch 1 turns NaN (40 windows
    # less one, in batches of 32)
    ds = synth_dataset(capsys, tmp_path)
    calls = []
    real = neural._batch_gradients

    def gradients(*args):
        losses, logits = real(*args)
        calls.append(len(losses))
        return (np.full_like(losses, np.nan) if len(calls) == 4 else losses), logits

    monkeypatch.setattr(neural, "_batch_gradients", gradients)
    ckpt = tmp_path / "c.spm1"
    code, out, err = run(capsys, *train_args(ds, ckpt, tmp_path / "v.csv", epochs=3))
    assert code == 3
    assert "non-finite loss at epoch 1, batch 1" in err
    assert calls == [32, 7, 32, 7] and out == "" and not ckpt.exists()


def test_train_refuses_a_non_finite_or_non_positive_lr_or_clip(capsys, tmp_path):
    ds = synth_dataset(capsys, tmp_path)
    ckpt = tmp_path / "c.spm1"
    for flag, value in (("lr", "inf"), ("lr", "nan"), ("lr", "0"), ("lr", "-0.01"),
                        ("clip", "inf"), ("clip", "0")):
        code, _, err = run(capsys, *train_args(ds, ckpt, tmp_path / "v.csv", **{flag: value}))
        assert code == 2, (flag, value)
        assert f"--{flag} must be a finite number > 0" in err
    assert not ckpt.exists()


def test_train_match_deep_pipeline(capsys, tmp_path):
    ds = synth_dataset(capsys, tmp_path)
    ckpt = tmp_path / "model.spm1"
    code, _, err = run(capsys, *train_args(ds, ckpt, tmp_path / "curves.csv"))
    assert code == 0, err

    # training is deterministic: a rerun writes the same checkpoint bytes
    ckpt2 = tmp_path / "model2.spm1"
    assert run(capsys, *train_args(ds, ckpt2, tmp_path / "curves2.csv"))[0] == 0
    assert ckpt.read_bytes() == ckpt2.read_bytes()

    out = tmp_path / "matches.csv"
    match_argv = [
        "match", "--method", "deep",
        "--ref", str(ds / "reference.spd1"),
        "--query", str(ds / "query.spd1"),
        "--query-positions", str(ds / "query_positions.txt"),
        "--checkpoint", str(ckpt),
        "--out", str(out),
    ]
    code, _, err = run(capsys, *match_argv)
    assert code == 0, err
    report, meta = load_match_csv(out)
    assert meta["method"] == "deep"
    assert meta["polarity"] == "higher"
    assert meta["ds"] == "2"
    hits = float(np.mean(report.best_ref == report.query_indices))
    assert hits >= 0.95

    out2 = tmp_path / "matches2.csv"
    assert run(capsys, *(match_argv[:-1] + [str(out2)]))[0] == 0
    assert out.read_bytes() == out2.read_bytes()

    # deep matching without the checkpoint or positions is a usage error
    assert run(capsys, *(match_argv[:9] + ["--out", str(out)]))[0] == 2
    no_pos = [a for a in match_argv if not a.endswith("query_positions.txt")]
    no_pos.remove("--query-positions")
    assert run(capsys, *no_pos)[0] == 2


def test_match_seqslam_ds1_is_row_argmin(capsys, tmp_path):
    ds = synth_dataset(capsys, tmp_path, noise="0.4")
    out = tmp_path / "matches.csv"
    matrix_path = tmp_path / "enhanced.spd1"
    code, _, err = run(
        capsys, "match", "--method", "seqslam", "--ds", "1",
        "--ref", str(ds / "reference.spd1"), "--query", str(ds / "query.spd1"),
        "--export-matrix", str(matrix_path), "--out", str(out),
    )
    assert code == 0, err
    report, meta = load_match_csv(out)
    assert meta["polarity"] == "lower"
    matrix = load_descriptor_file(matrix_path).data
    assert matrix.shape == (40, 40)
    assert np.array_equal(report.best_ref, np.argmin(matrix, axis=1))
    assert np.allclose(report.scores, matrix.min(axis=1), atol=1e-6)


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
def test_match_exports_the_enhanced_matrix_as_float32(capsys, tmp_path, metric):
    ds = synth_dataset(capsys, tmp_path, noise="0.4")
    path = tmp_path / "enhanced.spd1"
    code, _, err = run(
        capsys, "match", "--method", "seqslam", "--ds", "3", "--metric", metric, "--r-window", "4",
        "--ref", str(ds / "reference.spd1"), "--query", str(ds / "query.spd1"),
        "--export-matrix", str(path), "--out", str(tmp_path / "m.csv"),
    )
    assert code == 0, err
    reference, query = (load_descriptor_file(ds / f"{side}.spd1") for side in ("reference", "query"))
    want = contrast_enhance(difference_matrix(query, reference, metric), 4).data
    got = load_descriptor_file(path)
    assert not got.normalized
    assert got.data.tobytes() == want.astype(np.float32).tobytes()


def test_match_exports_the_deep_activity_as_float32(capsys, tmp_path):
    # with the query file flagged normalized and with its rows scaled by 3
    ds = synth_dataset(capsys, tmp_path)
    ckpt = tmp_path / "model.spm1"
    neural.save_checkpoint(neural.init_model(n=8, places=40, d_s=3, hidden=8, seed=2), ckpt)
    model = neural.load_checkpoint(ckpt)
    tripled = tmp_path / "tripled.spd1"
    save_descriptor_file(DescriptorSequence(3 * load_descriptor_file(ds / "query.spd1").data), tripled)
    for query in (ds / "query.spd1", tripled):
        argv = deep_match_argv(ds, ckpt, tmp_path / "m.csv")
        argv[argv.index("--query") + 1] = str(query)
        code, _, err = run(capsys, *argv, "--export-matrix", str(tmp_path / "act.spd1"))
        assert code == 0, err
        traversal = cli._load_traversal(query, ds / "query_positions.txt")
        unit = replace(traversal, descriptors=l2_normalize(traversal.descriptors))
        activity, _ = neural.infer(model, unit)
        got = load_descriptor_file(tmp_path / "act.spd1")
        assert got.data.tobytes() == activity.astype(np.float32).tobytes()


@pytest.mark.parametrize("method", ["seqslam", "deep"])
def test_match_export_holds_one_float32_matrix(capsys, tmp_path, method):
    # 8000 queries against 500 frames: the export is 16 MB in float32; the
    # float64 matrix, its float32 copy and the bytes written took 64 MB
    rng = np.random.default_rng(3)
    n_query, n_ref, dim = 8000, 500, 16
    paths = {name: tmp_path / f"{name}.spd1" for name in ("reference", "query")}
    for name, frames in (("reference", n_ref), ("query", n_query)):
        save_descriptor_file(DescriptorSequence(rng.standard_normal((frames, dim))), paths[name])
    argv = ["match", "--method", method, "--ref", str(paths["reference"]),
            "--query", str(paths["query"]), "--export-matrix", str(tmp_path / "m.spd1"),
            "--out", str(tmp_path / "m.csv"), "--ds", "2"]
    if method == "deep":
        ckpt, positions = tmp_path / "model.spm1", tmp_path / "positions.txt"
        neural.save_checkpoint(neural.init_model(n=dim, places=n_ref, d_s=2, hidden=8), ckpt)
        save_positions_file(rng.standard_normal((n_query, 2)), positions)
        argv += ["--checkpoint", str(ckpt), "--query-positions", str(positions)]
    tracemalloc.start()
    try:
        code, _, err = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0, err
    matrix = 8 * n_query * n_ref  # one Q x R float64 array
    assert peak < matrix, peak / matrix  # about 0.7


def test_match_delta_and_flag_errors(capsys, tmp_path):
    ds = synth_dataset(capsys, tmp_path)
    out = tmp_path / "m.csv"
    code, _, err = run(
        capsys, "match", "--method", "delta", "--ds", "4",
        "--ref", str(ds / "reference.spd1"), "--query", str(ds / "query.spd1"),
        "--out", str(out),
    )
    assert code == 0, err
    report, meta = load_match_csv(out)
    assert meta["polarity"] == "lower"
    assert len(report) == 40 - 4 + 1  # trimmed half-window at each end
    assert report.query_indices[0] == 2 and report.query_indices[-1] == 38
    # delta has no matrix to export
    assert run(
        capsys, "match", "--method", "delta", "--ds", "4",
        "--ref", str(ds / "reference.spd1"), "--query", str(ds / "query.spd1"),
        "--export-matrix", str(tmp_path / "x.spd1"), "--out", str(out),
    )[0] == 2
    # seqslam without --ds
    assert run(
        capsys, "match", "--method", "seqslam",
        "--ref", str(ds / "reference.spd1"), "--query", str(ds / "query.spd1"),
        "--out", str(out),
    )[0] == 2


def test_a_positions_file_of_another_length_names_both_files(capsys, tmp_path):
    ds = synth_dataset(capsys, tmp_path)
    short = tmp_path / "short.txt"
    save_positions_file(np.zeros((5, 2)), short)
    code, _, err = run(
        capsys, "match", "--method", "seqslam", "--ds", "2",
        "--ref", str(ds / "reference.spd1"), "--query", str(ds / "query.spd1"),
        "--query-positions", str(short), "--out", str(tmp_path / "m.csv"),
    )
    assert code == 2
    assert f"{short} has 5 rows but {ds / 'query.spd1'} has 40 frames" in err


@pytest.mark.parametrize("offset, what", [(4, "frame count"), (8, "descriptor dim")])
def test_an_empty_descriptor_header_names_its_offset(capsys, tmp_path, offset, what):
    ds = synth_dataset(capsys, tmp_path)
    query = tmp_path / "empty.spd1"
    blob = bytearray((ds / "query.spd1").read_bytes()[:16])
    blob[offset : offset + 4] = bytes(4)
    query.write_bytes(bytes(blob))
    code, _, err = run(
        capsys, "match", "--method", "seqslam", "--ds", "2",
        "--ref", str(ds / "reference.spd1"), "--query", str(query),
        "--out", str(tmp_path / "m.csv"),
    )
    assert code == 3
    assert f"{what} must be >= 1 (byte offset {offset})" in err


def _mutated_spd1(rng, blob: bytes) -> tuple[str, bytes]:
    """One seeded mutation of an SPD1 file's bytes, and its kind."""
    blob = bytearray(blob)
    kind = ("header", "payload", "truncate", "float", "flags")[rng.integers(5)]
    if kind == "header":
        blob[rng.integers(16)] ^= int(rng.integers(1, 256))
    elif kind == "payload":
        blob[rng.integers(16, len(blob))] ^= int(rng.integers(1, 256))
    elif kind == "truncate":
        del blob[rng.integers(len(blob)) :]
    elif kind == "float":
        at = 16 + 4 * int(rng.integers((len(blob) - 16) // 4))
        value = (np.nan, np.inf, -np.inf, 3e38, -3e38)[rng.integers(5)]
        blob[at : at + 4] = np.array([value], dtype="<f4").tobytes()
    else:
        blob[12] = int(rng.integers(256))
    return kind, bytes(blob)


def test_a_mutated_spd1_input_matches_finitely_or_names_its_file(capsys, tmp_path):
    # 120 seeded mutations of one of a 60 x 8 pair's SPD1 files (the reference
    # flagged unit-norm, the drifted query not): byte flips in the header and
    # the payload, truncations, a NaN, an infinity or a +-3e38 float, and a
    # random flags byte. Each match either exits 0 with finite scores or
    # exits 3 naming the mutated file and a byte offset
    ds = synth_dataset(capsys, tmp_path, frames=60, dim=8, noise=0.2, drift=",".join(["0.2"] * 8))
    paths = {side: ds / f"{side}.spd1" for side in ("reference", "query")}
    originals = {side: path.read_bytes() for side, path in paths.items()}
    assert (originals["reference"][12], originals["query"][12]) == (1, 0)
    rng = np.random.default_rng(41)
    out, failed = tmp_path / "m.csv", []
    for trial in range(120):
        side = ("reference", "query")[rng.integers(2)]
        kind, blob = _mutated_spd1(rng, originals[side])
        paths[side].write_bytes(blob)
        for method in ("seqslam", "delta"):
            out.unlink(missing_ok=True)
            code, _, err = run(capsys, "match", "--method", method, "--ds", "4", "--ref",
                               str(paths["reference"]), "--query", str(paths["query"]),
                               "--out", str(out))
            if code == 0:
                ok = np.isfinite(load_match_csv(out)[0].scores).all()
            else:
                ok = code == 3 and f"{paths[side]}: " in err and "byte offset" in err
            if not ok:
                failed.append((trial, side, kind, method, code, err))
        paths[side].write_bytes(originals[side])
    assert not failed, failed


def _mutated_spm1(rng, blob: bytes) -> tuple[str, bytes, str | None]:
    """One seeded mutation of an SPM1 file's bytes, its kind, and what the
    error must say after the file's path when the mutation is a non-finite
    weight."""
    blob, where = bytearray(blob), None
    kind = ("flip", "truncate", "field", "float", "trailing")[rng.integers(5)]
    if kind == "flip":
        blob[rng.integers(len(blob))] ^= int(rng.integers(1, 256))
    elif kind == "truncate":
        del blob[rng.integers(len(blob)) :]
    elif kind == "field":  # m, H, N or d_s
        at = 4 + 4 * int(rng.integers(4))
        old = int.from_bytes(blob[at : at + 4], "little")
        new = (0, 1, 2, old - 1, old + 1, 2**32 - 1, int(rng.integers(2**32)))[rng.integers(7)]
        blob[at : at + 4] = (new % 2**32).to_bytes(4, "little")
    elif kind == "float":
        at = 20 + 4 * int(rng.integers((len(blob) - 20) // 4))
        value = (np.nan, np.inf, -np.inf, 3e38, -3e38)[rng.integers(5)]
        blob[at : at + 4] = np.array([value], dtype="<f4").tobytes()
        if not np.isfinite(value):
            where = f": non-finite weight (byte offset {at})"
    else:
        blob += rng.integers(256, size=int(rng.integers(1, 9)), dtype=np.uint8).tobytes()
    return kind, bytes(blob), where


def _mutated_positions(rng, blob: bytes) -> tuple[str, bytes, str | None]:
    """One seeded mutation of a positions file's bytes, its kind, and what
    the error must say after the file's path when the mutation is a
    non-finite value."""
    blob, where = bytearray(blob), None
    kind = ("edit", "truncate", "nonfinite", "large", "ascii", "crlf")[rng.integers(6)]
    if kind == "edit":
        blob[rng.integers(len(blob))] = int(rng.choice(list(b"0123456789.,-+e \n\t\x00x")))
    elif kind == "truncate":
        del blob[rng.integers(len(blob)) :]
    elif kind in ("nonfinite", "large"):
        lines = bytes(blob).split(b"\n")
        row = int(rng.integers(len(lines) - 1))  # the last "line" follows the final line break
        fields = lines[row].split(b",")
        values = ((b"nan", b"inf", b"-inf", b"1e400", b"-1e400") if kind == "nonfinite"
                  else (b"1e308", b"-1e308", b"1.7e308", b"-1.7e308", b"3e38", b"1e300"))
        fields[rng.integers(2)] = values[rng.integers(len(values))]
        lines[row] = b",".join(fields)
        blob = bytearray(b"\n".join(lines))
        if kind == "nonfinite":
            where = f":{row + 1}: non-finite position value"
    elif kind == "ascii":
        blob[rng.integers(len(blob))] = int(rng.integers(128, 256))
    else:
        blob = bytearray(bytes(blob).replace(b"\n", b"\r\n"))
    return kind, bytes(blob), where


def test_a_mutated_checkpoint_or_positions_file_matches_finitely_or_names_it(capsys, tmp_path):
    # 150 seeded mutations of a 60 x 8 pair's H=4 checkpoint and 100 of its
    # query positions file, each run through match --method deep: byte flips
    # and edits, truncations, header fields, NaN, inf and +-3e38 weights,
    # trailing bytes, non-finite and very large rows, bytes outside ASCII and
    # CRLF line ends. Each match exits 0 with finite scores, or exits 2 or 3
    # naming the mutated file (and the byte offset or line of a non-finite
    # value) or the query frames whose logits overflowed; no warning escapes
    ds = synth_dataset(capsys, tmp_path, frames=60, dim=8, noise=0.2, drift=",".join(["0.2"] * 8))
    ckpt, out = tmp_path / "model.spm1", tmp_path / "m.csv"
    argv = train_args(ds, ckpt, tmp_path / "curves.csv", ds=4, epochs=2, hidden=4)
    assert run(capsys, *argv)[0] == 0
    positions = ds / "query_positions.txt"
    rng = np.random.default_rng(43)
    trials = [(ckpt, _mutated_spm1)] * 150 + [(positions, _mutated_positions)] * 100
    failed = []
    for path, mutate in trials:
        original = path.read_bytes()
        kind, blob, where = mutate(rng, original)
        path.write_bytes(blob)
        out.unlink(missing_ok=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(capsys, *deep_match_argv(ds, ckpt, out))
        if code == 0:
            ok = where is None and np.isfinite(load_match_csv(out)[0].scores).all()
        else:
            named = f"{path}{where or ''}" in err
            ok = code in (2, 3) and (named or "non-finite LSTM logits at query frame" in err)
        if not ok:
            failed.append((path.name, kind, blob[:40], code, err))
        path.write_bytes(original)
    assert not failed, failed


def _mutated_text(rng, blob: bytes) -> tuple[str, bytes, str | None]:
    """One seeded byte- or line-level mutation of a text file, its kind, and
    the ":line: ..." an error must name after the path (a byte outside
    ASCII), else None."""
    lines = blob.splitlines(keepends=True)
    at = int(rng.integers(len(lines)))
    kind = ("edit", "truncate", "delete", "duplicate", "ascii", "crlf")[rng.integers(6)]
    if kind == "edit":
        mutated = bytearray(blob)
        mutated[rng.integers(len(blob))] = int(rng.choice(list(b"0123456789.,-+=#ex \n\t\x00")))
        return kind, bytes(mutated), None
    if kind == "truncate":
        return kind, blob[: rng.integers(len(blob))], None
    if kind == "crlf":
        return kind, blob.replace(b"\n", b"\r\n"), None
    if kind == "delete":
        del lines[at]
    elif kind == "duplicate":
        lines.insert(at, lines[at])
    else:
        col = int(rng.integers(len(lines[at])))
        lines[at] = lines[at][:col] + bytes([rng.integers(128, 256)]) + lines[at][col + 1 :]
        return kind, b"".join(lines), f":{at + 1}: a byte is not ASCII"
    return kind, b"".join(lines), None


# field values: refused in any column, refused only in an int column, and valid in both
_REFUSED_FIELDS = (b"x", b"", b"nan", b"-inf", b"1e400", b"1,2")
_INT_REFUSED_FIELDS = (b"-1", b"1.5", b"99999999999999999999")
_FIELDS = _REFUSED_FIELDS + _INT_REFUSED_FIELDS + (b"0", b"7")


def _mutated_table(rng, blob: bytes, kinds) -> tuple[str, bytes, str | None]:
    """One seeded mutation of a text table whose rows have the column kinds:
    a _mutated_text one, a field of a row or the value of a "# key=" comment;
    with its kind and the ":line:" an error must name after the path when
    the mutated field is one the row's column refuses."""
    lines = blob.split(b"\n")  # the last "line" follows the final line break
    rows = [i for i, line in enumerate(lines[:-1]) if line[:1].isdigit()]
    comments = [i for i, line in enumerate(lines) if line.startswith(b"# ")]
    kind = ("text", "field", "comment")[rng.integers(3 if comments else 2)]
    if kind == "text":
        return _mutated_text(rng, blob)
    if kind == "comment":
        at = comments[rng.integers(len(comments))]
        value = (b"0", b"-1", b"x", b"", b"99999999999999999999", b"4", b"lower", b"higher")
        lines[at] = lines[at].partition(b"=")[0] + b"=" + value[rng.integers(len(value))]
        return kind, b"\n".join(lines), None
    at = rows[rng.integers(len(rows))]
    fields = lines[at].split(b",")
    column = int(rng.integers(len(fields)))
    fields[column] = _FIELDS[rng.integers(len(_FIELDS))]
    lines[at] = b",".join(fields)
    refused = fields[column] in _REFUSED_FIELDS + (_INT_REFUSED_FIELDS if kinds[column] is int else ())
    return kind, b"\n".join(lines), f":{at + 1}:" if refused else None


def _mutated_config(rng, blob: bytes) -> tuple[str, bytes, str | None]:
    """One seeded mutation of a config file: a _mutated_text one, or the key
    or value of a setting, with its kind and the ":line:" an error must name
    after the path when the setting can be no flag's."""
    lines = blob.split(b"\n")
    settings = [i for i, line in enumerate(lines) if b"=" in line and not line.startswith(b"#")]
    kind = ("text", "key", "value")[rng.integers(3)]
    if kind == "text":
        return _mutated_text(rng, blob)
    at = settings[rng.integers(len(settings))]
    key, _, value = lines[at].partition(b" = ")
    values = (b"abc", b"", b"0", b"-1", b"nan", b"inf", b"1e400", b"99999999999999999999",
              b"2", b"0.5", b"1_0", b"euclidean", b"seqslam")
    if kind == "key":
        key = (b"bogus", b"v", b"r_win", b"progress", b"ds_values")[rng.integers(5)]
    else:
        value = values[rng.integers(len(values))]
    lines[at] = key + b" = " + value
    refused = key in (b"bogus", b"v", b"progress", b"ds_values") or value in (b"abc", b"")
    return kind, b"\n".join(lines), f":{at + 1}:" if refused else None


def test_a_mutated_match_csv_ground_truth_or_config_runs_finitely_or_names_it(capsys, tmp_path):
    # 120 seeded mutations each of a match CSV and a ground-truth file run
    # through eval, and of a config file run through match: byte edits,
    # truncations, deleted and repeated lines, bytes outside ASCII, CRLF line
    # ends, refused and accepted fields and comment values, and unknown keys
    # and bad values. Each run exits 0 with a finite AUC or CSV, or exits 2
    # or 3 naming the mutated file (and the line of a refused field or
    # setting); a config that lost a line may instead leave a flag unset,
    # which is refused by name. No warning escapes
    ds = synth_dataset(capsys, tmp_path, noise="0.2")
    pair = ["--ref", str(ds / "reference.spd1"), "--query", str(ds / "query.spd1")]
    matches, truth, config, out = (tmp_path / name for name in ("m.csv", "gt.csv", "run.cfg", "o.csv"))
    assert run(capsys, "match", "--method", "seqslam", "--ds", "4", *pair, "--out", str(matches))[0] == 0
    truth.write_text("".join(f"{q},{q}\n" for q in range(40)))
    config.write_text("# seqslam at d_s=4\nmethod = seqslam\nds = 4\nmetric = cosine\n"
                      "v_min = 0.8\nv_max = 1.2\nv_step = 0.04\nr_window = 10\n")
    eval_argv = ["eval", "--matches", str(matches)]
    rng = np.random.default_rng(44)
    trials = (
        [(matches, lambda r, b: _mutated_table(r, b, (int, int, float)), eval_argv)] * 120
        + [(truth, lambda r, b: _mutated_table(r, b, (int, int)),
            eval_argv + ["--ground-truth", str(truth)])] * 120
        + [(config, _mutated_config, ["match", "--config", str(config), *pair, "--out", str(out)])] * 120
    )
    failed = []
    for path, mutate, argv in trials:
        original = path.read_bytes()
        kind, blob, where = mutate(rng, original)
        path.write_bytes(blob)
        out.unlink(missing_ok=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = run(capsys, *argv)
        if code == 0 and path == config:
            ok = np.isfinite(load_match_csv(out)[0].scores).all()
        elif code == 0:
            auc = [line for line in stdout.splitlines() if line.startswith("auc,")]
            ok = len(auc) == 1 and np.isfinite(float(auc[0][4:]))
        elif where is not None:
            ok = code in (2, 3) and f"{path}{where}" in err
        elif path == config:
            located = re.search(re.escape(f"{path}:") + r"\d+: ", err) is not None
            ok = code in (2, 3) and (located or "required" in err)
        else:
            ok = code in (2, 3) and str(path) in err
        if not ok:
            failed.append((path.name, kind, blob[:60], code, err))
        path.write_bytes(original)
    assert not failed, failed


def deep_match_argv(ds, ckpt, out, ref=None):
    return [
        "match", "--method", "deep",
        "--ref", str(ref or ds / "reference.spd1"), "--query", str(ds / "query.spd1"),
        "--query-positions", str(ds / "query_positions.txt"),
        "--checkpoint", str(ckpt), "--out", str(out),
    ]


def test_match_deep_checks_the_reference_against_the_checkpoint(capsys, tmp_path):
    ds = synth_dataset(capsys, tmp_path)
    ckpt = tmp_path / "model.spm1"
    assert run(capsys, *train_args(ds, ckpt, tmp_path / "curves.csv", epochs=0, hidden=8))[0] == 0
    out = tmp_path / "m.csv"
    code, _, err = run(capsys, *deep_match_argv(ds, ckpt, out, ref=tmp_path / "missing.spd1"))
    assert code == 2 and "missing.spd1" in err

    # a checkpoint trained on 40 frames of dim 8 fits neither of these references
    for name, flags in (("longer", {"frames": "50"}), ("wider", {"dim": "12"})):
        other = synth_dataset(capsys, tmp_path, name, **flags)
        code, _, err = run(
            capsys, *deep_match_argv(ds, ckpt, out, ref=other / "reference.spd1")
        )
        assert code == 3
        assert f"{ckpt} against {other / 'reference.spd1'}: " in err
        assert "checkpoint has 40 places of descriptor dim 8" in err
        frames, dim = flags.get("frames", "40"), flags.get("dim", "8")
        assert f"reference has {frames} frames of dim {dim}" in err
    assert not out.exists()


def test_match_gives_the_one_thread_bytes_at_two_blas_threads(capsys, tmp_path):
    # on this pair every method's CSV differed between 1 and 2 BLAS threads
    # while the deploys ran at the caller's count; each deploy now pins
    # OpenBLAS to one thread, so a 2-thread process writes the 1-thread bytes
    ds = synth_dataset(capsys, tmp_path, frames=500, dim=512, smoothness=0.5, noise=0.3, seed=1)
    ckpt = tmp_path / "model.spm1"
    assert run(capsys, *train_args(ds, ckpt, tmp_path / "curves.csv", epochs=0, hidden=32))[0] == 0
    pair = ["--ref", str(ds / "reference.spd1"), "--query", str(ds / "query.spd1")]
    src = str(Path(cli.__file__).resolve().parents[1])
    script = ("import json, sys\nfrom seqplace.cli import main\n"
              "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))")
    written = {}
    for threads in ("1", "2"):
        outs = {method: tmp_path / f"{method}-{threads}.csv"
                for method in ("seqslam", "delta", "deep")}
        argvs = [["match", "--method", method, "--ds", "2", *pair, "--out", str(outs[method])]
                 for method in ("seqslam", "delta")]
        argvs.append(deep_match_argv(ds, ckpt, outs["deep"]))
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)], env=env,
                              capture_output=True, text=True, check=False)
        assert proc.returncode == 0, proc.stderr
        written[threads] = {method: path.read_bytes() for method, path in outs.items()}
    for method, one in written["1"].items():
        assert written["2"][method] == one, method


def test_train_and_a_deep_sweep_give_the_one_thread_bytes_at_two_blas_threads(capsys, tmp_path):
    # W_x is 1024 x 1024, the size from which train shares its GEMMs with a
    # helper thread. While train ran at the caller's count, this pair's
    # checkpoint and curves differed between 1 and 2 BLAS threads; train now
    # pins one thread and cuts GEMMs only at column seams
    ds = synth_dataset(capsys, tmp_path, frames=300, dim=1022, smoothness=0.5, noise=0.3, seed=1)
    src = str(Path(cli.__file__).resolve().parents[1])
    script = ("import json, sys\nfrom seqplace.cli import main\n"
              "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))")
    pair = ["--ref", str(ds / "reference.spd1"), "--query", str(ds / "query.spd1"),
            "--ref-positions", str(ds / "reference_positions.txt"),
            "--query-positions", str(ds / "query_positions.txt")]
    written = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        deep = {"epochs": "3", "hidden": "256", "lr": "0.1"}
        argvs = [train_args(ds, out / "model.spm1", out / "curves.csv", **deep),
                 ["sweep", *pair, "--methods", "deep", "--ds-values", "2", "--out",
                  str(out / "sweep.csv"), *(f for k, v in deep.items() for f in (f"--{k}", v))]]
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)], env=env,
                              capture_output=True, text=True, check=False)
        assert proc.returncode == 0, proc.stderr
        curves = neural.load_curves_csv(out / "curves.csv")
        written[threads] = ((out / "model.spm1").read_bytes(), curves.losses,
                            curves.accuracies, (out / "sweep.csv").read_bytes())
    for name, one, two in zip(("checkpoint", "losses", "accuracies", "sweep"), *written.values()):
        assert two == one, name


def test_match_deep_refuses_a_bad_checkpoint_header(capsys, tmp_path):
    ds = synth_dataset(capsys, tmp_path)
    ckpt = tmp_path / "model.spm1"
    assert run(capsys, *train_args(ds, ckpt, tmp_path / "curves.csv", epochs=0, hidden=8))[0] == 0
    blob = ckpt.read_bytes()
    out = tmp_path / "m.csv"
    for d_s, message in ((5000, "window of d_s=5000 frames is longer than the route's 40 places"),
                         (0, "implausible SPM1 header (10, 8, 40, 0)")):
        ckpt.write_bytes(blob[:16] + np.array([d_s], dtype="<u4").tobytes() + blob[20:])
        code, _, err = run(capsys, *deep_match_argv(ds, ckpt, out))
        assert code == 3
        assert f"{ckpt}: {message}" in err
    assert not out.exists()


def test_match_deep_reads_only_the_reference_header(capsys, tmp_path):
    ds = synth_dataset(capsys, tmp_path)
    ckpt = tmp_path / "model.spm1"
    assert run(capsys, *train_args(ds, ckpt, tmp_path / "curves.csv", epochs=0, hidden=8))[0] == 0
    out, again = tmp_path / "m.csv", tmp_path / "again.csv"
    assert run(capsys, *deep_match_argv(ds, ckpt, out))[0] == 0
    whole = (ds / "reference.spd1").read_bytes()
    ref = tmp_path / "ref.spd1"
    # payload values are not read: a NaN in it leaves the matches as they were
    ref.write_bytes(whole[:16] + np.array([np.nan], dtype="<f4").tobytes() + whole[20:])
    code, _, err = run(capsys, *deep_match_argv(ds, ckpt, again, ref=ref))
    assert code == 0, err
    assert again.read_bytes() == out.read_bytes()
    # the file's size is still checked against its header
    for blob in (whole[:-4], whole + b"\0"):
        ref.write_bytes(blob)
        code, _, err = run(capsys, *deep_match_argv(ds, ckpt, again, ref=ref))
        assert code == 3
        assert f"payload size {len(blob) - 16} != {len(whole) - 16}" in err


@pytest.mark.parametrize("method", ["seqslam", "delta", "deep"])
def test_match_ds_below_one_is_a_usage_error(capsys, tmp_path, method):
    ds = synth_dataset(capsys, tmp_path)
    ckpt = tmp_path / "model.spm1"
    assert run(capsys, *train_args(ds, ckpt, tmp_path / "curves.csv", epochs=0, hidden=8))[0] == 0
    argv = deep_match_argv(ds, ckpt, tmp_path / "m.csv")
    argv[2] = method
    code, _, err = run(capsys, *argv, "--ds", "0")
    assert code == 2 and "--ds must be >= 1" in err


def test_match_deep_refuses_a_ds_longer_than_the_checkpoint_route(capsys, tmp_path):
    ds = synth_dataset(capsys, tmp_path)
    ckpt = tmp_path / "model.spm1"
    assert run(capsys, *train_args(ds, ckpt, tmp_path / "curves.csv", epochs=0, hidden=8))[0] == 0
    out = tmp_path / "m.csv"
    code, _, err = run(capsys, *deep_match_argv(ds, ckpt, out), "--ds", "41")
    assert code == 2 and "--ds must be <= the checkpoint's 40 places, got 41" in err
    assert not out.exists()
    assert run(capsys, *deep_match_argv(ds, ckpt, out), "--ds", "40")[0] == 0


def test_match_deep_names_the_offset_of_a_non_finite_weight(capsys, tmp_path):
    ds = synth_dataset(capsys, tmp_path)
    ckpt = tmp_path / "model.spm1"
    assert run(capsys, *train_args(ds, ckpt, tmp_path / "curves.csv", epochs=0, hidden=8))[0] == 0
    blob = bytearray(ckpt.read_bytes())
    offset = len(blob) - 4 * 5  # a head bias
    blob[offset : offset + 4] = np.array([np.nan], dtype="<f4").tobytes()
    ckpt.write_bytes(bytes(blob))
    out = tmp_path / "m.csv"
    code, _, err = run(capsys, *deep_match_argv(ds, ckpt, out))
    assert code == 3
    assert f"{ckpt}: non-finite weight (byte offset {offset})" in err
    assert not out.exists()


def test_match_deep_refuses_non_finite_logits(capsys, tmp_path):
    # finite weights whose logits overflow: gate biases of 20 hold every
    # hidden unit above tanh(1), and a head row of 3e38 scales them past float32
    ds = synth_dataset(capsys, tmp_path)
    ckpt = tmp_path / "model.spm1"
    assert run(capsys, *train_args(ds, ckpt, tmp_path / "curves.csv", epochs=0, hidden=8))[0] == 0
    model = neural.load_checkpoint(ckpt)
    for bias in (model.lstm.b_i, model.lstm.b_g, model.lstm.b_o):
        bias[...] = 20.0
    model.head.w[4] = 3e38
    neural.save_checkpoint(model, ckpt)
    out = tmp_path / "m.csv"
    code, _, err = run(capsys, *deep_match_argv(ds, ckpt, out))
    assert code == 3
    assert "error: non-finite LSTM logits at query frame 0 (40 of frames 0-39)" in err
    assert not out.exists()


@pytest.mark.parametrize("method", ["seqslam", "delta"])
def test_match_takes_a_reference_of_another_length(capsys, tmp_path, method):
    query = synth_dataset(capsys, tmp_path, "query")
    reference = synth_dataset(capsys, tmp_path, "reference", frames=55)
    out = tmp_path / "m.csv"
    code, _, err = run(
        capsys, "match", "--method", method, "--ds", "2",
        "--ref", str(reference / "reference.spd1"), "--query", str(query / "query.spd1"),
        "--out", str(out),
    )
    assert code == 0, err
    report, _ = load_match_csv(out)
    assert report.best_ref.max() < 55


def test_cli_has_no_matcher_pipeline_of_its_own():
    # match, sweep and bench deploy through evaluation's methods; the CLI
    # must neither import nor call the classic matchers' building blocks
    banned = {
        "difference_matrix", "contrast_enhance", "seqslam_search", "delta_match",
        "SeqSlamConfig", "DeltaConfig", "delta_window_for",
    }
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            used.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    assert not used & banned, sorted(used & banned)


def write_match_csv(path, best_ref, scores, ds=2, polarity="higher"):
    with open(path, "w") as fh:
        fh.write(f"# method=test\n# polarity={polarity}\n# ds={ds}\n")
        fh.write("query_index,best_ref,score\n")
        for q, (r, s) in enumerate(zip(best_ref, scores)):
            fh.write(f"{q},{r},{s!r}\n")


def test_eval_perfect_matches(capsys, tmp_path):
    path = tmp_path / "m.csv"
    write_match_csv(path, range(20), [1.0 - 0.01 * i for i in range(20)])
    code, stdout, err = run(capsys, "eval", "--matches", str(path))
    assert code == 0, err
    assert "# delta=12" in stdout  # ds=2 from the CSV comment
    assert "auc,1.0" in stdout

    curve_path = tmp_path / "curve.csv"
    code, stdout, _ = run(
        capsys, "eval", "--matches", str(path), "--ds", "1", "--out-curve", str(curve_path)
    )
    assert code == 0
    assert "# delta=11" in stdout
    assert load_pr_csv(curve_path).auc == 1.0

    code, stdout, _ = run(capsys, "eval", "--matches", str(path), "--delta", "0")
    assert code == 0
    assert "# delta=0" in stdout


def test_eval_ground_truth_and_errors(capsys, tmp_path):
    path = tmp_path / "m.csv"
    write_match_csv(path, [5, 6], [2.0, 1.0], ds=1)
    gt = tmp_path / "gt.csv"
    gt.write_text("0,5\n1,0\n")
    code, stdout, _ = run(
        capsys, "eval", "--matches", str(path), "--delta", "0", "--ground-truth", str(gt)
    )
    assert code == 0
    assert "auc,0.5" in stdout

    no_ds = tmp_path / "no_ds.csv"
    with open(no_ds, "w") as fh:
        fh.write("# polarity=higher\nquery_index,best_ref,score\n0,0,1.0\n")
    assert run(capsys, "eval", "--matches", str(no_ds))[0] == 2

    bad = tmp_path / "bad.csv"
    bad.write_text("# polarity=higher\nquery_index,best_ref,score\n0,0\n")
    code, _, err = run(capsys, "eval", "--matches", str(bad), "--delta", "0")
    assert code == 3
    assert ":3" in err

    assert run(capsys, "eval", "--matches", str(tmp_path / "gone.csv"))[0] == 2


def test_load_match_csv_errors(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("# polarity=higher\n0,1,2.0,9\n")
    with pytest.raises(ValueError, match="expected 3 fields"):
        load_match_csv(path)
    path.write_text("# polarity=higher\n0,one,2.0\n")
    with pytest.raises(ValueError, match="malformed row"):
        load_match_csv(path)
    path.write_text("# polarity=higher\nquery_index,best_ref,score\n")
    with pytest.raises(ValueError, match="no match rows"):
        load_match_csv(path)
    path.write_text("0,1,2.0\n")
    with pytest.raises(ValueError, match="polarity"):
        load_match_csv(path)


def test_eval_refuses_a_non_finite_score(capsys, tmp_path):
    path = tmp_path / "m.csv"
    for bad in (float("nan"), float("inf"), -float("inf")):
        write_match_csv(path, range(6), [0.5, 0.4, bad, 0.2, bad, 0.1])
        code, out, err = run(capsys, "eval", "--matches", str(path))
        assert code == 3 and out == ""
        assert f"{path}:7: non-finite score" in err  # three comments and a header first


def test_eval_names_the_file_of_a_bad_ds_comment_or_repeated_query(capsys, tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("# polarity=higher\n# ds=abc\nquery_index,best_ref,score\n0,0,1.0\n")
    code, _, err = run(capsys, "eval", "--matches", str(path))
    assert code == 3
    assert f"{path}: malformed '# ds=abc' comment" in err
    gt = tmp_path / "gt.csv"
    gt.write_text("0,0\n0,1\n")
    code, _, err = run(capsys, "eval", "--matches", str(path), "--delta", "0", "--ground-truth", str(gt))
    assert code == 3
    assert f"{gt}:2: query index 0 repeats line 1" in err


# a six-row match CSV: three comment lines and a header, then query q on line q + 5
@pytest.mark.parametrize("old, new, truth, code, message", [
    ("# ds=2\n", "# ds=0\n", None, 3, "{csv}: malformed '# ds=0' comment"),
    ("# ds=2\n", "", None, 2, "need --ds or --delta ({csv} lacks a '# ds=' comment)"),
    ("2,2,0.5", "2,-1,0.5", None, 3, "{csv}:7: negative reference index"),
    ("2,2,0.5", "-1,2,0.5", None, 3, "{csv}:7: negative query index"),
    ("", "", "0,0\n", 3, "{gt}: ground truth missing query indices [1, 2, 3, 4, 5]"),
    ("", "", "0,0\n1,-1\n", 3, "{gt}:2: negative reference index"),
    ("", "", "0,0\n-1,1\n", 3, "{gt}:2: negative query index"),
])
def test_eval_names_the_file_of_a_bad_row_ds_comment_or_ground_truth(
        capsys, tmp_path, old, new, truth, code, message):
    csv, gt = tmp_path / "m.csv", tmp_path / "gt.csv"
    write_match_csv(csv, range(6), [0.5] * 6)
    csv.write_text(csv.read_text().replace(old, new))
    argv = ["eval", "--matches", str(csv)]
    if truth is not None:
        gt.write_text(truth)
        argv += ["--ground-truth", str(gt)]
    got, out, err = run(capsys, *argv)
    assert got == code and out == ""
    assert message.format(csv=csv, gt=gt) in err, err


# a config's values outside their domains are cases of
# test_a_numeric_flag_outside_its_domain_is_a_usage_error
@pytest.mark.parametrize("line, message", [
    ("ds = abc", "argument --ds: invalid int value: 'abc'"),
    ("ds = 41", "--ds must be <= the 40 frames of"),
    ("bogus = 1", "match has no flag --bogus that takes a value"),
    ("progress = 1", "match has no flag --progress that takes a value"),
    ("metric = manhattan", "argument --metric: invalid choice: 'manhattan'"),
])
def test_a_refused_config_value_names_its_file_and_line(capsys, tmp_path, line, message):
    ds = synth_dataset(capsys, tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# seqslam\nmethod = seqslam\n{line}\n")
    argv = ["match", "--config", str(cfg), "--ref", str(ds / "reference.spd1"),
            "--query", str(ds / "query.spd1"), "--out", str(tmp_path / "m.csv")]
    code, out, err = run(capsys, *argv, *([] if line.startswith("ds ") else ["--ds", "2"]))
    assert code == (3 if line == "ds = 41" else 2) and out == ""
    assert f"error: {cfg}:3: {message}" in err, err
    assert not (tmp_path / "m.csv").exists()


def test_match_delta_names_a_reference_shorter_than_its_delta_window(capsys, tmp_path):
    # d_s = 3 needs a delta window of 4 frames; delta_match's own refusal of
    # a 3-frame reference named neither the file nor the flag
    ds = synth_dataset(capsys, tmp_path)
    short = tmp_path / "short.spd1"
    save_descriptor_file(DescriptorSequence(load_descriptor_file(ds / "reference.spd1").data[:3]),
                         short)
    out = tmp_path / "m.csv"
    code, _, err = run(capsys, "match", "--method", "delta", "--ds", "3", "--ref", str(short),
                       "--query", str(ds / "query.spd1"), "--out", str(out))
    assert code == 3 and not out.exists()
    assert (f"error: --ds 3 against --ref {short}: the reference has 3 frames, fewer than "
            "the delta window of 4 frames for d_s=3") in err
    cfg = tmp_path / "run.cfg"
    for d_s, code in ((2, 0), (4, 3)):  # a window of 2 fits
        cfg.write_text(f"method = delta\nds = {d_s}\n")
        got, _, err = run(capsys, "match", "--config", str(cfg), "--ref", str(short),
                          "--query", str(ds / "query.spd1"), "--out", str(out))
        assert got == code and out.exists() == (code == 0), err
        out.unlink(missing_ok=True)
    assert f"error: {cfg}:2: --ds 4 against --ref {short}: the reference has 3 frames" in err


def test_match_delta_names_a_query_shorter_than_its_delta_window(capsys, tmp_path):
    # --ds 3 fits a 3-frame query, but its delta window of 4 frames does not;
    # delta_match's own refusal named neither the file nor the flag
    ds = synth_dataset(capsys, tmp_path)
    short = tmp_path / "short.spd1"
    save_descriptor_file(DescriptorSequence(load_descriptor_file(ds / "query.spd1").data[:3]),
                         short)
    out = tmp_path / "m.csv"
    pair = ["--ref", str(ds / "reference.spd1"), "--query", str(short)]
    code, _, err = run(capsys, "match", "--method", "delta", "--ds", "3", *pair, "--out", str(out))
    assert code == 3 and not out.exists()
    assert (f"error: --ds 3 against --query {short}: the query has 3 frames, fewer than "
            "the delta window of 4 frames for d_s=3") in err
    cfg = tmp_path / "run.cfg"
    for d_s, code in ((2, 0), (3, 3)):  # a window of 2 fits
        cfg.write_text(f"method = delta\nds = {d_s}\n")
        got, _, err = run(capsys, "match", "--config", str(cfg), *pair, "--out", str(out))
        assert got == code and out.exists() == (code == 0), err
        out.unlink(missing_ok=True)
    assert f"error: {cfg}:2: --ds 3 against --query {short}: the query has 3 frames" in err


def test_a_config_value_that_a_flag_overrides_is_not_named(capsys, tmp_path):
    ds = synth_dataset(capsys, tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("method = seqslam\nds = 2\nr_win = 3\n")  # a unique prefix, as argparse allows
    argv = ["match", "--config", str(cfg), "--ref", str(ds / "reference.spd1"),
            "--query", str(ds / "query.spd1"), "--out", str(tmp_path / "m.csv")]
    assert run(capsys, *argv)[0] == 0
    code, _, err = run(capsys, *argv, "--ds", "0")
    assert code == 2 and "error: --ds must be >= 1, got 0" in err and str(cfg) not in err
    code, _, err = run(capsys, *argv, "--ds", "abc")
    assert code == 2 and "argument --ds: invalid int value: 'abc'" in err and str(cfg) not in err
    cfg.write_text("ds = 0\n")
    assert run(capsys, *argv, "--method", "seqslam", "--ds", "2")[0] == 0


def test_sweep(capsys, tmp_path):
    ds = synth_dataset(capsys, tmp_path, noise="0.2")
    out = tmp_path / "sweep.csv"
    code, _, err = run(
        capsys, "sweep",
        "--ref", str(ds / "reference.spd1"), "--query", str(ds / "query.spd1"),
        "--ref-positions", str(ds / "reference_positions.txt"),
        "--query-positions", str(ds / "query_positions.txt"),
        "--methods", "seqslam,delta,deep", "--ds-values", "1,2",
        "--epochs", "3", "--hidden", "8",
        "--out", str(out),
    )
    assert code == 0, err
    cells = load_sweep_csv(out)
    assert len(cells) == 6
    assert [(c.method, c.d_s) for c in cells] == [
        ("deep", 1), ("deep", 2), ("delta", 1), ("delta", 2), ("seqslam", 1), ("seqslam", 2),
    ]
    assert all(c.auc is not None for c in cells)

    base = [
        "sweep", "--ref", str(ds / "reference.spd1"), "--query", str(ds / "query.spd1"),
        "--out", str(out),
    ]
    assert run(capsys, *base, "--methods", "deep")[0] == 2  # deep needs positions
    assert run(capsys, *base, "--ds-values", "1,x")[0] == 2
    assert run(capsys, *base, "--methods", " , ")[0] == 2
    assert run(capsys, *base, "--methods", "unknown")[0] == 2


def parity_dataset(capsys, tmp_path):
    """The drifted pair on which match -> eval and sweep are compared."""
    return synth_dataset(capsys, tmp_path, frames=120, dim=16, drift=",".join(["0.3"] * 16))


def scale_reference_rows(ds):
    """Rewrite the reference with rows scaled by U(0.2, 5) and the unit-row flag off."""
    path = ds / "reference.spd1"
    seq = load_descriptor_file(path)
    scale = np.random.default_rng(0).uniform(0.2, 5.0, size=(seq.frame_count, 1))
    save_descriptor_file(DescriptorSequence(data=seq.data * scale, normalized=False), path)


PARITY_DEEP = {"epochs": "20", "hidden": "32", "seed": "0"}


def match_eval_auc(capsys, tmp_path, ds, method, d_s):
    if method == "deep":
        ckpt = tmp_path / "model.spm1"
        curves = tmp_path / "curves.csv"
        code, _, err = run(capsys, *train_args(ds, ckpt, curves, ds=d_s, **PARITY_DEEP))
        assert code == 0, err
        flags = ["--checkpoint", str(ckpt), "--query-positions", str(ds / "query_positions.txt")]
    else:
        flags = ["--ds", str(d_s)]
    matches = tmp_path / "matches.csv"
    code, _, err = run(
        capsys, "match", "--method", method,
        "--ref", str(ds / "reference.spd1"), "--query", str(ds / "query.spd1"),
        *flags, "--out", str(matches),
    )
    assert code == 0, err
    code, stdout, err = run(capsys, "eval", "--matches", str(matches))
    assert code == 0, err
    return float(next(line for line in stdout.splitlines() if line.startswith("auc,"))[4:])


def sweep_auc(capsys, tmp_path, ds, method, d_s):
    out = tmp_path / "sweep.csv"
    code, _, err = run(
        capsys, "sweep",
        "--ref", str(ds / "reference.spd1"), "--query", str(ds / "query.spd1"),
        "--ref-positions", str(ds / "reference_positions.txt"),
        "--query-positions", str(ds / "query_positions.txt"),
        "--methods", method, "--ds-values", str(d_s),
        "--epochs", PARITY_DEEP["epochs"], "--hidden", PARITY_DEEP["hidden"],
        "--seed", PARITY_DEEP["seed"],
        "--out", str(out),
    )
    assert code == 0, err
    [cell] = load_sweep_csv(out)
    return cell.auc


def test_deep_match_eval_and_sweep_report_the_same_auc(capsys, tmp_path):
    ds = parity_dataset(capsys, tmp_path)
    auc = match_eval_auc(capsys, tmp_path, ds, "deep", 2)
    assert sweep_auc(capsys, tmp_path, ds, "deep", 2) == auc


@pytest.mark.parametrize("method", ["seqslam", "delta", "deep"])
def test_match_eval_and_sweep_agree_on_a_row_scaled_reference(capsys, tmp_path, method):
    # every command hands the matchers the descriptor files as stored
    ds = parity_dataset(capsys, tmp_path)
    scale_reference_rows(ds)
    auc = match_eval_auc(capsys, tmp_path, ds, method, 2)
    assert sweep_auc(capsys, tmp_path, ds, method, 2) == auc


def shorten_query(ds, frames):
    """Keep the first frames of the query: query frame q still shows reference frame q."""
    query = load_descriptor_file(ds / "query.spd1")
    save_descriptor_file(DescriptorSequence(data=query.data[:frames]), ds / "query.spd1")
    positions = ds / "query_positions.txt"
    save_positions_file(load_positions_file(positions)[:frames], positions)


@pytest.mark.parametrize("method", ["seqslam", "delta", "deep"])
def test_match_eval_and_sweep_agree_on_a_shorter_query(capsys, tmp_path, method):
    ds = parity_dataset(capsys, tmp_path)
    shorten_query(ds, 100)
    auc = match_eval_auc(capsys, tmp_path, ds, method, 2)
    assert sweep_auc(capsys, tmp_path, ds, method, 2) == auc


def test_bench_deploys_a_shorter_query(capsys, tmp_path):
    ds = synth_dataset(capsys, tmp_path)
    shorten_query(ds, 30)
    for method in ("seqslam", "delta", "deep"):
        code, stdout, err = run(
            capsys, "bench", "--method", method, "--ds", "2", "--reps", "1",
            "--ref", str(ds / "reference.spd1"), "--query", str(ds / "query.spd1"),
            "--ref-positions", str(ds / "reference_positions.txt"),
            "--query-positions", str(ds / "query_positions.txt"),
            "--epochs", "2", "--hidden", "8",
        )
        assert code == 0, err
        assert stdout.strip().split(",")[::2] == [method, "30"]


def test_sweep_rejects_repeated_methods_and_ds_values(capsys, tmp_path):
    ds = synth_dataset(capsys, tmp_path)
    base = [
        "sweep", "--ref", str(ds / "reference.spd1"), "--query", str(ds / "query.spd1"),
        "--out", str(tmp_path / "sweep.csv"),
    ]
    code, _, err = run(capsys, *base, "--methods", "delta,seqslam,delta", "--ds-values", "2")
    assert code == 2 and "--methods repeats delta" in err
    code, _, err = run(capsys, *base, "--methods", "delta", "--ds-values", "2,4,2")
    assert code == 2 and "--ds-values repeats 2" in err
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_refuses_a_query_name_its_csv_cannot_hold(capsys, tmp_path, monkeypatch):
    # the query's name is its file name, and a comma in it would split the
    # sweep CSV's query_name field: refused before a cell runs
    ds = synth_dataset(capsys, tmp_path)
    cells = []
    monkeypatch.setattr(cli, "ds_sweep", lambda *args: cells.append(args) or [])
    out = tmp_path / "sweep.csv"
    for name in ("win,ter", "win\nter"):
        query = ds / f"{name}.spd1"
        query.write_bytes((ds / "query.spd1").read_bytes())
        code, _, err = run(capsys, "sweep", "--ref", str(ds / "reference.spd1"), "--query",
                           str(query), "--methods", "seqslam", "--ds-values", "2", "--out", str(out))
        assert code == 2
        assert f"query name {name!r} of {query} holds a comma or a line break" in err
    assert not cells and not out.exists()


def test_sweep_and_bench_refuse_a_ds_below_one(capsys, tmp_path):
    ds = synth_dataset(capsys, tmp_path)
    pair = ["--ref", str(ds / "reference.spd1"), "--query", str(ds / "query.spd1")]
    code, _, err = run(capsys, "sweep", *pair, "--methods", "seqslam", "--ds-values", "0",
                       "--out", str(tmp_path / "sweep.csv"))
    assert code == 2 and "--ds-values needs integers >= 1" in err
    code, _, err = run(capsys, "bench", *pair, "--method", "seqslam", "--ds", "0")
    assert code == 2 and "--ds must be >= 1, got 0" in err
    assert not (tmp_path / "sweep.csv").exists()


def test_bench(capsys, tmp_path):
    ds = synth_dataset(capsys, tmp_path)
    out = tmp_path / "bench.csv"
    code, stdout, err = run(
        capsys, "bench", "--method", "seqslam", "--ds", "2", "--reps", "2",
        "--ref", str(ds / "reference.spd1"), "--query", str(ds / "query.spd1"),
        "--out", str(out),
    )
    assert code == 0, err
    method, seconds, frames = stdout.strip().split(",")
    assert method == "seqslam"
    assert float(seconds) > 0.0
    assert int(frames) == 40
    assert out.read_text().startswith("method,seconds,frames,device\n")
    assert run(
        capsys, "bench", "--method", "seqslam", "--ds", "2", "--reps", "0",
        "--ref", str(ds / "reference.spd1"), "--query", str(ds / "query.spd1"),
    )[0] == 2


def test_bench_out_rows_have_four_fields(capsys, tmp_path):
    ds = synth_dataset(capsys, tmp_path)
    out = tmp_path / "bench.csv"
    code, _, err = run(
        capsys, "bench", "--method", "delta", "--ds", "2", "--reps", "1",
        "--ref", str(ds / "reference.spd1"), "--query", str(ds / "query.spd1"),
        "--out", str(out),
    )
    assert code == 0, err
    rows = out.read_text().splitlines()
    assert len(rows) == 2
    assert [len(row.split(",")) for row in rows] == [4, 4]


def command_argv(ds, out, command):
    """A valid argv of command on the synth pair at ds, writing only into out."""
    pair = ["--ref", str(ds / "reference.spd1"), "--query", str(ds / "query.spd1"),
            "--ref-positions", str(ds / "reference_positions.txt"),
            "--query-positions", str(ds / "query_positions.txt")]
    deep = ["--epochs", "1", "--hidden", "4"]
    out.mkdir(exist_ok=True)
    if command == "train":
        return train_args(ds, out / "c.spm1", out / "v.csv", epochs=1, hidden=4)
    if command == "match":
        return ["match", "--method", "seqslam", *pair[:4], "--ds", "2", "--out", str(out / "m.csv")]
    if command == "eval":
        write_match_csv(ds / "in.csv", range(20), [1.0 - 0.01 * i for i in range(20)])
        return ["eval", "--matches", str(ds / "in.csv"), "--out-curve", str(out / "pr.csv")]
    if command == "sweep":
        return ["sweep", *pair, "--methods", "deep", "--ds-values", "2", *deep,
                "--out", str(out / "s.csv")]
    return ["bench", *pair, "--method", "deep", "--ds", "2", "--reps", "1", *deep,
            "--out", str(out / "b.csv")]


@pytest.mark.parametrize("command, flags, message", [
    ("train", ["--batch", "-1"], "--batch must be >= 1, got -1"),
    ("train", ["--batch", "0"], "--batch must be >= 1, got 0"),
    ("train", ["--hidden", "0"], "--hidden must be >= 1, got 0"),
    ("sweep", ["--lr", "inf"], "--lr must be a finite number > 0, got inf"),
    ("sweep", ["--epochs", "-1"], "--epochs must be >= 0, got -1"),
    ("sweep", ["--hidden", "0"], "--hidden must be >= 1, got 0"),
    ("bench", ["--lr", "-1"], "--lr must be a finite number > 0, got -1.0"),
    ("match", ["--v-max", "inf"], "--v-max must be a finite number > 0, got inf"),
    ("match", ["--v-step", "nan"], "--v-step must be a finite number > 0, got nan"),
    ("match", ["--v-step", "0"], "--v-step must be a finite number > 0, got 0.0"),
    ("match", ["--r-window", "0"], "--r-window must be >= 1, got 0"),
    ("match", ["--v-min", "2"], "--v-min must be <= --v-max, got 2.0 > 1.2"),
    ("eval", ["--ds", "0"], "--ds must be >= 1, got 0"),
    ("eval", ["--delta", "-1"], "--delta must be >= 0, got -1"),
    ("train", ["--config", "batch = 0"], "--batch must be >= 1, got 0"),
    # from 0.8 to 1.2 in steps of 0.4 / 10001: one velocity above the cap
    ("match", ["--v-step", repr(0.4 / 10001)], "has 10002 velocities, more than 10001"),
    ("match", ["--v-step", "5e-324"], "has inf velocities, more than 10001"),
    # a config file's value is named by its FILE:LINE
    ("eval", ["--config", "ds = 0"], "--ds must be >= 1, got 0"),
    ("match", ["--config", "v_max = 0.5"], "--v-min must be <= --v-max, got 0.8 > 0.5"),
    ("match", ["--config", "v_step = 1e-9"], "--v-min, --v-max, --v-step: the velocity grid"),
])
def test_a_numeric_flag_outside_its_domain_is_a_usage_error(capsys, tmp_path, command, flags, message):
    ds = synth_dataset(capsys, tmp_path)
    # the command runs with every other flag as it is
    assert run(capsys, *command_argv(ds, tmp_path / "ok", command))[0] == 0
    flags = list(flags)
    if flags[0] == "--config":  # the flag arrives through a config file
        (tmp_path / "flags.cfg").write_text(flags[1] + "\n")
        flags[1] = str(tmp_path / "flags.cfg")
        message = f"{flags[1]}:1: {message}"
    code, out, err = run(capsys, *command_argv(ds, tmp_path / "bad", command), *flags)
    assert code == 2 and message in err, (code, err)
    assert out == "" and not any((tmp_path / "bad").iterdir())


def test_every_numeric_flag_has_a_domain():
    # synth's and extract's flags are checked by SynthConfig and
    # ThumbnailConfig, and --seed takes any integer
    [subs] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    numeric = {
        action.dest
        for name, parser in subs.choices.items() if name not in ("synth", "extract")
        for action in parser._actions if action.type in (int, float) and action.dest != "seed"
    }
    assert numeric == set(cli._DOMAINS)


@pytest.mark.parametrize("error", [MemoryError, ZeroDivisionError, FloatingPointError])
def test_memory_and_arithmetic_errors_exit_three(capsys, tmp_path, monkeypatch, error):
    ds = synth_dataset(capsys, tmp_path)

    def fail(**kwargs):
        raise error("cannot deploy")

    monkeypatch.setattr(cli, "seqslam_method", fail)
    code, _, err = run(capsys, *command_argv(ds, tmp_path / "out", "match"))
    assert code == 3 and "error: cannot deploy" in err
