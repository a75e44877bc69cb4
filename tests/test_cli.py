import argparse
import ast
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
from seqplace.evaluation import load_pr_csv, load_sweep_csv


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
        assert "checkpoint has 40 places of descriptor dim 8" in err
        frames, dim = flags.get("frames", "40"), flags.get("dim", "8")
        assert f"reference has {frames} frames of dim {dim}" in err
    assert not out.exists()


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
])
def test_a_numeric_flag_outside_its_domain_is_a_usage_error(capsys, tmp_path, command, flags, message):
    ds = synth_dataset(capsys, tmp_path)
    # the command runs with every other flag as it is
    assert run(capsys, *command_argv(ds, tmp_path / "ok", command))[0] == 0
    flags = list(flags)
    if flags[0] == "--config":  # the flag arrives through a config file
        (tmp_path / "flags.cfg").write_text(flags[1] + "\n")
        flags[1] = str(tmp_path / "flags.cfg")
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
