"""Command-line pipeline: synth, extract, train, match, eval, sweep, bench.

Every command is flag-driven, optionally seeded by a line-oriented
"key = value" config file (explicit flags win on conflict), and exits 0 on
success, 2 on usage errors, 3 on runtime failures (evaluation.RUN_ERRORS).
Every command runs on one thread of its own, at one BLAS thread inside each
deploy and training run (blas.one_thread), besides their helper threads: two
per delta deploy and per seqslam deploy of matching_classic._WIDE_DIM or
more descriptor dims, one per narrower seqslam deploy, one that takes a deep
deploy's query blocks, and, from neural._SPLIT_ENTRIES W_x entries on, one
per training run.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

import numpy as np

from . import neural
from .dataset import (
    DescriptorSequence,
    MatchReport,
    PositionTrack,
    Traversal,
    _Vetted,
    ascii_lines,
    load_descriptor_file,
    load_positions_file,
    normalize_positions,
    read_descriptor_header,
    read_table,
    refuse_rows,
    save_descriptor_file,
    splits_field,
    write_table,
)
from .descriptors import ThumbnailConfig, read_pgm, thumbnail_descriptor
from .evaluation import (
    RUN_ERRORS,
    delta_method,
    deep_method,
    ds_sweep,
    load_ground_truth,
    pr_curve,
    save_bench_csv,
    save_pr_csv,
    save_sweep_csv,
    seqslam_method,
    benchmark,
    tolerance_for,
    trained_deploy,
)
from .synthetic import SynthConfig, generate, generate_revisit, write_dataset

METHODS = ("seqslam", "delta", "deep")
_SEQSLAM_FLAGS = ("v_min", "v_max", "v_step", "r_window", "metric")
_MATCH_HEADER = "query_index,best_ref,score"
# Domain of each numeric flag but --seed and synth's and extract's (their configs check
# them), which main checks first: an int's least value, or None for a finite float > 0.
_DOMAINS = {"ds": 1, "epochs": 0, "hidden": 1, "batch": 1, "reps": 1, "r_window": 1, "delta": 0,
            "lr": None, "clip": None, "v_min": None, "v_max": None, "v_step": None}


class UsageError(Exception):
    """Bad flags or unusable argument combination; exits with code 2."""


def _require_file(path, what: str) -> str:
    if not os.path.isfile(path):
        raise UsageError(f"{what} not found: {path}")
    return path


def _read_config(path) -> list[tuple[str, str, str]]:
    """(FILE:LINE, key, value) of each "key = value" line of a config file."""
    if not os.path.isfile(path):
        raise UsageError(f"config file not found: {path}")
    settings = []
    for lineno, raw in ascii_lines(path):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise UsageError(f"{path}:{lineno}: expected key = value")
        settings.append((f"{path}:{lineno}", key.strip(), value.strip()))
    return settings


def _apply_config(parser, argv: list[str]) -> tuple[list[str], dict[str, tuple[object, str]]]:
    """Take --config FILE out of argv and make each of its settings a default
    of the command's flag, so an explicit flag wins. Returns argv and, by
    destination, each setting's value and FILE:LINE. A key that names none of
    the command's flags (or, as argparse allows, a unique prefix of one), or a
    value the flag refuses, raises UsageError naming FILE:LINE."""
    out = list(argv)
    for i, tok in enumerate(out):
        if tok == "--config":
            if i + 1 >= len(out):
                raise UsageError("--config needs a file argument")
            path = out[i + 1]
            del out[i : i + 2]
            break
        if tok.startswith("--config="):
            path = tok.split("=", 1)[1]
            del out[i : i + 1]
            break
    else:
        return out, {}
    settings = _read_config(path)
    [commands] = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    command = commands.get(out[0]) if out else None
    if command is None:  # argparse names the missing or unknown command
        return out, {}
    options, applied = command._option_string_actions, {}
    for where, key, text in settings:
        flag = "--" + key.replace("_", "-")
        names = [flag] if flag in options else [name for name in options if name.startswith(flag)]
        if len(names) != 1 or options[names[0]].nargs == 0:
            raise UsageError(f"{where}: {out[0]} has no flag {flag} that takes a value")
        action = options[names[0]]
        try:
            value = text if action.type is None else action.type(text)
        except ValueError:
            raise UsageError(f"{where}: argument {names[0]}: invalid "
                             f"{action.type.__name__} value: {text!r}") from None
        if action.choices is not None and value not in action.choices:
            raise UsageError(f"{where}: argument {names[0]}: invalid choice: {text!r} "
                             f"(choose from {', '.join(action.choices)})")
        action.required = False
        command.set_defaults(**{action.dest: value})
        applied[action.dest] = (value, where)
    return out, applied


def _locate(message: str, located: dict[str, str]) -> str:
    """message, prefixed with the FILE:LINE of the config setting in effect
    for the first flag it names that has one."""
    for flag in re.findall(r"--[a-z][a-z-]*", message):
        where = located.get(flag[2:].replace("-", "_"))
        if where is not None:
            return f"{where}: {message}"
    return message


def _parse_drift(text: str | None) -> tuple[float, ...] | None:
    if text is None or text == "" or text.lower() == "none":
        return None
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"--drift expects comma-separated numbers, got {text!r}") from None


def _load_traversal(desc_path, pos_path=None) -> Traversal:
    seq = load_descriptor_file(_require_file(desc_path, "descriptor file"))
    if pos_path is not None:
        raw = load_positions_file(_require_file(pos_path, "positions file"))
        if raw.shape[0] != seq.frame_count:
            raise UsageError(
                f"{pos_path} has {raw.shape[0]} rows but {desc_path} has "
                f"{seq.frame_count} frames"
            )
        track = normalize_positions(raw)
    else:
        track = PositionTrack(np.zeros((seq.frame_count, 2)))
    name = os.path.splitext(os.path.basename(desc_path))[0]
    return Traversal(name=name, descriptors=seq, positions=track)


def cmd_synth(args) -> int:
    try:
        cfg = SynthConfig(
            frames=args.frames,
            dim=args.dim,
            smoothness=args.smoothness,
            condition_noise=args.noise,
            drift=_parse_drift(args.drift),
            path=args.path,
            seed=args.seed,
        )
        if args.revisit_at is None:
            pair = generate(cfg)
        else:
            pair = generate_revisit(cfg, args.revisit_at, args.revisit_len)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    manifest = write_dataset(pair, args.out, cfg)
    print(manifest)
    return 0


def cmd_extract(args) -> int:
    if not os.path.isdir(args.images):
        raise UsageError(f"image directory not found: {args.images}")
    names = sorted(n for n in os.listdir(args.images) if n.lower().endswith(".pgm"))
    if not names:
        raise UsageError(f"no .pgm images in {args.images}")
    try:
        cfg = ThumbnailConfig(width=args.width, height=args.height, patch_size=args.patch)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    rows = []
    for fname in names:
        path = os.path.join(args.images, fname)
        try:
            image = read_pgm(path)
            rows.append(thumbnail_descriptor(image, cfg))
        except (ValueError, OSError) as exc:
            raise RuntimeError(f"{path}: {exc}") from None
        used = (image.shape[0] // cfg.height * cfg.height, image.shape[1] // cfg.width * cfg.width)
        if image.shape != used:
            print(
                f"warning: cropping {fname} from {image.shape[0]}x{image.shape[1]} "
                f"to {used[0]}x{used[1]}",
                file=sys.stderr,
            )
    seq = DescriptorSequence(data=np.stack(rows), normalized=False)
    save_descriptor_file(seq, args.out)
    print(args.out)
    return 0


def _print_epoch(epoch: int, epochs: int, loss: float, accuracy: float, seconds: float) -> None:
    print(f"train: epoch {epoch + 1}/{epochs} loss {loss:.6f} accuracy {accuracy:.4f} "
          f"seconds {seconds:.2f}", file=sys.stderr, flush=True)


def _check_domains(args) -> None:
    for key, least in _DOMAINS.items():
        value, flag = getattr(args, key, None), "--" + key.replace("_", "-")
        if value is not None and least is None and not (np.isfinite(value) and value > 0.0):
            raise UsageError(f"{flag} must be a finite number > 0, got {value}")
        if value is not None and least is not None and value < least:
            raise UsageError(f"{flag} must be >= {least}, got {value}")
    if getattr(args, "v_min", 0.0) > getattr(args, "v_max", 0.0):
        raise UsageError(f"--v-min must be <= --v-max, got {args.v_min} > {args.v_max}")
    if hasattr(args, "v_step"):  # match's seqslam flags may give a grid too fine to search
        try:
            seqslam_method(**{k: v for k, v in vars(args).items() if k in _SEQSLAM_FLAGS})
        except ValueError as exc:
            raise UsageError(f"--v-min, --v-max, --v-step: {exc}") from None


def cmd_train(args) -> int:
    reference = _load_traversal(args.ref, args.ref_positions)
    model, curves = neural.train(
        reference,
        d_s=args.ds,
        epochs=args.epochs,
        lr=args.lr,
        rng_seed=args.seed,
        hidden=args.hidden,
        batch_size=args.batch,
        clip_norm=args.clip,
        progress=_print_epoch if args.progress else None,
    )
    neural.save_checkpoint(model, args.out_checkpoint)
    neural.save_curves_csv(curves, args.out_curves)
    print(args.out_checkpoint)
    print(args.out_curves)
    return 0


def cmd_match(args) -> int:
    if args.method == "delta" and args.export_matrix is not None:
        raise UsageError("method delta has no matrix to export")
    model = None
    if args.method == "deep":
        if args.checkpoint is None:
            raise UsageError("deep matching needs --checkpoint")
        if args.query_positions is None:
            raise UsageError("deep matching needs --query-positions")
        model = neural.load_checkpoint(_require_file(args.checkpoint, "checkpoint"))
    elif args.ds is None:
        raise UsageError(f"--ds is required for method {args.method}")
    d_s = args.ds if args.ds is not None else model.d_s
    if model is not None and d_s > model.places:  # no training window is that long
        if args.ds is not None:
            raise UsageError(f"--ds must be <= the checkpoint's {model.places} places, got {d_s}")
        raise ValueError(f"{args.checkpoint}: window of d_s={model.d_s} frames is longer "
                         f"than the route's {model.places} places")
    if args.method == "deep":
        # the LSTM needs only the reference's frame count and dim: its header
        frames, dim = read_descriptor_header(_require_file(args.ref, "descriptor file"))
        query = _load_traversal(args.query, args.query_positions)
        if query.descriptors.dim != model.n:
            raise ValueError(f"--query {args.query} has descriptor dim {query.descriptors.dim} "
                             f"but --checkpoint {args.checkpoint} has {model.n}")
        try:
            deploy = trained_deploy(model, frames, dim, d_s)
        except ValueError as exc:  # the model and the reference do not fit
            raise ValueError(f"{args.checkpoint} against {args.ref}: {exc}") from None
    else:
        reference, query = _load_pair(args)
        [method] = _build_methods([args.method], args)
        _check_ds(args, method, d_s, reference, query)
        deploy, frames = method.prepare(reference, d_s), reference.frame_count
    if args.export_matrix is None:
        report = deploy(query)
    else:  # the deploy fills the matrix in the float32 that SPD1 stores
        out = np.empty((query.frame_count, frames), dtype=np.float32)
        report = deploy(query, out)
        # finite: probabilities, or window z-scores of finite distances
        save_descriptor_file(DescriptorSequence(_Vetted(out)), args.export_matrix)
    polarity = "higher" if report.higher_is_better else "lower"
    rows = zip(report.query_indices, report.best_ref, report.scores)
    meta = (("method", args.method), ("polarity", polarity), ("ds", d_s))
    write_table(args.out, _MATCH_HEADER, rows, meta)
    print(args.out)
    return 0


def load_match_csv(path) -> tuple[MatchReport, dict[str, str]]:
    """Read a match CSV; raises ValueError with a line number on bad rows."""
    (queries, best, scores), meta, lines = read_table(path, _MATCH_HEADER, (int, int, float))
    if not lines:
        raise ValueError(f"{path}: no match rows")
    refuse_rows(path, lines, ((queries < 0, "negative query index"),
                              (best < 0, "negative reference index"),
                              (~np.isfinite(scores), "non-finite score")))
    polarity = meta.get("polarity")
    if polarity not in ("higher", "lower"):
        raise ValueError(f"{path}: missing or invalid '# polarity=' comment")
    return MatchReport(queries, best, scores, higher_is_better=(polarity == "higher")), meta


def cmd_eval(args) -> int:
    report, meta = load_match_csv(_require_file(args.matches, "match CSV"))
    if args.delta is not None:
        delta = args.delta
    elif args.ds is not None:
        delta = tolerance_for(args.ds)
    elif "ds" not in meta:
        raise UsageError(f"need --ds or --delta ({args.matches} lacks a '# ds=' comment)")
    elif not meta["ds"].isdigit() or int(meta["ds"]) < 1:
        raise ValueError(f"{args.matches}: malformed '# ds={meta['ds']}' comment")
    else:
        delta = tolerance_for(int(meta["ds"]))
    truth = None
    if args.ground_truth is not None:
        truth = load_ground_truth(_require_file(args.ground_truth, "ground-truth file"))
    try:
        curve = pr_curve(report, delta, truth)
    except ValueError as exc:  # with delta >= 0, a query index the ground truth lacks
        raise ValueError(f"{args.ground_truth}: {exc}") from None
    print(f"# delta={delta}")
    print(f"auc,{curve.auc!r}")
    if args.out_curve is not None:
        save_pr_csv(curve, args.out_curve, delta=delta)
    return 0


def _build_methods(names: list[str], args):
    """The named methods; match adds its seqslam flags."""
    built = []
    for name in names:
        if name == "seqslam":
            flags = {k: v for k, v in vars(args).items() if k in _SEQSLAM_FLAGS}
            built.append(seqslam_method(**flags))
        elif name == "delta":
            built.append(delta_method())
        elif name == "deep":
            built.append(
                deep_method(epochs=args.epochs, lr=args.lr, hidden=args.hidden, seed=args.seed)
            )
        else:
            raise UsageError(f"unknown method {name!r} (choose from {', '.join(METHODS)})")
    return built


def _load_pair(args, need_positions: bool = False) -> tuple[Traversal, Traversal]:
    """Reference and query, descriptors as stored; positions when given, else
    zeros. A ValueError if their descriptor dims differ, before any method runs."""
    if need_positions and (args.ref_positions is None or args.query_positions is None):
        raise UsageError("deep method needs --ref-positions and --query-positions")
    reference = _load_traversal(args.ref, args.ref_positions)
    query = _load_traversal(args.query, args.query_positions)
    if query.descriptors.dim != reference.descriptors.dim:
        raise ValueError(f"--ref {args.ref} has descriptor dim {reference.descriptors.dim} "
                         f"but --query {args.query} has {query.descriptors.dim}")
    return reference, query


def _check_ds(args, method, d_s: int, reference: Traversal, query: Traversal) -> None:
    """Refuse, naming --ds and the file, a query or reference shorter than
    method's window at d_s: before method.prepare, where a deep method trains."""
    if d_s > query.frame_count:  # no window of the query is that long
        raise ValueError(f"--ds must be <= the {query.frame_count} frames of {args.query}, "
                         f"got {d_s}")
    window = method.window(d_s)  # delta's is d_s rounded up to even
    for flag, path, side, traversal in (("--query", args.query, "query", query),
                                        ("--ref", args.ref, "reference", reference)):
        if window > traversal.frame_count:
            raise ValueError(f"--ds {d_s} against {flag} {path}: the {side} has "
                             f"{traversal.frame_count} frames, fewer than the {method.name} "
                             f"window of {window} frames for d_s={d_s}")


def cmd_sweep(args) -> int:
    names = [n.strip() for n in args.methods.split(",") if n.strip()]
    if not names:
        raise UsageError("--methods must name at least one method")
    try:
        ds_values = [int(v) for v in args.ds_values.split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"--ds-values expects comma-separated integers, got {args.ds_values!r}") from None
    if not ds_values or min(ds_values) < 1:
        raise UsageError("--ds-values needs integers >= 1")
    for flag, values in (("--methods", names), ("--ds-values", ds_values)):
        repeated = sorted({v for v in values if values.count(v) > 1})
        if repeated:
            raise UsageError(f"{flag} repeats {', '.join(map(str, repeated))}")
    pair = _load_pair(args, need_positions="deep" in names)
    if splits_field(pair[1].name):  # checked before a deep cell trains for hours
        raise UsageError(f"query name {pair[1].name!r} of {args.query} holds a comma or a "
                         "line break, which the sweep CSV cannot hold")
    cells = ds_sweep(_build_methods(names, args), ds_values, [pair])
    save_sweep_csv(cells, args.out)
    print(args.out)
    return 0


def cmd_bench(args) -> int:
    reference, query = _load_pair(args, need_positions=(args.method == "deep"))
    [method] = _build_methods([args.method], args)
    _check_ds(args, method, args.ds, reference, query)
    result = benchmark(method, (reference, query), args.ds, repetitions=args.reps)
    print(f"{result.method},{result.seconds!r},{result.frames}")
    if args.out is not None:
        save_bench_csv([result], args.out)
    return 0


def _add_deep_flags(sub) -> None:
    sub.add_argument("--epochs", type=int, default=100)
    sub.add_argument("--lr", type=float, default=0.01)
    sub.add_argument("--hidden", type=int, default=512)
    sub.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqplace",
        description="sequence-based visual place recognition toolkit",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("synth", help="generate a synthetic reference/query pair")
    p.add_argument("--frames", type=int, default=500)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--smoothness", type=float, default=0.9)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--drift", default=None)
    p.add_argument("--path", choices=("loop", "line"), default="loop")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--revisit-at", type=int, default=None)
    p.add_argument("--revisit-len", type=int, default=10)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = subs.add_parser("extract", help="thumbnail descriptors from PGM images")
    p.add_argument("--images", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--height", type=int, default=32)
    p.add_argument("--patch", type=int, default=8)
    p.set_defaults(func=cmd_extract)

    p = subs.add_parser("train", help="train the sequence matcher")
    p.add_argument("--ref", required=True)
    p.add_argument("--ref-positions", required=True)
    p.add_argument("--ds", type=int, required=True)
    p.add_argument("--epochs", type=int, required=True)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--hidden", type=int, default=512)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--clip", type=float, default=None)
    p.add_argument("--progress", action="store_true",
                   help="print each epoch's loss, accuracy and seconds to stderr")
    p.add_argument("--out-checkpoint", required=True)
    p.add_argument("--out-curves", required=True)
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("match", help="match a query traversal against a reference")
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--ds", type=int, default=None)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--query-positions", default=None)
    p.add_argument("--metric", choices=("cosine", "euclidean"), default="cosine")
    p.add_argument("--v-min", type=float, default=0.8)
    p.add_argument("--v-max", type=float, default=1.2)
    p.add_argument("--v-step", type=float, default=0.04)
    p.add_argument("--r-window", type=int, default=10)
    p.add_argument("--export-matrix", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_match, ref_positions=None)  # match never reads reference positions

    p = subs.add_parser("eval", help="precision-recall and AUC from a match CSV")
    p.add_argument("--matches", required=True)
    p.add_argument("--ds", type=int, default=None)
    p.add_argument("--delta", type=int, default=None)
    p.add_argument("--ground-truth", default=None)
    p.add_argument("--out-curve", default=None)
    p.set_defaults(func=cmd_eval)

    p = subs.add_parser("sweep", help="AUC table over methods and sequence lengths")
    p.add_argument("--ref", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--ref-positions", default=None)
    p.add_argument("--query-positions", default=None)
    p.add_argument("--methods", default="seqslam,delta,deep")
    p.add_argument("--ds-values", default="1,2,4")
    _add_deep_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = subs.add_parser("bench", help="deployment wall time for one method")
    p.add_argument("--ref", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--ref-positions", default=None)
    p.add_argument("--query-positions", default=None)
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--ds", type=int, required=True)
    p.add_argument("--reps", type=int, default=3)
    _add_deep_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv, applied = _apply_config(parser, argv)
    except (UsageError, ValueError) as exc:  # ValueError: a config byte outside ASCII
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # the config settings that no explicit flag overrode
    located = {dest: where for dest, (value, where) in applied.items()
               if getattr(args, dest) is value}
    try:
        _check_domains(args)
        return int(args.func(args) or 0)
    except UsageError as exc:
        print(f"error: {_locate(str(exc), located)}", file=sys.stderr)
        return 2
    except RUN_ERRORS as exc:
        print(f"error: {_locate(str(exc), located)}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
