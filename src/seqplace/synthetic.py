"""Deterministic synthetic traversal pairs with controllable difficulty.

Reference descriptors follow a first-order autoregressive walk whose
smoothness knob sets how much a frame's neighbors help disambiguate it;
the query is the same route under per-dimension Gaussian condition noise
and an optional constant drift vector. Ground truth is identity: query
frame q corresponds to reference frame q.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .dataset import (
    DescriptorSequence,
    PositionTrack,
    Traversal,
    normalize_positions,
    save_descriptor_file,
    save_positions_file,
)
from .descriptors import unit_rows
from .rng import ALGORITHM_ID, RandomStream

PATH_KINDS = ("loop", "line")


@dataclass(frozen=True)
class SynthConfig:
    frames: int = 500
    dim: int = 64
    smoothness: float = 0.9
    condition_noise: float = 0.0
    drift: tuple[float, ...] | None = None
    path: str = "loop"
    seed: int = 0

    def __post_init__(self):
        if self.frames < 2:
            raise ValueError(f"frames must be >= 2, got {self.frames}")
        if self.dim < 2:
            raise ValueError(f"dim must be >= 2, got {self.dim}")
        if not 0.0 <= self.smoothness < 1.0:
            raise ValueError(f"smoothness must lie in [0, 1), got {self.smoothness}")
        if self.condition_noise < 0.0:
            raise ValueError("condition_noise must be >= 0")
        if self.path not in PATH_KINDS:
            raise ValueError(f"path must be one of {PATH_KINDS}, got {self.path!r}")
        if self.drift is not None:
            vec = tuple(float(v) for v in self.drift)
            if len(vec) != self.dim:
                raise ValueError(f"drift needs {self.dim} components, got {len(vec)}")
            if not np.isfinite(vec).all():
                raise ValueError("drift contains non-finite values")
            object.__setattr__(self, "drift", vec)


@dataclass(frozen=True)
class SynthPair:
    """Pre-aligned reference/query traversals (identity ground truth)."""

    reference: Traversal
    query: Traversal

    def __post_init__(self):
        if self.reference.frame_count != self.query.frame_count:
            raise ValueError("reference and query must have equal frame counts")

    def __iter__(self):  # unpacks as the (reference, query) pair ds_sweep and benchmark take
        return iter((self.reference, self.query))


def _walk(rng: RandomStream, cfg: SynthConfig) -> np.ndarray:
    """AR(1) descriptor walk, rows L2-normalized, float64."""
    eps = rng.normal(cfg.frames * cfg.dim).reshape(cfg.frames, cfg.dim)
    walk = np.empty_like(eps)
    walk[0] = eps[0]
    fade = np.sqrt(1.0 - cfg.smoothness**2)
    for t in range(1, cfg.frames):
        walk[t] = cfg.smoothness * walk[t - 1] + fade * eps[t]
    rows, _ = unit_rows(walk)
    return rows


def _path_positions(cfg: SynthConfig) -> PositionTrack:
    t = np.arange(cfg.frames, dtype=np.float64)
    if cfg.path == "loop":
        theta = 2.0 * np.pi * t / cfg.frames
        raw = np.column_stack([np.cos(theta), np.sin(theta)])
    else:
        raw = np.column_stack([t, np.zeros_like(t)])
    return normalize_positions(raw)


def _compose_query(rng: RandomStream, reference_rows: np.ndarray, cfg: SynthConfig) -> DescriptorSequence:
    if cfg.condition_noise == 0.0 and cfg.drift is None:
        return DescriptorSequence(data=reference_rows, normalized=True)
    rows = reference_rows
    normalized = True
    if cfg.condition_noise > 0.0:
        noise = rng.normal(rows.size).reshape(rows.shape)
        rows, normalized = unit_rows(rows + cfg.condition_noise * noise)
    if cfg.drift is not None:
        # the drift survives as an exact constant offset only if rows are
        # not rescaled afterwards, so the normalized flag is dropped here
        rows = rows + np.asarray(cfg.drift)
        normalized = False
    return DescriptorSequence(data=rows, normalized=normalized)


def _build_pair(cfg: SynthConfig, reference_rows: np.ndarray, rng: RandomStream) -> SynthPair:
    positions = _path_positions(cfg)
    query_desc = _compose_query(rng, reference_rows, cfg)
    tag = f"synth-s{cfg.seed}"
    reference = Traversal(
        name=f"{tag}-ref",
        descriptors=DescriptorSequence(data=reference_rows, normalized=True),
        positions=positions,
    )
    query = Traversal(name=f"{tag}-query", descriptors=query_desc, positions=positions)
    return SynthPair(reference=reference, query=query)


def generate(cfg: SynthConfig) -> SynthPair:
    """Seed-determined pair; noiseless configs yield a bit-identical query."""
    rng = RandomStream(cfg.seed)
    return _build_pair(cfg, _walk(rng, cfg), rng)


def generate_revisit(cfg: SynthConfig, revisit_at: int, segment_length: int = 10) -> SynthPair:
    """Pair whose route passes two visually aliased segments.

    Descriptor rows [revisit_at, revisit_at + segment_length) are replaced
    by near-copies (plus 1e-3 noise) of rows [0, segment_length), while
    positions keep moving along the path, so appearance alone cannot tell
    the two segments apart. segment_length=0 degenerates to generate(cfg).
    """
    if segment_length < 0:
        raise ValueError("segment_length must be >= 0")
    if revisit_at < 0 or revisit_at + segment_length > cfg.frames:
        raise ValueError(
            f"segment [{revisit_at}, {revisit_at + segment_length}) "
            f"does not fit in {cfg.frames} frames"
        )
    if segment_length > 0 and revisit_at < segment_length:
        raise ValueError("revisited segment overlaps its source at the route start")
    rng = RandomStream(cfg.seed)
    rows = _walk(rng, cfg)
    if segment_length > 0:
        noise = rng.normal(segment_length * cfg.dim).reshape(segment_length, cfg.dim)
        copied = rows[:segment_length] + 1e-3 * noise
        rows[revisit_at : revisit_at + segment_length], _ = unit_rows(copied)
    return _build_pair(cfg, rows, rng)


def _format_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, tuple):
        return ",".join(repr(float(v)) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_dataset(pair: SynthPair, directory, cfg: SynthConfig) -> str:
    """Write the standard layout; returns the manifest path.

    Layout: reference.spd1, query.spd1, reference_positions.txt,
    query_positions.txt, and manifest.txt recording the full config plus
    the PRNG algorithm identifier.
    """
    os.makedirs(directory, exist_ok=True)
    for side, traversal in zip(("reference", "query"), pair):
        save_descriptor_file(traversal.descriptors, os.path.join(directory, f"{side}.spd1"))
        save_positions_file(traversal.positions.data, os.path.join(directory, f"{side}_positions.txt"))
    manifest = os.path.join(directory, "manifest.txt")
    entries = [
        ("frames", cfg.frames),
        ("dim", cfg.dim),
        ("smoothness", cfg.smoothness),
        ("condition_noise", cfg.condition_noise),
        ("drift", cfg.drift),
        ("path", cfg.path),
        ("seed", cfg.seed),
        ("prng", ALGORITHM_ID),
        ("reference", "reference.spd1"),
        ("query", "query.spd1"),
        ("reference_positions", "reference_positions.txt"),
        ("query_positions", "query_positions.txt"),
    ]
    with open(manifest, "w", encoding="ascii") as fh:
        for key, value in entries:
            fh.write(f"{key} = {_format_value(value)}\n")
    return manifest
