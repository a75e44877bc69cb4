import numpy as np
import pytest

from seqplace import neural
from seqplace.dataset import load_descriptor_file, load_positions_file
from seqplace.descriptors import DeltaConfig
from seqplace.evaluation import pr_curve, tolerance_for
from seqplace.matching_classic import (
    SeqSlamConfig,
    contrast_enhance,
    delta_match,
    difference_matrix,
    nearest_neighbor_match,
    seqslam_search,
)
from seqplace.rng import ALGORITHM_ID
from seqplace.synthetic import SynthConfig, SynthPair, generate, generate_revisit, write_dataset


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(frames=1)
    with pytest.raises(ValueError):
        SynthConfig(dim=1)
    with pytest.raises(ValueError):
        SynthConfig(smoothness=1.0)
    with pytest.raises(ValueError):
        SynthConfig(smoothness=-0.1)
    with pytest.raises(ValueError):
        SynthConfig(condition_noise=-1.0)
    with pytest.raises(ValueError):
        SynthConfig(path="spiral")
    with pytest.raises(ValueError):
        SynthConfig(dim=4, drift=(1.0, 2.0))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="drift contains non-finite values"):
            SynthConfig(dim=2, drift=(1.0, bad))


def test_same_seed_bitwise_identical():
    cfg = SynthConfig(frames=40, dim=8, smoothness=0.7, condition_noise=0.3, seed=21)
    a = generate(cfg)
    b = generate(cfg)
    assert a.reference.descriptors.data.tobytes() == b.reference.descriptors.data.tobytes()
    assert a.query.descriptors.data.tobytes() == b.query.descriptors.data.tobytes()
    assert a.reference.positions.data.tobytes() == b.reference.positions.data.tobytes()
    c = generate(SynthConfig(frames=40, dim=8, smoothness=0.7, condition_noise=0.3, seed=22))
    assert a.reference.descriptors.data.tobytes() != c.reference.descriptors.data.tobytes()


def test_noiseless_query_is_identical_copy():
    pair = generate(SynthConfig(frames=30, dim=6, smoothness=0.5, condition_noise=0.0, seed=2))
    assert pair.query.descriptors.data.tobytes() == pair.reference.descriptors.data.tobytes()
    assert pair.query.descriptors.normalized


def test_generated_pairs_satisfy_dataset_invariants():
    for path in ("loop", "line"):
        pair = generate(
            SynthConfig(frames=25, dim=5, smoothness=0.6, condition_noise=0.4, path=path, seed=3)
        )
        for trav in (pair.reference, pair.query):
            norms = np.linalg.norm(trav.descriptors.data.astype(np.float64), axis=1)
            assert np.allclose(norms, 1.0, atol=1e-5)
            assert trav.positions.data.min() >= -1.0
            assert trav.positions.data.max() <= 1.0
        assert pair.reference.name != pair.query.name


def test_smoothness_controls_adjacent_similarity():
    pair = generate(SynthConfig(frames=500, dim=32, smoothness=0.9, seed=5))
    data = pair.reference.descriptors.data.astype(np.float64)
    adjacent = float(np.mean(np.sum(data[:-1] * data[1:], axis=1)))
    distant = float(np.mean(np.sum(data[:-50] * data[50:], axis=1)))
    assert adjacent > distant
    assert adjacent > 0.5


def test_drift_is_exact_constant_offset():
    drift = tuple(float(v) for v in np.linspace(0.5, 1.0, 6))
    cfg = SynthConfig(frames=20, dim=6, smoothness=0.5, condition_noise=0.0, drift=drift, seed=4)
    pair = generate(cfg)
    assert not pair.query.descriptors.normalized
    residual = pair.query.descriptors.data.astype(np.float64) - np.array(drift)
    assert np.allclose(np.linalg.norm(residual, axis=1), 1.0, atol=1e-5)


def test_monotone_difficulty_over_noise_levels():
    sigmas = (0.05, 0.4, 1.2)

    def auc_of(pair, matcher):
        if matcher == "nn":
            rep = nearest_neighbor_match(pair.query.descriptors, pair.reference.descriptors)
            return pr_curve(rep, tolerance_for(1)).auc
        if matcher == "seqslam":
            enhanced = contrast_enhance(
                difference_matrix(pair.query.descriptors, pair.reference.descriptors), 10
            )
            rep = seqslam_search(enhanced, SeqSlamConfig(d_s=4))
            return pr_curve(rep, tolerance_for(4)).auc
        rep = delta_match(pair.query.descriptors, pair.reference.descriptors, DeltaConfig(window=4))
        return pr_curve(rep, tolerance_for(4)).auc

    for matcher in ("nn", "seqslam", "delta"):
        means = []
        for sigma in sigmas:
            aucs = [
                auc_of(
                    generate(
                        SynthConfig(
                            frames=60, dim=16, smoothness=0.3, condition_noise=sigma, seed=seed
                        )
                    ),
                    matcher,
                )
                for seed in range(10)
            ]
            means.append(float(np.mean(aucs)))
        assert means[0] > means[1] > means[2], f"{matcher}: {means}"


def test_revisit_zero_length_equals_generate():
    cfg = SynthConfig(frames=30, dim=8, smoothness=0.4, condition_noise=0.2, seed=9)
    plain = generate(cfg)
    degenerate = generate_revisit(cfg, revisit_at=0, segment_length=0)
    assert plain.reference.descriptors.data.tobytes() == degenerate.reference.descriptors.data.tobytes()
    assert plain.query.descriptors.data.tobytes() == degenerate.query.descriptors.data.tobytes()


def test_revisit_validation():
    cfg = SynthConfig(frames=30, dim=8, seed=0)
    with pytest.raises(ValueError):
        generate_revisit(cfg, revisit_at=25, segment_length=10)  # does not fit
    with pytest.raises(ValueError):
        generate_revisit(cfg, revisit_at=5, segment_length=10)  # overlaps source
    with pytest.raises(ValueError):
        generate_revisit(cfg, revisit_at=-1, segment_length=5)
    with pytest.raises(ValueError):
        generate_revisit(cfg, revisit_at=0, segment_length=-1)


def test_revisit_segments_look_alike_but_sit_apart():
    cfg = SynthConfig(frames=80, dim=16, smoothness=0.3, seed=6)
    pair = generate_revisit(cfg, revisit_at=50, segment_length=20)
    data = pair.reference.descriptors.data.astype(np.float64)
    twin_sim = np.sum(data[50:70] * data[0:20], axis=1)
    assert twin_sim.min() > 0.99
    pos = pair.reference.positions.data
    gaps = np.linalg.norm(pos[50:70] - pos[0:20], axis=1)
    assert gaps.min() > 0.1


def test_revisit_confuses_descriptor_only_matching():
    cfg = SynthConfig(frames=80, dim=16, smoothness=0.3, condition_noise=0.15, seed=6)
    pair = generate_revisit(cfg, revisit_at=50, segment_length=20)
    report = nearest_neighbor_match(pair.query.descriptors, pair.reference.descriptors)
    segment = np.arange(50, 70)
    hits = report.best_ref[50:70] == segment
    assert float(hits.mean()) <= 0.5
    # every miss lands on the visually aliased twin at the route start
    misses = report.best_ref[50:70][~hits]
    assert np.all((misses >= 0) & (misses < 20))


def test_positional_input_disambiguates_revisit():
    cfg = SynthConfig(frames=80, dim=16, smoothness=0.3, condition_noise=0.15, seed=6)
    pair = generate_revisit(cfg, revisit_at=50, segment_length=20)
    segment = np.arange(50, 70)
    nn_report = nearest_neighbor_match(pair.query.descriptors, pair.reference.descriptors)
    nn_acc = float(np.mean(nn_report.best_ref[50:70] == segment))
    model, _ = neural.train(pair.reference, d_s=4, epochs=150, rng_seed=0, hidden=48)
    _, deep_report = neural.infer(model, pair.query)
    deep_acc = float(np.mean(deep_report.best_ref[50:70] == segment))
    assert deep_acc > nn_acc


def test_write_dataset_roundtrip(tmp_path):
    cfg = SynthConfig(
        frames=22,
        dim=7,
        smoothness=0.25,
        condition_noise=0.5,
        drift=tuple(float(v) for v in range(7)),
        path="line",
        seed=13,
    )
    pair = generate(cfg)
    manifest = write_dataset(pair, tmp_path / "ds", cfg)
    ref = load_descriptor_file(tmp_path / "ds" / "reference.spd1")
    query = load_descriptor_file(tmp_path / "ds" / "query.spd1")
    assert ref.data.tobytes() == pair.reference.descriptors.data.tobytes()
    assert query.data.tobytes() == pair.query.descriptors.data.tobytes()
    assert ref.normalized and not query.normalized
    ref_pos = load_positions_file(tmp_path / "ds" / "reference_positions.txt")
    assert np.array_equal(ref_pos, pair.reference.positions.data)
    text = (tmp_path / "ds" / "manifest.txt").read_text()
    assert manifest.endswith("manifest.txt")
    assert "frames = 22" in text
    assert "smoothness = 0.25" in text
    assert f"prng = {ALGORITHM_ID}" in text
    assert "path = line" in text


def test_pair_requires_equal_lengths():
    a = generate(SynthConfig(frames=10, dim=4, seed=0))
    b = generate(SynthConfig(frames=11, dim=4, seed=0))
    with pytest.raises(ValueError):
        SynthPair(reference=a.reference, query=b.query)
