import ast
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from seqplace import evaluation, neural
from seqplace.dataset import DescriptorSequence, PositionTrack, Traversal
from seqplace.descriptors import l2_normalize
from seqplace.evaluation import (
    BenchResult,
    Method,
    PRCurve,
    SweepCell,
    benchmark,
    delta_method,
    delta_window_for,
    deep_method,
    ds_sweep,
    is_correct,
    load_ground_truth,
    load_pr_csv,
    load_sweep_csv,
    pr_curve,
    save_bench_csv,
    save_pr_csv,
    save_sweep_csv,
    seqslam_method,
    tolerance_for,
    trained_method,
)
from seqplace.matching_classic import (
    DifferenceMatrix,
    MatchReport,
    SeqSlamConfig,
    contrast_enhance,
    difference_matrix,
    seqslam_search,
)
from seqplace.synthetic import SynthConfig, generate


def report_of(best_ref, scores, higher_is_better=True):
    return MatchReport(
        query_indices=np.arange(len(best_ref)),
        best_ref=np.array(best_ref),
        scores=np.array(scores, dtype=np.float64),
        higher_is_better=higher_is_better,
    )


def test_tolerance_for():
    assert tolerance_for(1) == 11
    assert tolerance_for(2) == 12
    assert tolerance_for(10) == 20
    assert tolerance_for(24) == 34
    with pytest.raises(ValueError):
        tolerance_for(0)


def test_is_correct_boundaries():
    assert is_correct(5, 5, 0)
    assert is_correct(5, 8, 3)
    assert is_correct(8, 5, 3)
    assert not is_correct(5, 9, 3)
    with pytest.raises(ValueError):
        is_correct(0, 0, -1)


def test_pr_curve_hand_enumeration():
    # queries sorted by score: correct, wrong, correct, wrong
    curve = pr_curve(report_of([0, 9, 2, 9], [4.0, 3.0, 2.0, 1.0]), delta=0)
    assert np.array_equal(curve.thresholds, [np.inf, 4.0, 3.0, 2.0, 1.0])
    assert np.array_equal(curve.precision, [1.0, 1.0, 0.5, 2 / 3, 0.5])
    assert np.array_equal(curve.recall, [0.0, 0.25, 0.25, 0.5, 0.5])
    assert abs(curve.auc - 19 / 48) < 1e-12


def test_pr_curve_tied_scores_enter_together():
    curve = pr_curve(report_of([0, 9, 2], [1.0, 1.0, 0.0]), delta=0)
    # the two score-1.0 rows form one group; the correct one gets no head start
    assert np.array_equal(curve.thresholds, [np.inf, 1.0, 0.0])
    assert np.array_equal(curve.precision, [1.0, 0.5, 2 / 3])
    assert np.array_equal(curve.recall, [0.0, 1 / 3, 2 / 3])


def test_pr_curve_perfect_matcher_is_exactly_one():
    n = 50
    curve = pr_curve(report_of(np.arange(n), -np.arange(n, dtype=float)), delta=0)
    assert curve.auc == 1.0


def test_pr_curve_all_wrong_is_zero():
    curve = pr_curve(report_of([90, 91, 92], [3.0, 2.0, 1.0]), delta=0)
    assert curve.auc == 0.0
    assert curve.recall.max() == 0.0


def test_pr_curve_polarity_mirror():
    best = [0, 7, 2, 3, 9]
    scores = np.array([0.9, 0.4, 0.8, 0.1, 0.5])
    hi = pr_curve(report_of(best, scores, higher_is_better=True), delta=0)
    lo = pr_curve(report_of(best, -scores, higher_is_better=False), delta=0)
    assert np.array_equal(hi.precision, lo.precision)
    assert np.array_equal(hi.recall, lo.recall)
    assert hi.auc == lo.auc
    assert lo.thresholds[0] == -np.inf
    assert np.array_equal(lo.thresholds[1:], -hi.thresholds[1:])


def test_pr_curve_random_matcher_matches_expected_density():
    rng = np.random.default_rng(7)
    q, r, delta = 2000, 400, 5
    report = report_of(rng.integers(0, r, size=q), rng.random(q))
    truth = {i: int(v) for i, v in enumerate(rng.integers(delta, r - delta, size=q))}
    auc = pr_curve(report, delta, ground_truth=truth).auc
    expected = (2 * delta + 1) / r
    assert abs(auc - expected) < 0.05


def test_pr_curve_ground_truth_override():
    report = report_of([5, 6], [2.0, 1.0])
    curve = pr_curve(report, delta=0, ground_truth={0: 5, 1: 0})
    assert np.array_equal(curve.recall, [0.0, 0.5, 0.5])
    with pytest.raises(ValueError, match="missing query"):
        pr_curve(report, delta=0, ground_truth={0: 5})
    with pytest.raises(ValueError):
        pr_curve(report, delta=-1)


def test_pr_curve_validation():
    with pytest.raises(ValueError):
        PRCurve(thresholds=np.array([1.0]), precision=np.array([1.0, 0.5]),
                recall=np.array([0.0]), auc=0.5)
    with pytest.raises(ValueError):
        PRCurve(thresholds=np.array([1.0]), precision=np.array([1.5]),
                recall=np.array([0.0]), auc=0.5)
    with pytest.raises(ValueError):
        PRCurve(thresholds=np.array([1.0, 0.0]), precision=np.array([1.0, 1.0]),
                recall=np.array([0.5, 0.2]), auc=0.5)
    with pytest.raises(ValueError):
        PRCurve(thresholds=np.array([1.0]), precision=np.array([1.0]),
                recall=np.array([0.0]), auc=1.5)
    curve = PRCurve(thresholds=np.array([1.0]), precision=np.array([1.0]),
                    recall=np.array([0.0]), auc=0.0)
    assert len(curve) == 1
    with pytest.raises(ValueError):
        curve.precision[0] = 0.0


def test_pr_csv_roundtrip(tmp_path):
    curve = pr_curve(report_of([0, 9, 2, 9], [4.0, 3.0, 2.0, 1.0]), delta=0)
    path = tmp_path / "pr.csv"
    save_pr_csv(curve, path, delta=12)
    text = path.read_text()
    assert text.startswith("# delta=12\n# auc=")
    loaded = load_pr_csv(path)
    assert np.array_equal(loaded.thresholds, curve.thresholds)
    assert np.array_equal(loaded.precision, curve.precision)
    assert np.array_equal(loaded.recall, curve.recall)
    assert loaded.auc == curve.auc


def test_pr_csv_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("threshold,precision,recall\n1.0,0.5\n")
    with pytest.raises(ValueError, match=":2"):
        load_pr_csv(bad)
    empty = tmp_path / "empty.csv"
    empty.write_text("# auc=0.0\nthreshold,precision,recall\n")
    with pytest.raises(ValueError, match="no curve points"):
        load_pr_csv(empty)


def test_pr_csv_names_the_line_of_a_non_numeric_field(tmp_path):
    path = tmp_path / "pr.csv"
    path.write_text("# auc=0.5\nthreshold,precision,recall\n1.0,0.5,0.5\n0.5,half,1.0\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:4: malformed row '0.5,half,1.0'")):
        load_pr_csv(path)


def test_load_ground_truth(tmp_path):
    path = tmp_path / "gt.csv"
    path.write_text("# pairs\n0,5\n1,6\n\n2,0\n")
    assert load_ground_truth(path) == {0: 5, 1: 6, 2: 0}
    path.write_text("0,5,9\n")
    with pytest.raises(ValueError, match=":1"):
        load_ground_truth(path)
    path.write_text("0,apple\n")
    with pytest.raises(ValueError, match=":1"):
        load_ground_truth(path)


def test_load_ground_truth_rejects_a_repeated_query_index(tmp_path):
    path = tmp_path / "gt.csv"
    path.write_text("0,5\n1,6\n0,9\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: query index 0 repeats line 1")):
        load_ground_truth(path)


def test_delta_window_for():
    assert delta_window_for(1) == 2
    assert delta_window_for(2) == 2
    assert delta_window_for(3) == 4
    assert delta_window_for(4) == 4
    assert delta_window_for(5) == 6
    assert delta_window_for(10) == 10
    with pytest.raises(ValueError):
        delta_window_for(0)


def broken_method():
    def prepare(reference, d_s):
        raise RuntimeError("cannot prepare")

    return Method(name="broken", prepare=prepare)


def test_ds_sweep_records_failures_and_sorts():
    pairs = [
        generate(SynthConfig(frames=40, dim=8, smoothness=0.5, condition_noise=0.1, seed=s))
        for s in (0, 1)
    ]
    methods = [seqslam_method(), broken_method(), delta_method()]
    cells = ds_sweep(methods, [2, 1], pairs)
    assert len(cells) == 3 * 2 * 2
    assert cells == sorted(cells, key=lambda c: (c.method, c.d_s, c.query_name))
    by_method = {}
    for c in cells:
        by_method.setdefault(c.method, []).append(c)
    assert all(c.auc is None for c in by_method["broken"])
    assert all(c.auc is not None and 0.0 <= c.auc <= 1.0 for c in by_method["seqslam"])
    assert all(c.auc is not None for c in by_method["delta"])


def test_ds_sweep_records_domain_errors(capsys):
    pair = generate(SynthConfig(frames=6, dim=4, smoothness=0.5, seed=0))
    # d_s=8 needs a delta window of 8 frames; the route has 6
    cells = ds_sweep([delta_method()], [1, 8], [pair])
    assert cells[0].auc is not None and cells[0].error is None
    failed = cells[1]
    assert failed.auc is None
    assert failed.error == "ValueError: both sequences need >= 8 frames (got 6 and 6)"
    err = capsys.readouterr().err.splitlines()
    assert err == [f"sweep: delta d_s=8 {pair.query.name} failed: {failed.error}"]


def test_ds_sweep_propagates_programming_errors():
    def prepare(reference, d_s):
        raise TypeError("prepare() got an unexpected argument")

    pair = generate(SynthConfig(frames=20, dim=4, smoothness=0.5, seed=0))
    with pytest.raises(TypeError, match="unexpected argument"):
        ds_sweep([Method(name="buggy", prepare=prepare)], [1, 2], [pair])


def test_deep_method_prepare_and_deploy():
    pair = generate(SynthConfig(frames=30, dim=8, smoothness=0.5, condition_noise=0.05, seed=3))
    deploy = deep_method(epochs=3, hidden=8, seed=0).prepare(pair.reference, 2)
    report = deploy(pair.query)
    assert len(report) == 30
    assert report.higher_is_better


def test_trained_method_deploys_a_model_as_its_checkpoint(tmp_path):
    # the in-process model has float64 weights; trained_method deploys them
    # rounded to float32, as a saved and loaded checkpoint holds them
    pair = generate(SynthConfig(frames=120, dim=16, smoothness=0.5, condition_noise=0.2, seed=4))
    reference = replace(pair.reference, descriptors=l2_normalize(pair.reference.descriptors))
    model, _ = neural.train(reference, d_s=3, epochs=5, rng_seed=0, hidden=32)
    path = tmp_path / "model.spm1"
    neural.save_checkpoint(model, path)
    sunk = []
    in_process = trained_method(model, sink=sunk.append).prepare(pair.reference, 3)(pair.query)
    loaded = trained_method(neural.load_checkpoint(path), sink=sunk.append)
    from_file = loaded.prepare(pair.reference, 3)(pair.query)
    assert np.array_equal(in_process.best_ref, from_file.best_ref)
    assert np.array_equal(in_process.scores, from_file.scores)
    assert np.array_equal(sunk[0], sunk[1]) and sunk[0].shape == (120, 120)
    assert model.lstm.flat.dtype == np.float64  # the caller's model is not touched


def test_sweep_csv_roundtrip(tmp_path):
    cells = [
        SweepCell("broken", 1, "q-a", None),
        SweepCell("seqslam", 2, "q-b", 0.875),
    ]
    path = tmp_path / "sweep.csv"
    save_sweep_csv(cells, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "method,d_s,query_name,auc"
    assert lines[1] == "broken,1,q-a,"
    assert load_sweep_csv(path) == cells
    path.write_text("wrong,header\n")
    with pytest.raises(ValueError, match="header"):
        load_sweep_csv(path)


def test_sweep_csv_names_the_line_of_a_non_numeric_field(tmp_path):
    path = tmp_path / "sweep.csv"
    for row in ("seqslam,two,q-b,0.5", "seqslam,2,q-b,high"):
        path.write_text(f"method,d_s,query_name,auc\nseqslam,1,q-a,0.5\n{row}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: malformed row {row!r}")):
            load_sweep_csv(path)


def test_benchmark_smoke():
    pair = generate(SynthConfig(frames=60, dim=8, smoothness=0.5, condition_noise=0.1, seed=4))
    result = benchmark(seqslam_method(), pair, d_s=4, repetitions=3)
    assert result.method == "seqslam"
    assert result.seconds > 0.0
    assert result.frames == 60
    with pytest.raises(ValueError):
        benchmark(seqslam_method(), pair, d_s=4, repetitions=0)


def test_bench_result_validation_and_csv(tmp_path):
    with pytest.raises(ValueError):
        BenchResult(method="m", seconds=0.0, frames=10, device="cpu")
    with pytest.raises(ValueError):
        BenchResult(method="m", seconds=1.0, frames=0, device="cpu")
    path = tmp_path / "bench.csv"
    save_bench_csv([BenchResult("m", 0.5, 10, "cpu, 1 logical cores")], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "method,seconds,frames,device"
    assert lines[1].startswith("m,0.5,10,")


def _traversal(rng, frames, dim):
    descriptors = DescriptorSequence(data=rng.standard_normal((frames, dim)).astype(np.float32))
    return Traversal(name=f"t{frames}", descriptors=descriptors,
                     positions=PositionTrack(np.zeros((frames, 2))))


def test_seqslam_sink_receives_the_enhanced_matrix():
    rng = np.random.default_rng(21)
    reference, query = _traversal(rng, 37, 6), _traversal(rng, 45, 6)
    for metric in ("cosine", "euclidean"):
        sunk = []
        method = seqslam_method(v_step=0.1, r_window=4, metric=metric, sink=sunk.append)
        report = method.prepare(reference, 5)(query)
        matrix = difference_matrix(query.descriptors, reference.descriptors, metric)
        enhanced = contrast_enhance(matrix, 4)
        want = seqslam_search(enhanced, SeqSlamConfig(d_s=5, v_step=0.1, r_window=4))
        [data] = sunk
        assert np.array_equal(data, enhanced.data)
        assert np.array_equal(np.signbit(data), np.signbit(enhanced.data))
        assert np.array_equal(report.best_ref, want.best_ref)
        assert np.array_equal(report.scores, want.scores)


def test_seqslam_deploy_holds_no_query_by_reference_matrix():
    rng = np.random.default_rng(22)
    reference, query = _traversal(rng, 1000, 16), _traversal(rng, 1500, 16)
    deploy = seqslam_method().prepare(reference, 10)
    size = 8 * 1500 * 1000  # one Q x R float64 array
    tracemalloc.start()
    try:
        deploy(query)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about 0.7: one 385-row distance block and run-sized rings and scratch
    assert peak < 0.75 * size, peak / size


def test_evaluation_has_one_seqslam_entry_point():
    # seqslam_method deploys through matching_classic.seqslam_match; the
    # registry must neither import nor call the whole-matrix stages
    banned = {"difference_matrix", "contrast_enhance", "seqslam_search"}
    tree = ast.parse(Path(evaluation.__file__).read_text(encoding="utf-8"))
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            used.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    assert not used & banned, sorted(used & banned)


def test_trained_deploy_gives_infers_bytes_with_or_without_a_sink():
    # an unflagged query: infer and the deploy both scale its rows to unit norm
    rng = np.random.default_rng(26)
    query = _traversal(rng, 300, 6)
    model = neural.at_checkpoint_precision(
        neural.init_model(n=6, places=50, d_s=4, hidden=8, seed=1)
    )
    activity, want = neural.infer(model, query)
    sunk = []
    reports = [evaluation.trained_deploy(model, 50, 6, 4, sink)(query)
               for sink in (sunk.append, None)]
    [matrix] = sunk
    assert matrix.tobytes() == activity.tobytes()
    for report in reports:
        assert report.higher_is_better
        for field in ("query_indices", "best_ref", "scores"):
            assert getattr(report, field).tobytes() == getattr(want, field).tobytes(), field


def test_trained_deploy_peak_does_not_grow_with_the_query():
    rng = np.random.default_rng(27)
    dim, places = 128, 600
    model = neural.at_checkpoint_precision(
        neural.init_model(n=dim, places=places, d_s=5, hidden=16, seed=2)
    )
    deploy = evaluation.trained_deploy(model, places, dim, 5)
    peaks = []
    for frames in (2000, 8000):
        query = _traversal(rng, frames, dim)  # unflagged: the deploy scales its rows
        tracemalloc.start()
        try:
            deploy(query)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # per query row the deploy keeps its report; a whole-query float64 copy
    # alone would add 8 * dim bytes a row, and the Q x N activity 8 * places
    growth = (peaks[1] - peaks[0]) / (6000 * 8 * dim)
    assert growth < 0.25, growth


def test_a_deep_cell_with_non_finite_logits_fails_with_their_error(capsys):
    pair = generate(SynthConfig(frames=40, dim=6, smoothness=0.5, condition_noise=0.1, seed=2))
    model = neural.init_model(n=6, places=40, d_s=3, hidden=8, seed=6)
    for bias in (model.lstm.b_i, model.lstm.b_g, model.lstm.b_o):
        bias[...] = 20.0  # every hidden unit above tanh(1)
    model.head.w[4] = 3e38  # finite in float32; its logits overflow
    [cell] = ds_sweep([trained_method(model)], [3], [pair])
    assert cell.auc is None
    assert cell.error == "ValueError: non-finite LSTM logits at query frame 0 (40 of frames 0-39)"
    err = capsys.readouterr().err.splitlines()
    assert err == [f"sweep: deep d_s=3 {pair.query.name} failed: {cell.error}"]
