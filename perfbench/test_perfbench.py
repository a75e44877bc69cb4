"""Tests of the benchmark's own arithmetic, tables and parsers.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import sys
import threading
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def span(name, start, end, parent=None, thread=1, counters=None):
    return spans.Span(name, start, end, parent, thread, "r", dict(counters or {}))


# ---------------------------------------------------------------- self time


def test_union_length_merges_overlaps_and_skips_empty():
    assert spans.union_length([]) == 0.0
    assert spans.union_length([(0, 2), (1, 3), (5, 6), (4, 4)]) == pytest.approx(4.0)
    assert spans.union_length([(0, 10), (2, 3)]) == pytest.approx(10.0)


def test_self_time_subtracts_nested_children():
    recorded = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("b", 5.0, 6.0, parent=0),
        span("a.inner", 2.0, 3.0, parent=1),
    ]
    assert spans.self_times(recorded) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_with_overlapping_worker_children():
    # two pool threads under one sweep span: their union, not their sum, is
    # subtracted, and a child running past the parent is clipped
    recorded = [
        span("sweep", 0.0, 10.0, thread=1),
        span("cell", 1.0, 7.0, parent=0, thread=2),
        span("cell", 2.0, 9.0, parent=0, thread=3),
        span("cell", 9.5, 11.0, parent=0, thread=2),
    ]
    own = spans.self_times(recorded)
    assert own[0] == pytest.approx(10.0 - 8.0 - 0.5)
    assert own[1:] == pytest.approx([6.0, 7.0, 1.5])


def test_accounting_identity_holds_with_parallel_spans():
    recorded = [
        span("sweep", 1.0, 9.0, thread=1),
        span("cell", 2.0, 6.0, parent=0, thread=2),
        span("cell", 3.0, 8.0, parent=0, thread=3),
        span("load", 9.5, 10.0, thread=1),
    ]
    wall = 12.0
    split = spans.accounting(recorded, wall)
    assert split["untraced"] == pytest.approx(12.0 - 8.5)
    assert split["overlap"] == pytest.approx(3.0)  # [3, 6] counted on both threads
    assert split["self_sum"] - split["overlap"] + split["untraced"] == pytest.approx(wall)


def test_busy_over_wall_counts_threads_and_their_busy_time():
    recorded = [
        span("sweep", 0.0, 10.0, thread=1),
        span("cell", 0.0, 6.0, parent=0, thread=2),
        span("cell", 5.0, 8.0, parent=0, thread=2),  # overlaps its own thread: union
        span("cell", 0.0, 9.0, parent=0, thread=3),
    ]
    ratio, threads = spans.busy_over_wall(recorded, 0)
    assert threads == 2
    assert ratio == pytest.approx((8.0 + 9.0) / 10.0)


# ---------------------------------------------------------------- tracer


def test_tracer_records_only_inside_sections_and_adopts_worker_spans():
    tracer = spans.Tracer("t")
    work = spans.wrap(tracer, lambda: None, "work")

    def sweep():
        worker = threading.Thread(target=work)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    traced_sweep = spans.wrap(tracer, sweep, "sweep")
    traced_sweep()
    assert tracer.spans == []
    with tracer.section():
        traced_sweep()
        work()
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("sweep", None), ("work", 0), ("work", None)]
    assert tracer.spans[1].thread != tracer.spans[0].thread
    assert tracer.wall > 0.0


def test_wrap_names_by_argument_and_records_cost_and_failure():
    tracer = spans.Tracer("t")

    def main(argv, scale=2):
        if argv[0] == "bad":
            raise ValueError("bad")
        return len(argv) * scale

    wrapped = spans.wrap(
        tracer, main, lambda a: f"cli.main.{a['argv'][0]}", lambda a, r: {"units": r * a["scale"]}
    )
    with tracer.section():
        assert wrapped(["train", "x"]) == 4
        with pytest.raises(ValueError):
            wrapped(["bad"])
    assert [s.name for s in tracer.spans] == ["cli.main.train", "cli.main.bad"]
    assert tracer.spans[0].counters == {"units": 8}
    assert tracer.spans[1].counters == {"failed": 1}


def test_patched_replaces_every_alias_and_restores():
    def original():
        return "original"

    def wrapper():
        return "wrapped"

    home = types.ModuleType("home")
    home.fn = original
    user = types.ModuleType("user")
    user.alias = original
    user.other = len
    with spans.patched((home, user), {original: wrapper}):
        assert home.fn is wrapper and user.alias is wrapper and user.other is len
    assert home.fn is original and user.alias is original


def test_layer_metrics_from_spans():
    tracer = spans.Tracer("t")
    tracer.spans = [
        span("matching_classic.delta_match", 0.0, 4.0),
        span("descriptors.delta_transform", 0.5, 1.0, parent=0),
        span("descriptors.delta_transform", 1.0, 1.5, parent=0),
        span("matching_classic.difference_matrix", 2.0, 3.0, parent=0, counters={"gflop": 1.5}),
        span("neural.train", 5.0, 9.0, counters={"epoch_s": [1.0, 3.0, 2.0], "gflop": 2.0}),
        span("neural.adam_step", 6.0, 7.0, parent=4),
        span("neural.train", 9.0, 9.5, counters={"epoch_s": [0.1, 0.1], "gflop": 0.5}),
        span("evaluation.ds_sweep", 9.5, 9.6),
        span("matching_classic.delta_match", 9.52, 9.53, parent=7, thread=2),
        span("evaluation.ds_sweep", 0.0, 0.0),
    ]
    tracer.wall = 10.0
    values = workloads.layer_metrics(tracer, overhead=0.25)
    assert list(values) == list(workloads.PER_LAYER)
    assert values["matching_classic.delta_match.s"] == pytest.approx(2.01)
    assert values["descriptors.delta_transform.calls_per_deploy"] == 1.0
    assert values["matching_classic.difference_matrix.calls"] == 1.0
    assert values["matching_classic.difference_matrix.gflop"] == 1.5
    assert values["neural.train.s"] == pytest.approx(4.5)
    assert values["neural.train.other_s"] == pytest.approx(3.5)
    assert values["neural.train.gflop"] == 2.5
    assert values["neural.train.epoch_s"] == 2.0  # the slowest call's median epoch
    assert values["neural.adam_step.calls"] == 1.0
    assert values["neural.infer.s"] == 0.0
    # of the longest sweep: one worker thread busy 0.01 s of 0.1 s
    assert values["evaluation.ds_sweep.workers"] == 1.0
    assert values["evaluation.ds_sweep.busy_over_wall"] == pytest.approx(0.1)
    assert values["trace.untraced_s"] == pytest.approx(10.0 - 8.6)
    assert values["trace.overhead_s"] == 0.25


# ---------------------------------------------------------------- metric table


def test_direction_table_matches_the_reported_metrics():
    e2e = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    layers = {m["name"]: m for m in BENCHMARK["per_layer"]}
    assert {n: m["unit"] for n, m in e2e.items()} == workloads.END_TO_END
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(
        workloads.PER_LAYER.items()
    )
    for metric in [*e2e.values(), *layers.values()]:
        assert metric["better"] in ("higher", "lower"), metric
    assert e2e["items_per_wall_s"]["better"] == "higher"
    assert e2e["items_per_cpu_s"]["better"] == "higher"
    assert e2e["setup_s"] == {**e2e["setup_s"], "unit": "s", "better": "lower"}
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    for name in ("trace.overhead_s", "neural.infer.s", "neural.train.gflop",
                 "evaluation.ds_sweep.failed_cells"):
        assert layers[name]["better"] == "lower"
    assert layers["evaluation.ds_sweep.busy_over_wall"]["better"] == "higher"
    for name, metric in layers.items():
        if metric["unit"] == "s" and name != "trace.overlap_s":
            assert metric["better"] == "lower", name


def test_every_workload_seed_maps_onto_a_pinned_input_seed():
    table = json.loads((HERE / "digests.json").read_text())
    assert set(table) == {inputs.key for inputs in workloads.INPUTS}
    for pinned in table.values():
        assert set(pinned) == {str(s) for s in range(workloads.INPUT_SEEDS)}
    for seed in (0, 31, 32, 1000003, -1):
        assert 0 <= workloads.input_seed(seed) < workloads.INPUT_SEEDS
    assert workloads.input_seed(45) == workloads.input_seed(13)


def test_workload_table_matches_the_benchmark_file():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    for entry in BENCHMARK["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why


# ---------------------------------------------------------------- parsers


def test_parse_auc_line():
    assert workloads.parse_auc("# delta=20\nauc,0.8486119012762915\n") == 0.8486119012762915
    with pytest.raises(ValueError):
        workloads.parse_auc("# delta=20\n")
    with pytest.raises(ValueError):
        workloads.parse_auc("auc,0.1\nauc,0.2\n")


def test_parse_sweep_csv_and_mean_auc():
    text = (
        "method,d_s,query_name,auc\n"
        "deep,1,query,0.7\n"
        "deep,2,query,\n"
        "seqslam,1,query,0.25\n"
        "seqslam,2,query,0.75\n"
    )
    rows = workloads.parse_sweep_csv(text)
    assert rows[1] == ("deep", 2, "query", None)
    assert workloads.mean_auc_by_method(rows) == {"deep": 0.7, "seqslam": 0.5}
    with pytest.raises(ValueError):
        workloads.parse_sweep_csv("method,d_s,auc\n")
    with pytest.raises(ValueError):
        workloads.parse_sweep_csv("method,d_s,query_name,auc\ndeep,1,0.5\n")
