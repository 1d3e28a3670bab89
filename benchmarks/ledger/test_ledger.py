"""Self-test of the perf ledger.

Not part of tier 1 (``testpaths`` is ``tests``); run it explicitly:

    PYTHONPATH=src python -m pytest benchmarks/ledger -q
"""

import json
import math
import os
import re

import pytest

from benchmarks.ledger import ledger, spec, workloads
from benchmarks.ledger.compare import verdict
from benchmarks.ledger.measure import Spans

SETTINGS = dict(seed=20050614, seconds=0.2, scale=0.02)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
WORKLOADS = ["ss_steady", "hh_bursty", "scan_vec", "agg_shards", "ss_durable", "serve_shared"]
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="module")
def end_to_end(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("ledger"))
    return [ledger.run_ledger(out_dir=out, **SETTINGS) for _ in range(2)]


@pytest.fixture(scope="module")
def per_layer(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("layers"))
    return ledger.run_ledger(out_dir=out, trace=True, **SETTINGS)


def test_every_end_to_end_metric_is_reported(end_to_end):
    for result in end_to_end:
        assert list(result["workloads"]) == WORKLOADS
        for run in result["workloads"].values():
            assert list(run["metrics"]) == list(spec.END_TO_END)
            assert run["rounds"] >= ledger.MIN_ROUNDS
            for name, entry in run["metrics"].items():
                assert NAME.match(name)
                assert math.isfinite(entry["value"]), name
                assert entry["unit"] == spec.END_TO_END[name].unit


def test_outputs_are_correct_and_nothing_is_lost(end_to_end):
    for result in end_to_end:
        for name, run in result["workloads"].items():
            assert run["problems"] == [], name
            assert run["correct"] and run["failed"] == 0
            assert run["metrics"]["failed_share"]["value"] == 0


def test_exact_metrics_repeat_exactly(end_to_end):
    first, second = (result["workloads"] for result in end_to_end)
    for name in WORKLOADS:
        one, two = first[name]["metrics"], second[name]["metrics"]
        for metric in ("py_calls_per_record", "failed_share"):
            assert one[metric] == two[metric], (name, metric)
        # Exact between processes; a second run in one process starts from
        # warmer free lists and reads a few hundred bytes lower.
        assert one["peak_alloc_mb"]["value"] == pytest.approx(
            two["peak_alloc_mb"]["value"], rel=1e-2
        )


def test_every_per_layer_metric_is_reported(per_layer):
    for workload, run in per_layer["workloads"].items():
        assert run["probe_errors"] == {}, workload
        assert list(run["metrics"]) == list(spec.PER_LAYER)
        for name, entry in run["metrics"].items():
            assert NAME.match(name)
            assert entry["value"] is not None and math.isfinite(entry["value"]), name


def test_layers_add_up_to_the_end_to_end_time(per_layer):
    """By construction: probed layers + runtime self time = ns/record."""
    for run in per_layer["workloads"].values():
        metrics = {name: entry["value"] for name, entry in run["metrics"].items()}
        probed = sum(
            metrics[name]
            for name in (
                "dsms.runtime.self_ns_per_record",
                "dsms.operators.selection.ns_per_record",
                "dsms.operators.aggregation.ns_per_record",
                "core.sampling_operator.ns_per_record",
                "dsms.vectorized.operators.selection_ns_per_record",
                "dsms.vectorized.operators.aggregation_ns_per_record",
                "dsms.vectorized.batch.from_records_ns_per_record",
                "dsms.sharded.split_merge_ns_per_record",
                "dsms.durability.overhead_ns_per_record",
            )
        )
        assert probed > 0
        # ns_per_model_kcycle is the same end-to-end time over the model's cycles
        end_to_end_ns = (
            metrics["dsms.cost.ns_per_model_kcycle"]
            * metrics["dsms.cost.model_cycles_per_record"]
            / 1e3
        )
        assert probed == pytest.approx(end_to_end_ns, rel=1e-6)


def test_layers_a_workload_never_enters_report_zero(per_layer):
    runs = per_layer["workloads"]
    assert runs["scan_vec"]["metrics"]["core.sampling_operator.ns_per_record"]["value"] == 0
    assert runs["ss_steady"]["metrics"]["dsms.sharded.skew"]["value"] == 0
    assert runs["ss_steady"]["metrics"]["core.sampling_operator.ns_per_record"]["value"] > 0
    assert runs["agg_shards"]["metrics"]["dsms.sharded.skew"]["value"] >= 1
    assert runs["ss_durable"]["metrics"]["dsms.durability.commits"]["value"] >= 1
    assert runs["serve_shared"]["metrics"]["serving.sharing.shared_replays"]["value"] > 0


def test_span_tree_is_well_formed(per_layer):
    spans = Spans()
    spans.items = per_layer["spans"]
    by_id = {item["id"]: item for item in spans.items}
    roots = [item for item in spans.items if item["parent"] is None]
    assert sorted(item["workload"] for item in roots) == sorted(WORKLOADS)
    names = {item["name"] for item in spans.items}
    assert {"setup.trace", "setup.plan", "warmup", "round", "batch", "finish", "check"} <= names
    assert any(name.startswith("probe.") for name in names)
    for item in spans.items:
        assert item["end"] >= item["start"]
        if item["parent"] is not None:
            parent = by_id[item["parent"]]
            assert parent["workload"] == item["workload"]
            assert parent["start"] <= item["start"] and item["end"] <= parent["end"]
    assert min(spans.self_times().values()) >= -1e-9


def test_a_corrupted_output_row_counts_as_failed(monkeypatch, tmp_path):
    real = workloads.AggShards.rows

    def corrupt(self, driver):
        rows = real(self, driver)
        rows["agg"][0] = rows["agg"][0][:-1] + (-1,)
        return rows

    monkeypatch.setattr(workloads.AggShards, "rows", corrupt)
    result = ledger.run_ledger(["agg_shards"], out_dir=str(tmp_path), **SETTINGS)
    run = result["workloads"]["agg_shards"]
    assert not run["correct"] and run["problems"]
    assert run["metrics"]["failed_share"]["value"] > 0


def test_compare_verdicts():
    def entry(value, samples=None):
        return {"value": value, "samples": samples or [value]}

    assert verdict(entry(100.0), entry(95.0), "higher", 0.10) == "ok"
    assert verdict(entry(100.0), entry(80.0), "higher", 0.10) == "worse"
    assert verdict(entry(10.0), entry(10.5), "lower", 0.02) == "worse"
    assert verdict(entry(0.0), entry(0.0), "lower", 0.0) == "ok"
    assert verdict(entry(0.0), entry(0.1), "lower", 0.0) == "worse"
    noisy = [70.0, 100.0, 130.0]
    assert verdict(entry(100.0, noisy), entry(80.0, noisy), "higher", 0.10) == "unresolved"
    # ... unless every run of B is better than every run of A
    assert verdict(entry(100.0, noisy), entry(200.0, [150.0, 200.0, 250.0]), "higher", 0.10) == "ok"


def test_benchmark_json_names_the_same_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        contract = json.load(fh)
    assert contract["paths"] == ["benchmarks/ledger"]
    assert [w["name"] for w in contract["workloads"]] == WORKLOADS
    whys = {w.name: w.why for w in workloads.all_workloads("unused")}
    assert {w["name"]: w["why"] for w in contract["workloads"]} == whys
    # failed_share travels as the result line's "attempted" and "failed"
    expected = {name: m for name, m in spec.END_TO_END.items() if name != "failed_share"}
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"]) for m in contract["end_to_end"]
    } == {name: (m.unit, m.better, m.bound) for name, m in expected.items()}
    assert {m["name"]: (m["unit"], m["better"]) for m in contract["per_layer"]} == {
        name: (m.unit, m.better) for name, m in spec.PER_LAYER.items()
    }
