"""Served queries are timed, and sharing leaves every node's entry as it was.

With ``profile`` every served instance samples ``operator_seconds`` per
node run (``phase="process"`` / ``"flush"``), and a follower, whose
low-level node never runs because its leader's run is replayed into it,
samples that replay (``phase="replay"``).  ``export_metrics`` — what
``/metrics`` and ``serve --metrics-out`` render — carries the samples
labelled ``serve_id`` / ``tenant`` (docs/OBSERVABILITY.md).  Timing is
off by default and moves no row, counter or charge.
"""

from __future__ import annotations

import json
import math
from functools import partial

from repro.cli import main
from repro.serving.server import StandingQueryEngine, drive
from repro.streams.persistence import save_trace

from tests.serving.conftest import BATCH, EXAMPLE_PATHS, EXAMPLE_TEXTS, make_instance

#: a leader and a follower of one feeder group, and a plain selection
SERVED = (("reservoir", "a"), ("top_talkers", "b"), ("big_flows", "a"))


def serve(records, profile):
    engine = StandingQueryEngine(partial(make_instance, profile=profile))
    served = [engine.register(EXAMPLE_TEXTS[name], name=name, tenant=tenant)
              for name, tenant in SERVED]
    drive(engine, records, batch_size=BATCH)
    return engine, served


def timed(registry):
    """``operator_seconds`` sample counts by (serve_id, tenant, query, phase)."""
    out = {}
    for series in registry.series():
        if series.name == "operator_seconds":
            labels = dict(series.labels)
            key = (labels["serve_id"], labels["tenant"], labels["query"], labels["phase"])
            out[key] = series.count
    return out


def test_every_served_node_is_timed_and_a_follower_its_replay(records):
    engine, (leader, follower, selection) = serve(records, profile=True)
    assert leader.signature == follower.signature  # one shared scan
    batches = math.ceil(len(records) / BATCH)
    seconds = timed(engine.export_metrics())
    assert seconds[leader.qid, "a", "reservoir__lowsel", "process"] == batches
    assert seconds[follower.qid, "b", "top_talkers__lowsel", "replay"] == batches
    assert (follower.qid, "b", "top_talkers__lowsel", "process") not in seconds
    for sq in (leader, follower):  # each high-level node runs, and closes
        assert seconds[sq.qid, sq.tenant, sq.name, "process"] == batches
        assert seconds[sq.qid, sq.tenant, sq.name, "flush"] == 1
    assert seconds[selection.qid, "a", "big_flows", "process"] == batches


def test_timing_is_off_by_default_and_moves_nothing_else(records):
    plain, plain_served = serve(records, profile=False)
    profiled, profiled_served = serve(records, profile=True)
    assert timed(plain.export_metrics()) == {}
    for a, b in zip(plain_served, profiled_served):
        assert [r.values for r in a.results] == [r.values for r in b.results]
        assert a.instance.metrics.comparable_items() == b.instance.metrics.comparable_items()
        assert a.instance.cost.accounts() == b.instance.cost.accounts()
    assert plain.metrics.comparable_items() == profiled.metrics.comparable_items()


def test_serve_profile_writes_operator_seconds(records, tmp_path):
    trace, metrics = str(tmp_path / "trace.bin"), str(tmp_path / "m.json")
    save_trace(records, trace)
    paths = [path for path in EXAMPLE_PATHS if path.endswith(("/reservoir.gsql", "/top_talkers.gsql"))]
    assert main(["serve", *paths, "--trace", trace, "--profile", "--metrics-out", metrics]) == 0
    text = open(metrics, encoding="utf-8").read()
    assert "operator_seconds" in text and "serve_id" in text and "replay" in text
    assert main(["serve", *paths, "--trace", trace, "--metrics-out", metrics]) == 0
    assert "operator_seconds" not in open(metrics, encoding="utf-8").read()


def test_a_capture_leaves_the_leaders_entry_as_it_was(records):
    """The leader's low-level node is shimmed for each captured feed: it
    runs the same entry — its generated body — before and after."""
    engine = StandingQueryEngine(make_instance)
    leader = engine.register(EXAMPLE_TEXTS["reservoir"], name="reservoir")
    follower = engine.register(EXAMPLE_TEXTS["top_talkers"], name="top_talkers")
    node = leader.instance.query(leader.low_name).operator
    entry = vars(node)["process_many"]
    for start in range(0, 3 * BATCH, BATCH):
        engine.feed(records[start : start + BATCH])
        assert vars(node)["process_many"] is entry
    drive(engine, records[3 * BATCH :], batch_size=BATCH)  # and it keeps serving
    assert engine.metrics.value("serving_shared_replays_total") > 3
    assert follower.results and leader.results
