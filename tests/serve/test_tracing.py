"""Trace threading through the serving engine: span rows per path.

Every request path must attribute itself honestly on the trace —
``plane`` (precomputed cell), ``live`` (full resolve), ``degraded``
(resolve on a generation with vendors missing) — and the span rows must
stay bounded no matter how large a batch rides one trace.
"""

import json
import urllib.request

import pytest

from repro.net.ip import parse_address
from repro.obs.metrics import MetricsRegistry
from repro.obs.reqtrace import RequestTrace
from repro.serve import GeoServer, ServingEngine


@pytest.fixture()
def traced():
    return RequestTrace("lookup")


class TestLivePath:
    def test_resolve_records_per_vendor_probe_spans(self, compiled_indexes, traced):
        engine = ServingEngine(compiled_indexes)
        engine.lookup_outcome("41.0.0.2", trace=traced)
        assert traced.path == "live"
        tree = traced.to_dict()
        (resolve,) = tree["spans"]
        assert resolve["name"] == "resolve"
        probes = {span["name"] for span in resolve["children"]}
        assert probes == {f"probe:{name}" for name in compiled_indexes}

    def test_untraced_lookup_matches_traced(self, compiled_indexes, traced):
        engine = ServingEngine(compiled_indexes)
        assert engine.lookup_outcome(
            "41.0.0.2", trace=traced
        ) == engine.lookup_outcome("41.0.0.2")


class TestPlanePath:
    def test_plane_hit_records_interval_attribution(
        self, compiled_indexes, answer_plane
    ):
        engine = ServingEngine(compiled_indexes, plane=answer_plane)
        trace = RequestTrace("lookup")
        engine.lookup_outcome("41.0.0.2", trace=trace)
        assert trace.path == "plane"
        (span,) = trace.to_dict()["spans"]
        assert span["name"] == "plane.probe"
        assert span["attrs"]["interval"] >= 0

    def test_locate_agrees_with_probe(self, answer_plane):
        from repro.net.ip import parse_address

        addr = int(parse_address("41.0.0.2"))
        cell, interval = answer_plane.locate(addr)
        assert cell is answer_plane.probe(addr)
        assert 0 <= interval < answer_plane.interval_count

    def test_traced_plane_outcome_equals_untraced(
        self, compiled_indexes, answer_plane
    ):
        engine = ServingEngine(compiled_indexes, plane=answer_plane)
        trace = RequestTrace("lookup")
        assert engine.lookup_outcome(
            "41.0.0.2", trace=trace
        ) == engine.lookup_outcome("41.0.0.2")

    def test_plane_hit_counters_stay_exact(self, compiled_indexes, answer_plane):
        metrics = MetricsRegistry()
        engine = ServingEngine(
            compiled_indexes, plane=answer_plane, metrics=metrics
        )
        for _ in range(7):
            engine.lookup_outcome("41.0.0.2")
        assert metrics.counter("serve.lookups") == 7
        assert metrics.counter("plane.hits") == 7

    def test_plane_consensus_counters_stay_exact(
        self, compiled_indexes, answer_plane
    ):
        metrics = MetricsRegistry()
        engine = ServingEngine(
            compiled_indexes, plane=answer_plane, metrics=metrics
        )
        for _ in range(3):
            engine.consensus("41.0.0.2")
        assert metrics.counter("serve.lookups") == 3
        assert metrics.counter("serve.consensus") == 3
        assert metrics.counter("plane.hits") == 3


class TestDegradedPath:
    def test_failing_vendor_marks_the_trace_degraded(self, compiled_indexes):
        """A vendor whose snapshot failed to load degrades every trace."""
        names = sorted(compiled_indexes)
        served = {name: compiled_indexes[name] for name in names[1:]}
        engine = ServingEngine(served, expected=names)
        trace = RequestTrace("lookup")
        outcome = engine.lookup_outcome("41.0.0.2", trace=trace)
        assert outcome.degraded
        assert trace.path == "degraded"
        (resolve,) = trace.to_dict()["spans"]
        assert resolve["attrs"]["degraded"] is True
        assert resolve["attrs"]["missing"] == [names[0]]
        probes = {span["name"] for span in resolve["children"]}
        assert probes == {f"probe:{name}" for name in names[1:]}


class TestBatchTracing:
    def test_batch_spans_are_bounded(self, compiled_indexes, answer_plane):
        engine = ServingEngine(compiled_indexes, plane=answer_plane)
        trace = RequestTrace("batch", max_spans=10)
        addresses = ["41.0.0.2"] * 50
        results = engine.outcome_batch(addresses, trace=trace)
        assert len(results) == 50
        assert trace.span_count() == 10
        assert trace.dropped_spans == 41  # 50 lookups + 1 batch span - 10 kept
        assert trace.path == "plane"

    def test_batch_span_carries_size(self, compiled_indexes):
        engine = ServingEngine(compiled_indexes)
        trace = RequestTrace("batch")
        engine.outcome_batch(["41.0.0.2", "41.0.0.3"], trace=trace)
        batch = trace.to_dict()["spans"][0]
        assert batch["name"] == "batch"
        assert batch["attrs"]["size"] == 2

    @pytest.mark.parametrize(
        ("size", "max_spans"), [(50, 10), (50, 1), (50, 200), (0, 10)]
    )
    def test_spliced_batch_traces_like_outcome_batch(
        self, compiled_indexes, answer_plane, size, max_spans
    ):
        engine = ServingEngine(compiled_indexes, plane=answer_plane)
        addresses = [f"41.0.0.{2 + i % 7}" for i in range(size)]
        general = RequestTrace("batch", max_spans=max_spans)
        outcomes = engine.outcome_batch(addresses, trace=general)
        spliced = RequestTrace("batch", max_spans=max_spans)
        plane, cells = engine.plane_cells(
            [int(parse_address(address)) for address in addresses], trace=spliced
        )
        assert plane is answer_plane
        assert [outcome.cell for outcome in outcomes] == cells
        assert spliced.span_count() == general.span_count()
        assert spliced.dropped_spans == general.dropped_spans
        assert spliced.path == general.path
        trees = [trace.to_dict()["spans"] for trace in (general, spliced)]
        assert [tree[0]["name"] for tree in trees] == ["batch", "batch"]
        assert trees[1][0]["attrs"]["size"] == trees[0][0]["attrs"]["size"] == size
        assert [s["name"] for s in trees[1]] == [s["name"] for s in trees[0]]

    def test_tracez_attributes_a_spliced_batch_to_the_plane(
        self, compiled_indexes, answer_plane
    ):
        engine = ServingEngine(compiled_indexes, plane=answer_plane)
        server = GeoServer(engine, port=0, metrics=MetricsRegistry())
        server.start_background()
        try:
            request = urllib.request.Request(
                server.url + "/batch",
                data=json.dumps({"ips": ["41.0.0.2", "41.0.0.3"]}).encode(),
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                assert response.status == 200
            with urllib.request.urlopen(server.url + "/tracez", timeout=10) as response:
                (trace,) = json.loads(response.read())["slowest"]
            assert trace["endpoint"] == "batch"
            assert trace["path"] == "plane"
            assert [span["name"] for span in trace["spans"]] == [
                "batch", "plane.probe", "plane.probe"
            ]
            assert (
                server.metrics.counter("serve.path", path="plane", endpoint="batch")
                == 1
            )
        finally:
            server.stop()
