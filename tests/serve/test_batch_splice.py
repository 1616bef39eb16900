"""Differential oracle for ``POST /batch`` response bodies.

Every body the server sends must be byte-identical to a reference built
the slow way: a plane-less engine's ``outcome_batch`` over the items
``parse_address`` accepts, with the rest inlined as per-item errors,
rendered here with ``json.dumps(sort_keys=True)``.  The reference shares
no rendering code with the server, so the healthy path's shortcuts
(strict parse, per-record memoised fragments, a byte join in place of
one ``json.dumps``) are checked against the general rendering they
replace.

Covered: every answer-plane interval start (in chunks), class-E misses,
mixed batches (bad strings, JSON ints, non-string items, duplicates),
the empty batch, a record whose city and region need escaping, a
generation with one vendor missing (the general path), and a swap
between generations.  ``serve.lookups``, ``plane.hits``,
``serve.batch_lookups`` and the ``serve.batch_size`` count must stay
exact, with ``serve.consensus`` untouched.
"""

import http.client
import json

import pytest

from repro.geodb import GeoDatabase, GeoRecord, single_prefix
from repro.net.ip import IPv4Address, parse_address
from repro.obs import MetricsRegistry
from repro.serve import CompiledIndex, GeoServer, ServingEngine, compile_plane

from tests.serve.test_lookup_splice import CLASS_E, _answer

CHUNK = 64


def reference_body(engine: ServingEngine, ips: list, trace_id: str) -> bytes:
    """The ``/batch`` body for ``ips``, resolved by ``outcome_batch``."""
    results: list = [None] * len(ips)
    valid = []
    for i, ip in enumerate(ips):
        try:
            valid.append((i, parse_address(ip)))
        except ValueError as exc:
            results[i] = {"ip": str(ip), "error": str(exc)}
    outcomes = engine.outcome_batch([address for _, address in valid])
    for (i, address), outcome in zip(valid, outcomes):
        item = {
            "ip": str(address),
            "answers": {
                name: _answer(outcome.answers.get(name))
                for name in engine.vendor_names()
            },
        }
        if outcome.degraded:
            item["degraded"] = True
            item["degraded_vendors"] = list(outcome.unavailable())
        results[i] = item
    payload = {"count": len(results), "results": results, "trace_id": trace_id}
    return json.dumps(payload, sort_keys=True).encode("utf-8")


class Client:
    """One keep-alive connection posting raw batches."""

    def __init__(self, server: GeoServer):
        host, port = server.server_address[:2]
        self._conn = http.client.HTTPConnection(host, port, timeout=10)

    def batch(self, ips: list, request_id: str):
        self._conn.request(
            "POST",
            "/batch",
            body=json.dumps({"ips": ips}).encode("utf-8"),
            headers={"X-Request-Id": request_id},
        )
        response = self._conn.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self._conn.close()


def serve(engine: ServingEngine):
    server = GeoServer(engine, port=0, metrics=MetricsRegistry())
    server.start_background()
    return server, Client(server)


def _counts(metrics: MetricsRegistry) -> tuple[int, ...]:
    sizes = metrics.histograms_snapshot().get("serve.batch_size", {})
    return (
        metrics.counter("serve.lookups"),
        metrics.counter("plane.hits"),
        metrics.counter("serve.batch_lookups"),
        sizes.get("count", 0),
        metrics.counter("serve.consensus"),
    )


@pytest.fixture(scope="module")
def plane(compiled_indexes):
    """A plane of this module's own: no other module's traffic touches it."""
    return compile_plane(compiled_indexes)


@pytest.fixture(scope="module")
def reference(compiled_indexes):
    """No plane: every address resolves per vendor."""
    engine = ServingEngine(compiled_indexes)
    yield engine
    engine.close()


@pytest.fixture(scope="module")
def served(compiled_indexes, plane):
    server, client = serve(ServingEngine(compiled_indexes, plane=plane))
    yield server, client
    client.close()
    server.stop()


class TestHealthyPlane:
    def test_every_plane_interval_start(self, served, reference, plane):
        server, client = served
        starts = [str(IPv4Address(start)) for start in plane.parts()[0]]
        before = _counts(server.metrics)
        batches = [starts[i : i + CHUNK] for i in range(0, len(starts), CHUNK)]
        for n, ips in enumerate(batches):
            status, body = client.batch(ips, f"chunk-{n}")
            assert status == 200
            assert body == reference_body(reference, ips, f"chunk-{n}"), ips[0]
        after = _counts(server.metrics)
        assert [b - a for a, b in zip(before, after)] == [
            len(starts),
            len(starts),
            len(batches),
            len(batches),
            0,
        ]
        assert server.engine.plane_stats()["rendered"] == 0
        assert 0 < plane.rendered_record_count <= len(
            {
                id(answer.record)
                for cell in plane.parts()[2]
                for answer in cell.answers.values()
                if answer is not None
            }
        )

    def test_class_e_misses(self, served, reference):
        _, client = served
        status, body = client.batch(list(CLASS_E), "class-e")
        assert status == 200
        assert body == reference_body(reference, list(CLASS_E), "class-e")
        assert all(
            answer is None
            for item in json.loads(body)["results"]
            for answer in item["answers"].values()
        )

    def test_mixed_batch(self, served, reference):
        server, client = served
        ips = [
            "41.0.0.2",
            "not-an-ip",
            687865858,  # a JSON int: 41.0.0.2
            "41.0.0.2",  # duplicate
            None,
            ["41.0.0.2"],
            {"ip": "41.0.0.2"},
            "041.0.0.2",
            " 41.0.0.2",
            "1.2.3",
            "256.0.0.1",
            "ünïcode",
            'quote"back\\slash',
            -1,
            2**32,
            1.5,
            "240.0.0.1",
        ]
        before = _counts(server.metrics)
        status, body = client.batch(ips, "mixed")
        assert status == 200
        assert body == reference_body(reference, ips, "mixed")
        results = json.loads(body)["results"]
        answered = sum("answers" in item for item in results)
        assert results[2]["ip"] == "41.0.0.2"
        after = _counts(server.metrics)
        assert [b - a for a, b in zip(before, after)] == [
            answered,
            answered,
            1,
            1,
            0,
        ]

    def test_empty_batch(self, served, reference):
        server, client = served
        before = _counts(server.metrics)
        status, body = client.batch([], "empty")
        assert status == 200
        assert body == reference_body(reference, [], "empty")
        after = _counts(server.metrics)
        assert [b - a for a, b in zip(before, after)] == [0, 0, 1, 1, 0]

    def test_large_batch_never_creates_the_pool(self, served, reference, plane):
        server, client = served
        starts = plane.parts()[0]
        ips = [str(IPv4Address(start)) for start in starts[:512]]
        assert len(ips) > server.engine.batch_threshold
        status, body = client.batch(ips, "large")
        assert status == 200
        assert body == reference_body(reference, ips, "large")
        assert server.engine._pool is None

    def test_statusz_reports_the_record_memo(self, served, plane):
        server, client = served
        client.batch(["41.0.0.2"], "statusz")
        block = server.engine.plane_stats()
        assert block["rendered_records"] == plane.rendered_record_count > 0


def _toy(city: str, region: str) -> dict[str, CompiledIndex]:
    """Two vendors over a few prefixes, one record needing escaping."""
    tricky = GeoRecord(
        country="DE",
        region=region,
        city=city,
        latitude=52.52,
        longitude=13.405,
    )
    plain = GeoRecord(country="US")
    return {
        "A-Vendor": CompiledIndex.compile(
            GeoDatabase(
                "A-Vendor",
                [
                    single_prefix("10.0.0.0/8", plain),
                    single_prefix("10.1.0.0/16", tricky),
                ],
            )
        ),
        "B-Vendor": CompiledIndex.compile(
            GeoDatabase("B-Vendor", [single_prefix("10.1.2.0/24", tricky)])
        ),
    }


TOY_IPS = ["10.0.0.1", "10.1.0.1", "10.1.2.3", "10.1.3.4", "11.0.0.1"]


class TestEscapingAndSwap:
    def test_non_ascii_quote_and_backslash(self):
        indexes = _toy('Zürich "Alt"\\stadt', "Île-de-\\France\"")
        reference = ServingEngine(indexes)
        server, client = serve(ServingEngine(indexes, plane=compile_plane(indexes)))
        try:
            status, body = client.batch(TOY_IPS, "escape")
            assert status == 200
            assert body == reference_body(reference, TOY_IPS, "escape")
            assert json.loads(body)["results"][1]["answers"]["A-Vendor"][
                "city"
            ] == 'Zürich "Alt"\\stadt'
        finally:
            client.close()
            server.stop()

    def test_swap_renders_from_the_new_generation(self):
        old = _toy("Berlin", "Berlin")
        new = _toy("München", "Bayern")
        old_plane, new_plane = compile_plane(old), compile_plane(new)
        engine = ServingEngine(old, plane=old_plane)
        server, client = serve(engine)
        try:
            _, body = client.batch(TOY_IPS, "before")
            assert body == reference_body(ServingEngine(old), TOY_IPS, "before")
            memo = old_plane.rendered_record_count
            engine.swap(new, new_plane)
            _, body = client.batch(TOY_IPS, "after")
            assert body == reference_body(ServingEngine(new), TOY_IPS, "after")
            assert "Berlin" not in body.decode("utf-8")
            assert old_plane.rendered_record_count == memo
            assert new_plane.rendered_record_count > 0
        finally:
            client.close()
            server.stop()


class TestDegradedGeneration:
    def test_general_path_matches_and_flags(self, compiled_indexes, plane):
        names = sorted(compiled_indexes)
        survivors = {name: compiled_indexes[name] for name in names[1:]}
        reference = ServingEngine(survivors, expected=names)
        server, client = serve(
            ServingEngine(survivors, plane=plane, expected=names)
        )
        memo = plane.rendered_record_count
        try:
            starts = plane.parts()[0]
            ips = [str(IPv4Address(start)) for start in starts[::7]]
            ips += [*CLASS_E, "bogus", 687865858]
            for i in range(0, len(ips), CHUNK):
                chunk = ips[i : i + CHUNK]
                status, body = client.batch(chunk, "degraded")
                assert status == 200
                assert body == reference_body(reference, chunk, "degraded")
                for item in json.loads(body)["results"]:
                    if "answers" in item:
                        assert item["degraded_vendors"] == [names[0]]
            assert server.metrics.counter("plane.hits") == 0
            assert plane.rendered_record_count == memo
        finally:
            client.close()
            server.stop()
            reference.close()
