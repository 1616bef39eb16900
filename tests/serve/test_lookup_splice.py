"""Differential oracle for ``GET /lookup`` response bodies.

Every body the server sends must be byte-identical to a reference built
the slow way: a plane-less engine's ``lookup_outcome`` plus
``consensus_of`` (a fresh majority vote per address), rendered here with
``json.dumps(sort_keys=True)``.  The reference shares no rendering code
with the server, so any shortcut the healthy path takes (precomputed
consensus, memoised JSON fragments, a faster address parser) is checked
against the per-request vote it replaces.

Covered: the start address of every answer-plane interval, class-E
misses (all-``None`` cells), client-sent and minted request ids (header
echo included), a percent-encoded query, and a generation with one
vendor missing (the degraded live path).  The ``serve.lookups``,
``serve.consensus`` and ``plane.hits`` counters must stay exact across
repeated (warm) and first-time (cold) addresses, and bodies must not
change once the per-plane memo of rendered cells is full.
"""

import http.client
import json
import re

import pytest

from repro.net.ip import IPv4Address
from repro.obs import MetricsRegistry
from repro.serve import GeoServer, ServingEngine, compile_plane
from repro.serve import plane as plane_module

CLASS_E = ("240.0.0.0", "240.0.0.1", "250.1.2.3", "255.255.255.254")


def _answer(answer):
    if answer is None:
        return None
    record = answer.record
    return {
        "prefix": answer.prefix,
        "country": record.country,
        "region": record.region,
        "city": record.city,
        "latitude": record.latitude,
        "longitude": record.longitude,
        "resolution": record.resolution.value,
    }


def _consensus(consensus):
    location = consensus.location
    return {
        "country": consensus.country,
        "country_votes": consensus.country_votes,
        "location": (
            None
            if location is None
            else {"latitude": location.lat, "longitude": location.lon}
        ),
        "location_votes": consensus.location_votes,
        "voters": consensus.voters,
        "country_disagreement": consensus.country_disagreement,
        "city_disagreement": consensus.city_disagreement,
        "degraded": consensus.degraded,
        "quorum": consensus.quorum,
    }


def reference_body(engine: ServingEngine, ip: str, trace_id: str) -> bytes:
    """The ``/lookup`` body for ``ip``, resolved and voted per request."""
    outcome = engine.lookup_outcome(ip)
    consensus = engine.consensus_of(outcome)
    payload = {
        "ip": ip,
        "answers": {
            name: _answer(outcome.answers.get(name))
            for name in engine.vendor_names()
        },
        "consensus": _consensus(consensus),
        "degraded": outcome.degraded,
        "degraded_vendors": list(outcome.unavailable()),
        "trace_id": trace_id,
    }
    return json.dumps(payload, sort_keys=True).encode("utf-8")


class Client:
    """One keep-alive connection returning raw status, id header, body."""

    def __init__(self, server: GeoServer):
        host, port = server.server_address[:2]
        self._conn = http.client.HTTPConnection(host, port, timeout=10)

    def lookup(self, query: str, request_id: str | None = None):
        headers = {"X-Request-Id": request_id} if request_id else {}
        self._conn.request("GET", f"/lookup?{query}", headers=headers)
        response = self._conn.getresponse()
        return response.status, response.getheader("X-Request-Id"), response.read()

    def close(self) -> None:
        self._conn.close()


@pytest.fixture(scope="module")
def plane(compiled_indexes):
    """A plane of this module's own: no other module's traffic touches it."""
    return compile_plane(compiled_indexes)


@pytest.fixture(scope="module")
def reference(compiled_indexes):
    """No plane, no cache: every lookup resolves and votes live."""
    engine = ServingEngine(compiled_indexes)
    yield engine
    engine.close()


@pytest.fixture(scope="module")
def served(compiled_indexes, plane):
    server = GeoServer(
        ServingEngine(compiled_indexes, plane=plane), port=0, metrics=MetricsRegistry()
    )
    server.start_background()
    client = Client(server)
    yield server, client
    client.close()
    server.stop()


def _counts(metrics: MetricsRegistry) -> tuple[int, int, int]:
    return (
        metrics.counter("serve.lookups"),
        metrics.counter("serve.consensus"),
        metrics.counter("plane.hits"),
    )


class TestHealthyPlane:
    def test_every_plane_interval_start(self, served, reference, plane):
        server, client = served
        starts = plane.parts()[0]
        before = _counts(server.metrics)
        for i, start in enumerate(starts):
            ip = str(IPv4Address(start))
            request_id = f"interval-{i}"
            status, echoed, body = client.lookup(f"ip={ip}", request_id)
            assert status == 200, ip
            assert echoed == request_id
            assert body == reference_body(reference, ip, request_id), ip
        after = _counts(server.metrics)
        # Every one of them rode the plane, not the live fallback.
        assert [b - a for a, b in zip(before, after)] == [len(starts)] * 3

    def test_class_e_misses(self, served, reference):
        _, client = served
        for ip in CLASS_E:
            outcome = reference.lookup_outcome(ip)
            assert all(answer is None for answer in outcome.answers.values())
            status, _, body = client.lookup(f"ip={ip}", "class-e")
            assert status == 200
            assert body == reference_body(reference, ip, "class-e")

    def test_minted_request_id_matches_header(self, served, reference):
        _, client = served
        status, echoed, body = client.lookup("ip=41.0.0.2")
        assert status == 200
        assert re.fullmatch(r"[0-9a-f]{16}", echoed)
        assert body == reference_body(reference, "41.0.0.2", echoed)

    def test_unsanitary_request_id_is_replaced(self, served, reference):
        _, client = served
        status, echoed, body = client.lookup("ip=41.0.0.2", "bad/id")
        assert status == 200
        assert echoed != "bad/id"
        assert body == reference_body(reference, "41.0.0.2", echoed)

    @pytest.mark.parametrize(
        "query",
        ["ip=%34%31.0.0.2", "ip=41%2E0%2E0%2E2", "ip=41.0.0.2&"],
    )
    def test_percent_encoded_and_general_queries(self, served, reference, query):
        _, client = served
        status, _, body = client.lookup(query, "encoded")
        assert status == 200
        assert body == reference_body(reference, "41.0.0.2", "encoded")

    def test_counters_exact_across_cold_and_warm_hits(
        self, compiled_indexes, reference
    ):
        plane = compile_plane(compiled_indexes)
        server = GeoServer(
            ServingEngine(compiled_indexes, plane=plane),
            port=0,
            metrics=MetricsRegistry(),
        )
        server.start_background()
        client = Client(server)
        try:
            starts = plane.parts()[0]
            picked = [str(IPv4Address(start)) for start in starts[::50]]
            inside = [
                str(IPv4Address(min(start + 1, 2**32 - 1))) for start in starts[1::50]
            ]
            # First sight of each cell, then repeats, then new addresses
            # inside already-seen and not-yet-seen intervals.
            mix = picked + picked + inside + picked[::-1]
            for ip in mix:
                status, _, body = client.lookup(f"ip={ip}", "mix")
                assert status == 200
                assert body == reference_body(reference, ip, "mix"), ip
            assert _counts(server.metrics) == (len(mix),) * 3
            cells = {id(plane.lookup(ip)) for ip in mix}
            assert server.engine.plane_stats()["rendered"] == len(cells)
        finally:
            client.close()
            server.stop()

    def test_memo_cap_keeps_bodies_identical(
        self, compiled_indexes, reference, monkeypatch
    ):
        monkeypatch.setattr(plane_module, "RENDERED_CELLS_MAX", 3)
        plane = compile_plane(compiled_indexes)
        server = GeoServer(ServingEngine(compiled_indexes, plane=plane), port=0)
        server.start_background()
        client = Client(server)
        try:
            starts = plane.parts()[0][::97]
            for ip in [str(IPv4Address(start)) for start in starts] * 2:
                status, _, body = client.lookup(f"ip={ip}", "capped")
                assert status == 200
                assert body == reference_body(reference, ip, "capped"), ip
            assert plane.rendered_count == 3
        finally:
            client.close()
            server.stop()


class TestDegradedGeneration:
    @pytest.fixture(scope="class")
    def degraded(self, compiled_indexes, plane):
        names = sorted(compiled_indexes)
        served = {name: compiled_indexes[name] for name in names[1:]}
        engine = ServingEngine(served, plane=plane, expected=names)
        reference = ServingEngine(served, expected=names)
        server = GeoServer(engine, port=0, metrics=MetricsRegistry())
        server.start_background()
        client = Client(server)
        yield server, client, reference, names[0]
        client.close()
        server.stop()
        reference.close()

    def test_bodies_match_and_name_the_missing_vendor(self, degraded, plane):
        server, client, reference, missing = degraded
        starts = plane.parts()[0]
        addresses = [str(IPv4Address(start)) for start in starts[::7]]
        for ip in [*addresses, *CLASS_E]:
            status, echoed, body = client.lookup(f"ip={ip}", "degraded")
            assert status == 200
            assert echoed == "degraded"
            assert body == reference_body(reference, ip, "degraded"), ip
            payload = json.loads(body)
            assert payload["degraded"] is True
            assert payload["degraded_vendors"] == [missing]
        assert server.metrics.counter("plane.hits") == 0
