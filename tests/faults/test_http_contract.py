"""The HTTP API's documented error contract, hostile-client edition.

Status codes are part of the serving contract: 400 malformed input, 404
unknown route, 405 wrong verb (with ``Allow``), 411 missing
Content-Length, 413 oversized batch — and every 4xx/5xx increments
``serve.errors``.  A generation missing a vendor is not an error: it
answers 200 with the degradation flagged on every surface.  These tests speak raw
``http.client`` so nothing in a client library papers over a wrong
code, and they assert the counters moved.
"""

import http.client
import json
import time

import pytest

from repro.net.ip import IPv4Address
from repro.obs import MetricsRegistry
from repro.serve import GeoServer, ServingEngine
from repro.serve.http import MAX_BATCH_SIZE

from tests.serve.test_lookup_splice import Client, reference_body


@pytest.fixture(scope="module")
def server(compiled_indexes):
    server = GeoServer(
        ServingEngine(compiled_indexes), port=0, metrics=MetricsRegistry()
    )
    server.start_background()
    yield server
    server.stop()


def raw_request(server, method, path, body=None, headers=None):
    connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
    try:
        connection.request(method, path, body=body, headers=headers or {})
        response = connection.getresponse()
        payload = json.loads(response.read().decode("utf-8"))
        return response.status, dict(response.getheaders()), payload
    finally:
        connection.close()


def errors_counted(server, endpoint, at_least=0, timeout=2.0):
    """The ``serve.errors`` count for ``endpoint``.

    The handler increments *after* writing the response, so a client
    that just read the body can race the counter by a hair; poll until
    it reaches ``at_least`` (or the timeout proves it never will).
    """
    endpoint_class = (
        "introspection"
        if endpoint in {"healthz", "statusz", "metricsz", "tracez"}
        else "serving"
    )
    deadline = time.monotonic() + timeout
    while True:
        count = server.metrics.counter(
            "serve.errors", endpoint=endpoint, endpoint_class=endpoint_class
        )
        if count >= at_least or time.monotonic() >= deadline:
            return count
        time.sleep(0.005)


class TestMalformedInput:
    def test_batch_with_non_json_body_is_400(self, server):
        before = errors_counted(server, "batch")
        status, _, body = raw_request(server, "POST", "/batch", body=b"{not json!")
        assert status == 400
        assert "invalid JSON" in body["error"]
        assert errors_counted(server, "batch", at_least=before + 1) == before + 1

    def test_batch_with_json_non_object_is_400(self, server):
        status, _, body = raw_request(server, "POST", "/batch", body=b'[1, 2, 3]')
        assert status == 400
        assert '"ips"' in body["error"]

    def test_batch_without_content_length_is_411(self, server):
        before = errors_counted(server, "batch")
        # http.client's request() always adds Content-Length to a POST,
        # so speak the wire protocol directly to really omit the header.
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=10
        )
        try:
            connection.putrequest("POST", "/batch")
            connection.endheaders()
            response = connection.getresponse()
            body = json.loads(response.read().decode("utf-8"))
            assert response.status == 411
        finally:
            connection.close()
        assert "Content-Length" in body["error"]
        assert errors_counted(server, "batch", at_least=before + 1) == before + 1

    def test_lookup_with_repeated_ip_parameter_is_400(self, server):
        status, _, body = raw_request(server, "GET", "/lookup?ip=1.1.1.1&ip=2.2.2.2")
        assert status == 400
        assert "exactly one" in body["error"]

    def test_lookup_with_unparseable_ip_is_400(self, server):
        status, _, body = raw_request(server, "GET", "/lookup?ip=999.0.0.1")
        assert status == 400
        assert "not an IPv4 address" in body["error"]


class TestContentLength:
    """Hostile Content-Length values, validated before any body read.

    The original handler passed the parsed header straight to
    ``rfile.read``: a negative value reads to EOF, which on a keep-alive
    connection blocks the worker thread until the client goes away.
    Both hostile shapes must now be refused up front, on a connection
    the server then closes.
    """

    def test_negative_content_length_is_411_not_a_hang(self, server):
        before = errors_counted(server, "batch")
        # http.client would refuse to send a bogus header via request(),
        # so build the request by hand; the short timeout is the real
        # assertion — the unfixed server never responds.
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=5
        )
        try:
            connection.putrequest("POST", "/batch")
            connection.putheader("Content-Length", "-5")
            connection.endheaders()
            response = connection.getresponse()
            body = json.loads(response.read().decode("utf-8"))
            assert response.status == 411
            assert "invalid Content-Length" in body["error"]
            assert response.getheader("Connection") == "close"
        finally:
            connection.close()
        assert errors_counted(server, "batch", at_least=before + 1) == before + 1

    def test_oversized_declared_length_is_413_without_reading(self, server):
        from repro.serve.http import MAX_BODY_BYTES

        before = errors_counted(server, "batch")
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=5
        )
        try:
            # Declare a huge body but never send a byte: the server must
            # answer from the header alone instead of waiting for data.
            connection.putrequest("POST", "/batch")
            connection.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            connection.endheaders()
            response = connection.getresponse()
            body = json.loads(response.read().decode("utf-8"))
            assert response.status == 413
            assert "request body too large" in body["error"]
            assert response.getheader("Connection") == "close"
        finally:
            connection.close()
        assert errors_counted(server, "batch", at_least=before + 1) == before + 1

    def test_zero_content_length_is_an_ordinary_400(self, server):
        """Zero is a *valid* length — the empty body then fails JSON
        parsing, not the length gate."""
        status, _, body = raw_request(
            server, "POST", "/batch", body=b"", headers={"Content-Length": "0"}
        )
        assert status == 400
        assert "invalid JSON" in body["error"]


class TestRouting:
    def test_unknown_route_is_404_and_counted(self, server):
        before = errors_counted(server, "unknown")
        status, _, body = raw_request(server, "GET", "/admin")
        assert status == 404
        assert "no such endpoint" in body["error"]
        assert errors_counted(server, "unknown", at_least=before + 1) == before + 1

    def test_wrong_method_on_lookup_is_405_with_allow(self, server):
        status, headers, body = raw_request(server, "POST", "/lookup?ip=1.1.1.1")
        assert status == 405
        assert headers.get("Allow") == "GET"
        assert "not allowed" in body["error"]

    def test_wrong_method_on_batch_is_405_with_allow(self, server):
        status, headers, _ = raw_request(server, "GET", "/batch")
        assert status == 405
        assert headers.get("Allow") == "POST"

    def test_405_is_counted_against_the_route(self, server):
        before = errors_counted(server, "healthz")
        status, _, _ = raw_request(server, "POST", "/healthz")
        assert status == 405
        assert errors_counted(server, "healthz", at_least=before + 1) == before + 1


class TestLimits:
    def test_oversized_batch_is_413_and_counted(self, server):
        before = errors_counted(server, "batch")
        body = json.dumps({"ips": ["1.1.1.1"] * (MAX_BATCH_SIZE + 1)}).encode()
        status, _, payload = raw_request(server, "POST", "/batch", body=body)
        assert status == 413
        assert "batch too large" in payload["error"]
        assert errors_counted(server, "batch", at_least=before + 1) == before + 1

    def test_batch_at_the_limit_is_accepted(self, server):
        body = json.dumps({"ips": ["1.1.1.1"] * 10}).encode()
        status, _, payload = raw_request(server, "POST", "/batch", body=body)
        assert status == 200
        assert payload["count"] == 10


class TestDegradedGeneration:
    def test_missing_vendor_is_flagged_until_a_full_swap(
        self, compiled_indexes, answer_plane
    ):
        """A generation booted without one vendor says so everywhere —
        /healthz, the /statusz vendors block, an inactive plane, every
        /lookup — and a swap to the full set puts /lookup back on the
        spliced plane path, byte-identical to the per-request vote."""
        names = sorted(compiled_indexes)
        missing = names[0]
        served = {name: compiled_indexes[name] for name in names[1:]}
        engine = ServingEngine(served, plane=answer_plane, expected=names)
        reference = ServingEngine(compiled_indexes)
        server = GeoServer(engine, port=0, metrics=MetricsRegistry())
        server.start_background()
        client = Client(server)
        try:
            status, _, health = raw_request(server, "GET", "/healthz")
            assert status == 200
            assert health["status"] == "degraded" and health["degraded"]
            _, _, statusz = raw_request(server, "GET", "/statusz")
            assert statusz["plane"]["active"] is False
            assert statusz["vendors"] == {
                name: {"state": "missing" if name == missing else "healthy"}
                for name in names
            }
            _, _, body = raw_request(server, "GET", "/lookup?ip=41.0.0.2")
            assert body["degraded"] is True
            assert body["degraded_vendors"] == [missing]
            assert server.metrics.counter("plane.hits") == 0

            engine.swap(compiled_indexes, answer_plane)
            _, _, health = raw_request(server, "GET", "/healthz")
            assert health["status"] == "ok" and not health["degraded"]
            _, _, statusz = raw_request(server, "GET", "/statusz")
            assert statusz["plane"]["active"] is True
            assert {v["state"] for v in statusz["vendors"].values()} == {"healthy"}
            starts = answer_plane.parts()[0][::97]
            addresses = [str(IPv4Address(start)) for start in starts]
            for ip in addresses:
                status, _, raw = client.lookup(f"ip={ip}", "healed")
                assert status == 200
                assert raw == reference_body(reference, ip, "healed"), ip
            assert server.metrics.counter("plane.hits") == len(addresses)
        finally:
            client.close()
            server.stop()
            reference.close()
