"""A stdlib HTTP JSON front end for the serving engine.

Endpoints (all JSON):

* ``GET /lookup?ip=A.B.C.D`` — every database's answer (matched prefix +
  record) plus the consensus block; an answer from a degraded
  generation (a vendor missing at load) says so explicitly via
  ``degraded`` and ``degraded_vendors``;
* ``POST /batch`` — body ``{"ips": [...]}``; per-address results in
  input order, with unparseable addresses inlined as per-item errors
  rather than failing the whole batch;
* ``GET /healthz`` — liveness: served databases, and ``degraded`` while
  the served generation is missing a vendor;
* ``GET /statusz`` — the full ``serve.*`` metrics snapshot (request and
  error counters, per-endpoint latency histograms with p50/p99
  estimates, rolling-window rates over the last 10s/60s, the plane
  block with its memo sizes: ``rendered`` (``/lookup`` prefixes, in
  cells), ``rendered_records`` (answer fragments, in records) and
  ``rendered_answers``/``rendered_answers_bytes`` (``/batch`` answers,
  in cells and bytes)) plus the per-vendor state
  (``healthy`` or ``missing``) and the live snapshot generation (id,
  source, age, swap/rollback counters);
* ``GET /metricsz`` — the same registry in Prometheus text exposition
  format (0.0.4), ready for a real scraper;
* ``GET /tracez`` — span trees for the slowest recent requests, each
  attributed to the path that produced its answer (``plane``/``live``/
  ``degraded``, ``mixed`` for heterogeneous batches).

A healthy ``/lookup`` is parse, bisect, splice.  A strict
``inet_pton`` parse (:func:`~repro.net.ip.strict_address_int`) gives the
address integer; :meth:`ServingEngine.plane_cell` bisects the answer
plane to the precomputed cell; and the body is that cell's rendered
prefix — ``{"answers": …, "consensus": …, "degraded": false,
"degraded_vendors": [], "ip": "`` — followed by the address, the trace
id and ``"}``.  Prefixes are rendered by the same ``_lookup_payload``
plus ``json.dumps(sort_keys=True)`` the general path uses, on a cell's
first request, and memoised on the plane (so per generation), up to
:data:`~repro.serve.plane.RENDERED_CELLS_MAX` cells.  Everything else —
no plane, a degraded generation, an address the strict parser
rejects — takes the general path: resolve, vote, render per request.
``tests/serve/test_lookup_splice.py`` holds both paths to
byte-identical bodies.

A healthy ``/batch`` is parse, bisect, splice too.  Each item is parsed
strictly; one the strict parser rejects goes through ``parse_address``
alone, so a JSON int still gets a cell and anything else (a JSON
boolean included) becomes a per-item error.
:meth:`ServingEngine.plane_cells` bisects every address on one
generation, and the body is one bytes join of item parts.  Each item's
``answers`` is its cell's rendered bytes, read from a third memo on the
plane (:meth:`~repro.serve.plane.AnswerPlane.remember_answers`): a
cell's answers are fixed for a generation, and re-assembling them per
request was 3.4 of the 5.2 µs per address the handler spent outside
HTTP framing.  A cell's
first batch assembles them from pre-encoded vendor keys and, per
answer, the record's rendered fragments (memoised by
:meth:`~repro.serve.plane.AnswerPlane.fragments`) around the encoded
prefix.  Uniform batches touch far more cells than Zipf lookups, so
this memo is capped by bytes
(:data:`~repro.serve.plane.RENDERED_ANSWERS_MAX_BYTES`), and a cell
past the cap is assembled per request.  No plane or a degraded
generation takes the general path: ``outcome_batch``, answer dicts and
one ``json.dumps``.
``tests/serve/test_batch_splice.py`` holds both to byte-identical
bodies.

Serving requests (``/lookup``, ``/batch``) are traced: the handler
honours a client-sent ``X-Request-Id`` (sanitised) or mints one, threads
the :class:`~repro.obs.reqtrace.RequestTrace` through the engine so
plane probes and per-vendor live probes land as span rows,
echoes the id in the ``X-Request-Id`` response header and the JSON body,
and — with ``serve --slow-ms`` — hands a one-line slow-request record to
the server's ``slow_log`` sink (stderr by default) before the response
is written.  Introspection endpoints carry the
``endpoint_class="introspection"`` label on their request/latency
series, keeping monitoring traffic out of the rolling windows and the
serving p99.

Documented status codes: 200 on success; 400 malformed input; 404
unknown route; 405 wrong method on a known route (with ``Allow``); 411
missing, unparseable, or negative Content-Length; 413 oversized batch
or request body; 500 unexpected handler error.  Every 4xx/5xx
increments ``serve.errors``.  The declared body length is validated as
``0 <= length <= MAX_BODY_BYTES`` *before* any read: a negative length
must never reach ``rfile.read`` (``read(-n)`` reads to EOF, which hangs
the worker forever on a keep-alive connection), and a huge one must be
refused without buffering it.

Built on :class:`http.server.ThreadingHTTPServer` — one thread per
request, which the engine tolerates because compiled indexes, planes
and generations are immutable.  :meth:`GeoServer.run` installs
a graceful shutdown path: ``SIGINT``/``KeyboardInterrupt`` drains the
listener and closes the socket instead of dying mid-response.
"""

from __future__ import annotations

import json
import re
import sys
import threading
import time
from email.utils import formatdate
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from json.encoder import encode_basestring_ascii as _encode_string
from typing import Any, Callable
from urllib.parse import parse_qs, urlsplit

from repro.net.ip import IPv4Address, parse_address, strict_address_int
from repro.obs.metrics import MetricsRegistry
from repro.obs.prom import CONTENT_TYPE as _PROM_CONTENT_TYPE
from repro.obs.prom import render_prometheus
from repro.obs.reqtrace import RequestTrace, TraceRing
from repro.serve.engine import ConsensusAnswer, LookupOutcome, ServingEngine
from repro.serve.index import IndexAnswer

__all__ = ["GeoServer", "MAX_BATCH_SIZE", "MAX_BODY_BYTES"]

#: Refuse batches larger than this — a serving endpoint must bound the
#: work one request can demand.
MAX_BATCH_SIZE = 10_000

#: Refuse request bodies larger than this before reading a single byte
#: (a full MAX_BATCH_SIZE batch of dotted quads is well under 256 KiB).
MAX_BODY_BYTES = 1 << 20

#: Known routes per method — the contract behind 404 vs 405.
_ROUTES = {
    "GET": ("/lookup", "/healthz", "/statusz", "/metricsz", "/tracez"),
    "POST": ("/batch",),
}

#: Endpoints that observe the server rather than serve geolocation — their
#: request/error/latency series carry ``endpoint_class="introspection"``
#: so scrape traffic cannot distort the serving windows or p99.
_INTROSPECTION = frozenset({"healthz", "statusz", "metricsz", "tracez"})

#: A client-sent ``X-Request-Id`` is honoured only in this shape — anything
#: else (header injection, unbounded length) gets a freshly minted id.
_TRACE_ID_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")


def _endpoint_class(endpoint: str) -> str:
    return "introspection" if endpoint in _INTROSPECTION else "serving"


# -- precomputed response heads ---------------------------------------------
#
# The stdlib send_response/send_header path re-encodes the status line,
# Server header, Date header, and every per-request header with a fresh
# %-format + .encode() each — and, worse, flushes the header block and the
# body as *two* socket writes.  Under keep-alive the second small write
# can sit behind Nagle waiting on the peer's delayed ACK (~40 ms observed
# in replay), turning sub-ms service into tens of ms on the wire.  The
# serving path therefore assembles the whole response head from
# precomputed byte fragments — status+Server lines cached per status
# code, the Date line re-rendered at most once per second — and sends
# head+body as one write.

_STATUS_HEADS: dict[int, bytes] = {}
_JSON_TYPE_LINE = b"Content-Type: application/json\r\n"
#: (whole-second timestamp, rendered ``Date:`` line) — replaced
#: atomically; a race re-renders the same second's bytes, harmlessly.
_DATE_LINE: tuple[int, bytes] = (0, b"")


def _status_head(status: int) -> bytes:
    head = _STATUS_HEADS.get(status)
    if head is None:
        try:
            phrase = HTTPStatus(status).phrase
        except ValueError:
            phrase = ""
        head = _STATUS_HEADS[status] = (
            f"HTTP/1.1 {status} {phrase}\r\nServer: {_Handler.server_version}\r\n"
        ).encode("latin-1")
    return head


def _date_line() -> bytes:
    global _DATE_LINE
    now = int(time.time())
    second, line = _DATE_LINE
    if second != now:
        line = f"Date: {formatdate(now, usegmt=True)}\r\n".encode("latin-1")
        _DATE_LINE = (now, line)
    return line


def _response_head(
    status: int,
    content_type: str,
    body_length: int,
    trace_id: str | None = None,
    extra_headers: dict[str, str] | None = None,
) -> bytes:
    """The full header block for one response, as a single bytes object.

    Emits exactly what the old send_response/send_header sequence did —
    status line, ``Server``, ``Date``, ``Content-Type``,
    ``Content-Length``, optional ``X-Request-Id``, any extras, blank
    line — so clients observe an identical response shape.
    """
    parts = [
        _status_head(status),
        _date_line(),
        _JSON_TYPE_LINE
        if content_type == "application/json"
        else f"Content-Type: {content_type}\r\n".encode("latin-1"),
        b"Content-Length: %d\r\n" % body_length,
    ]
    if trace_id is not None:
        parts.append(f"X-Request-Id: {trace_id}\r\n".encode("latin-1"))
    if extra_headers:
        for name, value in extra_headers.items():
            parts.append(f"{name}: {value}\r\n".encode("latin-1"))
    parts.append(b"\r\n")
    return b"".join(parts)


def _answer_to_json(answer: IndexAnswer | None) -> dict[str, Any] | None:
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


def _outcome_answers_json(
    names: tuple[str, ...], outcome: LookupOutcome
) -> dict[str, Any]:
    return {name: _answer_to_json(outcome.answers.get(name)) for name in names}


def _consensus_to_json(consensus: ConsensusAnswer) -> dict[str, Any]:
    return {
        "country": consensus.country,
        "country_votes": consensus.country_votes,
        "location": (
            {"latitude": consensus.location.lat, "longitude": consensus.location.lon}
            if consensus.location is not None
            else None
        ),
        "location_votes": consensus.location_votes,
        "voters": consensus.voters,
        "country_disagreement": consensus.country_disagreement,
        "city_disagreement": consensus.city_disagreement,
        "degraded": consensus.degraded,
        "quorum": consensus.quorum,
    }


def _lookup_payload(
    names: tuple[str, ...], outcome: LookupOutcome, consensus: ConsensusAnswer
) -> dict[str, Any]:
    """The ``/lookup`` body without ``ip`` and ``trace_id``.

    The one renderer behind both the general path and the memoised
    per-cell prefixes of the spliced path.
    """
    return {
        "answers": _outcome_answers_json(names, outcome),
        "consensus": _consensus_to_json(consensus),
        "degraded": outcome.degraded,
        "degraded_vendors": list(outcome.unavailable()),
    }


def _cell_prefix(names: tuple[str, ...], cell, address: IPv4Address) -> bytes:
    """A healthy plane cell's ``/lookup`` body up to the ``ip`` value.

    ``ip`` is the last key before ``trace_id`` in sorted order, so the
    body rendered with an empty ``ip`` ends in ``"ip": ""}``; cutting
    the closing ``"}`` leaves the bytes every request for this cell
    starts with.  ``address`` only satisfies the outcome types; no part
    of it is rendered.
    """
    payload = _lookup_payload(
        names, cell.outcome_at(address), cell.consensus_at(address)
    )
    payload["ip"] = ""
    return json.dumps(payload, sort_keys=True)[:-2].encode("utf-8")


#: Stands in for the prefix when a record's answer is rendered once to
#: be cut into fragments; its JSON form cannot occur in a record field's
#: encoding at the ``"prefix": `` key (a value's quotes are escaped).
_PREFIX_MARK = '"prefix": "\\u0000"'


def _record_fragments(record) -> tuple[str, str]:
    """``record``'s rendered answer split around its prefix value.

    Rendered by ``_answer_to_json`` itself with a placeholder prefix, so
    one renderer still defines the answer's shape; ``head`` ends with
    the ``"prefix": `` key and ``tail`` starts after the value.
    """
    rendered = json.dumps(
        _answer_to_json(IndexAnswer(prefix="\0", record=record)), sort_keys=True
    )
    head, tail = rendered.split(_PREFIX_MARK)
    return head + '"prefix": ', tail


def _cell_answers(plane, keys: list[tuple[str, str]], cell) -> bytes:
    """A healthy cell's ``answers`` object, as ``json.dumps`` renders it
    (ASCII, since ``json.dumps`` escapes everything else).

    ``keys`` pairs each vendor, in sorted order, with its encoded key;
    each answer is its record's memoised fragments around the encoded
    prefix.
    """
    fragments = plane.fragments
    answers = cell.answers
    parts = []
    for name, key in keys:
        answer = answers[name]
        if answer is None:
            parts.append(key + "null")
        else:
            head, tail = fragments(answer.record, _record_fragments)
            parts.append(key + head + _encode_string(answer.prefix) + tail)
    return ("{" + ", ".join(parts) + "}").encode("ascii")


def _batch_answers(plane, cells: list) -> list[bytes]:
    """Each healthy cell's rendered ``answers``: one read of the plane's
    per-cell memo, rendered by :func:`_cell_answers` on a miss."""
    keys = [(name, _encode_string(name) + ": ") for name in sorted(plane.names)]
    memo = plane.rendered_answers.get
    rendered = []
    for cell in cells:
        answers = memo(id(cell))
        if answers is None:
            answers = plane.remember_answers(
                cell, _cell_answers(plane, keys, cell)
            )
        rendered.append(answers)
    return rendered


def _batch_body(
    items: list[str | dict[str, str]], answers: list[bytes], trace_id: str
) -> bytes:
    """A healthy ``/batch`` body, byte-identical to ``json.dumps(...,
    sort_keys=True)`` of the general path's response.

    ``items`` holds each input's ``ip`` text (answered by the next of
    ``answers``, in order) or its error item.  Neither the strict-parsed
    or canonical ``ip`` text nor the trace id needs JSON escaping.  The
    body is one join over a flat list of parts: per-item concatenation
    or ``%`` formatting would copy every item's answers once more.
    """
    answers = iter(answers)
    parts = [b'{"count": %d, "results": [' % len(items)]
    extend = parts.extend
    separator = b""
    for item in items:
        if isinstance(item, dict):
            extend((separator, json.dumps(item, sort_keys=True).encode("ascii")))
        else:
            extend(
                (
                    separator,
                    b'{"answers": ',
                    next(answers),
                    b', "ip": "',
                    item.encode("ascii"),
                    b'"}',
                )
            )
        separator = b", "
    parts.append(b'], "trace_id": "%s"}' % trace_id.encode("ascii"))
    return b"".join(parts)


def _stderr_line(line: str) -> None:
    print(line, file=sys.stderr, flush=True)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1"
    #: Responses go out as one write, so Nagle has nothing to batch —
    #: but disable it anyway: any stray small write (an error path, a
    #: future streaming endpoint) must not stall behind a delayed ACK.
    disable_nagle_algorithm = True

    # -- plumbing ------------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        """Per-request stderr chatter is replaced by ``serve.*`` metrics."""

    @property
    def engine(self) -> ServingEngine:
        return self.server.engine  # type: ignore[attr-defined]

    @property
    def metrics(self) -> MetricsRegistry:
        return self.server.metrics  # type: ignore[attr-defined]

    def _send_body(
        self,
        status: int,
        body: bytes,
        content_type: str,
        endpoint: str,
        headers: dict[str, str] | None = None,
    ) -> None:
        trace = getattr(self, "_trace", None)
        head = _response_head(
            status,
            content_type,
            len(body),
            trace.trace_id if trace is not None else None,
            headers,
        )
        if headers and headers.get("Connection") == "close":
            # send_header("Connection", "close") used to flip this flag;
            # writing the raw head must keep the same keep-alive teardown.
            self.close_connection = True
        # All bookkeeping lands BEFORE the response bytes hit the wire:
        # once a client holds its response it must be able to see its own
        # request on /statusz and /tracez.  (The old order was masked by
        # Nagle's delay; the single-write path made the race observable.)
        self._status = status
        endpoint_class = _endpoint_class(endpoint)
        self.metrics.inc(
            "serve.requests",
            endpoint=endpoint,
            endpoint_class=endpoint_class,
            status=status,
        )
        if status >= 400:
            self.metrics.inc(
                "serve.errors", endpoint=endpoint, endpoint_class=endpoint_class
            )
        if trace is not None:
            self._retire_trace(trace, status, endpoint)
        self.wfile.write(head + body)

    def _retire_trace(
        self, trace: RequestTrace, status: int | None, endpoint: str
    ) -> None:
        """Finish a request's trace: count its path, offer it to the
        ring, and emit the slow-request record when it qualifies."""
        self._trace = None
        trace.finish(status=status)
        # Path attribution is counted once per request, here at the
        # edge — never per lookup on the plane hot path.
        path = trace.path or "none"
        self.metrics.inc("serve.path", path=path, endpoint=endpoint)
        server = self.server
        server.traces.record(trace)  # type: ignore[attr-defined]
        slow_ms = server.slow_ms  # type: ignore[attr-defined]
        if slow_ms is not None and trace.duration_ms >= slow_ms:
            server.slow_log(  # type: ignore[attr-defined]
                f"slow request: endpoint={endpoint}"
                f" trace={trace.trace_id} ms={trace.duration_ms:.1f}"
                f" status={trace.status} path={path}"
                f" spans={trace.span_count()}"
            )

    def _send_json(
        self,
        status: int,
        payload: dict[str, Any],
        endpoint: str,
        headers: dict[str, str] | None = None,
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._send_body(status, body, "application/json", endpoint, headers)

    def _timed(self, endpoint: str, handler) -> None:
        trace = None
        if endpoint not in _INTROSPECTION:
            requested = self.headers.get("X-Request-Id")
            trace = RequestTrace(
                endpoint,
                trace_id=(
                    requested
                    if requested and _TRACE_ID_RE.match(requested)
                    else None
                ),
            )
        self._trace = trace
        started = time.perf_counter()
        try:
            handler(endpoint)
        except Exception as exc:  # the server must outlive any one request
            self._send_json(500, {"error": f"internal error: {exc}"}, endpoint)
        finally:
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            self.metrics.observe(
                "serve.latency_ms",
                elapsed_ms,
                endpoint=endpoint,
                endpoint_class=_endpoint_class(endpoint),
            )
            if trace is not None and self._trace is trace:
                # No response ever went out (the socket died before
                # _send_body ran): retain the trace here so the request
                # is still visible to /tracez.
                self._retire_trace(trace, self._status, endpoint)

    def _route(self, method: str) -> None:
        self._trace = None
        self._status = None
        url = urlsplit(self.path)
        path = url.path
        if path not in _ROUTES[method]:
            allowed = [m for m, paths in _ROUTES.items() if path in paths]
            if allowed:
                # Known route, wrong verb: 405 with the Allow header the
                # RFC requires, so clients can self-correct.
                self._send_json(
                    405,
                    {"error": f"{method} not allowed on {path}"},
                    path.lstrip("/"),
                    headers={"Allow": ", ".join(allowed)},
                )
            else:
                self._send_json(
                    404, {"error": f"no such endpoint: {path}"}, "unknown"
                )
            return
        if path == "/lookup":
            self._timed("lookup", lambda ep: self._handle_lookup(url, ep))
        elif path == "/healthz":
            self._timed("healthz", self._handle_healthz)
        elif path == "/statusz":
            self._timed("statusz", self._handle_statusz)
        elif path == "/metricsz":
            self._timed("metricsz", self._handle_metricsz)
        elif path == "/tracez":
            self._timed("tracez", self._handle_tracez)
        elif path == "/batch":
            self._timed("batch", self._handle_batch)

    # -- routes --------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._route("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._route("POST")

    def _handle_lookup(self, url, endpoint: str) -> None:
        query = url.query
        if (
            query.startswith("ip=")
            and "&" not in query
            and "%" not in query
            and "+" not in query
        ):
            # The overwhelmingly common shape — a single plain dotted
            # quad — skips parse_qs (dict + list + decode machinery per
            # request).  Anything percent-encoded, plus-encoded, or
            # multi-parameter falls through to the general parser, which
            # keeps behaviour identical on every non-trivial query.
            ip = query[3:]
            if not ip:
                self._send_json(
                    400,
                    {"error": "exactly one ip=… query parameter required"},
                    endpoint,
                )
                return
        else:
            values = parse_qs(url.query).get("ip", [])
            if len(values) != 1:
                self._send_json(
                    400,
                    {"error": "exactly one ip=… query parameter required"},
                    endpoint,
                )
                return
            ip = values[0]
        engine = self.engine
        trace = self._trace
        addr = strict_address_int(ip)
        hit = engine.plane_cell(addr, trace=trace) if addr is not None else None
        if hit is not None:
            # Healthy plane: the body is the cell's memoised prefix with
            # the address and request id spliced in (serving requests
            # are always traced).  Neither needs JSON escaping: the
            # strict parser admits only digits and dots, and trace ids
            # are [A-Za-z0-9._-] (client) or hex (minted).
            plane, cell = hit
            prefix = plane.rendered(cell)
            if prefix is None:
                prefix = plane.remember(
                    cell, _cell_prefix(plane.names, cell, IPv4Address(addr))
                )
            body = b'%s%s", "trace_id": "%s"}' % (
                prefix,
                ip.encode("ascii"),
                trace.trace_id.encode("ascii"),
            )
            self._send_body(200, body, "application/json", endpoint)
            return
        try:
            outcome = engine.lookup_outcome(ip, trace=trace)
        except ValueError as exc:
            self._send_json(400, {"error": str(exc)}, endpoint)
            return
        payload = _lookup_payload(
            engine.vendor_names(), outcome, engine.consensus_of(outcome)
        )
        payload["ip"] = ip
        if trace is not None:
            payload["trace_id"] = trace.trace_id
        self._send_json(200, payload, endpoint)

    def _handle_batch(self, endpoint: str) -> None:
        try:
            length = int(self.headers.get("Content-Length", ""))
        except ValueError:
            self._send_json(411, {"error": "Content-Length required"}, endpoint)
            return
        if length < 0:
            # int() happily parses "-17"; rfile.read(-17) would read to
            # EOF and hang this worker forever on a keep-alive socket.
            self._send_json(
                411,
                {"error": f"invalid Content-Length: {length}"},
                endpoint,
                headers={"Connection": "close"},
            )
            return
        if length > MAX_BODY_BYTES:
            # Refuse before reading: the body stays unread on the socket,
            # so drop the connection rather than let it poison keep-alive.
            self._send_json(
                413,
                {"error": f"request body too large: {length} > {MAX_BODY_BYTES}"},
                endpoint,
                headers={"Connection": "close"},
            )
            return
        try:
            payload = json.loads(self.rfile.read(length).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._send_json(400, {"error": f"invalid JSON body: {exc}"}, endpoint)
            return
        ips = payload.get("ips") if isinstance(payload, dict) else None
        if not isinstance(ips, list):
            self._send_json(
                400, {"error": 'body must be {"ips": [address, ...]}'}, endpoint
            )
            return
        if len(ips) > MAX_BATCH_SIZE:
            self._send_json(
                413,
                {"error": f"batch too large: {len(ips)} > {MAX_BATCH_SIZE}"},
                endpoint,
            )
            return

        # The strict parser takes the common dotted quad; an item it
        # rejects gets parse_address on its own, which also admits JSON
        # ints and words the per-item error.  Invalid entries come back
        # as per-item errors, not a failed batch.
        engine = self.engine
        trace = self._trace
        items: list[str | dict[str, str]] = []  # "ip" text, or an error item
        addrs: list[int] = []
        for ip in ips:
            addr = strict_address_int(ip)
            if addr is None:
                try:
                    address = parse_address(ip)
                except ValueError as exc:
                    items.append({"ip": str(ip), "error": str(exc)})
                    continue
                addr, ip = int(address), str(address)
            addrs.append(addr)
            items.append(ip)
        hit = engine.plane_cells(addrs, trace=trace)
        if hit is not None:
            body = _batch_body(items, _batch_answers(*hit), trace.trace_id)
            self._send_body(200, body, "application/json", endpoint)
            return
        names = engine.vendor_names()
        outcomes = iter(engine.outcome_batch(addrs, trace=trace))
        results: list[dict[str, Any]] = []
        for item in items:
            if isinstance(item, dict):
                results.append(item)
                continue
            outcome = next(outcomes)
            result: dict[str, Any] = {
                "ip": item,
                "answers": _outcome_answers_json(names, outcome),
            }
            if outcome.degraded:
                result["degraded"] = True
                result["degraded_vendors"] = list(outcome.unavailable())
            results.append(result)
        response: dict[str, Any] = {"count": len(results), "results": results}
        if trace is not None:
            response["trace_id"] = trace.trace_id
        self._send_json(200, response, endpoint)

    def _handle_healthz(self, endpoint: str) -> None:
        engine = self.engine
        degraded = engine.degraded
        self._send_json(
            200,
            {
                "status": "degraded" if degraded else "ok",
                "degraded": degraded,
                "databases": list(engine.database_names()),
            },
            endpoint,
        )

    def _handle_statusz(self, endpoint: str) -> None:
        metrics = self.metrics
        self._send_json(
            200,
            {
                "counters": metrics.counters_snapshot(),
                "histograms": metrics.histograms_snapshot(quantiles=True),
                "families": list(metrics.families()),
                "windows": self.server.windows_block(),  # type: ignore[attr-defined]
                "plane": self.engine.plane_stats(),
                "generation": self.engine.generation_info(),
                "vendors": self.engine.health_snapshot(),
                "traces": {
                    "capacity": self.server.traces.capacity,  # type: ignore[attr-defined]
                    "retained": len(self.server.traces),  # type: ignore[attr-defined]
                },
            },
            endpoint,
        )

    def _handle_metricsz(self, endpoint: str) -> None:
        text = render_prometheus(self.metrics)
        self._send_body(
            200, text.encode("utf-8"), _PROM_CONTENT_TYPE, endpoint
        )

    def _handle_tracez(self, endpoint: str) -> None:
        ring: TraceRing = self.server.traces  # type: ignore[attr-defined]
        slowest = ring.slowest()
        self._send_json(
            200,
            {
                "capacity": ring.capacity,
                "count": len(slowest),
                "slowest": slowest,
            },
            endpoint,
        )


class GeoServer(ThreadingHTTPServer):
    """The serving engine bound to a listening socket.

    ``port=0`` binds an ephemeral port; read :attr:`port` after
    construction.  Use :meth:`run` for a foreground server with graceful
    ``SIGINT`` shutdown (the CLI), or :meth:`start_background` /
    :meth:`stop` from tests.
    """

    daemon_threads = True

    def __init__(
        self,
        engine: ServingEngine,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        metrics: MetricsRegistry | None = None,
        slow_ms: float | None = None,
        slow_log: Callable[[str], None] = _stderr_line,
        trace_capacity: int = 32,
    ):
        super().__init__((host, port), _Handler)
        self.engine = engine
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Requests at least this slow get a one-line record passed to
        #: ``slow_log`` (stderr by default; ``serve --slow-ms``) before
        #: their response is written; ``None`` disables the log.
        self.slow_ms = slow_ms
        self.slow_log = slow_log
        #: The N slowest recent request traces, served on ``/tracez``.
        self.traces = TraceRing(trace_capacity)
        engine.attach_metrics(self.metrics)
        # Rolling windows behind the registry: serving traffic only
        # (endpoint_class filters keep /statusz scrapes out of their own
        # numbers), fed by the request-level inc calls.
        register = self.metrics.track_window
        register("requests", "serve.requests", endpoint_class="serving")
        register("errors", "serve.errors", endpoint_class="serving")
        for path in ("plane", "live", "degraded"):
            register(f"path_{path}", "serve.path", path=path)
        # Staleness gauges: which snapshot generation is live and how old
        # it is, read from the engine at scrape time (a swap mid-scrape
        # just reads whichever generation is live at that instant).
        self.metrics.register_gauge(
            "serve.generation_id", lambda: float(engine.generation_id)
        )
        self.metrics.register_gauge(
            "serve.generation_age_s", lambda: engine.generation_age_s
        )

    def windows_block(self) -> dict[str, Any]:
        """The ``/statusz`` rolling-window view: raw per-alias windows
        plus derived rates (RPS, error rate, plane hit ratio) per horizon."""
        windows = self.metrics.windows_snapshot()

        def total(alias: str, span: str) -> float:
            return windows.get(alias, {}).get(span, {}).get("total", 0.0)

        rates: dict[str, dict[str, float]] = {}
        for span in ("10s", "60s"):
            requests = total("requests", span)
            rates[span] = {
                "rps": round(requests / int(span[:-1]), 6),
                "error_rate": round(
                    total("errors", span) / requests if requests else 0.0, 6
                ),
                "plane_hit_ratio": round(
                    total("path_plane", span) / requests if requests else 0.0, 6
                ),
            }
        return {"aliases": windows, "rates": rates}

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.server_address[0]}:{self.port}"

    def server_close(self) -> None:
        """Release the socket, then shut down the engine's batch pool.

        Part of every shutdown path (:meth:`run` and :meth:`stop` both
        end here), so the persistent batch executor never outlives the
        server that was feeding it.  Engine ``close`` is idempotent.
        """
        super().server_close()
        self.engine.close()

    def run(self) -> None:
        """Serve until ``KeyboardInterrupt``, then drain and close."""
        try:
            self.serve_forever(poll_interval=0.2)
        except KeyboardInterrupt:
            pass
        finally:
            self.server_close()

    def start_background(self) -> threading.Thread:
        """Serve from a daemon thread; pair with :meth:`stop`."""
        thread = threading.Thread(
            target=self.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        thread.start()
        return thread

    def stop(self) -> None:
        """Stop the background listener and release the socket."""
        self.shutdown()
        self.server_close()
