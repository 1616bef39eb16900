"""Replay-driver tests against a tiny live server."""

from __future__ import annotations

import pytest

from repro.loadgen import ReplayConfig, WorkloadConfig, ZipfWorkload, replay
from repro.serve import CompiledIndex, ServingEngine, compile_plane
from repro.serve.http import GeoServer


@pytest.fixture(scope="module")
def live(small_scenario):
    indexes = {
        name: CompiledIndex.compile(database)
        for name, database in sorted(small_scenario.databases.items())
    }
    server = GeoServer(ServingEngine(indexes, plane=compile_plane(indexes)))
    server.start_background()
    pool = [
        start
        for start, _end, answer in indexes["MaxMind-Paid"].intervals()
        if answer >= 0
    ][:256]
    yield server, pool
    server.stop()


class TestReplay:
    def test_replay_reports_clean_run(self, live):
        server, pool = live
        workload = ZipfWorkload(pool, WorkloadConfig(seed=4, zipf_s=1.1))
        report = replay(
            server.url,
            workload.addresses(),
            ReplayConfig(rate=150.0, duration_s=1.5, clients=3),
        )
        assert report.requests == 225
        assert report.errors == 0
        assert report.error_rate == 0.0
        assert report.completed == report.requests
        # Open-loop: the driver must sustain the offered rate against a
        # healthy local server (sub-ms service, generous margin for CI).
        assert report.achieved_rps >= 0.6 * report.offered_rps
        for key in ("p50", "p90", "p99", "p999", "max", "mean"):
            assert report.latency_ms[key] >= 0.0
            assert report.service_ms[key] >= 0.0
        # Schedule-relative latency can never undercut on-wire latency.
        assert report.latency_ms["p50"] >= report.service_ms["p50"]

    def test_statusz_scrape_agrees_with_client(self, live):
        server, pool = live
        workload = ZipfWorkload(pool, WorkloadConfig(seed=6))
        report = replay(
            server.url,
            workload.addresses(),
            ReplayConfig(rate=120.0, duration_s=1.0, clients=2),
        )
        assert report.server is not None
        rates = report.server["rates"]["10s"]
        assert rates["error_rate"] == 0.0
        # The whole run fits inside the 10s window, so the server's
        # request total (rps × 10) must cover this run's requests.  The
        # module server is shared across tests, so earlier traffic can
        # only push the window total higher, never lower.
        assert rates["rps"] * 10.0 >= report.requests * 0.8
        assert report.server["generation"] == server.engine.generation_id

    def test_uncovered_traffic_is_not_an_error(self, live):
        server, pool = live
        workload = ZipfWorkload(pool, WorkloadConfig(seed=8, miss_fraction=1.0))
        report = replay(
            server.url,
            workload.addresses(),
            ReplayConfig(rate=60.0, duration_s=0.5, clients=2),
        )
        # Every lookup missed every vendor — that is a valid 200 answer
        # (all-null), not a serving error.
        assert report.errors == 0

    def test_finite_pool_is_cycled(self, live):
        server, _pool = live
        report = replay(
            server.url,
            ["10.0.0.1", "10.0.0.2"],
            ReplayConfig(rate=40.0, duration_s=0.5, clients=2),
        )
        assert report.requests == 20
        assert report.errors == 0

    def test_unreachable_server_counts_errors(self):
        report = replay(
            "http://127.0.0.1:1",
            ["10.0.0.1"],
            ReplayConfig(rate=20.0, duration_s=0.25, clients=1, timeout_s=0.5),
            scrape=False,
        )
        assert report.errors == report.requests
        assert report.error_rate == 1.0
        assert report.server is None

    def test_url_without_port_rejected(self):
        with pytest.raises(ValueError, match="host:port"):
            replay("http://localhost", ["10.0.0.1"], ReplayConfig())

    def test_empty_stream_rejected(self, live):
        server, _pool = live
        with pytest.raises(ValueError, match="non-empty"):
            replay(server.url, [], ReplayConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError, match="rate"):
            ReplayConfig(rate=0)
        with pytest.raises(ValueError, match="duration"):
            ReplayConfig(duration_s=-1)
        with pytest.raises(ValueError, match="clients"):
            ReplayConfig(clients=0)
        with pytest.raises(ValueError, match="timeout"):
            ReplayConfig(timeout_s=0)

    def test_report_round_trips_to_dict(self, live):
        server, pool = live
        report = replay(
            server.url,
            ZipfWorkload(pool, WorkloadConfig(seed=2)).addresses(),
            ReplayConfig(rate=30.0, duration_s=0.3, clients=1),
        )
        payload = report.to_dict()
        assert payload["requests"] == report.requests
        assert payload["latency_ms"]["p99"] == report.latency_ms["p99"]
        rendered = report.render()
        assert "achieved" in rendered and "p99" in rendered
