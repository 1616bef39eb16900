"""The ``lookup`` and ``batch`` workloads: a ``repro serve`` child under load.

Set-up builds the 100K-interface streamed tier in this process, saves
its snapshots (``*.rgix`` plus ``plane.rgpl``) into a scratch directory
of the checkout, starts ``python -m repro serve --snapshots DIR`` as a
child and waits for ``/healthz`` to answer 200.  The child and the
generator therefore hold separate interpreter locks; the child's CPU
time and ``VmHWM`` come from ``/proc``.

Outside the timed phases, a seeded sample of response bodies is checked
against an oracle built from the same snapshot files: per-vendor
``CompiledIndex.lookup_answer`` and ``ServingEngine.consensus``.

Traced ``batch`` runs also time the enrichment pipeline (``firehose.py``)
on the oracle engine and the study (``study.py``) on a fresh scenario,
the two subsystems that are not workloads of their own.
"""

from __future__ import annotations

import ctypes
import gc
import json
import os
import random
import selectors
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from client import LoadClient, LoopResult, get_request, post_request
from firehose import enrich_layers
from study import study_layers
from common import (
    ROOT,
    SRC,
    Result,
    StealMeter,
    cpu_seconds,
    median,
    ladder_steps,
    quantile,
    vmhwm_mb,
    window_p99,
)

from repro.loadgen import WorkloadConfig, ZipfWorkload, covered_pool
from repro.net.ip import parse_address
from repro.scenario.build import build_scale_tier
from repro.serve.engine import ServingEngine
from repro.serve.plane import PLANE_SUFFIX, load_plane, save_plane
from repro.serve.snapshot import load_index_set, save_index_set

TIER_INTERFACES = 100_000
TIER_SEED = 2016

LOOKUP_RATE = 600.0
LOOKUP_P99_LIMIT_MS = 100.0
#: First ladder rung is LOOKUP_RATE * 1.1 ** LOOKUP_LADDER_START (~1415
#: rps), below the ~1550-1900 rps knee measured on a 2-vCPU host; if it
#: fails the ladder walks down instead.
LOOKUP_LADDER_START = 9
LOOKUP_MISS_FRACTION = 0.02

BATCH_SIZE = 512
BATCH_BODIES = 256

#: A rung whose generator falls this far behind schedule is cut short.
ABORT_LAG_S = 1.0

CHECK_SAMPLE = 200
_PR_SET_PDEATHSIG = 1
#: Open-loop p99 is the median of per-window p99s over this many windows.
FIXED_WINDOWS = 6
RUNG_WINDOWS = 4


# -- set-up ---------------------------------------------------------------


def _die_with_parent() -> None:
    """In the child, before exec: deliver SIGTERM when the benchmark
    process dies, even by SIGKILL, so no server outlives a cut run."""
    ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)


class ServerChild:
    """``repro serve --snapshots DIR --port 0`` in a child process."""

    def __init__(self, snapshots: Path, log: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        self._log = open(log, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--snapshots", str(snapshots), "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=env,
            cwd=ROOT,
            preexec_fn=_die_with_parent,
        )
        try:
            self.port = self._read_port(deadline=time.monotonic() + 120.0)
            self._wait_healthy(deadline=time.monotonic() + 60.0)
        except BaseException:
            self.stop()
            raise

    def _read_port(self, deadline: float) -> int:
        selector = selectors.DefaultSelector()
        selector.register(self.proc.stdout, selectors.EVENT_READ)
        try:
            while time.monotonic() < deadline:
                if selector.select(0.5):
                    line = self.proc.stdout.readline().decode("utf-8", "replace")
                    if not line:
                        break
                    if " on http://" in line:
                        return int(line.rstrip().rsplit(":", 1)[1])
                if self.proc.poll() is not None:
                    break
        finally:
            selector.close()
        raise RuntimeError(f"server child did not start (exit {self.proc.poll()})")

    def _wait_healthy(self, deadline: float) -> None:
        request = get_request("/healthz")
        while time.monotonic() < deadline:
            try:
                with LoadClient(self.port, connections=1) as client:
                    if client.fetch(request)[0] == 200:
                        return
            except OSError:
                pass
            time.sleep(0.01)
        raise RuntimeError("server child never answered /healthz")

    def cpu_s(self) -> float:
        return cpu_seconds(self.proc.pid)

    def vmhwm_mb(self) -> float:
        return vmhwm_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


class ServingSetup:
    """Tier, snapshot files, oracle engine, and the running child."""

    def __init__(self, workdir: Path):
        started = time.perf_counter()
        self.tier = build_scale_tier(TIER_INTERFACES, TIER_SEED)
        self.snapshots = workdir / "snapshots"
        t0 = time.perf_counter()
        root = save_index_set(self.tier.indexes, self.snapshots)
        save_plane(self.tier.plane, root / f"plane{PLANE_SUFFIX}")
        self.save_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        self.child = ServerChild(self.snapshots, workdir / "serve.log")
        self.boot_s = time.perf_counter() - t0
        self.setup_s = time.perf_counter() - started
        # Not part of set-up: the oracle loads the very files the child
        # serves, which also times the snapshot load in this process.
        t0 = time.perf_counter()
        self.indexes = load_index_set(self.snapshots)
        self.plane = load_plane(self.snapshots / f"plane{PLANE_SUFFIX}")
        self.load_s = time.perf_counter() - t0
        self.engine = ServingEngine(self.indexes, plane=self.plane)
        self.snapshot_bytes = sum(
            path.stat().st_size for path in self.snapshots.iterdir()
        )
        self.pool = covered_pool(self.indexes)

    def parts(self) -> dict[str, float]:
        return {
            "tier": round(self.tier.stats["total_s"], 3),
            "save": round(self.save_s, 3),
            "boot": round(self.boot_s, 3),
        }

    def close(self) -> None:
        self.child.stop()
        self.engine.close()


# -- oracle ---------------------------------------------------------------


# The oracle renders JSON itself rather than importing the server's
# private helpers, so the check shares no code with what it checks.


def _answer_json(answer) -> dict | None:
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


def _consensus_json(consensus) -> dict:
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


def _expected_answers(setup: ServingSetup, ip: str) -> dict:
    return {
        name: _answer_json(index.lookup_answer(ip))
        for name, index in setup.indexes.items()
    }


def expected_lookup(setup: ServingSetup, ip: str) -> dict:
    return {
        "ip": ip,
        "answers": _expected_answers(setup, ip),
        "consensus": _consensus_json(setup.engine.consensus(ip)),
        "degraded": False,
        "degraded_vendors": [],
    }


def expected_batch(setup: ServingSetup, ips: list[str]) -> dict:
    return {
        "count": len(ips),
        "results": [
            {"ip": str(parse_address(ip)), "answers": _expected_answers(setup, ip)}
            for ip in ips
        ],
    }


def _body(raw: bytes) -> dict:
    payload = json.loads(raw)
    payload.pop("trace_id", None)
    return payload


# -- phase summaries ------------------------------------------------------


def _tenth_lags(run: LoopResult) -> tuple[float, float]:
    lags = run.lags_ms()
    tenth = max(1, len(lags) // 10)
    return median(lags[:tenth]), median(lags[-tenth:])


def _rung_passes(run: LoopResult, limit_ms: float) -> bool:
    """Zero failures, no growing backlog, and p99 within the limit."""
    if run.failed or run.unsent or not run.attempted:
        return False
    first, last = _tenth_lags(run)
    if last > first + limit_ms:
        return False
    return window_p99(run.latencies_ms(from_due=True), RUNG_WINDOWS) <= limit_ms


def _lookup_rung(client: LoadClient, requests: list[bytes], rate: float):
    run = client.open_loop(requests, rate, abort_lag_s=ABORT_LAG_S)
    ok = _rung_passes(run, LOOKUP_P99_LIMIT_MS)
    lat = run.latencies_ms(from_due=True)
    record = {
        "offered": round(rate, 1),
        "p99_ms": round(window_p99(lat, RUNG_WINDOWS), 3) if lat else None,
        "lag_first_last_ms": [round(x, 3) for x in _tenth_lags(run)],
        "unsent": run.unsent,
    }
    return run, ok, (_completed_per_s(run) if ok else 0.0), record


def _completed_per_s(run: LoopResult) -> float:
    ok_done = [done for done, status in zip(run.done, run.status) if status == 200]
    span = max(ok_done) - run.due[0]
    return len(ok_done) / span


def _generator_layers(result: Result, run: LoopResult) -> None:
    lags = run.lags_ms()
    result.detail["layers"].update({
        "loadgen.cpu_us_per_req": run.cpu_s / run.attempted * 1e6,
        "loadgen.lag_p50_ms": quantile(lags, 0.5),
        "loadgen.lag_p99_ms": quantile(lags, 0.99),
    })


# -- micro timings (traced runs only) -------------------------------------


def _per_call_ns(fn, args, *, min_s: float = 0.2) -> float:
    """Median over five passes of ``fn(arg)`` for every ``arg``."""
    passes = []
    for _ in range(5):
        t0 = time.perf_counter()
        calls = 0
        while True:
            for arg in args:
                fn(arg)
            calls += len(args)
            elapsed = time.perf_counter() - t0
            if elapsed >= min_s / 5:
                break
        passes.append(elapsed / calls * 1e9)
    return median(passes)


def engine_layers(indexes, plane, engine, addresses: list, layers: dict) -> None:
    """Per-call cost of the layers under one served request."""
    sample = addresses[:4096]
    parsed = [parse_address(a) for a in sample]
    ints = [int(a) for a in parsed]
    cells = [(plane.probe(i), a) for i, a in zip(ints, parsed)]
    outcomes = [engine.lookup_outcome(a) for a in sample]
    layers["net.ip.parse_address_ns"] = _per_call_ns(parse_address, sample)
    layers["serve.plane.probe_ns"] = _per_call_ns(plane.probe, ints)
    layers["serve.plane.outcome_at_ns"] = _per_call_ns(
        lambda pair: pair[0].outcome_at(pair[1]), cells
    )
    layers["serve.engine.lookup_outcome_ns"] = _per_call_ns(
        engine.lookup_outcome, sample
    )
    layers["serve.engine.consensus_of_ns"] = _per_call_ns(engine.consensus_of, outcomes)
    chunks = [sample[i : i + BATCH_SIZE] for i in range(0, len(sample), BATCH_SIZE)]
    inline = ServingEngine(indexes, plane=plane, batch_threshold=1 << 30)
    try:
        layers["serve.engine.outcome_batch_ns_per_addr"] = (
            _per_call_ns(engine.outcome_batch, chunks) / BATCH_SIZE
        )
        layers["serve.engine.inline_ns_per_addr"] = (
            _per_call_ns(inline.outcome_batch, chunks) / BATCH_SIZE
        )
    finally:
        inline.close()


def tier_layers(tier, layers: dict) -> None:
    """The streamed tier's build phases, from ``ScaleTier.stats``."""
    phases = tier.stats["phases_s"]
    layers["topology.stream.world_s"] = phases["world_s"]
    layers["serve.index.compile_s"] = sum(
        seconds for name, seconds in phases.items() if name.startswith("compile_")
    )
    layers["serve.plane.compile_s"] = phases["plane_s"]


def _snapshot_layers(setup: ServingSetup, layers: dict) -> None:
    layers["serve.snapshot.save_s"] = setup.save_s
    layers["serve.snapshot.load_s"] = setup.load_s
    layers["serve.snapshot.bytes"] = setup.snapshot_bytes
    layers["serve.boot_s"] = setup.boot_s


def _server_layers(setup, result: Result, run: LoopResult, before: dict, after: dict) -> None:
    """Layers every served workload reports: build phases, snapshot
    files, generator cost, and the plane hit ratio from ``/statusz``."""
    layers = result.detail["layers"]
    tier_layers(setup.tier, layers)
    _snapshot_layers(setup, layers)
    _generator_layers(result, run)
    lookups = after.get("serve.lookups", 0) - before.get("serve.lookups", 0)
    hits = after.get("plane.hits", 0) - before.get("plane.hits", 0)
    layers["serve.plane_hit_ratio"] = hits / lookups if lookups else 0.0


def _closed_p50_us(port: int, requests: list[bytes], seconds: float) -> float:
    with LoadClient(port, connections=1) as client:
        run = client.closed_loop(requests, seconds)
    return median(run.latencies_ms(from_due=False)) * 1000.0


def _statusz(client: LoadClient) -> dict:
    status, body = client.fetch(get_request("/statusz"))
    if status != 200:
        raise RuntimeError(f"/statusz answered {status}")
    return json.loads(body)


# -- workloads --------------------------------------------------------------


def _freeze_heap() -> None:
    """Keep the collector off the generator's long-lived inputs (tier,
    pre-encoded requests) during timed phases; the server under test is
    another process and is not affected."""
    gc.collect()
    gc.freeze()


def _workdir() -> Path:
    path = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _lookup_requests(addresses: list[str]) -> list[bytes]:
    return [get_request(f"/lookup?ip={ip}") for ip in addresses]


def _latency_metrics(result: Result, lat: list[float], windows: int) -> None:
    p50 = quantile(lat, 0.5)
    result.put("p50_ms", p50, "ms")
    result.detail["layers"]["latency.p99_ms"] = window_p99(lat, windows)
    result.put("run_s", p50 / 1000.0, "s")
    result.detail["samples"] = len(lat)


def run_lookup(seed: int, seconds: float, trace: bool) -> Result:
    result = Result(detail={"layers": {}})
    steal = StealMeter()
    workdir = _workdir()
    setup = None
    try:
        setup = ServingSetup(workdir)
        result.put("setup_s", setup.setup_s, "s")
        result.detail["setup_parts_s"] = setup.parts()
        workload = ZipfWorkload(
            setup.pool,
            WorkloadConfig(seed=seed, zipf_s=1.1, miss_fraction=LOOKUP_MISS_FRACTION),
        )
        fixed_count = int(LOOKUP_RATE * seconds)
        rung_s = max(1.0, seconds / 9.0)
        warm = _lookup_requests(workload.take(int(LOOKUP_RATE)))
        fixed_addresses = workload.take(fixed_count)
        fixed = _lookup_requests(fixed_addresses)
        _freeze_heap()
        with LoadClient(setup.child.port) as client:
            client.open_loop(warm, LOOKUP_RATE)
            before = _statusz(client)["counters"]

            def fixed_point() -> tuple[LoopResult, float]:
                cpu0 = setup.child.cpu_s()
                run = client.open_loop(fixed, LOOKUP_RATE)
                return run, setup.child.cpu_s() - cpu0

            run, child_cpu = fixed_point()
            result.attempted += run.attempted
            result.failed += run.failed
            lat = run.latencies_ms(from_due=True)
            _latency_metrics(result, lat, FIXED_WINDOWS)
            if trace:
                traced, _ = fixed_point()
                traced_p50 = quantile(traced.latencies_ms(from_due=True), 0.5)
                result.detail["layers"]["trace.overhead_share"] = (
                    traced_p50 / quantile(lat, 0.5) - 1.0
                )
            after = _statusz(client)["counters"]

            def rung(rate: float):
                requests = _lookup_requests(workload.take(int(rate * rung_s)))
                rung_run, ok, achieved, record = _lookup_rung(client, requests, rate)
                result.attempted += rung_run.attempted
                result.failed += rung_run.failed
                return ok, achieved, record

            capacity, achieved, rungs = ladder_steps(rung, LOOKUP_RATE, LOOKUP_LADDER_START)
            result.detail["ladder"] = rungs
            result.put("capacity_per_s", capacity, "ops/s")
            result.put("throughput_per_s", achieved, "addresses/s")

            # Output check, outside every timed phase.
            rng = random.Random(seed)
            sample = rng.sample(sorted(set(fixed_addresses)), CHECK_SAMPLE)
            bodies = []
            for ip in sample:
                status, raw = client.fetch(get_request(f"/lookup?ip={ip}"))
                body = _body(raw) if status == 200 else None
                bodies.append(body)
                if body != expected_lookup(setup, ip):
                    result.fail(f"/lookup?ip={ip} differs from the snapshot oracle")
                    break
        result.put("peak_rss_mb", setup.child.vmhwm_mb(), "MB")
        if trace:
            layers = result.detail["layers"]
            _server_layers(setup, result, run, before, after)
            layers["serve.http.cpu_us_per_req"] = child_cpu / run.attempted * 1e6
            layers["serve.http.healthz_us"] = _closed_p50_us(
                setup.child.port, [get_request("/healthz")], 1.0
            )
            layers["serve.http.lookup_us"] = _closed_p50_us(setup.child.port, fixed, 1.0)
            payloads = [body for body in bodies if body is not None]
            layers["serve.http.encode_lookup_us"] = _per_call_ns(
                lambda payload: json.dumps(payload, sort_keys=True).encode("utf-8"),
                payloads,
            ) / 1000.0
            engine_layers(setup.indexes, setup.plane, setup.engine, fixed_addresses, layers)
            layers["host.steal_share"] = steal.share()
    finally:
        if setup is not None:
            setup.close()
        shutil.rmtree(workdir, ignore_errors=True)
    result.detail["steal_share"] = steal.share()
    return result


def run_batch(seed: int, seconds: float, trace: bool) -> Result:
    result = Result(detail={"layers": {}})
    steal = StealMeter()
    workdir = _workdir()
    setup = None
    try:
        setup = ServingSetup(workdir)
        result.put("setup_s", setup.setup_s, "s")
        workload = ZipfWorkload(setup.pool, WorkloadConfig(seed=seed, zipf_s=0.0))
        batches = [workload.take(BATCH_SIZE) for _ in range(BATCH_BODIES)]
        bodies = [json.dumps({"ips": ips}).encode("utf-8") for ips in batches]
        requests = [post_request("/batch", body) for body in bodies]
        _freeze_heap()
        with LoadClient(setup.child.port) as client:
            client.closed_loop(requests, 1.0)
            before = _statusz(client)["counters"]

            def closed() -> tuple[LoopResult, float]:
                cpu0 = setup.child.cpu_s()
                run = client.closed_loop(requests, seconds)
                return run, setup.child.cpu_s() - cpu0

            run, child_cpu = closed()
            result.attempted += run.attempted
            result.failed += run.failed
            lat = run.latencies_ms(from_due=False)
            _latency_metrics(result, lat, 1)
            completed = len(lat)
            result.put("capacity_per_s", completed / run.wall_s, "ops/s")
            result.put(
                "throughput_per_s", completed * BATCH_SIZE / run.wall_s, "addresses/s"
            )
            if trace:
                traced, _ = closed()
                traced_p50 = quantile(traced.latencies_ms(from_due=False), 0.5)
                result.detail["layers"]["trace.overhead_share"] = (
                    traced_p50 / quantile(lat, 0.5) - 1.0
                )
            after = _statusz(client)["counters"]
            rng = random.Random(seed)
            responses = []
            for index in rng.sample(range(BATCH_BODIES), 4):
                status, raw = client.fetch(requests[index])
                body = _body(raw) if status == 200 else None
                responses.append(body)
                if body != expected_batch(setup, batches[index]):
                    result.fail(f"/batch body {index} differs from the snapshot oracle")
                    break
        result.put("peak_rss_mb", setup.child.vmhwm_mb(), "MB")
        if trace:
            layers = result.detail["layers"]
            _server_layers(setup, result, run, before, after)
            layers["serve.http.cpu_us_per_addr"] = (
                child_cpu / (run.attempted * BATCH_SIZE) * 1e6
            )
            layers["serve.http.decode_batch_us"] = _per_call_ns(json.loads, bodies[:16]) / 1000.0
            payloads = [body for body in responses if body is not None]
            layers["serve.http.encode_batch_us"] = _per_call_ns(
                lambda payload: json.dumps(payload, sort_keys=True).encode("utf-8"),
                payloads,
            ) / 1000.0
            engine_layers(
                setup.indexes, setup.plane, setup.engine,
                [ip for ips in batches for ip in ips], layers,
            )
            enrich_layers(
                setup.engine, setup.tier.world.registry, setup.pool,
                seed, seconds / 4.0, layers,
            )
            study_layers(seed, seconds / 6.0, layers, result)
            layers["host.steal_share"] = steal.share()
    finally:
        if setup is not None:
            setup.close()
        shutil.rmtree(workdir, ignore_errors=True)
    result.detail["steal_share"] = steal.share()
    return result
