"""The enrichment pipeline's layers, timed in traced ``batch`` runs.

``enrich`` is not a workload of its own: in-process with five threads on
two vCPUs, its end-to-end figures tracked host steal (p50 IQR 0.99 of
the median over ten runs when steal reached 16-19%).  Its layers are
still measured, on the ``batch`` workload's tier and engine: one
``EnrichmentPipeline`` with the CLI defaults (block, batch 64, linger
5 ms, 2 whois workers), a fresh ``TeamCymruWhois(tier.world.registry)``
and an ``EventSource`` (Zipf 1.1, 2% miss), fed open loop at 2000 events/s
by this thread.  Proxies around the ``engine``, ``whois`` and
``detector`` objects handed to the pipeline time each layer call.
"""

from __future__ import annotations

import gc
import time

from common import quantile

from repro.enrich import EnrichConfig, EnrichmentPipeline, EventConfig, EventSource
from repro.enrich.drift import DriftDetector
from repro.net.registry import TeamCymruWhois
from repro.obs.metrics import MetricsRegistry

ENRICH_RATE = 2000.0
MISS_FRACTION = 0.02


class Timed:
    """Per-call wall times of one layer method, safe across threads
    (``list.append`` is atomic)."""

    def __init__(self) -> None:
        self.seconds: list[float] = []

    def wrap(self, method):
        seconds = self.seconds

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return method(*args, **kwargs)
            finally:
                seconds.append(time.perf_counter() - t0)

        return timed

    def mean_us(self) -> float:
        return sum(self.seconds) / len(self.seconds) * 1e6 if self.seconds else 0.0


class Proxy:
    """Delegates everything to ``target`` except the timed methods."""

    def __init__(self, target, **timed: Timed):
        self._target = target
        for name, timer in timed.items():
            setattr(self, name, timer.wrap(getattr(target, name)))

    def __getattr__(self, name):
        return getattr(self._target, name)


def whois_hit_ratio(metrics: MetricsRegistry) -> float:
    """Share of ``whois.queries`` answered from the whois memo."""
    counters = metrics.counters_snapshot()
    queries = counters.get("whois.queries", 0)
    return counters.get("whois.cache_hits", 0) / queries if queries else 0.0


def _paced(engine, registry, events, tracing: dict | None = None):
    """Run ``events`` through a fresh pipeline at ENRICH_RATE; return the
    pipeline and each event's latency from its due time (ms).

    The sink records only emit times: keeping every emitted object alive
    would trigger full collections that the pipeline alone does not
    cause.
    """
    emitted: list[float] = []
    perf = time.perf_counter
    whois = TeamCymruWhois(registry, metrics=tracing["whois_metrics"] if tracing else None)
    detector = DriftDetector(city_range_km=engine.city_range_km)
    if tracing is not None:
        engine = Proxy(
            engine,
            outcome_batch=tracing["outcome_batch"],
            consensus_of=tracing["consensus_of"],
        )
        whois = Proxy(whois, lookup=tracing["whois_lookup"])
        detector = Proxy(detector, inspect=tracing["inspect"])
    pipeline = EnrichmentPipeline(
        engine,
        whois=whois,
        config=EnrichConfig(),
        detector=detector,
        sink=lambda _enriched: emitted.append(perf()),
    )
    interval = 1.0 / ENRICH_RATE
    due: list[float] = []
    gc.collect()
    pipeline.start()
    epoch = perf() + 0.005
    for index, event in enumerate(events):
        at = epoch + index * interval
        now = perf()
        if now < at:
            time.sleep(at - now)
        due.append(at)
        pipeline.submit(event)
    pipeline.drain()
    if len(emitted) != len(due):
        raise RuntimeError(f"pipeline emitted {len(emitted)} of {len(due)} events")
    return pipeline, [(done - at) * 1000.0 for at, done in zip(due, emitted)]


def enrich_layers(engine, registry, pool, seed: int, seconds: float, layers: dict) -> None:
    """Time the enrichment layers over ``seconds`` of open-loop events."""
    # The pipeline runs in this process: give it the collector a real
    # process has, not the frozen heap the load generator uses.
    gc.unfreeze()
    source = EventSource(
        pool,
        EventConfig(seed=seed, rate=ENRICH_RATE, zipf_s=1.1, miss_fraction=MISS_FRACTION),
    )
    stream = source.events()
    _paced(engine, registry, [next(stream) for _ in range(int(ENRICH_RATE / 2))])
    tracing = {
        "outcome_batch": Timed(),
        "consensus_of": Timed(),
        "whois_lookup": Timed(),
        "inspect": Timed(),
        "whois_metrics": MetricsRegistry(),
    }
    events = [next(stream) for _ in range(int(ENRICH_RATE * seconds))]
    pipeline, latencies = _paced(engine, registry, events, tracing)
    stats = pipeline.stats()
    if stats["shed"] or stats["errors"]:
        raise RuntimeError(
            f"enrichment lost events: {stats['shed']} shed, {stats['errors']} errors"
        )
    layers["enrich.p50_ms"] = quantile(latencies, 0.5)
    layers["enrich.outcome_batch_us"] = tracing["outcome_batch"].mean_us()
    layers["enrich.consensus_of_us"] = tracing["consensus_of"].mean_us()
    layers["enrich.batch_fill"] = stats["submitted"] / (
        stats["batches"] * stats["batch_size"]
    )
    for name, queue in stats["queues"].items():
        layers[f"enrich.queue_high_water.{name}"] = queue["high_water"]
    layers["enrich.reorder_high_water"] = stats["reorder_high_water"]
    layers["enrich.admission_p99_ms"] = stats["latency_ms"]["p99"]
    layers["net.registry.whois_lookup_us"] = tracing["whois_lookup"].mean_us()
    layers["net.registry.whois_hit_ratio"] = whois_hit_ratio(tracing["whois_metrics"])
    layers["enrich.drift.inspect_us"] = tracing["inspect"].mean_us()
