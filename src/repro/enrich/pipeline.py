"""The streaming enrichment pipeline: firehose in, enriched events out.

Topology — three stages joined by bounded queues::

      submit() ──▶ [event queue] ──▶ batcher ──▶ [work queue]
                                                     │ (micro-batch →
                                                     │  engine.outcome_batch)
                       whois workers (K) ◀───────────┘
                              │
                              ▼
                       [done queue] ──▶ emitter (reorder) ──▶ sink
                                                │
                                                └─▶ drift detector

The batcher micro-batches by *size and linger*: a batch flushes when it
reaches ``batch_size`` or when its oldest event has waited ``linger_ms``,
whichever first — throughput batching that cannot stall a trickle.  The
whois fan-out runs K workers so registry latency overlaps lookup latency;
the emitter reassembles results into admission order before anything is
observable, so concurrency is an implementation detail of the middle.

**Overload is an explicit policy, only at admission.**  Internal stages
always block on their downstream queue (that is the backpressure path —
a slow whois pool backs up into the batcher and then into ``submit``).
What happens when the *event queue* is full is the caller's choice:
``block`` makes ``submit`` wait (lossless), ``shed`` makes it refuse and
count (bounded latency).  Every event is accounted exactly once:
``submitted == enriched + shed`` is an invariant the soak suite asserts.

**Determinism by construction.**  Enrichment of one event is a pure
function of the engine/whois state (no wall time is serialized), batches
preserve admission order, and the emitter's reorder buffer restores it
after the fan-out — so the same seed and stream produce byte-identical
enriched output and drift alerts whether K is 1 or 8.  Timing only moves
*latency metrics*, never payloads.

Shutdown uses a K-sentinel protocol: ``drain()`` pushes one sentinel
through the event queue; the batcher flushes and forwards K sentinels to
the work queue; each worker forwards exactly one to the done queue; the
emitter exits on the K-th.  Queues are FIFO, so by then every result is
already out.  Each thread forwards its sentinels in a ``finally`` block,
so even a crashed stage cannot wedge the stages downstream of it.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

from repro.enrich.drift import DriftAlert, DriftDetector
from repro.net.registry import TeamCymruWhois, UnallocatedAddressError, WhoisRecord
from repro.obs.quantiles import BucketHistogram
from repro.serve.engine import ConsensusAnswer, LookupOutcome, ServingEngine
from repro.serve.index import IndexAnswer

__all__ = [
    "OVERLOAD_POLICIES",
    "BoundedQueue",
    "EnrichConfig",
    "EnrichReport",
    "EnrichedEvent",
    "EnrichmentPipeline",
]

#: Admission behaviour when the event queue is full.
OVERLOAD_POLICIES = ("block", "shed")

#: Queue sentinel marking end-of-stream (identity-compared, never equal
#: to a payload).
_STOP = object()


class BoundedQueue:
    """A bounded FIFO hand-off with exact accounting.

    ``queue.Queue`` hides its high-water mark; this one tracks depth,
    high water, puts, and rejections under the same lock that guards the
    deque, so ``stats()`` is an exact census rather than a race.  The
    soak suite's "queues never exceed configured bounds" assertion reads
    ``high_water`` straight from here.
    """

    def __init__(self, capacity: int, name: str = "queue"):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity!r}")
        self.capacity = capacity
        self.name = name
        self._items: deque = deque()
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._not_empty = threading.Condition(self._lock)
        self._high_water = 0
        self._puts = 0
        self._rejected = 0

    def put(self, item: Any, *, block: bool = True) -> bool:
        """Enqueue; ``False`` (and a rejection count) iff non-blocking
        on a full queue."""
        with self._lock:
            if not block and len(self._items) >= self.capacity:
                self._rejected += 1
                return False
            while len(self._items) >= self.capacity:
                self._not_full.wait()
            self._items.append(item)
            depth = len(self._items)
            if depth > self._high_water:
                self._high_water = depth
            self._puts += 1
            self._not_empty.notify()
            return True

    def get(self, timeout: float | None = None) -> Any:
        """Dequeue; raises :class:`TimeoutError` on a timed-out wait."""
        with self._lock:
            if timeout is None:
                while not self._items:
                    self._not_empty.wait()
            else:
                deadline = time.monotonic() + timeout
                while not self._items:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._not_empty.wait(remaining):
                        if not self._items:
                            raise TimeoutError(self.name)
                        break
            item = self._items.popleft()
            self._not_full.notify()
            return item

    def depth(self) -> int:
        with self._lock:
            return len(self._items)

    @property
    def high_water(self) -> int:
        with self._lock:
            return self._high_water

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "capacity": self.capacity,
                "depth": len(self._items),
                "high_water": self._high_water,
                "puts": self._puts,
                "rejected": self._rejected,
            }


@dataclass(frozen=True, slots=True)
class EnrichConfig:
    """Pipeline shape: batching, queue bounds, fan-out, overload policy."""

    batch_size: int = 64
    #: Max time the oldest queued event may wait for its batch to fill.
    linger_ms: float = 5.0
    event_queue: int = 2048
    work_queue: int = 64
    done_queue: int = 2048
    whois_workers: int = 2
    overload: str = "block"

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1: {self.batch_size!r}")
        if self.linger_ms <= 0:
            raise ValueError(f"linger_ms must be positive: {self.linger_ms!r}")
        if self.whois_workers < 1:
            raise ValueError(f"whois_workers must be >= 1: {self.whois_workers!r}")
        if self.overload not in OVERLOAD_POLICIES:
            raise ValueError(
                f"overload must be one of {OVERLOAD_POLICIES}: {self.overload!r}"
            )
        for bound_name in ("event_queue", "work_queue", "done_queue"):
            if getattr(self, bound_name) < 1:
                raise ValueError(f"{bound_name} must be >= 1")


def _answer_to_json(answer: IndexAnswer) -> dict[str, Any]:
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


def _consensus_to_json(consensus: ConsensusAnswer) -> dict[str, Any]:
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


def _whois_to_json(record: WhoisRecord) -> dict[str, Any]:
    return {
        "asn": record.asn,
        "bgp_prefix": str(record.bgp_prefix),
        "country": record.country,
        "registry": record.registry.value,
        "organization": record.organization,
    }


@dataclass(frozen=True, slots=True)
class EnrichedEvent:
    """One firehose event with everything the pipeline learned about it.

    ``error`` is set (and ``consensus``/``whois`` emptied) when the
    worker's consensus or whois step raised for this event — the event
    still flows through so the in == out + shed accounting holds.
    """

    event: Any
    answers: Mapping[str, IndexAnswer | None]
    consensus: ConsensusAnswer | None
    whois: WhoisRecord | None
    degraded: bool
    unavailable: tuple[str, ...]
    alerts: tuple[DriftAlert, ...] = ()
    error: str | None = None

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form, free of wall-clock state — the unit the
        determinism suite compares byte-for-byte across worker counts."""
        return {
            "event": self.event.to_dict(),
            "answers": {
                vendor: (None if answer is None else _answer_to_json(answer))
                for vendor, answer in sorted(self.answers.items())
            },
            "consensus": (
                None if self.consensus is None else _consensus_to_json(self.consensus)
            ),
            "whois": None if self.whois is None else _whois_to_json(self.whois),
            "degraded": self.degraded,
            "unavailable": list(self.unavailable),
            "alerts": [alert.to_dict() for alert in self.alerts],
            "error": self.error,
        }


@dataclass(slots=True)
class EnrichReport:
    """The ``repro enrich`` run summary (CLI ``--json`` payload)."""

    policy: str
    workers: int
    offered: int
    enriched: int
    shed: int
    errors: int
    alerts: int
    suppressed: int
    batches: int
    duration_s: float
    offered_rate: float | None
    achieved_eps: float
    latency_ms: dict[str, float]
    queues: dict[str, dict[str, int]]
    drift: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "policy": self.policy,
            "workers": self.workers,
            "offered": self.offered,
            "enriched": self.enriched,
            "shed": self.shed,
            "errors": self.errors,
            "alerts": self.alerts,
            "suppressed": self.suppressed,
            "batches": self.batches,
            "duration_s": round(self.duration_s, 3),
            "offered_rate": self.offered_rate,
            "achieved_eps": round(self.achieved_eps, 1),
            "latency_ms": self.latency_ms,
            "queues": self.queues,
            "drift": self.drift,
        }

    def render(self) -> str:
        lines = [
            "enrichment firehose",
            f"  policy {self.policy} · workers {self.workers} · "
            f"{self.duration_s:.1f}s",
            f"  offered {self.offered} · enriched {self.enriched} · "
            f"shed {self.shed} · errors {self.errors}",
            f"  achieved {self.achieved_eps:,.0f} events/s"
            + (f" (offered {self.offered_rate:,.0f}/s)" if self.offered_rate else ""),
            f"  e2e latency ms p50={self.latency_ms.get('p50', 0.0):g} "
            f"p99={self.latency_ms.get('p99', 0.0):g}",
            f"  drift alerts {self.alerts} · suppressed {self.suppressed}",
        ]
        for name, stats in self.queues.items():
            lines.append(
                f"  queue {name}: high-water {stats['high_water']}/"
                f"{stats['capacity']} · rejected {stats['rejected']}"
            )
        return "\n".join(lines)


@dataclass(slots=True)
class _Resolved:
    """A worker's per-event computation, pre-reordering."""

    consensus: ConsensusAnswer | None
    whois: WhoisRecord | None
    error: str | None


class EnrichmentPipeline:
    """Micro-batching, whois-fanning, order-restoring enrichment.

    Single-producer: exactly one thread may call :meth:`submit` /
    :meth:`run` (admission order *is* output order, so admission must be
    a sequence).  Everything downstream is concurrent and invisible.

    Lifecycle is one-shot: :meth:`start`, submit events, :meth:`drain`.
    :meth:`run` wraps all three around an event iterable with optional
    open-loop pacing.
    """

    def __init__(
        self,
        engine: ServingEngine,
        *,
        whois: TeamCymruWhois | None = None,
        config: EnrichConfig | None = None,
        detector: DriftDetector | None = None,
        metrics=None,
        sink: Callable[[EnrichedEvent], None] | None = None,
    ):
        self.engine = engine
        self.whois = whois
        self.config = config = config if config is not None else EnrichConfig()
        self.detector = (
            detector
            if detector is not None
            else DriftDetector(city_range_km=engine.city_range_km, metrics=metrics)
        )
        self._metrics = metrics
        self._sink = sink
        self._events = BoundedQueue(config.event_queue, "events")
        self._work = BoundedQueue(config.work_queue, "work")
        self._done = BoundedQueue(config.done_queue, "done")
        self._threads: list[threading.Thread] = []
        self._crashes: list[str] = []
        self._crash_lock = threading.Lock()
        self._started = False
        self._drained = False
        # Counters below are single-writer each (submit thread or the
        # emitter), so plain ints are exact.
        self._next_order = 0
        self.submitted = 0
        self.shed = 0
        self.enriched = 0
        self.errors = 0
        self.batches = 0
        self._reorder_high_water = 0
        self.latency_ms = BucketHistogram()
        if metrics is not None:
            metrics.track_window("enrich_enriched", "enrich.enriched", horizon_s=60)
            metrics.track_window("enrich_shed", "enrich.shed", horizon_s=60)
            for queue in (self._events, self._work, self._done):
                metrics.register_gauge(
                    "enrich.queue_depth", queue.depth, queue=queue.name
                )
                metrics.register_gauge(
                    "enrich.queue_high_water",
                    lambda q=queue: q.high_water,
                    queue=queue.name,
                )

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "EnrichmentPipeline":
        if self._started:
            raise RuntimeError("pipeline already started")
        self._started = True
        self._threads = [
            threading.Thread(target=self._batcher_loop, name="enrich-batcher"),
        ]
        for index in range(self.config.whois_workers):
            self._threads.append(
                threading.Thread(
                    target=self._worker_loop, name=f"enrich-worker-{index}"
                )
            )
        self._threads.append(
            threading.Thread(target=self._emitter_loop, name="enrich-emitter")
        )
        for thread in self._threads:
            thread.daemon = True
            thread.start()
        return self

    def submit(self, event) -> bool:
        """Admit one event; ``False`` means it was shed (policy
        ``shed``, event queue full) and counted."""
        if not self._started or self._drained:
            raise RuntimeError("pipeline not running")
        self.submitted += 1
        order = self._next_order
        item = (order, time.perf_counter(), event)
        accepted = self._events.put(item, block=self.config.overload == "block")
        if accepted:
            self._next_order += 1
            if self._metrics is not None:
                self._metrics.inc("enrich.events")
        else:
            self.shed += 1
            if self._metrics is not None:
                self._metrics.inc("enrich.shed")
        return accepted

    def drain(self, timeout_s: float = 60.0) -> None:
        """Flush everything in flight and stop the stage threads.

        Raises if a stage crashed or failed to stop — a wedged pipeline
        must fail the test that built it, not hang it.
        """
        if not self._started:
            raise RuntimeError("pipeline never started")
        if self._drained:
            return
        self._drained = True
        self._events.put(_STOP)  # always blocking: shutdown is not load
        deadline = time.monotonic() + timeout_s
        for thread in self._threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        stuck = [thread.name for thread in self._threads if thread.is_alive()]
        if stuck:
            raise RuntimeError(f"enrichment stages failed to drain: {stuck}")
        if self._crashes:
            raise RuntimeError(f"enrichment stages crashed: {self._crashes}")

    def run(
        self,
        events: Iterable,
        *,
        rate: float | None = None,
        duration_s: float | None = None,
        max_events: int | None = None,
    ) -> EnrichReport:
        """Start, pump ``events`` (open-loop paced at ``rate`` if given),
        drain, and report.

        ``max_events`` bounds the count directly; with ``rate`` and
        ``duration_s`` the count is ``rate * duration_s`` so a paced run
        offers a fixed workload rather than a fixed wall time (open-loop:
        a slow pipeline faces the full offered load, not a politely
        throttled one).
        """
        limit = max_events
        if limit is None and rate is not None and duration_s is not None:
            limit = int(rate * duration_s)
        if limit is None and duration_s is None:
            raise ValueError("need max_events, duration_s, or rate+duration_s")
        self.start()
        started = time.perf_counter()
        count = 0
        for event in events:
            if limit is not None and count >= limit:
                break
            if rate is not None:
                target = started + count / rate
                now = time.perf_counter()
                if now < target:
                    time.sleep(target - now)
            elif duration_s is not None and time.perf_counter() - started >= duration_s:
                break
            self.submit(event)
            count += 1
        self.drain()
        duration = time.perf_counter() - started
        return self.report(duration_s=duration, offered_rate=rate)

    # -- stage threads -------------------------------------------------------

    def _crashed(self, stage: str, exc: BaseException) -> None:
        with self._crash_lock:
            self._crashes.append(f"{stage}: {exc!r}")

    def _batcher_loop(self) -> None:
        linger_s = self.config.linger_ms / 1000.0
        batch: list[tuple[int, float, Any]] = []
        deadline = 0.0
        try:
            while True:
                if not batch:
                    item = self._events.get()
                else:
                    try:
                        item = self._events.get(
                            max(0.0, deadline - time.monotonic())
                        )
                    except TimeoutError:
                        self._flush(batch)
                        batch = []
                        continue
                if item is _STOP:
                    if batch:
                        self._flush(batch)
                    return
                if not batch:
                    deadline = time.monotonic() + linger_s
                batch.append(item)
                if len(batch) >= self.config.batch_size:
                    self._flush(batch)
                    batch = []
        except BaseException as exc:  # noqa: BLE001 - stage must report, not vanish
            self._crashed("batcher", exc)
        finally:
            for _ in range(self.config.whois_workers):
                self._work.put(_STOP)

    def _flush(self, batch: list[tuple[int, float, Any]]) -> None:
        self.batches += 1
        outcomes = self.engine.outcome_batch([item[2].address for item in batch])
        if self._metrics is not None:
            self._metrics.inc("enrich.batches")
            self._metrics.observe("enrich.batch_size", len(batch))
        for (order, admitted, event), outcome in zip(batch, outcomes):
            self._work.put((order, admitted, event, outcome))

    def _worker_loop(self) -> None:
        try:
            while True:
                item = self._work.get()
                if item is _STOP:
                    return
                order, admitted, event, outcome = item
                self._done.put(
                    (order, admitted, event, outcome, self._resolve(event, outcome))
                )
        except BaseException as exc:  # noqa: BLE001
            self._crashed("worker", exc)
        finally:
            # Exactly one sentinel per worker, crash or not — the
            # emitter's exit condition must stay reachable.
            self._done.put(_STOP)

    def _resolve(self, event, outcome) -> _Resolved:
        try:
            consensus = self.engine.consensus_of(outcome)
            whois_record = None
            if self.whois is not None:
                try:
                    whois_record = self.whois.lookup(event.address)
                except UnallocatedAddressError:
                    whois_record = None
            return _Resolved(consensus, whois_record, None)
        except Exception as exc:  # noqa: BLE001 - one bad event must not kill the stream
            return _Resolved(None, None, f"{type(exc).__name__}: {exc}")

    def _emitter_loop(self) -> None:
        pending: dict[int, tuple] = {}
        next_order = 0
        stops = 0
        try:
            while stops < self.config.whois_workers:
                item = self._done.get()
                if item is _STOP:
                    stops += 1
                    continue
                pending[item[0]] = item
                if len(pending) > self._reorder_high_water:
                    self._reorder_high_water = len(pending)
                while next_order in pending:
                    self._emit(pending.pop(next_order))
                    next_order += 1
            if pending:
                raise RuntimeError(
                    f"{len(pending)} events lost in flight (next={next_order})"
                )
        except BaseException as exc:  # noqa: BLE001
            self._crashed("emitter", exc)

    def _emit(self, item: tuple) -> None:
        _order, admitted, event, outcome, resolved = item
        alerts = (
            self.detector.inspect(event.seq, outcome, resolved.consensus)
            if resolved.consensus is not None
            else ()
        )
        enriched = EnrichedEvent(
            event=event,
            answers=outcome.answers,
            consensus=resolved.consensus,
            whois=resolved.whois,
            degraded=outcome.degraded,
            unavailable=outcome.unavailable(),
            alerts=alerts,
            error=resolved.error,
        )
        latency_ms = (time.perf_counter() - admitted) * 1000.0
        self.latency_ms.observe(latency_ms)
        self.enriched += 1
        if resolved.error is not None:
            self.errors += 1
        if self._metrics is not None:
            self._metrics.inc("enrich.enriched")
            self._metrics.observe("enrich.event_latency_ms", latency_ms)
            if resolved.error is not None:
                self._metrics.inc("enrich.errors")
        if self._sink is not None:
            self._sink(enriched)

    # -- observability -------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """``/statusz``-style block: policy, accounting, queue census,
        latency quantiles, drift summary, engine degradation."""
        return {
            "policy": self.config.overload,
            "workers": self.config.whois_workers,
            "batch_size": self.config.batch_size,
            "linger_ms": self.config.linger_ms,
            "submitted": self.submitted,
            "shed": self.shed,
            "enriched": self.enriched,
            "errors": self.errors,
            "batches": self.batches,
            "queues": {
                queue.name: queue.stats()
                for queue in (self._events, self._work, self._done)
            },
            "reorder_high_water": self._reorder_high_water,
            "latency_ms": self.latency_ms.quantiles() if self.latency_ms.count else {},
            "drift": self.detector.stats(),
            "degraded_vendors": list(self.engine.degraded_vendors()),
        }

    def report(
        self, *, duration_s: float, offered_rate: float | None = None
    ) -> EnrichReport:
        drift = self.detector.stats()
        return EnrichReport(
            policy=self.config.overload,
            workers=self.config.whois_workers,
            offered=self.submitted,
            enriched=self.enriched,
            shed=self.shed,
            errors=self.errors,
            alerts=drift["alerts"],
            suppressed=drift["suppressed"],
            batches=self.batches,
            duration_s=duration_s,
            offered_rate=offered_rate,
            achieved_eps=self.enriched / duration_s if duration_s > 0 else 0.0,
            latency_ms=self.latency_ms.quantiles() if self.latency_ms.count else {},
            queues={
                queue.name: queue.stats()
                for queue in (self._events, self._work, self._done)
            },
            drift=drift,
        )
