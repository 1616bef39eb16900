"""The serving engine: all vendor indexes behind one fail-closed lookup API.

A :class:`ServingEngine` is what a deployment actually runs: the four
vendor tables compiled to :class:`~repro.serve.index.CompiledIndex`
form, batch lookup with thread fan-out, and a consensus view that
reuses the study's own majority-vote machinery
(:func:`repro.core.majority.majority_of_records`) — the §5.1 warning
that databases can agree *and* be wrong is exactly why the API reports
disagreement flags next to the majority answer rather than a single
merged location.

Degradation is a property of the served *generation*, fixed when it
loads.  A compiled index is immutable and in memory: it cannot raise or
stall by itself.  The failures that do happen — a corrupt, truncated,
or missing vendor snapshot — are caught once per generation, at load
time, by :func:`~repro.serve.snapshot.load_index` and the store
digests.  A vendor named in ``expected=`` but absent from the loaded
set is *missing* for that generation's whole life: every
:class:`LookupOutcome` carries ``degraded=True`` and names it, and the
consensus reports a truthful ``quorum`` flag — *Overconfident
Coordinates* is why degradation is flagged, never silent.

There are two ways to answer, and they agree byte for byte.  With an
:class:`~repro.serve.plane.AnswerPlane` attached and no vendor missing,
a lookup is one C-level bisect plus array reads: every vendor's answer
and the §5.1 consensus were resolved per merged cross-vendor interval
at compile time.  Otherwise (``serve --no-plane``, or a degraded
generation, whose plane cells would bake in the missing vendor) a
lookup is the live path: one ``probe_answer`` per served index, and a
fresh majority vote in :meth:`ServingEngine.consensus_of`.  The live
path is also the reference the ``/lookup`` differential oracle and the
CI plane-vs-``--no-plane`` check hold the plane to.  An outcome read
from the plane carries its cell, so :meth:`ServingEngine.consensus_of`
(the enrichment pipeline's path) returns the compile-time vote rather
than re-running it, and :meth:`ServingEngine.plane_cell` and
:meth:`ServingEngine.plane_cells` hand the HTTP layer the cells
themselves for its spliced ``/lookup`` and ``/batch`` bodies.

Every piece of state a lookup touches — indexes, plane, missing
vendors — lives inside one :class:`_Generation` object, and the engine
holds exactly one reference to it.  A lookup captures that reference
once on entry and never re-reads it, so :meth:`ServingEngine.swap` can
atomically replace the entire served snapshot set under live traffic
(Gouel et al.'s longitudinal refresh problem) with a single assignment:
in-flight lookups finish on the generation they started with, new
lookups see the new one, and a torn or mixed-generation answer is
structurally impossible.  The :mod:`repro.serve.store` watcher drives
swaps (and rollbacks) from the on-disk generation store.

Metrics land in the ``serve.*`` family of the attached
:class:`~repro.obs.metrics.MetricsRegistry` (lookups, batch sizes,
consensus calls, generation swaps/rollbacks), with plane traffic split
out as ``plane.*`` (hits vs live fallbacks), mirroring how the analysis
pipeline reports ``geodb.*``.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Iterable, Mapping, Sequence

from repro.core.majority import DEFAULT_CITY_RANGE_KM, majority_of_records
from repro.geo.coordinates import GeoPoint
from repro.geodb.database import GeoDatabase
from repro.net.ip import IPv4Address, parse_address
from repro.obs.metrics import MetricsRegistry
from repro.serve.errors import ServeError
from repro.serve.index import CompiledIndex, IndexAnswer
from repro.serve.snapshot import load_index_set

__all__ = [
    "ConsensusAnswer",
    "LookupOutcome",
    "ServingEngine",
]

#: Batches at least this large fan out across worker threads.
DEFAULT_BATCH_THRESHOLD = 256


class _Generation:
    """One loaded snapshot set: everything a lookup touches, behind a
    single reference.

    A lookup captures ``engine._gen`` exactly once at entry and reads
    only this object afterwards, so a concurrent :meth:`ServingEngine.\
swap` (one reference assignment) can never hand it another
    generation's indexes, plane, or missing set: in-flight lookups
    finish on the generation they started with, and every field of
    their answer comes from that one generation.
    """

    __slots__ = (
        "gen_id",
        "source",
        "indexes",
        "plane",
        "missing",
        "activated_monotonic",
        "activated_unix",
    )

    def __init__(
        self,
        gen_id: int,
        source: str,
        indexes: Mapping[str, CompiledIndex],
        plane,
        missing: tuple[str, ...],
        activated_monotonic: float,
    ):
        self.gen_id = gen_id
        self.source = source
        self.indexes = indexes
        self.plane = plane
        #: Expected vendors that never loaded, sorted.  Non-empty means
        #: every answer of this generation is degraded and the plane
        #: (whose cells include those vendors) stays unused.
        self.missing = missing
        self.activated_monotonic = activated_monotonic
        self.activated_unix = time.time()

    def vendor_names(self) -> tuple[str, ...]:
        """Served plus expected-but-missing vendors, in answer order."""
        return (*self.indexes, *self.missing)


@dataclass(frozen=True, slots=True)
class LookupOutcome:
    """One request's full, honestly-labelled result.

    ``answers`` holds every served vendor's answer (``None`` value = no
    coverage, itself a final, correct answer).  ``missing`` names the
    vendors the generation expected but never loaded; they are absent
    from ``answers`` and make the outcome ``degraded``.  Treat the
    containers as read-only — plane outcomes share their cell's.
    """

    address: IPv4Address
    answers: Mapping[str, IndexAnswer | None]
    missing: tuple[str, ...] = ()
    #: The answer-plane cell this outcome was read from (plane path only;
    #: live outcomes keep ``None``).  It lets
    #: :meth:`ServingEngine.consensus_of` reuse the compile-time vote.
    cell: object = field(default=None, compare=False, repr=False)

    @property
    def degraded(self) -> bool:
        """True when any vendor's answer is missing from this result."""
        return bool(self.missing)

    def unavailable(self) -> tuple[str, ...]:
        """Every vendor that did not answer, sorted."""
        return self.missing


@dataclass(frozen=True, slots=True)
class ConsensusAnswer:
    """The multi-vendor view of one address.

    ``country``/``location`` are the majority vote's answers (``None``
    when no quorum forms); the disagreement flags are the §5.1
    consistency notion — ``country_disagreement`` when any two answering
    databases name different ISO codes, ``city_disagreement`` when any
    two city-level answers sit farther apart than the city range.
    ``degraded`` is True when the vote ran over fewer vendors than the
    generation expects; ``quorum`` is True when at least
    :data:`~repro.serve.plane.DEFAULT_QUORUM_MIN` vendors answered.
    """

    address: IPv4Address
    country: str | None
    country_votes: int
    location: GeoPoint | None
    location_votes: int
    voters: int
    country_disagreement: bool
    city_disagreement: bool
    degraded: bool = False
    quorum: bool = True


def _traced_probe(gen: _Generation, plane, addr: int, trace):
    """The plane cell for ``addr``, recorded as a ``plane.probe`` span."""
    started = time.perf_counter()
    answer, interval = plane.locate(addr)
    trace.add(
        "plane.probe",
        (time.perf_counter() - started) * 1000.0,
        interval=interval,
        generation=gen.gen_id,
    )
    trace.note_path("plane")
    return answer


class ServingEngine:
    """Concurrent multi-database lookup over compiled indexes.

    Indexes and planes are immutable and shared, and a generation never
    changes once built, so the engine is safe to query from many
    threads at once (the HTTP layer does exactly that) without a lock
    on the lookup path.

    The served snapshot set is a *generation* (``generation_id``,
    reported on ``/statusz``): :meth:`swap` atomically replaces it under
    live traffic, :meth:`close` stops any registered store watchers and
    refuses further swaps.
    """

    def __init__(
        self,
        indexes: Mapping[str, CompiledIndex],
        *,
        metrics: MetricsRegistry | None = None,
        city_range_km: float = DEFAULT_CITY_RANGE_KM,
        batch_threshold: int = DEFAULT_BATCH_THRESHOLD,
        max_workers: int = 4,
        plane=None,
        expected: Iterable[str] | None = None,
        clock: Callable[[], float] = time.monotonic,
        generation_id: int = 0,
        generation_source: str = "boot",
    ):
        if batch_threshold < 1:
            raise ValueError(f"batch_threshold must be positive: {batch_threshold!r}")
        if max_workers < 1:
            raise ValueError(f"max_workers must be positive: {max_workers!r}")
        self.attach_metrics(metrics)
        self.city_range_km = city_range_km
        self.batch_threshold = batch_threshold
        self.max_workers = max_workers
        self._clock = clock
        # Generation lifecycle state: one swap at a time, counted, and
        # fenced off after close() so a late watcher poll cannot swap a
        # generation into a dead engine.
        self._swap_lock = threading.Lock()
        self._closed = False
        self._watchers: list = []
        self._swaps = 0
        self._rollbacks = 0
        self._gen = self._build_generation(
            indexes,
            plane,
            expected=expected,
            gen_id=generation_id,
            source=generation_source,
        )
        # Batch fan-out pool: created lazily on the first large batch and
        # reused for the engine's lifetime (thread startup per request is
        # exactly the orchestration cost this layer exists to avoid).
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()

    def _build_generation(
        self,
        indexes: Mapping[str, CompiledIndex],
        plane,
        *,
        expected: Iterable[str] | None,
        gen_id: int,
        source: str,
    ) -> _Generation:
        """Assemble one fully-initialised generation, ready to swap in.

        The missing-vendor set is decided here, once: activating the
        generation is one reference assignment with nothing left to
        update afterwards.
        """
        if not indexes:
            raise ValueError("a serving engine needs at least one database index")
        indexes = dict(sorted(indexes.items()))
        missing = tuple(sorted(set(expected or ()) - set(indexes)))
        if plane is not None:
            self._check_plane(plane, indexes, missing)
        return _Generation(
            gen_id=gen_id,
            source=source,
            indexes=indexes,
            plane=plane,
            missing=missing,
            activated_monotonic=self._clock(),
        )

    def _check_plane(
        self,
        plane,
        indexes: Mapping[str, CompiledIndex],
        missing: tuple[str, ...],
    ) -> None:
        """Refuse a plane whose compile-time parameters disagree with this
        engine — a mismatched plane would serve subtly different answers."""
        from repro.serve.plane import DEFAULT_QUORUM_MIN  # plane imports us

        vendor_names = sorted((*indexes, *missing))
        if sorted(plane.names) != vendor_names:
            raise ValueError(
                f"answer plane covers vendors {sorted(plane.names)},"
                f" engine serves {vendor_names}"
            )
        if plane.city_range_km != self.city_range_km:
            raise ValueError(
                f"answer plane compiled with city_range_km="
                f"{plane.city_range_km}, engine uses {self.city_range_km}"
            )
        if plane.quorum_min != DEFAULT_QUORUM_MIN:
            raise ValueError(
                f"answer plane compiled with quorum_min={plane.quorum_min},"
                f" engine uses {DEFAULT_QUORUM_MIN}"
            )
        for name, index in indexes.items():
            intervals = getattr(index, "interval_count", None)
            expected_intervals = plane.vendor_intervals.get(name)
            if intervals is not None and intervals != expected_intervals:
                raise ValueError(
                    f"answer plane was compiled over {name} with"
                    f" {expected_intervals} intervals; the served index has"
                    f" {intervals} — recompile the plane with its snapshots"
                )

    # -- construction --------------------------------------------------------

    @classmethod
    def from_databases(
        cls, databases: Mapping[str, GeoDatabase], **kwargs
    ) -> "ServingEngine":
        """Compile every database and serve the compiled set."""
        return cls(
            {name: CompiledIndex.compile(db) for name, db in databases.items()},
            **kwargs,
        )

    @classmethod
    def from_scenario(cls, scenario, **kwargs) -> "ServingEngine":
        """Serve a built scenario's four vendor snapshots."""
        return cls.from_databases(scenario.databases, **kwargs)

    @classmethod
    def from_snapshot_dir(cls, directory, **kwargs) -> "ServingEngine":
        """Serve compiled snapshots written by ``repro compile``.

        ``expected=[names]`` pins the vendor set: vendors named there but
        absent on disk are served as missing for the generation's life
        (every answer flagged degraded) instead of silently dropped.
        """
        return cls(load_index_set(directory), **kwargs)

    # -- generation lifecycle ------------------------------------------------

    def swap(
        self,
        indexes: Mapping[str, CompiledIndex],
        plane=None,
        *,
        generation_id: int | None = None,
        source: str = "swap",
        rollback: bool = False,
    ) -> int:
        """Atomically replace the served snapshot set under live traffic.

        Builds a fresh :class:`_Generation` (plane handshake re-checked)
        and activates it with a single reference assignment: in-flight
        lookups finish on the old generation, the next lookup sees the
        new one, and no request can ever observe fields from both.  The
        candidate must serve exactly the engine's current vendor set,
        missing vendors included — so a swap restores a degraded
        generation to full health, while a generation that drops or
        renames a vendor is a publishing error, refused with
        ``ValueError`` before anything changes.

        ``rollback=True`` marks this swap as a restore (the store
        watcher re-activating a previous generation); it is counted in
        ``rollbacks`` and ``serve.generation_rollbacks`` alongside the
        swap itself.  Raises :class:`~repro.serve.errors.ServeError`
        after :meth:`close` — a dead engine must not accept a new
        generation.  Returns the new generation id.
        """
        with self._swap_lock:
            if self._closed:
                raise ServeError(
                    "engine is closed: refusing generation swap"
                )
            current = self._gen
            gen_id = (
                generation_id if generation_id is not None else current.gen_id + 1
            )
            incoming = set(indexes)
            expected = set(current.vendor_names())
            if incoming != expected:
                raise ValueError(
                    f"generation {gen_id} serves vendors {sorted(incoming)},"
                    f" engine serves {sorted(expected)} — a swap must keep"
                    f" the vendor set"
                )
            gen = self._build_generation(
                indexes, plane, expected=None, gen_id=gen_id, source=source
            )
            # The swap itself: one reference assignment.  Everything a
            # lookup reads hangs off this attribute, captured once per
            # request, so there is no torn state to observe.
            self._gen = gen
            self._swaps += 1
            if rollback:
                self._rollbacks += 1
        if self._metrics is not None:
            self._metrics.inc("serve.generation_swaps")
            if rollback:
                self._metrics.inc("serve.generation_rollbacks")
        return gen_id

    def note_rollback(self) -> None:
        """Count a rejected candidate generation (no swap happened).

        The store watcher calls this when validation refuses a published
        candidate and the serving generation stays in place — the
        rollback counter and ``serve.generation_rollbacks`` must reflect
        every restore *decision*, not only restores that re-loaded an
        older generation.
        """
        with self._swap_lock:
            self._rollbacks += 1
        if self._metrics is not None:
            self._metrics.inc("serve.generation_rollbacks")

    @property
    def generation_id(self) -> int:
        """The currently served generation's id."""
        return self._gen.gen_id

    @property
    def generation_age_s(self) -> float:
        """Seconds since the current generation was activated."""
        return max(0.0, self._clock() - self._gen.activated_monotonic)

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran; swaps are refused from then on."""
        return self._closed

    def generation_info(self) -> dict[str, object]:
        """The staleness block ``/statusz`` serves: which generation is
        live, how old it is, and how often the engine has swapped or
        rolled back."""
        gen = self._gen
        return {
            "id": gen.gen_id,
            "source": gen.source,
            "activated_unix": round(gen.activated_unix, 3),
            "age_s": round(max(0.0, self._clock() - gen.activated_monotonic), 3),
            "swaps": self._swaps,
            "rollbacks": self._rollbacks,
        }

    def register_watcher(self, watcher) -> None:
        """Track a store watcher so :meth:`close` stops its thread.

        Anything with a ``stop()`` method qualifies; registration after
        close is refused for the same reason swaps are.
        """
        with self._swap_lock:
            if self._closed:
                raise ServeError(
                    "engine is closed: refusing to register a store watcher"
                )
            self._watchers.append(watcher)

    def canary_coverage(self, addresses: Sequence[int]) -> dict[str, int]:
        """Per-vendor count of ``addresses`` (integers) with coverage on
        the current generation.

        The store watcher's regression probe baseline: probes the raw
        indexes directly — no plane, no metrics, no outcome objects — so
        a validation pass never distorts the serving counters.
        """
        gen = self._gen
        return {
            name: sum(
                1 for addr in addresses if index.probe_answer(addr) is not None
            )
            for name, index in gen.indexes.items()
        }

    # -- observability -------------------------------------------------------

    def attach_metrics(self, metrics: MetricsRegistry | None) -> None:
        """Emit ``serve.*`` counters into ``metrics`` (``None`` detaches).

        The plane hot path answers in ~1 µs, so it cannot afford two
        registry ``inc`` calls per request; instead the counters it
        feeds are pre-resolved here into multi-name
        :class:`~repro.obs.metrics.CounterCell` slots — one locked add
        per plane hit updates ``serve.lookups`` and ``plane.hits`` (and,
        for consensus hits, ``serve.consensus``) at once, keeping the
        counts exact for the hammer tests' reconciliation.
        """
        self._metrics = metrics
        if metrics is not None:
            self._cell_plane_hit = metrics.cell("serve.lookups", "plane.hits")
            self._cell_plane_consensus = metrics.cell(
                "serve.lookups", "serve.consensus", "plane.hits"
            )
        else:
            self._cell_plane_hit = None
            self._cell_plane_consensus = None

    def plane_stats(self) -> dict[str, object] | None:
        """The attached answer plane's ``/statusz`` block (``None`` when
        no plane is attached).

        ``active`` is False while the plane is configured but bypassed
        because the generation is degraded, so an operator can see at a
        glance whether traffic is riding the precomputed path or the
        live one.
        """
        gen = self._gen
        plane = gen.plane
        if plane is None:
            return None
        return {
            "active": not gen.missing,
            **plane.stats(),
            "rendered": plane.rendered_count,
            "rendered_records": plane.rendered_record_count,
        }

    def health_snapshot(self) -> dict[str, dict[str, object]]:
        """Per-vendor state for ``/statusz`` (sorted by vendor):
        ``healthy`` when its snapshot loaded, ``missing`` when not."""
        gen = self._gen
        states = {name: "healthy" for name in gen.indexes}
        states.update((name, "missing") for name in gen.missing)
        return {name: {"state": states[name]} for name in sorted(states)}

    @property
    def degraded(self) -> bool:
        """True while the served generation is missing any vendor."""
        return bool(self._gen.missing)

    def degraded_vendors(self) -> tuple[str, ...]:
        """The vendors the served generation is missing, sorted — the
        enrichment drift detector's suppression signal, named
        individually so an operator can tell *which* database's alerts
        went quiet."""
        return self._gen.missing

    # -- lookup --------------------------------------------------------------

    def database_names(self) -> tuple[str, ...]:
        return tuple(self._gen.indexes)

    def vendor_names(self) -> tuple[str, ...]:
        """Served plus expected-but-missing vendors, in answer order."""
        return self._gen.vendor_names()

    def _resolve(
        self, gen: _Generation, parsed: IPv4Address, addr: int, trace=None
    ) -> LookupOutcome:
        """The live path: one probe per served index, missing vendors
        flagged from the generation."""
        if trace is None:
            answers = {
                name: index.probe_answer(addr) for name, index in gen.indexes.items()
            }
            return LookupOutcome(address=parsed, answers=answers, missing=gen.missing)
        resolve_span = trace.begin(
            "resolve", address=str(parsed), generation=gen.gen_id
        )
        answers = {}
        for name, index in gen.indexes.items():
            started = time.perf_counter()
            answers[name] = index.probe_answer(addr)
            trace.add(
                f"probe:{name}",
                (time.perf_counter() - started) * 1000.0,
                parent=resolve_span,
            )
        trace.end(
            resolve_span, degraded=bool(gen.missing), missing=list(gen.missing)
        )
        trace.note_path("degraded" if gen.missing else "live")
        return LookupOutcome(address=parsed, answers=answers, missing=gen.missing)

    def lookup_outcome(
        self, address: IPv4Address | str | int, *, trace=None
    ) -> LookupOutcome:
        """Resolve one address against every vendor.

        With an answer plane attached and no vendor missing, the outcome
        comes straight from the precomputed cell — one bisect, no vendor
        probes.  Otherwise every served index is probed once and the
        generation's missing vendors are flagged on the outcome.

        The generation reference is captured exactly once, here: every
        index probe below runs against that one generation even if a
        swap lands mid-request.

        ``trace`` (a :class:`~repro.obs.reqtrace.RequestTrace`) records
        span rows and the path attribution (``plane``/``live``/
        ``degraded``) the HTTP layer surfaces on ``/tracez``; the
        default ``None`` keeps the hot path untraced.
        """
        parsed = parse_address(address)
        addr = int(parsed)
        gen = self._gen
        plane = gen.plane
        if plane is not None and not gen.missing:
            # The precomputed path: one cell.add() feeds serve.lookups
            # *and* plane.hits — a second registry inc here would cost
            # more than the lookup itself.
            cell = self._cell_plane_hit
            if cell is not None:
                cell.add()
            if trace is not None:
                return _traced_probe(gen, plane, addr, trace).outcome_at(parsed)
            return plane.probe(addr).outcome_at(parsed)
        metrics = self._metrics
        if metrics is not None:
            metrics.inc("serve.lookups")
            if plane is not None:
                metrics.inc("plane.fallbacks")
        return self._resolve(gen, parsed, addr, trace)

    def plane_cell(self, addr: int, *, trace=None):
        """``(plane, cell)`` for a pre-validated address integer, or
        ``None`` when the plane cannot answer.

        The HTTP ``/lookup`` hot path: one bisect, counted as one lookup
        *and* one consensus (a single cell add, exactly what
        :meth:`lookup_outcome` plus :meth:`consensus_of` would count),
        traced like :meth:`lookup_outcome`.  The plane comes back with
        the cell because both were read from one generation — a caller
        memoising per-cell output must key it on that plane.  ``None``
        means no plane or a degraded generation; the caller then takes
        :meth:`lookup_outcome`.
        """
        gen = self._gen
        plane = gen.plane
        if plane is None or gen.missing:
            return None
        counter = self._cell_plane_consensus
        if counter is not None:
            counter.add()
        if trace is not None:
            return plane, _traced_probe(gen, plane, addr, trace)
        return plane, plane.probe(addr)

    def plane_cells(self, addrs: Sequence[int], *, trace=None):
        """``(plane, cells)`` for pre-validated address integers, cells in
        input order, or ``None`` when the plane cannot answer.

        The HTTP ``/batch`` hot path, read from one captured generation.
        It counts what :meth:`outcome_batch` counts for a healthy batch:
        one ``serve.batch_lookups``, one ``serve.batch_size``
        observation, and one lookup and plane hit per address (a single
        cell add; no ``serve.consensus``).  It traces the same ``batch``
        span and ``plane.probe`` rows, except that probes past the
        trace's span cap are counted as dropped without being timed.
        ``None`` means no plane or a degraded generation; the caller then
        takes :meth:`outcome_batch`.
        """
        gen = self._gen
        plane = gen.plane
        if plane is None or gen.missing:
            return None
        metrics = self._metrics
        if metrics is not None:
            metrics.inc("serve.batch_lookups")
            metrics.observe("serve.batch_size", len(addrs))
            self._cell_plane_hit.add(len(addrs))
        probe = plane.probe
        if trace is None:
            return plane, [probe(addr) for addr in addrs]
        batch_span = trace.begin("batch", size=len(addrs))
        timed = trace.fit(len(addrs))
        cells = [_traced_probe(gen, plane, addr, trace) for addr in addrs[:timed]]
        cells += [probe(addr) for addr in addrs[timed:]]
        if addrs:
            trace.note_path("plane")
        trace.end(batch_span)
        return plane, cells

    def lookup_plane(self, address: IPv4Address | str | int):
        """The precomputed :class:`~repro.serve.plane.PlaneAnswer` for
        ``address``, or ``None`` when the plane cannot answer.

        This is the raw healthy hot path — one bisect plus a list read,
        with no outcome or consensus objects constructed per request.
        ``None`` means no plane is attached or the generation is
        degraded; the caller falls back to :meth:`lookup_outcome` /
        :meth:`consensus`, which themselves consult the plane when
        possible.
        """
        gen = self._gen
        plane = gen.plane
        if plane is None or gen.missing:
            return None
        return plane.probe(int(parse_address(address)))

    def lookup(
        self, address: IPv4Address | str | int
    ) -> dict[str, IndexAnswer | None]:
        """Every database's answer (matched prefix + record) for one address.

        The legacy flat shape: one key per vendor.  A missing vendor's
        value is ``None`` here — callers that must distinguish "no
        coverage" from "unavailable" use :meth:`lookup_outcome`.
        """
        return self._flatten(self.lookup_outcome(address))

    def _flatten(self, outcome: LookupOutcome) -> dict[str, IndexAnswer | None]:
        answers = outcome.answers
        return {name: answers.get(name) for name in self.vendor_names()}

    def outcome_batch(
        self,
        addresses: Sequence[IPv4Address | str | int] | Iterable,
        *,
        trace=None,
    ) -> list[LookupOutcome]:
        """Outcomes for many addresses, in input order.

        Small batches run inline; batches of at least ``batch_threshold``
        addresses fan out in contiguous chunks over one persistent
        thread pool (created lazily on the first large batch and reused
        — paying thread startup per request was measurable under
        sustained load; the index probe releases no locks worth
        contending on, and chunking keeps per-task overhead negligible).
        """
        addresses = list(addresses)
        metrics = self._metrics
        if metrics is not None:
            metrics.inc("serve.batch_lookups")
            metrics.observe("serve.batch_size", len(addresses))
        batch_span = -1
        if trace is not None:
            batch_span = trace.begin("batch", size=len(addresses))

        def outcomes(part) -> list[LookupOutcome]:
            return [self.lookup_outcome(address, trace=trace) for address in part]

        if len(addresses) < self.batch_threshold:
            results = outcomes(addresses)
        else:
            chunk = -(-len(addresses) // self.max_workers)  # ceil division
            chunks = [
                addresses[i : i + chunk] for i in range(0, len(addresses), chunk)
            ]
            parts = self._executor().map(outcomes, chunks)
            results = [outcome for part in parts for outcome in part]
        if trace is not None:
            trace.end(batch_span)
        return results

    def _executor(self) -> ThreadPoolExecutor:
        """The lazily-created persistent batch pool (double-checked)."""
        pool = self._pool
        if pool is None:
            with self._pool_lock:
                pool = self._pool
                if pool is None:
                    pool = self._pool = ThreadPoolExecutor(
                        max_workers=self.max_workers,
                        thread_name_prefix="repro-serve-batch",
                    )
        return pool

    def close(self) -> None:
        """Stop store watchers, refuse future swaps, shut the batch pool.

        Idempotent; the HTTP server calls this from its shutdown path.
        Lookups still work afterwards (a later large batch simply
        recreates the pool) — but the *generation* is frozen: swaps and
        watcher registration raise, and every registered watcher thread
        is stopped and joined here, so no reload thread outlives the
        engine it was feeding.
        """
        with self._swap_lock:
            self._closed = True
            watchers, self._watchers = self._watchers, []
        for watcher in watchers:
            watcher.stop()
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def lookup_batch(
        self, addresses: Sequence[IPv4Address | str | int] | Iterable
    ) -> list[dict[str, IndexAnswer | None]]:
        """Flat answers for many addresses, in input order (legacy shape)."""
        return [self._flatten(outcome) for outcome in self.outcome_batch(addresses)]

    def consensus_of(self, outcome: LookupOutcome) -> ConsensusAnswer:
        """Majority answer plus disagreement/degradation flags for an
        already-resolved outcome (no second lookup pass).

        An outcome read from the answer plane carries its cell, whose
        vote was tallied at compile time; that vote is returned as is.
        The cell comes from the same lookup, so it belongs to the
        generation that produced ``outcome`` even across a swap.  A live
        outcome is voted here, per request — the reference the plane's
        compile-time cells are checked against.
        """
        if self._metrics is not None:
            self._metrics.inc("serve.consensus")
        cell = outcome.cell
        if cell is not None:
            return cell.consensus_at(outcome.address)
        from repro.serve.plane import DEFAULT_QUORUM_MIN  # plane imports us

        records = [
            answer.record
            for answer in outcome.answers.values()
            if answer is not None
        ]
        vote = majority_of_records(
            outcome.address, records, city_range_km=self.city_range_km
        )
        countries = {r.country for r in records if r.country is not None}
        coordinates = [
            r.location for r in records if r.has_city and r.has_coordinates
        ]
        city_disagreement = any(
            a.distance_km(b) > self.city_range_km
            for a, b in combinations(coordinates, 2)
        )
        return ConsensusAnswer(
            address=outcome.address,
            country=vote.country,
            country_votes=vote.country_votes,
            location=vote.location,
            location_votes=vote.location_votes,
            voters=vote.voters,
            country_disagreement=len(countries) > 1,
            city_disagreement=city_disagreement,
            degraded=outcome.degraded,
            quorum=vote.voters >= DEFAULT_QUORUM_MIN,
        )

    def consensus(self, address: IPv4Address | str | int) -> ConsensusAnswer:
        """Majority answer plus cross-database disagreement flags.

        On the healthy plane path the vote was already tallied at compile
        time, so this is a bisect and a field copy rather than a fresh
        majority computation per request.
        """
        gen = self._gen
        plane = gen.plane
        if plane is not None and not gen.missing:
            parsed = parse_address(address)
            cell = self._cell_plane_consensus
            if cell is not None:
                cell.add()
            return plane.probe(int(parsed)).consensus_at(parsed)
        return self.consensus_of(self.lookup_outcome(address))

    def __repr__(self) -> str:  # pragma: no cover - trivial
        gen = self._gen
        return (
            f"ServingEngine({', '.join(gen.indexes)}; gen={gen.gen_id};"
            f" plane={'off' if gen.plane is None else gen.plane.cell_count})"
        )
