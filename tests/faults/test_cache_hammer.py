"""Thread hammer for the LRU cache and for concurrent engine lookups.

Correctness under concurrency means two things here: the cache never
returns another key's value (isolation), and the accounting reconciles
exactly — every ``get`` is one hit or one miss, and at the engine level
``serve.lookups`` equals the lookups the threads made.  A lost update or
a cross-wired entry shows up as an off-by-anything in these totals.
"""

import random
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.obs import MetricsRegistry
from repro.serve import LruCache, ServingEngine

from tests.faults.conftest import CHAOS_SEED

THREADS = 8
OPS_PER_THREAD = 3000


class TestLruCacheHammer:
    def test_counters_reconcile_and_values_stay_keyed(self):
        cache = LruCache(capacity=64)
        key_space = 256  # 4x capacity: constant eviction pressure
        barrier = threading.Barrier(THREADS)
        wrong: list[tuple[int, str]] = []

        def hammer(worker: int) -> int:
            rng = random.Random(f"{CHAOS_SEED}|hammer|{worker}")
            barrier.wait()  # maximum interleaving: everyone starts together
            gets = 0
            for _ in range(OPS_PER_THREAD):
                key = rng.randrange(key_space)
                if rng.random() < 0.5:
                    cache.put(key, f"value-{key}")
                else:
                    gets += 1
                    try:
                        value = cache.get(key)
                    except KeyError:
                        continue
                    if value != f"value-{key}":
                        wrong.append((key, value))
            return gets

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            total_gets = sum(pool.map(hammer, range(THREADS)))

        assert not wrong, f"cache returned another key's value: {wrong[:3]}"
        assert cache.hits + cache.misses == total_gets
        assert len(cache) <= cache.capacity
        assert cache.stats()["evictions"] > 0

    def test_clear_under_load_never_corrupts(self):
        """An eviction storm (concurrent ``clear``) may cost hits, never
        correctness or counter reconciliation."""
        cache = LruCache(capacity=128)
        barrier = threading.Barrier(THREADS + 1)

        def clearer() -> int:
            barrier.wait()
            for _ in range(200):
                cache.clear()
            return 0

        def hammer(worker: int) -> int:
            rng = random.Random(f"{CHAOS_SEED}|storm|{worker}")
            barrier.wait()
            gets = 0
            for _ in range(OPS_PER_THREAD):
                key = rng.randrange(64)
                cache.put(key, key * 2)
                gets += 1
                try:
                    assert cache.get(key) == key * 2
                except KeyError:
                    pass  # a storm between put and get: a miss, not a bug
            return gets

        with ThreadPoolExecutor(max_workers=THREADS + 1) as pool:
            futures = [pool.submit(hammer, w) for w in range(THREADS)]
            futures.append(pool.submit(clearer))
            total_gets = sum(f.result() for f in futures)

        assert cache.hits + cache.misses == total_gets


class TestEngineHammer:
    def test_concurrent_lookups_reconcile_with_request_count(
        self, compiled_indexes, chaos_addresses
    ):
        metrics = MetricsRegistry()
        engine = ServingEngine(compiled_indexes, metrics=metrics)
        barrier = threading.Barrier(THREADS)

        def hammer(worker: int) -> int:
            rng = random.Random(f"{CHAOS_SEED}|engine|{worker}")
            barrier.wait()
            lookups = 0
            for _ in range(OPS_PER_THREAD // 4):
                addr = chaos_addresses[rng.randrange(len(chaos_addresses))]
                outcome = engine.lookup_outcome(addr)
                lookups += 1
                # Whatever else the other threads are probing, it must be
                # *this* address's pristine answer set.
                assert int(outcome.address) == addr
                for name, answer in outcome.answers.items():
                    assert answer == compiled_indexes[name].probe_answer(addr)
            return lookups

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            total = sum(pool.map(hammer, range(THREADS)))

        assert total == THREADS * (OPS_PER_THREAD // 4)
        assert metrics.counter("serve.lookups") == total

    def test_concurrent_plane_batches_reconcile(
        self, compiled_indexes, answer_plane, chaos_addresses
    ):
        """Spliced-batch cells and single plane lookups, interleaved: every
        address is one ``serve.lookups`` and one ``plane.hits``."""
        metrics = MetricsRegistry()
        engine = ServingEngine(compiled_indexes, plane=answer_plane, metrics=metrics)
        barrier = threading.Barrier(THREADS)

        def hammer(worker: int) -> tuple[int, int]:
            rng = random.Random(f"{CHAOS_SEED}|plane-batch|{worker}")
            barrier.wait()
            lookups = batches = 0
            for _ in range(OPS_PER_THREAD // 20):
                addrs = rng.sample(chaos_addresses, rng.randrange(0, 32))
                _, cells = engine.plane_cells(addrs)
                assert cells == [answer_plane.probe(addr) for addr in addrs]
                engine.lookup_outcome(addrs[0] if addrs else 0)
                lookups += len(addrs) + 1
                batches += 1
            return lookups, batches

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            totals = list(pool.map(hammer, range(THREADS)))

        lookups = sum(total for total, _ in totals)
        assert metrics.counter("serve.lookups") == lookups
        assert metrics.counter("plane.hits") == lookups
        assert metrics.counter("serve.batch_lookups") == sum(b for _, b in totals)
        assert metrics.counter("serve.consensus") == 0
