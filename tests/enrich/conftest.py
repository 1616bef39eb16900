"""Enrichment-suite fixtures: compiled indexes, plane, and event pools.

The expensive pieces (index compilation, the answer plane, the covered
address pool) are session-scoped and read-only; every test builds its
own engine/pipeline so swapped generations never leak between tests.
"""

import pytest

from repro.loadgen import covered_pool
from repro.serve import CompiledIndex, ServingEngine, compile_plane


@pytest.fixture(scope="session")
def enrich_indexes(small_scenario):
    """Every vendor database of the small scenario, compiled once."""
    return {
        name: CompiledIndex.compile(database)
        for name, database in small_scenario.databases.items()
    }


@pytest.fixture(scope="session")
def enrich_plane(enrich_indexes):
    return compile_plane(enrich_indexes)


@pytest.fixture(scope="session")
def event_pool(enrich_indexes):
    """Covered interval starts — the firehose's address universe."""
    return covered_pool(enrich_indexes, per_vendor=512)


@pytest.fixture
def engine(enrich_indexes, enrich_plane):
    """A fresh healthy engine per test (its generation can be swapped)."""
    return ServingEngine(enrich_indexes, plane=enrich_plane)


@pytest.fixture(scope="session")
def whois(small_scenario):
    return small_scenario.internet.whois
