"""The layers of one healthy ``POST /batch``: general path vs spliced path.

``/batch`` is the serving form of the paper's unit of work: a pool of
router interface addresses resolved against every database at once.
This benchmark times the handler's work per address, outside the HTTP
framing, over 512-address batches of the 100K-interface streamed tier
(served from snapshots saved and loaded back, as ``repro serve`` does).
Four layers, on both paths:

* ``parse`` — ``parse_address`` per item (general) or the strict
  ``inet_pton`` parse (spliced);
* ``locate`` — ``outcome_batch`` with its worker pool (general) or one
  ``plane_cells`` bisect per address (spliced);
* ``render`` — the per-item answer dicts (general) or the answers
  fragments spliced from per-record memoised JSON (spliced, memo warm);
* ``join`` — one ``json.dumps(sort_keys=True)`` of the whole response
  (general) or the string join of the item fragments (spliced).

Both paths must produce identical bodies for every batch before any
timing counts.  The ``serve_batch`` section of ``BENCH_pipeline.json``
records ns per address per layer with its commit, date and
environment; the gate is only that the spliced total beats the general
one.
"""

from __future__ import annotations

import json
import random
import time

from conftest import BENCH_SEED, provenance

from repro.loadgen import covered_pool
from repro.net.ip import IPv4Address, parse_address, strict_address_int
from repro.scenario.build import build_scale_tier
from repro.serve import ServingEngine
from repro.serve.http import _batch_answers, _batch_body, _outcome_answers_json
from repro.serve.plane import PLANE_SUFFIX, load_plane, save_plane
from repro.serve.snapshot import load_index_set, save_index_set

TIER_INTERFACES = 100_000
BATCH_SIZE = 512
BATCHES = 8
TRACE_ID = "0123456789abcdef"


def _best_ns_per_addr(step, inputs: list, runs: int = 5) -> tuple[float, list]:
    """Best-of-``runs`` ns per address for ``step`` over every batch
    input, and the step's outputs (from the last run)."""
    best = float("inf")
    for _ in range(runs):
        started = time.perf_counter()
        outputs = [step(value) for value in inputs]
        best = min(best, time.perf_counter() - started)
    return best / (len(inputs) * BATCH_SIZE) * 1e9, outputs


def test_serve_batch_layers(tmp_path, record_perf):
    tier = build_scale_tier(TIER_INTERFACES, BENCH_SEED)
    root = save_index_set(tier.indexes, tmp_path / "snapshots")
    save_plane(tier.plane, root / f"plane{PLANE_SUFFIX}")
    indexes = load_index_set(root)
    plane = load_plane(root / f"plane{PLANE_SUFFIX}")
    engine = ServingEngine(indexes, plane=plane)
    names = engine.vendor_names()

    pool = covered_pool(indexes)
    rng = random.Random(BENCH_SEED)
    batches = [
        [str(IPv4Address(rng.choice(pool))) for _ in range(BATCH_SIZE)]
        for _ in range(BATCHES)
    ]

    def general_render(pair):
        ips, outcomes = pair
        return [
            {"ip": ip, "answers": _outcome_answers_json(names, outcome)}
            for ip, outcome in zip(ips, outcomes)
        ]

    def general_join(results):
        response = {"count": len(results), "results": results, "trace_id": TRACE_ID}
        return json.dumps(response, sort_keys=True).encode("utf-8")

    general: dict[str, float] = {}
    general["parse"], parsed = _best_ns_per_addr(
        lambda ips: [parse_address(ip) for ip in ips], batches
    )
    general["locate"], outcomes = _best_ns_per_addr(engine.outcome_batch, parsed)
    general["render"], results = _best_ns_per_addr(
        general_render, list(zip(batches, outcomes))
    )
    general["join"], general_bodies = _best_ns_per_addr(general_join, results)

    spliced: dict[str, float] = {}
    spliced["parse"], addrs = _best_ns_per_addr(
        lambda ips: [strict_address_int(ip) for ip in ips], batches
    )
    spliced["locate"], hits = _best_ns_per_addr(engine.plane_cells, addrs)
    spliced["render"], answers = _best_ns_per_addr(
        lambda hit: _batch_answers(*hit), hits
    )
    spliced["join"], spliced_bodies = _best_ns_per_addr(
        lambda pair: _batch_body(pair[0], pair[1], TRACE_ID),
        list(zip(batches, answers)),
    )

    # Identity first: a fast wrong body is worthless.
    assert spliced_bodies == general_bodies

    for layers in (general, spliced):
        layers["total"] = sum(layers.values())
    section = {
        **provenance(),
        "tier_interfaces": TIER_INTERFACES,
        "batch_size": BATCH_SIZE,
        "batches": BATCHES,
        "plane_cells": plane.cell_count,
        "rendered_records": plane.rendered_record_count,
        "general_ns_per_addr": {k: round(v, 1) for k, v in general.items()},
        "spliced_ns_per_addr": {k: round(v, 1) for k, v in spliced.items()},
        "speedup": round(general["total"] / spliced["total"], 2),
    }
    record_perf("serve_batch", section)
    engine.close()

    assert spliced["total"] < general["total"], section
