"""The study's layers: the paper's whole evaluation, fresh each time.

``study`` is not a workload of its own: on a shared 2-vCPU host the
median of its ~150 ms ops followed the host's CPU speed, which flips
between two modes every few hundred milliseconds and drifts over tens
of seconds.  Over ten runs the IQR of that median was 0.21 and 0.35 of
the median, above the largest bound an end-to-end metric may have.  Its
layers are timed in traced ``batch`` runs instead.

Set-up is ``build_scenario(seed, scale=0.3)``.  Each op clears the whois
memo, builds a new ``RouterGeolocationStudy.from_scenario`` (so no
``LookupFrame`` is reused) and runs ``run(all_databases=True)`` plus
``render_summary()``: what every ``repro run`` pays for.  The report
digests are pinned in ``study_pins.json``; ``pin_study.py`` regenerates
them after confirming the frame and direct paths agree.  The traced ops
call the stages ``run()`` calls, in its order, timing each, and must
render the pinned digest too.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

from common import Result, median

from repro.core.accuracy import (
    evaluate_all,
    evaluate_by_country,
    evaluate_by_rir,
    evaluate_by_source,
    top_countries,
)
from repro.core.arincase import arin_case_study
from repro.core.cityrange import calibrate_city_range
from repro.core.consistency import consistency_analysis
from repro.core.coverage import coverage_table
from repro.core.frame import LookupFrame
from repro.core.pipeline import RouterGeolocationStudy, StudyResult
from repro.core.recommendations import build_recommendations
from repro.groundtruth.stats import table1
from repro.scenario.build import build_scenario

PINS = Path(__file__).resolve().parent / "study_pins.json"


def pinned() -> dict:
    return json.loads(PINS.read_text())


def scenario_seed(seed: int, pins: dict) -> int:
    """Map any benchmark seed onto one of the pinned scenario seeds
    (the default seed 2016 maps to itself)."""
    seeds = sorted(int(s) for s in pins["seeds"])
    return seeds[(seed - seeds[0]) % len(seeds)]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fresh_op(scenario) -> str:
    scenario.internet.whois.cache_clear()
    study = RouterGeolocationStudy.from_scenario(scenario)
    return study.run(all_databases=True).render_summary()


def traced_op(scenario, layers: dict[str, list[float]]) -> str:
    """``run(all_databases=True)`` stage by stage, each stage timed."""
    scenario.internet.whois.cache_clear()
    study = RouterGeolocationStudy.from_scenario(scenario)
    whois = study.whois
    gt = study.ground_truth
    km = study.city_range_km
    perf = time.perf_counter

    def timed(name: str, fn, *args, **kwargs):
        t0 = perf()
        value = fn(*args, **kwargs)
        layers.setdefault(name, []).append(perf() - t0)
        return value

    frame = timed(
        "core.frame.build_s", LookupFrame.build,
        study.databases, [*study.ark_addresses, *gt.addresses()],
    )
    coverage = timed("core.coverage_s", coverage_table, frame, study.ark_addresses)
    consistency = timed(
        "core.consistency_s", consistency_analysis, frame, study.ark_addresses
    )
    city_range = timed(
        "core.cityrange_s", calibrate_city_range, study.databases, study.gazetteer, km
    )
    table1_rows = timed(
        "groundtruth.table1_s", table1,
        study.dns_ground_truth, study.rtt_ground_truth, whois,
    )
    overall = timed(
        "core.accuracy.overall_s", evaluate_all, frame, gt, city_range_km=km
    )
    by_rir = timed(
        "core.accuracy.rir_s", evaluate_by_rir, frame, gt, whois, city_range_km=km
    )
    t0 = perf()
    top20 = top_countries(gt, 20)
    by_country = evaluate_by_country(
        frame, gt, countries=tuple(c for c, _ in top20), city_range_km=km
    )
    layers.setdefault("core.accuracy.country_s", []).append(perf() - t0)
    by_source = timed(
        "core.accuracy.source_s", evaluate_by_source, frame, gt, city_range_km=km
    )
    t0 = perf()
    arin_cases = {
        name: arin_case_study(name, gt, whois, city_range_km=km, frame=frame)
        for name in study.databases
    }
    layers.setdefault("core.arincase_s", []).append(perf() - t0)
    recommendations = timed(
        "core.recommendations_s", build_recommendations,
        coverage, overall, by_rir, by_source,
    )
    result = StudyResult(
        coverage=coverage,
        consistency=consistency,
        city_range=city_range,
        table1_rows=table1_rows,
        overall=overall,
        by_rir=by_rir,
        top20=top20,
        by_country=by_country,
        by_source=by_source,
        arin_cases=arin_cases,
        recommendations=recommendations,
        city_range_km=km,
    )
    return timed("core.report.render_s", result.render_summary)


def _ops(op, seconds: float) -> tuple[list[float], list[str]]:
    """Run ``op`` for ``seconds`` (at least once): durations and reports."""
    durations: list[float] = []
    texts: list[str] = []
    started = time.perf_counter()
    while not durations or time.perf_counter() - started < seconds:
        t0 = time.perf_counter()
        texts.append(op())
        durations.append(time.perf_counter() - t0)
    return durations, texts


def study_layers(seed: int, seconds: float, layers: dict, result: Result) -> None:
    """Build the pinned scenario for ``seed``, check the report digests,
    and time fresh ops: untraced for ``study.run_s``, then stage by
    stage for the ``core.*`` layers, ``seconds`` each."""
    pins = pinned()
    scen_seed = scenario_seed(seed, pins)
    expected = pins["seeds"][str(scen_seed)]
    result.detail["scenario_seed"] = scen_seed

    started = time.perf_counter()
    scenario = build_scenario(seed=scen_seed, scale=pins["scale"])
    layers["scenario.build_s"] = time.perf_counter() - started

    # First op: checks both report renderings against the pins.
    scenario.internet.whois.cache_clear()
    first = RouterGeolocationStudy.from_scenario(scenario).run(all_databases=True)
    if sha256(first.render_summary()) != expected["summary_sha256"]:
        result.fail("render_summary() digest differs from the pin")
    if sha256(first.render_markdown()) != expected["markdown_sha256"]:
        result.fail("render_markdown() digest differs from the pin")

    durations, texts = _ops(lambda: fresh_op(scenario), seconds)
    stage_times: dict[str, list[float]] = {}
    _, traced_texts = _ops(lambda: traced_op(scenario, stage_times), seconds)
    if any(sha256(text) != expected["summary_sha256"] for text in texts + traced_texts):
        result.fail("a study op rendered a report that differs from the pin")
    layers["study.run_s"] = median(durations)
    for name, values in stage_times.items():
        layers[name] = median(values)
    layers["core.accuracy_s"] = sum(
        layers[f"core.accuracy.{part}_s"]
        for part in ("overall", "rir", "country", "source")
    )
