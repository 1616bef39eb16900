"""Regenerate ``study_pins.json``: the study report digests per seed.

Run from the root of a checkout::

    python3 perfbench/pin_study.py

For each pinned scenario seed it builds the scenario at the benchmark's
scale, runs the study on both analysis paths (the columnar
``LookupFrame`` and the original per-lookup ``use_frame=False`` path),
refuses to pin unless their ``render_summary()`` and
``render_markdown()`` texts agree, and writes the agreed digests.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = tuple(range(2016, 2024))
SCALE = 0.3


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    from repro.core.pipeline import RouterGeolocationStudy
    from repro.scenario.build import build_scenario

    pins = {"scale": SCALE, "seeds": {}}
    for seed in SEEDS:
        scenario = build_scenario(seed=seed, scale=SCALE)
        texts = []
        for use_frame in (True, False):
            scenario.internet.whois.cache_clear()
            result = RouterGeolocationStudy.from_scenario(scenario).run(
                all_databases=True, use_frame=use_frame
            )
            texts.append((result.render_summary(), result.render_markdown()))
        if texts[0] != texts[1]:
            print(f"seed {seed}: frame and direct paths disagree", file=sys.stderr)
            return 1
        summary, markdown = texts[0]
        pins["seeds"][str(seed)] = {
            "summary_sha256": hashlib.sha256(summary.encode("utf-8")).hexdigest(),
            "markdown_sha256": hashlib.sha256(markdown.encode("utf-8")).hexdigest(),
        }
        print(f"seed {seed}: pinned", flush=True)
    (HERE / "study_pins.json").write_text(json.dumps(pins, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
