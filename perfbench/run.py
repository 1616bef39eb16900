"""Repository benchmark: the ``lookup`` and ``batch`` workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload lookup --seed 2016 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics
(a layer the workload does not exercise reports 0).  Lines before the
result carry details: ladder rungs, steal share, sample counts.
See ``perfbench/README.md`` for every definition.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("lookup", "batch")


def _manifest() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still unwinds, so the server child is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    manifest = _manifest()

    import serving

    runner = serving.run_lookup if args.workload == "lookup" else serving.run_batch
    result = runner(args.seed, args.seconds, bool(args.trace))

    if args.trace:
        layers = result.detail.pop("layers")
        wanted = manifest["per_layer"]
        unknown = set(layers) - {entry["name"] for entry in wanted}
        if unknown:
            raise RuntimeError(f"layer metrics missing from BENCHMARK.json: {sorted(unknown)}")
        # A layer this workload does not exercise reports 0.
        metrics = {
            entry["name"]: {"value": float(layers.get(entry["name"], 0.0)), "unit": entry["unit"]}
            for entry in wanted
        }
    else:
        # Layer values an untraced run measures anyway (the tail
        # latency) stay in the detail line.
        metrics = {}
        for entry in manifest["end_to_end"]:
            value, unit = result.metrics[entry["name"]]
            if unit != entry["unit"]:
                raise RuntimeError(f"{entry['name']}: unit {unit} != {entry['unit']}")
            metrics[entry["name"]] = {"value": value, "unit": unit}
    detail = dict(result.detail)
    detail["workload"] = args.workload
    detail["seed"] = args.seed
    if args.trace:
        detail["end_to_end"] = {name: value for name, (value, _) in result.metrics.items()}
    if result.problems:
        detail["problems"] = result.problems
    print("# " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 - report and fail without a result line
        traceback.print_exc()
        sys.exit(1)
