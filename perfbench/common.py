"""Shared helpers: quantiles, /proc readers, the rate ladder, and the
result record.

Nothing here imports program code, so the serving, enrichment and study
workloads can share it without importing one another.  Host figures
come from ``/proc`` (Linux).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from pathlib import Path

#: The checkout root: ``perfbench/`` sits directly under it.
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def quantile(values, q: float) -> float:
    """Nearest-rank ``q`` quantile (``0 < q <= 1``) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no values")
    rank = math.ceil(q * len(ordered) - 1e-9)
    return ordered[min(len(ordered), max(1, rank)) - 1]


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def window_p99(latencies: list[float], windows: int) -> float:
    """Median over ``windows`` consecutive equal slices (in schedule order)
    of each slice's 99th percentile: a host-noise burst shorter than half
    the phase moves it little, a backlog that builds up moves it fully."""
    width = len(latencies) // windows
    if width < 100:
        return quantile(latencies, 0.99)
    return median(
        quantile(latencies[i * width : (i + 1) * width], 0.99)
        for i in range(windows)
    )


def vmhwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of ``pid`` in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_seconds(pid: int | str = "self") -> float:
    """User + system CPU seconds consumed so far by ``pid``."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    # Fields after the parenthesised command name; utime/stime are the
    # 14th and 15th fields of the whole line.
    fields = stat[stat.rindex(")") + 2 :].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


class StealMeter:
    """Share of host CPU time stolen by the hypervisor since creation."""

    def __init__(self) -> None:
        self._start = self._read()

    @staticmethod
    def _read() -> tuple[int, int]:
        with open("/proc/stat") as handle:
            fields = [int(x) for x in handle.readline().split()[1:]]
        # user nice system idle iowait irq softirq steal [guest guest_nice];
        # guest time is already counted inside user/nice.
        total = sum(fields[:8])
        steal = fields[7] if len(fields) > 7 else 0
        return steal, total

    def share(self) -> float:
        steal, total = self._read()
        d_total = total - self._start[1]
        return (steal - self._start[0]) / d_total if d_total > 0 else 0.0


LADDER_STEP = 1.1
#: Ladder bounds: at most this many rungs above / below the first.
LADDER_MAX_UP = 12
LADDER_MAX_DOWN = 16


def ladder_steps(attempt, base_rate: float, start: int):
    """Step the offered rate by x1.1 on a grid anchored at ``base_rate``.

    ``attempt(rate)`` runs one rung and returns ``(ok, achieved, record)``;
    a rung that fails is run once more and passes if the retry does, so
    one burst of host noise does not end the ladder.  The ladder starts
    at rung ``start`` and goes up until the first failing rung or, if
    ``start`` already fails, down until one passes.
    Returns ``(capacity, achieved, records)``: the highest passing offered
    rate, the completion rate measured on that rung, and every rung run.
    """
    records = []

    def at(step: int) -> tuple[bool, float]:
        for _ in range(2):
            ok, achieved, record = attempt(base_rate * LADDER_STEP ** step)
            record["pass"] = ok
            records.append(record)
            if ok:
                break
        return ok, achieved

    step = start
    ok, achieved = at(step)
    best = (step, achieved) if ok else None
    if ok:
        while step < start + LADDER_MAX_UP:
            step += 1
            ok, achieved = at(step)
            if not ok:
                break
            best = (step, achieved)
    else:
        while best is None and step > start - LADDER_MAX_DOWN:
            step -= 1
            ok, achieved = at(step)
            if ok:
                best = (step, achieved)
    if best is None:
        raise RuntimeError("no ladder rung passed")
    return base_rate * LADDER_STEP ** best[0], best[1], records


@dataclass
class Result:
    """What one run prints as its final line."""

    correct: bool = True
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Free-form numbers printed before the result line (not part of it).
    detail: dict[str, object] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def fail(self, problem: str) -> None:
        self.correct = False
        self.problems.append(problem)
