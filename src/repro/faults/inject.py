"""Deterministic, seedable fault injection for the serving layer's inputs.

A :class:`FaultInjector` owns a set of armed :class:`FaultSpec`\\ s and a
seed; everything it does — which bit of a snapshot flips, where a file
is cut short — derives from ``random.Random`` streams keyed by
``(seed, kind, target)``, so a single seed reproduces an entire chaos
run exactly.

Every fault is applied to bytes on disk, before anything loads them:

* :meth:`FaultInjector.sabotage_snapshots` corrupts or deletes ``.rgix``
  files in a snapshot directory (the :class:`FaultKind` matrix);
* :meth:`FaultInjector.sabotage_generation` wrecks a published store
  generation (the :class:`StoreFaultKind` matrix).

The request path has nothing to inject into: compiled indexes are
immutable and in memory, so a generation's health is decided once, at
load.
"""

from __future__ import annotations

import pathlib
import random
from typing import Sequence

from repro.faults.matrix import (
    SNAPSHOT_KINDS,
    FaultKind,
    FaultSpec,
    StoreFaultKind,
)

__all__ = ["FaultInjector"]


class FaultInjector:
    """A seeded fault plan plus the machinery to apply it to disk."""

    def __init__(self, seed: int, specs: Sequence[FaultSpec], *, metrics=None):
        self.seed = int(seed)
        self.specs = tuple(specs)
        self._metrics = metrics

    # -- determinism ---------------------------------------------------------

    def _rng(self, *scope: str) -> random.Random:
        """An independent, reproducible stream for one (kind, target) cell."""
        return random.Random("|".join((str(self.seed), *scope)))

    # -- load-time faults ----------------------------------------------------

    def sabotage_snapshots(self, directory: str | pathlib.Path) -> list[str]:
        """Apply every armed snapshot fault to ``directory``'s ``.rgix`` files.

        Returns human-readable descriptions of what was done (the chaos
        suite logs them); deterministic in file order and in every byte
        touched.
        """
        directory = pathlib.Path(directory)
        applied: list[str] = []
        for spec in self.specs:
            if spec.kind not in SNAPSHOT_KINDS:
                continue
            for path in sorted(directory.glob("*.rgix")):
                if not spec.targets(path.stem):
                    continue
                rng = self._rng(spec.kind.value, path.stem)
                description = self._corrupt(path, spec.kind, rng)
                applied.append(f"{path.name}: {description}")
                if self._metrics is not None:
                    self._metrics.inc(
                        "faults.injected", kind=spec.kind.value, target=path.stem
                    )
        return applied

    def sabotage_generation(
        self, directory: str | pathlib.Path, kind: StoreFaultKind
    ) -> str:
        """Apply one store fault to a published generation directory.

        Models the lifecycle failures a publisher/filesystem produces
        *after* :class:`~repro.serve.store.SnapshotStore` wrote a valid
        generation: a manifest cut short, a payload rotting under its
        recorded digest, a promised plane file gone.  Deterministic per
        ``(seed, kind, directory-name)`` stream, same as every other
        fault.  Returns a human-readable description for the chaos log.
        """
        directory = pathlib.Path(directory)
        rng = self._rng("store", kind.value, directory.name)
        if self._metrics is not None:
            self._metrics.inc(
                "faults.injected", kind=kind.value, target=directory.name
            )
        if kind is StoreFaultKind.MANIFEST_PARTIAL:
            path = directory / "MANIFEST.json"
            blob = path.read_bytes()
            keep = rng.randrange(1, len(blob))  # non-empty, strictly shorter
            path.write_bytes(blob[:keep])
            return f"{path.name}: truncated to {keep}/{len(blob)} bytes"
        if kind is StoreFaultKind.PAYLOAD_CORRUPT:
            targets = sorted(directory.glob("*.rgix"))
            if not targets:
                raise ValueError(f"no .rgix payloads to corrupt in {directory}")
            path = targets[rng.randrange(len(targets))]
            blob = path.read_bytes()
            bit = rng.randrange(len(blob) * 8)
            corrupted = bytearray(blob)
            corrupted[bit // 8] ^= 1 << (bit % 8)
            path.write_bytes(bytes(corrupted))
            return f"{path.name}: flipped bit {bit}"
        if kind is StoreFaultKind.PLANE_MISSING:
            path = directory / "plane.rgpl"
            if not path.exists():
                raise ValueError(f"{directory} holds no plane.rgpl to delete")
            path.unlink()
            return f"{path.name}: deleted"
        raise ValueError(f"not a store fault: {kind}")  # pragma: no cover

    @staticmethod
    def _corrupt(
        path: pathlib.Path, kind: FaultKind, rng: random.Random
    ) -> str:
        blob = path.read_bytes()
        if kind is FaultKind.INDEX_MISSING:
            path.unlink()
            return "deleted"
        if kind is FaultKind.SNAPSHOT_MAGIC:
            path.write_bytes(b"XGIX" + blob[4:])
            return "magic overwritten"
        if kind is FaultKind.SNAPSHOT_TRUNCATE:
            keep = rng.randrange(len(blob))  # strictly shorter
            path.write_bytes(blob[:keep])
            return f"truncated to {keep}/{len(blob)} bytes"
        if kind is FaultKind.SNAPSHOT_BITFLIP:
            bit = rng.randrange(len(blob) * 8)
            corrupted = bytearray(blob)
            corrupted[bit // 8] ^= 1 << (bit % 8)
            path.write_bytes(bytes(corrupted))
            return f"flipped bit {bit}"
        raise ValueError(f"not a snapshot fault: {kind}")  # pragma: no cover

    def __repr__(self) -> str:  # pragma: no cover - trivial
        armed = ", ".join(spec.describe() for spec in self.specs)
        return f"FaultInjector(seed={self.seed}: {armed})"
