"""The fault matrix: every way this system is allowed to break.

Gouel et al.'s longitudinal study shows geolocation snapshots drift and
rot continuously in production; Klein et al.'s *Overconfident
Coordinates* argues an answer without an honest confidence signal is
worse than no answer.  Together they set the serving layer's failure
contract — *never an unflagged wrong answer* — and this module
enumerates the concrete faults that contract is proved against:

===================== =====================================================
fault kind            what it models
===================== =====================================================
``snapshot_bitflip``  silent on-disk corruption of a ``.rgix`` snapshot
``snapshot_truncate`` a partially-written / partially-copied snapshot
``snapshot_magic``    a mislabeled or foreign file in the snapshot dir
``index_missing``     a vendor whose snapshot never arrived
===================== =====================================================

All four are *load-time* faults: they corrupt bytes before the engine
boots, which is the only place a compiled, in-memory index can fail.
The first three must refuse to load; the last one boots a degraded
generation that flags the missing vendor on every answer.
:func:`full_matrix` expands the kinds against a vendor list — the sweep
`tests/faults/` runs cell by cell.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "FaultKind",
    "FaultSpec",
    "SNAPSHOT_KINDS",
    "STORE_KINDS",
    "StoreFaultKind",
    "full_matrix",
]


class FaultKind(enum.Enum):
    """One row of the fault matrix."""

    SNAPSHOT_BITFLIP = "snapshot_bitflip"
    SNAPSHOT_TRUNCATE = "snapshot_truncate"
    SNAPSHOT_MAGIC = "snapshot_magic"
    INDEX_MISSING = "index_missing"


#: Faults applied to snapshot bytes on disk, before the engine boots.
SNAPSHOT_KINDS: tuple[FaultKind, ...] = (
    FaultKind.SNAPSHOT_BITFLIP,
    FaultKind.SNAPSHOT_TRUNCATE,
    FaultKind.SNAPSHOT_MAGIC,
    FaultKind.INDEX_MISSING,
)


class StoreFaultKind(enum.Enum):
    """One way a snapshot-store *generation* breaks on disk.

    A separate enum from :class:`FaultKind` on purpose: these faults
    target the lifecycle plane (a published generation directory with a
    manifest), not a bare snapshot directory, and adding them to
    :class:`FaultKind` would silently widen :func:`full_matrix` — the
    chaos sweep the whole fail-closed contract is gated on.

    ===================== ==================================================
    ``manifest_partial``  a manifest cut short mid-write (publisher crash)
    ``payload_corrupt``   a vendor ``.rgix`` whose bytes rotted after the
                          manifest digest was taken
    ``plane_missing``     a ``plane.rgpl`` the manifest promises but the
                          filesystem lost
    ===================== ==================================================

    Applied by :meth:`~repro.faults.inject.FaultInjector.\
sabotage_generation`; the store suite proves each one is rejected with
    the serving generation untouched.
    """

    MANIFEST_PARTIAL = "manifest_partial"
    PAYLOAD_CORRUPT = "payload_corrupt"
    PLANE_MISSING = "plane_missing"


#: Faults applied to a published snapshot-store generation directory.
STORE_KINDS: tuple[StoreFaultKind, ...] = tuple(StoreFaultKind)


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """One armed fault: a kind and an optional vendor.

    ``vendor=None`` targets every vendor.
    """

    kind: FaultKind
    vendor: str | None = None

    def targets(self, vendor: str) -> bool:
        """Whether this spec applies to ``vendor``."""
        return self.vendor is None or self.vendor == vendor

    def describe(self) -> str:
        scope = self.vendor if self.vendor is not None else "*"
        return f"{self.kind.value}[{scope}]"


def full_matrix(vendors: Sequence[str]) -> list[FaultSpec]:
    """Every (kind, vendor) cell — the chaos sweep's axis."""
    return [
        FaultSpec(kind=kind, vendor=vendor)
        for kind in FaultKind
        for vendor in vendors
    ]
