"""Fault injection for the serving layer: break it on purpose, on a seed.

Production geolocation serving degrades — snapshots rot (Gouel et al.),
copies arrive truncated, a vendor's release never shows up — and the
ROADMAP's "heavy traffic" goal requires the system to *fail closed*: a
fault may cost coverage, never an unflagged wrong answer.  A compiled
index is immutable and in memory, so every such fault happens at load
time, and this package supplies those controlled failures:

* :mod:`repro.faults.matrix` — the fault matrix
  (:class:`FaultKind` / :class:`FaultSpec`) and :func:`full_matrix`
  for the exhaustive sweep;
* :mod:`repro.faults.inject` — :class:`FaultInjector`, the seeded
  engine that sabotages ``.rgix`` snapshot bytes on disk; every
  decision derives from the one seed.

:class:`StoreFaultKind` extends the matrix to the snapshot-store
lifecycle plane (partial manifest, rotten payload, missing plane file)
via :meth:`FaultInjector.sabotage_generation` — kept out of
:class:`FaultKind` so the :func:`full_matrix` sweep stays about bare
snapshot directories.

Nothing here touches the request path: with no injector constructed,
the files on disk are simply the ones that were published.
"""

from repro.faults.inject import FaultInjector
from repro.faults.matrix import (
    SNAPSHOT_KINDS,
    STORE_KINDS,
    FaultKind,
    FaultSpec,
    StoreFaultKind,
    full_matrix,
)

__all__ = [
    "FaultInjector",
    "FaultKind",
    "FaultSpec",
    "SNAPSHOT_KINDS",
    "STORE_KINDS",
    "StoreFaultKind",
    "full_matrix",
]
