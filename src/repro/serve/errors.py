"""Typed failure modes of the serving layer.

The fail-closed contract — *a correct answer, a flagged degraded
answer, or a typed error, never an unflagged wrong answer* — needs the
"typed error" leg to actually be typed.  Everything the serving layer
refuses to do is an instance of :class:`ServeError`:

* :class:`~repro.serve.snapshot.SnapshotError` — a snapshot file could
  not be written, read, or trusted (load-time faults land here);
* :class:`~repro.serve.store.StoreError` — a store generation could not
  be published, loaded, or validated;
* a bare :class:`ServeError` — a swap or watcher registration on a
  closed engine.
"""

from __future__ import annotations

__all__ = ["ServeError"]


class ServeError(RuntimeError):
    """Base for every typed serving-layer failure."""
