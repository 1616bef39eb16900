"""PEP 562 lazy re-exports for package ``__init__`` modules.

Importing any submodule runs its package's ``__init__`` first, so a
package that re-exports its submodules eagerly makes every importer pay
for all of them: ``repro.serve`` needs ``repro.core.majority``, and an
eager ``repro/core/__init__.py`` would drag in numpy, networkx and the
whole study pipeline with it.  :func:`lazy_exports` defers each
re-export to its first attribute access, so ``from repro.core import
RouterGeolocationStudy`` still works while ``repro serve`` imports only
the modules it runs.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping, Sequence


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``exports`` maps each submodule (relative to ``package``) to the
    public names it defines, in ``__all__`` order.  A name is imported
    from its submodule on first access and then bound in the package
    namespace, so later lookups never reach ``__getattr__``.
    """
    owners = {
        name: f"{package}.{module}"
        for module, names in exports.items()
        for name in names
    }
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        module = owners.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(module), name)
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *owners})

    return list(owners), __getattr__, __dir__
