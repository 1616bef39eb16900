"""The serving stack imports without the study stack.

``repro serve --snapshots/--store`` runs the modules below and nothing
of the study: numpy, networkx, the pipeline and the topology builder
are resident memory a serving process pays for and never uses.  The
check runs in a fresh interpreter, since the test process has long
imported everything.  The packages that re-export the study lazily must
still resolve every exported name.
"""

import importlib
import json
import subprocess
import sys

import pytest

SERVING_MODULES = [
    "repro.cli",
    "repro.serve.engine",
    "repro.serve.plane",
    "repro.serve.http",
    "repro.serve.store",
    "repro.serve.snapshot",
]

STUDY_MODULES = [
    "numpy",
    "networkx",
    "repro.core.pipeline",
    "repro.topology.builder",
]

LAZY_PACKAGES = [
    "repro",
    "repro.core",
    "repro.geodb",
    "repro.groundtruth",
    "repro.topology",
    "repro.dns",
]


def test_serving_modules_leave_the_study_unimported():
    script = (
        "import importlib, json, sys\n"
        f"for name in {SERVING_MODULES!r}:\n"
        "    importlib.import_module(name)\n"
        f"print(json.dumps([m for m in {STUDY_MODULES!r} if m in sys.modules]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert json.loads(done.stdout) == []


@pytest.mark.parametrize("package_name", LAZY_PACKAGES)
def test_lazy_exports_resolve(package_name):
    package = importlib.import_module(package_name)
    assert package.__all__
    names = dir(package)
    for name in package.__all__:
        assert getattr(package, name) is not None, f"{package_name}.{name}"
        assert name in names
    star: dict = {}
    exec(f"from {package_name} import *", star)
    assert set(package.__all__) <= set(star)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        package.no_such_name
