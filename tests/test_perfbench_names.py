"""Every function the benchmark gates on still exists in the package.

``perfbench/worker.py`` lists, per workload, the ``module.func`` and
``module.Class.method`` names a traced run must reach (``MUST_RUN``) and the
ones it reports without gating (``BYPASSED``).  A name that no longer
resolves makes the traced run fail its ``correct`` check, so a deletion in
``src/`` has to show up here first.  The worker module is loaded from its
file, not edited or imported as a package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"


def _worker():
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_W = _worker()
NAMES = sorted(
    {name for table in (_W.MUST_RUN, _W.BYPASSED) for names in table.values() for name in names}
)


@pytest.mark.parametrize("name", NAMES)
def test_benchmark_name_resolves(name):
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"jensenlab.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    assert callable(obj)
