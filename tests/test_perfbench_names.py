"""Every function the benchmark gates on still exists, and its configs still load.

``perfbench/worker.py`` lists, per workload, the ``module.func`` and
``module.Class.method`` names a traced run must reach (``MUST_RUN``) and the
ones it reports without gating (``BYPASSED``).  A name that no longer
resolves makes the traced run fail its ``correct`` check, so a deletion in
``src/`` has to show up here first.  The worker module is loaded from its
file, not edited or imported as a package.  So is ``perfbench/workloads.py``,
whose seed-1 configs must all load.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import jensenlab

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


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", WORKER.parent / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_WL = _workloads()


@pytest.mark.parametrize("workload", _WL.WORKLOADS)
def test_benchmark_configs_load(tmp_path, workload):
    """Every config file of a workload's seed-1 inputs parses: a config is
    validated once, when it is built, so a theorem check that refuses a
    benchmark config fails here rather than in a benchmark run."""
    _WL.write_inputs(workload, 1, str(tmp_path))
    paths = sorted(p for p in tmp_path.glob("*.json") if p.name != "plan.json")
    assert paths
    for path in paths:
        assert jensenlab.load_config(str(path))
