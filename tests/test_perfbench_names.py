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


def _tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", WORKER.parent / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", _WL.WORKLOADS)
def test_benchmark_predicted_calls_are_reached(tmp_path, workload):
    """One seed-1 pass of each workload under the benchmark's tracer reaches
    every function its MUST_RUN list predicts, so a change that stops
    calling one fails here rather than in a traced run's ``correct`` check."""
    _WL.write_inputs(workload, 1, str(tmp_path))
    ops = _W.prepare(jensenlab, workload, str(tmp_path))
    tracer = _tracer().Tracer(jensenlab)
    tracer.install()
    try:
        _, results = _W.run_pass(ops, tracer)
    finally:
        tracer.uninstall()
    assert all(digest is not None for _, _, digest in results)
    calls = _tracer().aggregate(tracer)["calls"]
    assert [name for name in _W.MUST_RUN[workload] if not calls.get(name)] == []


def test_certificate_skips_as_many_verify_rows(tmp_path):
    """On the seed-1 verify inputs the limit loop evaluates at most 115,087
    FunctionModel rows in its limits of a FunctionModel or a ScaledModel of
    one: 113,787 in the four 4000-point limits, whose certified runs are
    skipped, and 1,300 in the 50-point Pexider limit of the linear_scale 1e8
    probe, which fits one block.  A leaner certificate may skip other steps,
    but not fewer of them."""
    from unittest import mock

    from jensenlab import experiments, models

    _WL.write_inputs("verify", 1, str(tmp_path))
    plain, rows = [], [0]
    limit, evaluate = experiments.power_limit_many, models.FunctionModel.eval_many

    def counted_limit(f, *args, **kwargs):
        base = f
        while type(base) is models.ScaledModel:
            base = base.base
        plain.append(type(base) is models.FunctionModel)
        try:
            return limit(f, *args, **kwargs)
        finally:
            plain.pop()

    def counted_eval(self, X, cand=None):
        if plain and plain[-1]:
            rows[0] += len(X)
        return evaluate(self, X, cand)

    with mock.patch.object(experiments, "power_limit_many", counted_limit), \
            mock.patch.object(models.FunctionModel, "eval_many", counted_eval):
        for path in sorted(p for p in tmp_path.glob("*.json") if p.name != "plan.json"):
            for cfg in jensenlab.load_config(str(path)):
                jensenlab.run_experiment(cfg)
    assert 0 < rows[0] <= 115_087
