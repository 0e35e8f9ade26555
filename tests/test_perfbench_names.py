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
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import jensenlab
from jensenlab.spaces import norm_many

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
    """On the seed-1 verify inputs the limit loop evaluates, per ``_Batch.limit``
    subject, at most 115,087 FunctionModel rows in its limits of a FunctionModel
    or a ScaledModel of one (113,787 in the four 4000-point limits, whose
    certified runs are skipped, and 1,300 in the 50-point Pexider limit of the
    linear_scale 1e8 probe, which fits one block) and at most 70,000 in its three
    parity-part limits (61,315: each is taken as the FunctionModel with the
    other parity's exact term dropped, at x and −x, and its certified runs are
    skipped too; iterating every step of the parts took 252,869).  A leaner
    certificate may skip other steps, but not fewer of them."""
    from unittest import mock

    from jensenlab import experiments, models

    _WL.write_inputs("verify", 1, str(tmp_path))
    subjects, rows = [], {"plain": 0, "parity": 0}
    limit, evaluate = experiments._Batch.limit, models.FunctionModel.eval_many

    def counted_limit(self, subject, *args):
        base = subject
        while type(base) is models.ScaledModel:
            base = base.base
        assert type(base) in (models.FunctionModel, models.OddPart, models.EvenPart)
        subjects.append("plain" if type(base) is models.FunctionModel else "parity")
        try:
            return limit(self, subject, *args)
        finally:
            subjects.pop()

    def counted_eval(self, X, cand=None):
        if subjects:
            rows[subjects[-1]] += len(X)
        return evaluate(self, X, cand)

    with mock.patch.object(experiments._Batch, "limit", counted_limit), \
            mock.patch.object(models.FunctionModel, "eval_many", counted_eval):
        for path in sorted(p for p in tmp_path.glob("*.json") if p.name != "plan.json"):
            for cfg in jensenlab.load_config(str(path)):
                jensenlab.run_experiment(cfg)
    assert 0 < rows["plain"] <= 115_087
    assert 0 < rows["parity"] <= 70_000


def test_certificate_skips_as_many_search_rows(tmp_path):
    """One pass of the seed-1 search inputs evaluates at most 132,400
    FunctionModel rows inside its theorem limits (``_Batch.limit``), as many
    as before the certificate's constants were cached per model."""
    from unittest import mock

    from jensenlab import experiments, models

    _WL.write_inputs("search", 1, str(tmp_path))
    ops = _W.prepare(jensenlab, "search", str(tmp_path))
    inside, rows = [], [0]
    limit, evaluate = experiments._Batch.limit, models.FunctionModel.eval_many

    def counted_limit(self, *args):
        inside.append(self)
        try:
            return limit(self, *args)
        finally:
            inside.pop()

    def counted_eval(self, X, cand=None):
        rows[0] += len(X) if inside else 0
        return evaluate(self, X, cand)

    with mock.patch.object(experiments._Batch, "limit", counted_limit), \
            mock.patch.object(models.FunctionModel, "eval_many", counted_eval):
        _W.run_pass(ops)
    assert 0 < rows[0] <= 132_400


def test_exact_ball_extension_certifies_no_point_unseen(tmp_path):
    """The seed-1 verify pass makes four certificate calls in the thm6_1 and
    thm6_2 ball extensions.  Their models are exact, so no part's change can
    lead: each returns the reference's (c, s), no step certified, without
    taking a norm of its points."""
    from unittest import mock

    from jensenlab import orthogonal, series
    from series_reference import certified_steps_reference

    _WL.write_inputs("verify", 1, str(tmp_path))
    inside, calls = [], []
    extend, certify = orthogonal.power_limit_many, series._certified_steps

    def tagged(*args, **kwargs):
        inside.append(True)
        try:
            return extend(*args, **kwargs)
        finally:
            inside.pop()

    def recorded(*args):
        if inside:
            calls.append(args)
        return certify(*args)

    with mock.patch.object(orthogonal, "power_limit_many", tagged), \
            mock.patch.object(series, "_certified_steps", recorded):
        for tid in ("thm6_1", "thm6_2"):
            (path,) = tmp_path.glob(f"exp-*-{tid}.json")
            for cfg in jensenlab.load_config(str(path)):
                jensenlab.run_experiment(cfg)
    assert len(calls) == 4
    for args in calls:
        rows = []
        norms = mock.Mock(side_effect=lambda space, X: rows.append(len(X)) or norm_many(space, X))
        with mock.patch.object(series, "norm_many", norms):
            got = series._certified_steps(*args)
        want = certified_steps_reference(*args)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want, strict=True))
        assert np.all(got[0] == 2**62) and len(args[1]) not in rows


def test_no_limit_evaluates_a_parity_part(tmp_path):
    """On the seed-1 verify inputs no limit of any id, the ball extension's of
    thm6_1 and thm6_2 included, evaluates an OddPart or EvenPart row:
    power_limit_many iterates each parity part as its plain model.  The ball
    extension's limits evaluate at most 22,707 model rows, as many as when
    they iterated the parts: their models carry no perturbation, so each
    part's plain model runs at x alone."""
    from unittest import mock

    from jensenlab import models, orthogonal, series

    _WL.write_inputs("verify", 1, str(tmp_path))
    inside, rows = [], {"parity": 0, "ball": 0}

    def tagged(fn, tag):
        def run(*args, **kwargs):
            inside.append(tag)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()
        return run

    def counted(evaluate, key, tag):
        def run(self, X, cand=None):
            if tag in inside:
                rows[key] += len(X)
            return evaluate(self, X, cand)
        return run

    with mock.patch.object(series, "_power_limit", tagged(series._power_limit, "limit")), \
            mock.patch.object(orthogonal, "power_limit_many",
                              tagged(orthogonal.power_limit_many, "ball")), \
            mock.patch.object(models._Parity, "eval_many",
                              counted(models._Parity.eval_many, "parity", "limit")), \
            mock.patch.object(models.FunctionModel, "eval_many",
                              counted(models.FunctionModel.eval_many, "ball", "ball")):
        tids = set()
        for path in sorted(p for p in tmp_path.glob("*.json") if p.name != "plan.json"):
            for cfg in jensenlab.load_config(str(path)):
                tids.add(cfg.theorem_id)
                jensenlab.run_experiment(cfg)
    assert {"thm4_3", "thm5_2", "thm6_1", "thm6_2"} <= tids
    assert rows["parity"] == 0
    assert 0 < rows["ball"] <= 22_707


def test_parity_limits_lie_within_tol_on_verify_inputs(tmp_path):
    """On the seed-1 verify inputs every thm4_3 and thm5_2 limit value lies
    within tol of its exact value: L·x for thm4_3's Pexider limit of the odd
    part, L·x + q‖x‖² for thm5_2's sum of the odd and even limits.  Taking a
    parity part's limit as its model's limits at x and −x stops each half on
    a gap that its certified steps cannot fake; iterating the parts stopped on
    chance small gaps up to 24·tol away."""
    from unittest import mock

    from jensenlab import experiments

    _WL.write_inputs("verify", 1, str(tmp_path))
    taken, limit = {}, experiments._Batch.limit

    def recording_limit(self, *args):
        out = limit(self, *args)
        taken.setdefault(id(self), [self]).append(out[0])
        return out

    with mock.patch.object(experiments._Batch, "limit", recording_limit):
        for tid in ("thm4_3", "thm5_2"):
            (path,) = tmp_path.glob(f"exp-*-{tid}.json")
            for cfg in jensenlab.load_config(str(path)):
                jensenlab.run_experiment(cfg)
    assert sorted(len(v) for v in taken.values()) == [2, 3]
    for b, *values in taken.values():
        exact = replace(b.f, perturbations=()).eval_many(b.X0, b.cand)
        assert np.max(b.norm(sum(values) - exact)) <= b.tol
