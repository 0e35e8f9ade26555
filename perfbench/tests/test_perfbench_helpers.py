"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import jensenlab  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


class _Recorded:
    """Stands in for a Tracer whose spans were recorded by hand."""

    def __init__(self, names, spans, counters=None):
        self.names = names
        self.spans = spans
        self.counters = counters or {}


def test_self_time_subtracts_direct_children_only():
    spans = [
        (0, 0.0, 10.0, -1, 0, None),  # root
        (1, 1.0, 4.0, 0, 0, None),  # child of root
        (2, 2.0, 3.0, 1, 0, None),  # grandchild: covered by the child, not the root
        (1, 5.0, 9.0, 0, 0, None),  # second child of root
        (0, 11.0, 12.0, -1, 1, None),  # leaf root
    ]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]


def test_layer_metrics_from_nested_spans():
    names = ["experiments.run_experiment", "sampling.sample_pairs", "sampling.sample_points",
             "spaces.norm_many"]
    spans = [
        (0, 0.0, 10.0, -1, 0, None),
        (1, 1.0, 5.0, 0, 0, 40),  # pairs handed out by the sampling layer
        (2, 1.5, 2.5, 1, 0, 40),  # nested inside sample_pairs: not counted again
        (2, 3.0, 4.0, 1, 0, 40),
        (3, 3.25, 3.75, 3, 0, None),
        (2, 6.0, 7.0, 0, 0, 8),
    ]
    agg = tracer.aggregate(_Recorded(names, spans))
    assert tracer.layer_metric(agg, "sampling.rows") == 48
    assert tracer.layer_metric(agg, "experiments.run_experiment.self_s") == 5.0
    assert tracer.layer_metric(agg, "sampling.self_s") == 2.0 + 1.0 + 0.5 + 1.0
    assert tracer.layer_metric(agg, "spaces.self_s") == 0.5
    assert tracer.layer_metric(agg, "sampling.sample_points.calls") == 3
    assert tracer.layer_metric(agg, "sampling.sample_points.rows") == 88
    assert tracer.layer_metric(agg, "domains.self_s") == 0.0


def _small_config():
    cfgs = jensenlab.parse_config({"schema_version": 1, "experiments": [{
        "theorem_id": "thm5_2",
        "space": {"dim": 3, "norm_kind": "euclidean"},
        "codomain": {"dim": 2, "norm_kind": "euclidean"},
        "params": {"r": 1, "s": 1, "t": 1},
        "control": {"kind": "constant", "epsilon": 0.3},
        "domain": {"kind": "orthogonal", "relation": {"kind": "inner_product"}},
        "sampler": {"count": 30, "seed": 5, "radius_range": [0.1, 4.0]},
        "model": {"quadratic": [0.4, -0.2]},
        "perturbation": [{"kind": "bounded", "amplitude": 0.1, "seed": 3}],
    }]})
    return cfgs[0]


def test_tracer_patches_and_restores_every_binding():
    before = tracer.binding_snapshot(jensenlab)
    cfg = _small_config()
    plain = jensenlab.emit_report(jensenlab.run_experiment(cfg))
    t = tracer.Tracer(jensenlab)
    functions, bindings = t.install()
    try:
        assert bindings > functions > 0
        # re-exports and `from .x import y` copies are patched too
        assert jensenlab.norm_many is jensenlab.spaces.norm_many
        assert jensenlab.sampling.norm_many is jensenlab.spaces.norm_many
        assert jensenlab.spaces.norm_many.__wrapped__ is not None
        traced = jensenlab.emit_report(jensenlab.run_experiment(cfg))
    finally:
        t.uninstall()
    assert tracer.binding_snapshot(jensenlab) == before
    assert not hasattr(jensenlab.spaces.norm_many, "__wrapped__")
    assert traced == plain
    calls = tracer.aggregate(t)["calls"]
    for name in ("experiments.run_experiment", "experiments.emit_report",
                 "models.FunctionModel.eval_many", "models.perturbation_values",
                 "series.power_limit_many", "sampling.orthogonal_pairs",
                 "orthogonal.pexider_reduction_check", "spaces.norm_many"):
        assert calls.get(name, 0) > 0, name


def test_digests_stable_across_two_in_process_runs(tmp_path):
    workloads.write_inputs("verify", 3, str(tmp_path))
    first = worker.run_pass(worker.prepare(jensenlab, "verify", str(tmp_path)))[1]
    second = worker.run_pass(worker.prepare(jensenlab, "verify", str(tmp_path)))[1]
    assert [d for _, _, d in first] == [d for _, _, d in second]
    assert all(d is not None for _, _, d in first)


def test_inputs_depend_only_on_the_seed(tmp_path):
    for name in ("a", "b", "c"):
        (tmp_path / name).mkdir()
    workloads.write_inputs("search", 7, str(tmp_path / "a"))
    workloads.write_inputs("search", 7, str(tmp_path / "b"))
    workloads.write_inputs("search", 8, str(tmp_path / "c"))
    a, b, c = ((tmp_path / n / "configs.json").read_text() for n in ("a", "b", "c"))
    assert a == b
    assert a != c
