"""Batched runs: a list of configs through one run_experiment call.

Configs that differ only in sampler.seed, sampler.radius_range, model.seed
and the perturbation seeds run as one batch, and each report must be
byte-identical to the report of its config run alone.  The search runs its
restarts as lockstep chains through such batches.
"""

import copy
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jensenlab import experiments
from jensenlab.experiments import (
    ConfigError,
    SearchSettings,
    adversarial_search,
    config_to_dict,
    emit_report,
    parse_experiment,
    run_experiment,
)
from jensenlab.models import (
    BOUNDED,
    POWER,
    EvenPart,
    FunctionModel,
    ModelError,
    OddPart,
    PerturbationSpec,
)
from jensenlab.spaces import euclidean_space

E3 = {"dim": 3, "norm_kind": "euclidean"}
E2 = {"dim": 2, "norm_kind": "euclidean"}
P3 = {"dim": 3, "norm_kind": "p_norm", "p": 3.0}
MIXED = {"kind": "mixed", "epsilon": 0.3, "delta": 0.2, "p": 0.5}
CONST = {"kind": "constant", "epsilon": 0.4}
LIMIT_IDS = sorted(experiments._THEOREMS)
DOMAINS = {
    "thm3_1": {"kind": "exterior", "d": 1.5},
    "prop4_1": {"kind": "punctured"},
    "prop4_2": {"kind": "punctured"},
    "thm4_3": {"kind": "punctured"},
    "thm5_2": {"kind": "orthogonal", "relation": {"kind": "inner_product"}},
}
# small seeds collide now and then, so some terms keep one seed for all candidates
SEEDS = st.integers(0, 3) | st.integers(0, 2**64 - 1)


def _experiment(tid, count=8, space=E3):
    r, s, t = {"thm5_2": (1, 1, 1), "prop4_1": (3, 2, 1), "thm4_3": (3, 2, 1)}.get(tid, (2, 1, 1))
    return {
        "theorem_id": tid,
        "space": space,
        "codomain": E2,
        "params": {"r": r, "s": s, "t": t},
        "control": CONST if tid in ("thm3_1", "thm4_3", "thm5_2") else MIXED,
        "domain": DOMAINS.get(tid, {"kind": "full"}),
        "sampler": {"count": count, "seed": 11, "radius_range": [0.2, 6.0]},
        "model": {"seed": 5},
        # the power term's iteration cap grows with the upper sampling radius
        "perturbation": [
            {"kind": "bounded", "amplitude": 0.05, "seed": 2},
            {"kind": "power", "delta": 0.03, "p": 0.5, "seed": 3},
        ],
    }


@st.composite
def _batches(draw):
    """1-5 compatible configs of one limit theorem, differing in every free key."""
    tid = draw(st.sampled_from(LIMIT_IDS))
    space = E3 if tid == "thm5_2" else draw(st.sampled_from([E3, P3]))
    base = _experiment(tid, count=draw(st.sampled_from([1, 3, 8])), space=space)
    # a quadratic part keeps the dyadic and triadic limits from settling, so
    # they run to each candidate's own iteration cap
    base["model"]["quadratic"] = draw(st.sampled_from([None, [0.3, -0.1]]))
    cfgs = []
    for _ in range(draw(st.integers(1, 5))):
        exp = copy.deepcopy(base)
        lo = draw(st.floats(0.05, 1.0))
        exp["sampler"]["seed"] = draw(SEEDS)
        exp["sampler"]["radius_range"] = [lo, lo + draw(st.floats(0.5, 40.0))]
        exp["model"]["seed"] = draw(st.none() | SEEDS)  # None: the sampler seed draws L
        for p in exp["perturbation"]:
            p["seed"] = draw(SEEDS)
        cfgs.append(parse_experiment(exp))
    return cfgs


@settings(derandomize=True, max_examples=60, deadline=None)
@given(cfgs=_batches())
def test_batch_reports_equal_solo_reports(cfgs):
    reports = run_experiment(cfgs)
    assert len(reports) == len(cfgs)
    for cfg, rep in zip(cfgs, reports):
        solo = run_experiment(cfg)
        assert emit_report(rep) == emit_report(solo)
        assert rep.failed_checks == solo.failed_checks


def test_batch_of_other_theorems_runs_each_config():
    base = _experiment("cor2_2", count=20)
    base.update(theorem_id="cor3_2", expected_decay=False,
                shells={"edges": [0.5, 1.0, 2.0], "samples_per_shell": 10})
    cfgs = [parse_experiment(dict(base, sampler=dict(base["sampler"], seed=seed)))
            for seed in (1, 2)]
    reports = run_experiment(cfgs)
    assert [emit_report(r) for r in reports] == [emit_report(run_experiment(c)) for c in cfgs]


def _set(path, value):
    def change(exp):
        *keys, last = path.split(".")
        d = exp
        for key in keys:
            d = d[key]
        d[last] = value
    return change


@pytest.mark.parametrize(
    "base, key, change",
    [
        ("cor2_2", "theorem_id", _set("theorem_id", "thm2_1")),
        ("cor2_2", "params.r", _set("params.r", 3)),
        ("cor2_2", "control.epsilon", _set("control.epsilon", 0.31)),
        ("cor2_2", "control.kind", _set("control", CONST)),
        ("cor2_2", "space.norm_kind", _set("space", P3)),
        ("cor2_2", "sampler.count", _set("sampler.count", 9)),
        ("cor2_2", "model.linear_scale", _set("model.linear_scale", 2.0)),
        ("cor2_2", "perturbation[1].delta", _set("perturbation", [
            {"kind": "bounded", "amplitude": 0.05, "seed": 2},
            {"kind": "power", "delta": 0.04, "p": 0.5, "seed": 3}])),
        ("cor2_2", "limits.tol", _set("limits", {"tol": 1e-8})),
        ("thm3_1", "domain.d", _set("domain.d", 2.0)),
        ("thm4_3", "theorem_id", _set("theorem_id", "prop4_1")),
        ("thm4_3", "domain.kind", lambda e: e.update(theorem_id="thm3_1", domain=DOMAINS["thm3_1"])),
        ("thm5_2", "domain.relation.kind", _set("domain.relation.kind", "trivial")),
    ],
)
def test_batch_rejects_other_differences(base, key, change):
    exp = _experiment(base)
    other = copy.deepcopy(exp)
    change(other)
    other["sampler"]["seed"] = 12  # a free key may differ as well
    cfgs = [parse_experiment(exp), parse_experiment(other)]  # each valid on its own
    with pytest.raises(ConfigError, match=re.escape(key)) as info:
        run_experiment(cfgs)
    assert "sampler.seed" not in str(info.value).split("differs from config 0 in")[1]


def test_empty_batch_is_refused():
    with pytest.raises(ConfigError, match="at least one config"):
        run_experiment([])


def test_model_rows_follow_their_candidate():
    """A model of K candidates evaluates each row as that candidate's model alone."""
    rng = np.random.default_rng(3)
    L = rng.uniform(-2.0, 2.0, size=(3, 2, 3))
    perts = (PerturbationSpec(kind=BOUNDED, amplitude=0.2, seed=(4, 4, 9)),
             PerturbationSpec(kind=POWER, delta=0.1, p=0.5, seed=(1, 2, 3)))
    f = FunctionModel(domain=euclidean_space(3), codomain=euclidean_space(2), linear=L,
                      perturbations=perts, quadratic=[0.3, -0.1])
    X = rng.standard_normal((9, 3))
    X[4] = 0.0
    cand = np.array([2, 0, 1, 1, 0, 2, 2, 0, 1])
    for wrap in (lambda m: m, OddPart, EvenPart):
        got = wrap(f).eval_many(X, cand)
        for k in range(3):
            rows = cand == k
            want = wrap(f.candidate(k)).eval_many(X[rows])
            assert got[rows].tobytes() == want.tobytes()
    seeds_only = FunctionModel(domain=f.domain, codomain=f.codomain, linear=L[0],
                               perturbations=perts)
    for many in (f, seeds_only):
        with pytest.raises(ModelError, match="candidate of each row"):
            many.eval_many(X)


@pytest.mark.parametrize("iters, restarts", [(3, 2), (1, 1), (5, 3)])
def test_lockstep_search_is_deterministic_and_exact(iters, restarts):
    cfg = parse_experiment(_experiment("cor2_2", count=20))
    settings = SearchSettings(iterations=iters, restarts=restarts)
    out = adversarial_search(cfg, settings)
    assert out == adversarial_search(cfg, settings)
    assert out["evaluations"] == iters
    assert out["worst_ratio"] <= 1.0 + experiments.REPORT_TOL


def _evaluated(cfg, settings):
    """The config dicts of every run_experiment call of one search, call by call."""
    seen = []
    real = experiments.run_experiment

    def spy(cfgs):
        seen.append([config_to_dict(c) for c in cfgs])
        return real(cfgs)

    with mock.patch.object(experiments, "run_experiment", spy):
        adversarial_search(cfg, settings)
    return seen


def test_chain_zero_walks_as_the_lone_chain():
    """Each step batches one candidate per chain; chain 0's are those of a
    one-restart search of the same length, the other chains' are their own."""
    cfg = parse_experiment(_experiment("thm4_3", count=20))
    lone = _evaluated(cfg, SearchSettings(iterations=4, restarts=1))
    lockstep = _evaluated(cfg, SearchSettings(iterations=12, restarts=3))
    assert [len(step) for step in lockstep] == [3, 3, 3, 3]
    assert [step[0] for step in lockstep] == [step[0] for step in lone]
    assert lockstep[0][1]["sampler"]["seed"] != lockstep[0][0]["sampler"]["seed"]
