"""Batched runs: a list of configs through one run_experiment call.

Configs that differ only in sampler.seed, sampler.radius_range, model.seed
and the perturbation seeds run as one batch, and each report must be
byte-identical to the report of its config run alone.  The search runs its
restarts as lockstep chains through such batches.
"""

import copy
import re
from dataclasses import replace
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
    run_experiment,
)
from jensenlab.models import (
    BOUNDED,
    DECAY,
    POWER,
    EvenPart,
    FunctionModel,
    ModelError,
    OddPart,
    PerturbationSpec,
)
from jensenlab.spaces import NormedSpaceSpec, euclidean_space, norm_many
from report_reference import assemble_rows, auto_n_max, head_differences

E3 = {"dim": 3, "norm_kind": "euclidean"}
E2 = {"dim": 2, "norm_kind": "euclidean"}
P3 = {"dim": 3, "norm_kind": "p_norm", "p": 3.0}
SUP3 = {"dim": 3, "norm_kind": "sup"}
MIXED = {"kind": "mixed", "epsilon": 0.3, "delta": 0.2, "p": 0.5}
CONST = {"kind": "constant", "epsilon": 0.4}
LIMIT_IDS = sorted(tid for tid, thm in experiments._THEOREMS.items() if thm.run is None)
DOMAINS = {
    "thm3_1": {"kind": "exterior", "d": 1.5},
    "prop4_1": {"kind": "punctured"},
    "prop4_2": {"kind": "punctured"},
    "thm4_3": {"kind": "punctured"},
    "thm5_2": {"kind": "orthogonal", "relation": {"kind": "inner_product"}},
}
# thm5_2's relations, each on a space it runs in
RELATIONS = [("inner_product", E3), ("birkhoff_james", SUP3), ("birkhoff_james", P3),
             ("trivial", E3)]
# small seeds collide now and then, so some terms keep one seed for all candidates
SEEDS = st.integers(0, 3) | st.integers(0, 2**64 - 1)


def _parse_experiment(d: dict):
    """One experiment section parsed alone: its error paths name keys from the section."""
    return experiments._parse(experiments._EXPERIMENT, d, "")


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
    rel, space = draw(st.sampled_from(RELATIONS)) if tid == "thm5_2" else (
        None, draw(st.sampled_from([E3, P3])))
    base = _experiment(tid, count=draw(st.sampled_from([1, 3, 8])), space=space)
    if rel is not None:
        base["domain"] = {"kind": "orthogonal", "relation": {"kind": rel}}
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
        cfgs.append(_parse_experiment(exp))
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


def _role_arrays(case, K, n, rng):
    """(devs, bounds) of three roles at K·n points for one edge case of the assembly."""
    devs = rng.uniform(0.0, 2.0, size=(3, K * n))
    bounds = rng.uniform(0.5, 3.0, size=(3, K * n))
    if case == "nan_inf":  # in a later role than the finite maxima, one config at a time
        devs[2, 1::n], devs[2, 3 % n::2 * n] = np.nan, np.inf
        devs[1, n - 1::n] = np.inf
    elif case == "ties":  # ratios of 1/4 and 1/2 exactly, equal within and across roles
        devs = bounds * rng.choice([0.25, 0.5], size=bounds.shape)
    elif case == "zero_bounds":  # ratio 0 at or under the floor, inf above it
        bounds[1] = 0.0
        devs[1, ::2] = rng.choice([0.0, 1e-12, 4e-9], size=devs[1, ::2].shape)
    return devs, bounds


def _same(got, want):
    rows, *rest = got
    ref_rows, *ref_rest = want
    assert rows.roles == ref_rows.roles
    for a, b in zip((rows.X, rows.role, rows.deviation, rows.bound, rows.ratio),
                    (ref_rows.X, ref_rows.role, ref_rows.deviation, ref_rows.bound, ref_rows.ratio)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert repr(rest) == repr(ref_rest)  # max_dev, bound_value, max_ratio (float), witnesses


@pytest.mark.parametrize("case", ["plain", "nan_inf", "ties", "zero_bounds"])
@pytest.mark.parametrize("K, n", [(1, 5), (3, 5), (1, 40), (3, 40)])
def test_batched_assembly_equals_per_config_reference(case, K, n):
    """One pass over K segments gives each config the rows, maxima and witnesses
    of the per-config assembly, bit for bit."""
    rng = np.random.default_rng(K * 100 + n)
    X = rng.standard_normal((K * n, 2))
    devs, bounds = _role_arrays(case, K, n, rng)
    roles = ("f", "g", "h")
    tol = 1e-9
    with np.errstate(invalid="ignore"):  # inf/inf and NaN ratios, as in a real run
        got = experiments._assemble_rows(X, roles, devs, bounds, tol, K)
        assert len(got) == K
        for i, res in enumerate(got):
            seg = slice(i * n, (i + 1) * n)
            _same(res, assemble_rows(X[seg], list(zip(roles, devs[:, seg], bounds[:, seg])), tol))


@pytest.mark.parametrize("tid", ["thm2_1", "prop4_1", "thm5_2", "prop4_2"])
@pytest.mark.parametrize("his", [[6.0], [6.0, 6.0, 30.0], [2.0, 9.0, 45.0]])
@pytest.mark.parametrize("n_max", [None, 7])
def test_batch_assembles_once_and_caps_per_upper_radius(tid, his, n_max):
    """A batch assembles its rows and its limit summaries in one call each, whatever K,
    and each row's iteration cap is the one its config gets alone."""
    exps = []
    for i, hi in enumerate(his):
        exp = _experiment(tid, count=4)
        exp["sampler"].update(seed=11 + i, radius_range=[0.2, hi])
        exp["limits"] = {"n_max": n_max}
        exps.append(exp)
    cfgs = [_parse_experiment(e) for e in exps]
    assemble = mock.Mock(wraps=experiments._assemble_rows)
    meta = mock.Mock(wraps=experiments._limit_meta)
    caps = []
    real = experiments._Batch.n_max

    def n_max_spy(b, base, arg_scale=1.0):
        got = real(b, base, arg_scale)
        caps.append((got, np.array([auto_n_max(c, base, arg_scale) for c in b.cfgs])[b.cand]))
        return got

    with mock.patch.object(experiments, "_assemble_rows", assemble), \
            mock.patch.object(experiments, "_limit_meta", meta), \
            mock.patch.object(experiments._Batch, "n_max", n_max_spy):
        run_experiment(cfgs)
    assert assemble.call_count == 1 and meta.call_count == 1
    assert len(caps) == {"thm5_2": 2, "prop4_2": 0}.get(tid, 1)
    for got, want in caps:
        assert got.tobytes() == want.tobytes()


def test_batch_of_other_theorems_runs_each_config():
    base = _experiment("cor2_2", count=20)
    base.update(theorem_id="cor3_2", expected_decay=False,
                shells={"edges": [0.5, 1.0, 2.0], "samples_per_shell": 10})
    cfgs = [_parse_experiment(dict(base, sampler=dict(base["sampler"], seed=seed)))
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
    cfgs = [_parse_experiment(exp), _parse_experiment(other)]  # each valid on its own
    with pytest.raises(ConfigError, match=re.escape(key)) as info:
        run_experiment(cfgs)
    named = str(info.value).split("differs from config 0 in ")[1]
    # the walk over the config objects names what a diff of their heads names
    assert named == ", ".join(head_differences(*map(config_to_dict, cfgs)))
    assert "sampler.seed" not in named


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


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    which=st.sampled_from(["odd", "even", "pexider"]),
    kind=st.sampled_from([BOUNDED, POWER, DECAY]),
    size=st.floats(1e-3, 2.0),
    p=st.floats(0.0, 0.75),  # ρ up to 0.84: every point converges within its cap
    K=st.integers(1, 3),
    space=st.sampled_from([E3, SUP3, P3]),
    quadratic=st.sampled_from([None, [0.3, -0.1]]),
    seed=st.integers(0, 2**32),
)
def test_parity_limits_lie_within_the_contraction_bound(which, kind, size, p, K, space,
                                                        quadratic, seed):
    """The odd, even and Pexider odd limits of a FunctionModel with one
    perturbation term lie within tol·ρ/(1 − ρ) of the exact limit, plus
    rounding: L·x for the odd limits, q‖x‖² for the even one.  ρ is the term's
    contraction per step, |gain|·|arg|^p for a power term and |gain| for a
    bounded or decay term.  Each half, at x and at −x, stops on a gap of at
    most tol, and a term whose norm shrinks by ρ a step is then at most
    tol·ρ/(1 − ρ); the half sum or difference of the halves is too."""
    rng = np.random.default_rng(seed)
    # the config's term sets each point's iteration cap, as in a theorem run
    spec = {"kind": kind, "seed": 0, **({"delta": size, "p": p} if kind == POWER
                                         else {"amplitude": size})}
    cfgs = [_parse_experiment(dict(_experiment("thm4_3"), perturbation=[spec]))] * K
    term = replace(cfgs[0].model.perturbations[0], seed=tuple(range(K)))
    dom, cod = NormedSpaceSpec.from_dict(space), euclidean_space(2)
    L = rng.uniform(-2.0, 2.0, size=(K, 2, 3))
    f = FunctionModel(domain=dom, codomain=cod, linear=L, quadratic=quadratic,
                      perturbations=(term,))
    X0 = rng.uniform(-3.0, 3.0, size=(5 * K, 3))  # inside the upper sampling radius 6
    b = experiments._Batch(cfgs, (f, f, f), X0, X0, X0)
    if which == "pexider":
        base, gain = 3.0, 1.0 / 3.0
        vals, _, conv = experiments._pexider_limit(b, OddPart(f))
    else:
        base, gain = 2.0, 0.5 if which == "odd" else 0.25
        vals, _, conv = b.limit((OddPart if which == "odd" else EvenPart)(f), base, gain)
    if which == "even":
        exact = np.zeros((len(X0), 2)) if quadratic is None else (
            norm_many(dom, X0)[:, None] ** 2 * np.array(quadratic))
    else:
        exact = np.einsum("kij,kj->ki", L[b.cand], X0)
    rho = gain * base**p if kind == POWER else gain
    err = norm_many(cod, vals - exact)
    assert conv.all()
    assert np.all(err <= b.tol * rho / (1.0 - rho) + 2.0**-40 * (1.0 + norm_many(cod, exact)))


@pytest.mark.parametrize("iters, restarts", [(3, 2), (1, 1), (5, 3)])
def test_lockstep_search_is_deterministic_and_exact(iters, restarts):
    cfg = _parse_experiment(_experiment("cor2_2", count=20))
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


def test_search_builds_one_head_and_diffs_none():
    """The candidates are compared through their flat batch keys, read from
    the config objects, not through their heads, and only the best
    candidate's head is built, once per search; a batch that is not valid
    is still refused, with its keys named."""
    cfg = _parse_experiment(_experiment("thm4_3", count=8))
    heads = mock.Mock(wraps=experiments.config_to_dict)
    keyed = mock.Mock(wraps=experiments._batch_key)
    with mock.patch.object(experiments, "config_to_dict", heads), \
            mock.patch.object(experiments, "_batch_key", keyed):
        out = adversarial_search(cfg, SearchSettings(iterations=9, restarts=3))
    assert heads.call_count == 1
    compared = [type(c) for (c,), _ in keyed.call_args_list]
    assert compared and set(compared) == {experiments.ExperimentConfig}
    assert out == adversarial_search(cfg, SearchSettings(iterations=9, restarts=3))
    bad = replace(cfg, limits=replace(cfg.limits, tol=1e-8), sampler=replace(cfg.sampler, seed=3))
    with pytest.raises(ConfigError, match=r"config 1 differs from config 0 in limits\.tol$"):
        run_experiment([cfg, bad])


@settings(derandomize=True, max_examples=20, deadline=None)
@given(
    tid=st.sampled_from(LIMIT_IDS + ["cor3_2"]),
    iterations=st.integers(1, 7),
    restarts=st.integers(1, 3),
    seed=st.integers(0, 2**31 - 1),
)
def test_search_batches_differ_only_in_free_keys(tid, iterations, restarts, seed):
    """Every batch the search passes to run_experiment holds candidates whose
    heads differ from candidate 0's only in _BATCH_FREE keys."""
    exp = _experiment(tid)
    if tid == "cor3_2":
        exp.update(expected_decay=False, shells={"edges": [0.5, 1.0, 2.0], "samples_per_shell": 4})
    exp["sampler"]["seed"] = seed
    batches = []
    real = experiments.run_experiment

    def spy(cfgs):
        batches.append([config_to_dict(c) for c in cfgs])
        return real(cfgs)

    settings_ = SearchSettings(iterations=iterations, restarts=min(restarts, iterations))
    with mock.patch.object(experiments, "run_experiment", spy):
        adversarial_search(_parse_experiment(exp), settings_)
    assert sum(map(len, batches)) == iterations
    for batch in batches:
        assert all(head_differences(batch[0], head) == [] for head in batch[1:])


def test_chain_zero_walks_as_the_lone_chain():
    """Each step batches one candidate per chain; chain 0's are those of a
    one-restart search of the same length, the other chains' are their own."""
    cfg = _parse_experiment(_experiment("thm4_3", count=20))
    lone = _evaluated(cfg, SearchSettings(iterations=4, restarts=1))
    lockstep = _evaluated(cfg, SearchSettings(iterations=12, restarts=3))
    assert [len(step) for step in lockstep] == [3, 3, 3, 3]
    assert [step[0] for step in lockstep] == [step[0] for step in lone]
    assert lockstep[0][1]["sampler"]["seed"] != lockstep[0][0]["sampler"]["seed"]
