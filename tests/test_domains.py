import numpy as np
import pytest

from jensenlab.domains import (
    EXTERIOR,
    FULL,
    ORTHOGONAL,
    PUNCTURED,
    DomainRestriction,
    asymptotic_profile,
    construct_z_many,
    five_inequality_margins,
    five_term_defect_many,
    FIVE_INEQ_TOL,
)
from jensenlab import experiments
from jensenlab.experiments import emit_report, measure_epsilon, parse_config, run_experiment
from jensenlab.models import (
    BOUNDED,
    POWER,
    FunctionModel,
    JensenParams,
    PerturbationSpec,
    jensen_defect_many,
)
from jensenlab import sampling
from jensenlab.orthogonal import pexider_reduction_check
from jensenlab.sampling import (
    exterior_pairs,
    orthogonal_pairs,
    rng_from,
    sample_pairs,
    sample_points,
    shell_pairs,
)
from jensenlab.spaces import (
    ConfigError,
    NormedSpaceSpec,
    OrthogonalityRelation,
    euclidean_space,
    is_orthogonal_many,
    norm_many,
)

E2 = euclidean_space(2)
E3 = euclidean_space(3)
S2 = NormedSpaceSpec(2, "sup")
L23 = np.array([[1.0, 0.5, -1.0], [0.0, 2.0, 1.0]])


def _noisy_additive(amp, seed=5):
    return FunctionModel(
        domain=E3,
        codomain=E2,
        linear=L23,
        perturbations=(PerturbationSpec(kind=BOUNDED, amplitude=amp, seed=seed),),
    )


def test_domain_kinds_on_batched_paths():
    # Membership as the runners see it: exterior by row norms, punctured by
    # nonzero rows, orthogonal by is_orthogonal_many; each sampler stays inside.
    full = DomainRestriction(kind=FULL)
    assert (full.d, full.relation) == (0.0, None)
    ext = DomainRestriction(kind=EXTERIOR, d=2.0)
    X = np.array([[1.5, 0.0], [0.5, 0.0]])
    Y = np.array([[0.0, 0.5], [0.0, 0.5]])
    assert (norm_many(E2, X) + norm_many(E2, Y) >= ext.d).tolist() == [True, False]
    rng = rng_from(4, "domains")
    Xe, Ye = exterior_pairs(E2, ext.d, 200, [(0.05, 3.0)], [rng], axis_period=8)
    assert np.all(norm_many(E2, Xe) + norm_many(E2, Ye) >= ext.d)

    assert DomainRestriction(kind=PUNCTURED).d == 0.0
    X = np.array([[1.0, 0.0], [0.0, 0.0]])
    Y = np.array([[0.0, 1.0], [0.0, 1.0]])
    assert (np.any(X, axis=1) & np.any(Y, axis=1)).tolist() == [True, False]
    Xp, Yp = sample_pairs(E2, 200, [(0.05, 3.0)], [rng])
    assert np.all(np.any(Xp, axis=1) & np.any(Yp, axis=1))

    orth = DomainRestriction(kind=ORTHOGONAL, relation=OrthogonalityRelation(kind="inner_product"))
    X = np.array([[1.0, 0.0], [1.0, 0.0]])
    Y = np.array([[0.0, 3.0], [1.0, 1.0]])
    assert is_orthogonal_many(orth.relation, E2, X, Y).tolist() == [True, False]
    Xo, Yo = orthogonal_pairs(orth.relation, E2, 200, [(0.05, 3.0)], [rng], axis_period=8)
    assert np.all(is_orthogonal_many(orth.relation, E2, Xo, Yo))


P3 = NormedSpaceSpec(3, "p_norm", 3.0)
# name -> sampler(space, n, radius ranges, generators), each as a tuple of arrays
SAMPLERS = {
    "points": lambda *a: (sample_points(*a),),
    "pairs": lambda *a: sample_pairs(*a, axis_period=8),
    "exterior": lambda space, *a: exterior_pairs(space, 1.5, *a, axis_period=8),
    "shells": lambda space, n, ranges, rngs: shell_pairs(space, 0.5, 2.0, n, rngs),
    **{f"orthogonal-{kind}": (lambda rel: lambda *a: orthogonal_pairs(rel, *a, axis_period=8))(
        OrthogonalityRelation(kind)) for kind in ("inner_product", "birkhoff_james", "trivial")},
}


@pytest.mark.parametrize("n", [1, 13])
@pytest.mark.parametrize("name, space", [
    pytest.param(name, space, id=f"{name}-{sid}") for name in sorted(SAMPLERS)
    for sid, space in (("e3", E3), ("sup2", S2), ("p3", P3))
    if name != "orthogonal-inner_product" or space.has_inner_product
])
def test_batched_samplers_stack_solo_segments(monkeypatch, name, space, n):
    """A sampler over K generators returns, bit for bit, each generator's rows
    alone, in generator order.  Partners whose first coordinate is positive
    are refused, so about half the rows of each try are redrawn, each from
    its own config's stream."""
    real = sampling.is_orthogonal_many
    monkeypatch.setattr(sampling, "is_orthogonal_many",
                        lambda rel, sp, X, Y: real(rel, sp, X, Y) & (Y[:, 0] <= 0.0))
    ranges = [(0.05, 3.0), (0.5, 0.6), (1.0, 9.0)]
    stacked = SAMPLERS[name](space, n, ranges, [rng_from(k, "batch") for k in range(3)])
    for k in range(3):
        solo = SAMPLERS[name](space, n, ranges[k:k + 1], [rng_from(k, "batch")])
        for got, want in zip(stacked, solo, strict=True):
            assert got[k * n:(k + 1) * n].tobytes() == want.tobytes()


def test_domain_validation():
    with pytest.raises(ConfigError):
        DomainRestriction(kind="exterior")
    with pytest.raises(ConfigError):
        DomainRestriction(kind="exterior", d=-1.0)
    with pytest.raises(ConfigError):
        DomainRestriction(kind="orthogonal")
    with pytest.raises(ConfigError):
        DomainRestriction(kind="annulus")


def test_construct_z_examples():
    def z(space, x, y, d):
        return construct_z_many(space, np.array([x]), np.array([y]), d)[0]

    assert np.allclose(z(E2, [1.0, 0.0], [0.5, 0.0], 2.0), [3.0, 0.0])
    assert np.allclose(z(E2, [0.0, 0.0], [0.0, 0.5], 3.0), [0.0, 3.5])
    assert np.allclose(z(E2, [0.0, 0.0], [0.0, 0.0], 1.0), [1.0, 0.0])
    # sup norm scales by the max coordinate
    assert np.allclose(z(S2, [0.2, 0.1], [0.0, 0.0], 2.0), [2.2, 1.1])
    # rows of a batch are independent; ties go to x
    X = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]])
    Y = np.array([[0.5, 0.0], [0.0, 0.5], [0.0, 0.0], [0.0, 0.5]])
    assert np.allclose(construct_z_many(E2, X, Y, 2.0),
                       [[3.0, 0.0], [0.0, 2.5], [2.0, 0.0], [2.5, 0.0]])


def test_construct_z_lands_outside():
    rng = rng_from(3, "z")
    X, Y = shell_pairs(E3, 0.0, 2.5, 500, [rng])
    assert np.all(norm_many(E3, X) + norm_many(E3, Y) < 2.5)  # interior pairs
    Z = construct_z_many(E3, X, Y, 2.5)
    assert np.all(norm_many(E3, Z) >= 2.5 - 1e-12)


def test_five_inequalities_hold_for_constructed_z():
    d = 2.0
    params = JensenParams(2, 1, 1)
    for space in (E3, NormedSpaceSpec(3, "sup")):
        rng = rng_from(11, "pairs")
        X, Y = shell_pairs(space, 0.0, d, 2000, [rng])
        Z = construct_z_many(space, X, Y, d)
        margins = five_inequality_margins(space, params, X, Y, Z, d)
        assert margins.shape == (2000, 5)
        assert np.all(margins >= -FIVE_INEQ_TOL * max(1.0, d))
        # each column is ‖u‖ + ‖v‖ − d of its chain pair (u, v), norms taken one set at a time
        A, B, M = 3.0 * Z + Y, X - 3.0 * Z, 4.0 * Z  # s = t = 1
        want = [norm_many(space, U) + norm_many(space, V) - d
                for U, V in ((A, B), (X, Z), (M, Y), (M, B), (A, Z))]
        assert np.array_equal(margins, np.stack(want, axis=1))


def test_verify_five_inequalities_single():
    # one chain instance, and the origin pair whose z sits on the boundary
    d = 1.5
    params = JensenParams(1, 1, 1)
    X = np.array([[0.3, 0.0, 0.1], [0.0, 0.0, 0.0]])
    Y = np.array([[0.0, 0.2, 0.0], [0.0, 0.0, 0.0]])
    margins = five_inequality_margins(E3, params, X, Y, construct_z_many(E3, X, Y, d), d)
    assert margins.shape == (2, 5)
    assert np.all(margins >= -FIVE_INEQ_TOL * max(1.0, d))


def test_direct_defect_below_chain():
    f = _noisy_additive(0.3)
    params = JensenParams(2, 3, 1)
    rng = rng_from(7, "chain")
    X, Y = shell_pairs(E3, 0.0, 2.0, 800, [rng])
    Z = construct_z_many(E3, X, Y, 2.0)
    direct, chain, terms = five_term_defect_many(f, params, X, Y, Z)
    assert terms.shape == (800, 5)
    slack = 1e-12 * max(1.0, float(np.max(chain)))
    assert np.all(direct <= chain + slack)
    assert np.allclose(np.sum(terms, axis=1), chain, rtol=1e-12)


def test_five_term_defect_single_row():
    f = _noisy_additive(0.2)
    params = JensenParams(1, 1, 1)
    X = np.array([[0.4, 0.0, 0.0]])
    Y = np.array([[0.0, 0.3, 0.0]])
    direct, chain, terms = five_term_defect_many(f, params, X, Y, construct_z_many(E3, X, Y, 2.0))
    assert direct.shape == chain.shape == (1,) and terms.shape == (1, 5)
    assert chain[0] == pytest.approx(float(np.sum(terms[0])), rel=1e-12)
    assert direct[0] <= chain[0] + 1e-12


def _five_term_reference(f, params, X, Y, Z):
    """The chain as six defects of three eval_many calls each (18 in all)."""
    r, s, t = params.r, params.s, params.t

    def defect(W, U, V):
        return norm_many(f.codomain, r * f.eval_many(W) - s * f.eval_many(U) - t * f.eval_many(V))

    A = (2.0 + t / s) * Z + (t / s) * Y
    B = (s / t) * X - (1.0 + 2.0 * s / t) * Z
    M = 2.0 * (1.0 + t / s) * Z
    w_xy, w_xz, w_my = (s * X + t * Y) / r, (s * X + t * Z) / r, (s * M + t * Y) / r
    terms = np.stack([defect(w_xy, A, B), defect(w_xz, X, Z), defect(w_my, M, Y),
                      defect(w_xz, M, B), defect(w_my, A, Z)], axis=1)
    return defect(w_xy, X, Y), terms.sum(axis=1), terms


def _rich_model(space, linear, seeds=(5, 6)):
    """Bounded and power noise plus a quadratic part, so each point's value hashes its bits."""
    return FunctionModel(
        domain=space, codomain=E2, linear=linear, quadratic=[0.3, -0.1],
        perturbations=(PerturbationSpec(kind=BOUNDED, amplitude=0.2, seed=seeds[0]),
                       PerturbationSpec(kind=POWER, delta=0.1, p=0.5, seed=seeds[1])),
    )


def _interior_chain(space, n, seed, d=2.0):
    X, Y = shell_pairs(space, 0.0, d, n, [rng_from(seed, "chain")])
    X[0] = Y[0] = Y[1] = 0.0  # the origin pair, whose z is d·e1, and a zero y
    return X, Y, construct_z_many(space, X, Y, d)


@pytest.mark.parametrize("space", [E3, NormedSpaceSpec(3, "sup"),
                                   NormedSpaceSpec(3, "p_norm", 3.0)], ids=["euclidean", "sup", "p3"])
@pytest.mark.parametrize("params", [JensenParams(2, 3, 1), JensenParams(1, 1, 1)])
def test_five_term_defect_equals_reference(space, params):
    """One evaluation on the nine stacked point sets gives the 18-call chain bit for bit."""
    f = _rich_model(space, L23)
    X, Y, Z = _interior_chain(space, 300, 7)
    for rows in (slice(None), slice(2, 3)):  # the batch, and a one-row batch
        got = five_term_defect_many(f, params, X[rows], Y[rows], Z[rows])
        want = _five_term_reference(f, params, X[rows], Y[rows], Z[rows])
        for g, w in zip(got, want):
            assert g.shape == w.shape and np.array_equal(g, w)


def test_five_term_defect_rows_follow_their_candidate():
    """With cand, each row's chain is that of its candidate's model alone."""
    L = np.random.default_rng(2).uniform(-2.0, 2.0, size=(3, 2, 3))
    f = _rich_model(E3, L, seeds=((5, 5, 8), (1, 2, 3)))
    X, Y, Z = _interior_chain(E3, 90, 4)
    cand = np.random.default_rng(6).integers(0, 3, size=90)
    params = JensenParams(2, 3, 1)
    got = five_term_defect_many(f, params, X, Y, Z, cand)
    for k in range(3):
        rows = cand == k
        want = _five_term_reference(f.candidate(k), params, X[rows], Y[rows], Z[rows])
        for g, w in zip(got, want):
            assert np.array_equal(g[rows], w)


def _count_calls(monkeypatch, owner, name):
    """Patch owner.name with a spy that records the row count of each call's first array."""
    calls, real = [], getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(next(len(a) for a in args if isinstance(a, np.ndarray)))
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


def test_each_defect_is_one_model_call(monkeypatch):
    f = _rich_model(E3, L23)
    X, Y, Z = _interior_chain(E3, 40, 3)
    params = JensenParams(2, 3, 1)
    calls = _count_calls(monkeypatch, FunctionModel, "eval_many")
    five_term_defect_many(f, params, X, Y, Z)
    assert calls == [9 * 40]
    calls.clear()
    jensen_defect_many(f, f, f, params, X, Y)
    assert calls == [3 * 40]
    calls.clear()
    pexider_reduction_check(f, params, X, Y)
    assert calls == [3 * 40]


@pytest.mark.parametrize("tid, extra", [("thm3_1", "five_term_defect_many"),
                                        ("thm5_2", "pexider_reduction_check")])
def test_batch_extras_are_one_call(monkeypatch, tid, extra):
    """A batch of K = 3 configs runs its extras once over all configs' pairs,
    and each report still equals its config's solo report."""
    exp = {
        "theorem_id": tid,
        "space": {"dim": 3},
        "codomain": {"dim": 2},
        "params": {"r": 2, "s": 3, "t": 1} if tid == "thm3_1" else {"r": 1, "s": 1, "t": 1},
        "control": {"kind": "constant", "epsilon": 0.3},
        "domain": {"kind": "exterior", "d": 3.0} if tid == "thm3_1"
        else {"kind": "orthogonal", "relation": {"kind": "inner_product"}},
        "sampler": {"count": 8, "seed": 17, "radius_range": [0.1, 4.0], "pair_count": 50},
        "perturbation": {"kind": "bounded", "amplitude": 0.05, "seed": 2},
    }
    cfgs = parse_config({"schema_version": 1, "experiments": [
        dict(exp, sampler=dict(exp["sampler"], seed=seed),
             perturbation=dict(exp["perturbation"], seed=seed + 1)) for seed in (17, 18, 40)]})
    solo = [emit_report(run_experiment(c)) for c in cfgs]
    calls = _count_calls(monkeypatch, experiments, extra)
    assert [emit_report(r) for r in run_experiment(cfgs)] == solo
    assert calls == [3 * 50]


def test_defect_sup_bounded_by_noise_budget():
    amp = 0.15
    f = _noisy_additive(amp)
    params = JensenParams(2, 1, 3)
    rng = rng_from(13, "sup")
    X, Y = sample_pairs(E3, 600, [(0.1, 5.0)], [rng])
    budget = (params.r + params.s + params.t) * amp
    assert 0.0 < float(np.max(jensen_defect_many(f, f, f, params, X, Y))) <= budget + 1e-12


def test_exterior_defect_sup_filters():
    # thm3_1 measures ε̂ on pairs drawn from the exterior: every pair is in
    # the domain, and ε̂ is the defect sup over exactly those pairs
    (cfg,) = parse_config({"schema_version": 1, "experiments": [{
        "theorem_id": "thm3_1",
        "space": {"dim": 3},
        "codomain": {"dim": 2},
        "params": {"r": 1, "s": 1, "t": 1},
        "control": {"kind": "constant", "epsilon": 0.3},
        "domain": {"kind": "exterior", "d": 3.0},
        "sampler": {"count": 8, "seed": 17, "radius_range": [0.1, 4.0], "pair_count": 400},
    }]})
    f = _noisy_additive(0.1)
    X, Y = exterior_pairs(E3, 3.0, 400, [(0.1, 4.0)], [rng_from(17, "ext")],
                          axis_period=8)
    assert np.all(norm_many(E3, X) + norm_many(E3, Y) >= 3.0)
    eps_hat, witness = measure_epsilon(cfg, f, f, f, X, Y)
    assert eps_hat == float(np.max(jensen_defect_many(f, f, f, cfg.params, X, Y)))
    assert np.linalg.norm(witness["x"]) + np.linalg.norm(witness["y"]) >= 3.0


class TestAsymptoticProfile:
    EDGES = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)

    def test_exact_model_decays(self):
        f = FunctionModel(domain=E3, codomain=E2, linear=L23)
        prof = asymptotic_profile(f, JensenParams(2, 1, 1), self.EDGES, 200, rng_from(1, "prof"))
        assert prof.sup_defect.shape == (5,)
        assert prof.is_decaying(1e-9)

    def test_negative_edges_rejected(self):
        # ‖x‖ + ‖y‖ >= 0, so a shell below 0 is empty and its sup would be made up
        f = FunctionModel(domain=E3, codomain=E2, linear=L23)
        for edges in ((-4.0, -1.0, 2.0), (-0.5, 1.0)):
            with pytest.raises(ConfigError):
                asymptotic_profile(f, JensenParams(2, 1, 1), edges, 10, rng_from(1, "prof"))
        prof = asymptotic_profile(f, JensenParams(2, 1, 1), (0.0, 1.0), 10, rng_from(1, "prof"))
        assert prof.sup_defect.shape == (1,)

    def test_constant_noise_plateaus(self):
        f = _noisy_additive(0.2, seed=9)
        prof = asymptotic_profile(f, JensenParams(2, 1, 1), self.EDGES, 200, rng_from(2, "prof"))
        assert not prof.is_decaying(1e-3)
        assert prof.final_sup > 1e-3

    def test_csv_shape(self):
        exp = {
            "theorem_id": "cor3_2",
            "space": {"dim": 3, "norm_kind": "euclidean"},
            "codomain": {"dim": 2, "norm_kind": "euclidean"},
            "params": {"r": 1, "s": 1, "t": 1},
            "control": {"kind": "constant", "epsilon": 0.1},
            "sampler": {"count": 50, "seed": 3, "radius_range": [0.5, 16.0]},
            "model": {"linear": L23.tolist()},
            "shells": {"edges": list(self.EDGES), "samples_per_shell": 50},
            "expected_decay": True,
        }
        (cfg,) = parse_config({"schema_version": 1, "experiments": [exp]})
        lines = emit_report(run_experiment(cfg), fmt="csv").strip().split("\n")
        assert len(lines) == 6
        assert lines[0].startswith("shell_edge_low")
