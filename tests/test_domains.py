import numpy as np
import pytest

from jensenlab.domains import (
    EXTERIOR,
    FULL,
    ORTHOGONAL,
    PUNCTURED,
    DomainError,
    DomainRestriction,
    asymptotic_profile,
    construct_z_many,
    five_inequality_margins,
    five_term_defect_many,
    FIVE_INEQ_TOL,
)
from jensenlab.experiments import emit_report, measure_epsilon, parse_config, run_experiment
from jensenlab.models import (
    BOUNDED,
    FunctionModel,
    JensenParams,
    PerturbationSpec,
    jensen_defect_many,
)
from jensenlab.sampling import (
    exterior_pairs,
    orthogonal_pairs,
    rng_from,
    sample_pairs,
    shell_pairs,
)
from jensenlab.spaces import (
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
    Xe, Ye = exterior_pairs(E2, ext.d, 200, (0.05, 3.0), rng, axis_period=8)
    assert np.all(norm_many(E2, Xe) + norm_many(E2, Ye) >= ext.d)

    assert DomainRestriction(kind=PUNCTURED).d == 0.0
    X = np.array([[1.0, 0.0], [0.0, 0.0]])
    Y = np.array([[0.0, 1.0], [0.0, 1.0]])
    assert (np.any(X, axis=1) & np.any(Y, axis=1)).tolist() == [True, False]
    Xp, Yp = sample_pairs(E2, 200, (0.05, 3.0), rng)
    assert np.all(np.any(Xp, axis=1) & np.any(Yp, axis=1))

    orth = DomainRestriction(kind=ORTHOGONAL, relation=OrthogonalityRelation(kind="inner_product"))
    X = np.array([[1.0, 0.0], [1.0, 0.0]])
    Y = np.array([[0.0, 3.0], [1.0, 1.0]])
    assert is_orthogonal_many(orth.relation, E2, X, Y).tolist() == [True, False]
    Xo, Yo = orthogonal_pairs(orth.relation, E2, 200, (0.05, 3.0), rng, axis_period=8)
    assert np.all(is_orthogonal_many(orth.relation, E2, Xo, Yo))


def test_domain_validation():
    with pytest.raises(DomainError):
        DomainRestriction(kind="exterior")
    with pytest.raises(DomainError):
        DomainRestriction(kind="exterior", d=-1.0)
    with pytest.raises(DomainError):
        DomainRestriction(kind="orthogonal")
    with pytest.raises(DomainError):
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
    X, Y = shell_pairs(E3, 0.0, 2.5, 500, rng)
    assert np.all(norm_many(E3, X) + norm_many(E3, Y) < 2.5)  # interior pairs
    Z = construct_z_many(E3, X, Y, 2.5)
    assert np.all(norm_many(E3, Z) >= 2.5 - 1e-12)


def test_five_inequalities_hold_for_constructed_z():
    d = 2.0
    params = JensenParams(2, 1, 1)
    for space in (E3, NormedSpaceSpec(3, "sup")):
        rng = rng_from(11, "pairs")
        X, Y = shell_pairs(space, 0.0, d, 2000, rng)
        Z = construct_z_many(space, X, Y, d)
        margins = five_inequality_margins(space, params, X, Y, Z, d)
        assert margins.shape == (2000, 5)
        assert np.all(margins >= -FIVE_INEQ_TOL * max(1.0, d))


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
    X, Y = shell_pairs(E3, 0.0, 2.0, 800, rng)
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


def test_defect_sup_bounded_by_noise_budget():
    amp = 0.15
    f = _noisy_additive(amp)
    params = JensenParams(2, 1, 3)
    rng = rng_from(13, "sup")
    X, Y = sample_pairs(E3, 600, (0.1, 5.0), rng)
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
    X, Y = exterior_pairs(E3, 3.0, 400, (0.1, 4.0), rng_from(17, "ext"), axis_period=8)
    assert np.all(norm_many(E3, X) + norm_many(E3, Y) >= 3.0)
    eps_hat, witness = measure_epsilon(cfg, f, f, f, X, Y)
    assert eps_hat == float(np.max(jensen_defect_many(f, f, f, cfg.params, X, Y)))
    assert np.linalg.norm(witness["x"]) + np.linalg.norm(witness["y"]) >= 3.0


class TestAsymptoticProfile:
    EDGES = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)

    def test_exact_model_decays(self):
        f = FunctionModel(domain=E3, codomain=E2, linear=L23)
        prof = asymptotic_profile(
            f, JensenParams(2, 1, 1), E3, self.EDGES, 200, rng_from(1, "prof")
        )
        assert prof.sup_defect.shape == (5,)
        assert prof.is_decaying(1e-9)

    def test_constant_noise_plateaus(self):
        f = _noisy_additive(0.2, seed=9)
        prof = asymptotic_profile(
            f, JensenParams(2, 1, 1), E3, self.EDGES, 200, rng_from(2, "prof")
        )
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
