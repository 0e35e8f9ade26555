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
    construct_z,
    construct_z_many,
    defect_sup_on,
    exterior_defect_sup,
    five_inequality_margins,
    five_term_defect_bound,
    five_term_defect_many,
    verify_five_inequalities,
    FIVE_INEQ_TOL,
)
from jensenlab.models import BOUNDED, FunctionModel, JensenParams, PerturbationSpec
from jensenlab.sampling import (
    exterior_pairs,
    interior_pairs,
    orthogonal_pairs,
    rng_from,
    sample_pairs,
)
from jensenlab.spaces import (
    OrthogonalityRelation,
    euclidean_space,
    is_orthogonal_many,
    norm_many,
    sup_space,
)

E2 = euclidean_space(2)
E3 = euclidean_space(3)
S2 = sup_space(2)
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
    assert np.allclose(construct_z(E2, [1.0, 0.0], [0.5, 0.0], 2.0), [3.0, 0.0])
    assert np.allclose(construct_z(E2, [0.0, 0.0], [0.0, 0.5], 3.0), [0.0, 3.5])
    assert np.allclose(construct_z(E2, [0.0, 0.0], [0.0, 0.0], 1.0), [1.0, 0.0])
    # sup norm scales by the max coordinate
    assert np.allclose(construct_z(S2, [0.2, 0.1], [0.0, 0.0], 2.0), [2.2, 1.1])


def test_construct_z_lands_outside():
    rng = rng_from(3, "z")
    X, Y = interior_pairs(E3, 2.5, 500, rng)
    Z = construct_z_many(E3, X, Y, 2.5)
    assert np.all(norm_many(E3, Z) >= 2.5 - 1e-12)


def test_five_inequalities_hold_for_constructed_z():
    d = 2.0
    params = JensenParams(2, 1, 1)
    for space in (E3, sup_space(3)):
        rng = rng_from(11, "pairs")
        X, Y = interior_pairs(space, d, 2000, rng)
        Z = construct_z_many(space, X, Y, d)
        margins = five_inequality_margins(space, params, X, Y, Z, d)
        assert margins.shape == (2000, 5)
        assert np.all(margins >= -FIVE_INEQ_TOL * max(1.0, d))


def test_verify_five_inequalities_single():
    d = 1.5
    params = JensenParams(1, 1, 1)
    x = np.array([0.3, 0.0, 0.1])
    y = np.array([0.0, 0.2, 0.0])
    z = construct_z(E3, x, y, d)
    checks = verify_five_inequalities(E3, params, x, y, z, d)
    assert len(checks) == 5
    assert all(ok for ok, _ in checks)


def test_direct_defect_below_chain():
    f = _noisy_additive(0.3)
    params = JensenParams(2, 3, 1)
    rng = rng_from(7, "chain")
    X, Y = interior_pairs(E3, 2.0, 800, rng)
    Z = construct_z_many(E3, X, Y, 2.0)
    direct, chain, terms = five_term_defect_many(f, params, X, Y, Z)
    assert terms.shape == (800, 5)
    slack = 1e-12 * max(1.0, float(np.max(chain)))
    assert np.all(direct <= chain + slack)
    assert np.allclose(np.sum(terms, axis=1), chain, rtol=1e-12)


def test_five_term_defect_bound_dict():
    f = _noisy_additive(0.2)
    params = JensenParams(1, 1, 1)
    x = np.array([0.4, 0.0, 0.0])
    y = np.array([0.0, 0.3, 0.0])
    z = construct_z(E3, x, y, 2.0)
    out = five_term_defect_bound(f, params, x, y, z)
    assert set(out) == {"direct_value", "chain_value", "terms"}
    assert len(out["terms"]) == 5
    assert out["direct_value"] <= out["chain_value"] + 1e-12


def test_defect_sup_bounded_by_noise_budget():
    amp = 0.15
    f = _noisy_additive(amp)
    params = JensenParams(2, 1, 3)
    rng = rng_from(13, "sup")
    X, Y = sample_pairs(E3, 600, (0.1, 5.0), rng)
    res = defect_sup_on(f, f, f, params, X, Y)
    budget = (params.r + params.s + params.t) * amp
    assert 0.0 < res.value <= budget + 1e-12
    assert res.x.shape == (3,)


def test_exterior_defect_sup_filters():
    f = _noisy_additive(0.1)
    params = JensenParams(1, 1, 1)
    rng = rng_from(17, "ext")
    X, Y = sample_pairs(E3, 400, (0.1, 4.0), rng)
    d = 3.0
    res = exterior_defect_sup(f, f, f, params, E3, d, X, Y)
    keep = norm_many(E3, X) + norm_many(E3, Y) >= d
    ref = defect_sup_on(f, f, f, params, X[keep], Y[keep])
    assert res.value == ref.value


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
        f = FunctionModel(domain=E3, codomain=E2, linear=L23)
        prof = asymptotic_profile(
            f, JensenParams(1, 1, 1), E3, self.EDGES, 50, rng_from(3, "prof")
        )
        lines = prof.to_csv().strip().split("\n")
        assert len(lines) == 6
        assert lines[0].startswith("shell_edge_low")
