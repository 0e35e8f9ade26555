import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from jensenlab import spaces
from jensenlab.spaces import (
    PLANE_RESIDUAL_RTOL,
    NormedSpaceSpec,
    OrthogonalityRelation,
    SpaceError,
    as_batch,
    as_point,
    bj_margin,
    bj_margin_many,
    check_ratz_axioms,
    euclidean_space,
    inner,
    is_orthogonal,
    is_orthogonal_many,
    linearly_independent,
    norm,
    norm_many,
    o4_witness,
    o4_witness_many,
    orthogonal_partners,
    p_space,
    sup_space,
)

E2 = euclidean_space(2)
E3 = euclidean_space(3)
S2 = sup_space(2)
P3 = p_space(3, 3.0)


def test_norm_examples():
    assert norm(E2, [3.0, 4.0]) == pytest.approx(5.0, rel=1e-15)
    assert norm(S2, [1.0, -2.5]) == 2.5
    assert norm(P3, [1.0, 1.0, 1.0]) == pytest.approx(3.0 ** (1.0 / 3.0), rel=1e-14)
    assert norm(E3, [0.0, 0.0, 0.0]) == 0.0


def test_norm_many_matches_scalar():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((50, 3))
    for space in (E3, sup_space(3), P3):
        batch = norm_many(space, X)
        for i in range(X.shape[0]):
            assert batch[i] == norm(space, X[i])


def test_norm_homogeneity():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((40, 3))
    alphas = rng.uniform(-5.0, 5.0, size=40)
    for space in (E3, sup_space(3), P3):
        n1 = norm_many(space, alphas[:, None] * X)
        n2 = np.abs(alphas) * norm_many(space, X)
        assert np.allclose(n1, n2, rtol=1e-12, atol=1e-300)


@given(
    st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
    st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
)
@settings(max_examples=200, deadline=None)
def test_triangle_inequality(xs, ys):
    x = np.asarray(xs)
    y = np.asarray(ys)
    for space in (E3, sup_space(3), P3):
        lhs = norm(space, x + y)
        rhs = norm(space, x) + norm(space, y)
        assert lhs <= rhs * (1.0 + 1e-12) + 1e-12


def test_space_validation():
    with pytest.raises(SpaceError):
        NormedSpaceSpec(dim=0, norm_kind="euclidean")
    with pytest.raises(SpaceError):
        NormedSpaceSpec(dim=2, norm_kind="banach")
    with pytest.raises(SpaceError):
        p_space(2, 0.5)
    assert euclidean_space(4).has_inner_product
    assert not sup_space(4).has_inner_product


def test_as_point_shape_checks():
    assert as_point([1.0, 2.0], 2).shape == (2,)
    with pytest.raises(SpaceError):
        as_point([1.0, 2.0, 3.0], 2)
    with pytest.raises(SpaceError):
        as_batch(np.zeros((4, 3)), 2)


def test_inner_product():
    assert inner(E2, [1.0, 2.0], [3.0, -1.0]) == pytest.approx(1.0)
    with pytest.raises(SpaceError):
        inner(S2, [1.0, 0.0], [0.0, 1.0])


def test_bj_margin_is_nonpositive():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((30, 2))
    Y = rng.standard_normal((30, 2))
    for space in (E2, S2):
        assert np.all(bj_margin_many(space, X, Y) <= 0.0)


def test_bj_asymmetric_pair_sup_norm():
    """One direction of the sup-norm example is orthogonal, the reverse is not."""
    rel = OrthogonalityRelation(kind="birkhoff_james")
    assert is_orthogonal(rel, S2, [1.0, 0.5], [0.0, 1.0])
    assert not is_orthogonal(rel, S2, [0.0, 1.0], [1.0, 0.5])


def test_bj_margin_reversed_pair_value():
    # min over lam of max(|lam|, |1 + 0.5 lam|) is 2/3 at lam = -2/3
    got = bj_margin(S2, [0.0, 1.0], [1.0, 0.5])
    assert got == pytest.approx(-1.0 / 3.0, abs=1e-6)
    lams = np.linspace(-2.0, 1.0, 300001)
    dense = np.min(np.maximum(np.abs(lams), np.abs(1.0 + 0.5 * lams))) - 1.0
    assert got == pytest.approx(dense, abs=1e-5)


def test_bj_margin_minimizer_far_out():
    # min over lam of max(|1e5 + lam|, |lam|) is 5e4 at lam = -5e4
    assert bj_margin(S2, [1e5, 0.0], [1.0, 1.0]) == pytest.approx(-5e4, rel=1e-12)


@pytest.mark.parametrize("c", [1e-14, 1.0, 1e14])
def test_bj_verdict_ignores_scale_of_y(c):
    """x = e1 is not orthogonal to c·(1, 1), whatever c."""
    rel = OrthogonalityRelation(kind="birkhoff_james")
    assert not is_orthogonal(rel, E2, [1.0, 0.0], [c, c])
    assert bj_margin(E2, [1.0, 0.0], [c, c]) == pytest.approx(np.sqrt(0.5) - 1.0, rel=1e-12)


RELATION_SPACES = [
    (kind, space)
    for kind in ("trivial", "inner_product", "birkhoff_james")
    for space in (E3, sup_space(3), p_space(3, 3.0))
    if kind != "inner_product" or space.has_inner_product
]


def _partner_batch(rel, space, seed, n=60):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, space.dim)) * np.exp(rng.uniform(-3.0, 3.0, (n, 1)))
    X[::7] = 0.0
    X[3, :] = [1.0, 1.0, 0.0]  # a sup-norm tie
    V = rng.standard_normal((n, space.dim))
    return X, V, orthogonal_partners(rel, space, X, V)


@pytest.mark.parametrize("kind, space", RELATION_SPACES)
def test_partners_are_orthogonal(kind, space):
    rel = OrthogonalityRelation(kind=kind)
    X, V, Y = _partner_batch(rel, space, 5)
    assert np.all(is_orthogonal_many(rel, space, X, Y))
    assert np.all(norm_many(space, Y) > 0.0)
    zero = ~np.any(X, axis=1)
    assert np.array_equal(Y[zero], V[zero])
    Z = np.zeros_like(X)
    for A, B in ((X, Y), (Y, X), (X, Z), (Z, Y), (X, X + Y)):
        batch = is_orthogonal_many(rel, space, A, B)
        assert batch.tolist() == [is_orthogonal(rel, space, a, b) for a, b in zip(A, B)]


SCALES = st.floats(1e-12, 1e12) | st.floats(-1e12, -1e-12)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    case=st.sampled_from(RELATION_SPACES),
    seed=st.integers(0, 2**32 - 1),
    alpha=SCALES,
    beta=SCALES,
)
def test_orthogonality_is_homogeneous(case, seed, alpha, beta):
    """x ⊥ y implies αx ⊥ βy (axiom O3) over 24 orders of magnitude."""
    rel = OrthogonalityRelation(kind=case[0])
    X, _, Y = _partner_batch(rel, case[1], seed, n=20)
    assert np.all(is_orthogonal_many(rel, case[1], alpha * X, beta * Y))


def test_bj_euclidean_agrees_with_inner_product():
    """In a euclidean plane the two relations mark the same pairs orthogonal."""
    rel_bj = OrthogonalityRelation(kind="birkhoff_james")
    rel_ip = OrthogonalityRelation(kind="inner_product")
    rng = np.random.default_rng(19)
    for _ in range(25):
        x = rng.standard_normal(2)
        x /= np.linalg.norm(x)
        perp = np.array([-x[1], x[0]]) * rng.uniform(0.5, 2.0)
        skew = perp + x * rng.uniform(0.2, 1.0) * np.sign(rng.standard_normal())
        for y, expected in ((perp, True), (skew, False)):
            assert is_orthogonal(rel_bj, E2, x, y) == expected
            assert is_orthogonal(rel_ip, E2, x, y) == expected


def test_trivial_relation():
    rel = OrthogonalityRelation(kind="trivial")
    assert is_orthogonal(rel, E2, [1.0, 0.0], [0.0, 2.0])
    assert is_orthogonal(rel, E2, [1.0, 1.0], [0.0, 0.0])
    assert not is_orthogonal(rel, E2, [1.0, 1.0], [2.0, 2.0])


def test_relation_validation():
    with pytest.raises(SpaceError):
        OrthogonalityRelation(kind="symplectic")
    with pytest.raises(SpaceError):
        OrthogonalityRelation(kind="birkhoff_james", tolerance=0.0)
    with pytest.raises(SpaceError):
        is_orthogonal(OrthogonalityRelation(kind="inner_product"), S2, [1, 0], [0, 1])


def test_linearly_independent():
    assert linearly_independent(np.array([1.0, 0.0]), np.array([0.0, 1e-6]))
    assert not linearly_independent(np.array([1.0, 2.0]), np.array([2.0, 4.0]))


class TestO4Witness:
    def test_rotation_example(self):
        y0 = o4_witness(E2, ([1.0, 0.0], [0.0, 1.0]), [3.0, 4.0], 1.0)
        assert np.allclose(y0, [-4.0, 3.0], atol=1e-12)

    def test_witness_properties(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            p1 = rng.standard_normal(4)
            p2 = rng.standard_normal(4)
            coeffs = rng.uniform(-2.0, 2.0, size=2)
            x = coeffs[0] * p1 + coeffs[1] * p2
            if np.linalg.norm(x) < 1e-3:
                continue
            lam = rng.uniform(0.1, 4.0)
            y0 = o4_witness(euclidean_space(4), (p1, p2), x, lam)
            assert abs(np.dot(x, y0)) <= 1e-9 * np.linalg.norm(x) * np.linalg.norm(y0)
            assert np.dot(y0, y0) == pytest.approx(lam * np.dot(x, x), rel=1e-10)
            assert abs(np.dot(x + y0, lam * x - y0)) <= 1e-8 * max(1.0, lam * np.dot(x, x))

    def test_rejects_bad_inputs(self):
        with pytest.raises(SpaceError):
            o4_witness(S2, ([1.0, 0.0], [0.0, 1.0]), [1.0, 1.0], 1.0)
        with pytest.raises(SpaceError):
            o4_witness(E3, ([1, 0, 0], [0, 1, 0]), [0.0, 0.0, 1.0], 1.0)
        with pytest.raises(SpaceError):
            o4_witness(E2, ([1.0, 0.0], [0.0, 1.0]), [1.0, 0.0], -2.0)


class TestRatzAxioms:
    def test_inner_product_euclidean(self):
        rel = OrthogonalityRelation(kind="inner_product")
        report = check_ratz_axioms(rel, E3, trials=80, seed=1)
        assert report.all_passed
        assert set(report.results) == {"O1", "O2", "O3", "O4"}

    def test_trivial(self):
        rel = OrthogonalityRelation(kind="trivial")
        report = check_ratz_axioms(rel, E2, trials=60, seed=2)
        assert report.all_passed

    def test_bj_euclidean(self):
        rel = OrthogonalityRelation(kind="birkhoff_james")
        report = check_ratz_axioms(rel, E2, trials=12, seed=3)
        assert report.all_passed

    def test_bj_sup_norm(self):
        """Witness search must handle the non-smooth unit ball."""
        rel = OrthogonalityRelation(kind="birkhoff_james")
        report = check_ratz_axioms(rel, S2, trials=8, seed=3)
        assert report.all_passed
        assert report.results["O4"].failures == 0

    def test_report_dict(self):
        rel = OrthogonalityRelation(kind="trivial")
        report = check_ratz_axioms(rel, E2, trials=10, seed=4)
        d = report.to_dict()
        assert d["relation"] == "trivial"
        assert d["all_passed"] is True
        assert d["results"]["O1"]["failures"] == 0


BJ = OrthogonalityRelation(kind="birkhoff_james")


def test_o4_witness_many_matches_rows():
    rng = np.random.default_rng(5)
    P1, P2 = rng.standard_normal((2, 30, 3))
    X = rng.uniform(-2.0, 2.0, (30, 1)) * P1 + rng.uniform(-2.0, 2.0, (30, 1)) * P2
    Y0 = o4_witness_many(E3, P1, P2, X, 0.75)
    for i in range(30):
        assert Y0[i].tobytes() == o4_witness(E3, (P1[i], P2[i]), X[i], 0.75).tobytes()


def test_one_sided_derivatives_match_difference_quotients():
    lo, hi = spaces._one_sided_derivatives(S2, np.array([[1.0, 1.0], [1.0, 0.5]]),
                                           np.array([[1.0, -1.0], [0.0, 1.0]]))
    assert lo.tolist() == [-1.0, 0.0] and hi.tolist() == [1.0, 0.0]
    rng = np.random.default_rng(8)
    U, V = rng.standard_normal((2, 40, 3))
    for space in (sup_space(3), P3, p_space(3, 1.5), E3):
        lo, hi = spaces._one_sided_derivatives(space, U, V)
        h = 1e-7
        right = (norm_many(space, U + h * V) - norm_many(space, U)) / h
        left = (norm_many(space, U) - norm_many(space, U - h * V)) / h
        assert np.allclose(lo, left, atol=1e-5) and np.allclose(hi, right, atol=1e-5)


@st.composite
def _o4_cases(draw):
    dim = draw(st.integers(2, 4))
    space = draw(st.sampled_from([sup_space(dim), p_space(dim, 1.5), p_space(dim, 3.0)]))
    vec = st.lists(st.floats(-3.0, 3.0), min_size=dim, max_size=dim).map(np.array)
    if draw(st.booleans()):
        # integer coordinates with ties: x on a vertex or an edge of the sup ball
        x = np.array(draw(st.lists(st.sampled_from([-2.0, -1.0, 1.0, 2.0]),
                                   min_size=dim, max_size=dim)))
        q = draw(vec)
        plane = draw(st.sampled_from([(x, q), (q, x), (q, x + q)]))
    else:
        plane = (draw(vec), draw(vec))
        a, b = draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))
        x = a * plane[0] + b * plane[1]
    assume(linearly_independent(*plane))
    assume(norm(space, x) > 1e-3 * max(norm(space, plane[0]), norm(space, plane[1])))
    lam = 10.0 ** draw(st.floats(-3.0, 3.0))
    c = draw(st.sampled_from([1e-8, 1.0, 1e8]))
    return space, (c * plane[0], c * plane[1]), c * x, lam


@settings(derandomize=True, max_examples=120, deadline=None)
@given(case=_o4_cases())
def test_o4_witness_by_sign_change(case):
    space, plane, x, lam = case
    y0 = spaces._find_o4_witness(BJ, space, plane, x, lam)
    assert y0 is not None
    Q = np.linalg.qr(np.stack(plane).T)[0]
    assert np.linalg.norm(y0 - Q @ (Q.T @ y0)) <= PLANE_RESIDUAL_RTOL * np.linalg.norm(y0)
    assert is_orthogonal(BJ, space, x, y0)
    assert is_orthogonal(BJ, space, x + y0, lam * x - y0)


@pytest.mark.parametrize("space", [sup_space(3), P3], ids=["sup", "p3"])
def test_o4_trial_makes_few_margin_calls(monkeypatch, space):
    # A grid or golden-section witness search makes hundreds of calls.
    calls = []
    margin = spaces.bj_margin_many

    def counted(*args):
        calls.append(1)
        return margin(*args)

    monkeypatch.setattr(spaces, "bj_margin_many", counted)
    plane = (np.array([1.0, 0.2, -0.5]), np.array([0.3, -1.0, 0.8]))
    x = 0.7 * plane[0] - 1.1 * plane[1]
    assert spaces._find_o4_witness(BJ, space, plane, x, 2.5) is not None
    assert 0 < len(calls) <= 8
