import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from jensenlab import spaces
from jensenlab.spaces import (
    ConfigError,
    NormedSpaceSpec,
    OrthogonalityRelation,
    as_batch,
    as_point,
    bj_margin_many,
    check_ratz_axioms,
    euclidean_space,
    is_orthogonal,
    is_orthogonal_many,
    norm_many,
    orthogonal_partners,
)
import spaces_reference

E2 = euclidean_space(2)
E3 = euclidean_space(3)
S2 = NormedSpaceSpec(2, "sup")
S3 = NormedSpaceSpec(3, "sup")
P3 = NormedSpaceSpec(3, "p_norm", 3.0)


def _norm(space, x):
    """norm_many on a one-row batch."""
    return norm_many(space, np.asarray(x, dtype=np.float64)[None, :])[0]


def _margin(space, x, y):
    """bj_margin_many on a one-row batch."""
    return bj_margin_many(space, np.asarray([x], float), np.asarray([y], float))[0]


def test_norm_examples():
    got = norm_many(E2, [[3.0, 4.0], [0.0, 0.0]])
    assert got[0] == pytest.approx(5.0, rel=1e-15) and got[1] == 0.0
    assert norm_many(S2, [[1.0, -2.5]]).tolist() == [2.5]
    assert norm_many(P3, [[1.0, 1.0, 1.0]])[0] == pytest.approx(3.0 ** (1.0 / 3.0), rel=1e-14)
    assert norm_many(E3, np.zeros((1, 3))).tolist() == [0.0]


def test_norm_many_matches_scalar():
    # a row's norm does not depend on the rest of its batch
    rng = np.random.default_rng(7)
    X = rng.standard_normal((50, 3))
    for space in (E3, S3, P3):
        batch = norm_many(space, X)
        for i in range(X.shape[0]):
            assert batch[i] == _norm(space, X[i])


def _row_reductions(space, X):
    """The reference: numpy's row reductions on a C-ordered batch."""
    if space.norm_kind == "euclidean":
        return np.sqrt(np.einsum("ij,ij->i", X, X))
    if space.norm_kind == "sup":
        return np.max(np.abs(X), axis=-1)
    return np.sum(np.abs(X) ** space.p, axis=-1) ** (1.0 / space.p)


@pytest.mark.parametrize("dim", range(1, 10))
@pytest.mark.parametrize("kind", ["euclidean", "sup", "p1.5", "p3"])
def test_column_norms_equal_row_reductions(kind, dim):
    """The column kernel behind norm_many equals numpy's row reductions bit for
    bit, on a (dim, n) buffer and on the transpose of a C-ordered batch: the
    folded forms (sup, Euclidean dim <= 2, p-norms of dim < 8) and the wider
    rows, which keep numpy's own summation order."""
    space = (euclidean_space(dim) if kind == "euclidean" else NormedSpaceSpec(dim, "sup")
             if kind == "sup" else NormedSpaceSpec(dim, "p_norm", float(kind[1:])))
    rng = np.random.default_rng(dim)
    X = rng.standard_normal((3000, dim)) * 10.0 ** rng.uniform(-100.0, 100.0, size=(3000, 1))
    X[::7, 0] = -0.0
    X[::11] = 0.0
    X[5, -1], X[6, 0], X[8] = np.inf, np.nan, 5e-324
    want = _row_reductions(space, X)
    assert np.array_equal(spaces._column_norms(space, X.T), want, equal_nan=True)
    assert np.array_equal(spaces._column_norms(space, X.T.copy()), want, equal_nan=True)
    assert np.array_equal(norm_many(space, X), want, equal_nan=True)


@pytest.mark.parametrize("dim", [3, 9])
def test_p_norm_overflows_to_inf_quietly(dim):
    """|x_i|^3 overflows at 1e103 (dim 3 takes the folded p-norm, dim 9 the
    wide one): the norm is inf with no warning, as a Euclidean norm is where
    x_i² overflows."""
    X = np.ones((2, dim))
    X[0] = 1e103
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for space, scale in ((NormedSpaceSpec(dim, "p_norm", 3.0), 1.0), (euclidean_space(dim), 1e60)):
            got = norm_many(space, X * scale)
            assert got[0] == np.inf and np.isfinite(got[1])


def test_norm_homogeneity():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((40, 3))
    alphas = rng.uniform(-5.0, 5.0, size=40)
    for space in (E3, S3, P3):
        n1 = norm_many(space, alphas[:, None] * X)
        n2 = np.abs(alphas) * norm_many(space, X)
        assert np.allclose(n1, n2, rtol=1e-12, atol=1e-300)


@given(
    st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
    st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
)
@settings(derandomize=True, max_examples=200, deadline=None)
def test_triangle_inequality(xs, ys):
    x = np.asarray(xs)
    y = np.asarray(ys)
    for space in (E3, S3, P3):
        lhs = _norm(space, x + y)
        rhs = _norm(space, x) + _norm(space, y)
        assert lhs <= rhs * (1.0 + 1e-12) + 1e-12


def test_space_validation():
    with pytest.raises(ConfigError):
        NormedSpaceSpec(dim=0, norm_kind="euclidean")
    with pytest.raises(ConfigError):
        NormedSpaceSpec(dim=2, norm_kind="banach")
    with pytest.raises(ConfigError):
        NormedSpaceSpec(2, "p_norm", 0.5)
    assert euclidean_space(4).has_inner_product
    assert not NormedSpaceSpec(4, "sup").has_inner_product


def test_as_point_shape_checks():
    assert as_point([1.0, 2.0], 2).shape == (2,)
    with pytest.raises(ValueError):
        as_point([1.0, 2.0, 3.0], 2)
    with pytest.raises(ValueError):
        as_batch(np.zeros((4, 3)), 2)


def test_inner_product():
    # ⟨(1, 2), (3, −1)⟩ = 1 and ⟨(1, 2), (−2, 1)⟩ = 0
    rel = OrthogonalityRelation(kind="inner_product")
    X = [[1.0, 2.0], [1.0, 2.0]]
    assert is_orthogonal_many(rel, E2, X, [[3.0, -1.0], [-2.0, 1.0]]).tolist() == [False, True]
    with pytest.raises(ConfigError):
        is_orthogonal_many(rel, S2, [[1.0, 0.0]], [[0.0, 1.0]])


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
    got = _margin(S2, [0.0, 1.0], [1.0, 0.5])
    assert got == pytest.approx(-1.0 / 3.0, abs=1e-6)
    lams = np.linspace(-2.0, 1.0, 300001)
    dense = np.min(np.maximum(np.abs(lams), np.abs(1.0 + 0.5 * lams))) - 1.0
    assert got == pytest.approx(dense, abs=1e-5)


def test_bj_margin_minimizer_far_out():
    # min over lam of max(|1e5 + lam|, |lam|) is 5e4 at lam = -5e4
    assert _margin(S2, [1e5, 0.0], [1.0, 1.0]) == pytest.approx(-5e4, rel=1e-12)


@pytest.mark.parametrize("c", [1e-14, 1.0, 1e14])
def test_bj_verdict_ignores_scale_of_y(c):
    """x = e1 is not orthogonal to c·(1, 1), whatever c."""
    rel = OrthogonalityRelation(kind="birkhoff_james")
    assert not is_orthogonal(rel, E2, [1.0, 0.0], [c, c])
    assert _margin(E2, [1.0, 0.0], [c, c]) == pytest.approx(np.sqrt(0.5) - 1.0, rel=1e-12)


RELATION_SPACES = [
    (kind, space)
    for kind in ("trivial", "inner_product", "birkhoff_james")
    for space in (E3, S3, NormedSpaceSpec(3, "p_norm", 3.0))
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


CONCAT_CASES = [
    (kind, space)
    for kind in ("trivial", "inner_product", "birkhoff_james")
    for space in (S2, S3, P3, E2, E3)
    if kind != "inner_product" or space.has_inner_product
]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    case=st.sampled_from(CONCAT_CASES),
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.integers(1, 5), min_size=2, max_size=4),
)
def test_batches_concatenate_bit_for_bit(case, seed, sizes):
    """A row's margin and verdict do not depend on the rest of its batch: one
    call on the concatenated batches gives each batch's own result, bit for
    bit, zero rows and relation partners included.  check_ratz_axioms tests
    all O1-O3 pairs in one call on the strength of this."""
    rel, space = OrthogonalityRelation(kind=case[0]), case[1]
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    X, Y = (rng.standard_normal((n, space.dim)) * 10.0 ** rng.uniform(-6.0, 6.0, (n, 1))
            for _ in range(2))
    X[rng.random(n) < 0.2] = 0.0
    Y[rng.random(n) < 0.2] = 0.0
    Y[::2] = orthogonal_partners(rel, space, X[::2], Y[::2])
    cuts = np.cumsum(sizes)[:-1]
    batches = list(zip(np.split(X, cuts), np.split(Y, cuts)))
    for func in (bj_margin_many, lambda s, A, B: is_orthogonal_many(rel, s, A, B)):
        whole = func(space, X, Y)
        assert np.array_equal(whole, np.concatenate([func(space, A, B) for A, B in batches]))


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


def test_relation_tolerance_below_one():
    """From tolerance 1 on, every pair passes: |⟨x, y⟩| ≤ ‖x‖‖y‖, and the
    margin min ‖x + λy‖ − ‖x‖ is at least −‖x‖.  Such a relation is no
    orthogonality (O2 fails), so it is refused naming the key."""
    X, Y = [[1.0, 2.0], [3.0, 0.0]], [[2.0, 4.0], [1.0, 0.0]]  # parallel pairs
    for kind in ("inner_product", "birkhoff_james"):
        assert not is_orthogonal_many(OrthogonalityRelation(kind, 0.5), E2, X, Y).any()
        for tolerance in (1.0, 1e308):
            with pytest.raises(ConfigError, match="^tolerance must lie in"):
                OrthogonalityRelation(kind=kind, tolerance=tolerance)


def test_relation_validation():
    with pytest.raises(ConfigError):
        OrthogonalityRelation(kind="symplectic")
    with pytest.raises(ConfigError):
        OrthogonalityRelation(kind="birkhoff_james", tolerance=0.0)
    with pytest.raises(ConfigError):
        is_orthogonal(OrthogonalityRelation(kind="inner_product"), S2, [1, 0], [0, 1])


def _independent(x, y):
    """_independent_many on a one-row batch."""
    return spaces._independent_many(np.asarray(x)[None, :], np.asarray(y)[None, :])[0]


def test_linearly_independent():
    assert _independent(np.array([1.0, 0.0]), np.array([0.0, 1e-6]))
    assert not _independent(np.array([1.0, 2.0]), np.array([2.0, 4.0]))


def test_no_pair_on_a_line_is_independent():
    """A 2x1 matrix has one singular value, which once passed the test against
    itself: every pair of a line counted as independent, so trivially orthogonal."""
    line = euclidean_space(1)
    rel = OrthogonalityRelation(kind="trivial")
    assert not _independent(np.array([2.0]), np.array([3.0]))
    assert not is_orthogonal(rel, line, [2.0], [3.0])
    assert not is_orthogonal(rel, line, [2.0], [-1e-3])
    assert is_orthogonal(rel, line, [2.0], [0.0]) and is_orthogonal(rel, line, [0.0], [3.0])


IP = OrthogonalityRelation(kind="inner_product")
BJ = OrthogonalityRelation(kind="birkhoff_james")


def _o4_row(rel, space, plane, x, lam):
    """_o4_witnesses on a one-row batch."""
    rows = [np.asarray(v, dtype=np.float64)[None, :] for v in (plane[0], plane[1], x)]
    return spaces._o4_witnesses(rel, space, *rows, np.array([lam], dtype=np.float64))[0]


class TestO4Witness:
    def test_rotation_example(self):
        y0 = _o4_row(IP, E2, ([1.0, 0.0], [0.0, 1.0]), [3.0, 4.0], 1.0)
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
            y0 = _o4_row(IP, euclidean_space(4), (p1, p2), x, lam)
            assert abs(np.dot(x, y0)) <= 1e-9 * np.linalg.norm(x) * np.linalg.norm(y0)
            assert np.dot(y0, y0) == pytest.approx(lam * np.dot(x, x), rel=1e-10)
            assert abs(np.dot(x + y0, lam * x - y0)) <= 1e-8 * max(1.0, lam * np.dot(x, x))

    def test_rejects_bad_inputs(self):
        # a zero or dependent plane has no quarter turn
        for plane in (([0.0, 0.0], [0.0, 1.0]), ([1.0, 2.0], [2.0, 4.0])):
            with pytest.raises(ValueError, match="plane vectors"):
                _o4_row(BJ, S2, plane, [1.0, 2.0], 1.0)


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

    @pytest.mark.parametrize("trials", [0, -3])
    def test_rejects_no_trials(self, trials):
        # O1-O3 would report 0 trials as FAIL while O4 ran one
        with pytest.raises(ConfigError, match="trials"):
            check_ratz_axioms(OrthogonalityRelation(kind="trivial"), E2, trials=trials)

    @pytest.mark.parametrize("kind", ["trivial", "inner_product", "birkhoff_james"])
    def test_rejects_a_line(self, kind):
        # O2-O4 are vacuous in dimension 1: refused, not reported as FAIL
        with pytest.raises(ConfigError, match="dim must be >= 2"):
            check_ratz_axioms(OrthogonalityRelation(kind=kind), euclidean_space(1), trials=10)

    @pytest.mark.parametrize("dim, trials, key", [
        (2**40, 2**30, "dim"), (2**30, 2**40, "trials"), (3, 2**63, "trials"),
    ])
    def test_rejects_sizes_past_the_ceiling(self, dim, trials, key):
        # trials × dim past 2**28 floats is refused before any array is built
        space = NormedSpaceSpec(dim=dim, norm_kind="sup")
        with pytest.raises(ConfigError, match=f"^{key} is too large"):
            check_ratz_axioms(OrthogonalityRelation(kind="birkhoff_james"), space, trials=trials)

    def test_report_dict(self):
        rel = OrthogonalityRelation(kind="trivial")
        report = check_ratz_axioms(rel, E2, trials=10, seed=4)
        d = report.to_dict()
        assert d["relation"] == "trivial"
        assert d["all_passed"] is True
        assert d["results"]["O1"]["failures"] == 0


def test_o4_witness_many_matches_rows():
    """Each row of a batched _o4_witnesses call is its one-row call, byte for
    byte, on every norm and relation; a zero-row batch is no error."""
    rng = np.random.default_rng(5)
    P1, P2 = rng.standard_normal((2, 30, 3))
    X = rng.uniform(-2.0, 2.0, (30, 1)) * P1 + rng.uniform(-2.0, 2.0, (30, 1)) * P2
    P1[:4] = X[:4] = [[1.0, 1.0, 0.0], [2.0, -2.0, 1.0], [1.0, 1.0, 1.0], [0.0, -1.0, 1.0]]
    lam = 10.0 ** rng.uniform(-2.0, 2.0, 30)
    cases = RELATION_SPACES + [(kind, NormedSpaceSpec(3, "p_norm", 1.5))
                               for kind in ("trivial", "birkhoff_james")]
    for kind, space in cases:
        rel = OrthogonalityRelation(kind=kind)
        Y0 = spaces._o4_witnesses(rel, space, P1, P2, X, lam)
        for i in range(30):
            row = _o4_row(rel, space, (P1[i], P2[i]), X[i], lam[i])
            assert Y0[i].tobytes() == row.tobytes()
        empty = spaces._o4_witnesses(rel, space, P1[:0], P2[:0], X[:0], lam[:0])
        assert empty.shape == (0, 3)


def _one_sided_derivatives(space, U, V):
    """ρ'₋(u; v) and ρ'₊(u; v) = −ρ'₋(u; −v)."""
    return spaces._lower_derivative(space, U, V), -spaces._lower_derivative(space, U, -V)


def test_one_sided_derivatives_match_difference_quotients():
    lo, hi = _one_sided_derivatives(S2, np.array([[1.0, 1.0], [1.0, 0.5]]),
                                    np.array([[1.0, -1.0], [0.0, 1.0]]))
    assert lo.tolist() == [-1.0, 0.0] and hi.tolist() == [1.0, 0.0]
    rng = np.random.default_rng(8)
    U, V = rng.standard_normal((2, 40, 3))
    for space in (S3, P3, NormedSpaceSpec(3, "p_norm", 1.5), E3):
        lo, hi = _one_sided_derivatives(space, U, V)
        h = 1e-7
        right = (norm_many(space, U + h * V) - norm_many(space, U)) / h
        left = (norm_many(space, U) - norm_many(space, U - h * V)) / h
        assert np.allclose(lo, left, atol=1e-5) and np.allclose(hi, right, atol=1e-5)


@st.composite
def _o4_cases(draw):
    dim = draw(st.integers(2, 4))
    space = draw(st.sampled_from(
        [euclidean_space(dim), NormedSpaceSpec(dim, "sup"),
         NormedSpaceSpec(dim, "p_norm", 1.5), NormedSpaceSpec(dim, "p_norm", 3.0)]
    ))
    kinds = ["trivial", "birkhoff_james"] + (["inner_product"] if space.has_inner_product else [])
    rel = OrthogonalityRelation(kind=draw(st.sampled_from(kinds)))
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
    assume(_independent(*plane))
    assume(_norm(space, x) > 1e-3 * max(_norm(space, plane[0]), _norm(space, plane[1])))
    lam = 10.0 ** draw(st.floats(-3.0, 3.0))
    c = draw(st.sampled_from([1e-8, 1.0, 1e8]))
    return rel, space, (c * plane[0], c * plane[1]), c * x, lam


@settings(derandomize=True, max_examples=160, deadline=None)
@given(case=_o4_cases())
def test_o4_witness_by_sign_change(case):
    rel, space, plane, x, lam = case
    y0 = _o4_row(rel, space, plane, x, lam)
    Q = np.linalg.qr(np.stack(plane).T)[0]
    assert np.linalg.norm(y0 - Q @ (Q.T @ y0)) <= 1e-10 * np.linalg.norm(y0)
    assert is_orthogonal(rel, space, x, y0)
    assert is_orthogonal(rel, space, x + y0, lam * x - y0)


def _count_calls(monkeypatch, *names):
    """Patch the named spaces functions to count their calls into a dict."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _func=getattr(spaces, name)):
            calls[_name] += 1
            return _func(*args)

        monkeypatch.setattr(spaces, name, counted)
    return calls


@pytest.mark.parametrize("space", [S3, P3], ids=["sup", "p3"])
def test_o4_trial_makes_few_margin_calls(monkeypatch, space):
    """One bisection serves all O4 trials, whatever their number, each kept
    trial verifies its witness with at most two margin searches, and O1-O3
    share one."""
    for trials in (4, 400):
        calls = _count_calls(
            monkeypatch, "_lower_derivative", "bj_margin_many", "is_orthogonal"
        )
        o4 = check_ratz_axioms(BJ, space, trials=trials, seed=5).results["O4"]
        assert o4.passed and o4.trials > 0
        assert calls["_lower_derivative"] == spaces._BISECT_ITERS
        # the O4 verifier is the scalar is_orthogonal, one margin search each
        assert 0 < calls["is_orthogonal"] <= 2 * o4.trials
        # O1-O3 share one batched margin search
        assert calls["bj_margin_many"] == 1 + calls["is_orthogonal"]
        monkeypatch.undo()


class _ZeroFirstCoefficients:
    """A generator whose first O4 coefficient draw comes out (0, 0), so x = 0;
    the draw itself still advances the stream."""

    def __init__(self, rng):
        self.rng, self.zeroed = rng, False

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def uniform(self, low, high, size=None):
        out = self.rng.uniform(low, high, size=size)
        if size == 2 and not self.zeroed:
            self.zeroed = True
            return np.zeros(2)
        return out


@pytest.mark.parametrize("drop", ["dependent_plane", "zero_x"])
def test_o4_drops_degenerate_draws(monkeypatch, drop):
    """A draw with a dependent plane or x = 0 is dropped from the O4 trial
    count before the witness search, which then warns of nothing."""
    clean = check_ratz_axioms(BJ, S2, trials=40, seed=9).results["O4"]
    if drop == "zero_x":
        rng = spaces._rng
        monkeypatch.setattr(
            spaces, "_rng",
            lambda seed, salt: _ZeroFirstCoefficients(rng(seed, salt)) if salt == 104
            else rng(seed, salt),
        )
    else:
        points, plane = spaces._random_points, []

        def dependent(space, rng, n):
            P = points(space, rng, n)
            if n == 1 and len(plane) < 2:  # the first O4 plane: p2 = −3·p1
                plane.append(P)
                return -3.0 * plane[0] if len(plane) == 2 else P
            return P

        monkeypatch.setattr(spaces, "_random_points", dependent)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        o4 = check_ratz_axioms(BJ, S2, trials=40, seed=9).results["O4"]
    assert o4.trials == clean.trials - 1
    assert o4.passed and clean.passed


KERNEL_SPACES = st.sampled_from(["euclidean", "sup", "p1.5", "p3"])


def _space(kind, dim):
    if kind.startswith("p"):
        return NormedSpaceSpec(dim, "p_norm", float(kind[1:]))
    return NormedSpaceSpec(dim, kind)


def _scaled_rows(rng, n, dim):
    """Gaussian rows scaled by 10^±6, a few with sup-norm ties."""
    X = rng.standard_normal((n, dim))
    ties = rng.random(n) < 0.1
    X[ties] = np.sign(X[ties])
    return X * 10.0 ** rng.uniform(-6.0, 6.0, (n, 1))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(kind=KERNEL_SPACES, dim=st.integers(1, 9), n=st.integers(1, 300),
       seed=st.integers(0, 2**32 - 1))
def test_bj_margin_matches_reference(kind, dim, n, seed):
    """The margin search gives the reference loop's floats, bit for bit, zero
    x rows and zero y rows included."""
    space, rng = _space(kind, dim), np.random.default_rng(seed)
    X, Y = _scaled_rows(rng, n, dim), _scaled_rows(rng, n, dim)
    X[rng.random(n) < 0.15] = 0.0
    Y[rng.random(n) < 0.15] = 0.0
    got = bj_margin_many(space, X, Y)
    assert got.tobytes() == spaces_reference.bj_margin_many(space, X, Y).tobytes()


def test_bj_margin_makes_one_norm_call_per_step(monkeypatch):
    """After the norms of x and y, each golden-section step and the final
    midpoint take one norm call over all their probes."""
    calls = _count_calls(monkeypatch, "_column_norms")
    rng = np.random.default_rng(4)
    bj_margin_many(S3, rng.standard_normal((7, 3)), rng.standard_normal((7, 3)))
    assert calls["_column_norms"] == 2 + spaces._GOLDEN_ITERS + 1


@settings(derandomize=True, max_examples=60, deadline=None)
@given(kind=KERNEL_SPACES, dim=st.integers(2, 9), n=st.integers(1, 300),
       seed=st.integers(0, 2**32 - 1), relation=st.sampled_from(["birkhoff_james", "other"]))
def test_o4_witnesses_match_reference(kind, dim, n, seed, relation):
    """The O4 bisection gives the reference loop's witnesses, bit for bit."""
    space, rng = _space(kind, dim), np.random.default_rng(seed)
    if relation == "other":
        relation = "inner_product" if space.has_inner_product else "trivial"
    rel = OrthogonalityRelation(kind=relation)
    P1, P2 = _scaled_rows(rng, n, dim), _scaled_rows(rng, n, dim)
    X = rng.uniform(-2.0, 2.0, (n, 1)) * P1 + rng.uniform(-2.0, 2.0, (n, 1)) * P2
    keep = (spaces._independent_many(P1, P2)
            & (norm_many(space, X) > 1e-3 * np.maximum(norm_many(space, P1), norm_many(space, P2))))
    assume(np.any(keep))
    P1, P2, X = P1[keep], P2[keep], X[keep]
    lam = 10.0 ** rng.uniform(-2.0, 2.0, X.shape[0])
    got = spaces._o4_witnesses(rel, space, P1, P2, X, lam)
    want = spaces_reference.o4_witnesses(rel, space, P1, P2, X, lam)
    assert got.tobytes() == want.tobytes()
