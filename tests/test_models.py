import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jensenlab import models
from jensenlab.models import (
    BOUNDED,
    DECAY,
    EvenPart,
    FunctionModel,
    JensenParams,
    OddPart,
    POWER,
    PerturbationSpec,
    RadialTable,
    ScaledModel,
    _row_hash,
    _term_stream,
    derive_seed,
    jensen_defect_many,
    odd_even_split,
    perturbation_values,
)
from jensenlab.spaces import (
    ConfigError,
    NormedSpaceSpec,
    OrthogonalityRelation,
    euclidean_space,
    is_orthogonal_many,
    norm_many,
    orthogonal_partners,
)

E3 = euclidean_space(3)
E2 = euclidean_space(2)


def _linear_model(L, domain=E3, codomain=E2, **kw):
    return FunctionModel(domain=domain, codomain=codomain, linear=np.asarray(L), **kw)


def test_params_validation():
    JensenParams(1, 2, 3)
    with pytest.raises(ConfigError):
        JensenParams(0, 1, 1)
    with pytest.raises(ConfigError):
        JensenParams(1, 1.5, 1)


def test_derive_seed_is_stable():
    # frozen values pin the stream so stored configs keep replaying identically
    assert derive_seed(0, 0) == 16294208416658607535
    assert derive_seed(123, 7) == 8897914972836847537
    assert derive_seed(123, 7) != derive_seed(123, 8)
    assert 0 <= derive_seed(2**70, 3) < 2**64


_MASK64 = 2**64 - 1
_GAMMA = 0x9E3779B97F4A7C15


def _derive_seed_by_steps(seed, index):
    """The definition: advance a splitmix64 state index+1 times, then mix."""
    state = seed & _MASK64
    for _ in range(index + 1):
        state = (state + _GAMMA) & _MASK64
    z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def test_derive_seed_matches_stepping():
    indices = [0, 1, 2, 3, 99, 100, 200, 1000, 4097, 65534, 65535]
    for seed in (0, 1, 11, 2**63, 2**64 - 1, 2**64, 2**64 + 5, 3 * 2**70 + 12345):
        for index in indices:
            assert derive_seed(seed, index) == _derive_seed_by_steps(seed, index)


@pytest.mark.parametrize("index", [-1, -2, -65536])
def test_derive_seed_rejects_negative_index(index):
    # the stepping loop runs no step for any negative index, while the closed
    # form steps backwards below -1, so negative indices are an error
    with pytest.raises(ValueError):
        derive_seed(7, index)


_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _splitmix_out(z):
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _row_hash_by_words(row):
    """The word-wise row hash, one little-endian coordinate word at a time."""
    h = 0
    for word in struct.unpack(f"<{len(row)}Q", np.asarray(row, dtype="<f8").tobytes()):
        h = ((h ^ word) * _MIX1) & _MASK64
        h ^= h >> 29
    return h


def _stream_by_words(seed, row, k):
    """A term's k stream values at row: one splitmix64 step from the row hash
    xored with the seed, then k more steps, each mapped to [-1, 1)."""
    state = _splitmix_out(((_row_hash_by_words(row) ^ (seed & _MASK64)) + _GAMMA) & _MASK64)
    return [(_splitmix_out((state + j * _GAMMA) & _MASK64) >> 11) * 2.0**-52 - 1.0
            for j in range(1, k + 1)]


_EDGE_ROWS = np.array(
    [
        [0.0, -0.0, 1.0],
        [-0.0, 0.0, -0.0],
        [5e-324, -5e-324, 2.2250738585072014e-308 / 3.0],
        [1.7976931348623157e308, -1.7976931348623157e308, 5e-324],
        [np.inf, -np.inf, 1e308],
        [np.pi, -np.e, 1e-300],
        [3.0, 2.0**60, -(2.0**-1070)],
    ]
)


def test_row_hash_and_stream_match_wordwise_reference():
    X = np.concatenate([_EDGE_ROWS, np.random.default_rng(3).standard_normal((20, 3)) * 1e150])
    h = _row_hash(X)
    assert h.dtype == np.uint64
    assert [int(v) for v in h] == [_row_hash_by_words(row) for row in X]
    for seed in (0, 5, 2**64 - 1, 2**64 + 9, 3 * 2**70 + 12345):
        got = _term_stream(h, seed, 2).T
        assert got.tolist() == [_stream_by_words(seed, row, 2) for row in X]
    # a tuple seed holds one seed per candidate; each row takes its candidate's
    seeds = (7, 2**64 + 7, 2**65 + 1)
    cand = np.arange(X.shape[0]) % 3
    got = _term_stream(h, seeds, 3, cand).T
    assert got.tolist() == [_stream_by_words(seeds[c], row, 3) for c, row in zip(cand, X)]
    # -0.0 and 0.0 differ in their bits, so they hash apart
    assert _row_hash(X[:1])[0] != _row_hash(np.abs(X[:1]))[0]


def _lattices():
    rng = np.random.default_rng(21)
    # 2^n·x: rows that differ only in their exponent bits
    dyadic = 2.0 ** np.arange(-500.0, 500.0)[:, None, None] * rng.standard_normal((100, 3))
    grid = np.stack(np.meshgrid(*[np.arange(-23.0, 24.0)] * 3, indexing="ij"), axis=-1)
    return {"dyadic": dyadic.reshape(-1, 3), "integer-grid": grid.reshape(-1, 3)}


@pytest.mark.parametrize("lattice", ["dyadic", "integer-grid"])
def test_stream_statistics_on_lattice_rows(lattice):
    """On 10^5 lattice rows the row hashes are distinct and the expanded values
    have the mean, variance and lag-1 correlation of uniform noise on [-1, 1).
    The limits are about five standard errors of 3·10^5 values."""
    X = _lattices()[lattice]
    assert X.shape[0] >= 10**5
    h = _row_hash(X)
    assert np.unique(h).size == X.shape[0]
    U = _term_stream(h, 7, 3).T
    values = U.ravel()
    assert abs(values.mean()) < 0.005
    assert abs(values.var() - 1.0 / 3.0) < 0.003
    for a, b in ((values[:-1], values[1:]), (U[:-1].ravel(), U[1:].ravel())):
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.01


def test_equal_rows_get_distinct_streams():
    """Equal rows under different candidates, or under different terms of one
    model (seeds that differ in one bit included), take unrelated streams."""
    X = np.random.default_rng(6).standard_normal((2000, 3))
    h = _row_hash(X)
    streams = [_term_stream(h, seed, 2).T for seed in (2, 3)]
    both = _term_stream(np.concatenate([h, h]), (2, 3), 2, np.repeat([0, 1], X.shape[0])).T
    assert np.array_equal(both, np.concatenate(streams))
    a, b = streams
    assert not np.any(a == b)
    assert abs(np.corrcoef(a.ravel(), b.ravel())[0, 1]) < 0.05
    # through a model: two candidates, one linear part, equal rows
    f = _linear_model(np.ones((2, 3)), perturbations=(
        PerturbationSpec(kind=BOUNDED, amplitude=0.5, seed=(4, 5)),
        PerturbationSpec(kind=POWER, delta=0.5, p=0.5, seed=(4, 5)),
    ))
    Y = f.eval_many(np.concatenate([X[:50], X[:50]]), np.repeat([0, 1], 50))
    assert not np.any(Y[:50] == Y[50:])


def test_one_row_hash_and_norm_per_evaluation(monkeypatch):
    """A two-term model hashes X and takes ‖x‖ once per eval_many call; the
    structured odd and even parts hash [X; −X] once and take ‖x‖ of X once."""
    hashed, normed = [], []
    row_hash, norms = models._row_hash, models.norm_many

    def spy_hash(X):
        hashed.append(X.shape[0])
        return row_hash(X)

    def spy_norms(space, X):
        if space == E3:
            normed.append(X.shape[0])
        return norms(space, X)

    monkeypatch.setattr(models, "_row_hash", spy_hash)
    monkeypatch.setattr(models, "norm_many", spy_norms)
    f = _linear_model(np.ones((2, 3)), quadratic=[0.3, -0.1], perturbations=(
        PerturbationSpec(kind=BOUNDED, amplitude=0.5, seed=2),
        PerturbationSpec(kind=DECAY, amplitude=0.5, seed=3),
    ))
    X = np.random.default_rng(7).standard_normal((7, 3))
    for part, rows in ((f, 7), (OddPart(f), 14), (EvenPart(f), 14)):
        hashed.clear()
        normed.clear()
        part.eval_many(X)
        assert hashed == [rows]
        assert normed == [7]


def test_linear_eval():
    L = np.array([[1.0, 2.0, 0.0], [0.0, -1.0, 3.0]])
    f = _linear_model(L)
    x = np.array([1.0, 1.0, 1.0])
    assert np.allclose(f.eval_many(x[None, :])[0], L @ x)
    X = np.random.default_rng(0).standard_normal((20, 3))
    assert np.allclose(f.eval_many(X), X @ L.T)


def test_scalar_and_batch_agree_bitwise():
    f = FunctionModel(
        domain=E3,
        codomain=E2,
        linear=[[0.5, -1.0, 2.0], [1.0, 0.0, 0.25]],
        quadratic=[0.3, -0.1],
        perturbations=(PerturbationSpec(kind=BOUNDED, amplitude=0.2, seed=5),),
    )
    X = np.random.default_rng(1).standard_normal((16, 3))
    batch = f.eval_many(X)
    for i in range(X.shape[0]):
        assert np.array_equal(f.eval_many(X[i : i + 1])[0], batch[i])


def test_fix_origin():
    """f(0) = +0.0 exactly, alone or inside a batch, whatever the linear part's signs."""
    L = [[1.0, 1.0, 1.0], [-1.0, -2.0, -0.5]]
    f = _linear_model(L, perturbations=(PerturbationSpec(kind=BOUNDED, amplitude=1.0, seed=9),))
    g = _linear_model(L, quadratic=[0.3, -0.1])
    X = np.zeros((3, 3))
    X[1] = [1.0, 2.0, 3.0]
    for part in (f, g, OddPart(f), OddPart(g), EvenPart(f), EvenPart(g)):
        assert part.eval_many(np.zeros((1, 3))).tobytes() == np.zeros((1, 2)).tobytes()
        Y = part.eval_many(X)
        assert Y[[0, 2]].tobytes() == np.zeros((2, 2)).tobytes()


@pytest.mark.parametrize(
    "spec,bound",
    [
        (PerturbationSpec(kind=BOUNDED, amplitude=0.7, seed=2), lambda n: 0.7),
        (PerturbationSpec(kind=POWER, delta=0.4, p=0.5, seed=3), lambda n: 0.4 * n**0.5),
        (PerturbationSpec(kind=DECAY, amplitude=1.1, seed=4), lambda n: 1.1 / (1.0 + n)),
    ],
)
def test_perturbation_bounds_hold(spec, bound):
    rng = np.random.default_rng(8)
    X = rng.uniform(-6.0, 6.0, size=(300, 3))
    vals = perturbation_values(spec, X, E3, E2)
    norms = norm_many(E2, vals)
    limits = np.array([bound(n) for n in norm_many(E3, X)])
    assert np.all(norms <= limits * (1.0 + 1e-12) + 1e-15)


def test_perturbation_vanishes_at_origin():
    for spec in (
        PerturbationSpec(kind=BOUNDED, amplitude=1.0, seed=1),
        PerturbationSpec(kind=POWER, delta=1.0, p=0.0, seed=1),
        PerturbationSpec(kind=DECAY, amplitude=1.0, seed=1),
    ):
        out = perturbation_values(spec, np.zeros((3, 3)), E3, E2)
        assert np.array_equal(out, np.zeros((3, 2)))


def test_perturbation_determinism():
    spec = PerturbationSpec(kind=BOUNDED, amplitude=0.5, seed=77)
    X = np.random.default_rng(2).standard_normal((40, 3))
    a = perturbation_values(spec, X, E3, E2)
    b = perturbation_values(spec, X, E3, E2)
    assert np.array_equal(a, b)
    other = PerturbationSpec(kind=BOUNDED, amplitude=0.5, seed=78)
    c = perturbation_values(other, X, E3, E2)
    assert not np.array_equal(a, c)


def test_perturbation_values_adds_terms_in_order():
    """A sequence of terms is added one after another, exactly as the terms
    evaluated one at a time, with or without the norms of X given; a "none"
    term adds nothing, whatever magnitudes it carries."""
    specs = (
        PerturbationSpec(kind=BOUNDED, amplitude=0.5, seed=2),
        PerturbationSpec(kind="none", amplitude=0.9, delta=0.4, p=0.5),
        PerturbationSpec(kind=POWER, delta=0.3, p=0.5, seed=3),
        PerturbationSpec(kind=DECAY, amplitude=0.7, seed=4),
    )
    X = np.random.default_rng(11).standard_normal((30, 3))
    X[3] = 0.0
    a, none, b, c = (perturbation_values(s, X, E3, E2) for s in specs)
    assert np.array_equal(none, np.zeros((30, 2)))
    assert np.array_equal(perturbation_values(specs, X, E3, E2), a + b + c)
    assert np.array_equal(perturbation_values(specs, X, E3, E2, nx=norm_many(E3, X)), a + b + c)
    assert not np.any(a[3]) and not np.any(c[3])


def test_perturbation_validation():
    with pytest.raises(ConfigError):
        PerturbationSpec(kind="white_noise")
    with pytest.raises(ConfigError):
        PerturbationSpec(kind=BOUNDED, amplitude=-1.0)
    with pytest.raises(ConfigError):
        PerturbationSpec(kind=POWER, delta=1.0, p=1.0)


def test_radial_table_interpolation():
    table = RadialTable(knots=[0.0, 1.0, 2.0], values=[[0.0], [1.0], [4.0]])
    u = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
    got = table.eval_many(u)[:, 0]
    assert np.allclose(got, [0.0, 0.5, 1.0, 2.5, 4.0])
    # extrapolation continues the edge slope
    assert table.eval_many(np.array([3.0]))[0, 0] == pytest.approx(7.0)


def test_radial_table_validation():
    with pytest.raises(ValueError):
        RadialTable(knots=[0.0], values=[[1.0]])
    with pytest.raises(ValueError):
        RadialTable(knots=[1.0, 0.5], values=[[1.0], [1.0]])


def test_zero_defect_for_shared_additive_model():
    L = np.array([[1.0, -2.0, 0.5], [0.0, 1.0, 1.0]])
    f = _linear_model(L)
    rng = np.random.default_rng(5)
    X = rng.uniform(-4.0, 4.0, size=(60, 3))
    Y = rng.uniform(-4.0, 4.0, size=(60, 3))
    for params in (JensenParams(1, 1, 1), JensenParams(2, 3, 1), JensenParams(5, 2, 4)):
        d = jensen_defect_many(f, f, f, params, X, Y)
        assert np.max(d) <= 1e-12 * max(1.0, float(np.max(norm_many(E2, f.eval_many(X)))))


def test_quadratic_defect_value():
    """A pure quadratic term contributes 2|c|·‖x‖² at the pair (x, -x) when r = 2."""
    f = FunctionModel(domain=E3, codomain=E2, linear=np.zeros((2, 3)), quadratic=[1.0, 0.0])
    params = JensenParams(2, 1, 1)
    x = np.array([[0.5, 0.0, 0.0]])
    assert jensen_defect_many(f, f, f, params, x, -x)[0] == pytest.approx(0.5, rel=1e-12)


def test_shared_model_defect_equals_three_calls():
    """With g = h = f the defect comes from one call on [mid; X; Y]; it equals
    that of three separate calls bit for bit, with or without candidates."""
    rng = np.random.default_rng(8)
    f = _linear_model(rng.uniform(-2.0, 2.0, size=(2, 2, 3)), quadratic=[0.3, -0.1],
                      perturbations=(PerturbationSpec(kind=BOUNDED, amplitude=0.2, seed=(4, 7)),
                                     PerturbationSpec(kind=POWER, delta=0.1, p=0.5, seed=(1, 2))))
    X, Y = rng.standard_normal((2, 50, 3))
    X[0] = 0.0
    cand = rng.integers(0, 2, size=50)
    params = JensenParams(3, 2, 1)
    batched = jensen_defect_many(f, f, f, params, X, Y, cand)
    for k in range(2):
        g, x, y = f.candidate(k), X[cand == k], Y[cand == k]
        mid = (params.s * x + params.t * y) / params.r
        want = norm_many(E2, params.r * g.eval_many(mid) - params.s * g.eval_many(x)
                         - params.t * g.eval_many(y))
        assert np.array_equal(batched[cand == k], want)
        assert np.array_equal(jensen_defect_many(g, g, g, params, x, y), want)


def test_odd_even_split_reconstructs():
    f = FunctionModel(
        domain=E3,
        codomain=E2,
        linear=[[1.0, 0.0, 2.0], [0.5, 1.0, 0.0]],
        quadratic=[0.2, -0.4],
        perturbations=(PerturbationSpec(kind=BOUNDED, amplitude=0.3, seed=6),),
    )
    odd, even = odd_even_split(f)
    X = np.random.default_rng(9).uniform(-3.0, 3.0, size=(50, 3))
    total = odd.eval_many(X) + even.eval_many(X)
    assert np.allclose(total, f.eval_many(X), rtol=1e-12, atol=1e-12)


def test_parity_of_split_parts():
    f = FunctionModel(
        domain=E3,
        codomain=E2,
        linear=np.random.default_rng(4).standard_normal((2, 3)),
        quadratic=[1.5, -0.2],
        perturbations=(PerturbationSpec(kind=POWER, delta=0.2, p=0.5, seed=10),),
    )
    X = np.random.default_rng(12).uniform(-2.0, 2.0, size=(40, 3))
    odd = OddPart(f)
    even = EvenPart(f)
    assert np.allclose(odd.eval_many(-X), -odd.eval_many(X), atol=1e-14)
    assert np.allclose(even.eval_many(-X), even.eval_many(X), atol=1e-14)


def test_structured_odd_part_drops_quadratic_exactly():
    """The odd projection of L + c‖x‖² is L·x with no numerical residue.

    This matters because the dyadic limit amplifies any leftover even term
    by 2^n; a cancellation-based split leaves noise that grows with n.
    """
    L = np.array([[1.0, 2.0, -1.0], [0.0, 1.0, 0.5]])
    f = FunctionModel(domain=E3, codomain=E2, linear=L, quadratic=[3.0, -2.0])
    X = np.random.default_rng(13).uniform(-50.0, 50.0, size=(30, 3))
    assert np.array_equal(OddPart(f).eval_many(X), X @ L.T)
    even = EvenPart(f).eval_many(X)
    u = norm_many(E3, X) ** 2
    assert np.allclose(even, u[:, None] * np.array([3.0, -2.0]), rtol=1e-15)


@pytest.mark.parametrize("part", [OddPart, EvenPart])
def test_parity_parts_of_a_function_model_only(part):
    """The odd and even parts drop the exact term of the other parity from a
    FunctionModel's structure; of any other map they are refused."""
    f = FunctionModel(domain=E2, codomain=E2, linear=np.eye(2), quadratic=[1.0, 0.5])
    for other in (ScaledModel(f, arg_scale=3.0), OddPart(f), EvenPart(f)):
        with pytest.raises(ValueError, match="FunctionModel"):
            part(other)


def test_scaled_model():
    L = np.array([[2.0, 0.0], [0.0, 1.0]])
    f = FunctionModel(domain=E2, codomain=E2, linear=L)
    g = ScaledModel(f, arg_scale=3.0, out_scale=0.5)
    x = np.array([1.0, -2.0])
    assert np.allclose(g.eval_many(x[None, :])[0], 0.5 * (L @ (3.0 * x)))


def test_perturbed_additive_model_and_exact_part():
    L = np.array([[1.0, 1.0, 0.0]])
    f = _linear_model(
        L, codomain=euclidean_space(1),
        perturbations=PerturbationSpec(kind=BOUNDED, amplitude=0.4, seed=3),
    )
    X = np.random.default_rng(14).standard_normal((25, 3))
    gap = norm_many(euclidean_space(1), f.eval_many(X) - X @ L.T)
    assert np.all(gap <= 0.4 + 1e-15)
    assert np.any(gap > 0.0)
    exact = _linear_model(L, codomain=euclidean_space(1))
    assert np.array_equal(exact.eval_many(X), X @ L.T)


def test_model_shape_validation():
    with pytest.raises(ValueError):
        FunctionModel(domain=E3, codomain=E2, linear=np.zeros((3, 2)))
    with pytest.raises(ValueError):
        FunctionModel(domain=E3, codomain=E2, linear=np.zeros((2, 3)), quadratic=[1.0])


_SPACES = {
    "euclidean": (euclidean_space(3), euclidean_space(2)),
    "sup": (NormedSpaceSpec(3, "sup"), NormedSpaceSpec(2, "sup")),
    "p3": (NormedSpaceSpec(3, "p_norm", 3.0), NormedSpaceSpec(2, "p_norm", 1.5)),
    # a codomain of dim 1, and one of dim 3, whose Euclidean norm keeps einsum
    "euclidean-y1": (euclidean_space(3), euclidean_space(1)),
    "euclidean-y3": (euclidean_space(3), euclidean_space(3)),
}
_LINEAR = [[0.7, -1.3, 2.1], [1.1, 0.37, -0.6], [-0.4, 0.9, 1.7]]
_QUADRATIC = [0.3, -0.1, 0.2]
_PERTURBATIONS = (
    PerturbationSpec(kind=BOUNDED, amplitude=0.3, seed=4),
    PerturbationSpec(kind=POWER, delta=0.2, p=0.5, seed=9),
    PerturbationSpec(kind=DECAY, amplitude=0.7, seed=2**64 - 1),
)


def _split_models(space, codomain):
    f = FunctionModel(
        domain=space,
        codomain=codomain,
        linear=_LINEAR[: codomain.dim],
        quadratic=_QUADRATIC[: codomain.dim],
        perturbations=_PERTURBATIONS,
    )
    return {
        "f": f,
        "odd": OddPart(f),
        "even": EvenPart(f),
        "scaled": ScaledModel(f, arg_scale=2.0 / 3.0, out_scale=1.5),
    }


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    norm=st.sampled_from(sorted(_SPACES)),
    model=st.sampled_from(["f", "odd", "even", "scaled"]),
    n=st.integers(1, 40),
    cuts=st.lists(st.integers(0, 40), max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
def test_eval_many_ignores_batch_shape(norm, model, n, cuts, seed):
    """Any split of a batch evaluates to the rows of the whole batch, bit for bit.

    The blocked limit iteration and the [X; −X] stacking of OddPart/EvenPart
    both rely on this: a row's value may not depend on the rows next to it.
    """
    f = _split_models(*_SPACES[norm])[model]
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 3)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(n, 1))
    X[rng.random(n) < 0.1] = 0.0
    whole = f.eval_many(X)
    bounds = sorted({0, n, *(c for c in cuts if c < n)})
    parts = [f.eval_many(X[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
    assert np.array_equal(np.concatenate(parts), whole)
    singles = np.concatenate([f.eval_many(X[i : i + 1]) for i in range(n)])
    assert np.array_equal(singles, whole)


@pytest.mark.parametrize("norm", sorted(_SPACES))
@pytest.mark.parametrize("model", ["f", "odd", "even", "scaled"])
def test_eval_many_row_in_full_block_equals_small_batch(norm, model):
    """A row of a 4096-row batch (one full block of the limit iteration)
    equals the same row evaluated in a batch of one or two rows."""
    f = _split_models(*_SPACES[norm])[model]
    rng = np.random.default_rng(4096)
    X = rng.standard_normal((4096, 3)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(4096, 1))
    whole = f.eval_many(X)
    for i, j in [(0, 1), (1, 4095), (2047, 2048), (4095, 3000)]:
        assert np.array_equal(f.eval_many(X[[i, j]]), whole[[i, j]])
        assert np.array_equal(f.eval_many(X[i : i + 1]), whole[i : i + 1])
    assert np.array_equal(np.concatenate([f.eval_many(X[:1000]), f.eval_many(X[1000:])]), whole)


def _layouts(X):
    """X as a C-ordered copy, a Fortran-ordered copy, a transposed view and a
    row-strided view."""
    wide = np.zeros((2 * X.shape[0], X.shape[1] + 1))
    wide[::2, 1:] = X
    return [X.copy(), np.asfortranarray(X), np.ascontiguousarray(X.T).T, wide[::2, 1:]]


@settings(derandomize=True, max_examples=25, deadline=None)
@given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_values_ignore_batch_layout(n, seed):
    """A batch gets the same values whatever its memory layout: eval_many of
    every model kind in every norm, norm_many of dims 1-5, and the
    inner-product test on pairs at the edge of its tolerance.  numpy's einsum
    sums a row of three or more coordinates in another order when the batch is
    not C-ordered, so the entry points make it so."""
    rng = np.random.default_rng(seed)

    def batch(dim):
        X = rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(n, 1))
        X[rng.random(n) < 0.1] = 0.0
        return X

    X = batch(3)
    for spaces in _SPACES.values():
        for f in _split_models(*spaces).values():
            want = f.eval_many(X)
            for Z in _layouts(X):
                assert np.array_equal(f.eval_many(Z), want)
    for dim in range(1, 6):
        Z0 = batch(dim)
        for space in (euclidean_space(dim), NormedSpaceSpec(dim, "sup"),
                      NormedSpaceSpec(dim, "p_norm", 3.0)):
            want = norm_many(space, Z0)
            for Z in _layouts(Z0):
                assert np.array_equal(norm_many(space, Z), want)
    # partners are orthogonal to within about 1e-16, where the verdict
    # hangs on the last bit of <x, y>
    rel = OrthogonalityRelation(kind="inner_product", tolerance=1e-16)
    Y = orthogonal_partners(rel, E3, X, batch(3))
    want = is_orthogonal_many(rel, E3, X, Y)
    for A, B in zip(_layouts(X), _layouts(Y)):
        assert np.array_equal(is_orthogonal_many(rel, E3, A, B), want)


@pytest.mark.parametrize("n", [0, 1, 7])
@pytest.mark.parametrize("norm", sorted(_SPACES))
def test_outputs_are_c_ordered_rows(norm, n):
    """perturbation_values and every eval_many return a C-ordered float64
    (n, codim) array: callers read the row count from shape[0]."""
    space, codomain = _SPACES[norm]
    X = np.random.default_rng(n).standard_normal((n, 3))
    models = dict(_split_models(space, codomain))
    f = models["f"]
    models["two_candidates"] = FunctionModel(
        domain=space, codomain=codomain, linear=np.stack([f.linear, -f.linear]),
        perturbations=(PerturbationSpec(kind=BOUNDED, amplitude=0.3, seed=(4, 5)),),
    )
    outputs = [m.eval_many(X, np.arange(n) % 2) for m in models.values()]
    outputs += [perturbation_values(specs, X, space, codomain)
                for specs in ((), _PERTURBATIONS[0], _PERTURBATIONS)]
    for Y in outputs:
        assert Y.shape == (n, codomain.dim) and Y.dtype == np.float64
        assert Y.flags.c_contiguous
