import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jensenlab import series
from jensenlab.control import (
    ControlError,
    ControlFunctionSpec,
    RadialControlTable,
    control_phi_norms,
)
from jensenlab.models import (
    BOUNDED,
    POWER,
    FunctionModel,
    JensenParams,
    PerturbationSpec,
)
from jensenlab.series import (
    TRIADIC_N_MAX,
    cor22_bound_norms,
    dyadic_limit_many,
    pexider_triadic_limit_many,
    phi_tilde_dyadic_norms,
    phi_tilde_triadic_norms,
    power_limit_many,
    quadratic_limit_many,
)
from jensenlab.spaces import euclidean_space, norm_many
from series_reference import psi

E3 = euclidean_space(3)
E2 = euclidean_space(2)
UNIT_X = np.array([1.0, 0.0, 0.0])
UNIT_Y = np.array([0.0, 1.0, 0.0])


def _n(x):
    """‖x‖ in E3 as a one-entry array, through norm_many."""
    return norm_many(E3, np.asarray(x)[None, :])


def _dyadic(spec, params, x, y):
    return phi_tilde_dyadic_norms(spec, params, _n(x), _n(y))


def _triadic(spec, x, y):
    return phi_tilde_triadic_norms(spec, _n(x), _n(y))


def _brute_phi_tilde_dyadic(spec, params, nx, ny, terms=400):
    r, s, t = params.r, params.s, params.t
    total = 0.0
    for n in range(terms):
        ax = np.array([2.0**n * (r / s) * nx])
        ay = np.array([2.0**n * (r / t) * ny])
        zero = np.array([0.0])
        total += 2.0**-n * float(
            control_phi_norms(spec, ax, ay)[0]
            + control_phi_norms(spec, ax, zero)[0]
            + control_phi_norms(spec, zero, ay)[0]
        )
    return total / (2.0 * r)


# kind -> (norm-array form, r), at JensenParams(2, 1, 1)
TABLE_SERIES = {
    "dyadic": (
        lambda spec, nx, ny: phi_tilde_dyadic_norms(spec, JensenParams(2, 1, 1), nx, ny),
        2.0,
    ),
    "triadic": (phi_tilde_triadic_norms, 1.0),
}


class TestClosedForms:
    def test_dyadic_constant(self):
        spec = ControlFunctionSpec(kind="constant", epsilon=1.0)
        sv = _dyadic(spec, JensenParams(2, 1, 1), UNIT_X, UNIT_Y)
        assert sv.exact
        assert sv.tail_bound.tolist() == [0.0]
        assert sv.value[0] == pytest.approx(1.5, rel=1e-14)
        # 3 eps / r regardless of the argument
        sv2 = _dyadic(spec, JensenParams(5, 2, 3), 7.0 * UNIT_X, 0.1 * UNIT_Y)
        assert sv2.value[0] == pytest.approx(3.0 / 5.0, rel=1e-14)

    def test_dyadic_mixed_reference_value(self):
        spec = ControlFunctionSpec(kind="mixed", epsilon=1.0, delta=1.0, p=0.5)
        (value,) = _dyadic(spec, JensenParams(1, 1, 1), UNIT_X, UNIT_Y).value
        assert value == pytest.approx(3.0 + 2.0 / (1.0 - 2.0**-0.5), rel=1e-12)
        assert value == pytest.approx(9.828427124746192, rel=1e-12)

    def test_dyadic_matches_partial_sums(self):
        spec = ControlFunctionSpec(kind="mixed", epsilon=0.3, delta=0.7, p=0.75)
        params = JensenParams(2, 3, 1)
        sv = _dyadic(spec, params, 1.3 * UNIT_X, 0.4 * UNIT_Y)
        assert sv.value[0] == pytest.approx(
            _brute_phi_tilde_dyadic(spec, params, 1.3, 0.4), rel=1e-12
        )

    def test_cor22_reference_value(self):
        (val,) = cor22_bound_norms(JensenParams(1, 1, 1), 1.0, 1.0, 0.5, _n(UNIT_X))
        assert val == pytest.approx(3.0 + 4.0 / (1.0 - 2.0**-0.5), rel=1e-12)
        assert val == pytest.approx(16.656854249492383, rel=1e-12)

    def test_cor22_dominates_phi_tilde(self):
        params = JensenParams(3, 2, 1)
        spec = ControlFunctionSpec(kind="mixed", epsilon=0.2, delta=0.5, p=0.25)
        for radius in (0.3, 1.0, 4.7):
            x = radius * UNIT_X
            tilde = _dyadic(spec, params, x, x)
            bound = cor22_bound_norms(params, 0.2, 0.5, 0.25, _n(x))
            assert bound[0] >= tilde.value[0] * (1.0 - 1e-12)

    def test_psi_values(self):
        const = ControlFunctionSpec(kind="constant", epsilon=0.6)
        assert psi(const, E3, 3.3 * UNIT_X) == pytest.approx(1.2, rel=1e-12)
        mixed = ControlFunctionSpec(kind="mixed", epsilon=1.0, delta=1.0, p=0.5)
        expect = 2.0 + 2.0 * (np.sqrt(1.5) + np.sqrt(0.5))
        assert psi(mixed, E3, UNIT_X) == pytest.approx(expect, rel=1e-12)
        assert psi(mixed, E3, UNIT_X) == pytest.approx(5.863703305156273, rel=1e-12)

    def test_triadic_constant(self):
        spec = ControlFunctionSpec(kind="constant", epsilon=0.9)
        sv = _triadic(spec, UNIT_X, 2.0 * UNIT_Y)
        assert sv.exact
        assert sv.value[0] == pytest.approx(2.7, rel=1e-14)

    def test_triadic_mixed_closed_form(self):
        eps, delta, p = 0.2, 0.6, 0.25
        spec = ControlFunctionSpec(kind="mixed", epsilon=eps, delta=delta, p=p)
        nx, ny = 1.1, 0.7
        sv = _triadic(spec, nx * UNIT_X, ny * UNIT_Y)
        closed = 3.0 * eps + (2.0 / 3.0) * delta * 2.0**-p * (
            (2.0 * 3.0**p + 1.0) * nx**p + (3.0**p + 2.0) * ny**p
        ) / (1.0 - 3.0 ** (p - 1.0))
        assert sv.value[0] == pytest.approx(closed, rel=1e-12)

    def test_triadic_diagonal_is_psi_series(self):
        spec = ControlFunctionSpec(kind="mixed", epsilon=0.45, delta=0.2, p=0.5)
        x = np.array([0.9, 0.1, 0.0])
        sv = _triadic(spec, x, x)
        brute = sum(3.0**-k * psi(spec, E3, 3.0**k * x) for k in range(60))
        assert sv.value[0] == pytest.approx(brute, rel=1e-12)

    @pytest.mark.parametrize("kind", sorted(TABLE_SERIES))
    def test_table_control_series(self, kind):
        """A constant-valued table reproduces the constant closed form via its
        tail, and over a batch of norms each row equals a one-row call."""
        at_norms, r = TABLE_SERIES[kind]
        c = 0.5
        table = RadialControlTable(radii=[0.0, 100.0], values=[c, c], q=0.0)
        spec = ControlFunctionSpec(kind="table", table=table)
        sv = at_norms(spec, _n(UNIT_X), _n(UNIT_Y))
        assert not sv.exact
        assert sv.tail_bound[0] > 0.0
        assert sv.value[0] <= sv.upper[0]
        assert sv.upper[0] == pytest.approx(6.0 * c / r, rel=1e-12)

        table = RadialControlTable(radii=[0.0, 0.5, 2.0, 8.0], values=[0.2, 0.3, 0.5, 0.9], q=0.5)
        spec = ControlFunctionSpec(kind="table", table=table)
        rng = np.random.default_rng(7)
        nx = 10.0 ** rng.uniform(-3.0, 3.0, size=40)
        ny = 10.0 ** rng.uniform(-3.0, 3.0, size=40)
        nx[:5] = 0.0  # rows 3 and 4 have both norms zero: w(0) terms only
        ny[3:8] = 0.0
        batch = at_norms(spec, nx, ny)
        assert len(set(batch.terms_used.tolist())) > 1
        for i in range(nx.size):
            row = at_norms(spec, nx[i : i + 1], ny[i : i + 1])
            assert batch.value[i] == row.value[0]
            assert batch.tail_bound[i] == row.tail_bound[0]

    def test_control_validation(self):
        with pytest.raises(ControlError):
            ControlFunctionSpec(kind="mixed", epsilon=1.0, delta=1.0, p=1.0)
        with pytest.raises(ControlError):
            ControlFunctionSpec(kind="constant", epsilon=-0.1)
        with pytest.raises(ControlError):
            RadialControlTable(radii=[0.5, 1.0], values=[1.0, 1.0], q=0.0)


L23 = np.array([[1.0, -0.5, 2.0], [0.0, 1.0, 1.0]])


def _additive(perts=()):
    return FunctionModel(domain=E3, codomain=E2, linear=L23, perturbations=perts)


def _quadratic(c=(1.0, -0.5)):
    return FunctionModel(domain=E3, codomain=E2, linear=np.zeros((2, 3)), quadratic=c)


class TestLimits:
    def test_dyadic_recovers_linear_exactly(self):
        f = _additive()
        X = np.random.default_rng(0).uniform(-3.0, 3.0, size=(30, 3))
        values, iterations, gaps, converged = dyadic_limit_many(f, X)
        assert np.all(converged)
        err = norm_many(E2, values - X @ L23.T)
        assert np.max(err) <= 1e-10

    def test_dyadic_error_bound_under_bounded_noise(self):
        amp = 0.25
        f = _additive((PerturbationSpec(kind=BOUNDED, amplitude=amp, seed=3),))
        X = np.random.default_rng(1).uniform(-3.0, 3.0, size=(40, 3))
        values, iterations, gaps, converged = dyadic_limit_many(f, X, tol=1e-10)
        assert np.all(converged)
        err = norm_many(E2, values - X @ L23.T)
        # ‖2^-n f(2^n x) - Lx‖ = 2^-n ‖pert(2^n x)‖ <= amp·2^-n
        assert np.all(err <= amp * 2.0 ** (-iterations.astype(float)) * (1.0 + 1e-9) + 1e-15)

    def test_dyadic_diverges_on_quadratic(self):
        f = _quadratic()
        X = np.random.default_rng(2).uniform(0.5, 2.0, size=(10, 3))
        values, iterations, gaps, converged = dyadic_limit_many(f, X, n_max=30)
        assert not np.any(converged)
        assert np.all(np.isfinite(gaps))

    def test_quadratic_limit_recovers_quadratic(self):
        f = _quadratic((0.7, 0.2))
        X = np.random.default_rng(3).uniform(-2.0, 2.0, size=(25, 3))
        values, iterations, gaps, converged = quadratic_limit_many(f, X)
        assert np.all(converged)
        u = norm_many(E3, X) ** 2
        assert np.allclose(values, u[:, None] * np.array([0.7, 0.2]), rtol=1e-10, atol=1e-12)

    def test_quadratic_limit_kills_linear_part(self):
        f = _additive()
        X = np.random.default_rng(4).uniform(-2.0, 2.0, size=(15, 3))
        values, _, _, converged = quadratic_limit_many(f, X, tol=1e-9)
        assert np.all(converged)
        assert np.max(norm_many(E2, values)) <= 1e-8

    def test_triadic_recovers_linear(self):
        f = _additive()
        X = np.random.default_rng(5).uniform(-3.0, 3.0, size=(20, 3))
        values, _, _, converged = power_limit_many(f, X, 3.0, 1.0 / 3.0, n_max=TRIADIC_N_MAX)
        assert np.all(converged)
        assert np.max(norm_many(E2, values - X @ L23.T)) <= 1e-10

    def test_pexider_limit_recovers_linear(self):
        f = _additive((PerturbationSpec(kind=BOUNDED, amplitude=0.1, seed=8),))
        params = JensenParams(3, 2, 2)
        X = np.random.default_rng(6).uniform(-2.0, 2.0, size=(20, 3))
        values, _, _, converged = pexider_triadic_limit_many(f, params, X, n_max=40)
        assert np.all(converged)
        assert np.max(norm_many(E2, values - X @ L23.T)) <= 1e-8

    @pytest.mark.parametrize(
        "base,factor", [(2.0, 1.5), (3.0, 4.0 / 3.0), (4.0, 5.0 / 4.0)]
    )
    def test_successive_gap_bounds(self, base, factor):
        """With amplitude-a noise the step-n gap is at most factor·a·base^-n."""
        amp = 0.5
        f = _additive((PerturbationSpec(kind=BOUNDED, amplitude=amp, seed=11),))
        x = np.array([1.2, -0.3, 0.8])
        for n in range(0, 12, 3):
            _, _, last_gap, _ = power_limit_many(
                f, x[None], base, 1.0 / base, n_max=n + 1, tol=0.0, n_start=[n]
            )
            gap = last_gap[0]
            assert gap <= factor * amp * base ** (-n) * (1.0 + 1e-12) + 1e-15


class _BlowUp:
    """f, but infinite (or NaN) wherever ‖x‖_sup exceeds a radius."""

    def __init__(self, base, radius, fill):
        self.base, self.radius, self.fill = base, radius, fill
        self.domain, self.codomain = base.domain, base.codomain

    def eval_many(self, X):
        Y = self.base.eval_many(X)
        Y[np.max(np.abs(X), axis=1) > self.radius] = self.fill
        return Y


def _limit_models():
    L = np.array([[0.7, -1.3, 2.1], [1.1, 0.37, -0.6]])
    perts = (
        PerturbationSpec(kind=BOUNDED, amplitude=0.2, seed=4),
        PerturbationSpec(kind=POWER, delta=0.1, p=0.5, seed=5),
    )
    noisy = FunctionModel(domain=E3, codomain=E2, linear=L, perturbations=perts)
    quad = FunctionModel(domain=E3, codomain=E2, linear=L, quadratic=[0.3, -0.1], perturbations=perts)
    return {
        "linear": FunctionModel(domain=E3, codomain=E2, linear=L),
        "noisy": noisy,
        "quadratic": quad,
        "inf": _BlowUp(noisy, 1e6, np.inf),
        "nan": _BlowUp(quad, 1e9, np.nan),
    }


LIMIT_MODELS = _limit_models()


def _limit_one_at_a_time(f, x, arg, gain, n_max, tol, n0):
    """One point, one exponent per step: the stop rules in their order."""
    arg, gain = np.float64(arg), np.float64(gain)

    def value(n):
        e = np.array([float(n)])
        return (gain**e)[:, None] * f.eval_many((arg**e)[:, None] * x[None])

    scale = np.max(np.abs(x))
    a, n, gap, converged = value(n0), n0, np.inf, False
    while n + 1 <= n_max:
        e = np.array([float(n + 1)])
        if np.any(scale * np.abs(arg) ** e > 1e120) or np.any(np.abs(gain) ** e > 1e120):
            break
        new = value(n + 1)
        with np.errstate(invalid="ignore"):
            gap = norm_many(f.codomain, new - a)[0]
        a, n = new, n + 1
        finite = bool(np.all(np.isfinite(new)))
        if gap <= tol:
            converged = finite
            break
        if not finite:
            break
    return a[0], n, gap, converged


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    model=st.sampled_from(sorted(LIMIT_MODELS)),
    kind=st.sampled_from([(2.0, 0.5), (2.0, 0.25), (3.0, 1.0 / 3.0)]),
    n_max=st.integers(0, 45),
    tol=st.sampled_from([0.0, 1e-12, 1e-9, 1e-4]),
    budget=st.sampled_from([1, 5, 40, 4096]),
    rows=st.integers(1, 10),
    starts=st.one_of(st.none(), st.lists(st.integers(0, 47), min_size=10, max_size=10)),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocked_limit_equals_one_exponent_iteration(
    model, kind, n_max, tol, budget, rows, starts, seed
):
    """Blocked power_limit_many equals a per-point, one-exponent-at-a-time loop.

    The budget sets the block size K = budget // active rows (1 at budget 1);
    row scales up to 1e118 trip the overflow guard, the "inf"/"nan" models
    turn non-finite, and n_max and n_start cut the iteration short.
    """
    f = LIMIT_MODELS[model]
    arg, gain = kind
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((rows, 3)) * 10.0 ** rng.uniform(-2.0, 118.0, size=(rows, 1))
    X[rng.random(rows) < 0.5] /= 1e110
    n0 = np.zeros(rows, dtype=np.int64) if starts is None else np.array(starts[:rows])
    with mock.patch.object(series, "_BLOCK_ROWS", budget):
        got = power_limit_many(
            f, X, arg, gain, n_max, tol, n_start=None if starts is None else n0
        )
    ref = [_limit_one_at_a_time(f, X[i], arg, gain, n_max, tol, int(n0[i])) for i in range(rows)]
    want = [np.array(column) for column in zip(*ref)]
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w, equal_nan=True)


@pytest.mark.parametrize("kind", [(2.0, 0.5), (2.0, 0.25), (3.0, 1.0 / 3.0)])
def test_long_block_guard_raises_no_overflow_warning(kind):
    """At n_max = 2000 one point's block reaches exponents where base^n is
    inf; the overflow guard must stop it quietly and as the one-exponent loop.
    """
    f = LIMIT_MODELS["noisy"]
    arg, gain = kind
    x = np.array([0.3, -1.2, 0.8])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = power_limit_many(f, x[None], arg, gain, 2000, 0.0)
    want = _limit_one_at_a_time(f, x, arg, gain, 2000, 0.0, 0)
    for g, w in zip(got, want):
        assert np.array_equal(g[0], w)
