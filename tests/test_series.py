import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jensenlab import series
from jensenlab.control import (
    ControlFunctionSpec,
    RadialControlTable,
    control_phi_norms,
)
from jensenlab.models import (
    BOUNDED,
    DECAY,
    POWER,
    EvenPart,
    FunctionModel,
    JensenParams,
    OddPart,
    PerturbationSpec,
    ScaledModel,
)
from jensenlab.series import (
    DEFAULT_TOL,
    cor22_bound_norms,
    phi_tilde_dyadic_norms,
    phi_tilde_triadic_norms,
    power_limit_many,
)
from jensenlab.spaces import ConfigError, NormedSpaceSpec, euclidean_space, norm_many
from series_reference import certified_steps_reference, limit_one_at_a_time, psi

E3 = euclidean_space(3)
E2 = euclidean_space(2)
E1 = euclidean_space(1)
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
        assert _dyadic(spec, JensenParams(2, 1, 1), UNIT_X, UNIT_Y).tolist() == [1.5]
        # 3 eps / r regardless of the argument
        sv2 = _dyadic(spec, JensenParams(5, 2, 3), 7.0 * UNIT_X, 0.1 * UNIT_Y)
        assert sv2[0] == pytest.approx(3.0 / 5.0, rel=1e-14)

    def test_dyadic_mixed_reference_value(self):
        spec = ControlFunctionSpec(kind="mixed", epsilon=1.0, delta=1.0, p=0.5)
        (value,) = _dyadic(spec, JensenParams(1, 1, 1), UNIT_X, UNIT_Y)
        assert value == pytest.approx(3.0 + 2.0 / (1.0 - 2.0**-0.5), rel=1e-12)
        assert value == pytest.approx(9.828427124746192, rel=1e-12)

    def test_dyadic_matches_partial_sums(self):
        spec = ControlFunctionSpec(kind="mixed", epsilon=0.3, delta=0.7, p=0.75)
        params = JensenParams(2, 3, 1)
        sv = _dyadic(spec, params, 1.3 * UNIT_X, 0.4 * UNIT_Y)
        assert sv[0] == pytest.approx(
            _brute_phi_tilde_dyadic(spec, params, 1.3, 0.4), rel=1e-12
        )

    def test_cor22_reference_value(self):
        spec = ControlFunctionSpec(kind="mixed", epsilon=1.0, delta=1.0, p=0.5)
        (val,) = cor22_bound_norms(JensenParams(1, 1, 1), spec, _n(UNIT_X))
        assert val == pytest.approx(3.0 + 4.0 / (1.0 - 2.0**-0.5), rel=1e-12)
        assert val == pytest.approx(16.656854249492383, rel=1e-12)

    def test_cor22_dominates_phi_tilde(self):
        params = JensenParams(3, 2, 1)
        spec = ControlFunctionSpec(kind="mixed", epsilon=0.2, delta=0.5, p=0.25)
        for radius in (0.3, 1.0, 4.7):
            x = radius * UNIT_X
            tilde = _dyadic(spec, params, x, x)
            bound = cor22_bound_norms(params, spec, _n(x))
            assert bound[0] >= tilde[0] * (1.0 - 1e-12)

    def test_psi_values(self):
        const = ControlFunctionSpec(kind="constant", epsilon=0.6)
        assert psi(const, E3, 3.3 * UNIT_X) == pytest.approx(1.2, rel=1e-12)
        mixed = ControlFunctionSpec(kind="mixed", epsilon=1.0, delta=1.0, p=0.5)
        expect = 2.0 + 2.0 * (np.sqrt(1.5) + np.sqrt(0.5))
        assert psi(mixed, E3, UNIT_X) == pytest.approx(expect, rel=1e-12)
        assert psi(mixed, E3, UNIT_X) == pytest.approx(5.863703305156273, rel=1e-12)

    def test_triadic_constant(self):
        spec = ControlFunctionSpec(kind="constant", epsilon=0.9)
        assert _triadic(spec, UNIT_X, 2.0 * UNIT_Y)[0] == pytest.approx(2.7, rel=1e-14)

    def test_triadic_mixed_closed_form(self):
        eps, delta, p = 0.2, 0.6, 0.25
        spec = ControlFunctionSpec(kind="mixed", epsilon=eps, delta=delta, p=p)
        nx, ny = 1.1, 0.7
        sv = _triadic(spec, nx * UNIT_X, ny * UNIT_Y)
        closed = 3.0 * eps + (2.0 / 3.0) * delta * 2.0**-p * (
            (2.0 * 3.0**p + 1.0) * nx**p + (3.0**p + 2.0) * ny**p
        ) / (1.0 - 3.0 ** (p - 1.0))
        assert sv[0] == pytest.approx(closed, rel=1e-12)

    def test_triadic_diagonal_is_psi_series(self):
        spec = ControlFunctionSpec(kind="mixed", epsilon=0.45, delta=0.2, p=0.5)
        x = np.array([0.9, 0.1, 0.0])
        sv = _triadic(spec, x, x)
        brute = sum(3.0**-k * psi(spec, E3, 3.0**k * x) for k in range(60))
        assert sv[0] == pytest.approx(brute, rel=1e-12)

    @pytest.mark.parametrize("kind", sorted(TABLE_SERIES))
    def test_table_control_series(self, kind):
        """A constant-valued table reproduces the constant closed form via its
        tail, and over a batch of norms each row equals a one-row call."""
        at_norms, r = TABLE_SERIES[kind]
        c = 0.5
        table = RadialControlTable(radii=[0.0, 100.0], values=[c, c], q=0.0)
        spec = ControlFunctionSpec(kind="table", table=table)
        assert at_norms(spec, _n(UNIT_X), _n(UNIT_Y))[0] == pytest.approx(6.0 * c / r, rel=1e-12)

        table = RadialControlTable(radii=[0.0, 0.5, 2.0, 8.0], values=[0.2, 0.3, 0.5, 0.9], q=0.5)
        spec = ControlFunctionSpec(kind="table", table=table)
        rng = np.random.default_rng(7)  # norms over six decades: rows stop at different depths
        nx = 10.0 ** rng.uniform(-3.0, 3.0, size=40)
        ny = 10.0 ** rng.uniform(-3.0, 3.0, size=40)
        nx[:5] = 0.0  # rows 3 and 4 have both norms zero: w(0) terms only
        ny[3:8] = 0.0
        batch = at_norms(spec, nx, ny)
        for i in range(nx.size):
            assert batch[i] == at_norms(spec, nx[i : i + 1], ny[i : i + 1])[0]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_table_series_refuses_subnormal_scales(self):
        """At argument norms so small that rmax/‖x‖ or base^n_stop leaves the
        float range, both table series raise the hard-cap ConfigError, with no
        overflow warning; a little above, they still return their value."""
        table = RadialControlTable(radii=[0.0, 1.0, 8.0], values=[0.3, 0.4, 0.8], q=0.5)
        spec = ControlFunctionSpec(kind="table", epsilon=0.1, table=table)
        dyadic = lambda v: phi_tilde_dyadic_norms(spec, JensenParams(2, 1, 1), [v], [v])
        triadic = lambda v: phi_tilde_triadic_norms(spec, [v], [v])
        assert dyadic(1e-305)[0] == pytest.approx(1.05, rel=1e-12)
        assert triadic(1e-305)[0] == pytest.approx(2.1, rel=1e-12)
        # 3^647 and 2^1024 overflow; rmax over the smallest scaled arg is inf
        for series_at, v in [(triadic, 1.6e-307), (dyadic, 5e-308),
                             (triadic, 5e-308), (dyadic, 1e-310)]:
            with pytest.raises(ConfigError, match="hard cap"):
                series_at(v)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_table_series_quiet_past_a_row_stop(self):
        """With a last knot at 1e307 a row stops near n = 1020, and args·scale
        overflows only in rows already past their own stop, whose terms are
        dropped: no warning escapes, and the bounds stay 3ε/r + 0.9/r and
        3ε + 1.8 for a flat w = 0.3."""
        table = RadialControlTable(radii=[0.0, 1e307], values=[0.3, 0.3], q=0.0)
        spec = ControlFunctionSpec(kind="table", epsilon=0.1, table=table)
        nx = np.linspace(0.5, 6.0, 12)
        assert phi_tilde_dyadic_norms(spec, JensenParams(2, 1, 1), nx, nx) == pytest.approx(
            1.05, rel=1e-12)
        assert phi_tilde_triadic_norms(spec, nx, nx) == pytest.approx(2.1, rel=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_table_with_a_decaying_tail_is_quiet_at_zero(self):
        """q < 0: the tail at ρ = 0 is 0^q = inf, in a row inside the last knot
        that reads no tail; no warning escapes, and the rows past it decay."""
        table = RadialControlTable(radii=[0.0, 1.0], values=[0.3, 0.5], q=-1.0)
        assert table.eval_many(np.array([0.0, 0.5, 4.0])).tolist() == [0.3, 0.4, 0.125]

    def test_series_on_an_empty_batch(self):
        """No rows in, no rows out, for a table control as for the others."""
        table = RadialControlTable(radii=[0.0, 1.0, 8.0], values=[0.3, 0.4, 0.8], q=0.5)
        for spec in (ControlFunctionSpec(kind="table", table=table),
                     ControlFunctionSpec(kind="mixed", epsilon=0.1, delta=0.2, p=0.5)):
            for out in (phi_tilde_dyadic_norms(spec, JensenParams(1, 1, 1), [], []),
                        phi_tilde_triadic_norms(spec, [], [])):
                assert out.shape == (0,)

    def test_control_validation(self):
        with pytest.raises(ConfigError):
            ControlFunctionSpec(kind="mixed", epsilon=1.0, delta=1.0, p=1.0)
        with pytest.raises(ConfigError):
            ControlFunctionSpec(kind="constant", epsilon=-0.1)
        with pytest.raises(ConfigError):
            RadialControlTable(radii=[0.5, 1.0], values=[1.0, 1.0], q=0.0)
        # a key the kind does not read is refused, and the message opens with it
        table = RadialControlTable(radii=[0.0, 1.0], values=[1.0, 1.0], q=0.0)
        for kind, key, value in [("constant", "delta", 0.5), ("table", "p", 0.5),
                                 ("constant", "table", table), ("mixed", "table", table)]:
            extra = {"table": table} if kind == "table" else {}
            with pytest.raises(ConfigError, match=f"^{key} "):
                ControlFunctionSpec(kind=kind, **extra, **{key: value})
        with pytest.raises(ConfigError):
            cor22_bound_norms(JensenParams(1, 1, 1), ControlFunctionSpec(kind="table", table=table),
                              _n(UNIT_X))


_TABLE = RadialControlTable(radii=[0.0, 0.5, 2.0, 8.0], values=[0.2, 0.3, 0.5, 0.9], q=0.5)
_NORMS = st.lists(st.just(0.0) | st.floats(1e-3, 1e3), min_size=1, max_size=6)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(["constant", "mixed", "table"]),
    eps=st.floats(0.0, 1e3),
    delta=st.floats(0.0, 10.0),
    p=st.floats(0.0, 0.99),
    rst=st.tuples(*[st.integers(1, 5)] * 3),
    norms=st.tuples(_NORMS, _NORMS),
)
def test_effective_control_is_epsilon_plus_its_part(kind, eps, delta, p, rst, norms):
    """φ = ε + (part) for every kind: each series and φ itself at ε equal their
    value at ε = 0 plus the constant's share, bit for bit."""
    extra = {"mixed": {"delta": delta, "p": p}, "table": {"table": _TABLE}}.get(kind, {})
    at_0 = ControlFunctionSpec(kind=kind, **extra)
    at_eps = ControlFunctionSpec(kind=kind, epsilon=eps, **extra)
    params = JensenParams(*rst)
    n = min(map(len, norms))
    nx, ny = (np.array(v[:n]) for v in norms)
    pairs = [
        (phi_tilde_dyadic_norms(at_eps, params, nx, ny),
         3.0 * eps / params.r + phi_tilde_dyadic_norms(at_0, params, nx, ny)),
        (phi_tilde_triadic_norms(at_eps, nx, ny), 3.0 * eps + phi_tilde_triadic_norms(at_0, nx, ny)),
        (control_phi_norms(at_eps, nx, ny), eps + control_phi_norms(at_0, nx, ny)),
    ]
    for got, want in pairs:
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


L23 = np.array([[1.0, -0.5, 2.0], [0.0, 1.0, 1.0]])


def _additive(perts=()):
    return FunctionModel(domain=E3, codomain=E2, linear=L23, perturbations=perts)


def _quadratic(c=(1.0, -0.5)):
    return FunctionModel(domain=E3, codomain=E2, linear=np.zeros((2, 3)), quadratic=c)


class TestLimits:
    def test_dyadic_recovers_linear_exactly(self):
        f = _additive()
        X = np.random.default_rng(0).uniform(-3.0, 3.0, size=(30, 3))
        values, iterations, gaps, converged = power_limit_many(f, X, 2.0, 0.5, 40)
        assert np.all(converged)
        err = norm_many(E2, values - X @ L23.T)
        assert np.max(err) <= 1e-10

    def test_dyadic_error_bound_under_bounded_noise(self):
        amp = 0.25
        f = _additive((PerturbationSpec(kind=BOUNDED, amplitude=amp, seed=3),))
        X = np.random.default_rng(1).uniform(-3.0, 3.0, size=(40, 3))
        values, iterations, gaps, converged = power_limit_many(f, X, 2.0, 0.5, 40, tol=1e-10)
        assert np.all(converged)
        err = norm_many(E2, values - X @ L23.T)
        # ‖2^-n f(2^n x) - Lx‖ = 2^-n ‖pert(2^n x)‖ <= amp·2^-n
        assert np.all(err <= amp * 2.0 ** (-iterations.astype(float)) * (1.0 + 1e-9) + 1e-15)

    def test_dyadic_diverges_on_quadratic(self):
        f = _quadratic()
        X = np.random.default_rng(2).uniform(0.5, 2.0, size=(10, 3))
        values, iterations, gaps, converged = power_limit_many(f, X, 2.0, 0.5, 30)
        assert not np.any(converged)
        assert np.all(np.isfinite(gaps))

    def test_quadratic_limit_recovers_quadratic(self):
        f = _quadratic((0.7, 0.2))
        X = np.random.default_rng(3).uniform(-2.0, 2.0, size=(25, 3))
        values, iterations, gaps, converged = power_limit_many(f, X, 2.0, 0.25, 40)
        assert np.all(converged)
        u = norm_many(E3, X) ** 2
        assert np.allclose(values, u[:, None] * np.array([0.7, 0.2]), rtol=1e-10, atol=1e-12)

    def test_quadratic_limit_kills_linear_part(self):
        f = _additive()
        X = np.random.default_rng(4).uniform(-2.0, 2.0, size=(15, 3))
        values, _, _, converged = power_limit_many(f, X, 2.0, 0.25, 40, tol=1e-9)
        assert np.all(converged)
        assert np.max(norm_many(E2, values)) <= 1e-8

    def test_triadic_recovers_linear(self):
        f = _additive()
        X = np.random.default_rng(5).uniform(-3.0, 3.0, size=(20, 3))
        values, _, _, converged = power_limit_many(f, X, 3.0, 1.0 / 3.0, 25)
        assert np.all(converged)
        assert np.max(norm_many(E2, values - X @ L23.T)) <= 1e-10

    def test_pexider_limit_recovers_linear(self):
        f = _additive((PerturbationSpec(kind=BOUNDED, amplitude=0.1, seed=8),))
        params = JensenParams(3, 2, 2)
        X = np.random.default_rng(6).uniform(-2.0, 2.0, size=(20, 3))
        reduced = ScaledModel(f, params.s / params.r, params.r / params.s)
        values, _, _, converged = power_limit_many(reduced, X, 3.0, 1.0 / 3.0, 40)
        assert np.all(converged)
        assert np.max(norm_many(E2, values - X @ L23.T)) <= 1e-8

    @pytest.mark.parametrize("arg, gain, name", [
        (2.0, 0.0, "gain"), (0.0, 0.5, "arg_factor"), (2.0, np.inf, "gain"),
        (np.nan, 0.5, "arg_factor"), (-np.inf, 0.5, "arg_factor"),
    ])
    def test_zero_or_non_finite_factor_refused(self, arg, gain, name):
        # a zero base to a negative n_start used to divide by zero in the start row
        X = np.random.default_rng(7).uniform(-1.0, 1.0, size=(3, 3))
        with pytest.raises(ValueError, match=name):
            power_limit_many(_additive(), X, arg, gain, 5, n_start=[-2, 0, 1])

    def test_n_max_past_2_62_refused(self):
        """n_max + 1 must not wrap in int64: up to 2**62 the limit runs as under
        any cap it never reaches; past it, as an int or a uint64 array, it is
        refused naming n_max, where 2**63 once wrapped to a zero-step FAIL."""
        f = _additive((PerturbationSpec(kind=BOUNDED, amplitude=0.1, seed=8),))
        X = np.random.default_rng(8).uniform(-2.0, 2.0, size=(6, 3))
        far, capped = (power_limit_many(f, X, 2.0, 0.5, n) for n in (2**62, 600))
        assert all(np.array_equal(a, b) for a, b in zip(far, capped)) and np.all(far[3])
        for n_max in (2**62 + 1, 2**63 - 1, np.full(6, 2**63, dtype=np.uint64)):
            with pytest.raises(ValueError, match="^n_max must be at most 2[*][*]62"):
                power_limit_many(f, X, 2.0, 0.5, n_max)

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
    P3 = NormedSpaceSpec(3, "p_norm", 3.0)
    y3 = FunctionModel(domain=E3, codomain=E3, linear=np.vstack([L, [-0.4, 0.9, 1.7]]),
                       quadratic=[0.3, -0.1, 0.2], perturbations=perts)
    # Two bounded terms in one dimension: under the dyadic kind their changes
    # cancel exactly (3·0.1 = 0.3) wherever the hash signs fall right, so a
    # certificate that ignored the other term's change would skip a stop.
    bounded = (PerturbationSpec(kind=BOUNDED, amplitude=0.3, seed=6),
               PerturbationSpec(kind=BOUNDED, amplitude=0.1, seed=7))
    decay = (PerturbationSpec(kind=DECAY, amplitude=0.5, seed=8), perts[1])
    return {
        "linear": FunctionModel(domain=E3, codomain=E2, linear=L),
        "noisy": noisy,
        "bounded": FunctionModel(domain=E3, codomain=E2, linear=L, perturbations=perts[:1]),
        "bounded-y1": FunctionModel(domain=E3, codomain=E1, linear=L[:1], perturbations=bounded),
        "decay": FunctionModel(domain=E3, codomain=E2, linear=L, perturbations=decay),
        "decay-only": FunctionModel(domain=E3, codomain=E2, linear=L, perturbations=decay[:1]),
        # the pexider reduction: f(x) = 1.5·noisy((2/3)·x), and of quadratic models
        # with arg_scale above and below 1 (the quadratic's norm carries it squared)
        "pexider": ScaledModel(noisy, arg_scale=2.0 / 3.0, out_scale=1.5),
        "pexider-quadratic": ScaledModel(quad, arg_scale=2.0, out_scale=0.5),
        "pexider-quadratic-exact": ScaledModel(
            FunctionModel(domain=E3, codomain=E2, linear=L, quadratic=[0.3, -0.1]),
            arg_scale=2.0 / 3.0, out_scale=1.5),
        "quadratic-yp3": FunctionModel(domain=E3, codomain=P3, linear=y3.linear,
                                       quadratic=[0.3, -0.1, 0.2], perturbations=perts),
        "quadratic": quad,
        # codomains whose gap norms take the einsum and the sup-norm paths
        "quadratic-y3": y3,
        "noisy-ysup": FunctionModel(domain=E3, codomain=NormedSpaceSpec(2, "sup"), linear=L,
                                    perturbations=perts),
        "inf": _BlowUp(noisy, 1e6, np.inf),
        "nan": _BlowUp(quad, 1e9, np.nan),
    }


LIMIT_MODELS = _limit_models()


@settings(derandomize=True, max_examples=250, deadline=None)
@given(
    model=st.sampled_from(sorted(LIMIT_MODELS)),
    kind=st.sampled_from([(2.0, 0.5), (2.0, 0.25), (3.0, 1.0 / 3.0), (0.5, 2.0)]),
    n_max=st.integers(0, 45),
    tol=st.sampled_from([0.0, 1e-12, 1e-9, 1e-4]),
    budget=st.sampled_from([1, 5, 40, 4096]),
    rows=st.integers(1, 10),
    starts=st.one_of(st.none(), st.lists(st.integers(-60, 47), min_size=10, max_size=10)),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocked_limit_equals_one_exponent_iteration(
    model, kind, n_max, tol, budget, rows, starts, seed
):
    """Blocked power_limit_many equals a per-point, one-exponent-at-a-time loop.

    The budget sets the block size K = budget // active rows (1 at budget 1);
    row scales up to 1e118 trip the overflow guard, the "inf"/"nan" models
    turn non-finite, and n_max and n_start cut the iteration short.  The
    models of FunctionModel and ScaledModel skip their certified steps, with
    every kind of part leading or competing; the contraction (arg ½, gain 2)
    makes bounded terms grow.
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
    ref = [limit_one_at_a_time(f, X[i], arg, gain, n_max, tol, int(n0[i])) for i in range(rows)]
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
    want = limit_one_at_a_time(f, x, arg, gain, 2000, 0.0, 0)
    for g, w in zip(got, want):
        assert np.array_equal(g[0], w)


def _three_candidates():
    L = np.array([[0.7, -1.3, 2.1], [1.1, 0.37, -0.6]])
    perts = (
        PerturbationSpec(kind=BOUNDED, amplitude=0.2, seed=(4, 6, 8)),
        PerturbationSpec(kind=POWER, delta=0.1, p=0.5, seed=(5, 7, 9)),
    )
    return FunctionModel(domain=E3, codomain=E2, linear=np.stack([L, -2.0 * L, 0.5 * L]),
                         quadratic=[0.3, -0.1], perturbations=perts)


THREE = _three_candidates()


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    kind=st.sampled_from([(2.0, 0.5), (2.0, 0.25), (3.0, 1.0 / 3.0), (0.5, 4.0), (0.5, 2.0)]),
    tol=st.sampled_from([0.0, 1e-12, 1e-9, 1e-4]),
    budget=st.sampled_from([1, 5, 40, 4096]),
    rows=st.integers(0, 10),
    caps=st.lists(st.integers(-3, 45), min_size=10, max_size=10),
    cands=st.lists(st.integers(0, 2), min_size=10, max_size=10),
    starts=st.one_of(st.none(), st.lists(st.integers(-60, 47), min_size=10, max_size=10)),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocked_limit_per_row_caps_and_candidates(
    kind, tol, budget, rows, caps, cands, starts, seed
):
    """The one-exponent oracle with one n_max per row (as a batch of configs
    passes them), a 3-candidate model checked row by row against
    ``candidate(i)``, and the empty batch; also negative starts and the
    contracting kind of the ball extension (arg 0.5, gain 4)."""
    arg, gain = kind
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((rows, 3)) * 10.0 ** rng.uniform(-2.0, 118.0, size=(rows, 1))
    X[rng.random(rows) < 0.5] /= 1e110
    n_max, cand = np.array(caps[:rows], dtype=np.int64), np.array(cands[:rows], dtype=np.int64)
    n0 = np.zeros(rows, dtype=np.int64) if starts is None else np.array(starts[:rows])
    with mock.patch.object(series, "_BLOCK_ROWS", budget):
        got = power_limit_many(
            THREE, X, arg, gain, n_max, tol, n_start=None if starts is None else n0, cand=cand
        )
    ref = [
        limit_one_at_a_time(THREE.candidate(cand[i]), X[i], arg, gain, n_max[i], tol, int(n0[i]))
        for i in range(rows)
    ]
    want = [np.array(column) for column in zip(*ref)] or [
        np.empty((0, 2)), np.empty(0, np.int64), np.empty(0), np.empty(0, bool)
    ]
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g, w, equal_nan=True)


def _spread_batch(rng, n_pts=4100, few=16):
    """n_pts points whose stops spread over many exponents: a bulk at scales
    1e-3..1e3 (stopping by gap, by a non-finite value or at n_max 60), `few`
    rows at 1e100..1e118 whose overflow guard trips at n = 7..66, and `few`
    rows with their own n_max in 0..60.  Returns X, n_max and those rows."""
    X = rng.standard_normal((n_pts, 3)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(n_pts, 1))
    special = rng.choice(n_pts, 2 * few, replace=False)
    X[special[:few]] *= 10.0 ** rng.uniform(100.0, 118.0, size=(few, 1)) / np.max(
        np.abs(X[special[:few]]), axis=1, keepdims=True
    )
    n_max = np.full(n_pts, 60, dtype=np.int64)
    n_max[special[few:]] = rng.integers(0, 61, size=few)
    return X, n_max, special


def _check_sampled_rows(got, rng, special, one_at_a_time, rows=64):
    """Rows `special` plus random others, `rows` in all, against the oracle."""
    others = np.setdiff1d(np.arange(got[1].size), special)
    sample = np.concatenate([special, rng.choice(others, rows - special.size, replace=False)])
    want = [np.array(column) for column in zip(*(one_at_a_time(i) for i in sample))]
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype
        assert np.array_equal(g[sample], w, equal_nan=True)


@pytest.mark.parametrize("model", ["noisy", "inf", "nan"])
def test_large_working_set_equals_one_exponent_iteration(model):
    """4100 points at the default block: K is 1 while more than 2048 points
    iterate, passes where no point stops (the bulk before it converges or
    turns non-finite) mix with passes that regroup the working set, and 64
    sampled rows equal the one-exponent loop bit for bit."""
    rng = np.random.default_rng(41)
    X, n_max, special = _spread_batch(rng)
    f = LIMIT_MODELS[model]
    got = power_limit_many(f, X, 2.0, 0.5, n_max, 1e-9)
    assert np.unique(got[1]).size > 25
    _check_sampled_rows(
        got, rng, special, lambda i: limit_one_at_a_time(f, X[i], 2.0, 0.5, n_max[i], 1e-9, 0)
    )


def test_large_working_set_with_starts_and_candidates():
    """As above for the quadratic limit of a 3-candidate model, with starts
    spread over -20..20, so the working set spans many exponents at once."""
    rng = np.random.default_rng(42)
    X, n_max, special = _spread_batch(rng)
    n0, cand = rng.integers(-20, 21, size=X.shape[0]), rng.integers(0, 3, size=X.shape[0])
    got = power_limit_many(THREE, X, 2.0, 0.25, n_max, 1e-9, n_start=n0, cand=cand)
    assert np.unique(got[1]).size > 25
    _check_sampled_rows(
        got,
        rng,
        special,
        lambda i: limit_one_at_a_time(
            THREE.candidate(cand[i]), X[i], 2.0, 0.25, n_max[i], 1e-9, int(n0[i])
        ),
    )


@pytest.mark.parametrize("kind", [(2.0, 0.5), (3.0, 1.0 / 3.0)])
def test_no_step_skipped_where_the_domain_norm_overflows(kind):
    """In a p = 3 domain ‖y‖ is inf once |y_i|^3 overflows, long before the
    overflow guard trips at 1e120, and the noise turns non-finite: rows at
    1e70..1e100 (no linear part, so their gaps stay large) stop there as the
    one-exponent loop stops them, and no run is certified across it."""
    P3 = NormedSpaceSpec(3, "p_norm", 3.0)
    f = FunctionModel(domain=P3, codomain=E2, linear=np.zeros((2, 3)),
                      perturbations=LIMIT_MODELS["noisy"].perturbations)
    rng = np.random.default_rng(44)
    X = rng.standard_normal((40, 3)) * 10.0 ** rng.uniform(70.0, 100.0, size=(40, 1))
    X[::4] /= 1e90
    arg, gain = kind
    got = power_limit_many(f, X, arg, gain, 200, 1e-9)
    want = [np.array(c) for c in zip(*(limit_one_at_a_time(f, x, arg, gain, 200, 1e-9, 0)
                                        for x in X))]
    assert not np.all(np.isfinite(got[0]))
    for g, w in zip(got, want, strict=True):
        assert np.array_equal(g, w, equal_nan=True)


@pytest.mark.parametrize("arg_scale, out_scale", [(2.0, 0.5), (2.0 / 3.0, 1.5)])
@pytest.mark.parametrize("kind", [(3.0, 1.0 / 3.0), (0.5, 2.0)])
def test_scaled_quadratic_stops_where_the_one_exponent_loop_stops(arg_scale, out_scale, kind):
    """The pexider reduction of a quadratic model: its quadratic part has the
    norm out_scale·‖q‖·‖arg_scale·x‖².  At 300 points whose gaps cross tol
    within the first steps (growing under the triadic kind, shrinking under
    the contraction) every point stops where the one-exponent loop stops,
    with arg_scale above and below 1."""
    quad = FunctionModel(domain=E3, codomain=E2, linear=np.zeros((2, 3)), quadratic=[1.0, 0.0])
    f = ScaledModel(quad, arg_scale, out_scale)
    rng = np.random.default_rng(45)
    X = rng.standard_normal((300, 3))
    X *= 10.0 ** rng.uniform(-7.0, -3.0, size=(300, 1)) / np.linalg.norm(X, axis=1)[:, None]
    arg, gain = kind
    got = power_limit_many(f, X, arg, gain, 40, 1e-9)
    want = [np.array(c) for c in zip(*(limit_one_at_a_time(f, x, arg, gain, 40, 1e-9, 0)
                                        for x in X))]
    assert 0 < np.sum(got[1] == 1) < X.shape[0]
    for g, w in zip(got, want, strict=True):
        assert np.array_equal(g, w, equal_nan=True)


@pytest.mark.parametrize("arg_scale, out_scale", [(2.0, 0.5), (2.0 / 3.0, 1.5)])
def test_scaled_quadratic_cancelling_a_bounded_term(arg_scale, out_scale):
    """As above with the quadratic as one of the other parts: under the
    contraction (arg ½, gain 2) a bounded term of amplitude a grows and
    leads, and each point's quadratic change V·2^-m equals the bounded term's
    least change out_scale·a·2^m/2 at one exponent m0 in 3..10.  Where the noise signs
    agree the two cancel and the point stops at m0, a step no run may skip;
    one step a pass, so that no block evaluates steps past a pause."""
    bounded = PerturbationSpec(kind=BOUNDED, amplitude=1e-7, seed=9)
    f = ScaledModel(FunctionModel(domain=E3, codomain=E1, linear=np.zeros((1, 3)),
                                  quadratic=[1.0], perturbations=(bounded,)), arg_scale, out_scale)
    rng = np.random.default_rng(46)
    m0 = rng.integers(3, 11, size=300)
    X = rng.standard_normal((300, 3))
    X *= (np.sqrt(0.5e-7 * 4.0**m0) / arg_scale / np.linalg.norm(X, axis=1))[:, None]
    with mock.patch.object(series, "_BLOCK_ROWS", X.shape[0]):  # one step a pass
        got = power_limit_many(f, X, 0.5, 2.0, 40, 1e-9)
    want = [np.array(c) for c in zip(*(limit_one_at_a_time(f, x, 0.5, 2.0, 40, 1e-9, 0)
                                        for x in X))]
    assert np.sum(got[1] == m0) > 30
    for g, w in zip(got, want, strict=True):
        assert np.array_equal(g, w, equal_nan=True)


@pytest.mark.parametrize("model", ["bounded", "noisy"])
def test_certified_steps_are_not_evaluated(model):
    """On 4000 points the model is evaluated on at most a third of the steps
    the loop reports, for a bounded-only and for a mixed (bounded plus
    power) model: their certified runs are skipped, not iterated, and the
    sampled rows still equal the one-exponent loop bit for bit."""
    f = LIMIT_MODELS[model]
    rng = np.random.default_rng(43)
    X = rng.standard_normal((4000, 3)) * rng.uniform(0.05, 6.0, size=(4000, 1))
    with mock.patch.object(FunctionModel, "eval_many", autospec=True,
                           side_effect=FunctionModel.eval_many) as spy:
        got = power_limit_many(f, X, 2.0, 0.5, 60)
    rows = sum(len(c.args[1]) for c in spy.call_args_list)
    assert 3 * rows <= np.sum(got[1])
    _check_sampled_rows(
        got, rng, np.empty(0, dtype=np.int64),
        lambda i: limit_one_at_a_time(f, X[i], 2.0, 0.5, 60, DEFAULT_TOL, 0),
    )


def _check_permuting_the_batch(f, kind, tol, budget, rows, starts, seed):
    """Permuting the points (with their n_max, n_start and cand) permutes the
    four outputs bit for bit."""
    arg, gain = kind
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((rows, 3)) * 10.0 ** rng.uniform(-2.0, 118.0, size=(rows, 1))
    X[rng.random(rows) < 0.5] /= 1e110
    n_max, cand = rng.integers(-3, 46, size=rows), rng.integers(0, 3, size=rows)
    n0 = rng.integers(-60, 48, size=rows) if starts else None
    perm = rng.permutation(rows)
    n0_perm = None if n0 is None else n0[perm]
    with mock.patch.object(series, "_BLOCK_ROWS", budget):
        got = power_limit_many(f, X, arg, gain, n_max, tol, n_start=n0, cand=cand)
        moved = power_limit_many(
            f, X[perm], arg, gain, n_max[perm], tol, n_start=n0_perm, cand=cand[perm]
        )
    for g, m in zip(got, moved, strict=True):
        assert np.array_equal(g[perm], m, equal_nan=True)


_PERMUTED_BATCHES = dict(
    kind=st.sampled_from([(2.0, 0.5), (2.0, 0.25), (3.0, 1.0 / 3.0), (0.5, 4.0), (0.5, 2.0)]),
    tol=st.sampled_from([0.0, 1e-12, 1e-9, 1e-4]),
    budget=st.sampled_from([1, 5, 40, 4096]),
    rows=st.integers(1, 40),
    starts=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(**_PERMUTED_BATCHES)
def test_limit_commutes_with_permuting_the_batch(kind, tol, budget, rows, starts, seed):
    """For the 3-candidate model: the sort by exponent, the regrouping of the
    working set and the skipped runs do not leak one point's order into
    another's values."""
    _check_permuting_the_batch(THREE, kind, tol, budget, rows, starts, seed)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    model=st.sampled_from(["bounded", "bounded-y1", "decay", "pexider", "pexider-quadratic",
                           "pexider-quadratic-exact"]),
    **_PERMUTED_BATCHES,
)
def test_certified_limit_commutes_with_permuting_the_batch(
    model, kind, tol, budget, rows, starts, seed
):
    """As above for the models whose certified runs take each other branch:
    bounded-only, two cancelling bounded terms, a decay term and the pexider
    reductions of a noisy and of two quadratic models."""
    _check_permuting_the_batch(LIMIT_MODELS[model], kind, tol, budget, rows, starts, seed)


@pytest.mark.parametrize("kind", [(2.0, 0.5), (3.0, 1.0 / 3.0)])
def test_huge_n_max_needs_no_table_of_that_size(kind):
    """n_max = 10**9: the overflow guard stops every point long before, with
    the one-exponent loop's results, no warning, and memory that does not
    grow with n_max."""
    f = LIMIT_MODELS["noisy"]
    arg, gain = kind
    X = np.array([[0.3, -1.2, 0.8], [2.0e-3, 5.0, -7.0], [4.0e9, 1.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tracemalloc.start()
        try:
            got = power_limit_many(f, X, arg, gain, 10**9, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 2**20
    ref = [limit_one_at_a_time(f, x, arg, gain, 10**9, 0.0, 0) for x in X]
    for g, w in zip(got, zip(*ref)):
        assert np.array_equal(g, np.array(w))


class _Spy:
    """A subject that records, for every eval_many call, each row's point
    (passed as its cand) and its exponent (arg is 2, so |row| / |x| = 2^n)."""

    def __init__(self, base, X):
        self.base, self.X, self.calls = base, X, []
        self.domain, self.codomain = base.domain, base.codomain

    def eval_many(self, Xs, cand):
        scale = np.max(np.abs(Xs), axis=1) / np.max(np.abs(self.X[cand]), axis=1)
        self.calls.append((np.asarray(cand).copy(), np.log2(scale)))
        return self.base.eval_many(Xs)


@pytest.mark.parametrize("n_pts, budget", [(10, 4096), (10, 64), (4000, 4096)])
def test_limit_calls_stay_inside_caps_guard_and_block(n_pts, budget):
    """No evaluated row is past its point's n_max or the overflow guard, each
    call holds at most max(_BLOCK_ROWS, active points) rows, and there are at
    most 1 + (largest iteration count) calls."""
    rng = np.random.default_rng(n_pts)
    X = rng.uniform(0.5, 2.0, size=(n_pts, 3)) * 10.0 ** rng.integers(-3, 115, size=(n_pts, 1))
    n_max = rng.integers(0, 80, size=n_pts)
    spy = _Spy(LIMIT_MODELS["quadratic"], X)
    row_scale = np.max(np.abs(X), axis=1)
    with mock.patch.object(series, "_BLOCK_ROWS", budget):
        iterations = power_limit_many(spy, X, 2.0, 0.5, n_max, 1e-9, cand=np.arange(n_pts))[1]
    assert len(spy.calls) <= 1 + iterations.max()
    seen = np.zeros(n_pts, dtype=np.int64)
    for who, n in spy.calls:
        assert np.array_equal(n, np.round(n))
        assert who.size <= max(budget, np.unique(who).size)
        assert np.all(n <= n_max[who])
        assert not np.any(row_scale[who] * 2.0**n > 1e120)
        np.maximum.at(seen, who, n.astype(np.int64))
    assert np.array_equal(seen, iterations)


@pytest.mark.parametrize("kind, start", [((0.5, 4.0), -60), ((2.0, 0.5), -500)])
def test_guard_on_at_the_first_step_stops_there(kind, start):
    """A guard that is on at a point's first step and off later (a shrinking
    argument, or a negative start under a gain below 1) stops the point
    before any step, as the one-exponent loop does."""
    f = LIMIT_MODELS["noisy"]
    arg, gain = kind
    X = np.array([[1e110, 2.0, -3.0], [0.3, -1.2, 0.8]])
    got = power_limit_many(f, X, arg, gain, 40, 1e-9, n_start=[start, start])
    ref = [limit_one_at_a_time(f, x, arg, gain, 40, 1e-9, start) for x in X]
    assert got[1][0] == start
    for g, w in zip(got, zip(*ref)):
        assert np.array_equal(g, np.array(w))


@pytest.mark.parametrize("kind, start, scales, table", [
    ((2.0, 0.5), 0, (-2.0, 3.0), False),  # ordinary rows
    ((2.0, 0.5), 0, (100.0, 118.0), True),  # rows at 1e100..1e118 trip the guard
    ((0.5, 4.0), 0, (100.0, 110.0), False),  # a contracting arg only shrinks them
    ((0.5, 4.0), 0, (117.5, 118.0), True),  # ... from rows within 1e3 of the limit
    ((0.5, 2.0), -40, (100.0, 108.0), True),  # a negative start grows them 2^40
    ((2.0, 0.5), -395, (-2.0, 3.0), True),  # ... and the gain to 2^395
    ((3.0, 1.0 / 3.0), 0, (-2.0, 3.0), False),
])
def test_guard_table_only_near_the_limit(kind, start, scales, table):
    """The overflow guard's power table and bisection (_guard_stops) run only
    when some row could come within _GUARD_MARGIN of the limit over
    n_start..n_max; with or without them every point equals the one-exponent
    loop."""
    f = LIMIT_MODELS["noisy"]
    arg, gain = kind
    rng = np.random.default_rng(47)
    X = rng.standard_normal((12, 3))
    X *= 10.0 ** rng.uniform(*scales, size=(12, 1)) / np.max(np.abs(X), axis=1, keepdims=True)
    with mock.patch.object(series, "_guard_stops", wraps=series._guard_stops) as spy:
        got = power_limit_many(f, X, arg, gain, 60, 1e-9, n_start=np.full(12, start))
    assert spy.called == table
    ref = [limit_one_at_a_time(f, x, arg, gain, 60, 1e-9, start) for x in X]
    for g, w in zip(got, (np.array(c) for c in zip(*ref)), strict=True):
        assert np.array_equal(g, w, equal_nan=True)


@pytest.mark.parametrize("n_pts", [1, 7, 240, 2000])
def test_start_and_resume_rows_come_with_their_first_steps(n_pts):
    """A run's start row a_start, and a_s after a certified jump, is evaluated
    in the model call that holds the run's first steps, while start and one
    step per point fit _BLOCK_ROWS (up to 2048 points); each call holds a
    contiguous range of exponents per point and at most _BLOCK_ROWS rows, and
    the results equal the one-exponent loop."""
    f = LIMIT_MODELS["noisy"]
    rng = np.random.default_rng(48 + n_pts)
    X = rng.standard_normal((n_pts, 3)) * rng.uniform(0.05, 6.0, size=(n_pts, 1))
    n0 = rng.integers(-3, 4, size=n_pts)
    calls, evaluate = [], FunctionModel.eval_many

    def spy(self, Xs, cand=None):
        calls.append((np.asarray(cand).copy(), Xs.copy()))
        return evaluate(self, Xs, cand)

    with mock.patch.object(FunctionModel, "eval_many", spy):
        got = power_limit_many(f, X, 2.0, 0.5, 60, 1e-9, n_start=n0, cand=np.arange(n_pts))
    last, resumed = np.full(n_pts, -(2**62)), 0  # the last exponent evaluated, per point
    for who, Xs in calls:
        assert who.size <= series._BLOCK_ROWS
        n = np.round(np.log2(np.max(np.abs(Xs), axis=1) / np.max(np.abs(X[who]), axis=1)))
        order = np.lexsort((n, who))
        who, n = who[order], n[order].astype(np.int64)
        head = np.flatnonzero(np.concatenate(([True], who[1:] != who[:-1])))
        tail = np.append(head[1:], who.size) - 1
        assert np.all(np.diff(n)[np.setdiff1d(np.arange(who.size - 1), tail)] == 1)
        fresh = n[head] != last[who[head]] + 1  # a start or a resume
        assert np.all(tail[fresh] > head[fresh])  # ... with a step of its own
        resumed += np.count_nonzero(fresh & (last[who[head]] > -(2**62)))
        last[who[tail]] = n[tail]
    assert np.all(last >= got[1])  # a block may run past a point's stop
    assert (resumed > 0) == (n_pts >= 240)  # certified jumps need more than one block
    sample = np.arange(n_pts) if n_pts <= 64 else rng.choice(n_pts, 64, replace=False)
    want = [np.array(c) for c in zip(*(limit_one_at_a_time(f, X[i], 2.0, 0.5, 60, 1e-9, n0[i])
                                        for i in sample))]
    for g, w in zip(got, want, strict=True):
        assert np.array_equal(g[sample], w, equal_nan=True)


_CERTIFIABLE = ["linear", "noisy", "bounded", "bounded-y1", "decay", "decay-only", "pexider",
                "pexider-quadratic", "pexider-quadratic-exact", "quadratic", "quadratic-y3",
                "quadratic-yp3", "noisy-ysup"]


@pytest.mark.parametrize("kind", [(2.0, 0.5), (2.0, 0.25), (3.0, 1.0 / 3.0), (0.5, 2.0),
                                  (0.5, 4.0)])
@pytest.mark.parametrize("model", _CERTIFIABLE)
def test_certified_steps_have_gaps_above_tol(model, kind):
    """Every step m in c+1..s that _certified_steps certifies has a computed
    gap ‖a_m − a_{m−1}‖, formed as the loop forms it, above tol, for tols 0
    to 1e-4, starts −5..5 and points whose norms span 1e-6..1e6; and the
    certified runs lie inside first..last."""
    f = LIMIT_MODELS[model]
    arg, gain = np.float64(kind[0]), np.float64(kind[1])
    rng = np.random.default_rng(49)
    X = rng.standard_normal((300, 3)) * 10.0 ** rng.uniform(-6.0, 6.0, size=(300, 1))
    first, last = rng.integers(-4, 7, size=300), np.full(300, 59)
    certified = 0
    for tol in [0.0, 1e-12, 1e-9, 1e-4]:
        c, s = series._certified_steps(f, X, arg, gain, tol, first, last, np.zeros(300, np.int64))
        i = np.flatnonzero(c < 2**62)
        assert np.all((first[i] <= c[i] + 1) & (c[i] < s[i]) & (s[i] <= last[i]))
        runs = s[i] - c[i] + 1  # each point's exponents c..s
        who, begin = np.repeat(i, runs), np.repeat(np.cumsum(runs) - runs, runs)
        m = np.arange(who.size) - begin + c[who]
        e = m.astype(np.float64)[:, None]
        a = gain**e * f.eval_many(arg**e * X[who])
        step = np.flatnonzero(m[1:] != c[who[1:]])  # row k + 1 is a certified step
        with np.errstate(over="ignore", invalid="ignore"):
            gaps = norm_many(f.codomain, a[step + 1] - a[step])
        assert np.all(gaps > tol)
        certified += step.size
    if model in ("noisy", "bounded", "quadratic") and kind in ((2.0, 0.5), (3.0, 1.0 / 3.0)):
        assert certified > 0  # runs that the loop would skip are checked


_TERMS = st.lists(st.one_of(
    st.builds(lambda a: PerturbationSpec(kind=BOUNDED, amplitude=a), st.sampled_from([0.0, 0.05, 0.3, 2.0])),
    st.builds(lambda d, p: PerturbationSpec(kind=POWER, delta=d, p=p),
              st.sampled_from([0.0, 0.1, 1.0]), st.sampled_from([0.0, 0.25, 0.5, 0.9])),
    st.builds(lambda a: PerturbationSpec(kind=DECAY, amplitude=a), st.sampled_from([0.0, 0.5]))),
    max_size=3)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(
    terms=_TERMS,
    quadratic=st.sampled_from([None, [0.3, -0.1], [0.0, 0.0]]),
    candidates=st.sampled_from([0, 3]),
    space=st.sampled_from([E3, NormedSpaceSpec(3, "sup"), NormedSpaceSpec(3, "p_norm", 3.0)]),
    codomain=st.sampled_from([E2, NormedSpaceSpec(2, "sup"), NormedSpaceSpec(2, "p_norm", 3.0)]),
    scales=st.sampled_from([None, (2.0 / 3.0, 1.5), (2.0, 0.5), (1e-40, 1.0), (1.0, -3.0)]),
    kind=st.sampled_from([(2.0, 0.5), (2.0, 0.25), (3.0, 1.0 / 3.0), (0.5, 2.0), (0.5, 4.0),
                          (1.125, 0.75), (-2.0, 0.5)]),
    tol=st.sampled_from([0.0, 1e-12, 1e-9, 1e-4]),
    n_pts=st.sampled_from([300, 300, 40]),
    spans=st.sampled_from([(-2, 80), (30, 61), (-2, 80), (-300, 2**40)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_certified_steps_equal_the_reference(terms, quadratic, candidates, space, codomain, scales,
                                             kind, tol, n_pts, spans, seed):
    """The certificate returns, bit for bit, the (c, s) of the one-pass-per-array
    reference it replaced, for every kind of part leading or competing, inactive
    terms, scaled models (one past the 2**100 coefficient ceiling), per-candidate
    linear maps, points from 1e-9 to 1e9 and the origin, and runs from empty to
    past the 2**20 clip."""
    rng = np.random.default_rng(seed)
    shape = (candidates, 2, 3) if candidates else (2, 3)
    f = FunctionModel(domain=space, codomain=codomain, linear=rng.uniform(-2.0, 2.0, size=shape),
                      quadratic=quadratic, perturbations=tuple(terms))
    if scales is not None:
        f = ScaledModel(f, *scales)
    X = rng.standard_normal((n_pts, 3)) * 10.0 ** (9.0 * rng.uniform(-1.0, 1.0, size=(n_pts, 1)) ** 3)
    X[rng.random(n_pts) < 0.05] = 0.0
    first = rng.integers(-5, 8, size=n_pts)
    last = first + rng.integers(*spans, size=n_pts)
    cand = rng.integers(0, max(candidates, 1), size=n_pts)
    args = (f, X, np.float64(kind[0]), np.float64(kind[1]), tol, first, last, cand)
    got, want = series._certified_steps(*args), certified_steps_reference(*args)
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    part=st.sampled_from([OddPart, EvenPart]),
    contracting=st.booleans(),
    base=st.sampled_from([2.0, 3.0, 1.125, 1.5]),
    order=st.sampled_from([1, 2]),
    quadratic=st.booleans(),
    inactive=st.booleans(),
    scaled=st.booleans(),
    space=st.sampled_from([E3, NormedSpaceSpec(3, "sup"), NormedSpaceSpec(3, "p_norm", 3.0)]),
    rows=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_exact_parity_limit_equals_the_parts_iteration(
    part, contracting, base, order, quadratic, inactive, scaled, space, rows, seed
):
    """With no active perturbation term, a parity part's limit is its plain
    model's at x alone, and equals, bit for bit, the part's own iteration one
    exponent at a time: expanding (arg base, gain base^-order) from 0, and
    contracting (arg 1/base, gain base^order, as the ball extension takes it)
    from per-row starts.  Order 2 is the odd part's wrong order and order 1
    the even part's, so diverging points meet the cap and the guard too."""
    rng = np.random.default_rng(seed)
    perts = (PerturbationSpec(kind=BOUNDED, amplitude=0.0, seed=3),) if inactive else ()
    f = FunctionModel(domain=space, codomain=E2, linear=rng.uniform(-2.0, 2.0, size=(2, 3)),
                      quadratic=[0.3, -0.1] if quadratic else None, perturbations=perts)
    subject = ScaledModel(part(f), 2.0 / 3.0, 1.5) if scaled else part(f)
    X = rng.standard_normal((rows, 3)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(rows, 1))
    arg, gain = (1.0 / base, base**order) if contracting else (base, base**-order)
    n0 = rng.integers(0, 5, size=rows) if contracting else np.zeros(rows, dtype=np.int64)
    got = power_limit_many(subject, X, arg, gain, 40, 1e-9, n_start=n0)
    ref = [limit_one_at_a_time(subject, X[i], arg, gain, 40, 1e-9, int(n0[i]))
           for i in range(rows)]
    want = [np.array(column) for column in zip(*ref)]
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("part", [OddPart, EvenPart])
@pytest.mark.parametrize("scaled", [False, True])
def test_noisy_parity_limit_combines_its_halves(part, scaled):
    """A parity part with an active perturbation term is iterated as its plain
    model at x and at −x: the value is ½(v₊ ∓ v₋), the count and the last gap
    are the larger of the two halves', and a point converges when both do;
    per-row caps, starts and candidates go to both halves."""
    f = LIMIT_MODELS["quadratic"]
    g = part(f).plain
    wrap = (lambda m: ScaledModel(m, 2.0 / 3.0, 1.5)) if scaled else (lambda m: m)
    rng = np.random.default_rng(12)
    X = rng.standard_normal((30, 3))
    n_max, n0 = rng.integers(3, 120, size=30), rng.integers(-2, 2, size=30)
    gain = 0.5 if part is OddPart else 0.25
    got = power_limit_many(wrap(part(f)), X, 2.0, gain, n_max, 1e-9, n_start=n0)
    plus, minus = (power_limit_many(wrap(g), Z, 2.0, gain, n_max, 1e-9, n_start=n0)
                   for Z in (X, -X))
    assert np.array_equal(got[0], 0.5 * (plus[0] + part.sign * minus[0]))
    assert np.array_equal(got[1], np.maximum(plus[1], minus[1]))
    assert np.array_equal(got[2], np.maximum(plus[2], minus[2]))
    assert np.array_equal(got[3], plus[3] & minus[3])
    assert not got[3].all() and got[3].any()
    # the plain model is built once per part, however many limits take it
    subject = part(f)
    assert subject.plain is subject.plain
    with mock.patch("jensenlab.models.replace", side_effect=AssertionError("rebuilt")):
        power_limit_many(wrap(subject), X, 2.0, gain, n_max, 1e-9, n_start=n0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_even_limit_on_a_p3_domain_is_quiet():
    """Past the last step a point needs, a block may scale x to where a p = 3
    norm overflows (near 1e103, below the 1e120 guard): those values are inf
    or nan, are never returned, and raise no RuntimeWarning."""
    f = FunctionModel(domain=NormedSpaceSpec(3, "p_norm", 3.0), codomain=E2,
                      linear=np.zeros((2, 3)), quadratic=[0.3, -0.1],
                      perturbations=(PerturbationSpec(kind=POWER, delta=1.0, p=0.5, seed=3),))
    X = np.random.default_rng(1).uniform(-4.0, 4.0, size=(5, 3))
    vals, _, _, conv = power_limit_many(EvenPart(f), X, 2.0, 0.25, 600, 1e-9)
    assert conv.all() and np.isfinite(vals).all()
