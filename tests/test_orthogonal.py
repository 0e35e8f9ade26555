import numpy as np
import pytest

from jensenlab import orthogonal
from jensenlab.experiments import build_models, parse_config
from jensenlab.models import (
    BOUNDED,
    FunctionModel,
    JensenParams,
    OddPart,
    PerturbationSpec,
    RadialTable,
    jensen_defect_many,
    odd_even_split,
)
from jensenlab.orthogonal import (
    SikorskaConfig,
    even_part_constancy_check,
    pexider_reduction_check,
    scaling_identity_check,
    sikorska_extend,
)
from jensenlab.series import power_limit_many
from jensenlab.sampling import orthogonal_pairs, rng_from, sample_points, unit_directions
from jensenlab.spaces import (
    ConfigError,
    NormedSpaceSpec,
    OrthogonalityRelation,
    _quarter_turns,
    euclidean_space,
    norm_many,
)
from series_reference import limit_one_at_a_time
from test_golden import CONFIGS as GOLDEN

E3 = euclidean_space(3)
E1 = euclidean_space(1)
IP = OrthogonalityRelation(kind="inner_product")
P111 = JensenParams(1, 1, 1)
L13 = np.array([[1.0, -2.0, 0.5]])


def _model(quadratic=None, perts=(), codomain=E1, linear=L13):
    return FunctionModel(
        domain=E3, codomain=codomain, linear=linear,
        quadratic=quadratic, perturbations=perts,
    )


def _orthogonal_defect_sup(f, count, radius_range, seed):
    """Sup of the Jensen defect of (f, f, f) over sampled IP-orthogonal pairs,
    axis pairs (x, 0) and (0, y) included."""
    rng = rng_from(seed, "orthogonal-defect")
    X, Y = orthogonal_pairs(IP, E3, count, [radius_range], [rng], axis_period=8)
    return float(np.max(jensen_defect_many(f, f, f, P111, X, Y)))


def test_quadratic_is_orthogonally_additive():
    """c‖x‖² has zero Jensen defect on inner-product orthogonal pairs."""
    f = _model(quadratic=[2.0])
    assert _orthogonal_defect_sup(f, 300, (0.1, 5.0), seed=4) <= 1e-9


def test_orthogonal_defect_sees_noise():
    f = _model(perts=(PerturbationSpec(kind=BOUNDED, amplitude=0.2, seed=3),))
    assert 0.0 < _orthogonal_defect_sup(f, 300, (0.1, 5.0), seed=4) <= 3 * 0.2 + 1e-12


def test_pexider_reduction_stays_small():
    """Reducing (f, g, h) to a single map keeps the defect within 3x the sup."""
    amp = 0.1
    f = _model(quadratic=[0.5], perts=(PerturbationSpec(kind=BOUNDED, amplitude=amp, seed=7),))
    rng = rng_from(9, "pairs")
    X, Y = orthogonal_pairs(IP, E3, 400, [(0.1, 4.0)], [rng])
    res = pexider_reduction_check(f, P111, X, Y)
    true_sup = _orthogonal_defect_sup(f, 400, (0.1, 4.0), seed=9)
    assert res <= 3.0 * max(true_sup, 3 * amp) + 1e-12


def test_pexider_reduction_per_candidate():
    """With cand, one call gives each candidate's sup over its own pairs, equal
    to the sup of three separate evaluations of that candidate alone."""
    def reference(f, X, Y):
        vals = f.eval_many(X + Y) - f.eval_many(X) - f.eval_many(Y)  # r = s = t = 1
        return float(np.max(norm_many(f.codomain, vals)))

    perts = (PerturbationSpec(kind=BOUNDED, amplitude=0.1, seed=(7, 8, 9)),)
    f = _model(quadratic=[0.5], perts=perts, linear=np.stack([L13, 2.0 * L13, -L13]))
    X, Y = orthogonal_pairs(IP, E3, 90, [(0.1, 4.0)], [rng_from(9, "pairs")])
    cand = np.repeat(np.arange(3), 30)
    got = pexider_reduction_check(f, P111, X, Y, cand)
    assert got == [reference(f.candidate(k), X[cand == k], Y[cand == k]) for k in range(3)]
    one = f.candidate(1)
    assert pexider_reduction_check(one, P111, X, Y) == reference(one, X, Y)


class TestDecomposeTQ:
    """thm5_2's approximant: T the dyadic limit of the odd part, Q the
    quadratic limit of the even part."""

    @staticmethod
    def _limits(f, X):
        f_odd, f_even = odd_even_split(f)
        T, _, _, conv_T = power_limit_many(f_odd, X, 2.0, 0.5, 40)
        Q, _, _, conv_Q = power_limit_many(f_even, X, 2.0, 0.25, 40)
        return T, Q, bool(np.all(conv_T) and np.all(conv_Q))

    def test_exact_model(self):
        f = _model(quadratic=[0.7])
        X = sample_points(E3, 200, [(0.1, 3.0)], [rng_from(1, "pts")])
        T_vals, Q_vals, converged = self._limits(f, X)
        assert converged
        assert np.max(norm_many(E1, f.eval_many(X) - T_vals - Q_vals)) <= 1e-9
        T_basis, Q_e1, basis_converged = self._limits(f, np.eye(3))
        assert basis_converged
        assert np.allclose(T_basis.T, L13, atol=1e-9)
        assert Q_e1[0, 0] == pytest.approx(0.7, abs=1e-9)
        u = norm_many(E3, X) ** 2
        assert np.allclose(T_vals, X @ L13.T, atol=1e-8)
        assert np.allclose(Q_vals[:, 0], 0.7 * u, rtol=1e-8)

    def test_perturbed_model(self):
        f = _model(
            quadratic=[0.7],
            perts=(PerturbationSpec(kind=BOUNDED, amplitude=0.05, seed=5),),
        )
        X = sample_points(E3, 200, [(0.1, 3.0)], [rng_from(2, "pts")])
        T_vals, Q_vals, _ = self._limits(f, X)
        # residual stays of the order of the injected noise
        assert np.max(norm_many(E1, f.eval_many(X) - T_vals - Q_vals)) <= 3 * 0.05 + 1e-9
        T_basis, _, _ = self._limits(f, np.eye(3))
        assert np.allclose(T_basis.T, L13, atol=0.1)


def test_scaling_identity_exact_vs_broken():
    params = JensenParams(2, 3, 3)
    additive = _model()
    assert scaling_identity_check(additive, params, 2.0, 200, seed=1) <= 1e-12
    quad = _model(quadratic=[1.0])
    # c‖x‖² violates 1-homogeneity: gap (r/s)(1 - r/s)·c‖x‖² > 0
    assert scaling_identity_check(quad, params, 2.0, 200, seed=1) > 1e-3


class TestSikorskaExtension:
    def test_base2_exact_recovery(self):
        cfg = SikorskaConfig(params=JensenParams(2, 2, 2), ball_radius=1.0)
        f = _model(quadratic=[0.3])
        result = sikorska_extend(f, cfg, count=256, seed=3)
        assert cfg.base == pytest.approx(2.0)
        assert result.max_residual <= 1e-6
        assert np.max(np.abs(result.T_hat.linear - L13)) <= 1e-6
        knots = result.b_hat.knots
        table_err = np.max(np.abs(result.b_hat.values[:, 0] - 0.3 * knots))
        assert table_err <= 1e-6
        assert result.iterations["fit_converged"]

    def test_punctured_slow_base(self):
        cfg = SikorskaConfig(
            params=JensenParams(4, 3, 3), ball_radius=1.0, exclude_origin=True
        )
        assert cfg.base == pytest.approx(9.0 / 8.0)
        f = _model()
        result = sikorska_extend(f, cfg, count=192, seed=5)
        assert result.max_residual <= 1e-5
        assert np.max(np.abs(result.T_hat.linear - L13)) <= 1e-5

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigError):
            SikorskaConfig(params=JensenParams(1, 2, 3), ball_radius=1.0)
        with pytest.raises(ConfigError):
            # base 2(s/r)² = 1/2 is not a contraction
            SikorskaConfig(params=JensenParams(2, 1, 1), ball_radius=1.0)


def test_even_part_constancy():
    cfg1 = SikorskaConfig(params=JensenParams(2, 2, 2), ball_radius=1.5)
    additive = _model()
    assert even_part_constancy_check(additive, cfg1, count=200, seed=2) <= 1e-12
    # lam = 1 witnesses share the radius, so c‖x‖² is constant across them
    quad = _model(quadratic=[1.0])
    assert even_part_constancy_check(quad, cfg1, count=200, seed=2) <= 1e-9
    # lam = 3/4 shrinks the witness radius and exposes the non-constant even part
    cfg2 = SikorskaConfig(params=JensenParams(4, 3, 3), ball_radius=1.5)
    assert even_part_constancy_check(quad, cfg2, count=200, seed=2) > 0.1
    # the witness is the inner-product sign change, so other norms are refused
    sup_quad = FunctionModel(domain=NormedSpaceSpec(3, "sup"), codomain=E1, linear=L13,
                             quadratic=[1.0])
    with pytest.raises(ConfigError, match="inner-product"):
        even_part_constancy_check(sup_quad, cfg2, count=8, seed=2)


def test_even_part_constancy_matches_row_loop(monkeypatch):
    """The batched check equals the row-by-row loop it replaced, bit for bit,
    degenerate planes (v parallel to x) included."""
    drawn = {}

    def points(*args):
        drawn["X"] = sample_points(*args)
        return drawn["X"]

    def directions(*args):
        V = unit_directions(*args)
        X = drawn["X"][::3]
        V[::3] = X / np.linalg.norm(X, axis=1)[:, None]
        drawn["V"] = V
        return V

    monkeypatch.setattr(orthogonal, "sample_points", points)
    monkeypatch.setattr(orthogonal, "unit_directions", directions)
    f = _model(quadratic=[1.0], perts=(PerturbationSpec(kind=BOUNDED, amplitude=0.05, seed=4),))
    cfg = SikorskaConfig(params=JensenParams(4, 3, 3), ball_radius=1.5)
    res = even_part_constancy_check(f, cfg, count=60, seed=3)

    _, f_even = odd_even_split(f)
    value = 0.0
    for x, v in zip(drawn["X"], drawn["V"]):
        if abs(np.dot(x, v)) > (1.0 - 1e-9) * np.linalg.norm(x) * np.linalg.norm(v):
            v = np.roll(v, 1)
        x1 = x[None, :]
        y0 = np.sqrt(cfg.lam) * _quarter_turns(x1, v[None, :], x1)
        value = max(value, float(norm_many(E1, f_even.eval_many(x1) - f_even.eval_many(y0))[0]))
    assert value > 0.1
    assert res == value


def test_bounded_noise_on_a_line_never_reads_as_converged():
    """thm6_1-noisy: on a 1-D codomain bounded noise is ±a at every point, so
    the odd part's noise ½(P(y) − P(−y)) is exactly 0 at about half the steps
    and iterating the part stops on a chance zero gap, although 2ⁿ·a diverges.
    The odd limit, taken through the part's plain model at ±e₁, does not
    converge, and neither does the ball extension's fit of the linear part."""
    (cfg,) = parse_config({"schema_version": 1, "experiments": [GOLDEN["thm6_1-noisy"]]})
    f, _, _ = build_models(cfg)
    scfg = SikorskaConfig(params=cfg.params, ball_radius=cfg.ball.radius)
    e1 = np.eye(f.domain.dim)[:1]
    n0 = orthogonal._entry_exponents(norm_many(f.domain, e1), scfg.base, scfg.ball_radius)
    args = (1.0 / scfg.base, scfg.base, scfg.default_n_max(), cfg.limits.tol)
    assert limit_one_at_a_time(OddPart(f), e1[0], *args, int(n0[0]))[3]
    assert not power_limit_many(OddPart(f), e1, *args, n_start=n0)[3][0]
    result = sikorska_extend(f, scfg, count=cfg.sampler.count, seed=cfg.sampler.seed,
                             tol=cfg.limits.tol)
    assert result.iterations["fit_converged"] is False
