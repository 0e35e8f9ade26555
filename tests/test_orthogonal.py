import numpy as np
import pytest

from jensenlab import orthogonal
from jensenlab.models import (
    BOUNDED,
    FunctionModel,
    JensenParams,
    ModelError,
    PerturbationSpec,
    RadialTable,
    jensen_defect_many,
    odd_even_split,
)
from jensenlab.orthogonal import (
    SikorskaConfig,
    decompose_T_Q,
    even_part_constancy_check,
    pexider_reduction_check,
    scaling_identity_check,
    sikorska_extend,
)
from jensenlab.sampling import orthogonal_pairs, rng_from, sample_points, unit_directions
from jensenlab.spaces import OrthogonalityRelation, euclidean_space, norm_many, o4_witness

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
    X, Y = orthogonal_pairs(IP, E3, count, radius_range, rng, axis_period=8)
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
    X, Y = orthogonal_pairs(IP, E3, 400, (0.1, 4.0), rng)
    res = pexider_reduction_check(f, P111, E3, X, Y)
    true_sup = _orthogonal_defect_sup(f, 400, (0.1, 4.0), seed=9)
    assert res.value <= 3.0 * max(true_sup, 3 * amp) + 1e-12


class TestDecomposeTQ:
    def test_exact_model(self):
        f = _model(quadratic=[0.7])
        X = sample_points(E3, 200, (0.1, 3.0), rng_from(1, "pts"))
        result, T_vals, Q_vals = decompose_T_Q(f, P111, X)
        assert result.max_residual <= 1e-9
        assert np.allclose(result.T_hat.linear, L13, atol=1e-9)
        assert result.Q_hat.quadratic[0] == pytest.approx(0.7, abs=1e-9)
        assert result.iterations["fit_converged"]
        u = norm_many(E3, X) ** 2
        assert np.allclose(T_vals, X @ L13.T, atol=1e-8)
        assert np.allclose(Q_vals[:, 0], 0.7 * u, rtol=1e-8)

    def test_perturbed_model(self):
        f = _model(
            quadratic=[0.7],
            perts=(PerturbationSpec(kind=BOUNDED, amplitude=0.05, seed=5),),
        )
        X = sample_points(E3, 200, (0.1, 3.0), rng_from(2, "pts"))
        result, _, _ = decompose_T_Q(f, P111, X)
        # residual stays of the order of the injected noise
        assert result.max_residual <= 3 * 0.05 + 1e-9
        assert np.allclose(result.T_hat.linear, L13, atol=0.1)


def test_scaling_identity_exact_vs_broken():
    params = JensenParams(2, 3, 3)
    additive = _model()
    assert scaling_identity_check(additive, params, E3, 2.0, 200, seed=1) <= 1e-12
    quad = _model(quadratic=[1.0])
    # c‖x‖² violates 1-homogeneity: gap (r/s)(1 - r/s)·c‖x‖² > 0
    assert scaling_identity_check(quad, params, E3, 2.0, 200, seed=1) > 1e-3


class TestSikorskaExtension:
    def test_base2_exact_recovery(self):
        cfg = SikorskaConfig(params=JensenParams(2, 2, 2), ball_radius=1.0)
        f = _model(quadratic=[0.3])
        result = sikorska_extend(f, cfg, E3, count=256, seed=3)
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
        result = sikorska_extend(f, cfg, E3, count=192, seed=5)
        assert result.max_residual <= 1e-5
        assert np.max(np.abs(result.T_hat.linear - L13)) <= 1e-5

    def test_rejects_bad_config(self):
        with pytest.raises(ModelError):
            SikorskaConfig(params=JensenParams(1, 2, 3), ball_radius=1.0)
        with pytest.raises(ModelError):
            # base 2(s/r)² = 1/2 is not a contraction
            SikorskaConfig(params=JensenParams(2, 1, 1), ball_radius=1.0)


def test_even_part_constancy():
    cfg1 = SikorskaConfig(params=JensenParams(2, 2, 2), ball_radius=1.5)
    additive = _model()
    res = even_part_constancy_check(additive, cfg1, E3, count=200, seed=2)
    assert res.value <= 1e-12
    # lam = 1 witnesses share the radius, so c‖x‖² is constant across them
    quad = _model(quadratic=[1.0])
    assert even_part_constancy_check(quad, cfg1, E3, count=200, seed=2).value <= 1e-9
    # lam = 3/4 shrinks the witness radius and exposes the non-constant even part
    cfg2 = SikorskaConfig(params=JensenParams(4, 3, 3), ball_radius=1.5)
    assert even_part_constancy_check(quad, cfg2, E3, count=200, seed=2).value > 0.1


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
    res = even_part_constancy_check(f, cfg, E3, count=60, seed=3)

    _, f_even = odd_even_split(f)
    value, x_best, y_best = 0.0, drawn["X"][0], drawn["X"][0]
    for x, v in zip(drawn["X"], drawn["V"]):
        if abs(np.dot(x, v)) > (1.0 - 1e-9) * np.linalg.norm(x) * np.linalg.norm(v):
            v = np.roll(v, 1)
        y0 = o4_witness(E3, (x, v), x, cfg.lam)
        val = float(norm_many(E1, f_even.eval_many(x[None, :]) - f_even.eval_many(y0[None, :]))[0])
        if val > value:
            value, x_best, y_best = val, x, y0
    assert value > 0.1
    assert res.value == value
    assert res.x.tobytes() == x_best.tobytes() and res.y.tobytes() == y_best.tobytes()
