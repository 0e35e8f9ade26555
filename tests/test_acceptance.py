"""Release gate: ten end-to-end acceptance checks.

Each test prints one pass/fail line (bypassing pytest capture) so the run
doubles as a checklist.  Expected values are frozen; tolerances are pinned
at 1e-7 relative on bound ratios unless a check states otherwise.
"""

import time

import numpy as np

from jensenlab.control import ControlFunctionSpec, control_phi_norms
from jensenlab.domains import DomainRestriction, asymptotic_profile
from jensenlab.experiments import (
    ExperimentConfig,
    ModelSettings,
    SamplerSettings,
    SearchSettings,
    ShellSettings,
    adversarial_search,
    calibrated_perturbations,
    emit_report,
    run_experiment,
)
from jensenlab.models import FunctionModel, JensenParams
from jensenlab.orthogonal import SikorskaConfig, scaling_identity_check, sikorska_extend
from jensenlab.sampling import rng_from
from jensenlab.series import (
    dyadic_limit_many,
    phi_tilde_dyadic_norms,
    phi_tilde_triadic_norms,
)
from jensenlab.spaces import (
    NormedSpaceSpec,
    OrthogonalityRelation,
    bj_margin_many,
    check_ratz_axioms,
    euclidean_space,
    is_orthogonal,
    norm_many,
)
from series_reference import psi

REL_TOL = 1e-7

E1 = euclidean_space(1)
E2 = euclidean_space(2)
E3 = euclidean_space(3)
L13 = np.array([[1.0, -2.0, 0.5]])

_CACHE: dict = {}


def _verdict(capsys, label, ok, detail=""):
    line = f"acceptance {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    with capsys.disabled():
        print(line)
    assert ok, line


def _random_params(rng):
    r, s, t = (int(v) for v in rng.integers(1, 6, size=3))
    return JensenParams(r, s, t)


# --- 01 ---------------------------------------------------------------------


def _dyadic_partial_sum(spec, space, params, x, y, terms):
    r, s, t = params.r, params.s, params.t
    a = (r / s) * norm_many(space, x[None, :])[0]
    b = (r / t) * norm_many(space, y[None, :])[0]
    n = np.arange(terms, dtype=np.float64)
    scale = 2.0**n
    zeros = np.zeros(terms)
    bracket = (
        control_phi_norms(spec, scale * a, scale * b)
        + control_phi_norms(spec, scale * a, zeros)
        + control_phi_norms(spec, zeros, scale * b)
    )
    return float(np.sum(bracket * 2.0**-n) / (2.0 * r))


def _triadic_partial_sum(spec, space, x, y, terms):
    nx, ny = norm_many(space, np.stack([x, y]))
    n = np.arange(terms, dtype=np.float64)
    hi = 3.0 ** (n + 1) / 2.0
    lo = 3.0**n / 2.0
    bracket = (
        control_phi_norms(spec, hi * nx, lo * ny)
        + control_phi_norms(spec, hi * nx, hi * ny)
        + control_phi_norms(spec, lo * nx, lo * ny)
    )
    return float((2.0 / 3.0) * np.sum(bracket * 3.0**-n))


def test_01_closed_form_series(capsys):
    t0 = time.perf_counter()
    const1 = ControlFunctionSpec(kind="constant", epsilon=1.0)
    x = np.array([0.4, -1.0, 2.0])
    y = np.array([1.0, 0.5, 0.0])

    nx, ny = norm_many(E3, x[None, :]), norm_many(E3, y[None, :])
    dy = phi_tilde_dyadic_norms(const1, JensenParams(2, 1, 1), nx, ny)
    tri = phi_tilde_triadic_norms(const1, nx, ny)
    ok = dy.value.tolist() == [1.5] and dy.exact
    ok &= tri.value.tolist() == [3.0] and tri.exact
    ok &= abs(dy.value[0] - _dyadic_partial_sum(const1, E3, JensenParams(2, 1, 1), x, y, 60)) <= 1e-10
    ok &= abs(tri.value[0] - _triadic_partial_sum(const1, E3, x, y, 60)) <= 1e-10
    for eps in (1.0, 0.37):
        spec = ControlFunctionSpec(kind="constant", epsilon=eps)
        ok &= abs(psi(spec, E3, x) - 2.0 * eps) <= 1e-12 * 2.0 * eps
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _verdict(capsys, "01 closed-form comparison series", ok, f"{elapsed:.2f}s")


# --- 02 ---------------------------------------------------------------------


def test_02_perturbed_additive_bound_sweep(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(860223)
    violations = 0
    worst = 0.0
    for i in range(100):
        params = _random_params(rng)
        control = ControlFunctionSpec(
            kind="mixed",
            epsilon=float(rng.uniform(0.0, 1.0)),
            delta=float(rng.uniform(0.0, 1.0)),
            p=float(rng.choice([0.0, 0.25, 0.5, 0.75])),
        )
        cfg = ExperimentConfig(
            theorem_id="cor2_2",
            space=E3,
            codomain=E2,
            params=params,
            control=control,
            domain=DomainRestriction(kind="full"),
            sampler=SamplerSettings(
                count=1000, seed=int(rng.integers(2**31)), radius_range=(0.05, 8.0)
            ),
            model=ModelSettings(
                perturbations=calibrated_perturbations(params, control, seed=i)
            ),
        )
        rep = run_experiment(cfg)
        violations += not rep.passed
        worst = max(worst, rep.max_ratio)
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and worst <= 1.0 + REL_TOL and elapsed < 60.0
    _verdict(
        capsys,
        "02 perturbed-additive deviation bound, 100 configs",
        ok,
        f"worst ratio {worst:.3g}, {elapsed:.1f}s",
    )


# --- 03 / 09 ----------------------------------------------------------------


def _exterior_configs():
    rng = np.random.default_rng(930211)
    spaces = [
        euclidean_space(3),
        NormedSpaceSpec(dim=3, norm_kind="sup"),
        NormedSpaceSpec(dim=3, norm_kind="p_norm", p=3.0),
    ]
    cfgs = []
    for i in range(50):
        params = _random_params(rng)
        d = float(rng.uniform(0.5, 4.0))
        control = ControlFunctionSpec(kind="constant", epsilon=float(rng.uniform(0.1, 1.0)))
        cfgs.append(
            ExperimentConfig(
                theorem_id="thm3_1",
                space=spaces[i % 3],
                codomain=E2,
                params=params,
                control=control,
                domain=DomainRestriction(kind="exterior", d=d),
                sampler=SamplerSettings(
                    count=200,
                    seed=int(rng.integers(2**31)),
                    radius_range=(0.05, 4.0 * d + 4.0),
                    pair_count=10000,
                ),
                model=ModelSettings(
                    perturbations=calibrated_perturbations(params, control, seed=1000 + i)
                ),
            )
        )
    return cfgs


def _run_exterior_suite():
    reports = [run_experiment(cfg) for cfg in _exterior_configs()]
    return [emit_report(rep, fmt="json") for rep in reports], reports


def test_03_exterior_domain_sweep(capsys):
    t0 = time.perf_counter()
    jsons, reports = _run_exterior_suite()
    _CACHE["exterior_jsons"] = jsons
    ineq_failures = sum(r.details["five_inequality_failures"] for r in reports)
    pair_ok = all(r.details["interior_pairs"] == 10000 for r in reports)
    interior_ok = all(
        r.details["interior_defect_max"]
        <= r.details["interior_defect_bound"] * (1.0 + REL_TOL)
        for r in reports
    )
    failed = sum(not r.passed for r in reports)
    elapsed = time.perf_counter() - t0
    ok = ineq_failures == 0 and pair_ok and interior_ok and failed == 0 and elapsed < 120.0
    _verdict(
        capsys,
        "03 exterior-domain chain and flat bound, 50 configs",
        ok,
        f"{ineq_failures} inequality failures, {failed} bound failures, {elapsed:.1f}s",
    )


# --- 04 ---------------------------------------------------------------------


def test_04_punctured_parity_bounds(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(411)
    failed = 0
    worst = 0.0
    for i in range(50):
        params = _random_params(rng)
        control = ControlFunctionSpec(kind="constant", epsilon=float(rng.uniform(0.05, 1.0)))
        cfg = ExperimentConfig(
            theorem_id="thm4_3",
            space=E3,
            codomain=E2,
            params=params,
            control=control,
            domain=DomainRestriction(kind="punctured"),
            sampler=SamplerSettings(
                count=300, seed=int(rng.integers(2**31)), radius_range=(0.2, 6.0)
            ),
            model=ModelSettings(
                perturbations=calibrated_perturbations(params, control, seed=2000 + i)
            ),
        )
        rep = run_experiment(cfg)
        failed += not rep.passed
        worst = max(worst, rep.max_ratio)
    elapsed = time.perf_counter() - t0
    ok = failed == 0 and worst <= 1.0 + REL_TOL
    _verdict(
        capsys,
        "04 punctured-domain odd/even/combined bounds, 50 configs",
        ok,
        f"worst ratio {worst:.3g}, {elapsed:.1f}s",
    )


# --- 05 ---------------------------------------------------------------------


def test_05_restricted_pexider_bounds(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(520)
    failed = 0
    worst = 0.0
    for i in range(20):
        params = _random_params(rng)
        control = ControlFunctionSpec(kind="constant", epsilon=float(rng.uniform(0.05, 1.0)))
        cfg = ExperimentConfig(
            theorem_id="prop4_2",
            space=E3,
            codomain=E2,
            params=params,
            control=control,
            domain=DomainRestriction(kind="punctured"),
            sampler=SamplerSettings(
                count=1000, seed=int(rng.integers(2**31)), radius_range=(0.2, 6.0)
            ),
            model=ModelSettings(
                perturbations=calibrated_perturbations(params, control, seed=2500 + i)
            ),
        )
        rep = run_experiment(cfg)
        failed += not rep.passed
        worst = max(worst, rep.max_ratio)
    elapsed = time.perf_counter() - t0
    ok = failed == 0 and worst <= 1.0 + REL_TOL
    _verdict(
        capsys,
        "05 two-map recovery bounds at 1000 points, 20 configs",
        ok,
        f"worst ratio {worst:.3g}, {elapsed:.1f}s",
    )


# --- 06 ---------------------------------------------------------------------


def test_06_orthogonality_axioms(capsys):
    t0 = time.perf_counter()
    ip = OrthogonalityRelation(kind="inner_product")
    ok = True
    for dim in (2, 3, 4, 5):
        rep = check_ratz_axioms(ip, euclidean_space(dim), trials=1000, seed=dim)
        ok &= rep.all_passed

    sup2 = NormedSpaceSpec(dim=2, norm_kind="sup")
    bj = OrthogonalityRelation(kind="birkhoff_james")
    ok &= is_orthogonal(bj, sup2, [1.0, 0.5], [0.0, 1.0])
    ok &= not is_orthogonal(bj, sup2, [0.0, 1.0], [1.0, 0.5])
    got = float(bj_margin_many(sup2, [[0.0, 1.0]], [[1.0, 0.5]])[0])
    lams = np.linspace(-2.0, 1.0, 300001)
    dense = float(np.min(np.maximum(np.abs(lams), np.abs(1.0 + 0.5 * lams))) - 1.0)
    ok &= abs(got - (-1.0 / 3.0)) <= 1e-3
    ok &= abs(got - dense) <= 1e-3
    elapsed = time.perf_counter() - t0
    _verdict(
        capsys,
        "06 orthogonality axioms and asymmetric margin",
        ok,
        f"margin {got:.6f}, {elapsed:.1f}s",
    )


# --- 07 ---------------------------------------------------------------------


def _orthogonal_cfg(i, epsilon, quadratic, perturbed):
    params = JensenParams(1, 1, 1)
    control = ControlFunctionSpec(kind="constant", epsilon=epsilon)
    perts = calibrated_perturbations(params, control, seed=300 + i) if perturbed else ()
    return ExperimentConfig(
        theorem_id="thm5_2",
        space=E3,
        codomain=E2,
        params=params,
        control=control,
        domain=DomainRestriction(
            kind="orthogonal", relation=OrthogonalityRelation(kind="inner_product")
        ),
        sampler=SamplerSettings(count=250, seed=500 + i, radius_range=(0.1, 4.0)),
        model=ModelSettings(quadratic=quadratic, seed=40 + i, perturbations=perts),
    )


def test_07_orthogonal_decomposition_bounds(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(700)
    failed = 0
    worst = 0.0
    for i in range(20):
        quad = tuple(float(v) for v in rng.uniform(-1.0, 1.0, size=2))
        cfg = _orthogonal_cfg(i, float(rng.uniform(0.05, 0.5)), quad, perturbed=True)
        rep = run_experiment(cfg)
        failed += not rep.passed
        worst = max(worst, rep.max_ratio)
    exact = run_experiment(_orthogonal_cfg(99, 0.0, (0.4, -0.2), perturbed=False))
    elapsed = time.perf_counter() - t0
    ok = failed == 0 and worst <= 1.0 + REL_TOL
    ok &= exact.passed and exact.max_deviation <= 1e-8
    _verdict(
        capsys,
        "07 odd/even decomposition on orthogonal pairs, 20 configs",
        ok,
        f"worst ratio {worst:.3g}, exact residual {exact.max_deviation:.2g}, {elapsed:.1f}s",
    )


# --- 08 ---------------------------------------------------------------------


def test_08_ball_extension(capsys):
    t0 = time.perf_counter()
    f = FunctionModel(domain=E3, codomain=E1, linear=L13, quadratic=[0.3])
    cfg = SikorskaConfig(params=JensenParams(2, 2, 2), ball_radius=1.0)
    res = sikorska_extend(f, cfg, E3, count=512, seed=3)
    ok = np.max(np.abs(res.T_hat.linear - L13)) <= 1e-6
    ok &= np.max(np.abs(res.b_hat.values[:, 0] - 0.3 * res.b_hat.knots)) <= 1e-6
    ok &= res.iterations["fit_converged"]

    slow = SikorskaConfig(params=JensenParams(4, 3, 3), ball_radius=1.0, exclude_origin=True)
    lin = FunctionModel(domain=E3, codomain=E1, linear=L13)
    res2 = sikorska_extend(lin, slow, E3, count=192, seed=5)
    ok &= slow.base == 9.0 / 8.0
    ok &= res2.max_residual <= 1e-5

    ok &= scaling_identity_check(lin, JensenParams(4, 3, 3), E3, 2.0, 200, seed=1) <= 1e-9
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    _verdict(
        capsys,
        "08 ball extension and scaling identity",
        ok,
        f"residuals {res.max_residual:.2g}/{res2.max_residual:.2g}, {elapsed:.1f}s",
    )


# --- 09 ---------------------------------------------------------------------


def test_09_replay_determinism(capsys):
    t0 = time.perf_counter()
    first = _CACHE.get("exterior_jsons")
    if first is None:
        first, _ = _run_exterior_suite()
    second, _ = _run_exterior_suite()
    ok = len(first) == len(second) == 50 and all(a == b for a, b in zip(first, second))
    elapsed = time.perf_counter() - t0
    _verdict(
        capsys,
        "09 byte-identical replay of the exterior suite",
        ok,
        f"{elapsed:.1f}s",
    )


# --- 10 ---------------------------------------------------------------------


def _search_configs():
    p211 = JensenParams(2, 1, 1)
    mixed = ControlFunctionSpec(kind="mixed", epsilon=0.3, delta=0.2, p=0.5)
    const = lambda e: ControlFunctionSpec(kind="constant", epsilon=e)
    cor22 = ExperimentConfig(
        theorem_id="cor2_2",
        space=E3,
        codomain=E2,
        params=p211,
        control=mixed,
        domain=DomainRestriction(kind="full"),
        sampler=SamplerSettings(count=80, seed=21, radius_range=(0.05, 6.0)),
        model=ModelSettings(perturbations=calibrated_perturbations(p211, mixed, seed=77)),
    )
    thm43 = ExperimentConfig(
        theorem_id="thm4_3",
        space=E3,
        codomain=E2,
        params=JensenParams(3, 2, 1),
        control=const(0.4),
        domain=DomainRestriction(kind="punctured"),
        sampler=SamplerSettings(count=80, seed=22, radius_range=(0.2, 5.0)),
        model=ModelSettings(
            perturbations=calibrated_perturbations(JensenParams(3, 2, 1), const(0.4), seed=78)
        ),
    )
    thm31 = ExperimentConfig(
        theorem_id="thm3_1",
        space=E3,
        codomain=E2,
        params=p211,
        control=const(0.5),
        domain=DomainRestriction(kind="exterior", d=1.5),
        sampler=SamplerSettings(count=60, seed=23, radius_range=(0.05, 8.0), pair_count=300),
        model=ModelSettings(perturbations=calibrated_perturbations(p211, const(0.5), seed=79)),
    )
    thm52 = ExperimentConfig(
        theorem_id="thm5_2",
        space=E3,
        codomain=E2,
        params=JensenParams(1, 1, 1),
        control=const(0.3),
        domain=DomainRestriction(
            kind="orthogonal", relation=OrthogonalityRelation(kind="inner_product")
        ),
        sampler=SamplerSettings(count=60, seed=24, radius_range=(0.1, 4.0)),
        model=ModelSettings(
            quadratic=(0.4, -0.2),
            seed=9,
            perturbations=calibrated_perturbations(JensenParams(1, 1, 1), const(0.3), seed=80),
        ),
    )
    return [
        (cor22, SearchSettings(iterations=350, restarts=5)),
        (thm43, SearchSettings(iterations=250, restarts=5)),
        (thm31, SearchSettings(iterations=200, restarts=4)),
        (thm52, SearchSettings(iterations=200, restarts=4)),
    ]


def test_10_negative_controls_and_search(capsys):
    t0 = time.perf_counter()
    quad = FunctionModel(domain=E3, codomain=E2, linear=np.zeros((2, 3)), quadratic=(1.0, -0.5))
    X = np.random.default_rng(2).uniform(0.5, 2.0, size=(10, 3))
    _, _, gaps, converged = dyadic_limit_many(quad, X, n_max=30)
    ok = not np.any(converged) and np.all(np.isfinite(gaps))

    noisy = FunctionModel(
        domain=E3,
        codomain=E1,
        linear=L13,
        perturbations=(
            __import__("jensenlab").PerturbationSpec(kind="bounded", amplitude=0.05, seed=3),
        ),
    )
    prof = asymptotic_profile(
        noisy, JensenParams(2, 1, 1), E3, (0.5, 1.0, 2.0, 4.0, 8.0, 16.0), 200, rng_from(5, "prof")
    )
    ok &= not prof.is_decaying(1e-3)
    ok &= prof.sup_defect[-1] > 1e-3

    total_evals = 0
    worst = 0.0
    for cfg, settings in _search_configs():
        out = adversarial_search(cfg, settings)
        total_evals += out["evaluations"]
        worst = max(worst, out["worst_ratio"])
    ok &= total_evals == 1000
    ok &= worst <= 1.0 + REL_TOL
    elapsed = time.perf_counter() - t0
    _verdict(
        capsys,
        "10 negative controls and adversarial search",
        ok,
        f"{total_evals} evaluations, worst ratio {worst:.3g}, {elapsed:.1f}s",
    )
