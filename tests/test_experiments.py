import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jensenlab import experiments
from jensenlab.control import ControlFunctionSpec, RadialControlTable
from jensenlab.domains import DomainRestriction
from jensenlab.experiments import (
    BallSettings,
    ConfigError,
    ExperimentConfig,
    ModelSettings,
    SamplerSettings,
    SearchSettings,
    ShellSettings,
    adversarial_search,
    build_models,
    calibrated_perturbations,
    config_to_dict,
    emit_report,
    measure_epsilon,
    parse_config,
    parse_experiment,
    run_experiment,
)
from jensenlab.models import JensenParams, PerturbationSpec
from jensenlab.sampling import rng_from, sample_pairs
from jensenlab.series import cor22_bound_norms
from jensenlab.models import jensen_defect_many
from jensenlab.control import control_phi_norms
from jensenlab.spaces import (
    NormedSpaceSpec,
    OrthogonalityRelation,
    euclidean_space,
    norm_many,
)

E3 = euclidean_space(3)
E2 = euclidean_space(2)
X_PROBE = np.array([1.0, 0.0, 0.0])


def _cfg(theorem_id, **over):
    """A small valid config per theorem id, overridable field by field."""
    defaults = {
        "thm5_2": JensenParams(1, 1, 1),
        "thm6_1": JensenParams(2, 2, 2),
        "thm6_2": JensenParams(4, 3, 3),
    }
    params = over.get("params", defaults.get(theorem_id, JensenParams(2, 1, 1)))
    control = over.get("control", ControlFunctionSpec(kind="constant", epsilon=0.3))
    model = over.get("model")
    if model is None:
        model = ModelSettings(
            perturbations=calibrated_perturbations(params, control, seed=2)
        )
    base = dict(
        theorem_id=theorem_id,
        space=E3,
        codomain=E2,
        params=params,
        control=control,
        domain=DomainRestriction(kind="full"),
        sampler=SamplerSettings(count=160, seed=11, radius_range=(0.05, 6.0)),
        model=model,
    )
    if theorem_id == "thm3_1":
        base["domain"] = DomainRestriction(kind="exterior", d=2.0)
        base["sampler"] = SamplerSettings(
            count=160, seed=11, radius_range=(0.05, 6.0), pair_count=400
        )
    if theorem_id == "cor3_2":
        base["shells"] = ShellSettings(edges=(0.5, 1.0, 2.0, 4.0, 8.0), samples_per_shell=120)
        base["expected_decay"] = False
    if theorem_id in ("prop4_1", "prop4_2", "thm4_3"):
        base["domain"] = DomainRestriction(kind="punctured")
        base["sampler"] = SamplerSettings(count=160, seed=11, radius_range=(0.2, 6.0))
    if theorem_id == "thm5_2":
        base["domain"] = DomainRestriction(
            kind="orthogonal",
            relation=__import__("jensenlab").OrthogonalityRelation(kind="inner_product"),
        )
        if "model" not in over:
            base["model"] = ModelSettings(
                quadratic=[0.4, -0.2],
                perturbations=calibrated_perturbations(params, control, seed=2),
            )
    if theorem_id in ("thm6_1", "thm6_2"):
        base["codomain"] = euclidean_space(1)
        base["control"] = over.get(
            "control", ControlFunctionSpec(kind="constant", epsilon=0.0)
        )
        base["ball"] = BallSettings(radius=1.0, exclude_origin=theorem_id == "thm6_2")
        base["sampler"] = SamplerSettings(count=160, seed=11, radius_range=(0.0, 1.0))
        if "model" not in over:
            base["model"] = ModelSettings(
                quadratic=[0.25] if theorem_id == "thm6_1" else None
            )
    base.update(over)
    return ExperimentConfig(**base)


def bound_formula(theorem_id, params, control, space, x, role="f"):
    """A role's bound in the theorem table at the point x, with ε̂ = control.epsilon."""
    cfg = _cfg(theorem_id, params=params, control=control, space=space)
    nx = norm_many(space, np.asarray(x, dtype=np.float64)[None, :])
    k = experiments._Run(cfg, None, None, None, control.epsilon, nx)
    (bound,) = [b for name, _, b in experiments._THEOREMS[theorem_id].roles if name == role]
    return float(bound(k)[0])


class TestBoundFormula:
    CONST = ControlFunctionSpec(kind="constant", epsilon=1.0)

    def test_thm3_1_flat_bound(self):
        v = bound_formula("thm3_1", JensenParams(3, 1, 1), self.CONST, E3, X_PROBE)
        assert v == pytest.approx(5.0, rel=1e-14)

    def test_thm4_3_roles(self):
        params = JensenParams(1, 2, 3)
        odd = bound_formula("thm4_3", params, self.CONST, E3, X_PROBE, role="odd")
        even = bound_formula("thm4_3", params, self.CONST, E3, X_PROBE, role="even")
        total = bound_formula("thm4_3", params, self.CONST, E3, X_PROBE, role="total")
        assert odd == pytest.approx(5.0 / 6.0, rel=1e-14)
        assert even == pytest.approx(2.0, rel=1e-14)
        assert total == pytest.approx(17.0 / 6.0, rel=1e-14)

    def test_thm5_2_constants(self):
        half = ControlFunctionSpec(kind="constant", epsilon=0.5)
        params = JensenParams(1, 1, 1)
        assert bound_formula("thm5_2", params, half, E3, X_PROBE, role="f") == pytest.approx(34.0)
        assert bound_formula("thm5_2", params, half, E3, X_PROBE, role="g") == pytest.approx(40.0)
        assert bound_formula("thm5_2", params, half, E3, X_PROBE, role="h") == pytest.approx(40.0)

    def test_thm2_1_roles_constant_control(self):
        params = JensenParams(2, 1, 1)
        f = bound_formula("thm2_1", params, self.CONST, E3, X_PROBE, role="f")
        g = bound_formula("thm2_1", params, self.CONST, E3, X_PROBE, role="g")
        h = bound_formula("thm2_1", params, self.CONST, E3, X_PROBE, role="h")
        assert f == pytest.approx(1.5, rel=1e-14)
        assert g == pytest.approx(4.0, rel=1e-14)
        assert h == pytest.approx(4.0, rel=1e-14)

    def test_prop4_roles_constant_control(self):
        params = JensenParams(2, 1, 1)
        assert bound_formula("prop4_1", params, self.CONST, E3, X_PROBE, role="f") == pytest.approx(1.5)
        assert bound_formula("prop4_1", params, self.CONST, E3, X_PROBE, role="g") == pytest.approx(2.5)
        assert bound_formula("prop4_2", params, self.CONST, E3, X_PROBE, role="f") == pytest.approx(1.0)
        assert bound_formula("prop4_2", params, self.CONST, E3, X_PROBE, role="g_h") == pytest.approx(1.0)

    def test_cor2_2_matches_series_module(self):
        params = JensenParams(3, 2, 1)
        mixed = ControlFunctionSpec(kind="mixed", epsilon=0.4, delta=0.7, p=0.5)
        for radius in (0.2, 1.0, 5.0):
            x = radius * X_PROBE
            got = bound_formula("cor2_2", params, mixed, E3, x)
            want = cor22_bound_norms(params, 0.4, 0.7, 0.5, norm_many(E3, x[None, :]))[0]
            assert got == pytest.approx(want, rel=1e-12)

    def test_exactness_theorems_have_no_bound(self):
        # thm6_1/thm6_2 are exactness statements: no table entry, no ε bound
        assert {"thm6_1", "thm6_2"}.isdisjoint(experiments._THEOREMS)
        assert set(experiments.THEOREM_IDS) == set(experiments._THEOREMS) | {
            "cor3_2", "thm6_1", "thm6_2"}
        assert len(experiments.THEOREM_IDS) == 10


# Numbers as a config may write them: ints stay ints through a round trip.
MAGNITUDE = st.integers(0, 5) | st.floats(0.0, 5.0)
FINITE = st.integers(-10, 10) | st.floats(-1e6, 1e6)
EXPONENT = st.just(0) | st.floats(0.0, 0.99)
SEED = st.integers(0, 2**64 - 1)


def _spaces(dim):
    return st.builds(
        NormedSpaceSpec, st.just(dim), st.sampled_from(["euclidean", "sup"])
    ) | st.builds(NormedSpaceSpec, st.just(dim), st.just("p_norm"), st.integers(1, 4))


def _vectors(n):
    return st.lists(FINITE, min_size=n, max_size=n).map(tuple)


@st.composite
def _configs(draw):
    """Valid experiment configs for every theorem id."""
    tid = draw(st.sampled_from(experiments.THEOREM_IDS))
    dim, codim, s = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    if tid in ("thm6_1", "thm6_2"):  # s = t and 2(s/r)^2 > 1
        params = JensenParams(draw(st.integers(1, s)), s, s)
    else:
        params = JensenParams(draw(st.integers(1, 5)), s, draw(st.integers(1, 4)))
    kinds = ["constant", "mixed", "table"] if tid == "thm2_1" else ["constant", "mixed"]
    kind = "constant" if tid in ("thm3_1", "thm4_3", "thm5_2") else draw(st.sampled_from(kinds))
    if kind == "table":
        radii = np.cumsum([0.0] + draw(st.lists(st.floats(0.01, 3.0), min_size=1, max_size=4)))
        values = draw(st.lists(MAGNITUDE, min_size=radii.size, max_size=radii.size))
        q = draw(st.integers(-2, 0) | st.floats(-2.0, 0.99))
        control = ControlFunctionSpec(kind="table", table=RadialControlTable(radii, values, q))
    else:
        control = ControlFunctionSpec(
            kind=kind, epsilon=draw(MAGNITUDE), delta=draw(MAGNITUDE), p=draw(EXPONENT)
        )
    domain = DomainRestriction(kind=draw(st.sampled_from(["full", "punctured"])))
    if tid in ("thm2_1", "cor2_2"):
        domain = DomainRestriction(kind="full")
    if tid in ("prop4_1", "prop4_2", "thm4_3"):
        domain = DomainRestriction(kind="punctured")
    if tid == "thm3_1":
        domain = DomainRestriction(kind="exterior", d=draw(st.integers(1, 5) | st.floats(0.1, 5.0)))
    space = draw(_spaces(dim))
    if tid == "thm5_2":
        kinds = ["trivial"]
        if dim > 1:  # on a line only y = 0 is orthogonal to x != 0
            kinds += ["birkhoff_james"] + (["inner_product"] if space.has_inner_product else [])
        kind = draw(st.sampled_from(kinds))
        relation = OrthogonalityRelation(kind, draw(st.floats(1e-12, 1.0)))
        domain = DomainRestriction(kind="orthogonal", relation=relation)
    lo = draw(st.integers(1, 2) | st.floats(0.01, 2.0))
    lo = lo if domain.kind == "punctured" else draw(st.just(0) | st.just(lo))
    perturbation = st.builds(
        PerturbationSpec,
        st.sampled_from(["none", "bounded", "power", "decay"]),
        MAGNITUDE, MAGNITUDE, EXPONENT, SEED,
    )
    cor3_2 = tid == "cor3_2" or draw(st.booleans())
    return ExperimentConfig(
        theorem_id=tid,
        space=space,
        codomain=draw(_spaces(codim)),
        params=params,
        control=control,
        domain=domain,
        sampler=SamplerSettings(
            count=draw(st.integers(1, 10**6)),
            seed=draw(SEED),
            radius_range=(lo, lo + draw(st.integers(1, 10) | st.floats(0.01, 10.0))),
            pair_count=draw(st.none() | st.integers(1, 1000)),
        ),
        limits=experiments.LimitSettings(
            n_max=draw(st.none() | st.integers(1, 60)), tol=draw(st.floats(1e-15, 1.0))
        ),
        model=ModelSettings(
            linear=draw(st.none() | st.lists(_vectors(dim), min_size=codim, max_size=codim).map(tuple)),
            linear_scale=draw(FINITE),
            quadratic=draw(st.none() | _vectors(codim)),
            perturbations=tuple(draw(st.lists(perturbation, max_size=3))),
            seed=draw(st.none() | SEED),
        ),
        ball=draw(
            st.builds(BallSettings, st.integers(1, 5) | st.floats(0.1, 5.0), st.booleans())
            if tid in ("thm6_1", "thm6_2") else st.none()
        ),
        residual_tol=draw(st.floats(1e-12, 1.0)),
        decay_tol=draw(st.floats(1e-12, 1.0)),
        expected_decay=draw(st.booleans()) if cor3_2 else None,
        shells=ShellSettings(
            edges=(0.5, 1, 2.5), samples_per_shell=draw(st.integers(1, 100))
        ) if cor3_2 else None,
    )


def _schema_markdown() -> str:
    """The README's config field tables, rendered from the schema."""
    out, seen = [], set()

    def walk(name, sec, prefix):
        if id(sec) in seen:
            return
        seen.add(id(sec))
        out.extend([f"#### `{name}`", "", "| key | type | default | constraint |",
                    "|---|---|---|---|"])
        for f in sec.fields:
            default = "required" if f.default is experiments._REQUIRED else (
                f"`{json.dumps(f.default, ensure_ascii=False)}`")
            out.append(f"| `{f.key}` | {experiments._type_name(f.type)} | {default} | {f.note} |")
        out.append("")
        for f in sec.fields:
            t = f.type[0] if isinstance(f.type, list) else f.type
            if isinstance(t, experiments._Section):
                child = prefix + f.key + ("[i]" if isinstance(f.type, list) else "")
                walk(child, t, child + ".")

    walk("experiment", experiments._EXPERIMENT, "")
    return "\n".join(out)


class TestConfigParsing:
    def test_round_trip(self):
        cfg = _cfg("cor2_2")
        d = config_to_dict(cfg)
        again = parse_experiment(json.loads(json.dumps(d)))
        assert config_to_dict(again) == d

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(cfg=_configs())
    def test_round_trip_property(self, cfg):
        text = json.dumps(config_to_dict(cfg), sort_keys=True)
        again = config_to_dict(parse_experiment(json.loads(text)))
        assert json.dumps(again, sort_keys=True) == text

    def test_relation_grid_accepted_and_dropped(self):
        d = config_to_dict(_cfg("thm5_2"))
        grid = {"lambda_min": -1e4, "lambda_max": 1e4, "steps": 4096}
        d["domain"]["relation"] = {"kind": "birkhoff_james", "grid": grid}
        out = config_to_dict(parse_experiment(d))
        assert out["domain"]["relation"] == {"kind": "birkhoff_james", "tolerance": 1e-9}
        d["domain"]["relation"]["grid"] = {"steps": "x"}
        with pytest.raises(ConfigError, match=r"domain\.relation\.grid\.steps"):
            parse_experiment(d)

    def test_number_fields_keep_ints(self):
        d = config_to_dict(_cfg("cor2_2"))
        d["control"]["epsilon"] = 0
        d["sampler"]["radius_range"] = [0, 6]
        text = json.dumps(config_to_dict(parse_experiment(d)), sort_keys=True)
        assert '"epsilon": 0,' in text and '"radius_range": [0, 6]' in text

    def test_readme_field_tables_match_schema(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        assert _schema_markdown() in readme.read_text(encoding="utf-8")

    def test_unknown_key_rejected(self):
        d = config_to_dict(_cfg("cor2_2"))
        d["sampler"]["cuont"] = 5
        with pytest.raises(ConfigError, match="cuont"):
            parse_experiment(d)

    def test_schema_version_checked(self):
        doc = {"schema_version": 2, "experiments": [config_to_dict(_cfg("cor2_2"))]}
        with pytest.raises(ConfigError, match="schema_version"):
            parse_config(doc)

    def test_empty_experiments_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"schema_version": 1, "experiments": []})

    def test_domain_theorem_mismatches(self):
        bad = [
            _cfg("thm3_1", domain=DomainRestriction(kind="full")),
            _cfg("prop4_1", domain=DomainRestriction(kind="full")),
            _cfg(
                "prop4_2",
                domain=DomainRestriction(kind="punctured"),
                sampler=SamplerSettings(count=40, seed=1, radius_range=(0.0, 2.0)),
            ),
            _cfg("thm6_1", params=JensenParams(2, 2, 1)),
            _cfg("thm6_2", params=JensenParams(7, 3, 3)),  # base 2(s/r)^2 <= 1
            _cfg("thm5_2", space=NormedSpaceSpec(3, "sup")),  # inner_product needs a euclidean space
            _cfg("thm5_2", space=euclidean_space(1)),  # no y != 0 is orthogonal to x != 0
            _cfg("cor3_2", shells=None),
        ]
        for cfg in bad:
            with pytest.raises(ConfigError):
                run_experiment(cfg)

    def test_table_control_only_for_thm2_1(self):
        table = ControlFunctionSpec(
            kind="table",
            table=RadialControlTable(radii=[0.0, 10.0], values=[0.2, 0.2], q=0.0),
        )
        rep = run_experiment(_cfg("thm2_1", control=table, model=ModelSettings()))
        assert rep.passed
        with pytest.raises(ConfigError):
            run_experiment(_cfg("cor2_2", control=table, model=ModelSettings()))


class TestCalibration:
    @pytest.mark.parametrize(
        "params,control",
        [
            (JensenParams(1, 1, 1), ControlFunctionSpec(kind="constant", epsilon=0.5)),
            (JensenParams(2, 3, 1), ControlFunctionSpec(kind="mixed", epsilon=0.4, delta=0.3, p=0.5)),
            (JensenParams(5, 2, 4), ControlFunctionSpec(kind="mixed", epsilon=0.2, delta=0.8, p=0.0)),
        ],
    )
    def test_defect_stays_under_control(self, params, control):
        cfg = _cfg("thm2_1", params=params, control=control,
                   model=ModelSettings(perturbations=calibrated_perturbations(params, control, seed=7)))
        f, g, h = build_models(cfg)
        X, Y = sample_pairs(E3, 800, (0.0, 12.0), rng_from(3, "cal"))
        defect = jensen_defect_many(f, g, h, params, X, Y)
        phi = control_phi_norms(control, norm_many(E3, X), norm_many(E3, Y))
        assert np.all(defect <= phi * (1.0 + 1e-9) + 1e-12)

    def test_rejects_table_control(self):
        table = ControlFunctionSpec(
            kind="table",
            table=RadialControlTable(radii=[0.0, 1.0], values=[0.1, 0.1], q=0.0),
        )
        with pytest.raises(ConfigError):
            calibrated_perturbations(JensenParams(1, 1, 1), table)


def test_measure_epsilon_exact_model_is_zero():
    cfg = _cfg("cor2_2", model=ModelSettings())
    f, g, h = build_models(cfg)
    X, Y = sample_pairs(E3, 200, (0.1, 4.0), rng_from(1, "meas"))
    eps_hat, witness = measure_epsilon(cfg, f, g, h, X, Y)
    assert eps_hat <= 1e-10
    assert set(witness) == {"defect", "x", "y"}


def test_measure_epsilon_below_declared():
    cfg = _cfg("cor2_2")
    f, g, h = build_models(cfg)
    X, Y = sample_pairs(E3, 400, (0.1, 6.0), rng_from(2, "meas"))
    eps_hat, _ = measure_epsilon(cfg, f, g, h, X, Y)
    assert 0.0 < eps_hat <= cfg.control.epsilon * (1.0 + 1e-9)


ALL_IDS = (
    "thm2_1", "cor2_2", "thm3_1", "cor3_2", "prop4_1",
    "prop4_2", "thm4_3", "thm5_2", "thm6_1", "thm6_2",
)


@pytest.mark.parametrize("tid", ALL_IDS)
def test_run_experiment_smoke(tid):
    rep = run_experiment(_cfg(tid))
    assert rep.theorem_id == tid
    assert rep.passed, (tid, rep.max_ratio, rep.details)
    assert rep.max_ratio <= 1.0 + 1e-7


def test_diverged_points_count_points():
    # thm5_2 iterates two limits per point (T and Q); a point counts once
    cfg = _cfg("thm5_2", limits=experiments.LimitSettings(n_max=3))
    rep = run_experiment(cfg)
    assert rep.failed_checks == ("converged",) and not rep.passed
    assert rep.details["diverged_points"] == cfg.sampler.count
    assert rep.iterations["converged_fraction"] == 0.0


def test_huge_finite_perturbation_runs():
    # 3·amplitude/tol overflows to inf in the iteration-count estimate.  The
    # sup norm keeps the defect finite; the euclidean one squares it to inf.
    huge = PerturbationSpec(kind="bounded", amplitude=1e300, seed=1)
    cfg = _cfg("cor2_2", codomain=NormedSpaceSpec(2, "sup"), model=ModelSettings(perturbations=(huge,)),
               sampler=SamplerSettings(count=8, seed=1, radius_range=(0.1, 2.0)))
    assert run_experiment(cfg).iterations["max_iterations"] <= 600
    with pytest.raises(ConfigError, match="overflows"):
        run_experiment(replace(cfg, codomain=E2))


def test_cor3_2_decay_verdict_for_exact_model():
    cfg = _cfg(
        "cor3_2",
        control=ControlFunctionSpec(kind="constant", epsilon=0.0),
        model=ModelSettings(),
        expected_decay=True,
    )
    rep = run_experiment(cfg)
    assert rep.passed
    assert rep.details["decays"] is True


def test_report_json_round_trip_and_determinism():
    cfg = _cfg("cor2_2")
    rep1 = run_experiment(cfg)
    rep2 = run_experiment(cfg)
    js1 = emit_report(rep1, fmt="json")
    js2 = emit_report(rep2, fmt="json")
    assert js1 == js2
    assert "runtime" not in json.loads(js1)
    assert json.dumps(json.loads(js1), indent=2, sort_keys=True) + "\n" == js1
    doc = json.loads(js1)
    assert doc["schema_version"] == 1
    assert doc["pass"] is True


EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e300, -1e-300]


@given(
    st.integers(0, 5),
    st.integers(1, 4),
    st.lists(st.sampled_from(["f", "g", "h", "g_h", "odd"]), min_size=1, max_size=3, unique=True),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_emitter_matches_json_dumps(n, dim, roles, data):
    def column(*shape):
        size = int(np.prod(shape))
        floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
        return np.array(data.draw(st.lists(floats, min_size=size, max_size=size))).reshape(shape)

    role = data.draw(st.lists(st.integers(0, len(roles) - 1), min_size=n, max_size=n))
    rows = experiments._Rows(
        column(n, dim), tuple(roles), np.array(role, dtype=int), column(n), column(n), column(n)
    )
    rep = experiments.StabilityReport(
        theorem_id="thm2_1", config={"seed": 1}, epsilon_effective=0.3, bound_value=math.inf,
        max_deviation=-0.0, max_ratio=math.nan, passed=False,
        witnesses=[rows.row(i) for i in range(min(n, 3))], samples=rows,
        details={"edge": EDGE_FLOATS}, iterations={"max_iterations": 0},
        runtime={"seconds": 0.25},
    )
    for include_runtime in (False, True):
        dumped = json.dumps(rep.to_dict(include_runtime), indent=2, sort_keys=True,
                            default=experiments._json_default)
        assert emit_report(rep, include_runtime=include_runtime) == dumped + "\n"


def test_report_includes_runtime_only_on_request():
    rep = run_experiment(_cfg("cor2_2"))
    with_rt = json.loads(emit_report(rep, fmt="json", include_runtime=True))
    assert "runtime" in with_rt and "seconds" in with_rt["runtime"]


def test_report_csv_rows():
    cfg = _cfg("cor2_2")
    rep = run_experiment(cfg)
    lines = emit_report(rep, fmt="csv").strip().split("\n")
    assert len(lines) == cfg.sampler.count + 1
    assert lines[0].split(",")[:3] == ["theorem_id", "index", "role"]


def test_adversarial_search_is_deterministic_and_bounded():
    cfg = _cfg("cor2_2", sampler=SamplerSettings(count=80, seed=13, radius_range=(0.05, 6.0)))
    settings = SearchSettings(iterations=10, restarts=2)
    out1 = adversarial_search(cfg, settings)
    out2 = adversarial_search(cfg, settings)
    assert out1 == out2
    assert out1["evaluations"] == 10
    assert out1["worst_ratio"] <= 1.0 + 1e-7
    assert out1["config"] is not None


@pytest.mark.parametrize("iterations, restarts", [(5, 0), (0, 0), (-1, 1), (2, 3)])
def test_search_settings_reject_empty_restarts(iterations, restarts):
    # restarts=0 used to run no evaluation and report worst_ratio -1.0
    with pytest.raises(ConfigError, match="restarts <= iterations"):
        SearchSettings(iterations=iterations, restarts=restarts)
