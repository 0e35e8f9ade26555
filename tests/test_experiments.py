import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import given, settings, strategies as st

from jensenlab import experiments
from jensenlab.control import ControlFunctionSpec, RadialControlTable
from jensenlab.domains import DomainRestriction
from jensenlab.experiments import (
    BallSettings,
    ConfigError,
    ExperimentConfig,
    LimitSettings,
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
    run_experiment,
)
from jensenlab.models import JensenParams, PerturbationSpec
from report_reference import csv_by_repr
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


def _parse_experiment(d: dict):
    """One experiment section parsed alone: its error paths name keys from the section."""
    return experiments._parse(experiments._EXPERIMENT, d, "")


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
    k = experiments._Run(cfg, control.epsilon, nx)
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
            want = cor22_bound_norms(params, mixed, norm_many(E3, x[None, :]))[0]
            assert got == pytest.approx(want, rel=1e-12)

    def test_exactness_theorems_have_no_bound(self):
        # cor3_2 and thm6_1/thm6_2 have runners of their own: no limit, no roles, no ε bound
        for tid in ("cor3_2", "thm6_1", "thm6_2"):
            thm = experiments._THEOREMS[tid]
            assert thm.limit is None and thm.roles == () and thm.run is not None
        limit_ids = [tid for tid, thm in experiments._THEOREMS.items() if thm.run is None]
        assert limit_ids == ["thm2_1", "cor2_2", "thm3_1", "prop4_1", "prop4_2", "thm4_3", "thm5_2"]
        assert experiments.THEOREM_IDS == tuple(experiments._THEOREMS)
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
    # on a line only y = 0 is orthogonal to x != 0, so thm5_2 needs dim >= 2
    dim = draw(st.integers(2 if tid == "thm5_2" else 1, 3))
    codim, s = draw(st.integers(1, 3)), draw(st.integers(1, 4))
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
        control = ControlFunctionSpec(kind="table", epsilon=draw(MAGNITUDE),
                                      table=RadialControlTable(radii, values, q))
    else:  # δ and p are read by a mixed control only
        mixed = kind == "mixed"
        control = ControlFunctionSpec(
            kind=kind, epsilon=draw(MAGNITUDE), delta=draw(MAGNITUDE) if mixed else 0.0,
            p=draw(EXPONENT) if mixed else 0.0,
        )
    domain = DomainRestriction(kind="full")
    if tid in ("prop4_1", "prop4_2", "thm4_3"):
        domain = DomainRestriction(kind="punctured")
    if tid == "thm3_1":
        domain = DomainRestriction(kind="exterior", d=draw(st.integers(1, 5) | st.floats(0.1, 5.0)))
    space = draw(_spaces(dim))
    if tid == "thm5_2":
        kinds = ["trivial", "birkhoff_james"] + (["inner_product"] if space.has_inner_product else [])
        kind = draw(st.sampled_from(kinds))
        relation = OrthogonalityRelation(kind, draw(st.floats(1e-12, 1.0)))
        domain = DomainRestriction(kind="orthogonal", relation=relation)
    lo = draw(st.integers(1, 2) | st.floats(0.01, 2.0))
    lo = lo if domain.kind == "punctured" else draw(st.just(0) | st.just(lo))
    # amplitude is read by bounded and decay terms, delta and p by power terms only
    perturbation = st.builds(
        PerturbationSpec, st.just("none"), MAGNITUDE, MAGNITUDE, EXPONENT, SEED,
    ) | st.builds(
        PerturbationSpec, st.sampled_from(["bounded", "decay"]), MAGNITUDE, seed=SEED,
    ) | st.builds(
        PerturbationSpec, st.just("power"), delta=MAGNITUDE, p=EXPONENT, seed=SEED,
    )
    cor3_2 = tid == "cor3_2"  # the only id that reads shells and expected_decay
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
            st.builds(BallSettings, st.integers(1, 5) | st.floats(0.1, 5.0),
                      st.just(tid == "thm6_2"))  # only thm6_2's ball is punctured
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
        again = _parse_experiment(json.loads(json.dumps(d)))
        assert config_to_dict(again) == d

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(cfg=_configs())
    def test_round_trip_property(self, cfg):
        text = json.dumps(config_to_dict(cfg), sort_keys=True)
        again = config_to_dict(_parse_experiment(json.loads(text)))
        assert json.dumps(again, sort_keys=True) == text

    def test_relation_grid_refused(self):
        # the λ grid of old configs was never read: it is an unknown key now
        d = config_to_dict(_cfg("thm5_2"))
        assert d["domain"]["relation"] == {"kind": "inner_product", "tolerance": 1e-9}
        for grid in ({"lambda_min": -1e4, "lambda_max": 1e4, "steps": 4096}, {}):
            d["domain"]["relation"]["grid"] = grid
            with pytest.raises(ConfigError, match=r"unknown key.*domain\.relation\.grid'"):
                _parse_experiment(d)

    def test_number_fields_keep_ints(self):
        d = config_to_dict(_cfg("cor2_2"))
        d["control"]["epsilon"] = 0
        d["sampler"]["radius_range"] = [0, 6]
        text = json.dumps(config_to_dict(_parse_experiment(d)), sort_keys=True)
        assert '"epsilon": 0,' in text and '"radius_range": [0, 6]' in text

    def test_readme_field_tables_match_schema(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        assert _schema_markdown() in readme.read_text(encoding="utf-8")

    def test_unknown_key_rejected(self):
        d = config_to_dict(_cfg("cor2_2"))
        d["sampler"]["cuont"] = 5
        with pytest.raises(ConfigError, match="cuont"):
            _parse_experiment(d)

    def test_schema_version_checked(self):
        doc = {"schema_version": 2, "experiments": [config_to_dict(_cfg("cor2_2"))]}
        with pytest.raises(ConfigError, match="schema_version"):
            parse_config(doc)

    def test_empty_experiments_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"schema_version": 1, "experiments": []})

    @staticmethod
    def _refused(tid, over, key):
        """_cfg(tid) with the overrides is refused when it is built and when its
        dict is parsed, with one message that names key."""
        with pytest.raises(ConfigError, match=key) as built:
            _cfg(tid, **over)
        d = config_to_dict(_cfg(tid))
        types = {f.key: f.type for f in experiments._EXPERIMENT.fields}
        d.update({k: experiments._emit_value(types[k], v) for k, v in over.items()})
        with pytest.raises(ConfigError, match=key) as parsed:
            _parse_experiment(d)
        assert str(parsed.value) == str(built.value)

    MISMATCHES = [
        ("thm3_1", {"domain": DomainRestriction(kind="full")}, "domain.kind"),
        ("prop4_1", {"domain": DomainRestriction(kind="full")}, "domain.kind"),
        ("prop4_2", {"sampler": SamplerSettings(count=40, seed=1, radius_range=(0.0, 2.0))},
         "positive lower sampling radius"),
        ("thm6_1", {"params": JensenParams(2, 2, 1)}, "s = t"),
        ("thm6_2", {"params": JensenParams(7, 3, 3)}, "base"),  # 2(s/r)^2 <= 1
        ("thm5_2", {"space": NormedSpaceSpec(3, "sup")}, "euclidean space"),
        ("thm5_2", {"space": euclidean_space(1)}, "space.dim"),  # y ⊥ x != 0 forces y = 0
        ("cor3_2", {"shells": None}, "needs shells"),
        ("cor2_2", {"model": ModelSettings(), "control": ControlFunctionSpec(
            kind="table", table=RadialControlTable(radii=[0.0, 1.0], values=[0.2, 0.2], q=0.0))},
         "constant or mixed controls"),
    ]

    def test_domain_theorem_mismatches(self):
        for tid, over, key in self.MISMATCHES:
            self._refused(tid, over, key)

    SHELLS = ShellSettings(edges=(0.5, 1.0, 2.0), samples_per_shell=10)

    @pytest.mark.parametrize("tid, over, key", [
        ("cor3_2", {"domain": DomainRestriction(kind="punctured")}, "domain.kind"),
        ("cor3_2", {"domain": DomainRestriction(kind="exterior", d=1.0)}, "domain.kind"),
        ("thm6_1", {"domain": DomainRestriction(
            kind="orthogonal", relation=OrthogonalityRelation("trivial"))}, "domain.kind"),
        ("thm6_2", {"domain": DomainRestriction(kind="punctured")}, "domain.kind"),
        ("thm2_1", {"ball": BallSettings(radius=1.0)}, "ball"),
        ("thm2_1", {"shells": SHELLS}, "shells"),
        ("thm2_1", {"expected_decay": True}, "expected_decay"),
        ("thm6_1", {"shells": SHELLS, "expected_decay": False}, "shells"),
        ("cor3_2", {"ball": BallSettings(radius=1.0)}, "ball"),
        ("cor3_2", {"expected_decay": None}, "expected_decay"),
        ("thm6_2", {"ball": None}, "ball"),
    ])
    def test_every_id_checks_its_domain_and_sections(self, tid, over, key):
        # one validation path: the runner-backed ids refuse other domains too,
        # and a section is refused by the ids that do not read it
        self._refused(tid, over, key)

    @pytest.mark.parametrize("tid", experiments.THEOREM_IDS)
    def test_batch_free_keys_keep_a_config_valid(self, tid):
        """A valid config with any _BATCH_FREE key replaced, as the search's
        moves replace them, constructs and stays in its config's batch."""
        cfg = _cfg(tid)
        lo, hi = cfg.sampler.radius_range
        perts = cfg.model.perturbations
        moves = {
            "sampler.seed": lambda c: replace(c, sampler=replace(c.sampler, seed=99)),
            "sampler.radius_range": lambda c: replace(c, sampler=replace(
                c.sampler, radius_range=(lo + 0.25 * (hi - lo), hi - 0.25 * (hi - lo)))),
            "model.seed": lambda c: replace(c, model=replace(c.model, seed=98)),
            "perturbation[].seed": lambda c: replace(c, model=replace(
                c.model, perturbations=tuple(replace(p, seed=p.seed + 1) for p in perts))),
        }
        assert set(moves) == set(experiments._BATCH_FREE)
        for move in moves.values():
            moved = move(cfg)
            assert experiments._batch_key(moved) == experiments._batch_key(cfg)
            assert experiments._head_differences(config_to_dict(cfg), config_to_dict(moved)) == []

    def test_negative_shell_edges_rejected(self):
        with pytest.raises(ConfigError, match="edges"):
            ShellSettings(edges=(-4.0, -1.0, 2.0), samples_per_shell=10)
        d = config_to_dict(_cfg("cor3_2"))
        d["shells"]["edges"] = [-4, -1, 2]
        with pytest.raises(ConfigError, match="shells"):
            _parse_experiment(d)
        d["shells"]["edges"] = [0, 1, 2]  # a first shell from 0 is fine
        assert _parse_experiment(d).shells.edges == (0, 1, 2)

    def test_table_control_only_for_thm2_1(self):
        table = ControlFunctionSpec(
            kind="table",
            table=RadialControlTable(radii=[0.0, 10.0], values=[0.2, 0.2], q=0.0),
        )
        rep = run_experiment(_cfg("thm2_1", control=table, model=ModelSettings()))
        assert rep.passed
        with pytest.raises(ConfigError):
            _cfg("cor2_2", control=table, model=ModelSettings())


@pytest.mark.parametrize("make, key", [
    (lambda: NormedSpaceSpec(3, "p_norm", math.inf), "p"),
    (lambda: NormedSpaceSpec(3, "p_norm", math.nan), "p"),
    (lambda: ControlFunctionSpec(epsilon=math.nan), "epsilon"),
    (lambda: ControlFunctionSpec(kind="mixed", epsilon=0.1, delta=math.inf, p=0.5), "delta"),
    (lambda: PerturbationSpec(amplitude=math.nan), "amplitude"),
    (lambda: PerturbationSpec(kind="power", delta=math.inf, p=0.5), "delta"),
    (lambda: LimitSettings(tol=math.inf), "tol"),
    (lambda: LimitSettings(tol=math.nan), "tol"),
    (lambda: SamplerSettings(count=20, seed=1, radius_range=(0.05, math.inf)), "radius_range"),
    (lambda: BallSettings(radius=math.inf), "radius"),
    (lambda: ShellSettings(edges=(0.5, math.inf), samples_per_shell=4), "edges"),
    (lambda: ShellSettings(edges=(0.5, 1.0, math.nan), samples_per_shell=4), "edges"),
], ids=["space-p-inf", "space-p-nan", "control-epsilon-nan", "control-delta-inf",
        "perturbation-amplitude-nan", "perturbation-delta-inf", "tol-inf", "tol-nan",
        "sampler-radius-inf", "ball-radius-inf", "shell-edge-inf", "shell-edge-nan"])
def test_library_specs_refuse_non_finite_values(make, key):
    """A spec built in code refuses the non-finite values that the parser's
    type layer refuses, with a message that opens with the key; the sampler,
    ball and shell bounds raise ConfigError, not numpy's OverflowError in
    run_experiment."""
    with pytest.raises(ValueError, match=f"^{key} must be"):
        make()


@pytest.mark.parametrize("make, key", [
    (lambda c: replace(c, sampler=replace(c.sampler, seed=2**70)), "seed"),
    (lambda c: replace(c, sampler=replace(c.sampler, count=2**64)), "count"),
    (lambda c: replace(c, sampler=replace(c.sampler, pair_count=2**64)), "pair_count"),
    (lambda c: replace(c, sampler=replace(c.sampler, seed=-(2**63) - 1)), "seed"),
    (lambda c: replace(c, model=replace(c.model, seed=2**64)), "seed"),
    (lambda c: PerturbationSpec(kind="bounded", amplitude=0.05, seed=2**64), "seed"),
    (lambda c: PerturbationSpec(kind="bounded", amplitude=0.05, seed=(3, -(2**63) - 1)), "seed"),
], ids=["sampler-seed", "sampler-count", "sampler-pair_count", "sampler-seed-low", "model-seed",
        "perturbation-seed", "perturbation-seed-tuple"])
def test_library_specs_refuse_integers_past_64_bits(make, key):
    """A spec built in code refuses an integer outside [−2⁶³, 2⁶⁴), as the
    parser does, instead of running and then failing in emit_report; the
    ends of the range still construct and emit."""
    cfg = _cfg("cor2_2")
    with pytest.raises(ValueError, match=f"^{key} must fit in 64 bits"):
        make(cfg)
    for seed in (-(2**63), 2**64 - 1):
        edge = replace(cfg, sampler=replace(cfg.sampler, seed=seed),
                       model=replace(cfg.model, seed=seed))
        assert emit_report(run_experiment(edge))


def test_integer_specs_take_over_the_parsers_range_check():
    """JensenParams refuses r, s, t outside [1, 2**64) and LimitSettings an n_max
    outside [1, 2**20], in code as in a file, naming the key; the parser's type
    layer no longer range-checks integers.  The ends of both ranges build."""
    for args, key in [((2**64, 1, 1), "r"), ((1, -(2**63) - 1, 1), "s"), ((1, 1, 0), "t")]:
        with pytest.raises(ConfigError, match=f"^{key} must be an integer in"):
            JensenParams(*args)
    assert JensenParams(2**64 - 1, 1, 1) and LimitSettings(n_max=2**20)
    for n_max in (0, 2**20 + 1, 2**63 - 1, 2**63, 2**70):
        with pytest.raises(ConfigError, match="^n_max must be in"):
            LimitSettings(n_max=n_max)
    d = config_to_dict(_cfg("cor2_2"))
    for section, key, value in [("params", "r", 2**70), ("limits", "n_max", 2**64)]:
        with pytest.raises(ConfigError, match=rf"^{section}\.{key} must be "):
            _parse_experiment(dict(d, **{section: dict(d.get(section, {}), **{key: value})}))


@pytest.mark.parametrize("make, key", [
    (lambda c: replace(c, sampler=replace(c.sampler, count=2**63)), "sampler.count"),
    (lambda c: replace(c, sampler=replace(c.sampler, pair_count=2**63)), "sampler.pair_count"),
    (lambda c: replace(c, space=replace(c.space, dim=2**63)), "space.dim"),
    (lambda c: replace(c, codomain=replace(c.codomain, dim=2**40)), "codomain.dim"),
    # the linear part alone: one point, 2**14 + 1 rows of 2**14 columns
    (lambda c: replace(c, sampler=replace(c.sampler, count=1), space=replace(c.space, dim=2**14),
                       codomain=replace(c.codomain, dim=2**14 + 1)), "codomain.dim"),
], ids=["count", "pair_count", "space-dim", "codomain-dim", "linear-part"])
def test_code_built_configs_refuse_sizes_past_the_ceiling(make, key):
    """A config built in code refuses an array of more than 2**28 floats, as
    the parser does, and names the larger key; the ceiling itself builds."""
    cfg = _cfg("cor2_2")
    with pytest.raises(ConfigError, match=f"^{key} is too large"):
        make(cfg)
    assert replace(cfg, sampler=replace(cfg.sampler, count=2**28 // cfg.space.dim, pair_count=1))


@pytest.mark.parametrize("kind, key, value", [
    ("bounded", "delta", 0.7), ("bounded", "p", 0.5), ("decay", "delta", 0.1),
    ("decay", "p", 0.5), ("power", "amplitude", 0.05),
])
def test_perturbation_refuses_keys_its_kind_does_not_read(kind, key, value):
    """A non-default value in a key the term's kind never reads is refused
    with a message that opens with the key; the defaults still construct and
    are still written back, so a valid config's echo does not change."""
    base = {"amplitude": 0.05} if kind != "power" else {"delta": 0.1, "p": 0.5}
    with pytest.raises(ValueError, match=f"^{key} is read by"):
        PerturbationSpec(kind=kind, **dict(base, **{key: value}))
    model = ModelSettings(perturbations=(PerturbationSpec(kind=kind, **base),))
    echoed = config_to_dict(_cfg("cor2_2", model=model))["perturbation"][0]
    assert {k: echoed[k] for k in ("amplitude", "delta", "p")} == dict(
        {"amplitude": 0.0, "delta": 0.0, "p": 0.0}, **base)


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
        X, Y = sample_pairs(E3, 800, [(0.0, 12.0)], [rng_from(3, "cal")])
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
    X, Y = sample_pairs(E3, 200, [(0.1, 4.0)], [rng_from(1, "meas")])
    eps_hat, witness = measure_epsilon(cfg, f, g, h, X, Y)
    assert eps_hat <= 1e-10
    assert set(witness) == {"defect", "x", "y"}


def test_measure_epsilon_below_declared():
    cfg = _cfg("cor2_2")
    f, g, h = build_models(cfg)
    X, Y = sample_pairs(E3, 400, [(0.1, 6.0)], [rng_from(2, "meas")])
    eps_hat, _ = measure_epsilon(cfg, f, g, h, X, Y)
    assert 0.0 < eps_hat <= cfg.control.epsilon * (1.0 + 1e-9)


def test_f_keeps_its_perturbation_specs(monkeypatch):
    """f (role offset 0) takes the config's perturbation specs as they are,
    with no replace call; g and h copy each term once with a derived seed."""
    cfg = _cfg("thm2_1", control=ControlFunctionSpec(kind="mixed", epsilon=0.4, delta=0.3, p=0.5))
    perts = cfg.model.perturbations
    copies = []

    def spy(obj, **changes):
        copies.append(changes)
        return replace(obj, **changes)

    monkeypatch.setattr(experiments, "replace", spy)
    f_terms = experiments._role_perturbations(cfg, 0)
    assert not copies
    assert len(f_terms) == len(perts) == 2 and all(a is b for a, b in zip(f_terms, perts))
    f, g, h = build_models(cfg)
    assert f.perturbations == f_terms
    assert len(copies) == 2 * len(perts)
    assert [t.seed for t in g.perturbations] == [
        experiments.derive_seed(p.seed, 100 + i) for i, p in enumerate(perts)
    ]


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


def _assert_same_floats(got, want):
    """got, parsed from a report, is want bit for bit; a NaN reads back as NaN,
    its sign and payload not kept."""
    want = np.asarray(want, dtype=float)
    got = np.asarray(got, dtype=float)
    if got.size == want.size == 0:  # no rows of any width read back as []
        got = got.reshape(want.shape)
    nan = np.isnan(want)
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def _assert_columns(doc, rows):
    """A parsed report's samples hold rows' columns, x as a list of rows."""
    cols = doc["samples"]
    assert sorted(cols) == ["bound", "deviation", "ratio", "role", "x"]
    for key, want in (("bound", rows.bound), ("deviation", rows.deviation),
                      ("ratio", rows.ratio), ("x", rows.X)):
        _assert_same_floats(cols[key], want)
    assert cols["role"] == [rows.roles[k] for k in rows.role.tolist()]


def _assert_canonical(text):
    """text is orjson's indented, key-sorted writing of what it parses to."""
    opts = orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS
    assert orjson.dumps(json.loads(text), option=opts).decode() + "\n" == text


def test_report_json_round_trip_and_determinism():
    cfg = _cfg("cor2_2")
    rep1 = run_experiment(cfg)
    rep2 = run_experiment(cfg)
    js1 = emit_report(rep1, fmt="json")
    js2 = emit_report(rep2, fmt="json")
    assert js1 == js2
    _assert_canonical(js1)
    doc = json.loads(js1)
    assert "runtime" not in doc
    assert doc["schema_version"] == 2
    assert doc["pass"] is True
    _assert_columns(doc, rep1.samples)
    assert doc["witnesses"] == rep1.witnesses


EDGE_FLOATS = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e300, -1e-300,
    # the ends of the range where orjson writes the floats as repr does, and their neighbours
    1e-4, *(float(np.nextafter(v, to)) for v in (1e-4, 1e16) for to in (0.0, math.inf)),
    9999999999999998.0, 1e-5, 1e-7, 2.0**53 + 2, 1e22, -5e-324,
]


@given(
    st.integers(0, 5),
    st.integers(0, 4),
    st.lists(st.sampled_from(["f", "g", "h", "g_h", "odd"]), min_size=1, max_size=3, unique=True),
    st.data(),
)
@settings(derandomize=True, max_examples=60, deadline=None)
def test_emitter_round_trips_columns(n, dim, roles, data):
    def column(*shape):
        size = int(np.prod(shape))
        floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
        return np.array(data.draw(st.lists(floats, min_size=size, max_size=size))).reshape(shape)

    role = data.draw(st.lists(st.integers(0, len(roles) - 1), min_size=n, max_size=n))
    rows = experiments._Rows(
        column(n, dim), tuple(roles), np.array(role, dtype=int), column(n), column(n), column(n)
    )
    rep = experiments.StabilityReport(
        theorem_id="thm2_1", cfg=_cfg("thm2_1"), epsilon_effective=-math.inf,
        bound_value=math.nan, max_deviation=-0.0, max_ratio=math.inf, passed=False,
        witnesses=rows.dicts(slice(3)), samples=rows,
        details={"edge": EDGE_FLOATS, "top": np.float64(-math.inf)},
        iterations={"max_iterations": 0}, runtime={"seconds": 0.25},
    )
    for include_runtime in (False, True):
        text = emit_report(rep, include_runtime=include_runtime)
        assert text == emit_report(replace(rep), include_runtime=include_runtime)
        _assert_canonical(text)
        doc = json.loads(text)
        _assert_columns(doc, rows)
        assert (doc["epsilon_effective"], doc["bound_value"], doc["max_ratio"]) == ("-inf", "nan", "inf")
        assert math.copysign(1.0, doc["max_deviation"]) == -1.0
        _assert_same_floats(doc["details"]["edge"], EDGE_FLOATS)
        assert doc["details"]["top"] == "-inf"
        for got, want in zip(doc["witnesses"], rep.witnesses, strict=True):
            _assert_same_floats(got["x"], want["x"])
            _assert_same_floats([got[k] for k in ("deviation", "bound", "ratio")],
                                [want[k] for k in ("deviation", "bound", "ratio")])
        assert ("runtime" in doc) == include_runtime
        assert doc["schema_version"] == experiments.REPORT_SCHEMA_VERSION == 2


def test_float_strs_match_repr():
    rng = np.random.default_rng(20261018)
    bits = rng.integers(0, 2**64, size=200_000, dtype=np.uint64).view(np.float64)
    logs = 10.0 ** rng.uniform(-6, 18, size=100_000) * rng.choice([-1.0, 1.0], size=100_000)
    edge = np.array(EDGE_FLOATS)
    X = np.concatenate([bits, logs]).reshape(-1, 3)
    # X.T[k] is a strided column; the tiles repeat values repr writes once per distinct value
    tiled = (np.tile(edge, 400), np.tile(bits[:500], 20), np.tile(-edge, 600)[::2])
    for a in (edge, -edge, bits, logs, *X.T, *tiled):
        assert experiments._float_strs(a) == list(map(repr, a.tolist()))
    assert experiments._float_strs(np.empty(0)) == []


# NaNs of both signs, quiet and signalling, with several payloads
NAN_BITS = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
                     0xFFF0000000000002, 0x7FF4000000000000, 0xFFFFFFFFFFFFFFFF],
                    dtype=np.uint64).view(np.float64)


def _big_report(dim, seed):
    """A report of 4099 rows whose columns repeat non-finite and out-of-range values."""
    rng = np.random.default_rng(seed)
    n = 4099
    pool = np.concatenate([[1e16, 1e-5, 1.2345e-7, math.inf, -math.inf, 0.0, -0.0, 0.5, 2.5e3],
                           NAN_BITS])
    rows = experiments._Rows(
        rng.choice(pool, size=(n, dim)), ("f", "g", "odd"), rng.integers(0, 3, n),
        rng.choice([2.2e-16, 0.0, -0.0], size=n), np.full(n, 1e-6), rng.choice(pool, size=n),
    )
    cfg = _cfg("cor2_2", sampler=SamplerSettings(count=8, seed=seed, radius_range=(0.0, 1.0)))
    return experiments.StabilityReport(
        theorem_id="thm6_1", cfg=cfg, epsilon_effective=0.0, bound_value=1e-6,
        max_deviation=2.2e-16, max_ratio=math.nan, passed=False, witnesses=rows.dicts([0, 7]),
        samples=rows, details={}, iterations={"max_iterations": 0},
    )


@pytest.mark.parametrize("dim", [1, 3])
def test_emitter_matches_references_at_report_size(dim):
    reps = [_big_report(dim, 1), _big_report(dim, 2)]
    text = emit_report(reps[0])
    _assert_canonical(text)
    _assert_columns(json.loads(text), reps[0].samples)
    both = json.loads(experiments.emit_reports(reps))
    assert both == {"schema_version": 2, "reports": [json.loads(emit_report(r)) for r in reps]}
    assert emit_report(reps[1], fmt="csv").split("\n") == csv_by_repr(reps[1]).split("\n")


@pytest.mark.parametrize("dim", [0, 2])
def test_csv_rows_match_csv_writer_at_report_size(dim):
    """4096 rows of NaNs (both signs, several payloads), ±inf, ±0 and in-range
    floats, and a shell profile, written as csv.writer writes repr of each."""
    rng = np.random.default_rng(dim)
    n = 4096
    pool = np.concatenate([[math.inf, -math.inf, 0.0, -0.0, 1e16, 1e-5, 0.5, -2.5e3], NAN_BITS])
    rows = experiments._Rows(
        rng.choice(pool, size=(n, dim)), ("f", "g_h", "total"), rng.integers(0, 3, n),
        rng.choice(pool, size=n), rng.choice(pool, size=n), rng.choice(pool, size=n),
    )
    rep = experiments.StabilityReport(
        theorem_id="prop4_2", cfg=_cfg("cor2_2"), epsilon_effective=0.0, bound_value=0.0,
        max_deviation=0.0, max_ratio=0.0, passed=True, witnesses=[], samples=rows,
        details={}, iterations={},
    )
    assert emit_report(rep, fmt="csv").split("\n") == csv_by_repr(rep).split("\n")
    empty = replace(rep, samples=experiments._Rows(np.empty((0, dim)), (), np.empty(0, int),
                                                   np.empty(0), np.empty(0), np.empty(0)))
    assert emit_report(empty, fmt="csv") == csv_by_repr(empty)
    profile = {"edges": [0.5, 1.0, 2.0, math.inf], "sup_defect": [math.nan, -0.0, 1e-300],
               "samples_per_shell": 7}
    shells = replace(rep, details={"profile": profile})
    assert emit_report(shells, fmt="csv") == csv_by_repr(shells)


def test_csv_matches_repr_on_edge_floats():
    n = len(EDGE_FLOATS)
    edge = np.array(EDGE_FLOATS)
    rows = experiments._Rows(np.stack([edge, edge[::-1]], axis=1), ("f", "odd"),
                             np.arange(n) % 2, edge[::-1], np.roll(edge, 3), -edge)
    rep = experiments.StabilityReport(
        theorem_id="thm2_1", cfg=_cfg("thm2_1"), epsilon_effective=0.3, bound_value=1.0,
        max_deviation=0.0, max_ratio=0.0, passed=True, witnesses=[], samples=rows,
        details={}, iterations={"max_iterations": 0},
    )
    assert emit_report(rep, fmt="csv") == csv_by_repr(rep)


def test_report_includes_runtime_only_on_request():
    rep = run_experiment(_cfg("cor2_2"))
    with_rt = json.loads(emit_report(rep, fmt="json", include_runtime=True))
    assert "runtime" in with_rt and "seconds" in with_rt["runtime"]
    # CSV has no runtime block: asking for one raises and names the argument,
    # as ``verify --format csv --timing`` exits 2
    with pytest.raises(ConfigError, match="include_runtime"):
        emit_report(rep, fmt="csv", include_runtime=True)


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


@pytest.mark.parametrize("iterations, restarts, field", [
    (7.5, 2, "iterations"), (True, True, "iterations"), (8, 2.0, "restarts"),
    (6, False, "restarts"), ("6", 1, "iterations"),
])
def test_search_settings_reject_non_integers(iterations, restarts, field):
    # 7.5 used to die in adversarial_search with a TypeError, and True to
    # report "evaluations": true
    with pytest.raises(ConfigError, match=f"^{field} must be an integer"):
        SearchSettings(iterations=iterations, restarts=restarts)
