"""Golden report digests.

Each config below runs through ``parse_config`` and ``run_experiment``; the
sha256 of its canonical JSON report (``emit_report``) must equal the recorded
value.  The configs cover every theorem id, a tabulated control (thm2_1) and a
mixed control (thm2_1, cor2_2, prop4_1), each with at most 200 points, so any
change to the numbers a report carries shows up here and not only in an
end-to-end benchmark.

The orthogonal-domain entries (thm5_2 with the inner_product, birkhoff_james
and trivial relations) cover the pair samplers of all three relations.  Their
reports once carried a ``config.domain.relation.grid`` block, now dropped:
their digests are those of the earlier reports with that block deleted and
the rest re-dumped as ``json.dumps(obj, indent=2, sort_keys=True) + "\n"``,
so the sampled pairs and every number are unchanged.

The limit entries pin the scaling iteration at its stop rules: a quadratic
part under the dyadic limit (thm2_1) never settles and runs to the default
n_max cap, ``cor2_2-nmax7`` stops every point at an explicit ``limits.n_max``,
and the triadic limit runs on a p-norm space for prop4_1 (on f) and thm4_3
(on the odd part).

The FAIL entries pin the paths on which a report fails: ``*-nmax3`` stops
every limit of thm3_1, prop4_1, thm4_3 and thm5_2 at three iterations, so
the convergence check fails while every ratio stays under 1, and
``thm6_1-noisy`` gives the ball map a bounded perturbation whose residual
exceeds ``residual_tol``.  thm5_2 iterates two limits per point (T and Q);
``thm5_2-nmax3`` counts a point once in ``diverged_points`` when either fails.
Like every limit theorem's report, thm3_1's carries ``details.pair_count``
and, when a limit fails, ``details.diverged_points``; its two digests were
re-recorded when those keys were added, with every other byte unchanged.

The axiom entries pin ``check_ratz_axioms`` for every relation: the
Birkhoff-James relation on the sup, p = 3 and Euclidean norms, the
inner_product relation on a Euclidean space and the trivial relation on
Euclidean and sup spaces.  All of them take their (O4) witnesses from the
same sign-change search; the digest is that of the report as ``jensenlab
axioms`` writes it.

The digests were recorded with CPython 3.11.7 and numpy 2.4.6 on x86-64.
Elementary functions such as ``pow`` and ``log`` may round differently in
other numpy builds; a mismatch there needs a look at the report, not
necessarily a code fix.
"""

import hashlib
import json

import pytest

from jensenlab.experiments import (
    SearchSettings,
    _json_default,
    adversarial_search,
    emit_report,
    parse_config,
    run_experiment,
)
from jensenlab.spaces import NormedSpaceSpec, OrthogonalityRelation, check_ratz_axioms
from report_reference import csv_by_repr

E3 = {"dim": 3, "norm_kind": "euclidean"}
E2 = {"dim": 2, "norm_kind": "euclidean"}
E1 = {"dim": 1, "norm_kind": "euclidean"}
MIXED = {"kind": "mixed", "epsilon": 0.3, "delta": 0.2, "p": 0.5}
TABLE = {
    "kind": "table",
    "table": {
        "radii": [0.0, 0.5, 1.0, 2.0, 4.0, 8.0],
        "values": [0.3, 0.32, 0.36, 0.45, 0.6, 0.8],
        "q": 0.5,
    },
}
PUNCTURED = {"kind": "punctured"}
SUP3 = {"dim": 3, "norm_kind": "sup"}
P3 = {"dim": 3, "norm_kind": "p_norm", "p": 3.0}


def _const(eps):
    return {"kind": "constant", "epsilon": eps}


def _orthogonal(kind):
    return {"kind": "orthogonal", "relation": {"kind": kind}}


def _exp(tid, params, control, count=160, radius_range=(0.05, 6.0), **extra):
    r, s, t = params
    exp = {
        "theorem_id": tid,
        "space": E3,
        "codomain": E2,
        "params": {"r": r, "s": s, "t": t},
        "control": control,
        "sampler": {"count": count, "seed": 11, "radius_range": list(radius_range)},
        "model": {"seed": 5},
        "perturbation": [{"kind": "bounded", "amplitude": 0.05, "seed": 2}],
    }
    exp.update(extra)
    return exp


CONFIGS = {
    "thm2_1-mixed": _exp(
        "thm2_1",
        (2, 1, 1),
        MIXED,
        perturbation=[
            {"kind": "bounded", "amplitude": 0.075, "seed": 2},
            {"kind": "power", "delta": 0.05, "p": 0.5, "seed": 3},
        ],
    ),
    "thm2_1-table": _exp("thm2_1", (2, 1, 1), TABLE, count=200),
    "thm2_1-quadratic-cap": _exp(
        "thm2_1", (2, 1, 1), _const(0.3), model={"seed": 5, "quadratic": [0.3, -0.1]}
    ),
    "cor2_2-nmax7": _exp("cor2_2", (2, 1, 1), _const(0.3), limits={"n_max": 7, "tol": 1e-12}),
    "cor2_2-constant": _exp("cor2_2", (2, 1, 1), _const(0.3)),
    "cor2_2-mixed": _exp(
        "cor2_2",
        (3, 2, 1),
        MIXED,
        perturbation=[
            {"kind": "bounded", "amplitude": 0.05, "seed": 2},
            {"kind": "power", "delta": 0.05, "p": 0.5, "seed": 3},
        ],
    ),
    "thm3_1": _exp(
        "thm3_1",
        (2, 1, 1),
        _const(0.5),
        domain={"kind": "exterior", "d": 1.5},
        sampler={"count": 120, "seed": 11, "radius_range": [0.05, 8.0], "pair_count": 200},
    ),
    "cor3_2": _exp(
        "cor3_2",
        (2, 1, 1),
        _const(0.3),
        shells={"edges": [0.5, 1.0, 2.0, 4.0, 8.0], "samples_per_shell": 50},
        expected_decay=False,
    ),
    "prop4_1-mixed": _exp(
        "prop4_1",
        (3, 2, 1),
        MIXED,
        radius_range=(0.2, 5.0),
        domain=PUNCTURED,
        perturbation=[
            {"kind": "bounded", "amplitude": 0.05, "seed": 2},
            {"kind": "power", "delta": 0.03, "p": 0.5, "seed": 3},
        ],
    ),
    "prop4_1-p3": _exp(
        "prop4_1",
        (3, 2, 1),
        MIXED,
        radius_range=(0.2, 5.0),
        domain=PUNCTURED,
        space=P3,
        perturbation=[
            {"kind": "bounded", "amplitude": 0.05, "seed": 2},
            {"kind": "power", "delta": 0.03, "p": 0.5, "seed": 3},
        ],
    ),
    "prop4_2": _exp("prop4_2", (2, 1, 1), _const(0.3), radius_range=(0.2, 5.0), domain=PUNCTURED),
    "thm4_3": _exp("thm4_3", (3, 2, 1), _const(0.4), radius_range=(0.2, 5.0), domain=PUNCTURED),
    "thm4_3-p3": _exp(
        "thm4_3", (3, 2, 1), _const(0.4), radius_range=(0.2, 5.0), domain=PUNCTURED, space=P3
    ),
    "thm5_2": _exp(
        "thm5_2",
        (1, 1, 1),
        _const(0.3),
        radius_range=(0.1, 4.0),
        domain=_orthogonal("inner_product"),
        model={"seed": 5, "quadratic": [0.4, -0.2]},
    ),
    "thm5_2-bj-sup": _exp(
        "thm5_2", (1, 1, 1), _const(0.3), radius_range=(0.1, 4.0),
        domain=_orthogonal("birkhoff_james"), space=SUP3,
    ),
    "thm5_2-bj-p3": _exp(
        "thm5_2", (1, 1, 1), _const(0.3), radius_range=(0.1, 4.0),
        domain=_orthogonal("birkhoff_james"), space=P3,
    ),
    "thm5_2-trivial": _exp(
        "thm5_2", (1, 1, 1), _const(0.3), radius_range=(0.1, 4.0),
        domain=_orthogonal("trivial"),
    ),
    "thm6_1": _exp(
        "thm6_1",
        (2, 2, 2),
        _const(0.0),
        radius_range=(0.0, 1.0),
        codomain=E1,
        model={"seed": 5, "quadratic": [0.25]},
        perturbation=[],
        ball={"radius": 1.0, "exclude_origin": False},
    ),
    "thm6_2": _exp(
        "thm6_2",
        (4, 3, 3),
        _const(0.0),
        radius_range=(0.0, 1.0),
        codomain=E1,
        perturbation=[],
        ball={"radius": 1.0, "exclude_origin": True},
    ),
}
for _name in ("thm3_1", "prop4_1-p3", "thm4_3", "thm5_2"):
    CONFIGS[_name.split("-")[0] + "-nmax3"] = dict(CONFIGS[_name], limits={"n_max": 3})
CONFIGS["thm6_1-noisy"] = dict(
    CONFIGS["thm6_1"], perturbation=[{"kind": "bounded", "amplitude": 0.01, "seed": 3}]
)

DIGESTS = {
    "cor2_2-constant": "5bfab6098c37dd636f38a3e50feaf6e2638f36db663e899b30b1e06a586f3133",
    "cor2_2-mixed": "8866712275112eb0ff1084d38050b328b40d71a5e553e24fa5ad648bde6f8564",
    "cor2_2-nmax7": "5f167cb5cfeb9eae9f809d112d950b6f75f9800e4a6a10a033d9cc58c07ba6f6",
    "cor3_2": "d60528d2d8205b8d3c0796a60bda7db7fa8c6ff274b74a71099bc499c2e78f11",
    "prop4_1-mixed": "353004d44b8d872154b36652b8cc917c70b8285223ecbe1a30d8fed723992741",
    "prop4_1-p3": "0443e69f5e7a40e426e7e96ad76bea7cf1779bd1fd0a34fa86e732c51d5052a8",
    "prop4_2": "67e989375c0eebcd6b58d1a9469eef3b538459dd43f28931e4b7ab01386f7383",
    "thm2_1-mixed": "a2cd250e7436710c430fcd7d3fc19b52b3473316162e582501e62a26c094f4f6",
    "thm2_1-quadratic-cap": "216cc2afc9c5874c983cbb583c7e069be3926f2f6f5906afae530c9b817cf569",
    "thm2_1-table": "2db0f04ffc6b7b7f214a70b7f78434878fd3344fc65225ae0e18dd07e918afbc",
    "thm3_1": "ebdda77f55f51e719c083ed0a7bd95759e82f68e58ce12feab07a19a057db4dd",
    "thm4_3": "082b3332416008fde0eb604983f0ba42e2a38a2242e023dfec35f691f9201deb",
    "thm4_3-p3": "a8fd9bf5a9cd0f40a740fee8a61f5012c571f4a9af48fbdc9c2b2cd3c4077704",
    "thm5_2": "8e51fe81cdb12a80df7e2974f08db39b0c2afc3820b45c13ef64ec170d6ee8b3",
    "thm5_2-bj-p3": "72ea8abbac94f0de43a13fe5c016223f4a7ee682e4e72bde2b0008863e71bafa",
    "thm5_2-bj-sup": "a94a26cd17132d8ef24a1e9689442f9ea02d4fa789af71053e60464ee332f715",
    "thm5_2-trivial": "ee81468feb80913fdb15a9e544edcb588a2708d9876adaed9a908fcb89a78821",
    "thm6_1": "4de92dfe8f058444b910425d3d72d07ce69f7a26c8985a26e7be505e8b0bcb02",
    "thm6_2": "66bcfc4bc601ab586be0d798c547c4000f16981625f2c13b6f5069b568821df2",
    "thm3_1-nmax3": "c0f9fc48084db73b7efeb5ace42f7bb127393a8ff4a2a513f35eaae737fce48d",
    "prop4_1-nmax3": "16f1e23ac7fab8f35201fc3510eaefd3933bef8b1162ea7c08c315bcc5cc9f40",
    "thm4_3-nmax3": "83e6ebdce3b7b605f0afd37f19027c7eb8fcbda1fd4076961960fd34f5fdb91a",
    "thm5_2-nmax3": "4e2081bbd849bfb71da47e606ecb5e09589789a87913c10a71b98f2b15bbc229",
    "thm6_1-noisy": "1670218d6a8140b258bdd23d6f353bdca0f853a92a084029ef1df53548f08080",
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_digest(name):
    (cfg,) = parse_config({"schema_version": 1, "experiments": [CONFIGS[name]]})
    report = run_experiment(cfg)
    text = emit_report(report, fmt="json")
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DIGESTS[name]
    # the column emitter writes what json writes for the dict rows
    dumped = json.dumps(report.to_dict(), indent=2, sort_keys=True, default=_json_default)
    assert text == dumped + "\n"
    # CSV floats are written as repr writes them
    assert emit_report(report, fmt="csv") == csv_by_repr(report)


AXIOM_DIGESTS = {
    "sup": "cf6640fc4db496473fce8ca7cbf5d962351cf84ab23b08791b8570dd5648fd39",
    "p3": "7f9ac516bb48dc7074ef2995f4a31371c6dc68cf3862d0efc44ca8107538c4a9",
    "bj-e3": "d5c2f43f2e53d1991ae757827ad149632f2717a9f2c216c42840acbe2018fdea",
    "inner-e3": "76851ed9be6d43cacee8099c8c65d7737e1e559b8ca32e843d0ec16a1b072d37",
    "trivial-e2": "8d2baabb2cec243dd0a15a675a925a4c3ae3fd058479a409c26ff07f990e89c9",
    "trivial-sup3": "c0d8bfb4079388e5400b98df28030c56b2363af83be61b17e1007c2bb5309366",
}
AXIOM_CASES = {
    "sup": ("birkhoff_james", SUP3),
    "p3": ("birkhoff_james", P3),
    "bj-e3": ("birkhoff_james", E3),
    "inner-e3": ("inner_product", E3),
    "trivial-e2": ("trivial", E2),
    "trivial-sup3": ("trivial", SUP3),
}


@pytest.mark.parametrize("name", list(AXIOM_CASES))
def test_axioms_digest(name):
    kind, space = AXIOM_CASES[name]
    rel = OrthogonalityRelation(kind=kind)
    report = check_ratz_axioms(rel, NormedSpaceSpec.from_dict(space), trials=50, seed=7)
    text = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == AXIOM_DIGESTS[name]


# Canonical JSON of ``adversarial_search`` with one restart, 12 evaluations.
# One chain draws its mutations from the same stream whether or not the
# search runs several chains in lockstep, so these pin the single-chain path.
SEARCH_DIGESTS = {
    "cor2_2-constant": "c87a79452053db09afc7a92ebd451a05948b1753982ac1f5b405926579d8779f",
    "thm3_1": "572b60ca690c615704b7f7aa78205e915003d0c21a17a5b57126dd07413461c4",
    "thm4_3": "50eb3067ed8e3cd44de108f805d47b58744d8f039733aa15195bc6ec4d980b27",
    "thm5_2": "a50fa480390aeb5b77c433a208fc927af4818a378853eedea0979b44a5a79fbe",
}


@pytest.mark.parametrize("name", sorted(SEARCH_DIGESTS))
def test_search_digest(name):
    (cfg,) = parse_config({"schema_version": 1, "experiments": [CONFIGS[name]]})
    out = adversarial_search(cfg, SearchSettings(iterations=12, restarts=1))
    text = json.dumps(out, indent=2, sort_keys=True, default=_json_default) + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == SEARCH_DIGESTS[name]
