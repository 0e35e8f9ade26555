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

The ``-y*`` entries give the model another codomain: Euclidean of dimension
3 (``thm2_1-mixed-y3``), sup of dimension 2 (``thm4_3-ysup2``) and p = 3 of
dimension 3 (``thm4_3-yp3``).  Every other entry maps into a Euclidean space
of dimension 1 or 2, so these alone pin the codomain norms of the noise
normalisation and of the gaps and defects on those paths.

The axiom entries pin ``check_ratz_axioms`` for every relation: the
Birkhoff-James relation on the sup, p = 3 and Euclidean norms, the
inner_product relation on a Euclidean space and the trivial relation on
Euclidean and sup spaces.  All of them take their (O4) witnesses from the
same sign-change search; the digest is that of the report as ``jensenlab
axioms`` writes it.

Every digest with hashed noise in it was re-recorded once when the point
hash became word-wise (see ``jensenlab.models``): all report and search
digests but thm6_1 and thm6_2, whose models carry no perturbation.  Those two
and the axiom digests held.  ``VERDICTS``, each config's pass and failed
checks, was recorded before that change and held through it.  Running this
file as a script (``PYTHONPATH=src:tests python tests/test_golden.py``)
prints ``name old new`` for every digest that no longer matches its table
and exits 1 if it printed any, 0 if every digest held, so a script or a
child-process test can gate on its status.

The digests were recorded with CPython 3.11.7 and numpy 2.4.6 on x86-64.
Elementary functions such as ``pow`` and ``log`` may round differently in
other numpy builds; a mismatch there needs a look at the report, not
necessarily a code fix.
"""

import hashlib
import json
import sys

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
P15 = {"dim": 3, "norm_kind": "p_norm", "p": 1.5}
SUP2 = {"dim": 2, "norm_kind": "sup"}


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
CONFIGS["thm2_1-mixed-y3"] = dict(CONFIGS["thm2_1-mixed"], codomain=E3)
CONFIGS["thm4_3-ysup2"] = dict(CONFIGS["thm4_3"], codomain=SUP2)
CONFIGS["thm4_3-yp3"] = dict(CONFIGS["thm4_3"], codomain=P3)

DIGESTS = {
    "cor2_2-constant": "749b28d3f4d416dbf0716c4701077c31174155eb75d56d0303e92220393cce12",
    "cor2_2-mixed": "a521fbc98ec9d16fe35b76a9eaf3ebb40e5aebb04218ea96b1265a6cd35e8385",
    "cor2_2-nmax7": "b786324e7c2961658ad3650970b58a240cba2945e5e1afe1214ae66ef3b90b05",
    "cor3_2": "5c150d535a7125ff48a7a4078fe35275f491bd4e7f9c2050c0d68d890cb48760",
    "prop4_1-mixed": "d1e287953b3a11962248987c88b30175425fd9de4c085e7430f448008dd9fc72",
    "prop4_1-p3": "2a9dbd64fe28b4703ca68e9609b41ce0f4b7083362187d86ea162f527b8bcfae",
    "prop4_2": "7a07dc6b7de6d32e28a3e339b57b14937cd35d8c4937022beadb433ed65f4365",
    "thm2_1-mixed": "46e7cc2502ed7fb5b68e2be203ad47868b5dc0fcdf4d00950f034b9eea26f784",
    "thm2_1-quadratic-cap": "998afb183a204e5313c7288e294788dc19879d36a5ecb622e2b05fe97c3ad2e2",
    "thm2_1-table": "6945b595cb34243d4e6251889b657493b991e5a686e8baeb6a33071edbad3b4c",
    "thm3_1": "4f6cce44df5eb064ff98d523af2d7b8b96e1169507c4acb450d63870fd073559",
    "thm4_3": "021c94c9e8a57db2d9cae9137de785d1aa517e90b16a1dd97eb5a804e5d15c3b",
    "thm4_3-p3": "e1bbca5d1206aa5c885ce93d21dcf84cab370a75d5a7bbc7d4fd1b812832bb31",
    "thm5_2": "b0e19411f623e2a3302d536cae01928d12454b82806a5c35f843924edf944faf",
    "thm5_2-bj-p3": "024e888ce3f94377fcd9a4e37ddcc859ac0a30a019973f18d6287d6311d2b123",
    "thm5_2-bj-sup": "4598bbf57bf4e4f9ba53400070dd33b3027f80021db447442a539b80f56f9218",
    "thm5_2-trivial": "71966fce74cd9e0d296b48ef4b92e17021f3751bd01e341e4c607e6569b065cf",
    "thm6_1": "4de92dfe8f058444b910425d3d72d07ce69f7a26c8985a26e7be505e8b0bcb02",
    "thm6_2": "66bcfc4bc601ab586be0d798c547c4000f16981625f2c13b6f5069b568821df2",
    "thm3_1-nmax3": "f2faed84bf6d4b5497f3c58734c5e5b6a1061521aa515526d08ca99b5ca8d624",
    "prop4_1-nmax3": "239f328562322816a9a2540b2266131c084c13df0d95dd940034720f6ffbdc15",
    "thm4_3-nmax3": "d711b3e937d6864e248ff292015a67e7687ae248795edd43a61e53142f413011",
    "thm5_2-nmax3": "7f4f1644ffdba2fb9b82ac900605e288aa0ed69bf7798819792e8a6b31cd515b",
    "thm6_1-noisy": "173630306246e5bea671754f5f3d18f1549355a5e57ec147488ac0752e07e977",
    "thm2_1-mixed-y3": "9ec97de74a6ab3bdeedeb2eb1acfb8dc32c961d0b6557c9c471be5e0ead27ef0",
    "thm4_3-ysup2": "246ad12c391f476acc92e8c1cb15297520833e8c9738c00ea75db2e1e228d429",
    "thm4_3-yp3": "d82298fa26ad9081fb701ad4fa52a8eb515257cda8b067a8ccf4b479e08fc159",
}


# The verdict of every config: whether it passes and the names of its failed
# checks.  A re-record of the digests must leave this table as it is.
VERDICTS = {
    "cor2_2-constant": (True, ()),
    "cor2_2-mixed": (True, ()),
    "cor2_2-nmax7": (False, ("converged",)),
    "cor3_2": (True, ()),
    "prop4_1-mixed": (True, ()),
    "prop4_1-nmax3": (False, ("converged",)),
    "prop4_1-p3": (True, ()),
    "prop4_2": (True, ()),
    "thm2_1-mixed": (True, ()),
    "thm2_1-mixed-y3": (True, ()),
    "thm2_1-quadratic-cap": (False, ("max_ratio", "converged")),
    "thm2_1-table": (True, ()),
    "thm3_1": (True, ()),
    "thm3_1-nmax3": (False, ("converged",)),
    "thm4_3": (True, ()),
    "thm4_3-nmax3": (False, ("converged",)),
    "thm4_3-p3": (True, ()),
    "thm4_3-yp3": (True, ()),
    "thm4_3-ysup2": (True, ()),
    "thm5_2": (True, ()),
    "thm5_2-bj-p3": (True, ()),
    "thm5_2-bj-sup": (True, ()),
    "thm5_2-nmax3": (False, ("converged",)),
    "thm5_2-trivial": (True, ()),
    "thm6_1": (True, ()),
    "thm6_1-noisy": (False, ("max_ratio", "residual")),
    "thm6_2": (True, ()),
}


def _report(name):
    (cfg,) = parse_config({"schema_version": 1, "experiments": [CONFIGS[name]]})
    return run_experiment(cfg)


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_digest(name):
    report = _report(name)
    text = emit_report(report, fmt="json")
    assert _sha256(text) == DIGESTS[name]
    # the column emitter writes what json writes for the dict rows
    dumped = json.dumps(report.to_dict(), indent=2, sort_keys=True, default=_json_default)
    assert text == dumped + "\n"
    # CSV floats are written as repr writes them
    assert emit_report(report, fmt="csv") == csv_by_repr(report)


def test_verdicts():
    assert sorted(VERDICTS) == sorted(CONFIGS)
    got = {}
    for name in CONFIGS:
        report = _report(name)
        got[name] = (report.passed, report.failed_checks)
    assert got == VERDICTS


AXIOM_DIGESTS = {
    "sup": "cf6640fc4db496473fce8ca7cbf5d962351cf84ab23b08791b8570dd5648fd39",
    "p3": "7f9ac516bb48dc7074ef2995f4a31371c6dc68cf3862d0efc44ca8107538c4a9",
    "bj-e3": "d5c2f43f2e53d1991ae757827ad149632f2717a9f2c216c42840acbe2018fdea",
    "inner-e3": "76851ed9be6d43cacee8099c8c65d7737e1e559b8ca32e843d0ec16a1b072d37",
    "trivial-e2": "8d2baabb2cec243dd0a15a675a925a4c3ae3fd058479a409c26ff07f990e89c9",
    "trivial-sup3": "c0d8bfb4079388e5400b98df28030c56b2363af83be61b17e1007c2bb5309366",
    "bj-p1.5": "ce6265283a8bff4b51062f9b0e73725a1be79903a4faa326b1a69ac944ec2d57",
}
AXIOM_CASES = {
    "sup": ("birkhoff_james", SUP3),
    "p3": ("birkhoff_james", P3),
    "bj-e3": ("birkhoff_james", E3),
    "inner-e3": ("inner_product", E3),
    "trivial-e2": ("trivial", E2),
    "trivial-sup3": ("trivial", SUP3),
    # a non-integer p, where ** takes numpy's general power path
    "bj-p1.5": ("birkhoff_james", P15),
}


def _axiom_digest(name):
    kind, space = AXIOM_CASES[name]
    rel = OrthogonalityRelation(kind=kind)
    report = check_ratz_axioms(rel, NormedSpaceSpec.from_dict(space), trials=50, seed=7)
    return _sha256(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")


@pytest.mark.parametrize("name", list(AXIOM_CASES))
def test_axioms_digest(name):
    assert _axiom_digest(name) == AXIOM_DIGESTS[name]


# Canonical JSON of ``adversarial_search`` with one restart, 12 evaluations.
# One chain draws its mutations from the same stream whether or not the
# search runs several chains in lockstep, so these pin the single-chain path.
SEARCH_DIGESTS = {
    "cor2_2-constant": "786dcd93f37e1241a7b38b63d1952cecdbeff99c5a16147f0745b38dd0876dde",
    "thm3_1": "bffb13d80a331d5eb67a6225f8f7e01ad3ce86312dbcb5064fbf24b6f96143c5",
    "thm4_3": "363046764a8f502c9be56e8ac48cbd6ecbf7f68b92952a54290ce87da02ef8e6",
    "thm5_2": "6be418ef4c4bcaac1f78853e8604cf3317ad36f5d7646dd605281375a27000a3",
}


def _search_digest(name):
    (cfg,) = parse_config({"schema_version": 1, "experiments": [CONFIGS[name]]})
    out = adversarial_search(cfg, SearchSettings(iterations=12, restarts=1))
    return _sha256(json.dumps(out, indent=2, sort_keys=True, default=_json_default) + "\n")


@pytest.mark.parametrize("name", sorted(SEARCH_DIGESTS))
def test_search_digest(name):
    assert _search_digest(name) == SEARCH_DIGESTS[name]


# Canonical JSON of ``adversarial_search`` with three restarts, 12 evaluations:
# three chains in lockstep, so every run_experiment call is a batch of three
# candidates.  The thm5_2 entries batch inner_product and Birkhoff-James pairs.
LOCKSTEP_DIGESTS = {
    "cor2_2-constant": "786dcd93f37e1241a7b38b63d1952cecdbeff99c5a16147f0745b38dd0876dde",
    "thm3_1": "917f3f0d347e603c6ab033bbf6fdc7531bb29526553d1cd7d03d4c76612bc89c",
    "thm4_3": "8235708178201d4f25687987f37a2a67f58398702b6a4b59ceb061c073e802b7",
    "thm5_2": "fcc51e1f495544d1c714f0a656aceade81fd8de223c86b0b6eb33a7ef87e55f6",
    "thm5_2-bj-sup": "6d07987aecaf5542f869e811473192af1bc115373a37f6bf5e702b5c23aedf17",
}


def _lockstep_digest(name):
    (cfg,) = parse_config({"schema_version": 1, "experiments": [CONFIGS[name]]})
    out = adversarial_search(cfg, SearchSettings(iterations=12, restarts=3))
    return _sha256(json.dumps(out, indent=2, sort_keys=True, default=_json_default) + "\n")


@pytest.mark.parametrize("name", sorted(LOCKSTEP_DIGESTS))
def test_lockstep_search_digest(name):
    assert _lockstep_digest(name) == LOCKSTEP_DIGESTS[name]


if __name__ == "__main__":
    # Print ``name old new`` for every digest that no longer matches its table,
    # and exit 1 if any did:
    #   PYTHONPATH=src:tests python tests/test_golden.py
    tables = [
        ("", DIGESTS, lambda name: _sha256(emit_report(_report(name), fmt="json"))),
        ("axioms:", AXIOM_DIGESTS, _axiom_digest),
        ("search:", SEARCH_DIGESTS, _search_digest),
        ("lockstep:", LOCKSTEP_DIGESTS, _lockstep_digest),
    ]
    moved = False
    for prefix, table, digest in tables:
        for name in sorted(table):
            new = digest(name)
            if new != table[name]:
                print(prefix + name, table[name], new)
                moved = True
    sys.exit(1 if moved else 0)
