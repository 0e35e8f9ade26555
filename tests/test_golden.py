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
exceeds ``residual_tol`` and whose linear fit diverges.  thm5_2 iterates two limits per point (T and Q);
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
checks, was recorded before that change and held through it.

Every report digest was re-recorded once more when reports moved to schema 2
(README, "Report format"): ``samples`` became an object of columns written by
orjson, and a non-finite float the string "inf", "-inf" or "nan".  Each
schema-1 report, parsed, equals its schema-2 report parsed with the columns
turned back into rows and those strings back into floats, key for key and
bit for bit.  The axiom, search and lockstep digests do not go through
``emit_report`` and held, as did ``VERDICTS``.

The thm4_3 and thm5_2 report digests, the thm5_2 search digest and the
thm5_2 lockstep digests were re-recorded once more when each parity-part
limit became ½(lim at x ∓ lim at −x) of f less the other parity's exact
term (README, ``series``): the limit values, and the iteration counts, which
take the larger of a point's two halves, moved.  Every other digest and
``VERDICTS`` held.

The ``thm6_1-noisy`` digest and verdict were re-recorded once more when
``power_limit_many`` took over that split, so that the ball extension's
parity limits take it too.  On that config's 1-D codomain bounded noise is
±a at every point, so the odd part's noise ½(P(y) − P(−y)) is exactly 0 at
about half the steps, and iterating the part stopped on a chance zero gap:
it "recovered" the linear part to 2.8e-17, converged, although 2ⁿ·0.01
diverges.  Its fit now diverges and the report also fails
``linear_recovery``.  Every other digest and verdict held.

Running this file as a script (``PYTHONPATH=src:tests python
tests/test_golden.py``) prints ``name old new`` for every digest that no
longer matches its table and ``verdict:name old new`` for every verdict that
moved, and exits 1 if it printed any, 0 if all held, so a script or a
child-process test can gate on its status.

The digests were recorded with CPython 3.11.7 and numpy 2.4.6 on x86-64.
Elementary functions such as ``pow`` and ``log`` may round differently in
other numpy builds; a mismatch there needs a look at the report, not
necessarily a code fix.
"""

import hashlib
import json
import sys

import numpy as np
import pytest

from jensenlab.experiments import (
    SearchSettings,
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
    "cor2_2-constant": "454d070c725df620d023903a8445e09cc52f21c518ad79d6ec8576b37d65c59e",
    "cor2_2-mixed": "aea8a3bb99a08e4d051a3208455bb58fd2241c6a95be1001ed308f84ec426873",
    "cor2_2-nmax7": "a11c16af10b365046991d1e0b1d27c5d9055223d7bcaaa6d0ac8163544d7ce1e",
    "cor3_2": "7c4cb0b1ce56fd8072818758fc201b770f72a329e834bb89e9ed6e14bb4fd38f",
    "prop4_1-mixed": "3c73d5f2d20c2d89f8e04d308a31a234206680f08b3225f71512890fd9e07ff3",
    "prop4_1-p3": "02c46f2b6a051dee783c7b78c4570e24482a318b5208ad94a1274d55b77310d0",
    "prop4_2": "7c716584ddb5555f0d419d8526c3910131f0d368c9f9d13f9c601e8842888f49",
    "thm2_1-mixed": "20e1dd883e1afbd681b5a299db9a45dae03723341fe9ba090e168a962fc1bc65",
    "thm2_1-quadratic-cap": "ec5a8c3e317b08d5e164aafa1ccd47ba291d4d584ddc90b03319f3f350c93353",
    "thm2_1-table": "e4621aaa633765bcd9c08919cbc956cece78373f76e61694c22988a24d0d3acb",
    "thm3_1": "28ccdd3928f9785b60edaf1e0336ebbc642752b667fda8b2f49e25232fd0a1aa",
    "thm4_3": "64ec58430e6277e302941b09ed37c14cc7118963c5aa3162700fa2d7442a6d76",
    "thm4_3-p3": "b5bd03211abf829cd34a88013ecd3a57db0afb746f1339e5f88748f1c37d0c83",
    "thm5_2": "ac25600cd8aa924008263317fc701f0cd51e360111f6a2c022014caaa92a5f1b",
    "thm5_2-bj-p3": "a53018bb3a7744fb6deba35edfbaed5cca41f20690d7e4bd072dc54cca691852",
    "thm5_2-bj-sup": "3ccebc5446744957455729b56616a11b590ac020d7e5520bcbdc57d0a81de4ba",
    "thm5_2-trivial": "f1b57224e07f9ecd8db07b050724e53a188f9e0cb7bc651bda45c4ccfcb03871",
    "thm6_1": "2c556896c58e67dbb85b411fe34942a154f683df70cc01c6443abea464f6be9e",
    "thm6_2": "75859a276d350aafc54ad6e6f3042d4e6e51540feeeb36e5207a863ffc587448",
    "thm3_1-nmax3": "f8de55b09966bbcda15ea8c2eeb79032c39ab054f83e13385c68748e447fa1d8",
    "prop4_1-nmax3": "668cfab844d9660f80749c7f2ba5c4571f6feceebec032d4d66e12c2737c4916",
    "thm4_3-nmax3": "30c4a3b0191118b1889426207477e0bc85007cfeb0d7d7f902a1ccdd061514f4",
    "thm5_2-nmax3": "6692e10acfe1483980e1edba04834f4f9114db18ac2bf79f3a89234309987523",
    "thm6_1-noisy": "778331d4657ce95bc72970676a657f095bfb1673ea99b53762e51c4c354ad130",
    "thm2_1-mixed-y3": "efc7070b6ec49783a1088d658017104f5a07cd01d210fb7180fd1b8d47d86138",
    "thm4_3-ysup2": "8e59fa4174794a7491311207457d8313fdfd063c5018bd38f9f627a12d6079d5",
    "thm4_3-yp3": "528abfd001f906fc7366c018335fe6782af6032c374526b11842fdd89f18c4be",
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
    "thm6_1-noisy": (False, ("max_ratio", "residual", "linear_recovery")),
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
    # CSV floats are written as repr writes them
    assert emit_report(report, fmt="csv") == csv_by_repr(report)


def _verdict(name):
    report = _report(name)
    return report.passed, report.failed_checks


def test_verdicts():
    assert sorted(VERDICTS) == sorted(CONFIGS)
    assert {name: _verdict(name) for name in CONFIGS} == VERDICTS


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
    "thm5_2": "0b9382a6aab91484800a5e1e568d7303c60efee3e565dc3f9415a8de39bcb299",
}


def _json_default(o):
    """numpy scalars and arrays as json writes their Python values."""
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o)}")


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
    "thm5_2": "f774cee2e7de891224ad86fa36d003ff6dac71baf92e97941a1281055397a64d",
    "thm5_2-bj-sup": "7675a6a953a7db2d5769ca950409a0410789c16a1b40162276bd060d828bba81",
}


def _lockstep_digest(name):
    (cfg,) = parse_config({"schema_version": 1, "experiments": [CONFIGS[name]]})
    out = adversarial_search(cfg, SearchSettings(iterations=12, restarts=3))
    return _sha256(json.dumps(out, indent=2, sort_keys=True, default=_json_default) + "\n")


@pytest.mark.parametrize("name", sorted(LOCKSTEP_DIGESTS))
def test_lockstep_search_digest(name):
    assert _lockstep_digest(name) == LOCKSTEP_DIGESTS[name]


def _verdict_text(verdict):
    """A verdict as one word: ``pass``, or ``fail:`` and its failed checks."""
    passed, failed = verdict
    return "pass" if passed else "fail:" + ",".join(failed)


if __name__ == "__main__":
    # Print ``name old new`` for every digest that no longer matches its table,
    # and ``verdict:name old new`` for every verdict that moved, and exit 1 if
    # any did:
    #   PYTHONPATH=src:tests python tests/test_golden.py
    tables = [
        ("", DIGESTS, lambda name: _sha256(emit_report(_report(name), fmt="json"))),
        ("verdict:", {k: _verdict_text(v) for k, v in VERDICTS.items()},
         lambda name: _verdict_text(_verdict(name))),
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
