"""Seeded inputs for the three benchmark workloads.

Everything here is plain standard-library Python: it writes schema-1 config
files and a plan (the ordered list of operations of one pass) into a
directory, and never imports jensenlab.  The program only ever sees the
generated configs; the workload seed stays in the benchmark.

Sizes are fixed per workload and only seeds and noise draws vary with the
workload seed, so the work in a pass is the same on every seed.

* ``search``: the four-config adversarial-search set of acceptance check 10
  (cor2_2, thm4_3, thm3_1, thm5_2 with 60-80 points, Euclidean norms,
  inner-product relation), with a tenth of its evaluation plan.  Many small
  runs: per-call overhead, the point hash and ``derive_seed`` dominate.
* ``verify``: the library path of ``jensenlab verify``, one config file per
  theorem id at ``VERIFY_POINTS`` points plus the prop4_1 ``linear_scale``
  1e8 probe.  Big batches, report assembly and JSON emission.
* ``scalar_paths``: the configs whose work still loops per point in Python:
  Rätz axiom checks for Birkhoff-James orthogonality in the sup and p=3
  norms, thm5_2 on BJ-orthogonal pairs in the sup norm and thm2_1 with a
  tabulated control.
"""

from __future__ import annotations

import json
import os
import random

WORKLOADS = ("search", "verify", "scalar_paths")

VERIFY_POINTS = 4000
SEARCH_PLAN = (("cor2_2", 35, 5), ("thm4_3", 25, 5), ("thm3_1", 20, 4), ("thm5_2", 20, 4))
AXIOM_TRIALS = 4
BJ_THM52_POINTS = 250
TABLE_THM21_POINTS = 2000

# Known false FAIL, kept on purpose: the limit loop stops on an absolute
# gap, which roundoff near 1e8 never clears under 3^n scaling.
PROP41_PROBE_DEFECT = "prop4_1 linear_scale 1e8 probe: false FAIL from the absolute limit tolerance"

E3 = {"dim": 3, "norm_kind": "euclidean"}
E2 = {"dim": 2, "norm_kind": "euclidean"}
E1 = {"dim": 1, "norm_kind": "euclidean"}
SUP3 = {"dim": 3, "norm_kind": "sup"}
P3 = {"dim": 3, "norm_kind": "p_norm", "p": 3.0}


def _seed(rng: random.Random) -> int:
    return rng.randrange(1 << 31)


def _calibrated(params: dict, control: dict, rng: random.Random) -> list:
    """Noise whose worst-case defect stays under the declared control.

    The same recipe as ``calibrated_perturbations``: a bounded term of
    amplitude eps/(r+s+t), plus for a mixed control a power term whose
    delta is divided by the larger of the two x/y coefficients.
    """
    r, s, t = params["r"], params["s"], params["t"]
    out = [{"kind": "bounded", "amplitude": control["epsilon"] / (r + s + t), "seed": _seed(rng)}]
    if control["kind"] == "mixed":
        p = control["p"]
        coeff = max(r ** (1.0 - p) * s**p + s, r ** (1.0 - p) * t**p + t)
        out.append({"kind": "power", "delta": control["delta"] / coeff, "p": p, "seed": _seed(rng)})
    return out


def _experiment(tid, params, control, domain, count, radius_range, rng, *, space=E3,
                codomain=E2, model=None, perturbation=True, **extra) -> dict:
    exp = {
        "theorem_id": tid,
        "space": space,
        "codomain": codomain,
        "params": params,
        "control": control,
        "domain": domain,
        "sampler": {"count": count, "seed": _seed(rng), "radius_range": list(radius_range)},
        "model": dict(model or {}, seed=_seed(rng)),
    }
    if perturbation:
        exp["perturbation"] = _calibrated(params, control, rng)
    exp.update(extra)
    return exp


def _params(r, s, t) -> dict:
    return {"r": r, "s": s, "t": t}


def _const(eps) -> dict:
    return {"kind": "constant", "epsilon": eps}


MIXED = {"kind": "mixed", "epsilon": 0.3, "delta": 0.2, "p": 0.5}
FULL = {"kind": "full"}
PUNCTURED = {"kind": "punctured"}
IP_PAIRS = {"kind": "orthogonal", "relation": {"kind": "inner_product"}}
BJ_PAIRS = {"kind": "orthogonal", "relation": {"kind": "birkhoff_james"}}


def _search_inputs(rng):
    exps = [
        _experiment("cor2_2", _params(2, 1, 1), MIXED, FULL, 80, (0.05, 6.0), rng),
        _experiment("thm4_3", _params(3, 2, 1), _const(0.4), PUNCTURED, 80, (0.2, 5.0), rng),
        _experiment("thm3_1", _params(2, 1, 1), _const(0.5), {"kind": "exterior", "d": 1.5},
                    60, (0.05, 8.0), rng),
        _experiment("thm5_2", _params(1, 1, 1), _const(0.3), IP_PAIRS, 60, (0.1, 4.0), rng,
                    model={"quadratic": [0.4, -0.2]}),
    ]
    exps[2]["sampler"]["pair_count"] = 300
    # adversarial_search runs iterations // restarts evaluations per restart
    plan = [
        {"op": "search", "experiment": i, "iterations": iters, "restarts": restarts,
         "evaluations": restarts * (iters // restarts)}
        for i, (_, iters, restarts) in enumerate(SEARCH_PLAN)
    ]
    return {"configs.json": exps}, plan


def _verify_inputs(rng):
    n = VERIFY_POINTS
    exps = [
        _experiment("thm2_1", _params(2, 1, 1), MIXED, FULL, n, (0.05, 6.0), rng),
        _experiment("cor2_2", _params(2, 1, 1), MIXED, FULL, n, (0.05, 6.0), rng),
        _experiment("thm3_1", _params(2, 1, 1), _const(0.5), {"kind": "exterior", "d": 1.5},
                    n, (0.05, 8.0), rng),
        _experiment("cor3_2", _params(2, 1, 1), _const(0.3), FULL, n, (0.05, 6.0), rng,
                    shells={"edges": [0.5, 1.0, 2.0, 4.0, 8.0, 16.0],
                            "samples_per_shell": n // 5},
                    expected_decay=False),
        _experiment("prop4_1", _params(3, 2, 1), _const(0.4), PUNCTURED, n, (0.2, 5.0), rng),
        _experiment("prop4_2", _params(2, 1, 1), _const(0.3), PUNCTURED, n, (0.2, 5.0), rng),
        _experiment("thm4_3", _params(3, 2, 1), _const(0.4), PUNCTURED, n, (0.2, 5.0), rng),
        _experiment("thm5_2", _params(1, 1, 1), _const(0.3), IP_PAIRS, n, (0.1, 4.0), rng,
                    model={"quadratic": [0.4, -0.2]}),
        _experiment("thm6_1", _params(2, 2, 2), _const(0.0), FULL, n, (0.0, 1.0), rng,
                    codomain=E1, model={"quadratic": [0.25]}, perturbation=False,
                    ball={"radius": 1.0, "exclude_origin": False}),
        _experiment("thm6_2", _params(4, 3, 3), _const(0.0), FULL, n, (0.0, 1.0), rng,
                    codomain=E1, perturbation=False,
                    ball={"radius": 1.0, "exclude_origin": True}),
        _experiment("prop4_1", _params(3, 2, 1), _const(0.3), PUNCTURED, 50, (0.2, 5.0), rng,
                    model={"linear_scale": 1e8}, perturbation=False),
    ]
    exps[-1]["perturbation"] = [{"kind": "bounded", "amplitude": 0.03, "seed": _seed(rng)}]
    files, plan = {}, []
    for i, exp in enumerate(exps):
        name = f"exp-{i:02d}-{exp['theorem_id']}.json"
        files[name] = [exp]
        plan.append({
            "op": "verify",
            "config": name,
            "expect_pass": True,
            "known_defect": PROP41_PROBE_DEFECT if i == len(exps) - 1 else None,
        })
    return files, plan


def _scalar_inputs(rng):
    table = {
        "kind": "table",
        "table": {"radii": [0.0, 0.5, 1.0, 2.0, 4.0, 8.0],
                  "values": [0.3, 0.32, 0.36, 0.45, 0.6, 0.8], "q": 0.5},
    }
    exps = [
        _experiment("thm5_2", _params(1, 1, 1), _const(0.3), BJ_PAIRS, BJ_THM52_POINTS,
                    (0.1, 4.0), rng, space=SUP3),
        _experiment("thm2_1", _params(2, 1, 1), table, FULL, TABLE_THM21_POINTS, (0.05, 6.0),
                    rng, perturbation=False),
    ]
    # (r+s+t)·amplitude = 0.2 stays under the table's floor φ >= 2·0.3.
    exps[1]["perturbation"] = [{"kind": "bounded", "amplitude": 0.05, "seed": _seed(rng)}]
    plan = [
        {"op": "axioms", "relation": "birkhoff_james", "space": space,
         "trials": AXIOM_TRIALS, "seed": _seed(rng)}
        for space in (SUP3, P3)
    ]
    plan += [{"op": "experiment", "experiment": i, "expect_pass": True, "known_defect": None}
             for i in range(len(exps))]
    return {"configs.json": exps}, plan


_BUILDERS = {"search": _search_inputs, "verify": _verify_inputs, "scalar_paths": _scalar_inputs}


def write_inputs(workload: str, seed: int, directory: str) -> None:
    """Write the config files and ``plan.json`` of one workload pass."""
    files, plan = _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
    for name, exps in files.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            json.dump({"schema_version": 1, "experiments": exps}, fh, indent=1)
    with open(os.path.join(directory, "plan.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "ops": plan}, fh, indent=1)
