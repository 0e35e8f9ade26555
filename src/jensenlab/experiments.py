"""Experiment configs, the theorem table and its run path, and reports.

An experiment pins down a theorem id, a space, equation coefficients, a
control function, a perturbation recipe, a hypothesis domain, and a seeded
sampler.  Running it builds the models, measures the *effective* epsilon (the
empirical defect sup over hypothesis pairs, after subtracting the declared
non-constant part of the control), rebuilds the theorem's bound with that
measured epsilon, and checks the advertised construction pointwise.  A run is
a pure function of its config: reports are byte-identical across repeats.

One _THEOREMS entry per theorem id says how it is checked and validated.
The seven limit theorems share one run path; cor3_2 (a shell profile) and
thm6_1/thm6_2 (a ball extension) name runners of their own.  Each pass/fail
condition is one record in details["checks"] (_finish), max_ratio <= 1 first;
a report passes when every one holds, and failed_checks names the others.

Supported theorem ids:

  thm2_1   full domain, Pexider triple, dyadic approximant
  cor2_2   full domain, single f, single-variable mixed bound
  thm3_1   exterior domain ‖x‖+‖y‖ ≥ d, five-pair chain, bound 15ε/r
  cor3_2   full domain, shells of ‖x‖+‖y‖, profile diagnosing asymptotic additivity
  prop4_1  punctured domain, h odd, triadic approximant
  prop4_2  punctured domain, h even, smallness conclusions
  thm4_3   punctured domain, odd/even split of a single f
  thm5_2   orthogonal pairs, additive + quadratic decomposition (68ε / 80ε)
  thm6_1   map on a ball, exact model, scaling extension (base 2)
  thm6_2   map on a punctured ball, exact model, scaling extension (base 2λ²)
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from operator import attrgetter

import numpy as np
import orjson

from .control import (
    CONSTANT,
    MIXED,
    TABLE,
    ControlFunctionSpec,
    RadialControlTable,
    control_phi_norms,
)
from .domains import (
    EXTERIOR,
    FULL,
    ORTHOGONAL,
    PUNCTURED,
    DomainRestriction,
    ShellSettings,
    asymptotic_profile,
    construct_z_many,
    five_inequality_margins,
    five_term_defect_many,
    FIVE_INEQ_TOL,
)
from .models import (
    BOUNDED,
    DECAY,
    EvenPart,
    FunctionModel,
    JensenParams,
    NONE,
    OddPart,
    POWER,
    PerturbationSpec,
    ScaledModel,
    _in_64_bits,
    derive_seed,
    jensen_defect_many,
    odd_even_split,
)
from .orthogonal import (
    BallSettings,
    _ball_base,
    even_part_constancy_check,
    pexider_reduction_check,
    scaling_identity_check,
    sikorska_extend,
)
from .sampling import (
    exterior_pairs,
    orthogonal_pairs,
    rng_from,
    sample_pairs,
    sample_points,
    shell_pairs,
)
from .series import (
    cor22_bound_norms,
    phi_tilde_dyadic_norms,
    phi_tilde_triadic_norms,
    power_limit_many,
)
from .spaces import (
    EUCLIDEAN,
    INNER_PRODUCT,
    ConfigError,
    NormedSpaceSpec,
    OrthogonalityRelation,
    _check_floats,
    norm_many,
)

CONFIG_SCHEMA_VERSION = 1
REPORT_SCHEMA_VERSION = 3
REPORT_TOL = 1e-7  # relative slack on max_ratio <= 1


@dataclass(frozen=True)
class SamplerSettings:
    count: int
    seed: int
    radius_range: tuple
    pair_count: int | None = None

    def __post_init__(self):
        if self.count < 1:
            raise ConfigError("count must be >= 1")
        if self.pair_count is not None and self.pair_count < 1:
            raise ConfigError("pair_count must be >= 1")
        for key in ("count", "seed", "pair_count"):
            if not _in_64_bits(getattr(self, key) or 0):
                raise ConfigError(f"{key} must fit in 64 bits, got {getattr(self, key)!r:.60}")
        lo, hi = self.radius_range
        if not (0.0 <= lo < hi):
            raise ConfigError("radius_range must satisfy 0 <= lo < hi")
        if not math.isfinite(hi):
            raise ConfigError(f"radius_range must be finite, got {self.radius_range}")

    @property
    def pairs(self) -> int:
        return self.count if self.pair_count is None else self.pair_count


@dataclass(frozen=True)
class LimitSettings:
    n_max: int | None = None  # None -> per-construction default
    tol: float = 1e-9

    def __post_init__(self):
        # 2**20 is the exponent clip of the limit's certificate; the automatic cap is <= 600
        if self.n_max is not None and not 1 <= self.n_max <= 2**20:
            raise ConfigError(f"n_max must be in [1, 2**20], got {self.n_max!r:.60}")
        if not (0.0 < self.tol < math.inf):
            raise ConfigError("tol must be positive and finite")


@dataclass(frozen=True)
class ModelSettings:
    linear: tuple | None = None  # explicit matrix rows, else generated
    linear_scale: float = 1.0
    quadratic: tuple | None = None  # codomain coefficient vector of ‖x‖²
    perturbations: tuple = ()
    seed: int | None = None  # defaults to sampler.seed

    def __post_init__(self):
        if not _in_64_bits(self.seed or 0):
            raise ConfigError(f"seed must fit in 64 bits, got {self.seed!r:.60}")


@dataclass(frozen=True)
class ExperimentConfig:
    theorem_id: str
    space: NormedSpaceSpec
    codomain: NormedSpaceSpec
    params: JensenParams
    control: ControlFunctionSpec
    domain: DomainRestriction
    sampler: SamplerSettings
    limits: LimitSettings = field(default_factory=LimitSettings)
    model: ModelSettings = field(default_factory=ModelSettings)
    ball: BallSettings | None = None
    residual_tol: float = 1e-6
    decay_tol: float = 1e-3
    expected_decay: bool | None = None
    shells: ShellSettings | None = None

    def __post_init__(self):
        if self.theorem_id not in THEOREM_IDS:
            raise ConfigError(f"unknown theorem_id {self.theorem_id!r}")
        for name in ("residual_tol", "decay_tol"):
            if not (0.0 < getattr(self, name) < math.inf):
                raise ConfigError(f"{name} must be positive and finite")
        m, dim, codim = self.model, self.space.dim, self.codomain.dim
        # no array of a run (points, pairs or one shell's pairs × space.dim or
        # codomain.dim, and the linear part) holds over 2**28 floats
        size = {"sampler.count": self.sampler.count, "sampler.pair_count": self.sampler.pairs,
                "shells.samples_per_shell": self.shells.samples_per_shell if self.shells else 0}
        points = max(size, key=size.get)
        size |= {"space.dim": dim, "codomain.dim": codim}
        for a, b in ((points, "space.dim"), (points, "codomain.dim"),
                     ("codomain.dim", "space.dim")):
            _check_floats((a, size[a]), (b, size[b]))
        if m.linear is not None and np.shape(m.linear) != (codim, dim):
            raise ConfigError(f"model.linear must be {codim} x {dim}")
        if m.quadratic is not None and np.shape(m.quadratic) != (codim,):
            raise ConfigError(f"model.quadratic must have {codim} entries")
        tid, dom, thm = self.theorem_id, self.domain, _THEOREMS[self.theorem_id]
        for key in ("ball", "shells", "expected_decay"):
            if (getattr(self, key) is None) == (key in thm.requires):
                raise ConfigError(f"{tid} needs {key}" if key in thm.requires
                                  else f"{tid} does not read {key}")
        if dom.kind != thm.domain:
            raise ConfigError(f"{tid} runs on the {thm.domain} domain, got domain.kind {dom.kind}")
        elif dom.kind == PUNCTURED and self.sampler.radius_range[0] <= 0.0:
            raise ConfigError(f"{tid} needs a positive lower sampling radius")
        elif dom.kind == ORTHOGONAL:
            rel = dom.relation.kind
            if rel == INNER_PRODUCT and not self.space.has_inner_product:
                raise ConfigError("inner_product pairs need a euclidean space")
            if self.space.dim < 2:
                # on a line only y = 0 is orthogonal to x != 0, and no pair is independent
                raise ConfigError(f"{rel} pairs need space.dim >= 2")
        if self.ball is not None:
            _ball_base(self.params)
            punctured = tid == "thm6_2"  # thm6_1 extends from the whole ball
            if self.ball.exclude_origin != punctured:
                raise ConfigError(f"{tid} needs ball.exclude_origin: {str(punctured).lower()}")
        if self.control.kind not in thm.controls:
            raise ConfigError(f"{tid} takes {' or '.join(thm.controls)} controls, "
                              f"not {self.control.kind}")

# ---------------------------------------------------------------------------
# model building


def _model_seed(cfg: ExperimentConfig) -> int:
    return cfg.sampler.seed if cfg.model.seed is None else cfg.model.seed


def _role_perturbations(cfg: ExperimentConfig, role_offset: int) -> tuple:
    """The config's perturbation terms for one role: f (offset 0) keeps the
    specs as they are, g and h draw from seeds derived per term."""
    return tuple(
        p if role_offset == 0 else replace(p, seed=derive_seed(p.seed, role_offset + i))
        for i, p in enumerate(cfg.model.perturbations)
        if p.kind != "none"
    )


def calibrated_perturbations(
    params: JensenParams, control: ControlFunctionSpec, seed: int = 0
) -> tuple:
    """Perturbation specs whose worst-case defect fits under the control.

    A bounded term of amplitude a on each of f, g, h contributes at most
    (r+s+t)·a to the defect, so a = ε/(r+s+t) stays inside the constant
    part.  A power term also rides on the inner argument (s·x+t·y)/r, and
    (s‖x‖+t‖y‖)^p <= s^p‖x‖^p + t^p‖y‖^p for p < 1 bounds its defect share
    by δ'·(r^(1-p)s^p + s)‖x‖^p + δ'·(r^(1-p)t^p + t)‖y‖^p; dividing δ by
    the larger coefficient keeps the total under δ·(‖x‖^p + ‖y‖^p).
    """
    if control.kind == TABLE:
        raise ConfigError("calibrated_perturbations does not support table controls")
    r, s, t = params.r, params.s, params.t
    specs = [PerturbationSpec(kind=BOUNDED, amplitude=control.epsilon / (r + s + t),
                              seed=derive_seed(seed, 11))]
    if control.kind == MIXED and control.delta > 0.0:
        p = control.p
        coeff = max(r ** (1.0 - p) * s**p + s, r ** (1.0 - p) * t**p + t)
        specs.append(PerturbationSpec(kind=POWER, delta=control.delta / coeff, p=p,
                                      seed=derive_seed(seed, 12)))
    return tuple(specs)


def build_models(cfg):
    """Construct (f, g, h) for the experiment; g and h may alias f.

    For a list of K compatible configs (see run_experiment) each model holds
    one candidate per config, in order: one linear part per model seed and a
    tuple of K seeds per perturbation term.
    """
    cfgs = cfg if isinstance(cfg, list) else [cfg]
    cfg = cfgs[0]
    thm = _THEOREMS[cfg.theorem_id]
    if thm.zero_linear:
        L = np.zeros((cfg.codomain.dim, cfg.space.dim))
    elif cfg.model.linear is not None:
        L = np.asarray(cfg.model.linear, dtype=np.float64)
    else:
        seeds = [_model_seed(c) for c in cfgs]
        shape = (cfg.codomain.dim, cfg.space.dim)
        drawn = {seed: rng_from(seed, "linear").uniform(-2.0, 2.0, size=shape)
                 * cfg.model.linear_scale for seed in dict.fromkeys(seeds)}
        L = drawn[seeds[0]] if len(drawn) == 1 else np.stack([drawn[seed] for seed in seeds])
    quad = None
    if cfg.model.quadratic is not None:
        quad = np.asarray(cfg.model.quadratic, dtype=np.float64)

    def mk(role_offset):
        return FunctionModel(
            domain=cfg.space,
            codomain=cfg.codomain,
            linear=L,
            quadratic=quad,
            perturbations=tuple(
                replace(t[0], seed=tuple(p.seed for p in t)) if len(t) > 1 else t[0]
                for t in zip(*(_role_perturbations(c, role_offset) for c in cfgs))
            ),
        )

    f = mk(0)
    if not thm.pexider:
        return f, f, f
    g, h = mk(100), mk(200)
    return f, g, h if thm.h_part is None else thm.h_part(h)


# ---------------------------------------------------------------------------
# effective epsilon


def measure_epsilon(cfg, f, g, h, X, Y):
    """Effective ε: defect sup after subtracting the declared non-constant part.

    The control is evaluated at (x, y), or at (x, (t/s)y) for the ids whose
    _THEOREMS entry sets scale_y (the punctured propositions control the
    defect by φ(x, (t/s)y)).  Returns ε and its witness pair; for a list of
    K compatible configs, whose pairs X, Y hold one equal segment per config
    and whose models hold one candidate per config, a list of each, taken
    over each config's segment.
    """
    cfgs = cfg if isinstance(cfg, list) else [cfg]
    K, n, c = len(cfgs), X.shape[0] // len(cfgs), cfgs[0]
    scale_y = c.params.t / c.params.s if _THEOREMS[c.theorem_id].scale_y else 1.0
    part = replace(c.control, epsilon=0.0)
    # an overflowing defect or control part is reported below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        defects = jensen_defect_many(f, g, h, c.params, X, Y, np.repeat(np.arange(K), n))
        nonconst = control_phi_norms(part, norm_many(c.space, X), norm_many(c.space, Y) * scale_y)
    if not np.all(np.isfinite(defects)):
        raise ConfigError("the sampled Jensen defect overflows; lower sampler.radius_range, "
                          "model.linear_scale, the perturbation amplitudes or perturbation[].delta")
    if not np.all(np.isfinite(nonconst)):
        raise ConfigError("control: its part overflows at the sampled pairs; lower control.delta"
                          " or the control.table values")
    adj = np.maximum(defects - nonconst, 0.0).reshape(K, n)
    best = np.argmax(adj, axis=1)
    eps = adj[np.arange(K), best].tolist()
    wits = [{"x": X[i].tolist(), "y": Y[i].tolist(), "defect": float(defects[i])}
            for i in (best + n * np.arange(K)).tolist()]
    return (eps, wits) if isinstance(cfg, list) else (eps[0], wits[0])


# ---------------------------------------------------------------------------
# reports


@dataclass(eq=False)
class _Rows:
    """Report rows as columns: point X[k], checked for its worst role roles[role[k]]."""

    X: np.ndarray  # (n, dim)
    roles: tuple
    role: np.ndarray  # (n,) index into roles
    deviation: np.ndarray
    bound: np.ndarray
    ratio: np.ndarray

    def __len__(self) -> int:
        return len(self.role)

    def dicts(self, idx) -> list:
        """Dict rows for the points X[idx], keys in report order."""
        roles = [self.roles[k] for k in self.role[idx].tolist()]
        cols = (self.X[idx].tolist(), roles, self.deviation[idx].tolist(),
                self.bound[idx].tolist(), self.ratio[idx].tolist())
        return [{"x": x, "role": r, "deviation": d, "bound": b, "ratio": q}
                for x, r, d, b, q in zip(*cols)]

    def digests(self) -> dict:
        """The report's samples block: the row count, the points of each worst
        role, and each column's sha256, the roles' over their names joined by
        "\\n" (the rows themselves are the CSV's)."""
        counts = np.bincount(self.role, minlength=len(self.roles)).tolist()
        names = "\n".join(self.roles[k] for k in self.role.tolist()).encode()
        return {"count": len(self), "roles": dict(zip(self.roles, counts)), "sha256": {
            "bound": _sha256(self.bound), "deviation": _sha256(self.deviation),
            "ratio": _sha256(self.ratio), "role": hashlib.sha256(names).hexdigest(),
            "x": _sha256(self.X)}}


def _sha256(col: np.ndarray) -> str:
    """sha256 of a float column's little-endian float64 bytes, row-major, every
    NaN the canonical quiet NaN (as float("nan") reads back from the CSV)."""
    col = np.where(np.isnan(col), np.nan, col).astype("<f8", copy=False)
    return hashlib.sha256(col.tobytes()).hexdigest()


_NO_ROWS = _Rows(np.empty((0, 0)), (), np.empty(0, int), np.empty(0), np.empty(0), np.empty(0))


@dataclass
class StabilityReport:
    """One config's verdict, read from its check records.  config, the
    config's canonical dict, is written from cfg when it is first read."""

    theorem_id: str
    cfg: ExperimentConfig
    epsilon_effective: float
    bound_value: float
    max_deviation: float
    max_ratio: float
    witnesses: list
    samples: _Rows
    details: dict  # details["checks"]: the check records, which decide the verdict
    iterations: dict
    runtime: dict | None = None

    @cached_property
    def config(self) -> dict:
        return config_to_dict(self.cfg)

    @property
    def failed_checks(self) -> tuple:
        return tuple(c["name"] for c in self.details["checks"] if not c["passed"])

    @property
    def passed(self) -> bool:
        return not self.failed_checks

    def to_dict(self, include_runtime: bool = False) -> dict:
        """The report as emit_report writes it: samples as their digests
        (_Rows.digests), and every non-finite float spelled by _spelled."""
        head = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "theorem_id": self.theorem_id,
            "config": self.config,
            "epsilon_effective": self.epsilon_effective,
            "bound_value": self.bound_value,
            "max_deviation": self.max_deviation,
            "max_ratio": self.max_ratio,
            "pass": self.passed,
            "witnesses": self.witnesses,
            "details": self.details,
            "iterations": self.iterations,
            "samples": self.samples.digests(),
        }
        if include_runtime and self.runtime is not None:
            head["runtime"] = self.runtime
        return _spelled(head)


def _spelled(o):
    """o for orjson, which writes a non-finite float as null: such a float
    becomes the string "inf", "-inf" or "nan", in dicts and lists too."""
    if isinstance(o, (float, np.floating)):
        return o if math.isfinite(o) else str(float(o))
    if isinstance(o, dict):
        return {k: _spelled(v) for k, v in o.items()}
    if isinstance(o, (list, tuple)):
        return [_spelled(v) for v in o]
    return o


def _float_strs(a: np.ndarray) -> list:
    """repr of each value of a 1-D float64 array, for CSV.

    orjson writes ±0 and 1e-4 <= |x| < 1e16 with the shortest round-trip
    digits, the closest among them, as repr does; repr writes the rest (where
    orjson writes 1e16, 0.00001, null for nan), once per distinct value.
    """
    out = orjson.dumps(np.ascontiguousarray(a), option=orjson.OPT_SERIALIZE_NUMPY)[1:-1]
    out = out.decode().split(",") if a.size else []
    m = np.abs(a)
    idx = np.flatnonzero(~((m >= 1e-4) & (m < 1e16)) & (a != 0))
    if idx.size:  # np.unique merges every NaN; all of them are written alike
        vals, inv = np.unique(a[idx], return_inverse=True)
        strs = list(map(repr, vals.tolist()))
        for i, k in zip(idx.tolist(), inv.tolist()):
            out[i] = strs[k]
    return out


_JSON_OPTIONS = orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY


def emit_report(report: StabilityReport, fmt: str = "json", include_runtime: bool = False) -> str:
    """Render a report; JSON is canonical (sorted keys) and replayable.

    Wall-clock timing is left out unless asked for, so two runs of the same
    config serialize to identical bytes.  The JSON is orjson's writing of
    report.to_dict() (README, "Report format"); CSV writes one line per point,
    every float as repr writes it, and refuses include_runtime.
    """
    if fmt == "json":
        return orjson.dumps(report.to_dict(include_runtime), option=_JSON_OPTIONS).decode() + "\n"
    if fmt != "csv":
        raise ConfigError(f"unknown report format {fmt!r}")
    if include_runtime:
        raise ConfigError("include_runtime needs fmt 'json'; CSV has no runtime block")
    # csv.writer's CSV: no field (floats, counts, theorem ids, role names) needs quoting
    prof = report.details.get("profile")
    if prof is not None:  # a shell profile (cor3_2) is written one shell per line
        edges, n = prof["edges"], prof["samples_per_shell"]
        return "shell_edge_low,shell_edge_high,sup_defect,samples\n" + "".join(
            f"{lo!r},{hi!r},{sup!r},{n}\n" for lo, hi, sup in zip(edges, edges[1:], prof["sup_defect"]))
    rows, n = report.samples, len(report.samples)
    cols = [[report.theorem_id] * n, list(map(str, range(n))),
            [rows.roles[k] for k in rows.role.tolist()],
            *map(_float_strs, (*rows.X.T, rows.deviation, rows.bound, rows.ratio))]
    W = 2 * len(cols)  # column k at slot 2k of a row, the comma or newline after it next
    out = [","] * (n * W)
    for k, col in enumerate(cols):
        out[2 * k::W] = col
    out[W - 1::W] = ["\n"] * n
    xs = [f"x{k}" for k in range(rows.X.shape[1] if n else 0)]
    return ",".join(["theorem_id", "index", "role", *xs, "deviation", "bound", "ratio\n"]) + "".join(out)


def emit_reports(reports: list, include_runtime: bool = False) -> str:
    """Several reports as one JSON payload ``{"schema_version": 3, "reports": [...]}``."""
    obj = {"schema_version": REPORT_SCHEMA_VERSION,
           "reports": [r.to_dict(include_runtime) for r in reports]}
    return orjson.dumps(obj, option=_JSON_OPTIONS).decode() + "\n"


def _ratio_arrays(devs: np.ndarray, bounds: np.ndarray, tol: float) -> np.ndarray:
    floor = max(4.0 * tol, 1e-10)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(
            bounds > 0.0, devs / bounds, np.where(devs <= floor, 0.0, np.inf)
        )
    return ratios


def _assemble_rows(X, roles, devs, bounds, tol, K) -> list:
    """Each of K configs' (rows, max_dev, bound_value, max_ratio, witnesses), in one pass.

    X holds K equal segments of n points, one per config in config order;
    devs and bounds are (roles, K·n), each role's deviation and bound there.
    A row keeps its point's worst role.  max_dev and bound_value are Python's
    max over the role maxima, so a NaN in a later role leaves an earlier
    finite maximum; the witnesses are a config's three highest ratios.
    """
    ratios = _ratio_arrays(devs, bounds, tol)
    role = np.argmax(ratios, axis=0)
    pick = (role, np.arange(len(role)))
    cols = (role, devs[pick], bounds[pick], ratios[pick])
    n = len(role) // K
    top = np.argsort(-cols[3].reshape(K, n), axis=1)[:, :3]
    wits = _Rows(X, roles, *cols).dicts((top + n * np.arange(K)[:, None]).ravel())
    w = top.shape[1]
    max_dev, bound_value = ([max(m) for m in zip(*a.reshape(-1, K, n).max(axis=2).tolist())]
                            for a in (devs, bounds))
    max_ratio = ratios.reshape(-1, K, n).max(axis=(0, 2)).tolist()
    segs = [slice(i * n, (i + 1) * n) for i in range(K)]
    return [(_Rows(X[s], roles, *(c[s] for c in cols)), md, bv, mr, wits[i * w:(i + 1) * w])
            for i, (s, md, bv, mr) in enumerate(zip(segs, max_dev, bound_value, max_ratio))]


def _hypothesis_pairs(cfgs: list):
    """Pairs from the hypothesis domain, with a low-radius stratum and axis pairs.

    One sampling pass for K compatible configs: each draws from its own
    "pairs" stream on its own radius range, and X, Y hold one segment of
    sampler.pairs rows per config, in config order.
    """
    cfg, K = cfgs[0], len(cfgs)
    rngs = [rng_from(c.sampler.seed, "pairs") for c in cfgs]
    ranges = [c.sampler.radius_range for c in cfgs]
    n, dom, space = cfg.sampler.pairs, cfg.domain, cfg.space
    if dom.kind == EXTERIOR:
        return exterior_pairs(space, dom.d, n, ranges, rngs, axis_period=8)
    if dom.kind == ORTHOGONAL:
        return orthogonal_pairs(dom.relation, space, n, ranges, rngs, axis_period=8)
    if dom.kind == PUNCTURED:
        return sample_pairs(space, n, ranges, rngs, axis_period=0)
    # the full domain draws its two strata one after the other from each stream
    n_low = n // 4
    wide = sample_pairs(space, n - n_low, ranges, rngs, axis_period=8)
    low = sample_pairs(space, n_low, [(lo, lo + 0.1 * (hi - lo)) for lo, hi in ranges], rngs)
    dim = space.dim
    return tuple(np.concatenate([w.reshape(K, n - n_low, dim), v.reshape(K, n_low, dim)], axis=1)
                 .reshape(K * n, dim) for w, v in zip(wide, low))


def _dev_points(cfgs: list):
    """The points the roles are checked at, one segment per config from its "points" stream."""
    return sample_points(cfgs[0].space, cfgs[0].sampler.count,
                         [c.sampler.radius_range for c in cfgs],
                         [rng_from(c.sampler.seed, "points") for c in cfgs])


def _limit_meta(iterations: np.ndarray, converged: np.ndarray):
    """Each config's iteration summary and count of points where a limit diverged.

    iterations and converged are (limits, K, n): one count and flag per
    limit, config and point.  Returns (summaries, diverged), one each per config.
    """
    L, K, n = iterations.shape
    if L == 0:
        return [{"max_iterations": 0, "mean_iterations": 0.0, "converged_fraction": 1.0}
                for _ in range(K)], [0] * K
    cols = (a.tolist() for a in (iterations.max(axis=(0, 2)), iterations.mean(axis=(0, 2)),
                                 converged.mean(axis=(0, 2))))
    return ([{"max_iterations": a, "mean_iterations": m, "converged_fraction": c}
             for a, m, c in zip(*cols)], (~converged.all(axis=0)).sum(axis=1).tolist())


# ---------------------------------------------------------------------------
# the theorem table
#
# Thm 2.1, Cor 2.2, Thm 3.1, Prop 4.1, Prop 4.2, Thm 4.3 and Thm 5.2 are all
# checked by Hyers' direct method: measure ε̂ on the hypothesis pairs, iterate
# one scaling limit at fresh points, compare each role's deviation with its
# bound there, and AND the side conditions; _run_limit_theorem is their run
# path.  Cor 3.2 and Thm 6.1/6.2 have runners of their own.  _THEOREMS says
# what differs per theorem id, for all ten.  Table entries call the other
# modules' functions by name from code in this module, never hold them.


class _Batch:
    """What a theorem's limit, deviations and extras read from K compatible configs.

    X, Y hold the hypothesis pairs and X0 the points the roles are checked
    at, each one equal segment per config in config order, and cand the
    config of each row of X0; the models hold one candidate per config.  A
    is the limit at X0 once it has been taken.
    """

    def __init__(self, cfgs, models, X, Y, X0):
        self.cfgs, self.params = cfgs, cfgs[0].params
        self.r, self.s, self.t = self.params.r, self.params.s, self.params.t
        self.f, self.g, self.h = models
        self.X, self.Y, self.X0 = X, Y, X0
        self.cand = np.repeat(np.arange(len(cfgs)), X0.shape[0] // len(cfgs))
        self.tol = cfgs[0].limits.tol
        self.A = None

    @cached_property
    def parts(self):
        """(odd, even) parts of f."""
        return odd_even_split(self.f)

    def at(self, model, X=None):
        """model at X (default X0), each row for its config's candidate."""
        return model.eval_many(self.X0 if X is None else X, self.cand)

    def norm(self, vals):
        return norm_many(self.cfgs[0].codomain, vals)

    def dev(self, model):
        return self.norm(self.at(model) - self.A)

    def limit(self, subject, base: float, gain: float, arg_scale: float = 1.0):
        """lim gainⁿ·subject(baseⁿ·x) at X0: (values, iterations, converged),
        capped per row by n_max(base, arg_scale)."""
        vals, iters, _, conv = power_limit_many(
            subject, self.X0, base, gain, self.n_max(base, arg_scale), self.tol, cand=self.cand)
        return vals, iters, conv

    def n_max(self, base: float, arg_scale: float = 1.0):
        """Each row's iteration cap: enough for the slowest perturbation's gap to clear tol.

        The floor is the steps for base⁻ⁿ to fall to 2⁻⁴⁰ (40 at base 2, 25 at
        base 3).  A perturbation bounded by a contributes ~a·base^{-n} to the gap;
        one bounded by δ‖x‖^p contributes ~δ‖x‖^p·base^{(p-1)n}, with ‖x‖ up to
        the upper sampling radius R.  Honest divergence (wrong-order exact parts)
        is unaffected: extra iterations cannot make a non-Cauchy sequence settle.
        R is the only key read here in which a batch's configs may differ, so one
        evaluation over the K radii gives each config the cap it gets run alone;
        R^p is Python's pow, as numpy's may round otherwise.
        """
        cfg = self.cfgs[0]
        if cfg.limits.n_max is not None:
            return np.full(len(self.cand), cfg.limits.n_max)
        R = [max(c.sampler.radius_range[1] * arg_scale, 1.0) for c in self.cfgs]
        need = np.full(len(R), int(40 / math.log2(base)))
        for p in cfg.model.perturbations:
            if p.kind == POWER and p.delta > 0.0:
                rate = (1.0 - p.p) * np.log(base)
                n = np.log(np.maximum(2.0 * p.delta * np.array([r**p.p for r in R]) / self.tol,
                                      1.0)) / rate
            elif p.kind in (BOUNDED, DECAY) and p.amplitude > 0.0:
                n = np.log(max(3.0 * p.amplitude / self.tol, 1.0)) / np.log(base)
            else:
                continue
            # n is inf once a/tol overflows
            need = np.maximum(need, np.ceil(np.minimum(n, 600)).astype(int) + 6)
        return np.minimum(need, 600)[self.cand]


class _Run:
    """What a theorem's bounds and checks read from one config's run.

    nx are the norms of its points in X0; control is the effective control:
    the declared one with its constant ε replaced by the measured ε̂.
    """

    def __init__(self, cfg: ExperimentConfig, eps_hat: float, nx):
        self.cfg, self.params = cfg, cfg.params
        self.r, self.s, self.t = cfg.params.r, cfg.params.s, cfg.params.t
        self.nx = nx
        self.eps = eps_hat
        self.control = replace(cfg.control, epsilon=eps_hat)

    def phi(self, nx, ny):
        return control_phi_norms(self.control, nx, ny)

    def dyadic(self, m):  # φ~(m, m)
        return phi_tilde_dyadic_norms(self.control, self.params, m, m)

    def triadic(self, m):
        return phi_tilde_triadic_norms(self.control, m, m)

    def flat(self, value):
        return np.full_like(self.nx, value)


def _pexider_limit(b: _Batch, subject):
    """Additive approximant A(x) = (1/s)·lim 3⁻ⁿ·r·subject(3ⁿ(s/r)x): the triadic
    limit on the Pexider reduction."""
    return b.limit(ScaledModel(subject, b.s / b.r, b.r / b.s), 3.0, 1.0 / 3.0, b.s / b.r)


def _sum_limits(*limits):
    """The sum of limits at X0, with their iteration counts and flags limit after limit."""
    vals, iters, conv = zip(*limits)
    return sum(vals[1:], vals[0]), np.concatenate(iters), np.concatenate(conv)


def _exterior_chain(b: _Batch, runs: list) -> list:
    """Thm 3.1's bridge: interior pairs reach the exterior through five pairs via z.
    Each config draws its own interior pairs, in one sampling pass; one chain
    evaluation covers them all, and the counts and checks are taken over each
    config's own."""
    space, d, K = b.cfgs[0].space, b.cfgs[0].domain.d, len(runs)
    Xi, Yi = shell_pairs(space, 0.0, d, b.cfgs[0].sampler.pairs,
                         [rng_from(c.sampler.seed, "interior") for c in b.cfgs])
    Z = construct_z_many(space, Xi, Yi, d)
    margins = five_inequality_margins(space, b.params, Xi, Yi, Z, d)
    m = Xi.shape[0] // K
    failures = np.any(margins < -FIVE_INEQ_TOL * max(1.0, d), axis=1).reshape(K, m).sum(axis=1)
    direct, chain = (a.reshape(K, m) for a in five_term_defect_many(
        b.f, b.params, Xi, Yi, Z, np.repeat(np.arange(K), m))[:2])
    chain_max, direct_max = chain.max(axis=1), direct.max(axis=1)
    violations = np.sum(direct > chain + 1e-12 * np.maximum(1.0, chain_max)[:, None], axis=1)
    return [({"interior_pairs": m, "chain_defect_max": cm}, [
        {"name": "five_inequalities", "value": nf, "limit": 0, "passed": nf == 0},
        {"name": "direct_within_chain", "value": nv, "limit": 0, "passed": nv == 0},
        {"name": "interior_defect", "value": dm, "limit": 5.0 * k.eps,
         "passed": dm <= 5.0 * k.eps * (1.0 + REPORT_TOL) + 1e-12},
    ]) for k, nf, nv, dm, cm in zip(runs, failures.tolist(), violations.tolist(),
                                    direct_max.tolist(), chain_max.tolist())]


def _orthogonal_reduction(b: _Batch, runs: list) -> list:
    """Thm 5.2's reduction of (f, g, h) to f alone, sampled on the hypothesis pairs."""
    K = len(runs)
    reds = pexider_reduction_check(b.f, b.params, b.X, b.Y,
                                   np.repeat(np.arange(K), b.X.shape[0] // K))
    return [({
        "relation": k.cfg.domain.relation.kind,
        "reduction_sup": red,
        "reduction_over_3eps": (red / (3.0 * k.eps)) if k.eps > 0.0 else 0.0,
    }, []) for k, red in zip(runs, reds)]


def _odd_bound(k: _Run) -> float:
    """Thm 4.3's bound on the odd part: the least of its three estimates."""
    return min(3.0 * k.eps / k.r, 5.0 * k.eps / (2.0 * k.s), 5.0 * k.eps / (2.0 * k.t))


def _run_cor3_2(cfg: ExperimentConfig):
    # a huge model or edge overflows the defect: asymptotic_profile refuses it
    with np.errstate(over="ignore", invalid="ignore"):
        f, _, _ = build_models(cfg)
        prof = asymptotic_profile(f, cfg.params, cfg.shells, rng_from(cfg.sampler.seed, "shells"))
    decays = prof.is_decaying(cfg.decay_tol)
    rows = (_NO_ROWS, prof.final_sup, cfg.decay_tol, 0.0, [])
    meta = _limit_meta(np.empty((0, 1, 0)), np.empty((0, 1, 0), bool))[0][0]
    return _finish(cfg, prof.final_sup, rows, {"profile": prof.to_dict()}, meta, [
        {"name": "decay_verdict", "value": decays, "limit": cfg.expected_decay,
         "passed": decays == cfg.expected_decay}])


def _run_sikorska(cfg: ExperimentConfig):
    """thm6_1 and thm6_2: exact models on a ball, scaling extension.  One row
    per residual point of sikorska_extend, compared with residual_tol."""
    seed, ball = cfg.sampler.seed, cfg.ball
    # a huge model overflows the residual: sikorska_extend refuses it
    with np.errstate(over="ignore", invalid="ignore"):
        f, _, _ = build_models(cfg)
        result = sikorska_extend(f, cfg.params, ball, cfg.sampler.count, seed,
                                 n_max=cfg.limits.n_max, tol=cfg.limits.tol)
        details = {
            "base": _ball_base(cfg.params),
            "ball_radius": ball.radius,
            "exclude_origin": ball.exclude_origin,
            "scaling_identity_sup": scaling_identity_check(
                f, cfg.params, ball, min(cfg.sampler.count, 256), derive_seed(seed, 7)),
        }
        if cfg.space.has_inner_product and cfg.space.dim >= 2:
            details["even_constancy_sup"] = even_part_constancy_check(
                f, cfg.params, ball, min(cfg.sampler.count, 128), derive_seed(seed, 9))
    bounds = np.full(len(result.residuals), cfg.residual_tol)
    (rows,) = _assemble_rows(result.points, ("extension",), result.residuals[None],
                             bounds[None], cfg.limits.tol, 1)
    res, tol = result.max_residual, cfg.residual_tol
    fit, fit_tol = float(np.max(np.abs(result.T_hat.linear - f.linear))), max(tol, 1e-6)
    return _finish(cfg, 0.0, rows, details, dict(result.iterations), [
        {"name": "residual", "value": res, "limit": tol, "passed": res <= tol},
        {"name": "linear_recovery", "value": fit, "limit": fit_tol, "passed": fit <= fit_tol},
    ])


@dataclass(frozen=True)
class _Theorem:
    """How one theorem id is checked.

    domain: the hypothesis domain kind; controls: the control kinds it takes.
    requires: the optional config sections it reads (ball, shells,
    expected_decay); each is required where it is listed and refused
    everywhere else.  run(cfg) -> report: the id's own runner, called
    one config at a time; None: _run_limit_theorem, which reads the rest.
    pexider: g and h are models of their own (else both are f); h_part wraps
    h (OddPart, EvenPart); zero_linear: the models' linear part is 0.
    limit(b) -> (A, iterations, converged) is the scaling limit at X0 of the
    _Batch b, one iteration count and flag per point and limit, limit after
    limit; None: no limit.  scale_y: the control reads the pair as
    (x, (t/s)y); reflect: ε̂ is also measured on (x, −y).  roles: (name,
    deviation(b), bound(k)) per compared role: the deviations at all of X0,
    the bound at one config's points (k its _Run).  extras(b, runs) ->
    [(details, checks)], one per config (runs: each config's _Run), adds
    report details and check records ({"name", "value", "limit", "passed"}).
    """

    domain: str
    controls: tuple
    roles: tuple = ()
    limit: object = None
    pexider: bool = False
    h_part: type | None = None
    zero_linear: bool = False
    scale_y: bool = False
    reflect: bool = False
    extras: object = None
    requires: tuple = ()
    run: object = None


_THEOREMS = {
    "thm2_1": _Theorem(
        FULL, (CONSTANT, MIXED, TABLE), pexider=True, limit=lambda b: b.limit(b.f, 2.0, 0.5),
        roles=(
            ("f", lambda b: b.dev(b.f), lambda k: k.dyadic(k.nx)),
            ("g", lambda b: b.dev(b.g), lambda k: (1.0 / k.s) * k.phi(k.nx, np.zeros_like(k.nx))
             + (k.r / k.s) * k.dyadic((k.s / k.r) * k.nx)),
            ("h", lambda b: b.dev(b.h), lambda k: (1.0 / k.t) * k.phi(np.zeros_like(k.nx), k.nx)
             + (k.r / k.t) * k.dyadic((k.t / k.r) * k.nx)),
        ),
    ),
    "cor2_2": _Theorem(
        FULL, (CONSTANT, MIXED), limit=lambda b: b.limit(b.f, 2.0, 0.5),
        roles=(("f", lambda b: b.dev(b.f),
                lambda k: cor22_bound_norms(k.params, k.control, k.nx)),),
    ),
    "thm3_1": _Theorem(
        EXTERIOR, (CONSTANT,), limit=lambda b: b.limit(b.f, 2.0, 0.5),
        roles=(("f", lambda b: b.dev(b.f), lambda k: k.flat(15.0 * k.eps / k.r)),),
        extras=_exterior_chain,
    ),
    "prop4_1": _Theorem(
        PUNCTURED, (CONSTANT, MIXED), pexider=True, h_part=OddPart, scale_y=True,
        limit=lambda b: _pexider_limit(b, b.f),
        # all three roles compare against the same additive limit: the
        # approximants differ only by rational rescalings of its argument
        roles=(
            ("f", lambda b: b.dev(b.f), lambda k: (1.0 / k.r) * k.triadic((k.r / k.s) * k.nx)),
            ("g", lambda b: b.dev(b.g), lambda k: (1.0 / (2.0 * k.s))
             * (2.0 * k.phi(k.nx, k.nx) + k.triadic(2.0 * k.nx))),
            ("h", lambda b: b.dev(b.h), lambda k: (1.0 / (2.0 * k.t))
             * (2.0 * k.phi((k.t / k.s) * k.nx, (k.t / k.s) * k.nx)
                + k.triadic((2.0 * k.t / k.s) * k.nx))),
        ),
    ),
    # the conclusions force f, g, h to be small; a shared linear part cannot
    # cancel against an even h, so it must vanish
    "prop4_2": _Theorem(
        PUNCTURED, (CONSTANT, MIXED), pexider=True, h_part=EvenPart, zero_linear=True,
        scale_y=True,
        roles=(
            ("f", lambda b: b.norm(b.at(b.f)), lambda k: (2.0 / k.r)
             * k.phi((k.r / (2.0 * k.s)) * k.nx, (k.r / (2.0 * k.s)) * k.nx)),
            ("g_h", lambda b: b.norm(b.at(b.g) - (b.t / b.s) * b.at(b.h, (b.s / b.t) * b.X0)),
             lambda k: (1.0 / k.s) * k.phi(k.nx, k.nx)),
        ),
    ),
    "thm4_3": _Theorem(
        PUNCTURED, (CONSTANT,), scale_y=True, reflect=True,
        limit=lambda b: _pexider_limit(b, b.parts[0]),
        roles=(
            ("odd", lambda b: b.dev(b.parts[0]), lambda k: k.flat(_odd_bound(k))),
            ("even", lambda b: b.norm(b.at(b.parts[1])), lambda k: k.flat(2.0 * k.eps / k.r)),
            ("total", lambda b: b.dev(b.f), lambda k: k.flat(_odd_bound(k) + 2.0 * k.eps / k.r)),
        ),
    ),
    "thm5_2": _Theorem(
        ORTHOGONAL, (CONSTANT,), pexider=True,  # T (odd part, dyadic) + Q (even, quadratic)
        limit=lambda b: _sum_limits(b.limit(b.parts[0], 2.0, 0.5), b.limit(b.parts[1], 2.0, 0.25)),
        roles=(
            ("f", lambda b: b.dev(b.f), lambda k: k.flat(68.0 * k.eps)),
            ("g", lambda b: b.dev(b.g), lambda k: k.flat(80.0 * k.eps)),
            ("h", lambda b: b.dev(b.h), lambda k: k.flat(80.0 * k.eps)),
        ),
        extras=_orthogonal_reduction,
    ),
    "cor3_2": _Theorem(FULL, (CONSTANT, MIXED), requires=("shells", "expected_decay"),
                       run=_run_cor3_2),
    "thm6_1": _Theorem(FULL, (CONSTANT, MIXED), requires=("ball",), run=_run_sikorska),
    "thm6_2": _Theorem(FULL, (CONSTANT, MIXED), requires=("ball",), run=_run_sikorska),
}
THEOREM_IDS = tuple(_THEOREMS)


def _run_limit_theorem(cfgs: list, thm: _Theorem) -> list:
    """Run K compatible configs of one limit theorem as one batch; one report each.

    Each config draws its own pairs and points from its own streams, in one
    sampling pass; ε̂, the limit and the role deviations then run once over
    all K configs' rows (K equal segments, in config order).  ε̂ and its
    witness are taken over each config's own pairs, and bounds, the extras'
    counts and checks and the report per config, so every report equals that
    of its config run alone.  The rows, maxima and
    witnesses (_assemble_rows) and the iteration summaries and diverged
    counts (_limit_meta) come from one pass over (K, n) segments, each
    reduction taken per config.  The iteration caps are one evaluation over
    the K upper sampling radii (_Batch.n_max): that radius is the only batch
    free key the cap reads, so each config gets the cap of its solo run.
    """
    K, cfg = len(cfgs), cfgs[0]
    models = build_models(cfgs)
    X, Y = _hypothesis_pairs(cfgs)
    eps, wits = measure_epsilon(cfgs, *models, X, Y)
    if thm.reflect:
        for i, (e, w) in enumerate(zip(*measure_epsilon(cfgs, *models, X, -Y))):
            if e > eps[i]:
                eps[i], wits[i] = e, w
    b = _Batch(cfgs, models, X, Y, _dev_points(cfgs))
    b.A, iters, conv = thm.limit(b) if thm.limit else (None, np.empty(0, int), np.empty(0, bool))
    names, dev_of, bound_of = zip(*thm.roles)
    devs = np.stack([dev(b) for dev in dev_of])  # (roles, K·n)
    nx = norm_many(cfg.space, b.X0)
    n, m = len(b.X0) // K, len(X) // K
    runs = [_Run(c, e, nx[i * n:(i + 1) * n]) for i, (c, e) in enumerate(zip(cfgs, eps))]
    extras = thm.extras(b, runs) if thm.extras else [({}, []) for _ in runs]
    bounds = np.array([[bound(k) for k in runs] for bound in bound_of]).reshape(len(names), -1)
    rows = _assemble_rows(b.X0, names, devs, bounds, b.tol, K)
    # one iteration count and flag per limit, config and point; a point
    # diverges when any of its limits does
    metas, diverged = _limit_meta(iters.reshape(-1, K, n), conv.reshape(-1, K, n))
    reports = []
    for i, (k, (details, checks)) in enumerate(zip(runs, extras)):
        details["hypothesis_witness"] = wits[i]
        details["pair_count"] = m
        checks.append({"name": "converged", "value": diverged[i], "limit": 0,
                       "passed": diverged[i] == 0})
        reports.append(_finish(k.cfg, eps[i], rows[i], details, metas[i], checks))
    return reports


def _finish(cfg, eps_hat, rows, details, iterations, checks) -> StabilityReport:
    """The report of cfg's _assemble_rows result.  details["checks"] gets the
    check records, max_ratio <= 1 (within REPORT_TOL) first; they decide the
    verdict.  A record's limit is the bound its value is held to; its verdict
    may allow a slack past it (REPORT_TOL)."""
    samples, max_dev, bound_value, max_ratio, wits = rows
    details["checks"] = [{"name": "max_ratio", "value": max_ratio, "limit": 1.0,
                          "passed": max_ratio <= 1.0 + REPORT_TOL}, *checks]
    return StabilityReport(
        theorem_id=cfg.theorem_id,
        cfg=cfg,
        epsilon_effective=float(eps_hat),
        bound_value=float(bound_value),
        max_deviation=float(max_dev),
        max_ratio=float(max_ratio),
        witnesses=wits,
        samples=samples,
        details=details,
        iterations=iterations,
    )


# the key paths in which the configs of one batch may differ ([] is any list index)
_BATCH_FREE = ("sampler.seed", "sampler.radius_range", "model.seed", "perturbation[].seed")


def _key_getter(sec: _Section, prefix: str = ""):
    """A getter, derived once from the schema, of an object of section sec (at
    key path prefix) at its keys outside _BATCH_FREE: one attrgetter reads those
    with no free key below, then a section with one key by key, a list by item."""
    plain, parts = [], []
    for f in sec.fields:
        key, many = prefix + f.key, isinstance(f.type, list)
        if not any(p.startswith((key + ".", key + "[")) for p in _BATCH_FREE):
            plain += [] if key in _BATCH_FREE else [f.key]  # its attribute: no `get` here
        else:
            sub = _key_getter(f.type[0] if many else f.type, key + ("[]." if many else "."))
            parts.append((f.get or attrgetter(f.key), sub, many))
    read = attrgetter(*plain)
    return read if not parts else lambda v: (read(v), *(
        tuple(map(sub, get(v))) if many else sub(get(v)) for get, sub, many in parts))


def _head_differences(a, b, path: str = "", pattern: str = "") -> list:
    """The key paths outside _BATCH_FREE where two config_to_dict heads differ: a's
    keys first, then b's own, lists index by index (pattern: path with [] indices)."""
    if a == b or pattern in _BATCH_FREE:
        return []
    if isinstance(a, dict) and isinstance(b, dict):
        return [p for k in [*a, *(k for k in b if k not in a)] for p in _head_differences(
            a.get(k), b.get(k), f"{path}.{k}".lstrip("."), f"{pattern}.{k}".lstrip("."))]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [p for i, (x, y) in enumerate(zip(a, b))
                for p in _head_differences(x, y, f"{path}[{i}]", pattern + "[]")]
    return [path]


def run_experiment(cfg):
    """Run one experiment deterministically and return its report.

    cfg may also be a list of configs that differ at most in sampler.seed,
    sampler.radius_range, model.seed and the perturbation seeds; any other
    difference raises ConfigError naming the key.  Configs with equal flat
    _batch_key values are compatible, so a valid batch builds no config dict;
    a mismatch builds the two config heads to name the keys.  The result is
    then a list of reports, each byte-identical to the report of its config
    run alone; a report writes its config block only when that is first read.
    The limit theorems run such a list as one batch (_run_limit_theorem), the
    others one config at a time.
    """
    cfgs = cfg if isinstance(cfg, list) else [cfg]
    if not cfgs:
        raise ConfigError("run_experiment needs at least one config")
    key = _batch_key(cfgs[0])
    for i, c in enumerate(cfgs[1:], 1):
        try:  # a table compares by identity and an array element-wise: the heads decide
            same = _batch_key(c) == key
        except ValueError:
            same = False
        keys = [] if same else _head_differences(config_to_dict(cfgs[0]), config_to_dict(c))
        if keys:
            raise ConfigError(f"batched configs may differ only in sampler.seed, "
                              f"sampler.radius_range, model.seed and perturbation seeds; "
                              f"config {i} differs from config 0 in {', '.join(keys)}")
    start = time.perf_counter()
    thm = _THEOREMS[cfgs[0].theorem_id]
    reports = _run_limit_theorem(cfgs, thm) if thm.run is None else list(map(thm.run, cfgs))
    seconds = time.perf_counter() - start
    for report in reports:
        report.runtime = {"seconds": seconds}
    return reports if isinstance(cfg, list) else reports[0]


# ---------------------------------------------------------------------------
# config schema
#
# One field table per config section.  _parse builds the dataclasses from a
# JSON dict and _emit writes them back, both from the same tables.  The
# tables hold the type layer only; range checks stay in each dataclass's
# __post_init__, and _parse reports their ConfigErrors under the section's
# path, or under the key's path when the message opens with the key.

_REQUIRED = object()
_TYPE_NAMES = {int: "integer", float: "number", bool: "boolean", str: "string"}


@dataclass(frozen=True)
class _Field:
    """One config key.

    type is int, float, bool, str, a _Section, [t] for a list of t (a
    single object stands for a one-element list of sections), or (t, t)
    for a list of exactly that length.  float accepts finite floats and
    64-bit ints, keeping ints as written; no number field accepts a bool.
    default is the JSON value an absent key stands for; None also admits
    null.  emit(obj) says whether the key is written (None: always); get
    reads the value where it is not the attribute named key.  note states
    the constraint for the README.
    """

    key: str
    type: object
    default: object = _REQUIRED
    note: str = ""
    emit: object = None
    get: object = None


class _Section:
    def __init__(self, make, *fields: _Field):
        self.make = make  # keyword arguments named after the keys -> section object
        self.fields = fields


def _type_name(t) -> str:
    if isinstance(t, _Section):
        return "object"
    if isinstance(t, list):
        return f"list of {_type_name(t[0])}"
    if isinstance(t, tuple):
        return "[" + ", ".join(map(_type_name, t)) + "]"
    return _TYPE_NAMES[t]


def _parse(sec: _Section, d, prefix: str):
    """Build a section object; prefix is its dotted path plus "." ("" at the top)."""
    if not isinstance(d, dict):
        raise ConfigError(f"{prefix[:-1] or 'config'}: expected an object, got {d!r:.60}")
    unknown = sorted(set(d) - {f.key for f in sec.fields})
    if unknown:
        raise ConfigError(f"unknown key(s) {[prefix + k for k in unknown]}")
    kw = {}
    for f in sec.fields:
        v = d.get(f.key, f.default)
        if v is _REQUIRED:
            raise ConfigError(f"missing required key {prefix + f.key}")
        kw[f.key] = _parse_value(f.type, v, prefix + f.key, nullable=f.default is None)
    try:
        return sec.make(**kw)
    except ConfigError as e:
        # a message that opens with one of the section's keys is about that key
        where = prefix if str(e).split(" ", 1)[0] in kw else prefix[:-1] + ": "
        raise ConfigError(where + str(e) if prefix else str(e)) from e


def _parse_value(t, v, where: str, nullable: bool = False):
    if v is None and nullable:
        return None
    if isinstance(t, _Section):
        return _parse(t, v, where + ".")
    if isinstance(t, (list, tuple)):
        if isinstance(t, list) and isinstance(t[0], _Section) and isinstance(v, dict):
            v = [v]
        if not isinstance(v, list) or (isinstance(t, tuple) and len(v) != len(t)):
            raise ConfigError(f"{where}: expected {_type_name(t)}, got {v!r:.60}")
        items = tuple(
            _parse_value(t[0] if isinstance(t, list) else t[i], x, f"{where}[{i}]")
            for i, x in enumerate(v)
        )
        if isinstance(t[0], list) and len({len(row) for row in items}) > 1:
            raise ConfigError(f"{where}: rows must have equal length")
        return items
    if t is float:  # an int is echoed as written, so it must fit in 64 bits
        ok = _in_64_bits(v) if isinstance(v, int) else isinstance(v, float) and math.isfinite(v)
    else:
        ok = isinstance(v, t)
    if not ok or (isinstance(v, bool) and t is not bool):
        raise ConfigError(f"{where}: expected {_type_name(t)}, got {v!r:.60}")
    return v


def _emit(sec: _Section, obj) -> dict:
    return {f.key: _emit_value(f.type, f.get(obj) if f.get else getattr(obj, f.key))
            for f in sec.fields if f.emit is None or f.emit(obj)}


def _emit_value(t, v):
    if v is None or not isinstance(t, (_Section, list, tuple)):
        return v
    if isinstance(t, _Section):
        return _emit(t, v)
    if isinstance(v, np.ndarray):
        return v.tolist()
    return [_emit_value(t[0] if isinstance(t, list) else t[i], x) for i, x in enumerate(v)]


def _make_experiment(space, codomain, model, perturbation, **kw) -> ExperimentConfig:
    return ExperimentConfig(
        space=space,
        codomain=space if codomain is None else codomain,
        model=replace(model, perturbations=perturbation),
        **kw,
    )


def _make_config(schema_version, experiments) -> list:
    if schema_version != CONFIG_SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema_version {schema_version}, need {CONFIG_SCHEMA_VERSION}")
    if not experiments:
        raise ConfigError("config needs a non-empty experiments list")
    return list(experiments)


_SPACE = _Section(
    lambda **kw: NormedSpaceSpec.from_dict(kw),
    _Field("dim", int, note=">= 1"),
    _Field("norm_kind", str, EUCLIDEAN, "euclidean, sup or p_norm"),
    _Field("p", float, None, "required for p_norm (>= 1), else null",
           emit=lambda s: s.p is not None),
)
_PARAMS = _Section(JensenParams, *(_Field(k, int, note=">= 1") for k in "rst"))
_TABLE = _Section(
    RadialControlTable,
    _Field("radii", [float], note="starts at 0, increasing, at least 2"),
    _Field("values", [float], note=">= 0, one per radius"),
    _Field("q", float, note="< 1 (tail growth exponent)"),
)
_CONTROL = _Section(
    ControlFunctionSpec,
    _Field("kind", str, CONSTANT, "constant, mixed or table"),
    _Field("epsilon", float, 0.0, ">= 0", emit=lambda c: c.kind != TABLE or c.epsilon != 0.0),
    _Field("delta", float, 0.0, ">= 0; mixed only", emit=lambda c: c.kind == MIXED),
    _Field("p", float, 0.0, "in [0, 1); mixed only", emit=lambda c: c.kind == MIXED),
    _Field("table", _TABLE, None, "required for table; refused otherwise",
           emit=lambda c: c.kind == TABLE),
)
_RELATION = _Section(
    OrthogonalityRelation,
    _Field("kind", str, note="trivial, inner_product or birkhoff_james"),
    _Field("tolerance", float, 1e-9,
           "in (0, 1), relative to ‖x‖‖y‖ (inner_product) or ‖x‖ (birkhoff_james)"),
)
_DOMAIN = _Section(
    DomainRestriction,
    _Field("kind", str, FULL, "full, exterior, punctured or orthogonal"),
    _Field("d", float, 0.0, "> 0 for exterior; refused otherwise",
           emit=lambda m: m.kind == EXTERIOR),
    _Field("relation", _RELATION, None, "required for orthogonal; refused otherwise",
           emit=lambda m: m.kind == ORTHOGONAL),
)
_SAMPLER = _Section(
    SamplerSettings,
    _Field("count", int, note=">= 1"),
    _Field("seed", int),
    _Field("radius_range", (float, float), note="0 <= lo < hi"),
    _Field("pair_count", int, None, ">= 1; null: count", emit=lambda s: s.pair_count is not None),
)
_LIMITS = _Section(
    LimitSettings,
    _Field("n_max", int, None, "in [1, 2**20]; null: 40/log2(base), more for perturbations"),
    _Field("tol", float, 1e-9, "> 0"),
)
_MODEL = _Section(
    ModelSettings,
    _Field("linear", [[float]], None, "codomain.dim rows of space.dim; null: drawn"),
    _Field("linear_scale", float, 1.0, "scales the drawn linear part"),
    _Field("quadratic", [float], None, "codomain.dim coefficients of ‖x‖²"),
    _Field("seed", int, None, "null: sampler.seed"),
)
_PERTURBATION = _Section(
    PerturbationSpec,
    _Field("kind", str, NONE, "none, bounded, power or decay"),
    _Field("amplitude", float, 0.0, ">= 0; refused on power"),
    _Field("delta", float, 0.0, ">= 0; refused on bounded and decay"),
    _Field("p", float, 0.0, "in [0, 1) for power; refused on bounded and decay"),
    _Field("seed", int, 0),
)
_BALL = _Section(
    BallSettings,
    _Field("radius", float, note="in [2**-256, 2**52]"),
    _Field("exclude_origin", bool, False, "true on thm6_2, false on thm6_1"),
)
_SHELLS = _Section(
    ShellSettings,
    _Field("edges", [float], note=">= 0, strictly increasing, at least 2"),
    _Field("samples_per_shell", int, note=">= 1"),
)
def _required_for(key: str) -> str:
    ids = ", ".join(t for t, thm in _THEOREMS.items() if key in thm.requires)
    return f"required for {ids}; refused otherwise"


_EXPERIMENT = _Section(
    _make_experiment,
    _Field("theorem_id", str, note=", ".join(THEOREM_IDS)),
    _Field("space", _SPACE),
    _Field("codomain", _SPACE, None, "null: same as space"),
    _Field("params", _PARAMS),
    _Field("control", _CONTROL, {}),
    _Field("perturbation", [_PERTURBATION], [], "one object or a list",
           emit=lambda c: bool(c.model.perturbations), get=lambda c: c.model.perturbations),
    _Field("model", _MODEL, {}),
    _Field("domain", _DOMAIN, {}),
    _Field("sampler", _SAMPLER),
    _Field("limits", _LIMITS, {}),
    _Field("ball", _BALL, None, _required_for("ball"), emit=lambda c: c.ball is not None),
    _Field("residual_tol", float, 1e-6, "> 0"),
    _Field("decay_tol", float, 1e-3, "> 0"),
    _Field("expected_decay", bool, None, _required_for("expected_decay"),
           emit=lambda c: c.expected_decay is not None),
    _Field("shells", _SHELLS, None, _required_for("shells"), emit=lambda c: c.shells is not None),
)
_batch_key = _key_getter(_EXPERIMENT)
_CONFIG = _Section(
    _make_config,
    _Field("schema_version", int, note=f"{CONFIG_SCHEMA_VERSION}"),
    _Field("experiments", [_EXPERIMENT], note="non-empty"),
)


def parse_config(d: dict) -> list:
    return _parse(_CONFIG, d, "")


def load_config(path: str) -> list:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    return parse_config(raw)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Canonical replayable form of a config (what the parser reads back)."""
    return _emit(_EXPERIMENT, cfg)


# ---------------------------------------------------------------------------
# adversarial search


_STEP_SCHEDULE = (0.5, 0.25, 0.1)  # mutation steps, first to last of a restart


@dataclass(frozen=True)
class SearchSettings:
    iterations: int = 200
    restarts: int = 1

    def __post_init__(self):
        for name in ("iterations", "restarts"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool):
                raise ConfigError(f"{name} must be an integer, got {v!r}")
        if not (1 <= self.restarts <= self.iterations):
            raise ConfigError(f"search needs 1 <= restarts <= iterations, got {self}")


def _mutate(cfg: ExperimentConfig, rng, step: float, witness_norm: float | None):
    """Propose a neighbour config: reseed noise, reseed sampling, or zoom radii."""
    kind = int(rng.integers(0, 3))
    if kind == 0 and cfg.model.perturbations:
        bump = int(rng.integers(1, 1 << 16))
        perts = tuple(replace(p, seed=derive_seed(p.seed, bump)) for p in cfg.model.perturbations)
        return replace(cfg, model=replace(cfg.model, perturbations=perts))
    if kind == 1:
        return replace(
            cfg, sampler=replace(cfg.sampler, seed=int(rng.integers(0, 1 << 31)))
        )
    lo, hi = cfg.sampler.radius_range
    width = (hi - lo) * max(step, 0.05)
    centre = witness_norm if witness_norm is not None else 0.5 * (lo + hi)
    centre = centre * float(rng.uniform(0.8, 1.25))
    new_lo = max(lo, centre - 0.5 * width)
    new_hi = min(hi, centre + 0.5 * width)
    if not (new_lo < new_hi):
        new_lo, new_hi = lo, hi
    return replace(cfg, sampler=replace(cfg.sampler, radius_range=(new_lo, new_hi)))


def adversarial_search(cfg: ExperimentConfig, settings: SearchSettings | None = None) -> dict:
    """Hill-climb over seeds and sampling windows to push max_ratio up.

    The effective epsilon is re-measured for every candidate, so the search
    can only exceed ratio 1 by finding a genuine bound violation, not by
    starving the hypothesis measurement.

    The restarts run as hill-climb chains in lockstep, each step running one
    candidate per unfinished chain in one batched run_experiment call, which
    samples them in one pass and builds no config block; the result's config
    is the one block built, that of the best candidate.  Chain
    0 starts from cfg and draws its mutations from rng_from(seed, "search"),
    as a lone chain does; chain r > 0 starts from sampler.seed =
    derive_seed(seed, r) with a stream of its own.  Chain r runs iterations //
    restarts evaluations, plus one for each of the first iterations %
    restarts chains: settings.iterations in all.
    """
    settings = settings or SearchSettings()
    seed = cfg.sampler.seed
    best = {"ratio": -1.0, "report": None}

    def evaluate(cands):
        """Run the candidates, keep the best so far; each one's ratio and lead witness norm."""
        out = []
        for c, rep in zip(cands, run_experiment(cands)):
            if rep.max_ratio > best["ratio"]:
                best.update(ratio=rep.max_ratio, report=rep)
            x = np.asarray([rep.witnesses[0]["x"]]) if rep.witnesses else None
            out.append((rep.max_ratio, None if x is None else float(norm_many(c.space, x)[0])))
        return out

    per_chain, extra = divmod(settings.iterations, settings.restarts)
    counts = [per_chain + (r < extra) for r in range(settings.restarts)]
    rngs = [rng_from(seed, "search" if r == 0 else f"search-{r}") for r in range(len(counts))]
    cur = [cfg] + [replace(cfg, sampler=replace(cfg.sampler, seed=derive_seed(seed, r)))
                   for r in range(1, len(counts))]
    state = evaluate(cur)  # per chain: (ratio, lead witness norm)
    for it in range(max(counts) - 1):
        live = [r for r, count in enumerate(counts) if it < count - 1]
        steps = [_STEP_SCHEDULE[min(it * len(_STEP_SCHEDULE) // (counts[r] - 1),
                                    len(_STEP_SCHEDULE) - 1)] for r in live]
        cands = [_mutate(cur[r], rngs[r], step, state[r][1]) for r, step in zip(live, steps)]
        for r, cand, (ratio, cand_norm) in zip(live, cands, evaluate(cands)):
            if ratio >= state[r][0]:
                cur[r] = cand
                state[r] = (ratio, state[r][1] if cand_norm is None else cand_norm)
    rep = best["report"]
    return {
        "theorem_id": cfg.theorem_id,
        "worst_ratio": float(best["ratio"]),
        "config": None if rep is None else rep.config,
        "witnesses": [] if rep is None else rep.witnesses,
        "evaluations": settings.iterations,
    }
