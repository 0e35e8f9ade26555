"""Experiment configs, the theorem table and its run path, and reports.

An experiment pins down a theorem id, a space, equation coefficients, a
control function, a perturbation recipe, a hypothesis domain, and a seeded
sampler.  Running it builds the models, measures the *effective* epsilon (the
empirical defect sup over hypothesis pairs, after subtracting the declared
non-constant part of the control), rebuilds the theorem's bound with that
measured epsilon, and checks the advertised construction pointwise.  A run is
a pure function of its config: reports are byte-identical across repeats.

The seven limit theorems run on one path, each driven by its _THEOREMS
entry; cor3_2 (a shell profile) and thm6_1/thm6_2 (a ball extension) have
runners of their own.  A report passes when max_ratio <= 1 and every named
check holds; failed_checks names the failed ones, outside the canonical JSON.

Supported theorem ids:

  thm2_1   full domain, Pexider triple, dyadic approximant
  cor2_2   full domain, single f, single-variable mixed bound
  thm3_1   exterior domain ‖x‖+‖y‖ ≥ d, five-pair chain, bound 15ε/r
  cor3_2   shell profile diagnosing asymptotic additivity
  prop4_1  punctured domain, h odd, triadic approximant
  prop4_2  punctured domain, h even, smallness conclusions
  thm4_3   punctured domain, odd/even split of a single f
  thm5_2   orthogonal pairs, additive + quadratic decomposition (68ε / 80ε)
  thm6_1   ball domain, exact model, scaling extension (base 2)
  thm6_2   punctured ball, exact model, scaling extension (base 2λ²)
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import sys
import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain, repeat

import numpy as np

from .control import (
    CONSTANT,
    MIXED,
    TABLE,
    ControlFunctionSpec,
    RadialControlTable,
    constant_control,
    control_phi_norms,
)
from .domains import (
    EXTERIOR,
    FULL,
    ORTHOGONAL,
    PUNCTURED,
    DomainRestriction,
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
    ModelError,
    NONE,
    OddPart,
    POWER,
    PerturbationSpec,
    derive_seed,
    jensen_defect_many,
    odd_even_split,
)
from .orthogonal import (
    SikorskaConfig,
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
    DYADIC_N_MAX,
    TRIADIC_N_MAX,
    dyadic_limit_many,
    cor22_bound_norms,
    pexider_triadic_limit_many,
    phi_tilde_dyadic_norms,
    phi_tilde_triadic_norms,
    quadratic_limit_many,
)
from .spaces import (
    EUCLIDEAN,
    INNER_PRODUCT,
    TRIVIAL,
    NormedSpaceSpec,
    OrthogonalityRelation,
    norm_many,
)

SCHEMA_VERSION = 1
REPORT_TOL = 1e-7  # relative slack on max_ratio <= 1


class ConfigError(ValueError):
    """Raised for malformed or unknown configuration input."""


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
        lo, hi = self.radius_range
        if not (0.0 <= lo < hi):
            raise ConfigError("radius_range must satisfy 0 <= lo < hi")

    @property
    def pairs(self) -> int:
        return self.count if self.pair_count is None else self.pair_count


@dataclass(frozen=True)
class LimitSettings:
    n_max: int | None = None  # None -> per-construction default
    tol: float = 1e-9

    def __post_init__(self):
        if self.n_max is not None and self.n_max < 1:
            raise ConfigError("n_max must be >= 1")
        if not (self.tol > 0.0):
            raise ConfigError("tol must be positive")


@dataclass(frozen=True)
class ModelSettings:
    linear: tuple | None = None  # explicit matrix rows, else generated
    linear_scale: float = 1.0
    quadratic: tuple | None = None  # codomain coefficient vector of ‖x‖²
    perturbations: tuple = ()
    seed: int | None = None  # defaults to sampler.seed


@dataclass(frozen=True)
class BallSettings:
    radius: float
    exclude_origin: bool = False

    def __post_init__(self):
        if not (self.radius > 0.0):
            raise ConfigError("radius must be positive")


@dataclass(frozen=True)
class ShellSettings:
    edges: tuple
    samples_per_shell: int

    def __post_init__(self):
        if len(self.edges) < 2 or any(
            b <= a for a, b in zip(self.edges, self.edges[1:])
        ):
            raise ConfigError("edges must be strictly increasing, length >= 2")
        if self.samples_per_shell < 1:
            raise ConfigError("samples_per_shell must be >= 1")


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
        if m.linear is not None and np.shape(m.linear) != (codim, dim):
            raise ConfigError(f"model.linear must be {codim} x {dim}")
        if m.quadratic is not None and np.shape(m.quadratic) != (codim,):
            raise ConfigError(f"model.quadratic must have {codim} entries")

# ---------------------------------------------------------------------------
# model building


def _model_seed(cfg: ExperimentConfig) -> int:
    return cfg.sampler.seed if cfg.model.seed is None else cfg.model.seed


def _role_perturbations(cfg: ExperimentConfig, role_offset: int) -> tuple:
    out = []
    for i, p in enumerate(cfg.model.perturbations):
        if p.kind == "none":
            continue
        seed = p.seed if role_offset == 0 else derive_seed(p.seed, role_offset + i)
        out.append(replace(p, seed=seed))
    return tuple(out)


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
    specs = [
        PerturbationSpec(
            kind=BOUNDED,
            amplitude=control.epsilon / (r + s + t),
            seed=derive_seed(seed, 11),
        )
    ]
    if control.kind == MIXED and control.delta > 0.0:
        p = control.p
        coeff = max(r ** (1.0 - p) * s**p + s, r ** (1.0 - p) * t**p + t)
        specs.append(
            PerturbationSpec(
                kind=POWER,
                delta=control.delta / coeff,
                p=p,
                seed=derive_seed(seed, 12),
            )
        )
    return tuple(specs)


def build_models(cfg):
    """Construct (f, g, h) for the experiment; g and h may alias f.

    For a list of K compatible configs (see run_experiment) each model holds
    one candidate per config, in order: one linear part per model seed and a
    tuple of K seeds per perturbation term.
    """
    cfgs = cfg if isinstance(cfg, list) else [cfg]
    cfg = cfgs[0]
    thm = _THEOREMS.get(cfg.theorem_id)
    if thm is not None and thm.zero_linear:
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
    if thm is None or not thm.pexider:
        return f, f, f
    g, h = mk(100), mk(200)
    return f, g, h if thm.h_part is None else thm.h_part(h)


# ---------------------------------------------------------------------------
# effective controls and vectorized bound pieces


def _phi_components(control: ControlFunctionSpec, eps_hat: float) -> list:
    """Decompose the effective control ε̂ + (non-constant part) for linear ops."""
    comps = [constant_control(eps_hat)]
    if control.kind == MIXED and control.delta > 0.0:
        comps.append(ControlFunctionSpec(kind=MIXED, epsilon=0.0, delta=control.delta, p=control.p))
    if control.kind == TABLE:
        comps.append(control)
    return comps


def _phi_norms(comps, nx, ny):
    return sum(control_phi_norms(c, nx, ny) for c in comps)


def measure_epsilon(cfg, f, g, h, X, Y, scale_y: float = 1.0):
    """Effective ε: defect sup after subtracting the declared non-constant part.

    scale_y maps the pair (x, y) to the control's evaluation arguments
    (the punctured propositions control the defect by φ(x, (t/s)y)).
    Returns ε and its witness pair; for a list of K compatible configs, whose
    pairs X, Y hold one equal segment per config and whose models hold one
    candidate per config, a list of each, taken over each config's segment.
    """
    cfgs = cfg if isinstance(cfg, list) else [cfg]
    K, n = len(cfgs), X.shape[0] // len(cfgs)
    # an overflowing defect is reported below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        defects = jensen_defect_many(f, g, h, cfgs[0].params, X, Y, np.repeat(np.arange(K), n))
    if not np.all(np.isfinite(defects)):
        raise ConfigError("the sampled Jensen defect overflows; lower sampler.radius_range, "
                          "model.linear_scale or the perturbation amplitudes")
    base = _phi_components(cfgs[0].control, 0.0)
    space = cfgs[0].space
    nonconst = _phi_norms(base, norm_many(space, X), norm_many(space, Y) * scale_y)
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

    def row(self, i: int) -> dict:
        return {
            "x": self.X[i].tolist(),
            "role": self.roles[self.role[i]],
            "deviation": float(self.deviation[i]),
            "bound": float(self.bound[i]),
            "ratio": float(self.ratio[i]),
        }


_NO_ROWS = _Rows(np.empty((0, 0)), (), np.empty(0, int), np.empty(0), np.empty(0), np.empty(0))


@dataclass
class StabilityReport:
    theorem_id: str
    config: dict
    epsilon_effective: float
    bound_value: float
    max_deviation: float
    max_ratio: float
    passed: bool
    witnesses: list
    samples: _Rows
    details: dict
    iterations: dict
    runtime: dict | None = None
    failed_checks: tuple = ()  # names of the checks that failed; not emitted

    def to_dict(self, include_runtime: bool = False) -> dict:
        out = {
            "schema_version": SCHEMA_VERSION,
            "theorem_id": self.theorem_id,
            "config": self.config,
            "epsilon_effective": self.epsilon_effective,
            "bound_value": self.bound_value,
            "max_deviation": self.max_deviation,
            "max_ratio": self.max_ratio,
            "pass": self.passed,
            "witnesses": self.witnesses,
            "samples": [self.samples.row(i) for i in range(len(self.samples))],
            "details": self.details,
            "iterations": self.iterations,
        }
        if include_runtime and self.runtime is not None:
            out["runtime"] = self.runtime
        return out


def _json_default(o):
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o)}")


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_floats(a: np.ndarray) -> list:
    """The floats of a 1-D array for a %s template, non-finite ones as json writes them."""
    out = a.tolist()
    for i in np.flatnonzero(~np.isfinite(a)).tolist():
        out[i] = _NONFINITE[repr(out[i])]
    return out


def _rows_json(rows: _Rows, pad: str) -> str:
    """The rows as ``json.dumps(indent=2, sort_keys=True)`` writes them under a key at `pad`."""
    n, dim = rows.X.shape
    if n == 0:
        return "[]"
    a, b = pad + "  ", pad + "    "
    x = "[" + ",".join([f"\n{b}  %s"] * dim) + (f"\n{b}]" if dim else "]")
    row = (f'{a}{{\n{b}"bound": %s,\n{b}"deviation": %s,\n{b}"ratio": %s,\n'
           f'{b}"role": %s,\n{b}"x": {x}\n{a}}}')
    roles = [json.dumps(r) for r in rows.roles]
    cols = [_json_floats(rows.bound), _json_floats(rows.deviation), _json_floats(rows.ratio),
            [roles[k] for k in rows.role.tolist()], *map(_json_floats, rows.X.T)]
    return "[\n" + ",\n".join([row] * n) % tuple(chain.from_iterable(zip(*cols))) + f"\n{pad}]"


def _dumps_with_rows(obj, reports: list, depth: int) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"`` for obj holding the reports'
    dicts, rows left out, at nesting `depth`; their rows are spliced in from the columns.

    json writes a newline only as indentation, so a newline and the indent of
    depth-`depth` keys before ``"samples": []`` mark those dicts' empty lists alone.
    """
    pad = "  " * (depth + 1)
    key = f'\n{pad}"samples": '
    parts = json.dumps(obj, indent=2, sort_keys=True, default=_json_default).split(key + "[]")
    out = [parts[0]]
    for report, rest in zip(reports, parts[1:], strict=True):
        out += [key, _rows_json(report.samples, pad), rest]
    return "".join(out) + "\n"


def emit_report(report: StabilityReport, fmt: str = "json", include_runtime: bool = False) -> str:
    """Render a report; JSON is canonical (sorted keys) and replayable.

    Wall-clock timing is left out unless asked for, so two runs of the same
    config serialize to identical bytes.  The JSON equals
    ``json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\\n"``.
    """
    if fmt == "json":
        head = replace(report, samples=_NO_ROWS).to_dict(include_runtime)
        return _dumps_with_rows(head, [report], 0)
    if fmt != "csv":
        raise ConfigError(f"unknown report format {fmt!r}")
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    prof = report.details.get("profile")
    if prof is not None:  # a shell profile (cor3_2) is written one shell per line
        w.writerow(["shell_edge_low", "shell_edge_high", "sup_defect", "samples"])
        edges, sups = prof["edges"], prof["sup_defect"]
        w.writerows([repr(lo), repr(hi), repr(sup), prof["samples_per_shell"]]
                    for lo, hi, sup in zip(edges, edges[1:], sups))
        return buf.getvalue()
    rows = report.samples
    n = len(rows)
    dim = rows.X.shape[1] if n else 0
    w.writerow(
        ["theorem_id", "index", "role"]
        + [f"x{k}" for k in range(dim)]
        + ["deviation", "bound", "ratio"]
    )
    columns = (*rows.X.T, rows.deviation, rows.bound, rows.ratio)
    cols = [list(map(repr, c.tolist())) for c in columns]
    roles = [rows.roles[k] for k in rows.role.tolist()]
    w.writerows(zip(repeat(report.theorem_id), range(n), roles, *cols))
    return buf.getvalue()


def emit_reports(reports: list, include_runtime: bool = False) -> str:
    """Several reports as one JSON payload ``{"schema_version": 1, "reports": [...]}``."""
    heads = [replace(r, samples=_NO_ROWS).to_dict(include_runtime) for r in reports]
    return _dumps_with_rows({"schema_version": SCHEMA_VERSION, "reports": heads}, reports, 2)


def _ratio_arrays(devs: np.ndarray, bounds: np.ndarray, tol: float) -> np.ndarray:
    floor = max(4.0 * tol, 1e-10)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(
            bounds > 0.0, devs / bounds, np.where(devs <= floor, 0.0, np.inf)
        )
    return ratios


def _assemble_rows(X, role_data, tol):
    """role_data: list of (role, devs, bounds).  One row per point, worst role kept."""
    roles, devs, bounds = zip(*role_data)
    stacked = np.stack([_ratio_arrays(d, b, tol) for d, b in zip(devs, bounds)])  # (roles, n)
    worst_role = np.argmax(stacked, axis=0)
    pick = (worst_role, np.arange(X.shape[0]))
    rows = _Rows(X, roles, worst_role, np.stack(devs)[pick], np.stack(bounds)[pick], stacked[pick])
    max_dev = float(max(np.max(d) for d in devs))
    bound_value = float(max(np.max(b) for b in bounds))
    max_ratio = float(np.max(stacked))
    order = np.argsort(-rows.ratio)[:3]
    witnesses = [rows.row(int(i)) for i in order]
    return rows, max_dev, bound_value, max_ratio, witnesses


def _hypothesis_pairs(cfg: ExperimentConfig):
    """Pairs from the hypothesis domain, with a low-radius stratum and axis pairs."""
    rng = rng_from(cfg.sampler.seed, "pairs")
    n = cfg.sampler.pairs
    lo, hi = cfg.sampler.radius_range
    dom = cfg.domain
    if dom.kind == EXTERIOR:
        return exterior_pairs(cfg.space, dom.d, n, (lo, hi), rng, axis_period=8)
    if dom.kind == ORTHOGONAL:
        return orthogonal_pairs(dom.relation, cfg.space, n, (lo, hi), rng, axis_period=8)
    if dom.kind == PUNCTURED:
        return sample_pairs(cfg.space, n, (lo, hi), rng, axis_period=0)
    n_low = n // 4
    X1, Y1 = sample_pairs(cfg.space, n - n_low, (lo, hi), rng, axis_period=8)
    width = hi - lo
    X2, Y2 = sample_pairs(cfg.space, n_low, (lo, lo + 0.1 * width), rng, axis_period=0)
    return np.concatenate([X1, X2]), np.concatenate([Y1, Y2])


def _dev_points(cfg: ExperimentConfig):
    rng = rng_from(cfg.sampler.seed, "points")
    return sample_points(cfg.space, cfg.sampler.count, cfg.sampler.radius_range, rng)


def _auto_n_max(cfg: ExperimentConfig, base: float, arg_scale: float = 1.0,
                floor: int = DYADIC_N_MAX) -> int:
    """Iterations needed for the slowest perturbation's successive gap to clear tol.

    A perturbation bounded by a contributes ~a·base^{-n} to the gap; one
    bounded by δ‖x‖^p contributes ~δ‖x‖^p·base^{(p-1)n}.  Honest divergence
    (wrong-order exact parts) is unaffected: extra iterations cannot make a
    non-Cauchy sequence settle.
    """
    if cfg.limits.n_max is not None:
        return cfg.limits.n_max
    tol = cfg.limits.tol
    R = max(cfg.sampler.radius_range[1] * arg_scale, 1.0)
    need = floor
    for p in cfg.model.perturbations:
        if p.kind == POWER and p.delta > 0.0:
            rate = (1.0 - p.p) * np.log(base)
            n = np.log(max(2.0 * p.delta * R**p.p / tol, 1.0)) / rate
        elif p.kind in (BOUNDED, DECAY) and p.amplitude > 0.0:
            n = np.log(max(3.0 * p.amplitude / tol, 1.0)) / np.log(base)
        else:
            continue
        need = max(need, int(np.ceil(min(n, 600))) + 6)  # n is inf once a/tol overflows
    return min(need, 600)


def _limit_meta(iterations: np.ndarray, converged: np.ndarray) -> dict:
    return {
        "max_iterations": int(np.max(iterations)) if iterations.size else 0,
        "mean_iterations": float(np.mean(iterations)) if iterations.size else 0.0,
        "converged_fraction": float(np.mean(converged)) if converged.size else 1.0,
    }


# ---------------------------------------------------------------------------
# the limit theorems
#
# Thm 2.1, Cor 2.2, Thm 3.1, Prop 4.1, Prop 4.2, Thm 4.3 and Thm 5.2 are all
# checked by Hyers' direct method: measure ε̂ on the hypothesis pairs, iterate
# one scaling limit at fresh points, compare each role's deviation with its
# bound there, and AND the side conditions.  _THEOREMS says what differs per
# theorem id; _run_limit_theorem is the one run path.  Table entries call the
# other modules' functions by name from code in this module, never hold them.


class _Batch:
    """What a theorem's limit and deviations read from a run of K compatible configs.

    X0 holds the points the roles are checked at, one equal segment per
    config in config order, and cand the config of each of its rows; the
    models hold one candidate per config.  A is the limit at X0 once it has
    been taken.
    """

    def __init__(self, cfgs, models, X0):
        self.cfgs, self.params = cfgs, cfgs[0].params
        self.r, self.s, self.t = self.params.r, self.params.s, self.params.t
        self.f, self.g, self.h = models
        self.X0 = X0
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

    def n_max(self, base: float, arg_scale: float = 1.0, floor: int = DYADIC_N_MAX):
        """Each row's iteration cap: _auto_n_max of its config."""
        return np.array([_auto_n_max(c, base, arg_scale, floor) for c in self.cfgs])[self.cand]


class _Run:
    """What a theorem's bounds and checks read from one config's run.

    X, Y are its hypothesis pairs and nx the norms of its points in X0;
    comps is the effective control ε̂ + (declared non-constant part); f is
    its own model, for the extras.
    """

    def __init__(self, cfg: ExperimentConfig, f, X, Y, eps_hat: float, nx):
        self.cfg, self.params = cfg, cfg.params
        self.r, self.s, self.t = cfg.params.r, cfg.params.s, cfg.params.t
        self.f, self.X, self.Y, self.nx = f, X, Y, nx
        self.eps = eps_hat
        self.comps = _phi_components(cfg.control, eps_hat)

    def phi(self, nx, ny):
        return _phi_norms(self.comps, nx, ny)

    def dyadic(self, m):  # φ~(m, m) of the effective control: the sum over its components
        return sum(phi_tilde_dyadic_norms(c, self.params, m, m).upper for c in self.comps)

    def triadic(self, m):
        return sum(phi_tilde_triadic_norms(c, m, m).upper for c in self.comps)

    def flat(self, value):
        return np.full_like(self.nx, value)


def _dyadic_limit(b: _Batch, subject):
    vals, iters, _, conv = dyadic_limit_many(
        subject, b.X0, n_max=b.n_max(2.0), tol=b.tol, cand=b.cand
    )
    return vals, iters, conv


def _triadic_limit(b: _Batch, subject):
    n_max = b.n_max(3.0, arg_scale=b.s / b.r, floor=TRIADIC_N_MAX)
    vals, iters, _, conv = pexider_triadic_limit_many(
        subject, b.params, b.X0, n_max=n_max, tol=b.tol, cand=b.cand
    )
    return vals, iters, conv


def _additive_quadratic_limit(b: _Batch):
    """T + Q: the dyadic limit of f's odd part plus the quadratic limit of its even part."""
    odd, even = b.parts
    T, it_T, conv_T = _dyadic_limit(b, odd)
    Q, it_Q, _, conv_Q = quadratic_limit_many(
        even, b.X0, n_max=b.n_max(2.0), tol=b.tol, cand=b.cand
    )
    return T + Q, np.concatenate([it_T, it_Q]), np.concatenate([conv_T, conv_Q])


def _exterior_chain(k: _Run):
    """Thm 3.1's bridge: interior pairs reach the exterior through five pairs via z."""
    cfg, d = k.cfg, k.cfg.domain.d
    rng = rng_from(cfg.sampler.seed, "interior")
    Xi, Yi = shell_pairs(cfg.space, 0.0, d, cfg.sampler.pairs, rng)
    Z = construct_z_many(cfg.space, Xi, Yi, d)
    margins = five_inequality_margins(cfg.space, k.params, Xi, Yi, Z, d)
    five_failures = int(np.sum(np.any(margins < -FIVE_INEQ_TOL * max(1.0, d), axis=1)))
    direct, chain, _terms = five_term_defect_many(k.f, k.params, Xi, Yi, Z)
    slack = 1e-12 * max(1.0, float(np.max(chain))) if chain.size else 0.0
    chain_violations = int(np.sum(direct > chain + slack))
    global_bound = 5.0 * k.eps
    global_max = float(np.max(direct)) if direct.size else 0.0
    details = {
        "five_inequality_failures": five_failures,
        "direct_exceeds_chain": chain_violations,
        "interior_defect_max": global_max,
        "interior_defect_bound": global_bound,
        "interior_pairs": int(Xi.shape[0]),
        "chain_defect_max": float(np.max(chain)) if chain.size else 0.0,
    }
    return details, [
        ("five_inequalities", five_failures == 0),
        ("direct_within_chain", chain_violations == 0),
        ("interior_defect", global_max <= global_bound * (1.0 + REPORT_TOL) + 1e-12),
    ]


def _orthogonal_reduction(k: _Run):
    """Thm 5.2's reduction of (f, g, h) to f alone, sampled on the hypothesis pairs."""
    red = pexider_reduction_check(k.f, k.params, k.cfg.space, k.X, k.Y)
    return {
        "relation": k.cfg.domain.relation.kind,
        "reduction_sup": red,
        "reduction_over_3eps": (red / (3.0 * k.eps)) if k.eps > 0.0 else 0.0,
    }, []


def _odd_bound(k: _Run) -> float:
    """Thm 4.3's bound on the odd part: the least of its three estimates."""
    return min(3.0 * k.eps / k.r, 5.0 * k.eps / (2.0 * k.s), 5.0 * k.eps / (2.0 * k.t))


@dataclass(frozen=True)
class _Theorem:
    """How one limit theorem is checked.

    domain: the hypothesis domain kind; controls: the control kinds it takes.
    pexider: g and h are models of their own (else both are f); h_part wraps
    h (OddPart, EvenPart); zero_linear: the models' linear part is 0.
    limit(b) -> (A, iterations, converged) is the scaling limit at X0 of the
    _Batch b, one iteration count and flag per point and limit, limit after
    limit; None: no limit.  scale_y: the control reads the pair as
    (x, (t/s)y); reflect: ε̂ is also measured on (x, −y).  roles: (name,
    deviation(b), bound(k)) per compared role: the deviations at all of X0,
    the bound at one config's points (k its _Run).  extras(k) -> (details,
    checks) adds report details and named (name, passed) checks.  counts:
    the details carry pair_count and, when some point's limit fails,
    diverged_points (off for thm3_1, whose report digests predate both).
    """

    domain: str
    controls: tuple
    roles: tuple
    limit: object = None
    pexider: bool = False
    h_part: type | None = None
    zero_linear: bool = False
    scale_y: bool = False
    reflect: bool = False
    extras: object = None
    counts: bool = True


_THEOREMS = {
    "thm2_1": _Theorem(
        FULL, (CONSTANT, MIXED, TABLE), pexider=True, limit=lambda b: _dyadic_limit(b, b.f),
        roles=(
            ("f", lambda b: b.dev(b.f), lambda k: k.dyadic(k.nx)),
            ("g", lambda b: b.dev(b.g), lambda k: (1.0 / k.s) * k.phi(k.nx, np.zeros_like(k.nx))
             + (k.r / k.s) * k.dyadic((k.s / k.r) * k.nx)),
            ("h", lambda b: b.dev(b.h), lambda k: (1.0 / k.t) * k.phi(np.zeros_like(k.nx), k.nx)
             + (k.r / k.t) * k.dyadic((k.t / k.r) * k.nx)),
        ),
    ),
    "cor2_2": _Theorem(
        FULL, (CONSTANT, MIXED), limit=lambda b: _dyadic_limit(b, b.f),
        # comps[-1] is the mixed part, or the constant itself (δ = p = 0)
        roles=(("f", lambda b: b.dev(b.f), lambda k: cor22_bound_norms(
            k.params, k.eps, k.comps[-1].delta, k.comps[-1].p, k.nx)),),
    ),
    "thm3_1": _Theorem(
        EXTERIOR, (CONSTANT,), limit=lambda b: _dyadic_limit(b, b.f),
        roles=(("f", lambda b: b.dev(b.f), lambda k: k.flat(15.0 * k.eps / k.r)),),
        extras=_exterior_chain, counts=False,
    ),
    "prop4_1": _Theorem(
        PUNCTURED, (CONSTANT, MIXED), pexider=True, h_part=OddPart, scale_y=True,
        limit=lambda b: _triadic_limit(b, b.f),
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
        limit=lambda b: _triadic_limit(b, b.parts[0]),
        roles=(
            ("odd", lambda b: b.dev(b.parts[0]), lambda k: k.flat(_odd_bound(k))),
            ("even", lambda b: b.norm(b.at(b.parts[1])), lambda k: k.flat(2.0 * k.eps / k.r)),
            ("total", lambda b: b.dev(b.f), lambda k: k.flat(_odd_bound(k) + 2.0 * k.eps / k.r)),
        ),
    ),
    "thm5_2": _Theorem(
        ORTHOGONAL, (CONSTANT,), pexider=True, limit=_additive_quadratic_limit,
        roles=(
            ("f", lambda b: b.dev(b.f), lambda k: k.flat(68.0 * k.eps)),
            ("g", lambda b: b.dev(b.g), lambda k: k.flat(80.0 * k.eps)),
            ("h", lambda b: b.dev(b.h), lambda k: k.flat(80.0 * k.eps)),
        ),
        extras=_orthogonal_reduction,
    ),
}


def _run_limit_theorem(cfgs: list, thm: _Theorem, heads: list) -> list:
    """Run K compatible configs of one limit theorem as one batch; one report each.

    Each config samples its own pairs and points; ε̂, the limit and the role
    deviations then run once over all K configs' rows (K equal segments, in
    config order).  ε̂ and its witness are taken over each config's own pairs,
    and bounds, extras and the report per config, so every report equals that
    of its config run alone.
    """
    K, cfg = len(cfgs), cfgs[0]
    models = build_models(cfgs)
    X, Y = (np.concatenate(z) for z in zip(*map(_hypothesis_pairs, cfgs)))
    scale_y = cfg.params.t / cfg.params.s if thm.scale_y else 1.0
    eps, wits = measure_epsilon(cfgs, *models, X, Y, scale_y=scale_y)
    if thm.reflect:
        for i, (e, w) in enumerate(zip(*measure_epsilon(cfgs, *models, X, -Y, scale_y=scale_y))):
            if e > eps[i]:
                eps[i], wits[i] = e, w
    b = _Batch(cfgs, models, np.concatenate([_dev_points(c) for c in cfgs]))
    b.A, iters, conv = thm.limit(b) if thm.limit else (None, np.empty(0, int), np.empty(0, bool))
    devs = [dev(b) for _, dev, _ in thm.roles]
    nx = norm_many(cfg.space, b.X0)
    n, m = len(b.X0) // K, len(X) // K
    # one iteration count and flag per limit, config and point
    iters, conv = iters.reshape(-1, K, n), conv.reshape(-1, K, n)
    reports = []
    for i, (c, head) in enumerate(zip(cfgs, heads)):
        seg, pairs = slice(i * n, (i + 1) * n), slice(i * m, (i + 1) * m)
        f = b.f.candidate(i) if thm.extras else None
        k = _Run(c, f, X[pairs], Y[pairs], eps[i], nx[seg])
        # a point diverges when any of its limits does
        diverged = int(np.count_nonzero(~conv[:, i].all(axis=0)))
        rows = _assemble_rows(b.X0[seg], [(name, d[seg], bound(k))
                                          for (name, _, bound), d in zip(thm.roles, devs)],
                              c.limits.tol)
        details, checks = thm.extras(k) if thm.extras else ({}, [])
        details["hypothesis_witness"] = wits[i]
        if thm.counts:
            details["pair_count"] = m
            if diverged:
                details["diverged_points"] = diverged
        checks.append(("converged", diverged == 0))
        meta = _limit_meta(iters[:, i].reshape(-1), conv[:, i].reshape(-1))
        reports.append(_finish(c, head, eps[i], rows, details, meta, checks))
    return reports


def _run_cor3_2(cfg: ExperimentConfig, head: dict):
    f, _, _ = build_models(cfg)
    rng = rng_from(cfg.sampler.seed, "shells")
    prof = asymptotic_profile(
        f, cfg.params, cfg.space, cfg.shells.edges, cfg.shells.samples_per_shell, rng
    )
    decays = prof.is_decaying(cfg.decay_tol)
    details = {
        "profile": prof.to_dict(),
        "decreasing": prof.decreasing,
        "final_sup": prof.final_sup,
        "decays": decays,
        "expected_decay": cfg.expected_decay,
    }
    rows = (_NO_ROWS, prof.final_sup, cfg.decay_tol, 0.0, [])
    return _finish(cfg, head, prof.final_sup, rows, details, _limit_meta(np.empty(0), np.empty(0)),
                   [("decay_verdict", decays == cfg.expected_decay)])


def _run_sikorska(cfg: ExperimentConfig, head: dict):
    """thm6_1 and thm6_2: exact models on a ball, scaling extension."""
    f, _, _ = build_models(cfg)
    exclude = cfg.theorem_id == "thm6_2" or cfg.ball.exclude_origin
    scfg = SikorskaConfig(
        params=cfg.params, ball_radius=cfg.ball.radius, exclude_origin=exclude
    )
    result = sikorska_extend(
        f,
        scfg,
        cfg.space,
        count=cfg.sampler.count,
        seed=cfg.sampler.seed,
        n_max=cfg.limits.n_max,
        tol=cfg.limits.tol,
    )
    details = {
        "base": scfg.base,
        "ball_radius": cfg.ball.radius,
        "exclude_origin": exclude,
        "max_residual": result.max_residual,
        "linear_recovery_error": float(
            np.max(np.abs(result.T_hat.linear - f.linear))
        ),
    }
    details["scaling_identity_sup"] = scaling_identity_check(
        f, cfg.params, cfg.space, cfg.ball.radius,
        count=min(cfg.sampler.count, 256), seed=derive_seed(cfg.sampler.seed, 7),
    )
    if cfg.space.has_inner_product and cfg.space.dim >= 2:
        details["even_constancy_sup"] = even_part_constancy_check(
            f, scfg, cfg.space, count=min(cfg.sampler.count, 128),
            seed=derive_seed(cfg.sampler.seed, 9),
        )

    # per-point residual rows at freshly sampled ball points, using the
    # recovered linear part and radial table as the reconstruction
    rng = rng_from(cfg.sampler.seed, "rows")
    lo = 1e-3 * cfg.ball.radius if exclude else 0.0
    X0 = sample_points(cfg.space, cfg.sampler.count, (lo, cfg.ball.radius * (1.0 - 1e-9)), rng)
    approx = result.T_hat.eval_many(X0) + result.b_hat.eval_many(norm_many(cfg.space, X0) ** 2)
    dev = norm_many(cfg.codomain, f.eval_many(X0) - approx)
    bounds = np.full(X0.shape[0], cfg.residual_tol)
    rows = _assemble_rows(X0, [("extension", dev, bounds)], cfg.limits.tol)
    checks = [
        ("residual", result.max_residual <= cfg.residual_tol),
        ("linear_recovery",
         details["linear_recovery_error"] <= max(cfg.residual_tol, 1e-6)),
    ]
    return _finish(cfg, head, 0.0, rows, details, dict(result.iterations), checks)


def _finish(cfg, head, eps_hat, rows, details, iterations, checks) -> StabilityReport:
    """The report of an _assemble_rows result for cfg, whose config_to_dict is
    head; it passes when max_ratio <= 1 (within REPORT_TOL) and every named
    (name, passed) check holds."""
    samples, max_dev, bound_value, max_ratio, wits = rows
    checks = [("max_ratio", max_ratio <= 1.0 + REPORT_TOL), *checks]
    failed = tuple(name for name, ok in checks if not ok)
    return StabilityReport(
        theorem_id=cfg.theorem_id,
        config=head,
        epsilon_effective=float(eps_hat),
        bound_value=float(bound_value),
        max_deviation=float(max_dev),
        max_ratio=float(max_ratio),
        passed=not failed,
        witnesses=wits,
        samples=samples,
        details=details,
        iterations=iterations,
        failed_checks=failed,
    )


def _needs_shells(cfg: ExperimentConfig):
    if cfg.shells is None or cfg.expected_decay is None:
        raise ConfigError(f"{cfg.theorem_id} needs shells and expected_decay")


def _needs_ball(cfg: ExperimentConfig):
    if cfg.ball is None:
        raise ConfigError(f"{cfg.theorem_id} needs a ball section")
    try:
        SikorskaConfig(params=cfg.params, ball_radius=cfg.ball.radius)
    except ModelError as e:
        raise ConfigError(f"{cfg.theorem_id}: {e}") from e


# theorem ids with a runner of their own -> (runner, config check)
_SPECIAL = {
    "cor3_2": (_run_cor3_2, _needs_shells),
    "thm6_1": (_run_sikorska, _needs_ball),
    "thm6_2": (_run_sikorska, _needs_ball),
}
THEOREM_IDS = (*_THEOREMS, *_SPECIAL)


def _validate_for_theorem(cfg: ExperimentConfig):
    tid, dom = cfg.theorem_id, cfg.domain
    thm = _THEOREMS.get(tid)
    if thm is None:
        _SPECIAL[tid][1](cfg)
    elif dom.kind != thm.domain:
        raise ConfigError(f"{tid} runs on the {thm.domain} domain, got {dom.kind}")
    elif dom.kind == PUNCTURED and cfg.sampler.radius_range[0] <= 0.0:
        raise ConfigError(f"{tid} needs a positive lower sampling radius")
    elif dom.kind == ORTHOGONAL:
        rel = dom.relation.kind
        if rel == INNER_PRODUCT and not cfg.space.has_inner_product:
            raise ConfigError("inner_product pairs need a euclidean space")
        if rel != TRIVIAL and cfg.space.dim < 2:
            # on a line only y = 0 is orthogonal to x != 0
            raise ConfigError(f"{rel} pairs need space.dim >= 2")
    controls = (CONSTANT, MIXED) if thm is None else thm.controls
    if cfg.control.kind not in controls:
        raise ConfigError(f"{tid} takes {' or '.join(controls)} controls, not {cfg.control.kind}")


# the key paths in which the configs of one batch may differ ([] is any list index)
_BATCH_FREE = ("sampler.seed", "sampler.radius_range", "model.seed", "perturbation[].seed")


def _differences(a, b, path: str = ""):
    """The key paths outside _BATCH_FREE at which two config dicts differ, in schema order."""
    if a == b or re.sub(r"\[\d+\]", "[]", path) in _BATCH_FREE:
        return
    if isinstance(a, dict) and isinstance(b, dict):
        for key in [*a, *(k for k in b if k not in a)]:
            yield from _differences(a.get(key), b.get(key), f"{path}.{key}" if path else key)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _differences(x, y, f"{path}[{i}]")
    else:
        yield path


def run_experiment(cfg):
    """Run one experiment deterministically and return its report.

    cfg may also be a list of configs that differ at most in sampler.seed,
    sampler.radius_range, model.seed and the perturbation seeds; any other
    difference raises ConfigError naming the key.  The result is then a list
    of reports, each byte-identical to the report of its config run alone.
    The limit theorems run such a list as one batch (_run_limit_theorem),
    the others one config at a time.
    """
    cfgs = cfg if isinstance(cfg, list) else [cfg]
    if not cfgs:
        raise ConfigError("run_experiment needs at least one config")
    for c in cfgs:
        _validate_for_theorem(c)
    heads = [config_to_dict(c) for c in cfgs]
    for i, head in enumerate(heads[1:], 1):
        keys = list(_differences(heads[0], head))
        if keys:
            raise ConfigError(f"batched configs may differ only in sampler.seed, "
                              f"sampler.radius_range, model.seed and perturbation seeds; "
                              f"config {i} differs from config 0 in {', '.join(keys)}")
    start = time.perf_counter()
    thm = _THEOREMS.get(cfgs[0].theorem_id)
    reports = (_run_limit_theorem(cfgs, thm, heads) if thm else
               [_SPECIAL[c.theorem_id][0](c, head) for c, head in zip(cfgs, heads)])
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
# __post_init__, and _parse reports their errors under the section's path.

_REQUIRED = object()
_TYPE_NAMES = {int: "integer", float: "number", bool: "boolean", str: "string"}


@dataclass(frozen=True)
class _Field:
    """One config key.

    type is int, float, bool, str, a _Section, [t] for a list of t (a
    single object stands for a one-element list of sections), or (t, t)
    for a list of exactly that length.  float accepts finite ints and
    floats, keeping ints as written; no number field accepts a bool.
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
    except ValueError as e:
        raise ConfigError(f"{prefix[:-1]}: {e}" if prefix else str(e)) from e


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
    if t is float:
        ok = isinstance(v, (int, float)) and abs(v) <= sys.float_info.max
    else:
        ok = isinstance(v, t)
    if not ok or (isinstance(v, bool) and t is not bool):
        raise ConfigError(f"{where}: expected {_type_name(t)}, got {v!r:.60}")
    return v


def _emit(sec: _Section, obj) -> dict:
    return {
        f.key: _emit_value(f.type, f.get(obj) if f.get else getattr(obj, f.key))
        for f in sec.fields
        if f.emit is None or f.emit(obj)
    }


def _emit_value(t, v):
    if v is None or not isinstance(t, (_Section, list, tuple)):
        return v
    if isinstance(t, _Section):
        return _emit(t, v)
    if isinstance(v, np.ndarray):
        return v.tolist()
    return [_emit_value(t[0] if isinstance(t, list) else t[i], x) for i, x in enumerate(v)]


def _make_experiment(space, codomain, model, perturbation, **kw) -> ExperimentConfig:
    cfg = ExperimentConfig(
        space=space,
        codomain=space if codomain is None else codomain,
        model=replace(model, perturbations=perturbation),
        **kw,
    )
    _validate_for_theorem(cfg)
    return cfg


def _make_config(schema_version, experiments) -> list:
    if schema_version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {schema_version}, need {SCHEMA_VERSION}")
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
    _Field("epsilon", float, 0.0, ">= 0", emit=lambda c: c.kind != TABLE),
    _Field("delta", float, 0.0, ">= 0", emit=lambda c: c.kind == MIXED),
    _Field("p", float, 0.0, "in [0, 1) for mixed", emit=lambda c: c.kind == MIXED),
    _Field("table", _TABLE, None, "required for table", emit=lambda c: c.kind == TABLE),
)
# The Birkhoff-James search interval is worked out from the inputs; the λ
# grid that schema-1 reports carry is still type-checked, then dropped.
_GRID = _Section(
    lambda **kw: None,
    _Field("lambda_min", float, -1e4, "ignored"),
    _Field("lambda_max", float, 1e4, "ignored"),
    _Field("steps", int, 4096, "ignored"),
)
_RELATION = _Section(
    lambda grid, **kw: OrthogonalityRelation(**kw),
    _Field("kind", str, note="trivial, inner_product or birkhoff_james"),
    _Field("tolerance", float, 1e-9,
           "> 0, relative to ‖x‖‖y‖ (inner_product) or ‖x‖ (birkhoff_james)"),
    _Field("grid", _GRID, {}, "ignored, never emitted", emit=lambda rel: False),
)
_DOMAIN = _Section(
    DomainRestriction,
    _Field("kind", str, FULL, "full, exterior, punctured or orthogonal"),
    _Field("d", float, 0.0, "> 0 for exterior", emit=lambda m: m.kind == EXTERIOR),
    _Field("relation", _RELATION, None, "required for orthogonal",
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
    _Field("n_max", int, None, ">= 1; null: per-construction default"),
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
    _Field("amplitude", float, 0.0, ">= 0"),
    _Field("delta", float, 0.0, ">= 0"),
    _Field("p", float, 0.0, "in [0, 1) for power"),
    _Field("seed", int, 0),
)
_BALL = _Section(
    BallSettings, _Field("radius", float, note="> 0"), _Field("exclude_origin", bool, False)
)
_SHELLS = _Section(
    ShellSettings,
    _Field("edges", [float], note="strictly increasing, at least 2"),
    _Field("samples_per_shell", int, note=">= 1"),
)
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
    _Field("ball", _BALL, None, "required for thm6_1, thm6_2", emit=lambda c: c.ball is not None),
    _Field("residual_tol", float, 1e-6, "> 0"),
    _Field("decay_tol", float, 1e-3, "> 0"),
    _Field("expected_decay", bool, None, "required for cor3_2",
           emit=lambda c: c.expected_decay is not None),
    _Field("shells", _SHELLS, None, "required for cor3_2", emit=lambda c: c.shells is not None),
)
_CONFIG = _Section(
    _make_config,
    _Field("schema_version", int, note=f"{SCHEMA_VERSION}"),
    _Field("experiments", [_EXPERIMENT], note="non-empty"),
)


def parse_experiment(d: dict) -> ExperimentConfig:
    return _parse(_EXPERIMENT, d, "")


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
    """Canonical replayable form of a config (inverse of parse_experiment)."""
    return _emit(_EXPERIMENT, cfg)


# ---------------------------------------------------------------------------
# adversarial search


_STEP_SCHEDULE = (0.5, 0.25, 0.1)  # mutation steps, first to last of a restart


@dataclass(frozen=True)
class SearchSettings:
    iterations: int = 200
    restarts: int = 1

    def __post_init__(self):
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
    if cfg.domain.kind == PUNCTURED and new_lo <= 0.0:
        new_lo = max(new_lo, 1e-3 * hi)
    return replace(cfg, sampler=replace(cfg.sampler, radius_range=(new_lo, new_hi)))


def adversarial_search(cfg: ExperimentConfig, settings: SearchSettings | None = None) -> dict:
    """Hill-climb over seeds and sampling windows to push max_ratio up.

    The effective epsilon is re-measured for every candidate, so the search
    can only exceed ratio 1 by finding a genuine bound violation, not by
    starving the hypothesis measurement.

    The restarts run as hill-climb chains in lockstep, each step running one
    candidate per unfinished chain in one batched run_experiment call.  Chain
    0 starts from cfg and draws its mutations from rng_from(seed, "search"),
    as a lone chain does; chain r > 0 starts from sampler.seed =
    derive_seed(seed, r) with a stream of its own.  Chain r runs iterations //
    restarts evaluations, plus one for each of the first iterations %
    restarts chains: settings.iterations in all.
    """
    settings = settings or SearchSettings()
    seed = cfg.sampler.seed
    best = {"ratio": -1.0, "config": None, "witnesses": []}
    evaluated = 0

    def evaluate(cands):
        """Run the candidates, keep the best so far; each one's ratio and lead witness norm."""
        nonlocal evaluated
        out = []
        for c, rep in zip(cands, run_experiment(cands)):
            evaluated += 1
            if rep.max_ratio > best["ratio"]:
                best.update(ratio=rep.max_ratio, config=rep.config, witnesses=rep.witnesses)
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
    return {
        "theorem_id": cfg.theorem_id,
        "worst_ratio": float(best["ratio"]),
        "config": best["config"],
        "witnesses": best["witnesses"],
        "evaluations": evaluated,
    }
