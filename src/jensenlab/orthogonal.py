"""Stability on orthogonal pairs and extension from balls.

  * pexider_reduction_check: the reduction of a Pexider triple (f, g, h) to
    f alone on orthogonal pairs, whose sup is at most 3ε.  The additive plus
    quadratic approximant T + Q of Thm 5.2 is taken in experiments.py, from
    the dyadic limit of f's odd part and the quadratic limit of its even part.

  * sikorska_extend: extend a map known only on a ball of radius R (optionally
    punctured) using the scaling identity f((r/s)x) = (r/s)f(x).  With
    λ = s/r and base = 2λ² > 1 the odd part extends through base^n·f(base^{-n}x)
    and the even part through (2·base)^n·f(base^{-n}x); the even part is
    radial, tabulated as b(u) on [0, R²].  power_limit_many takes both
    limits through the part's plain model, at ±x when it is perturbed, as it
    takes every parity limit (series).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import (
    FunctionModel,
    JensenParams,
    RadialTable,
    _eval_stacked,
    odd_even_split,
)
from .sampling import rng_from, sample_points, unit_directions
from .series import DEFAULT_TOL, power_limit_many
from .spaces import (
    ConfigError,
    _quarter_turns,
    _rowdot,
    as_batch,
    norm_many,
)


_TABLE_KNOTS = 65  # knots of the even-part table b(u) on [0, R²]


@dataclass(frozen=True)
class SikorskaConfig:
    """Ball-extension configuration; requires s = t and contraction base 2(s/r)² > 1."""

    params: JensenParams
    ball_radius: float
    exclude_origin: bool = False

    def __post_init__(self):
        if self.params.s != self.params.t:
            raise ConfigError("the ball extension needs s = t")
        if not (self.ball_radius > 0.0):
            raise ConfigError("ball_radius must be positive")
        if not (self.base > 1.0):
            raise ConfigError(
                f"need 2(s/r)^2 > 1 for the extension, got base {self.base:.4f}"
            )

    @property
    def lam(self) -> float:
        return self.params.s / self.params.r

    @property
    def base(self) -> float:
        return 2.0 * self.lam**2

    def default_n_max(self) -> int:
        return int(np.ceil(40.0 / np.log2(self.base)))


@dataclass
class DecompositionResult:
    """Additive plus radial-table decomposition of a model extended from a ball."""

    T_hat: FunctionModel
    b_hat: RadialTable
    max_residual: float
    iterations: dict


def pexider_reduction_check(f, params: JensenParams, X, Y, cand=None) -> float | list:
    """sup ‖r f((sx+ty)/r) − r f((s/r)x) − r f((t/r)y)‖ over the given pairs.

    For a triple (f, g, h) with defect ≤ ε on a domain containing (x, y),
    (x, 0), and (0, y), this single-function reduction is ≤ 3ε there.
    f is evaluated once, on the stack of the three argument sets.  With
    cand, each pair's candidate, which goes on to f: the list of each
    candidate's sup over its own pairs.
    """
    X = as_batch(X, f.domain.dim)
    Y = as_batch(Y, f.domain.dim)
    r, s, t = params.r, params.s, params.t
    f_mid, f_x, f_y = _eval_stacked(f, [(s * X + t * Y) / r, (s / r) * X, (t / r) * Y], cand)
    gaps = norm_many(f.codomain, r * (f_mid - f_x - f_y))
    if cand is None:
        return float(np.max(gaps))
    return [float(np.max(gaps[cand == k])) for k in range(int(np.max(cand)) + 1)]


def scaling_identity_check(
    f,
    params: JensenParams,
    ball_radius: float,
    count: int,
    seed: int,
) -> float:
    """sup max(‖f((r/s)x) − (r/s)f(x)‖, ‖f((r/t)x) − (r/t)f(x)‖) inside the ball.

    Sample radii in f.domain are capped so both x and the rescaled arguments stay inside.
    """
    r, s, t = params.r, params.s, params.t
    cap = ball_radius * min(1.0, s / r, t / r) * (1.0 - 1e-12)
    rng = rng_from(seed, "scaling-identity")
    X = sample_points(f.domain, count, [(cap * 1e-3, cap)], [rng])
    out = np.zeros(X.shape[0])
    for ratio in ((r / s), (r / t)):
        gap = norm_many(f.codomain, f.eval_many(ratio * X) - ratio * f.eval_many(X))
        out = np.maximum(out, gap)
    return float(np.max(out))


def _entry_exponents(norms: np.ndarray, base: float, radius: float) -> np.ndarray:
    """Smallest n ≥ 0 with ‖x‖ / base^n strictly inside the radius."""
    n0 = np.zeros(norms.size, dtype=np.int64)
    outside = norms >= radius
    with np.errstate(divide="ignore"):
        est = np.floor(np.log(norms[outside] / radius) / np.log(base)).astype(np.int64)
    n0[outside] = np.maximum(est, 0)
    # Floor arithmetic can land exactly on the boundary; push strictly inside.
    for _ in range(4):
        still = norms / base ** n0.astype(np.float64) >= radius
        if not np.any(still):
            break
        n0[still] += 1
    return n0


def sikorska_extend(
    f,
    cfg: SikorskaConfig,
    count: int = 512,
    seed: int = 0,
    n_max: int | None = None,
    tol: float = DEFAULT_TOL,
) -> DecompositionResult:
    """Extend f from the (possibly punctured) ball of f.domain and decompose it.

    The odd part iterates base^n f_odd(base^{-n} x), the even part
    (2·base)^n f_even(base^{-n} x), entering the ball after n0(x) contractions.
    b_hat tabulates the even part as a function of u = ‖x‖² on [0, R²];
    max_residual is the sampled in-ball sup of ‖f − T_hat − b_hat(‖·‖²)‖.
    """
    R, space, dim = cfg.ball_radius, f.domain, f.domain.dim
    base = cfg.base
    n_max = cfg.default_n_max() if n_max is None else n_max
    f_odd, f_even = odd_even_split(f)

    def limit(part, gain, X):
        n0 = _entry_exponents(norm_many(space, X), base, R)
        return power_limit_many(
            part, X, arg_factor=1.0 / base, gain=gain, n_max=n_max, tol=tol, n_start=n0
        )

    u_knots = np.linspace(0.0, R**2, _TABLE_KNOTS)
    e1 = np.zeros(dim)
    e1[0] = 1.0
    knot_pts = np.sqrt(u_knots)[:, None] * e1[None, :]
    b_vals, b_it, _, b_conv = limit(f_even, 2.0 * base, knot_pts)
    b_vals[0] = 0.0  # b(0) = 0 by construction
    b_hat = RadialTable(knots=u_knots, values=b_vals)

    rng = rng_from(seed, "sikorska-residual")
    lo = R * 1e-3 if cfg.exclude_origin else 0.0
    X = sample_points(space, count, [(lo, R * (1.0 - 1e-9))], [rng])
    # one odd limit, rows independent: at the basis vectors (the linear part) and at X
    vals, its, _, conv = limit(f_odd, base, np.concatenate([np.eye(dim), X]))
    T_hat = FunctionModel(domain=space, codomain=f.codomain, linear=vals[:dim].T)
    L_conv, T_vals, T_it, T_conv = conv[:dim], vals[dim:], its[dim:], conv[dim:]
    u = norm_many(space, X) ** 2
    resid = norm_many(f.codomain, f.eval_many(X) - T_vals - b_hat.eval_many(u))

    return DecompositionResult(
        T_hat=T_hat,
        b_hat=b_hat,
        max_residual=float(np.max(resid)) if resid.size else 0.0,
        iterations={
            "t_max_iterations": int(np.max(T_it)) if T_it.size else 0,
            "b_max_iterations": int(np.max(b_it)) if b_it.size else 0,
            "t_converged_fraction": float(np.mean(T_conv)) if T_conv.size else 1.0,
            "b_converged_fraction": float(np.mean(b_conv)) if b_conv.size else 1.0,
            "fit_converged": bool(np.all(L_conv)),
            "n_max": int(n_max),
        },
    )


def even_part_constancy_check(
    f,
    cfg: SikorskaConfig,
    count: int = 256,
    seed: int = 0,
) -> float:
    """sup ‖f_e(x) − f_e(y0)‖ over witnesses y0 ⊥ x in f.domain, ‖y0‖² = λ‖x‖².

    The even part of an exact orthogonally-Jensen map takes equal values at
    such pairs; the sup is a direct constancy certificate.  y0 = √λ·(quarter
    turn of x in a plane through x), the exact sign change t = √λ of the (O4)
    search on an inner-product space.  Radii keep the witness in the ball.
    """
    space = f.domain
    if not space.has_inner_product:
        raise ConfigError("the even-part constancy check needs an inner-product space")
    _, f_even = odd_even_split(f)
    lam = cfg.lam
    cap = cfg.ball_radius / max(1.0, np.sqrt(lam)) * (1.0 - 1e-9)
    rng = rng_from(seed, "even-constancy")
    lo = cap * 1e-3 if cfg.exclude_origin else cap * 1e-6
    X = sample_points(space, count, [(lo, cap)], [rng])
    V = unit_directions(space, count, [rng])
    # degenerate plane; any independent direction works
    lens = np.sqrt(_rowdot(X, X)), np.sqrt(_rowdot(V, V))
    flat = np.abs(_rowdot(X, V)) > (1.0 - 1e-9) * lens[0] * lens[1]
    V = np.where(flat[:, None], np.roll(V, 1, axis=1), V)
    Y0 = np.sqrt(lam) * _quarter_turns(X, V, X)
    E = f_even.eval_many(np.concatenate([X, Y0]))
    vals = norm_many(f.codomain, E[:count] - E[count:])
    # NaN rows never win; 0 when no row is above 0
    top = np.max(np.where(np.isnan(vals), -np.inf, vals))
    return float(top) if top > 0.0 else 0.0
