"""Stability on orthogonal pairs and extension from balls.

Two constructions are implemented on top of the limit engine:

  * decompose_T_Q: split f into odd and even parts and recover the additive
    approximant T (dyadic limit of the odd part) and the quadratic
    approximant Q (4^{-n} f_even(2^n x)).  For a defect bounded by ε on
    orthogonal pairs the sampled residuals obey ‖f − T − Q‖ ≤ 68ε and
    ‖g − T − Q‖, ‖h − T − Q‖ ≤ 80ε.

  * sikorska_extend: extend a map known only on a ball of radius R (optionally
    punctured) using the scaling identity f((r/s)x) = (r/s)f(x).  With
    λ = s/r and base = 2λ² > 1 the odd part extends through base^n·f(base^{-n}x)
    and the even part through (2·base)^n·f(base^{-n}x); the even part is
    radial, tabulated as b(u) on [0, R²].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import (
    FunctionModel,
    JensenParams,
    ModelError,
    RadialTable,
    odd_even_split,
)
from .sampling import rng_from, sample_points, unit_directions
from .series import (
    DEFAULT_TOL,
    DYADIC_N_MAX,
    dyadic_limit_many,
    power_limit_many,
    quadratic_limit_many,
)
from .spaces import (
    NormedSpaceSpec,
    _rowdot,
    as_batch,
    norm_many,
    o4_witness_many,
)
from .domains import SupResult


@dataclass(frozen=True)
class SikorskaConfig:
    """Ball-extension configuration; requires s = t and contraction base 2(s/r)² > 1."""

    params: JensenParams
    ball_radius: float
    exclude_origin: bool = False

    def __post_init__(self):
        if self.params.s != self.params.t:
            raise ModelError("ball extension needs s = t")
        if not (self.ball_radius > 0.0):
            raise ModelError("ball_radius must be positive")
        if not (self.base > 1.0):
            raise ModelError(
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
    """Additive/quadratic (or additive/radial-table) decomposition of a model."""

    T_hat: FunctionModel
    Q_hat: FunctionModel | None
    b_hat: RadialTable | None
    max_residual: float
    iterations: dict


def pexider_reduction_check(
    f, params: JensenParams, space: NormedSpaceSpec, X, Y
) -> SupResult:
    """sup ‖r f((sx+ty)/r) − r f((s/r)x) − r f((t/r)y)‖ over the given pairs.

    For a triple (f, g, h) with defect ≤ ε on a domain containing (x, y),
    (x, 0), and (0, y), this single-function reduction is ≤ 3ε there.
    """
    X = as_batch(X, f.domain.dim)
    Y = as_batch(Y, f.domain.dim)
    r, s, t = params.r, params.s, params.t
    mid = (s * X + t * Y) / r
    vals = r * (
        f.eval_many(mid)
        - f.eval_many((s / r) * X)
        - f.eval_many((t / r) * Y)
    )
    norms = norm_many(f.codomain, vals)
    i = int(np.argmax(norms))
    return SupResult(value=float(norms[i]), x=X[i].copy(), y=Y[i].copy())


def _fit_linear(space_in, space_out, limit_fn) -> tuple:
    """Recover a matrix from limit values at the basis vectors; (matrix, converged)."""
    E = np.eye(space_in.dim)
    vals, _, _, conv = limit_fn(E)
    return vals.T, bool(np.all(conv))


def decompose_T_Q(
    f,
    params: JensenParams,
    X_eval,
    n_max: int = DYADIC_N_MAX,
    tol: float = DEFAULT_TOL,
):
    """Per-point additive + quadratic recovery; returns (result, T_vals, Q_vals).

    T is the dyadic limit of the odd part, Q the 4^{-n}-scaled limit of the
    even part; max_residual is the sampled sup of ‖f − T − Q‖.
    """
    X_eval = as_batch(X_eval, f.domain.dim)
    f_odd, f_even = odd_even_split(f)
    T_vals, T_it, _, T_conv = dyadic_limit_many(f_odd, X_eval, n_max, tol)
    Q_vals, Q_it, _, Q_conv = quadratic_limit_many(f_even, X_eval, n_max, tol)
    resid = norm_many(f.codomain, f.eval_many(X_eval) - T_vals - Q_vals)

    L_hat, L_conv = _fit_linear(
        f.domain, f.codomain, lambda E: dyadic_limit_many(f_odd, E, n_max, tol)
    )
    e1 = np.zeros(f.domain.dim)
    e1[0] = 1.0
    q_vals, _, _, q_conv = quadratic_limit_many(f_even, e1[None, :], n_max, tol)
    T_hat = FunctionModel(domain=f.domain, codomain=f.codomain, linear=L_hat)
    Q_hat = FunctionModel(
        domain=f.domain,
        codomain=f.codomain,
        linear=np.zeros((f.codomain.dim, f.domain.dim)),
        quadratic=q_vals[0],
    )
    result = DecompositionResult(
        T_hat=T_hat,
        Q_hat=Q_hat,
        b_hat=None,
        max_residual=float(np.max(resid)) if resid.size else 0.0,
        iterations={
            "t_max_iterations": int(np.max(T_it)) if T_it.size else 0,
            "q_max_iterations": int(np.max(Q_it)) if Q_it.size else 0,
            "t_converged_fraction": float(np.mean(T_conv)) if T_conv.size else 1.0,
            "q_converged_fraction": float(np.mean(Q_conv)) if Q_conv.size else 1.0,
            "fit_converged": bool(L_conv and np.all(q_conv)),
        },
    )
    return result, T_vals, Q_vals


def scaling_identity_check(
    f,
    params: JensenParams,
    space: NormedSpaceSpec,
    ball_radius: float,
    count: int,
    seed: int,
) -> float:
    """sup max(‖f((r/s)x) − (r/s)f(x)‖, ‖f((r/t)x) − (r/t)f(x)‖) inside the ball.

    Sample radii are capped so both x and the rescaled arguments stay inside.
    """
    r, s, t = params.r, params.s, params.t
    cap = ball_radius * min(1.0, s / r, t / r) * (1.0 - 1e-12)
    rng = rng_from(seed, "scaling-identity")
    X = sample_points(space, count, (cap * 1e-3, cap), rng)
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
    space: NormedSpaceSpec,
    count: int = 512,
    seed: int = 0,
    table_knots: int = 65,
    n_max: int | None = None,
    tol: float = DEFAULT_TOL,
) -> DecompositionResult:
    """Extend f from the (possibly punctured) ball and decompose it.

    The odd part iterates base^n f_odd(base^{-n} x), the even part
    (2·base)^n f_even(base^{-n} x), entering the ball after n0(x) contractions.
    b_hat tabulates the even part as a function of u = ‖x‖² on [0, R²];
    max_residual is the sampled in-ball sup of ‖f − T_hat − b_hat(‖·‖²)‖.
    """
    R = cfg.ball_radius
    base = cfg.base
    n_max = cfg.default_n_max() if n_max is None else n_max
    f_odd, f_even = odd_even_split(f)

    def T_limit(X):
        X = as_batch(X, f.domain.dim)
        n0 = _entry_exponents(norm_many(space, X), base, R)
        return power_limit_many(
            f_odd, X, arg_factor=1.0 / base, gain=base, n_max=n_max, tol=tol, n_start=n0
        )

    def Q_limit(X):
        X = as_batch(X, f.domain.dim)
        n0 = _entry_exponents(norm_many(space, X), base, R)
        return power_limit_many(
            f_even,
            X,
            arg_factor=1.0 / base,
            gain=2.0 * base,
            n_max=n_max,
            tol=tol,
            n_start=n0,
        )

    L_hat, L_conv = _fit_linear(f.domain, f.codomain, T_limit)
    T_hat = FunctionModel(domain=f.domain, codomain=f.codomain, linear=L_hat)

    u_knots = np.linspace(0.0, R**2, table_knots)
    e1 = np.zeros(f.domain.dim)
    e1[0] = 1.0
    knot_pts = np.sqrt(u_knots)[:, None] * e1[None, :]
    b_vals, b_it, _, b_conv = Q_limit(knot_pts)
    b_vals[0] = 0.0  # b(0) = 0 by construction
    b_hat = RadialTable(knots=u_knots, values=b_vals)

    rng = rng_from(seed, "sikorska-residual")
    lo = R * 1e-3 if cfg.exclude_origin else 0.0
    X = sample_points(space, count, (lo, R * (1.0 - 1e-9)), rng)
    T_vals, T_it, _, T_conv = T_limit(X)
    u = norm_many(space, X) ** 2
    resid = norm_many(f.codomain, f.eval_many(X) - T_vals - b_hat.eval_many(u))

    return DecompositionResult(
        T_hat=T_hat,
        Q_hat=None,
        b_hat=b_hat,
        max_residual=float(np.max(resid)) if resid.size else 0.0,
        iterations={
            "t_max_iterations": int(np.max(T_it)) if T_it.size else 0,
            "b_max_iterations": int(np.max(b_it)) if b_it.size else 0,
            "t_converged_fraction": float(np.mean(T_conv)) if T_conv.size else 1.0,
            "b_converged_fraction": float(np.mean(b_conv)) if b_conv.size else 1.0,
            "fit_converged": bool(L_conv),
            "n_max": int(n_max),
        },
    )


def even_part_constancy_check(
    f,
    cfg: SikorskaConfig,
    space: NormedSpaceSpec,
    count: int = 256,
    seed: int = 0,
) -> SupResult:
    """sup ‖f_e(x) − f_e(y0)‖ over witnesses y0 ⊥ x with ‖y0‖² = λ‖x‖².

    The even part of an exact orthogonally-Jensen map takes equal values at
    such pairs; the sup is a direct constancy certificate.  Radii are capped
    so the witness cannot leave the ball.
    """
    _, f_even = odd_even_split(f)
    lam = cfg.lam
    cap = cfg.ball_radius / max(1.0, np.sqrt(lam)) * (1.0 - 1e-9)
    rng = rng_from(seed, "even-constancy")
    lo = cap * 1e-3 if cfg.exclude_origin else cap * 1e-6
    X = sample_points(space, count, (lo, cap), rng)
    V = unit_directions(space, count, rng)
    # degenerate plane; any independent direction works
    lens = np.sqrt(_rowdot(X, X)), np.sqrt(_rowdot(V, V))
    flat = np.abs(_rowdot(X, V)) > (1.0 - 1e-9) * lens[0] * lens[1]
    V = np.where(flat[:, None], np.roll(V, 1, axis=1), V)
    Y0 = o4_witness_many(space, X, V, X, lam)
    E = f_even.eval_many(np.concatenate([X, Y0]))
    vals = norm_many(f.codomain, E[:count] - E[count:])
    # the first strict maximum above 0, NaN rows never win
    i = int(np.argmax(np.where(np.isnan(vals), -np.inf, vals)))
    if not vals[i] > 0.0:
        return SupResult(value=0.0, x=X[0].copy(), y=X[0].copy())
    return SupResult(value=float(vals[i]), x=X[i].copy(), y=Y0[i].copy())
