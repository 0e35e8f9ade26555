"""Comparison series and direct-method limits.

Two families of objects live here.

Series: the dyadic comparison series

    φ~(x, y) = (1/2r) Σ_{n≥0} 2^{-n} [ φ(2^n (r/s)x, 2^n (r/t)y)
                                      + φ(2^n (r/s)x, 0) + φ(0, 2^n (r/t)y) ]

its closed forms for constant and mixed controls, the matching single-variable
bound cor22_bound_norms, and the triadic analogue built from the five-term
combination ψ.  Constant control gives φ~ = 3ε/r (dyadic) and 3ε (triadic).
Controls are radial, so the series take arrays of ‖x‖ and ‖y‖.

Limits: the scaling iterations a_n = gain^n · f(arg^n · x) behind the direct
method (dyadic arg 2 / gain 1/2, triadic arg 3 / gain 1/3, quadratic arg 2 /
gain 1/4), with successive-gap convergence detection.  Divergence is reported
through the converged flag, never raised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control import (
    CONSTANT,
    MIXED,
    ControlError,
    ControlFunctionSpec,
    _powered,
)
from .models import JensenParams, ScaledModel
from .spaces import as_batch, norm_many

DYADIC_N_MAX = 40
TRIADIC_N_MAX = 25
DEFAULT_TOL = 1e-9
_SERIES_HARD_CAP = 4096
_OVERFLOW_LIMIT = 1e120
# Target rows per eval_many call in power_limit_many: small runs are bound by
# per-call numpy overhead, while a batch of more than half this many points
# already amortizes it and steps one exponent at a time.
_BLOCK_ROWS = 4096


@dataclass
class SeriesValue:
    """A series evaluation: closed form (exact) or truncation plus tail bound,
    one array entry per row."""

    value: np.ndarray
    terms_used: np.ndarray
    tail_bound: np.ndarray
    exact: bool

    @property
    def upper(self) -> np.ndarray:
        return self.value + self.tail_bound


def _closed(value: np.ndarray) -> SeriesValue:
    return SeriesValue(value, np.zeros(value.shape, dtype=np.int64), np.zeros(value.shape), True)


def phi_tilde_dyadic_norms(spec: ControlFunctionSpec, params: JensenParams, nx, ny) -> SeriesValue:
    """Dyadic comparison series φ~ at argument norms ‖x‖ = nx, ‖y‖ = ny.

    Constant and mixed controls sum in closed form; table controls are
    truncated once every scaled argument is in the power-law regime, where the
    remainder is geometric with ratio 2^(q-1) and summed exactly.
    """
    r, s, t = params.r, params.s, params.t
    a = (r / s) * np.asarray(nx, dtype=np.float64)
    b = (r / t) * np.asarray(ny, dtype=np.float64)
    if spec.kind == CONSTANT:
        return _closed(np.full(np.broadcast(a, b).shape, 3.0 * spec.epsilon / r))
    if spec.kind == MIXED:
        geo = 1.0 / (1.0 - 2.0 ** (spec.p - 1.0))
        power = (spec.delta / r) * geo * (_powered(a, spec.p) + _powered(b, spec.p))
        return _closed(3.0 * spec.epsilon / r + power)
    return _table_series(
        spec.table,
        coefs=(2.0, 2.0),
        args=(a, b),
        const_count=2,
        prefactor=1.0 / (2.0 * r),
        ratio_base=2.0,
        const_geo=2.0,  # Σ 2^-k = 2
    )


def cor22_bound_norms(params: JensenParams, epsilon: float, delta: float, p: float, nx):
    """Single-variable mixed-control bound (3/r)ε + (2δ‖x‖^p / r(1−2^{p−1}))·[(r/s)^p + (r/t)^p]
    at argument norms ‖x‖ = nx.

    This dominates φ~(x, x) for the same ε, δ, p (it is loose by a factor of
    two in the power part).
    """
    if not (0.0 <= p < 1.0):
        raise ControlError(f"bound needs p in [0, 1), got {p}")
    r, s, t = params.r, params.s, params.t
    geo = 1.0 / (1.0 - 2.0 ** (p - 1.0))
    coeff = ((r / s) ** p + (r / t) ** p) * 2.0 * delta * geo / r
    return 3.0 * epsilon / r + coeff * _powered(np.asarray(nx, dtype=np.float64), p)


def phi_tilde_triadic_norms(spec: ControlFunctionSpec, nx, ny) -> SeriesValue:
    """Triadic comparison series

    (2/3) Σ_{n≥0} 3^{-n} [ φ(A_n x, −B_n y) + ½φ(A_n x, ±A_n y) + ½φ(B_n x, ±B_n y) ]

    with A_n = 3^{n+1}/2, B_n = 3^n/2 (both sign choices appear with weight ½),
    at argument norms ‖x‖ = nx, ‖y‖ = ny.  Satisfies φ~(x, x) = Σ 3^{-k} ψ(3^k x),
    and equals 3ε for constant ε.
    """
    nx = np.asarray(nx, dtype=np.float64)
    ny = np.asarray(ny, dtype=np.float64)
    if spec.kind == CONSTANT:
        return _closed(np.full(np.broadcast(nx, ny).shape, 3.0 * spec.epsilon))
    if spec.kind == MIXED:
        p = spec.p
        geo = 2.0**-p / (1.0 - 3.0 ** (p - 1.0))
        power = (
            (2.0 / 3.0)
            * spec.delta
            * geo
            * ((2.0 * 3.0**p + 1.0) * _powered(nx, p) + (3.0**p + 2.0) * _powered(ny, p))
        )
        return _closed(3.0 * spec.epsilon + power)
    # Norm-form bracket: 2w(A_n nx) + w(B_n nx) + w(A_n ny) + 2w(B_n ny).
    return _table_series(
        spec.table,
        coefs=(2.0, 1.0, 1.0, 2.0),
        args=(1.5 * nx, 0.5 * nx, 1.5 * ny, 0.5 * ny),
        const_count=0,
        prefactor=2.0 / 3.0,
        ratio_base=3.0,
        const_geo=1.5,  # Σ 3^-k
    )


def _table_series(table, coefs, args, const_count, prefactor, ratio_base, const_geo):
    """Truncate Σ prefactor·base^{-n}·[Σ coef·w(arg·base^n) + const_count·w(0)] per row.

    A zero arg contributes coef·w(0) to the constant part.  Each row stops at
    its own n_stop and adds its terms in the order n = 0, 1, ..., so its value
    does not depend on the other rows.
    """
    args = np.stack(np.broadcast_arrays(*args))
    scaling = args > 0.0
    zero_coefs = sum(np.where(scaling_k, 0.0, coef) for coef, scaling_k in zip(coefs, scaling))
    const_sum = (const_count + zero_coefs) * table.values[0]  # w(0) = values[0]

    # A row with no positive arg below the last knot gets the minimum n_stop of 8.
    rmax = table.radii[-1]
    smallest = np.min(np.where(scaling, args, rmax), axis=0)
    steps = np.ceil(np.log(rmax / smallest) / np.log(ratio_base)).astype(np.int64)
    n_stop = np.maximum(8, steps + 1)
    if np.any(n_stop > _SERIES_HARD_CAP):
        raise ControlError("table series truncation exceeds the hard cap")

    total, s_tail, tail_scale = np.zeros((3,) + n_stop.shape)
    for n in range(int(n_stop.max()) + 1):
        scale = ratio_base**n
        w = table.eval_many(args * scale)
        # rows before n_stop add a term; rows at n_stop keep the scaling part for the tail
        summing = n < n_stop
        bracket = np.where(summing, const_sum, 0.0)
        for coef, w_k, scaling_k in zip(coefs, w, scaling):
            bracket = bracket + np.where(scaling_k, coef * w_k, 0.0)
        total = np.where(summing, total + prefactor * bracket / scale, total)
        s_tail = np.where(n == n_stop, bracket, s_tail)
        tail_scale = np.where(n == n_stop, scale, tail_scale)
    # Beyond n_stop every scaled argument is in the power-law regime, so the
    # scaling part is geometric with ratio base^(q-1); the w(0) part with base^-1.
    geo = 1.0 / (1.0 - ratio_base ** (table.q - 1.0))
    tail = prefactor * (s_tail * geo + const_sum * const_geo) / tail_scale
    return SeriesValue(total, n_stop, tail, False)


def power_limit_many(
    f,
    X,
    arg_factor: float,
    gain: float,
    n_max,
    tol: float = DEFAULT_TOL,
    n_start=None,
    cand=None,
):
    """Iterate a_n(x) = gain^n · f(arg_factor^n · x) until the successive gap
    (codomain norm) drops to tol, the value turns non-finite, the exponent
    reaches n_max (one bound, or one per point), or the scaled argument
    overflows.  Per-point bookkeeping; returns (values, iterations, last_gap,
    converged) arrays.  cand, when given, holds one integer per point (its
    candidate in a batched model), and ``f.eval_many`` gets each evaluated
    row's entry as its second argument.

    Each pass evaluates a block of K successive exponents per active point in
    one ``f.eval_many`` call, K = _BLOCK_ROWS // (active points), at least 1
    and at most their largest n_max, then applies the stop rules to each
    point's block in order; a point keeps the first stop in its block.  The
    results equal those of iterating one exponent at a time bit for bit as
    long as a row of ``f.eval_many`` does not depend on the rest of its
    batch, which holds for every model in ``models``.
    """
    X = as_batch(X, f.domain.dim)
    n_pts = X.shape[0]
    n_max = np.broadcast_to(np.asarray(n_max, dtype=np.int64), (n_pts,))
    if n_start is None:
        n_vec = np.zeros(n_pts, dtype=np.int64)
    else:
        n_vec = np.asarray(n_start, dtype=np.int64).copy()
        if n_vec.shape != (n_pts,):
            raise ValueError("n_start must have one entry per point")

    def step_values(idx, n_at):
        scale = np.float64(arg_factor) ** n_at.astype(np.float64)
        g = np.float64(gain) ** n_at.astype(np.float64)
        Xs = scale[:, None] * X[idx]
        return g[:, None] * (f.eval_many(Xs) if cand is None else f.eval_many(Xs, cand[idx]))

    values = step_values(np.arange(n_pts), n_vec)
    iterations = n_vec.copy()
    last_gap = np.full(n_pts, np.inf)
    converged = np.zeros(n_pts, dtype=bool)
    active = np.ones(n_pts, dtype=bool)

    row_scale = np.max(np.abs(X), axis=1)
    while np.any(active):
        idx = np.flatnonzero(active)
        cap = n_max[idx, None]
        block = max(1, min(int(cap.max()), _BLOCK_ROWS // idx.size))
        # (point, step) exponents; a point's block ends before its first
        # exponent past its n_max or past the overflow guard
        n_next = n_vec[idx, None] + np.arange(1, block + 1)
        ok = n_next <= cap
        n_ok = np.minimum(n_next, cap).astype(np.float64)
        with np.errstate(over="ignore"):  # inf already fails the guard
            ok &= ~(row_scale[idx, None] * np.abs(arg_factor) ** n_ok > _OVERFLOW_LIMIT)
            ok &= ~(np.abs(gain) ** n_ok > _OVERFLOW_LIMIT)
        ok = np.logical_and.accumulate(ok, axis=1)
        counts = ok.sum(axis=1)
        active[idx[counts < block]] = False
        n_flat = n_next[ok]  # row by row, so each point's steps are contiguous
        has = counts > 0
        idx, counts = idx[has], counts[has]
        if idx.size == 0:
            continue
        new_vals = step_values(np.repeat(idx, counts), n_flat)
        starts = np.cumsum(counts) - counts
        prev = np.empty_like(new_vals)
        prev[1:] = new_vals[:-1]
        prev[starts] = values[idx]
        with np.errstate(invalid="ignore"):  # ∞ − ∞ is caught by the finite test
            gaps = norm_many(f.codomain, new_vals - prev)
        done = gaps <= tol
        finite = np.all(np.isfinite(new_vals), axis=1)
        # first stop in each point's block, else its last step
        pos = np.arange(n_flat.size) - np.repeat(starts, counts)
        at = np.where(done | ~finite, pos, counts.max())
        take = starts + np.minimum(np.minimum.reduceat(at, starts), counts - 1)
        done, finite = done[take], finite[take]
        values[idx] = new_vals[take]
        iterations[idx] = n_flat[take]
        last_gap[idx] = gaps[take]
        converged[idx] = done & finite
        active[idx] &= ~done & finite
        n_vec[idx] = n_flat[take]

    return values, iterations, last_gap, converged


def dyadic_limit_many(f, X, n_max=DYADIC_N_MAX, tol: float = DEFAULT_TOL, cand=None):
    return power_limit_many(f, X, 2.0, 0.5, n_max, tol, cand=cand)


def quadratic_limit_many(f, X, n_max=DYADIC_N_MAX, tol: float = DEFAULT_TOL, cand=None):
    return power_limit_many(f, X, 2.0, 0.25, n_max, tol, cand=cand)


def pexider_triadic_limit_many(
    f, params: JensenParams, X, n_max=TRIADIC_N_MAX, tol: float = DEFAULT_TOL, cand=None
):
    """Additive approximant A(x) = (1/s)·lim 3^{-n}·r·f(3^n (s/r) x) as arrays."""
    reduced = ScaledModel(f, arg_scale=params.s / params.r, out_scale=params.r / params.s)
    return power_limit_many(reduced, X, 3.0, 1.0 / 3.0, n_max, tol, cand=cand)
