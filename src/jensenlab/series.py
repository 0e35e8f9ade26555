"""Comparison series and direct-method limits.

Two families of objects live here.

Series: the dyadic comparison series

    φ~(x, y) = (1/2r) Σ_{n≥0} 2^{-n} [ φ(2^n (r/s)x, 2^n (r/t)y)
                                      + φ(2^n (r/s)x, 0) + φ(0, 2^n (r/t)y) ]

the matching single-variable bound cor22_bound_norms, and the triadic
analogue built from the five-term combination ψ.  Each takes one control
spec, the effective control φ = ε + (part) of a run, and returns one upper
bound per row: the constant ε gives 3ε/r (dyadic) and 3ε (triadic), added to
the closed form of a mixed part or the truncated series of a table part.
Controls are radial, so the series take arrays of ‖x‖ and ‖y‖.

Limits: power_limit_many, the scaling iterations a_n = gain^n · f(arg^n · x)
behind the direct method (dyadic arg 2 / gain 1/2, triadic arg 3 / gain 1/3,
quadratic arg 2 / gain 1/4), with successive-gap convergence detection; steps
whose gap the norms of the model's parts prove above tol are skipped, not
evaluated, and the results stay bit for bit.  Divergence is reported through
the converged flag, never raised.
"""

from __future__ import annotations

import functools

import numpy as np

from .control import MIXED, TABLE, ControlFunctionSpec, _powered
from .models import (DECAY, POWER, FunctionModel, JensenParams, PerturbationSpec, ScaledModel,
                     _Parity)
from .spaces import ConfigError, _column_norms, _max_abs, _rows, as_batch, norm_many

DEFAULT_TOL = 1e-9
_SERIES_HARD_CAP = 4096
_OVERFLOW_LIMIT = 1e120
# How far below _OVERFLOW_LIMIT every row must stay for the guard to be skipped.
_GUARD_MARGIN = 1e3
# Target rows per eval_many call in power_limit_many, whose passes stack K steps
# of the working set; above half this many working points K is 1.
_BLOCK_ROWS = 4096


def phi_tilde_dyadic_norms(spec: ControlFunctionSpec, params: JensenParams, nx, ny):
    """Dyadic comparison series φ~ at argument norms ‖x‖ = nx, ‖y‖ = ny, one
    upper bound per row: 3ε/r plus the series of the control's part.

    The mixed part sums in closed form; a table part is truncated once every
    scaled argument is in the power-law regime, where the remainder is
    geometric with ratio 2^(q-1) and summed exactly.
    """
    r, s, t = params.r, params.s, params.t
    a = (r / s) * np.asarray(nx, dtype=np.float64)
    b = (r / t) * np.asarray(ny, dtype=np.float64)
    if spec.kind == MIXED:
        geo = 1.0 / (1.0 - 2.0 ** (spec.p - 1.0))
        part = (spec.delta / r) * geo * (_powered(a, spec.p) + _powered(b, spec.p))
    elif spec.kind == TABLE:
        part = _table_series(spec.table, coefs=(2.0, 2.0), args=(a, b), const_count=2,
                             prefactor=1.0 / (2.0 * r), ratio_base=2.0)
    else:
        part = np.zeros(np.broadcast(a, b).shape)
    return 3.0 * spec.epsilon / r + part


def cor22_bound_norms(params: JensenParams, spec: ControlFunctionSpec, nx):
    """Single-variable bound (3/r)ε + (2δ‖x‖^p / r(1−2^{p−1}))·[(r/s)^p + (r/t)^p]
    at argument norms ‖x‖ = nx, for a constant (δ = p = 0) or mixed spec.

    This dominates φ~(x, x) for the same spec (it is loose by a factor of
    two in the power part).
    """
    if spec.kind == TABLE:
        raise ConfigError("the single-variable bound needs a constant or mixed control")
    r, s, t, p = params.r, params.s, params.t, spec.p
    geo = 1.0 / (1.0 - 2.0 ** (p - 1.0))
    coeff = ((r / s) ** p + (r / t) ** p) * 2.0 * spec.delta * geo / r
    return 3.0 * spec.epsilon / r + coeff * _powered(np.asarray(nx, dtype=np.float64), p)


def phi_tilde_triadic_norms(spec: ControlFunctionSpec, nx, ny):
    """Triadic comparison series

    (2/3) Σ_{n≥0} 3^{-n} [ φ(A_n x, −B_n y) + ½φ(A_n x, ±A_n y) + ½φ(B_n x, ±B_n y) ]

    with A_n = 3^{n+1}/2, B_n = 3^n/2 (both sign choices appear with weight ½),
    at argument norms ‖x‖ = nx, ‖y‖ = ny, one upper bound per row: 3ε plus the
    series of the control's part.  Satisfies φ~(x, x) = Σ 3^{-k} ψ(3^k x).
    """
    nx = np.asarray(nx, dtype=np.float64)
    ny = np.asarray(ny, dtype=np.float64)
    if spec.kind == MIXED:
        p = spec.p
        geo = 2.0**-p / (1.0 - 3.0 ** (p - 1.0))
        part = (
            (2.0 / 3.0)
            * spec.delta
            * geo
            * ((2.0 * 3.0**p + 1.0) * _powered(nx, p) + (3.0**p + 2.0) * _powered(ny, p))
        )
    elif spec.kind == TABLE:
        # Norm-form bracket: 2w(A_n nx) + w(B_n nx) + w(A_n ny) + 2w(B_n ny).
        part = _table_series(spec.table, coefs=(2.0, 1.0, 1.0, 2.0),
                             args=(1.5 * nx, 0.5 * nx, 1.5 * ny, 0.5 * ny), const_count=0,
                             prefactor=2.0 / 3.0, ratio_base=3.0)
    else:
        part = np.zeros(np.broadcast(nx, ny).shape)
    return 3.0 * spec.epsilon + part


@np.errstate(over="ignore")
def _table_series(table, coefs, args, const_count, prefactor, ratio_base):
    """Upper bound on Σ prefactor·base^{-n}·[Σ coef·w(arg·base^n) + const_count·w(0)]
    per row: the truncation plus its geometric tail.

    A zero arg contributes coef·w(0) to the constant part.  Each row stops at
    its own n_stop and adds its terms in the order n = 0, 1, ..., so its value
    does not depend on the other rows.  Overflow is quiet: a subnormal arg's
    ratio (refused in _stop_counts), args·scale past a row's n_stop (dropped)
    and a bound past the float range (inf, which holds).
    """
    args = np.stack(np.broadcast_arrays(*args))
    scaling = args > 0.0
    zero_coefs = sum(np.where(scaling_k, 0.0, coef) for coef, scaling_k in zip(coefs, scaling))
    const_sum = (const_count + zero_coefs) * table.values[0]  # w(0) = values[0]

    # A row with no positive arg below the last knot gets the minimum n_stop of 8.
    rmax = table.radii[-1]
    smallest = np.min(np.where(scaling, args, rmax), axis=0)
    n_stop = _stop_counts(rmax / smallest, ratio_base)

    total, s_tail, tail_scale = np.zeros((3,) + n_stop.shape)
    for n in range(int(n_stop.max(initial=0)) + 1):  # an empty batch: one empty pass
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
    # scaling part is geometric with ratio base^(q-1); the w(0) part with base^-1,
    # whose sum Σ base^-k is base/(base − 1).
    geo = 1.0 / (1.0 - ratio_base ** (table.q - 1.0))
    tail = prefactor * (s_tail * geo + const_sum * (ratio_base / (ratio_base - 1.0))) / tail_scale
    return total + tail


def _stop_counts(ratio, base):
    """Terms summed per row before the tail: at least 8, and enough that the
    smallest arg, scaled by base^n, passes the last knot (ratio = last knot /
    smallest arg).  Refused when a ratio is not finite (a subnormal arg), a
    count passes the hard cap, or the last scale base^n_stop is past the
    float range, as the tail assumes every scaled arg has passed the knot."""
    if np.all(np.isfinite(ratio)):
        n_stop = np.maximum(8, np.ceil(np.log(ratio) / np.log(base)).astype(np.int64) + 1)
        if not np.any(n_stop > _SERIES_HARD_CAP):
            try:
                base ** int(n_stop.max(initial=0))
                return n_stop
            except OverflowError:
                pass
    raise ConfigError("control.table: the series truncation exceeds the hard cap")


def _certified_steps(f, X, arg, amp, tol, first, last, cand):
    """Per point, c and s such that at each m in c+1..s ⊂ [first, last] the gap
    ‖a_m − a_{m−1}‖ is provably above the stop level (c = 2**62: none, as when
    one block holds every step).

    For a FunctionModel, or a ScaledModel of one, each part of a_m (linear,
    quadratic, one per perturbation term) has a norm of C·R^m.  By the reverse
    triangle inequality the gap is at least one lead part's change less the
    other parts' changes, the stop level and κ·u times every magnitude that
    enters the computed gap (Higham 2002, ch. 3).  With A_j the lead's net
    change and B_k the others' bounds, all over R^m, m is certified where
    Σ_k B_k R_k^m < A_j R_j^m; the sum over A_j R_j^m is convex in m, so it is
    checked at the two ends of the run only, and where no part's change can lead
    (_certificate_rows) no point is looked at.  OddPart and EvenPart never come
    here: power_limit_many iterates the part's plain model at ±x."""
    out_scale = arg_scale = 1.0
    while type(f) is ScaledModel:  # exact types: a subclass may evaluate otherwise
        out_scale *= f.out_scale
        arg_scale *= f.arg_scale
        f = f.base
    with np.errstate(all="ignore"):
        rows = (type(f) is FunctionModel and np.add.reduce(last + 2 - first) > _BLOCK_ROWS
                and _certificate_rows(f.domain, f.codomain, out_scale, arg_scale, amp, arg, tol,
                                      None if f.quadratic is None else tuple(f.quadratic),
                                      tuple((p.kind, p.amplitude, p.delta, p.p)
                                            for p in f.perturbations)))
        if not (rows and (L := np.abs(f.linear)).max() <= 2.0**100):
            return np.full_like(first, 2**62), first
        j, powers, sa, sosa, b_row, crossing, sig, rate, log_size, sel, limits, coef = rows
        n, r = X.shape[0], len(b_row)
        nx = sa * norm_many(f.domain, X)  # ‖y‖ = |arg|^m·nx at step m
        col_norms = _column_norms(f.codomain, L.swapaxes(0, -2).reshape(L.shape[-2], -1))
        linear = np.abs(X) @ col_norms.reshape(-1, L.shape[-1]).T  # (points, candidates)
        # log2 w per row (the linear bound, nx^e, nx^0 = 1), then log2 nx twice
        log_W = np.zeros((r + 2, n))
        np.log2(sosa * (linear[np.arange(n), cand] if L.ndim == 3 else linear[:, 0]), out=log_W[0])
        for k, e in powers:
            np.log2(np.power(nx, e), out=log_W[k])
        log_W[r:] = np.log2(nx)
        b = log_W[:r] - log_W[j] + b_row  # B_k R_k^m = 2^(b_k + m·slope_k) A_j R_j^m
        b[j] = -np.inf
        # Both ends at once, as u = way·(lo, hi), way = (−1, 1), σ = way·slope.  A start:
        # the crossing of 1/(others) of each term growing toward the end (σ > 0),
        # rounded toward it and one step in, within the clipped ends.
        Z = np.ceil((crossing[0] - b) / crossing[1]) - 1.0
        ends = np.minimum([-first, last], 2.0**20)
        up = sig > 0.0
        u = np.where(up, Z, ends[:, None]).min(1)  # the lead's row is never up
        # move each end out while the terms growing that way (at most 2^rate a step) fit
        v = u[:, None] * sig
        v += b
        v = np.exp2(v, out=v)
        grows = np.add.reduce(v, 1, where=up)
        rest = np.add.reduce(v, 1) - grows
        d = np.minimum(np.fmax(np.floor(np.log2((limits[0] - rest) / grows) / rate), 0.0), ends - u)
        u += d
        # found: the fit at both ends, lo ≤ hi, no magnitude near overflow (where lo ≤ hi, the
        # larger of lo·log2 R and hi·log2 R is u_w·|log2 R|) and 2^-w < ‖y‖ = |arg|^m·nx < 2^w
        log_W[:r] += log_size
        mags = u[sel] * coef + log_W
        np.abs(mags[r:], out=mags[r:])
        found = ((np.exp2(rate * d) * grows + rest < limits[0]).all(0) & (u[0] + u[1] > -1.0)
                 & (mags < limits[1:]).all(0))
    return (np.where(found, -1.0 - u[0], 2**62).astype(np.int64),
            np.where(found, u[1], first).astype(np.int64))


@functools.lru_cache(maxsize=64)
def _certificate_rows(domain, codomain, out_scale, arg_scale, amp, arg, tol, q, terms):
    """_certified_steps' constants for a model's parts, untouched by its linear map and seeds
    (terms: (kind, amplitude, delta, p) each), or None if no step certifies; shared, read only."""
    terms = [t for t in terms if PerturbationSpec(*t).norm_at(1.0) != 0.0]
    so, sa = abs(np.float64(out_scale)), abs(np.float64(arg_scale))
    coefs = [so, sa, 1 / so, 1 / sa, *np.abs(q or [0.0]), *(a + d for _, a, d, _ in terms)]
    ku = (128 + 16 * (domain.dim + codomain.dim)) * 2.0**-53
    dom_exp, cod_exp = ({"sup": 1.0, "euclidean": 2.0}.get(s.norm_kind, s.p)
                        for s in (domain, codomain))
    # One row per part.  A part's norm at step m is c·w·R^m, R = |P|, with w per point:
    # the linear bound Σ_i |x_i|·‖L[:, i]‖ ≥ ‖|L|·|x|‖ ≥ ‖L·x‖ (column norms per candidate)
    # in the first row, nx^e in the others.  fixed: P^m times one vector, else a new vector
    # at each step; low: the norm is also at least that (the linear one may be 0, and a
    # decay term's only falls from so·amplitude).  The last row is the stop level, and a
    # floor above which the computed gap norm does not underflow.
    parts = [(amp * arg, 1.0, 0.0, False, True)]
    if q is not None:
        parts.append((amp * arg * arg, so * norm_many(codomain, np.array([q]))[0], 2.0, True, True))
    parts += [(abs(amp) * abs(arg) ** e, so * c, e, kind != DECAY, False)
              for kind, a, d, p in terms for e, c in [(p, d) if kind == POWER else (0.0, a)]]
    P, c, e, low, fixed = map(np.array, zip(*parts, (1.0, 0.0, 0.0, False, True)))
    # per row: log2 R, and over w·R^m the change's lower and upper bounds and
    # the size at m and m − 1; κ·u·size also covers the change's rounding
    R, step = np.abs(P), np.abs(1.0 - 1.0 / P)
    size = (1.0 + 1.0 / R) * c
    log_R, change_low, change_high = np.log2(R), step * c * low, np.where(fixed, step * c, size)
    change_high[-1] = max(tol, 0.0) + 2.0 ** -min(560, 900 / cod_exp)
    net = change_low - ku * size
    if not (all(c <= 2.0**100 for c in coefs) and 0.0 < abs(amp * arg) < np.inf and any(net > 0.0)):
        return None
    j = max(np.flatnonzero(net > 0.0), key=log_R.__getitem__)  # the lead: slowest to shrink
    slope = log_R - log_R[j]
    sig = np.array([-slope, slope])[:, :, None]
    limits = [1.0 - 2.0**-20] + [990.0] * len(R) + [min(400.0, 800.0 / dom_exp) - 8.0] * 2
    return (j, [(k, e[k]) for k in np.flatnonzero(e)], sa, so * sa,
            (np.log2(change_high + ku * size) - np.log2(net[j]))[:, None],
            (-np.log2(len(R) - 1), np.abs(slope)[:, None]), sig, sig.max(1), np.log2(size)[:, None],
            np.append(log_R >= 0.0, [0, 1]).astype(int), np.array(limits)[:, None],
            np.append(np.abs(log_R), np.log2(abs(arg)) * np.array([-1.0, 1.0]))[:, None])


def _guard_stops(row_scale, arg, amp, first, stop):
    """stop, moved down to the first exponent in first..stop−1 where
    row_scale·|arg|^n or |amp|^n exceeds _OVERFLOW_LIMIT.

    base^n stays inf, 0 or 1 after ~1100/|log2 base| steps, so a table over
    exponents clipped to ±S holds every guard power whatever n_max is; base^n
    is monotone in n, so past a point's first step its guard turns on at most
    once, and a vectorized bisection finds where."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # inf fails the guard
        sat = 1100.0 / np.abs(np.log2(np.abs([arg, amp])))
        S = int(np.max(sat, where=np.isfinite(sat), initial=0.0)) + 2
        lo, hi = np.clip([np.min(first, initial=S), np.max(stop, initial=-S)], -S, S)
        arg_pow, amp_pow = np.abs([[arg], [amp]]) ** np.arange(lo, hi + 1, dtype=np.float64)

        def guard(e):
            j = np.clip(e, lo, hi) - lo
            return (row_scale * arg_pow[j] > _OVERFLOW_LIMIT) | (amp_pow[j] > _OVERFLOW_LIMIT)

        stop = np.where(guard(first), first, stop)
        first = np.where(guard(stop - 1), first, stop)  # off at both ends: off throughout
        while np.any(first < stop):
            mid = (first + stop) // 2
            on = guard(mid)
            first, stop = np.minimum(np.where(on, first, mid + 1), stop), np.where(on, mid, stop)
    return stop


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
    overflows.  Returns (values, iterations, last_gap, converged) arrays; a
    zero or non-finite arg_factor or gain, or an n_max past 2**62, raises ValueError.
    cand, when given, holds each point's candidate in a batched model, and
    ``f.eval_many`` gets each evaluated row's entry as its second argument.

    An OddPart or EvenPart of a FunctionModel, or a ScaledModel of one, is
    iterated as its plain model g (``_Parity.plain``): at X alone when g has no
    active perturbation term (g(−x) = ∓g(x) exactly), else over [X; −X], taking
    ½(v₊ ∓ v₋), the larger count and last gap of the two halves, and converged
    where both halves are.
    """
    if np.any(np.asarray(n_max) > 2**62):  # stop = n_max + 1 must not wrap in int64
        raise ValueError(f"n_max must be at most 2**62, got {np.max(n_max)}")
    part = f.base if type(f) is ScaledModel else f
    if isinstance(part, _Parity):
        g = part.plain
        f = g if part is f else ScaledModel(g, f.arg_scale, f.out_scale)
        if any(p.norm_at(1.0) != 0.0 for p in g.perturbations):
            X = as_batch(X, f.domain.dim)
            n = X.shape[0]
            n_max = np.broadcast_to(np.asarray(n_max, dtype=np.int64), (n,))
            n_max, n_start, cand = (None if a is None else np.concatenate([a, a])
                                    for a in (n_max, n_start, cand))
            v, it, gap, conv = _power_limit(f, np.concatenate([X, -X]), arg_factor, gain, n_max,
                                            tol, n_start, cand)
            return (0.5 * (v[:n] + part.sign * v[n:]), np.maximum(it[:n], it[n:]),
                    np.maximum(gap[:n], gap[n:]), conv[:n] & conv[n:])
    return _power_limit(f, X, arg_factor, gain, n_max, tol, n_start, cand)


def _power_limit(f, X, arg_factor, gain, n_max, tol, n_start, cand):
    """power_limit_many for a subject that is not a parity part.

    Each point's last exponent is fixed up front, and so is a run c+1..s of
    steps whose gaps are provably above tol (_certified_steps): the point
    iterates to c, takes a_s directly (a_n is a function of n) and goes on.
    Each pass runs K = _BLOCK_ROWS // (points iterating) steps, at least 1 and
    at most the fewest any has left, for that compact working set in one
    ``f.eval_many`` call on the step-major stack; a run's start row (a_start,
    or a_s) leads its first block's call, one step fewer if _BLOCK_ROWS caps
    it, when the set has at most _BLOCK_ROWS / 2 points.  A point keeps its first stop, and
    stopped or paused points leave the set, whose exponent groups and step
    counts are rebuilt only then.  For a model whose rows do not depend on the
    rest of their batch (every model in ``models``) the results are bit for
    bit those of one step at a time.
    """
    X = as_batch(X, f.domain.dim)
    n_pts = X.shape[0]
    n_max = np.broadcast_to(np.asarray(n_max, dtype=np.int64), (n_pts,))
    n_vec = np.zeros(n_pts, np.int64) if n_start is None else np.asarray(n_start, np.int64)
    if n_vec.shape != (n_pts,):
        raise ValueError("n_start must have one entry per point")
    arg, amp = np.float64(arg_factor), np.float64(gain)
    for name, v in (("arg_factor", arg), ("gain", amp)):
        if v == 0.0 or not np.isfinite(v):  # 0 to a negative n_start is inf
            raise ValueError(f"{name} must be finite and nonzero, got {v}")
    cands = np.zeros(n_pts, dtype=np.int64) if cand is None else np.asarray(cand)

    def evaluate(Xw, cw, scale, g):  # g · f(scale · x) on a (steps, points) grid, (codim,) + grid
        grid = (scale.shape[0], Xw.shape[0])  # scale and g: (steps, points) or (steps, 1)
        Xs = np.empty((grid[0] * grid[1], Xw.shape[1]))  # written one coordinate at a time
        np.multiply(scale, Xw.T[:, None], out=Xs.T.reshape(Xw.shape[1:] + grid))
        Y = f.eval_many(Xs) if cand is None else f.eval_many(Xs, cw)
        Y = Y.T.reshape(Y.shape[1:] + grid)
        return np.multiply(g, Y, out=np.empty(Y.shape))  # loops of points

    # The last exponent is n_max, or one before the first exponent past n_start
    # where row_scale·|arg|^n or |gain|^n exceeds _OVERFLOW_LIMIT.  base^n is
    # monotone in n, so over n_start..n_max it peaks at an end: when every row
    # stays _GUARD_MARGIN below the limit there, the guard is off throughout.
    row_scale = _max_abs(X.T)
    first, stop = n_vec + 1, np.maximum(n_vec, n_max) + 1
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # inf or nan declines
        ends = np.float64([n_vec.min(), stop.max()] if n_pts else [0, 0])
        peak = np.max(np.abs([[arg], [amp]]) ** ends, axis=1)
        quiet = (np.max(row_scale, initial=0.0) * peak[0] <= _OVERFLOW_LIMIT / _GUARD_MARGIN
                 and peak[1] <= _OVERFLOW_LIMIT / _GUARD_MARGIN)
    if not quiet:
        stop = _guard_stops(row_scale, arg, amp, first, stop)

    # Steps c+1..s cannot stop, and s < the last exponent: a point iterates until
    # a pass takes it to c or past it (short of s), then resumes from a_s.
    c, s = _certified_steps(f, X, arg, amp, tol, n_vec + 1, stop - 2, cands)
    never, values = 2**62, np.empty((f.codomain.dim, n_pts))
    iterations, last_gap = n_vec.copy(), np.full(n_pts, np.inf)
    converged, jumps = np.zeros(n_pts, dtype=bool), c == n_vec

    def start_values(Xw, cw, n):  # a_n at each point's own exponent, (codim, points)
        e = n.astype(np.float64)[None]
        return evaluate(Xw, cw, arg**e, amp**e)[:, 0]

    def iterate(start, end, pause, fresh):  # points with end > start, from a_start
        ix = np.argsort(start, kind="stable")  # by n: points at one exponent share a row
        ix = ix[end[ix] > start[ix]]
        n, end, pz, Xw, cw, off = start[ix], end[ix], pause[ix], X[ix], cands[ix], 0
        a = None if fresh else values[:, ix]  # fresh: a_start is not evaluated yet
        while ix.size:
            if off == 0:  # the working set is new: group it by exponent, count steps left
                head = np.concatenate(([True], n[1:] != n[:-1]))
                base, run = n[head], np.cumsum(head) - 1
                fewest, soonest = int(np.min(end - n)), int(np.min(pz - n))
            # a_start leads the first block when it and a step fit in _BLOCK_ROWS
            lead = a is None and 2 * ix.size <= _BLOCK_ROWS
            if a is None and not lead:
                a = start_values(Xw, cw, n)
            K = max(1, min(_BLOCK_ROWS // ix.size - lead, fewest - off))
            e = (base + off) + np.arange(1.0 - lead, K + 1)[:, None]
            scale, g = arg**e, amp**e  # (rows, 1) when the whole set shares one exponent
            if base.size > 1:
                scale, g = np.take(scale, run, 1), np.take(g, run, 1)
            new = evaluate(Xw, cw if e.shape[0] == 1 else np.tile(cw, e.shape[0]), scale, g)
            if lead:
                a, new = new[:, 0], new[:, 1:]
            step = np.empty(new.shape)
            np.subtract(new[:, :1], a[:, None], out=step[:, :1])
            np.subtract(new[:, 1:], new[:, :-1], out=step[:, 1:])
            gaps = _column_norms(f.codomain, step.reshape(step.shape[0], -1)).reshape(K, -1)
            if K < min(fewest, soonest) - off and gaps.min() > tol and gaps.max() < np.inf:
                off, a = off + K, new[:, -1]  # nobody stops or pauses: exponents are n + off
                continue
            paused, n, off = off + K >= soonest, n + off, 0
            done, bad = gaps <= tol, ~np.isfinite(gaps)
            if bad.any():  # non-finite values have such gaps
                bad[bad] = ~np.all(np.isfinite(new[:, bad]), axis=0)
            halt = done | bad
            halt[-1] |= n + K == end
            ended = np.any(halt, axis=0)
            t, keep = np.flatnonzero(ended), ~ended
            k, i = np.argmax(halt[:, t], axis=0), ix[t]  # each stopped point's first stop
            values[:, i], iterations[i], last_gap[i] = new[:, k, t], n[t] + k + 1, gaps[k, t]
            converged[i] = done[k, t] & ~bad[k, t]
            if paused:  # a point at or past its pause, short of s, resumes from a_s
                past, leave = n + K >= pz, keep & (n + K >= pz) & (n + K < s[ix])
                jumps[ix[leave]], keep, pz = True, keep & ~leave, np.where(past, never, pz)
            keep = np.flatnonzero(keep)
            ix, n, end, pz, cw = ix[keep], n[keep] + K, end[keep], pz[keep], cw[keep]
            Xw, a = np.take(Xw, keep, axis=0), np.take(new[:, -1], keep, axis=1)

    # a_start comes with the first block when that has room for it; else with
    # the points that take no step, in one call before any block
    end = np.where(jumps, n_vec, stop - 1)
    moves = end > n_vec
    fresh = 2 * np.count_nonzero(moves) <= _BLOCK_ROWS
    at = np.flatnonzero(~jumps & ~moves if fresh else ~jumps)
    # A block may run past a point's stop, and below the guard a norm may overflow
    # (a p = 3 norm near 1e103): such values and gaps turn inf or nan quietly, and
    # the finite test stops a point there.
    with np.errstate(over="ignore", invalid="ignore"):
        if at.size:
            values[:, at] = start_values(X[at], cands[at], n_vec[at])
        iterate(n_vec, end, c, fresh)
        if jumps.any():
            iterate(s, np.where(jumps, stop - 1, s), np.full(n_pts, never), True)
    return _rows(values), iterations, last_gap, converged

