"""Reference formulas the series tests compare the library against."""

import numpy as np

from jensenlab import series
from jensenlab.control import control_phi_norms
from jensenlab.models import DECAY, POWER, FunctionModel, ScaledModel
from jensenlab.spaces import norm_many


def psi(spec, space, x) -> float:
    """Five-term combination driving the triadic iteration:

    ψ(x) = (2/3)φ(3x/2, −x/2) + (1/3)[φ(3x/2, 3x/2) + φ(3x/2, −3x/2)
                                      + φ(x/2, x/2) + φ(x/2, −x/2)].
    """
    nx = norm_many(space, np.asarray(x, dtype=np.float64)[None, :])[0]
    hi, lo = 1.5 * nx, 0.5 * nx
    phis = control_phi_norms(spec, np.asarray([hi, hi, hi, lo, lo]), np.asarray([lo, hi, hi, lo, lo]))
    weights = np.asarray([2.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0])
    return float(np.dot(weights, phis))


def limit_one_at_a_time(f, x, arg, gain, n_max, tol, n0):
    """power_limit_many at one point x from the exponent n0, one exponent per
    step and no certificate: the stop rules in their order.  Returns (value,
    iterations, last_gap, converged)."""
    arg, gain = np.float64(arg), np.float64(gain)

    def value(n):
        e = np.array([float(n)])
        return (gain**e)[:, None] * f.eval_many((arg**e)[:, None] * x[None])

    scale = np.max(np.abs(x))
    a, n, gap, converged = value(n0), n0, np.inf, False
    while n + 1 <= n_max:
        e = np.array([float(n + 1)])
        if np.any(scale * np.abs(arg) ** e > 1e120) or np.any(np.abs(gain) ** e > 1e120):
            break
        new = value(n + 1)
        with np.errstate(over="ignore", invalid="ignore"):
            gap = norm_many(f.codomain, new - a)[0]
        a, n = new, n + 1
        finite = bool(np.all(np.isfinite(new)))
        if gap <= tol:
            converged = finite
            break
        if not finite:
            break
    return a[0], n, gap, converged


def certified_steps_reference(f, X, arg, amp, tol, first, last, cand):
    """series._certified_steps as it stood before its constants were cached
    per model and its checks stacked: one numpy pass per array expression.
    The library's certificate must return the same (c, s), bit for bit."""
    out_scale = arg_scale = 1.0
    while type(f) is ScaledModel:  # exact types: a subclass may evaluate otherwise
        out_scale *= f.out_scale
        arg_scale *= f.arg_scale
        f = f.base
    if type(f) is not FunctionModel or np.sum(last + 2 - first) <= series._BLOCK_ROWS:
        return np.full_like(first, 2**62), first
    L = np.abs(f.linear)
    q = np.zeros(1) if f.quadratic is None else f.quadratic
    perts = [p for p in f.perturbations if p.norm_at(1.0) != 0.0]
    with np.errstate(all="ignore"):
        so = abs(np.float64(out_scale))
        sa = abs(np.float64(arg_scale))
        coefs = [so, sa, 1 / so, 1 / sa, L.max(), *np.abs(q), *(p.amplitude + p.delta for p in perts)]
        if not (all(c <= 2.0**100 for c in coefs) and 0.0 < abs(amp * arg) < np.inf):
            return np.full_like(first, 2**62), first
        ku = (128 + 16 * (X.shape[1] + f.codomain.dim)) * 2.0**-53
        nx = sa * norm_many(f.domain, X)  # ‖y‖ = |arg|^m·nx at step m
        dom_exp, cod_exp = ({"sup": 1.0, "euclidean": 2.0}.get(s.norm_kind, s.p)
                            for s in (f.domain, f.codomain))
        # One row per part.  A part's norm at step m is c·w·R^m, R = |P|, with w
        # per point: the linear bound Σ_i |x_i|·‖L[:, i]‖ ≥ ‖|L|·|x|‖ ≥ ‖L·x‖
        # (column norms per candidate) in the first row, nx^e in the others.
        # fixed: P^m times one vector, else a new vector at each step; low: the
        # norm is also at least that (the linear one may be 0, and a decay
        # term's only falls from so·amplitude).
        parts = [(amp * arg, 1.0, None, False, True)]
        if f.quadratic is not None:
            parts.append((amp * arg * arg, so * norm_many(f.codomain, q[None])[0], 2.0, True, True))
        for p in perts:
            e = p.p if p.kind == POWER else 0.0
            c = so * (p.delta if p.kind == POWER else p.amplitude)
            parts.append((abs(amp) * abs(arg) ** e, c, e, p.kind != DECAY, False))
        # per row: log2 R, and over w·R^m the change's lower and upper bounds
        # and the size at m and m − 1
        rows = []
        for P, c, _, low, fixed in parts:
            R, step = abs(P), abs(1.0 - 1.0 / P)  # κ·u·size also covers the change's rounding
            size = (1.0 + 1.0 / R) * c
            rows.append((np.log2(R), step * c * low, step * c if fixed else size, size))
        # the stop level, and a floor above which the computed gap norm does not underflow
        rows.append((0.0, 0.0, max(tol, 0.0) + 2.0 ** -min(560, 900 / cod_exp), 0.0))
        log_R, change_low, change_high, size = np.array(rows).T
        col_norms = norm_many(f.codomain, np.swapaxes(L, -1, -2).reshape(-1, L.shape[-2]))
        linear = np.abs(X) @ col_norms.reshape(-1, L.shape[-1]).T  # (points, candidates)
        W = np.empty((len(rows), X.shape[0]))
        W[0] = so * sa * (linear[np.arange(X.shape[0]), cand] if L.ndim == 3 else linear[:, 0])
        np.power(nx, np.array([e for _, _, e, _, _ in parts[1:]] + [0.0])[:, None], out=W[1:])
        log_W = np.log2(W)
        net = change_low - ku * size
        # the lead j: of the parts whose change can lead, the slowest to shrink
        j = max(np.flatnonzero(net > 0.0), key=lambda k: log_R[k], default=0)
        # B_k R_k^m = 2^(b_k + m·slope_k) A_j R_j^m
        b = (np.log2(change_high + ku * size) - np.log2(net[j]))[:, None] + (log_W - log_W[j])
        b[j] = -np.inf
        slope = log_R - log_R[j]
        # a start: each term below 1/(others), where it shrinks that way
        m = (-np.log2(len(rows) - 1) - b) / slope[:, None]
        ends = np.stack([np.maximum(first, -2.0**20), np.minimum(last, 2.0**20)])
        lo = np.maximum(ends[0], np.max(np.floor(m[slope < 0]) + 1.0, axis=0, initial=-np.inf))
        hi = np.minimum(ends[1], np.min(np.ceil(m[slope > 0]) - 1.0, axis=0, initial=np.inf))
        # move lo down and hi up (way ∓1) while the terms growing that way, at
        # most 2^rate a step, fit; the other terms only shrink that way
        way = np.array([[-1.0], [1.0]])
        e = np.stack([lo, hi])
        v = np.exp2(b + e[:, None] * slope[:, None])
        up = way * slope > 0.0
        grows = np.sum(v, axis=1, where=up[:, :, None])
        rest = np.sum(v, axis=1) - grows
        rate = np.max(way * slope, axis=1, keepdims=True)
        margin = 1.0 - 2.0**-20
        d = np.fmax(np.floor(np.log2((margin - rest) / grows) / rate), 0.0)
        d = np.minimum(d, way * (ends - e))
        lo, hi = e = e + way * d
        found = np.all(grows * np.exp2(rate * d) + rest < margin, axis=0) & (lo <= hi)
        # no magnitude near overflow, and 2^-w < ‖y‖ = |arg|^m·nx < 2^w, far from it
        log_size = np.log2(size)[:, None] + log_W
        log_top = log_size + np.maximum(lo * log_R[:, None], hi * log_R[:, None])
        found &= np.all(log_top < 990.0, axis=0)
        log_y = np.log2(nx) + e * np.log2(abs(arg))
        found &= np.all(np.abs(log_y) < min(400.0, 800.0 / dom_exp) - 8.0, axis=0)
    return np.where(found, lo - 1, 2**62).astype(np.int64), np.where(found, hi, first).astype(np.int64)
