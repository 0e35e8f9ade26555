"""Reference Birkhoff-James kernels the spaces tests compare the library against.

These are the straightforward loops: the margin search stacks both probes of
a step into one batch of rows, and the O4 bisection takes both one-sided
derivatives at every step.  The library must give the same floats, bit for bit.
"""

import numpy as np

from jensenlab.spaces import (
    SUP,
    _BISECT_ITERS,
    _GOLDEN_ITERS,
    _INVPHI,
    _TIE_RTOL,
    _norming_functionals,
    _quarter_turns,
    _rowdot,
    as_batch,
    norm_many,
    orthogonal_partners,
)


def bj_margin_many(space, X, Y):
    """min over λ of ‖x + λy‖ − ‖x‖ per row pair, golden section on [−2‖x‖/‖y‖, 2‖x‖/‖y‖]."""
    X = as_batch(X, space.dim)
    Y = as_batch(Y, space.dim)
    nx = norm_many(space, X)
    ny = norm_many(space, Y)
    b = 2.0 * nx / np.where(ny > 0.0, ny, np.inf)
    a = -b
    XX, YY = np.concatenate([X, X]), np.concatenate([Y, Y])

    def f(lam):
        return norm_many(space, XX[: lam.size] + lam[:, None] * YY[: lam.size])

    best = nx
    for _ in range(_GOLDEN_ITERS):
        c = b - _INVPHI * (b - a)
        d = a + _INVPHI * (b - a)
        fcd = f(np.concatenate([c, d]))
        fc, fd = fcd[: c.size], fcd[c.size :]
        best = np.minimum(best, np.minimum(fc, fd))
        left = fc < fd
        a = np.where(left, a, c)
        b = np.where(left, d, b)
    best = np.minimum(best, f((a + b) / 2.0))
    return best - nx


def one_sided_derivatives(space, U, V):
    """ρ'₋(u; v) and ρ'₊(u; v) of s ↦ ‖u + s·v‖ at 0."""
    if space.norm_kind == SUP:
        A = np.abs(U)
        active = A >= (1.0 - _TIE_RTOL) * np.max(A, axis=1, keepdims=True)
        S = np.sign(U) * V
        return (np.min(np.where(active, S, np.inf), axis=1),
                np.max(np.where(active, S, -np.inf), axis=1))
    d = _rowdot(_norming_functionals(space, U), V)
    return d, d


def o4_witnesses(rel, space, P1, P2, X, lam):
    """Rows y0 in span(p1, p2) with x ⊥ y0 and (x + y0) ⊥ (lam·x − y0), by bisection on ρ'₋."""
    D = orthogonal_partners(rel, space, X, _quarter_turns(P1, P2, X))
    a = np.zeros(X.shape[0])
    b = (3.0 + lam) * norm_many(space, X) / norm_many(space, D)
    LX = lam[:, None] * X
    for _ in range(_BISECT_ITERS):
        t = (a + b) / 2.0
        neg = one_sided_derivatives(space, X + t[:, None] * D, LX - t[:, None] * D)[0] <= 0.0
        a, b = np.where(neg, a, t), np.where(neg, t, b)
    return b[:, None] * D
