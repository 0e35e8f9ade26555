"""Reference formulas the series tests compare the library against."""

import numpy as np

from jensenlab.control import control_phi_norms
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
