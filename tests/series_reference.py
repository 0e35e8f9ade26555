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
