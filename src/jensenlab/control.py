"""Control functions φ : X × X → [0, ∞) that dominate the Jensen defect.

Every kind is φ = ε + (its part), the part being one of:

  constant  0
  mixed     δ(‖x‖^p + ‖y‖^p), p in [0, 1), with 0^p := 0
  table     w(‖x‖) + w(‖y‖), w piecewise-linear on sampled radii
            with power-law tail w(ρmax)·(ρ/ρmax)^q beyond the last knot, q < 1

So a run's effective control is its declared spec with ε replaced by the
measured ε̂.  delta and p are read by a mixed control only, and table by a
table control only; a spec that sets a key its kind does not read is refused.
The growth restriction (p < 1, q < 1) is what makes the dyadic and triadic
comparison series converge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CONSTANT = "constant"
MIXED = "mixed"
TABLE = "table"


class ControlError(ValueError):
    """Raised for malformed control specs."""


@dataclass(frozen=True, eq=False)
class RadialControlTable:
    """Sampled nonnegative radial profile w(ρ) with declared growth exponent q."""

    radii: np.ndarray  # (K,) increasing, radii[0] == 0
    values: np.ndarray  # (K,) nonnegative
    q: float

    def __post_init__(self):
        radii = np.asarray(self.radii, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        if radii.ndim != 1 or radii.size < 2 or values.shape != radii.shape:
            raise ControlError("table needs matching 1-d radii and values, K >= 2")
        if radii[0] != 0.0 or np.any(np.diff(radii) <= 0):
            raise ControlError("radii must start at 0 and increase")
        if np.any(values < 0.0):
            raise ControlError("table values must be nonnegative")
        if not (self.q < 1.0):
            raise ControlError(f"growth exponent must satisfy q < 1, got {self.q}")
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "values", values)

    def eval_many(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=np.float64)
        inside = np.interp(rho, self.radii, self.values)
        rmax = self.radii[-1]
        vmax = self.values[-1]
        with np.errstate(invalid="ignore"):
            tail = vmax * (rho / rmax) ** self.q
        return np.where(rho <= rmax, inside, tail)


@dataclass(frozen=True)
class ControlFunctionSpec:
    kind: str = CONSTANT
    epsilon: float = 0.0
    delta: float = 0.0
    p: float = 0.0
    table: RadialControlTable | None = None

    def __post_init__(self):
        if self.kind not in (CONSTANT, MIXED, TABLE):
            raise ControlError(f"unknown control kind {self.kind!r}")
        for key in ("epsilon", "delta"):
            if not (0.0 <= getattr(self, key) < np.inf):
                raise ControlError(f"{key} must be finite and >= 0, got {getattr(self, key)}")
        if self.kind == MIXED and not (0.0 <= self.p < 1.0):
            raise ControlError(f"p must lie in [0, 1) for a mixed control, got {self.p}")
        if self.kind == TABLE and self.table is None:
            raise ControlError("table control needs a RadialControlTable")
        unread = [k for k in ("delta", "p") if getattr(self, k) != 0.0 and self.kind != MIXED]
        if self.table is not None and self.kind != TABLE:
            unread.append("table")
        if unread:
            raise ControlError(f"{unread[0]} is not read by a {self.kind} control")


def _powered(nrm: np.ndarray, p: float) -> np.ndarray:
    # 0^p := 0 for every p in [0, 1), including p = 0.
    return np.where(nrm > 0.0, nrm**p, 0.0)


def control_phi_norms(spec: ControlFunctionSpec, nx: np.ndarray, ny: np.ndarray) -> np.ndarray:
    """Evaluate φ = ε + (part) from the two argument norms (vectorized)."""
    nx = np.asarray(nx, dtype=np.float64)
    ny = np.asarray(ny, dtype=np.float64)
    if spec.kind == MIXED:
        part = spec.delta * (_powered(nx, spec.p) + _powered(ny, spec.p))
    elif spec.kind == TABLE:
        part = spec.table.eval_many(nx) + spec.table.eval_many(ny)
    else:
        part = np.zeros(np.broadcast(nx, ny).shape)
    return spec.epsilon + part
