"""Restricted hypothesis domains and the exterior-of-ball bridging chain.

The interesting restriction is the exterior domain ‖x‖ + ‖y‖ ≥ d: a defect
bound assumed only there extends to the whole space by routing each interior
pair (x, y) through an auxiliary far-away point z.  With

    A = (2 + t/s)z + (t/s)y,      B = (s/t)x − (1 + 2s/t)z,
    M = 2(1 + t/s)z,

the defect vector at (x, y) equals D(A,B) + D(x,z) + D(M,y) − D(M,B) − D(A,z)
exactly, and each of the five pairs satisfies the exterior condition whenever
z is the far point of construct_z_many.  Hence a defect ≤ ε on the exterior implies ≤ 5ε
everywhere, with each chain pair's membership witnessed by an explicit margin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import JensenParams, _eval_stacked, jensen_defect_many
from .sampling import shell_pairs
from .spaces import (
    ConfigError,
    NormedSpaceSpec,
    OrthogonalityRelation,
    as_batch,
    norm_many,
)

FULL = "full"
EXTERIOR = "exterior"
PUNCTURED = "punctured"
ORTHOGONAL = "orthogonal"

# Absorbs representation error of exact-boundary cases (see construct_z_many at x = y = 0).
FIVE_INEQ_TOL = 1e-9
# Monotonicity slack for shell profiles.
PROFILE_DECREASE_TOL = 1e-9


@dataclass(frozen=True)
class DomainRestriction:
    kind: str
    d: float = 0.0
    relation: OrthogonalityRelation | None = None

    def __post_init__(self):
        if self.kind not in (FULL, EXTERIOR, PUNCTURED, ORTHOGONAL):
            raise ConfigError(f"unknown domain kind {self.kind!r}")
        if self.kind == EXTERIOR and not (self.d > 0.0):
            raise ConfigError("exterior domain needs d > 0")
        if self.kind == ORTHOGONAL and self.relation is None:
            raise ConfigError("orthogonal domain needs a relation")
        if self.d != 0.0 and self.kind != EXTERIOR:
            raise ConfigError(f"d is read by the exterior domain only, not by {self.kind}")
        if self.relation is not None and self.kind != ORTHOGONAL:
            raise ConfigError(f"relation is read by the orthogonal domain only, not by {self.kind}")


def construct_z_many(space: NormedSpaceSpec, X, Y, d: float) -> np.ndarray:
    """Auxiliary far point: scale the longer of x, y out by d, or d·e1 at the origin.

    Ties go to the x branch; ‖z‖ = max(‖x‖, ‖y‖) + d ≥ d always.
    """
    X = as_batch(X, space.dim)
    Y = as_batch(Y, space.dim)
    nx, ny = norm_many(space, np.concatenate([X, Y])).reshape(2, X.shape[0])
    Z = np.zeros_like(X)
    use_x = (nx >= ny) & (nx > 0.0)
    use_y = (~use_x) & (ny > 0.0)
    Z[use_x] = X[use_x] * (1.0 + d / nx[use_x])[:, None]
    Z[use_y] = Y[use_y] * (1.0 + d / ny[use_y])[:, None]
    both_zero = ~use_x & ~use_y
    Z[both_zero, 0] = d
    return Z


def _chain_points(params: JensenParams, X, Y, Z):
    s, t = params.s, params.t
    A = (2.0 + t / s) * Z + (t / s) * Y
    B = (s / t) * X - (1.0 + 2.0 * s / t) * Z
    M = 2.0 * (1.0 + t / s) * Z
    return A, B, M


def five_inequality_margins(
    space: NormedSpaceSpec, params: JensenParams, X, Y, Z, d: float
) -> np.ndarray:
    """(n, 5) margins ‖·‖ + ‖·‖ − d for the five chain pairs; ≥ 0 means exterior."""
    X, Y, Z = (as_batch(P, space.dim) for P in (X, Y, Z))
    A, B, M = _chain_points(params, X, Y, Z)
    norms = norm_many(space, np.concatenate([A, B, M, X, Y, Z]))
    nA, nB, nM, nX, nY, nZ = norms.reshape(6, X.shape[0])
    return np.stack(
        [nA + nB - d, nX + nZ - d, nM + nY - d, nM + nB - d, nA + nZ - d], axis=1
    )


def five_term_defect_many(f, params: JensenParams, X, Y, Z, cand=None):
    """Direct defect at (x, y) and the five-term chain through z.

    Returns (direct, chain, terms) with terms of shape (n, 5); the vector
    identity behind the chain guarantees direct ≤ chain up to roundoff.
    cand, the candidate of each row, goes on to f.

    The six defects read nine distinct point sets: the three midpoints and
    X, Y, Z, A, B, M.  f is evaluated once, on their stack, and each set's
    values are shared by every defect that reads them: the identity cancels
    shared evaluations, and recomputing a midpoint from a different chain
    pair can round to a neighbouring float, which decorrelates point-hashed
    perturbations and breaks the cancellation.
    """
    X = as_batch(X, f.domain.dim)
    Y = as_batch(Y, f.domain.dim)
    Z = as_batch(Z, f.domain.dim)
    A, B, M = _chain_points(params, X, Y, Z)
    r, s, t = params.r, params.s, params.t
    w_xy = (s * X + t * Y) / r  # equals (s·A + t·B)/r
    w_xz = (s * X + t * Z) / r  # equals (s·M + t·B)/r
    w_my = (s * M + t * Y) / r  # equals (s·A + t·Z)/r
    f_xy, f_xz, f_my, fX, fY, fZ, fA, fB, fM = _eval_stacked(
        f, [w_xy, w_xz, w_my, X, Y, Z, A, B, M], cand
    )
    # (f at the midpoint, at u, at v) of (x, y), then of the five chain pairs
    defects = [
        norm_many(f.codomain, r * fw - s * fu - t * fv)
        for fw, fu, fv in ((f_xy, fX, fY), (f_xy, fA, fB), (f_xz, fX, fZ),
                           (f_my, fM, fY), (f_xz, fM, fB), (f_my, fA, fZ))
    ]
    terms = np.stack(defects[1:], axis=1)
    return defects[0], terms.sum(axis=1), terms


@dataclass
class ShellProfile:
    """Per-shell defect sups over ‖x‖ + ‖y‖ shells, with a decay verdict."""

    edges: np.ndarray  # (K+1,) increasing
    sup_defect: np.ndarray  # (K,)
    samples_per_shell: int

    @property
    def decreasing(self) -> bool:
        diffs = np.diff(self.sup_defect)
        return bool(np.all(diffs <= PROFILE_DECREASE_TOL))

    @property
    def final_sup(self) -> float:
        return float(self.sup_defect[-1])

    def is_decaying(self, tol: float) -> bool:
        return self.decreasing and self.final_sup <= tol

    def to_dict(self) -> dict:
        return {
            "edges": [float(e) for e in self.edges],
            "sup_defect": [float(v) for v in self.sup_defect],
            "samples_per_shell": self.samples_per_shell,
            "decreasing": self.decreasing,
            "final_sup": self.final_sup,
        }


def asymptotic_profile(
    f,
    params: JensenParams,
    shell_edges,
    samples_per_shell: int,
    rng,
) -> ShellProfile:
    """Defect sup per shell of ‖x‖ + ‖y‖ in f.domain; diagnoses decay toward additivity."""
    edges = np.asarray(shell_edges, dtype=np.float64)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0) or not edges[0] >= 0:
        raise ConfigError("shell edges must be increasing from >= 0, with at least two entries")
    sups = np.empty(edges.size - 1)
    for k in range(edges.size - 1):
        X, Y = shell_pairs(f.domain, edges[k], edges[k + 1], samples_per_shell, [rng])
        sups[k] = float(np.max(jensen_defect_many(f, f, f, params, X, Y)))
    return ShellProfile(edges=edges, sup_defect=sups, samples_per_shell=samples_per_shell)
