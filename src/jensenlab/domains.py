"""Restricted hypothesis domains and the exterior-of-ball bridging chain.

The interesting restriction is the exterior domain ‖x‖ + ‖y‖ ≥ d: a defect
bound assumed only there extends to the whole space by routing each interior
pair (x, y) through an auxiliary far-away point z.  With

    A = (2 + t/s)z + (t/s)y,      B = (s/t)x − (1 + 2s/t)z,
    M = 2(1 + t/s)z,

the defect vector at (x, y) equals D(A,B) + D(x,z) + D(M,y) − D(M,B) − D(A,z)
exactly, and each of the five pairs satisfies the exterior condition whenever
z = construct_z(x, y, d).  Hence a defect ≤ ε on the exterior implies ≤ 5ε
everywhere, with each chain pair's membership witnessed by an explicit margin.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .models import JensenParams, jensen_defect_many
from .sampling import shell_pairs
from .spaces import (
    NormedSpaceSpec,
    OrthogonalityRelation,
    as_batch,
    as_point,
    norm_many,
)

FULL = "full"
EXTERIOR = "exterior"
PUNCTURED = "punctured"
ORTHOGONAL = "orthogonal"

# Absorbs representation error of exact-boundary cases (see construct_z at x = y = 0).
FIVE_INEQ_TOL = 1e-9
# Monotonicity slack for shell profiles.
PROFILE_DECREASE_TOL = 1e-9


class DomainError(ValueError):
    """Raised for malformed domain restrictions."""


@dataclass(frozen=True)
class DomainRestriction:
    kind: str
    d: float = 0.0
    relation: OrthogonalityRelation | None = None

    def __post_init__(self):
        if self.kind not in (FULL, EXTERIOR, PUNCTURED, ORTHOGONAL):
            raise DomainError(f"unknown domain kind {self.kind!r}")
        if self.kind == EXTERIOR and not (self.d > 0.0):
            raise DomainError("exterior domain needs d > 0")
        if self.kind == ORTHOGONAL and self.relation is None:
            raise DomainError("orthogonal domain needs a relation")


def construct_z_many(space: NormedSpaceSpec, X, Y, d: float) -> np.ndarray:
    """Auxiliary far point: scale the longer of x, y out by d, or d·e1 at the origin.

    Ties go to the x branch; ‖z‖ = max(‖x‖, ‖y‖) + d ≥ d always.
    """
    X = as_batch(X, space.dim)
    Y = as_batch(Y, space.dim)
    nx = norm_many(space, X)
    ny = norm_many(space, Y)
    Z = np.zeros_like(X)
    use_x = (nx >= ny) & (nx > 0.0)
    use_y = (~use_x) & (ny > 0.0)
    Z[use_x] = X[use_x] * (1.0 + d / nx[use_x])[:, None]
    Z[use_y] = Y[use_y] * (1.0 + d / ny[use_y])[:, None]
    both_zero = ~use_x & ~use_y
    Z[both_zero, 0] = d
    return Z


def construct_z(space: NormedSpaceSpec, x, y, d: float) -> np.ndarray:
    x = as_point(x, space.dim)
    y = as_point(y, space.dim)
    return construct_z_many(space, x[None, :], y[None, :], d)[0]


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
    A, B, M = _chain_points(params, as_batch(X, space.dim), as_batch(Y, space.dim), Z)
    nA = norm_many(space, A)
    nB = norm_many(space, B)
    nM = norm_many(space, M)
    nX = norm_many(space, X)
    nY = norm_many(space, Y)
    nZ = norm_many(space, Z)
    return np.stack(
        [nA + nB - d, nX + nZ - d, nM + nY - d, nM + nB - d, nA + nZ - d], axis=1
    )


def verify_five_inequalities(
    space: NormedSpaceSpec, params: JensenParams, x, y, z, d: float
) -> list:
    """Per-inequality (holds, margin) pairs for a single chain instance."""
    margins = five_inequality_margins(
        space,
        params,
        as_point(x, space.dim)[None, :],
        as_point(y, space.dim)[None, :],
        as_point(z, space.dim)[None, :],
        d,
    )[0]
    tol = FIVE_INEQ_TOL * max(1.0, d)
    return [(bool(m >= -tol), float(m)) for m in margins]


def _defect_at_midpoint(f, params: JensenParams, W, U, V):
    vals = (
        params.r * f.eval_many(W)
        - params.s * f.eval_many(U)
        - params.t * f.eval_many(V)
    )
    return norm_many(f.codomain, vals)


def five_term_defect_many(f, params: JensenParams, X, Y, Z):
    """Direct defect at (x, y) and the five-term chain through z.

    Returns (direct, chain, terms) with terms of shape (n, 5); the vector
    identity behind the chain guarantees direct ≤ chain up to roundoff.

    The three distinct midpoints are computed once and reused: the identity
    cancels shared evaluations, and recomputing a midpoint from a different
    chain pair can round to a neighbouring float, which decorrelates
    point-hashed perturbations and breaks the cancellation.
    """
    X = as_batch(X, f.domain.dim)
    Y = as_batch(Y, f.domain.dim)
    Z = as_batch(Z, f.domain.dim)
    A, B, M = _chain_points(params, X, Y, Z)
    r, s, t = params.r, params.s, params.t
    w_xy = (s * X + t * Y) / r  # equals (s·A + t·B)/r
    w_xz = (s * X + t * Z) / r  # equals (s·M + t·B)/r
    w_my = (s * M + t * Y) / r  # equals (s·A + t·Z)/r
    terms = np.stack(
        [
            _defect_at_midpoint(f, params, w_xy, A, B),
            _defect_at_midpoint(f, params, w_xz, X, Z),
            _defect_at_midpoint(f, params, w_my, M, Y),
            _defect_at_midpoint(f, params, w_xz, M, B),
            _defect_at_midpoint(f, params, w_my, A, Z),
        ],
        axis=1,
    )
    direct = _defect_at_midpoint(f, params, w_xy, X, Y)
    return direct, terms.sum(axis=1), terms


def five_term_defect_bound(f, params: JensenParams, x, y, z) -> dict:
    x = as_point(x, f.domain.dim)
    y = as_point(y, f.domain.dim)
    z = as_point(z, f.domain.dim)
    direct, chain, terms = five_term_defect_many(
        f, params, x[None, :], y[None, :], z[None, :]
    )
    return {
        "direct_value": float(direct[0]),
        "chain_value": float(chain[0]),
        "terms": [float(v) for v in terms[0]],
    }


@dataclass
class SupResult:
    value: float
    x: np.ndarray
    y: np.ndarray


def defect_sup_on(f, g, h, params: JensenParams, X, Y) -> SupResult:
    d = jensen_defect_many(f, g, h, params, X, Y)
    i = int(np.argmax(d))
    return SupResult(value=float(d[i]), x=X[i].copy(), y=Y[i].copy())


def exterior_defect_sup(
    f, g, h, params: JensenParams, space: NormedSpaceSpec, d: float, X, Y
) -> SupResult:
    """Empirical defect sup over supplied pairs, restricted to ‖x‖+‖y‖ ≥ d."""
    mask = norm_many(space, X) + norm_many(space, Y) >= d
    if not np.any(mask):
        raise DomainError("no exterior pairs in the sample")
    return defect_sup_on(f, g, h, params, X[mask], Y[mask])


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

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["shell_edge_low", "shell_edge_high", "sup_defect", "samples"])
        for k in range(self.sup_defect.size):
            writer.writerow(
                [
                    repr(float(self.edges[k])),
                    repr(float(self.edges[k + 1])),
                    repr(float(self.sup_defect[k])),
                    self.samples_per_shell,
                ]
            )
        return buf.getvalue()

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
    space: NormedSpaceSpec,
    shell_edges,
    samples_per_shell: int,
    rng,
) -> ShellProfile:
    """Defect sup per shell of ‖x‖ + ‖y‖; diagnoses decay toward additivity."""
    edges = np.asarray(shell_edges, dtype=np.float64)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise DomainError("shell edges must be increasing with at least two entries")
    sups = np.empty(edges.size - 1)
    for k in range(edges.size - 1):
        X, Y = shell_pairs(space, edges[k], edges[k + 1], samples_per_shell, rng)
        sups[k] = float(np.max(jensen_defect_many(f, f, f, params, X, Y)))
    return ShellProfile(edges=edges, sup_defect=sups, samples_per_shell=samples_per_shell)
