"""Deterministic samplers for points, pairs, and orthogonal pairs.

All randomness flows from an explicit integer seed through labeled
SeedSequence streams, so every sampler is reproducible across runs given the
same (seed, label).  Directions are Gaussian draws normalized in the space's
own norm, so sampled radii are exact in that norm.
"""

from __future__ import annotations

import zlib

import numpy as np

from .spaces import (
    INNER_PRODUCT,
    NormedSpaceSpec,
    OrthogonalityRelation,
    is_orthogonal_many,
    norm_many,
    orthogonal_partners,
)

_PARTNER_TRIES = 128  # draws per row before orthogonal_pairs gives up


def rng_from(seed: int, label: str) -> np.random.Generator:
    entropy = [seed & (2**64 - 1), zlib.crc32(label.encode("ascii"))]
    return np.random.default_rng(np.random.SeedSequence(entropy=entropy))


def unit_directions(space: NormedSpaceSpec, n: int, rng) -> np.ndarray:
    V = rng.standard_normal((n, space.dim))
    lens = norm_many(space, V)
    bad = lens == 0.0
    if np.any(bad):
        V[bad] = 0.0
        V[bad, 0] = 1.0
        lens[bad] = norm_many(space, V[bad])
    return V / lens[:, None]


def sample_points(space, n, radius_range, rng) -> np.ndarray:
    lo, hi = radius_range
    radii = rng.uniform(lo, hi, size=n)
    return unit_directions(space, n, rng) * radii[:, None]


def _apply_axis_rows(X, Y, axis_period):
    """Zero out x or y on a periodic subset so axis pairs (x, 0), (0, y) are covered."""
    if axis_period and axis_period > 1:
        idx = np.arange(X.shape[0])
        Y[idx % axis_period == 0] = 0.0
        X[idx % axis_period == axis_period // 2] = 0.0
    return X, Y


def sample_pairs(space, n, radius_range, rng, axis_period: int = 0):
    X = sample_points(space, n, radius_range, rng)
    Y = sample_points(space, n, radius_range, rng)
    return _apply_axis_rows(X, Y, axis_period)


def exterior_pairs(space, d, n, radius_range, rng, axis_period: int = 0):
    """Pairs with ‖x‖ + ‖y‖ ≥ d, radii drawn from radius_range then repaired."""
    lo, hi = radius_range
    rx = rng.uniform(lo, hi, size=n)
    ry = rng.uniform(lo, hi, size=n)
    short = rx + ry < d
    if np.any(short):
        # Rescale deficient rows onto the boundary shell and a bit beyond.
        need = d * (1.0 + 1e-9) / np.maximum(rx[short] + ry[short], 1e-300)
        rx[short] *= need
        ry[short] *= need
    X = unit_directions(space, n, rng) * rx[:, None]
    Y = unit_directions(space, n, rng) * ry[:, None]
    if axis_period and axis_period > 1:
        idx = np.arange(n)
        pick_y = (idx % axis_period == 0) & (rx >= d)
        Y[pick_y] = 0.0
        pick_x = (idx % axis_period == axis_period // 2) & (ry >= d)
        X[pick_x] = 0.0
    return X, Y


def shell_pairs(space, lo, hi, n, rng):
    """Pairs with ‖x‖ + ‖y‖ in [lo, hi): total radius uniform, split uniformly.

    With lo = 0 these are the interior pairs ‖x‖ + ‖y‖ < hi."""
    total = rng.uniform(lo, hi, size=n) * (1.0 - 1e-12)
    frac = rng.uniform(0.0, 1.0, size=n)
    X = unit_directions(space, n, rng) * (total * frac)[:, None]
    Y = unit_directions(space, n, rng) * (total * (1.0 - frac))[:, None]
    return X, Y


def orthogonal_pairs(
    rel: OrthogonalityRelation,
    space: NormedSpaceSpec,
    n: int,
    radius_range,
    rng,
    axis_period: int = 0,
):
    """Pairs that satisfy the relation, radii from radius_range.

    All partners come from one orthogonal_partners call on Gaussian draws and
    are checked by one is_orthogonal_many call; the rows that fail (or whose
    partner is numerically zero) are drawn again together, up to 128 draws
    per row.
    """
    X = sample_points(space, n, radius_range, rng)
    # Each kind keeps the draw order of its former sampler (inner_product drew
    # V before the radii, the others after), so sampled pairs keep their bytes.
    if rel.kind == INNER_PRODUCT:
        V = rng.standard_normal((n, space.dim))
        radii = rng.uniform(*radius_range, size=n)
    else:
        radii = rng.uniform(*radius_range, size=n)
        V = rng.standard_normal((n, space.dim))
    Y = np.empty_like(X)
    todo = np.arange(n)
    for _ in range(_PARTNER_TRIES):
        Yd = orthogonal_partners(rel, space, X[todo], V)
        # inner-product lengths come from np.linalg.norm, on which the sampled pairs' bytes rest
        ylen = np.linalg.norm(Yd, axis=1) if rel.kind == INNER_PRODUCT else norm_many(space, Yd)
        ok = ylen >= 1e-12
        rows = todo[ok]
        Y[rows] = Yd[ok] / ylen[ok, None] * radii[rows, None]
        ok[ok] = is_orthogonal_many(rel, space, X[rows], Y[rows])
        todo = todo[~ok]
        if todo.size == 0:
            return _apply_axis_rows(X, Y, axis_period)
        V = rng.standard_normal((todo.size, space.dim))
    raise RuntimeError("could not construct an orthogonal partner")
