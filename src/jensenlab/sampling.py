"""Deterministic samplers for points, pairs, and orthogonal pairs.

All randomness flows from an explicit integer seed through labeled
SeedSequence streams, so every sampler is reproducible across runs given the
same (seed, label).  Directions are Gaussian draws normalized in the space's
own norm, so sampled radii are exact in that norm.

Every sampler takes one generator per config, and one radius range per
generator where it reads one; a single config is a batch of one.  Each
generator makes the draws it makes alone, in the same order, and the result
holds n rows per generator, one segment each in generator order.  Norms,
divisions, radius scaling, axis rows and the partner construction and check
run once over the stacked rows.  Rows do not interact, so each segment
holds the bytes its config gets alone.
"""

from __future__ import annotations

import zlib

import numpy as np

from .spaces import (
    INNER_PRODUCT,
    ConfigError,
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


def _normals(rngs, counts, dim: int) -> np.ndarray:
    """counts[i] standard normal rows of length dim from rngs[i], stacked."""
    return np.concatenate([rng.standard_normal((c, dim)) for rng, c in zip(rngs, counts)])


def _uniforms(rngs, ranges, n: int) -> np.ndarray:
    """n uniform draws from each generator on its own (lo, hi), stacked."""
    return np.concatenate([rng.uniform(lo, hi, size=n) for rng, (lo, hi) in zip(rngs, ranges)])


def unit_directions(space: NormedSpaceSpec, n: int, rngs) -> np.ndarray:
    V = _normals(rngs, [n] * len(rngs), space.dim)
    lens = norm_many(space, V)
    bad = lens == 0.0
    if np.any(bad):
        V[bad] = 0.0
        V[bad, 0] = 1.0
        lens[bad] = norm_many(space, V[bad])
    return V / lens[:, None]


def sample_points(space, n, radius_ranges, rngs) -> np.ndarray:
    """n points per generator: radii uniform on its radius range, then directions."""
    radii = _uniforms(rngs, radius_ranges, n)
    return unit_directions(space, n, rngs) * radii[:, None]


def _apply_axis_rows(X, Y, n, axis_period):
    """Zero out x or y on a periodic subset of each n-row segment, so axis
    pairs (x, 0), (0, y) are covered."""
    if axis_period and axis_period > 1:
        idx = np.arange(X.shape[0]) % n
        Y[idx % axis_period == 0] = 0.0
        X[idx % axis_period == axis_period // 2] = 0.0
    return X, Y


def sample_pairs(space, n, radius_ranges, rngs, axis_period: int = 0):
    X = sample_points(space, n, radius_ranges, rngs)
    Y = sample_points(space, n, radius_ranges, rngs)
    return _apply_axis_rows(X, Y, n, axis_period)


def exterior_pairs(space, d, n, radius_ranges, rngs, axis_period: int = 0):
    """Pairs with ‖x‖ + ‖y‖ ≥ d, radii drawn from radius_ranges then repaired."""
    rx = _uniforms(rngs, radius_ranges, n)
    ry = _uniforms(rngs, radius_ranges, n)
    short = rx + ry < d
    if np.any(short):
        # Rescale deficient rows onto the boundary shell and a bit beyond.
        need = d * (1.0 + 1e-9) / np.maximum(rx[short] + ry[short], 1e-300)
        rx[short] *= need
        ry[short] *= need
    X = unit_directions(space, n, rngs) * rx[:, None]
    Y = unit_directions(space, n, rngs) * ry[:, None]
    if axis_period and axis_period > 1:
        idx = np.arange(X.shape[0]) % n
        pick_y = (idx % axis_period == 0) & (rx >= d)
        Y[pick_y] = 0.0
        pick_x = (idx % axis_period == axis_period // 2) & (ry >= d)
        X[pick_x] = 0.0
    return X, Y


def shell_pairs(space, lo, hi, n, rngs):
    """Pairs with ‖x‖ + ‖y‖ in [lo, hi): total radius uniform, split uniformly.

    With lo = 0 these are the interior pairs ‖x‖ + ‖y‖ < hi."""
    total = _uniforms(rngs, [(lo, hi)] * len(rngs), n) * (1.0 - 1e-12)
    frac = _uniforms(rngs, [(0.0, 1.0)] * len(rngs), n)
    X = unit_directions(space, n, rngs) * (total * frac)[:, None]
    Y = unit_directions(space, n, rngs) * (total * (1.0 - frac))[:, None]
    return X, Y


def orthogonal_pairs(
    rel: OrthogonalityRelation,
    space: NormedSpaceSpec,
    n: int,
    radius_ranges,
    rngs,
    axis_period: int = 0,
):
    """Pairs that satisfy the relation, radii from radius_ranges.

    All partners come from one orthogonal_partners call on Gaussian draws and
    are checked by one is_orthogonal_many call; the rows that fail (or whose
    partner is numerically zero) are drawn again together, each config's
    from its own generator, up to 128 draws per row.
    """
    K, dim = len(rngs), space.dim
    X = sample_points(space, n, radius_ranges, rngs)
    # Each kind keeps the draw order of its former sampler (inner_product drew
    # V before the radii, the others after), so sampled pairs keep their bytes.
    if rel.kind == INNER_PRODUCT:
        V = _normals(rngs, [n] * K, dim)
        radii = _uniforms(rngs, radius_ranges, n)
    else:
        radii = _uniforms(rngs, radius_ranges, n)
        V = _normals(rngs, [n] * K, dim)
    Y = np.empty_like(X)
    todo = np.arange(K * n)
    with np.errstate(over="ignore", invalid="ignore"):  # huge p or radii: nan partners, redrawn
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
                return _apply_axis_rows(X, Y, n, axis_period)
            # todo is sorted, so each config's redraws land on its own rows in order
            V = _normals(rngs, np.bincount(todo // n, minlength=K).tolist(), dim)
    raise ConfigError(f"domain.relation: no {rel.kind} partner in {_PARTNER_TRIES} draws; lower"
                      " space.p or sampler.radius_range")
