"""Function models: structured maps f : X → Y plus deterministic perturbations.

A FunctionModel is a sum of an exact part (linear map plus radial quadratic
c·‖x‖²) and pseudo-random perturbation terms; it maps 0 to 0 exactly.
Perturbations are pure functions of (seed, bits of x): the coordinate bit
patterns are hashed with FNV-1a (64-bit), the hash seeds a splitmix64 stream
that is expanded to codomain coordinates in [-1, 1), and the resulting vector
is normalized in the *codomain norm* so the declared pointwise bound
(amplitude, δ‖x‖^p, or amplitude/(1+‖x‖)) is exact in the working norm.

The hashed message of a point x in R^d is 8 + 8d bytes: the seed reduced mod
2^64 as a little-endian uint64, then each coordinate's IEEE-754 float64 bit
pattern, little-endian, in coordinate order (so −0.0 and 0.0 hash apart).
The FNV-1a state after the seed bytes (the seed prefix) is computed as a
Python int, once per call or, for a model of several candidates, once per
candidate and gathered per row; the coordinate bytes are then folded in one
byte column at a time over the whole batch.

A model may hold K candidates that share everything but the linear part
(one (codim, dim) matrix each) and the perturbation seeds (one per
candidate).  eval_many then takes cand, the candidate of each row, and a
row's value is that of its candidate's model alone (``candidate(i)``).

Evaluation is bit-identical across runs, platforms, and batch shapes: each
row's value depends on that row alone (a one-row linear part is padded to
the matrix-product path), so a one-row batch is the value at one point.  The
scaling limits in ``series`` and the [X; −X] evaluation of OddPart/EvenPart
rely on this.

The generalized Jensen defect measured throughout the lab is

    ‖r·f((s·x + t·y)/r) − s·g(x) − t·h(y)‖   (codomain norm).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .spaces import NormedSpaceSpec, as_batch, norm_many

NONE = "none"
BOUNDED = "bounded"
POWER = "power"
DECAY = "decay"

_U64 = np.uint64
_FNV_OFFSET = _U64(0xCBF29CE484222325)
_FNV_PRIME = _U64(0x100000001B3)
_SM_GAMMA = _U64(0x9E3779B97F4A7C15)
_SM_MIX1 = _U64(0xBF58476D1CE4E5B9)
_SM_MIX2 = _U64(0x94D049BB133111EB)
_MASK64 = 0xFFFFFFFFFFFFFFFF


class ModelError(ValueError):
    """Raised for malformed model specs."""


@dataclass(frozen=True)
class JensenParams:
    """The positive integer coefficients (r, s, t) of the equation."""

    r: int
    s: int
    t: int

    def __post_init__(self):
        for name in ("r", "s", "t"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ModelError(f"{name} must be a positive integer, got {v!r}")


@dataclass(frozen=True)
class PerturbationSpec:
    """One additive perturbation term with a declared pointwise bound.

    kind      bound on ‖pert(x)‖ in the codomain norm
    -------   ----------------------------------------
    none      0
    bounded   amplitude
    power     delta·‖x‖^p   (p in [0, 1), with 0^p := 0)
    decay     amplitude/(1 + ‖x‖)

    Every kind vanishes exactly at x = 0.
    """

    kind: str = NONE
    amplitude: float = 0.0
    delta: float = 0.0
    p: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in (NONE, BOUNDED, POWER, DECAY):
            raise ModelError(f"unknown perturbation kind {self.kind!r}")
        if self.amplitude < 0.0 or self.delta < 0.0:
            raise ModelError("perturbation magnitudes must be nonnegative")
        if self.kind == POWER and not (0.0 <= self.p < 1.0):
            raise ModelError(f"power perturbation needs p in [0, 1), got {self.p}")


def _row_candidates(cand) -> np.ndarray:
    """cand, which a model of several candidates cannot do without."""
    if cand is None:
        raise ModelError("a model of several candidates needs the candidate of each row")
    return cand


def _fnv1a_rows(seed, X: np.ndarray, cand=None) -> np.ndarray:
    """FNV-1a 64 over seed bytes then each coordinate's bit pattern, little-endian.

    seed is one int, or a tuple of one per candidate, row k then taking
    seed[cand[k]].
    """
    prefixes = []
    for s in seed if isinstance(seed, tuple) else (seed,):
        prefix = int(_FNV_OFFSET)
        for byte in (s & _MASK64).to_bytes(8, "little"):
            prefix = ((prefix ^ byte) * int(_FNV_PRIME)) & _MASK64
        prefixes.append(prefix)
    data = np.ascontiguousarray(X, dtype="<f8").view(np.uint8)
    if isinstance(seed, tuple):
        h = np.array(prefixes, dtype=_U64)[_row_candidates(cand)]
    else:
        h = np.full(data.shape[0], prefixes[0], dtype=_U64)
    for column in data.T:
        h ^= column
        h *= _FNV_PRIME
    return h


def _splitmix_expand(h: np.ndarray, k: int) -> np.ndarray:
    """Expand per-row hashes to (n, k) pseudo-uniform values in [-1, 1)."""
    z = h[:, None] + _SM_GAMMA * np.arange(1, k + 1, dtype=_U64)
    z ^= z >> _U64(30)
    z *= _SM_MIX1
    z ^= z >> _U64(27)
    z *= _SM_MIX2
    z ^= z >> _U64(31)
    return (z >> _U64(11)).astype(np.float64) * 2.0**-52 - 1.0


def _linear_rows(X: np.ndarray, L: np.ndarray, cand=None) -> np.ndarray:
    """Row-wise L·x as one matrix product, whatever the batch size.

    numpy sends a one-row product through its vector–matrix path, which rounds
    differently from the matrix–matrix path that every larger batch takes, so a
    lone row is padded to two.  A (K, codim, dim) L holds one matrix per
    candidate; each candidate's rows then take one product of their own.
    """
    if L.ndim == 3:
        Y = np.empty((X.shape[0], L.shape[1]))
        for k in range(L.shape[0]):
            rows = np.flatnonzero(_row_candidates(cand) == k)
            Y[rows] = _linear_rows(X[rows], L[k])
        return Y
    if X.shape[0] == 1:
        return (np.concatenate([X, X]) @ L.T)[:1]
    return X @ L.T


def perturbation_values(
    spec: PerturbationSpec,
    X: np.ndarray,
    domain: NormedSpaceSpec,
    codomain: NormedSpaceSpec,
    cand=None,
) -> np.ndarray:
    """Evaluate one perturbation term on a (n, dim) batch; (n, codim) output.

    A spec whose seed is a tuple (one per candidate) needs cand, each row's
    candidate.
    """
    n = X.shape[0]
    if spec.kind == NONE or (spec.kind in (BOUNDED, DECAY) and spec.amplitude == 0.0):
        return np.zeros((n, codomain.dim))
    if spec.kind == POWER and spec.delta == 0.0:
        return np.zeros((n, codomain.dim))

    U = _splitmix_expand(_fnv1a_rows(spec.seed, X, cand), codomain.dim)
    lens = norm_many(codomain, U)
    degenerate = lens == 0.0
    if np.any(degenerate):
        U[degenerate, 0] = 1.0
        lens[degenerate] = 1.0
    U /= lens[:, None]

    nx = norm_many(domain, X)
    if spec.kind == BOUNDED:
        scale = np.full(n, spec.amplitude)
    elif spec.kind == DECAY:
        scale = spec.amplitude / (1.0 + nx)
    else:
        scale = np.where(nx > 0.0, spec.delta * nx**spec.p, 0.0)
    out = U * scale[:, None]
    out[nx == 0.0] = 0.0
    return out


@dataclass(frozen=True, eq=False)
class RadialTable:
    """Piecewise-linear vector-valued map of u = ‖x‖², with edge-slope extrapolation."""

    knots: np.ndarray  # (K,) increasing, >= 0
    values: np.ndarray  # (K, codim)

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        if knots.ndim != 1 or knots.size < 2:
            raise ModelError("radial table needs at least two knots")
        if values.shape[0] != knots.size or values.ndim != 2:
            raise ModelError("radial table values must be (K, codim)")
        if np.any(np.diff(knots) <= 0) or knots[0] < 0.0:
            raise ModelError("radial table knots must be increasing and >= 0")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)

    def eval_many(self, u: np.ndarray) -> np.ndarray:
        idx = np.clip(np.searchsorted(self.knots, u), 1, self.knots.size - 1)
        k0 = self.knots[idx - 1]
        k1 = self.knots[idx]
        w = (u - k0) / (k1 - k0)
        return self.values[idx - 1] + w[:, None] * (self.values[idx] - self.values[idx - 1])


def _coerce_perturbations(perturbations) -> tuple:
    if perturbations is None:
        return ()
    if isinstance(perturbations, PerturbationSpec):
        return (perturbations,)
    return tuple(perturbations)


@dataclass(frozen=True, eq=False)
class FunctionModel:
    """Structured map f(x) = L·x + c·‖x‖² + Σ perturbations(x); rows at x = 0
    are set to 0, so f(0) = 0 exactly.  For K candidates (see the module
    docstring) each perturbation seed may be a tuple of K."""

    domain: NormedSpaceSpec
    codomain: NormedSpaceSpec
    linear: np.ndarray  # (codim, dim), or (K, codim, dim): one per candidate
    quadratic: np.ndarray | None = None  # (codim,) coefficient of ‖x‖²
    perturbations: tuple = ()

    def __post_init__(self):
        L = np.asarray(self.linear, dtype=np.float64)
        if L.ndim not in (2, 3) or L.shape[-2:] != (self.codomain.dim, self.domain.dim):
            raise ModelError(
                f"linear part must have shape ({self.codomain.dim}, {self.domain.dim}),"
                f" got {L.shape}"
            )
        object.__setattr__(self, "linear", L)
        if self.quadratic is not None:
            q = np.asarray(self.quadratic, dtype=np.float64)
            if q.shape != (self.codomain.dim,):
                raise ModelError(f"quadratic coefficient must have shape ({self.codomain.dim},)")
            object.__setattr__(self, "quadratic", q)
        object.__setattr__(self, "perturbations", _coerce_perturbations(self.perturbations))
        for p in self.perturbations:
            if not isinstance(p, PerturbationSpec):
                raise ModelError("perturbations must be PerturbationSpec instances")

    def eval_many(self, X, cand=None) -> np.ndarray:
        X = as_batch(X, self.domain.dim)
        Y = _linear_rows(X, self.linear, cand)
        if self.quadratic is not None:
            Y = Y + (norm_many(self.domain, X) ** 2)[:, None] * self.quadratic[None, :]
        for spec in self.perturbations:
            Y = Y + perturbation_values(spec, X, self.domain, self.codomain, cand)
        Y[~np.any(X, axis=1)] = 0.0
        return Y

    def candidate(self, i: int) -> "FunctionModel":
        """The model of candidate i alone."""
        perts = tuple(replace(p, seed=p.seed[i]) if isinstance(p.seed, tuple) else p
                      for p in self.perturbations)
        return replace(self, linear=self.linear[i] if self.linear.ndim == 3 else self.linear,
                       perturbations=perts)


class _Wrapped:
    """Base for derived maps: a base model plus its domain and codomain."""

    def __init__(self, base):
        self.base = base
        self.domain = base.domain
        self.codomain = base.codomain


def _plus_minus(X: np.ndarray, cand):
    """[X; −X] and the candidates of its rows."""
    return np.concatenate([X, -X]), None if cand is None else np.concatenate([cand, cand])


def _at_plus_minus(f: FunctionModel, X: np.ndarray, cand):
    """Each perturbation of f at X and at −X, from one evaluation on [X; −X]."""
    n = X.shape[0]
    XX, cc = _plus_minus(X, cand)
    for spec in f.perturbations:
        P = perturbation_values(spec, XX, f.domain, f.codomain, cc)
        yield P[:n], P[n:]


class OddPart(_Wrapped):
    """x ↦ (f(x) − f(−x))/2.

    For structured models the even exact term (the quadratic) is
    dropped analytically instead of being cancelled numerically; otherwise
    their roundoff, amplified by scaling iterations, would swamp deep limits.
    """

    def __init__(self, base):
        super().__init__(base)
        self._structured = isinstance(base, FunctionModel)

    def eval_many(self, X, cand=None):
        X = as_batch(X, self.domain.dim)
        if self._structured:
            Y = _linear_rows(X, self.base.linear, cand)
            for P, Q in _at_plus_minus(self.base, X, cand):
                Y = Y + 0.5 * (P - Q)
            Y[~np.any(X, axis=1)] = 0.0
            return Y
        FG = self.base.eval_many(*_plus_minus(X, cand))
        return (FG[: X.shape[0]] - FG[X.shape[0] :]) / 2.0


class EvenPart(_Wrapped):
    """x ↦ (f(x) + f(−x))/2; structured models keep their quadratic term directly."""

    def __init__(self, base):
        super().__init__(base)
        self._structured = isinstance(base, FunctionModel)

    def eval_many(self, X, cand=None):
        X = as_batch(X, self.domain.dim)
        if self._structured:
            Y = np.zeros((X.shape[0], self.codomain.dim))
            if self.base.quadratic is not None:
                Y = Y + (norm_many(self.domain, X) ** 2)[:, None] * self.base.quadratic[None, :]
            for P, Q in _at_plus_minus(self.base, X, cand):
                Y = Y + 0.5 * (P + Q)
            Y[~np.any(X, axis=1)] = 0.0
            return Y
        FG = self.base.eval_many(*_plus_minus(X, cand))
        return (FG[: X.shape[0]] + FG[X.shape[0] :]) / 2.0


class ScaledModel(_Wrapped):
    """x ↦ out_scale · base(arg_scale · x)."""

    def __init__(self, base, arg_scale: float, out_scale: float = 1.0):
        super().__init__(base)
        self.arg_scale = float(arg_scale)
        self.out_scale = float(out_scale)

    def eval_many(self, X, cand=None):
        X = as_batch(X, self.domain.dim)
        return self.out_scale * self.base.eval_many(self.arg_scale * X, cand)


def odd_even_split(f) -> tuple:
    """Split f into (odd, even) parts; f = odd + even holds exactly pointwise."""
    return OddPart(f), EvenPart(f)


def jensen_defect_many(f, g, h, params: JensenParams, X, Y, cand=None) -> np.ndarray:
    """Row-wise defect ‖r·f((s·x + t·y)/r) − s·g(x) − t·h(y)‖ for pair batches;
    cand (each pair's candidate) goes on to the models."""
    X = as_batch(X, f.domain.dim)
    Y = as_batch(Y, f.domain.dim)
    if f.codomain != g.codomain or f.codomain != h.codomain:
        raise ModelError("f, g, h must share a codomain")
    mid = (params.s * X + params.t * Y) / params.r
    vals = (
        params.r * f.eval_many(mid, cand)
        - params.s * g.eval_many(X, cand)
        - params.t * h.eval_many(Y, cand)
    )
    return norm_many(f.codomain, vals)


def derive_seed(seed: int, index: int) -> int:
    """Deterministic sub-seed stream: splitmix64 output of seed advanced index+1 times.

    Each splitmix64 step adds γ to the state, so the state after k steps is
    seed + k·γ mod 2^64 (Steele, Lea & Flood, OOPSLA 2014).
    """
    if index < 0:
        raise ValueError(f"derive_seed needs index >= 0, got {index}")
    z = (seed + (index + 1) * int(_SM_GAMMA)) & _MASK64
    z = ((z ^ (z >> 30)) * int(_SM_MIX1)) & _MASK64
    z = ((z ^ (z >> 27)) * int(_SM_MIX2)) & _MASK64
    return z ^ (z >> 31)
