"""Function models: structured maps f : X → Y plus deterministic perturbations.

A FunctionModel is a sum of an exact part (linear map plus radial quadratic
c·‖x‖²) and pseudo-random perturbation terms; it maps 0 to 0 exactly.
Perturbations are pure functions of (seed, bits of x).  The row hash of x in
R^d folds the d IEEE-754 float64 bit patterns of x, as little-endian uint64
words in coordinate order (so −0.0 and 0.0 hash apart), in as h ← m(h ^ w)
from h = 0; m multiplies by _SM_MIX1 and xors in h >> 29 (mod 2^64).  A term
xors its seed mod 2^64 (a model of several candidates: the row's candidate's
seed) into the hash; one splitmix64 step (Steele, Lea & Flood, OOPSLA 2014)
of that seeds a stream of codomain coordinates in [-1, 1), normalized in the
*codomain norm* so the declared bound (amplitude, δ‖x‖^p, or
amplitude/(1+‖x‖)) is exact in the working norm.  An evaluation hashes its
points and computes ‖x‖ once, whatever the number of terms.

A model may hold K candidates that share everything but the linear part
(one (codim, dim) matrix each) and the perturbation seeds (one per
candidate).  eval_many then takes cand, the candidate of each row, and a
row's value is that of its candidate's model alone (``candidate(i)``).

Evaluation is bit-identical on one numpy build for any batch shape and layout:
a row's value depends on that row alone (a one-row linear part is padded to the
matrix-product path), so a one-row batch is the value at one point, which the
limits in ``series`` and the [X; −X] of OddPart/EvenPart need.  Batches are
taken C-ordered: einsum, kept for Euclidean norms of dim ≥ 3, sums in a
layout-dependent order ((x₀² + x₂²) + x₁² at dim 3 on x86-64 SIMD builds).
Other per-row work runs in loops of n on (codim, n) buffers.

The generalized Jensen defect measured throughout the lab is

    ‖r·f((s·x + t·y)/r) − s·g(x) − t·h(y)‖   (codomain norm).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .spaces import NormedSpaceSpec, _column_norms, _max_abs, _rows, as_batch, norm_many

NONE = "none"
BOUNDED = "bounded"
POWER = "power"
DECAY = "decay"

_U64 = np.uint64
_SM_GAMMA = _U64(0x9E3779B97F4A7C15)
_SM_MIX1 = _U64(0xBF58476D1CE4E5B9)
_SM_MIX2 = _U64(0x94D049BB133111EB)
_MASK64 = 0xFFFFFFFFFFFFFFFF


class ModelError(ValueError):
    """Raised for malformed model specs."""


def _in_64_bits(*values) -> bool:
    """Every integer lies in [−2⁶³, 2⁶⁴), the range orjson writes into a report."""
    return all(-(2**63) <= v < 2**64 for v in values)


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
        for key in ("amplitude", "delta"):
            if not (0.0 <= getattr(self, key) < np.inf):
                raise ModelError(f"{key} must be finite and >= 0, got {getattr(self, key)}")
        if not _in_64_bits(*(self.seed if isinstance(self.seed, tuple) else (self.seed,))):
            raise ModelError(f"seed must fit in 64 bits, got {self.seed!r:.60}")
        if self.kind == POWER and not (0.0 <= self.p < 1.0):
            raise ModelError(f"p must lie in [0, 1) for a power perturbation, got {self.p}")
        # a key the kind never reads is refused, as control and domain keys are
        unread = {POWER: ("amplitude",), BOUNDED: ("delta", "p"), DECAY: ("delta", "p")}
        for key in unread.get(self.kind, ()):
            if getattr(self, key) != 0.0:
                readers = "bounded and decay" if key == "amplitude" else "power"
                raise ModelError(f"{key} is read by {readers} terms only, not by {self.kind}")

    def norm_at(self, nx):
        """‖pert(x)‖ at ‖x‖ = nx > 0: the bound of the table above, attained."""
        if self.kind == POWER:
            return self.delta * nx**self.p
        if self.kind == DECAY:
            return self.amplitude / (1.0 + nx)
        return self.amplitude if self.kind == BOUNDED else 0.0


def _row_candidates(cand) -> np.ndarray:
    """cand, which a model of several candidates cannot do without."""
    if cand is None:
        raise ModelError("a model of several candidates needs the candidate of each row")
    return cand


def _row_hash(X: np.ndarray) -> np.ndarray:
    """The seedless row hash of the module docstring, one uint64 per row of X."""
    words = np.ascontiguousarray(X, dtype="<f8").view("<u8")
    h, t = np.zeros(words.shape[0], dtype=_U64), np.empty(words.shape[0], dtype=_U64)
    for w in words.T:
        h ^= w
        h *= _SM_MIX1
        h ^= np.right_shift(h, _U64(29), out=t)
    return h


def _mix(z: np.ndarray, t: np.ndarray) -> None:
    """The splitmix64 output function, in place on z; t is scratch of z's shape."""
    z ^= np.right_shift(z, _U64(30), out=t)
    z *= _SM_MIX1
    z ^= np.right_shift(z, _U64(27), out=t)
    z *= _SM_MIX2
    z ^= np.right_shift(z, _U64(31), out=t)


def _term_stream(h: np.ndarray, seed, k: int, cand=None) -> np.ndarray:
    """A term's (k, n) values in [-1, 1): [j, i] is the splitmix64 output of row
    i's state (one splitmix64 step from h ^ seed) advanced j + 1 times.  seed is
    one int, or a tuple of one per candidate, row i taking seed[cand[i]]."""
    if isinstance(seed, tuple):
        z = h ^ np.array([s & _MASK64 for s in seed], dtype=_U64)[_row_candidates(cand)]
    else:
        z = h ^ _U64(seed & _MASK64)
    z += _SM_GAMMA
    _mix(z, np.empty_like(z))  # the state
    z = np.add(z, _SM_GAMMA * np.arange(1, k + 1, dtype=_U64)[:, None])
    U = np.empty((k, h.shape[0]))
    _mix(z, U.view(_U64))
    z >>= _U64(11)
    np.multiply(z, 2.0**-52, out=U)
    U -= 1.0
    return U


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


def _term_values(spec: PerturbationSpec, h, nx, codomain: NormedSpaceSpec, cand) -> np.ndarray:
    """One active term at rows with hashes h and norms nx, (codim, n); 0 where nx is 0."""
    U = _term_stream(h, spec.seed, codomain.dim, cand)
    lens = _column_norms(codomain, U)
    if not np.all(lens):  # every value drawn 0: take the first axis
        U[0, lens == 0.0] = 1.0
        lens[lens == 0.0] = 1.0
    factor = np.divide(spec.norm_at(nx), lens, out=lens)
    factor[nx == 0.0] = 0.0
    U *= factor
    return U


def perturbation_values(specs, X: np.ndarray, domain: NormedSpaceSpec, codomain: NormedSpaceSpec,
                        cand=None, nx=None) -> np.ndarray:
    """The sum of perturbation terms on a (n, dim) batch; C-ordered (n, codim) output.

    specs is one PerturbationSpec or a sequence of them.  X is hashed once for
    all of them; nx, if given, is norm_many(domain, X).  A spec whose seed is
    a tuple (one per candidate) needs cand, each row's candidate.
    """
    active = [s for s in _coerce_perturbations(specs) if s.norm_at(1.0) != 0.0]
    if not active:
        return np.zeros((X.shape[0], codomain.dim))
    h = _row_hash(X)
    nx = norm_many(domain, X) if nx is None else nx
    acc = _term_values(active[0], h, nx, codomain, cand)
    for spec in active[1:]:
        acc += _term_values(spec, h, nx, codomain, cand)
    return _rows(acc)


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
        if self.quadratic is not None or self.perturbations:
            nx = norm_many(self.domain, X)
        if self.quadratic is not None:
            for j, c in enumerate(self.quadratic):  # one codomain column at a time
                Y[:, j] += nx**2 * c
        if self.perturbations:
            Y += perturbation_values(self.perturbations, X, self.domain, self.codomain, cand, nx)
        Y[_max_abs(X.T) == 0.0] = 0.0
        return Y

    def candidate(self, i: int) -> "FunctionModel":
        """The model of candidate i alone."""
        perts = tuple(replace(p, seed=p.seed[i]) if isinstance(p.seed, tuple) else p
                      for p in self.perturbations)
        return replace(self, linear=self.linear[i] if self.linear.ndim == 3 else self.linear,
                       perturbations=perts)


def _eval_stacked(f, sets, cand=None) -> np.ndarray:
    """(len(sets), n, codim): f at each of the n-row point batches in sets, from
    one eval_many call on their stack; cand, the candidate of each row of one
    batch, is repeated for each.  Each value equals that of f at its batch alone."""
    cc = None if cand is None else np.concatenate([cand] * len(sets))
    F = f.eval_many(np.concatenate(sets), cc)
    return F.reshape(len(sets), len(sets[0]), F.shape[1])


class _Parity:
    """x ↦ (f(x) + sign·f(−x))/2 of a FunctionModel f: odd part (sign −1), even part (+1).

    The exact term of the other parity (the quadratic for the odd part, the
    linear for the even part) is dropped analytically instead of being
    cancelled numerically; otherwise its roundoff, amplified by scaling
    iterations, would swamp deep limits.
    """

    sign: float

    def __init__(self, base: FunctionModel):
        if not isinstance(base, FunctionModel):
            raise ModelError(f"parity parts need a FunctionModel, not {type(base).__name__}")
        self.base, self.domain, self.codomain = base, base.domain, base.codomain

    @cached_property
    def plain(self) -> FunctionModel:
        """g, f less the other parity's exact term: the part is ½(g(x) + sign·g(−x))."""
        if self.sign < 0.0:
            return replace(self.base, quadratic=None)
        return replace(self.base, linear=np.zeros_like(self.base.linear))

    def eval_many(self, X, cand=None):
        X = as_batch(X, self.domain.dim)
        f = self.base
        nx = norm_many(self.domain, X)
        if self.sign < 0.0:
            Y = _linear_rows(X, f.linear, cand)
        else:
            Y = np.zeros((X.shape[0], self.codomain.dim))
            if f.quadratic is not None:
                for j, c in enumerate(f.quadratic):
                    Y[:, j] += nx**2 * c
        if f.perturbations:  # one evaluation on [X; −X]; ‖−x‖ = ‖x‖ bit for bit
            n, cc = X.shape[0], None if cand is None else np.concatenate([cand, cand])
            P = perturbation_values(f.perturbations, np.concatenate([X, -X]), f.domain,
                                    f.codomain, cc, np.concatenate([nx, nx]))
            Y += 0.5 * (P[:n] + self.sign * P[n:])
        Y[_max_abs(X.T) == 0.0] = 0.0
        return Y


class OddPart(_Parity):
    """x ↦ (f(x) − f(−x))/2."""

    sign = -1.0


class EvenPart(_Parity):
    """x ↦ (f(x) + f(−x))/2."""

    sign = 1.0


class ScaledModel:
    """x ↦ out_scale · base(arg_scale · x)."""

    def __init__(self, base, arg_scale: float, out_scale: float = 1.0):
        self.base, self.domain, self.codomain = base, base.domain, base.codomain
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
    cand (each pair's candidate) goes on to the models.  When g and h are f,
    f is evaluated once, on the stack of midpoints, X and Y."""
    X = as_batch(X, f.domain.dim)
    Y = as_batch(Y, f.domain.dim)
    if f.codomain != g.codomain or f.codomain != h.codomain:
        raise ModelError("f, g, h must share a codomain")
    mid = (params.s * X + params.t * Y) / params.r
    if g is f and h is f:
        fw, gx, hy = _eval_stacked(f, [mid, X, Y], cand)
    else:
        fw, gx, hy = f.eval_many(mid, cand), g.eval_many(X, cand), h.eval_many(Y, cand)
    return norm_many(f.codomain, params.r * fw - params.s * gx - params.t * hy)


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
