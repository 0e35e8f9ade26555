"""Finite-dimensional normed spaces and orthogonality relations.

Everything downstream works over explicit coordinate spaces: a space is a
dimension plus a norm (Euclidean, sup, or p-norm), vectors are plain float64
arrays.  On top of that this module provides three orthogonality relations

  * trivial        -- x ⊥ y iff x = 0, y = 0, or {x, y} linearly independent,
  * inner_product  -- ⟨x, y⟩ = 0 (Euclidean spaces only),
  * birkhoff_james -- ‖x + λy‖ ≥ ‖x‖ for every scalar λ,

together with the checker of Rätz's axioms (O1)-(O4) (Aequationes Math. 28,
1985) used to certify that a relation behaves like an orthogonality on a
given space.

The Birkhoff-James test minimizes the convex map λ ↦ ‖x + λy‖ by
golden-section search on [−2‖x‖/‖y‖, 2‖x‖/‖y‖], an interval worked out from
the inputs that always holds the minimizer, and accepts x ⊥ y when the margin
is at least −tolerance·‖x‖.  Both the interval and the threshold scale with
x and y, so the verdict is homogeneous, as axiom (O3) requires.
orthogonal_partners builds relation-orthogonal partners for a batch of rows
and is_orthogonal_many checks them; is_orthogonal is its one-row form.

The (O4) witness comes from James's criterion (Trans. AMS 61, 1947): u ⊥_BJ v
iff the one-sided derivatives of the norm at u in direction v satisfy
ρ'₋(u; v) ≤ 0 ≤ ρ'₊(u; v).  Along y0 = t·d for a partner d of x in the
plane, ρ'₋(x + y0; λx − y0) goes from positive to negative, and bisection
finds a t where it changes sign.  The same search serves every relation: on
a Euclidean space ⊥_BJ is ⟨·,·⟩ = 0, and the trivial relation holds for any
t > 0.  Every witness starts from one primitive, the quarter turn of x in
its plane (_quarter_turns), and one batched bisection serves all trials.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

EUCLIDEAN = "euclidean"
SUP = "sup"
P_NORM = "p_norm"

TRIVIAL = "trivial"
INNER_PRODUCT = "inner_product"
BIRKHOFF_JAMES = "birkhoff_james"

# Rank test threshold for linear independence, relative to the top singular value.
INDEPENDENCE_RTOL = 1e-10
# Golden-section iterations: bracket shrinks by ~0.618 per step.
_GOLDEN_ITERS = 80
_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0
# Bisection steps of the O4 witness search: the bracket shrinks by 2^-60.
_BISECT_ITERS = 60
# Sup-norm coordinates within this relative gap of the largest count as tied
# (active) in the one-sided derivatives, so rounding cannot hide a kink.
_TIE_RTOL = 1e-12


class ConfigError(ValueError):
    """The one class of refused input, in every module; any other exception is a bug."""


def _check_floats(*factors) -> None:
    """The one size ceiling: refuse an array of more than 2**28 floats before it is built.

    factors are (name, count) pairs whose product is the array's size; each
    count must be an integer >= 1, not a bool.  The message names the largest
    factor, the first of equal ones.
    """
    for name, n in factors:
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise ConfigError(f"{name} must be an integer >= 1, got {n!r:.60}")
    if (size := math.prod(int(n) for _, n in factors)) > 2**28:
        raise ConfigError(f"{max(factors, key=lambda f: f[1])[0]} is too large: "
                          f"{' × '.join(name for name, _ in factors)} is {size} floats,"
                          " past the ceiling of 2**28")


@dataclass(frozen=True)
class NormedSpaceSpec:
    """A finite-dimensional real normed space.

    norm_kind is one of "euclidean", "sup", "p_norm"; the exponent p is only
    consulted for p_norm and must be >= 1.
    """

    dim: int
    norm_kind: str = EUCLIDEAN
    p: float | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigError(f"dim must be >= 1, got {self.dim}")
        if self.norm_kind not in (EUCLIDEAN, SUP, P_NORM):
            raise ConfigError(f"unknown norm_kind {self.norm_kind!r}")
        if self.norm_kind == P_NORM:
            if self.p is None or not (1.0 <= self.p < np.inf):
                raise ConfigError(f"p must be finite and >= 1 for p_norm, got {self.p}")
        elif self.p is not None:
            raise ConfigError(f"p only applies to p_norm, got p={self.p} for {self.norm_kind}")

    @property
    def has_inner_product(self) -> bool:
        """The Euclidean norm is the only one that comes from an inner product ⟨·,·⟩."""
        return self.norm_kind == EUCLIDEAN

    def to_dict(self) -> dict:
        out = {"dim": self.dim, "norm_kind": self.norm_kind}
        if self.norm_kind == P_NORM:
            out["p"] = self.p
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "NormedSpaceSpec":
        return cls(dim=d["dim"], norm_kind=d.get("norm_kind", EUCLIDEAN), p=d.get("p"))


def euclidean_space(dim: int) -> NormedSpaceSpec:
    return NormedSpaceSpec(dim=dim, norm_kind=EUCLIDEAN)


def as_point(x, dim: int) -> np.ndarray:
    """Validate and convert a vector to a float64 array of the given dimension."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.shape != (dim,):
        raise ValueError(f"expected a vector of dimension {dim}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError("vector has non-finite coordinates")
    return arr


def as_batch(X, dim: int) -> np.ndarray:
    arr = np.ascontiguousarray(X, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ValueError(f"expected shape (n, {dim}), got {arr.shape}")
    return arr


def norm_many(space: NormedSpaceSpec, X: np.ndarray) -> np.ndarray:
    """Row-wise norms of a (n, dim) batch, taken on its C-ordered float64 copy:
    Euclidean rows of dim ≥ 3 keep einsum, whose summation order moves with the layout."""
    return _column_norms(space, np.ascontiguousarray(X, dtype=np.float64).T)


def _column_norms(space: NormedSpaceSpec, C: np.ndarray) -> np.ndarray:
    """Norms of the columns of a (dim, n) array, bit for bit norm_many of C.T:
    Euclidean norms of dim ≤ 2 and p-norms of dim < 8 add one coordinate at a
    time in loops of n, as numpy's row reductions do, and sup norms (exact in any
    order) take the largest.  Wider rows keep numpy's order (einsum:
    (x₀² + x₂²) + x₁² at dim 3 on SIMD builds; np.sum: pairwise)."""
    if space.norm_kind == SUP:
        return _max_abs(C)
    if space.norm_kind == EUCLIDEAN and C.shape[0] <= 2:
        with np.errstate(over="ignore"):  # as quiet as einsum
            out = C[0] * C[0]
            for c in C[1:]:
                out += c * c
        return np.sqrt(out, out=out)
    if space.norm_kind == P_NORM and C.shape[0] < 8:
        with np.errstate(over="ignore"):  # |c|^p overflows to inf, as above
            A = np.abs(C)
            A **= space.p
            out = A[0]
            for a in A[1:]:
                out += a
            return out ** (1.0 / space.p)
    X = C.T if C.T.flags.c_contiguous else _rows(C)
    if space.norm_kind == EUCLIDEAN:
        return np.sqrt(np.einsum("ij,ij->i", X, X))
    with np.errstate(over="ignore"):
        return np.sum(np.abs(X) ** space.p, axis=-1) ** (1.0 / space.p)


def _max_abs(C: np.ndarray) -> np.ndarray:
    if C.flags.c_contiguous:  # contiguous rows: one reduction down the columns
        return np.maximum.reduce(np.abs(C), axis=0)
    out = np.abs(C[0])
    for c in C[1:]:
        np.maximum(out, np.abs(c), out=out)
    return out


def _rows(C: np.ndarray) -> np.ndarray:
    """C.T as a C-ordered copy, written column by column (numpy copies in loops of k)."""
    out = np.empty(C.shape[::-1])
    for j, c in enumerate(C):
        out[:, j] = c
    return out


def _rowdot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    # Row-wise dot products through matmul, which rounds like np.dot on each
    # row pair (einsum and sum(A * B) may differ in the last bit).
    return (A[:, None, :] @ B[:, :, None])[:, 0, 0]


def bj_margin_many(space: NormedSpaceSpec, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """min over λ of ‖x + λy‖ − ‖x‖ for each row pair, by golden-section search.

    λ ↦ ‖x + λy‖ is convex, and ‖x + λy‖ ≥ |λ|‖y‖ − ‖x‖ > ‖x‖ once
    |λ| > 2‖x‖/‖y‖, so the minimizer lies in [−2‖x‖/‖y‖, 2‖x‖/‖y‖] and the
    search runs on that bracket.  The bracket scales with the inputs: the
    margin of (αx, βy) is |α| times that of (x, y).  Nonpositive, since the
    search starts from λ = 0; rows with y = 0 have margin 0.
    """
    X = as_batch(X, space.dim)
    Y = as_batch(Y, space.dim)
    if X.shape != Y.shape:
        raise ValueError("batch shapes differ")
    nx = norm_many(space, X)
    ny = norm_many(space, Y)
    b = 2.0 * nx / np.where(ny > 0.0, ny, np.inf)
    a = -b

    # Both probes of a step go through one norm call: the rows twice over as
    # (dim, 2n) columns, λ = (c, d) in one vector, x + λy built in place.
    n = X.shape[0]
    XX, YY = np.tile(X.T, 2), np.tile(Y.T, 2)
    lam = np.empty(2 * n)
    c, d = lam[:n], lam[n:]
    probe = np.empty_like(XX)
    low = np.tile(nx, 2)  # least ‖x + λy‖ so far, from λ = 0 on, at c and at d
    for _ in range(_GOLDEN_ITERS):
        w = _INVPHI * (b - a)
        np.subtract(b, w, out=c)
        np.add(a, w, out=d)
        np.multiply(YY, lam, out=probe)
        probe += XX
        fcd = _column_norms(space, probe)
        np.minimum(low, fcd, out=low)
        left = fcd[:n] < fcd[n:]
        a = np.where(left, a, c)
        b = np.where(left, d, b)
    mid = np.multiply(YY[:, :n], (a + b) / 2.0, out=probe[:, :n])
    mid += XX[:, :n]
    return np.minimum(np.minimum(low[:n], low[n:]), _column_norms(space, mid)) - nx


@dataclass(frozen=True)
class OrthogonalityRelation:
    """One of the three supported orthogonality relations plus its tolerance.

    tolerance is relative: inner_product accepts |⟨x, y⟩| ≤ tolerance·‖x‖‖y‖,
    birkhoff_james accepts a margin ≥ −tolerance·‖x‖.  Both tests are
    therefore unchanged when x and y are scaled.  The Birkhoff-James search
    interval is worked out from ‖x‖/‖y‖ (see bj_margin_many).
    """

    kind: str
    tolerance: float = 1e-9

    def __post_init__(self):
        if self.kind not in (TRIVIAL, INNER_PRODUCT, BIRKHOFF_JAMES):
            raise ConfigError(f"unknown orthogonality kind {self.kind!r}")
        if not (0.0 < self.tolerance < 1.0):  # from 1 on, every pair passes both tests
            raise ConfigError(f"tolerance must lie in (0, 1), got {self.tolerance}")


def _independent_many(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Rows where {x, y} is linearly independent, judged on x/‖x‖ and y/‖y‖
    so that scaling either vector does not change the verdict.  No pair is
    independent below dimension 2."""
    if X.shape[1] < 2:
        return np.zeros(X.shape[0], dtype=bool)
    U = np.stack([X, Y], axis=1)
    lens = np.linalg.norm(U, axis=2, keepdims=True)
    s = np.linalg.svd(U / np.where(lens > 0.0, lens, 1.0), compute_uv=False)
    return s[:, -1] > INDEPENDENCE_RTOL * s[:, 0]


def is_orthogonal_many(rel: OrthogonalityRelation, space: NormedSpaceSpec, X, Y) -> np.ndarray:
    """x ⊥ y under rel for each row pair of the (n, dim) batches X and Y."""
    X = as_batch(X, space.dim)
    Y = as_batch(Y, space.dim)
    if X.shape != Y.shape:
        raise ValueError("batch shapes differ")
    if rel.kind == TRIVIAL:
        axis = ~np.any(X, axis=1) | ~np.any(Y, axis=1)
        return axis | _independent_many(X, Y)
    if rel.kind == INNER_PRODUCT:
        if not space.has_inner_product:
            raise ConfigError("inner_product orthogonality needs an inner-product space")
        limit = rel.tolerance * norm_many(space, X) * norm_many(space, Y)
        return np.abs(np.einsum("ij,ij->i", X, Y)) <= limit
    return bj_margin_many(space, X, Y) >= -rel.tolerance * norm_many(space, X)


def is_orthogonal(rel: OrthogonalityRelation, space: NormedSpaceSpec, x, y) -> bool:
    """Scalar form of is_orthogonal_many."""
    x = as_point(x, space.dim)
    y = as_point(y, space.dim)
    return bool(is_orthogonal_many(rel, space, x[None, :], y[None, :])[0])


def _norming_functionals(space: NormedSpaceSpec, X: np.ndarray) -> np.ndarray:
    """Rows g with g(x) = ‖x‖ and dual norm 1 (zero for x = 0)."""
    if space.norm_kind == EUCLIDEAN:
        n = np.sqrt(_rowdot(X, X))
        return X / np.where(n > 0.0, n, 1.0)[:, None]
    A = np.abs(X)
    if space.norm_kind == SUP:
        top = A >= (1.0 - 1e-9) * np.max(A, axis=1, keepdims=True)
        # Ties split evenly; any convex combination of the tied functionals supports.
        return np.where(top, np.sign(X), 0.0) / np.count_nonzero(top, axis=1)[:, None]
    # ‖x‖^(p-1) with the scalar pow: numpy's vectorized pow rounds differently
    # in a few percent of cases, and sampled pairs must replay bit for bit.
    e = (space.p - 1.0) / space.p
    s = np.array([v**e if v > 0.0 else 1.0 for v in np.sum(A**space.p, axis=1).tolist()])
    return np.sign(X) * A ** (space.p - 1.0) / s[:, None]


def _lower_derivative(space: NormedSpaceSpec, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """ρ'₋(u; v), the left derivative of s ↦ ‖u + s·v‖ at 0, for each row pair.

    For the sup norm it is the min of sign(u_k)·v_k over the coordinates
    where |u_k| attains ‖u‖.  The p (p > 1) and Euclidean norms are
    differentiable away from 0, and it is g(v) for the norming functional g
    of u (for p = 1, g is one subgradient and g(v) lies between ρ'₋ and ρ'₊).
    """
    if space.norm_kind == SUP:
        A = np.abs(U)
        active = A >= (1.0 - _TIE_RTOL) * np.maximum.reduce(A, axis=1, keepdims=True)
        S = np.sign(U) * V
        return np.minimum.reduce(np.where(active, S, np.inf), axis=1)
    return _rowdot(_norming_functionals(space, U), V)


def orthogonal_partners(rel: OrthogonalityRelation, space: NormedSpaceSpec, X, V) -> np.ndarray:
    """Rows y with x ⊥ y under rel, one built from each draw v (rows of V).

    trivial keeps v; inner_product projects v onto the complement of x;
    birkhoff_james takes y = v − (g(v)/g(x))·x for the norming functional g
    of x, so g(y) = 0 and ‖x + λy‖ ≥ g(x + λy) = ‖x‖ (James, Trans. AMS
    1947).  Rows with x = 0 keep v.  A y that comes out (numerically) zero
    or fails is_orthogonal_many is left for the caller to redraw.
    """
    X = as_batch(X, space.dim)
    V = as_batch(V, space.dim)
    if rel.kind == TRIVIAL:
        return V.copy()
    if rel.kind == INNER_PRODUCT:
        lens = np.linalg.norm(X, axis=1)
        Xhat = X / np.where(lens > 0.0, lens, 1.0)[:, None]
        return V - np.einsum("ij,ij->i", V, Xhat)[:, None] * Xhat
    G = _norming_functionals(space, X)
    gx = _rowdot(G, X)
    ratio = np.divide(_rowdot(G, V), gx, out=np.zeros_like(gx), where=gx != 0.0)
    return V - ratio[:, None] * X


def _quarter_turns(P1: np.ndarray, P2: np.ndarray, X: np.ndarray):
    """Each x of span(p1, p2) turned by +90° in the oriented orthonormal frame
    of that plane.  The turn has the Euclidean length of x, is
    Euclidean-orthogonal to it and lies in the plane, whatever the norm."""
    if not np.all(np.any(P1, axis=1)):
        raise ValueError("plane vectors must be nonzero")
    n1 = np.sqrt(_rowdot(P1, P1))
    E1 = P1 / n1[:, None]
    R2 = P2 - _rowdot(P2, E1)[:, None] * E1
    n2 = np.sqrt(_rowdot(R2, R2))
    if np.any(n2 <= INDEPENDENCE_RTOL * np.sqrt(_rowdot(P2, P2))):
        raise ValueError("plane vectors are (numerically) dependent")
    E2 = R2 / n2[:, None]
    a = _rowdot(X, E1)[:, None]
    b = _rowdot(X, E2)[:, None]
    return -b * E1 + a * E2


@dataclass
class AxiomResult:
    passed: bool
    trials: int
    failures: int
    counterexample: dict | None = None


@dataclass
class AxiomReport:
    relation: str
    space: NormedSpaceSpec
    results: dict  # axiom name -> AxiomResult

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results.values())

    def to_dict(self) -> dict:
        return {"relation": self.relation, "space": self.space.to_dict(),
                "results": {name: asdict(r) for name, r in sorted(self.results.items())},
                "all_passed": self.all_passed}


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=[seed & (2**64 - 1), salt]))


def _random_points(space, rng, n, lo=0.1, hi=3.0):
    """n points with Gaussian directions and norms uniform in [lo, hi)."""
    V = rng.standard_normal((n, space.dim))
    V[~np.any(V, axis=1), 0] = 1.0
    lens = norm_many(space, V)  # |v|^p leaves the float range for a huge p
    if not np.all((lens > 0.0) & (lens < np.inf)):
        raise ConfigError(f"p is too large: a sampled point's p-norm is 0 or inf, p={space.p}")
    return V / lens[:, None] * rng.uniform(lo, hi, size=n)[:, None]


def _partnered_points(rel, space, rng, n):
    """Points x and partners y from orthogonal_partners, unchecked: the caller
    tests x ⊥ y in its one batched search and keeps the pairs that pass."""
    X = _random_points(space, rng, n)
    return X, orthogonal_partners(rel, space, X, _random_points(space, rng, n))


def _axiom_result(ok: np.ndarray, counterexample) -> AxiomResult:
    """Result over the trials in ok; counterexample(i) describes failed trial i."""
    bad = np.flatnonzero(~ok)
    ce = counterexample(int(bad[0])) if bad.size else None
    return AxiomResult(bad.size == 0 and ok.size > 0, int(ok.size), int(bad.size), ce)


def check_ratz_axioms(
    rel: OrthogonalityRelation,
    space: NormedSpaceSpec,
    trials: int = 1000,
    seed: int = 0,
) -> AxiomReport:
    """Empirically test the orthogonality axioms (O1)-(O4) on sampled data.

    O1: x ⊥ 0 and 0 ⊥ x for every x.
    O2: orthogonal nonzero pairs are linearly independent.
    O3: orthogonality is preserved under scalar scaling of either argument.
    O4: for every plane P, x in P, and lam > 0 there is y0 in P with
        x ⊥ y0 and (x + y0) ⊥ (lam·x − y0).

    O1-O3 share one is_orthogonal_many call, hence one margin search, over
    (x, 0), (0, x), the O2 and O3 partner pairs of orthogonal_partners and
    the O3 pairs scaled by (α, β).  O2 and O3 keep the trials whose partner
    is nonzero and passes; the scaled verdict is read on those alone.  O4
    drops trials with a dependent plane or x = 0; one batched search finds the
    sign changes of ρ'₋(x + t·d; λx − t·d) along partners d of x in the plane
    (James, Trans. AMS 1947), and the scalar is_orthogonal checks each
    witness.
    Deterministic given the seed.  O2-O4 are vacuous on a line, so the space
    needs dimension at least 2; dim × trials is held to the one ceiling of
    2**28 floats (_check_floats), before any array is built.
    """
    if space.dim < 2:
        raise ConfigError(f"dim must be >= 2 (O2-O4 are vacuous on a line), got {space.dim}")
    _check_floats(("dim", space.dim), ("trials", trials))
    results = {}

    X1 = _random_points(space, _rng(seed, 101), trials)
    X2, Y2 = _partnered_points(rel, space, _rng(seed, 102), trials)
    rng = _rng(seed, 103)
    X3, Y3 = _partnered_points(rel, space, rng, trials)
    AB = rng.uniform(-3.0, 3.0, size=(trials, 2))
    # Every row of the search is independent of the others, so one call over
    # all O1-O3 pairs gives each pair the verdict it would get on its own.
    Z = np.zeros_like(X1)
    ok = is_orthogonal_many(
        rel, space,
        np.concatenate([X1, Z, X2, X3, AB[:, :1] * X3]),
        np.concatenate([Z, X1, Y2, Y3, AB[:, 1:] * Y3]),
    ).reshape(5, trials)

    results["O1"] = _axiom_result(ok[0] & ok[1], lambda i: {"x": X1[i].tolist()})

    keep = (norm_many(space, Y2) >= 1e-9) & ok[2]
    X2, Y2 = X2[keep], Y2[keep]
    results["O2"] = _axiom_result(
        _independent_many(X2, Y2), lambda i: {"x": X2[i].tolist(), "y": Y2[i].tolist()}
    )

    keep = (norm_many(space, Y3) >= 1e-9) & ok[3]
    X3, Y3, AB = X3[keep], Y3[keep], AB[keep]
    results["O3"] = _axiom_result(
        ok[4][keep],
        lambda i: {"x": X3[i].tolist(), "y": Y3[i].tolist(),
                   "alpha": float(AB[i, 0]), "beta": float(AB[i, 1])},
    )

    rng = _rng(seed, 104)
    o4_trials = max(1, trials // 4)  # witnesses are costlier to verify
    draws = [
        (_random_points(space, rng, 1)[0], _random_points(space, rng, 1)[0],
         rng.uniform(-2.0, 2.0, size=2), rng.uniform(0.1, 4.0))
        for _ in range(o4_trials)
    ]
    P1, P2, C, lam = (np.array(column) for column in zip(*draws))
    X = C[:, :1] * P1 + C[:, 1:] * P2
    keep = _independent_many(P1, P2) & (norm_many(space, X) >= 1e-6)
    P1, P2, X, lam = P1[keep], P2[keep], X[keep], lam[keep]
    Y0 = _o4_witnesses(rel, space, P1, P2, X, lam)
    found = [
        is_orthogonal(rel, space, x, y0) and is_orthogonal(rel, space, x + y0, lam_i * x - y0)
        for x, y0, lam_i in zip(X, Y0, lam)
    ]
    results["O4"] = _axiom_result(
        np.array(found, dtype=bool),
        lambda i: {"plane": [P1[i].tolist(), P2[i].tolist()], "x": X[i].tolist(),
                   "lam": float(lam[i])},
    )

    return AxiomReport(relation=rel.kind, space=space, results=results)


def _o4_witnesses(rel, space, P1, P2, X, lam):
    """Rows y0 in span(p1, p2) with x ⊥ y0 and (x + y0) ⊥ (lam·x − y0) under rel.

    The partner d of x under rel is built from the quarter turn of x in the
    plane, so d lies in the plane, is never parallel to x, and x ⊥ t·d for
    every t > 0.  Along u = x + t·d, v = λx − t·d = (1 + λ)x − u, the lower
    one-sided derivative ρ'₋(u; v) = (1 + λ)ρ'₋(u; x) − ‖u‖ is λ‖x‖ > 0 at
    t = 0 and at most (2 + λ)‖x‖ − t‖d‖, so it is negative at
    t = (3 + λ)‖x‖/‖d‖.  Bisection keeps ρ'₋ > 0 at its left end and ≤ 0 at
    its right end; as ρ'₋ is lower and ρ'₊ upper semicontinuous in t, the
    ends close on a t with ρ'₋ ≤ 0 ≤ ρ'₊, James's criterion for u ⊥_BJ v.
    That is ⟨u, v⟩ = 0 on a Euclidean space, and u, v are independent for
    every t > 0, which is all the trivial relation asks.  Each row has its own
    lam and bracket; rows need x ≠ 0 and an independent plane.
    """
    D = orthogonal_partners(rel, space, X, _quarter_turns(P1, P2, X))
    a = np.zeros(X.shape[0])
    b = (3.0 + lam) * norm_many(space, X) / norm_many(space, D)
    LX = lam[:, None] * X
    for _ in range(_BISECT_ITERS):
        t = (a + b) / 2.0
        TD = t[:, None] * D
        neg = _lower_derivative(space, X + TD, LX - TD) <= 0.0
        a, b = np.where(neg, a, t), np.where(neg, t, b)
    return b[:, None] * D
