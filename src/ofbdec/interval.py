"""Closed intervals, boxes, and the LP-dual certificates that bound a
box hull.

The decoder needs three guarantees from this module: interval evaluation
of affine maps never under-covers the true range, the certificate hull
of a polytope never excludes a feasible point, and infeasibility (an
EMPTY result, Box.empty) is an explicit value rather than an
inverted-endpoint convention.

Endpoints are ordinary floats with round-to-nearest arithmetic.  We do
not chase directed rounding at the ulp level; emptiness decisions inside
the certificate hull carry a small scale-relative margin instead, so a
claim of EMPTY is always backed by a clearly positive gap.
"""

import math

import numpy as np

__all__ = [
    "Interval",
    "Box",
    "matvec_box",
    "box_hull_lp",
]

# Margin factor for emptiness proofs inside the certificate hull; see
# module docstring.
_GAP_RTOL = 1e-12
# smallest singular value, relative to the largest, of a basis that
# HullCertificates accepts
_BASIS_RCOND = 1e-10


class Interval:
    """A closed interval [lo, hi] with lo <= hi."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo = float(lo)
        hi = float(hi)
        if not (lo <= hi):
            raise ValueError(f"invalid interval endpoints [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    @property
    def width(self):
        return self.hi - self.lo

    @property
    def center(self):
        return 0.5 * (self.lo + self.hi)

    def contains(self, x, tol=0.0):
        return self.lo - tol <= x <= self.hi + tol

    def __eq__(self, other):
        if not isinstance(other, Interval):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self):
        return f"Interval({self.lo!r}, {self.hi!r})"


class Box:
    """An axis-aligned box: a vector of closed intervals, or the empty
    box (Box.empty), which is empty as a whole.

    Endpoint vectors are numpy arrays of equal length.
    """

    __slots__ = ("lo", "hi", "dim", "_empty")

    def __init__(self, lo, hi):
        lo = np.asarray(lo, dtype=float).copy()
        hi = np.asarray(hi, dtype=float).copy()
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ValueError("box endpoints must be 1-d arrays of equal length")
        if not np.all(lo <= hi):
            raise ValueError("box needs lo <= hi; use Box.empty() for the empty box")
        self.lo = lo
        self.hi = hi
        self.dim = lo.shape[0]
        self._empty = False

    @classmethod
    def empty(cls, dim):
        box = cls.__new__(cls)
        box.lo = np.full(dim, np.nan)
        box.hi = np.full(dim, np.nan)
        box.dim = int(dim)
        box._empty = True
        return box

    @classmethod
    def point(cls, x):
        x = np.asarray(x, dtype=float)
        return cls(x, x)

    @classmethod
    def uniform(cls, lo, hi, dim):
        """The cube [lo, hi]^dim."""
        return cls(np.full(dim, float(lo)), np.full(dim, float(hi)))

    @property
    def is_empty(self):
        return self._empty

    @property
    def center(self):
        if self._empty:
            raise ValueError("center of the empty box is undefined")
        return 0.5 * (self.lo + self.hi)

    @property
    def width(self):
        if self._empty:
            raise ValueError("width of the empty box is undefined")
        return self.hi - self.lo

    @property
    def radius(self):
        if self._empty:
            raise ValueError("radius of the empty box is undefined")
        return 0.5 * (self.hi - self.lo)

    def contains(self, x, tol=0.0):
        if self._empty:
            return False
        x = np.asarray(x, dtype=float)
        return bool(np.all(self.lo - tol <= x) and np.all(x <= self.hi + tol))

    def __eq__(self, other):
        if not isinstance(other, Box):
            return NotImplemented
        if self.dim != other.dim:
            return False
        if self._empty or other._empty:
            return self._empty and other._empty
        return bool(np.all(self.lo == other.lo) and np.all(self.hi == other.hi))

    def __repr__(self):
        if self._empty:
            return f"Box.empty({self.dim})"
        return f"Box({self.lo!r}, {self.hi!r})"


def matvec_box(A, box):
    """Interval image of a box under the linear map A.

    Componentwise this is the exact interval matrix-vector product: each
    output component is [A @ c - |A| @ r, A @ c + |A| @ r] with c, r the
    center and radius of the input box.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[1] != box.dim:
        raise ValueError("shape mismatch between matrix and box")
    if box.is_empty:
        return Box.empty(A.shape[0])
    c = A @ box.center
    r = np.abs(A) @ box.radius
    return Box(c - r, c + r)


def _gap_eps(scale):
    return _GAP_RTOL * (1.0 + scale)


class HullCertificates:
    """LP-dual data that bound the box hull of
    P = {x : l <= A x <= u} for any offsets l <= u, computed once per A
    (a (rows, n) matrix) from a family of its n-row subsets.

    With c, r the centre and radius of [l, u]:

    * every certificate z of coordinate k (A^T z = e_k) bounds x_k over
      P by weak duality: c.z - r.|z| <= x_k <= c.z + r.|z|;
    * every circuit y (the null vector of A^T supported on a minimal
      dependent row set) proves P empty when c.y + r.|y| < 0 or
      c.y - r.|y| > 0 (Farkas).

    Each nonsingular subset S of the (s, n) array `subsets` (distinct
    row sets) is a basis: it gives the certificates z_S = A_S^{-T} e_k
    and the fundamental circuits of the rows outside it.  When the
    family is every n-row subset the set is `exact`: when P is not
    empty the best certificate attains each bound (an optimal LP basis),
    and when P is empty some circuit proves it.  A smaller family bounds
    P from outside and proves EMPTY only what its circuits reach.

    G holds the circuits (unit 1-norm) in its first `circuits` columns,
    then the distinct certificates of coordinate 0, 1, ..., n-1, those
    of coordinate k starting at column circuits + starts[k].  `slack`
    bounds the 1-norm residual of A^T over every column, so rounding in
    the inverses is charged to the margins.
    """

    __slots__ = ("bases", "subsets", "circuits", "per_coordinate", "starts", "G", "G_abs",
                 "slack", "exact")

    def __init__(self, A, subsets):
        A = np.asarray(A, dtype=float)
        rows, n = A.shape
        subsets = np.asarray(subsets, dtype=np.int64).reshape(-1, n)
        s = np.linalg.svd(A[subsets], compute_uv=False)
        basis = subsets[s[:, -1] > _BASIS_RCOND * s[:, 0]]
        if not basis.size:
            raise ValueError("matrix has no nonsingular basis: its columns are dependent")
        inv = np.linalg.inv(A[basis])  # (b, n, n)
        b = basis.shape[0]
        at = np.arange(b)[:, None, None]
        # certificate of coordinate k from basis S: z_S = row k of A_S^{-1}
        Z = np.zeros((b, n, rows))
        Z[at, np.arange(n)[None, :, None], basis[:, None, :]] = inv
        # fundamental circuit of row e outside S: y_e = 1, y_S = -a_e A_S^{-1}
        Y = np.zeros((b, rows, rows))
        Y[at, np.arange(rows)[None, :, None], basis[:, None, :]] = -(A @ inv)
        Y[:, np.arange(rows), np.arange(rows)] += 1.0
        Y[np.arange(b)[:, None], basis] = 0.0  # rows of S have no circuit
        per_k = [_distinct_supports(_snap(Z[:, k])) for k in range(n)]
        Yd = _distinct_supports(_snap(Y.reshape(b * rows, rows)))
        Yd = Yd / np.sum(np.abs(Yd), axis=1, keepdims=True)
        G = np.concatenate([Yd] + per_k).T
        target = np.concatenate([np.zeros((Yd.shape[0], n))] + [
            np.broadcast_to(np.eye(n)[k], (z.shape[0], n)) for k, z in enumerate(per_k)
        ])
        self.bases = b
        self.subsets = subsets.shape[0]
        self.exact = self.subsets == math.comb(rows, n)
        self.circuits = Yd.shape[0]
        self.per_coordinate = tuple(z.shape[0] for z in per_k)
        self.starts = np.concatenate([[0], np.cumsum(self.per_coordinate)[:-1]])
        self.G = np.ascontiguousarray(G)
        self.G_abs = np.abs(self.G)
        self.slack = float(np.max(np.sum(np.abs(G.T @ A - target), axis=1)))


def _snap(V):
    """Entries below 1e-12 of their row's largest magnitude, which are
    rounding residue of exact zeros, set to zero."""
    scale = np.max(np.abs(V), axis=1, keepdims=True)
    return np.where(np.abs(V) > 1e-12 * scale, V, 0.0)


def _distinct_supports(V):
    """The nonzero rows of V with distinct supports, first of each kept.
    A certificate or a circuit is determined by its support, so rows of
    equal support differ only by rounding."""
    V = V[np.any(V != 0.0, axis=1)]
    _, first = np.unique(V != 0.0, axis=0, return_index=True)
    return V[np.sort(first)]


def _offset_scale(c, r):
    """The magnitude of each (..., rows) row of offsets with centre c
    and radius r, which scales the certificate steps' margins."""
    return 1.0 + np.maximum.reduce(np.abs(c), axis=-1) + np.maximum.reduce(r, axis=-1)


def _circuit_empty(cert, c, r, scale):
    """The verdict step: the (...) mask of polytopes {x : l <= A x <= u}
    that a circuit of A proves EMPTY, for each row of the (..., rows)
    centre c and radius r of the offsets and their (...) scale
    (_offset_scale).

    Only the circuit columns of cert.G are read.  On an exact set they
    prove EMPTY every polytope that is empty; on a smaller family, those
    their circuits reach.  The test carries a margin of _GAP_RTOL plus
    the certificates' slack, scaled by the offsets' magnitude, so that
    it leans towards keeping a candidate.
    """
    k = cert.circuits
    eps = ((_GAP_RTOL + cert.slack) * scale)[..., None]
    # c.y + r.|y| < 0 or c.y - r.|y| > 0, for r.|y| >= 0
    return (np.abs(c @ cert.G[:, :k]) - r @ cert.G_abs[:, :k] > eps).any(axis=-1)


def _certificate_box(cert, c, r, scale):
    """The box step: box hull of {x : l <= A x <= u} for each row of the
    (..., rows) centre c and radius r of the offsets and their (...)
    scale, from the certificate columns of cert.G.

    Returns (lo, hi, crossed): (..., n) bounds, exact when cert.exact
    and the polytope is not empty, and the (...) mask of rows whose
    bounds cross by more than a margin, which proves them EMPTY too.
    The bounds are widened by the certificates' slack, scaled by the
    offsets' magnitude; bounds that cross by no more than the margin
    collapse to a point.  A polytope is EMPTY when _circuit_empty or
    crossed says so.
    """
    k = cert.circuits
    s_c = c @ cert.G[:, k:]
    s_r = r @ cert.G_abs[:, k:]
    widen = cert.slack * scale[..., None]
    hi = np.minimum.reduceat(s_c + s_r, cert.starts, axis=-1) + widen
    lo = np.maximum.reduceat(s_c - s_r, cert.starts, axis=-1) - widen
    gap = lo - hi
    crossed = (gap > _gap_eps(np.abs(lo) + np.abs(hi))).any(axis=-1)
    touch = gap > 0.0
    mid = 0.5 * (lo + hi)
    return np.where(touch, mid, lo), np.where(touch, mid, hi), crossed


def box_hull_lp(A, x0, c):
    """Exact box hull of {x in x0 : A x in c} via 2n linear programs.

    Each face of the returned box touches the feasible polytope.  Returns EMPTY when the polytope is
    empty.  The test oracle for the decoder's certificate hull; requires
    scipy.
    """
    from scipy.optimize import linprog

    A = np.asarray(A, dtype=float)
    m, n = A.shape
    if x0.dim != n or c.dim != m:
        raise ValueError("shape mismatch between A, x0, and c")
    if x0.is_empty or c.is_empty:
        return Box.empty(n)

    A_ub = np.vstack([A, -A])
    b_ub = np.concatenate([c.hi, -c.lo])
    bounds = list(zip(x0.lo, x0.hi))
    lo = np.empty(n)
    hi = np.empty(n)
    for k in range(n):
        obj = np.zeros(n)
        obj[k] = 1.0
        res = linprog(obj, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
        if res.status == 2:
            return Box.empty(n)
        if not res.success:
            raise RuntimeError(f"LP solve failed: {res.message}")
        lo[k] = res.fun
        res = linprog(-obj, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
        if not res.success:
            raise RuntimeError(f"LP solve failed: {res.message}")
        hi[k] = -res.fun
    hi = np.maximum(hi, lo)
    return Box(lo, hi)
