"""Closed intervals, boxes, an affine-constraint contractor, and the
LP-dual certificates that bound a box hull.

The decoder needs three guarantees from this module: interval evaluation
of affine maps never under-covers the true range, boxes returned by the
contractor never exclude a feasible point, and infeasibility (an EMPTY
result, Box.empty) is an explicit value rather than an inverted-endpoint
convention.

Endpoints are ordinary floats with round-to-nearest arithmetic.  We do
not chase directed rounding at the ulp level; emptiness decisions inside
the contractor carry a small scale-relative margin instead, so a claim
of EMPTY is always backed by a clearly positive gap.
"""

import itertools

import numpy as np

__all__ = [
    "Interval",
    "Box",
    "matvec_box",
    "contract_affine",
    "box_hull_lp",
]

# Margin factor for emptiness proofs inside the contractor; see module
# docstring.
_GAP_RTOL = 1e-12
# default stall threshold and sweep cap of the forward-backward contractor
_SWEEP_TOL = 1e-6
_MAX_SWEEPS = 50
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
        if np.any(lo > hi):
            raise ValueError("box has lo > hi; use Box.empty() for the empty box")
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


def _contract_affine_batch(A, lo, hi, c_lo, c_hi, tol, max_sweeps, group=None):
    """Forward-backward contraction of K boxes against A x in [c].

    Parameters
    ----------
    A : (m, n) array
    lo, hi : (K, n) arrays, contracted in place
    c_lo, c_hi : (K, m) arrays of constraint intervals
    tol : relative stall threshold on per-sweep width contraction
    max_sweeps : hard sweep cap
    group : rows per group (default K, one group).  Rows g*group to
        (g+1)*group - 1 form group g, which stops sweeping at its own
        stall test, so its boxes are those it would get if contracted
        alone.

    Returns the boolean (K,) array marking boxes proven EMPTY.  The
    emptiness tests carry a small scale-relative margin so that rounding
    can never manufacture a false infeasibility proof; near-touching
    intersections collapse to a point instead.
    """
    A = np.asarray(A, dtype=float)
    m, n = A.shape
    group = lo.shape[0] if group is None else int(group)
    # Rows of box.reshape(2n, K) (lower ends, then upper ends) that the
    # terms a_k [x_k] of row j take their ends from: pick[j, 0] for the
    # lower ends (lo_k where a_k >= 0, else hi_k), pick[j, 1] for the
    # upper ends; flip does the same with a_k > 0 for the backward step.
    comp = np.arange(n)
    pick = np.stack([np.where(A >= 0.0, comp, n + comp), np.where(A >= 0.0, n + comp, comp)], 1)
    flip = np.stack([np.where(A > 0.0, comp, n + comp), np.where(A > 0.0, n + comp, comp)], 1)
    nz = A != 0.0
    a_safe = np.where(nz, A, 1.0)[:, :, None]
    coef = A[:, :, None]
    lo_out, hi_out = lo, hi
    empty_out = np.zeros(lo.shape[0], dtype=bool)
    # Working copies of the rows of groups still sweeping, with the row
    # index on the last (contiguous) axis: box[0] holds the (n, K) lower
    # ends and box[1] the upper ends, so one numpy call serves both.
    rows = np.arange(lo.shape[0])
    group_of = rows // group
    box = np.stack([lo.T, hi.T])
    c = np.stack([c_lo.T, c_hi.T])
    c_abs = np.abs(c)
    empty = empty_out.copy()

    for _ in range(max_sweeps):
        K = rows.size
        if K == 0:
            break
        w_before = box[1] - box[0]
        # prefix and suffix sums of the terms, with a zero row at the
        # open end: pre[:, k] sums terms 0..k-1, suf[:, k] terms k..n-1,
        # accumulated in the order of a running sum
        pre = np.zeros((2, n + 1, K))
        suf = np.zeros((2, n + 1, K))
        for j in range(m):
            # term intervals a_k [x_k]: t[0] their lower ends, t[1] upper
            t = coef[j] * np.take(box.reshape(2 * n, K), pick[j], axis=0)
            pre[:, 1] = t[:, 0]
            for k in range(1, n):
                np.add(pre[:, k], t[:, k], out=pre[:, k + 1])
            suf[:, n - 1] = t[:, n - 1]
            for k in range(n - 2, -1, -1):
                np.add(suf[:, k + 1], t[:, k], out=suf[:, k])
            s = pre[:, n]
            s_abs = np.abs(s)

            scale = s_abs[0] + s_abs[1] + c_abs[0, j] + c_abs[1, j]
            eps = _gap_eps(scale)
            f = np.empty((2, K))
            np.maximum(s[0], c[0, j], out=f[0])
            np.minimum(s[1], c[1, j], out=f[1])
            gap = f[0] - f[1]
            empty |= gap > eps
            # near-touching forward ranges collapse to a point
            touch = (gap > 0.0) & ~empty
            f = np.where(touch, 0.5 * (f[0] + f[1]), f)

            # backward: [x_k] <- [x_k] /\ (f - sum_{k' != k} t_k') / a_k
            ex = pre[:, :-1] + suf[:, 1:]
            num = f[:, None, :] - ex[::-1]
            cand = np.take(num.reshape(2 * n, K), flip[j], axis=0) / a_safe[j]
            new = np.empty_like(box)
            np.maximum(box[0], cand[0], out=new[0])
            np.minimum(box[1], cand[1], out=new[1])
            if not nz[j].all():
                new = np.where(nz[j][:, None], new, box)

            cgap = new[0] - new[1]
            new_abs = np.abs(new)
            ceps = _gap_eps(new_abs[0] + new_abs[1])
            empty |= np.any(cgap > ceps, axis=0)
            ctouch = cgap > 0.0
            new = np.where(ctouch, 0.5 * (new[0] + new[1]), new)
            box = np.where(empty, box, new)

        contraction = np.max(w_before - (box[1] - box[0]), axis=0)
        reference = np.maximum(np.max(w_before, axis=0), 1e-300)
        stalled = empty | (contraction < tol * reference)
        # a group stops once all its rows stall; EMPTY rows are frozen
        # and count as stalled, so they leave the working set at once
        busy = np.zeros(group_of[-1] + 1, dtype=bool)
        busy[group_of[~stalled]] = True
        finished = empty | ~busy[group_of]
        if np.any(finished):
            done = rows[finished]
            lo_out[done], hi_out[done] = box[0][:, finished].T, box[1][:, finished].T
            empty_out[done] = empty[finished]
            going = ~finished
            rows, group_of, empty = rows[going], group_of[going], empty[going]
            box, c, c_abs = box[:, :, going], c[:, :, going], c_abs[:, :, going]

    lo_out[rows], hi_out[rows], empty_out[rows] = box[0].T, box[1].T, empty
    return empty_out


class HullCertificates:
    """LP-dual data that bound the box hull of
    P = {x : l <= A x <= u} for any offsets l <= u, computed once per A
    (a (rows, n) matrix of full column rank).

    With c, r the centre and radius of [l, u]:

    * every certificate z of coordinate k (A^T z = e_k) bounds x_k over
      P by weak duality: c.z - r.|z| <= x_k <= c.z + r.|z|;
    * every circuit y (the null vector of A^T supported on a minimal
      dependent row set) proves P empty when c.y + r.|y| < 0 or
      c.y - r.|y| > 0 (Farkas).

    By default they come from enumerating A's n-row bases (basis S gives
    z_S = A_S^{-T} e_k) and the set is `exact`: when P is not empty the
    best certificate attains each bound (an optimal LP basis), and when
    P is empty some circuit proves it.  Given `certificates`, an
    (n, k, rows) array of k per coordinate, the set holds those alone,
    with no bases and no circuits, and bounds P from outside only.

    G holds the circuits (unit 1-norm) in its first `circuits` columns,
    then the distinct certificates of coordinate 0, 1, ..., n-1, those
    of coordinate k starting at column circuits + starts[k].  `slack`
    bounds the 1-norm residual of A^T over every column, so rounding in
    the enumeration, or in given certificates, is charged to the margins.
    """

    __slots__ = ("bases", "circuits", "per_coordinate", "starts", "G", "G_abs", "slack", "exact")

    def __init__(self, A, certificates=None):
        A = np.asarray(A, dtype=float)
        rows, n = A.shape
        self.exact = certificates is None
        if self.exact:
            subsets = np.array(list(itertools.combinations(range(rows), n)), dtype=np.int64)
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
        else:
            b, Yd, per_k = 0, np.zeros((0, rows)), list(certificates)
        G = np.concatenate([Yd] + per_k).T
        target = np.concatenate([np.zeros((Yd.shape[0], n))] + [
            np.broadcast_to(np.eye(n)[k], (z.shape[0], n)) for k, z in enumerate(per_k)
        ])
        self.bases = b
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


def _certificate_hull(cert, l, u):
    """Box hull of {x : l <= A x <= u} for each row of the (..., rows)
    offset arrays l, u, from the certificates of A.

    Returns (lo, hi, empty): (..., n) bounds, exact when cert.exact, and
    the (...) mask of polytopes proven EMPTY.  The EMPTY test and the
    bounds carry a margin of _GAP_RTOL plus the certificates' slack,
    scaled by the offsets' magnitude, so that both lean towards keeping
    a candidate; bounds that cross by no more than the margin collapse
    to a point.
    """
    c = 0.5 * (l + u)
    r = 0.5 * (u - l)
    s_c = c @ cert.G
    s_r = r @ cert.G_abs
    scale = 1.0 + np.max(np.abs(c), axis=-1) + np.max(r, axis=-1)
    eps = ((_GAP_RTOL + cert.slack) * scale)[..., None]
    k = cert.circuits
    # c.y + r.|y| < 0 or c.y - r.|y| > 0, for r.|y| >= 0
    empty = np.any(np.abs(s_c[..., :k]) - s_r[..., :k] > eps, axis=-1)
    widen = cert.slack * scale[..., None]
    hi = np.minimum.reduceat(s_c[..., k:] + s_r[..., k:], cert.starts, axis=-1) + widen
    lo = np.maximum.reduceat(s_c[..., k:] - s_r[..., k:], cert.starts, axis=-1) - widen
    gap = lo - hi
    empty |= np.any(gap > _gap_eps(np.abs(lo) + np.abs(hi)), axis=-1)
    touch = gap > 0.0
    mid = 0.5 * (lo + hi)
    return np.where(touch, mid, lo), np.where(touch, mid, hi), empty


def contract_affine(A, x0, c, tol=_SWEEP_TOL, max_sweeps=_MAX_SWEEPS):
    """Contract the box x0 against the affine range constraints A x in c.

    Parameters
    ----------
    A : (m, n) array of reals
    x0 : Box of dimension n, the prior enclosure of x
    c : Box of dimension m, one constraint interval per row of A
    tol : float
        Relative stall threshold; sweeping stops once no component width
        shrinks by more than tol times the current largest width.
    max_sweeps : int
        Hard cap on the number of forward-backward sweeps.

    Returns a Box contained in x0 that still contains every x in x0 with
    A x in c, or EMPTY when the constraints are proven infeasible.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError("A must be a matrix")
    m, n = A.shape
    if x0.dim != n or c.dim != m:
        raise ValueError("shape mismatch between A, x0, and c")
    if tol <= 0.0 or max_sweeps < 1:
        raise ValueError("tol must be positive and max_sweeps at least 1")
    if x0.is_empty or c.is_empty:
        return Box.empty(n)

    lo = x0.lo[None, :].copy()
    hi = x0.hi[None, :].copy()
    empty = _contract_affine_batch(A, lo, hi, c.lo[None, :], c.hi[None, :], tol, max_sweeps)
    if empty[0]:
        return Box.empty(n)
    return Box(lo[0], hi[0])


def box_hull_lp(A, x0, c):
    """Exact box hull of {x in x0 : A x in c} via 2n linear programs.

    Slower than contract_affine but tight: each face of the returned box
    touches the feasible polytope.  Returns EMPTY when the polytope is
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
