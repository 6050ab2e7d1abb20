"""Oversampled FIR analysis banks, parity checks, and LS synthesis.

An analysis bank with M subbands and downsampling N < M is kept in
polyphase form: matrices E_0 .. E_L of shape (M, N) with

    y[i] = sum_l E_l @ x[i-l],        (E_l)[m, n] = h_m[l*N + n],

where x[i] = (x[N*i], ..., x[N*i+N-1]) is the i-th input block and h_m
the m-th filter's taps.  Filters shorter than N*(L+1) are zero padded.
The redundancy M > N is what the decoder later exploits: subband blocks
live on an N-dimensional subspace per instant, and an (M-N)-row FIR
parity bank P_0 .. P_L' annihilates every valid subband stream,

    sum_l P_l @ y[i-l] = 0  for all i.
"""

import itertools
import math

import numpy as np

from .interval import HullCertificates

__all__ = [
    "FilterBank",
    "Polyphase",
    "ParityCheck",
    "load_filter_bank",
    "default_filter_bank",
    "polyphase_from_filters",
    "analyze",
    "parity_from_polyphase",
    "verify_annihilation",
    "synthesize_ls",
]

FRAME_SIGMA_MIN = 1e-8
# most N-row subsets of [I_N; E_0] that a bank's certificate set is
# built from; levels 0 and 1 are kept even beyond it (see
# _subsets_near_the_box).  The tiny 3x2 bank (10 subsets), the bundled
# 6x4 bank (210) and the tests' random banks (at most 56) fit whole, so
# their hull is exact.  The 12x8 Walsh bank (125,970) keeps levels 0
# and 1, 97 subsets: its level 2 would add 1,848, which raised the
# benchmark's bank_wide peak RSS by about 8 MB and its time per
# realization by a third, with the same gain_db
HULL_SUBSET_CAP = 1024
_DEFAULT_BANK_RESOURCE = "haar_6x4.txt"


def _check_integer(name, value):
    """Reject a config value that is not an integer (or numpy integer)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


class FilterBank:
    """An M-filter analysis bank with downsampling factor N and order L.

    Validates on construction: M > N >= 1, tap vectors no longer than
    N*(L+1), the header order L tight (some filter longer than N*L), and
    the stacked analysis matrix over 4*(L+1) blocks numerically full
    column rank (frame property).
    """

    def __init__(self, M, N, L, taps):
        M, N, L = int(M), int(N), int(L)
        if not (M > N >= 1) or L < 0:
            raise ValueError(f"invalid bank dimensions M={M} N={N} L={L}")
        if len(taps) != M:
            raise ValueError(f"expected {M} filters, got {len(taps)}")
        taps = [np.asarray(h, dtype=float).ravel() for h in taps]
        max_len = N * (L + 1)
        for m, h in enumerate(taps):
            if h.size == 0 or h.size > max_len:
                raise ValueError(
                    f"filter {m} has {h.size} taps; expected 1..{max_len}"
                )
        if all(h.size <= N * L for h in taps) and L > 0:
            raise ValueError(f"order L={L} is not tight: no filter exceeds {N * L} taps")
        self.M = M
        self.N = N
        self.L = L
        self.taps = taps

        poly = polyphase_from_filters(self)
        sigma = poly.min_frame_singular_value()
        if sigma <= FRAME_SIGMA_MIN:
            raise ValueError(
                f"bank is not a frame: stacked analysis matrix has "
                f"smallest singular value {sigma:.3e}"
            )

    def __repr__(self):
        return f"FilterBank(M={self.M}, N={self.N}, L={self.L})"


class Polyphase:
    """Polyphase matrices of an analysis bank, E[l] of shape (M, N)."""

    def __init__(self, E):
        E = np.asarray(E, dtype=float)
        if E.ndim != 3:
            raise ValueError("polyphase array must have shape (L+1, M, N)")
        self.E = E
        self.L = E.shape[0] - 1
        self.M = E.shape[1]
        self.N = E.shape[2]
        self._pinv0 = None
        self._certificates = None
        self._frame_sigma = {}  # n_blocks -> smallest frame singular value
        self._synthesis_rows = {}  # (back, fwd, hist) -> emitted rows of the window pinv

    def left_inverse(self):
        """Cached pseudo-inverse of E_0.  A left inverse proper (W E_0 = I)
        exactly when E_0 has full column rank."""
        if self._pinv0 is None:
            self._pinv0 = np.linalg.pinv(self.E[0], rcond=1e-12)
        return self._pinv0

    def consistency_certificates(self):
        """Cached HullCertificates of A = [I_N; E_0], the constraint
        matrix of one instant's consistency test (input box rows, then
        subband rows), from the row subsets near the input box (see
        _subsets_near_the_box): exact when those are all of A's N-row
        subsets, an outer bound otherwise."""
        if self._certificates is None:
            A = np.vstack([np.eye(self.N), self.E[0]])
            self._certificates = HullCertificates(A, _subsets_near_the_box(self.N, self.M))
        return self._certificates

    def stacked_oldest_first(self):
        """(M, N*(L+1)) matrix (E_L E_{L-1} ... E_0) acting on stacked
        blocks (x[i-L]; ...; x[i])."""
        return np.hstack([self.E[l] for l in range(self.L, -1, -1)])

    def min_frame_singular_value(self, n_blocks=None):
        """Smallest singular value, cached, of the stacked analysis
        matrix mapping n_blocks input blocks (zero initial state) to the
        same number of output blocks."""
        W = 4 * (self.L + 1) if n_blocks is None else int(n_blocks)
        if W not in self._frame_sigma:
            A = _window_system(self, 0, W - 1, 0, W - 1)
            self._frame_sigma[W] = float(np.linalg.svd(A, compute_uv=False)[-1])
        return self._frame_sigma[W]

    def synthesis_rows(self, back, fwd, hist):
        """Cached (N, (back+fwd+1)*M) rows of the pseudo-inverse of the
        window system with equations 0 .. back+fwd over unknown blocks
        -hist .. back+fwd that give block `back`, the emitted one."""
        key = (back, fwd, hist)
        if key not in self._synthesis_rows:
            A = _window_system(self, 0, back + fwd, -hist, back + fwd)
            pinv = np.linalg.pinv(A, rcond=1e-10)
            null_proj = np.eye(A.shape[1]) - pinv @ A
            rows = slice((hist + back) * self.N, (hist + back + 1) * self.N)
            if np.max(np.abs(null_proj[rows])) > 1e-8:
                raise ValueError("central block is not determined by the window system")
            self._synthesis_rows[key] = pinv[rows]
        return self._synthesis_rows[key]


def _subsets_near_the_box(N, M):
    """(s, N) array of the N-row subsets of [I_N; E_0] that swap k
    input-box rows for k subband rows, by whole levels k = 0, 1, ...
    while their count stays within HULL_SUBSET_CAP; levels 0 and 1 are
    always kept.  Level k holds C(N, k) C(M, k) subsets, and together
    the levels hold all C(N+M, N), so when every level fits this is
    every subset, in itertools.combinations order."""
    family = []
    for k in range(min(N, M) + 1):
        if k > 1 and len(family) + math.comb(N, k) * math.comb(M, k) > HULL_SUBSET_CAP:
            break
        for out in itertools.combinations(range(N), k):
            kept = [i for i in range(N) if i not in out]
            family += [kept + list(rows) for rows in itertools.combinations(range(N, N + M), k)]
    return np.array(sorted(family), dtype=np.int64)


class ParityCheck:
    """FIR parity bank P[l] of shape (M-N, M) with sum_l P_l E_{k-l} = 0."""

    def __init__(self, P):
        P = np.asarray(P, dtype=float)
        if P.ndim != 3:
            raise ValueError("parity array must have shape (L'+1, M-N, M)")
        self.P = P
        self.order = P.shape[0] - 1
        self.rows = P.shape[1]
        self.M = P.shape[2]


def polyphase_from_filters(bank):
    """Arrange a bank's taps into polyphase matrices.

    Zero pads every filter to N*(L+1) taps; (E_l)[m, n] = h_m[l*N + n].
    """
    M, N, L = bank.M, bank.N, bank.L
    E = np.zeros((L + 1, M, N))
    for m, h in enumerate(bank.taps):
        padded = np.zeros(N * (L + 1))
        padded[: h.size] = h
        E[:, m, :] = padded.reshape(L + 1, N)
    return Polyphase(E)


def analyze(x, poly):
    """Run the analysis bank over a signal, one subband block per instant.

    Parameters
    ----------
    x : 1-d array; zero padded at the end if its length is not a
        multiple of N.  Blocks before the start are taken as zero.
    poly : Polyphase

    Returns an array of shape (T, M) with row i holding the M subband
    samples of instant i, T = ceil(len(x) / N).
    """
    x = np.asarray(x, dtype=float).ravel()
    N, M, L = poly.N, poly.M, poly.L
    T = max(1, -(-x.size // N))
    padded = np.zeros(T * N)
    padded[: x.size] = x
    X = padded.reshape(T, N)
    y = np.zeros((T, M))
    for l in range(L + 1):
        if l < T:
            y[l:] += X[: T - l] @ poly.E[l].T
    return y


def parity_from_polyphase(poly, tol=1e-10, max_order=8):
    """Find an FIR parity bank annihilating every output of the analysis bank.

    Searches orders L' = 0..max_order.  For each order, the rows of the
    stacked (P_0 ... P_L') matrix must lie in the left null space of the
    block convolution matrix T with block (l, k) = E_{k-l}; the first
    order whose null space has dimension at least M-N (singular values
    below tol times the largest) is accepted, and an orthonormal basis
    of that space becomes the parity rows.

    Raises ValueError when no parity bank of order <= max_order exists.
    """
    M, N, L = poly.M, poly.N, poly.L
    rows_needed = M - N
    for Lp in range(max_order + 1):
        n_rows = M * (Lp + 1)
        n_cols = N * (L + Lp + 1)
        T_mat = np.zeros((n_rows, n_cols))
        for l in range(Lp + 1):
            for k in range(L + Lp + 1):
                if 0 <= k - l <= L:
                    T_mat[l * M:(l + 1) * M, k * N:(k + 1) * N] = poly.E[k - l]
        u, s, _ = np.linalg.svd(T_mat)
        if s[0] == 0.0:
            raise ValueError("analysis bank is identically zero")
        rank = int(np.sum(s >= tol * s[0]))
        if n_rows - rank >= rows_needed:
            basis = u[:, rank:rank + rows_needed].T
            P = basis.reshape(rows_needed, Lp + 1, M).transpose(1, 0, 2)
            return ParityCheck(P.copy())
    raise ValueError(f"no parity bank of order <= {max_order} annihilates this bank")


def verify_annihilation(poly, parity):
    """Largest coefficient magnitude of the product P(z) E(z).

    Zero for an exact parity bank; the load-time acceptance threshold
    is 1e-9.
    """
    L, Lp = poly.L, parity.order
    worst = 0.0
    for k in range(L + Lp + 1):
        C = np.zeros((parity.rows, poly.N))
        for l in range(Lp + 1):
            if 0 <= k - l <= L:
                C += parity.P[l] @ poly.E[k - l]
        worst = max(worst, float(np.max(np.abs(C))) if C.size else 0.0)
    return worst


def _window_system(poly, eq_lo, eq_hi, unk_lo, unk_hi):
    """Stacked block system for equations eq_lo..eq_hi over unknown
    blocks unk_lo..unk_hi (inclusive, relative indices)."""
    M, N, L = poly.M, poly.N, poly.L
    n_eq = eq_hi - eq_lo + 1
    n_unk = unk_hi - unk_lo + 1
    A = np.zeros((n_eq * M, n_unk * N))
    for r, j in enumerate(range(eq_lo, eq_hi + 1)):
        for q, b in enumerate(range(unk_lo, unk_hi + 1)):
            if 0 <= j - b <= L:
                A[r * M:(r + 1) * M, q * N:(q + 1) * N] = poly.E[j - b]
    return A


def synthesize_ls(poly, y, window=8):
    """Reconstruct the input signal from subband blocks by windowed
    least squares.

    For each output block, the analysis equations of `window`
    consecutive instants centered on it, clipped to the stream, are
    stacked and solved in the least-squares sense (minimum-norm for the
    unidentifiable oldest blocks of each window), and the output block
    of the solution is emitted.  Blocks before the start of the stream
    count as known zeros.

    Parameters
    ----------
    poly : Polyphase
    y : (..., T, M) array of subband blocks: one stream, or a stack of
        streams of equal length along the leading axes
    window : number of block equations per solve, an integer >= 2*(L+1)

    Returns the reconstructed signals as an array of shape (..., T*N).
    Each window product is a stacked matmul, one product of the
    one-stream shape per stream, so a stream is synthesized bit for bit
    as it is alone.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim < 2 or y.shape[-1] != poly.M:
        raise ValueError("subband array must have shape (..., T, M)")
    M, N, L = poly.M, poly.N, poly.L
    _check_integer("window", window)
    if window < 2 * (L + 1):
        raise ValueError(f"window must be at least {2 * (L + 1)}")
    sigma = poly.min_frame_singular_value(max(window, 4 * (L + 1)))
    if sigma <= FRAME_SIGMA_MIN:
        raise ValueError("stacked system is singular: bank violates the frame property")

    # block i solves equations i-back .. i+fwd, clipped to the stream,
    # over unknowns from hist blocks before the first equation; every
    # block of one window shape shares one cached solve
    lead, T = y.shape[:-2], y.shape[-2]
    i = np.arange(T)
    back = np.minimum(i, (window - 1) // 2)
    fwd = np.minimum(T - 1 - i, window // 2)
    hist = np.minimum(i - back, L)
    shapes, which = np.unique(np.stack([back, fwd, hist], axis=1), axis=0, return_inverse=True)
    y_flat = y.reshape(math.prod(lead), T * M)
    x_hat = np.zeros((y_flat.shape[0], T, N))
    for k, (b, f, h) in enumerate(shapes.tolist()):
        blocks = np.flatnonzero(which == k)
        rows = poly.synthesis_rows(b, f, h)
        windows = y_flat[:, (blocks[:, None] - b) * M + np.arange(rows.shape[1])]
        x_hat[:, blocks] = windows @ rows.T
    return x_hat.reshape(*lead, T * N)


def _parse_bank_text(text, origin):
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        data = raw.split("#", 1)[0].strip()
        if not data:
            continue
        try:
            values = [float(tok) for tok in data.split()]
        except ValueError as exc:
            raise ValueError(f"{origin}:{lineno}: unparsable value ({exc})") from None
        rows.append((lineno, values))
    if not rows:
        raise ValueError(f"{origin}: no data lines")
    header_line, header = rows[0]
    if len(header) != 3 or any(v != int(v) for v in header):
        raise ValueError(f"{origin}:{header_line}: header must be three integers 'M N L'")
    M, N, L = (int(v) for v in header)
    tap_rows = rows[1:]
    if len(tap_rows) != M:
        raise ValueError(f"{origin}: expected {M} filter lines, found {len(tap_rows)}")
    try:
        return FilterBank(M, N, L, [np.array(vals) for _, vals in tap_rows])
    except ValueError as exc:
        raise ValueError(f"{origin}: {exc}") from None


def _bank_source(name):
    """(text, origin) of the bank file at path name, or of the bundled
    bank when name is "default"."""
    if name == "default":
        from importlib.resources import files

        text = files("ofbdec.data").joinpath(_DEFAULT_BANK_RESOURCE).read_text()
        return text, _DEFAULT_BANK_RESOURCE
    with open(name, "r", encoding="utf-8") as fh:
        return fh.read(), str(name)


def load_filter_bank(path):
    """Load and validate a filter bank from a plain-text file.

    Format: '#' starts a comment, the first data line is the header
    "M N L", and each of the next M data lines lists one filter's taps.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return _parse_bank_text(text, str(path))


def default_filter_bank():
    """The bundled Haar-type bank: M=6 subbands, N=4, order L=1."""
    return _parse_bank_text(*_bank_source("default"))
