"""Candidate-list decoding of quantized subband streams with
consistency testing.

Per instant the decoder (1) lists the most likely index vectors given
the channel's soft outputs, ties going to the ascending index vector,
(2) discards candidates whose quantization cells cannot be reached by
any admissible input signal given the boxes decoded for the previous
instants, (3) optionally also requires candidates to be compatible
with the parity bank, and (4) returns the first survivor in likelihood
order together with its signal box, computed for that survivor alone.
A codeword's log-likelihood score is its per-bit squared distances to
the soft bits added left to right, MSB first, over -2 sigma^2; an
index vector's is the sum of its subbands' scores in subband order.

The consistency test (2) reads the polytope of admissible current
input blocks, {x in input box : E_0 x in cells - history reach},
through LP-dual certificates cached per bank
(Polyphase.consistency_certificates), in two steps.  The verdict step
runs on every candidate: one matrix product over the Farkas circuits
proves the candidate EMPTY or keeps it.  The box step runs in (4) on
the first survivor alone: one matrix product over the certificates
bounds its box, and bounds that cross also prove it EMPTY, in which
case the next survivor is taken.  On banks small enough to enumerate
the circuits decide EMPTY exactly and the box is the exact hull;
larger banks get the certificates of the bases near the input box,
whose box is a sound outer bound.  The scipy LP hull in the interval
module serves the tests as an oracle.

Decoding runs in lockstep: B independent streams advance one instant at
a time together, their histories held as arrays of shape (B, L, N) and
(B, L', M), so each of the steps above is one numpy pass over all B*K
candidates, or over the B picks for the box step.  What does not
depend on the decoded history is computed once per realization: the
candidate lists of all streams, in one listing pass shared by every
decoder variant reading the same soft bits; the parity test's P_0
terms of their cells; the input-box columns of the consistency offsets,
whose cell columns each instant rewrites.  The box step reuses the
verdict step's offsets of the picks, and each variant's streams are
synthesized in one stacked call.  A single stream (decode_sequence,
step) is the case B = 1.  Every matrix product keeps the shape it has
for one stream, so a stream decodes bit for bit the same whatever else
runs beside it.

The point estimate for the whole stream is assembled afterwards: the
decoded index vectors are dequantized and passed through the same
windowed least-squares synthesis the classical receiver uses, so on a
clean channel both receivers reconstruct identically and the gain of
this decoder comes purely from correcting indexes.  Each verified box
is then widened symmetrically about the synthesis point, which keeps
every containment guarantee while making the reported box center equal
the point estimate.

When nothing survives the consistency test the instant is flagged and a
hard-decision fallback keeps the recursion alive; histories are never
rolled back, so one bad instant may degrade its successors.  That
matches the reference behavior this module reimplements.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .channel import ChannelModel
from .filterbank import _check_integer, synthesize_ls
from .interval import Box, _certificate_box, _circuit_empty, _offset_scale

__all__ = [
    "FLAG_CLEAN",
    "FLAG_NO_CONSISTENT",
    "FLAG_PARITY_EXHAUSTED",
    "DecoderConfig",
    "Candidate",
    "StepResult",
    "DecodeDiagnostics",
    "DecoderState",
    "top_candidates",
    "consistency_box",
    "parity_test",
    "step",
    "decode_sequence",
    "decode_streams",
    "decode_classical",
]

FLAG_CLEAN = 0
# consistency test rejected every candidate; hard-decision fallback used
FLAG_NO_CONSISTENT = 1
# consistent candidates existed but none passed the parity test
FLAG_PARITY_EXHAUSTED = 2

_PARITY_RTOL = 1e-12
# elements of the largest array one chunk of candidate listing builds:
# chunk * (frontier pairs of a stage) merged partial vectors, or the
# chunk * 2^R code scores of an R-bit subband, which the chunk length
# budgets R times over (as chunk * 2^R * R); a tie fallback merges at
# most this many of its full P * S pairs at once
_LIST_CHUNK_ELEMENTS = 2**15
# smallest accepted config values; the bank-dependent window floor,
# 2*(L+1), is checked by synthesize_ls and when a Pipeline is built
_CONFIG_FLOORS = {"n_max": 1, "window": 2}


def _check_count(name, value):
    """Reject a count that is not an integer at or above its floor in
    _CONFIG_FLOORS."""
    _check_integer(name, value)
    if value < _CONFIG_FLOORS[name]:
        raise ValueError(f"{name} must be at least {_CONFIG_FLOORS[name]}")


def _check_bool(name, value):
    """Reject a config flag that is not a bool (or numpy bool)."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a boolean, got {value!r}")


@dataclass(frozen=True)
class DecoderConfig:
    n_max: int = 20
    use_pct: bool = True
    window: int = 8  # synthesis window for the final point estimate

    def __post_init__(self):
        for name in _CONFIG_FLOORS:
            _check_count(name, getattr(self, name))
        _check_bool("use_pct", self.use_pct)


@dataclass(frozen=True)
class Candidate:
    u: np.ndarray  # (M,) index vector
    loglik: float
    rank: int  # 1-based position in likelihood order


@dataclass(frozen=True)
class StepResult:
    u_hat: np.ndarray
    x_box: Box
    y_box: Box
    flag: int
    rank: int
    n_consistent: int


@dataclass
class DecodeDiagnostics:
    flags: np.ndarray
    ranks: np.ndarray
    n_consistent: np.ndarray
    box_width_max: np.ndarray
    x_lo: np.ndarray  # (T, N) final per-instant box bounds
    x_hi: np.ndarray
    u_hat: np.ndarray  # (T, M) decoded index vectors

    @property
    def error_rate(self):
        return float(np.mean(self.flags != FLAG_CLEAN))


class DecoderState:
    """Sliding decoding history of B streams decoded in lockstep: the
    shared input box and, per stream, the last L signal boxes and the
    last L' subband boxes, most recent first, as endpoint arrays
    x_lo, x_hi of shape (B, L, N) and y_lo, y_hi of shape (B, L', M).
    """

    def __init__(self, input_box, x_lo, x_hi, y_lo, y_hi):
        self.input_box = input_box
        self.x_lo, self.x_hi, self.y_lo, self.y_hi = x_lo, x_hi, y_lo, y_hi

    @classmethod
    def initial(cls, input_box, poly, parity, streams=1):
        """Histories start as the degenerate all-zero boxes, which is
        exact for streams whose pre-start blocks are zero.  Without a
        parity bank (parity None) the subband history has length 0."""
        if input_box.dim != poly.N:
            raise ValueError(f"input box has dimension {input_box.dim}, the bank's N is {poly.N}")
        x = (streams, poly.L, poly.N)
        y = (streams, 0 if parity is None else parity.order, poly.M)
        return cls(input_box, np.zeros(x), np.zeros(x), np.zeros(y), np.zeros(y))

    def _push(self, x_lo, x_hi, y_lo, y_hi):
        """Push (B, N) signal and (B, M) subband box endpoints.  Each
        history is rebound to a new array, so no array read before
        changes."""
        hist = (self.x_lo, self.x_hi, self.y_lo, self.y_hi)
        self.x_lo, self.x_hi, self.y_lo, self.y_hi = (
            np.concatenate([new[:, None], h[:, :-1]], axis=1) if h.shape[1] else h
            for new, h in zip((x_lo, x_hi, y_lo, y_hi), hist)
        )


def _matvec(A, X):
    """A @ x for every row x of X, each rounded exactly like the single
    matrix-vector product (a batched matmul of (n, 1) columns)."""
    return np.matmul(A, X[..., None])[..., 0]


def _soft_bits(r, q, stacked=False):
    """r as a (T, total_bits) float array, or (..., T, total_bits) when
    stacked, checked to hold finite soft bits of the right width: the
    input check of both receivers."""
    r = np.asarray(r, dtype=float)
    if not (r.ndim == 2 or (stacked and r.ndim > 2)) or r.shape[-1] != q.total_bits:
        raise ValueError(f"expected {q.total_bits} bits per instant")
    if not np.all(np.isfinite(r)):
        raise ValueError("soft bits must be finite")
    return r


def _candidate_lists(r, q, sig2, n_max):
    """The n_max most likely index vectors of every instant, best first.

    r is a (T, total_bits) array of soft bits and sig2 the channel's
    noise variance: a scalar, or a (T, 1) column when the rows come
    from several channels.  Rows are listed independently, so each
    row's list is bit for bit its list alone.  Returns (u, scores):
    the (T, K, M) index vectors and their (T, K) log-likelihoods, K
    being the list length (n_max, or fewer when the bank has fewer
    index vectors).  Instants are listed in chunks whose length comes
    from the widest array a stage builds: its frontier pairs (see
    _merge_pairs), not all n_max^2 of them, or its 2^R code scores,
    counted as 2^R * R; each such array, and each tie fallback's
    sub-chunk, holds at most _LIST_CHUNK_ELEMENTS elements.
    """
    r = _soft_bits(r, q)
    T = r.shape[0]
    sig2 = np.broadcast_to(sig2, (T, 1))
    K = widest = 1
    for R in q.rates:
        S = min(n_max, 1 << int(R))
        widest = max(widest, _merge_pairs(K, S, n_max)[0].size, (1 << int(R)) * int(R))
        K = min(n_max, K * S)
    u = np.empty((T, K, q.M), dtype=np.int64)
    scores = np.empty((T, K))
    chunk = max(1, _LIST_CHUNK_ELEMENTS // widest)
    for t in range(0, T, chunk):
        rows = slice(t, t + chunk)
        u[rows], scores[rows] = _list_chunk(r[rows], q, sig2[rows], n_max)
    return u, scores


@functools.lru_cache(maxsize=64)
def _merge_pairs(P, S, n):
    """The pairs a listing stage scores when it merges P partial vectors
    with S stage entries, both best first, into the n best.

    Float addition is monotone, so pair (p, s) scores no higher than
    the (p+1)(s+1) - 1 other pairs (p', s') with p' <= p and s' <= s,
    and when it ties one of them whose partial and stage scores equal
    its own, the lexicographic tie-break ranks that one first.  So when
    (p+1)(s+1) > n, only a sum that rounds to a tie can lift it into
    the n best.  Returns (pair_p, pair_s, front_p, front_s): the frontier
    pairs with (p+1)(s+1) <= n, row by row (at least min(n, P * S) of
    them), and per row p that has pairs beyond it, its best such pair
    s = n // (p+1).
    """
    p = np.arange(P)
    width = np.minimum(S, n // (p + 1))
    start = np.cumsum(width) - width
    pair_p = np.repeat(p, width)
    pair_s = np.arange(pair_p.size) - np.repeat(start, width)
    front_p = np.flatnonzero(width < S)
    front_s = width[front_p]
    for a in (pair_p, pair_s, front_p, front_s):
        a.flags.writeable = False
    return pair_p, pair_s, front_p, front_s


def _list_chunk(r, q, sig2, n_max):
    """Breadth-first listing over subbands for a chunk of instants.

    Per-subband scores are sums of bit log-likelihoods, partial vectors
    are ranked by total score with lexicographic tie-break on the index
    vector, and only the n_max best partials survive each stage.
    Because scores add across subbands and ties break on prefixes
    first, the surviving list equals the top of the exhaustive ranking.
    The lexicographic order of a new partial is that of (its parent's
    lexicographic rank, its new index), so no sort looks at whole
    vectors; the partials are kept as per-stage back-pointers and traced
    back once.

    A codeword's score is its per-bit squared distances added left to
    right, MSB first, negated and divided by 2 sig2.  A stage builds
    all 2^R sums at O(2^R) cost, one outer sum per bit over a (rows, R,
    2) table of per-bit distances, in code-value order, so a codeword's
    column is its value.

    A stage ranks only the dominance frontier of its P x S pairs (see
    _merge_pairs): 280 of 4096 pairs at n_max 64.  A pair beyond it
    scores no higher than its row's frontier pair, so when every such
    pair scores below the n_max-th kept score the frontier's list is
    the full merge's.  Instants where one reaches that score (all-zero
    soft bits do, and so can sums that round to a tie) are merged again
    over all P * S pairs, in sub-chunks of at most _LIST_CHUNK_ELEMENTS
    elements.  Either way the lists are bit for bit those of the full
    merge.
    """
    C = r.shape[0]
    at = np.arange(C)[:, None]  # the row of every per-row gather
    part_scores = np.zeros((C, 1))
    part_rank = np.zeros((C, 1), dtype=np.int64)  # lexicographic rank
    parents, picks = [], []
    for m in range(q.M):
        dist = (r[:, q.bit_slices[m], None] - np.array([1.0, -1.0])) ** 2  # bit 0 sends +1
        sums = dist[:, 0]
        for j in range(1, dist.shape[1]):
            sums = (sums[:, :, None] + dist[:, None, j]).reshape(C, -1)
        codes = q.index_codes(m)
        place = 1 << np.arange(codes.shape[1] - 1, -1, -1)  # of each bit, MSB first
        scores = -sums[:, codes @ place] / (2.0 * sig2)
        # ties keep index order, which is ascending u
        stage = np.argsort(-scores, axis=1, kind="stable")[:, :n_max]
        stage_scores = scores[at, stage]

        P, S = part_scores.shape[1], stage.shape[1]
        n_codes = scores.shape[1]
        pair_p, pair_s, front_p, front_s = _merge_pairs(P, S, n_max)
        new_scores = part_scores[:, pair_p] + stage_scores[:, pair_s]
        lex = part_rank[:, pair_p] * n_codes + stage[:, pair_s]
        order = _best_first(-new_scores, lex, n_max)
        parent, col = pair_p[order], pair_s[order]
        if front_p.size:
            beyond = np.max(part_scores[:, front_p] + stage_scores[:, front_s], axis=1)
            nth = new_scores[at[:, 0], order[:, -1]]
            tied = np.flatnonzero(beyond >= nth)
            sub = max(1, _LIST_CHUNK_ELEMENTS // (P * S))
            for i in range(0, tied.size, sub):
                rows = tied[i:i + sub]
                full_scores = part_scores[rows, :, None] + stage_scores[rows, None, :]
                full_lex = part_rank[rows, :, None] * n_codes + stage[rows, None, :]
                shape = (rows.size, P * S)
                full = _best_first(-full_scores.reshape(shape), full_lex.reshape(shape), n_max)
                parent[rows], col[rows] = full // S, full % S
        picked = stage[at, col]
        parents.append(parent)
        picks.append(picked - q.offsets[m])
        part_scores = part_scores[at, parent] + stage_scores[at, col]
        kept = part_rank[at, parent] * n_codes + picked
        by_lex = kept.argsort(axis=1)
        part_rank = np.empty_like(by_lex)
        part_rank[at, by_lex] = np.arange(by_lex.shape[1])
    u = np.empty(part_scores.shape + (q.M,), dtype=np.int64)
    k = np.broadcast_to(np.arange(u.shape[1]), part_scores.shape)
    for m in range(q.M - 1, -1, -1):
        u[:, :, m] = picks[m][at, k]
        k = parents[m][at, k]
    return u, part_scores


def _best_first(neg, lex, n):
    """Column indexes of the n smallest entries of each row of neg,
    ordered by (neg, lex), the lex entries of a row being distinct.

    A partition finds each row's n smallest entries, which are sorted
    by neg alone: that is the (neg, lex) order unless two of them are
    equal or the n-th equals an entry left out.  Only rows with such a
    tie are sorted whole by (neg, lex).
    """
    rows, width = neg.shape
    n = min(n, width)
    at = np.arange(rows)[:, None]
    part = np.argpartition(neg, (n - 1, n) if n < width else n - 1, axis=1)
    cols = part[at, neg[at, part[:, :n]].argsort(axis=1)]
    vals = neg[at, cols]
    tied = (vals[:, 1:] == vals[:, :-1]).any(axis=1)
    if n < width:
        tied |= neg[at[:, 0], part[:, n]] == vals[:, -1]
    cols[tied] = np.lexsort((lex[tied], neg[tied]), axis=1)[:, :n]
    return cols


def top_candidates(r, q, ch, n_max):
    """The n_max most likely index vectors for one instant's soft bits.

    Exact breadth-first search over subbands (see _list_chunk), the
    one-instant case of the listing decode_streams runs over whole
    streams.

    Returns a list of Candidate, best first.
    """
    _check_count("n_max", n_max)
    r = np.asarray(r, dtype=float).reshape(1, -1)
    u, scores = _candidate_lists(r, q, ch.effective_sigma2(), n_max)
    return [
        Candidate(u=u[0, k].copy(), loglik=float(scores[0, k]), rank=k + 1)
        for k in range(u.shape[1])
    ]


def _fir_reach(taps, lo, hi):
    """Centre and radius of the interval sum over l >= 1 of taps[l]
    applied to the history boxes [lo[:, l-1], hi[:, l-1]] of every
    stream: two (B, rows) arrays."""
    c = np.zeros((lo.shape[0], taps.shape[1]))
    rad = np.zeros_like(c)
    for l in range(1, taps.shape[0]):
        c = c + _matvec(taps[l], 0.5 * (lo[:, l - 1] + hi[:, l - 1]))
        rad = rad + _matvec(np.abs(taps[l]), 0.5 * (hi[:, l - 1] - lo[:, l - 1]))
    return c, rad


def _history_reach(state, poly):
    """Interval sum of E_l applied to each stream's previous signal
    boxes, i.e. the subband contribution already fixed by the decoding
    history: (lo, hi), each of shape (B, M)."""
    c, rad = _fir_reach(poly.E, state.x_lo, state.x_hi)
    return c - rad, c + rad


def _offset_buffers(input_box, B, K, M):
    """The centre and radius of the (B, K, N + M) offsets of
    _consistency_batch, their constant input-box columns filled in."""
    N = input_box.dim
    c, r = np.empty((2, B, K, N + M))
    c[..., :N] = 0.5 * (input_box.lo + input_box.hi)
    r[..., :N] = 0.5 * (input_box.hi - input_box.lo)
    return c, r


def _consistency_batch(cell_lo, cell_hi, state, poly, offsets=None):
    """Offsets of the polytope of input blocks that can reach each
    candidate's cells, and the verdict step on them, for every stream
    at once.

    cell_lo, cell_hi are the (B, K, M) cell endpoints of each stream's
    K candidates.  The polytope is {x : l <= [I_N; E_0] x <= u}: x in
    the input box and E_0 x in [c], [c] being the cells minus the
    history reach.  Returns (c, r, empty, scale): the centre and radius
    of the (B, K, N + M) offsets [l, u] (in the buffers offsets, when
    given), the (B, K) mask of candidates that a circuit of the bank's
    certificates proves inconsistent (interval._circuit_empty, one
    matrix product), and their (B, K) scale.  On banks whose subsets
    all fit under HULL_SUBSET_CAP the set is exact and its circuits
    prove EMPTY exactly the candidates no input reaches.  On larger
    banks EMPTY is proven only where a circuit of the bases near the
    input box reaches.  The box of a candidate is the box step on its
    rows of c, r and scale (interval._certificate_box), which _advance
    runs on each stream's pick alone.
    """
    reach_lo, reach_hi = _history_reach(state, poly)
    c, r = offsets or _offset_buffers(state.input_box, *cell_lo.shape[:2], poly.M)
    c_lo = cell_lo - reach_hi[:, None, :]
    c_hi = cell_hi - reach_lo[:, None, :]
    np.multiply(0.5, c_lo + c_hi, out=c[..., poly.N:])
    np.multiply(0.5, c_hi - c_lo, out=r[..., poly.N:])
    scale = _offset_scale(c, r)
    return c, r, _circuit_empty(poly.consistency_certificates(), c, r, scale), scale


def consistency_box(u, state, poly, q):
    """Contracted box of input blocks that can produce subband values in
    the cells of index vector u, given the decoded history; EMPTY when
    the candidate is proven inconsistent.  On a bank under the cap this
    is the exact box hull of those inputs; above it, an outer bound of
    that hull.  The one-candidate case of the two steps _advance takes:
    the verdict step of _consistency_batch, then the box step, whose
    crossed bounds also prove EMPTY."""
    cell_lo, cell_hi = q.cell_bounds(np.asarray(u, dtype=np.int64).reshape(1, 1, -1))
    c, r, empty, scale = _consistency_batch(cell_lo, cell_hi, state, poly)
    if empty[0, 0]:
        return Box.empty(poly.N)
    lo, hi, crossed = _certificate_box(poly.consistency_certificates(), c, r, scale)
    if crossed[0, 0]:
        return Box.empty(poly.N)
    return Box(lo[0, 0], hi[0, 0])


def _parity_cell_terms(cell_lo, cell_hi, parity):
    """The history-free half of the parity residual: P_0 and |P_0| on the
    centre and radius of (..., K, M) cells, one product per (K, M) block."""
    return (0.5 * (cell_lo + cell_hi) @ parity.P[0].T,
            0.5 * (cell_hi - cell_lo) @ np.abs(parity.P[0]).T)


def _parity_residual_bounds(cc, cr, y_lo, y_hi, parity):
    """Endpoints of the parity residual interval of every candidate:
    sum_l P_l [y-hist] plus P_0 applied to the candidate's cells.

    cc, cr: (B, K, rows) cell terms (_parity_cell_terms); y_lo, y_hi:
    (B, L', M) subband histories.  Returns two (B, K, rows) arrays.
    """
    hc, hr = _fir_reach(parity.P, y_lo, y_hi)
    mid = cc + hc[:, None]
    rad = cr + hr[:, None]
    return mid - rad, mid + rad


def _parity_pass(lo, hi):
    eps = _PARITY_RTOL * (1.0 + np.abs(lo) + np.abs(hi))
    return ((lo <= eps) & (hi >= -eps)).all(axis=-1)


def parity_test(u, state, parity, q):
    """True (keep) iff every parity residual component can be zero when
    the candidate's subbands roam their cells and the previous subbands
    roam their decoded boxes.  A False is a proof of infeasibility."""
    cell_lo, cell_hi = q.cell_bounds(np.asarray(u, dtype=np.int64).reshape(1, 1, -1))
    cc, cr = _parity_cell_terms(cell_lo, cell_hi, parity)
    lo, hi = _parity_residual_bounds(cc, cr, state.y_lo, state.y_hi, parity)
    return bool(_parity_pass(lo[0], hi[0])[0])


def _fallback(u, x_lo, x_hi, input_box, poly, q):
    """Hard-decision recovery for streams whose candidates are all
    inconsistent: fit a point to the dequantized subbands of the
    leading candidates u (F, M) by least squares against the centers of
    the (F, L, N) histories, then pad it with the least-squares
    sensitivity of the cell radii and clip to the input box.  Returns
    (F, N) box endpoints."""
    target = q.dequantize_block(u).astype(float)
    for l in range(1, poly.L + 1):
        target = target - _matvec(poly.E[l], 0.5 * (x_lo[:, l - 1] + x_hi[:, l - 1]))
    pinv = poly.left_inverse()
    point = np.clip(_matvec(pinv, target), input_box.lo, input_box.hi)
    rad = np.abs(pinv) @ (0.5 * q.deltas)
    return np.maximum(point - rad, input_box.lo), np.minimum(point + rad, input_box.hi)


def _advance(state, u, cell_lo, cell_hi, use_pct, poly, parity, q, cell_terms=None,
             offsets=None):
    """Decode one instant of B streams and push their boxes onto the
    history.

    u holds each stream's (B, K, M) candidates in likelihood order,
    cell_lo, cell_hi their cells and cell_terms their parity cell terms
    (_parity_cell_terms), read where the (B,) mask use_pct is set;
    offsets are _offset_buffers to reuse.  The consistency verdicts
    prune first; on streams with use_pct the parity test then picks the
    first survivor it accepts (falling back to the first survivor with
    an error flag when it accepts none).  The box step then bounds each
    stream's pick alone, from its rows of the verdict step's c, r and
    scale, in (B, 1, N + M) products whose rows round as they do for one
    stream; a pick whose bounds cross is EMPTY too, and its stream picks
    again.  When consistency rejects everything, the flagged
    hard-decision fallback is returned.

    Returns (u_hat, x_lo, x_hi, y_lo, y_hi, flag, pick, n_consistent),
    one row per stream; pick is the 0-based list position decided.
    """
    B = u.shape[0]
    rows = np.arange(B)
    c, r, empty, scale = _consistency_batch(cell_lo, cell_hi, state, poly, offsets)
    cert = poly.consistency_certificates()
    live = ~empty
    par = (use_pct & live.any(axis=1)).nonzero()[0]
    ok = np.zeros_like(live)  # live candidates the parity test accepts
    if par.size:
        plo, phi = _parity_residual_bounds(
            cell_terms[0][par], cell_terms[1][par], state.y_lo[par], state.y_hi[par], parity
        )
        tested = np.zeros_like(live)
        tested[par] = live[par]
        ok[tested] = _parity_pass(plo[tested[par]], phi[tested[par]])
    while True:
        n_consistent = live.sum(axis=1)
        ok &= live
        found = ok.any(axis=1)
        by_parity = use_pct & (n_consistent > 0)
        pick = np.where(by_parity & found, ok.argmax(axis=1), live.argmax(axis=1))
        x_lo, x_hi, crossed = _certificate_box(
            cert, c[rows, pick][:, None], r[rows, pick][:, None], scale[rows, pick][:, None]
        )
        crossed = crossed[:, 0] & (n_consistent > 0)
        if not crossed.any():
            break
        live[rows[crossed], pick[crossed]] = False
    flag = np.where(n_consistent > 0, FLAG_CLEAN, FLAG_NO_CONSISTENT)
    flag[by_parity & ~found] = FLAG_PARITY_EXHAUSTED
    x_lo, x_hi = x_lo[:, 0], x_hi[:, 0]
    fb = (n_consistent == 0).nonzero()[0]
    if fb.size:
        x_lo[fb], x_hi[fb] = _fallback(
            u[fb, 0], state.x_lo[fb], state.x_hi[fb], state.input_box, poly, q
        )
    y_lo = cell_lo[rows, pick]
    y_hi = cell_hi[rows, pick]
    state._push(x_lo, x_hi, y_lo, y_hi)
    return u[rows, pick], x_lo, x_hi, y_lo, y_hi, flag, pick, n_consistent


def step(r_inst, state, poly, parity, q, ch, cfg):
    """Decode one instant of a single-stream state and push its boxes
    onto the history; the B = 1 case of the lockstep recursion (see
    _advance) over the list top_candidates gives."""
    u = np.stack([c.u for c in top_candidates(r_inst, q, ch, cfg.n_max)])[None]
    cell_lo, cell_hi = q.cell_bounds(u)
    u_hat, x_lo, x_hi, y_lo, y_hi, flag, pick, n_consistent = _advance(
        state, u, cell_lo, cell_hi, np.array([cfg.use_pct]), poly, parity, q,
        _parity_cell_terms(cell_lo, cell_hi, parity) if cfg.use_pct else None,
    )
    return StepResult(
        u_hat=u_hat[0],
        x_box=Box(x_lo[0], x_hi[0]),
        y_box=Box(y_lo[0], y_hi[0]),
        flag=int(flag[0]),
        rank=int(pick[0]) + 1,
        n_consistent=int(n_consistent[0]),
    )


def decode_sequence(r, poly, parity, q, ch, cfg, x_range):
    """Decode a whole stream of received soft bits.

    Parameters
    ----------
    r : (T, total_bits) soft channel outputs, one row per instant
    poly, parity, q, ch : the transmit chain's own components
    cfg : DecoderConfig
    x_range : Interval of admissible input sample values

    The decoded index vectors are dequantized and synthesized by
    windowed least squares (cfg.window), exactly like the classical
    receiver; each instant's verified box is widened about that point
    so the reported center equals the estimate while still containing
    everything the original box did.

    Returns (x_hat, diag): the point estimate of length T*N and
    per-instant diagnostics including the final boxes.
    """
    return decode_streams([r], poly, parity, q, [ch], [cfg], x_range)[0][0]


def decode_streams(rs, poly, parity, q, channels, cfgs, x_range):
    """Decode several received streams, each under several decoder
    configs, in lockstep.

    Parameters
    ----------
    rs : S arrays of shape (T, total_bits), soft bits of equal length
    poly, parity, q : the transmit chain's own components
    channels : S ChannelModel, the channel each stream went through
    cfgs : V DecoderConfig that differ at most in use_pct and window
    x_range : Interval of admissible input sample values

    The candidate lists of all S streams are built in one listing pass
    over their S*T instants, each row scored with its own channel's
    noise variance, and each stream's lists are shared by its V
    decoders.  All S*V decoders advance together, and the S streams of
    each config are synthesized in one stacked call (synthesize_ls with
    a leading stream axis).  Each decodes exactly as decode_sequence
    decodes it alone.

    Returns results with results[s][v] = (x_hat, diag), the output of
    decode_sequence(rs[s], ..., channels[s], cfgs[v], x_range).
    """
    cfgs = list(cfgs)
    if len(rs) == 0:
        raise ValueError("decode_streams needs at least one stream")
    if not cfgs:
        raise ValueError("decode_streams needs at least one decoder config")
    n_max = cfgs[0].n_max
    if any(c.n_max != n_max for c in cfgs):
        raise ValueError("lockstep decoders must share n_max")
    if len(rs) != len(channels):
        raise ValueError("expected one channel per stream")
    rs = [_soft_bits(r, q) for r in rs]
    S, T, V = len(rs), rs[0].shape[0], len(cfgs)
    if any(r.shape[0] != T for r in rs):
        raise ValueError("lockstep streams must have equal length")
    sig2 = np.repeat([ch.effective_sigma2() for ch in channels], T)[:, None]
    u = _candidate_lists(np.concatenate(rs), q, sig2, n_max)[0]
    u = u.reshape(S, T, *u.shape[1:])  # (S, T, K, M)
    cell_lo, cell_hi = q.cell_bounds(u)
    B = S * V
    src = np.repeat(np.arange(S), V) if V > 1 else slice(None)  # b = s * V + v reads list s
    use_pct = np.array([c.use_pct for c in cfgs] * S)
    # the (S, T, K, rows) parity cell terms, when a decoder reads them
    terms = _parity_cell_terms(cell_lo, cell_hi, parity) if use_pct.any() else None
    N, M = poly.N, poly.M
    input_box = Box.uniform(x_range.lo, x_range.hi, N)
    state = DecoderState.initial(input_box, poly, parity, streams=B)
    offsets = _offset_buffers(input_box, B, u.shape[2], M)
    u_hat = np.empty((B, T, M), dtype=np.int64)
    lo = np.empty((B, T, N))
    hi = np.empty((B, T, N))
    flags = np.empty((B, T), dtype=np.int64)
    ranks = np.empty((B, T), dtype=np.int64)
    n_consistent = np.empty((B, T), dtype=np.int64)
    for i in range(T):
        u_hat[:, i], lo[:, i], hi[:, i], _, _, flags[:, i], pick, n_consistent[:, i] = _advance(
            state, u[src, i], cell_lo[src, i], cell_hi[src, i], use_pct, poly, parity, q,
            terms and (terms[0][src, i], terms[1][src, i]), offsets,
        )
        ranks[:, i] = pick + 1
    x_hat = np.empty((B, T * N))
    for v, cfg in enumerate(cfgs):  # streams v, v + V, ... decode under cfgs[v]
        x_hat[v::V] = synthesize_ls(poly, q.dequantize_block(u_hat[v::V]), window=cfg.window)
    # widen each verified box symmetrically about the point estimate
    pts = x_hat.reshape(B, T, N)
    rad = np.maximum(np.maximum(pts - lo, hi - pts), 0.0)
    x_lo, x_hi, box_width_max = pts - rad, pts + rad, (2.0 * rad).max(axis=2)
    results = [
        (x_hat[b], DecodeDiagnostics(flags[b], ranks[b], n_consistent[b], box_width_max[b],
                                     x_lo[b], x_hi[b], u_hat[b]))
        for b in range(B)
    ]
    return [results[s * V:(s + 1) * V] for s in range(S)]


def decode_classical(r, poly, q, window=8):
    """Reference receiver: per-bit hard decisions, dequantization, and
    windowed least-squares synthesis.  No consistency information.

    r holds the (T, total_bits) soft bits of one stream, or a stack
    (..., T, total_bits) of streams of equal length; the hard decisions
    of all of them are index-decoded together and synthesized in one
    stacked call.  Returns (..., T*N) signals, each bit for bit the
    stream's own decode.
    """
    bits = ChannelModel.hard_decision(_soft_bits(r, q, stacked=True))
    u = q.decode_stream(bits.reshape(-1, q.total_bits))
    y = q.dequantize_block(u).reshape(*bits.shape[:-1], q.M)
    return synthesize_ls(poly, y, window=window)
