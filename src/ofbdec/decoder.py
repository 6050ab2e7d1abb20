"""Candidate-list decoding of quantized subband streams with
consistency testing.

Per instant the decoder (1) lists the most likely index vectors given
the channel's soft outputs, (2) discards candidates whose quantization
cells cannot be reached by any admissible input signal given the boxes
decoded for the previous instants, (3) optionally also requires
candidates to be compatible with the parity bank, and (4) returns the
first survivor in likelihood order together with its signal box.

The consistency test (2) bounds the polytope of admissible current
input blocks, {x in input box : E_0 x in cells - history reach}, with
LP-dual certificates cached per bank (Polyphase.consistency_certificates)
in one step of two matrix products: on banks small enough to enumerate
they give its exact box hull, and Farkas circuits prove it empty;
larger banks get the certificates of the bases near the input box,
whose box is a sound outer bound.  The scipy LP hull in the interval
module serves the tests as an oracle.

Decoding runs in lockstep: B independent streams advance one instant at
a time together, their histories held as arrays of shape (B, L, N) and
(B, L', M), so each of the steps above is one numpy pass over all B*K
candidates.  The candidate lists of a stream are built beforehand, for
all instants at once, and shared by every decoder variant that reads
the same soft bits.  A single stream (decode_sequence, step) is the
case B = 1.  Every matrix product keeps the shape it has for one
stream, so a stream decodes bit for bit the same whatever else runs
beside it.

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
from .filterbank import synthesize_ls
from .interval import Box, _certificate_hull

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
# chunk * (frontier pairs of a stage) merged partial vectors, or chunk *
# 2^R * R soft-bit distances of an R-bit subband; a tie fallback merges
# at most this many of its full P * S pairs at once
_LIST_CHUNK_ELEMENTS = 2**15
# smallest accepted config values; the bank-dependent window floor,
# 2*(L+1), is checked by synthesize_ls and when a Pipeline is built
_CONFIG_FLOORS = {"n_max": 1, "window": 2}


def _check_integer(name, value):
    """Reject a config value that is not an integer (or numpy integer)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


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
        for name, floor in _CONFIG_FLOORS.items():
            value = getattr(self, name)
            _check_integer(name, value)
            if value < floor:
                raise ValueError(f"{name} must be at least {floor}")
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
        exact for streams whose pre-start blocks are zero."""
        if input_box.dim != poly.N:
            raise ValueError(f"input box has dimension {input_box.dim}, the bank's N is {poly.N}")
        x = (streams, poly.L, poly.N)
        y = (streams, parity.order, poly.M)
        return cls(input_box, np.zeros(x), np.zeros(x), np.zeros(y), np.zeros(y))

    def _push(self, x_lo, x_hi, y_lo, y_hi):
        """Push (B, N) signal and (B, M) subband box endpoints."""
        if self.x_lo.shape[1]:
            self.x_lo = np.concatenate([x_lo[:, None], self.x_lo[:, :-1]], axis=1)
            self.x_hi = np.concatenate([x_hi[:, None], self.x_hi[:, :-1]], axis=1)
        if self.y_lo.shape[1]:
            self.y_lo = np.concatenate([y_lo[:, None], self.y_lo[:, :-1]], axis=1)
            self.y_hi = np.concatenate([y_hi[:, None], self.y_hi[:, :-1]], axis=1)


def _matvec(A, X):
    """A @ x for every row x of X, each rounded exactly like the single
    matrix-vector product (a batched matmul of (n, 1) columns)."""
    return np.matmul(A, X[..., None])[..., 0]


def _soft_bits(r, q):
    """r as a (T, total_bits) float array, checked to hold finite soft
    bits of the right width: the input check of both receivers."""
    r = np.asarray(r, dtype=float)
    if r.ndim != 2 or r.shape[1] != q.total_bits:
        raise ValueError(f"expected {q.total_bits} bits per instant")
    if not np.all(np.isfinite(r)):
        raise ValueError("soft bits must be finite")
    return r


def _candidate_lists(r, q, sig2, n_max):
    """The n_max most likely index vectors of every instant, best first.

    r is a (T, total_bits) array of soft bits.  Returns (u, scores):
    the (T, K, M) index vectors and their (T, K) log-likelihoods, K
    being the list length (n_max, or fewer when the bank has fewer
    index vectors).  Instants are listed in chunks whose length comes
    from the widest array a stage builds: its frontier pairs (see
    _merge_pairs), not all n_max^2 of them, or its soft-bit distances;
    each such array, and each tie fallback's sub-chunk, holds at most
    _LIST_CHUNK_ELEMENTS elements.
    """
    r = _soft_bits(r, q)
    T = r.shape[0]
    K = widest = 1
    for R in q.rates:
        S = min(n_max, 1 << int(R))
        widest = max(widest, _merge_pairs(K, S, n_max)[0].size, (1 << int(R)) * int(R))
        K = min(n_max, K * S)
    u = np.empty((T, K, q.M), dtype=np.int64)
    scores = np.empty((T, K))
    chunk = max(1, _LIST_CHUNK_ELEMENTS // widest)
    for t in range(0, T, chunk):
        u[t:t + chunk], scores[t:t + chunk] = _list_chunk(r[t:t + chunk], q, sig2, n_max)
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
    vectors.

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
    part_u = np.zeros((C, 1, 0), dtype=np.int64)
    part_scores = np.zeros((C, 1))
    part_rank = np.zeros((C, 1), dtype=np.int64)  # lexicographic rank
    for m in range(q.M):
        codes = q.index_codes(m)
        symbols = 1.0 - 2.0 * codes.astype(float)
        rm = r[:, q.bit_slices[m]]
        scores = -np.sum((rm[:, None, :] - symbols) ** 2, axis=2) / (2.0 * sig2)
        # ties keep index order, which is ascending u
        stage = np.argsort(-scores, axis=1, kind="stable")[:, :n_max]
        stage_scores = np.take_along_axis(scores, stage, axis=1)

        P, S = part_scores.shape[1], stage.shape[1]
        n_codes = codes.shape[0]
        pair_p, pair_s, front_p, front_s = _merge_pairs(P, S, n_max)
        new_scores = part_scores[:, pair_p] + stage_scores[:, pair_s]
        lex = part_rank[:, pair_p] * n_codes + stage[:, pair_s]
        order = _best_first(-new_scores, lex, n_max)
        parent, col = pair_p[order], pair_s[order]
        if front_p.size:
            beyond = np.max(part_scores[:, front_p] + stage_scores[:, front_s], axis=1)
            nth = np.take_along_axis(new_scores, order[:, -1:], axis=1)[:, 0]
            tied = np.flatnonzero(beyond >= nth)
            sub = max(1, _LIST_CHUNK_ELEMENTS // (P * S))
            for i in range(0, tied.size, sub):
                rows = tied[i:i + sub]
                full_scores = part_scores[rows, :, None] + stage_scores[rows, None, :]
                full_lex = part_rank[rows, :, None] * n_codes + stage[rows, None, :]
                shape = (rows.size, P * S)
                full = _best_first(-full_scores.reshape(shape), full_lex.reshape(shape), n_max)
                parent[rows], col[rows] = full // S, full % S
        picked = np.take_along_axis(stage, col, axis=1)
        part_u = np.concatenate(
            [np.take_along_axis(part_u, parent[:, :, None], axis=1),
             (picked - q.offsets[m])[:, :, None]],
            axis=2,
        )
        part_scores = (
            np.take_along_axis(part_scores, parent, axis=1)
            + np.take_along_axis(stage_scores, col, axis=1)
        )
        kept = np.take_along_axis(part_rank, parent, axis=1) * n_codes + picked
        part_rank = np.argsort(np.argsort(kept, axis=1), axis=1)
    return part_u, part_scores


def _best_first(neg, lex, n):
    """Column indexes of the n smallest entries of each row of neg,
    ordered by (neg, lex), the lex entries of a row being distinct.

    Only entries no larger than a row's n-th smallest value can be
    among its first n, so a partition finds them and only they are
    sorted; the rows' shorter selections are padded with entries that
    sort last.
    """
    n = min(n, neg.shape[1])
    nth = np.partition(neg, n - 1, axis=1)[:, n - 1:n]
    near = neg <= nth
    cols = np.argsort(~near, axis=1, kind="stable")[:, :int(near.sum(axis=1).max())]
    pad = ~np.take_along_axis(near, cols, axis=1)
    sub_neg = np.where(pad, np.inf, np.take_along_axis(neg, cols, axis=1))
    sub_lex = np.where(pad, np.iinfo(np.int64).max, np.take_along_axis(lex, cols, axis=1))
    return np.take_along_axis(cols, np.lexsort((sub_lex, sub_neg), axis=1)[:, :n], axis=1)


def top_candidates(r, q, ch, n_max):
    """The n_max most likely index vectors for one instant's soft bits.

    Exact breadth-first search over subbands (see _list_chunk), the
    one-instant case of the listing decode_streams runs over whole
    streams.

    Returns a list of Candidate, best first.
    """
    r = np.asarray(r, dtype=float).reshape(1, -1)
    u, scores = _candidate_lists(r, q, ch.effective_sigma2(), n_max)
    return [
        Candidate(u=u[0, k].copy(), loglik=float(scores[0, k]), rank=k + 1)
        for k in range(u.shape[1])
    ]


def _history_reach(state, poly):
    """Interval sum of E_l applied to each stream's previous signal
    boxes, i.e. the subband contribution already fixed by the decoding
    history: (lo, hi), each of shape (B, M)."""
    B = state.x_lo.shape[0]
    c = np.zeros((B, poly.M))
    rdy = np.zeros((B, poly.M))
    for l in range(1, poly.L + 1):
        lo, hi = state.x_lo[:, l - 1], state.x_hi[:, l - 1]
        c = c + _matvec(poly.E[l], 0.5 * (lo + hi))
        rdy = rdy + _matvec(np.abs(poly.E[l]), 0.5 * (hi - lo))
    return c - rdy, c + rdy


def _consistency_batch(cell_lo, cell_hi, state, poly):
    """Box of the input blocks that can reach each candidate's cells,
    for every stream at once.

    cell_lo, cell_hi are the (B, K, M) cell endpoints of each stream's
    K candidates.  Returns (lo, hi, empty): (B, K, N) endpoint arrays
    and the (B, K) mask of candidates proven inconsistent.

    The polytope {x : x in input box, E_0 x in [c]}, [c] being the cells
    minus the history reach, is bounded by one step over the bank's
    consistency certificates: two matrix products.  On banks whose
    subsets all fit under HULL_SUBSET_CAP the set is exact: its box is
    the polytope's hull, and its circuits prove EMPTY exactly the
    candidates no input reaches.  On larger banks the box encloses the
    hull and EMPTY is proven only where a circuit of the bases near the
    input box reaches.
    """
    B, K, _ = cell_lo.shape
    N = poly.N
    reach_lo, reach_hi = _history_reach(state, poly)
    c_lo = cell_lo - reach_hi[:, None, :]
    c_hi = cell_hi - reach_lo[:, None, :]
    input_box = state.input_box
    cert = poly.consistency_certificates()
    l = np.concatenate([np.broadcast_to(input_box.lo, (B, K, N)), c_lo], axis=2)
    u = np.concatenate([np.broadcast_to(input_box.hi, (B, K, N)), c_hi], axis=2)
    return _certificate_hull(cert, l, u)


def consistency_box(u, state, poly, q):
    """Contracted box of input blocks that can produce subband values in
    the cells of index vector u, given the decoded history; EMPTY when
    the candidate is proven inconsistent.  On a bank under the cap this
    is the exact box hull of those inputs; above it, an outer bound of
    that hull.  The one-candidate case of _consistency_batch."""
    cell_lo, cell_hi = q.cell_bounds(np.asarray(u, dtype=np.int64).reshape(1, 1, -1))
    lo, hi, empty = _consistency_batch(cell_lo, cell_hi, state, poly)
    if empty[0, 0]:
        return Box.empty(poly.N)
    return Box(lo[0, 0], hi[0, 0])


def _parity_residual_bounds(cell_lo, cell_hi, y_lo, y_hi, parity):
    """Endpoints of the parity residual interval of every candidate:
    sum_l P_l [y-hist] plus P_0 applied to the candidate's cells.

    cell_lo, cell_hi: (B, K, M) candidate cells; y_lo, y_hi: (B, L', M)
    subband histories.  Returns two (B, K, rows) arrays.
    """
    B = cell_lo.shape[0]
    hc = np.zeros((B, parity.rows))
    hr = np.zeros((B, parity.rows))
    for l in range(1, parity.order + 1):
        lo, hi = y_lo[:, l - 1], y_hi[:, l - 1]
        hc = hc + _matvec(parity.P[l], 0.5 * (lo + hi))
        hr = hr + _matvec(np.abs(parity.P[l]), 0.5 * (hi - lo))
    cc = 0.5 * (cell_lo + cell_hi) @ parity.P[0].T
    cr = 0.5 * (cell_hi - cell_lo) @ np.abs(parity.P[0]).T
    lo = cc + hc[:, None] - (cr + hr[:, None])
    hi = cc + hc[:, None] + (cr + hr[:, None])
    return lo, hi


def _parity_pass(lo, hi):
    eps = _PARITY_RTOL * (1.0 + np.abs(lo) + np.abs(hi))
    return np.all((lo <= eps) & (hi >= -eps), axis=-1)


def parity_test(u, state, parity, q):
    """True (keep) iff every parity residual component can be zero when
    the candidate's subbands roam their cells and the previous subbands
    roam their decoded boxes.  A False is a proof of infeasibility."""
    cell_lo, cell_hi = q.cell_bounds(np.asarray(u, dtype=np.int64).reshape(1, 1, -1))
    lo, hi = _parity_residual_bounds(cell_lo, cell_hi, state.y_lo, state.y_hi, parity)
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


def _advance(state, u, cell_lo, cell_hi, use_pct, poly, parity, q):
    """Decode one instant of B streams and push their boxes onto the
    history.

    u holds each stream's (B, K, M) candidates in likelihood order and
    cell_lo, cell_hi their cells; use_pct is a (B,) mask.  Candidates
    are scanned in likelihood order: the consistency test prunes first;
    on streams with use_pct the parity test then picks the first
    survivor it accepts (falling back to the first survivor with an
    error flag when it accepts none).  When consistency rejects
    everything, the flagged hard-decision fallback is returned.

    Returns (u_hat, x_lo, x_hi, y_lo, y_hi, flag, pick, n_consistent),
    one row per stream; pick is the 0-based list position decided.
    """
    B = u.shape[0]
    rows = np.arange(B)
    lo, hi, empty = _consistency_batch(cell_lo, cell_hi, state, poly)
    live = ~empty
    n_consistent = np.count_nonzero(live, axis=1)
    pick = np.argmax(live, axis=1)
    flag = np.where(n_consistent > 0, FLAG_CLEAN, FLAG_NO_CONSISTENT)
    par = np.flatnonzero(use_pct & (n_consistent > 0))
    if par.size:
        plo, phi = _parity_residual_bounds(
            cell_lo[par], cell_hi[par], state.y_lo[par], state.y_hi[par], parity
        )
        ok = np.zeros_like(live[par])
        ok[live[par]] = _parity_pass(plo[live[par]], phi[live[par]])
        found = ok.any(axis=1)
        pick[par] = np.where(found, np.argmax(ok, axis=1), pick[par])
        flag[par] = np.where(found, FLAG_CLEAN, FLAG_PARITY_EXHAUSTED)
    x_lo = lo[rows, pick]
    x_hi = hi[rows, pick]
    fb = np.flatnonzero(n_consistent == 0)
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
        state, u, cell_lo, cell_hi, np.array([cfg.use_pct]), poly, parity, q
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

    Each stream's candidate lists are built once and shared by its V
    decoders, and all S*V decoders advance together.  Each decodes
    exactly as decode_sequence decodes it alone.

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
    lists = [
        _candidate_lists(r, q, ch.effective_sigma2(), n_max)[0]
        for r, ch in zip(rs, channels)
    ]
    T = lists[0].shape[0]
    if any(u.shape[0] != T for u in lists):
        raise ValueError("lockstep streams must have equal length")
    u = np.stack(lists)  # (S, T, K, M)
    cell_lo, cell_hi = q.cell_bounds(u)
    S, V = len(lists), len(cfgs)
    B = S * V
    src = np.repeat(np.arange(S), V)  # stream b = s * V + v reads list s
    use_pct = np.array([c.use_pct for c in cfgs] * S)
    N, M = poly.N, poly.M
    input_box = Box.uniform(x_range.lo, x_range.hi, N)
    state = DecoderState.initial(input_box, poly, parity, streams=B)
    u_hat = np.empty((B, T, M), dtype=np.int64)
    lo = np.empty((B, T, N))
    hi = np.empty((B, T, N))
    flags = np.empty((B, T), dtype=np.int64)
    ranks = np.empty((B, T), dtype=np.int64)
    n_consistent = np.empty((B, T), dtype=np.int64)
    for i in range(T):
        u_hat[:, i], lo[:, i], hi[:, i], _, _, flags[:, i], pick, n_consistent[:, i] = _advance(
            state, u[src, i], cell_lo[src, i], cell_hi[src, i], use_pct, poly, parity, q
        )
        ranks[:, i] = pick + 1
    results = [
        _finish(u_hat[b], lo[b], hi[b], flags[b], ranks[b], n_consistent[b], poly, q, cfgs[b % V])
        for b in range(B)
    ]
    return [results[s * V:(s + 1) * V] for s in range(S)]


def _finish(u_hat, lo, hi, flags, ranks, n_consistent, poly, q, cfg):
    """Synthesize a decoded stream and widen its boxes about the point
    estimate: (x_hat, diag)."""
    T, N = lo.shape
    x_hat = synthesize_ls(poly, q.dequantize_block(u_hat), window=cfg.window)
    pts = x_hat.reshape(T, N) if T else np.empty((0, N))
    rad = np.maximum(np.maximum(pts - lo, hi - pts), 0.0)
    x_lo = pts - rad
    x_hi = pts + rad
    width = 2.0 * rad
    box_width_max = width.max(axis=1) if T else np.empty(0)
    diag = DecodeDiagnostics(
        flags, ranks, n_consistent, box_width_max, x_lo, x_hi, u_hat
    )
    return x_hat, diag


def decode_classical(r, poly, q, window=8):
    """Reference receiver: per-bit hard decisions, dequantization, and
    windowed least-squares synthesis.  No consistency information."""
    bits = ChannelModel.hard_decision(_soft_bits(r, q))
    u = q.decode_stream(bits)
    y = q.dequantize_block(u)
    return synthesize_ls(poly, y, window=window)
