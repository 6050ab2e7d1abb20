"""Shared fixtures: the bundled bank pipeline and a tiny bank small
enough for exhaustive and sampling oracles."""

import math

import numpy as np
import pytest

from ofbdec import (
    ChannelModel,
    DecoderState,
    FilterBank,
    Interval,
    allocate_rates,
    analyze,
    default_filter_bank,
    parity_from_polyphase,
    polyphase_from_filters,
    subband_ranges,
)
from ofbdec.interval import _certificate_box, _circuit_empty, _offset_scale

SQ2 = math.sqrt(2.0)


class BankPipeline:
    """A bank with its derived parity, quantizers and input range."""

    def __init__(self, bank, x_range, delta):
        self.bank = bank
        self.poly = polyphase_from_filters(bank)
        self.parity = parity_from_polyphase(self.poly)
        self.x_range = x_range
        self.q = allocate_rates(subband_ranges(self.poly, x_range), delta)

    def encode(self, x):
        """x -> (subband blocks, index blocks, bit stream)."""
        y = analyze(x, self.poly)
        u = self.q.quantize_block(y)
        return y, u, self.q.encode_stream(u)


@pytest.fixture(scope="session")
def default_pipe():
    return BankPipeline(default_filter_bank(), Interval(-4.0, 4.0), 0.72)


@pytest.fixture(scope="session")
def tiny_pipe():
    # M=3, N=2, L=1; two orthonormal length-2 filters and one length-4
    # filter; every subband gets 2 bits at step 1 over inputs in [-1, 1].
    taps = [
        np.array([1.0, 1.0]) / SQ2,
        np.array([1.0, -1.0]) / SQ2,
        np.array([1.0, 1.0, -1.0, -1.0]) / 2.0,
    ]
    bank = FilterBank(3, 2, 1, taps)
    pipe = BankPipeline(bank, Interval(-1.0, 1.0), 1.0)
    assert pipe.q.rates.tolist() == [2, 2, 2]
    return pipe


def code_scores(rm, codes, sig2):
    """The decoder's score of every codeword (row of codes) for the soft
    bits rm: its per-bit squared distances added left to right, MSB
    first, one bit per addition, negated and divided by 2 sig2 once."""
    dist = (rm[None, :] - (1.0 - 2.0 * codes.astype(float))) ** 2
    sums = dist[:, 0]
    for j in range(1, dist.shape[1]):
        sums = sums + dist[:, j]
    return -sums / (2.0 * sig2)


def exhaustive_candidates(r, q, ch):
    """All index vectors ranked exactly like the decoder ranks them:
    decreasing total log-likelihood, ties by ascending index vector.

    The oracle's point is the full enumeration (no pruning); per-subband
    scores deliberately use the decoder's arithmetic (code_scores) so
    the two rankings can be compared for exact equality instead of up
    to float rounding.
    """
    r = np.asarray(r, dtype=float)
    sig2 = ch.effective_sigma2()
    grids = [np.arange(-q.offsets[m], q.offsets[m]) for m in range(q.M)]
    mesh = np.meshgrid(*grids, indexing="ij")
    u_all = np.stack([g.ravel() for g in mesh], axis=1)
    scores = np.zeros(u_all.shape[0])
    for m in range(q.M):
        per_index = code_scores(r[q.bit_slices[m]], q.index_codes(m), sig2)
        scores = scores + per_index[u_all[:, m] + q.offsets[m]]
    keys = [u_all[:, k] for k in range(u_all.shape[1] - 1, -1, -1)]
    keys.append(-scores)
    order = np.lexsort(keys)
    return u_all[order], scores[order]


def noisy_streams(pipe, n, snrs, seed):
    """Soft bits of one source realization through channels at several
    SNRs: (channels, received streams)."""
    rng = np.random.default_rng(seed)
    N, L = pipe.poly.N, pipe.poly.L
    lo, hi = pipe.x_range.lo, pipe.x_range.hi
    x = np.concatenate([np.zeros(N * L), np.clip(rng.normal(0.0, 0.6 * hi, size=n), lo, hi)])
    _, _, bits = pipe.encode(x)
    channels = [ChannelModel(snr, seed=seed) for snr in snrs]
    rs = [ch.transmit(bits, ch.stream(j)) for j, ch in enumerate(channels)]
    return channels, rs


def centred(l, u):
    """The centre, radius and scale of offsets [l, u], the arguments of
    the certificate steps."""
    c = 0.5 * (l + u)
    r = 0.5 * (u - l)
    return c, r, _offset_scale(c, r)


def certificate_hull(cert, l, u):
    """The verdict step and the box step on every row of the offsets:
    (lo, hi, empty), EMPTY where a circuit or crossed bounds prove it."""
    offsets = centred(l, u)
    lo, hi, crossed = _certificate_box(cert, *offsets)
    return lo, hi, _circuit_empty(cert, *offsets) | crossed


def one_stream_state(input_box, x_hist=(), y_hist=()):
    """A one-stream DecoderState whose history holds the given boxes,
    most recent first."""

    def ends(boxes, dim):
        shape = (1, len(boxes), dim)
        return (np.array([b.lo for b in boxes]).reshape(shape),
                np.array([b.hi for b in boxes]).reshape(shape))

    y_dim = y_hist[0].dim if y_hist else 0
    return DecoderState(input_box, *ends(x_hist, input_box.dim), *ends(y_hist, y_dim))


def sample_feasible_indexes(state, pipe, rng, n_samples=100_000):
    """Sampling feasibility oracle: index vectors reachable from the
    current history boxes, found by pushing random admissible inputs
    through the bank.  Returns a set of index tuples."""
    poly, q = pipe.poly, pipe.q
    x = rng.uniform(state.input_box.lo, state.input_box.hi,
                    size=(n_samples, poly.N))
    z = x @ poly.E[0].T
    for l in range(1, poly.L + 1):
        h = rng.uniform(state.x_lo[0, l - 1], state.x_hi[0, l - 1], size=(n_samples, poly.N))
        z += h @ poly.E[l].T
    idx = q.quantize_block(z)
    return {tuple(row) for row in idx}


def listed_one_instant(r, q, sig2, n_max):
    """Per-instant breadth-first listing as the decoder first did it:
    one lexsort over whole partial index vectors per subband stage,
    each stage scoring its codewords in index order with code_scores.
    The reference for the batched listing; returns ((K, M) index
    vectors, (K,) scores)."""
    part_u = np.zeros((1, 0), dtype=np.int64)
    part_scores = np.zeros(1)
    for m in range(q.M):
        scores = code_scores(r[q.bit_slices[m]], q.index_codes(m), sig2)
        u_vals = np.arange(scores.size, dtype=np.int64) - q.offsets[m]
        order = np.lexsort((u_vals, -scores))[:n_max]
        stage_u = u_vals[order]
        stage_scores = scores[order]
        P, S = part_scores.size, stage_u.size
        new_scores = (part_scores[:, None] + stage_scores[None, :]).ravel()
        new_u = np.concatenate(
            [np.repeat(part_u, S, axis=0), np.tile(stage_u, P)[:, None]], axis=1
        )
        keys = [new_u[:, k] for k in range(new_u.shape[1] - 1, -1, -1)]
        keys.append(-new_scores)
        order = np.lexsort(keys)[:n_max]
        part_u = new_u[order]
        part_scores = new_scores[order]
    return part_u, part_scores
