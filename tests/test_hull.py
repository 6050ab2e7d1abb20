"""The consistency hull from LP-dual certificates: the enumerated bank
data, the capped set of banks above the cap, and property tests against
the scipy LP hull over random small banks."""

import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from conftest import BankPipeline, noisy_streams, one_stream_state
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ofbdec import (
    Box,
    ChannelModel,
    DecoderConfig,
    DecoderState,
    Interval,
    Polyphase,
    consistency_box,
    decode_sequence,
    load_filter_bank,
    polyphase_from_filters,
    step,
    top_candidates,
)
from ofbdec import decoder, filterbank
from ofbdec.decoder import _consistency_batch, _history_reach
from ofbdec.filterbank import HULL_SUBSET_CAP
from ofbdec.interval import HullCertificates, _certificate_hull, box_hull_lp

DATA = Path(__file__).parent / "data"


def walsh_poly():
    return polyphase_from_filters(load_filter_bank(DATA / "walsh_12x8.txt"))


def capped_certificates(poly):
    """The certificate set that banks above HULL_SUBSET_CAP get, built
    for any bank by lowering the cap."""
    with mock.patch.object(filterbank, "HULL_SUBSET_CAP", 0):
        return Polyphase(poly.E).consistency_certificates()


class TestEnumeration:
    def test_default_bank(self, default_pipe):
        cert = default_pipe.poly.consistency_certificates()
        assert cert.exact
        assert (cert.bases, cert.circuits) == (129, 50)
        assert cert.per_coordinate == (24, 24, 24, 24)
        assert cert.G.shape == (10, 50 + 4 * 24)
        assert cert.slack < 1e-14
        assert default_pipe.poly.consistency_certificates() is cert

    def test_tiny_bank(self, tiny_pipe):
        # rows e1, e2 of I_2 and r1, r2, r3 of E_0, with r3 parallel to
        # r1: {r1, r3} is the one singular pair and a circuit of two
        # rows; every triple without that pair is a circuit of three
        cert = tiny_pipe.poly.consistency_certificates()
        assert (cert.bases, cert.circuits) == (9, 1 + 7)
        supports = sorted(np.count_nonzero(y) for y in cert.G[:, :cert.circuits].T)
        assert supports == [2] + [3] * 7

    def test_wide_bank_above_cap(self):
        """Above the cap: per coordinate the input-box row and the pinv
        row, no circuits, each column a dual certificate within slack."""
        poly = walsh_poly()
        cert = poly.consistency_certificates()
        assert not cert.exact
        assert (cert.bases, cert.circuits) == (0, 0)
        assert cert.per_coordinate == (2,) * 8
        A = np.vstack([np.eye(8), poly.E[0]])
        for k in range(8):
            Z = cert.G[:, cert.starts[k]:cert.starts[k] + 2]
            assert np.all(np.sum(np.abs(Z.T @ A - np.eye(8)[k]), axis=1) <= cert.slack)
        assert cert.slack < 1e-13
        assert poly.consistency_certificates() is cert

    def test_wide_bank_box_is_the_pinv_prefilter(self):
        """On the Walsh bank the capped set's box is the input box
        intersected with the interval image pinv(E_0) [c], computed here
        from left_inverse(), up to the slack widening, with the same
        EMPTY verdicts."""
        poly = walsh_poly()
        cert = poly.consistency_certificates()
        rng = np.random.default_rng(5)
        R, N, M = 400, poly.N, poly.M
        x = rng.uniform(-4.0, 4.0, (R, N))
        shift = rng.normal(0.0, 3.0, (R, M)) * (rng.random((R, 1)) < 0.5)
        rad = rng.uniform(0.1, 0.5, (R, M))
        c_lo = x @ poly.E[0].T + shift - rad
        c_hi = c_lo + 2.0 * rad
        W = poly.left_inverse()
        px_c = 0.5 * (c_lo + c_hi) @ W.T
        px_r = 0.5 * (c_hi - c_lo) @ np.abs(W).T
        ref_lo = np.maximum(-4.0, px_c - px_r)
        ref_hi = np.minimum(4.0, px_c + px_r)
        gap = ref_lo - ref_hi
        ref_empty = np.any(gap > 1e-12 * (1.0 + np.abs(ref_lo) + np.abs(ref_hi)), axis=1)
        mid = 0.5 * (ref_lo + ref_hi)
        ref_lo, ref_hi = np.where(gap > 0.0, mid, ref_lo), np.where(gap > 0.0, mid, ref_hi)
        l = np.hstack([np.full((R, N), -4.0), c_lo])
        u = np.hstack([np.full((R, N), 4.0), c_hi])
        lo, hi, empty = _certificate_hull(cert, l, u)
        assert np.array_equal(empty, ref_empty)
        assert 0 < empty.sum() < R
        # the widening slack * scale, plus the rounding of the products
        scale = 1.0 + np.max(np.abs(0.5 * (l + u)), axis=1) + np.max(0.5 * (u - l), axis=1)
        tol = 2.0 * cert.slack * scale
        assert np.all(np.abs(lo - ref_lo) <= tol[:, None])
        assert np.all(np.abs(hi - ref_hi) <= tol[:, None])

    def test_rank_deficient_wide_bank_gets_box_rows_only(self):
        E = walsh_poly().E.copy()
        E[0, :, 7] = E[0, :, 0]
        cert = Polyphase(E).consistency_certificates()
        assert math.comb(8 + 12, 8) > HULL_SUBSET_CAP
        assert not cert.exact
        assert (cert.circuits, cert.per_coordinate) == (0, (1,) * 8)
        assert np.array_equal(cert.G, np.eye(20, 8))
        assert cert.slack == 0.0

    def test_columns_are_dual_certificates(self, default_pipe):
        E0 = default_pipe.poly.E[0]
        A = np.vstack([np.eye(4), E0])
        cert = default_pipe.poly.consistency_certificates()
        Y = cert.G[:, :cert.circuits]
        assert np.allclose(Y.T @ A, 0.0, atol=1e-14)
        assert np.allclose(np.abs(Y).sum(axis=0), 1.0)
        for k in range(4):
            start = cert.circuits + cert.starts[k]
            Z = cert.G[:, start:start + cert.per_coordinate[k]]
            assert np.allclose(Z.T @ A, np.eye(4)[k], atol=1e-14)

    def test_circuits_are_minimal(self, default_pipe):
        E0 = default_pipe.poly.E[0]
        A = np.vstack([np.eye(4), E0])
        cert = default_pipe.poly.consistency_certificates()
        for y in cert.G[:, :cert.circuits].T:
            support = np.flatnonzero(y)
            assert np.linalg.matrix_rank(A[support]) == support.size - 1

    def test_dependent_columns_rejected(self):
        with pytest.raises(ValueError, match="no nonsingular basis"):
            HullCertificates(np.array([[1.0, 1.0], [2.0, 2.0]]))

    def test_prefilter_not_used_under_the_cap(self, default_pipe, monkeypatch):
        p = default_pipe

        def no_pinv():
            raise AssertionError("pinv prefilter ran")

        monkeypatch.setattr(p.poly, "left_inverse", no_pinv)
        state = one_stream_state(Box.uniform(-4.0, 4.0, 4), [Box.point(np.zeros(4))])
        u = p.q.quantize_block((p.poly.E[0] @ np.array([0.3, -1.0, 2.0, 0.5]))[None])[0]
        assert not consistency_box(u, state, p.poly, p.q).is_empty


# -- property tests over random small banks --------------------------------

GRID = 0.25  # cell ends, inputs and history ends lie on this grid


@st.composite
def small_banks(draw):
    """Polyphase matrices with M <= 5, N <= 3, L <= 2 and half-integer
    entries; in about one case of three E_0 repeats a column, so that
    it lacks full column rank."""
    N = draw(st.integers(1, 3))
    M = draw(st.integers(N + 1, 5))
    L = draw(st.integers(0, 2))
    taps = draw(st.lists(st.integers(-4, 4), min_size=(L + 1) * M * N, max_size=(L + 1) * M * N))
    E = np.array(taps, dtype=float).reshape(L + 1, M, N) / 2.0
    if N > 1 and draw(st.integers(0, 2)) == 0:
        E[0, :, N - 1] = E[0, :, 0]
    return Polyphase(E)


def instance(poly, seed, K=6):
    """A one-stream history and the (1, K, M) cells of K candidates:
    cells around the subbands of a true input, some of them shifted so
    that a share of the candidates is infeasible."""
    rng = np.random.default_rng(seed)
    N, M, L = poly.N, poly.M, poly.L
    grid = lambda lo, hi, size: GRID * rng.integers(round(lo / GRID), round(hi / GRID) + 1, size)
    input_box = Box.uniform(-1.0, 1.0, N)
    hist = []
    for _ in range(L):
        a, b = grid(-1.0, 1.0, N), grid(-1.0, 1.0, N)
        hist.append(Box(np.minimum(a, b), np.maximum(a, b)))
    state = one_stream_state(input_box, hist)
    cell_lo = np.empty((1, K, M))
    cell_hi = np.empty((1, K, M))
    for k in range(K):
        x = grid(-1.0, 1.0, N)
        y = poly.E[0] @ x + sum(poly.E[l] @ hist[l - 1].center for l in range(1, L + 1))
        shift = grid(-1.5, 1.5, M) * (rng.random(M) < 0.3)
        cell_lo[0, k] = y - grid(0.0, 0.5, M) + shift
        cell_hi[0, k] = y + grid(0.0, 0.5, M) + shift
    return state, cell_lo, cell_hi


def lp_hulls(poly, state, cell_lo, cell_hi):
    """box_hull_lp of every candidate, the history entering through its
    interval reach as in the decoder."""
    reach_lo, reach_hi = _history_reach(state, poly)
    c_lo = cell_lo - reach_hi[:, None, :]
    c_hi = cell_hi - reach_lo[:, None, :]
    hulls = [box_hull_lp(poly.E[0], state.input_box, Box(lo, hi)) for lo, hi in zip(c_lo[0], c_hi[0])]
    return hulls, c_lo, c_hi


def offsets(state, c_lo, c_hi):
    """The (l, u) offsets of [I_N; E_0] x: the input box, then [c]."""
    shape = c_lo.shape[:2] + (state.input_box.dim,)
    l = np.concatenate([np.broadcast_to(state.input_box.lo, shape), c_lo], axis=2)
    u = np.concatenate([np.broadcast_to(state.input_box.hi, shape), c_hi], axis=2)
    return l, u


def assert_equals_hull(lo, hi, empty, hulls):
    for k, hull in enumerate(hulls):
        assert bool(empty[k]) == hull.is_empty, (k, hull)
        if not hull.is_empty:
            assert np.all(np.abs(lo[k] - hull.lo) <= 1e-9 * (1.0 + np.abs(hull.lo)))
            assert np.all(np.abs(hi[k] - hull.hi) <= 1e-9 * (1.0 + np.abs(hull.hi)))


PROPERTY = settings(
    max_examples=60, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@PROPERTY
@given(poly=small_banks(), seed=st.integers(0, 2**32 - 1))
def test_certificate_box_is_the_lp_hull(poly, seed):
    """Bounds within 1e-9 of the LP hull, and EMPTY exactly when the LP
    is infeasible: never for a feasible candidate."""
    state, cell_lo, cell_hi = instance(poly, seed)
    hulls, c_lo, c_hi = lp_hulls(poly, state, cell_lo, cell_hi)
    lo, hi, empty = _certificate_hull(poly.consistency_certificates(), *offsets(state, c_lo, c_hi))
    assert_equals_hull(lo[0], hi[0], empty[0], hulls)


@PROPERTY
@given(poly=small_banks(), seed=st.integers(0, 2**32 - 1))
def test_capped_set_encloses_the_lp_hull(poly, seed):
    """The capped set's box contains the LP hull, and it never claims
    EMPTY for a feasible candidate."""
    cert = capped_certificates(poly)
    assert not cert.exact and cert.circuits == 0
    state, cell_lo, cell_hi = instance(poly, seed)
    hulls, c_lo, c_hi = lp_hulls(poly, state, cell_lo, cell_hi)
    lo, hi, empty = _certificate_hull(cert, *offsets(state, c_lo, c_hi))
    for k, hull in enumerate(hulls):
        if not hull.is_empty:
            assert not empty[0, k], k
            assert np.all(lo[0, k] <= hull.lo + 1e-9 * (1.0 + np.abs(hull.lo)))
            assert np.all(hi[0, k] >= hull.hi - 1e-9 * (1.0 + np.abs(hull.hi)))


@PROPERTY
@given(poly=small_banks(), seed=st.integers(0, 2**32 - 1))
def test_consistency_is_the_lp_hull(poly, seed):
    state, cell_lo, cell_hi = instance(poly, seed)
    hulls, _, _ = lp_hulls(poly, state, cell_lo, cell_hi)
    lo, hi, empty = _consistency_batch(cell_lo, cell_hi, state, poly, DecoderConfig())
    assert_equals_hull(lo[0], hi[0], empty[0], hulls)


# -- which banks run the sweep, and the hull on decoded streams -------------


class TestDispatch:
    """Banks under the cap take the certificate hull alone; only banks
    above it run the pinv prefilter and the forward-backward sweep."""

    @pytest.mark.parametrize("bank", ["tiny_pipe", "default_pipe"])
    def test_no_sweep_under_the_cap(self, bank, request, monkeypatch):
        p = request.getfixturevalue(bank)

        def no_sweep(*args):
            raise AssertionError("forward-backward sweep ran")

        monkeypatch.setattr(decoder, "_contract_affine_batch", no_sweep)
        channels, rs = noisy_streams(p, 40 * p.poly.N, (7.0,), seed=3)
        x_hat, diag = decode_sequence(
            rs[0], p.poly, p.parity, p.q, channels[0], DecoderConfig(), p.x_range
        )
        assert x_hat.shape == (rs[0].shape[0] * p.poly.N,)
        assert np.all(diag.n_consistent > 0)

    def test_wide_bank_runs_the_sweep(self, monkeypatch):
        p = BankPipeline(load_filter_bank(DATA / "walsh_12x8.txt"), Interval(-4.0, 4.0), 0.72)
        calls = []
        original = decoder._contract_affine_batch

        def counted(*args):
            calls.append(args[1].shape[0])
            return original(*args)

        monkeypatch.setattr(decoder, "_contract_affine_batch", counted)
        channels, rs = noisy_streams(p, 10 * p.poly.N, (7.0,), seed=3)
        cfg = DecoderConfig(n_max=8)
        decode_sequence(rs[0], p.poly, p.parity, p.q, channels[0], cfg, p.x_range)
        # one call per instant, over that instant's 8 candidates
        assert calls == [8] * rs[0].shape[0]


def test_consistency_on_a_decoded_stream_is_the_lp_hull(default_pipe):
    """On the bundled bank, every listed candidate of a 7 dB stream,
    given the history the decoder built: the LP hull within 1e-9 and
    the same EMPTY verdicts."""
    p = default_pipe
    cfg = DecoderConfig()
    channels, rs = noisy_streams(p, 30 * p.poly.N, (7.0,), seed=17)
    ch, r = channels[0], rs[0]
    input_box = Box.uniform(p.x_range.lo, p.x_range.hi, p.poly.N)
    state = DecoderState.initial(input_box, p.poly, p.parity)
    verdicts = []
    for i in range(r.shape[0]):
        u = np.stack([c.u for c in top_candidates(r[i], p.q, ch, cfg.n_max)])[None]
        cell_lo, cell_hi = p.q.cell_bounds(u)
        lo, hi, empty = _consistency_batch(cell_lo, cell_hi, state, p.poly, cfg)
        hulls, _, _ = lp_hulls(p.poly, state, cell_lo, cell_hi)
        assert_equals_hull(lo[0], hi[0], empty[0], hulls)
        verdicts.extend(empty[0].tolist())
        step(r[i], state, p.poly, p.parity, p.q, ch, cfg)
    assert len(verdicts) == r.shape[0] * cfg.n_max
    assert 0 < sum(verdicts) < len(verdicts)


def assert_sent_blocks_contained(pipe, n_blocks, seed):
    """Decode a noiseless stream through step: every instant picks the
    sent index vector, and its box contains the sent input block."""
    rng = np.random.default_rng(seed)
    N, L = pipe.poly.N, pipe.poly.L
    lo, hi = pipe.x_range.lo, pipe.x_range.hi
    x = np.concatenate([np.zeros(N * L), rng.uniform(lo, hi, n_blocks * N)])
    _, u, bits = pipe.encode(x)
    ch = ChannelModel(7.0, noiseless=True)
    r = ch.transmit(bits, ch.stream(0))
    cfg = DecoderConfig()
    state = DecoderState.initial(Box.uniform(lo, hi, N), pipe.poly, pipe.parity)
    for i, block in enumerate(x.reshape(-1, N)):
        res = step(r[i], state, pipe.poly, pipe.parity, pipe.q, ch, cfg)
        assert np.array_equal(res.u_hat, u[i])
        assert res.x_box.contains(block, tol=1e-9), f"instant {i}: box misses the sent block"


def test_a_hull_that_misses_the_signal_is_caught(default_pipe, monkeypatch):
    """The containment check above passes on the real certificate step
    and fails when it returns each box's lower corner: a seam that a
    soundness oracle can break."""
    assert_sent_blocks_contained(default_pipe, 40, seed=21)
    original = decoder._certificate_hull

    def lower_corner(cert, l, u):
        lo, hi, empty = original(cert, l, u)
        return lo, lo.copy(), empty

    monkeypatch.setattr(decoder, "_certificate_hull", lower_corner)
    with pytest.raises(AssertionError, match="instant 0: box misses the sent block"):
        assert_sent_blocks_contained(default_pipe, 40, seed=21)
