"""Candidate listing, consistency and parity tests, and the decoders."""

import copy
import re

import numpy as np
import pytest
from conftest import (
    exhaustive_candidates,
    listed_one_instant,
    noisy_streams,
    one_stream_state,
    sample_feasible_indexes,
)

from ofbdec import (
    Box,
    ChannelModel,
    DecoderConfig,
    DecoderState,
    FLAG_CLEAN,
    FLAG_NO_CONSISTENT,
    FLAG_PARITY_EXHAUSTED,
    FilterBank,
    QuantizerBank,
    box_hull_lp,
    consistency_box,
    decode_classical,
    decode_sequence,
    decode_streams,
    gen_ar1,
    matvec_box,
    parity_test,
    polyphase_from_filters,
    step,
    synthesize_ls,
    top_candidates,
)
from ofbdec import decoder
from ofbdec.decoder import _candidate_lists


def two_bit_setup():
    """Two subbands at one bit each: four index vectors total."""
    q = QuantizerBank(
        [1.0, 1.0], [1, 1], Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    )
    ch = ChannelModel(-10.0 * np.log10(2.0))  # sigma2 = 2
    return q, ch


def repeated_scalar_setup(coeffs=(1.0, 1.0), rates=(5, 5)):
    """L=0 bank observing one input sample through two scalar gains."""
    taps = [np.array([c]) for c in coeffs]
    poly = polyphase_from_filters(FilterBank(2, 1, 0, taps))
    q = QuantizerBank(
        [1.0, 1.0],
        list(rates),
        Box(np.array([-20.0, -20.0]), np.array([20.0, 20.0])),
    )
    return poly, q


class TestTopCandidates:
    def test_two_soft_bits_frozen_order(self):
        q, ch = two_bit_setup()
        # bit log-likelihood ratios 3 and 1, both favoring bit 0
        cands = top_candidates(np.array([3.0, 1.0]), q, ch, 4)
        got_u = [c.u.tolist() for c in cands]
        assert got_u == [[-1, -1], [-1, 0], [0, -1], [0, 0]]
        assert np.allclose([c.loglik for c in cands], [-1.0, -2.0, -4.0, -5.0])
        assert [c.rank for c in cands] == [1, 2, 3, 4]

    def test_n_max_truncates(self):
        q, ch = two_bit_setup()
        cands = top_candidates(np.array([3.0, 1.0]), q, ch, 2)
        assert [c.u.tolist() for c in cands] == [[-1, -1], [-1, 0]]

    def test_n_max_validated(self):
        """The floor and the integer check of DecoderConfig.n_max."""
        q, ch = two_bit_setup()
        r = np.array([3.0, 1.0])
        with pytest.raises(ValueError, match="^n_max must be at least 1$"):
            top_candidates(r, q, ch, 0)
        with pytest.raises(ValueError, match="^n_max must be an integer, got 2.5$"):
            top_candidates(r, q, ch, 2.5)
        assert len(top_candidates(r, q, ch, np.int64(1))) == 1

    def test_all_positive_r_gives_all_zero_bits(self, default_pipe):
        q = default_pipe.q
        ch = ChannelModel(7.0)
        rng = np.random.default_rng(1)
        r = rng.uniform(0.1, 2.0, size=q.total_bits)
        best = top_candidates(r, q, ch, 1)[0]
        assert np.array_equal(best.u, -q.offsets)

    def test_ties_break_lexicographically(self, tiny_pipe):
        q = tiny_pipe.q
        ch = ChannelModel(7.0)
        cands = top_candidates(np.zeros(q.total_bits), q, ch, 64)
        u = np.stack([c.u for c in cands])
        assert len(cands) == 64
        assert np.array_equal(u[0], [-2, -2, -2])
        assert np.array_equal(u[1], [-2, -2, -1])
        assert np.array_equal(u[-1], [1, 1, 1])
        for k in range(63):
            assert tuple(u[k]) < tuple(u[k + 1])

    def test_matches_exhaustive_ranking(self, tiny_pipe):
        q = tiny_pipe.q
        ch = ChannelModel(4.0, seed=9)
        rng = ch.stream(0)
        for trial in range(10):
            bits = rng.integers(0, 2, size=q.total_bits)
            r = ch.transmit(bits, ch.stream(1, trial))
            want_u, want_s = exhaustive_candidates(r, q, ch)
            for n_max in (64, 7, 1):
                cands = top_candidates(r, q, ch, n_max)
                got_u = np.stack([c.u for c in cands])
                got_s = np.array([c.loglik for c in cands])
                assert np.array_equal(got_u, want_u[:n_max])
                assert np.array_equal(got_s, want_s[:n_max])


class TestConsistencyBox:
    def test_identity_observation_intersects_cell(self):
        poly, q = repeated_scalar_setup()
        state = one_stream_state(Box.uniform(0.0, 10.0, 1))
        box = consistency_box(np.array([5, 5]), state, poly, q)
        assert np.allclose(box.lo, 4.5) and np.allclose(box.hi, 5.5)

    def test_disjoint_cells_proven_empty(self):
        poly, q = repeated_scalar_setup()
        state = one_stream_state(Box.uniform(0.0, 10.0, 1))
        assert consistency_box(np.array([5, 7]), state, poly, q).is_empty

    def test_touching_cells_collapse_to_point(self):
        poly, q = repeated_scalar_setup()
        state = one_stream_state(Box.uniform(0.0, 10.0, 1))
        box = consistency_box(np.array([5, 6]), state, poly, q)
        assert not box.is_empty
        assert np.allclose(box.lo, 5.5) and np.allclose(box.hi, 5.5)

    def test_gain_two_row_contracts(self):
        poly, q = repeated_scalar_setup(coeffs=(2.0, 1.0))
        state = one_stream_state(Box.uniform(0.0, 10.0, 1))
        box = consistency_box(np.array([10, 5]), state, poly, q)
        assert np.allclose(box.lo, 4.75) and np.allclose(box.hi, 5.25)

    def test_input_box_clips(self):
        poly, q = repeated_scalar_setup()
        state = one_stream_state(Box.uniform(0.0, 4.8, 1))
        box = consistency_box(np.array([5, 5]), state, poly, q)
        assert np.allclose(box.lo, 4.5) and np.allclose(box.hi, 4.8)

    # a single case: the decoder has one consistency path
    @pytest.mark.parametrize("contractor", ["sweep"])
    def test_contains_truth_given_true_history(self, tiny_pipe, contractor):
        p = tiny_pipe
        rng = np.random.default_rng(11)
        for _ in range(40):
            x_prev = rng.uniform(-1.0, 1.0, 2)
            x_cur = rng.uniform(-1.0, 1.0, 2)
            y = p.poly.E[0] @ x_cur + p.poly.E[1] @ x_prev
            u = p.q.quantize_block(y.reshape(1, -1))[0]
            state = one_stream_state(Box.uniform(-1.0, 1.0, 2), [Box.point(x_prev)])
            box = consistency_box(u, state, p.poly, p.q)
            assert not box.is_empty
            assert box.contains(x_cur, tol=1e-9)

    def test_lp_hull_no_wider_than_sweep(self, tiny_pipe):
        p = tiny_pipe
        rng = np.random.default_rng(12)
        for _ in range(40):
            x_prev = rng.uniform(-1.0, 1.0, 2)
            x_cur = rng.uniform(-1.0, 1.0, 2)
            y = p.poly.E[0] @ x_cur + p.poly.E[1] @ x_prev
            u = p.q.quantize_block(y.reshape(1, -1))[0]
            state = one_stream_state(Box.uniform(-1.0, 1.0, 2), [Box.point(x_prev)])
            box = consistency_box(u, state, p.poly, p.q)
            reach = matvec_box(p.poly.E[1], Box.point(x_prev))
            lo, hi = p.q.cell_bounds(u)
            lp = box_hull_lp(p.poly.E[0], state.input_box, Box(lo - reach.hi, hi - reach.lo))
            assert np.all(lp.lo >= box.lo - 1e-7)
            assert np.all(lp.hi <= box.hi + 1e-7)

    def test_never_excludes_sampled_reachable_indexes(self, tiny_pipe):
        p = tiny_pipe
        rng = np.random.default_rng(5)
        x_prev = rng.uniform(-1.0, 1.0, 2)
        state = one_stream_state(Box.uniform(-1.0, 1.0, 2), [Box.point(x_prev)])
        feasible = sample_feasible_indexes(state, p, rng, n_samples=20_000)
        assert len(feasible) >= 4
        for tup in feasible:
            box = consistency_box(np.array(tup), state, p.poly, p.q)
            assert not box.is_empty


class TestParity:
    def _true_state_stream(self, pipe, n, seed):
        rng = np.random.default_rng(seed)
        N, L = pipe.poly.N, pipe.poly.L
        x = np.concatenate([np.zeros(N * L), gen_ar1(n, 0.9, 4.0, rng)])
        y, u, bits = pipe.encode(x)
        return x.reshape(-1, N), y, u, bits

    def test_accepts_transmitted_indexes(self, default_pipe):
        p = default_pipe
        blocks, y, u, _ = self._true_state_stream(p, 1196, seed=7)
        state = DecoderState.initial(
            Box.uniform(-4.0, 4.0, p.poly.N), p.poly, p.parity
        )
        for i in range(u.shape[0]):
            assert parity_test(u[i], state, p.parity, p.q)
            state._push(blocks[i][None], blocks[i][None], *p.q.cell_bounds(u[i][None]))

    def test_rejects_cell_shift_in_covered_subband(self, default_pipe):
        # all of the bundled bank's redundancy lives in the subband
        # pairs {0,4} and {1,5}: the long filters' polyphase rows are
        # proportional to Walsh rows 0 and 1, so subbands 2 and 3 are
        # seen by exactly one filter each.  The parity rows reflect
        # that (zero columns there), and a shifted cell in 2 or 3 is
        # genuinely reachable from another input, so neither test can
        # reject it.
        p = default_pipe
        P0 = p.parity.P[0]
        assert np.allclose(P0[:, 2:4], 0.0)
        blocks, y, u, _ = self._true_state_stream(p, 40, seed=3)
        state = DecoderState.initial(
            Box.uniform(-4.0, 4.0, p.poly.N), p.poly, p.parity
        )
        for i in range(u.shape[0] - 1):
            state._push(blocks[i][None], blocks[i][None], *p.q.cell_bounds(u[i][None]))
        i = u.shape[0] - 1
        for m, covered in [(0, True), (1, True), (4, True), (5, True),
                           (2, False), (3, False)]:
            shifted = u[i].copy()
            shifted[m] += 10
            assert parity_test(shifted, state, p.parity, p.q) == (not covered)
            if not covered:
                box = consistency_box(shifted, state, p.poly, p.q)
                assert not box.is_empty

    def test_wide_history_boxes_accept_everything(self, default_pipe):
        # a loose history makes the residual interval huge, so the test
        # keeps any candidate: it only ever proves infeasibility
        p = default_pipe
        M = p.poly.M
        wide = Box.uniform(-50.0, 50.0, M)
        state = one_stream_state(
            Box.uniform(-4.0, 4.0, p.poly.N), [Box.uniform(-4.0, 4.0, p.poly.N)], [wide]
        )
        rng = np.random.default_rng(8)
        for _ in range(20):
            u = rng.integers(-p.q.offsets, p.q.offsets, size=M)
            assert parity_test(u, state, p.parity, p.q)


class TestStep:
    def test_noiseless_picks_truth(self, default_pipe):
        p = default_pipe
        rng = np.random.default_rng(21)
        N = p.poly.N
        x = np.concatenate([np.zeros(N), gen_ar1(200, 0.9, 4.0, rng)])
        blocks = x.reshape(-1, N)
        _, u, bits = p.encode(x)
        ch = ChannelModel(7.0, noiseless=True)
        r = ch.transmit(bits, ch.stream(0))
        cfg = DecoderConfig()
        state = DecoderState.initial(
            Box.uniform(-4.0, 4.0, N), p.poly, p.parity
        )
        for i in range(u.shape[0]):
            res = step(r[i], state, p.poly, p.parity, p.q, ch, cfg)
            assert res.flag == FLAG_CLEAN
            assert np.array_equal(res.u_hat, u[i])
            assert res.x_box.contains(blocks[i], tol=1e-9)
            assert res.n_consistent >= 1
            # the history now carries this instant's boxes
            assert np.array_equal(state.x_lo[0, 0], res.x_box.lo)
            assert np.array_equal(state.y_hi[0, 0], res.y_box.hi)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_input_box_must_match_the_bank(self, default_pipe, dim):
        p = default_pipe
        with pytest.raises(ValueError, match=f"input box has dimension {dim}, the bank's N is 4"):
            DecoderState.initial(Box.uniform(-4.0, 4.0, dim), p.poly, p.parity)

    def test_skips_inconsistent_leader(self):
        poly, q = repeated_scalar_setup()
        ch = ChannelModel(7.0, noiseless=True)
        bits = q.encode_stream([[2, 2]])[0]
        r = ch.transmit(bits, ch.stream(0))
        cfg = DecoderConfig(n_max=32, use_pct=False)
        input_box = Box.uniform(0.0, 1.0, 1)
        state = one_stream_state(input_box)
        res = step(r, state, poly, None, q, ch, cfg)
        assert res.flag == FLAG_CLEAN
        assert res.rank > 1
        assert not res.x_box.is_empty
        # everything ranked above the pick was genuinely infeasible
        cands = top_candidates(r, q, ch, cfg.n_max)
        for c in cands[: res.rank - 1]:
            lo, hi = q.cell_bounds(c.u)
            assert max(lo.max(), 0.0) > min(hi.min(), 1.0)

    def test_no_consistent_candidate_falls_back(self):
        poly, q = repeated_scalar_setup()
        ch = ChannelModel(7.0, noiseless=True)
        bits = q.encode_stream([[2, 2]])[0]
        r = ch.transmit(bits, ch.stream(0))
        cfg = DecoderConfig(n_max=1, use_pct=False)
        state = one_stream_state(Box.uniform(0.0, 1.0, 1))
        res = step(r, state, poly, None, q, ch, cfg)
        assert res.flag == FLAG_NO_CONSISTENT
        assert res.n_consistent == 0
        assert np.array_equal(res.u_hat, [2, 2])
        # least-squares point 2.0 clipped to 1.0, padded by half a step
        assert np.allclose(res.x_box.lo, 0.5)
        assert np.allclose(res.x_box.hi, 1.0)

    def test_corrupt_parity_history_flags_exhaustion(self, default_pipe):
        p = default_pipe
        rng = np.random.default_rng(4)
        N, M = p.poly.N, p.poly.M
        x = np.concatenate([np.zeros(N), gen_ar1(40, 0.9, 4.0, rng)])
        blocks = x.reshape(-1, N)
        _, u, bits = p.encode(x)
        ch = ChannelModel(7.0, noiseless=True)
        r = ch.transmit(bits, ch.stream(0))
        i = u.shape[0] - 1
        bad_y = np.zeros(M)
        bad_y[0] = 100.0
        state = one_stream_state(
            Box.uniform(-4.0, 4.0, N), [Box.point(blocks[i - 1])], [Box.point(bad_y)]
        )
        cfg = DecoderConfig(n_max=1)
        res = step(r[i], state, p.poly, p.parity, p.q, ch, cfg)
        assert res.flag == FLAG_PARITY_EXHAUSTED
        # the first consistent candidate is still returned
        assert np.array_equal(res.u_hat, u[i])


class TestDecodeSequence:
    def test_noiseless_matches_classical_exactly(self, default_pipe):
        p = default_pipe
        rng = np.random.default_rng(3)
        N = p.poly.N
        x = np.concatenate([np.zeros(N), gen_ar1(400, 0.9, 4.0, rng)])
        _, u, bits = p.encode(x)
        ch = ChannelModel(7.0, noiseless=True)
        r = ch.transmit(bits, ch.stream(0))
        cfg = DecoderConfig()
        x_hat, diag = decode_sequence(
            r, p.poly, p.parity, p.q, ch, cfg, p.x_range
        )
        assert np.array_equal(diag.u_hat, u)
        assert np.all(diag.flags == FLAG_CLEAN)
        assert diag.error_rate == 0.0
        blocks = x.reshape(-1, N)
        assert np.all(diag.x_lo <= blocks + 1e-9)
        assert np.all(blocks <= diag.x_hi + 1e-9)
        # boxes are centered on the point estimate
        assert np.allclose(0.5 * (diag.x_lo + diag.x_hi), x_hat.reshape(-1, N))
        classical = decode_classical(r, p.poly, p.q, window=cfg.window)
        assert np.array_equal(x_hat, classical)

    def test_noisy_decode_beats_hard_decisions(self, default_pipe):
        p = default_pipe
        rng = np.random.default_rng(14)
        N = p.poly.N
        x = np.concatenate([np.zeros(N), gen_ar1(320, 0.9, 4.0, rng)])
        _, _, bits = p.encode(x)
        ch = ChannelModel(7.0, seed=14)
        r = ch.transmit(bits, ch.stream(0))
        cfg = DecoderConfig()
        x_hat, diag = decode_sequence(
            r, p.poly, p.parity, p.q, ch, cfg, p.x_range
        )
        classical = decode_classical(r, p.poly, p.q, window=cfg.window)
        s = slice(40, -40)
        err_p = np.sum((x[s] - x_hat[s]) ** 2)
        err_c = np.sum((x[s] - classical[s]) ** 2)
        assert err_p < err_c / 2.0

    def test_deterministic(self, tiny_pipe):
        p = tiny_pipe
        rng = np.random.default_rng(6)
        x = np.clip(rng.normal(0.0, 0.5, size=60), -1.0, 1.0)
        _, _, bits = p.encode(x)
        ch = ChannelModel(5.0, seed=2)
        r = ch.transmit(bits, ch.stream(0))
        cfg = DecoderConfig(n_max=8)
        a, da = decode_sequence(r, p.poly, p.parity, p.q, ch, cfg, p.x_range)
        b, db = decode_sequence(r, p.poly, p.parity, p.q, ch, cfg, p.x_range)
        assert np.array_equal(a, b)
        assert np.array_equal(da.flags, db.flags)
        assert np.array_equal(da.u_hat, db.u_hat)

    def test_empty_stream(self, tiny_pipe):
        p = tiny_pipe
        ch = ChannelModel(7.0)
        cfg = DecoderConfig()
        r = np.zeros((0, p.q.total_bits))
        x_hat, diag = decode_sequence(
            r, p.poly, p.parity, p.q, ch, cfg, p.x_range
        )
        assert x_hat.size == 0
        assert diag.flags.size == 0

    def test_classical_noiseless_is_ls_synthesis(self, default_pipe):
        p = default_pipe
        rng = np.random.default_rng(9)
        x = np.clip(rng.normal(0.0, 1.0, size=160), -4.0, 4.0)
        _, u, bits = p.encode(x)
        ch = ChannelModel(7.0, noiseless=True)
        r = ch.transmit(bits, ch.stream(0))
        got = decode_classical(r, p.poly, p.q, window=8)
        want = synthesize_ls(p.poly, p.q.dequantize_block(u), window=8)
        assert np.array_equal(got, want)


class TestConfig:
    def test_n_max_validated(self):
        with pytest.raises(ValueError, match="n_max"):
            DecoderConfig(n_max=0)

    @pytest.mark.parametrize(
        "field, value",
        [("n_max", 2.5), ("window", 8.5), ("n_max", np.float64(20.0)), ("window", "8"),
         ("n_max", True)],
    )
    def test_counts_must_be_integers(self, field, value):
        message = re.escape(f"{field} must be an integer, got {value!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            DecoderConfig(**{field: value})

    def test_window_floor(self):
        with pytest.raises(ValueError, match="^window must be at least 2$"):
            DecoderConfig(window=1)

    @pytest.mark.parametrize("window", [8.5, 8.0, True])
    def test_synthesis_window_must_be_an_integer(self, default_pipe, window):
        p = default_pipe
        message = re.escape(f"window must be an integer, got {window!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            synthesize_ls(p.poly, np.zeros((20, p.poly.M)), window=window)
        with pytest.raises(ValueError, match=f"^{message}$"):
            decode_classical(np.ones((20, p.q.total_bits)), p.poly, p.q, window=window)

    def test_numpy_bool_accepted(self):
        assert not DecoderConfig(use_pct=np.bool_(False)).use_pct


class TestCandidateLists:
    """The batched listing of whole streams against the per-instant
    reference, bit for bit."""

    @pytest.mark.parametrize("n_max", [20, 64])
    @pytest.mark.parametrize("bank", ["tiny_pipe", "default_pipe"])
    def test_matches_per_instant_listing(self, bank, n_max, request):
        p = request.getfixturevalue(bank)
        q = p.q
        ch = ChannelModel(5.0, seed=4)
        rng = ch.stream(0)
        bits = rng.integers(0, 2, size=(150, q.total_bits))
        r = ch.transmit(bits, ch.stream(1))
        r[::7] = 0.0  # all-zero soft bits: every index vector ties
        r[3::11] = np.round(r[3::11])  # partial ties
        sig2 = ch.effective_sigma2()
        u, scores = _candidate_lists(r, q, sig2, n_max)
        for i in range(r.shape[0]):
            want_u, want_s = listed_one_instant(r[i], q, sig2, n_max)
            assert np.array_equal(u[i], want_u)
            assert scores[i].tobytes() == want_s.tobytes()

    def test_list_shorter_than_n_max(self, tiny_pipe):
        q = tiny_pipe.q
        ch = ChannelModel(3.0, seed=1)
        r = ch.transmit(np.zeros((5, q.total_bits), dtype=np.uint8), ch.stream(0))
        r[0] = 0.0
        u, scores = _candidate_lists(r, q, ch.effective_sigma2(), 100)
        assert u.shape == (5, 64, 3)  # every index vector of the bank
        for i in range(5):
            want_u, want_s = listed_one_instant(r[i], q, ch.effective_sigma2(), 100)
            assert np.array_equal(u[i], want_u)
            assert np.array_equal(scores[i], want_s)
            assert len({tuple(v) for v in u[i]}) == 64

    def test_top_candidates_is_one_instant(self, default_pipe):
        q = default_pipe.q
        ch = ChannelModel(6.0, seed=2)
        r = ch.transmit(np.ones((4, q.total_bits), dtype=np.uint8), ch.stream(0))
        u, scores = _candidate_lists(r, q, ch.effective_sigma2(), 20)
        for i in range(4):
            cands = top_candidates(r[i], q, ch, 20)
            assert np.array_equal(np.stack([c.u for c in cands]), u[i])
            assert [c.loglik for c in cands] == scores[i].tolist()


class TestSoftBitValidation:
    def test_wrong_width_rejected(self, default_pipe):
        p = default_pipe
        ch = ChannelModel(7.0)
        r = np.ones((10, p.q.total_bits + 3))
        with pytest.raises(ValueError, match=f"expected {p.q.total_bits} bits per instant"):
            decode_sequence(r, p.poly, p.parity, p.q, ch, DecoderConfig(), p.x_range)
        with pytest.raises(ValueError, match=f"expected {p.q.total_bits} bits per instant"):
            decode_classical(r, p.poly, p.q)

    def test_non_finite_rejected(self, default_pipe):
        p = default_pipe
        ch = ChannelModel(7.0)
        r = np.full((10, p.q.total_bits), np.nan)
        with pytest.raises(ValueError, match="finite"):
            decode_sequence(r, p.poly, p.parity, p.q, ch, DecoderConfig(), p.x_range)
        with pytest.raises(ValueError, match="finite"):
            decode_classical(r, p.poly, p.q)
        r = np.ones((10, p.q.total_bits))
        r[4, 2] = np.inf
        with pytest.raises(ValueError, match="finite"):
            decode_sequence(r, p.poly, p.parity, p.q, ch, DecoderConfig(), p.x_range)
        with pytest.raises(ValueError, match="finite"):
            decode_classical(r, p.poly, p.q)


class TestStackedClassical:
    """decode_classical on (S, T, bits) stacks decodes every stream as
    it decodes alone, and checks every stream as it checks one."""

    def test_matches_streams_alone(self, default_pipe):
        p = default_pipe
        _, rs = noisy_streams(p, 200, (3.0, 7.0, 11.0), seed=3)
        for window in (4, 8):
            got = decode_classical(np.stack(rs), p.poly, p.q, window=window)
            assert got.shape == (3, rs[0].shape[0] * p.poly.N)
            for s, r in enumerate(rs):
                assert got[s].tobytes() == decode_classical(r, p.poly, p.q, window).tobytes()

    def test_bad_stream_rejected(self, default_pipe):
        p = default_pipe
        bits = p.q.total_bits
        _, rs = noisy_streams(p, 40, (5.0, 6.0, 7.0), seed=1)
        r = np.stack(rs)
        with pytest.raises(ValueError, match=f"^expected {bits} bits per instant$"):
            decode_classical(np.concatenate([r, r[..., :3]], axis=2), p.poly, p.q)
        with pytest.raises(ValueError, match=f"^expected {bits} bits per instant$"):
            decode_classical(r[0, 0], p.poly, p.q)
        for bad in (0, 2):  # the first and the last stream
            non_finite = r.copy()
            non_finite[bad, 7, 3] = np.nan
            with pytest.raises(ValueError, match="^soft bits must be finite$"):
                decode_classical(non_finite, p.poly, p.q)


class TestHistoryPush:
    def test_push_keeps_arrays_read_before_and_copies_apart(self, default_pipe):
        """A push never writes into an array read from the state before,
        a copy of the state pushes on its own, and after many pushes the
        histories hold the last ones in order."""
        p = default_pipe
        N, M = p.poly.N, p.poly.M
        state = DecoderState.initial(Box.uniform(-4.0, 4.0, N), p.poly, p.parity, streams=2)
        push = lambda s, v: s._push(*(np.full((2, d), float(v)) for d in (N, N, M, M)))
        before = state.x_lo
        push(state, 1)
        twin = copy.copy(state)
        push(twin, 2)
        push(state, 3)
        assert not before.any()
        assert (twin.x_lo[:, 0] == 2).all() and (state.x_lo[:, 0] == 3).all()
        assert (twin.y_hi[:, 0] == 2).all() and (state.y_hi[:, 0] == 3).all()
        for v in range(4, 4 + 130):
            push(state, v)
        assert state.x_hi[0, :, 0].tolist() == [v - l for l in range(p.poly.L)]
        assert state.y_lo[1, :, 0].tolist() == [v - l for l in range(p.parity.order)]


class TestStepLoop:
    """A loop of step calls is decode_sequence bit for bit: the one
    instant path, which lists each instant alone and computes the
    parity cell terms and the offsets' input-box columns per call,
    against the stream path, which computes them once per stream."""

    @pytest.mark.parametrize("use_pct", [True, False])
    def test_matches_decode_sequence(self, default_pipe, monkeypatch, use_pct):
        p = default_pipe
        channels, rs = noisy_streams(p, 160 * p.poly.N, (5.0,), seed=9)
        ch, r = channels[0], rs[0]
        cfg = DecoderConfig(use_pct=use_pct)
        boxes = []  # each instant's box before decode_sequence widens it
        original = decoder._advance

        def spy(*args):
            out = original(*args)
            boxes.append((out[1][0].tobytes(), out[2][0].tobytes()))
            return out

        monkeypatch.setattr(decoder, "_advance", spy)
        _, diag = decode_sequence(r, p.poly, p.parity, p.q, ch, cfg, p.x_range)
        monkeypatch.undo()
        state = DecoderState.initial(Box.uniform(-4.0, 4.0, p.poly.N), p.poly, p.parity)
        for i in range(r.shape[0]):
            res = step(r[i], state, p.poly, p.parity, p.q, ch, cfg)
            assert res.u_hat.tobytes() == diag.u_hat[i].tobytes(), i
            assert (res.flag, res.rank, res.n_consistent) == (
                diag.flags[i], diag.ranks[i], diag.n_consistent[i]
            ), i
            assert (res.x_box.lo.tobytes(), res.x_box.hi.tobytes()) == boxes[i], i
        want = {FLAG_CLEAN, FLAG_NO_CONSISTENT} | ({FLAG_PARITY_EXHAUSTED} if use_pct else set())
        assert set(diag.flags.tolist()) == want

    def test_without_a_parity_bank(self, default_pipe):
        """A step loop with use_pct off from the state initial builds
        without a parity bank, whose subband history has length 0,
        decodes bit for bit like one from the bank's parity state."""
        p = default_pipe
        channels, rs = noisy_streams(p, 60 * p.poly.N, (5.0,), seed=4)
        cfg = DecoderConfig(use_pct=False)
        box = Box.uniform(-4.0, 4.0, p.poly.N)
        with_parity = DecoderState.initial(box, p.poly, p.parity)
        without = DecoderState.initial(box, p.poly, None)
        for i, r in enumerate(rs[0]):
            want = step(r, with_parity, p.poly, p.parity, p.q, channels[0], cfg)
            got = step(r, without, p.poly, None, p.q, channels[0], cfg)
            assert got.u_hat.tobytes() == want.u_hat.tobytes(), i
            assert (got.flag, got.rank) == (want.flag, want.rank), i
            for a, b in ((got.x_box, want.x_box), (got.y_box, want.y_box)):
                assert (a.lo.tobytes(), a.hi.tobytes()) == (b.lo.tobytes(), b.hi.tobytes()), i
        assert without.y_lo.shape == (1, 0, p.poly.M)


class TestLockstep:
    """decode_streams runs every stream exactly as decode_sequence runs
    it alone, whatever runs beside it."""

    FIELDS = ("u_hat", "flags", "ranks", "n_consistent", "x_lo", "x_hi")

    def _check(self, pipe, n, snrs, cfgs, seed):
        channels, rs = noisy_streams(pipe, n, snrs, seed)
        together = decode_streams(rs, pipe.poly, pipe.parity, pipe.q, channels, cfgs, pipe.x_range)
        flags = []
        for s, (r, ch) in enumerate(zip(rs, channels)):
            for v, cfg in enumerate(cfgs):
                x_hat, diag = decode_sequence(
                    r, pipe.poly, pipe.parity, pipe.q, ch, cfg, pipe.x_range
                )
                got_x, got = together[s][v]
                assert got_x.tobytes() == x_hat.tobytes()
                for name in self.FIELDS:
                    a, b = getattr(got, name), getattr(diag, name)
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
                flags.append(diag.flags)
        return np.concatenate(flags)

    @pytest.mark.parametrize("bank", ["tiny_pipe", "default_pipe"])
    def test_matches_streams_alone(self, bank, request):
        p = request.getfixturevalue(bank)
        cfgs = [DecoderConfig(n_max=4, use_pct=False), DecoderConfig(n_max=4, use_pct=True),
                DecoderConfig(n_max=4, use_pct=True, window=6)]
        flags = self._check(p, 240, (-2.0, 3.0, 8.0), cfgs, seed=8)
        # the short list at low SNR exercises the fallback and the parity flag
        assert set(flags.tolist()) == {FLAG_CLEAN, FLAG_NO_CONSISTENT, FLAG_PARITY_EXHAUSTED}

    def test_no_streams_rejected(self, tiny_pipe):
        p = tiny_pipe
        with pytest.raises(ValueError, match="^decode_streams needs at least one stream$"):
            decode_streams([], p.poly, p.parity, p.q, [], [DecoderConfig()], p.x_range)

    def test_no_configs_rejected(self, tiny_pipe):
        p = tiny_pipe
        channels, rs = noisy_streams(p, 20, (5.0,), seed=1)
        with pytest.raises(ValueError, match="^decode_streams needs at least one decoder config$"):
            decode_streams(rs, p.poly, p.parity, p.q, channels, [], p.x_range)
        with pytest.raises(ValueError, match="^decode_streams needs at least one decoder config$"):
            decode_streams(rs, p.poly, p.parity, p.q, channels, iter(()), p.x_range)

    def test_bad_second_stream_fails_its_own_check(self, tiny_pipe):
        """Each stream is checked, then its length, before the streams
        are joined for listing, so a bad stream fails with the message
        it gets alone."""
        p = tiny_pipe
        bits = p.q.total_bits
        channels, (r0, r1) = noisy_streams(p, 40, (5.0, 6.0), seed=1)
        non_finite = r1.copy()
        non_finite[3, 1] = np.nan
        cases = [
            (np.ones((r1.shape[0], bits + 1)), f"^expected {bits} bits per instant$"),
            (r1[None], f"^expected {bits} bits per instant$"),
            (non_finite, "^soft bits must be finite$"),
            (r1[:-1], "^lockstep streams must have equal length$"),
        ]
        for bad, message in cases:
            with pytest.raises(ValueError, match=message):
                decode_streams([r0, bad], p.poly, p.parity, p.q, channels,
                               [DecoderConfig()], p.x_range)

    def test_configs_must_share_list_and_contractor(self, tiny_pipe):
        p = tiny_pipe
        channels, rs = noisy_streams(p, 20, (5.0,), seed=1)
        with pytest.raises(ValueError, match="n_max"):
            decode_streams(rs, p.poly, p.parity, p.q, channels,
                           [DecoderConfig(n_max=4), DecoderConfig(n_max=5)], p.x_range)
