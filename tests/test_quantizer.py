"""Scalar quantizers, rate allocation, and index/bit codes."""

import math

import numpy as np
import pytest

from ofbdec.interval import Box, Interval
from ofbdec.quantizer import QuantizerBank, allocate_rates, subband_ranges


def make_bank(widths, delta, gray=False):
    w = np.asarray(widths, dtype=float)
    ranges = Box(-0.5 * w, 0.5 * w)
    return allocate_rates(ranges, delta, gray=gray)


class TestAllocateRates:
    def test_widths_4_4(self):
        q = make_bank([4.0, 4.0], 1.0)
        assert q.rates.tolist() == [2, 2]
        assert np.allclose(q.deltas, 1.0)

    def test_widths_4_8(self):
        q = make_bank([4.0, 8.0], 1.0)
        assert q.rates.tolist() == [2, 3]

    def test_default_bank_quarter_step(self, default_pipe):
        # frozen from the interval propagation of [-4,4] inputs:
        # short subbands span [-8,8], long ones [-8*sqrt(2), 8*sqrt(2)]
        ranges = subband_ranges(default_pipe.poly, Interval(-4.0, 4.0))
        assert np.allclose(ranges.width[:4], 16.0)
        assert np.allclose(ranges.width[4:], 16.0 * np.sqrt(2.0))
        q = allocate_rates(ranges, 0.25)
        assert q.rates.tolist() == [6, 6, 6, 6, 7, 7]
        want = np.ceil(np.log2(ranges.width / 0.25))
        assert np.allclose(q.rates, want)

    def test_cells_cover_range(self):
        q = make_bank([4.0, 7.3, 0.9], 0.8)
        covered = (1 << q.rates) * q.deltas
        assert np.all(covered >= q.ranges.width - 1e-12)

    def test_rate_floor_is_one_bit(self):
        q = make_bank([0.1], 1.0)
        assert q.rates.tolist() == [1]

    def test_rate_overflow(self):
        with pytest.raises(ValueError, match="rate overflow"):
            make_bank([1e6], 1e-3)

    def test_bad_delta(self):
        with pytest.raises(ValueError, match="delta"):
            make_bank([4.0], 0.0)


def cell(q, u):
    """Endpoints of the cell of index u on a one-subband bank."""
    lo, hi = q.cell_bounds(np.array([[u]]))
    return lo[0, 0], hi[0, 0]


class TestScalarQuantizer:
    def test_midtread_zero_cell(self):
        q = make_bank([8.0], 1.0)
        assert q.quantize_block([[0.2]]).tolist() == [[0]]
        assert q.dequantize_block([[0]]).tolist() == [[0.0]]
        assert cell(q, 0) == (-0.5, 0.5)

    def test_rounding_boundary(self):
        q = make_bank([8.0], 1.0)
        assert q.quantize_block([[0.51]]).tolist() == [[1]]
        assert cell(q, 1) == (0.5, 1.5)

    def test_ties_away_from_zero(self):
        q = make_bank([8.0], 1.0)
        y = np.array([[0.5], [-0.5], [1.5], [-2.5]])
        assert q.quantize_block(y).ravel().tolist() == [1, -1, 2, -3]

    def test_clamping(self):
        q = make_bank([8.0], 1.0)  # R=3, indexes -4..3
        assert q.quantize_block([[100.0], [-100.0]]).ravel().tolist() == [3, -4]

    def test_quantization_noise_bounded(self):
        # away from the saturated end cells the error is at most delta/2
        q = make_bank([8.0], 1.0)
        rng = np.random.default_rng(0)
        y = rng.uniform(-3.45, 3.45, size=(100_000, 1))
        err = y - q.dequantize_block(q.quantize_block(y))
        assert np.max(np.abs(err)) <= 0.5 + 1e-12

    def test_cell_contains_input_over_full_range(self):
        q = make_bank([8.0], 1.0)
        rng = np.random.default_rng(4)
        y = rng.uniform(-4.0, 4.0, size=(5_000, 1))
        lo, hi = q.cell_bounds(q.quantize_block(y))
        assert np.all(lo - 1e-12 <= y) and np.all(y <= hi + 1e-12)

    def test_saturated_cells_extend_to_range_edge(self):
        # the midtread grid sits half a step low, so the top cell needs
        # extending when the range edge falls past its natural boundary
        q = make_bank([4.0], 1.0)  # R=2, cells -2..1 cover [-2.5, 1.5]
        assert cell(q, 1) == (0.5, 2.0)
        assert cell(q, -2) == (-2.5, -1.5)
        # a grid that already overcovers keeps its natural edges
        q2 = make_bank([9.0], 1.0)  # R=4, cells -8..7 span [-8.5, 7.5]
        assert cell(q2, -8) == (-8.5, -7.5)
        assert cell(q2, 7) == (6.5, 7.5)

    def test_cells_tile_the_line(self):
        q = make_bank([8.0], 1.0)
        lo, hi = q.cell_bounds(np.arange(-4, 4)[:, None])
        assert np.array_equal(hi[:-1], lo[1:])


def one_subband(R, gray=False):
    half = float(1 << (R - 1))
    return QuantizerBank([1.0], [R], Box(np.array([-half]), np.array([half])), gray=gray)


class TestBits:
    def test_minus_one_on_three_bits(self):
        q = one_subband(3)
        assert q.encode_stream([[-1]]).tolist() == [[0, 1, 1]]

    def test_zero_on_two_bits(self):
        q = one_subband(2)
        assert q.encode_stream([[0]]).tolist() == [[1, 0]]

    def test_round_trip_all_values(self):
        for R in (1, 2, 5, 8):
            q = one_subband(R)
            u = np.arange(-(1 << (R - 1)), 1 << (R - 1))[:, None]
            assert np.array_equal(q.decode_stream(q.encode_stream(u)), u)

    def test_gray_round_trip_and_adjacency(self):
        q = one_subband(4, gray=True)
        u = np.arange(-8, 8)[:, None]
        bits = q.encode_stream(u)
        assert np.array_equal(q.decode_stream(bits), u)
        # Gray neighbors differ in one bit
        assert np.all(np.sum(bits[1:] != bits[:-1], axis=1) == 1)

    def test_out_of_range_index(self):
        q = QuantizerBank([1.0, 1.0], [3, 2], Box(np.array([-4.0, -2.0]), np.array([4.0, 2.0])))
        assert q.encode_stream([[3, -2], [-4, 1]]).shape == (2, 5)
        # u = o_m would index past the code table, u = -o_m - 1 would
        # wrap around to the codeword of o_m - 1
        for bad in ([0, 2], [0, -3]):
            with pytest.raises(ValueError, match=r"out of range \[-2, 1\] for subband 1"):
                q.encode_stream([[0, 0], bad])

    def test_bit_length_mismatch(self):
        q = one_subband(3)
        with pytest.raises(ValueError, match="bits"):
            q.decode_stream(np.array([[1, 0]]))

    def test_non_binary_bits(self):
        with pytest.raises(ValueError, match="0 or 1"):
            one_subband(2).decode_stream(np.array([[0, 2]]))
        # a 2 in the top bit would decode to 16, past a 5-bit code
        with pytest.raises(ValueError, match="0 or 1"):
            one_subband(5).decode_stream(np.array([[2, 0, 0, 0, 0]]))


class TestBlockStream:
    def test_block_matches_scalar(self, default_pipe):
        # reference: the per-sample formula, one subband sample at a time
        q = default_pipe.q
        rng = np.random.default_rng(1)
        y = rng.uniform(-6, 6, size=(40, q.M))
        u = q.quantize_block(y)
        yd = q.dequantize_block(u)
        for i in range(y.shape[0]):
            for m in range(q.M):
                d, o = q.deltas[m], int(q.offsets[m])
                a = math.floor(abs(y[i, m]) / d + 0.5)
                want = min(max(a if y[i, m] >= 0.0 else -a, -o), o - 1)
                assert u[i, m] == want
                assert yd[i, m] == want * d

    def test_cell_bounds_match_scalar(self, default_pipe):
        # reference: the per-cell formula, saturated cells extended
        q = default_pipe.q
        rng = np.random.default_rng(2)
        y = rng.uniform(-12, 12, size=(25, q.M))
        u = q.quantize_block(y)
        lo, hi = q.cell_bounds(u)
        for i in range(u.shape[0]):
            for m in range(q.M):
                d, o, v = q.deltas[m], int(q.offsets[m]), int(u[i, m])
                want_lo, want_hi = v * d - 0.5 * d, v * d + 0.5 * d
                if v == -o:
                    want_lo = min(want_lo, q.ranges.lo[m])
                if v == o - 1:
                    want_hi = max(want_hi, q.ranges.hi[m])
                assert lo[i, m] == want_lo and hi[i, m] == want_hi

    def test_stream_round_trip(self, default_pipe):
        q = default_pipe.q
        rng = np.random.default_rng(3)
        y = rng.uniform(-8, 8, size=(30, q.M))
        u = q.quantize_block(y)
        bits = q.encode_stream(u)
        assert bits.shape == (30, q.total_bits)
        assert np.array_equal(q.decode_stream(bits), u)

    def test_bit_slices_partition(self, default_pipe):
        q = default_pipe.q
        seen = np.zeros(q.total_bits, dtype=int)
        for m in range(q.M):
            seen[q.bit_slices[m]] += 1
        assert np.all(seen == 1)
