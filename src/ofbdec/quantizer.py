"""Uniform midtread subband quantizers and fixed-rate index codes.

Every subband m gets the same step delta and an individual rate R_m
chosen so the 2^R_m cells cover the subband's value range.  Indexes are
signed, u in [-o_m, o_m - 1] with o_m = 2^(R_m - 1), and map to natural
binary (optionally Gray) codewords of u + o_m, MSB first.

Cells are closed intervals [u*delta - delta/2, u*delta + delta/2]; the
two saturated end cells are extended to the corresponding edge of the
subband range, so the union of cells always covers it.
"""

import numpy as np

from .interval import Box, matvec_box

__all__ = ["QuantizerBank", "allocate_rates", "subband_ranges"]

MAX_RATE = 16


def subband_ranges(poly, x_range):
    """Per-subband output ranges of an analysis bank for inputs confined
    to a common scalar interval, by interval propagation through the
    stacked polyphase matrix (E_L ... E_0)."""
    cube = Box.uniform(x_range.lo, x_range.hi, poly.N * (poly.L + 1))
    return matvec_box(poly.stacked_oldest_first(), cube)


def allocate_rates(subband_boxes, delta, gray=False):
    """Build a QuantizerBank with uniform step delta over given ranges.

    The rate of subband m is ceil(log2(width_m / delta)) clamped below
    at 1 bit; a subband that would need more than 16 bits raises a
    'rate overflow' error.
    """
    if subband_boxes.is_empty:
        raise ValueError("subband ranges must be non-empty")
    delta = float(delta)
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    widths = subband_boxes.width
    rates = []
    for m, w in enumerate(widths):
        if w <= 0.0:
            rates.append(1)
            continue
        # guard against log2 of an exact power of two landing a hair high
        needed = int(np.ceil(np.log2(w / delta) - 1e-12))
        if needed > MAX_RATE:
            raise ValueError(
                f"rate overflow: subband {m} needs {needed} bits for "
                f"width {w:.6g} at delta {delta:.6g}"
            )
        rates.append(max(1, needed))
    return QuantizerBank(np.full(len(rates), delta), rates, subband_boxes, gray=gray)


def _gray_encode(v):
    return v ^ (v >> 1)


def _gray_decode(g):
    v = np.asarray(g).copy()
    shift = 1
    while np.any(v >> shift):
        v ^= v >> shift
        shift <<= 1
    return v


class QuantizerBank:
    """Midtread quantizers and binary index codes for M subbands."""

    def __init__(self, deltas, rates, ranges, gray=False):
        deltas = np.asarray(deltas, dtype=float)
        rates = np.asarray(rates, dtype=int)
        if deltas.shape != rates.shape or deltas.ndim != 1:
            raise ValueError("deltas and rates must be 1-d arrays of equal length")
        if ranges.dim != deltas.shape[0]:
            raise ValueError("ranges box dimension must match subband count")
        if np.any(deltas <= 0.0):
            raise ValueError("quantizer steps must be positive")
        if np.any(rates < 1) or np.any(rates > MAX_RATE):
            raise ValueError(f"rates must lie in [1, {MAX_RATE}]")
        self.M = deltas.shape[0]
        self.deltas = deltas
        self.rates = rates
        self.offsets = (1 << rates.astype(np.int64)) >> 1
        self.ranges = ranges
        self.gray = bool(gray)
        self.total_bits = int(rates.sum())
        ends = np.cumsum(rates)
        self.bit_slices = [slice(int(e - r), int(e)) for r, e in zip(rates, ends)]
        self._code_cache = {}

    def quantize_block(self, y):
        """Index of the cell holding each sample, over the last axis (M
        subbands): round(y / delta) with ties away from zero, clamped to
        the representable range."""
        y = np.asarray(y, dtype=float)
        u = np.sign(y) * np.floor(np.abs(y) / self.deltas + 0.5)
        return np.clip(u, -self.offsets, self.offsets - 1).astype(np.int64)

    def dequantize_block(self, u):
        return np.asarray(u) * self.deltas

    def cell_bounds(self, u):
        """Endpoints (lo, hi) of the cells of index arrays of shape
        (..., M), the saturated end cells extended to the range edges."""
        u = np.asarray(u)
        ctr = u * self.deltas
        lo = ctr - 0.5 * self.deltas
        hi = ctr + 0.5 * self.deltas
        lo = np.where(u == -self.offsets, np.minimum(lo, self.ranges.lo), lo)
        hi = np.where(u == self.offsets - 1, np.maximum(hi, self.ranges.hi), hi)
        return lo, hi

    def index_codes(self, m):
        """All codewords of subband m in index order: a (2^R_m, R_m)
        uint8 array; row v is the codeword of index u = v - o_m."""
        if m not in self._code_cache:
            R = int(self.rates[m])
            v = np.arange(1 << R, dtype=np.int64)
            if self.gray:
                v = _gray_encode(v)
            shifts = np.arange(R - 1, -1, -1, dtype=np.int64)
            self._code_cache[m] = ((v[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
        return self._code_cache[m]

    def encode_stream(self, u):
        """Index matrix (T, M) to bit matrix (T, total_bits)."""
        u = np.asarray(u, dtype=np.int64)
        T = u.shape[0]
        bits = np.empty((T, self.total_bits), dtype=np.uint8)
        for m in range(self.M):
            o = int(self.offsets[m])
            if np.any((u[:, m] < -o) | (u[:, m] >= o)):
                raise ValueError(f"index out of range [{-o}, {o - 1}] for subband {m}")
            bits[:, self.bit_slices[m]] = self.index_codes(m)[u[:, m] + o]
        return bits

    def decode_stream(self, bits):
        """Bit matrix (T, total_bits) back to an index matrix (T, M)."""
        bits = np.asarray(bits)
        if bits.ndim != 2 or bits.shape[1] != self.total_bits:
            raise ValueError(f"expected {self.total_bits} bits per instant")
        if np.any((bits != 0) & (bits != 1)):
            raise ValueError("bits must be 0 or 1")
        T = bits.shape[0]
        u = np.empty((T, self.M), dtype=np.int64)
        for m in range(self.M):
            R = int(self.rates[m])
            weights = 1 << np.arange(R - 1, -1, -1, dtype=np.int64)
            v = bits[:, self.bit_slices[m]].astype(np.int64) @ weights
            if self.gray:
                v = _gray_decode(v)
            u[:, m] = v - self.offsets[m]
        return u
