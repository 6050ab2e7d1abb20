"""Memoryless BPSK over AWGN with per-bit soft outputs.

Bit b maps to the unit-energy symbol s = 1 - 2b; the receiver sees
r = s + n with n ~ N(0, sigma2) and sigma2 = 10^(-snr_db / 10), i.e.
snr_db is the symbol SNR of the unit-energy constellation.  Noise is
drawn from numpy Generators seeded through named substreams so that a
realization's noise depends only on (seed, substream, draw position),
never on how many workers run or how the draws are batched.
"""

import math

import numpy as np

__all__ = ["ChannelModel", "bpsk_ber"]

# keeps log-likelihoods finite when sigma2 = 0 (noiseless runs); the
# candidate ranking is invariant to this floor.
_SIGMA2_FLOOR = 1e-12


def bpsk_ber(snr_db):
    """Closed-form bit error probability of coherent BPSK at the given
    symbol SNR: Q(1/sigma) = erfc(1 / (sigma * sqrt(2))) / 2."""
    sigma = math.sqrt(10.0 ** (-snr_db / 10.0))
    return 0.5 * math.erfc(1.0 / (sigma * math.sqrt(2.0)))


class ChannelModel:
    """BPSK/AWGN channel at a fixed SNR with seeded noise substreams."""

    def __init__(self, snr_db, seed=0, noiseless=False):
        if not noiseless and not math.isfinite(float(snr_db)):
            raise ValueError(f"snr_db must be finite unless noiseless, got {snr_db!r}")
        self.snr_db = None if noiseless else float(snr_db)
        self.noiseless = bool(noiseless)
        self.sigma2 = 0.0 if noiseless else 10.0 ** (-float(snr_db) / 10.0)
        self.seed = int(seed)

    def stream(self, *key):
        """Independent noise generator for a named substream, e.g.
        stream(realization, snr_index).  Deterministic in (seed, key)."""
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=tuple(int(k) for k in key)))

    def transmit(self, bits, rng):
        """Map bits to +/-1 symbols and add channel noise from rng."""
        bits = np.asarray(bits)
        symbols = 1.0 - 2.0 * bits.astype(float)
        if self.sigma2 == 0.0:
            return symbols
        return symbols + rng.normal(0.0, math.sqrt(self.sigma2), size=symbols.shape)

    def effective_sigma2(self):
        return max(self.sigma2, _SIGMA2_FLOOR)

    @staticmethod
    def hard_decision(r):
        """Per-bit ML decisions: 0 iff r >= 0."""
        return (np.asarray(r) < 0.0).astype(np.uint8)
