"""BPSK/AWGN channel model and soft bit metrics."""

import numpy as np
import pytest

from ofbdec.channel import ChannelModel, bpsk_ber
from ofbdec.decoder import top_candidates
from ofbdec.interval import Box
from ofbdec.quantizer import QuantizerBank


def test_noiseless_symbols_exact():
    ch = ChannelModel(7.0, noiseless=True)
    bits = np.array([0, 1, 1, 0, 1])
    r = ch.transmit(bits, ch.stream(0))
    assert np.array_equal(r, np.array([1.0, -1.0, -1.0, 1.0, -1.0]))
    assert ch.sigma2 == 0.0


def test_sigma2_from_snr():
    assert np.isclose(ChannelModel(0.0).sigma2, 1.0)
    assert np.isclose(ChannelModel(10.0).sigma2, 0.1)
    assert np.isclose(ChannelModel(7.0).sigma2, 10.0 ** -0.7)


@pytest.mark.parametrize("snr_db", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_snr_rejected(snr_db):
    """A NaN SNR would fail later as non-finite soft bits, and an
    infinite one would decode noiselessly at the sigma2 floor."""
    with pytest.raises(ValueError, match=f"^snr_db must be finite unless noiseless, got {snr_db}$"):
        ChannelModel(snr_db)
    ch = ChannelModel(snr_db, noiseless=True)
    assert ch.noiseless and ch.sigma2 == 0.0


def test_noise_statistics():
    ch = ChannelModel(10.0 * np.log10(5.0), seed=11)  # sigma2 = 0.2
    assert np.isclose(ch.sigma2, 0.2)
    r = ch.transmit(np.zeros(1_000_000, dtype=int), ch.stream(0))
    assert abs(r.mean() - 1.0) < 0.005
    assert abs(r.var() - 0.2) < 0.004


def one_bit_bank():
    """One 1-bit subband: index -1 sends bit 0, index 0 sends bit 1."""
    return QuantizerBank([1.0], [1], Box(np.array([-1.0]), np.array([1.0])))


def logliks(r, q, ch, n_max):
    """{index of the first subband: log-likelihood} of the listed candidates."""
    return {int(c.u[0]): c.loglik for c in top_candidates(np.asarray(r, dtype=float), q, ch, n_max)}


def test_candidate_loglik_values():
    q = one_bit_bank()
    ch = ChannelModel(10.0 * np.log10(2.0))  # sigma2 = 0.5
    got = logliks([1.0], q, ch, 2)
    assert np.isclose(got[-1], 0.0)
    assert np.isclose(got[0], -4.0)
    # log-likelihood ratio 2r/sigma2 at r = 1
    assert np.isclose(got[-1] - got[0], 4.0)
    # r = 0 is equidistant from both symbols
    got = logliks([0.0], q, ch, 2)
    assert np.isclose(got[-1], got[0])


def test_candidate_loglik_sums_bit_terms():
    # a listed candidate's score is the sum over its codeword's bits of
    # -(r - s)^2 / (2 sigma2), s = 1 - 2b the sent symbol
    q = QuantizerBank([1.0, 1.0, 1.0], [2, 3, 1], Box(np.full(3, -4.0), np.full(3, 4.0)))
    ch = ChannelModel(7.0, seed=3)
    rng = ch.stream(0)
    for _ in range(5):
        r = rng.normal(size=q.total_bits)
        for c in top_candidates(r, q, ch, 64):
            s = 1.0 - 2.0 * q.encode_stream(c.u[None])[0]
            assert np.isclose(c.loglik, -np.sum((r - s) ** 2) / (2.0 * ch.sigma2))


def test_candidate_loglik_orders_hypotheses():
    q = QuantizerBank([1.0], [2], Box(np.array([-2.0]), np.array([2.0])))
    ch = ChannelModel(10.0 * np.log10(2.0))  # sigma2 = 0.5
    r = np.array([1.0, -1.0])  # soft bits for codeword 01, index -1
    scores = logliks(r, q, ch, 4)
    assert np.isclose(scores[-1], 0.0)
    assert np.isclose(scores[-2], -4.0)  # codeword 00, one bit off
    assert np.isclose(scores[1], -4.0)  # codeword 11, one bit off
    assert np.isclose(scores[0], -8.0)  # codeword 10, both bits off
    assert top_candidates(r, q, ch, 1)[0].u.tolist() == [-1]


def test_noiseless_loglik_finite():
    ch = ChannelModel(7.0, noiseless=True)
    got = logliks([-1.0], one_bit_bank(), ch, 2)
    assert np.all(np.isfinite(list(got.values())))
    assert got[-1] < got[0]


def test_hard_decision():
    r = np.array([0.3, -0.1, 0.0, -2.0, 1.5])
    assert ChannelModel.hard_decision(r).tolist() == [0, 1, 0, 1, 0]


def test_substreams_deterministic_and_independent():
    ch = ChannelModel(7.0, seed=42)
    a1 = ch.stream(3, 1).normal(size=100)
    a2 = ch.stream(3, 1).normal(size=100)
    b = ch.stream(3, 2).normal(size=100)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    # a different top seed changes every substream
    c = ChannelModel(7.0, seed=43).stream(3, 1).normal(size=100)
    assert not np.array_equal(a1, c)


def test_transmit_prefix_stable():
    # drawing a longer batch from the same substream extends, not
    # reshuffles, the noise sequence
    ch = ChannelModel(7.0, seed=5)
    bits = np.zeros(200, dtype=int)
    r_long = ch.transmit(bits, ch.stream(9))
    r_short = ch.transmit(bits[:50], ch.stream(9))
    assert np.array_equal(r_long[:50], r_short)


def test_bpsk_ber_closed_form():
    assert np.isclose(bpsk_ber(7.0), 0.012586, atol=2e-6)
    assert bpsk_ber(11.0) < bpsk_ber(7.0) < bpsk_ber(3.0)


def test_hard_decision_error_rate_matches_ber():
    ch = ChannelModel(7.0, seed=17)
    n = 400_000
    bits = ch.stream(100).integers(0, 2, size=n)
    r = ch.transmit(bits, ch.stream(101))
    errs = np.mean(ChannelModel.hard_decision(r) != bits)
    p = bpsk_ber(7.0)
    se = np.sqrt(p * (1 - p) / n)
    assert abs(errs - p) < 4 * se
