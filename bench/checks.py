"""Checks on ofbdec's outputs that do not trust the code they check.

* An independent transmit chain: subbands by direct convolution and
  downsampling of the bank's taps, rates by interval arithmetic on the
  taps, indexes by round-half-away-from-zero, natural-binary codewords
  by bit shifts.  It is compared with analyze, allocate_rates,
  quantize_block and encode_stream.
* A soundness oracle driven through the public step loop.  On every
  instant whose history is exact (the true earlier blocks and subbands
  lie in the decoder's history boxes), a decoded vector that differs
  from the sent one must be at least as likely as the sent one under
  the channel, and a correct decision's box must contain the true block.
* Noiseless transparency: both receivers return every sent index and
  reproduce the reference reconstruction bit for bit.
* Output checks on sweep and stream results: the classical BER against
  Q(1/sigma), perfect receivers against the reference reconstruction,
  and the paper's claim that the parity decoder beats hard decisions.

Each check returns a list of failure messages; empty means it passed.
"""

import math

import numpy as np

import ofbdec as od

CONTAIN_RTOL = 1e-9
LOGLIK_RTOL = 1e-9
SUBBAND_RTOL = 1e-12
# binomial tolerance of the BER check: 6 standard deviations plus 3
# errors of slack for small counts (false alarm rate below 1e-8)
BER_SIGMAS = 6.0
BER_SLACK = 3.0


class Chain:
    """A workload's transmit chain, built through ofbdec's public API."""

    def __init__(self, bank, x_range, delta):
        self.bank = bank
        self.poly = od.polyphase_from_filters(bank)
        self.parity = od.parity_from_polyphase(self.poly)
        self.x_range = x_range
        self.delta = float(delta)
        self.q = od.allocate_rates(od.subband_ranges(self.poly, x_range), delta)

    def instants(self, n):
        """Decoded instants of an n-sample realization (the program
        prepends L zero blocks)."""
        return -(-n // self.poly.N) + self.poly.L

    def lead_in(self, x):
        """x after the L zero blocks the program puts before a source."""
        return np.concatenate([np.zeros(self.poly.L * self.poly.N), x])


# -- independent transmit chain ---------------------------------------------


def subbands_by_convolution(bank, x):
    """(T, M) subbands of x by FIR filtering and downsampling.

    The bank applies tap l*N + n to sample n of the l-th previous block,
    so its impulse response is the tap vector with every N-tap block
    reversed; subband i is that filter's output at sample N*i + N - 1.
    """
    N, L = bank.N, bank.L
    x = np.asarray(x, dtype=float)
    T = -(-x.size // N)
    xp = np.zeros(T * N)
    xp[: x.size] = x
    y = np.empty((T, bank.M))
    for m, h in enumerate(bank.taps):
        taps = np.zeros(N * (L + 1))
        taps[: h.size] = h
        g = taps.reshape(L + 1, N)[:, ::-1].ravel()
        y[:, m] = np.convolve(xp, g)[N - 1: T * N: N]
    return y


def rates_by_interval(bank, lo, hi, delta):
    """Bits per subband: the smallest R >= 1 whose 2^R cells of width
    delta cover the subband's range for inputs in [lo, hi]."""
    rates = []
    for h in bank.taps:
        width = float(np.sum(np.maximum(h * lo, h * hi) - np.minimum(h * lo, h * hi)))
        rates.append(max(1, math.ceil(math.log2(width / delta) - 1e-12)))
    return np.array(rates)


def quantize_ref(y, delta, rates):
    """Midtread indexes, ties away from zero, clamped to the code range."""
    a = np.floor(np.abs(y) / delta + 0.5)
    u = np.where(y < 0.0, -a, a)
    half = 2.0 ** (np.asarray(rates) - 1)
    return np.clip(u, -half, half - 1).astype(np.int64)


def codewords_ref(u, rates):
    """Natural-binary codewords of u + 2^(R-1), MSB first, concatenated."""
    cols = []
    for m, R in enumerate(int(r) for r in rates):
        v = u[:, m] + (1 << (R - 1))
        for k in range(R - 1, -1, -1):
            cols.append((v >> k) & 1)
    return np.stack(cols, axis=1).astype(np.uint8)


def cell_edge_ties(y, delta):
    """Subband samples lying exactly on a cell edge."""
    return int(np.count_nonzero(np.abs(y) / delta - 0.5 == np.floor(np.abs(y) / delta)))


class Sent:
    """What the independent chain says is transmitted for signal x."""

    def __init__(self, chain, x):
        self.x = np.asarray(x, dtype=float)
        self.blocks = self.x.reshape(-1, chain.poly.N)
        self.y = subbands_by_convolution(chain.bank, self.x)
        self.rates = rates_by_interval(chain.bank, chain.x_range.lo, chain.x_range.hi, chain.delta)
        self.u = quantize_ref(self.y, chain.delta, self.rates)
        self.bits = codewords_ref(self.u, self.rates)
        self.ties = cell_edge_ties(self.y, chain.delta)


def cross_check(chain, sent):
    """Compare ofbdec's encode chain with the independent one."""
    fails = []
    y = od.analyze(sent.x, chain.poly)
    if y.shape != sent.y.shape:
        return [f"analyze shape {y.shape}, expected {sent.y.shape}"]
    err = float(np.max(np.abs(y - sent.y)))
    if err > SUBBAND_RTOL * (1.0 + float(np.max(np.abs(sent.y)))):
        fails.append(f"analyze differs from direct convolution by {err:.3e}")
    if not np.array_equal(chain.q.rates, sent.rates):
        fails.append(f"allocate_rates gives {list(chain.q.rates)}, expected {list(sent.rates)}")
        return fails
    u = chain.q.quantize_block(y)
    bad = int(np.count_nonzero(np.any(u != quantize_ref(y, chain.delta, sent.rates), axis=1)))
    if bad:
        fails.append(f"quantize_block differs on {bad} instants")
    bits = chain.q.encode_stream(sent.u)
    if not np.array_equal(bits, sent.bits):
        fails.append("encode_stream differs from natural-binary codewords")
    return fails


# -- soundness oracle ---------------------------------------------------------


def loglik(r, bits, sigma2):
    s = 1.0 - 2.0 * bits
    return -float(np.sum((r - s) ** 2)) / (2.0 * sigma2)


def inside(lo, hi, v):
    tol = CONTAIN_RTOL * (1.0 + np.abs(v))
    return bool(np.all(lo - tol <= v) and np.all(v <= hi + tol))


def soundness_oracle(chain, sent, r, snr_db, cfg):
    """Run the public step loop on received soft bits r and check the
    decoder's two promises on every exact-history instant.

    Returns (failures, number of exact-history instants).
    """
    poly, parity, q = chain.poly, chain.parity, chain.q
    ch = od.ChannelModel(snr_db)
    sigma2 = 10.0 ** (-snr_db / 10.0)
    state = od.DecoderState.initial(
        od.Box.uniform(chain.x_range.lo, chain.x_range.hi, poly.N), poly, parity
    )
    T = sent.u.shape[0]
    zeros_x, zeros_y = np.zeros(poly.N), np.zeros(poly.M)
    # decoder history as reported by step, most recent first
    x_hist = [(zeros_x, zeros_x)] * poly.L
    y_hist = [(zeros_y, zeros_y)] * parity.order
    fails = []
    exact = 0
    for i in range(T):
        ok = all(
            inside(lo, hi, sent.blocks[i - 1 - l] if i - 1 - l >= 0 else zeros_x)
            for l, (lo, hi) in enumerate(x_hist)
        ) and all(
            inside(lo, hi, sent.y[i - 1 - l] if i - 1 - l >= 0 else zeros_y)
            for l, (lo, hi) in enumerate(y_hist)
        )
        res = od.step(r[i], state, poly, parity, q, ch, cfg)
        if ok:
            exact += 1
            if not np.array_equal(res.u_hat, sent.u[i]):
                got = loglik(r[i], codewords_ref(res.u_hat[None, :], sent.rates)[0], sigma2)
                want = loglik(r[i], sent.bits[i], sigma2)
                if got < want - LOGLIK_RTOL * (1.0 + abs(want)):
                    fails.append(
                        f"instant {i}: decoded vector less likely than the sent one "
                        f"({got:.6g} < {want:.6g}) with exact history"
                    )
            elif not inside(res.x_box.lo, res.x_box.hi, sent.blocks[i]):
                fails.append(f"instant {i}: box of a correct decision misses the true block")
        if x_hist:
            x_hist = [(res.x_box.lo, res.x_box.hi)] + x_hist[:-1]
        if y_hist:
            y_hist = [(res.y_box.lo, res.y_box.hi)] + y_hist[:-1]
    return fails, exact


def perfect_receivers(chain, sent, r, window):
    """A classical receiver whose hard decisions on r are all right must
    reproduce the reference reconstruction bit for bit."""
    hard = (np.asarray(r) < 0.0).astype(np.uint8)
    if not np.array_equal(hard, sent.bits):
        return []
    x_ref = od.synthesize_ls(chain.poly, chain.q.dequantize_block(sent.u), window=window)
    x_cl = od.decode_classical(r, chain.poly, chain.q, window=window)
    if not np.array_equal(x_cl, x_ref):
        return ["classical receiver with no bit errors differs from the reference"]
    return []


def noiseless_check(chain, sent, cfg):
    """Both receivers on a noiseless channel: every sent index comes
    back and the reconstruction equals the reference bit for bit."""
    ch = od.ChannelModel(0.0, noiseless=True)
    r = ch.transmit(sent.bits, None)
    fails = []
    x_ref = od.synthesize_ls(chain.poly, chain.q.dequantize_block(sent.u), window=cfg.window)
    x_hat, diag = od.decode_sequence(r, chain.poly, chain.parity, chain.q, ch, cfg, chain.x_range)
    wrong = int(np.count_nonzero(np.any(diag.u_hat != sent.u, axis=1)))
    if wrong:
        fails.append(f"noiseless decode (use_pct={cfg.use_pct}) got {wrong} instants wrong")
    elif not np.array_equal(x_hat, x_ref):
        fails.append("noiseless decode differs from the reference reconstruction")
    x_cl = od.decode_classical(r, chain.poly, chain.q, window=cfg.window)
    if not np.array_equal(x_cl, x_ref):
        fails.append("noiseless classical receiver differs from the reference reconstruction")
    return fails


# -- output checks --------------------------------------------------------------


def q_function_ber(snr_db):
    sigma = math.sqrt(10.0 ** (-snr_db / 10.0))
    return 0.5 * math.erfc(1.0 / (sigma * math.sqrt(2.0)))


def ber_check(snr_db, errors, nbits):
    """Bit errors of hard decisions against the BPSK error probability."""
    p = q_function_ber(snr_db)
    mean = nbits * p
    tol = BER_SIGMAS * math.sqrt(nbits * p * (1.0 - p)) + BER_SLACK
    if abs(errors - mean) > tol:
        return [f"{errors} bit errors in {nbits} at {snr_db:g} dB; "
                f"Q(1/sigma) predicts {mean:.1f} +- {tol:.1f}"]
    return []


def claim_check(mean_pct, mean_classical):
    """The parity decoder's mean SNR is not below the classical
    receiver's at any channel SNR: dicts keyed by channel SNR."""
    return [
        f"{snr:g} dB: parity decoder {mean_pct[snr]:.3f} dB below classical "
        f"{mean_classical[snr]:.3f} dB"
        for snr in mean_pct
        if mean_pct[snr] < mean_classical[snr]
    ]
