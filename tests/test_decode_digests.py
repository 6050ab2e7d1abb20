"""Byte-level decode goldens: SHA-256 digests of x_hat and of every
DecodeDiagnostics array for a few fixed decodes.

The golden sweep CSVs print 6 decimals, so a last-ulp drift in the
boxes would pass them; these digests would not.  Like the CSVs they pin
this platform's float arithmetic (numpy 2.4, one BLAS thread).  To
regenerate deliberately, run

    PYTHONPATH=src python tests/test_decode_digests.py

and record the change in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from conftest import BankPipeline

from ofbdec import (
    ChannelModel,
    DecoderConfig,
    Interval,
    allocate_rates,
    decode_streams,
    default_filter_bank,
    gen_ar1,
    load_filter_bank,
    subband_ranges,
)

DATA = Path(__file__).parent / "data"
DIGESTS = DATA / "decode_digests.json"
FIELDS = ("flags", "ranks", "n_consistent", "box_width_max", "x_lo", "x_hi", "u_hat")


def _ar1(pipe, n, seed):
    return gen_ar1(n, 0.9, pipe.x_range.hi, np.random.default_rng(seed))


def _pixels(pipe, n, seed):
    """A random-walk row of integer pixels in [0, 255]."""
    rng = np.random.default_rng(seed)
    return np.clip(np.round(128.0 + np.cumsum(rng.normal(0.0, 6.0, size=n))), 0.0, 255.0)


def _bundled(x_range=(-4.0, 4.0), delta=0.72, gray=False):
    pipe = BankPipeline(default_filter_bank(), Interval(*x_range), delta)
    if gray:
        pipe.q = allocate_rates(subband_ranges(pipe.poly, pipe.x_range), delta, gray=True)
    return pipe


def _walsh():
    return BankPipeline(load_filter_bank(DATA / "walsh_12x8.txt"), Interval(-4.0, 4.0), 0.72)


# name -> (pipeline factory, source, samples, SNRs, n_max, use_pct settings)
CASES = {
    "bundled_ar1": (_bundled, _ar1, 400, (6.0, 9.0), 20, (True, False)),
    "image_7db": (lambda: _bundled((0.0, 255.0), 8.0), _pixels, 512, (7.0,), 64, (True,)),
    "walsh_ar1": (_walsh, _ar1, 400, (7.0,), 20, (True, False)),
    "gray_ar1": (lambda: _bundled(gray=True), _ar1, 400, (7.0,), 20, (True, False)),
    "rate9_ar1": (lambda: _bundled(delta=0.05), _ar1, 200, (8.0,), 20, (True, False)),
}


def decode_case(name, seed=17):
    """Decode case `name`: one source realization through every SNR of
    the case, each stream under every use_pct setting.  Returns
    {"<snr> dB, pct <on/off>": {field: sha256 hex}}."""
    make, source, n, snrs, n_max, pcts = CASES[name]
    pipe = make()
    N, L = pipe.poly.N, pipe.poly.L
    x = np.concatenate([np.zeros(N * L), source(pipe, n, seed)])
    _, _, bits = pipe.encode(x)
    channels = [ChannelModel(snr, seed=seed) for snr in snrs]
    rs = [ch.transmit(bits, ch.stream(j)) for j, ch in enumerate(channels)]
    cfgs = [DecoderConfig(n_max=n_max, use_pct=pct) for pct in pcts]
    results = decode_streams(rs, pipe.poly, pipe.parity, pipe.q, channels, cfgs, pipe.x_range)
    out = {}
    for snr, per_cfg in zip(snrs, results):
        for pct, (x_hat, diag) in zip(pcts, per_cfg):
            arrays = {"x_hat": x_hat, **{f: getattr(diag, f) for f in FIELDS}}
            out[f"{snr:g} dB, pct {'on' if pct else 'off'}"] = {
                k: hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
                for k, a in arrays.items()
            }
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_decode_bytes_match_the_recorded_digests(name):
    want = json.loads(DIGESTS.read_text())[name]
    assert decode_case(name) == want


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps({name: decode_case(name) for name in CASES}, indent=1) + "\n")
