"""Monte-Carlo experiment harness: configs, sweeps, and CSV output.

A sweep transmits the same quantized source realizations across a list
of channel SNRs and reports, per SNR point, the reconstruction SNR of
four receivers: the classical hard-decision/LS receiver, the
consistency decoder with and without the parity test, and a
quantization-only reference with a noiseless channel.  Sources and
noise come from named substreams of one master seed, and aggregation
reduces realizations in index order, so results are reproducible
byte-for-byte regardless of how many worker processes run.
"""

import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import ChannelModel
from .decoder import _CONFIG_FLOORS, DecoderConfig, _check_bool, _check_integer
from .decoder import decode_classical, decode_sequence, decode_streams
from .filterbank import (
    _bank_source,
    _parse_bank_text,
    analyze,
    parity_from_polyphase,
    polyphase_from_filters,
    synthesize_ls,
)
from .interval import Interval
from .quantizer import allocate_rates, subband_ranges
from .sources import gen_ar1, load_pgm_lines

__all__ = [
    "ExperimentConfig",
    "parse_config",
    "load_config",
    "reconstruction_snr",
    "SnrPoint",
    "run_sweep",
    "simulate_point",
    "write_csv",
    "RECEIVERS",
]

SNR_CAP_DB = 120.0
RECEIVERS = ("classical", "proposed", "proposed_pct", "reference")

# substream name spaces under the master seed
_SOURCE_KEY = 0
_CHANNEL_KEY = 1


def reconstruction_snr(x, x_hat, skip):
    """Reconstruction SNR in dB over the samples after a warmup prefix.

    10*log10(sum x^2 / sum (x - x_hat)^2), capped at 120 dB; the cap is
    also returned for an exact reconstruction.  Raises when the skipped
    signal carries no energy.
    """
    x = np.asarray(x, dtype=float)
    x_hat = np.asarray(x_hat, dtype=float)
    if x.shape != x_hat.shape:
        raise ValueError("signal and reconstruction must have equal shape")
    skip = int(skip)
    if not 0 <= skip < x.size:
        raise ValueError("warmup skip leaves no samples")
    xs = x[skip:]
    p_sig = float(np.sum(xs * xs))
    if p_sig == 0.0:
        raise ValueError("signal power is zero after warmup")
    err = xs - x_hat[skip:]
    p_err = float(np.sum(err * err))
    if p_err == 0.0:
        return SNR_CAP_DB
    return min(SNR_CAP_DB, 10.0 * math.log10(p_sig / p_err))


@dataclass(frozen=True)
class ExperimentConfig:
    source: str = "ar1"  # "ar1" or "pgm"
    n: int = 2000  # samples per realization
    rho: float = 0.9
    clip: float = 4.0
    pgm_path: str = ""
    pgm_rows: tuple = (55, 56, 57, 58)
    pgm_range: tuple = (0.0, 255.0)
    bank: str = "default"  # bank file path, or "default" for the bundled bank
    delta: float = 0.72
    gray: bool = False
    snr_db: tuple = (6.0, 7.0, 8.0, 9.0, 10.0, 11.0)
    realizations: int = 250
    n_max: int = 20
    use_pct: bool = True
    # selects nothing, as there is one consistency step; kept, accepting
    # only "sweep", because bench/load.py passes it
    contractor: str = "sweep"
    window: int = 8
    noiseless: bool = False  # channel override: transmit without noise
    seed: int = 0
    workers: int = 1
    out: str = ""

    def __post_init__(self):
        # sequences become tuples so that the config stays hashable: it
        # keys the pipeline cache
        for name in ("pgm_rows", "pgm_range", "snr_db"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if self.source not in ("ar1", "pgm"):
            raise ValueError(f"source must be 'ar1' or 'pgm', got {self.source!r}")
        if not self.snr_db:
            raise ValueError("snr_db list is empty")
        if not all(math.isfinite(s) for s in self.snr_db):
            raise ValueError(f"snr_db values must be finite, got {self.snr_db}")
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise ValueError(f"delta must be finite and positive, got {self.delta}")
        if self.source == "ar1" and not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho must lie in [0, 1) for an ar1 source, got {self.rho}")
        if self.source == "ar1" and not (math.isfinite(self.clip) and self.clip > 0.0):
            raise ValueError(
                f"clip must be finite and positive for an ar1 source, got {self.clip}"
            )
        if self.source == "pgm" and not (
            len(self.pgm_range) == 2
            and all(math.isfinite(v) for v in self.pgm_range)
            and self.pgm_range[0] < self.pgm_range[1]
        ):
            raise ValueError(
                f"pgm_range must be two finite values lo < hi, got {self.pgm_range}"
            )
        for name, floor in (("realizations", 1), ("n", 1), ("workers", 1), ("seed", 0)):
            value = getattr(self, name)
            _check_integer(name, value)
            if value < floor:
                what = "positive" if floor else "non-negative"
                raise ValueError(f"{name} must be {what}, got {value}")
        if self.contractor != "sweep":
            raise ValueError(f"contractor must be 'sweep', got {self.contractor!r}")
        for name in ("gray", "noiseless"):
            _check_bool(name, getattr(self, name))
        # n_max, window and use_pct are checked by the decoder config
        _decoder_config(self, self.use_pct)


_CONFIG_PARSERS = {
    "source": str,
    "n": int,
    "rho": float,
    "clip": float,
    "pgm_path": str,
    "pgm_rows": lambda s: tuple(int(v) for v in s.split(",") if v.strip()),
    "pgm_range": lambda s: tuple(float(v) for v in s.split(",")),
    "bank": str,
    "delta": float,
    "gray": lambda s: _parse_bool(s),
    "snr_db": lambda s: tuple(float(v) for v in s.split(",") if v.strip()),
    "realizations": int,
    "n_max": int,
    "use_pct": lambda s: _parse_bool(s),
    "contractor": str,
    "window": int,
    "noiseless": lambda s: _parse_bool(s),
    "seed": int,
    "workers": int,
    "out": str,
}


def _parse_bool(s):
    v = s.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def parse_config(text, origin="<config>"):
    """Parse 'key = value' configuration text into an ExperimentConfig.

    '#' starts a comment; unknown keys and malformed values raise
    ValueError naming the line.
    """
    values = {}
    lines = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{origin}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _CONFIG_PARSERS:
            raise ValueError(f"{origin}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _CONFIG_PARSERS[key](val)
        except ValueError as exc:
            raise ValueError(f"{origin}:{lineno}: bad value for {key}: {exc}") from None
        lines[key] = lineno
    for key, floor in _CONFIG_FLOORS.items():
        if key in values and values[key] < floor:
            raise ValueError(f"{origin}:{lines[key]}: {key} must be at least {floor}")
    try:
        cfg = ExperimentConfig(**values)
    except ValueError as exc:
        raise ValueError(f"{origin}: {exc}") from None
    if cfg.source == "pgm" and not cfg.pgm_path:
        raise ValueError(f"{origin}: pgm source requires pgm_path")
    return cfg


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), origin=str(path))


class Pipeline:
    """Everything derived from a config that is shared across
    realizations: bank, parity, quantizers, ranges, warmup length."""

    def __init__(self, cfg):
        if cfg.source == "pgm" and not cfg.pgm_path:
            raise ValueError("pgm source requires pgm_path")
        self.cfg = cfg
        self.bank, self.poly, self.parity = _bank_chain(*_bank_source(cfg.bank))
        if cfg.window < 2 * (self.poly.L + 1):
            raise ValueError(
                f"window = {cfg.window} is below this bank's floor of {2 * (self.poly.L + 1)}"
            )
        if cfg.n % self.poly.N:
            raise ValueError(f"n = {cfg.n} is not a multiple of this bank's N = {self.poly.N}")
        if cfg.source == "ar1":
            self.x_range = Interval(-cfg.clip, cfg.clip)
        else:
            self.x_range = Interval(cfg.pgm_range[0], cfg.pgm_range[1])
        ranges = subband_ranges(self.poly, self.x_range)
        self.q = allocate_rates(ranges, cfg.delta, gray=cfg.gray)
        self.skip = (self.poly.L + self.parity.order + cfg.window) * self.poly.N

    def source_signal(self, realization):
        """The realization's input signal, prepended with L zero blocks
        so the decoder's all-zero initial history is exact.  Samples
        outside x_range are rejected: the quantizer rates and the
        decoder's input box both rest on it."""
        cfg = self.cfg
        if cfg.source == "ar1":
            rng = np.random.default_rng(
                np.random.SeedSequence(cfg.seed, spawn_key=(_SOURCE_KEY, realization))
            )
            x = gen_ar1(cfg.n, cfg.rho, cfg.clip, rng)
        else:
            x = load_pgm_lines(cfg.pgm_path, cfg.pgm_rows, cfg.n)
        lo, hi = self.x_range.lo, self.x_range.hi
        outside = ~((x >= lo) & (x <= hi))
        if np.any(outside):
            raise ValueError(
                f"source sample {x[outside][0]:g} lies outside the input range [{lo:g}, {hi:g}]"
            )
        return np.concatenate([np.zeros(self.poly.L * self.poly.N), x])


@functools.lru_cache(maxsize=4)
def _bank_chain(text, origin):
    """(FilterBank, Polyphase, ParityCheck) of a bank file's text.  Every
    config naming the same text shares them, and with them the caches
    the Polyphase fills (synthesis rows, frame singular values,
    consistency certificates); an edited file is a new key."""
    bank = _parse_bank_text(text, origin)
    poly = polyphase_from_filters(bank)
    return bank, poly, parity_from_polyphase(poly)


def _pipeline_for(cfg):
    """The Pipeline of cfg and of its bank file's current text; the last
    one built is kept, so a sweep's realizations and its CSV header
    share one, and a bank file edited in place is read afresh."""
    return _pipeline_of_source(cfg, _bank_source(cfg.bank))


@functools.lru_cache(maxsize=1)
def _pipeline_of_source(cfg, bank_source):
    # bank_source, the (text, origin) of cfg.bank, only keys the cache
    return Pipeline(cfg)


def _encode(pipe, realization):
    """The transmit chain of one realization: source, analysis bank,
    quantizers and index codes.  Returns (x, bits, reference SNR), the
    reference being the noiseless reconstruction from the sent indexes."""
    poly, q = pipe.poly, pipe.q
    x = pipe.source_signal(realization)
    u = q.quantize_block(analyze(x, poly))
    bits = q.encode_stream(u)
    x_ref = synthesize_ls(poly, q.dequantize_block(u), window=pipe.cfg.window)
    return x, bits, reconstruction_snr(x, x_ref, pipe.skip)


def _decoder_config(cfg, use_pct):
    return DecoderConfig(n_max=cfg.n_max, use_pct=use_pct, window=cfg.window)


def _run_realization(args):
    """Worker body: one source realization across every SNR point.

    Returns (reference_snr, per_snr) with per_snr a list of tuples
    (classical_snr, ber, proposed_snr, proposed_err, pct_snr, pct_err).
    """
    cfg, realization = args
    pipe = _pipeline_for(cfg)
    poly, parity, q = pipe.poly, pipe.parity, pipe.q
    x, bits, ref_snr = _encode(pipe, realization)

    channels = [ChannelModel(snr, seed=cfg.seed, noiseless=cfg.noiseless) for snr in cfg.snr_db]
    rs = [
        ch.transmit(bits, ch.stream(_CHANNEL_KEY, realization, j))
        for j, ch in enumerate(channels)
    ]
    # all 2 * len(snr_db) decoder streams of the realization in lockstep
    cfgs = (_decoder_config(cfg, False), _decoder_config(cfg, True))
    decoded = decode_streams(rs, poly, parity, q, channels, cfgs, pipe.x_range)

    per_snr = []
    for r, ((x_prop, diag_prop), (x_pct, diag_pct)) in zip(rs, decoded):
        ber = float(np.mean(ChannelModel.hard_decision(r) != bits))
        x_cl = decode_classical(r, poly, q, window=cfg.window)
        cl_snr = reconstruction_snr(x, x_cl, pipe.skip)
        prop_snr = reconstruction_snr(x, x_prop, pipe.skip)
        pct_snr = reconstruction_snr(x, x_pct, pipe.skip)
        per_snr.append(
            (cl_snr, ber, prop_snr, diag_prop.error_rate, pct_snr, diag_pct.error_rate)
        )
    return ref_snr, per_snr


@dataclass(frozen=True)
class SnrPoint:
    snr_db: float
    receiver: str
    mean_snr_db: float
    std_snr_db: float
    error_rate: float
    realizations: int
    seed: int


def run_sweep(cfg):
    """Run the full Monte-Carlo sweep of a config.

    Returns a list of SnrPoint rows ordered by (snr_db, receiver).  The
    reduction over realizations is ordered by realization index, so the
    result does not depend on cfg.workers.
    """
    _pipeline_for(cfg)  # config errors surface before any realization runs
    jobs = [(cfg, k) for k in range(cfg.realizations)]
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(_run_realization, jobs, chunksize=1))
    else:
        results = [_run_realization(job) for job in jobs]

    ref = np.array([res[0] for res in results])
    points = []
    for j, snr in enumerate(cfg.snr_db):
        rows = np.array([res[1][j] for res in results])
        cl, ber, prop, prop_err, pct, pct_err = rows.T
        per_receiver = {
            "classical": (cl, float(np.mean(ber))),
            "proposed": (prop, float(np.mean(prop_err))),
            "proposed_pct": (pct, float(np.mean(pct_err))),
            "reference": (ref, 0.0),
        }
        for name in RECEIVERS:
            vals, err = per_receiver[name]
            std = float(np.std(vals, ddof=1)) if vals.size > 1 else 0.0
            points.append(
                SnrPoint(
                    snr_db=float(snr),
                    receiver=name,
                    mean_snr_db=float(np.mean(vals)),
                    std_snr_db=std,
                    error_rate=err,
                    realizations=cfg.realizations,
                    seed=cfg.seed,
                )
            )
    return points


def simulate_point(cfg, realization=0):
    """Decode one realization at the first configured SNR, returning
    per-receiver SNRs and the consistency decoder's diagnostics."""
    pipe = _pipeline_for(cfg)
    poly, parity, q = pipe.poly, pipe.parity, pipe.q
    x, bits, ref_snr = _encode(pipe, realization)

    snr = cfg.snr_db[0]
    ch = ChannelModel(snr, seed=cfg.seed, noiseless=cfg.noiseless)
    r = ch.transmit(bits, ch.stream(_CHANNEL_KEY, realization, 0))

    x_cl = decode_classical(r, poly, q, window=cfg.window)
    dec_cfg = _decoder_config(cfg, cfg.use_pct)
    x_hat, diag = decode_sequence(r, poly, parity, q, ch, dec_cfg, pipe.x_range)

    return {
        "snr_db": float(snr),
        "reference": ref_snr,
        "classical": reconstruction_snr(x, x_cl, pipe.skip),
        "proposed": reconstruction_snr(x, x_hat, pipe.skip),
        "use_pct": cfg.use_pct,
        "error_rate": diag.error_rate,
        "diagnostics": diag,
    }


def write_csv(points, cfg, path):
    """Write sweep rows to CSV, echoing the quantizer setup as comments."""
    pipe = _pipeline_for(cfg)
    lines = [
        "# ofbdec sweep",
        f"# bank = {cfg.bank} (M={pipe.poly.M}, N={pipe.poly.N}, L={pipe.poly.L}, "
        f"parity order {pipe.parity.order})",
        f"# delta = {cfg.delta:g}",
        "# rates = " + ",".join(str(int(r)) for r in pipe.q.rates),
        f"# source = {cfg.source}, n = {cfg.n}, n_max = {cfg.n_max}",
        "snr_db,receiver,mean_snr_db,std_snr_db,error_rate,realizations,seed",
    ]
    for p in points:
        lines.append(
            f"{p.snr_db:g},{p.receiver},{p.mean_snr_db:.6f},{p.std_snr_db:.6f},"
            f"{p.error_rate:.6f},{p.realizations},{p.seed}"
        )
    text = "\n".join(lines) + "\n"
    if path == "-":
        return text
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)
    return text
