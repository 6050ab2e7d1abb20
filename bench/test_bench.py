"""Tests of the benchmark's checks: each passes on ofbdec as it is and
fails when a broken component is substituted from outside.

    python3 -m pytest bench/test_bench.py -q
"""

import os
import sys
from dataclasses import replace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import ofbdec as od  # noqa: E402
from ofbdec import decoder, experiment  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import load  # noqa: E402
from spans import Tracer  # noqa: E402

SMALL_N = 64


@pytest.fixture
def sweep(monkeypatch):
    monkeypatch.setattr(load, "ORACLE_N", SMALL_N)
    return load.SweepWorkload(od, checks, "default", SMALL_N, seed=3)


@pytest.fixture
def stream(tmp_path):
    inputs.write_inputs(str(tmp_path), 3)
    return load.StreamWorkload(od, checks, inputs, str(tmp_path), seed=3)


def _run_level(wl):
    tally = load.Tally()
    load.run_checks(wl, tally, {})
    return tally.run_failures


def _drop_sent(monkeypatch, sent_rows):
    """A decoder whose candidate list never holds a sent index vector."""
    sent = {tuple(u) for u in sent_rows}
    original = decoder.top_candidates

    def broken(r, q, ch, n_max):
        cands = original(r, q, ch, n_max + 1)
        kept = [c for c in cands if tuple(c.u) not in sent][:n_max]
        return [replace(c, rank=k + 1) for k, c in enumerate(kept)]

    monkeypatch.setattr(decoder, "top_candidates", broken)


def test_checks_pass_on_the_program(sweep, stream):
    assert _run_level(sweep) == []
    assert _run_level(stream) == []


def test_independent_subbands_match_analyze(sweep):
    x = sweep.oracle_signal()
    y = checks.subbands_by_convolution(sweep.chain.bank, x)
    assert np.max(np.abs(y - od.analyze(x, sweep.chain.poly))) < 1e-12


def test_cross_check_catches_broken_analysis(sweep, monkeypatch):
    original = od.analyze
    monkeypatch.setattr(od, "analyze", lambda x, poly: original(x, poly) * (1 + 1e-9))
    assert any("analyze" in f for f in _run_level(sweep))


def test_cross_check_catches_broken_quantizer(sweep, monkeypatch):
    monkeypatch.setattr(od.QuantizerBank, "quantize_block",
                        lambda self, y: np.floor(np.asarray(y) / self.deltas).astype(np.int64))
    assert any("quantize_block" in f for f in _run_level(sweep))


def test_cross_check_catches_gray_codes(sweep, monkeypatch):
    monkeypatch.setattr(sweep.chain.q, "gray", True)
    sweep.chain.q._code_cache.clear()
    assert any("encode_stream" in f for f in _run_level(sweep))


def test_oracle_catches_a_decoder_that_drops_the_sent_candidate(sweep, monkeypatch):
    _drop_sent(monkeypatch, checks.Sent(sweep.chain, sweep.oracle_signal()).u)
    fails = _run_level(sweep)
    assert any("less likely than the sent one" in f for f in fails)
    assert any(f.startswith("noiseless") for f in fails)


def test_oracle_catches_boxes_that_miss_the_signal(sweep, monkeypatch):
    original = decoder._contract_affine_batch

    def collapse(A, lo, hi, *rest):
        empty = original(A, lo, hi, *rest)
        hi[:] = lo  # every box shrinks to its lower corner
        return empty

    monkeypatch.setattr(decoder, "_contract_affine_batch", collapse)
    assert any("misses the true block" in f for f in _run_level(sweep))


def test_ber_check_catches_a_noisier_channel(sweep, monkeypatch):
    original = od.ChannelModel.transmit

    def noisier(self, bits, rng):
        r = original(self, bits, rng)
        return r + (r - (1.0 - 2.0 * np.asarray(bits))) if self.sigma2 else r

    monkeypatch.setattr(od.ChannelModel, "transmit", noisier)
    assert any(f.startswith("BER") for f in _run_level(sweep))


def test_ber_check_binomial_tolerance():
    p = checks.q_function_ber(6.0)
    assert checks.ber_check(6.0, round(p * 10_000), 10_000) == []
    assert checks.ber_check(6.0, round(2 * p * 10_000), 10_000) != []


def test_perfect_receivers_catch_a_perturbed_classical_receiver(sweep, monkeypatch):
    original = decoder.decode_classical
    monkeypatch.setattr(decoder, "decode_classical",
                        lambda *a, **k: original(*a, **k) + 1e-12)
    monkeypatch.setattr(od, "decode_classical", decoder.decode_classical)
    fails = _run_level(sweep)
    assert any("classical receiver" in f for f in fails)


def test_sweep_round_catches_a_perturbed_classical_receiver(sweep, monkeypatch):
    cfg = replace(sweep.base, seed=5, noiseless=True)
    tally = load.Tally()
    sweep.check_round(cfg, sweep.run(cfg), tally, {})
    assert tally.failed == 0 and tally.attempted == sweep.ops_per_round

    original = experiment.decode_classical
    monkeypatch.setattr(experiment, "decode_classical",
                        lambda *a, **k: original(*a, **k) + 1e-3)
    tally = load.Tally()
    sweep.check_round(cfg, sweep.run(cfg), tally, {})
    assert tally.failed == len(load.SNRS)


def test_claim_check_catches_a_decoder_worse_than_hard_decisions(sweep, monkeypatch):
    rows = [sweep.run(replace(sweep.base, seed=k)) for k in range(2)]
    assert checks.claim_check(*sweep.quality(rows)[2:]) == []

    def silent(r, poly, parity, q, ch, cfg, x_range):
        x_hat, diag = decoder.decode_sequence(r, poly, parity, q, ch, cfg, x_range)
        return np.zeros_like(x_hat), diag

    monkeypatch.setattr(experiment, "decode_sequence", silent)
    rows = [sweep.run(replace(sweep.base, seed=k)) for k in range(2)]
    assert checks.claim_check(*sweep.quality(rows)[2:]) != []


def test_stream_round_catches_boxes_that_miss_the_signal(stream, monkeypatch):
    image, cfg, k = next(stream.rounds())[1]
    spec = (image, replace(cfg, noiseless=True), k)
    tally = load.Tally()
    stream.check_round(spec, stream.run(spec), tally, {})
    assert tally.failed == 0

    original = experiment.decode_sequence

    def shifted(*args):
        x_hat, diag = original(*args)
        diag.x_lo += 50.0
        diag.x_hi += 50.0
        return x_hat, diag

    monkeypatch.setattr(experiment, "decode_sequence", shifted)
    tally = load.Tally()
    stream.check_round(spec, stream.run(spec), tally, {})
    assert tally.failed == 1


def test_tracer_reports_absent_names_and_restores_the_program():
    tracer = Tracer()
    tracer.wrap(decoder, "no_such_function", "decoder.none")
    layers.install(tracer, od)
    assert tracer.absent == ["ofbdec.decoder.no_such_function"]
    wrapped = decoder.step
    tracer.uninstall()
    assert decoder.step is not wrapped and not hasattr(decoder.step, "__wrapped__")


def test_traced_decode_counts_every_instant(sweep):
    tracer = Tracer()
    layers.install(tracer, od)
    try:
        sweep.run(replace(sweep.base, seed=7))
    finally:
        tracer.uninstall()
    T = sweep.chain.instants(SMALL_N)
    _, calls = tracer.self_times()
    assert calls["decoder.step"] == sweep.decoder_streams * T
    assert tracer.counts["list.instants"] == sweep.decoder_streams * T
    assert tracer.counts["instants.proposed"] == len(load.SNRS) * T
    assert tracer.hook_failures == {}
    metrics, missing = layers.metrics(tracer, sweep.decoder_streams * T, 1, 1.0, 1.0)
    assert set(missing) == {"experiment.simulate_point.self_ms", "setup.chain_ms"}
    assert all(m["value"] >= 0.0 for m in metrics.values())
