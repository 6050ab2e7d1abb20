"""Which ofbdec names the traced run wraps, and the per-layer metrics
computed from the spans and counters they record.

Each wrapped name is the one the caller looks up at call time: the
decoder's recursion calls top_candidates, _consistency_batch and the
contractor through decoder's globals, the experiment harness calls the
transmit chain and the receivers through experiment's globals, and
quantizer and channel work is reached through methods of their classes.
"""

import numpy as np

# per-instant self times in microseconds
PER_INSTANT_US = {
    "interval.contract.us": "interval.contract",
    "decoder.top_candidates.us": "decoder.top_candidates",
    "decoder.consistency.us": "decoder.consistency",
    "decoder.history_reach.us": "decoder.history_reach",
    "decoder.parity.us": "decoder.parity",
    "decoder.step.us": "decoder.step",
}
# per-call self times in milliseconds
PER_CALL_MS = {
    "filterbank.synthesize_ls.ms": "filterbank.synthesize_ls",
    "decoder.decode_classical.ms": "decoder.decode_classical",
    "filterbank.analyze.ms": "filterbank.analyze",
    "quantizer.quantize_block.ms": "quantizer.quantize_block",
    "quantizer.encode_stream.ms": "quantizer.encode_stream",
    "channel.transmit.ms": "channel.transmit",
    "sources.signal.ms": "sources.signal",
    "experiment.pipeline.ms": "experiment.pipeline",
    "setup.chain_ms": "setup.chain",
}
# per-realization self times in milliseconds
PER_REALIZATION_MS = {
    "experiment.run_sweep.self_ms": "experiment.run_sweep",
    "experiment.simulate_point.self_ms": "experiment.simulate_point",
}
# shares of counted outcomes: metric -> (numerator, denominator)
RATIOS = {
    "decoder.consistency.kept": ("consistency.kept", "consistency.listed"),
    "decoder.parity.kept": ("parity.kept", "parity.tested"),
    "decoder.index_error_rate.proposed": ("errors.proposed", "instants.proposed"),
    "decoder.index_error_rate.proposed_pct": ("errors.proposed_pct", "instants.proposed_pct"),
    "decoder.list_miss_rate": ("list.miss", "list.instants"),
}

UNITS = {
    **{k: "us" for k in PER_INSTANT_US},
    **{k: "ms" for k in PER_CALL_MS},
    **{k: "ms" for k in PER_REALIZATION_MS},
    **{k: "ratio" for k in RATIOS},
    "decoder.fallback.per_kinstant": "count/kinstant",
    "setup.import_s": "s",
    "traced.realization_s": "s",
}


# -- hooks ------------------------------------------------------------------


def _sent(tracer, args, kwargs):
    # encode_stream(self, u): the index matrix the realization transmits
    tracer.ctx["u_sent"] = np.asarray(args[1])


def _stream_start(tracer, args, kwargs):
    tracer.ctx["instant"] = -1


def _next_instant(tracer, args, kwargs):
    tracer.ctx["instant"] = tracer.ctx.get("instant", -1) + 1


def _listed(tracer, args, kwargs, cands):
    u = tracer.ctx["u_sent"][tracer.ctx["instant"]]
    tracer.counts["list.instants"] += 1
    if not any(np.array_equal(c.u, u) for c in cands):
        tracer.counts["list.miss"] += 1


def _consistency(tracer, args, kwargs, result):
    empty = np.asarray(result[2])
    tracer.counts["consistency.listed"] += empty.size
    tracer.counts["consistency.kept"] += int(np.count_nonzero(~empty))


def _parity(tracer, args, kwargs, passed):
    passed = np.asarray(passed)
    tracer.counts["parity.tested"] += passed.size
    tracer.counts["parity.kept"] += int(np.count_nonzero(passed))


def _decoded(tracer, args, kwargs, result):
    # decode_sequence(r, poly, parity, q, ch, cfg, x_range) -> (x_hat, diag)
    variant = "proposed_pct" if args[5].use_pct else "proposed"
    u_hat = result[1].u_hat
    wrong = np.any(u_hat != tracer.ctx["u_sent"][: u_hat.shape[0]], axis=1)
    tracer.counts["errors." + variant] += int(np.count_nonzero(wrong))
    tracer.counts["instants." + variant] += u_hat.shape[0]


# (module of ofbdec, class or None, attribute, span name, hooks); each
# span name is "<layer>.<operation>", the layer being the ofbdec module
# that does the work
SPANS = [
    ("decoder", None, "_contract_affine_batch", "interval.contract", {}),
    ("decoder", None, "top_candidates", "decoder.top_candidates", {"after": _listed}),
    ("decoder", None, "_consistency_batch", "decoder.consistency", {"after": _consistency}),
    ("decoder", None, "_history_reach", "decoder.history_reach", {}),
    ("decoder", None, "_parity_residual_bounds", "decoder.parity", {}),
    ("decoder", None, "_parity_pass", "decoder.parity", {"after": _parity}),
    ("decoder", None, "_fallback", "decoder.fallback", {}),
    ("decoder", None, "step", "decoder.step", {"before": _next_instant}),
    ("decoder", None, "synthesize_ls", "filterbank.synthesize_ls", {}),
    ("experiment", None, "synthesize_ls", "filterbank.synthesize_ls", {}),
    ("experiment", None, "decode_sequence", "decoder.decode_sequence",
     {"before": _stream_start, "after": _decoded}),
    ("experiment", None, "decode_classical", "decoder.decode_classical", {}),
    ("experiment", None, "analyze", "filterbank.analyze", {}),
    ("experiment", None, "gen_ar1", "sources.signal", {}),
    ("experiment", None, "load_pgm_lines", "sources.signal", {}),
    ("experiment", None, "Pipeline", "experiment.pipeline", {}),
    ("experiment", None, "run_sweep", "experiment.run_sweep", {}),
    ("experiment", None, "simulate_point", "experiment.simulate_point", {}),
    ("quantizer", "QuantizerBank", "quantize_block", "quantizer.quantize_block", {}),
    ("quantizer", "QuantizerBank", "encode_stream", "quantizer.encode_stream", {"before": _sent}),
    ("channel", "ChannelModel", "transmit", "channel.transmit", {}),
]


def install(tracer, od):
    """Wrap every name in SPANS, found in package od."""
    for mod, cls, attr, span, hooks in SPANS:
        owner = getattr(od, mod)
        if cls is not None:
            owner = getattr(owner, cls, None)
            if owner is None:
                tracer.absent.append(f"{mod}.{cls}")
                continue
        tracer.wrap(owner, attr, span, **hooks)


def metrics(tracer, instants, realizations, import_s, traced_realization_s):
    """Every per-layer metric; layers that were absent or never ran
    read 0 and are named in the returned list of missing layers."""
    self_t, calls = tracer.self_times()
    out = {}
    missing = []

    def put(name, value, present):
        out[name] = {"value": float(value), "unit": UNITS[name]}
        if not present:
            missing.append(name)

    for name, span in PER_INSTANT_US.items():
        put(name, 1e6 * self_t.get(span, 0.0) / instants, span in calls)
    for name, span in PER_CALL_MS.items():
        n = calls.get(span, 0)
        put(name, 1e3 * self_t.get(span, 0.0) / n if n else 0.0, n > 0)
    for name, span in PER_REALIZATION_MS.items():
        put(name, 1e3 * self_t.get(span, 0.0) / realizations, span in calls)
    for name, (num, den) in RATIOS.items():
        d = tracer.counts.get(den, 0)
        put(name, tracer.counts.get(num, 0) / d if d else 0.0, d > 0)
    put("decoder.fallback.per_kinstant",
        1e3 * calls.get("decoder.fallback", 0) / instants, "decoder.fallback" in tracer.wrapped)
    put("setup.import_s", import_s, True)
    put("traced.realization_s", traced_realization_s, True)
    return out, missing
