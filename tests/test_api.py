"""The package's public names, and the members that outside tools reach.

The benchmark under bench/ drives ofbdec through `import ofbdec as od`
and wraps or substitutes module-level names of ofbdec.decoder,
ofbdec.experiment, ofbdec.quantizer and ofbdec.channel that the program
looks up at call time.  Removing or renaming any of them breaks the
benchmark; these tests make that a test failure here first.
"""

import dataclasses
import inspect
import os
import subprocess
import sys

import pytest

import ofbdec as od
from ofbdec import channel, decoder, experiment, quantizer

PUBLIC = {
    "Box", "Candidate", "ChannelModel", "DecodeDiagnostics", "DecoderConfig",
    "DecoderState", "ExperimentConfig", "FLAG_CLEAN", "FLAG_NO_CONSISTENT",
    "FLAG_PARITY_EXHAUSTED", "FilterBank", "Interval", "ParityCheck", "Polyphase",
    "QuantizerBank", "SnrPoint", "StepResult", "allocate_rates", "analyze",
    "box_hull_lp", "bpsk_ber", "consistency_box", "decode_classical", "decode_sequence",
    "decode_streams", "default_filter_bank", "gen_ar1", "load_config", "load_filter_bank",
    "load_pgm_lines", "matvec_box",
    "parity_from_polyphase", "parity_test", "parse_config", "polyphase_from_filters",
    "reconstruction_snr", "run_sweep", "simulate_point", "step", "subband_ranges",
    "synthesize_ls", "top_candidates", "verify_annihilation", "write_csv",
}

# module-level names the benchmark wraps or substitutes, by module
CALLED_AT_RUN_TIME = {
    decoder: [
        "_circuit_empty", "_certificate_box", "top_candidates", "_consistency_batch",
        "_history_reach", "_parity_residual_bounds", "_parity_pass", "_fallback", "step",
        "synthesize_ls", "decode_classical", "decode_sequence",
    ],
    experiment: [
        "synthesize_ls", "decode_sequence", "decode_classical", "analyze", "gen_ar1",
        "load_pgm_lines", "Pipeline", "run_sweep", "simulate_point",
    ],
    quantizer.QuantizerBank: ["quantize_block", "encode_stream"],
    channel.ChannelModel: ["transmit"],
}


def test_public_names():
    # submodules show up as they are imported, so they are left out
    names = {n for n in dir(od) if not n.startswith("_") and not inspect.ismodule(getattr(od, n))}
    assert names == PUBLIC


@pytest.mark.parametrize(
    "owner, name",
    [(owner, name) for owner, names in CALLED_AT_RUN_TIME.items() for name in names],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_names_called_at_run_time(owner, name):
    assert callable(getattr(owner, name))


def test_config_fields():
    assert [f.name for f in dataclasses.fields(od.DecoderConfig)] == [
        "n_max", "use_pct", "window",
    ]
    assert {
        "source", "n", "rho", "clip", "pgm_path", "pgm_rows", "pgm_range", "bank", "delta",
        "snr_db", "realizations", "n_max", "use_pct", "contractor", "window", "noiseless",
        "seed", "workers",
    } <= {f.name for f in dataclasses.fields(od.ExperimentConfig)}


def test_members_reached_from_outside():
    box = od.Box.uniform(-4.0, 4.0, 4)
    assert (box.lo.tolist(), box.hi.tolist()) == ([-4.0] * 4, [4.0] * 4)
    x_range = od.Interval(-4.0, 4.0)
    assert (x_range.lo, x_range.hi) == (-4.0, 4.0)
    bank = od.default_filter_bank()
    poly = od.polyphase_from_filters(bank)
    parity = od.parity_from_polyphase(poly)
    state = od.DecoderState.initial(box, poly, parity)
    assert state.x_lo.shape == (1, poly.L, poly.N)
    q = od.allocate_rates(od.subband_ranges(poly, x_range), 0.72)
    for attr in ("rates", "total_bits", "gray", "_code_cache", "dequantize_block"):
        assert hasattr(q, attr)
    assert {f.name for f in dataclasses.fields(od.StepResult)} >= {"u_hat", "x_box", "y_box"}
    assert {f.name for f in dataclasses.fields(od.DecodeDiagnostics)} >= {
        "flags", "u_hat", "x_lo", "x_hi",
    }
    assert {f.name for f in dataclasses.fields(od.SnrPoint)} >= {
        "snr_db", "receiver", "mean_snr_db", "error_rate",
    }


def _loaded_by_import(package):
    """Modules of a top-level package that a fresh `import ofbdec` loads."""
    code = (
        "import sys, ofbdec; "
        f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    ).stdout
    return out.strip()


def test_import_loads_no_scipy():
    # scipy costs about a second of start-up; only box_hull_lp needs it,
    # and imports it when called
    assert _loaded_by_import("scipy") == "[]"


def test_import_loads_no_multiprocessing():
    # multiprocessing pulls in socket, tempfile and more; run_sweep
    # imports the process pool only when it starts worker processes
    assert _loaded_by_import("multiprocessing") == "[]"
