"""Consistent decoding of quantized oversampled filter bank streams.

The package covers the whole chain: an oversampled FIR analysis bank in
polyphase form, uniform midtread subband quantizers with fixed-rate
binary index codes, a BPSK/AWGN channel with soft outputs, and two
receivers: a classical hard-decision / least-squares reconstruction and
a candidate-list decoder that exploits the bank's redundancy through
interval consistency tests and an FIR parity check.
"""

from .channel import ChannelModel, bpsk_ber
from .decoder import (
    Candidate,
    DecodeDiagnostics,
    DecoderConfig,
    DecoderState,
    FLAG_CLEAN,
    FLAG_NO_CONSISTENT,
    FLAG_PARITY_EXHAUSTED,
    StepResult,
    consistency_box,
    decode_classical,
    decode_sequence,
    decode_streams,
    parity_test,
    step,
    top_candidates,
)
from .experiment import (
    ExperimentConfig,
    SnrPoint,
    load_config,
    parse_config,
    reconstruction_snr,
    run_sweep,
    simulate_point,
    write_csv,
)
from .filterbank import (
    FilterBank,
    ParityCheck,
    Polyphase,
    analyze,
    default_filter_bank,
    load_filter_bank,
    parity_from_polyphase,
    polyphase_from_filters,
    synthesize_ls,
    verify_annihilation,
)
from .interval import Box, Interval, box_hull_lp, matvec_box
from .quantizer import QuantizerBank, allocate_rates, subband_ranges
from .sources import gen_ar1, load_pgm_lines

__version__ = "0.1.0"
