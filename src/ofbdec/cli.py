"""Command line front end: bank validation, single runs, and sweeps."""

import argparse
import sys

from .decoder import FLAG_CLEAN
from .experiment import load_config, run_sweep, simulate_point, write_csv
from .filterbank import (
    default_filter_bank,
    load_filter_bank,
    parity_from_polyphase,
    polyphase_from_filters,
    verify_annihilation,
)

import numpy as np


def _cmd_bank_check(args):
    if args.file == "default":
        bank = default_filter_bank()
    else:
        bank = load_filter_bank(args.file)
    poly = polyphase_from_filters(bank)
    parity = parity_from_polyphase(poly)
    stacked = np.hstack([parity.P[l] for l in range(parity.order + 1)])
    gram_err = float(np.max(np.abs(stacked @ stacked.T - np.eye(parity.rows))))
    print(f"bank: M={bank.M} subbands, N={bank.N}, order L={bank.L}")
    print(f"filter lengths: {', '.join(str(h.size) for h in bank.taps)}")
    print(f"frame: min singular value over {4 * (bank.L + 1)} blocks = "
          f"{poly.min_frame_singular_value():.6e}")
    print(f"parity: {parity.rows} rows, order {parity.order}")
    print(f"parity annihilation residual = {verify_annihilation(poly, parity):.3e}")
    print(f"parity row orthonormality residual = {gram_err:.3e}")
    cert = poly.consistency_certificates()
    print(f"consistency: {cert.bases} bases of {cert.subsets} row subsets, "
          f"{cert.circuits} circuits, distinct certificates per coordinate "
          f"{', '.join(str(k) for k in cert.per_coordinate)}; "
          f"{'exact' if cert.exact else 'outer'} hull")
    print("ok")
    return 0


def _cmd_simulate(args):
    cfg = load_config(args.config)
    result = simulate_point(cfg)
    print(f"channel snr: {result['snr_db']:g} dB")
    print(f"reference (quantization only): {result['reference']:.2f} dB")
    print(f"classical receiver:            {result['classical']:.2f} dB")
    name = "with parity test" if result["use_pct"] else "no parity test"
    print(f"consistency decoder ({name}): {result['proposed']:.2f} dB")
    print(f"flagged instants: {100.0 * result['error_rate']:.2f}%")
    if args.verbose:
        diag = result["diagnostics"]
        print("instant,flag,rank,n_consistent,box_width_max")
        for i in range(diag.flags.size):
            print(f"{i},{diag.flags[i]},{diag.ranks[i]},"
                  f"{diag.n_consistent[i]},{diag.box_width_max[i]:.6g}")
    return 0


def _cmd_sweep(args):
    cfg = load_config(args.config)
    out = args.out or cfg.out
    if not out:
        raise ValueError("no output path: pass --out or set 'out' in the config")
    points = run_sweep(cfg)
    text = write_csv(points, cfg, out)
    if out == "-":
        sys.stdout.write(text)
    else:
        print(f"wrote {out} ({len(points)} rows)")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="ofbdec",
        description="Consistent decoding of quantized oversampled filter bank streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bank = sub.add_parser("bank", help="filter bank utilities")
    bank_sub = p_bank.add_subparsers(dest="action", required=True)
    p_check = bank_sub.add_parser("check", help="validate a bank file, print diagnostics")
    p_check.add_argument("file", help="bank file path, or 'default'")

    p_sim = sub.add_parser("simulate", help="decode one realization at one SNR")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--verbose", action="store_true",
                       help="also print per-instant decoder diagnostics as CSV")

    p_sweep = sub.add_parser("sweep", help="Monte-Carlo sweep over channel SNRs")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default="", help="output CSV path ('-' for stdout)")

    args = parser.parse_args(argv)
    try:
        if args.command == "bank":
            return _cmd_bank_check(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        return _cmd_sweep(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
