"""End-to-end acceptance checks, one printed verdict line per check.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines;
check 4 runs a 50-realization Monte-Carlo sweep and dominates the
runtime (several minutes single-core).
"""

import time

import numpy as np
from conftest import exhaustive_candidates

from ofbdec import (
    Box,
    ChannelModel,
    DecoderConfig,
    DecoderState,
    ExperimentConfig,
    FLAG_CLEAN,
    analyze,
    bpsk_ber,
    box_hull_lp,
    consistency_box,
    decode_classical,
    decode_sequence,
    gen_ar1,
    matvec_box,
    parity_test,
    reconstruction_snr,
    run_sweep,
    step,
    synthesize_ls,
    top_candidates,
    verify_annihilation,
    write_csv,
)


def _verdict(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"acceptance {num}: {detail}"


def test_1_bank_algebra(default_pipe):
    p = default_pipe
    ann = verify_annihilation(p.poly, p.parity)
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        x = rng.uniform(-4.0, 4.0, size=96)
        y = analyze(x, p.poly)
        x_rec = synthesize_ls(p.poly, y, window=8)
        worst = max(worst, float(np.max(np.abs(x - x_rec))))
    ok = ann <= 1e-9 and worst <= 1e-8
    _verdict(
        1, ok,
        f"annihilation residual {ann:.2e} (tol 1e-9); "
        f"round-trip max error {worst:.2e} over 1000 signals (tol 1e-8)",
    )


def test_2_small_instance_oracles(tiny_pipe):
    p = tiny_pipe
    poly, parity, q = p.poly, p.parity, p.q
    ch = ChannelModel(4.0, seed=20)

    # (a) the breadth-first list equals the exhaustive ranking of all
    # 64 index vectors on 100 random channel draws
    rank_mismatches = 0
    rng = np.random.default_rng(200)
    for t in range(100):
        bits = rng.integers(0, 2, size=q.total_bits)
        r = ch.transmit(bits, ch.stream(2, t))
        want_u, want_s = exhaustive_candidates(r, q, ch)
        cands = top_candidates(r, q, ch, 64)
        got_u = np.stack([c.u for c in cands])
        got_s = np.array([c.loglik for c in cands])
        if not (np.array_equal(got_u, want_u) and np.array_equal(got_s, want_s)):
            rank_mismatches += 1

    # (b) exclusion soundness on a decoded stream: any index vector the
    # sampling oracle can reach from the live state must survive both
    # the consistency test and the parity test
    T = 1000
    n_samp = 100_000
    x = np.random.default_rng(201).uniform(-1.0, 1.0, size=2 * T)
    y = analyze(x, poly)
    bits = q.encode_stream(q.quantize_block(y))
    r = ch.transmit(bits, ch.stream(3))

    E0, E1 = poly.E[0], poly.E[1]
    g = np.arange(-2, 2)
    mesh = np.meshgrid(g, g, g, indexing="ij")
    u_all = np.stack([m.ravel() for m in mesh], axis=1)
    weights = np.array([16, 4, 1])

    cfg = DecoderConfig(n_max=64, use_pct=False)
    input_box = Box.uniform(-1.0, 1.0, 2)
    state = DecoderState.initial(input_box, poly, parity)
    orng = np.random.default_rng(12345)

    excl_violations = 0
    for i in range(T):
        # step rebinds the history arrays rather than writing into them,
        # so snap keeps the history this instant is decoded against
        snap = DecoderState(input_box, state.x_lo, state.x_hi, state.y_lo, state.y_hi)
        xh_lo, xh_hi = state.x_lo[0, 0], state.x_hi[0, 0]
        yh_lo, yh_hi = state.y_lo[0, 0], state.y_hi[0, 0]
        X0 = orng.uniform(input_box.lo, input_box.hi, size=(n_samp, 2))
        X1 = orng.uniform(xh_lo, xh_hi, size=(n_samp, 2))
        X2 = orng.uniform(input_box.lo, input_box.hi, size=(n_samp, 2))
        codes = (q.quantize_block(X0 @ E0.T + X1 @ E1.T) + 2) @ weights
        feas = np.zeros(64, dtype=bool)
        feas[np.unique(codes)] = True
        y_prev = X1 @ E0.T + X2 @ E1.T
        ok_prev = np.all((y_prev >= yh_lo) & (y_prev <= yh_hi), axis=1)
        feas_pct = np.zeros(64, dtype=bool)
        feas_pct[np.unique(codes[ok_prev])] = True

        step(r[i], state, poly, parity, q, ch, cfg)

        for code in np.flatnonzero(feas):
            if consistency_box(u_all[code], snap, poly, q).is_empty:
                excl_violations += 1
        for code in np.flatnonzero(feas_pct):
            if not parity_test(u_all[code], snap, parity, q):
                excl_violations += 1

    # (c) û on clean instants must be the likelihood argmax over the
    # truly feasible candidates.  The bank is under the certificate cap,
    # so the default decoder's hull is exact; the scipy LP hull checks
    # the candidates ranked at or above each pick, against the history
    # the decoder built (the lag-1 polyphase matrix has a single nonzero
    # row, so the history reach interval is exact)
    cfg = DecoderConfig(n_max=20, use_pct=False)
    state = DecoderState.initial(input_box, poly, parity)
    argmax_mismatches = 0
    clean = 0

    def lp_feasible(u, reach):
        lo, hi = q.cell_bounds(u)
        return not box_hull_lp(E0, input_box, Box(lo - reach.hi, hi - reach.lo)).is_empty

    for i in range(T):
        reach = matvec_box(E1, Box(state.x_lo[0, 0], state.x_hi[0, 0]))
        res = step(r[i], state, poly, parity, q, ch, cfg)
        if res.flag != FLAG_CLEAN:
            continue
        clean += 1
        cands = top_candidates(r[i], q, ch, cfg.n_max)
        assert np.array_equal(cands[res.rank - 1].u, res.u_hat)
        better_feasible = any(lp_feasible(c.u, reach) for c in cands[: res.rank - 1])
        if better_feasible or not lp_feasible(res.u_hat, reach):
            argmax_mismatches += 1

    ok = rank_mismatches == 0 and excl_violations == 0 and argmax_mismatches == 0
    _verdict(
        2, ok,
        f"list=exhaustive on 100/100 draws; {excl_violations} exclusion "
        f"soundness violations ({T} instants x {n_samp} samples); "
        f"{argmax_mismatches} argmax mismatches on {clean} clean instants",
    )


def test_3_noiseless_containment(default_pipe):
    p = default_pipe
    N = p.poly.N
    skip = (p.poly.L + p.parity.order + 8) * N
    ch = ChannelModel(7.0, noiseless=True)
    index_errors = 0
    containment_misses = 0
    worst_gap = 0.0
    for k in range(3):
        rng = np.random.default_rng(300 + k)
        x = np.concatenate([np.zeros(N), gen_ar1(2000, 0.9, 4.0, rng)])
        _, u, bits = p.encode(x)
        r = ch.transmit(bits, ch.stream(k))
        blocks = x.reshape(-1, N)
        snr_cl = reconstruction_snr(
            x, decode_classical(r, p.poly, p.q, window=8), skip
        )
        for use_pct in (False, True):
            cfg = DecoderConfig(use_pct=use_pct)
            x_hat, diag = decode_sequence(
                r, p.poly, p.parity, p.q, ch, cfg, p.x_range
            )
            index_errors += int(np.sum(np.any(diag.u_hat != u, axis=1)))
            inside = (diag.x_lo - 1e-9 <= blocks) & (blocks <= diag.x_hi + 1e-9)
            containment_misses += int(np.sum(~np.all(inside, axis=1)))
            gap = abs(reconstruction_snr(x, x_hat, skip) - snr_cl)
            worst_gap = max(worst_gap, gap)
    ok = index_errors == 0 and containment_misses == 0 and worst_gap <= 0.1
    _verdict(
        3, ok,
        f"index errors {index_errors}, containment misses "
        f"{containment_misses} over 3 noiseless realizations x 2 modes; "
        f"worst SNR gap to classical {worst_gap:.4f} dB (tol 0.1)",
    )


def test_4_gain_sweep():
    cfg = ExperimentConfig(realizations=50, workers=1)
    t0 = time.time()
    points = run_sweep(cfg)
    elapsed = time.time() - t0
    by = {(p.snr_db, p.receiver): p for p in points}

    gain7 = by[(7.0, "proposed")].mean_snr_db - by[(7.0, "classical")].mean_snr_db
    ok_a = gain7 >= 3.0

    pct_gaps = {
        s: by[(s, "proposed_pct")].mean_snr_db - by[(s, "proposed")].mean_snr_db
        for s in cfg.snr_db
    }
    ok_b = all(gap >= -0.1 for gap in pct_gaps.values())

    ref = by[(11.0, "reference")].mean_snr_db
    dist_plain = ref - by[(11.0, "proposed")].mean_snr_db
    dist_pct = ref - by[(11.0, "proposed_pct")].mean_snr_db
    ok_c = dist_plain <= 2.0 and dist_pct <= 2.0

    ok_d = True
    n = cfg.realizations
    for name in ("proposed", "proposed_pct"):
        for lo_snr, hi_snr in zip(cfg.snr_db, cfg.snr_db[1:]):
            a, b = by[(lo_snr, name)], by[(hi_snr, name)]
            se = np.sqrt((a.std_snr_db**2 + b.std_snr_db**2) / n)
            if b.mean_snr_db < a.mean_snr_db - se:
                ok_d = False

    ok = ok_a and ok_b and ok_c and ok_d
    _verdict(
        4, ok,
        f"7 dB gain over classical {gain7:+.2f} dB (need >= +3); "
        f"parity test adds {pct_gaps[7.0]:+.2f} dB at 7 dB and is within "
        f"-0.1 dB everywhere ({'yes' if ok_b else 'no'}); 11 dB within "
        f"{max(dist_plain, dist_pct):.2f} dB of reference (tol 2); "
        f"monotone within 1 SE ({'yes' if ok_d else 'no'}); "
        f"50 realizations in {elapsed:.0f}s",
    )


def test_5_channel_calibration():
    ch = ChannelModel(7.0, seed=77)
    n = 1_000_000
    bits = ch.stream(0).integers(0, 2, size=n)
    r = ch.transmit(bits, ch.stream(1))
    emp = float(np.mean(ChannelModel.hard_decision(r) != bits))
    want = bpsk_ber(7.0)
    rel = abs(emp - want) / want
    _verdict(
        5, rel <= 0.03,
        f"BER at 7 dB: empirical {emp:.6f} vs closed form {want:.6f}, "
        f"relative error {100 * rel:.2f}% (tol 3%)",
    )


def test_6_parallel_determinism():
    base = ExperimentConfig(
        n=320, realizations=3, snr_db=(7.0, 9.0), seed=11, workers=1
    )
    wide = ExperimentConfig(
        n=320, realizations=3, snr_db=(7.0, 9.0), seed=11, workers=3
    )
    a = write_csv(run_sweep(base), base, "-")
    b = write_csv(run_sweep(base), base, "-")
    c = write_csv(run_sweep(wide), wide, "-")
    ok = a == b == c
    _verdict(
        6, ok,
        f"CSV identical across repeat runs ({'yes' if a == b else 'no'}) "
        f"and across 1 vs 3 workers ({'yes' if a == c else 'no'})",
    )
