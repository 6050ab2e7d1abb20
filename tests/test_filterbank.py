"""Analysis banks, parity construction, and least-squares synthesis."""

import math

import numpy as np
import pytest

from ofbdec.filterbank import (
    FilterBank,
    Polyphase,
    analyze,
    default_filter_bank,
    load_filter_bank,
    parity_from_polyphase,
    polyphase_from_filters,
    synthesize_ls,
    _window_system,
    verify_annihilation,
)

SQ2 = math.sqrt(2.0)


def direct_subbands(x, taps, N):
    """Oracle: y_m[i] = sum_k h_m[k] x[iN + N-1 - k] written as the
    plain block sum y[i] = sum_l E_l x[i-l] evaluated tap by tap."""
    x = np.asarray(x, dtype=float)
    T = -(-x.size // N)
    padded = np.zeros(T * N)
    padded[: x.size] = x
    y = np.zeros((T, len(taps)))
    for m, h in enumerate(taps):
        for i in range(T):
            acc = 0.0
            for k, hk in enumerate(h):
                l, n = divmod(k, N)
                j = i - l
                if j >= 0:
                    acc += hk * padded[j * N + n]
            y[i, m] = acc
    return y


class TestFilterBankValidation:
    def test_dimensions(self):
        with pytest.raises(ValueError, match="dimensions"):
            FilterBank(2, 2, 0, [np.ones(2), np.ones(2)])

    def test_filter_count(self):
        with pytest.raises(ValueError, match="expected 3 filters"):
            FilterBank(3, 2, 0, [np.ones(2), np.ones(2)])

    def test_tap_overflow(self):
        taps = [np.ones(5), np.ones(2), np.ones(2)]
        with pytest.raises(ValueError, match="taps"):
            FilterBank(3, 2, 1, taps)

    def test_order_not_tight(self):
        taps = [np.array([1.0, 1.0]), np.array([1.0, -1.0]), np.array([1.0])]
        with pytest.raises(ValueError, match="not tight"):
            FilterBank(3, 2, 1, taps)

    def test_frame_violation(self):
        # every filter taps only the first sample of each block, so the
        # second input phase is invisible and the bank cannot be a frame
        taps = [np.array([1.0]), np.array([1.0]), np.array([1.0])]
        with pytest.raises(ValueError, match="frame"):
            FilterBank(3, 2, 0, taps)


class TestPolyphaseLayout:
    def test_tap_placement(self):
        taps = [np.arange(1.0, 5.0), np.array([9.0]), np.array([5.0, 6.0, 7.0])]
        bank = FilterBank(3, 2, 1, taps)
        poly = polyphase_from_filters(bank)
        assert np.allclose(poly.E[0], [[1, 2], [9, 0], [5, 6]])
        assert np.allclose(poly.E[1], [[3, 4], [0, 0], [7, 0]])

    def test_stacked_oldest_first(self, tiny_pipe):
        poly = tiny_pipe.poly
        got = poly.stacked_oldest_first()
        assert got.shape == (3, 4)
        assert np.allclose(got[:, :2], poly.E[1])
        assert np.allclose(got[:, 2:], poly.E[0])

    def test_left_inverse(self, default_pipe):
        poly = default_pipe.poly
        W = poly.left_inverse()
        assert np.allclose(W @ poly.E[0], np.eye(poly.N), atol=1e-12)


class TestAnalyze:
    def test_matches_direct_convolution(self, default_pipe):
        rng = np.random.default_rng(0)
        x = rng.normal(size=97)  # deliberately not a multiple of N
        got = analyze(x, default_pipe.poly)
        want = direct_subbands(x, default_pipe.bank.taps, default_pipe.poly.N)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-12

    def test_zero_initial_state(self, tiny_pipe):
        x = np.array([1.0, 2.0])
        got = analyze(x, tiny_pipe.poly)
        assert np.allclose(got[0], tiny_pipe.poly.E[0] @ x)

    def test_constant_input_zeroes_difference_filters(self, default_pipe):
        # filters with zero tap sum see nothing of a constant signal
        x = np.ones(400)
        y = analyze(x, default_pipe.poly)
        sums = np.array([h.sum() for h in default_pipe.bank.taps])
        L = default_pipe.poly.L
        zero_rows = np.flatnonzero(np.abs(sums) < 1e-12)
        assert zero_rows.size > 0
        assert np.max(np.abs(y[L:, zero_rows])) < 1e-12


class TestParity:
    def test_default_bank_order_and_rows(self, default_pipe):
        assert default_pipe.parity.order == 1
        assert default_pipe.parity.rows == 2

    def test_tiny_bank_order_and_rows(self, tiny_pipe):
        assert tiny_pipe.parity.order == 1
        assert tiny_pipe.parity.rows == 1

    def test_annihilation(self, default_pipe, tiny_pipe):
        for pipe in (default_pipe, tiny_pipe):
            assert verify_annihilation(pipe.poly, pipe.parity) < 1e-12

    def test_rows_orthonormal(self, default_pipe, tiny_pipe):
        for pipe in (default_pipe, tiny_pipe):
            p = pipe.parity
            stacked = np.hstack([p.P[l] for l in range(p.order + 1)])
            gram = stacked @ stacked.T
            assert np.max(np.abs(gram - np.eye(p.rows))) < 1e-12

    def test_annihilates_streams(self, default_pipe):
        rng = np.random.default_rng(1)
        poly, parity = default_pipe.poly, default_pipe.parity
        y = analyze(rng.normal(size=50 * poly.N), poly)
        Lp = parity.order
        res = sum(parity.P[l] @ y[Lp - l : y.shape[0] - l].T for l in range(Lp + 1))
        assert np.max(np.abs(res)) < 1e-12

    def test_block_transform_case(self):
        # L=0 with orthonormal columns: order-0 parity annihilating E0
        taps = [np.array([1.0]) / SQ2, np.array([1.0]) / SQ2]
        bank = FilterBank(2, 1, 0, taps)
        poly = polyphase_from_filters(bank)
        parity = parity_from_polyphase(poly)
        assert parity.order == 0
        assert np.max(np.abs(parity.P[0] @ poly.E[0])) < 1e-12


class TestSynthesizeLS:
    def test_round_trip(self, default_pipe):
        rng = np.random.default_rng(2)
        poly = default_pipe.poly
        for _ in range(25):
            x = rng.normal(size=30 * poly.N)
            y = analyze(x, poly)
            xr = synthesize_ls(poly, y, window=8)
            skip = (poly.L + 8) * poly.N
            assert np.max(np.abs(x[skip:-skip] - xr[skip:-skip])) < 1e-8

    def test_round_trip_minimum_window(self, default_pipe):
        rng = np.random.default_rng(3)
        poly = default_pipe.poly
        w = 2 * (poly.L + 1)
        x = rng.normal(size=30 * poly.N)
        y = analyze(x, poly)
        xr = synthesize_ls(poly, y, window=w)
        skip = (poly.L + w) * poly.N
        assert np.max(np.abs(x[skip:-skip] - xr[skip:-skip])) < 1e-8

    def test_window_too_small(self, default_pipe):
        y = np.zeros((10, default_pipe.poly.M))
        with pytest.raises(ValueError, match="window"):
            synthesize_ls(default_pipe.poly, y, window=3)

    def test_orthogonal_block_transform(self):
        # M=N equivalent embedded in M>N: with L=0 and E0 orthonormal
        # columns the mid-window solve reduces to the transpose
        taps = [np.array([1.0, 1.0]) / SQ2, np.array([1.0, -1.0]) / SQ2,
                np.array([1.0, 0.0])]
        bank = FilterBank(3, 2, 0, taps)
        poly = polyphase_from_filters(bank)
        rng = np.random.default_rng(4)
        x = rng.normal(size=20)
        y = analyze(x, poly)
        xr = synthesize_ls(poly, y, window=2)
        assert np.max(np.abs(xr - x)) < 1e-10

    def test_perturbation_bounded_by_pseudo_inverse(self, default_pipe):
        # bump one subband sample; the output moves by at most the
        # corresponding pseudo-inverse column times the bump
        rng = np.random.default_rng(5)
        poly = default_pipe.poly
        x = rng.normal(size=24 * poly.N)
        y = analyze(x, poly)
        base = synthesize_ls(poly, y, window=8)
        yp = y.copy()
        delta = 0.37
        yp[12, 3] += delta
        pert = synthesize_ls(poly, yp, window=8)
        # dense oracle: stack the full system and take its pseudo-inverse
        T = y.shape[0]
        A = _window_system(poly, 0, T - 1, 0, T - 1)
        dx = np.linalg.pinv(A) @ (yp - y).ravel()
        bound = np.max(np.abs(dx)) + 1e-9
        mid = slice(8 * poly.N, -8 * poly.N)
        assert np.max(np.abs(pert[mid] - base[mid])) <= bound + 1e-9

    def test_shape_check(self, default_pipe):
        with pytest.raises(ValueError, match="shape"):
            synthesize_ls(default_pipe.poly, np.zeros((4, 3)), window=8)

    @pytest.mark.parametrize("lead", [(3,), (3, 2)])
    @pytest.mark.parametrize("window", [4, 6, 8])
    def test_stacked_streams_synthesize_as_alone(self, default_pipe, lead, window):
        poly = default_pipe.poly
        rng = np.random.default_rng(window)
        for T in (0, 1, 5, 26):
            y = rng.normal(size=(*lead, T, poly.M))
            got = synthesize_ls(poly, y, window=window)
            assert got.shape == (*lead, T * poly.N)
            for idx in np.ndindex(*lead):
                assert got[idx].tobytes() == synthesize_ls(poly, y[idx], window=window).tobytes()
        with pytest.raises(ValueError, match="shape"):
            synthesize_ls(poly, np.zeros(poly.M), window=window)

    @pytest.mark.parametrize("pipe", ["tiny_pipe", "default_pipe"])
    @pytest.mark.parametrize("window", ["floor", 8, 9])
    def test_every_block_solves_its_clipped_window(self, pipe, window, request):
        # oracle, boundary blocks included: block i is the least-squares
        # solution of equations max(0, i-wb) .. min(T-1, i+wf) of the
        # zero-state stream system, pre-start blocks being known zeros
        poly = request.getfixturevalue(pipe).poly
        M, N, L = poly.M, poly.N, poly.L
        w = 2 * (L + 1) if window == "floor" else window
        wb = (w - 1) // 2
        wf = w - 1 - wb
        rng = np.random.default_rng(w)
        for T in sorted({0, 1, 2, 3, w - 1, w, w + 1, 40}):
            y = rng.normal(size=(T, M))
            A = np.zeros((T * M, T * N))
            for j in range(T):
                for b in range(max(0, j - L), j + 1):
                    A[j * M:(j + 1) * M, b * N:(b + 1) * N] = poly.E[j - b]
            want = np.zeros(T * N)
            for i in range(T):
                lo, hi = max(0, i - wb), min(T - 1, i + wf)
                reach = max(0, lo - L)  # oldest block the equations reach
                sol = np.linalg.lstsq(
                    A[lo * M:(hi + 1) * M, reach * N:(hi + 1) * N],
                    y[lo:hi + 1].ravel(), rcond=None,
                )[0]
                want[i * N:(i + 1) * N] = sol[(i - reach) * N:(i - reach + 1) * N]
            got = synthesize_ls(poly, y, window=w)
            assert got.shape == (T * N,)
            assert np.max(np.abs(got - want), initial=0.0) < 1e-10, f"T={T}"


class TestBankFiles:
    def test_default_bank_shape(self, default_pipe):
        bank = default_pipe.bank
        assert (bank.M, bank.N, bank.L) == (6, 4, 1)
        assert sorted(h.size for h in bank.taps) == [4, 4, 4, 4, 8, 8]
        assert default_pipe.poly.min_frame_singular_value() > 0.99

    def test_default_bank_is_a_tight_file_read(self, default_pipe):
        # the polyphase rows must equal the file taps entry for entry
        from importlib import resources

        text = (resources.files("ofbdec") / "data" / "haar_6x4.txt").read_text()
        rows = [ln.split("#")[0].split() for ln in text.splitlines()]
        rows = [list(map(float, r)) for r in rows if r]
        M, N, L = (int(v) for v in rows[0])
        assert (M, N, L) == (6, 4, 1)
        for m, h in enumerate(rows[1:]):
            padded = np.zeros(N * (L + 1))
            padded[: len(h)] = h
            for l in range(L + 1):
                assert np.allclose(
                    default_pipe.poly.E[l][m], padded[l * N : (l + 1) * N]
                )

    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "bank.txt"
        path.write_text(
            "# comment line\n"
            "3 2 1\n"
            f"{1/SQ2} {1/SQ2}\n"
            f"{1/SQ2} {-1/SQ2}\n"
            "0.5 0.5 -0.5 -0.5\n"
        )
        bank = load_filter_bank(path)
        assert (bank.M, bank.N, bank.L) == (3, 2, 1)
        assert np.allclose(bank.taps[2], [0.5, 0.5, -0.5, -0.5])

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 2 1\n0.7 0.7\n0.7 nope\n0.5 0.5 -0.5 -0.5\n")
        with pytest.raises(ValueError, match=r"bad\.txt:3"):
            load_filter_bank(path)

    def test_header_must_be_three_integers(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 2\n1 0\n0 1\n1 1\n")
        with pytest.raises(ValueError, match="header"):
            load_filter_bank(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n")
        with pytest.raises(ValueError, match="no data"):
            load_filter_bank(path)

    def test_wrong_filter_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 2 1\n1 0\n0 1\n")
        with pytest.raises(ValueError):
            load_filter_bank(path)
