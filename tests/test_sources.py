"""Gauss-Markov source statistics and PGM line extraction."""

import numpy as np
import pytest

from ofbdec import gen_ar1, load_pgm_lines


# gen_ar1(8, 0.9, clip, np.random.default_rng(2024)) as first produced by
# scipy.signal.lfilter([1], [1, -0.9], drive); the recurrence must match
# it bit for bit
AR1_PIN = [
    1.0288568739519013, 1.6416675396226847, 1.97734424027003, 1.3554107000552764,
    0.612762143183701, 0.5807761409782499, 0.8981526875032562, 1.0302867987082631,
]


class TestAr1:
    def test_pinned_sequence(self):
        x = gen_ar1(8, 0.9, 4.0, np.random.default_rng(2024))
        assert x.tolist() == AR1_PIN
        clipped = gen_ar1(8, 0.9, 1.5, np.random.default_rng(2024))
        assert clipped.tolist() == [min(v, 1.5) for v in AR1_PIN]

    def test_unit_marginal_variance_white(self):
        x = gen_ar1(100_000, 0.0, 10.0, np.random.default_rng(0))
        assert abs(x.var() - 1.0) < 0.02
        assert abs(x.mean()) < 0.02

    def test_unit_marginal_variance_correlated(self):
        x = gen_ar1(200_000, 0.9, 10.0, np.random.default_rng(1))
        assert abs(x.var() - 1.0) < 0.05

    def test_lag_one_correlation(self):
        x = gen_ar1(200_000, 0.9, 10.0, np.random.default_rng(2))
        r1 = np.mean(x[1:] * x[:-1]) / x.var()
        assert abs(r1 - 0.9) < 0.01

    def test_deterministic_in_seed(self):
        a = gen_ar1(500, 0.9, 4.0, np.random.default_rng(7))
        b = gen_ar1(500, 0.9, 4.0, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_clipped(self):
        x = gen_ar1(50_000, 0.9, 2.0, np.random.default_rng(3))
        assert x.max() <= 2.0 and x.min() >= -2.0
        assert np.any(x == 2.0) or np.any(x == -2.0)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="rho"):
            gen_ar1(10, 1.0, 4.0, rng)
        with pytest.raises(ValueError, match="rho"):
            gen_ar1(10, -0.1, 4.0, rng)
        with pytest.raises(ValueError, match="clip"):
            gen_ar1(10, 0.5, 0.0, rng)

    def test_empty_length_rejected(self):
        with pytest.raises(ValueError, match="n must be at least 1"):
            gen_ar1(0, 0.9, 4.0, np.random.default_rng(0))


def write_p2(path, width, height, maxval, pixels):
    body = " ".join(str(v) for v in pixels)
    path.write_text(f"P2\n{width} {height}\n{maxval}\n{body}\n")


class TestPgm:
    def test_ascii_rows_in_order(self, tmp_path):
        f = tmp_path / "a.pgm"
        write_p2(f, 2, 2, 255, [0, 1, 2, 3])
        assert load_pgm_lines(f, (0, 1), 4).tolist() == [0.0, 1.0, 2.0, 3.0]
        assert load_pgm_lines(f, (1, 0), 4).tolist() == [2.0, 3.0, 0.0, 1.0]
        assert load_pgm_lines(f, (1,), 1).tolist() == [2.0]

    def test_binary_matches_ascii(self, tmp_path):
        rng = np.random.default_rng(4)
        pix = rng.integers(0, 256, size=12)
        fa = tmp_path / "a.pgm"
        fb = tmp_path / "b.pgm"
        write_p2(fa, 4, 3, 255, pix)
        fb.write_bytes(b"P5\n4 3\n255\n" + bytes(pix.tolist()))
        got_a = load_pgm_lines(fa, (0, 2), 8)
        got_b = load_pgm_lines(fb, (0, 2), 8)
        assert np.array_equal(got_a, got_b)

    def test_comments_skipped(self, tmp_path):
        f = tmp_path / "c.pgm"
        f.write_text("P2 # magic\n# a comment line\n2 1\n# more\n255\n7 9\n")
        assert load_pgm_lines(f, (0,), 2).tolist() == [7.0, 9.0]

    def test_count_overflow(self, tmp_path):
        f = tmp_path / "a.pgm"
        write_p2(f, 2, 2, 255, [0, 1, 2, 3])
        with pytest.raises(ValueError, match="supply only 2"):
            load_pgm_lines(f, (0,), 3)

    def test_row_out_of_range(self, tmp_path):
        f = tmp_path / "a.pgm"
        write_p2(f, 2, 2, 255, [0, 1, 2, 3])
        with pytest.raises(ValueError, match="row 2"):
            load_pgm_lines(f, (2,), 1)

    def test_bad_magic(self, tmp_path):
        f = tmp_path / "a.pgm"
        f.write_text("P6\n2 2\n255\n")
        with pytest.raises(ValueError, match="not a PGM"):
            load_pgm_lines(f, (0,), 1)

    def test_bad_header_token_names_byte(self, tmp_path):
        f = tmp_path / "a.pgm"
        f.write_text("P2\nxx 2\n255\n0 0\n")
        with pytest.raises(ValueError, match="width at byte 3"):
            load_pgm_lines(f, (0,), 1)

    def test_truncated_header(self, tmp_path):
        f = tmp_path / "a.pgm"
        f.write_text("P2\n2")
        with pytest.raises(ValueError, match="truncated header"):
            load_pgm_lines(f, (0,), 1)

    def test_sixteen_bit_rejected(self, tmp_path):
        f = tmp_path / "a.pgm"
        write_p2(f, 1, 1, 65535, [0])
        with pytest.raises(ValueError, match="maxval 65535"):
            load_pgm_lines(f, (0,), 1)

    def test_truncated_raster(self, tmp_path):
        f = tmp_path / "a.pgm"
        f.write_bytes(b"P5\n4 2\n255\n\x00\x01")
        with pytest.raises(ValueError, match="raster truncated"):
            load_pgm_lines(f, (0,), 1)

    def test_ascii_pixel_out_of_range(self, tmp_path):
        f = tmp_path / "a.pgm"
        write_p2(f, 2, 1, 100, [50, 101])
        with pytest.raises(ValueError, match="pixel 101"):
            load_pgm_lines(f, (0,), 1)

    def test_binary_pixel_out_of_range(self, tmp_path):
        f = tmp_path / "a.pgm"
        f.write_bytes(b"P5\n4 1\n100\n" + bytes([50, 100, 200, 7]))
        with pytest.raises(ValueError, match="pixel 200 out of range at byte 13"):
            load_pgm_lines(f, (0,), 1)
