"""Experiment harness: SNR metric, config parsing, sweeps, CSV output."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from ofbdec import (
    ExperimentConfig,
    load_config,
    parse_config,
    reconstruction_snr,
    run_sweep,
    simulate_point,
    write_csv,
)
from ofbdec import experiment
from ofbdec.experiment import RECEIVERS

SMALL = dict(n=160, realizations=2, snr_db=(7.0,), seed=5)


class TestReconstructionSnr:
    def test_exact_reconstruction_hits_cap(self):
        x = np.array([1.0, -2.0, 3.0])
        assert reconstruction_snr(x, x.copy(), 0) == 120.0

    def test_zero_estimate_gives_zero_db(self):
        x = np.array([1.0, 1.0])
        assert reconstruction_snr(x, np.zeros(2), 0) == 0.0

    def test_halving_error_energy_gains_3db(self):
        x = np.ones(100)
        e = np.full(100, 0.1)
        a = reconstruction_snr(x, x - e, 0)
        b = reconstruction_snr(x, x - e / np.sqrt(2.0), 0)
        assert np.isclose(b - a, 10.0 * np.log10(2.0))

    def test_skip_ignores_warmup_errors(self):
        x = np.ones(50)
        x_hat = x.copy()
        x_hat[:10] = 0.0
        assert reconstruction_snr(x, x_hat, 10) == 120.0

    def test_tiny_error_caps(self):
        x = np.ones(10)
        assert reconstruction_snr(x, x + 1e-12, 0) == 120.0

    def test_validation(self):
        x = np.ones(4)
        with pytest.raises(ValueError, match="shape"):
            reconstruction_snr(x, np.ones(5), 0)
        with pytest.raises(ValueError, match="skip"):
            reconstruction_snr(x, x, 4)
        with pytest.raises(ValueError, match="power"):
            reconstruction_snr(np.zeros(4), np.ones(4), 0)
        for bad in (np.nan, np.inf, -np.inf):
            y = np.array([1.0, 2.0, bad, 4.0])
            with pytest.raises(ValueError, match="must be finite"):
                reconstruction_snr(x, y, 0)
            with pytest.raises(ValueError, match="must be finite"):
                reconstruction_snr(y, x, 0)


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config("")
        assert cfg == ExperimentConfig()
        assert cfg.delta == 0.72 and cfg.source == "ar1"

    def test_full_file(self):
        text = """
        # sweep setup
        source = ar1
        n = 512          # samples
        rho = 0.85
        delta = 0.5
        snr_db = 6, 8, 10
        realizations = 3
        use_pct = off
        gray = yes
        workers = 2
        out = result.csv
        """
        cfg = parse_config(text)
        assert cfg.n == 512 and cfg.rho == 0.85
        assert cfg.snr_db == (6.0, 8.0, 10.0)
        assert cfg.use_pct is False and cfg.gray is True
        assert cfg.workers == 2 and cfg.out == "result.csv"

    def test_unknown_key_names_line(self):
        with pytest.raises(ValueError, match=r"sim\.cfg:2: unknown key 'rho2'"):
            parse_config("n = 10\nrho2 = 0.5\n", origin="sim.cfg")

    def test_bad_value_names_line(self):
        with pytest.raises(ValueError, match=r":1: bad value for n"):
            parse_config("n = ten\n")

    def test_repeated_key_names_both_lines(self):
        with pytest.raises(ValueError, match=r"^run\.cfg:3: key 'n' already set on line 1$"):
            parse_config("n = 16\nseed = 1\nn = 32\n", origin="run.cfg")

    def test_list_values_skip_empty_items(self):
        cfg = parse_config("snr_db = 7,\npgm_rows = 1,2,\npgm_range = 0,255,\n")
        assert cfg.snr_db == (7.0,) and cfg.pgm_rows == (1, 2)
        assert cfg.pgm_range == (0.0, 255.0)

    def test_missing_equals(self):
        with pytest.raises(ValueError, match=r":1: expected 'key = value'"):
            parse_config("just a line\n")

    def test_bad_bool(self):
        with pytest.raises(ValueError, match="bad value for use_pct"):
            parse_config("use_pct = maybe\n")

    def test_pgm_requires_path(self):
        with pytest.raises(ValueError, match="pgm_path"):
            parse_config("source = pgm\n")

    def test_bad_source(self):
        with pytest.raises(ValueError, match="source"):
            parse_config("source = wav\n")

    def test_empty_snr_list(self):
        with pytest.raises(ValueError, match="snr_db"):
            parse_config("snr_db = ,\n")

    def test_positive_counts(self):
        with pytest.raises(ValueError, match="positive"):
            parse_config("workers = 0\n")

    @pytest.mark.parametrize("key, value, floor", [("n_max", 0, 1), ("window", 1, 2)])
    def test_floors_name_line(self, key, value, floor):
        with pytest.raises(ValueError, match=rf"run\.cfg:2: {key} must be at least {floor}"):
            parse_config(f"n = 64\n{key} = {value}\n", origin="run.cfg")

    def test_window_below_bank_floor_fails_before_decoding(self, monkeypatch):
        cfg = parse_config("window = 3\nn = 64\nrealizations = 1\n")

        def no_realization(args):
            raise AssertionError("a realization ran")

        monkeypatch.setattr(experiment, "_run_realization", no_realization)
        with pytest.raises(ValueError, match="window = 3 is below this bank's floor of 4"):
            run_sweep(cfg)

    def test_n_off_the_block_grid_fails_before_decoding(self, monkeypatch):
        def no_realization(args):
            raise AssertionError("a realization ran")

        monkeypatch.setattr(experiment, "_run_realization", no_realization)
        cfg = ExperimentConfig(n=161, realizations=1, snr_db=(7.0,))
        with pytest.raises(ValueError, match=r"^n = 161 is not a multiple of this bank's N = 4$"):
            run_sweep(cfg)
        with pytest.raises(ValueError, match="n = 161 is not a multiple"):
            simulate_point(cfg)

    def test_constructor_errors_name_origin(self):
        with pytest.raises(ValueError, match=r"^sim\.cfg: source must be 'ar1' or 'pgm'"):
            parse_config("source = wav\n", origin="sim.cfg")

    def test_load_config_names_path(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("n = 64\nseed = 3\n")
        assert load_config(f).n == 64
        f.write_text("bogus = 1\n")
        with pytest.raises(ValueError, match="run.cfg:1"):
            load_config(f)


@pytest.fixture(scope="module")
def small_sweep():
    cfg = ExperimentConfig(**SMALL)
    return cfg, run_sweep(cfg)


class TestRunSweep:
    def test_row_layout(self, small_sweep):
        cfg, points = small_sweep
        assert len(points) == len(cfg.snr_db) * 4
        assert tuple(p.receiver for p in points[:4]) == RECEIVERS
        for p in points:
            assert p.realizations == cfg.realizations
            assert p.seed == cfg.seed
            assert np.isfinite(p.mean_snr_db) and np.isfinite(p.std_snr_db)

    def test_reference_ignores_channel(self):
        cfg = ExperimentConfig(**{**SMALL, "snr_db": (6.0, 11.0)})
        points = run_sweep(cfg)
        refs = [p for p in points if p.receiver == "reference"]
        assert len(refs) == 2
        assert refs[0].mean_snr_db == refs[1].mean_snr_db
        assert refs[0].std_snr_db == refs[1].std_snr_db
        assert refs[0].error_rate == 0.0

    def test_deterministic(self, small_sweep):
        cfg, points = small_sweep
        assert run_sweep(cfg) == points

    def test_noiseless_override_collapses_receivers(self):
        cfg = ExperimentConfig(**{**SMALL, "realizations": 1, "noiseless": True})
        points = run_sweep(cfg)
        means = {p.receiver: p.mean_snr_db for p in points}
        assert means["classical"] == means["reference"]
        assert means["proposed"] == means["reference"]
        assert means["proposed_pct"] == means["reference"]
        errs = {p.receiver: p.error_rate for p in points}
        assert errs["classical"] == 0.0  # BER on a clean channel
        assert errs["proposed"] == 0.0 and errs["proposed_pct"] == 0.0


def test_golden_sweep_csv():
    """The acceptance-6 base sweep, byte for byte as first recorded."""
    cfg = ExperimentConfig(n=320, realizations=3, snr_db=(7.0, 9.0), seed=11, workers=1)
    golden = (Path(__file__).parent / "data" / "golden_sweep.csv").read_text()
    assert write_csv(run_sweep(cfg), cfg, "-") == golden


def test_golden_sweep_csv_wide_bank(monkeypatch):
    """The same sweep on the 12x8 Walsh bank, byte for byte as
    recorded; the bank is named relative to tests/data, as in the CSV."""
    data = Path(__file__).parent / "data"
    monkeypatch.chdir(data)
    cfg = ExperimentConfig(
        bank="walsh_12x8.txt", n=400, realizations=3, snr_db=(7.0, 9.0), seed=11, workers=1
    )
    golden = (data / "golden_sweep_walsh.csv").read_text()
    assert write_csv(run_sweep(cfg), cfg, "-") == golden


class TestConfigValidation:
    """Library callers get the config checks where the config is built."""

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("source", "foo", "source must be 'ar1' or 'pgm', got 'foo'"),
            ("snr_db", (), "snr_db list is empty"),
            ("realizations", 0, "realizations must be positive"),
            ("n", 0, "n must be positive"),
            ("workers", 0, "workers must be positive"),
            ("n_max", 0, "n_max must be at least 1"),
            ("window", 1, "window must be at least 2"),
            ("contractor", "foo", "contractor must be 'sweep', got 'foo'"),
            ("rho", 1.0, r"rho must lie in \[0, 1\) for an ar1 source, got 1.0"),
            ("rho", -0.5, r"rho must lie in \[0, 1\) for an ar1 source, got -0.5"),
            ("snr_db", (7.0, float("nan")), r"snr_db values must be finite, got \(7.0, nan\)"),
            ("delta", float("inf"), "delta must be finite and positive, got inf"),
            ("delta", float("nan"), "delta must be finite and positive, got nan"),
            ("delta", 0.0, "delta must be finite and positive, got 0.0"),
            ("delta", -0.5, "delta must be finite and positive, got -0.5"),
            ("clip", float("inf"), "clip must be finite and positive for an ar1 source, got inf"),
            ("clip", float("nan"), "clip must be finite and positive for an ar1 source, got nan"),
            ("clip", 0.0, "clip must be finite and positive for an ar1 source, got 0.0"),
            ("n_max", 2.5, "n_max must be an integer, got 2.5"),
            ("window", 8.5, "window must be an integer, got 8.5"),
            ("n", 160.5, "n must be an integer, got 160.5"),
            ("n", True, "n must be an integer, got True"),
            ("realizations", 1.5, "realizations must be an integer, got 1.5"),
            ("workers", 1.5, "workers must be an integer, got 1.5"),
            ("seed", 1.5, "seed must be an integer, got 1.5"),
            ("seed", False, "seed must be an integer, got False"),
            ("seed", -1, "seed must be non-negative, got -1"),
            ("contractor", "lp", "contractor must be 'sweep', got 'lp'"),
            ("gray", "off", "gray must be a boolean, got 'off'"),
            ("noiseless", "off", "noiseless must be a boolean, got 'off'"),
            ("use_pct", "no", "use_pct must be a boolean, got 'no'"),
            ("gray", 1, "gray must be a boolean, got 1"),
        ],
    )
    def test_rejected_on_construction(self, field, value, message):
        with pytest.raises(ValueError, match=rf"^{message}"):
            ExperimentConfig(**{field: value})

    @pytest.mark.parametrize(
        "pgm_range",
        [(0.0, 128.0, 255.0), (0.0,), (255.0, 0.0), (1.0, 1.0), (0.0, float("inf")),
         (float("nan"), 255.0)],
    )
    def test_bad_pgm_range_rejected(self, pgm_range):
        with pytest.raises(ValueError, match=r"^pgm_range must be two finite values lo < hi, got"):
            ExperimentConfig(source="pgm", pgm_range=pgm_range)

    def test_numpy_integer_counts_accepted(self):
        counts = {"n_max": np.int64(4), "window": np.int64(8)}
        got = simulate_point(ExperimentConfig(**SMALL, **counts))
        want = simulate_point(ExperimentConfig(**{**SMALL, "n_max": 4}))
        assert (got["proposed"], got["classical"]) == (want["proposed"], want["classical"])

    def test_numpy_integer_sweep_fields_accepted(self):
        counts = {"n": np.int64(160), "realizations": np.int64(2), "workers": np.int64(1),
                  "seed": np.int64(5)}
        got = run_sweep(ExperimentConfig(**{**SMALL, **counts}))
        assert got == run_sweep(ExperimentConfig(**SMALL))

    def test_fields_of_the_other_source_are_not_checked(self):
        ExperimentConfig(source="pgm", clip=float("inf"))
        ExperimentConfig(source="ar1", pgm_range=(0.0, 1.0, 2.0))

    def test_pgm_path_may_be_filled_later(self, tmp_path):
        cfg = ExperimentConfig(**{**SMALL, "source": "pgm", "pgm_range": (0.0, 255.0)})
        with pytest.raises(ValueError, match="pgm source requires pgm_path"):
            simulate_point(cfg)
        f = tmp_path / "a.pgm"
        f.write_bytes(b"P5\n64 3\n255\n" + bytes(range(192)))
        cfg = dataclasses.replace(cfg, pgm_path=str(f), pgm_rows=(0, 1, 2), n=160)
        assert simulate_point(cfg)["snr_db"] == 7.0


class TestBankReuse:
    """The bank, its Polyphase caches and the parity bank are built once
    per bank file text, not once per config."""

    def test_configs_differing_in_seed_share_one_polyphase(self):
        a = experiment.Pipeline(ExperimentConfig(**{**SMALL, "seed": 1}))
        b = experiment.Pipeline(ExperimentConfig(**{**SMALL, "seed": 2}))
        assert a.poly is b.poly and a.parity is b.parity and a.bank is b.bank

    def test_edited_bank_file_is_reloaded(self, tmp_path):
        f = tmp_path / "bank.txt"
        f.write_text("3 2 1\n1 1\n1 -1\n0.5 0.5 -0.5 -0.5\n")
        cfg = ExperimentConfig(**{**SMALL, "bank": str(f), "clip": 1.0, "delta": 1.0})
        first = experiment.Pipeline(cfg)
        assert experiment.Pipeline(cfg).poly is first.poly
        f.write_text("3 2 1\n1 1\n1 -1\n0.5 -0.5 0.5 -0.5\n")
        edited = experiment.Pipeline(cfg)
        assert edited.poly is not first.poly
        assert edited.poly.E[1, 2].tolist() == [0.5, -0.5]

    def test_edited_bank_file_reaches_simulate_point(self, tmp_path):
        f = tmp_path / "bank.txt"
        f.write_text("3 2 1\n1 1\n1 -1\n0.5 0.5 -0.5 -0.5\n")
        cfg = ExperimentConfig(**{**SMALL, "bank": str(f), "clip": 1.0, "delta": 1.0})
        before = simulate_point(cfg)["diagnostics"]
        assert experiment.Pipeline(cfg).poly.E[1, 2].tolist() == [-0.5, -0.5]
        f.write_text("3 2 1\n1 1\n1 -1\n0.5 -0.5 0.5 -0.5\n")
        after = simulate_point(cfg)["diagnostics"]
        assert experiment.Pipeline(cfg).poly.E[1, 2].tolist() == [0.5, -0.5]
        fresh = experiment.Pipeline(cfg)
        assert experiment.Pipeline(cfg).poly is fresh.poly
        assert not np.array_equal(after.x_lo, before.x_lo)


class TestSimulatePoint:
    @pytest.mark.parametrize("use_pct, decoder", [(True, "proposed_pct"), (False, "proposed")])
    def test_matches_the_sweeps_first_snr(self, use_pct, decoder):
        # one realization sent through one transmit chain: simulate_point
        # sees the sweep's soft bits at its first SNR, bit for bit
        cfg = ExperimentConfig(**{**SMALL, "realizations": 1, "snr_db": (7.0, 9.0),
                                  "use_pct": use_pct})
        res = simulate_point(cfg)
        rows = {p.receiver: p.mean_snr_db for p in run_sweep(cfg) if p.snr_db == 7.0}
        assert (res["classical"], res["proposed"], res["reference"]) == (
            rows["classical"], rows[decoder], rows["reference"])

    def test_noiseless_point(self):
        cfg = ExperimentConfig(**{**SMALL, "noiseless": True})
        res = simulate_point(cfg)
        assert res["snr_db"] == 7.0
        assert res["proposed"] == res["reference"] == res["classical"]
        assert res["error_rate"] == 0.0
        assert res["diagnostics"].flags.size == (cfg.n + 4) // 4

    def test_list_fields_accepted(self):
        cfg = ExperimentConfig(**{**SMALL, "snr_db": [7.0], "pgm_rows": [1, 2]})
        assert cfg.snr_db == (7.0,) and cfg.pgm_rows == (1, 2)
        got = simulate_point(cfg)
        want = simulate_point(ExperimentConfig(**{**SMALL, "pgm_rows": (1, 2)}))
        assert got["proposed"] == want["proposed"] and got["classical"] == want["classical"]

    def test_noisy_point_beats_classical(self):
        cfg = ExperimentConfig(**{**SMALL, "n": 400})
        res = simulate_point(cfg)
        assert res["proposed"] > res["classical"]
        assert res["reference"] >= res["proposed"]


    def test_source_outside_input_range_rejected(self, tmp_path):
        f = tmp_path / "img.pgm"
        pixels = [10] * 63 + [200]
        f.write_text("P2\n32 2\n255\n" + " ".join(map(str, pixels)) + "\n")
        cfg = ExperimentConfig(
            source="pgm", pgm_path=str(f), pgm_rows=(0, 1), pgm_range=(0.0, 100.0), n=64,
            delta=8.0, snr_db=(7.0,), realizations=1,
        )
        with pytest.raises(ValueError, match=r"sample 200 lies outside the input range \[0, 100\]"):
            simulate_point(cfg)
        with pytest.raises(ValueError, match=r"outside the input range \[0, 100\]"):
            run_sweep(cfg)
        # the same pixels within pgm_range decode
        cfg = dataclasses.replace(cfg, pgm_range=(0.0, 255.0))
        assert np.isfinite(simulate_point(cfg)["classical"])


class TestWriteCsv:
    def test_stdout_mode_and_schema(self, small_sweep):
        cfg, points = small_sweep
        text = write_csv(points, cfg, "-")
        lines = text.strip().splitlines()
        header = [ln for ln in lines if not ln.startswith("#")]
        assert header[0] == (
            "snr_db,receiver,mean_snr_db,std_snr_db,error_rate,realizations,seed"
        )
        assert len(header) == 1 + len(points)
        row = header[1].split(",")
        assert row[0] == "7" and row[1] == "classical"
        assert float(row[2]) == pytest.approx(points[0].mean_snr_db, abs=1e-6)
        assert row[5] == "2" and row[6] == "5"

    def test_file_written_atomically(self, small_sweep, tmp_path):
        cfg, points = small_sweep
        out = tmp_path / "sweep.csv"
        text = write_csv(points, cfg, str(out))
        assert out.read_text() == text
        assert not list(tmp_path.glob("*.tmp.*"))
