"""Command line entry points."""

from pathlib import Path

import numpy as np
import pytest

from ofbdec.cli import main


@pytest.fixture()
def config_file(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text(
        "n = 160\n"
        "realizations = 1\n"
        "snr_db = 7\n"
        "seed = 5\n"
    )
    return f


def test_bank_check_default(capsys):
    assert main(["bank", "check", "default"]) == 0
    out = capsys.readouterr().out
    assert "M=6 subbands, N=4, order L=1" in out
    assert "parity: 2 rows, order 1" in out
    assert out.strip().endswith("ok")


def test_bank_check_file(tmp_path, capsys):
    f = tmp_path / "tiny.txt"
    s = 1.0 / np.sqrt(2.0)
    f.write_text(
        "3 2 1\n"
        f"{s} {s}\n"
        f"{s} {-s}\n"
        "0.5 0.5 -0.5 -0.5\n"
    )
    assert main(["bank", "check", str(f)]) == 0
    out = capsys.readouterr().out
    assert "M=3 subbands, N=2" in out
    assert "parity: 1 rows, order 1" in out


def test_bank_check_prints_consistency_data(capsys):
    assert main(["bank", "check", "default"]) == 0
    out = capsys.readouterr().out
    assert "consistency: 129 bases of 210 row subsets, 50 circuits" in out
    assert "distinct certificates per coordinate 24, 24, 24, 24; exact hull, no sweep" in out


def test_bank_check_above_the_cap(capsys):
    wide = Path(__file__).parent / "data" / "walsh_12x8.txt"
    assert main(["bank", "check", str(wide)]) == 0
    out = capsys.readouterr().out
    assert "consistency: 125970 row subsets exceed the cap of 4096" in out
    assert "pinv prefilter and forward-backward sweep" in out
    assert "no sweep" not in out


def test_bank_check_missing_file(capsys):
    assert main(["bank", "check", "/no/such/bank.txt"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_simulate(config_file, capsys):
    assert main(["simulate", "--config", str(config_file)]) == 0
    out = capsys.readouterr().out
    assert "channel snr: 7 dB" in out
    assert "reference (quantization only):" in out
    assert "classical receiver:" in out
    assert "flagged instants:" in out


def test_simulate_verbose(config_file, capsys):
    assert main(["simulate", "--config", str(config_file), "--verbose"]) == 0
    out = capsys.readouterr().out
    assert "instant,flag,rank,n_consistent,box_width_max" in out
    assert "\n0,0," in out


def test_sweep_to_stdout(config_file, capsys):
    assert main(["sweep", "--config", str(config_file), "--out", "-"]) == 0
    out = capsys.readouterr().out
    assert "snr_db,receiver,mean_snr_db" in out
    assert "7,classical," in out
    assert "7,reference," in out


def test_sweep_to_file(config_file, tmp_path, capsys):
    out_path = tmp_path / "result.csv"
    assert main(["sweep", "--config", str(config_file),
                 "--out", str(out_path)]) == 0
    assert f"wrote {out_path} (4 rows)" in capsys.readouterr().out
    assert out_path.read_text().count("\n") >= 5


def test_sweep_needs_output(config_file, capsys):
    assert main(["sweep", "--config", str(config_file)]) == 1
    assert "no output path" in capsys.readouterr().err


def test_bad_config_reports_line(tmp_path, capsys):
    f = tmp_path / "bad.cfg"
    f.write_text("n = ten\n")
    assert main(["simulate", "--config", str(f)]) == 1
    err = capsys.readouterr().err
    assert "bad.cfg:1" in err and "bad value for n" in err


def test_n_off_the_block_grid_reports_the_bank(tmp_path, capsys):
    f = tmp_path / "odd.cfg"
    f.write_text("n = 161\nrealizations = 1\nsnr_db = 7\n")
    assert main(["sweep", "--config", str(f), "--out", "-"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "n = 161 is not a multiple of this bank's N = 4" in err


def test_infinite_delta_reports_the_field(tmp_path, capsys):
    f = tmp_path / "inf.cfg"
    f.write_text("n = 160\nrealizations = 1\nsnr_db = 7\ndelta = inf\n")
    assert main(["sweep", "--config", str(f), "--out", "-"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "delta must be finite and positive, got inf" in err
