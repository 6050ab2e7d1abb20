"""The README's config block and library example agree with the code."""

import contextlib
import dataclasses
import io
import re
from pathlib import Path

from ofbdec import ExperimentConfig, parse_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(after, lang=""):
    """The first fenced block of language lang after the text after."""
    start = README.index(after)
    match = re.compile(rf"```{lang}\n(.*?)```", re.S).search(README, start)
    return match.group(1)


def test_config_block_names_every_field_with_its_default():
    text = _block("Config files are")
    keys = [line.split("=", 1)[0].strip() for line in text.splitlines() if line.strip()]
    assert sorted(keys) == sorted(f.name for f in dataclasses.fields(ExperimentConfig))
    cfg = parse_config(text, origin="README.md")
    # the block fills in the two settings that default to empty
    assert (cfg.pgm_path, cfg.out) == ("lena.pgm", "sweep.csv")
    assert dataclasses.replace(cfg, pgm_path="", out="") == ExperimentConfig()


def test_library_example_runs_and_beats_the_classical_receiver():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_block("## Library use", "python"), {})
    proposed, classical = (float(v) for v in out.getvalue().split("vs"))
    assert proposed > classical
