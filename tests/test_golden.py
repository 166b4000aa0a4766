"""Golden test: the six-command demo chain reproduces out/demo byte for byte.

The chain runs from the committed demo config with only the output directory
changed, so any change to a rule the artifacts depend on (the grid rule, the
retraining schedule, training, the sweep, ECR or the report) shows up here.
"""

import os
from pathlib import Path

import pytest

from quantbench.cli import SEED_ENV, main

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "demo_blobs.json"
GOLDEN = ROOT / "out" / "demo"
GOLDEN_FILES = (
    "train_log.csv",
    "quant_report.csv",
    "retrain_log.csv",
    "records.csv",
    "ecr.csv",
    "plot_bits_vs_error.csv",
    "plot_size_vs_error.csv",
    "summary.md",
)


def test_demo_chain_reproduces_committed_artifacts(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(SEED_ENV, raising=False)
    assert sorted(os.listdir(GOLDEN)) == sorted(GOLDEN_FILES)
    for command in ("train", "quantize", "retrain", "sweep", "ecr", "report"):
        extra = ["--jobs", "2"] if command == "sweep" else []
        argv = [command, "--config", str(CONFIG), "--out", str(tmp_path), *extra]
        assert main(argv) == 0, f"{command} failed: {capsys.readouterr().err}"
    capsys.readouterr()
    for name in GOLDEN_FILES:
        got = (tmp_path / name).read_bytes()
        want = (GOLDEN / name).read_bytes()
        assert got == want, f"{name} differs from out/demo/{name}"
