"""Golden test: the six-command demo chain reproduces out/demo byte for byte,
and so does the CNN demo chain out/demo_cnn.

Each chain runs from its committed demo config with only the output directory
changed, so any change to a rule the artifacts depend on (the grid rule, the
retraining schedule, training, the layer math, the sweep, ECR or the report)
shows up here.
"""

import os
from pathlib import Path

from quantbench.cli import SEED_ENV, main

ROOT = Path(__file__).resolve().parent.parent
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


def _check_chain(config, golden, tmp_path, monkeypatch, capsys):
    """Run the six commands from configs/<config> and compare with out/<golden>."""
    monkeypatch.delenv(SEED_ENV, raising=False)
    golden = ROOT / "out" / golden
    assert sorted(os.listdir(golden)) == sorted(GOLDEN_FILES)
    for command in ("train", "quantize", "retrain", "sweep", "ecr", "report"):
        extra = ["--jobs", "2"] if command == "sweep" else []
        argv = [command, "--config", str(ROOT / "configs" / config), "--out", str(tmp_path),
                *extra]
        assert main(argv) == 0, f"{command} failed: {capsys.readouterr().err}"
    capsys.readouterr()
    for name in GOLDEN_FILES:
        got = (tmp_path / name).read_bytes()
        want = (golden / name).read_bytes()
        assert got == want, f"{name} differs from {golden.relative_to(ROOT)}/{name}"


def test_demo_chain_reproduces_committed_artifacts(tmp_path, monkeypatch, capsys):
    _check_chain("demo_blobs.json", "demo", tmp_path, monkeypatch, capsys)


def test_cnn_demo_chain_reproduces_committed_artifacts(tmp_path, monkeypatch, capsys):
    _check_chain("demo_cnn.json", "demo_cnn", tmp_path, monkeypatch, capsys)
