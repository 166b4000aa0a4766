"""tools/bench_pairs.py: its verdict rule, and one teacher-sweep pair of this
checkout against itself at the smoke-test sizes."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GATED = {"setup_s", "wall_s", "train_samples_per_s", "eval_samples_per_s",
         "fit_weights_per_s", "peak_rss_mb"}
VERDICTS = ("better", "worse", "unresolved", "within bound")


@pytest.mark.parametrize("parent, change, want", [
    ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100], [120] * 10, (10, "better")),
    ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100], [70] * 10, (0, "worse")),
    ([60, 140, 70, 130, 80, 120, 90, 110, 100, 100], [101] * 10, (6, "unresolved")),
    ([60, 140, 70, 130, 80, 120, 90, 110, 100, 100], [150] * 10, (10, "better")),
    ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100], [95] * 10, (0, "within bound")),
    ([100, 101, 99], [120] * 3, (3, "within bound")),  # too few pairs to claim
])
def test_verdict(monkeypatch, parent, change, want):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    from bench_pairs import verdict

    assert verdict(parent, change, True, 0.25) == want
    # The same runs of a lower-is-better metric, mirrored.
    assert verdict([-p for p in parent], [-c for c in change], False, 0.25) == want


def test_one_pair_against_itself(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    from bench_pairs import compare

    gated = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    head, *rows, tail = compare(ROOT, "teacher-sweep", 1, 1, "tiny", gated)
    assert head == "teacher-sweep: 1 pairs, seed 1, scale tiny"
    assert {row.split()[0] for row in rows} == GATED
    assert all(row.endswith(VERDICTS) and "wins " in row for row in rows)
    assert tail.startswith("  digests equal: yes (")
    assert tail.endswith("); failed_frac 0 on both sides: yes")
