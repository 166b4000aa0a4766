"""Smoke test of tools/bench_collect.py: one seed at the smoke-test sizes."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COLLECT = ROOT / "tools" / "bench_collect.py"
WORKLOADS = {"teacher-sweep", "cnn-train", "wide-quantize"}
GATED = {"setup_s", "wall_s", "train_samples_per_s", "eval_samples_per_s",
         "fit_weights_per_s", "peak_rss_mb"}


def test_collector_writes_every_key(tmp_path):
    out = tmp_path / "BENCH_0.json"
    cmd = [sys.executable, str(COLLECT), "--out", str(out), "--scale", "tiny", "--seeds", "1"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    data = json.loads(out.read_text())
    assert set(data) == {"revision", "env", "scale", "seconds", "seeds", "workloads"}
    assert (data["scale"], data["seeds"]) == ("tiny", [1])
    assert "python" in data["env"]
    assert set(data["workloads"]) == WORKLOADS
    for workload in data["workloads"].values():
        assert set(workload["metrics"]) == GATED
        for m in workload["metrics"].values():
            assert set(m) == {"unit", "median", "min", "max"}
            assert m["min"] <= m["median"] <= m["max"]
        (seed,) = workload["seeds"].values()
        assert len(seed["output_digest"]) == 64
        assert (seed["failed_frac"], seed["correct"]) == (0.0, True)
