"""Smoke test of tools/bench_collect.py: one seed at the smoke-test sizes,
and a perfbench run whose output cannot be parsed."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("stdout, problem", [
    ("env {}\nperfbench: nothing ran\n", "no env or run line"),
    ('run {"output_digest": "0"}\n{"metrics": {}}\n', "no env or run line"),
    ('env {}\nrun {}\nnot json\n', "not JSON"),
    ('env {}\nrun {\n{}\n', "not JSON"),
])
def test_unexpected_output_is_a_runtime_error(monkeypatch, capsys, tmp_path, stdout,
                                            problem):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import bench_collect
    import bench_pairs

    done = subprocess.CompletedProcess([], 0, stdout=stdout, stderr="")
    monkeypatch.setattr(subprocess, "run", lambda *a, **k: done)
    last = stdout.splitlines()[-1]
    with pytest.raises(RuntimeError, match=problem) as info:
        bench_collect.run_once("cnn-train", 1, "tiny")
    assert "perfbench/run.py --workload cnn-train" in str(info.value)
    assert str(info.value).endswith(f"last line: {last!r}")
    # Both tools report it as one line on stderr and exit 1, without a traceback.
    assert bench_collect.main(["--out", str(tmp_path / "b.json"), "--scale", "tiny"]) == 1
    assert bench_pairs.main(["--parent", str(tmp_path), "--pairs", "1", "--scale", "tiny"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 2 and "Traceback" not in err and problem in err
