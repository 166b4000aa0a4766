"""Smoke test of the benchmark at tiny sizes.

Run from the repository root: python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from checks import Checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


def test_declared_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_appears_with_its_unit(workload, trace):
    p = bench(workload, trace)
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in declared}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def _quantized_net():
    from quantbench.nn import build_ffdnn
    from quantbench.quantizer import direct_quantize
    from quantbench.tensor import Tensor

    qnet, _ = direct_quantize(build_ffdnn(4, 6, 1, 3, seed=0), 2)
    return qnet, qnet.groups["In-h1"], Tensor


def test_off_grid_weight_is_counted_as_failed():
    qnet, g, Tensor = _quantized_net()
    checks = Checks()
    checks.on_grid(qnet, "clean")
    assert checks.failed == 0
    w = g.weights.ndarray.copy()
    w[0, 0] += 0.25 * g.quantizer.delta
    g.weights = Tensor(w)
    checks.on_grid(qnet, "off grid")
    assert checks.failed == 1 and checks.failed_frac > 0


def test_code_beyond_the_grid_is_counted_as_failed():
    qnet, g, Tensor = _quantized_net()
    w = g.weights.ndarray.copy()
    w[0, 0] = (g.quantizer.max_code + 1) * g.quantizer.delta
    g.weights = Tensor(w)
    checks = Checks()
    checks.on_grid(qnet, "saturation")
    assert checks.failed == 1


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = bench(sorted(WORKLOADS)[0], 0, cwd=tmp_path)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
