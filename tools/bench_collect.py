#!/usr/bin/env python3
"""Collect the benchmark's end-to-end metrics over fixed seeds into one file.

Run from the repository root:

    python3 tools/bench_collect.py --out BENCH_<n>.json

For each workload in WORKLOADS and each seed in SEEDS it runs the unchanged
``perfbench/run.py --trace 0`` in its own process, parses the JSON result line
and the ``run`` and ``env`` lines it prints, and writes one JSON file: the
median, min and max over seeds of every metric of the result line (the
metrics BENCHMARK.json gates), each seed's output digest and failed fraction,
the git revision and the first run's ``env`` line. Standard library only.
``--scale tiny`` runs the smoke-test sizes for one second each; ``--seeds N``
keeps the first N seeds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("teacher-sweep", "cnn-train", "wide-quantize")
SEEDS = (1, 2, 3, 4, 5)
SECONDS = {"full": 25.0, "tiny": 1.0}  # full matches BENCHMARK.json's run_seconds


def run_once(workload: str, seed: int, scale: str, root: Path = ROOT) -> tuple[dict, dict, dict]:
    """(env, run, result) of one perfbench run of the checkout at ``root``;
    raises RuntimeError, naming the command and its last line, if the run
    failed or printed no ``env`` line, no ``run`` line or no JSON result."""
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS[scale]), "--trace", "0",
           "--scale", scale]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}: {done.stderr.strip()}")
    try:
        env = next(json.loads(x[4:]) for x in lines if x.startswith("env "))
        run = next(json.loads(x[4:]) for x in lines if x.startswith("run "))
        return env, run, json.loads(lines[-1])
    except StopIteration:
        problem = "no env or run line"
    except ValueError as exc:  # json.JSONDecodeError
        problem = f"a line that is not JSON ({exc})"
    raise RuntimeError(f"{' '.join(cmd)} printed {problem}; last line: {lines[-1]!r}")


def revision() -> str | None:
    """The checkout's commit, marked ``-dirty`` when its files differ from it."""
    done = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                          cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def collect(scale: str, seeds: tuple[int, ...]) -> dict:
    env = None
    workloads = {}
    for workload in WORKLOADS:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        per_seed = {}
        for seed in seeds:
            run_env, run, result = run_once(workload, seed, scale)
            env = env or run_env
            per_seed[str(seed)] = {"output_digest": run["output_digest"],
                                   "failed_frac": run["failed_frac"],
                                   "correct": result["correct"]}
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        workloads[workload] = {
            "metrics": {name: {"unit": units[name], "median": statistics.median(v),
                               "min": min(v), "max": max(v)} for name, v in values.items()},
            "seeds": per_seed,
        }
    return {"revision": revision(), "env": env, "scale": scale, "seconds": SECONDS[scale],
            "seeds": list(seeds), "workloads": workloads}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True, help="file to write, e.g. BENCH_<n>.json")
    ap.add_argument("--scale", choices=tuple(SECONDS), default="full")
    ap.add_argument("--seeds", type=int, default=len(SEEDS), choices=range(1, len(SEEDS) + 1),
                    help="keep the first N seeds of SEEDS")
    args = ap.parse_args(argv)
    try:
        data = collect(args.scale, SEEDS[: args.seeds])
    except RuntimeError as exc:
        print(f"bench_collect: {exc}", file=sys.stderr)
        return 1
    Path(args.out).write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
