#!/usr/bin/env python3
"""Compare a parent checkout with this one in alternating benchmark pairs.

Run from the repository root:

    python3 tools/bench_pairs.py --parent DIR [--pairs 10] [--seed 1]

For each workload it runs the unchanged ``perfbench/run.py --trace 0`` of the
parent checkout at DIR and of this checkout, one run each per pair, swapping
which side runs first from pair to pair. For each metric BENCHMARK.json gates
it prints the parent's median and quartiles, the change's median, the pairs
the change won (ties count for neither) and a verdict:

- ``better``: over at least ten pairs, the change won at least nine tenths
  of them, and its median beats the parent's by more than the parent's
  interquartile range;
- ``worse``: the change's median is worse than the parent's by more than the
  metric's bound;
- ``unresolved``: the parent's interquartile range is wider than the bound,
  and not every run of the change beats every run of the parent;
- ``within bound`` otherwise.

Last per workload it says whether every output digest is equal on both sides,
with the first 8 hex digits of each digest seen, and whether ``failed_frac``
is 0 on both. Standard library only. ``--scale tiny`` runs the smoke-test
sizes for one second each.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from bench_collect import ROOT, WORKLOADS, run_once

MIN_PAIRS = 10  # fewest pairs on which a gain may be claimed


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of ``values``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], higher: bool,
            bound: float) -> tuple[int, str]:
    """(pairs the change won, verdict) of one metric; pair i is (parent[i], change[i])."""
    sign = 1.0 if higher else -1.0  # gains are positive after the sign
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    q1, median, q3 = quartiles(parent)
    gain = sign * (statistics.median(change) - median)
    if len(parent) >= MIN_PAIRS and wins >= 0.9 * len(parent) and gain > q3 - q1:
        return wins, "better"
    if -gain > bound * abs(median):
        return wins, "worse"
    if q3 - q1 > bound * abs(median) and min(sign * c for c in change) <= max(sign * p for p in parent):
        return wins, "unresolved"
    return wins, "within bound"


def compare(parent_root: Path, workload: str, pairs: int, seed: int, scale: str,
            gated: list[dict]) -> list[str]:
    """The report lines of one workload over ``pairs`` alternating pairs."""
    runs = {"parent": [], "change": []}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            root = parent_root if side == "parent" else ROOT
            _, run, result = run_once(workload, seed, scale, root=root)
            runs[side].append((run, result["metrics"]))
    lines = [f"{workload}: {pairs} pairs, seed {seed}, scale {scale}"]
    for metric in gated:
        name = metric["name"]
        p = [m[name]["value"] for _, m in runs["parent"]]
        c = [m[name]["value"] for _, m in runs["change"]]
        wins, word = verdict(p, c, metric["better"] == "higher", metric["bound"])
        q1, median, q3 = quartiles(p)
        lines.append(f"  {name:<20} parent {median:.6g} [{q1:.6g}, {q3:.6g}]  "
                     f"change {statistics.median(c):.6g}  wins {wins}/{pairs}  {word}")
    digests = sorted({run["output_digest"] for side in runs.values() for run, _ in side})
    failed = [run["failed_frac"] for side in runs.values() for run, _ in side]
    lines.append(f"  digests equal: {'yes' if len(digests) == 1 else 'no'} "
                 f"({', '.join(d[:8] for d in digests)}); "
                 f"failed_frac 0 on both sides: {'yes' if not any(failed) else 'no'}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, type=Path, help="the parent checkout")
    ap.add_argument("--pairs", type=int, default=MIN_PAIRS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    gated = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    try:
        for workload in WORKLOADS:
            lines = compare(args.parent.resolve(), workload, args.pairs, args.seed,
                            args.scale, gated)
            print("\n".join(lines), flush=True)
    except RuntimeError as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
