#!/usr/bin/env python3
"""Benchmark for quantbench: one workload per process, inputs from a seed.

Run from the repository root:

    python3 perfbench/run.py --workload teacher-sweep --seed 1 --seconds 25 --trace 0

It imports the program from ``src/`` of the same checkout, builds the
workload's inputs from ``--seed`` (several times, to time set-up), then
repeats the workload's unit until ``--seconds`` have passed and checks every
unit's outputs. ``--trace 0`` reports the end-to-end metrics as medians over
units. ``--trace 1`` alternates untraced and traced units and reports the
per-layer metrics; its spans are written to ``.perfbench_out/``.

Output: an ``env`` line (machine, versions, BLAS, thread variables as
found; this program never sets them), a ``run`` line (seed, digests, failed
fraction, metrics that apply to only some workloads), and last a JSON line
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

from checks import Checks
from spans import MODULES, Recorder, instrument, layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 11
PAR_JOBS = 2  # the machine's core count; the pool must not start more workers
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# End-to-end metrics gated by BENCHMARK.json.
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "train_samples_per_s": "samples/s",
    "eval_samples_per_s": "samples/s",
    "fit_weights_per_s": "weights/s",
    "peak_rss_mb": "MB",
}
# Work over seconds inside each call. Retraining runs on some workloads only,
# so its rate, like sweep points per second, goes on the run line ungated.
RATES = {
    "train_samples_per_s": "trainer.train_float",
    "retrain_samples_per_s": "trainer.retrain",
    "eval_samples_per_s": "trainer.evaluate",
    "fit_weights_per_s": "quantizer.direct_quantize",
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name == "experiments.worker_busy_frac":
        return "frac_computed"
    for suffix, unit in (("_s", "s"), ("gflop_computed", "GFLOP"), ("gbytes_computed", "GB"),
                         ("gflops", "GFLOP/s"), ("bytes_computed", "B"), ("bytes", "B"),
                         ("_frac", "frac")):
        if name.endswith(suffix):
            return unit
    return "count"


def load_program() -> dict:
    """Import quantbench from this checkout's src/, never from anywhere else."""
    pkg = SRC / "quantbench"
    if not (pkg / "__init__.py").is_file():
        raise ImportError(f"{pkg} not found")
    sys.path.insert(0, str(SRC))
    names = ("nn", "tensor", "quantizer", "trainer", "data", "checkpoint", "experiments")
    qb = {n: importlib.import_module(f"quantbench.{n}") for n in names}
    if Path(qb["nn"].__file__).resolve().parent != pkg:
        raise ImportError(f"quantbench resolved to {qb['nn'].__file__}, not {pkg}")
    return qb


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        **{v: os.environ.get(v) for v in THREAD_VARS},
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def setups(workload, checks):
    """Build the inputs SETUP_REPS times; they must be identical every time."""
    times, first = [], None
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        inp = workload.setup()
        times.append(time.perf_counter() - t0)
        d = workload.input_digest(inp)
        first = first or d
        checks.same(first, d, "setup: inputs for one seed")
    return inp, statistics.median(times)


def run_unit(workload, rec, inp, tmp, checks):
    """Time one unit, then check its outputs untimed. None if it raised."""
    lo = len(rec.spans)
    rec.kept.clear()
    t0 = time.perf_counter()
    try:
        out = workload.unit(inp, tmp)
    except Exception:  # a program call failed: count it, report it, stop the run
        traceback.print_exc()
        checks.raised(f"{type(workload).__name__}: unit raised")
        return None
    wall = time.perf_counter() - t0
    kept, rec.kept = rec.kept, []
    workload.check(checks, out, kept)
    return wall, lo


def unit_metrics(spans, wall, workload) -> dict:
    """End-to-end figures of one unit from its coarse spans."""
    secs: dict[str, float] = {}
    count: dict[str, float] = {}
    for name, t0, t1, _, info in spans:
        secs[name] = secs.get(name, 0.0) + (t1 - t0)
        if info is not None and name in RATES.values():
            count[name] = count.get(name, 0) + info[0]
    m = {"wall_s": wall}
    for metric, name in RATES.items():
        if secs.get(name):
            m[metric] = count[name] / secs[name]
    if secs.get("experiments.sweep"):
        m["sweep_points_per_s"] = workload.points / secs["experiments.sweep"]
        m["point_s_total"] = secs.get("experiments.point", 0.0)
    return m


def measure(workload, qb, seconds, tmp, checks):
    inp, setup_s = setups(workload, checks)
    rec = Recorder()
    units = []
    with instrument(rec, qb, full=False):
        deadline = time.perf_counter() + seconds
        while True:
            r = run_unit(workload, rec, inp, tmp, checks)
            if r is None:
                break
            units.append(unit_metrics(rec.spans[r[1]:], r[0], workload))
            if time.perf_counter() >= deadline:
                break
    if not units:
        return None, 0
    m = {k: statistics.median(u[k] for u in units) for k in units[0]}
    m["per_unit"] = units
    m["setup_s"] = setup_s
    m["peak_rss_mb"] = peak_rss_mb()
    return m, len(units)


def trace(workload, qb, seconds, tmp, checks, spans_path, header):
    """Alternate untraced and traced units; per-layer metrics from the traced ones."""
    rec, plain = Recorder(), Recorder()
    with instrument(rec, qb, full=True):
        inp = workload.setup()
    split_s = sum(s[2] - s[1] for s in rec.spans if s[0] == "data.split")
    lo = len(rec.spans)
    untraced, traced, point_s = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        with instrument(plain, qb, full=False):
            r = run_unit(workload, plain, inp, tmp, checks)
        if r is None:
            break
        untraced.append(r[0])
        point_s.append(unit_metrics(plain.spans[r[1]:], r[0], workload).get("point_s_total", 0.0))
        with instrument(rec, qb, full=True):
            r = run_unit(workload, rec, inp, tmp, checks)
        if r is None:
            break
        traced.append(r[0])
        if time.perf_counter() >= deadline:
            break
    if not traced:
        return None, 0
    m = layer_metrics(rec.spans, lo, len(traced))
    m["data.split_s"] = split_s
    m.update(parallel_sweep(workload, qb, inp, tmp, checks, statistics.median(point_s)))
    mean_wall = sum(traced) / len(traced)
    top = sum(s[2] - s[1] for s in rec.spans[lo:] if s[3] == -1)
    m["trace.wall_s"] = statistics.median(traced)
    m["trace.untraced_wall_s"] = statistics.median(untraced)
    m["trace.overhead_s"] = m["trace.wall_s"] - m["trace.untraced_wall_s"]
    m["trace.top_coverage_frac"] = top / sum(traced)
    m["trace.self_sum_frac"] = sum(m[f"{mod}.self_s"] for mod in MODULES) / mean_wall
    m["trace.spans"] = (len(rec.spans) - lo) / len(traced)
    rec.write(str(spans_path), header)
    return m, len(traced)


def parallel_sweep(workload, qb, inp, tmp, checks, point_s):
    """Sweep workloads: one extra sweep on PAR_JOBS workers.

    Its records must equal the serial ones. Spans cannot be taken inside
    forked workers, so the busy fraction is computed: serial point time over
    workers x parallel wall time.
    """
    names = ("experiments.par_sweep_s", "experiments.worker_busy_frac",
             "experiments.args_bytes_computed")
    if not hasattr(workload, "sweep"):
        return dict.fromkeys(names, 0.0)
    with instrument(Recorder(), qb, full=False, serial=False):
        t0 = time.perf_counter()
        out = workload.sweep(inp, tmp, PAR_JOBS)
        wall = time.perf_counter() - t0
    checks.same(workload.first, workload.records_digest(out[2]),
                f"sweep: records digest at jobs={PAR_JOBS} vs jobs=1")
    return dict(zip(names, (wall, point_s / (PAR_JOBS * wall), workload.args_bytes(inp))))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny runs the smoke-test sizes")
    args = ap.parse_args(argv)
    try:
        qb = load_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](qb, args.scale, args.seed)
    env = environment()
    print("env " + json.dumps(env), flush=True)
    checks = Checks()
    OUT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=OUT)
    try:
        if args.trace:
            header = json.dumps({"workload": args.workload, "seed": args.seed, "env": env})
            spans_path = OUT / f"{args.workload}-seed{args.seed}.spans.tsv"
            metrics, units = trace(workload, qb, args.seconds, tmp, checks, spans_path, header)
        else:
            metrics, units = measure(workload, qb, args.seconds, tmp, checks)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if metrics is None:
        print("perfbench: no unit completed; no result", file=sys.stderr)
        return 1
    if args.trace:
        shown = {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}
    else:
        shown = {k: {"value": metrics[k], "unit": u} for k, u in E2E_UNITS.items()}
    extra = {k: metrics[k] for k in ("sweep_points_per_s", "retrain_samples_per_s", "per_unit") if k in metrics}
    print("run " + json.dumps({
        "workload": args.workload, "seed": args.seed, "scale": args.scale, "trace": args.trace,
        "units": units, "failed_frac": checks.failed_frac, "failures": checks.failures[:10],
        "output_digest": workload.first, **extra,
    }), flush=True)
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": shown}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
