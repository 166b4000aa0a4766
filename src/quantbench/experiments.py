"""Experiment matrix: size/depth/precision sweeps and the effective
compression ratio.

A sweep point is one (architecture, seed) pair. Its pipeline is: train a
float network, evaluate, then for each precision setting direct-quantize the
SAME trained float weights and optionally retrain. Every emitted record
carries the full key (family, size descriptor, depth, mode, precision, seed)
so aggregation is order-independent; records are sorted before serialization
and all randomness is derived from the base seed, which makes whole sweeps
reproducible byte for byte.

The effective compression ratio of a quantized network is

    ECR = (effective params x 32) / (total weight bits)

where "effective params" is the parameter count at which the float baseline
curve reaches the same validation metric the quantized network achieved,
found by piecewise-linear interpolation over the curve's monotone envelope.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence, get_type_hints

import numpy as np

from .data import DatasetSplit
from .errors import ConfigError, DataFormatError, missing_key, read_text, reject_repeats
from .nn import (
    MAX_CNN_LEVELS,
    Network,
    build_cnn,
    build_ffdnn,
    count_params,
    count_weight_bits,
)
from .quantizer import QuantizationReport, bits_to_levels, direct_quantize
from .tensor import derive_seed
from .trainer import (
    TrainConfig,
    TrainLog,
    evaluate,
    retrain_config,
    retrain_quantized,
    train_float,
)

FLOAT_BITS = 32
DEFAULT_SEED_REPS = 3
SCALES = ("linear", "log2")  # interpolation axes of a baseline curve

MODES = ("float", "direct", "retrained")


@dataclass(frozen=True)
class SweepRecord:
    """One evaluated network configuration."""

    family: str  # ffdnn | cnn
    width_or_maps: str  # hidden units, or map counts joined by '-'
    depth: int  # ffdnn hidden layers, or cnn conv levels
    mode: str  # float | direct | retrained
    n_bits: int  # 32 for float
    seed: int
    param_count: int
    total_weight_bits: int
    val_metric: float
    test_metric: float

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.mode == "float" and self.n_bits != FLOAT_BITS:
            raise ConfigError(
                f"float records must carry n_bits={FLOAT_BITS}, got {self.n_bits}"
            )
        if self.mode != "float":
            bits_to_levels(self.n_bits)  # 2..8, as quant.bits at config load
        if self.family not in ("ffdnn", "cnn"):
            raise ConfigError(f"unknown family {self.family!r}")
        # Depth 0 is an ffdnn without hidden layers; a cnn has 1..3 levels.
        if self.family == "ffdnn" and self.depth < 0:
            raise ConfigError(f"ffdnn depth must be >= 0, got {self.depth}")
        if self.family == "cnn" and not 1 <= self.depth <= MAX_CNN_LEVELS:
            raise ConfigError(f"cnn depth must be 1..{MAX_CNN_LEVELS}, got {self.depth}")
        for name in ("param_count", "total_weight_bits"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("val_metric", "test_metric"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")

    def sort_key(self):
        return (
            self.family,
            self.depth,
            self.param_count,
            self.width_or_maps,
            self.mode,
            self.n_bits,
            self.seed,
        )


# Records CSV columns are SweepRecord's fields, each parsed by its annotation.
_RECORD_CASTS = get_type_hints(SweepRecord)
RECORD_FIELDS = list(_RECORD_CASTS)
ECR_FIELDS = RECORD_FIELDS + ["effective_params", "effective_bits", "ecr", "clamped"]


@dataclass(frozen=True)
class FloatBaselineCurve:
    """Float metric as a function of parameter count for one family.

    ``scale`` selects the interpolation axis for effective_params: "linear"
    interpolates param_count directly, "log2" interpolates log2(param_count).
    """

    points: tuple[tuple[int, float], ...]
    scale: str = "linear"

    def __post_init__(self):
        check_scale(self.scale)
        counts = [p for p, _ in self.points]
        if any(b <= a for a, b in zip(counts, counts[1:])):
            raise ConfigError("curve param_counts must be strictly increasing")
        if any(p <= 0 for p in counts):
            raise ConfigError("curve param_counts must be positive")


def check_scale(scale: str) -> None:
    """Raise ConfigError unless ``scale`` is one of ``SCALES``."""
    if scale not in SCALES:
        raise ConfigError(f"unknown interpolation scale {scale!r}")


# ---------------------------------------------------------------------------
# Sweep execution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NetworkConfig:
    """A ``network`` block. ffdnn: ``hidden_layers`` hidden layers of
    ``hidden_units`` units with ``dropout_rate``, over flat features. cnn: one
    conv level per entry of ``map_counts`` (required) and an ``fc_units`` dense
    head, over [C, H, W] features. None takes the builder's default."""

    family: str = "ffdnn"
    hidden_units: int = 64
    hidden_layers: int = 1
    map_counts: list[int] | None = None
    fc_units: int | None = None
    dropout_rate: float | None = None

    def __post_init__(self):
        if self.family not in ("ffdnn", "cnn"):
            raise ConfigError(f"network.family: unknown family {self.family!r} "
                              "(expected ffdnn or cnn)")
        if self.family == "cnn" and self.map_counts is None:
            raise missing_key("network.map_counts")


def build_network(
    network: NetworkConfig | None,
    input_shape: tuple[int, ...],
    classes: int,
    seed: int,
) -> Network:
    """The network a ``network`` block describes (None: every default)."""
    nw = network or NetworkConfig()
    if nw.family == "cnn":
        if len(input_shape) != 3:
            raise ConfigError(
                f"cnn needs [C, H, W] features, got input shape {input_shape}"
            )
        kw = {} if nw.fc_units is None else {"fc_units": nw.fc_units}
        return build_cnn(
            nw.map_counts, input_shape=input_shape, classes=classes, seed=seed,
            **kw,
        )
    if len(input_shape) != 1:
        raise ConfigError(f"ffdnn needs flat features, got input shape {input_shape}")
    kw = {} if nw.dropout_rate is None else {"dropout_rate": nw.dropout_rate}
    return build_ffdnn(
        input_shape[0], nw.hidden_units, nw.hidden_layers, classes,
        seed=seed, **kw,
    )


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _width_cell(network: NetworkConfig, family: str, size) -> NetworkConfig:
    """``network`` with ``family`` set and its width replaced: ``hidden_units``
    by an int size (ffdnn), ``map_counts`` by a list size (cnn)."""
    if family == "cnn":
        if isinstance(size, (list, tuple)) and all(map(_is_int, size)):
            return dataclasses.replace(network, family=family, map_counts=list(size))
        raise ConfigError(f"sweep.sizes: a cnn size is a map-count list, got {size!r}")
    cell = dataclasses.replace(network, family=family)  # an unknown family fails here
    if _is_int(size):
        return dataclasses.replace(cell, hidden_units=size)
    raise ConfigError(f"sweep.sizes: an ffdnn size is a unit count, got {size!r}")


def _depth_cell(network: NetworkConfig, family: str, depth: int) -> NetworkConfig:
    """``network`` with ``family`` set and its depth replaced:
    ``hidden_layers`` (ffdnn), or the last ``depth`` entries of
    ``map_counts`` (cnn)."""
    # An unknown family, or a cnn without map counts, fails here.
    cell = dataclasses.replace(network, family=family)
    if family == "cnn":
        maps = list(cell.map_counts)
        if not 1 <= depth <= len(maps):
            raise ConfigError(
                f"cnn depth {depth} needs 1..{len(maps)} (network.map_counts {maps})"
            )
        return dataclasses.replace(cell, map_counts=maps[-depth:])
    if depth < 0:
        raise ConfigError(f"ffdnn depth must be >= 0, got {depth}")
    return dataclasses.replace(cell, hidden_layers=depth)


def _cell_label(cell: NetworkConfig) -> tuple[str, int]:
    """A cell's (width_or_maps, depth); a cnn's depth is its level count."""
    if cell.family == "cnn":
        return "-".join(map(str, cell.map_counts)), len(cell.map_counts)
    return str(cell.hidden_units), cell.hidden_layers


def _run_point(args) -> list[SweepRecord]:
    """Full pipeline for one (network cell, seed) sweep point."""
    cell, bit_list, modes, data, cfg, point_seed = args
    net = build_network(
        cell, data.train.features.shape[1:], data.train.class_count, point_seed
    )
    point_cfg = dataclasses.replace(cfg, seed=point_seed)
    trained, log = train_float(net, data, point_cfg)
    params = count_params(trained)
    label, depth = _cell_label(cell)
    records: list[SweepRecord] = []

    def record(mode: str, bits: int, network: Network, val: float) -> SweepRecord:
        return SweepRecord(
            family=cell.family,
            width_or_maps=label,
            depth=depth,
            mode=mode,
            n_bits=bits,
            seed=point_seed,
            param_count=params,
            total_weight_bits=count_weight_bits(network, bits),
            val_metric=val,
            test_metric=evaluate(network, data.test),
        )

    if "float" in modes:
        records.append(record("float", FLOAT_BITS, trained, log.best_metric))
    for bits in bit_list if set(modes) != {"float"} else ():
        qnet, _ = direct_quantize(trained, bits)
        if "retrained" in modes:
            rnet, rlog = retrain_quantized(qnet, data, retrain_config(point_cfg))
        if "direct" in modes:
            # Retraining starts by validating these very weights.
            val = (rlog.start_metric if "retrained" in modes
                   else evaluate(qnet, data.valid))
            records.append(record("direct", bits, qnet, val))
        if "retrained" in modes:
            records.append(record("retrained", bits, rnet, rlog.best_metric))
    return records


def check_modes(modes: Iterable[str]) -> tuple[str, ...]:
    """The sweep modes as a tuple; unknown or no modes are a ConfigError."""
    modes = tuple(modes)
    unknown = [m for m in modes if m not in MODES]
    if unknown:
        raise ConfigError(
            f"sweep.modes: unknown mode(s) {unknown}; valid modes are {list(MODES)}"
        )
    if not modes:
        raise ConfigError("sweep.modes: at least one mode is required")
    return modes


def check_seed_reps(seed_reps: int) -> None:
    """Raise ConfigError unless ``seed_reps`` is at least 1."""
    if seed_reps < 1:
        raise ConfigError(f"sweep.seed_reps must be >= 1, got {seed_reps}")


def _check_bits(bit_list: Sequence[int], modes) -> list[int]:
    bits = [int(b) for b in bit_list]
    for b in bits:
        bits_to_levels(b)  # range check before any training
    reject_repeats(bits, "quant.bits")
    if not bits and set(modes) != {"float"}:
        raise ConfigError("direct/retrained modes need a non-empty bit list")
    return bits


def _sweep(
    cells: list[NetworkConfig],
    bit_list: Sequence[int],
    modes: Iterable[str],
    data: DatasetSplit,
    cfg: TrainConfig,
    seed_reps: int,
    jobs: int,
) -> list[SweepRecord]:
    """Run every network cell ``seed_reps`` times, each point with a seed
    derived from the base seed and the cell, on ``jobs`` processes."""
    modes = check_modes(modes)
    bits = _check_bits(bit_list, modes)
    if not cells:
        raise ConfigError("sweep sizes and depths must be non-empty")
    check_seed_reps(seed_reps)
    points = []
    for cell in cells:
        label, depth = _cell_label(cell)
        for rep in range(seed_reps):
            key = f"{cell.family}|w{label}|d{depth}|s{rep}"
            points.append((cell, bits, modes, data, cfg, derive_seed(cfg.seed, key)))
    if jobs > 1 and len(points) > 1:
        # The pool starts all its workers at the first submit: no more than
        # there are points.
        with ProcessPoolExecutor(max_workers=min(jobs, len(points))) as pool:
            chunks = list(pool.map(_run_point, points))
    else:
        chunks = [_run_point(p) for p in points]
    records = [r for chunk in chunks for r in chunk]
    records.sort(key=SweepRecord.sort_key)
    return records


def run_width_sweep(
    family: str,
    sizes: Sequence,
    bit_list: Sequence[int],
    modes: Iterable[str],
    data: DatasetSplit,
    cfg: TrainConfig,
    network: NetworkConfig | None = None,
    seed_reps: int = DEFAULT_SEED_REPS,
    jobs: int = 1,
) -> list[SweepRecord]:
    """Train/quantize/retrain across network sizes and precisions.

    Each cell is the ``network`` block with ``family`` set and its width
    replaced by one of ``sizes``: ``hidden_units`` by an int (ffdnn),
    ``map_counts`` by a list (cnn). Each size runs ``seed_reps`` independent
    seeds; float weights are trained once per (size, seed) and reused for
    every precision setting.
    """
    cells = [_width_cell(network or NetworkConfig(), family, size) for size in sizes]
    reject_repeats([_cell_label(c)[0] for c in cells], "sweep.sizes")
    return _sweep(cells, bit_list, modes, data, cfg, seed_reps, jobs)


def run_depth_sweep(
    family: str,
    depths: Sequence[int],
    bit_list: Sequence[int],
    modes: Iterable[str],
    data: DatasetSplit,
    cfg: TrainConfig,
    network: NetworkConfig | None = None,
    seed_reps: int = DEFAULT_SEED_REPS,
    jobs: int = 1,
) -> list[SweepRecord]:
    """Sweep layer count; every other key comes from ``network``.

    ffdnn: ``depths`` replace ``hidden_layers``. cnn: depth d keeps the last
    d entries of ``network.map_counts``.
    """
    cells = [_depth_cell(network or NetworkConfig(), family, int(d)) for d in depths]
    reject_repeats([_cell_label(c)[1] for c in cells], "sweep.depths")
    return _sweep(cells, bit_list, modes, data, cfg, seed_reps, jobs)


# ---------------------------------------------------------------------------
# Effective parameters and compression ratio
# ---------------------------------------------------------------------------


def baseline_curve(
    records: Sequence[SweepRecord], family: str, scale: str = "linear"
) -> FloatBaselineCurve:
    """Median float validation metric per parameter count for one family."""
    by_size: dict[int, list[float]] = {}
    for r in records:
        if r.family == family and r.mode == "float":
            by_size.setdefault(r.param_count, []).append(r.val_metric)
    if not by_size:
        raise ConfigError(
            f"no float records for family {family!r}; rerun the sweep with "
            f"'float' in sweep.modes"
        )
    points = tuple(
        (count, float(np.median(vals))) for count, vals in sorted(by_size.items())
    )
    return FloatBaselineCurve(points=points, scale=scale)


def baseline_curves(
    records: Sequence[SweepRecord], scale: str
) -> dict[str, FloatBaselineCurve]:
    """Baseline curve of every family that has quantized records."""
    families = sorted({r.family for r in records if r.mode != "float"})
    return {f: baseline_curve(records, f, scale=scale) for f in families}


def effective_params(
    curve: FloatBaselineCurve, achieved_metric: float
) -> tuple[float, bool]:
    """Parameter count where the float baseline reaches the given metric.

    Interpolates over the curve's monotone envelope (cumulative minimum of
    the metric as size grows). Metrics outside the envelope's range clamp to
    the smallest or largest curve size; the second return value flags that.
    """
    if len(curve.points) == 0:
        raise ConfigError("empty baseline curve")
    if len(curve.points) < 2:
        raise ConfigError("baseline curve needs at least 2 points")
    counts = np.array([p for p, _ in curve.points], dtype=np.float64)
    metrics = np.minimum.accumulate([m for _, m in curve.points])
    if curve.scale == "log2":
        counts = np.log2(counts)
    if achieved_metric > metrics[0]:
        value, clamped = counts[0], True
    elif achieved_metric < metrics[-1]:
        value, clamped = counts[-1], True
    else:
        # first curve node whose envelope metric is as good as the target
        i = int(np.argmax(metrics <= achieved_metric))
        if metrics[i] == achieved_metric:
            value, clamped = counts[i], False
        else:
            t = (achieved_metric - metrics[i - 1]) / (metrics[i] - metrics[i - 1])
            value, clamped = counts[i - 1] + t * (counts[i] - counts[i - 1]), False
    if curve.scale == "log2":
        value = 2.0 ** value
    return float(value), clamped


def ecr(record: SweepRecord, curve: FloatBaselineCurve) -> float:
    """Effective compression ratio: effective float bits over actual bits."""
    if record.mode == "float":
        raise ConfigError("ECR is defined for quantized records only")
    params, _ = effective_params(curve, record.val_metric)
    return params * FLOAT_BITS / record.total_weight_bits


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------


def _write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a CSV file; floats as ``repr`` (exact round trip), the rest as ``str``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else str(v) for v in row])


LOG_FIELDS = ["epoch", "train_loss", "val_metric", "lr", "seconds"]
REPORT_FIELDS = ["group", "M", "delta", "l2_error", "iterations", "saturated_fraction"]


def write_train_log(log: TrainLog, path: str) -> None:
    """Serialize a TrainLog as CSV, one row per epoch.

    Wall-time seconds are always written as 0.0, so that reruns with
    identical config and seed produce byte-identical files.
    """
    rows = ([r.epoch, r.train_loss, r.val_metric, r.lr, "0.0"] for r in log.records)
    _write_csv(path, LOG_FIELDS, rows)


def write_reports(reports: Iterable[QuantizationReport], path: str) -> None:
    """Serialize fit reports as CSV, one row per weight group."""
    rows = ([getattr(r, f) for f in REPORT_FIELDS] for r in reports)
    _write_csv(path, REPORT_FIELDS, rows)


def _record_row(r: SweepRecord) -> list:
    return [getattr(r, f) for f in RECORD_FIELDS]


def write_records_csv(records: Sequence[SweepRecord], path: str) -> None:
    rows = sorted(records, key=SweepRecord.sort_key)
    _write_csv(path, RECORD_FIELDS, map(_record_row, rows))


def parse_records_csv(path: str) -> list[SweepRecord]:
    """Inverse of write_records_csv; round-trips exactly."""
    reader = csv.reader(io.StringIO(read_text(path, "records file"), newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise DataFormatError(f"{path}: empty records file") from None
    if header != RECORD_FIELDS:
        raise DataFormatError(
            f"{path}: unexpected header {header}, wanted {RECORD_FIELDS}"
        )
    records = []
    for lineno, row in enumerate(reader, start=2):
        if len(row) != len(RECORD_FIELDS):
            raise DataFormatError(
                f"{path}:{lineno}: expected {len(RECORD_FIELDS)} fields, "
                f"found {len(row)}"
            )
        try:
            records.append(SweepRecord(
                *(cast(v) for cast, v in zip(_RECORD_CASTS.values(), row))
            ))
        except (ValueError, ConfigError) as exc:
            raise DataFormatError(f"{path}:{lineno}: bad record: {exc}") from exc
    return records


def write_ecr_csv(
    records: Sequence[SweepRecord],
    curves: dict[str, FloatBaselineCurve],
    path: str,
) -> None:
    """One row per quantized record with its effective size and ECR."""
    rows = []
    for r in records:
        if r.mode == "float":
            continue
        curve = curves[r.family]
        params, clamped = effective_params(curve, r.val_metric)
        rows.append(
            _record_row(r) + [params, params * FLOAT_BITS, ecr(r, curve), int(clamped)]
        )
    _write_csv(path, ECR_FIELDS, rows)


def _cell_key(r: SweepRecord) -> tuple:
    return (r.family, r.width_or_maps, r.depth, r.mode, r.n_bits)


def _median_by(records: Sequence[SweepRecord], metric: str):
    """Median metric per (family, width_or_maps, depth, mode, n_bits)."""
    acc: dict[tuple, list[float]] = {}
    for r in records:
        acc.setdefault(_cell_key(r), []).append(getattr(r, metric))
    return {k: float(np.median(v)) for k, v in acc.items()}


def emit_report(
    records: Sequence[SweepRecord],
    out_dir: str,
    scale: str = "linear",
) -> list[str]:
    """Write records.csv, ecr.csv, plot-data CSVs, and summary.md.

    Returns the list of file paths written.
    """
    os.makedirs(out_dir, exist_ok=True)
    records = sorted(records, key=SweepRecord.sort_key)
    written = [
        os.path.join(out_dir, name)
        for name in ("records.csv", "ecr.csv", "plot_bits_vs_error.csv",
                     "plot_size_vs_error.csv", "summary.md")
    ]
    records_path, ecr_path, bits_path, size_path, summary_path = written
    write_records_csv(records, records_path)
    write_ecr_csv(records, baseline_curves(records, scale), ecr_path)
    med_val = _median_by(records, "val_metric")
    _write_csv(
        bits_path,
        ["family", "width_or_maps", "depth", "mode", "n_bits", "val_metric"],
        [[*key, med_val[key]] for key in sorted(med_val)],
    )
    first: dict[tuple, SweepRecord] = {}
    for r in records:
        first.setdefault(_cell_key(r), r)
    _write_csv(
        size_path,
        ["family", "mode", "n_bits", "param_count", "total_weight_bits", "val_metric"],
        sorted(
            (r.family, r.mode, r.n_bits, r.param_count, r.total_weight_bits,
             med_val[key])
            for key, r in first.items()
        ),
    )
    _write_summary(records, summary_path)
    return written


def _size_sort_key(size: str):
    """Numeric ordering for sizes like "8" or "32-32-64"; strings last."""
    parts = size.split("-")
    if all(p.isdigit() for p in parts):
        return (0, tuple(int(p) for p in parts), size)
    return (1, (), size)


def _write_summary(records, path) -> None:
    med_test = _median_by(records, "test_metric")
    arches = sorted(
        {(r.family, r.width_or_maps, r.depth) for r in records},
        key=lambda a: (a[0], a[2], _size_sort_key(a[1])),
    )
    bit_settings = sorted({r.n_bits for r in records if r.mode != "float"})
    lines = ["# Quantization sweep summary", ""]
    lines.append(
        "Median test error (%) over seeds. Difference is retrained minus float."
    )
    lines.append("")
    for bits in bit_settings:
        lines.append(f"## {bits}-bit weights")
        lines.append("")
        lines.append("| Family | Size | Depth | Float | Direct | Retrained | Difference |")
        lines.append("|---|---|---|---|---|---|---|")
        for family, size, depth in arches:
            f = med_test.get((family, size, depth, "float", FLOAT_BITS))
            d = med_test.get((family, size, depth, "direct", bits))
            r = med_test.get((family, size, depth, "retrained", bits))
            if d is None and r is None:
                continue
            diff = f"{r - f:+.2f}" if (r is not None and f is not None) else ""
            cells = [
                family, size, str(depth),
                *("" if v is None else f"{v:.2f}" for v in (f, d, r)),
                diff,
            ]
            lines.append("| " + " | ".join(cells) + " |")
        lines.append("")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
