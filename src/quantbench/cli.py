"""Command-line entry point.

    quantbench train|quantize|retrain|sweep|ecr|report --config FILE
               [--out DIR] [--jobs N] [--seed N]

One JSON config per experiment, read into ``Config``: each block is a frozen
dataclass whose fields are its keys, types and defaults. Unknown keys anywhere
in the document are errors (catches sweep-definition typos); error messages
carry the offending field path. Seed precedence: --seed flag, then the QUANTBENCH_SEED
environment variable, then the config's seeds. Either override replaces
every seed in the config; without one, the "seed" of the dataset or train
block beats the top-level "seed" for that block.

Exit codes: 0 success, 2 config or usage error, 3 data format error,
4 numeric divergence during training.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import types
from dataclasses import dataclass, field
from typing import get_args, get_origin, get_type_hints

from .checkpoint import load_checkpoint, save_checkpoint
from .data import MAX_CLASSES, Dataset, DatasetSplit, load_cifar10, load_csv, synthetic_split
from .errors import (ConfigError, DataFormatError, DivergenceError, QuantbenchError,
                     missing_key, read_text, reject_repeats)
from .experiments import (
    DEFAULT_SEED_REPS,
    MODES,
    NetworkConfig,
    SweepRecord,
    baseline_curves,
    build_network,
    check_modes,
    check_scale,
    check_seed_reps,
    emit_report,
    parse_records_csv,
    run_depth_sweep,
    run_width_sweep,
    write_ecr_csv,
    write_records_csv,
    write_reports,
    write_train_log,
)
from .nn import cnn_group_names, count_params, ffdnn_group_names
from .quantizer import bits_to_levels, check_groups, direct_quantize
from .tensor import Tensor
from .trainer import (
    TrainConfig,
    evaluate,
    retrain_config,
    retrain_quantized,
    train_float,
)

SEED_ENV = "QUANTBENCH_SEED"

FLOAT_CKPT = "float.ckpt"
RETRAINED_CKPT = "retrained.ckpt"


# ---------------------------------------------------------------------------
# Config blocks
# ---------------------------------------------------------------------------


# A field's type (dict: a config block) -> (the JSON values it takes, their name)
_JSON = {int: (int, "an integer"), float: ((int, float), "a number"),
         str: (str, "a string"), bool: (bool, "true or false"),
         list: (list, "a list"), dict: (dict, "an object")}


def _cast(value, kind, path: str):
    """``value`` checked against the field type ``kind``: a scalar, a ``list[...]``,
    a config dataclass, or one of these ``| None`` (None only as the default)."""
    if get_origin(kind) is types.UnionType:
        (kind,) = [k for k in get_args(kind) if k is not type(None)]
    shape = dict if dataclasses.is_dataclass(kind) else get_origin(kind) or kind
    accepted, name = _JSON[shape]
    # bool is an int subclass: a bool passes exactly where the field is bool.
    if not isinstance(value, accepted) or isinstance(value, bool) != (kind is bool):
        raise ConfigError(f"{path}: expected {name}, got {type(value).__name__}")
    if shape is dict:
        return _build(kind, value, path)
    if shape is list:
        (item,) = get_args(kind)
        return [_cast(v, item, f"{path}[{i}]") for i, v in enumerate(value)]
    if kind is float:
        try:
            value = float(value)
        except OverflowError:  # an integer beyond float range
            value = math.inf
        if not math.isfinite(value):  # json also reads NaN, Infinity and 1e999
            raise ConfigError(f"{path}: expected a finite number, got {value}")
    return value


def _build(cls, block: dict, path: str):
    """A ``cls`` from the JSON object ``block`` at ``path``: unknown keys are
    errors, each value is cast by its field's type (or by the ``cast`` of the
    field's metadata), and a field without a default is required."""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    kinds = get_type_hints(cls)
    values = {}
    for key, value in block.items():
        key_path = f"{path}.{key}" if path else key
        if key not in fields:
            known = ", ".join(sorted(fields))
            raise ConfigError(f"{key_path}: unknown key (known keys: {known})")
        values[key] = fields[key].metadata.get("cast", _cast)(value, kinds[key], key_path)
    for name, f in fields.items():
        no_default = f.default is f.default_factory is dataclasses.MISSING
        if name not in values and no_default:
            raise missing_key(f"{path}.{name}")
    return cls(**values)


def _at(path: str, check, value):
    """``check(value)``, a ConfigError it raises prefixed with ``path``."""
    try:
        return check(value)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _as_groups(value, kind, path: str):
    if value == "all":
        return value
    if not isinstance(value, list):
        raise ConfigError(f'{path}: expected "all" or a list of names')
    return check_groups(_cast(value, list[str], path))


def _as_sizes(value, kind, path: str) -> list:
    """Hidden-unit counts (ffdnn) or lists of map counts (cnn)."""
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a non-empty list")
    nested = all(isinstance(s, list) for s in value)
    return _cast(value, list[list[int]] if nested else list[int], path)


# dataset.kind -> the keys it reads besides kind and seed (which every kind
# takes: _resolve_seeds writes it). Each path it reads but labels_path is
# required.
_SYNTHETIC = ("n_train", "n_valid", "n_test", "classes")
_DATASET_KEYS = {
    "cifar10": ("path",),
    "csv": ("path", "labels_path", "valid_path", "test_path", "classes"),
    "blobs": _SYNTHETIC + ("dim", "spread", "shape"),
    "spirals": _SYNTHETIC + ("spread",),
    "teacher_net": _SYNTHETIC + ("dim",),
}


@dataclass(frozen=True)
class DatasetConfig:
    """The ``dataset`` block. Left at None, ``classes`` is the largest label
    plus 1 for csv and 4 for a synthetic kind, and ``dim`` and ``spread`` take
    ``data.make_synthetic``'s defaults."""

    kind: str
    seed: int
    path: str | None = None
    labels_path: str | None = None
    valid_path: str | None = None
    test_path: str | None = None
    n_train: int = 1000
    n_valid: int = 300
    n_test: int = 300
    classes: int | None = None
    dim: int | None = None
    spread: float | None = None
    shape: list[int] | None = None

    def __post_init__(self):
        if self.kind not in _DATASET_KEYS:
            raise ConfigError(f"dataset.kind: expected one of {', '.join(_DATASET_KEYS)}, "
                              f"got {self.kind!r}")
        for key in ("path", "valid_path", "test_path"):
            if key in _DATASET_KEYS[self.kind] and getattr(self, key) is None:
                raise missing_key(f"dataset.{key}")
        if self.classes is not None and self.classes > MAX_CLASSES:
            raise ConfigError(f"dataset.classes must be <= {MAX_CLASSES}, got {self.classes}")


@dataclass(frozen=True)
class QuantConfig:
    """The ``quant`` block; ``checkpoint`` left at None is ``<out>/float.ckpt``."""

    checkpoint: str | None = None
    n_bits: int | None = None
    bits: list[int] = field(default_factory=lambda: [2])
    groups: str | list[str] = field(default="all", metadata={"cast": _as_groups})

    def __post_init__(self):
        given = [] if self.n_bits is None else [("quant.n_bits", self.n_bits)]
        for path, bits in given + [(f"quant.bits[{i}]", b) for i, b in enumerate(self.bits)]:
            _at(path, bits_to_levels, bits)
        reject_repeats(self.bits, "quant.bits")

    def required_n_bits(self) -> int:
        """``n_bits``, which quantize and retrain require."""
        if self.n_bits is None:
            raise missing_key("quant.n_bits")
        return self.n_bits


@dataclass(frozen=True)
class SweepConfig:
    """The ``sweep`` block; a width sweep needs ``sizes``, a depth sweep ``depths``."""

    axis: str = "width"
    sizes: list[int] | list[list[int]] | None = field(default=None, metadata={"cast": _as_sizes})
    depths: list[int] | None = None
    modes: list[str] = field(default_factory=lambda: list(MODES))
    seed_reps: int = DEFAULT_SEED_REPS

    def __post_init__(self):
        if self.axis not in _SWEEPS:
            raise ConfigError(f"sweep.axis: expected 'width' or 'depth', got {self.axis!r}")
        check_modes(self.modes)
        check_seed_reps(self.seed_reps)


@dataclass(frozen=True)
class RecordsConfig:
    """An ``ecr`` or ``report`` block; ``records`` None is ``<out>/records.csv``."""

    records: str | None = None
    scale: str = "linear"


@dataclass(frozen=True)
class Config:
    """A whole experiment config; a command refuses a block it reads left at None."""

    seed: int = 0
    out_dir: str = "out"
    dataset: DatasetConfig | None = None
    network: NetworkConfig | None = None
    train: TrainConfig = TrainConfig()
    quant: QuantConfig = QuantConfig()
    sweep: SweepConfig | None = None
    ecr: RecordsConfig = RecordsConfig()
    report: RecordsConfig = RecordsConfig()

    def __post_init__(self):
        for key in ("ecr", "report"):
            _at(f"{key}.scale", check_scale, getattr(self, key).scale)
        groups, nw = self.quant.groups, self.network
        if isinstance(groups, list) and nw is not None:
            known = (cnn_group_names(len(nw.map_counts)) if nw.family == "cnn"
                     else ffdnn_group_names(nw.hidden_layers))
            if unknown := [g for g in groups if g not in known]:
                raise ConfigError(
                    f"quant.groups: unknown group(s) {unknown} for the declared "
                    f"network (expected among {known})"
                )


def _resolve_seeds(raw: dict, flag_seed: int | None) -> None:
    """Write the effective seed into the document's dataset and train blocks.

    --seed, then QUANTBENCH_SEED, beats every config seed. Without an
    override, a block's own "seed" beats the top-level one.
    """
    override = flag_seed
    env = os.environ.get(SEED_ENV)
    if override is None and env is not None:
        try:
            override = int(env)
        except ValueError:
            raise ConfigError(
                f"{SEED_ENV} must be an integer, got {env!r}"
            ) from None
    top = _cast(raw.get("seed", Config.seed), int, "seed")
    raw.setdefault("train", {})
    for key in ("dataset", "train"):
        if isinstance(block := raw.get(key), dict):  # anything else fails in _build
            own = _cast(block.get("seed", top), int, f"{key}.seed")
            block["seed"] = own if override is None else override


def load_config(path: str, flag_seed: int | None = None) -> Config:
    """Read and check an experiment config, its seeds resolved."""
    text = read_text(path, "config", unreadable=ConfigError)
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config root must be a JSON object")
    _resolve_seeds(raw, flag_seed)
    cfg = _build(Config, raw, "")
    if cfg.dataset is not None:  # the keys given, so that no default trips this
        reads = ("kind", "seed", *_DATASET_KEYS[cfg.dataset.kind])
        if unread := [key for key in raw["dataset"] if key not in reads]:
            raise ConfigError(f"dataset.{unread[0]}: a {cfg.dataset.kind} dataset does not "
                              f"read it (it reads {', '.join(reads)})")
    return cfg


# ---------------------------------------------------------------------------
# Config -> objects
# ---------------------------------------------------------------------------


def _build_split(cfg: Config) -> DatasetSplit:
    ds = cfg.dataset
    if ds is None:
        raise ConfigError("dataset: required block is missing")
    if ds.kind == "cifar10":
        return load_cifar10(ds.path)
    if ds.kind == "csv":
        parts = (
            load_csv(ds.path, ds.labels_path, ds.classes),
            load_csv(ds.valid_path, class_count=ds.classes),
            load_csv(ds.test_path, class_count=ds.classes),
        )
        classes = max(part.class_count for part in parts)
        return DatasetSplit(*(Dataset(p.features, p.labels, classes) for p in parts))
    kw = {k: v for k in ("dim", "spread") if (v := getattr(ds, k)) is not None}
    return synthetic_split(
        ds.kind,
        n_train=ds.n_train,
        n_valid=ds.n_valid,
        n_test=ds.n_test,
        classes=4 if ds.classes is None else ds.classes,
        seed=ds.seed,
        shape=tuple(ds.shape) if ds.shape else None,
        **kw,
    )


def _load_split(cfg: Config) -> DatasetSplit:
    """The configured split, with image features flattened for an ffdnn."""
    split = _build_split(cfg)
    if (cfg.network or NetworkConfig()).family != "ffdnn":
        return split

    def flat(ds):
        f = ds.features.ndarray
        if f.ndim <= 2:
            return ds
        return dataclasses.replace(
            ds, features=Tensor._wrap(f.reshape(f.shape[0], -1))
        )

    return DatasetSplit(
        train=flat(split.train), valid=flat(split.valid), test=flat(split.test)
    )


def _build_network(cfg: Config, split: DatasetSplit, seed: int):
    if cfg.network is None:
        raise ConfigError("network: required block is missing")
    return build_network(
        cfg.network, split.train.features.shape[1:], split.train.class_count, seed
    )


def _out_dir(cfg: Config, flag_out: str | None) -> str:
    out = flag_out or cfg.out_dir
    os.makedirs(out, exist_ok=True)
    return out


def _quantized_ckpt(out_dir: str, n_bits: int) -> str:
    return os.path.join(out_dir, f"quantized_{n_bits}bit.ckpt")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_train(cfg: Config, out_dir: str, jobs: int) -> int:
    split = _load_split(cfg)
    net = _build_network(cfg, split, seed=cfg.train.seed)
    best, log = train_float(net, split, cfg.train)
    ckpt = os.path.join(out_dir, FLOAT_CKPT)
    save_checkpoint(best, ckpt)
    log_path = os.path.join(out_dir, "train_log.csv")
    write_train_log(log, log_path)
    test = evaluate(best, split.test)
    print(f"trained {cfg.network.family} ({count_params(best)} params): "
          f"val {log.best_metric:.2f}% test {test:.2f}%")
    print(f"wrote {ckpt}")
    print(f"wrote {log_path}")
    return 0


def cmd_quantize(cfg: Config, out_dir: str, jobs: int) -> int:
    quant = cfg.quant
    n_bits = quant.required_n_bits()
    net = load_checkpoint(
        os.path.join(out_dir, FLOAT_CKPT) if quant.checkpoint is None else quant.checkpoint
    )
    qnet, reports = direct_quantize(net, n_bits, groups=quant.groups)
    ckpt_out = _quantized_ckpt(out_dir, n_bits)
    save_checkpoint(qnet, ckpt_out)
    report_path = os.path.join(out_dir, "quant_report.csv")
    write_reports(reports, report_path)
    for rep in reports:
        print(f"group {rep.group}: M={rep.M} delta={rep.delta:.6g} "
              f"l2_error={rep.l2_error:.6g}")
    print(f"wrote {ckpt_out}")
    print(f"wrote {report_path}")
    return 0


def cmd_retrain(cfg: Config, out_dir: str, jobs: int) -> int:
    net = load_checkpoint(_quantized_ckpt(out_dir, cfg.quant.required_n_bits()))
    split = _load_split(cfg)
    best, log = retrain_quantized(net, split, retrain_config(cfg.train))
    ckpt_out = os.path.join(out_dir, RETRAINED_CKPT)
    save_checkpoint(best, ckpt_out)
    log_path = os.path.join(out_dir, "retrain_log.csv")
    write_train_log(log, log_path)
    print(f"retrained: val {log.best_metric:.2f}% over {len(log.records)} epochs")
    print(f"wrote {ckpt_out}")
    print(f"wrote {log_path}")
    return 0


# sweep.axis -> (sweep function, key of the swept values)
_SWEEPS = {"width": (run_width_sweep, "sizes"), "depth": (run_depth_sweep, "depths")}


def cmd_sweep(cfg: Config, out_dir: str, jobs: int) -> int:
    sw = cfg.sweep
    if sw is None:
        raise ConfigError("sweep: required block is missing")
    run, key = _SWEEPS[sw.axis]
    values = getattr(sw, key)
    if values is None:
        raise missing_key(f"sweep.{key}")
    split = _load_split(cfg)
    network = cfg.network or NetworkConfig()
    records = run(
        network.family, values, cfg.quant.bits, sw.modes, split, cfg.train,
        network=network, seed_reps=sw.seed_reps, jobs=jobs,
    )
    path = os.path.join(out_dir, "records.csv")
    write_records_csv(records, path)
    print(f"{len(records)} records")
    print(f"wrote {path}")
    return 0


def _load_records(cfg: Config, key: str, out_dir: str) -> tuple[list[SweepRecord], str]:
    block = getattr(cfg, key)
    path = os.path.join(out_dir, "records.csv") if block.records is None else block.records
    if not os.path.exists(path):
        raise ConfigError(
            f"{key}.records: no records at {path}; run `quantbench sweep` first"
        )
    return parse_records_csv(path), block.scale


def cmd_ecr(cfg: Config, out_dir: str, jobs: int) -> int:
    records, scale = _load_records(cfg, "ecr", out_dir)
    quantized = [r for r in records if r.mode != "float"]
    path = os.path.join(out_dir, "ecr.csv")
    write_ecr_csv(quantized, baseline_curves(records, scale), path)
    print(f"{len(quantized)} quantized records")
    print(f"wrote {path}")
    return 0


def cmd_report(cfg: Config, out_dir: str, jobs: int) -> int:
    records, scale = _load_records(cfg, "report", out_dir)
    files = emit_report(records, out_dir, scale=scale)
    for f in files:
        print(f"wrote {f}")
    return 0


_COMMANDS = {
    "train": cmd_train,
    "quantize": cmd_quantize,
    "retrain": cmd_retrain,
    "sweep": cmd_sweep,
    "ecr": cmd_ecr,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantbench",
        description="Fixed-point quantization benchmarks for small neural nets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", required=True, help="experiment config (JSON)")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--jobs", type=int, default=1,
                       help="parallel sweep workers (default 1)")
        p.add_argument("--seed", type=int, default=None,
                       help="seed override (beats QUANTBENCH_SEED and config)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.seed)
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
        out_dir = _out_dir(cfg, args.out)
        return _COMMANDS[args.command](cfg, out_dir, args.jobs)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except DataFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except QuantbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
