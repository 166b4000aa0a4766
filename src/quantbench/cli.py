"""Command-line entry point.

    quantbench train|quantize|retrain|sweep|ecr|report --config FILE
               [--out DIR] [--jobs N] [--seed N]

One JSON config per experiment. Unknown keys anywhere in the document are
errors (catches sweep-definition typos); error messages carry the offending
field path. Seed precedence: --seed flag, then the QUANTBENCH_SEED
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
from typing import get_type_hints

from .checkpoint import load_checkpoint, save_checkpoint
from .data import MAX_CLASSES, Dataset, DatasetSplit, load_cifar10, load_csv, synthetic_split
from .errors import ConfigError, DataFormatError, DivergenceError, QuantbenchError, read_text
from .experiments import (
    DEFAULT_SEED_REPS,
    MODES,
    SweepRecord,
    baseline_curves,
    build_network,
    check_modes,
    emit_report,
    network_block,
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
# Config schema
# ---------------------------------------------------------------------------


def _type_name(value) -> str:
    return type(value).__name__


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {_type_name(value)}")
    return value


def _as_float(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {_type_name(value)}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond float range
        number = math.inf
    if not math.isfinite(number):  # json also reads NaN, Infinity and 1e999
        raise ConfigError(f"{path}: expected a finite number, got {number}")
    return number


def _as_str(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string, got {_type_name(value)}")
    return value


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true or false, got {_type_name(value)}")
    return value


def _as_int_list(value, path: str) -> list[int]:
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list, got {_type_name(value)}")
    return [_as_int(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _as_str_list(value, path: str) -> list[str]:
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list, got {_type_name(value)}")
    return [_as_str(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _as_groups(value, path: str):
    if value == "all":
        return value
    if not isinstance(value, list):
        raise ConfigError(f'{path}: expected "all" or a list of names')
    return check_groups(_as_str_list(value, path))


def _as_sizes(value, path: str) -> list:
    """Hidden-unit counts (ffdnn) or lists of map counts (cnn)."""
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a non-empty list")
    if all(isinstance(s, list) for s in value):
        return [_as_int_list(s, f"{path}[{i}]") for i, s in enumerate(value)]
    return _as_int_list(value, path)


_RECORDS_SCHEMA = {"records": _as_str, "scale": _as_str}

# Each key maps to the cast that checks its value, or to the schema of a block.
_SCHEMA = {
    "seed": _as_int,
    "out_dir": _as_str,
    "dataset": {
        "kind": _as_str,
        "path": _as_str,
        "labels_path": _as_str,
        "valid_path": _as_str,
        "test_path": _as_str,
        "n_train": _as_int,
        "n_valid": _as_int,
        "n_test": _as_int,
        "classes": _as_int,
        "dim": _as_int,
        "spread": _as_float,
        "shape": _as_int_list,
        "seed": _as_int,
    },
    "network": {
        "family": _as_str,
        "hidden_units": _as_int,
        "hidden_layers": _as_int,
        "map_counts": _as_int_list,
        "fc_units": _as_int,
        "dropout_rate": _as_float,
    },
    # Exactly TrainConfig's fields; a field of another type fails at import.
    "train": {
        name: {int: _as_int, float: _as_float, bool: _as_bool}[kind]
        for name, kind in get_type_hints(TrainConfig).items()
    },
    "quant": {
        "checkpoint": _as_str,
        "n_bits": _as_int,
        "bits": _as_int_list,
        "groups": _as_groups,
    },
    "sweep": {
        "axis": _as_str,
        "sizes": _as_sizes,
        "depths": _as_int_list,
        "modes": _as_str_list,
        "seed_reps": _as_int,
    },
    "ecr": _RECORDS_SCHEMA,
    "report": _RECORDS_SCHEMA,
}


def _check_block(block, schema: dict, path: str) -> dict:
    """Validate one config block: unknown keys are errors, values are cast,
    nested blocks are checked recursively."""
    if not isinstance(block, dict):
        raise ConfigError(f"{path}: expected an object, got {_type_name(block)}")
    out = {}
    for key, value in block.items():
        key_path = f"{path}.{key}" if path else key
        if key not in schema:
            known = ", ".join(sorted(schema))
            raise ConfigError(f"{key_path}: unknown key (known keys: {known})")
        check = schema[key]
        if isinstance(check, dict):
            out[key] = _check_block(value, check, key_path)
        else:
            out[key] = check(value, key_path)
    return out


def load_config(path: str) -> dict:
    """Read and validate an experiment config; returns the checked document."""
    text = read_text(path, "config", unreadable=ConfigError)
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config root must be a JSON object")
    cfg = _check_block(raw, _SCHEMA, "")
    _validate_references(cfg)
    return cfg


def _expected_groups(network: dict) -> list[str]:
    """Weight-group names the declared architecture will create."""
    nw = network_block(network)
    if nw["family"] == "cnn":
        return cnn_group_names(len(nw.get("map_counts", [])))
    return ffdnn_group_names(nw["hidden_layers"])


def _validate_references(cfg: dict) -> None:
    """Cross-block checks that must fail before any work starts."""
    quant = cfg.get("quant", {})
    groups = quant.get("groups")
    if isinstance(groups, list) and "network" in cfg:
        known = _expected_groups(cfg["network"])
        unknown = [g for g in groups if g not in known]
        if unknown:
            raise ConfigError(
                f"quant.groups: unknown group(s) {unknown} for the declared "
                f"network (expected among {known})"
            )
    if "modes" in cfg.get("sweep", {}):
        check_modes(cfg["sweep"]["modes"])


# ---------------------------------------------------------------------------
# Config -> objects
# ---------------------------------------------------------------------------


def _require(block: dict, key: str, path: str):
    if key not in block:
        raise ConfigError(f"{path}.{key}: required key is missing")
    return block[key]


def _resolve_seeds(cfg: dict, flag_seed: int | None) -> None:
    """Write the effective seed into the dataset and train blocks.

    --seed, then QUANTBENCH_SEED, beats every config seed. Without an
    override, a block's own "seed" beats the top-level one (default 0).
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
    top = cfg.get("seed", 0) if override is None else override
    for block in (cfg.get("dataset"), cfg.setdefault("train", {})):
        if block is not None:
            block["seed"] = top if override is not None else block.get("seed", top)


def _build_split(cfg: dict) -> DatasetSplit:
    if "dataset" not in cfg:
        raise ConfigError("dataset: required block is missing")
    ds = cfg["dataset"]
    kind = _require(ds, "kind", "dataset")
    if ds.get("classes", 0) > MAX_CLASSES:
        raise ConfigError(f"dataset.classes must be <= {MAX_CLASSES}, got {ds['classes']}")
    if kind == "cifar10":
        return load_cifar10(_require(ds, "path", "dataset"))
    if kind == "csv":
        classes = ds.get("classes")
        parts = (
            load_csv(_require(ds, "path", "dataset"), ds.get("labels_path"), classes),
            load_csv(_require(ds, "valid_path", "dataset"), class_count=classes),
            load_csv(_require(ds, "test_path", "dataset"), class_count=classes),
        )
        classes = max(part.class_count for part in parts)
        return DatasetSplit(*(Dataset(p.features, p.labels, classes) for p in parts))
    if kind in ("blobs", "spirals", "teacher_net"):
        shape = ds.get("shape")
        kw = {k: ds[k] for k in ("dim", "spread") if k in ds}
        return synthetic_split(
            kind,
            n_train=ds.get("n_train", 1000),
            n_valid=ds.get("n_valid", 300),
            n_test=ds.get("n_test", 300),
            classes=ds.get("classes", 4),
            seed=ds["seed"],
            shape=tuple(shape) if shape else None,
            **kw,
        )
    raise ConfigError(
        f"dataset.kind: expected cifar10, csv, blobs, spirals, or teacher_net, "
        f"got {kind!r}"
    )


def _family(cfg: dict) -> str:
    return network_block(cfg.get("network"))["family"]


def _load_split(cfg: dict) -> DatasetSplit:
    """The configured split, with image features flattened for an ffdnn."""
    split = _build_split(cfg)
    if _family(cfg) != "ffdnn":
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


def _build_network(cfg: dict, split: DatasetSplit, seed: int):
    if "network" not in cfg:
        raise ConfigError("network: required block is missing")
    return build_network(
        cfg["network"], split.train.features.shape[1:], split.train.class_count, seed
    )


def _out_dir(cfg: dict, flag_out: str | None) -> str:
    out = flag_out or cfg.get("out_dir", "out")
    os.makedirs(out, exist_ok=True)
    return out


def _quantized_ckpt(out_dir: str, n_bits: int) -> str:
    return os.path.join(out_dir, f"quantized_{n_bits}bit.ckpt")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_train(cfg: dict, out_dir: str, jobs: int) -> int:
    split = _load_split(cfg)
    tcfg = TrainConfig(**cfg["train"])
    net = _build_network(cfg, split, seed=tcfg.seed)
    best, log = train_float(net, split, tcfg)
    ckpt = os.path.join(out_dir, FLOAT_CKPT)
    save_checkpoint(best, ckpt)
    log_path = os.path.join(out_dir, "train_log.csv")
    write_train_log(log, log_path)
    test = evaluate(best, split.test)
    print(f"trained {_family(cfg)} ({count_params(best)} params): "
          f"val {log.best_metric:.2f}% test {test:.2f}%")
    print(f"wrote {ckpt}")
    print(f"wrote {log_path}")
    return 0


def cmd_quantize(cfg: dict, out_dir: str, jobs: int) -> int:
    quant = cfg.get("quant", {})
    ckpt_in = quant.get("checkpoint", os.path.join(out_dir, FLOAT_CKPT))
    n_bits = _require(quant, "n_bits", "quant")
    bits_to_levels(n_bits)  # range check before touching the checkpoint
    groups = quant.get("groups", "all")
    net = load_checkpoint(ckpt_in)
    qnet, reports = direct_quantize(net, n_bits, groups=groups)
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


def cmd_retrain(cfg: dict, out_dir: str, jobs: int) -> int:
    n_bits = _require(cfg.get("quant", {}), "n_bits", "quant")
    bits_to_levels(n_bits)
    net = load_checkpoint(_quantized_ckpt(out_dir, n_bits))
    split = _load_split(cfg)
    tcfg = retrain_config(TrainConfig(**cfg["train"]))
    best, log = retrain_quantized(net, split, tcfg)
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


def cmd_sweep(cfg: dict, out_dir: str, jobs: int) -> int:
    if "sweep" not in cfg:
        raise ConfigError("sweep: required block is missing")
    sw = cfg["sweep"]
    axis = sw.get("axis", "width")
    if axis not in _SWEEPS:
        raise ConfigError(f"sweep.axis: expected 'width' or 'depth', got {axis!r}")
    run, key = _SWEEPS[axis]
    values = _require(sw, key, "sweep")
    split = _load_split(cfg)
    records = run(
        _family(cfg), values, cfg.get("quant", {}).get("bits", [2]),
        sw.get("modes", MODES), split, TrainConfig(**cfg["train"]),
        network=cfg.get("network"),
        seed_reps=sw.get("seed_reps", DEFAULT_SEED_REPS), jobs=jobs,
    )
    path = os.path.join(out_dir, "records.csv")
    write_records_csv(records, path)
    print(f"{len(records)} records")
    print(f"wrote {path}")
    return 0


def _load_records(cfg: dict, key: str, out_dir: str) -> tuple[list[SweepRecord], str]:
    block = cfg.get(key, {})
    path = block.get("records", os.path.join(out_dir, "records.csv"))
    if not os.path.exists(path):
        raise ConfigError(
            f"{key}.records: no records at {path}; run `quantbench sweep` first"
        )
    return parse_records_csv(path), block.get("scale", "linear")


def cmd_ecr(cfg: dict, out_dir: str, jobs: int) -> int:
    records, scale = _load_records(cfg, "ecr", out_dir)
    quantized = [r for r in records if r.mode != "float"]
    path = os.path.join(out_dir, "ecr.csv")
    write_ecr_csv(quantized, baseline_curves(records, scale), path)
    print(f"{len(quantized)} quantized records")
    print(f"wrote {path}")
    return 0


def cmd_report(cfg: dict, out_dir: str, jobs: int) -> int:
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
        cfg = load_config(args.config)
        _resolve_seeds(cfg, args.seed)
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
