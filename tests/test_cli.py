"""Command-line behavior: pipelines, exit codes, seeds, reproducibility."""

import dataclasses
import functools
import hashlib
import json
import operator
import os
import struct
import subprocess
import sys
import types
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np
import pytest
from forge import reseal_replace, seal

import quantbench

from quantbench.checkpoint import load_checkpoint, save_checkpoint
from quantbench.cli import (
    SEED_ENV,
    Config,
    DatasetConfig,
    QuantConfig,
    RecordsConfig,
    SweepConfig,
    _build_split,
    load_config,
    main,
)
from quantbench.data import make_synthetic
from quantbench.experiments import NetworkConfig
from quantbench.tensor import Tensor
from quantbench.trainer import TrainConfig


# Each block of a config and its dataclass; "" is the document's own fields.
BLOCKS = {"": Config, "dataset": DatasetConfig, "network": NetworkConfig,
          "train": TrainConfig, "quant": QuantConfig, "sweep": SweepConfig,
          "ecr": RecordsConfig, "report": RecordsConfig}
CONFIG_FIELDS = [
    (block, f) for block, cls in BLOCKS.items() for f in dataclasses.fields(cls)
    if not (cls is Config and f.name in BLOCKS)
]
# A field's type (without its "| None") -> values of other types, refused
WRONG_VALUES = {
    int: [True, 1.5, "1", None], float: ["x", False, None], str: [1, ["a"], None],
    bool: [1, "true", None], list[int]: [7, "a", None], list[str]: ["a", None],
    list[int] | list[list[int]]: [7, [], None],  # sweep.sizes
    str | list[str]: [7, None],  # quant.groups
}


@pytest.fixture(autouse=True)
def _clean_seed_env(monkeypatch):
    monkeypatch.delenv(SEED_ENV, raising=False)


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _base_config(**overrides):
    cfg = {
        "seed": 7,
        "dataset": {
            "kind": "blobs",
            "n_train": 120,
            "n_valid": 40,
            "n_test": 40,
            "classes": 3,
            "dim": 6,
            "spread": 0.3,
        },
        "network": {"family": "ffdnn", "hidden_units": 6, "dropout_rate": 0.0},
        "train": {
            "batch_size": 32,
            "lr_init": 0.02,
            "lr_final": 0.0001,
            "max_epochs": 2,
            "patience": 2,
        },
    }
    cfg.update(overrides)
    return cfg


def _demo_records_with(tmp_path, changes):
    """Config of an out dir whose records.csv is out/demo's with the fields
    of its second record (line 3) set to ``changes``."""
    out = tmp_path / "out"
    out.mkdir()
    demo = Path(__file__).resolve().parent.parent / "out" / "demo" / "records.csv"
    lines = demo.read_text().splitlines()
    header, row = lines[0].split(","), lines[2].split(",")
    for field, value in changes.items():
        row[header.index(field)] = value
    lines[2] = ",".join(row)
    (out / "records.csv").write_text("\n".join(lines) + "\n")
    return _write_config(tmp_path, _base_config(out_dir=str(out)))


def _write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1))
    return str(path)


def _run(*argv):
    return main(list(argv))


class TestPipeline:
    def test_full_chain(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = _base_config(out_dir=str(out))
        cfg["sweep"] = {"axis": "width", "sizes": [4, 8], "seed_reps": 1}
        cfg["quant"] = {"n_bits": 2, "bits": [2]}
        config = _write_config(tmp_path, cfg)

        assert _run("train", "--config", config) == 0
        assert (out / "float.ckpt").exists()
        assert (out / "train_log.csv").exists()
        stdout = capsys.readouterr().out
        assert "trained ffdnn" in stdout
        assert "val " in stdout and "test " in stdout

        assert _run("quantize", "--config", config) == 0
        assert (out / "quantized_2bit.ckpt").exists()
        assert (out / "quant_report.csv").exists()
        stdout = capsys.readouterr().out
        assert "M=3" in stdout

        assert _run("retrain", "--config", config) == 0
        assert (out / "retrained.ckpt").exists()
        assert (out / "retrain_log.csv").exists()

        assert _run("sweep", "--config", config) == 0
        assert (out / "records.csv").exists()

        assert _run("ecr", "--config", config) == 0
        assert (out / "ecr.csv").exists()

        assert _run("report", "--config", config) == 0
        for name in ("summary.md", "plot_bits_vs_error.csv",
                     "plot_size_vs_error.csv"):
            assert (out / name).exists()

    def test_out_flag_overrides_config(self, tmp_path):
        cfg = _base_config(out_dir=str(tmp_path / "ignored"))
        config = _write_config(tmp_path, cfg)
        chosen = tmp_path / "chosen"
        assert _run("train", "--config", config, "--out", str(chosen)) == 0
        assert (chosen / "float.ckpt").exists()
        assert not (tmp_path / "ignored").exists()

    def test_out_flag_redirects_checkpoint_inputs(self, tmp_path):
        cfg = _base_config(out_dir=str(tmp_path / "ignored"))
        cfg["quant"] = {"n_bits": 2}
        config = _write_config(tmp_path, cfg)
        chosen = tmp_path / "chosen"
        for command in ("train", "quantize", "retrain"):
            assert _run(command, "--config", config, "--out", str(chosen)) == 0
        assert (chosen / "retrained.ckpt").exists()
        assert not (tmp_path / "ignored").exists()

    def test_retrain_keeps_checkpoint_dropout_rate(self, tmp_path):
        # retrain rebuilds the network from the checkpoint's spec, so the
        # config's network.dropout_rate does not reach it.
        logs = []
        for rate in (0.0, 0.5):
            out = tmp_path / f"rate-{rate}"
            cfg = _base_config(out_dir=str(out))
            cfg["network"]["dropout_rate"] = 0.3
            cfg["quant"] = {"n_bits": 2}
            config = _write_config(tmp_path, cfg, f"train-{rate}.json")
            assert _run("train", "--config", config) == 0
            assert _run("quantize", "--config", config) == 0
            cfg["network"]["dropout_rate"] = rate
            config = _write_config(tmp_path, cfg, f"retrain-{rate}.json")
            assert _run("retrain", "--config", config) == 0
            logs.append(_digest(out / "retrain_log.csv"))
            spec = load_checkpoint(out / "retrained.ckpt").spec
            assert {ls.rate for ls in spec.layers if ls.kind == "dropout"} == {0.3}
        assert logs[0] == logs[1]

    def test_cnn_train_on_shaped_blobs(self, tmp_path):
        out = tmp_path / "out"
        cfg = _base_config(out_dir=str(out))
        cfg["dataset"]["shape"] = [1, 6, 6]
        cfg["network"] = {"family": "cnn", "map_counts": [2], "fc_units": 5}
        config = _write_config(tmp_path, cfg)
        assert _run("train", "--config", config) == 0
        spec = load_checkpoint(out / "float.ckpt").spec
        assert spec.input_shape == (1, 6, 6)
        assert [ls.units for ls in spec.layers if ls.group == "FC"] == [5]

    def test_ffdnn_train_flattens_shaped_blobs(self, tmp_path):
        out = tmp_path / "out"
        cfg = _base_config(out_dir=str(out))
        cfg["dataset"]["shape"] = [1, 6, 6]
        config = _write_config(tmp_path, cfg)
        assert _run("train", "--config", config) == 0
        assert load_checkpoint(out / "float.ckpt").spec.input_shape == (36,)

    def test_depth_sweep(self, tmp_path):
        out = tmp_path / "out"
        cfg = _base_config(out_dir=str(out))
        cfg["network"]["hidden_units"] = 4
        cfg["sweep"] = {"axis": "depth", "depths": [0, 2], "modes": ["float"],
                        "seed_reps": 1}
        config = _write_config(tmp_path, cfg)
        assert _run("sweep", "--config", config) == 0
        rows = (out / "records.csv").read_text().splitlines()[1:]
        cells = sorted(tuple(row.split(",")[:4]) for row in rows)
        assert cells == [("ffdnn", "4", "0", "float"), ("ffdnn", "4", "2", "float")]

    def test_sweep_honours_network_dropout_rate(self, tmp_path):
        records = []
        for rate in (0.0, 0.5):
            out = tmp_path / f"out-{rate}"
            cfg = _base_config(out_dir=str(out))
            cfg["network"]["dropout_rate"] = rate
            cfg["sweep"] = {"sizes": [16], "modes": ["float"], "seed_reps": 2}
            config = _write_config(tmp_path, cfg, f"config-{rate}.json")
            assert _run("sweep", "--config", config) == 0
            records.append((out / "records.csv").read_text())
        assert records[0] != records[1]

    def test_csv_dataset_kind(self, tmp_path):
        for tag, n in (("train", 90), ("valid", 30), ("test", 30)):
            ds = make_synthetic("blobs", n, 3, seed=hash(tag) % 1000, dim=5)
            rows = np.column_stack([ds.features.ndarray, ds.labels])
            np.savetxt(tmp_path / f"{tag}.csv", rows, fmt="%.17g", delimiter=",")
        out = tmp_path / "out"
        cfg = _base_config(out_dir=str(out))
        cfg["dataset"] = {
            "kind": "csv",
            "path": str(tmp_path / "train.csv"),
            "valid_path": str(tmp_path / "valid.csv"),
            "test_path": str(tmp_path / "test.csv"),
            "classes": 3,
        }
        config = _write_config(tmp_path, cfg)
        assert _run("train", "--config", config) == 0
        assert (out / "float.ckpt").exists()

    def test_csv_parts_share_the_joint_class_count(self, tmp_path):
        paths = {}
        for key, top in (("path", 2), ("valid_path", 1), ("test_path", 4)):
            paths[key] = tmp_path / f"{key}.csv"
            paths[key].write_text("".join(f"0.5,{k}\n" for k in range(top + 1)))
        split = _build_split(Config(dataset=DatasetConfig(kind="csv", seed=0, **paths)))
        assert [p.class_count for p in (split.train, split.valid, split.test)] == [5] * 3
        assert not split.valid.labels.flags.writeable


class TestExitCodes:
    @pytest.mark.parametrize(
        "key", ["train.learning_rate", "sweep.scale", "sweep.width", "sweep.base_maps"]
    )
    def test_unknown_config_key(self, tmp_path, capsys, key):
        cfg = _base_config()
        block, name = key.split(".")
        cfg.setdefault(block, {})[name] = "linear"
        config = _write_config(tmp_path, cfg)
        assert _run("train", "--config", config) == 2
        err = capsys.readouterr().err
        assert key in err
        assert "known keys" in err

    @pytest.mark.parametrize("block", ["dataset", "quant", "sweep"])
    def test_block_must_be_object(self, tmp_path, capsys, block):
        cfg = _base_config()
        cfg[block] = [1, 2]
        config = _write_config(tmp_path, cfg)
        assert _run("train", "--config", config) == 2
        assert f"{block}: expected an object" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        config = tmp_path / "broken.json"
        config.write_text("{nope")
        assert _run("train", "--config", str(config)) == 3
        assert "invalid JSON" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert _run("train", "--config", str(tmp_path / "absent.json")) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_wrong_value_type(self, tmp_path, capsys):
        cfg = _base_config()
        cfg["train"]["batch_size"] = True
        config = _write_config(tmp_path, cfg)
        assert _run("train", "--config", config) == 2
        assert "expected an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field", dataclasses.fields(TrainConfig), ids=lambda f: f.name
    )
    def test_every_train_field_is_typed(self, tmp_path, capsys, field):
        self._assert_typed(tmp_path, capsys, "train", field)

    @pytest.mark.parametrize(
        "block, field", [(b, f) for b, f in CONFIG_FIELDS if b != "train"],
        ids=lambda x: getattr(x, "name", x),
    )
    def test_every_other_config_field_is_typed(self, tmp_path, capsys, block, field):
        self._assert_typed(tmp_path, capsys, block, field)

    def _assert_typed(self, tmp_path, capsys, block, field):
        """Its default loads back with its type, and each value of another
        type exits 2 naming the field. The block holds only this field (a
        dataset also its kind); a field left at a None default is absent."""
        cls = BLOCKS[block]
        base = {"kind": "blobs"} if cls is DatasetConfig else {}
        path = f"{block}.{field.name}" if block else field.name

        def config(**fields):
            cfg = _base_config()
            if block:
                cfg[block] = {**base, **fields}
            else:
                cfg.update(fields)
            return _write_config(tmp_path, cfg)

        default = (field.default if field.default_factory is dataclasses.MISSING
                   else field.default_factory())
        if default is not dataclasses.MISSING:
            given = {} if default is None else {field.name: default}
            loaded = load_config(config(**given))
            got = getattr(getattr(loaded, block) if block else loaded, field.name)
            assert got == default and type(got) is type(default)
        kind = get_type_hints(cls)[field.name]
        if isinstance(kind, types.UnionType):
            kind = functools.reduce(
                operator.or_, [k for k in get_args(kind) if k is not type(None)]
            )
        for value in WRONG_VALUES[kind]:
            assert _run("train", "--config", config(**{field.name: value})) == 2
            assert f"{path}: expected" in capsys.readouterr().err

    def test_bits_out_of_range(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = _base_config(out_dir=str(out))
        config = _write_config(tmp_path, cfg)
        assert _run("train", "--config", config) == 0
        cfg["quant"] = {"checkpoint": str(out / "float.ckpt"), "n_bits": 9}
        config = _write_config(tmp_path, cfg)
        assert _run("quantize", "--config", config) == 2
        assert "bit" in capsys.readouterr().err

    def test_quantize_missing_checkpoint(self, tmp_path):
        cfg = _base_config(out_dir=str(tmp_path / "out"))
        cfg["quant"] = {"checkpoint": str(tmp_path / "nope.ckpt"), "n_bits": 2}
        config = _write_config(tmp_path, cfg)
        assert _run("quantize", "--config", config) == 3

    def test_retrain_on_float_checkpoint(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = _base_config(out_dir=str(out))
        config = _write_config(tmp_path, cfg)
        assert _run("train", "--config", config) == 0
        (out / "quantized_2bit.ckpt").write_bytes((out / "float.ckpt").read_bytes())
        cfg["quant"] = {"n_bits": 2}
        config = _write_config(tmp_path, cfg)
        assert _run("retrain", "--config", config) == 2
        assert "direct-quantized" in capsys.readouterr().err

    def test_retrain_on_off_grid_checkpoint(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = _base_config(out_dir=str(out))
        cfg["quant"] = {"n_bits": 2}
        config = _write_config(tmp_path, cfg)
        assert _run("train", "--config", config) == 0
        assert _run("quantize", "--config", config) == 0
        ckpt = out / "quantized_2bit.ckpt"
        raw = bytearray(ckpt.read_bytes())
        raw[-5] = 0x7F  # a code far beyond the ternary grid, before the CRC
        ckpt.write_bytes(seal(bytes(raw)))
        assert _run("retrain", "--config", config) == 3
        assert "code beyond" in capsys.readouterr().err

    def test_retrain_on_overflowing_step_size(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = _base_config(out_dir=str(out))
        cfg["quant"] = {"n_bits": 8}
        config = _write_config(tmp_path, cfg)
        assert _run("train", "--config", config) == 0
        assert _run("quantize", "--config", config) == 0
        ckpt = out / "quantized_8bit.ckpt"
        old = struct.pack("<d", load_checkpoint(ckpt).groups["In-h1"].quantizer.delta)
        reseal_replace(ckpt, old, struct.pack("<d", 1e307))
        capsys.readouterr()
        assert _run("retrain", "--config", config) == 3
        err = capsys.readouterr().err
        assert "'In-h1' has non-finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag,M", [(1, 257), (1, 65539), (2, 3)])
    def test_retrain_on_forged_quantizer_fields(self, tmp_path, capsys, flag, M):
        out = tmp_path / "out"
        cfg = _base_config(out_dir=str(out))
        cfg["quant"] = {"n_bits": 2}
        config = _write_config(tmp_path, cfg)
        assert _run("train", "--config", config) == 0
        assert _run("quantize", "--config", config) == 0
        ckpt = out / "quantized_2bit.ckpt"
        delta = load_checkpoint(ckpt).groups["In-h1"].quantizer.delta
        reseal_replace(ckpt, struct.pack("<BId", 1, 3, delta),
                       struct.pack("<BId", flag, M, delta))
        capsys.readouterr()
        assert _run("retrain", "--config", config) == 3
        err = capsys.readouterr().err
        assert ("<= 255" if flag == 1 else "quantizer flag 2") in err
        assert "Traceback" not in err

    def test_quantize_on_checkpoint_without_softmax(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = _base_config(out_dir=str(out))
        cfg["quant"] = {"n_bits": 2}
        config = _write_config(tmp_path, cfg)
        assert _run("train", "--config", config) == 0
        # same length, so the spec blob still parses
        reseal_replace(out / "float.ckpt", b'"kind":"softmax"', b'"kind":"dropout"')
        assert _run("quantize", "--config", config) == 3
        assert "softmax" in capsys.readouterr().err

    @pytest.mark.parametrize("rate", [b"1.5", b'"x"', b"[1]", b"NaN"])
    def test_quantize_on_checkpoint_with_bad_dropout_rate(self, tmp_path, capsys, rate):
        out = tmp_path / "out"
        cfg = _base_config(out_dir=str(out))
        cfg["quant"] = {"n_bits": 2}
        config = _write_config(tmp_path, cfg)
        assert _run("train", "--config", config) == 0
        # same length, so the spec blob still parses
        reseal_replace(out / "float.ckpt", b'"rate":0.0', b'"rate":' + rate)
        capsys.readouterr()
        assert _run("quantize", "--config", config) == 3
        err = capsys.readouterr().err
        assert "dropout rate" in err
        assert "Traceback" not in err

    def test_quantize_weight_too_large_to_fit(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = _base_config(out_dir=str(out))
        cfg["quant"] = {"n_bits": 8}
        config = _write_config(tmp_path, cfg)
        assert _run("train", "--config", config) == 0
        net = load_checkpoint(out / "float.ckpt")
        w = net.groups["In-h1"].weights.ndarray.copy()
        w[0, 0] = 1e200  # finite, but its square overflows the fit's sums
        net.groups["In-h1"].weights = Tensor(w)
        save_checkpoint(net, out / "float.ckpt")
        assert _run("quantize", "--config", config) == 2
        assert "max |w| must be finite and below" in capsys.readouterr().err

    def test_cnn_on_flat_features(self, tmp_path, capsys):
        cfg = _base_config(out_dir=str(tmp_path / "out"))
        cfg["network"] = {"family": "cnn", "map_counts": [2]}
        config = _write_config(tmp_path, cfg)
        assert _run("train", "--config", config) == 2
        assert "cnn needs [C, H, W] features" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "block, key, value",
        [("train", "lr_init", "NaN"), ("train", "lr_init", "Infinity"),
         ("train", "lr_final", "NaN"), ("train", "lr_decay", "NaN"),
         ("train", "momentum", "-Infinity"), ("train", "rmsprop_rho", "NaN"),
         ("train", "rmsprop_eps", "NaN"), ("network", "dropout_rate", "NaN"),
         ("dataset", "spread", "Infinity"), ("train", "lr_init", "1e999"),
         ("train", "lr_init", "1" + "0" * 400)],
    )
    def test_non_finite_number(self, tmp_path, capsys, block, key, value):
        out = tmp_path / "out"
        cfg = _base_config(out_dir=str(out))
        cfg[block][key] = "@"
        config = tmp_path / "config.json"
        # json reads these literals; json.dumps can write only three of them
        config.write_text(json.dumps(cfg).replace('"@"', value))
        assert _run("train", "--config", str(config)) == 2
        err = capsys.readouterr().err
        assert f"{block}.{key}: expected a finite number" in err
        assert not (out / "float.ckpt").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflows on purpose
    def test_divergence(self, tmp_path, capsys):
        cfg = _base_config(out_dir=str(tmp_path / "out"))
        cfg["train"]["lr_init"] = 1e200  # overflows the logits to inf/NaN
        cfg["train"]["lr_final"] = 1.0
        config = _write_config(tmp_path, cfg)
        assert _run("train", "--config", config) == 4
        assert "diverged" in capsys.readouterr().err

    def test_unknown_sweep_mode(self, tmp_path, capsys):
        cfg = _base_config()
        cfg["sweep"] = {"sizes": [4], "modes": ["float", "fancy"]}
        config = _write_config(tmp_path, cfg)
        assert _run("sweep", "--config", config) == 2
        assert "sweep.modes" in capsys.readouterr().err

    def test_empty_sweep_modes_fail_at_load(self, tmp_path, capsys):
        cfg = _base_config(out_dir=str(tmp_path / "out"))
        cfg["sweep"] = {"sizes": [4], "modes": []}
        assert _run("train", "--config", _write_config(tmp_path, cfg)) == 2
        assert "sweep.modes: at least one mode" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_quant_group_for_network(self, tmp_path, capsys):
        cfg = _base_config()
        cfg["quant"] = {
            "checkpoint": "whatever.ckpt",
            "n_bits": 2,
            "groups": ["In-h1", "h9-out"],
        }
        config = _write_config(tmp_path, cfg)
        assert _run("quantize", "--config", config) == 2
        err = capsys.readouterr().err
        assert "h9-out" in err and "In-h1" not in err.split("expected among")[0].split("[")[-1]

    def test_repeated_quant_group(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = _base_config(out_dir=str(out))
        config = _write_config(tmp_path, cfg)
        assert _run("train", "--config", config) == 0
        cfg["quant"] = {"n_bits": 2, "groups": ["In-h1", "In-h1"]}
        config = _write_config(tmp_path, cfg)
        assert _run("quantize", "--config", config) == 2
        assert "quant.groups: In-h1 is listed twice" in capsys.readouterr().err
        assert not (out / "quantized_2bit.ckpt").exists()
        assert not (out / "quant_report.csv").exists()

    def test_empty_quant_groups_fail_at_load(self, tmp_path):
        # An empty selection would quantize nothing, and retrain would then
        # refuse the checkpoint; it fails at config load for every command.
        out = tmp_path / "out"
        cfg = _base_config(out_dir=str(out))
        cfg["quant"] = {"n_bits": 2, "groups": []}
        config = _write_config(tmp_path, cfg)
        for command in ("train", "quantize"):
            code, err = _cli(tmp_path, command, "--config", config)
            assert (code, "Traceback" in err) == (2, False)
            assert 'quant.groups: expected "all" or a non-empty list' in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "sweep, bits, message",
        [({"sizes": [4, 4]}, [2], "sweep.sizes: 4 is listed twice"),
         ({"axis": "depth", "depths": [1, 1]}, [2], "sweep.depths: 1 is listed twice"),
         ({"sizes": [4]}, [2, 2], "quant.bits: 2 is listed twice")],
    )
    def test_repeated_sweep_entry(self, tmp_path, capsys, sweep, bits, message):
        out = tmp_path / "out"
        cfg = _base_config(out_dir=str(out))
        cfg["sweep"] = {**sweep, "seed_reps": 1}
        cfg["quant"] = {"bits": bits}
        config = _write_config(tmp_path, cfg)
        assert _run("sweep", "--config", config) == 2
        assert message in capsys.readouterr().err
        assert not (out / "records.csv").exists()

    def test_ecr_without_records(self, tmp_path, capsys):
        cfg = _base_config(out_dir=str(tmp_path / "out"))
        config = _write_config(tmp_path, cfg)
        assert _run("ecr", "--config", config) == 2
        assert "quantbench sweep" in capsys.readouterr().err

    def test_ecr_without_float_baseline(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = _base_config(out_dir=str(out))
        cfg["sweep"] = {"sizes": [4], "modes": ["direct"], "seed_reps": 1}
        cfg["quant"] = {"bits": [2]}
        config = _write_config(tmp_path, cfg)
        assert _run("sweep", "--config", config) == 0
        assert _run("ecr", "--config", config) == 2
        assert "sweep.modes" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["ecr", "report"])
    @pytest.mark.parametrize("field, value", [
        ("val_metric", "nan"), ("val_metric", "inf"), ("test_metric", "-inf"),
        ("param_count", "0"), ("total_weight_bits", "0"),
    ])
    def test_records_with_a_non_finite_metric_or_a_zero_count(
        self, tmp_path, capsys, command, field, value
    ):
        # A returned 3 means no exception left main, so no traceback.
        config = _demo_records_with(tmp_path, {field: value})
        assert _run(command, "--config", config) == 3
        assert f"records.csv:3: bad record: {field} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["ecr", "report"])
    @pytest.mark.parametrize("changes, message", [
        ({"n_bits": "-3"}, "bit width must be an integer >= 2, got -3"),
        ({"n_bits": "9"}, "bit width must be <= 8, got 9"),
        ({"family": "cnn", "depth": "0"}, "cnn depth must be 1..3, got 0"),
    ])
    def test_records_with_a_bad_bit_width_or_depth(
        self, tmp_path, capsys, command, changes, message
    ):
        config = _demo_records_with(tmp_path, changes)
        assert _run(command, "--config", config) == 3
        assert f"records.csv:3: bad record: {message}" in capsys.readouterr().err

    def test_sweep_without_block(self, tmp_path, capsys):
        config = _write_config(tmp_path, _base_config())
        assert _run("sweep", "--config", config) == 2
        assert "sweep" in capsys.readouterr().err

    @pytest.mark.parametrize("seed_reps", [0, -1])
    def test_seed_reps_below_one(self, tmp_path, capsys, seed_reps):
        out = tmp_path / "out"
        cfg = _base_config(out_dir=str(out))
        cfg["sweep"] = {"sizes": [4], "modes": ["float"], "seed_reps": seed_reps}
        config = _write_config(tmp_path, cfg)
        assert _run("sweep", "--config", config) == 2
        assert "sweep.seed_reps must be >= 1" in capsys.readouterr().err
        assert not (out / "records.csv").exists()

    @pytest.mark.parametrize(
        "family, sizes, key",
        [("cnn", [4], "sweep.sizes"), ("CNN", [[2]], "network.family")],
    )
    def test_bad_sweep_size_for_family(self, tmp_path, capsys, family, sizes, key):
        cfg = _base_config()
        cfg["network"] = {"family": family, "map_counts": [2]}
        cfg["sweep"] = {"sizes": sizes, "modes": ["float"], "seed_reps": 1}
        config = _write_config(tmp_path, cfg)
        assert _run("sweep", "--config", config) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("block, value, message", [
        ("quant", {"bits": [9], "n_bits": 11}, "quant.n_bits: bit width must be <= 8, got 11"),
        ("quant", {"bits": [1]}, "quant.bits[0]: bit width must be an integer >= 2, got 1"),
        ("quant", {"bits": [2, 4, 2]}, "quant.bits: 2 is listed twice"),
        ("sweep", {"axis": "diagonal"}, "sweep.axis: expected 'width' or 'depth'"),
        ("sweep", {"seed_reps": 0}, "sweep.seed_reps must be >= 1, got 0"),
        ("ecr", {"scale": "cubic"}, "ecr.scale: unknown interpolation scale 'cubic'"),
        ("report", {"scale": "log10"}, "report.scale: unknown interpolation scale"),
        ("network", {"family": "cnn"}, "network.map_counts: required key is missing"),
    ])
    def test_whole_document_checks_at_load(self, tmp_path, capsys, block, value, message):
        # Each fails at load, before the out directory exists.
        out = tmp_path / "out"
        cfg = _base_config(out_dir=str(out))
        cfg[block] = value
        if block == "network":
            cfg["quant"] = {"groups": ["C1"]}
        assert _run("train", "--config", _write_config(tmp_path, cfg)) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind, key, value", [
        ("csv", "n_train", 10), ("csv", "spread", 0.3), ("csv", "shape", [1, 1, 1]),
        ("csv", "dim", 1), ("blobs", "path", "data.csv"), ("blobs", "valid_path", "data.csv"),
        ("teacher_net", "spread", 0.3), ("spirals", "dim", 2), ("cifar10", "classes", 10),
    ])
    def test_key_the_dataset_kind_never_reads(self, tmp_path, capsys, kind, key, value):
        data = tmp_path / "data.csv"
        data.write_text("0.5,0\n0.25,1\n")
        out = tmp_path / "out"
        cfg = _base_config(out_dir=str(out))
        if kind in ("csv", "cifar10"):
            paths = ("path", "valid_path", "test_path") if kind == "csv" else ("path",)
            cfg["dataset"] = {"kind": kind, **dict.fromkeys(paths, str(data))}
        else:
            cfg["dataset"] = {"kind": kind, "n_train": 30, "n_valid": 10, "n_test": 10}
        cfg["dataset"][key] = value
        assert _run("train", "--config", _write_config(tmp_path, cfg)) == 2
        assert f"dataset.{key}: a {kind} dataset does not read it" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_sweep_axis(self, tmp_path, capsys):
        cfg = _base_config()
        cfg["sweep"] = {"axis": "diagonal", "sizes": [4]}
        config = _write_config(tmp_path, cfg)
        assert _run("sweep", "--config", config) == 2
        assert "sweep.axis" in capsys.readouterr().err

    def test_bad_jobs(self, tmp_path, capsys):
        config = _write_config(tmp_path, _base_config())
        assert _run("train", "--config", config, "--jobs", "0") == 2
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [("n_train", 0), ("n_train", -5), ("n_test", -10), ("dim", -3),
         ("shape", [0, 4, 4]), ("shape", [3, 0, 8]), ("shape", [3, -4, 4]),
         ("spread", -1.0)],
    )
    def test_bad_synthetic_size(self, tmp_path, capsys, key, value):
        out = tmp_path / "out"
        cfg = _base_config(out_dir=str(out))
        cfg["dataset"][key] = value
        config = _write_config(tmp_path, cfg)
        assert _run("train", "--config", config) == 2
        assert key in capsys.readouterr().err
        assert not (out / "float.ckpt").exists()

    def test_checkpoint_with_nonpositive_input_dim(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = _base_config(out_dir=str(out))
        cfg["quant"] = {"n_bits": 2}
        config = _write_config(tmp_path, cfg)
        assert _run("train", "--config", config) == 0
        ckpt = out / "float.ckpt"
        raw = ckpt.read_bytes()
        assert raw.count(b'"input_shape":[6]') == 1
        # same length, so the spec blob still parses
        ckpt.write_bytes(raw.replace(b'"input_shape":[6]', b'"input_shape":[0]'))
        assert _run("quantize", "--config", config) == 3
        assert "input shape" in capsys.readouterr().err

    def test_unknown_dataset_kind(self, tmp_path, capsys):
        cfg = _base_config()
        cfg["dataset"]["kind"] = "imagenet"
        config = _write_config(tmp_path, cfg)
        assert _run("train", "--config", config) == 2
        assert "dataset.kind" in capsys.readouterr().err


class TestReproducibility:
    def test_rerun_is_byte_identical(self, tmp_path):
        digests = []
        for name in ("a", "b"):
            out = tmp_path / name
            config = _write_config(
                tmp_path, _base_config(out_dir=str(out)), f"{name}.json"
            )
            assert _run("train", "--config", config) == 0
            digests.append(
                (_digest(out / "float.ckpt"), _digest(out / "train_log.csv"))
            )
        assert digests[0] == digests[1]

    def test_sweep_rerun_is_byte_identical(self, tmp_path):
        digests = []
        for name in ("a", "b"):
            out = tmp_path / name
            cfg = _base_config(out_dir=str(out))
            cfg["sweep"] = {"sizes": [4], "seed_reps": 1}
            cfg["quant"] = {"bits": [2]}
            config = _write_config(tmp_path, cfg, f"{name}.json")
            assert _run("sweep", "--config", config) == 0
            digests.append(_digest(out / "records.csv"))
        assert digests[0] == digests[1]

    def test_parallel_sweep_matches_serial(self, tmp_path):
        digests = []
        for name, jobs in (("serial", "1"), ("parallel", "2")):
            out = tmp_path / name
            cfg = _base_config(out_dir=str(out))
            cfg["sweep"] = {"sizes": [4, 8], "seed_reps": 1}
            cfg["quant"] = {"bits": [2]}
            config = _write_config(tmp_path, cfg, f"{name}.json")
            assert _run("sweep", "--config", config, "--jobs", jobs) == 0
            digests.append(_digest(out / "records.csv"))
        assert digests[0] == digests[1]


class TestSeedPrecedence:
    def _train_digest(self, tmp_path, name, *argv, env_seed=None, monkeypatch=None):
        out = tmp_path / name
        config = _write_config(
            tmp_path, _base_config(out_dir=str(out)), f"{name}.json"
        )
        if env_seed is not None:
            monkeypatch.setenv(SEED_ENV, env_seed)
        try:
            assert _run("train", "--config", config, *argv) == 0
        finally:
            if env_seed is not None:
                monkeypatch.delenv(SEED_ENV)
        return _digest(out / "float.ckpt")

    def test_flag_beats_env_beats_config(self, tmp_path, monkeypatch):
        base = self._train_digest(tmp_path, "config-seed")
        flagged = self._train_digest(tmp_path, "flag-seed", "--seed", "99")
        env = self._train_digest(
            tmp_path, "env-seed", env_seed="99", monkeypatch=monkeypatch
        )
        flag_over_env = self._train_digest(
            tmp_path, "both", "--seed", "99", env_seed="12345",
            monkeypatch=monkeypatch,
        )
        assert flagged != base
        assert env == flagged
        assert flag_over_env == flagged

    def test_block_seeds_beat_top_level_and_override_beats_both(self, tmp_path):
        def digest(name, top, dataset_seed, train_seed, *argv):
            out = tmp_path / name
            cfg = _base_config(seed=top, out_dir=str(out))
            cfg["dataset"]["seed"] = dataset_seed
            cfg["train"]["seed"] = train_seed
            config = _write_config(tmp_path, cfg, f"{name}.json")
            assert _run("train", "--config", config, *argv) == 0
            return _digest(out / "float.ckpt")

        blocks = digest("blocks", 7, 5, 6)
        assert digest("top-changed", 8, 5, 6) == blocks
        both_99 = digest("blocks-99", 7, 99, 99)
        assert both_99 != blocks
        assert digest("flag", 7, 5, 6, "--seed", "99") == both_99

    def test_same_flag_seed_reproduces(self, tmp_path):
        a = self._train_digest(tmp_path, "s1", "--seed", "4")
        b = self._train_digest(tmp_path, "s2", "--seed", "4")
        assert a == b

    def test_bad_env_seed(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(SEED_ENV, "not-a-number")
        config = _write_config(tmp_path, _base_config(out_dir=str(tmp_path / "o")))
        assert _run("train", "--config", config) == 2
        assert SEED_ENV in capsys.readouterr().err


class TestQuantizedArtifacts:
    def test_quantize_then_retrain_improves_or_matches(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = _base_config(out_dir=str(out))
        cfg["train"]["max_epochs"] = 4
        config = _write_config(tmp_path, cfg)
        assert _run("train", "--config", config) == 0
        cfg["quant"] = {"checkpoint": str(out / "float.ckpt"), "n_bits": 2}
        config = _write_config(tmp_path, cfg)
        assert _run("quantize", "--config", config) == 0
        capsys.readouterr()

        qnet = load_checkpoint(out / "quantized_2bit.ckpt")
        for g in qnet.groups.values():
            assert g.quantizer is not None
            assert g.quantizer.M == 3
            codes = np.rint(g.weights.ndarray / g.quantizer.delta)
            assert np.array_equal(codes * g.quantizer.delta, g.weights.ndarray)

    def test_quant_report_lists_all_groups(self, tmp_path):
        out = tmp_path / "out"
        cfg = _base_config(out_dir=str(out))
        config = _write_config(tmp_path, cfg)
        assert _run("train", "--config", config) == 0
        cfg["quant"] = {"checkpoint": str(out / "float.ckpt"), "n_bits": 3}
        config = _write_config(tmp_path, cfg)
        assert _run("quantize", "--config", config) == 0
        lines = (out / "quant_report.csv").read_text().splitlines()
        assert lines[0].startswith("group,")
        groups = [ln.split(",")[0] for ln in lines[1:]]
        assert groups == ["In-h1", "h1-out"]


@pytest.mark.parametrize(
    "path",
    sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json")),
    ids=lambda p: p.name,
)
def test_committed_config_loads(path):
    assert load_config(str(path)).network.family in ("ffdnn", "cnn")


def _cli(tmp_path, *argv):
    """Run the installed entry point in a fresh process; returns (code, stderr)."""
    src = os.path.dirname(os.path.dirname(quantbench.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop(SEED_ENV, None)
    done = subprocess.run([sys.executable, "-m", "quantbench.cli", *argv], env=env,
                          cwd=tmp_path, capture_output=True, text=True)
    return done.returncode, done.stderr


class TestReadersInAProcess:
    """Each reader ends a bad file in its exit code, never a traceback."""

    def test_config_with_a_non_utf8_byte(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_bytes(json.dumps(_base_config()).encode()[:-1] + b'\xff}')
        code, err = _cli(tmp_path, "train", "--config", str(config))
        assert (code, "Traceback" in err) == (3, False)
        assert f"{config}: byte " in err and "is not UTF-8" in err

    def test_records_csv_with_a_non_utf8_byte(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "records.csv").write_bytes(b"family,size\n\xc3(\n")
        config = _write_config(tmp_path, _base_config(out_dir=str(out)))
        code, err = _cli(tmp_path, "ecr", "--config", config)
        assert (code, "Traceback" in err) == (3, False)
        assert "records.csv: byte 12 is not UTF-8" in err

    def test_data_csv_with_a_non_utf8_byte(self, tmp_path):
        data = tmp_path / "train.csv"
        data.write_bytes(b"0.5,1\n0.25,\xff\n")
        cfg = _base_config(out_dir=str(tmp_path / "out"))
        cfg["dataset"] = {"kind": "csv", "path": str(data), "valid_path": str(data),
                          "test_path": str(data)}
        code, err = _cli(tmp_path, "train", "--config", _write_config(tmp_path, cfg))
        assert (code, "Traceback" in err) == (3, False)
        assert "train.csv: byte 11 is not UTF-8" in err

    def test_data_csv_with_a_label_beyond_int64(self, tmp_path):
        data = tmp_path / "train.csv"
        data.write_text("0.5,1\n0.25,1e300\n")
        cfg = _base_config(out_dir=str(tmp_path / "out"))
        cfg["dataset"] = {"kind": "csv", "path": str(data), "valid_path": str(data),
                          "test_path": str(data)}
        code, err = _cli(tmp_path, "train", "--config", _write_config(tmp_path, cfg))
        assert (code, "Traceback" in err) == (3, False)
        assert "train.csv: label column must hold integers below 2**63; row 2" in err

    def test_data_csv_with_a_label_of_a_billion(self, tmp_path):
        # max(label) + 1 classes would be a 1e9-unit output layer.
        data = tmp_path / "train.csv"
        data.write_text("0.5,1\n0.25,1e9\n")
        cfg = _base_config(out_dir=str(tmp_path / "out"))
        cfg["dataset"] = {"kind": "csv", "path": str(data), "valid_path": str(data),
                          "test_path": str(data)}
        code, err = _cli(tmp_path, "train", "--config", _write_config(tmp_path, cfg))
        assert (code, "Traceback" in err) == (3, False)
        assert "train.csv: largest label 1000000000 is not below 65536" in err

    def test_config_class_count_above_the_cap(self, tmp_path):
        data = tmp_path / "train.csv"
        data.write_text("0.5,1\n0.25,0\n")
        cfg = _base_config(out_dir=str(tmp_path / "out"))
        cfg["dataset"] = {"kind": "csv", "path": str(data), "valid_path": str(data),
                          "test_path": str(data), "classes": 65537}
        code, err = _cli(tmp_path, "train", "--config", _write_config(tmp_path, cfg))
        assert (code, "Traceback" in err) == (2, False)
        assert "dataset.classes must be <= 65536, got 65537" in err

    def test_corrupt_checkpoint(self, tmp_path):
        out = tmp_path / "out"
        cfg = _base_config(out_dir=str(out))
        config = _write_config(tmp_path, cfg)
        assert _run("train", "--config", config) == 0
        raw = bytearray((out / "float.ckpt").read_bytes())
        raw[-20] ^= 0x10
        (out / "float.ckpt").write_bytes(bytes(raw))
        cfg["quant"] = {"n_bits": 2}
        code, err = _cli(tmp_path, "quantize", "--config",
                         _write_config(tmp_path, cfg))
        assert (code, "Traceback" in err) == (3, False)
        assert "checksum mismatch" in err

    def test_missing_config(self, tmp_path):
        code, err = _cli(tmp_path, "train", "--config", str(tmp_path / "absent.json"))
        assert (code, "Traceback" in err) == (2, False)
        assert "cannot read config" in err
