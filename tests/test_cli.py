"""Command-line behavior: pipelines, exit codes, seeds, reproducibility."""

import hashlib
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from quantbench.checkpoint import load_checkpoint, save_checkpoint
from quantbench.cli import SEED_ENV, load_config, main
from quantbench.data import make_synthetic
from quantbench.tensor import Tensor


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
        raw[-1] = 0x7F  # a code far beyond the ternary grid
        ckpt.write_bytes(bytes(raw))
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
        raw = ckpt.read_bytes()
        old = struct.pack("<d", load_checkpoint(ckpt).groups["In-h1"].quantizer.delta)
        assert raw.count(old) == 1
        ckpt.write_bytes(raw.replace(old, struct.pack("<d", 1e307)))
        capsys.readouterr()
        assert _run("retrain", "--config", config) == 3
        err = capsys.readouterr().err
        assert "'In-h1' has non-finite" in err
        assert "Traceback" not in err

    def test_quantize_on_checkpoint_without_softmax(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = _base_config(out_dir=str(out))
        cfg["quant"] = {"n_bits": 2}
        config = _write_config(tmp_path, cfg)
        assert _run("train", "--config", config) == 0
        ckpt = out / "float.ckpt"
        raw = ckpt.read_bytes()
        assert raw.count(b'"kind":"softmax"') == 1
        # same length, so the spec blob still parses
        ckpt.write_bytes(raw.replace(b'"kind":"softmax"', b'"kind":"dropout"'))
        assert _run("quantize", "--config", config) == 3
        assert "softmax" in capsys.readouterr().err

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
         ("shape", [0, 4, 4]), ("shape", [3, 0, 8]), ("shape", [3, -4, 4])],
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
    assert load_config(str(path))["network"]["family"] in ("ffdnn", "cnn")
