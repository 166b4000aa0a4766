"""Binary checkpoint round-trips and corruption handling."""

import hashlib
import struct
import warnings

import numpy as np
import pytest

from quantbench.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from quantbench.errors import DataFormatError
from quantbench.nn import build_cnn, build_ffdnn, count_params, forward
from quantbench.quantizer import QuantizerSpec, apply, direct_quantize
from quantbench.tensor import Rng, Tensor


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestFloatRoundTrip:
    def test_weights_bit_exact(self, tmp_path):
        net = build_ffdnn(12, 8, 2, 5, seed=4)
        p = tmp_path / "net.ckpt"
        save_checkpoint(net, p)
        loaded = load_checkpoint(p)
        assert loaded.spec == net.spec
        for name, g in net.groups.items():
            lg = loaded.groups[name]
            assert np.array_equal(g.weights.ndarray, lg.weights.ndarray)
            assert np.array_equal(g.bias.ndarray, lg.bias.ndarray)
            assert lg.quantizer is None

    def test_cnn_round_trip(self, tmp_path):
        net = build_cnn([4, 6], input_shape=(3, 12, 12), fc_units=8, classes=5, seed=2)
        p = tmp_path / "net.ckpt"
        save_checkpoint(net, p)
        loaded = load_checkpoint(p)
        x = Tensor(Rng(7).uniform((3, 3, 12, 12)))
        a, _ = forward(net, x)
        b, _ = forward(loaded, x)
        assert np.array_equal(a.ndarray, b.ndarray)

    def test_load_draws_no_initialization(self, tmp_path, monkeypatch):
        net = build_ffdnn(10, 6, 1, 4, seed=9)
        p = tmp_path / "net.ckpt"
        save_checkpoint(net, p)

        def no_draws(self, n):
            raise AssertionError("load_checkpoint drew random numbers")

        monkeypatch.setattr(Rng, "next_u64", no_draws)
        assert list(load_checkpoint(p).groups) == list(net.groups)

    def test_save_load_save_byte_identical(self, tmp_path):
        net = build_ffdnn(10, 6, 1, 4, seed=9)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(net, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert _digest(p1) == _digest(p2)


class TestQuantizedRoundTrip:
    def _quantized_net(self, seed=4):
        net, _ = direct_quantize(build_ffdnn(12, 8, 2, 5, seed=seed), 3)
        return net

    def test_quantized_state_restored(self, tmp_path):
        net = self._quantized_net()
        p = tmp_path / "q.ckpt"
        save_checkpoint(net, p)
        loaded = load_checkpoint(p)
        for name, g in net.groups.items():
            lg = loaded.groups[name]
            assert lg.quantizer is not None
            assert lg.quantizer.M == g.quantizer.M
            assert lg.quantizer.delta == g.quantizer.delta
            # bytes, not values: a -0.0 weight reloaded as +0.0 would differ
            assert g.weights.ndarray.tobytes() == lg.weights.ndarray.tobytes()
            assert (
                g.shadow_weights.ndarray.tobytes()
                == lg.shadow_weights.ndarray.tobytes()
            )
            assert g.bias.ndarray.tobytes() == lg.bias.ndarray.tobytes()

    def test_quantized_save_load_save_byte_identical(self, tmp_path):
        net = self._quantized_net(seed=11)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(net, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert _digest(p1) == _digest(p2)

    def test_mixed_groups(self, tmp_path):
        net, _ = direct_quantize(
            build_ffdnn(12, 8, 2, 5, seed=4), 2, groups=["h1-h2"]
        )
        p = tmp_path / "m.ckpt"
        save_checkpoint(net, p)
        loaded = load_checkpoint(p)
        assert loaded.groups["h1-h2"].quantizer is not None
        assert loaded.groups["In-h1"].quantizer is None
        assert np.array_equal(
            net.groups["In-h1"].weights.ndarray,
            loaded.groups["In-h1"].weights.ndarray,
        )

    def test_too_many_levels_rejected_at_save(self, tmp_path):
        net = build_ffdnn(6, 4, 1, 3, seed=1)
        group = net.groups["In-h1"]
        spec = QuantizerSpec(M=257, delta=0.01)
        group.shadow_weights = group.weights
        group.weights = apply(group.weights, spec)
        group.quantizer = spec
        net.mark_params_changed()
        with pytest.raises(DataFormatError, match="signed-byte code range"):
            save_checkpoint(net, tmp_path / "big.ckpt")


class TestCorruption:
    def _saved(self, tmp_path):
        net = build_ffdnn(8, 6, 1, 4, seed=3)
        p = tmp_path / "net.ckpt"
        save_checkpoint(net, p)
        return p, p.read_bytes()

    def test_bad_magic(self, tmp_path):
        p, raw = self._saved(tmp_path)
        p.write_bytes(b"XXXXXXXX" + raw[len(MAGIC):])
        with pytest.raises(DataFormatError, match="magic"):
            load_checkpoint(p)

    def test_bad_version(self, tmp_path):
        p, raw = self._saved(tmp_path)
        p.write_bytes(raw[:8] + (99).to_bytes(4, "little") + raw[12:])
        with pytest.raises(DataFormatError, match="version"):
            load_checkpoint(p)

    def test_truncated_file(self, tmp_path):
        p, raw = self._saved(tmp_path)
        p.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(DataFormatError):
            load_checkpoint(p)

    def test_trailing_garbage(self, tmp_path):
        p, raw = self._saved(tmp_path)
        p.write_bytes(raw + b"\x00\x01\x02")
        with pytest.raises(DataFormatError, match="trailing"):
            load_checkpoint(p)

    def test_corrupt_spec_json(self, tmp_path):
        p, raw = self._saved(tmp_path)
        # The spec JSON starts right after magic + version + length prefix.
        body = bytearray(raw)
        body[16] ^= 0xFF
        p.write_bytes(bytes(body))
        with pytest.raises(DataFormatError):
            load_checkpoint(p)

    def test_spec_missing_keys(self, tmp_path):
        spec = b'{"classes":2,"input_shape":[4]}'
        p = tmp_path / "spec.ckpt"
        p.write_bytes(MAGIC + struct.pack("<II", 1, len(spec)) + spec
                      + struct.pack("<I", 0))
        with pytest.raises(DataFormatError, match="invalid network spec"):
            load_checkpoint(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataFormatError):
            load_checkpoint(tmp_path / "absent.ckpt")

    def test_code_beyond_grid_rejected(self, tmp_path):
        net, _ = direct_quantize(build_ffdnn(8, 6, 1, 4, seed=3), 2)
        p = tmp_path / "q.ckpt"
        save_checkpoint(net, p)
        raw = bytearray(p.read_bytes())
        raw[-1] = 2  # last code of the last group; a 3-level grid allows +/-1
        p.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="code beyond"):
            load_checkpoint(p)

    def test_non_finite_shadow_weight_rejected(self, tmp_path):
        net, _ = direct_quantize(build_ffdnn(8, 6, 1, 4, seed=3), 2)
        group = net.groups["In-h1"]
        shadow = group.shadow_weights.ndarray.copy()
        shadow[0, 0] = np.nan
        group.shadow_weights = Tensor(shadow)
        p = tmp_path / "nan.ckpt"
        save_checkpoint(net, p)
        with pytest.raises(DataFormatError, match="non-finite"):
            load_checkpoint(p)

    @pytest.mark.parametrize("delta", [1e307, np.finfo(np.float64).max])
    def test_overflowing_step_size_rejected(self, tmp_path, delta):
        net, _ = direct_quantize(build_ffdnn(8, 6, 1, 4, seed=3), 8)
        p = tmp_path / "q.ckpt"
        save_checkpoint(net, p)
        raw = p.read_bytes()
        old = struct.pack("<d", net.groups["In-h1"].quantizer.delta)
        assert raw.count(old) == 1
        p.write_bytes(raw.replace(old, struct.pack("<d", delta)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning on the way
            with pytest.raises(DataFormatError, match="'In-h1' has non-finite"):
                load_checkpoint(p)


class TestSizeAccounting:
    def test_quantized_size_delta(self, tmp_path):
        net = build_ffdnn(64, 64, 2, 10, seed=5)
        pf = tmp_path / "f.ckpt"
        save_checkpoint(net, pf)
        qnet, _ = direct_quantize(net, 2)
        pq = tmp_path / "q.ckpt"
        save_checkpoint(qnet, pq)
        # A quantized group stores its float shadow (same bytes as the float
        # weights) plus one i8 code per weight plus the 12-byte (M, delta)
        # header, so the file grows by weights + 12 bytes per group.
        n_weights = count_params(net) - sum(
            g.bias.size for g in net.groups.values()
        )
        assert pq.stat().st_size == pf.stat().st_size + n_weights + 12 * len(
            net.groups
        )
