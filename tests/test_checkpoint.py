"""Binary checkpoint round-trips and corruption handling."""

import hashlib
import json
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from forge import reseal_replace, seal, sealed

from quantbench.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from quantbench.errors import DataFormatError
from quantbench.nn import build_cnn, build_ffdnn, count_params, forward
from quantbench.quantizer import direct_quantize
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
        x = Rng(7).uniform((3, 3, 12, 12))
        a, _ = forward(net, x)
        b, _ = forward(loaded, x)
        assert np.array_equal(a, b)

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
            for t in (lg.weights, lg.shadow_weights, lg.bias):
                assert t.ndarray.flags.aligned

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

    def test_file_sizes(self, tmp_path):
        # Spec JSON, then the arrays, flags and quantizer fields, then the CRC:
        # 16 + spec + 8 * (weights + biases) + groups + 4 bytes.
        net = build_ffdnn(12, 8, 2, 5, seed=4)
        p = tmp_path / "f.ckpt"
        save_checkpoint(net, p)
        spec = struct.unpack_from("<I", p.read_bytes(), 12)[0]
        assert p.stat().st_size == 16 + spec + 8 * count_params(net) + 3 + 4


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

    def test_version_1_file_rejected(self, tmp_path):
        p, raw = self._saved(tmp_path)
        p.write_bytes(raw[:8] + (1).to_bytes(4, "little") + raw[12:])
        with pytest.raises(DataFormatError, match="version 1 "):
            load_checkpoint(p)

    @pytest.mark.parametrize("at", ["spec", -60, -1])  # a weight, the CRC
    def test_checksum_mismatch(self, tmp_path, at):
        p, raw = self._saved(tmp_path)
        if at == "spec":  # still a valid spec, of the same length
            p.write_bytes(raw.replace(b'"rate":0.2', b'"rate":0.3'))
        else:
            body = bytearray(raw)
            body[at] ^= 0x01
            p.write_bytes(bytes(body))
        with pytest.raises(DataFormatError, match="checksum mismatch"):
            load_checkpoint(p)

    def test_spec_missing_keys(self, tmp_path):
        p = tmp_path / "spec.ckpt"
        p.write_bytes(sealed(b'{"classes":2,"input_shape":[4]}'))
        with pytest.raises(DataFormatError, match="invalid network spec"):
            load_checkpoint(p)

    @pytest.mark.parametrize("layer", [{"units": 4, "group": "In-out"}, "dense", [1]])
    def test_malformed_layer_entry_is_a_format_error(self, tmp_path, layer):
        layers = [layer, {"kind": "softmax"}]
        spec = json.dumps({"input_shape": [4], "classes": 2, "layers": layers}).encode()
        p = tmp_path / "layer.ckpt"
        p.write_bytes(sealed(spec))
        with pytest.raises(DataFormatError, match="invalid network spec"):
            load_checkpoint(p)

    def test_pool_over_flat_shape_is_a_format_error(self, tmp_path):
        layers = [{"kind": "dense", "units": 4, "group": "In-h1"}, {"kind": "maxpool2"},
                  {"kind": "dense", "units": 3, "group": "h1-out"}, {"kind": "softmax"}]
        spec = json.dumps({"input_shape": [6], "classes": 3, "layers": layers}).encode()
        p = tmp_path / "pool.ckpt"
        p.write_bytes(sealed(spec))
        with pytest.raises(DataFormatError, match="maxpool2 layer needs"):
            load_checkpoint(p)

    @pytest.mark.parametrize("rate", [b"1.5", b'"x"', b"[1]", b"NaN"])
    def test_bad_dropout_rate_is_a_format_error(self, tmp_path, rate):
        p, raw = self._saved(tmp_path)
        assert raw.count(b'"rate":0.2') == 1
        spec_len = struct.unpack_from("<I", raw, 12)[0] + len(rate) - 3
        bad = raw.replace(b'"rate":0.2', b'"rate":' + rate)
        p.write_bytes(seal(bad[:12] + struct.pack("<I", spec_len) + bad[16:]))
        with pytest.raises(DataFormatError, match="dropout rate"):
            load_checkpoint(p)

    def test_huge_array_header_over_a_tiny_file(self, tmp_path):
        # The spec claims a 64 GiB weight array: the load must fail on it
        # before it allocates anything for the array.
        layers = [{"kind": "dense", "units": 2**31, "group": "In-h1"},
                  {"kind": "dense", "units": 2, "group": "h1-out"}, {"kind": "softmax"}]
        spec = json.dumps({"input_shape": [4], "classes": 2, "layers": layers}).encode()
        p = tmp_path / "huge.ckpt"
        p.write_bytes(sealed(spec, bytes(16)))
        tracemalloc.start()
        try:
            with pytest.raises(DataFormatError,
                               match=r"truncated at byte \d+ \(wanted 68719476736 more"):
                load_checkpoint(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataFormatError):
            load_checkpoint(tmp_path / "absent.ckpt")

    @pytest.mark.parametrize("fault", ["shape", "no_shadow"])
    def test_refused_save_leaves_the_existing_file(self, tmp_path, fault):
        net = build_ffdnn(4, 3, 1, 2, seed=1)
        p = tmp_path / "net.ckpt"
        save_checkpoint(net, p)
        before = p.read_bytes()
        if fault == "shape":
            net.groups["In-h1"].weights = Tensor(np.zeros((3, 3)))
            match = "array shapes"
        else:  # the last group, so a writer that checks as it goes has written the rest
            net, _ = direct_quantize(net, 2)
            net.groups["h1-out"].shadow_weights = None
            match = "no shadow weights"
        with pytest.raises(DataFormatError, match=match):
            save_checkpoint(net, p)
        assert p.read_bytes() == before

    def _quantized(self, tmp_path, n_bits):
        net, _ = direct_quantize(build_ffdnn(8, 6, 1, 4, seed=3), n_bits)
        p = tmp_path / "q.ckpt"
        save_checkpoint(net, p)
        q = net.groups["In-h1"].quantizer
        return p, struct.pack("<BId", 1, q.M, q.delta)

    def test_code_beyond_grid_rejected(self, tmp_path):
        p, _ = self._quantized(tmp_path, 2)
        raw = bytearray(p.read_bytes())
        raw[-5] = 2  # last code of the last group; a 3-level grid allows +/-1
        p.write_bytes(seal(bytes(raw)))
        with pytest.raises(DataFormatError, match="code beyond"):
            load_checkpoint(p)

    @pytest.mark.parametrize("M", [257, 65539])
    def test_level_count_beyond_a_byte_rejected(self, tmp_path, M):
        p, field = self._quantized(tmp_path, 2)
        reseal_replace(p, field, struct.pack("<BId", 1, M, 0.5))
        with pytest.raises(DataFormatError, match=f"M={M}.*<= 255"):
            load_checkpoint(p)

    @pytest.mark.parametrize("flag", [2, 255])
    def test_bad_quantizer_flag_rejected(self, tmp_path, flag):
        p, field = self._quantized(tmp_path, 2)
        reseal_replace(p, field, bytes([flag]) + field[1:])
        with pytest.raises(DataFormatError, match=f"quantizer flag {flag}, not 0 or 1"):
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
        p, field = self._quantized(tmp_path, 8)
        reseal_replace(p, field, field[:5] + struct.pack("<d", delta))
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
