"""Network assembly, the dense/conv/pool layer math against naive references,
forward/backward passes, and parameter accounting."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from quantbench import nn
from quantbench.checkpoint import load_checkpoint, save_checkpoint
from quantbench.errors import ConfigError, DataFormatError, DimensionError, UsageError
from quantbench.nn import (
    LayerSpec,
    NetworkSpec,
    backward,
    build_cnn,
    build_ffdnn,
    build_from_spec,
    cnn_group_names,
    count_params,
    count_weight_bits,
    cross_entropy,
    ffdnn_group_names,
    forward,
    group_shapes,
    logit_cross_entropy,
    predict,
)
from quantbench.tensor import Rng, Tensor


class TestBuilders:
    def test_ffdnn_group_names(self):
        net = build_ffdnn(20, 16, 3, 5)
        assert list(net.groups) == ["In-h1", "h1-h2", "h2-h3", "h3-out"]

    def test_ffdnn_no_hidden_layers(self):
        net = build_ffdnn(20, 0, 0, 5)
        assert list(net.groups) == ["In-out"]
        assert net.groups["In-out"].weights.shape == (20, 5)

    def test_cnn_group_names(self):
        net = build_cnn([8, 16, 32], input_shape=(3, 32, 32))
        assert list(net.groups) == ["C1", "C2", "C3", "FC", "Out"]

    def test_cnn_shapes(self):
        net = build_cnn([8, 16], input_shape=(3, 16, 16), fc_units=32, classes=10)
        assert net.groups["C1"].weights.shape == (8, 3, 5, 5)
        assert net.groups["C2"].weights.shape == (16, 8, 5, 5)
        # 16x16 pooled twice -> 4x4 spatial, 16 maps
        assert net.groups["FC"].weights.shape == (16 * 4 * 4, 32)
        assert net.groups["Out"].weights.shape == (32, 10)

    def test_naming_helpers_match_builders(self):
        for depth in (0, 1, 3):
            assert ffdnn_group_names(depth) == list(build_ffdnn(6, 4, depth, 3).groups)
        for maps in ([2], [2, 3], [2, 3, 4]):
            net = build_cnn(maps, input_shape=(1, 8, 8), fc_units=4, classes=3)
            assert cnn_group_names(len(maps)) == list(net.groups)

    def test_group_names_stable_across_runs(self):
        assert list(build_ffdnn(8, 4, 2, 3, seed=1).groups) == list(
            build_ffdnn(8, 4, 2, 3, seed=99).groups
        )

    def test_init_is_seeded(self):
        a = build_ffdnn(8, 4, 1, 3, seed=5)
        b = build_ffdnn(8, 4, 1, 3, seed=5)
        c = build_ffdnn(8, 4, 1, 3, seed=6)
        assert np.array_equal(
            a.groups["In-h1"].weights.ndarray, b.groups["In-h1"].weights.ndarray
        )
        assert not np.array_equal(
            a.groups["In-h1"].weights.ndarray, c.groups["In-h1"].weights.ndarray
        )

    def test_init_bounds_follow_fan_in(self):
        net = build_ffdnn(100, 50, 1, 10, seed=3)
        lim = np.sqrt(6.0 / 100)
        w = net.groups["In-h1"].weights.ndarray
        assert np.abs(w).max() <= lim
        assert np.abs(w).max() > 0.8 * lim
        assert not net.groups["In-h1"].bias.ndarray.any()

    def test_bad_dimensions_rejected(self):
        with pytest.raises(ConfigError):
            build_ffdnn(0, 4, 1, 3)
        with pytest.raises(ConfigError):
            build_ffdnn(8, -1, 2, 3)
        with pytest.raises(ConfigError):
            build_cnn([], input_shape=(3, 8, 8))
        with pytest.raises(ConfigError):
            build_cnn([4, 4, 4, 4], input_shape=(3, 32, 32))


class TestSpecRoundTrip:
    def test_json_dict_round_trip(self):
        net = build_cnn([4, 8], input_shape=(3, 12, 12), fc_units=16, classes=5)
        spec2 = NetworkSpec.from_dict(net.spec.to_dict())
        assert spec2 == net.spec

    def test_rebuild_from_spec_matches_shapes(self):
        net = build_ffdnn(10, 8, 2, 4, seed=3)
        rebuilt = build_from_spec(net.spec, seed=11)
        for name in net.groups:
            assert rebuilt.groups[name].weights.shape == net.groups[name].weights.shape

    def test_group_shapes_match_built_groups(self):
        for net in (build_ffdnn(10, 8, 2, 4), build_cnn([3, 4], input_shape=(2, 9, 9))):
            shapes = group_shapes(net.spec)
            assert list(shapes) == list(net.groups)
            for name, (w_shape, b_shape) in shapes.items():
                assert net.groups[name].weights.shape == w_shape
                assert net.groups[name].bias.shape == b_shape

    def test_group_declared_twice_rejected(self):
        spec = NetworkSpec(
            input_shape=(4,),
            classes=4,
            layers=(
                LayerSpec(kind="dense", units=4, group="G"),
                LayerSpec(kind="dense", units=4, group="G"),
                LayerSpec(kind="softmax"),
            ),
        )
        with pytest.raises(ConfigError, match="twice"):
            group_shapes(spec)

    @pytest.mark.parametrize("input_shape", [(0, 4, 4), (3, 0, 8), (3, -4, 4)])
    def test_nonpositive_input_shape_rejected(self, input_shape):
        spec = build_cnn([2], input_shape=(3, 4, 4)).spec
        spec = NetworkSpec(input_shape, spec.classes, spec.layers)
        with pytest.raises(ConfigError, match="input shape"):
            group_shapes(spec)

    @pytest.mark.parametrize("rate", [1.0, 1.5, -0.1, float("nan"), "x", [1], True])
    def test_bad_dropout_rate_rejected(self, rate):
        net = build_ffdnn(4, 3, 1, 2, dropout_rate=0.0)
        layers = tuple(LayerSpec("dropout", rate=rate) if ls.kind == "dropout" else ls
                       for ls in net.spec.layers)
        spec = NetworkSpec(net.spec.input_shape, net.spec.classes, layers)
        with pytest.raises(ConfigError, match="dropout rate"):
            group_shapes(spec)
        with pytest.raises(ConfigError, match="dropout rate"):
            nn.Network(spec, net.groups)

    def test_missing_dropout_rate_is_zero(self):
        spec = NetworkSpec((4,), 2, (LayerSpec("dropout"),
                                     LayerSpec("dense", units=2, group="In-out"),
                                     LayerSpec("softmax")))
        net = build_from_spec(spec)
        x = Rng(1).uniform((3, 4))
        assert forward(net, x, Rng(2))[0].tobytes() == predict(net, x).tobytes()

    def test_pool_over_flat_shape_rejected(self):
        layers = (LayerSpec("dense", units=4, group="In-h1"), LayerSpec("maxpool2"),
                  LayerSpec("dense", units=3, group="h1-out"), LayerSpec("softmax"))
        spec = NetworkSpec((6,), 3, layers)
        with pytest.raises(ConfigError, match=r"maxpool2 layer needs \[C, H, W\]"):
            group_shapes(spec)

    def test_stack_must_end_at_class_count(self):
        spec = NetworkSpec(
            input_shape=(8,),
            classes=5,
            layers=(
                LayerSpec(kind="dense", units=3, group="In-out"),
                LayerSpec(kind="softmax"),
            ),
        )
        with pytest.raises(ConfigError):
            build_from_spec(spec)


class TestForward:
    def test_softmax_rows_sum_to_one(self):
        net = build_ffdnn(12, 10, 2, 6, seed=1)
        p, _ = forward(net, Rng(2).uniform((40, 12), -1, 1))
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert (p > 0).all() and (p < 1).all()

    def test_eval_mode_deterministic(self):
        net = build_ffdnn(12, 10, 1, 4, seed=1)
        x = Rng(3).uniform((8, 12))
        a, _ = forward(net, x)
        b, _ = forward(net, x)
        assert np.array_equal(a, b)

    def test_without_rng_dropout_is_off_and_forward_is_predict(self):
        net = build_ffdnn(12, 32, 2, 4, dropout_rate=0.5, seed=1)
        x = Rng(3).uniform((8, 12), -1, 1)
        probs, _ = forward(net, x)
        assert probs.tobytes() == predict(net, x).tobytes()
        assert not probs.flags.writeable  # the cache holds the same array

    def test_with_rng_dropout_is_on(self):
        net = build_ffdnn(12, 32, 2, 4, dropout_rate=0.5, seed=1)
        x = Rng(3).uniform((8, 12), -1, 1)
        probs, _ = forward(net, x, Rng(9))
        assert probs.tobytes() != predict(net, x).tobytes()

    def test_dropout_changes_with_stream(self):
        net = build_ffdnn(12, 32, 1, 4, dropout_rate=0.5, seed=1)
        x = Rng(3).uniform((8, 12))
        rng = Rng(9)
        a, _ = forward(net, x, rng)
        b, _ = forward(net, x, rng)
        assert not np.array_equal(a, b)

    def test_input_shape_validated(self):
        net = build_ffdnn(12, 10, 1, 4, seed=1)
        with pytest.raises(DimensionError):
            forward(net, Rng(3).uniform((8, 13)))

    def test_cnn_forward_shape(self):
        net = build_cnn([4, 6], input_shape=(3, 11, 11), fc_units=8, classes=5, seed=2)
        probs, _ = forward(net, Rng(5).uniform((3, 3, 11, 11)))
        assert probs.shape == (3, 5)
        assert np.allclose(probs.sum(axis=1), 1.0)


class TestBackward:
    def test_stale_cache_rejected(self):
        net = build_ffdnn(6, 4, 1, 3, seed=1)
        x = Rng(1).uniform((4, 6))
        _, cache = forward(net, x)
        net.groups["In-h1"].weights = Tensor(
            net.groups["In-h1"].weights.ndarray * 2.0
        )
        net.mark_params_changed()
        with pytest.raises(UsageError, match="stale"):
            backward(net, cache, [0, 1, 2, 0])

    def test_cache_bound_to_network(self):
        net_a = build_ffdnn(6, 4, 1, 3, seed=1)
        net_b = build_ffdnn(6, 4, 1, 3, seed=1)
        x = Rng(1).uniform((4, 6))
        _, cache = forward(net_a, x)
        with pytest.raises(UsageError):
            backward(net_b, cache, [0, 1, 2, 0])

    def test_target_length_checked(self):
        net = build_ffdnn(6, 4, 1, 3, seed=1)
        _, cache = forward(net, Rng(1).uniform((4, 6)))
        with pytest.raises(
            DimensionError, match=r"targets shape \(2,\) does not match batch size 4"
        ):
            backward(net, cache, [0, 1])

    def test_second_backward_on_one_cache_rejected(self):
        net = build_cnn([3], input_shape=(2, 8, 8), fc_units=6, classes=4, seed=3)
        _, cache = forward(net, Rng(2).uniform((4, 2, 8, 8)))
        backward(net, cache, [0, 1, 2, 3])
        assert cache.layer_caches is None  # every layer cache was released
        with pytest.raises(UsageError, match="already consumed"):
            backward(net, cache, [0, 1, 2, 3])

    def test_logit_cross_entropy_before_and_after_backward(self):
        net = build_ffdnn(6, 4, 1, 3, seed=1)
        probs, cache = forward(net, Rng(1).uniform((4, 6)))
        targets = [0, 1, 2, 0]
        before = logit_cross_entropy(cache, targets)
        assert before == pytest.approx(cross_entropy(probs, targets), rel=1e-12)
        backward(net, cache, targets)
        assert logit_cross_entropy(cache, targets) == before

    def test_pass_stops_at_the_lowest_weight_layer(self, monkeypatch):
        net = build_cnn([2, 3], input_shape=(1, 8, 8), fc_units=4, classes=2, seed=1)
        dx_shapes = []
        input_grad = nn._input_grad
        monkeypatch.setattr(
            nn, "_input_grad", lambda *a: dx_shapes.append(a[2]) or input_grad(*a)
        )
        _, cache = forward(net, Rng(2).uniform((3, 1, 8, 8)))
        grads = backward(net, cache, [0, 1, 1])
        assert dx_shapes == [(3, 2, 4, 4)]  # C2's input gradient only, none for C1
        assert list(grads) == ["Out", "FC", "C2", "C1"]

    @pytest.mark.parametrize("which", ["cnn", "relu-first", "ffdnn"])
    def test_gradients_equal_a_pass_with_every_input_gradient(self, which):
        if which == "cnn":
            net = build_cnn([2, 3], input_shape=(2, 8, 6), fc_units=4, classes=3, seed=4)
        elif which == "ffdnn":
            net = build_ffdnn(5, 4, 2, 3, dropout_rate=0.5, seed=4)
        else:
            layers = (LayerSpec("relu"), LayerSpec("dropout", rate=0.5),
                      LayerSpec("dense", units=4, group="In-h1"), LayerSpec("relu"),
                      LayerSpec("dense", units=3, group="h1-out"), LayerSpec("softmax"))
            net = build_from_spec(NetworkSpec((5,), 3, layers), seed=4)
        x = Rng(5).uniform((6, *net.spec.input_shape), -1, 1)
        targets = np.array([0, 1, 2, 2, 1, 0])
        probs, cache = forward(net, x, Rng(6))
        layer_caches = list(cache.layer_caches)
        grads = backward(net, cache, targets)
        dy = probs.copy()
        dy[np.arange(6), targets] -= 1.0
        dy /= 6
        expected = {}
        for layer, c in zip(net.layers[-2::-1], layer_caches[::-1]):
            dy, wgrad = layer.backward(dy, c)
            if wgrad is not None:
                expected[layer.group.name] = wgrad
        assert list(grads) == list(expected)
        for name, (dw, db) in expected.items():
            assert grads[name][0].tobytes() == dw.tobytes()
            assert grads[name][1].tobytes() == db.tobytes()

    def test_gradient_shapes_match_parameters(self):
        net = build_cnn([3], input_shape=(2, 8, 8), fc_units=6, classes=4, seed=3)
        x = Rng(2).uniform((5, 2, 8, 8))
        _, cache = forward(net, x)
        grads = backward(net, cache, [0, 1, 2, 3, 0])
        assert set(grads) == set(net.groups)
        for name, (dw, db) in grads.items():
            assert dw.shape == net.groups[name].weights.shape
            assert db.shape == net.groups[name].bias.shape


class TestMatmul:
    """The dense layer's matrix product, through a build_ffdnn layer."""

    def test_matches_numpy(self):
        net = build_ffdnn(5, 1, 0, 9, seed=2)
        net.groups["In-out"].bias = Tensor(Rng(3).uniform((9,), -1, 1))
        a = Rng(2).uniform((7, 5), -1, 1)
        out, _ = net.layers[0].forward(a, None)
        g = net.groups["In-out"]
        assert np.allclose(out, a @ g.weights.ndarray + g.bias.ndarray)

    def test_shape_mismatch_names_both_shapes(self):
        net = build_ffdnn(5, 1, 0, 2, seed=2)
        with pytest.raises(DimensionError, match=r"3, 4.*5,"):
            forward(net, np.zeros((3, 4)))


class TestPredict:
    """The cache-free inference pass keeps forward's input checks."""

    def test_wrong_input_shape_raises(self):
        net = build_ffdnn(5, 4, 1, 2, seed=2)
        with pytest.raises(DimensionError, match=r"3, 4.*5,"):
            predict(net, np.zeros((3, 4)))
        cnn = build_cnn([2], input_shape=(1, 6, 6), fc_units=2, classes=2)
        with pytest.raises(DimensionError):
            predict(cnn, np.zeros((2, 1, 6, 5)))

    def test_relu_maps_nan_and_signed_zeros_as_forward_does(self):
        relu = build_ffdnn(2, 3, 1, 2).layers[1]
        x = np.array([[np.nan, -0.0, 0.0, -1.0, 1.0, np.inf, -np.inf]])
        assert relu.infer(x).tobytes() == relu.forward(x, None)[0].tobytes()
        assert relu.infer(x).tobytes() == np.array([[0, 0, 0, 0, 1, np.inf, 0.0]]).tobytes()

    def test_pool_input_rank_checked(self):
        with pytest.raises(DimensionError, match=r"pool layer expects \[N, C, H, W\]"):
            _pool_layer().infer(np.zeros((2, 4, 4)))

    def test_cnn_probabilities_match_eval_forward(self):
        net = build_cnn([3, 4], input_shape=(2, 10, 10), fc_units=6, classes=3, seed=7)
        x = Rng(4).uniform((3, 2, 10, 10), -1, 1)
        assert predict(net, x).tobytes() == forward(net, x)[0].tobytes()


def _conv_naive(x, k, pad):
    c_out, c_in, kh, kw = k.shape
    _, h, w = x.shape
    xp = np.zeros((c_in, h + 2 * pad, w + 2 * pad))
    xp[:, pad : pad + h, pad : pad + w] = x
    out = np.zeros((c_out, h, w))
    for co in range(c_out):
        for i in range(h):
            for j in range(w):
                out[co, i, j] = np.sum(xp[:, i : i + kh, j : j + kw] * k[co])
    return out


def _pool_naive(x):
    c, h, w = x.shape
    h2, w2 = (h + 1) // 2, (w + 1) // 2
    out = np.zeros((c, h2, w2))
    idx = np.zeros((c, h2, w2), dtype=np.int64)
    for ch in range(c):
        for i in range(h2):
            for j in range(w2):
                best = None
                for di in range(2):
                    for dj in range(2):
                        r, s = 2 * i + di, 2 * j + dj
                        if r >= h or s >= w:
                            continue
                        flat = (ch * h + r) * w + s
                        if best is None or x[ch, r, s] > best[0]:
                            best = (x[ch, r, s], flat)
                out[ch, i, j] = best[0]
                idx[ch, i, j] = best[1]
    return out, idx


def _conv_adjoint_naive(x, k, dy, pad):
    """dW and dX of the same-size cross-correlation, by brute force: every
    output pixel adds its gradient times its receptive field into dW and
    times the kernel into the padded dX."""
    c_out, c_in, kh, kw = k.shape
    n, _, h, w = x.shape
    xp = np.zeros((n, c_in, h + 2 * pad, w + 2 * pad))
    xp[:, :, pad : pad + h, pad : pad + w] = x
    dw = np.zeros_like(k)
    dxp = np.zeros_like(xp)
    for s in range(n):
        for co in range(c_out):
            for i in range(h):
                for j in range(w):
                    g = dy[s, co, i, j]
                    dw[co] += g * xp[s, :, i : i + kh, j : j + kw]
                    dxp[s, :, i : i + kh, j : j + kw] += g * k[co]
    return dw, dxp[:, :, pad : pad + h, pad : pad + w]


def _conv_net(c_in, c_out, h, w, seed=0):
    net = build_cnn([c_out], input_shape=(c_in, h, w), fc_units=2, classes=2,
                    seed=seed)
    net.groups["C1"].bias = Tensor(Rng(seed + 1).uniform((c_out,), -1, 1))
    return net


def _pool_layer():
    return build_cnn([1], input_shape=(1, 4, 4), fc_units=2, classes=2).layers[2]


class TestConv2d:
    """The conv layer of a build_cnn network against a naive reference."""

    @pytest.mark.parametrize("c_in,c_out,h,w", [(1, 1, 6, 6), (3, 4, 8, 7), (2, 5, 5, 5)])
    def test_matches_naive_cross_correlation(self, c_in, c_out, h, w):
        rng = Rng(c_in * 100 + c_out)
        x = rng.uniform((2, c_in, h, w), -1, 1)
        net = _conv_net(c_in, c_out, h, w, seed=c_in + c_out)
        k, b = net.groups["C1"].weights.ndarray, net.groups["C1"].bias.ndarray
        got, _ = net.layers[0].forward(x, None)
        assert got.shape == (2, c_out, h, w)
        for i in range(2):
            want = _conv_naive(x[i], k, 2) + b[:, None, None]
            assert np.allclose(got[i], want, atol=1e-12)

    @pytest.mark.parametrize(
        "c_in,c_out,h,w", [(1, 3, 3, 2), (2, 2, 1, 1), (1, 1, 6, 6), (3, 4, 8, 7)]
    )
    def test_backward_matches_naive_adjoint(self, c_in, c_out, h, w):
        x = Rng(h * 10 + w).uniform((2, c_in, h, w), -1, 1)
        dy = Rng(h * 10 + w + 1).uniform((2, c_out, h, w), -1, 1)
        conv = _conv_net(c_in, c_out, h, w, seed=c_in + c_out).layers[0]
        _, cache = conv.forward(x, None)
        dx, (dw, db) = conv.backward(dy, cache)
        want_dw, want_dx = _conv_adjoint_naive(x, conv.group.weights.ndarray, dy, 2)
        assert np.allclose(dw, want_dw, rtol=0, atol=1e-12)
        assert np.allclose(dx, want_dx, rtol=0, atol=1e-12)
        assert np.allclose(db, dy.sum(axis=(0, 2, 3)), rtol=0, atol=1e-12)

    def test_channel_mismatch_raises(self):
        conv = _conv_net(2, 4, 6, 6).layers[0]
        with pytest.raises(DimensionError, match="channel mismatch"):
            conv.forward(np.zeros((1, 3, 6, 6)), None)

    def test_kernel_must_be_5x5(self, tmp_path):
        net = build_cnn([4, 3], input_shape=(2, 12, 12), fc_units=2, classes=2)
        assert all(net.groups[g].weights.shape[2:] == (5, 5) for g in ("C1", "C2"))
        # A kernel bank of any other size cannot enter a network.
        net.groups["C1"].weights = Tensor.zeros((4, 2, 3, 3))
        save_checkpoint(net, tmp_path / "k3.ckpt")
        with pytest.raises(DataFormatError, match="spec shape"):
            load_checkpoint(tmp_path / "k3.ckpt")


def _grad_bytes(grads):
    return {name: (dw.tobytes(), db.tobytes()) for name, (dw, db) in grads.items()}


def _one_step(net, x, targets):
    _, cache = forward(net, x)
    return _grad_bytes(backward(net, cache, targets))


class TestConvWorkspace:
    """Every conv call unfolds into one shared workspace, so no forward cache
    may depend on what a later call leaves there."""

    def _case(self):
        net = build_cnn([3, 4], input_shape=(2, 10, 9), fc_units=5, classes=3, seed=2)
        xa, xb = (Rng(s).uniform((n, 2, 10, 9), -1, 1) for s, n in ((3, 5), (4, 7)))
        return net, xa, xb, [0, 1, 2, 1, 0], [2, 2, 1, 0, 1, 0, 0]

    def test_two_forwards_then_two_backwards(self):
        net, xa, xb, ta, tb = self._case()
        want_a, want_b = _one_step(net, xa, ta), _one_step(net, xb, tb)
        _, cache_a = forward(net, xa)
        _, cache_b = forward(net, xb)
        assert _grad_bytes(backward(net, cache_a, ta)) == want_a
        assert _grad_bytes(backward(net, cache_b, tb)) == want_b

    def test_predict_between_forward_and_backward(self):
        net, xa, xb, ta, _ = self._case()
        want = _one_step(net, xa, ta)
        _, cache = forward(net, xa)
        predict(net, xb)
        assert _grad_bytes(backward(net, cache, ta)) == want

    def test_cifar_shaped_training_step_memory_bounded(self, monkeypatch):
        net = build_cnn([32, 32, 64], seed=1)
        x = Rng(0).uniform((64, 3, 32, 32), -1.0, 1.0)
        targets = np.arange(64) % 10
        monkeypatch.setattr(nn, "_workspace", np.empty(0))  # count its growth
        tracemalloc.start()
        try:
            _, cache = forward(net, x)
            backward(net, cache, targets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The workspace grows to C1's whole-batch patch matrix, which its 3
        # channels keep in one piece; C2's and C3's dW GEMMs unfold channel
        # blocks into it, so C2's 100 MiB patch matrix is never built.
        c1_patch = 8 * 25 * 3 * 32 * 32 * 64
        assert peak < c1_patch + 3 * nn.SLICE_BYTES


# Two real-size dW cases split into channel blocks, checked at one BLAS thread:
# the thread split is one of the things that fix a GEMM's bits.
_ONE_THREAD_DW = """
import numpy as np
from quantbench import nn
from quantbench.tensor import Rng
for c, h, w, c_out, n in ((32, 16, 16, 64, 64), (48, 27, 13, 3, 12)):
    net = nn.build_cnn([c_out], input_shape=(c, h, w), fc_units=2, classes=2)
    x = Rng(1).uniform((n, c, h, w), -1.0, 1.0)
    dy = Rng(2).uniform((n, c_out, h, w), -1.0, 1.0)
    assert len(nn._channel_blocks(x.shape)) > 1
    dw = net.layers[0].backward(dy, x, need_dx=False)[1][0]
    dyf = dy.transpose(0, 2, 3, 1).reshape(-1, c_out)
    want = dyf.T @ nn._im2col(x, np.empty((c * 25, n * h * w))).T
    assert dw.tobytes() == want.tobytes(), (c, h, w, c_out, n)
"""


def test_blocked_weight_grad_is_one_gemm_at_one_blas_thread():
    src = os.path.dirname(os.path.dirname(nn.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _ONE_THREAD_DW], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def _assert_pool_pass_is_naive(x):
    """Training forward gives the naive pool's values, and backward puts each
    window's gradient on the naive argmax and zeros elsewhere; returns dx."""
    pool = _pool_layer()
    out, cache = pool.forward(x, None)
    dy = Rng(9).uniform(out.shape, 1, 2)
    dx = pool.backward(dy, cache)[0]
    for i in range(x.shape[0]):
        exp_out, exp_idx = _pool_naive(x[i])
        assert np.array_equal(out[i], exp_out)
        exp_dx = np.zeros(x[i].size)
        exp_dx[exp_idx.reshape(-1)] = dy[i].reshape(-1)
        assert np.array_equal(dx[i].reshape(-1), exp_dx)
    return dx


class TestMaxpool2:
    """The max-pool layer of a build_cnn network against a naive reference."""

    @pytest.mark.parametrize("c,h,w", [(1, 4, 4), (3, 8, 8), (2, 7, 7), (2, 5, 8)])
    def test_matches_naive(self, c, h, w):
        x = Rng(h * 10 + w).uniform((2, c, h, w), -1, 1)
        _assert_pool_pass_is_naive(x)

    def test_tie_takes_smallest_flat_index(self):
        dx = _assert_pool_pass_is_naive(np.ones((1, 1, 4, 4)))
        # all-equal windows route their gradient to the top-left corner
        assert np.flatnonzero(dx).tolist() == [0, 2, 8, 10]


def _loss_for_gradcheck(net, x, targets, mode, seed):
    rng = Rng(seed) if mode == "train" else None
    probs, cache = forward(net, x, rng)
    return cross_entropy(probs, targets), cache


def _nudge_biases(net):
    """Move biases off zero so no relu input sits exactly on its kink.

    Freshly built networks have all-zero biases; if dropout zeroes an entire
    row of some layer's input, the next pre-activation row equals the bias
    exactly and finite differences straddle the relu kink.
    """
    for group in net.groups.values():
        b = net.groups[group.name].bias.ndarray
        group.bias = Tensor(0.05 + 0.01 * np.arange(b.size, dtype=np.float64))
    net.mark_params_changed()


def _central_difference_check(net, x, targets, mode="eval", seed=101, eps=1e-5,
                              picks_per_array=12):
    """Worst relative error between analytic and numeric gradients."""
    _nudge_biases(net)
    _, cache = _loss_for_gradcheck(net, x, targets, mode, seed)
    grads = backward(net, cache, targets)
    worst = 0.0
    chooser = np.random.RandomState(0)
    for name, (dw, db) in grads.items():
        group = net.groups[name]
        for analytic, tensor, setter in (
            (dw, group.weights, "weights"),
            (db, group.bias, "bias"),
        ):
            arr = tensor.ndarray
            flat_ids = chooser.choice(
                arr.size, size=min(picks_per_array, arr.size), replace=False
            )
            for i in flat_ids:
                probes = []
                for sign in (+1, -1):
                    flat = arr.copy().reshape(-1)
                    flat[i] += sign * eps
                    setattr(group, setter, Tensor(flat.reshape(arr.shape)))
                    net.mark_params_changed()
                    loss, _ = _loss_for_gradcheck(net, x, targets, mode, seed)
                    probes.append(loss)
                setattr(group, setter, tensor)
                net.mark_params_changed()
                numeric = (probes[0] - probes[1]) / (2 * eps)
                a = analytic.reshape(-1)[i]
                worst = max(worst, abs(a - numeric) / max(1.0, abs(a), abs(numeric)))
    return worst


class TestGradients:
    def test_ffdnn_eval_mode(self):
        net = build_ffdnn(10, 8, 2, 4, seed=3)
        x = Rng(1).uniform((6, 10), -1, 1)
        assert _central_difference_check(net, x, [0, 1, 2, 3, 0, 1]) < 1e-6

    def test_ffdnn_train_mode_with_dropout(self):
        net = build_ffdnn(10, 8, 2, 4, dropout_rate=0.3, seed=3)
        x = Rng(1).uniform((6, 10), -1, 1)
        err = _central_difference_check(net, x, [0, 1, 2, 3, 0, 1], mode="train")
        assert err < 1e-6

    def test_cnn_all_layer_types(self):
        net = build_cnn([3, 4], input_shape=(2, 10, 10), fc_units=6, classes=3, seed=7)
        x = Rng(4).uniform((3, 2, 10, 10), -1, 1)
        assert _central_difference_check(net, x, [0, 1, 2], picks_per_array=8) < 1e-6

    def test_cnn_odd_spatial_size(self):
        net = build_cnn([3], input_shape=(2, 9, 9), fc_units=5, classes=3, seed=9)
        x = Rng(6).uniform((2, 2, 9, 9), -1, 1)
        assert _central_difference_check(net, x, [1, 2], picks_per_array=8) < 1e-6


class TestCrossEntropy:
    def test_perfect_prediction_near_zero(self):
        probs = np.array([[1e-9, 1.0 - 1e-9], [1.0 - 1e-9, 1e-9]])
        assert cross_entropy(probs, [1, 0]) < 1e-8

    def test_uniform_prediction(self):
        probs = np.full((4, 8), 1.0 / 8)
        assert cross_entropy(probs, [0, 1, 2, 3]) == pytest.approx(np.log(8))


class TestAccounting:
    def test_count_params_ffdnn(self):
        net = build_ffdnn(20, 16, 2, 5)
        expected = (20 * 16 + 16) + (16 * 16 + 16) + (16 * 5 + 5)
        assert count_params(net) == expected

    def test_count_weight_bits_float(self):
        net = build_ffdnn(1353, 512, 4, 61)
        weights = 1353 * 512 + 3 * 512 * 512 + 512 * 61
        biases = 4 * 512 + 61
        assert count_weight_bits(net, 32) == weights * 32 + biases * 32

    def test_count_weight_bits_two_bit(self):
        net = build_ffdnn(1353, 512, 4, 61)
        weights = 1353 * 512 + 3 * 512 * 512 + 512 * 61
        biases = 4 * 512 + 61
        assert count_weight_bits(net, 2) == weights * 2 + biases * 32

    def test_count_weight_bits_cnn_hand_tally(self):
        net = build_cnn([32, 32, 64], input_shape=(3, 32, 32), fc_units=64, classes=10)
        kernels = 32 * 3 * 25 + 32 * 32 * 25 + 64 * 32 * 25
        dense = (64 * 4 * 4) * 64 + 64 * 10
        biases = 32 + 32 + 64 + 64 + 10
        assert count_weight_bits(net, 3) == (kernels + dense) * 3 + biases * 32

    def test_rejects_one_bit(self):
        with pytest.raises(ConfigError):
            count_weight_bits(build_ffdnn(4, 3, 1, 2), 1)


class TestCopyAndDropout:
    def test_copy_isolated_from_updates(self):
        net = build_ffdnn(6, 4, 1, 3, seed=2)
        clone = net.copy()
        net.groups["In-h1"].weights = Tensor.zeros((6, 4))
        assert clone.groups["In-h1"].weights.ndarray.any()
