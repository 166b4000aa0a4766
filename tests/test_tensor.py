"""Tensor container, RNG streams, and the dense/conv/pool kernels as the
layers of built networks run them."""

import numpy as np
import pytest

from quantbench.checkpoint import load_checkpoint, save_checkpoint
from quantbench.errors import DataFormatError, DimensionError
from quantbench.nn import build_cnn, build_ffdnn, forward
from quantbench.tensor import Rng, Tensor, derive_seed


class TestTensor:
    def test_wraps_and_copies_input(self):
        src = np.array([[1.0, 2.0], [3.0, 4.0]])
        t = Tensor(src)
        src[0, 0] = 99.0
        assert t.ndarray[0, 0] == 1.0

    def test_always_float64(self):
        t = Tensor(np.array([1, 2, 3], dtype=np.int32))
        assert t.ndarray.dtype == np.float64

    def test_shape_size_tolist(self):
        t = Tensor(np.arange(6).reshape(2, 3))
        assert t.shape == (2, 3)
        assert t.size == 6
        assert t.tolist() == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]

    def test_zeros(self):
        t = Tensor.zeros((3, 2))
        assert t.shape == (3, 2)
        assert not t.ndarray.any()


class TestRng:
    def test_known_first_output(self):
        # published first output of this generator for seed 0
        assert Rng(0).next_u64(1)[0] == 0xE220A8397B1DCDAF

    def test_streams_are_reproducible(self):
        a = Rng(1234).next_u64(100)
        b = Rng(1234).next_u64(100)
        assert np.array_equal(a, b)

    def test_counter_advances(self):
        r = Rng(5)
        first = r.next_u64(10)
        second = r.next_u64(10)
        assert not np.array_equal(first, second)

    def test_uniform_range_and_determinism(self):
        u = Rng(9).uniform((10000,), -2.0, 3.0)
        assert u.min() >= -2.0 and u.max() < 3.0
        assert abs(u.mean() - 0.5) < 0.1
        assert np.array_equal(u, Rng(9).uniform((10000,), -2.0, 3.0))

    def test_normal_moments(self):
        z = Rng(17).normal((100000,))
        assert abs(z.mean()) < 0.02
        assert abs(z.std() - 1.0) < 0.02

    def test_permutation_is_permutation(self):
        p = Rng(3).permutation(1000)
        assert np.array_equal(np.sort(p), np.arange(1000))
        assert not np.array_equal(p, np.arange(1000))

    def test_spawn_gives_independent_streams(self):
        base = Rng(42)
        a = base.spawn("alpha").next_u64(50)
        b = base.spawn("beta").next_u64(50)
        assert not np.array_equal(a, b)
        assert np.array_equal(a, Rng(42).spawn("alpha").next_u64(50))

    def test_derive_seed_stable_and_tag_sensitive(self):
        assert derive_seed(0, "shuffle") == 15061180230698164816
        assert derive_seed(7, "dataset") == 6871436197299753516
        assert derive_seed(7, "dataset") != derive_seed(7, "dropout")
        assert derive_seed(7, "dataset") != derive_seed(8, "dataset")


class TestMatmul:
    """The dense layer's matrix product, through a build_ffdnn layer."""

    def test_matches_numpy(self):
        net = build_ffdnn(5, 1, 0, 9, seed=2)
        net.groups["In-out"].bias = Tensor(Rng(3).uniform((9,), -1, 1))
        a = Rng(2).uniform((7, 5), -1, 1)
        out, _ = net.layers[0].forward(a, "eval", None)
        g = net.groups["In-out"]
        assert np.allclose(out, a @ g.weights.ndarray + g.bias.ndarray)

    def test_shape_mismatch_names_both_shapes(self):
        net = build_ffdnn(5, 1, 0, 2, seed=2)
        with pytest.raises(DimensionError, match=r"3, 4.*5,"):
            forward(net, Tensor.zeros((3, 4)))


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
        got, _ = net.layers[0].forward(x, "eval", None)
        assert got.shape == (2, c_out, h, w)
        for i in range(2):
            want = _conv_naive(x[i], k, 2) + b[:, None, None]
            assert np.allclose(got[i], want, atol=1e-12)

    def test_channel_mismatch_raises(self):
        conv = _conv_net(2, 4, 6, 6).layers[0]
        with pytest.raises(DimensionError, match="channel mismatch"):
            conv.forward(np.zeros((1, 3, 6, 6)), "eval", None)

    def test_kernel_must_be_5x5(self, tmp_path):
        net = build_cnn([4, 3], input_shape=(2, 12, 12), fc_units=2, classes=2)
        assert all(net.groups[g].weights.shape[2:] == (5, 5) for g in ("C1", "C2"))
        # A kernel bank of any other size cannot enter a network.
        net.groups["C1"].weights = Tensor.zeros((4, 2, 3, 3))
        save_checkpoint(net, tmp_path / "k3.ckpt")
        with pytest.raises(DataFormatError, match="spec shape"):
            load_checkpoint(tmp_path / "k3.ckpt")


class TestMaxpool2:
    """The max-pool layer of a build_cnn network against a naive reference."""

    @pytest.mark.parametrize("c,h,w", [(1, 4, 4), (3, 8, 8), (2, 7, 7), (2, 5, 8)])
    def test_matches_naive(self, c, h, w):
        x = Rng(h * 10 + w).uniform((2, c, h, w), -1, 1)
        out, (idx, _) = _pool_layer().forward(x, "eval", None)
        for i in range(2):
            exp_out, exp_idx = _pool_naive(x[i])
            assert np.array_equal(out[i], exp_out)
            assert np.array_equal(idx[i], exp_idx)

    def test_tie_takes_smallest_flat_index(self):
        x = np.ones((1, 1, 4, 4))
        out, (idx, _) = _pool_layer().forward(x, "eval", None)
        assert np.array_equal(out, np.ones((1, 1, 2, 2)))
        # all-equal windows resolve to the top-left corner of each window
        assert np.array_equal(idx[0, 0], np.array([[0, 2], [8, 10]]))

    def test_indices_recover_values(self):
        x = Rng(77).uniform((2, 3, 9, 6), -5, 5)
        out, (idx, _) = _pool_layer().forward(x, "eval", None)
        for i in range(2):
            assert np.array_equal(x[i].reshape(-1)[idx[i].reshape(-1)],
                                  out[i].reshape(-1))
