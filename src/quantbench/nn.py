"""Layers, network assembly, and manual forward/backward passes.

All layer math lives here. A conv layer unfolds its input into a contiguous
tap-major [C*25, N*H*W] patch matrix (``_im2col``), each row a run of whole
image rows, written into one module-level workspace (``_scratch``) that every
conv call reuses and grows on demand. Both passes compute a conv's output
with ``infer``: a batch whose patch matrix would pass SLICE_BYTES is unfolded
in sample runs (``_sample_runs``), each run's output written straight into
one preallocated output. The training forward caches its input, not a patch
matrix: backward unfolds that input again for the dW GEMM, in blocks of
input channels (``_channel_blocks``) when the whole batch's patch matrix
would pass SLICE_BYTES, each block filling whole patch rows of dW. So no
cache holds a view of the workspace, and any number of forwards or
inference passes may run before a backward. dX (``_input_grad``) is the
adjoint of the unfold, built in the workspace one sample run at a time and
added tap by tap onto the padded input gradient. The runs and blocks are
aligned and large, so each gives every bit of one whole-batch GEMM.
SLICE_BYTES also bounds the largest activation of an evaluation chunk.

A 2x2 max-pool is the maximum of four strided views (``_maxpool2_even``),
with an odd trailing row or column padded by -inf; ties resolve to the
smallest flat index. ReLU is branch-free, ``fmax(x, 0) + 0.0``: NaN and -0.0
both give +0.0, byte for byte what ``where(x > 0, x, 0)`` gives.

Every layer has two passes with one definition of its math: ``forward``
returns what ``backward`` needs, ``infer`` returns only the output. A network
has one pass per purpose, both on ndarrays: ``forward`` trains, with dropout
only when given an ``Rng`` (without one its probabilities are ``predict``'s
bit for bit), and ``predict`` infers through ``infer`` with no caches, so no
ReLU mask or pool argmax outlives its layer. In training the pool caches the
winning tap of each window as an int8 (``_maxpool2_taps``), which backward
turns into argmax positions. ``backward`` pops each layer's cache as it
consumes it, so a ``ForwardCache`` serves exactly one backward pass, and it
stops at the lowest layer that owns a weight group: no layer below it has a
weight, so that layer computes no input gradient.

Networks are flat ordered lists of layers. Every learnable layer owns a named
WeightGroup (weight tensor + bias); quantization and retraining operate on
those groups. Two families are provided: fully connected classifier stacks
(dense + ReLU + dropout per hidden layer) and small convolutional stacks
(5x5 conv + ReLU + 2x2 max-pool per level, then a fixed dense head).

Signal propagation per layer is y = activation(W y_prev + b); the output
layer is always a softmax and training minimizes mean cross-entropy over the
batch. Gradients are computed with respect to the weight values actually used
in the forward pass, which is what lets retraining differentiate at the
quantized point while updates accumulate in float shadow copies.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DimensionError, UsageError
from .quantizer import QuantizerSpec
from .tensor import Rng, Tensor

KERNEL_SIZE = 5
CONV_PAD = 2
BIAS_BITS = 32  # biases always stay full width
# Bytes of a conv run's or block's patch matrix and of an eval chunk's activation.
SLICE_BYTES = 16 << 20
EVAL_BATCH = 512  # samples per evaluation chunk at most


@dataclass
class WeightGroup:
    """One named weight matrix or kernel bank plus its bias.

    ``shadow_weights`` is the float master copy kept while the group is
    quantized; ``quantizer`` is the frozen grid it is quantized onto. The
    bias is never quantized.
    """

    name: str
    weights: Tensor
    bias: Tensor
    shadow_weights: Tensor | None = None
    quantizer: QuantizerSpec | None = None


@dataclass(frozen=True)
class LayerSpec:
    """Declarative description of one layer; serializable to JSON."""

    kind: str  # dense | conv5x5 | maxpool2 | relu | softmax | dropout
    units: int | None = None  # dense output width
    maps: int | None = None  # conv5x5 output feature maps
    rate: float | None = None  # dropout rate
    group: str | None = None  # weight-group name for dense/conv5x5

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        for key in ("units", "maps", "rate", "group"):
            v = getattr(self, key)
            if v is not None:
                d[key] = v
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "LayerSpec":
        return cls(
            kind=d["kind"],
            units=d.get("units"),
            maps=d.get("maps"),
            rate=d.get("rate"),
            group=d.get("group"),
        )


@dataclass(frozen=True)
class NetworkSpec:
    """Ordered layer list plus the input shape and class count."""

    input_shape: tuple[int, ...]
    classes: int
    layers: tuple[LayerSpec, ...]

    def to_dict(self) -> dict:
        return {
            "input_shape": list(self.input_shape),
            "classes": self.classes,
            "layers": [layer.to_dict() for layer in self.layers],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NetworkSpec":
        return cls(
            input_shape=tuple(d["input_shape"]),
            classes=int(d["classes"]),
            layers=tuple(LayerSpec.from_dict(x) for x in d["layers"]),
        )


# ---------------------------------------------------------------------------
# Layer implementations (batched, sample axis first)
# ---------------------------------------------------------------------------


class _DenseLayer:
    def __init__(self, group: WeightGroup):
        self.group = group

    def forward(self, x, rng):
        return self.infer(x), (x.reshape(x.shape[0], -1), x.shape)

    def infer(self, x):
        flat = x.reshape(x.shape[0], -1)  # channel-major flatten
        return flat @ self.group.weights.ndarray + self.group.bias.ndarray

    def backward(self, dy, cache, need_dx=True):
        x, orig_shape = cache
        dw = x.T @ dy
        db = dy.sum(axis=0)
        if not need_dx:
            return None, (dw, db)
        dx = (dy @ self.group.weights.ndarray.T).reshape(orig_shape)
        return dx, (dw, db)


# The one unfold workspace of every conv layer (``_scratch``). A view of it is
# valid only inside the layer call that took it, so no cache holds one. It is
# not thread-safe: the package starts no threads, and --jobs uses processes.
_workspace = np.empty(0)


def _scratch(rows: int, cols: int) -> np.ndarray:
    """A [rows, cols] float64 view of the workspace, grown first if it is too
    small. Its entries are whatever the last call left there."""
    global _workspace
    if _workspace.size < rows * cols:
        _workspace = np.empty(0)  # release the old buffer before the new one
        _workspace = np.empty(rows * cols)
    return _workspace[: rows * cols].reshape(rows, cols)


def _im2col(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Unfold a [N, C, H, W] batch, zero-padded for a same-size 5x5 conv, into
    ``out``, a contiguous tap-major [C*25, N*H*W] patch matrix: row (c, dy,
    dx), in the order of a flattened kernel, holds input channel c shifted by
    tap (dy, dx) at every output pixel (i, y, x). Each row is a run of whole
    image rows, so the unfold copies contiguous stretches of the padded input."""
    xp = np.pad(x, ((0, 0), (0, 0), (CONV_PAD, CONV_PAD), (CONV_PAD, CONV_PAD)))
    windows = sliding_window_view(xp, (KERNEL_SIZE, KERNEL_SIZE), axis=(2, 3))
    taps = windows.transpose(1, 4, 5, 0, 2, 3)  # [C, 5, 5, N, H, W]
    out.reshape(taps.shape)[...] = taps
    return out


def _unfold(x: np.ndarray) -> np.ndarray:
    """The patch matrix of x, unfolded into the workspace."""
    n, c, h, w = x.shape
    return _im2col(x, _scratch(c * KERNEL_SIZE**2, n * h * w))


def _sample_runs(x_shape: tuple) -> list[tuple[int, int]]:
    """[start, stop) sample runs of a conv batch, each one column block of the
    inference GEMM or the dX GEMM: one run when the batch's patch matrix fits
    in SLICE_BYTES, more only when it would pass that bound.

    Every run computes each output bit for bit as one whole-batch GEMM does
    (measured with OpenBLAS 0.3.31). Each run but the last spans a multiple of
    8 patch columns, because a block that ends inside a kernel tile sums its
    last columns in another order. No run builds less than about half the
    bound, so the remainder joins the last run: a small block sums in another
    order too (OpenBLAS takes a small-matrix kernel up to 10^6 multiply-adds)."""
    n, c, h, w = x_shape
    unit = 8 // math.gcd(h * w, 8)  # samples per multiple of 8 columns
    per_sample = 8 * KERNEL_SIZE**2 * c * h * w
    step = max(unit, SLICE_BYTES // per_sample // unit * unit)
    starts = list(range(0, max(n - step, 0) + 1, step))
    return list(zip(starts, starts[1:] + [n]))


def _channel_blocks(x_shape: tuple) -> list[tuple[int, int]]:
    """[c0, c1) input-channel blocks of a conv's dW GEMM, each unfolded alone
    into whole patch rows of dW: one block when the batch's patch matrix fits
    in SLICE_BYTES or C is not a multiple of 8. Each block spans a multiple of
    8 channels (200 patch rows, so it starts on an 8-column tile of dW), as
    many as fit in SLICE_BYTES or else 8; the remainder joins the last block.
    N*H*W, which orders the sums, is never split, so every block gives the
    bits of one whole-batch GEMM (measured with OpenBLAS 0.3.31)."""
    n, c, h, w = x_shape
    per_channel = 8 * KERNEL_SIZE**2 * n * h * w  # patch bytes of one channel
    if c % 8 or c * per_channel <= SLICE_BYTES:
        return [(0, c)]
    step = 8 * max(1, SLICE_BYTES // (8 * per_channel))
    starts = list(range(0, c - step + 1, step))
    return list(zip(starts, starts[1:] + [c]))


def _input_grad(k: np.ndarray, dyf: np.ndarray, x_shape: tuple) -> np.ndarray:
    """dX of a same-size 5x5 conv with kernels ``k`` from the [N*H*W, C_out]
    output gradient ``dyf``: the adjoint of _im2col applied to K^T dY.

    Each sample run's [C*25, run*H*W] tap gradients come from one GEMM into
    the workspace and are added tap by tap, in kernel order, onto a zeroed
    channel-major padded gradient, so no whole-batch patch gradient is built."""
    n, c, h, w = x_shape
    kt = k.reshape(k.shape[0], -1).T
    hw, p = h * w, CONV_PAD
    dxp = np.zeros((c, n, h + 2 * p, w + 2 * p), dtype=np.float64)
    for s, e in _sample_runs(x_shape):
        taps = _scratch(c * KERNEL_SIZE**2, (e - s) * hw)
        np.matmul(kt, dyf[s * hw : e * hw].T, out=taps)  # [C*25, run*H*W]
        taps = taps.reshape(c, KERNEL_SIZE, KERNEL_SIZE, e - s, h, w)
        for dy in range(KERNEL_SIZE):
            for dx in range(KERNEL_SIZE):
                dxp[:, s:e, dy : dy + h, dx : dx + w] += taps[:, dy, dx]
    return dxp[:, :, p : p + h, p : p + w].transpose(1, 0, 2, 3)


def _maxpool2_even(x: np.ndarray) -> np.ndarray:
    """2x2 stride-2 max pooling of an even-sized [N, C, H, W] batch.

    Taps are folded in row-major window order with the later tap as the
    first operand of ``np.maximum``, which keeps the earlier tap on ties and
    propagates NaN, so the result is the value of a first-occurrence argmax
    over each window bit for bit (signed zeros included)."""
    out = np.maximum(_tap(x, 1), _tap(x, 0))
    np.maximum(_tap(x, 2), out, out=out)
    np.maximum(_tap(x, 3), out, out=out)
    return out


def _tap(x: np.ndarray, t: int) -> np.ndarray:
    """Strided view of tap t (0..3, row-major) of every 2x2 window of x."""
    return x[:, :, t // 2 :: 2, t % 2 :: 2]


def _maxpool2_taps(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """int8 tap (0..3, row-major) of each window that argmax picks.

    That is the first tap equal to ``out`` or NaN (``out`` is NaN exactly
    when its window holds one), so it counts the taps before it that miss."""
    taps = np.zeros(out.shape, dtype=np.int8)
    missed = np.ones(out.shape, dtype=bool)
    for t in range(3):  # a window whose first three taps miss picks tap 3
        v = _tap(x, t)
        missed &= ~((v == out) | np.isnan(v))
        taps += missed.view(np.int8)
    return taps


def _flat_argmax(taps: np.ndarray, x_shape: tuple) -> np.ndarray:
    """Per-sample flat argmax positions within [C, H, W] of an unpadded
    ``x_shape``, from int8 taps: ties resolve to the smallest flat index."""
    _, c, h, w = x_shape
    _, _, h2, w2 = taps.shape
    corner = (np.arange(c)[:, None, None] * h + 2 * np.arange(h2)[:, None]) * w
    return corner + 2 * np.arange(w2) + np.array([0, 1, w, w + 1])[taps]


class _ConvLayer:
    def __init__(self, group: WeightGroup):
        self.group = group

    def forward(self, x, rng):
        # The cache is the input, not its patch matrix: backward unfolds it
        # again, a block of channels at a time, for the dW GEMM.
        return self.infer(x), x

    def infer(self, x):
        k = self.group.weights.ndarray
        if x.ndim != 4:
            raise DimensionError(f"conv layer expects [N, C, H, W], got {x.shape}")
        if x.shape[1] != k.shape[1]:
            raise DimensionError(
                f"conv channel mismatch: input {x.shape} vs kernels {k.shape}"
            )
        (n, _, h, w), c_out = x.shape, k.shape[0]
        kmat, bias = k.reshape(c_out, -1), self.group.bias.ndarray[:, None]
        y = np.empty((n, c_out, h, w), dtype=np.float64)
        # numpy runs a one-map conv's GEMM as a matrix-vector product, whose
        # bits depend on the column count, so that conv is never split.
        for s, e in _sample_runs(x.shape) if c_out > 1 else [(0, n)]:
            # K @ cols, not cols.T @ K.T: the same products, but BLAS runs this
            # orientation about 3x faster on a CIFAR-sized batch.
            g = kmat @ _unfold(x[s:e])
            g += bias
            y[s:e] = g.reshape(c_out, e - s, h, w).transpose(1, 0, 2, 3)
        return y

    def backward(self, dy, x, need_dx=True):
        c_out = dy.shape[1]
        dyf = dy.transpose(0, 2, 3, 1).reshape(-1, c_out)  # [N*H*W, C_out]
        rows = KERNEL_SIZE**2  # patch rows of one channel
        dw = np.empty((c_out, x.shape[1] * rows))
        for c0, c1 in _channel_blocks(x.shape):
            np.matmul(dyf.T, _unfold(x[:, c0:c1]).T, out=dw[:, c0 * rows : c1 * rows])
        dw = dw.reshape(self.group.weights.shape)
        # Summed down the columns of this copy: a row sum of dyf.T would add
        # pairwise and change db's last bits.
        db = dyf.sum(axis=0)
        if not need_dx:
            return None, (dw, db)
        return _input_grad(self.group.weights.ndarray, dyf, x.shape), (dw, db)


def _pool_input(x: np.ndarray) -> np.ndarray:
    """x with an odd trailing row or column padded by -inf to even size. Tap 0
    of every window is real and padded taps come after it, so a pad never
    wins a tie or an argmax: an odd edge pools as a 1-wide window."""
    if x.ndim != 4:
        raise DimensionError(f"pool layer expects [N, C, H, W], got {x.shape}")
    _, _, h, w = x.shape
    if h % 2 or w % 2:
        x = np.pad(x, ((0, 0), (0, 0), (0, h % 2), (0, w % 2)), constant_values=-np.inf)
    return x


class _MaxPool2Layer:
    group = None

    def forward(self, x, rng):
        xp = _pool_input(x)
        out = _maxpool2_even(xp)
        return out, (_maxpool2_taps(xp, out), x.shape)  # int8 tap per window

    def infer(self, x):
        return _maxpool2_even(_pool_input(x))

    def backward(self, dy, cache):
        taps, x_shape = cache
        n = x_shape[0]
        idx = _flat_argmax(taps, x_shape).reshape(n, -1)
        dx = np.zeros((n, int(np.prod(x_shape[1:]))), dtype=np.float64)
        # Pool windows are disjoint, so plain assignment routes every gradient.
        np.put_along_axis(dx, idx, dy.reshape(n, -1), axis=1)
        return dx.reshape(x_shape), None


class _ReluLayer:
    group = None

    def forward(self, x, rng):
        # The mask first: taking it after infer raised peak RSS in cnn-train.
        mask = x > 0
        return self.infer(x), mask

    def infer(self, x):
        # Branch-free max(x, 0): fmax maps NaN to 0.0, and += 0.0 turns the
        # -0.0 it may return into +0.0, so every value x > 0 rejects is +0.0.
        y = np.fmax(x, 0.0)
        y += 0.0
        return y

    def backward(self, dy, cache):
        return dy * cache, None


class _DropoutLayer:
    group = None

    def __init__(self, rate: float):
        self.rate = rate  # checked in _walk_shapes

    def forward(self, x, rng):
        if rng is None or self.rate == 0.0:
            return x, None
        keep = rng.uniform(x.shape) >= self.rate
        mask = keep / (1.0 - self.rate)  # inverted dropout: eval path scales nothing
        return x * mask, mask

    def infer(self, x):
        return x

    def backward(self, dy, cache):
        if cache is None:
            return dy, None
        return dy * cache, None


class _SoftmaxLayer:
    group = None

    def forward(self, x, rng):
        return self.infer(x), x  # the logits, for logit_cross_entropy

    def infer(self, x):
        z = x - x.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=1, keepdims=True)


def _make_layer(spec: LayerSpec, groups: dict[str, WeightGroup]):
    if spec.kind in ("dense", "conv5x5"):
        if spec.group not in groups:
            raise ConfigError(
                f"layer references unknown weight group {spec.group!r}"
            )
        cls = _DenseLayer if spec.kind == "dense" else _ConvLayer
        return cls(groups[spec.group])
    if spec.kind == "maxpool2":
        return _MaxPool2Layer()
    if spec.kind == "relu":
        return _ReluLayer()
    if spec.kind == "dropout":
        return _DropoutLayer(spec.rate or 0.0)
    if spec.kind == "softmax":
        return _SoftmaxLayer()
    raise ConfigError(f"unknown layer kind {spec.kind!r}")


# ---------------------------------------------------------------------------
# Network
# ---------------------------------------------------------------------------


@dataclass
class ForwardCache:
    """Activations retained by one forward call for the matching backward.

    ``layer_caches`` holds one entry per layer below the softmax; backward
    takes the list and pops each entry as it consumes it, leaving None, so
    a cache serves one backward only. ``logits`` is the softmax input.
    """

    net: "Network"
    param_version: int
    layer_caches: list | None
    probs: np.ndarray
    logits: np.ndarray


class Network:
    """Ordered layer stack with named weight groups."""

    def __init__(self, spec: NetworkSpec, groups: dict[str, WeightGroup]):
        _walk_shapes(spec)  # the one spec check, dropout rates included
        self.spec = spec
        self.groups = groups
        self.layers = [_make_layer(ls, groups) for ls in spec.layers]
        self._param_version = 0

    def mark_params_changed(self) -> None:
        """Invalidate outstanding forward caches after a weight update."""
        self._param_version += 1

    def copy(self) -> "Network":
        """Independent network sharing this one's (immutable) tensors."""
        groups = {name: replace(g) for name, g in self.groups.items()}
        return Network(self.spec, groups)


def forward(
    net: Network, batch: np.ndarray, rng: Rng | None = None
) -> tuple[np.ndarray, ForwardCache]:
    """The training pass: class probabilities of a batch (read-only, as the
    cache holds them too) and the cache ``backward`` needs, tied to the
    parameter values used here. Dropout is active exactly when ``rng`` is
    given. The batch is never written to."""
    x = _checked_batch(net, np.asarray(batch, dtype=np.float64))
    caches = []
    for layer in net.layers:
        x, cache = layer.forward(x, rng)
        caches.append(cache)
    logits = caches.pop()  # the softmax's cache
    x.flags.writeable = False  # backward reads the returned probabilities
    return x, ForwardCache(net, net._param_version, caches, x, logits)


def predict(net: Network, batch: np.ndarray) -> np.ndarray:
    """The inference pass: class probabilities of a batch with dropout
    disabled, keeping no caches. The batch is never written to."""
    x = _checked_batch(net, np.asarray(batch, dtype=np.float64))
    for layer in net.layers:
        x = layer.infer(x)
    return x


def _checked_batch(net: Network, x: np.ndarray) -> np.ndarray:
    if x.shape[1:] != net.spec.input_shape:
        raise DimensionError(
            f"batch shape {x.shape} does not match input shape {net.spec.input_shape}"
        )
    return x


def backward(
    net: Network, cache: ForwardCache, targets: Sequence[int]
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Gradients of mean cross-entropy w.r.t. every weight group.

    Returns {group name: (dW, db)}. The cache must come from the most recent
    forward call on this network; a cache that predates a weight update is
    rejected as stale, and one that a backward already consumed is rejected.
    """
    if cache.layer_caches is None:
        raise UsageError("forward cache already consumed by an earlier backward")
    if cache.net is not net:
        raise UsageError("backward called with a cache from a different network")
    if cache.param_version != net._param_version:
        raise UsageError(
            "stale forward cache: network parameters changed since the forward pass"
        )
    t = np.asarray(targets, dtype=np.int64)
    n = cache.probs.shape[0]
    if t.shape != (n,):
        raise DimensionError(f"targets shape {t.shape} does not match batch size {n}")
    dy = cache.probs.copy()
    dy[np.arange(n), t] -= 1.0
    dy /= n  # d(mean cross-entropy)/d(logits) through the softmax
    # Each layer's cache is released as soon as its backward step is done.
    caches, cache.layer_caches = cache.layer_caches, None
    # No layer below the lowest weight layer owns a weight, so the pass stops
    # there and that layer computes no input gradient.
    lowest = next(
        (i for i, layer in enumerate(net.layers) if layer.group is not None), None
    )
    grads: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for layer in net.layers[-2:lowest:-1]:
        dy, wgrad = layer.backward(dy, caches.pop())
        if wgrad is not None:
            grads[layer.group.name] = wgrad
    if lowest is not None:
        layer = net.layers[lowest]
        grads[layer.group.name] = layer.backward(dy, caches.pop(), need_dx=False)[1]
    return grads


def cross_entropy(probs: np.ndarray, targets: Sequence[int]) -> float:
    """Mean negative log-probability of the target classes."""
    t = np.asarray(targets, dtype=np.int64)
    picked = probs[np.arange(probs.shape[0]), t]
    with np.errstate(divide="ignore"):
        return float(-np.mean(np.log(picked)))


def logit_cross_entropy(cache: ForwardCache, targets: Sequence[int]) -> float:
    """Mean cross-entropy by log-sum-exp over the logits the softmax of
    ``cache`` saw: finite wherever they are, also when a picked probability
    underflows to 0 and ``cross_entropy`` returns inf."""
    z = cache.logits
    z = z - z.max(axis=1, keepdims=True)
    picked = z[np.arange(z.shape[0]), np.asarray(targets, dtype=np.int64)]
    return float(np.mean(np.log(np.exp(z).sum(axis=1)) - picked))


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def group_shapes(spec: NetworkSpec) -> dict[str, tuple[tuple, tuple]]:
    """(weight shape, bias shape) of every weight group of ``spec``, in layer
    order. Validates the layer stack without drawing any initialization."""
    return _walk_shapes(spec)[0]


def eval_chunk(spec: NetworkSpec) -> int:
    """Samples per evaluation chunk: EVAL_BATCH, or as many as keep the
    largest activation of a chunk within SLICE_BYTES."""
    return max(1, min(EVAL_BATCH, SLICE_BYTES // _walk_shapes(spec)[1]))


def _walk_shapes(spec: NetworkSpec) -> tuple[dict[str, tuple[tuple, tuple]], int]:
    """``group_shapes`` and the largest input or layer output, in float64 bytes."""
    if not spec.layers or spec.layers[-1].kind != "softmax":
        raise ConfigError("a network must end with a softmax layer")
    shapes: dict[str, tuple[tuple, tuple]] = {}
    shape, largest = tuple(spec.input_shape), 8 * math.prod(spec.input_shape)
    if any(d <= 0 for d in shape):
        raise ConfigError(f"input shape entries must be positive, got {list(shape)}")
    for ls in spec.layers:
        if ls.group is not None and ls.group in shapes:
            raise ConfigError(f"weight group {ls.group!r} is declared twice")
        if ls.kind in ("conv5x5", "maxpool2") and len(shape) != 3:
            raise ConfigError(f"{ls.kind} layer needs [C, H, W] input, got {shape}")
        if ls.kind == "dense":
            fan_in = int(math.prod(shape))
            if ls.units is None or ls.units <= 0 or ls.group is None:
                raise ConfigError(f"bad dense layer spec {ls}")
            shapes[ls.group] = ((fan_in, ls.units), (ls.units,))
            shape = (ls.units,)
        elif ls.kind == "conv5x5":
            if ls.maps is None or ls.maps <= 0 or ls.group is None:
                raise ConfigError(f"bad conv layer spec {ls}")
            c, h, w = shape
            shapes[ls.group] = ((ls.maps, c, KERNEL_SIZE, KERNEL_SIZE), (ls.maps,))
            shape = (ls.maps, h, w)
        elif ls.kind == "maxpool2":
            c, h, w = shape
            shape = (c, (h + 1) // 2, (w + 1) // 2)
        elif ls.kind == "dropout":
            rate = 0.0 if ls.rate is None else ls.rate
            real = isinstance(rate, numbers.Real) and not isinstance(rate, bool)
            if not (real and 0.0 <= rate < 1.0):
                raise ConfigError(f"dropout rate must be in [0, 1), got {rate!r}")
        elif ls.kind not in ("relu", "softmax"):
            raise ConfigError(f"unknown layer kind {ls.kind!r}")
        largest = max(largest, 8 * math.prod(shape))
    if shape != (spec.classes,):
        raise ConfigError(
            f"layer stack produces shape {shape}, expected ({spec.classes},)"
        )
    return shapes, largest


def _init_group(name: str, w_shape: tuple, b_shape: tuple, rng: Rng) -> WeightGroup:
    # Zero-mean uniform with half-width sqrt(6 / fan_in); biases start at 0.
    fan_in = int(np.prod(w_shape)) // b_shape[0]  # weights feeding one output
    lim = math.sqrt(6.0 / fan_in)
    w = rng.uniform(w_shape, -lim, lim)
    return WeightGroup(name=name, weights=Tensor._wrap(w), bias=Tensor.zeros(b_shape))


def build_from_spec(spec: NetworkSpec, seed: int = 0) -> Network:
    """Materialize a network from its spec with fresh seeded initialization."""
    rng = Rng(seed).spawn("init")
    groups = {
        name: _init_group(name, w_shape, b_shape, rng)
        for name, (w_shape, b_shape) in group_shapes(spec).items()
    }
    return Network(spec, groups)


def ffdnn_group_names(hidden_layers: int) -> list[str]:
    """Weight-group names of an FFDNN: In-h1, h1-h2, ..., h{L}-out (In-out at L=0)."""
    nodes = ["In"] + [f"h{i}" for i in range(1, hidden_layers + 1)] + ["out"]
    return [f"{a}-{b}" for a, b in zip(nodes, nodes[1:])]


def cnn_group_names(levels: int) -> list[str]:
    """Weight-group names of a CNN with ``levels`` conv stages: C1..Ck, FC, Out."""
    return [f"C{i}" for i in range(1, levels + 1)] + ["FC", "Out"]


def build_ffdnn(
    input_dim: int,
    hidden_units: int,
    hidden_layers: int,
    output_dim: int,
    dropout_rate: float = 0.2,
    seed: int = 0,
) -> Network:
    """Fully connected classifier: L x (dense + ReLU + dropout), dense, softmax.

    Weight groups are named In-h1, h1-h2, ..., h{L}-out; with no hidden
    layers the single group is In-out.
    """
    if input_dim <= 0 or output_dim <= 0 or hidden_layers < 0:
        raise ConfigError(
            f"dimensions must be positive (got input {input_dim}, "
            f"hidden layers {hidden_layers}, output {output_dim})"
        )
    if hidden_layers > 0 and hidden_units <= 0:
        raise ConfigError(f"hidden unit count must be positive, got {hidden_units}")
    *hidden, out = ffdnn_group_names(hidden_layers)
    layers: list[LayerSpec] = []
    for name in hidden:
        layers.append(LayerSpec(kind="dense", units=hidden_units, group=name))
        layers.append(LayerSpec(kind="relu"))
        layers.append(LayerSpec(kind="dropout", rate=dropout_rate))
    layers.append(LayerSpec(kind="dense", units=output_dim, group=out))
    layers.append(LayerSpec(kind="softmax"))
    spec = NetworkSpec(
        input_shape=(input_dim,), classes=output_dim, layers=tuple(layers)
    )
    return build_from_spec(spec, seed=seed)


def build_cnn(
    map_counts: Sequence[int],
    input_shape: tuple[int, int, int] = (3, 32, 32),
    fc_units: int = 64,
    classes: int = 10,
    seed: int = 0,
) -> Network:
    """Convolutional classifier: per level conv5x5 + ReLU + max-pool, then a
    dense hidden layer and softmax output. The dense head is fixed regardless
    of the feature-map configuration. Groups: C1..Ck, FC, Out.
    """
    map_counts = list(map_counts)
    if not 1 <= len(map_counts) <= 3:
        raise ConfigError(
            f"map_counts must have 1 to 3 levels, got {len(map_counts)}"
        )
    if any(m <= 0 for m in map_counts) or fc_units <= 0 or classes <= 0:
        raise ConfigError(f"sizes must be positive: maps {map_counts}, "
                          f"fc {fc_units}, classes {classes}")
    *convs, fc, out = cnn_group_names(len(map_counts))
    layers: list[LayerSpec] = []
    for name, maps in zip(convs, map_counts):
        layers.append(LayerSpec(kind="conv5x5", maps=maps, group=name))
        layers.append(LayerSpec(kind="relu"))
        layers.append(LayerSpec(kind="maxpool2"))
    layers.append(LayerSpec(kind="dense", units=fc_units, group=fc))
    layers.append(LayerSpec(kind="relu"))
    layers.append(LayerSpec(kind="dense", units=classes, group=out))
    layers.append(LayerSpec(kind="softmax"))
    spec = NetworkSpec(
        input_shape=tuple(input_shape), classes=classes, layers=tuple(layers)
    )
    return build_from_spec(spec, seed=seed)


# ---------------------------------------------------------------------------
# Accounting
# ---------------------------------------------------------------------------


def count_params(net: Network) -> int:
    """Total learnable parameter count (weights plus biases)."""
    return sum(g.weights.size + g.bias.size for g in net.groups.values())


def count_weight_bits(net: Network, bits_per_weight: int) -> int:
    """Storage bits for all parameters at the given weight precision.

    Weights cost ``bits_per_weight`` each; biases always cost 32 bits since
    they are never quantized.
    """
    if bits_per_weight < 2:
        raise ConfigError(f"bits per weight must be >= 2, got {bits_per_weight}")
    weights = sum(g.weights.size for g in net.groups.values())
    biases = sum(g.bias.size for g in net.groups.values())
    return weights * bits_per_weight + biases * BIAS_BITS
