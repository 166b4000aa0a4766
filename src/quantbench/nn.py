"""Layers, network assembly, and manual forward/backward passes.

All layer math lives here. A conv layer unfolds its input into a contiguous
tap-major [C*25, N*H*W] patch matrix (``_im2col``), each row a run of whole
image rows, written into one module-level workspace (``_scratch``) that every
conv call reuses and grows on demand. SLICE_BYTES bounds every patch matrix a
conv builds, except where a split would change bits (below). A conv has one
computation, ``_conv``: a batch whose patch matrix would pass SLICE_BYTES is
unfolded in sample runs (``_sample_runs``), each run's output written
straight into one preallocated output. Inference and the training forward
call it with the layer's kernels, and backward computes dX with it too: the
input gradient of a same-size conv is the same-size conv of dY with the
kernels flipped in both spatial axes and their channel axes swapped. The
training forward caches its input, not a patch matrix: backward unfolds that
input again for the dW GEMM, in blocks of patch rows (``_row_blocks``), each
block filling whole columns of dW; a block's unit is C_out rows rounded up to
8, or 32 rows when C_out is at most 16. So no cache holds a view of
the workspace, and any number of forwards or inference passes may run before
a backward. One slice rule (``_runs``) cuts both: the fewest runs of whole
aligned units that each fit SLICE_BYTES, the units spread evenly and no run
small, so each slice gives every bit of one whole-batch GEMM (measured with
OpenBLAS 0.3.31 at 1 and 2 threads; docstrings below). A unit that
alone passes the bound is one run; a one-map conv, and a dW GEMM whose
OpenBLAS tail kernels would sum a block in another order, are never split.
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
ReLU mask or pool argmax outlives its layer; it is the softmax of ``logits``,
the pass stopped below it, whose largest entry ``classes`` reads. In training
the pool caches the winning tap of each window as an int8 (``_maxpool2_taps``),
which backward turns into argmax positions. ``backward`` pops each layer's
cache as it consumes it, so a ``ForwardCache`` serves exactly one backward
pass, and it stops at the lowest layer that owns a weight group: no layer
below it has a weight, so that layer computes no input gradient.

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
from dataclasses import asdict, dataclass, fields, replace
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
MAX_CNN_LEVELS = 3  # conv + ReLU + pool stages of a CNN at most


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
        return {k: v for k, v in asdict(self).items() if v is not None}

    @classmethod
    def from_dict(cls, d: dict) -> "LayerSpec":
        return cls(**{f.name: d.get(f.name) for f in fields(cls)})


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
        y = flat @ self.group.weights.ndarray
        y += self.group.bias.ndarray
        return y

    def backward(self, dy, cache, need_dx=True, out=None):
        x, orig_shape = cache
        dw, db = (None, None) if out is None else out
        dw = np.matmul(x.T, dy, out=dw)
        db = dy.sum(axis=0, out=db)
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


def _im2col(x: np.ndarray, out: np.ndarray, start: int = 0) -> np.ndarray:
    """Unfold rows [start, start + len(out)) of the patch matrix of a
    [N, C, H, W] batch, zero-padded for a same-size 5x5 conv, into ``out``.
    The patch matrix is tap-major [C*25, N*H*W]: row (c, dy, dx), in the
    order of a flattened kernel, holds input channel c shifted by tap (dy, dx)
    at every output pixel (i, y, x). Each row is a run of whole image rows, so
    the unfold copies contiguous stretches of the padded input: whole channels
    at once, and single taps only at the edges of the row range. Only the
    channels the range touches are padded."""
    n, _, h, w = x.shape
    taps = KERNEL_SIZE**2
    stop = start + out.shape[0]
    c0, c1 = start // taps, -(-stop // taps)
    xp = np.zeros((n, c1 - c0, h + 2 * CONV_PAD, w + 2 * CONV_PAD))
    xp[:, :, CONV_PAD : CONV_PAD + h, CONV_PAD : CONV_PAD + w] = x[:, c0:c1]
    windows = sliding_window_view(xp, (KERNEL_SIZE, KERNEL_SIZE), axis=(2, 3))
    src = windows.transpose(1, 4, 5, 0, 2, 3)  # [C, 5, 5, N, H, W] from c0
    dst = out.reshape(stop - start, n, h, w)
    a = min(-(-start // taps) * taps, stop)  # rows [a, b) are whole channels
    b = max(stop // taps * taps, a)
    for r in (*range(start, a), *range(b, stop)):
        c, t = divmod(r, taps)
        dst[r - start] = src[c - c0, t // KERNEL_SIZE, t % KERNEL_SIZE]
    whole = dst[a - start : b - start]
    whole.reshape((b - a) // taps, KERNEL_SIZE, KERNEL_SIZE, n, h, w)[...] = (
        src[a // taps - c0 : b // taps - c0]
    )
    return out


def _unfold(x: np.ndarray, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Rows [start, stop) of the patch matrix of x, all by default, unfolded
    into the workspace."""
    n, c, h, w = x.shape
    stop = c * KERNEL_SIZE**2 if stop is None else stop
    return _im2col(x, _scratch(stop - start, n * h * w), start)


def _runs(count: int, unit: int, item_bytes: int) -> list[tuple[int, int]]:
    """[start, stop) runs of ``count`` items of ``item_bytes`` patch bytes:
    one if all fit in SLICE_BYTES, else the fewest runs of whole ``unit``s
    that each fit, the units spread evenly, so every run starts on a unit.
    The last unit may be partial; alone in the last run it would be small if
    it held under a quarter of the bound, or one item (one patch row, or one
    sample of one pixel, makes a matrix-vector product), so then it joins
    the run before it. So no run is small, and a run passes the bound only
    when it holds one unit (and that partial one)."""
    if count * item_bytes <= SLICE_BYTES:
        return [(0, count)]
    units = -(-count // unit)
    k = -(-units // max(1, SLICE_BYTES // (unit * item_bytes)))  # fewest runs
    starts = [unit * (i * units // k) for i in range(k)]
    tail = count - starts[-1]
    small = tail < 2 or tail * item_bytes < SLICE_BYTES // 4
    if k > 1 and tail < unit and small:
        starts.pop()
    return list(zip(starts, starts[1:] + [count]))


def _sample_runs(x_shape: tuple, c_out: int) -> list[tuple[int, int]]:
    """[start, stop) sample runs of a conv batch with ``c_out`` output maps,
    each one column block of its GEMM in ``_conv``. Each run but the last
    spans a multiple of 8 patch columns, because a block that ends inside a
    kernel tile sums its last columns in another order. No run is small,
    because a small block sums in another order too (OpenBLAS takes a
    small-matrix kernel up to 10^6 multiply-adds, and numpy a matrix-vector
    product for one column). numpy runs a one-map conv's GEMM as a
    matrix-vector product, whose bits depend on the column count, so that
    conv is one run. So every run computes each output bit for bit as one
    whole-batch GEMM does (measured with OpenBLAS 0.3.31 at 1 and 2
    threads)."""
    n, c, h, w = x_shape
    if c_out == 1:
        return [(0, n)]
    # 8 // gcd(h*w, 8) samples span a multiple of 8 columns.
    return _runs(n, 8 // math.gcd(h * w, 8), 8 * KERNEL_SIZE**2 * c * h * w)


def _row_blocks(x_shape: tuple, c_out: int) -> list[tuple[int, int]]:
    """[r0, r1) patch-row blocks of the dW GEMM of a conv with ``c_out``
    output maps, each unfolded alone into whole columns of dW. A unit is
    C_out rows rounded up to 8, so each block starts on an 8-column tile of
    dW, and the dY each whole unit reads again is no larger than the unit.
    N*H*W, which orders the sums, is never split. Two more rules follow
    OpenBLAS 0.3.31's SkylakeX kernels and its thread split at 1 and 2
    threads, where every block was measured to give the bits of one
    whole-batch GEMM; another BLAS build, core or thread count is not
    covered by that measurement:
    - A GEMM of at most 16 rows and under 32 columns runs on one thread,
      which sums in another order than the threaded whole, so with at most
      16 maps a unit is 32 patch rows and no block of a split dW holds
      fewer.
    - A row count that is not a multiple of 8 leaves its last rows to narrow
      tail kernels, whose sums follow the whole GEMM's blocking and thread
      split. A block reproduces them only when the whole fits one 192-row
      OpenBLAS block and the conv has at most 32 maps; otherwise dW is one
      block, so its patch matrix may pass SLICE_BYTES, as it is for one map
      (a vector-matrix product)."""
    n, c, h, w = x_shape
    rows = c * KERNEL_SIZE**2
    if c_out == 1 or rows % 8 and (rows > 192 or c_out > 32):
        return [(0, rows)]
    unit = 32 if c_out <= 16 else -(-c_out // 8) * 8
    blocks = _runs(rows, unit, 8 * n * h * w)
    if c_out <= 16 and rows - blocks[-1][0] < 32 < rows:  # a short last block
        blocks[-2:] = [(blocks[-2][0], rows)]
    return blocks


def _conv(x: np.ndarray, k: np.ndarray, bias: np.ndarray | None) -> np.ndarray:
    """Same-size 5x5 conv of a [N, C, H, W] batch with [C_out, C, 5, 5]
    kernels ``k``, plus ``bias`` per output map unless it is None."""
    (n, _, h, w), c_out = x.shape, k.shape[0]
    kmat = k.reshape(c_out, -1)
    y = np.empty((n, c_out, h, w), dtype=np.float64)
    for s, e in _sample_runs(x.shape, c_out):
        # K @ cols, not cols.T @ K.T: the same products, but BLAS runs this
        # orientation about 3x faster on a CIFAR-sized batch.
        g = kmat @ _unfold(x[s:e])
        if bias is not None:
            g += bias[:, None]
        y[s:e] = g.reshape(c_out, e - s, h, w).transpose(1, 0, 2, 3)
    return y


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
        # again, a block of patch rows at a time, for the dW GEMM.
        return self.infer(x), x

    def infer(self, x):
        k = self.group.weights.ndarray
        if x.ndim != 4:
            raise DimensionError(f"conv layer expects [N, C, H, W], got {x.shape}")
        if x.shape[1] != k.shape[1]:
            raise DimensionError(
                f"conv channel mismatch: input {x.shape} vs kernels {k.shape}"
            )
        return _conv(x, k, self.group.bias.ndarray)

    def backward(self, dy, x, need_dx=True, out=None):
        c_out = dy.shape[1]
        dyf = dy.transpose(0, 2, 3, 1).reshape(-1, c_out)  # [N*H*W, C_out]
        dw, db = (np.empty(self.group.weights.shape), None) if out is None else out
        for r0, r1 in _row_blocks(x.shape, c_out):  # into whole columns of dw
            np.matmul(dyf.T, _unfold(x, r0, r1).T, out=dw.reshape(c_out, -1)[:, r0:r1])
        # Summed down the columns of this copy: a row sum of dyf.T would add
        # pairwise and change db's last bits.
        db = dyf.sum(axis=0, out=db)
        if not need_dx:
            return None, (dw, db)
        # dX is the same-size conv of dY with each kernel flipped in both
        # spatial axes and the channel axes swapped.
        k = self.group.weights.ndarray[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        return _conv(dy, k, None), (dw, db)


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
        weighted = [i for i, layer in enumerate(self.layers) if layer.group is not None]
        self._lowest_weight_layer = weighted[0] if weighted else None
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


def logits(net: Network, batch: np.ndarray) -> np.ndarray:
    """The inference pass below the softmax: the logits of a batch with
    dropout disabled, keeping no caches. The batch is never written to."""
    x = _checked_batch(net, np.asarray(batch, dtype=np.float64))
    for layer in net.layers[:-1]:  # _walk_shapes: the last layer is the softmax
        x = layer.infer(x)
    return x


def predict(net: Network, batch: np.ndarray) -> np.ndarray:
    """The inference pass: class probabilities of a batch, the softmax of
    ``logits``."""
    return net.layers[-1].infer(logits(net, batch))


def classes(net: Network, batch: np.ndarray) -> np.ndarray:
    """Predicted class of each sample: its largest logit, the first on ties.
    A row whose largest logit is NaN or +inf gets class 0, as the argmax of
    ``predict``'s all-NaN row gives."""
    z = logits(net, batch)
    top = z.argmax(axis=1)
    return np.where(z[np.arange(top.size), top] < np.inf, top, 0)


def _checked_batch(net: Network, x: np.ndarray) -> np.ndarray:
    if x.shape[1:] != net.spec.input_shape:
        raise DimensionError(
            f"batch shape {x.shape} does not match input shape {net.spec.input_shape}"
        )
    return x


def backward(
    net: Network, cache: ForwardCache, targets: Sequence[int], out: dict | None = None
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Gradients of mean cross-entropy w.r.t. every weight group.

    Returns {group name: (dW, db)}, written into the contiguous arrays of
    ``out`` (of the same form) when it is given. The cache must come from the
    most recent forward call on this network; a cache that predates a weight
    update is rejected as stale, and one that a backward already consumed is
    rejected.
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
    lowest = net._lowest_weight_layer
    grads: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for i in range(len(net.layers) - 2, -1 if lowest is None else lowest - 1, -1):
        layer = net.layers[i]
        if layer.group is None:
            dy = layer.backward(dy, caches.pop())[0]
        else:
            name = layer.group.name
            dy, grads[name] = layer.backward(
                dy, caches.pop(), need_dx=i != lowest, out=out and out[name]
            )
    return grads


def cross_entropy(probs: np.ndarray, targets: Sequence[int]) -> float:
    """Mean negative log-probability of the target classes."""
    t = np.asarray(targets, dtype=np.int64)
    picked = probs[np.arange(probs.shape[0]), t]
    with np.errstate(divide="ignore"):  # np.mean's bits, without its overhead
        return float(-(np.log(picked).sum() / picked.size))


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
    if not 1 <= len(map_counts) <= MAX_CNN_LEVELS:
        raise ConfigError(
            f"map_counts must have 1 to {MAX_CNN_LEVELS} levels, got {len(map_counts)}"
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
