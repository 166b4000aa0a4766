"""Layers, network assembly, and manual forward/backward passes.

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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DimensionError, UsageError
from .quantizer import QuantizerSpec
from .tensor import Rng, Tensor, _col2im, _im2col, _maxpool2_batch

KERNEL_SIZE = 5
CONV_PAD = 2
BIAS_BITS = 32  # biases always stay full width


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

    def forward(self, x, mode, rng):
        orig_shape = x.shape
        if x.ndim > 2:
            x = x.reshape(x.shape[0], -1)  # channel-major flatten
        z = x @ self.group.weights.ndarray + self.group.bias.ndarray
        return z, (x, orig_shape)

    def backward(self, dy, cache):
        x, orig_shape = cache
        dw = x.T @ dy
        db = dy.sum(axis=0)
        dx = (dy @ self.group.weights.ndarray.T).reshape(orig_shape)
        return dx, (dw, db)


class _ConvLayer:
    def __init__(self, group: WeightGroup):
        self.group = group

    def forward(self, x, mode, rng):
        if x.ndim != 4:
            raise DimensionError(f"conv layer expects [N, C, H, W], got {x.shape}")
        k = self.group.weights.ndarray
        if x.shape[1] != k.shape[1]:
            raise DimensionError(
                f"conv channel mismatch: input {x.shape} vs kernels {k.shape}"
            )
        n, _, h, w = x.shape
        c_out = k.shape[0]
        cols = _im2col(x, KERNEL_SIZE, CONV_PAD)  # [N, H*W, C_in*25]
        y = cols @ k.reshape(c_out, -1).T + self.group.bias.ndarray
        y = y.transpose(0, 2, 1).reshape(n, c_out, h, w)
        return y, (cols, x.shape)

    def backward(self, dy, cache):
        cols, x_shape = cache
        n, c_in, h, w = x_shape
        c_out = dy.shape[1]
        dyf = dy.transpose(0, 2, 3, 1).reshape(-1, c_out)  # [N*H*W, C_out]
        colsf = cols.reshape(-1, cols.shape[2])
        dw = (dyf.T @ colsf).reshape(self.group.weights.shape)
        db = dyf.sum(axis=0)
        k = self.group.weights.ndarray
        dcols = (dyf @ k.reshape(c_out, -1)).reshape(cols.shape)
        dx = _col2im(dcols, x_shape, KERNEL_SIZE, CONV_PAD)
        return dx, (dw, db)


class _MaxPool2Layer:
    group = None

    def forward(self, x, mode, rng):
        if x.ndim != 4:
            raise DimensionError(f"pool layer expects [N, C, H, W], got {x.shape}")
        out, idx = _maxpool2_batch(x)
        return out, (idx, x.shape)

    def backward(self, dy, cache):
        idx, x_shape = cache
        n = x_shape[0]
        dx = np.zeros((n, int(np.prod(x_shape[1:]))), dtype=np.float64)
        # Pool windows are disjoint, so plain assignment routes every gradient.
        np.put_along_axis(dx, idx.reshape(n, -1), dy.reshape(n, -1), axis=1)
        return dx.reshape(x_shape), None


class _ReluLayer:
    group = None

    def forward(self, x, mode, rng):
        mask = x > 0
        return np.where(mask, x, 0.0), mask

    def backward(self, dy, cache):
        return dy * cache, None


class _DropoutLayer:
    group = None

    def __init__(self, rate: float):
        if not 0.0 <= rate < 1.0:
            raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate

    def forward(self, x, mode, rng):
        if mode != "train" or self.rate == 0.0:
            return x, None
        if rng is None:
            raise UsageError("training-mode forward through dropout requires an Rng")
        keep = rng.uniform(x.shape) >= self.rate
        mask = keep / (1.0 - self.rate)  # inverted dropout: eval path scales nothing
        return x * mask, mask

    def backward(self, dy, cache):
        if cache is None:
            return dy, None
        return dy * cache, None


class _SoftmaxLayer:
    group = None

    def forward(self, x, mode, rng):
        z = x - x.max(axis=1, keepdims=True)
        e = np.exp(z)
        probs = e / e.sum(axis=1, keepdims=True)
        return probs, x  # the logits, for logit_cross_entropy


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
        return _DropoutLayer(spec.rate if spec.rate is not None else 0.0)
    if spec.kind == "softmax":
        return _SoftmaxLayer()
    raise ConfigError(f"unknown layer kind {spec.kind!r}")


# ---------------------------------------------------------------------------
# Network
# ---------------------------------------------------------------------------


@dataclass
class ForwardCache:
    """Activations retained by one forward call for the matching backward."""

    net: "Network"
    param_version: int
    layer_caches: list
    probs: np.ndarray


class Network:
    """Ordered layer stack with named weight groups."""

    def __init__(self, spec: NetworkSpec, groups: dict[str, WeightGroup]):
        self.spec = spec
        self.groups = groups
        self.layers = [_make_layer(ls, groups) for ls in spec.layers]
        self._param_version = 0

    def mark_params_changed(self) -> None:
        """Invalidate outstanding forward caches after a weight update."""
        self._param_version += 1

    def copy(self) -> "Network":
        """Independent network sharing this one's (immutable) tensors."""
        groups = {
            name: WeightGroup(
                name=g.name,
                weights=g.weights,
                bias=g.bias,
                shadow_weights=g.shadow_weights,
                quantizer=g.quantizer,
            )
            for name, g in self.groups.items()
        }
        return Network(self.spec, groups)


def forward(
    net: Network, batch: Tensor, mode: str = "eval", rng: Rng | None = None
) -> tuple[Tensor, ForwardCache]:
    """Run the network on a batch; returns class probabilities and a cache.

    ``mode`` is "train" (dropout active, needs ``rng``) or "eval" (dropout
    disabled; deterministic). The cache feeds ``backward`` and is tied to the
    parameter values used here.
    """
    if mode not in ("train", "eval"):
        raise ConfigError(f"mode must be 'train' or 'eval', got {mode!r}")
    x = batch.ndarray
    if x.shape[1:] != net.spec.input_shape:
        raise DimensionError(
            f"batch shape {x.shape} does not match input shape {net.spec.input_shape}"
        )
    caches = []
    for layer in net.layers:
        x, cache = layer.forward(x, mode, rng)
        caches.append(cache)
    return (
        Tensor._wrap(x),
        ForwardCache(
            net=net,
            param_version=net._param_version,
            layer_caches=caches,
            probs=x,
        ),
    )


def backward(
    net: Network, cache: ForwardCache, targets: Sequence[int]
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Gradients of mean cross-entropy w.r.t. every weight group.

    Returns {group name: (dW, db)}. The cache must come from the most recent
    forward call on this network; a cache that predates a weight update is
    rejected as stale.
    """
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
    grads: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for layer, layer_cache in zip(net.layers[-2::-1], cache.layer_caches[-2::-1]):
        dy, wgrad = layer.backward(dy, layer_cache)
        if wgrad is not None:
            grads[layer.group.name] = wgrad
    return grads


def cross_entropy(probs: Tensor, targets: Sequence[int]) -> float:
    """Mean negative log-probability of the target classes."""
    p = probs.ndarray
    t = np.asarray(targets, dtype=np.int64)
    picked = p[np.arange(p.shape[0]), t]
    with np.errstate(divide="ignore"):
        return float(-np.mean(np.log(picked)))


def logit_cross_entropy(cache: ForwardCache, targets: Sequence[int]) -> float:
    """Mean cross-entropy by log-sum-exp over the logits the softmax of
    ``cache`` saw: finite wherever they are, also when a picked probability
    underflows to 0 and ``cross_entropy`` returns inf."""
    z = cache.layer_caches[-1]
    z = z - z.max(axis=1, keepdims=True)
    picked = z[np.arange(z.shape[0]), np.asarray(targets, dtype=np.int64)]
    return float(np.mean(np.log(np.exp(z).sum(axis=1)) - picked))


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def group_shapes(spec: NetworkSpec) -> dict[str, tuple[tuple, tuple]]:
    """(weight shape, bias shape) of every weight group of ``spec``, in layer
    order. Validates the layer stack without drawing any initialization."""
    if not spec.layers or spec.layers[-1].kind != "softmax":
        raise ConfigError("a network must end with a softmax layer")
    shapes: dict[str, tuple[tuple, tuple]] = {}
    shape = tuple(spec.input_shape)
    for ls in spec.layers:
        if ls.group is not None and ls.group in shapes:
            raise ConfigError(f"weight group {ls.group!r} is declared twice")
        if ls.kind == "dense":
            fan_in = int(np.prod(shape))
            if ls.units is None or ls.units <= 0 or ls.group is None:
                raise ConfigError(f"bad dense layer spec {ls}")
            shapes[ls.group] = ((fan_in, ls.units), (ls.units,))
            shape = (ls.units,)
        elif ls.kind == "conv5x5":
            if len(shape) != 3:
                raise ConfigError(f"conv layer needs [C, H, W] input, got {shape}")
            if ls.maps is None or ls.maps <= 0 or ls.group is None:
                raise ConfigError(f"bad conv layer spec {ls}")
            c, h, w = shape
            shapes[ls.group] = ((ls.maps, c, KERNEL_SIZE, KERNEL_SIZE), (ls.maps,))
            shape = (ls.maps, h, w)
        elif ls.kind == "maxpool2":
            c, h, w = shape
            shape = (c, (h + 1) // 2, (w + 1) // 2)
        elif ls.kind not in ("relu", "dropout", "softmax"):
            raise ConfigError(f"unknown layer kind {ls.kind!r}")
    if shape != (spec.classes,):
        raise ConfigError(
            f"layer stack produces shape {shape}, expected ({spec.classes},)"
        )
    return shapes


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
