"""Training loops: float training and quantized retraining.

Both loops share one optimizer (RMSProp with momentum) and one schedule:
the learning rate is multiplied by ``lr_decay`` after every epoch without
validation improvement and training stops once it falls below ``lr_final``,
patience runs out, or ``max_epochs`` is reached. The best-validation
snapshot is what gets returned, not the last epoch.

Retraining keeps two weight sets per quantized group. Forward and backward
run on the quantized weights; the update lands on the float shadow copy; the
exposed weights are re-quantized from the shadow after every step with the
step size and level count frozen. This works because a single update is much
smaller than the quantization step, so accumulating updates in float is what
lets small gradients eventually flip a weight to a neighboring grid point.

Per-parameter update rule, the single source of truth:

    r <- rho * r + (1 - rho) * g^2
    v <- momentum * v - lr * g / sqrt(r + eps)
    theta <- theta + v

A run copies its trained arrays into flat vectors (``_FlatState``) that only
it writes: the working network's Tensors are read-only views of them, backward
fills one flat gradient and a step is one in-place pass. Snapshots copy them.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, DatasetSplit, batches
from .errors import ConfigError, DivergenceError, UsageError
from .nn import (
    Network,
    backward,
    classes,
    cross_entropy,
    eval_chunk,
    forward,
    logit_cross_entropy,
)
from .quantizer import apply
from .tensor import Rng, Tensor

_BLOCK = 32768  # elements per optimizer block: six 256 KiB arrays fill a 2 MiB L2


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one training run."""

    batch_size: int = 128
    lr_init: float = 1e-5
    lr_final: float = 1e-7
    lr_decay: float = 0.5
    momentum: float = 0.9
    rmsprop_rho: float = 0.9
    rmsprop_eps: float = 1e-8
    max_epochs: int = 50
    patience: int = 10
    seed: int = 0
    dropout_active: bool = True  # keep dropout on during training passes

    def __post_init__(self):
        for name in ("lr_init", "lr_final", "rmsprop_eps"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr_init < 0 or self.lr_final < 0:
            raise ConfigError("learning rates must not be negative")
        if self.lr_final > self.lr_init:
            raise ConfigError(
                f"lr_final ({self.lr_final:g}) must not exceed "
                f"lr_init ({self.lr_init:g})"
            )
        if not 0.0 < self.lr_decay <= 1.0:
            raise ConfigError(f"lr_decay must be in (0, 1], got {self.lr_decay}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if not 0.0 < self.rmsprop_rho < 1.0:
            raise ConfigError(
                f"rmsprop_rho must be in (0, 1), got {self.rmsprop_rho}"
            )
        if self.rmsprop_eps <= 0:
            raise ConfigError(f"rmsprop_eps must be positive, got {self.rmsprop_eps}")
        if self.max_epochs < 0:
            raise ConfigError(f"max_epochs must be >= 0, got {self.max_epochs}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")


def retrain_config(cfg: TrainConfig) -> TrainConfig:
    """Derive the retraining config: lr cut 10x, epoch budget halved."""
    lr_init = cfg.lr_init / 10  # not * 0.1: 0.05 * 0.1 != 0.005 in binary
    return dataclasses.replace(
        cfg,
        lr_init=lr_init,
        lr_final=min(cfg.lr_final, lr_init),
        max_epochs=max(1, cfg.max_epochs // 2),
    )


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_metric: float
    lr: float
    seconds: float


@dataclass
class TrainLog:
    """Per-epoch records of one run: the validation metrics of the network it
    starts from (``start_metric``) and returns (``best_metric``), and the
    epoch of the latter (``best_epoch``, -1 when no epoch beat the start)."""

    start_metric: float
    best_metric: float
    records: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = -1


def evaluate(net: Network, ds: Dataset) -> float:
    """Misclassification rate in percent by ``classes``; dropout off, deterministic."""
    if ds.size == 0:
        raise ConfigError("cannot evaluate on an empty split")
    wrong = 0
    feats = ds.features.ndarray
    chunk = eval_chunk(net.spec)
    for start in range(0, ds.size, chunk):
        pred = classes(net, feats[start : start + chunk])
        wrong += int((pred != ds.labels[start : start + chunk]).sum())
    return 100.0 * wrong / ds.size


class _FlatState:
    """One run's trained arrays as flat vectors: ``theta`` (each group's float
    or shadow weights, then its bias), ``grad``, ``r`` and ``v`` laid out alike,
    and ``q`` (the exposed quantized weights); ``grads`` has each (dW, db) view."""

    def __init__(self, net: Network, cfg: TrainConfig):
        self.cfg = cfg
        groups = net.groups.values()
        n = sum(g.weights.size + g.bias.size for g in groups)
        self.theta, self.grad, self.r, self.v = (np.zeros(n) for _ in range(4))
        self.q = np.empty(sum(g.weights.size for g in groups if g.quantizer is not None))
        self.layout = []  # (name, weight slice, bias slice, exposed slice or None)
        self.grads, self._grids = {}, []  # _grids: (shadow, exposed, frozen spec)
        i = j = 0
        for name, g in net.groups.items():
            nw, trained = g.weights.size, g.weights
            w, b, e = slice(i, i + nw), slice(i + nw, i + nw + g.bias.size), None
            i = b.stop
            if g.quantizer is not None:
                e, j, trained = slice(j, j + nw), j + nw, g.shadow_weights
                self.q[e] = g.weights.ndarray.reshape(-1)
                self._grids.append((self.theta[w], self.q[e], g.quantizer))
            self.theta[w], self.theta[b] = trained.ndarray.reshape(-1), g.bias.ndarray
            self.layout.append((name, w, b, e))
            self.grads[name] = (self.grad[w].reshape(g.weights.shape), self.grad[b])
        self.bind(net, self.theta, self.q)  # net becomes the run's working network
        t, s = np.empty(min(n, _BLOCK)), np.empty(min(n, _BLOCK))
        self._blocks = [
            (*(a[k : k + _BLOCK] for a in (self.grad, self.r, self.v, self.theta)),
             t[: min(_BLOCK, n - k)], s[: min(_BLOCK, n - k)])
            for k in range(0, n, _BLOCK)
        ]

    def bind(self, net: Network, theta: np.ndarray, q: np.ndarray) -> None:
        """Point every group of ``net`` at read-only views of ``theta`` and ``q``."""
        for name, w, b, e in self.layout:
            g = net.groups[name]
            view = theta[w].reshape(g.weights.shape)
            if e is not None:
                g.shadow_weights, view = Tensor._wrap(view), q[e].reshape(view.shape)
            g.weights, g.bias = Tensor._wrap(view), Tensor._wrap(theta[b])

    def step(self, lr: float) -> None:
        """The update rule in place, block by block, each block's six arrays
        held in a per-core L2 cache; then the exposed weights re-projected.
        The operations and their order are the rule's, so are the bits."""
        rho, mu, eps = self.cfg.rmsprop_rho, self.cfg.momentum, self.cfg.rmsprop_eps
        for g, r, v, theta, t, s in self._blocks:
            r *= rho
            np.multiply(g, 1.0 - rho, out=t)
            t *= g
            r += t
            v *= mu
            np.multiply(g, lr, out=t)
            np.add(r, eps, out=s)
            np.sqrt(s, out=s)
            t /= s
            v -= t
            theta += v
        for shadow, exposed, spec in self._grids:
            apply(shadow, spec, out=exposed)


def _assert_on_grid(net: Network) -> None:
    for name, g in net.groups.items():
        if g.quantizer is not None and not np.array_equal(
            apply(g.weights.ndarray, g.quantizer), g.weights.ndarray
        ):
            raise UsageError(f"group {name!r} left its quantization grid")


def _run_training(
    net: Network, data: DatasetSplit, cfg: TrainConfig, retrain: bool
) -> tuple[Network, TrainLog]:
    if data.train.size == 0:
        raise ConfigError("cannot train on an empty split")
    net = net.copy()
    quantized = [g for g in net.groups.values() if g.quantizer is not None]
    if quantized and not retrain:
        raise UsageError(
            f"float training requires an unquantized network; group "
            f"{quantized[0].name!r} carries a quantizer (use retrain_quantized)"
        )
    if retrain and not quantized:
        raise UsageError(
            "retraining requires a direct-quantized network "
            "(no weight group carries a quantizer)"
        )
    for g in quantized:
        if g.shadow_weights is None:
            raise UsageError(f"quantized group {g.name!r} has no shadow float weights")
    frozen_specs = {g.name: g.quantizer for g in quantized}
    rng = Rng(cfg.seed)
    shuffle_rng = rng.spawn("shuffle")
    dropout_rng = rng.spawn("dropout") if cfg.dropout_active else None
    best_net = net.copy()  # shares the input's arrays until an epoch improves
    state = _FlatState(net, cfg)
    start = evaluate(net, data.valid)
    log = TrainLog(start_metric=start, best_metric=start)
    lr = cfg.lr_init
    bad_epochs = 0
    for epoch in range(cfg.max_epochs):
        t0 = time.monotonic()
        loss_sum = 0.0
        seen = 0
        for feats, labels in batches(
            data.train, cfg.batch_size, shuffle=True, rng=shuffle_rng
        ):
            probs, cache = forward(net, feats, dropout_rng)
            loss = cross_entropy(probs, labels)
            if not np.isfinite(loss):
                # A saturated softmax underflows a picked probability to 0;
                # only non-finite logits are divergence.
                loss = logit_cross_entropy(cache, labels)
                if not np.isfinite(loss):
                    raise DivergenceError(epoch=epoch, lr=lr)
            loss_sum += loss * feats.shape[0]
            seen += feats.shape[0]
            backward(net, cache, labels, out=state.grads)
            state.step(lr)
            net.mark_params_changed()
        _assert_on_grid(net)  # a float run has no quantized group to check
        for name, spec in frozen_specs.items():
            if net.groups[name].quantizer != spec:
                raise UsageError(f"quantizer of group {name!r} changed mid-run")
        val_metric = evaluate(net, data.valid)
        log.records.append(
            EpochRecord(
                epoch=epoch,
                train_loss=loss_sum / seen,
                val_metric=val_metric,
                lr=lr,
                seconds=time.monotonic() - t0,
            )
        )
        if val_metric < log.best_metric:
            log.best_metric = val_metric
            best_net = net.copy()
            state.bind(best_net, state.theta.copy(), state.q.copy())
            log.best_epoch = epoch
            bad_epochs = 0
        else:
            bad_epochs += 1
            lr *= cfg.lr_decay
            if lr < cfg.lr_final or bad_epochs >= cfg.patience:
                break
    return best_net, log


def train_float(
    net: Network, data: DatasetSplit, cfg: TrainConfig
) -> tuple[Network, TrainLog]:
    """Train all weight groups as ordinary float parameters.

    A network with a quantized group is rejected (UsageError): float updates
    would move its weights off the grid. The input network is not mutated.
    Returns the snapshot with the lowest validation error seen during the run.
    """
    return _run_training(net, data, cfg, retrain=False)


def retrain_quantized(
    net: Network, data: DatasetSplit, cfg: TrainConfig
) -> tuple[Network, TrainLog]:
    """Retrain a direct-quantized network with dual float/quantized weights.

    Quantized groups keep their step size and level count frozen; updates go
    to the shadow float weights and the exposed weights are re-quantized each
    step. Unquantized groups and all biases train as ordinary floats. The
    input network is not mutated.
    """
    return _run_training(net, data, cfg, retrain=True)
