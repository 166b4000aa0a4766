"""Analytic gradients against central finite differences, shared by the
layer tests and acceptance criterion 3."""

import numpy as np

from quantbench.nn import backward, cross_entropy, forward
from quantbench.tensor import Rng, Tensor


def _loss(net, x, targets, mode, seed):
    rng = Rng(seed) if mode == "train" else None
    probs, cache = forward(net, x, rng)
    return cross_entropy(probs, targets), cache


def _nudge_biases(net):
    """Move biases off zero so no relu input sits exactly on its kink.

    Freshly built networks have all-zero biases; if dropout or relu zeroes an
    entire row of some layer's input, the next pre-activation row equals the
    bias exactly and finite differences straddle the kink.
    """
    for group in net.groups.values():
        b = group.bias.ndarray
        group.bias = Tensor(0.05 + 0.01 * np.arange(b.size, dtype=np.float64))
    net.mark_params_changed()


def worst_gradient_error(net, x, targets, mode="eval", seed=101, eps=1e-5,
                         picks_per_array=12):
    """Worst relative error between analytic and numeric gradients over
    ``picks_per_array`` entries of every weight and bias array. ``mode``
    "train" runs dropout with the same ``Rng(seed)`` on every pass."""
    _nudge_biases(net)
    _, cache = _loss(net, x, targets, mode, seed)
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
                    loss, _ = _loss(net, x, targets, mode, seed)
                    probes.append(loss)
                setattr(group, setter, tensor)
                net.mark_params_changed()
                numeric = (probes[0] - probes[1]) / (2 * eps)
                a = analytic.reshape(-1)[i]
                worst = max(worst, abs(a - numeric) / max(1.0, abs(a), abs(numeric)))
    return worst
