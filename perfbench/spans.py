"""Span recording around the program's public calls, installed from outside.

A ``Recorder`` keeps spans as ``[name, start, end, parent, info]`` lists in
memory. Spans are opened by wrappers that replace module attributes of the
program (``quantbench.trainer.forward``, ``quantbench.trainer.apply``, ...)
for as long as an ``instrument`` block lasts, so callers that look a name up
through a module see the wrapper. Layer objects in ``Network.layers`` are
wrapped per instance the first time a network goes through ``nn.forward``.

Two levels exist. ``coarse`` wraps only the entry points the end-to-end
metrics are computed from (a few hundred spans per unit); every run uses it.
``full`` adds layers, forward/backward, the RNG, the grid projection,
batching and sweep points; only ``--trace 1`` runs use it.

Computed conv counts (float64, one 5x5 layer, batch n, size h x w):
flop forward = 2*n*h*w*c_out*c_in*25, backward = twice that (dW and dX GEMMs);
bytes forward = 8*(X + 2P + K + Y), backward = 8*(2Y + 3P + 2K + X), where
X, Y, K and P are the element counts of input, output, kernels and the
[n*h*w, c_in*25] patch matrix.
"""

from __future__ import annotations

import contextlib
import os
import time
import weakref

LAYER_KINDS = {
    "_DenseLayer": "dense",
    "_ConvLayer": "conv",
    "_MaxPool2Layer": "pool",
    "_ReluLayer": "relu",
    "_DropoutLayer": "dropout",
    "_SoftmaxLayer": "softmax",
}
MODULES = ("nn", "tensor", "quantizer", "trainer", "data", "checkpoint", "experiments")
# Outputs the workloads check after each unit, kept by reference while it runs.
KEPT = ("quantizer.direct_quantize", "trainer.train_float", "trainer.retrain")


class Recorder:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.spans: list[list] = []
        self.kept: list[tuple[str, object]] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._layers = weakref.WeakSet()

    def open(self, name: str) -> int:
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.spans[i][2] = time.perf_counter()
        self._stack.pop()

    def _traced(self, name, orig, info=None, before=None):
        rec = self
        keep = name in KEPT

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            i = rec.open(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                rec.close(i)
            if info is not None:
                rec.spans[i][4] = info(args, out)
            if keep:
                rec.kept.append((name, out))
            return out

        return traced

    def wrap(self, owner, attr: str, name: str, info=None, before=None) -> None:
        orig = getattr(owner, attr)
        setattr(owner, attr, self._traced(name, orig, info, before))
        self._undo.append((owner, attr, orig))

    def wrap_iter(self, owner, attr: str, name: str) -> None:
        """Wrap a generator function: one span per item produced."""
        orig = getattr(owner, attr)
        rec = self

        def traced(*args, **kwargs):
            it = orig(*args, **kwargs)
            while True:
                i = rec.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    rec.close(i)
                yield item

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, orig))

    def wrap_layers(self, net) -> None:
        for layer in net.layers:
            if "forward" in vars(layer):
                continue
            kind = LAYER_KINDS[type(layer).__name__]
            conv = kind == "conv"
            layer.forward = self._traced(
                f"nn.{kind}.fwd", layer.forward, _conv_fwd_info(layer) if conv else None
            )
            if hasattr(layer, "backward"):
                layer.backward = self._traced(
                    f"nn.{kind}.bwd", layer.backward,
                    _conv_bwd_info(layer) if conv else None,
                )
            self._layers.add(layer)

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()
        for layer in list(self._layers):
            for attr in ("forward", "backward"):
                vars(layer).pop(attr, None)

    def write(self, path: str, header: str) -> None:
        """Write every span as one tab-separated line, times relative to the first."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            fh.write("index\tname\tstart_s\tend_s\tparent\n")
            for i, (name, start, end, parent, _) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start - t0:.9f}\t{end - t0:.9f}\t{parent}\n")


def _conv_shapes(layer, n, h, w):
    c_out, c_in = layer.group.weights.shape[:2]
    x, y, k = n * c_in * h * w, n * c_out * h * w, c_out * c_in * 25
    p = n * h * w * c_in * 25
    return 2 * n * h * w * c_out * c_in * 25, x, y, k, p


def _conv_fwd_info(layer):
    def info(args, out):
        n, _, h, w = args[0].shape
        flop, x, y, k, p = _conv_shapes(layer, n, h, w)
        return (layer.group.name, flop, 8 * (x + 2 * p + k + y))
    return info


def _conv_bwd_info(layer):
    def info(args, out):
        n, _, h, w = args[0].shape  # dy is [n, c_out, h, w]
        flop, x, y, k, p = _conv_shapes(layer, n, h, w)
        return (layer.group.name, 2 * flop, 8 * (2 * y + 3 * p + 2 * k + x))
    return info


def _train_info(args, out):
    """(samples trained, epochs, epochs that set a new best) of one training run."""
    data = args[1]
    metrics = [r.val_metric for r in out[1].records]
    best, improving = float("inf"), 0
    for m in metrics:
        if m < best:
            best, improving = m, improving + 1
    return (len(metrics) * data.train.size, len(metrics), improving)


def _fitted_weights(args, out):
    return (sum(g.weights.size for g in out[0].groups.values() if g.quantizer is not None),)


@contextlib.contextmanager
def instrument(rec: Recorder, qb, full: bool, serial: bool = True):
    """Wrap the program's calls for the duration of the block.

    ``qb`` maps module names to the imported ``quantbench`` submodules.
    ``serial`` is False when sweep points run in worker processes: their
    spans cannot be collected, and a wrapped ``_run_point`` cannot be pickled.
    """
    nn, tr, qz, ex = qb["nn"], qb["trainer"], qb["quantizer"], qb["experiments"]
    ck, data, tensor = qb["checkpoint"], qb["data"], qb["tensor"]
    try:
        rec.wrap(data, "synthetic_split", "data.split")
        rec.wrap(ex, "run_width_sweep", "experiments.sweep")
        rec.wrap(ex, "baseline_curve", "experiments.baseline_curve")
        rec.wrap(ex, "ecr", "experiments.ecr")
        rec.wrap(ex, "write_records_csv", "experiments.write_csv")
        rec.wrap(ex, "write_ecr_csv", "experiments.write_csv")
        for mod in (ex, tr):
            rec.wrap(mod, "train_float", "trainer.train_float", _train_info)
            rec.wrap(mod, "retrain_quantized", "trainer.retrain", _train_info)
            rec.wrap(mod, "evaluate", "trainer.evaluate", lambda a, out: (a[1].size, out))
        for mod in (ex, qz):
            rec.wrap(mod, "direct_quantize", "quantizer.direct_quantize", _fitted_weights)
        rec.wrap(ck, "save_checkpoint", "checkpoint.save",
                 lambda a, out: os.path.getsize(a[1]))
        rec.wrap(ck, "load_checkpoint", "checkpoint.load")
        if serial:
            rec.wrap(ex, "_run_point", "experiments.point")
        if full:
            for mod in (tr, data, nn):
                rec.wrap(mod, "forward", "nn.forward", before=lambda a: rec.wrap_layers(a[0]))
            for mod in (tr, nn):
                rec.wrap(mod, "backward", "nn.backward")
            rec.wrap(tensor.Rng, "next_u64", "tensor.rng", lambda a, out: a[1])
            rec.wrap(qz, "optimize_delta", "quantizer.optimize_delta",
                     lambda a, out: (a[0].size, out[1].iterations))
            for mod in (tr, qz):
                rec.wrap(mod, "apply", "quantizer.apply")
            rec.wrap_iter(tr, "batches", "data.batches")
        yield rec
    finally:
        rec.restore()


def self_times(spans, lo: int = 0) -> list[float]:
    """Self time of spans[lo:]: duration minus the time covered by children."""
    own = [s[2] - s[1] for s in spans[lo:]]
    for s in spans[lo:]:
        if s[3] >= lo:
            own[s[3] - lo] -= s[2] - s[1]
    return own


def layer_metrics(spans, lo: int, units: int) -> dict[str, float]:
    """Per-layer metrics over spans[lo:], as totals per traced unit."""
    per = 1.0 / units
    dur: dict[str, float] = {}
    calls: dict[str, int] = {}
    own: dict[str, float] = {}
    conv = {g: [0.0, 0.0, 0, 0] for g in ("C1", "C2", "C3")}  # fwd_s, bwd_s, flop, bytes
    for s, self_s in zip(spans[lo:], self_times(spans, lo)):
        name, d = s[0], s[2] - s[1]
        dur[name] = dur.get(name, 0.0) + d
        calls[name] = calls.get(name, 0) + 1
        own[name] = own.get(name, 0.0) + self_s
        if name.startswith("nn.conv.") and s[4][0] in conv:
            c = conv[s[4][0]]
            c[0 if name.endswith("fwd") else 1] += d
            c[2] += s[4][1]
            c[3] += s[4][2]

    def infos(name):
        return [s[4] for s in spans[lo:] if s[0] == name]

    m: dict[str, float] = {}
    m["nn.forward_s"] = dur.get("nn.forward", 0.0) * per
    m["nn.forward_calls"] = calls.get("nn.forward", 0) * per
    m["nn.backward_s"] = dur.get("nn.backward", 0.0) * per
    m["nn.backward_calls"] = calls.get("nn.backward", 0) * per
    m["nn.backward.self_s"] = own.get("nn.backward", 0.0) * per
    for kind in ("conv", "pool", "relu", "dense", "dropout"):
        for d in ("fwd", "bwd"):
            m[f"nn.{kind}.{d}_s"] = dur.get(f"nn.{kind}.{d}", 0.0) * per
    m["nn.softmax.fwd_s"] = dur.get("nn.softmax.fwd", 0.0) * per
    flop = sum(c[2] for c in conv.values())
    conv_s = sum(c[0] + c[1] for c in conv.values())
    for g, (fwd, bwd, f, b) in conv.items():
        m[f"nn.{g}.fwd_s"] = fwd * per
        m[f"nn.{g}.bwd_s"] = bwd * per
        m[f"nn.{g}.gflop_computed"] = f * 1e-9 * per
        m[f"nn.{g}.gbytes_computed"] = b * 1e-9 * per
    m["nn.conv.gflop_computed"] = flop * 1e-9 * per
    m["nn.conv.gflops"] = flop * 1e-9 / conv_s if conv_s else 0.0
    m["tensor.rng_s"] = dur.get("tensor.rng", 0.0) * per
    m["tensor.rng_draws"] = sum(infos("tensor.rng")) * per
    fits = infos("quantizer.optimize_delta")
    m["quantizer.optimize_delta_s"] = dur.get("quantizer.optimize_delta", 0.0) * per
    m["quantizer.optimize_delta_calls"] = len(fits) * per
    m["quantizer.fit_weights"] = sum(f[0] for f in fits) * per
    m["quantizer.fit_iterations"] = sum(f[1] for f in fits) * per
    m["quantizer.apply_s"] = dur.get("quantizer.apply", 0.0) * per
    m["quantizer.apply_calls"] = calls.get("quantizer.apply", 0) * per
    runs = infos("trainer.train_float") + infos("trainer.retrain")
    epochs = sum(r[1] for r in runs)
    evals = infos("trainer.evaluate")
    m["trainer.train_float_s"] = dur.get("trainer.train_float", 0.0) * per
    m["trainer.retrain_s"] = dur.get("trainer.retrain", 0.0) * per
    m["trainer.evaluate_s"] = dur.get("trainer.evaluate", 0.0) * per
    m["trainer.evaluate_samples"] = sum(e[0] for e in evals) * per
    m["trainer.steps"] = m["nn.backward_calls"]
    m["trainer.epochs"] = epochs * per
    m["trainer.step_self_s"] = (
        own.get("trainer.train_float", 0.0) + own.get("trainer.retrain", 0.0)
    ) * per
    m["trainer.improving_epoch_frac"] = sum(r[2] for r in runs) / epochs if epochs else 0.0
    m["data.batches_s"] = dur.get("data.batches", 0.0) * per
    m["checkpoint.save_s"] = dur.get("checkpoint.save", 0.0) * per
    m["checkpoint.load_s"] = dur.get("checkpoint.load", 0.0) * per
    m["checkpoint.bytes"] = sum(infos("checkpoint.save")) * per
    points = calls.get("experiments.point", 0)
    m["experiments.sweep_s"] = dur.get("experiments.sweep", 0.0) * per
    m["experiments.points"] = points * per
    m["experiments.point_s"] = dur.get("experiments.point", 0.0) / points if points else 0.0
    m["experiments.ecr_s"] = (
        dur.get("experiments.ecr", 0.0) + dur.get("experiments.baseline_curve", 0.0)
    ) * per
    for mod in MODULES:
        m[f"{mod}.self_s"] = sum(v for k, v in own.items() if k.startswith(mod + ".")) * per
    return m
