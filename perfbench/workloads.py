"""The benchmark's workloads: inputs made from a seed, one timed unit, its checks.

A unit is one closed-loop pass of the workload: a single caller issues each
program call after the previous one returns. Units repeat until the run's
time is spent. Every unit gets the same inputs, so its outputs must repeat.

Training runs use a fixed epoch budget (patience equal to the budget, no
learning-rate floor), so the amount of work in a unit does not depend on
the seed; early stopping would otherwise move wall time by about 30%.
"""

from __future__ import annotations

import os
import pickle

from checks import digest, net_digest

# Sizes for full runs and for the smoke test. Full sizes keep units short
# enough that a 25 s run repeats the sweep and CNN units: a CNN step at batch
# 64 takes about 0.7 s, and one 8-bit fit of a 262k-weight group about 8 s,
# on 2 cores.
SCALES = {
    "full": {
        "teacher": dict(n=(5000, 1000, 1000), widths=(16, 64, 256), bits=(2, 4, 8),
                        reps=3, epochs=4),
        "cnn": dict(n=(128, 64, 64), shape=(3, 32, 32), maps=(32, 32, 64), fc=64),
        "wide": dict(n=(10000, 10000, 10000), width=512, depth=3),
    },
    "tiny": {
        "teacher": dict(n=(120, 60, 60), widths=(4, 8), bits=(2, 4), reps=2, epochs=2),
        "cnn": dict(n=(24, 12, 12), shape=(3, 8, 8), maps=(2, 2, 4), fc=8),
        "wide": dict(n=(120, 40, 40), width=16, depth=3),
    },
}


def check_kept(checks, kept) -> None:
    """Checks on the outputs of training and fitting calls made during a unit."""
    for name, out in kept:
        if name == "quantizer.direct_quantize":
            qnet, reports = out
            checks.on_grid(qnet, name)
            checks.fit(qnet, reports, name)
        else:
            net, log = out
            checks.train_log(log, name)
            if name == "trainer.retrain":
                checks.on_grid(net, name)


class TeacherSweep:
    """The criterion-5 width sweep on a teacher_net task, records and ECR written out."""

    family = "ffdnn"

    def __init__(self, qb, scale: str, seed: int):
        self.qb, self.seed = qb, seed
        self.p = SCALES[scale]["teacher"]
        self.points = len(self.p["widths"]) * self.p["reps"]
        self.first = None

    def setup(self):
        ex, tr = self.qb["experiments"], self.qb["trainer"]
        split = self.qb["data"].synthetic_split(
            "teacher_net", *self.p["n"], classes=10, seed=self.seed, dim=20
        )
        e = self.p["epochs"]
        cfg = tr.TrainConfig(batch_size=128, lr_init=0.02, lr_final=0.0, max_epochs=e,
                             patience=e, seed=self.seed, dropout_active=False)
        return split, cfg, ex.MODES

    def input_digest(self, inp) -> str:
        split = inp[0]
        return digest(*(a for ds in (split.train, split.valid, split.test)
                        for a in (ds.features.ndarray, ds.labels)))

    def sweep(self, inp, tmp, jobs):
        ex = self.qb["experiments"]
        split, cfg, modes = inp
        records = ex.run_width_sweep(
            self.family, list(self.p["widths"]), list(self.p["bits"]), modes, split, cfg,
            seed_reps=self.p["reps"], jobs=jobs,
        )
        curve = ex.baseline_curve(records, self.family)
        ecrs = [ex.ecr(r, curve) for r in records if r.mode != "float"]
        path = os.path.join(tmp, "records.csv")
        ex.write_records_csv(records, path)
        ex.write_ecr_csv(records, {self.family: curve}, os.path.join(tmp, "ecr.csv"))
        return records, ecrs, path

    def unit(self, inp, tmp):
        return self.sweep(inp, tmp, jobs=1)

    def records_digest(self, path) -> str:
        with open(path, "rb") as fh:
            return digest(fh.read())

    def check(self, checks, out, kept) -> None:
        records, ecrs, path = out
        per_point = 1 + 2 * len(self.p["bits"])
        checks.check(len(records) == self.points * per_point, "sweep: record count")
        for r in records:
            checks.error_rate(r.val_metric, "sweep: val_metric")
            checks.error_rate(r.test_metric, "sweep: test_metric")
        checks.finite(ecrs, "sweep: ECR", positive=True)
        d = self.records_digest(path)
        self.first = self.first or d
        checks.same(self.first, d, "sweep: records digest across repeats")
        check_kept(checks, kept)

    def args_bytes(self, inp) -> int:
        """Pickled size of one sweep point's arguments, times the point count."""
        split, cfg, modes = inp
        args = (self.family, self.p["widths"][0], 1, list(self.p["bits"]), modes, split,
                cfg, self.seed)
        return len(pickle.dumps(args)) * self.points


class CnnTrain:
    """CIFAR-shaped blobs through a 32-32-64 CNN: train, fit at 3 bits, retrain, evaluate."""

    bits = 3

    def __init__(self, qb, scale: str, seed: int):
        self.qb, self.seed = qb, seed
        self.p = SCALES[scale]["cnn"]
        self.first = None

    def setup(self):
        split = self.qb["data"].synthetic_split(
            "blobs", *self.p["n"], classes=10, seed=self.seed, shape=self.p["shape"]
        )
        net = self.qb["nn"].build_cnn(self.p["maps"], input_shape=self.p["shape"],
                                      fc_units=self.p["fc"], classes=10, seed=self.seed)
        cfg = self.qb["trainer"].TrainConfig(batch_size=64, lr_init=1e-3, lr_final=0.0,
                                             max_epochs=1, patience=1, seed=self.seed)
        return split, net, cfg

    def input_digest(self, inp) -> str:
        split, net, _ = inp
        return digest(split.train.features.ndarray, split.train.labels, net_digest(net))

    def unit(self, inp, tmp):
        tr, qz = self.qb["trainer"], self.qb["quantizer"]
        split, net, cfg = inp
        trained, _ = tr.train_float(net, split, cfg)
        qnet, _ = qz.direct_quantize(trained, self.bits)
        rnet, _ = tr.retrain_quantized(qnet, split, tr.retrain_config(cfg))
        return rnet, tr.evaluate(rnet, split.test)

    def check(self, checks, out, kept) -> None:
        rnet, err = out
        checks.error_rate(err, "cnn: test error")
        d = digest(net_digest(rnet), err)
        self.first = self.first or d
        checks.same(self.first, d, "cnn: output digest across repeats")
        check_kept(checks, kept)


class WideQuantize:
    """Width-512 depth-3 FFDNN with dropout: short training, fits at 2/4/8 bits,
    a checkpoint round trip and an evaluation of each quantized net."""

    bits = (2, 4, 8)

    def __init__(self, qb, scale: str, seed: int):
        self.qb, self.seed = qb, seed
        self.p = SCALES[scale]["wide"]
        self.first = None

    def setup(self):
        split = self.qb["data"].synthetic_split(
            "teacher_net", *self.p["n"], classes=10, seed=self.seed, dim=20
        )
        net = self.qb["nn"].build_ffdnn(20, self.p["width"], self.p["depth"], 10,
                                        dropout_rate=0.2, seed=self.seed)
        cfg = self.qb["trainer"].TrainConfig(batch_size=128, lr_init=1e-3, lr_final=0.0,
                                             max_epochs=1, patience=1, seed=self.seed)
        return split, net, cfg

    def input_digest(self, inp) -> str:
        split, net, _ = inp
        return digest(split.train.features.ndarray, split.train.labels, net_digest(net))

    def unit(self, inp, tmp):
        tr, qz, ck = self.qb["trainer"], self.qb["quantizer"], self.qb["checkpoint"]
        split, net, cfg = inp
        trained, _ = tr.train_float(net, split, cfg)
        out = []
        for bits in self.bits:
            qnet, _ = qz.direct_quantize(trained, bits)
            path = os.path.join(tmp, f"wide_{bits}bit.ckpt")
            ck.save_checkpoint(qnet, path)
            loaded = ck.load_checkpoint(path)
            out.append((qnet, loaded, tr.evaluate(loaded, split.test)))
        return out

    def check(self, checks, out, kept) -> None:
        for qnet, loaded, err in out:
            checks.same_net(qnet, loaded, "wide")
            checks.on_grid(loaded, "wide: loaded checkpoint")
            checks.error_rate(err, "wide: test error")
        d = digest(*(net_digest(l) for _, l, _ in out), *(e for _, _, e in out))
        self.first = self.first or d
        checks.same(self.first, d, "wide: output digest across repeats")
        check_kept(checks, kept)


WORKLOADS = {
    "teacher-sweep": TeacherSweep,
    "cnn-train": CnnTrain,
    "wide-quantize": WideQuantize,
}
