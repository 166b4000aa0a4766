"""Training loops, the shared optimizer, and retraining invariants."""

import csv
import tracemalloc

import numpy as np
import pytest

from quantbench.data import Dataset, DatasetSplit, batches, synthetic_split
from quantbench.errors import ConfigError, DivergenceError, UsageError
from quantbench.experiments import LOG_FIELDS, write_train_log
from quantbench import nn, trainer
from quantbench.nn import (
    EVAL_BATCH,
    backward,
    build_cnn,
    build_ffdnn,
    count_params,
    eval_chunk,
    forward,
    predict,
)
from quantbench.quantizer import apply, direct_quantize
from quantbench.tensor import Rng, Tensor
from quantbench.trainer import (
    TrainConfig,
    TrainLog,
    _BLOCK,
    _FlatState,
    evaluate,
    retrain_config,
    retrain_quantized,
    train_float,
)


def _easy_split(seed=5, dim=8, classes=3):
    return synthetic_split(
        "blobs", 300, 100, 100, classes=classes, seed=seed, dim=dim, spread=0.15
    )


def _fast_cfg(**kw):
    base = dict(
        batch_size=32,
        lr_init=0.05,
        lr_final=1e-4,
        max_epochs=12,
        patience=4,
        seed=3,
    )
    base.update(kw)
    return TrainConfig(**base)


class TestTrainConfig:
    def test_defaults_valid(self):
        TrainConfig()

    @pytest.mark.parametrize(
        "kw",
        [
            {"batch_size": 0},
            {"lr_init": -1.0},
            {"lr_final": -1e-9},
            {"lr_init": 1e-6, "lr_final": 1e-5},
            {"lr_decay": 0.0},
            {"lr_decay": 1.5},
            {"momentum": 1.0},
            {"momentum": -0.1},
            {"rmsprop_rho": 0.0},
            {"rmsprop_rho": 1.0},
            {"rmsprop_eps": 0.0},
            {"max_epochs": -1},
            {"patience": 0},
            {"lr_init": float("nan")},
            {"lr_init": float("inf")},
            {"lr_final": float("nan")},
            {"rmsprop_eps": float("nan")},
            {"rmsprop_eps": float("inf")},
        ],
    )
    def test_invalid_rejected(self, kw):
        with pytest.raises(ConfigError):
            TrainConfig(**kw)

    def test_zero_learning_rate_allowed(self):
        cfg = TrainConfig(lr_init=0.0, lr_final=0.0)
        assert cfg.lr_init == 0.0

    def test_retrain_config_derivation(self):
        cfg = TrainConfig(lr_init=1e-3, lr_final=1e-5, max_epochs=20)
        r = retrain_config(cfg)
        assert r.lr_init == pytest.approx(1e-4)
        assert r.lr_final == pytest.approx(1e-5)
        assert r.max_epochs == 10

    def test_retrain_config_divides_exactly(self):
        # 0.05 * 0.1 is 0.005000000000000001; the schedule divides by 10
        assert retrain_config(TrainConfig(lr_init=0.05, lr_final=1e-4)).lr_init == 0.005

    def test_retrain_config_caps_final_rate(self):
        cfg = TrainConfig(lr_init=1e-3, lr_final=5e-4, max_epochs=1)
        r = retrain_config(cfg)
        assert r.lr_final == r.lr_init == pytest.approx(1e-4)
        assert r.max_epochs == 1


def _reference_step(r, v, theta, g, lr, cfg):
    """RMSProp with momentum on one array, as the trainer ran it before its
    parameters became one flat vector: new state in r and v, new theta out."""
    r *= cfg.rmsprop_rho
    r += (1.0 - cfg.rmsprop_rho) * g * g
    v *= cfg.momentum
    v -= lr * g / np.sqrt(r + cfg.rmsprop_eps)
    return theta + v


def _reference_run(net, data, cfg):
    """The training loop with per-array state and per-array updates, written
    out plainly: the flat trainer must reproduce it bit for bit."""
    net = net.copy()
    rng = Rng(cfg.seed)
    shuffle_rng = rng.spawn("shuffle")
    dropout_rng = rng.spawn("dropout") if cfg.dropout_active else None
    state = {
        (name, part): (np.zeros(a.shape), np.zeros(a.shape))
        for name, g in net.groups.items()
        for part, a in (("w", g.weights), ("b", g.bias))
    }
    start = evaluate(net, data.valid)
    log = TrainLog(start_metric=start, best_metric=start)
    best, lr, bad_epochs = net.copy(), cfg.lr_init, 0
    for epoch in range(cfg.max_epochs):
        loss_sum, seen = 0.0, 0
        for feats, labels in batches(data.train, cfg.batch_size, shuffle_rng):
            probs, cache = forward(net, feats, dropout_rng)
            picked = probs[np.arange(len(labels)), labels]
            loss_sum += float(-np.mean(np.log(picked))) * len(labels)
            seen += len(labels)
            for name, (dw, db) in backward(net, cache, labels).items():
                g = net.groups[name]
                if g.quantizer is not None:
                    shadow = _reference_step(*state[(name, "w")],
                                             g.shadow_weights.ndarray, dw, lr, cfg)
                    g.shadow_weights = Tensor(shadow)
                    g.weights = Tensor(apply(shadow, g.quantizer))
                else:
                    g.weights = Tensor(_reference_step(*state[(name, "w")],
                                                       g.weights.ndarray, dw, lr, cfg))
                g.bias = Tensor(_reference_step(*state[(name, "b")],
                                                g.bias.ndarray, db, lr, cfg))
            net.mark_params_changed()
        val = evaluate(net, data.valid)
        log.records.append(trainer.EpochRecord(epoch, loss_sum / seen, val, lr, 0.0))
        if val < log.best_metric:
            log.best_metric, log.best_epoch, best, bad_epochs = val, epoch, net.copy(), 0
        else:
            bad_epochs += 1
            lr *= cfg.lr_decay
            if lr < cfg.lr_final or bad_epochs >= cfg.patience:
                break
    return best, log


def _arrays(net):
    """(label, array) of every weight, bias and shadow array of a network."""
    out = []
    for name, g in net.groups.items():
        for part in ("weights", "bias", "shadow_weights"):
            t = getattr(g, part)
            if t is not None:
                out.append((f"{name}.{part}", t.ndarray))
    return out


def _assert_same_run(got, want):
    (net_a, log_a), (net_b, log_b) = got, want
    assert log_a.best_epoch >= 0  # the snapshot comes from training
    bytes_a = [(k, a.shape, a.tobytes()) for k, a in _arrays(net_a)]
    assert bytes_a == [(k, a.shape, a.tobytes()) for k, a in _arrays(net_b)]
    assert (log_a.start_metric, log_a.best_metric, log_a.best_epoch) == (
        log_b.start_metric, log_b.best_metric, log_b.best_epoch)
    assert [(r.epoch, r.train_loss, r.val_metric, r.lr) for r in log_a.records] == [
        (r.epoch, r.train_loss, r.val_metric, r.lr) for r in log_b.records]


class TestOptimizer:
    def test_single_step_matches_update_rule(self):
        net = build_ffdnn(4, 3, 1, 2, seed=1)
        cfg = TrainConfig(momentum=0.9, rmsprop_rho=0.9, rmsprop_eps=1e-8)
        state = _FlatState(net, cfg)
        theta = state.theta.copy()
        g = Rng(2).normal(theta.shape)
        state.grad[:] = g
        lr = 0.01
        state.step(lr)
        r = (1.0 - 0.9) * g * g
        v = -lr * g / np.sqrt(r + 1e-8)
        assert np.array_equal(state.theta, theta + v)

    def test_two_steps_accumulate_state(self):
        net = build_ffdnn(4, 3, 1, 2, seed=1)
        cfg = TrainConfig(momentum=0.9, rmsprop_rho=0.9, rmsprop_eps=1e-8)
        state = _FlatState(net, cfg)
        theta0 = state.theta.copy()
        g1 = Rng(2).normal(theta0.shape)
        g2 = Rng(3).normal(theta0.shape)
        lr = 0.01
        state.grad[:] = g1
        state.step(lr)
        state.grad[:] = g2
        state.step(lr)
        r1 = (1.0 - 0.9) * g1 * g1
        v1 = -lr * g1 / np.sqrt(r1 + 1e-8)
        r2 = 0.9 * r1 + (1.0 - 0.9) * g2 * g2
        v2 = 0.9 * v1 - lr * g2 / np.sqrt(r2 + 1e-8)
        assert np.array_equal(state.theta, (theta0 + v1) + v2)

    def test_state_is_flat_over_every_parameter_array(self):
        net = build_ffdnn(4, 3, 1, 2, seed=1)
        work = net.copy()
        state = _FlatState(work, TrainConfig())  # binds work to its vectors
        assert state.theta.shape == state.r.shape == state.v.shape == (count_params(net),)
        assert set(state.grads) == {"In-h1", "h1-out"}
        for name, (dw, db) in state.grads.items():
            g = net.groups[name]
            assert (dw.shape, db.shape) == (g.weights.shape, g.bias.shape)
            assert np.shares_memory(dw, state.grad) and np.shares_memory(db, state.grad)
        for (label, a), (_, b) in zip(_arrays(work), _arrays(net)):
            assert not np.shares_memory(b, state.theta)
            assert np.array_equal(a, b), label
            assert np.shares_memory(a, state.theta) and not a.flags.writeable

    def test_float_ffdnn_with_dropout_matches_reference(self):
        split = _easy_split()
        net = build_ffdnn(8, 16, 1, 3, dropout_rate=0.2, seed=2)
        cfg = _fast_cfg(max_epochs=4)
        _assert_same_run(train_float(net, split, cfg), _reference_run(net, split, cfg))

    def test_partial_retrain_matches_reference(self):
        split = synthetic_split("teacher_net", 600, 200, 200, classes=4, seed=11, dim=12)
        net = build_ffdnn(12, 24, 1, 4, dropout_rate=0.0, seed=2)
        trained, _ = train_float(net, split, _fast_cfg(max_epochs=8))
        quantized, _ = direct_quantize(trained, 2, groups=["In-h1"])
        cfg = _fast_cfg(lr_init=0.01, lr_final=1e-5, max_epochs=6, patience=6)
        got = retrain_quantized(quantized, split, cfg)
        assert got[0].groups["h1-out"].quantizer is None
        _assert_same_run(got, _reference_run(quantized, split, cfg))

    def test_tiny_cnn_matches_reference(self):
        split = synthetic_split("blobs", 60, 30, 10, classes=3, seed=2, shape=(2, 8, 8))
        net = build_cnn([3, 2], input_shape=(2, 8, 8), fc_units=4, classes=3, seed=1)
        cfg = _fast_cfg(lr_init=0.01, batch_size=8, max_epochs=3)
        _assert_same_run(train_float(net, split, cfg), _reference_run(net, split, cfg))

    def test_several_blocks_match_reference(self):
        split = synthetic_split("teacher_net", 200, 100, 10, classes=3, seed=4, dim=20)
        net = build_ffdnn(20, 200, 2, 3, dropout_rate=0.1, seed=3)
        assert count_params(net) > _BLOCK and count_params(net) % _BLOCK
        cfg = _fast_cfg(lr_init=0.01, max_epochs=2)
        _assert_same_run(train_float(net, split, cfg), _reference_run(net, split, cfg))


class TestAliasing:
    def test_input_network_keeps_its_bytes(self):
        split = _easy_split()
        net = build_ffdnn(8, 16, 1, 3, seed=2)
        before = [a.tobytes() for _, a in _arrays(net)]
        trained, _ = train_float(net, split, _fast_cfg(max_epochs=2))
        assert [a.tobytes() for _, a in _arrays(net)] == before
        quantized, _ = direct_quantize(trained, 2)
        before = [a.tobytes() for _, a in _arrays(quantized)]
        retrain_quantized(quantized, split, _fast_cfg(max_epochs=2))
        assert [a.tobytes() for _, a in _arrays(quantized)] == before

    def test_returned_net_is_read_only_and_kept(self):
        split = _easy_split()
        trained, log = train_float(build_ffdnn(8, 16, 1, 3, seed=2), split, _fast_cfg())
        assert log.best_epoch >= 0
        assert not any(a.flags.writeable for _, a in _arrays(trained))
        before = [a.tobytes() for _, a in _arrays(trained)]
        quantized, _ = direct_quantize(trained, 2)
        retrained, _ = retrain_quantized(quantized, split, _fast_cfg(max_epochs=2))
        train_float(trained, split, _fast_cfg(max_epochs=2))
        assert not any(a.flags.writeable for _, a in _arrays(retrained))
        assert [a.tobytes() for _, a in _arrays(trained)] == before

    def test_cache_from_before_a_step_is_stale(self, monkeypatch):
        kept = []

        def spy(net, feats, rng=None):
            if not kept:  # an extra pass without dropout draws no random numbers
                kept.append((net, forward(net, feats)[1], len(feats)))
            return forward(net, feats, rng)

        monkeypatch.setattr(trainer, "forward", spy)
        train_float(build_ffdnn(8, 16, 1, 3, seed=2), _easy_split(), _fast_cfg(max_epochs=1))
        net, cache, n = kept[0]
        with pytest.raises(UsageError, match="stale"):
            backward(net, cache, np.zeros(n, dtype=np.int64))

    def test_working_vectors_leak_into_no_returned_net(self, monkeypatch):
        working = []

        def spy(net, feats, rng=None):
            if not working or working[-1] is not net:
                working.append(net)
            return forward(net, feats, rng)

        monkeypatch.setattr(trainer, "forward", spy)
        split = _easy_split()
        net = build_ffdnn(8, 16, 1, 3, seed=2)
        runs = [train_float(net, split, _fast_cfg(max_epochs=3)) for _ in range(2)]
        assert all(log.best_epoch >= 0 for _, log in runs)
        assert len(working) == 2
        nets = [net, *working, *(out for out, _ in runs)]
        for i, a in enumerate(nets):
            for b in nets[i + 1:]:
                for (label, x), (_, y) in zip(_arrays(a), _arrays(b)):
                    assert not np.shares_memory(x, y), label


class TestEvaluate:
    def test_matches_direct_argmax(self):
        split = _easy_split()
        net = build_ffdnn(8, 16, 1, 3, seed=2)
        probs, _ = forward(net, split.valid.features.ndarray)
        expected = 100.0 * np.mean(
            probs.argmax(axis=1) != split.valid.labels
        )
        assert evaluate(net, split.valid) == pytest.approx(expected)

    def test_chunked_evaluation_consistent(self):
        split = synthetic_split(
            "blobs", EVAL_BATCH + 88, 10, 10, classes=3, seed=1, dim=6
        )
        net = build_ffdnn(6, 8, 1, 3, seed=4)
        probs, _ = forward(net, split.train.features.ndarray)
        expected = 100.0 * np.mean(
            probs.argmax(axis=1) != split.train.labels
        )
        assert evaluate(net, split.train) == pytest.approx(expected)

    def test_cnn_chunks_bounded_by_activation_bytes(self, monkeypatch):
        split = synthetic_split("blobs", 30, 5, 5, classes=3, seed=2, shape=(2, 8, 8))
        net = build_cnn([3, 2], input_shape=(2, 8, 8), fc_units=4, classes=3, seed=1)
        whole = evaluate(net, split.train)
        chunks = []
        monkeypatch.setattr(nn, "logits",
                            lambda n, x, f=nn.logits: chunks.append(len(x)) or f(n, x))
        # C1's output is the largest activation: 3 maps of 8*8 float64 per sample
        monkeypatch.setattr(nn, "SLICE_BYTES", 7 * 8 * 3 * 64)
        assert evaluate(net, split.train) == whole
        assert chunks == [7, 7, 7, 7, 2]

    def test_stops_below_the_softmax(self, monkeypatch):
        split = _easy_split()
        net = build_ffdnn(8, 16, 1, 3, seed=2)
        pred = predict(net, split.valid.features.ndarray).argmax(axis=1)
        expected = 100.0 * np.mean(pred != split.valid.labels)

        def refuse(self, x):
            raise AssertionError("evaluate ran the softmax")

        monkeypatch.setattr(nn._SoftmaxLayer, "infer", refuse)
        assert evaluate(net, split.valid) == expected

    def test_cifar_shaped_chunk(self):
        # 16 MiB over C1's 256 KiB output per sample: cnn-train's 64-sample
        # evaluations stay one chunk, and 512 CIFAR samples take eight.
        assert eval_chunk(build_cnn([32, 32, 64]).spec) == 64
        assert eval_chunk(build_ffdnn(3072, 512, 3, 10).spec) == EVAL_BATCH

    def test_cifar_shaped_evaluation_memory_bounded(self, monkeypatch):
        net = build_cnn([32, 32, 64], seed=1)
        x = Rng(0).uniform((512, 3, 32, 32), -1.0, 1.0)
        ds = Dataset(Tensor(x), np.zeros(512, dtype=np.int64), 10)
        monkeypatch.setattr(nn, "_workspace", np.empty(0))  # count its growth
        tracemalloc.start()
        try:
            evaluate(net, ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # At C1's ReLU a chunk holds C1's output, the ReLU's and the unfold
        # workspace (one patch run), each at most SLICE_BYTES. A whole
        # 512-sample chunk would hold 128 MiB in C1's output alone.
        assert peak < 3.5 * nn.SLICE_BYTES

    def test_empty_split_rejected(self):
        net = build_ffdnn(4, 3, 1, 2, seed=1)
        empty = Dataset(Tensor.zeros((0, 4)), np.zeros(0, dtype=np.int64), 2)
        with pytest.raises(ConfigError):
            evaluate(net, empty)


class TestTrainFloat:
    def test_empty_train_split_rejected(self):
        split = _easy_split()
        empty = Dataset(Tensor.zeros((0, 8)), np.zeros(0, dtype=np.int64), 3)
        net = build_ffdnn(8, 4, 1, 3, seed=2)
        with pytest.raises(ConfigError, match="empty"):
            train_float(net, DatasetSplit(empty, split.valid, split.test), _fast_cfg())

    def test_quantized_network_rejected(self):
        split = _easy_split()
        quantized, _ = direct_quantize(build_ffdnn(8, 4, 1, 3, seed=2), 2)
        with pytest.raises(UsageError, match="float training requires"):
            train_float(quantized, split, _fast_cfg(max_epochs=1))

    def test_learns_easy_task(self):
        split = _easy_split()
        net = build_ffdnn(8, 16, 1, 3, dropout_rate=0.1, seed=2)
        before = evaluate(net, split.valid)
        trained, log = train_float(net, split, _fast_cfg())
        after = evaluate(trained, split.valid)
        assert after < before
        assert after < 10.0

    def test_returned_net_is_best_snapshot(self):
        split = _easy_split()
        net = build_ffdnn(8, 16, 1, 3, seed=2)
        trained, log = train_float(net, split, _fast_cfg())
        assert log.best_epoch >= 0
        assert evaluate(trained, split.valid) == pytest.approx(log.best_metric)

    def test_start_snapshot_named_when_no_epoch_beats_it(self):
        # Too high a rate only worsens a pretrained net: the start is what
        # comes back, so the log must name the start, not a logged epoch.
        split = synthetic_split("teacher_net", 300, 100, 100, classes=4, seed=11, dim=12)
        net = build_ffdnn(12, 16, 1, 4, dropout_rate=0.0, seed=2)
        pretrained, _ = train_float(net, split, _fast_cfg(lr_init=0.01, max_epochs=10))
        start = evaluate(pretrained, split.valid)
        trained, log = train_float(
            pretrained, split,
            _fast_cfg(lr_final=0.0, max_epochs=2, dropout_active=False),
        )
        assert all(r.val_metric >= start for r in log.records)
        assert log.best_epoch == -1
        assert log.best_metric == evaluate(trained, split.valid) == start
        assert log.start_metric == start

    def test_input_network_not_mutated(self):
        split = _easy_split()
        net = build_ffdnn(8, 16, 1, 3, seed=2)
        snapshot = {
            name: g.weights.ndarray.copy() for name, g in net.groups.items()
        }
        train_float(net, split, _fast_cfg(max_epochs=2))
        for name, g in net.groups.items():
            assert np.array_equal(g.weights.ndarray, snapshot[name])

    def test_deterministic_per_seed(self):
        split = _easy_split()
        net = build_ffdnn(8, 16, 1, 3, dropout_rate=0.2, seed=2)
        cfg = _fast_cfg(max_epochs=4)
        a, log_a = train_float(net, split, cfg)
        b, log_b = train_float(net, split, cfg)
        for name in a.groups:
            assert np.array_equal(
                a.groups[name].weights.ndarray, b.groups[name].weights.ndarray
            )
        assert [r.train_loss for r in log_a.records] == [
            r.train_loss for r in log_b.records
        ]

    def test_seed_changes_trajectory(self):
        split = _easy_split()
        net = build_ffdnn(8, 16, 1, 3, dropout_rate=0.2, seed=2)
        _, log_a = train_float(net, split, _fast_cfg(max_epochs=3, seed=1))
        _, log_b = train_float(net, split, _fast_cfg(max_epochs=3, seed=2))
        assert [r.train_loss for r in log_a.records] != [
            r.train_loss for r in log_b.records
        ]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflows on purpose
    def test_divergence_raises(self):
        split = _easy_split()
        net = build_ffdnn(8, 16, 1, 3, seed=2)
        # A rate whose first steps overflow the logits to inf/NaN; at 1e8 the
        # loss stays finite (about 5e17) and the net reaches 1% error.
        cfg = _fast_cfg(lr_init=1e200, lr_final=1.0, max_epochs=3)
        with pytest.raises(DivergenceError, match="diverged"):
            train_float(net, split, cfg)

    def test_saturated_softmax_is_not_divergence(self):
        # Logits [0, 800] with label 0: the picked probability underflows to
        # 0, but the network and its loss (800) are finite.
        net = build_ffdnn(2, 1, 0, 2)
        net.groups["In-out"].weights = Tensor(np.array([[0.0, 800.0], [0.0, 0.0]]))
        ds = Dataset(Tensor(np.tile([1.0, 0.0], (4, 1))), np.zeros(4), 2)
        split = DatasetSplit(train=ds, valid=ds, test=ds)
        cfg = _fast_cfg(lr_init=0.0, lr_final=0.0, max_epochs=2)
        _, log = train_float(net, split, cfg)
        assert [r.train_loss for r in log.records] == [800.0, 800.0]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflows on purpose
    def test_divergence_carries_epoch_and_rate(self):
        split = _easy_split()
        net = build_ffdnn(8, 16, 1, 3, seed=2)
        try:
            train_float(net, split, _fast_cfg(lr_init=1e200, lr_final=1.0))
        except DivergenceError as exc:
            assert exc.epoch == 0
            assert exc.lr == pytest.approx(1e200)
        else:
            pytest.fail("expected DivergenceError")

    def test_divergence_survives_pickling(self):
        # Parallel sweeps ship worker exceptions through a process pool,
        # which round-trips them with pickle.
        import pickle

        err = DivergenceError(epoch=4, lr=0.25)
        back = pickle.loads(pickle.dumps(err))
        assert isinstance(back, DivergenceError)
        assert back.epoch == 4
        assert back.lr == 0.25
        assert str(back) == str(err)

    def test_log_schema(self):
        split = _easy_split()
        net = build_ffdnn(8, 16, 1, 3, seed=2)
        _, log = train_float(net, split, _fast_cfg(max_epochs=3))
        assert [r.epoch for r in log.records] == list(range(len(log.records)))
        for r in log.records:
            assert np.isfinite(r.train_loss)
            assert 0.0 <= r.val_metric <= 100.0
            assert r.lr > 0
            assert r.seconds >= 0


class TestRetrain:
    def _setup(self, n_bits=3, seed=2):
        split = _easy_split()
        net = build_ffdnn(8, 16, 1, 3, dropout_rate=0.0, seed=seed)
        trained, _ = train_float(net, split, _fast_cfg())
        quantized, _ = direct_quantize(trained, n_bits)
        return split, trained, quantized

    def test_requires_quantized_network(self):
        split = _easy_split()
        net = build_ffdnn(8, 16, 1, 3, seed=2)
        with pytest.raises(UsageError, match="direct-quantized"):
            retrain_quantized(net, split, _fast_cfg())

    def test_requires_shadow_weights(self):
        split, _, quantized = self._setup()
        quantized.groups["In-h1"].shadow_weights = None
        with pytest.raises(UsageError, match="shadow"):
            retrain_quantized(quantized, split, _fast_cfg())

    def test_stays_on_grid_and_freezes_quantizer(self):
        split, _, quantized = self._setup()
        specs = {n: g.quantizer for n, g in quantized.groups.items()}
        retrained, _ = retrain_quantized(
            quantized, split, retrain_config(_fast_cfg())
        )
        for name, g in retrained.groups.items():
            spec = g.quantizer
            assert spec == specs[name]
            codes = np.rint(g.weights.ndarray / spec.delta)
            assert np.abs(codes).max() <= spec.max_code
            assert np.array_equal(codes * spec.delta, g.weights.ndarray)

    def test_never_worse_than_direct_on_validation(self):
        split, _, quantized = self._setup(n_bits=2)
        retrained, _ = retrain_quantized(
            quantized, split, retrain_config(_fast_cfg())
        )
        assert evaluate(retrained, split.valid) <= evaluate(quantized, split.valid)

    def test_zero_learning_rate_is_identity(self):
        split, _, quantized = self._setup()
        cfg = _fast_cfg(lr_init=0.0, lr_final=0.0, max_epochs=2, patience=1)
        out, _ = retrain_quantized(quantized, split, cfg)
        for name, g in quantized.groups.items():
            og = out.groups[name]
            assert np.array_equal(g.weights.ndarray, og.weights.ndarray)
            assert np.array_equal(g.bias.ndarray, og.bias.ndarray)
            assert np.array_equal(
                g.shadow_weights.ndarray, og.shadow_weights.ndarray
            )

    def test_shadow_moves_while_weights_stay_gridded(self):
        # Ternary leaves recovery headroom, so the returned snapshot is a
        # post-update state rather than the starting one (3 bits can be
        # lossless here, in which case keep-best returns the input unchanged).
        split, _, quantized = self._setup(n_bits=2)
        retrained, _ = retrain_quantized(
            quantized, split, _fast_cfg(max_epochs=2, patience=2)
        )
        moved = any(
            not np.array_equal(
                quantized.groups[n].shadow_weights.ndarray,
                retrained.groups[n].shadow_weights.ndarray,
            )
            for n in quantized.groups
        )
        assert moved
        for g in retrained.groups.values():
            spec = g.quantizer
            codes = np.rint(g.weights.ndarray / spec.delta)
            assert np.array_equal(codes * spec.delta, g.weights.ndarray)

    def test_partially_quantized_groups_keep_training(self):
        # A task with headroom: ternary-quantizing the first group hurts, so
        # retraining improves on the baseline and returns a mid-run snapshot.
        split = synthetic_split("teacher_net", 600, 200, 200, classes=4, seed=11, dim=12)
        net = build_ffdnn(12, 24, 1, 4, dropout_rate=0.0, seed=2)
        trained, _ = train_float(net, split, _fast_cfg(max_epochs=8))
        quantized, _ = direct_quantize(trained, 2, groups=["In-h1"])
        retrained, log = retrain_quantized(
            quantized,
            split,
            _fast_cfg(lr_init=0.01, lr_final=1e-5, max_epochs=6, patience=6),
        )
        assert log.best_epoch >= 0
        assert not np.array_equal(
            quantized.groups["h1-out"].weights.ndarray,
            retrained.groups["h1-out"].weights.ndarray,
        )
        assert retrained.groups["h1-out"].quantizer is None

    def test_input_network_not_mutated(self):
        split, _, quantized = self._setup()
        w_before = {
            n: g.weights.ndarray.copy() for n, g in quantized.groups.items()
        }
        s_before = {
            n: g.shadow_weights.ndarray.copy() for n, g in quantized.groups.items()
        }
        retrain_quantized(quantized, split, _fast_cfg(max_epochs=2))
        for n, g in quantized.groups.items():
            assert np.array_equal(g.weights.ndarray, w_before[n])
            assert np.array_equal(g.shadow_weights.ndarray, s_before[n])


class TestTrainLogCsv:
    def _log(self):
        split = _easy_split()
        net = build_ffdnn(8, 16, 1, 3, seed=2)
        _, log = train_float(net, split, _fast_cfg(max_epochs=3))
        return log

    def test_header_and_zeroed_seconds(self, tmp_path):
        log = self._log()
        p = tmp_path / "log.csv"
        write_train_log(log, p)
        rows = list(csv.reader(p.read_text().splitlines()))
        assert rows[0] == LOG_FIELDS
        assert len(rows) == 1 + len(log.records)
        assert all(r[4] == "0.0" for r in rows[1:])

    def test_values_round_trip_exactly(self, tmp_path):
        log = self._log()
        p = tmp_path / "log.csv"
        write_train_log(log, p)
        rows = list(csv.reader(p.read_text().splitlines()))[1:]
        for row, rec in zip(rows, log.records):
            assert int(row[0]) == rec.epoch
            assert float(row[1]) == rec.train_loss
            assert float(row[2]) == rec.val_metric
            assert float(row[3]) == rec.lr
