"""Acceptance gate: one test per numbered criterion, at pinned tolerances.

The conftest hook prints a PASS/FAIL/SKIP line per criterion after the run.
Criteria 5 and 8 share one width sweep on a balanced teacher task; criterion
8 asserts a compression-ratio trend that is not guaranteed at desk scale and
fails with the full record set and a written analysis when it does not hold.
Criterion 10 needs the CIFAR-10 binary batches and is skipped unless
QUANTBENCH_CIFAR_DIR points at them; it is an overnight CPU job.
"""

import csv
import hashlib
import json
import os
import time

import numpy as np
import pytest

from quantbench.cli import main as cli_main
from quantbench.data import DatasetSplit, load_cifar10, synthetic_split
from quantbench.experiments import (
    FloatBaselineCurve,
    NetworkConfig,
    SweepRecord,
    baseline_curve,
    ecr,
    effective_params,
    emit_report,
    run_depth_sweep,
    run_width_sweep,
    write_records_csv,
)
from quantbench.nn import Network, Tensor, build_cnn, build_ffdnn, count_params
from quantbench.quantizer import QuantizerSpec, apply, bits_to_levels, direct_quantize, optimize_delta
from quantbench.trainer import (
    TrainConfig,
    evaluate,
    retrain_config,
    retrain_quantized,
    train_float,
)

from gradcheck import worst_gradient_error

CIFAR_ENV = "QUANTBENCH_CIFAR_DIR"


# ---------------------------------------------------------------------------
# Criterion 1: step-size fit vs exhaustive grid search
# ---------------------------------------------------------------------------


def _distortion_curve(weights, M, deltas):
    """L2 distortion of quantizing ``weights`` to M levels, per candidate step.

    With q_i = min(floor(|w_i|/d + 0.5), C) and C = (M-1)/2, the distortion is
    0.5 * (sum w^2 - 2*d*S1 + d^2*S2) where S1 = sum q_i*|w_i| and
    S2 = sum q_i^2. Since q_i counts the thresholds (k-0.5)*d below |w_i|
    (capped at C), S1 and S2 reduce to suffix sums over sorted |w| looked up
    with searchsorted, making the whole grid evaluable in O(C*G*log N).
    """
    a = np.sort(np.abs(np.asarray(weights, dtype=np.float64)).reshape(-1))
    prefix = np.concatenate([[0.0], np.cumsum(a)])
    total = prefix[-1]
    n = a.size
    half_levels = (M - 1) // 2
    s1 = np.zeros(deltas.size)
    s2 = np.zeros(deltas.size)
    for k in range(1, half_levels + 1):
        idx = np.searchsorted(a, (k - 0.5) * deltas, side="left")
        s1 += total - prefix[idx]
        s2 += (2 * k - 1) * (n - idx)
    w_sq = float(np.dot(a, a))
    return 0.5 * (w_sq - 2.0 * deltas * s1 + deltas * deltas * s2)


def _distortion_brute(weights, M, deltas):
    """Direct evaluation of the same distortion, O(N*G); small cases only."""
    half_levels = (M - 1) // 2
    absw = np.abs(np.asarray(weights, dtype=np.float64)).reshape(1, -1)
    q = np.minimum(np.floor(absw / deltas[:, None] + 0.5), half_levels)
    diff = q * deltas[:, None] - absw
    return 0.5 * np.sum(diff * diff, axis=1)


def _random_vector(rng, size, flavor):
    if flavor == 0:  # gaussian
        return rng.normal(0.0, rng.uniform(0.1, 3.0), size)
    if flavor == 1:  # uniform
        a = rng.uniform(0.2, 5.0)
        return rng.uniform(-a, a, size)
    mu = rng.uniform(0.5, 2.0)  # bimodal
    return rng.choice([-mu, mu], size) + rng.normal(0.0, 0.2 * mu, size)


def test_criterion_01_step_size_fit_matches_grid_search():
    t0 = time.monotonic()
    rng = np.random.default_rng(20260819)
    sizes = np.geomspace(10, 10_000, 50).astype(int)

    # The layered grid evaluator is itself an oracle; cross-check it against
    # the direct formula before trusting it on the large vectors.
    probe = _random_vector(rng, 157, 0)
    probe_deltas = np.linspace(1e-3, 2.0 * np.abs(probe).max(), 517)
    for m_check in (3, 7, 15):
        fast = _distortion_curve(probe, m_check, probe_deltas)
        slow = _distortion_brute(probe, m_check, probe_deltas)
        assert np.allclose(fast, slow, rtol=1e-12, atol=1e-12)

    worst_ratio = 1.0
    for i, size in enumerate(sizes):
        w = _random_vector(rng, int(size), i % 3)
        w_max = float(np.abs(w).max())
        step = 1e-4 * w_max
        deltas = step * np.arange(1, 20_001)  # covers (0, 2*max|w|]
        for M in (3, 7, 15):
            _, report = optimize_delta(w, M)
            grid_best = float(_distortion_curve(w, M, deltas).min())
            assert report.l2_error <= grid_best * 1.005 + 1e-15, (
                f"size={size} M={M}: fitted error {report.l2_error} exceeds "
                f"grid minimum {grid_best} by more than 0.5%"
            )
            if grid_best > 0:
                worst_ratio = max(worst_ratio, report.l2_error / grid_best)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget is 60s"
    assert worst_ratio <= 1.005


# ---------------------------------------------------------------------------
# Criterion 2: quantization rule transliteration
# ---------------------------------------------------------------------------


def test_criterion_02_rule_matches_transliteration_bit_exactly():
    rng = np.random.default_rng(31337)
    blocks = 1000
    per_block = 1000
    level_choices = np.arange(3, 256, 2)
    saturated = 0
    zeros = 0
    for _ in range(blocks):
        M = int(rng.choice(level_choices))
        delta = float(10.0 ** rng.uniform(-4.0, 1.0))
        half = (M - 1) / 2.0
        spread = rng.uniform(0.2, 2.0)  # beyond 1.0 forces saturation
        w = rng.normal(0.0, half * delta * spread, per_block)
        w[::97] = 0.0
        w[1::97] = delta * 0.5  # exactly on a rounding threshold
        spec = QuantizerSpec(M=M, delta=delta)

        translit = np.sign(w) * delta * np.minimum(
            np.floor(np.abs(w) / delta + 0.5), half
        )
        got = apply(w, spec)
        got = got.ndarray if isinstance(got, Tensor) else np.asarray(got)
        assert np.array_equal(got, translit), f"mismatch at M={M} delta={delta}"

        neg = apply(-w, spec)
        neg = neg.ndarray if isinstance(neg, Tensor) else np.asarray(neg)
        assert np.array_equal(neg, -translit)

        saturated += int(np.sum(np.floor(np.abs(w) / delta + 0.5) > half))
        zeros += int(np.sum(w == 0.0))
    assert blocks * per_block == 1_000_000
    assert saturated > 10_000, "saturation cases were not exercised"
    assert zeros > 5_000, "zero cases were not exercised"


# ---------------------------------------------------------------------------
# Criterion 3: gradients vs central finite differences
# ---------------------------------------------------------------------------


def test_criterion_03_gradients_match_finite_differences():
    t0 = time.monotonic()
    data_rng = np.random.default_rng(555)

    cases = []
    net = build_ffdnn(12, 14, 2, 5, dropout_rate=0.0, seed=33)
    cases.append((net, (9, 12), 5, "eval"))
    net = build_ffdnn(12, 14, 2, 5, dropout_rate=0.3, seed=34)
    cases.append((net, (9, 12), 5, "train"))
    net = build_cnn([3, 4], input_shape=(2, 10, 10), fc_units=9, classes=4, seed=44)
    cases.append((net, (3, 2, 10, 10), 4, "eval"))
    net = build_cnn([3], input_shape=(1, 9, 9), fc_units=7, classes=3, seed=55)
    cases.append((net, (3, 1, 9, 9), 3, "eval"))

    for net, x_shape, classes, mode in cases:
        assert count_params(net) <= 10_000
        x = data_rng.normal(0.0, 1.0, x_shape)
        targets = data_rng.integers(0, classes, x_shape[0])
        worst = worst_gradient_error(net, x, targets, mode=mode, eps=1e-5)
        assert worst < 1e-6, f"{mode} net: worst relative error {worst:.3e}"

    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s, budget is 30s"


# ---------------------------------------------------------------------------
# Criterion 4: on-grid after every retraining epoch; zero-lr no-op
# ---------------------------------------------------------------------------


def _grid_violation(net: Network) -> str:
    checked = 0
    for name, g in net.groups.items():
        if g.quantizer is None:
            continue
        checked += 1
        w = g.weights.ndarray
        q = np.rint(w / g.quantizer.delta)
        if np.abs(q).max(initial=0.0) > g.quantizer.max_code:
            return f"group {name}: code beyond +/-{g.quantizer.max_code}"
        if not np.array_equal(q * g.quantizer.delta, w):
            return f"group {name}: weights are off the step grid"
    if checked == 0:
        return "no quantized groups present"
    return ""


def test_criterion_04_grid_every_epoch_and_zero_lr_noop(monkeypatch):
    import quantbench.trainer as trainer_mod

    split = synthetic_split(
        "teacher_net", 600, 200, 200, classes=4, seed=11, dim=12
    )
    net = build_ffdnn(12, 24, 1, 4, dropout_rate=0.0, seed=9)
    cfg = TrainConfig(batch_size=32, lr_init=0.05, lr_final=1e-4,
                      max_epochs=8, patience=8, seed=3, dropout_active=False)
    trained, _ = train_float(net, split, cfg)
    qnet, _ = direct_quantize(trained, 2)

    real_check = trainer_mod._assert_on_grid
    epochs_verified = {"count": 0}

    def verifying_check(live_net):
        problem = _grid_violation(live_net)
        assert not problem, f"epoch {epochs_verified['count']}: {problem}"
        epochs_verified["count"] += 1
        real_check(live_net)

    monkeypatch.setattr(trainer_mod, "_assert_on_grid", verifying_check)
    rcfg = TrainConfig(batch_size=32, lr_init=0.005, lr_final=1e-5,
                       max_epochs=6, patience=6, seed=3, dropout_active=False)
    rnet, log = retrain_quantized(qnet, split, rcfg)
    monkeypatch.setattr(trainer_mod, "_assert_on_grid", real_check)

    assert epochs_verified["count"] == len(log.records) >= 1
    assert _grid_violation(rnet) == ""  # returned snapshot is on grid too

    zero_cfg = TrainConfig(batch_size=32, lr_init=0.0, lr_final=0.0,
                           max_epochs=3, patience=3, seed=3,
                           dropout_active=False)
    zero_net, _ = retrain_quantized(qnet, split, zero_cfg)
    for name, g in qnet.groups.items():
        z = zero_net.groups[name]
        assert np.array_equal(z.weights.ndarray, g.weights.ndarray)
        assert np.array_equal(z.bias.ndarray, g.bias.ndarray)
        if g.shadow_weights is not None:
            assert np.array_equal(z.shadow_weights.ndarray, g.shadow_weights.ndarray)


# ---------------------------------------------------------------------------
# Criteria 5 and 8: shared teacher-task width sweep
# ---------------------------------------------------------------------------

SWEEP_WIDTHS = (16, 64, 256)
MID_WIDTH = "64"


@pytest.fixture(scope="module")
def teacher_sweep():
    """Width sweep over a balanced 20-dim 10-class teacher task.

    Teacher seed 317 was picked by scanning seeds for class balance (largest
    class 17%, smallest 4%); training lengths keep the whole sweep well under
    the 15 minute budget.
    """
    split = synthetic_split(
        "teacher_net", 5000, 1000, 1000, classes=10, seed=317, dim=20
    )
    cfg = TrainConfig(batch_size=128, lr_init=0.05, lr_final=1e-4,
                      max_epochs=30, patience=8, seed=0, dropout_active=False)
    t0 = time.monotonic()
    records = run_width_sweep(
        "ffdnn", sizes=list(SWEEP_WIDTHS), bit_list=[2, 4, 8],
        modes=("float", "direct", "retrained"), data=split, cfg=cfg,
        seed_reps=3, jobs=2,
    )
    return records, time.monotonic() - t0


def _pick(records, mode, width, bits=None, seed=None):
    out = [
        r for r in records
        if r.mode == mode and r.width_or_maps == str(width)
        and (bits is None or r.n_bits == bits)
        and (seed is None or r.seed == seed)
    ]
    return out


def test_criterion_05_width_sweep_gap_shrinks(teacher_sweep):
    records, elapsed = teacher_sweep
    assert elapsed < 900.0, f"sweep took {elapsed:.0f}s, budget is 900s"

    # (a) ternary retraining never loses to direct quantization, any width,
    # any seed, on the validation metric used for model selection.
    for width in SWEEP_WIDTHS:
        retrained = _pick(records, "retrained", width, bits=2)
        assert len(retrained) == 3
        for r in retrained:
            direct = _pick(records, "direct", width, bits=2, seed=r.seed)[0]
            assert r.val_metric <= direct.val_metric, (
                f"width {width} seed {r.seed}: retrained {r.val_metric} "
                f"worse than direct {direct.val_metric}"
            )

    # (b) the remaining gap to float shrinks as width grows.
    def median_gap(width, attr):
        gaps = []
        for r in _pick(records, "retrained", width, bits=2):
            f = _pick(records, "float", width, seed=r.seed)[0]
            gaps.append(getattr(r, attr) - getattr(f, attr))
        return float(np.median(gaps))

    for attr in ("val_metric", "test_metric"):
        wide = median_gap(256, attr)
        narrow = median_gap(16, attr)
        assert wide < narrow, (
            f"{attr}: median ternary gap at width 256 ({wide:.2f}) is not "
            f"below the gap at width 16 ({narrow:.2f})"
        )


def test_criterion_08_two_bit_ecr_at_middle_width(teacher_sweep):
    records, _ = teacher_sweep
    curve = baseline_curve(records, "ffdnn")

    ecr_values = {}
    for bits in (2, 4, 8):
        ecr_values[bits] = sorted(
            ecr(r, curve) for r in _pick(records, "retrained", MID_WIDTH, bits=bits)
        )
    medians = {bits: float(np.median(v)) for bits, v in ecr_values.items()}

    if medians[2] >= medians[4] and medians[2] >= medians[8]:
        return

    lines = [
        "2-bit retraining does not attain the best effective compression "
        f"ratio at width {MID_WIDTH}: medians over 3 seeds are "
        f"{ {b: round(m, 3) for b, m in medians.items()} }.",
        "",
        f"float baseline curve (params, val error): {curve.points}",
        f"per-seed ECR by bit width at width {MID_WIDTH}: "
        f"{ {b: [round(v, 3) for v in vs] for b, vs in ecr_values.items()} }",
        "",
        "full record set:",
        "family width depth mode      bits seed        params    bits_total"
        "   val   test",
    ]
    for r in sorted(records, key=SweepRecord.sort_key):
        lines.append(
            f"{r.family:6s} {r.width_or_maps:>5s} {r.depth:5d} {r.mode:9s} "
            f"{r.n_bits:4d} {r.seed:11d} {r.param_count:9d} "
            f"{r.total_weight_bits:13d} {r.val_metric:5.1f} {r.test_metric:5.1f}"
        )
    lines += [
        "",
        "analysis: at this scale the float error curve spans only a few "
        "points between widths 16 and 256, because a random teacher task is "
        "largely fit by the smallest network. Ternary retraining at width 64 "
        "recovers most but not all of the direct-quantization damage and "
        "plateaus well above the entire float curve, so its effective "
        "parameter count clamps to the smallest float network, while "
        "8-bit retraining is near lossless and interpolates inside the "
        "curve. The ratio ordering therefore inverts. Reproducing the "
        "expected ordering requires networks with enough spare capacity "
        "that 2-bit retraining re-enters the float accuracy band, which "
        "desk-scale budgets do not reach; see README, acceptance notes.",
    ]
    pytest.fail("\n".join(lines), pytrace=False)


# ---------------------------------------------------------------------------
# Criterion 6: depth report difference column vs hand arithmetic
# ---------------------------------------------------------------------------


def test_criterion_06_depth_report_difference_column(tmp_path):
    split = synthetic_split("blobs", 300, 100, 100, classes=3, seed=5, dim=8,
                            spread=0.2)
    cfg = TrainConfig(batch_size=32, lr_init=0.05, lr_final=1e-4,
                      max_epochs=4, patience=4, seed=1, dropout_active=False)
    records = run_depth_sweep(
        "ffdnn", depths=[1, 2], bit_list=[2], network=NetworkConfig(hidden_units=12),
        modes=("float", "direct", "retrained"), data=split, cfg=cfg,
        seed_reps=3, jobs=2,
    )
    out = tmp_path / "report"
    emit_report(records, str(out))
    write_records_csv(records, str(out / "records.csv"))

    # Hand arithmetic straight off the emitted CSV.
    by_key = {}
    with open(out / "records.csv", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            key = (row["family"], row["width_or_maps"], int(row["depth"]),
                   row["mode"])
            by_key.setdefault(key, []).append(float(row["test_metric"]))

    summary = (out / "summary.md").read_text(encoding="utf-8").splitlines()
    assert "| Family | Size | Depth | Float | Direct | Retrained | Difference |" in summary

    rows_checked = 0
    for depth in (1, 2):
        float_med = float(np.median(by_key[("ffdnn", "12", depth, "float")]))
        retr_med = float(np.median(by_key[("ffdnn", "12", depth, "retrained")]))
        expected = f"{retr_med - float_med:+.2f}"
        for line in summary:
            if line.startswith(f"| ffdnn | 12 | {depth} |"):
                cells = [c.strip() for c in line.strip().strip("|").split("|")]
                assert cells[-1] == expected, (
                    f"depth {depth}: summary difference {cells[-1]!r} does "
                    f"not match hand arithmetic {expected!r}"
                )
                rows_checked += 1
    assert rows_checked == 2


# ---------------------------------------------------------------------------
# Criterion 7: compression ratio arithmetic
# ---------------------------------------------------------------------------


def test_criterion_07_ecr_worked_example_and_interpolation():
    # A 1,000,000-weight network at 2 bits per weight whose accuracy matches
    # a 500,000-parameter float network: 500000 * 32 / 2000000 = 8.0 exactly.
    record = SweepRecord(
        family="ffdnn", width_or_maps="1024", depth=1, mode="retrained",
        n_bits=2, seed=0, param_count=1_000_000,
        total_weight_bits=2_000_000, val_metric=10.0, test_metric=10.0,
    )
    curve = FloatBaselineCurve(points=((500_000, 10.0), (1_000_000, 5.0)))
    assert effective_params(curve, 10.0) == (500_000.0, False)
    assert ecr(record, curve) == 8.0

    # Node hits return the node parameter counts exactly.
    curve = FloatBaselineCurve(points=((100, 10.0), (250, 6.0), (400, 2.0)))
    for params, metric in curve.points:
        assert effective_params(curve, metric) == (float(params), False)

    # Hand-checked interpolants; chosen so the arithmetic is exact in floats.
    curve = FloatBaselineCurve(points=((100, 10.0), (400, 2.0)))
    assert effective_params(curve, 6.0) == (250.0, False)  # halfway
    assert effective_params(curve, 8.0) == (175.0, False)  # quarter way
    log_curve = FloatBaselineCurve(points=((100, 10.0), (400, 2.0)), scale="log2")
    params, clamped = effective_params(log_curve, 6.0)
    assert not clamped
    assert params == pytest.approx(200.0, rel=1e-12)  # geometric midpoint

    # Metrics outside the curve clamp to the nearest end and say so.
    assert effective_params(curve, 11.0) == (100.0, True)
    assert effective_params(curve, 1.0) == (400.0, True)


# ---------------------------------------------------------------------------
# Criterion 9: byte-identical reruns
# ---------------------------------------------------------------------------


def _digest_tree(root):
    digests = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root)
            with open(path, "rb") as fh:
                digests[rel] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def _chain_config(out_dir):
    return {
        "seed": 7,
        "out_dir": str(out_dir),
        "dataset": {
            "kind": "blobs", "n_train": 120, "n_valid": 40, "n_test": 40,
            "classes": 3, "dim": 6, "spread": 0.3,
        },
        "network": {"family": "ffdnn", "hidden_units": 6, "dropout_rate": 0.0},
        "train": {
            "batch_size": 32, "lr_init": 0.02, "lr_final": 0.0001,
            "max_epochs": 2, "patience": 2,
        },
        "sweep": {"axis": "width", "sizes": [4, 8], "seed_reps": 2},
        "quant": {"checkpoint": "", "n_bits": 2, "bits": [2]},
    }


def _run_chain(tmp_path, tag):
    out = tmp_path / tag
    cfg = _chain_config(out)
    cfg["quant"]["checkpoint"] = str(out / "float.ckpt")
    config = tmp_path / f"{tag}.json"
    config.write_text(json.dumps(cfg, indent=1))
    for command in ("train", "quantize", "sweep", "ecr", "report"):
        assert cli_main([command, "--config", str(config)]) == 0
    cfg["quant"]["checkpoint"] = str(out / "quantized_2bit.ckpt")
    config.write_text(json.dumps(cfg, indent=1))
    assert cli_main(["retrain", "--config", str(config)]) == 0
    return out


def test_criterion_09_reruns_are_byte_identical(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("QUANTBENCH_SEED", raising=False)

    first = _run_chain(tmp_path, "a")
    digests_first = _digest_tree(first)
    expected = {
        "float.ckpt", "train_log.csv", "quantized_2bit.ckpt",
        "quant_report.csv", "retrained.ckpt", "retrain_log.csv",
        "records.csv", "ecr.csv", "plot_bits_vs_error.csv",
        "plot_size_vs_error.csv", "summary.md",
    }
    assert expected <= set(digests_first)

    # Rerun into the same directory: every artifact overwritten identically.
    _run_chain(tmp_path, "a")
    assert _digest_tree(first) == digests_first

    # Fresh directory: identical bytes again.
    second = _run_chain(tmp_path, "b")
    assert _digest_tree(second) == digests_first
    capsys.readouterr()


# ---------------------------------------------------------------------------
# Criterion 10: CIFAR-10 CNN, float vs 7-level retrained (optional)
# ---------------------------------------------------------------------------


@pytest.mark.skipif(
    CIFAR_ENV not in os.environ,
    reason=f"set {CIFAR_ENV} to the directory holding the CIFAR-10 binary "
    "batches to run this overnight CPU job",
)
def test_criterion_10_cifar_cnn_seven_level_retraining():
    split = load_cifar10(os.environ[CIFAR_ENV])
    net = build_cnn([32, 32, 64], input_shape=(3, 32, 32), fc_units=64,
                    classes=10, seed=2020)
    cfg = TrainConfig(batch_size=64, lr_init=0.002, lr_final=1e-5,
                      max_epochs=30, patience=5, seed=2020)
    trained, _ = train_float(net, split, cfg)
    float_err = evaluate(trained, split.test)

    assert bits_to_levels(3) == 7
    qnet, _ = direct_quantize(trained, 3)
    rnet, _ = retrain_quantized(qnet, split, retrain_config(cfg))
    retr_err = evaluate(rnet, split.test)

    print(f"float test error {float_err:.2f}, retrained 7-level {retr_err:.2f}")
    assert retr_err - float_err <= 1.5
