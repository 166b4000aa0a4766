"""Uniform quantizer: grid mapping, step-size fitting, network application."""

import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from quantbench import build_ffdnn, quantizer
from quantbench.errors import ConfigError
from quantbench.experiments import write_reports
from quantbench.quantizer import (
    QuantizationReport,
    QuantizerSpec,
    apply,
    bits_to_levels,
    codes,
    direct_quantize,
    l2_error,
    optimize_delta,
)
from quantbench.tensor import Rng


class TestQuantizerSpec:
    def test_rejects_even_levels(self):
        with pytest.raises(ConfigError):
            QuantizerSpec(M=4, delta=0.1)

    def test_rejects_tiny_levels(self):
        with pytest.raises(ConfigError):
            QuantizerSpec(M=1, delta=0.1)

    def test_rejects_nonpositive_delta(self):
        for delta in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ConfigError):
                QuantizerSpec(M=3, delta=delta)

    def test_max_code(self):
        assert QuantizerSpec(M=7, delta=1.0).max_code == 3


class TestApply:
    def test_hand_values_ternary(self):
        spec = QuantizerSpec(M=3, delta=0.1)
        assert apply(0.0, spec) == 0.0
        assert apply(0.07, spec) == pytest.approx(0.1)
        assert apply(0.04, spec) == 0.0
        assert apply(-0.35, spec) == pytest.approx(-0.1)  # saturates at one step

    def test_odd_symmetry_exact(self):
        spec = QuantizerSpec(M=7, delta=0.3)
        w = Rng(4).uniform((5000,), -3, 3)
        assert np.array_equal(apply(w, spec), -apply(-w, spec))

    def test_output_on_grid(self):
        spec = QuantizerSpec(M=5, delta=0.25)
        out = apply(Rng(6).normal((1000,)), spec)
        grid = np.arange(-2, 3) * 0.25
        assert np.isin(out, grid).all()

    def test_scalar_and_tensor_inputs(self):
        spec = QuantizerSpec(M=3, delta=1.0)
        assert isinstance(apply(0.7, spec), float)
        from quantbench.tensor import Tensor

        t = apply(Tensor(np.array([0.7, -0.7])), spec)
        assert t.tolist() == [1.0, -1.0]

    def test_codes_round_trip(self):
        spec = QuantizerSpec(M=7, delta=0.5)
        w = Rng(8).normal((200,))
        q = codes(w, spec)
        assert q.dtype == np.int64
        assert np.abs(q).max() <= spec.max_code
        assert np.array_equal(q * spec.delta, apply(w, spec))

    def test_zero_code_is_positive_zero(self):
        spec = QuantizerSpec(M=3, delta=0.1)
        w = np.array([-0.04, -1e-300, -0.0, 0.0, 0.04, -0.2, 0.2])
        out = apply(w, spec)
        assert np.array_equal(out, [0.0, 0.0, 0.0, 0.0, 0.0, -0.1, 0.1])
        assert not np.signbit(out[codes(w, spec) == 0]).any()
        assert not np.signbit(apply(-0.04, spec))


class TestBitsToLevels:
    @pytest.mark.parametrize("bits,levels", [(2, 3), (3, 7), (4, 15), (8, 255)])
    def test_mapping(self, bits, levels):
        assert bits_to_levels(bits) == levels

    @pytest.mark.parametrize("bits", [0, 1, 9, -3])
    def test_out_of_range(self, bits):
        with pytest.raises(ConfigError):
            bits_to_levels(bits)


class TestOptimizeDelta:
    def test_two_point_grid_coincides(self):
        delta, report = optimize_delta(np.array([-1.0, 1.0]), 3)
        assert delta == pytest.approx(1.0)
        assert report.l2_error == pytest.approx(0.0, abs=1e-15)

    def test_constant_vector_single_level(self):
        delta, report = optimize_delta(np.full(11, 0.25), 3)
        assert delta == pytest.approx(0.25)
        assert report.l2_error == pytest.approx(0.0, abs=1e-15)

    def test_all_zero_degenerate(self):
        delta, report = optimize_delta(np.zeros(7), 5)
        assert delta == 1.0
        assert report.degenerate
        assert report.l2_error == 0.0

    def test_empty_vector_rejected(self):
        with pytest.raises(ConfigError):
            optimize_delta(np.array([]), 3)

    @pytest.mark.parametrize("big", [1e308, math.inf, math.nan])
    def test_weights_beyond_the_threshold_range_rejected(self, big):
        with pytest.raises(ConfigError, match="finite and below"):
            optimize_delta(np.array([big, -1.0, 0.0]), 7)

    @pytest.mark.parametrize("w,M", [([1e200, 1.0], 255), ([8e307, 1.0], 7)])
    def test_weights_whose_sums_overflow_rejected(self, w, M):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the check itself must not overflow
            with pytest.raises(ConfigError, match=r"sqrt\(float max / \(8 \* N \* max_code\)\)"):
                optimize_delta(np.array(w), M)

    @pytest.mark.parametrize("M", [3, 7, 255])
    @pytest.mark.parametrize("n", [1, 2, 1000])
    def test_weights_just_inside_the_bound_fit_without_overflow(self, n, M):
        limit = math.sqrt(np.finfo(np.float64).max / (8 * n * ((M - 1) // 2)))
        w = Rng(n + M).uniform((n,), -1.0, 1.0)
        w *= 0.999 * limit / np.abs(w).max()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            delta, report = optimize_delta(w, M)
        assert math.isfinite(delta) and math.isfinite(report.l2_error)
        _, unscaled = optimize_delta(w / limit, M)
        assert report.l2_error / limit / limit == pytest.approx(
            unscaled.l2_error, rel=1e-9, abs=1e-12
        )

    def test_never_worse_than_initial_step(self):
        for seed in range(5):
            w = Rng(seed).normal((500,))
            for m in (3, 7, 15):
                delta, report = optimize_delta(w, m)
                d0 = 2.0 * np.abs(w).max() / (m - 1)
                assert report.l2_error <= l2_error(w, QuantizerSpec(M=m, delta=d0)) + 1e-12

    def test_reported_error_matches_returned_delta(self):
        w = Rng(12).normal((300,))
        delta, report = optimize_delta(w, 7)
        assert report.l2_error == pytest.approx(
            l2_error(w, QuantizerSpec(M=7, delta=delta)), abs=1e-12
        )

    def test_deterministic(self):
        w = Rng(3).normal((400,))
        assert optimize_delta(w, 7)[0] == optimize_delta(w.copy(), 7)[0]

    def test_saturated_fraction(self):
        # Moderate outliers saturate under a fit dominated by the bulk.
        w = np.concatenate([Rng(5).normal((990,)), np.full(10, 4.0)])
        delta, report = optimize_delta(w, 3)
        assert delta < 2.0  # fit follows the bulk, outliers clip
        assert 0.0 < report.saturated_fraction < 0.2
        expected = np.mean(np.floor(np.abs(w) / delta + 0.5) > 1)
        assert report.saturated_fraction == pytest.approx(expected)


def _reference_scan(flat, max_code):
    """Exact step fit by sorting all N * max_code threshold events at once.

    Each event is where a weight's code steps from k - 1 up to k as the step
    shrinks; between consecutive events the distortion is a parabola, whose
    vertex is clamped to the interval. O(N * max_code) memory: a test oracle.
    """
    absw = np.abs(flat)
    absw = absw[absw > 0.0]
    ks = np.arange(1, max_code + 1, dtype=np.float64)
    events_t = (absw[:, None] / (ks - 0.5)).reshape(-1)
    events_s1 = np.broadcast_to(absw[:, None], (absw.size, max_code)).reshape(-1)
    events_s2 = np.broadcast_to(2.0 * ks - 1.0, (absw.size, max_code)).reshape(-1)
    order = np.argsort(-events_t, kind="stable")
    t_sorted = events_t[order]
    s1 = np.cumsum(events_s1[order])
    s2 = np.cumsum(events_s2[order])
    hi = t_sorted
    lo = np.concatenate([t_sorted[1:], [0.0]])
    clamped = np.minimum(np.maximum(s1 / s2, lo), hi)
    w_sq = float(np.dot(absw, absw))
    errors = 0.5 * (w_sq - 2.0 * clamped * s1 + clamped * clamped * s2)
    return float(clamped[int(np.argmin(errors))])


def _draw(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "normal":
        return rng.normal(size=n)
    if kind == "laplace":
        return rng.laplace(size=n)
    if kind == "uniform":
        return rng.uniform(-1.0, 1.0, size=n)
    if kind == "ties":
        return np.round(rng.normal(size=n), 2)
    if kind == "half_zero":
        w = rng.normal(size=n)
        w[rng.random(n) < 0.5] = 0.0
        return w
    w = np.zeros(n)  # single nonzero
    w[n // 3] = -0.7
    return w


DRAWS = ["normal", "laplace", "uniform", "ties", "half_zero", "single_nonzero"]


class TestExactFit:
    """The chunked fit against the whole-array event scan it replaces."""

    @pytest.mark.parametrize("kind", DRAWS)
    @pytest.mark.parametrize("M", [255, 7])
    def test_matches_reference_scan(self, monkeypatch, kind, M):
        # 20k weights hold 2.54M events at M = 255 and 60k at M = 7: both
        # span several chunks (unless a single weight is nonzero).
        w = _draw(kind, 20000, seed=M)
        delta, report = optimize_delta(w, M)
        monkeypatch.setattr(quantizer, "_best_vertex_delta", _reference_scan)
        ref_delta, ref_report = optimize_delta(w, M)
        assert repr(delta) == repr(ref_delta)
        assert repr(report.l2_error) == repr(ref_report.l2_error)
        assert report.iterations == ref_report.iterations

    def test_all_equal_magnitudes(self):
        # Every step 0.3 / k (k <= 127) fits exactly: the tie may go to any.
        w = np.tile([0.3, -0.3], 20000)
        delta, report = optimize_delta(w, 255)
        assert report.l2_error == 0.0
        k = round(0.3 / delta)
        assert 1 <= k <= 127 and delta == pytest.approx(0.3 / k, rel=1e-12)

    def test_subnormal_group_gets_a_positive_step(self):
        for M in (3, 5, 255):
            delta, report = optimize_delta(np.array([5e-324]), M)
            assert delta > 0.0
            assert report.l2_error == 0.0

    def test_memory_bounded(self):
        # The whole-array scan needs about 0.8 GB here (8.3M events).
        w = _draw("normal", 65536, seed=5)
        tracemalloc.start()
        try:
            optimize_delta(w, 255)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestDirectQuantize:
    def _net(self):
        return build_ffdnn(10, 8, 2, 4, dropout_rate=0.0, seed=13)

    def test_all_groups_on_grid(self):
        net = self._net()
        qnet, reports = direct_quantize(net, 2)
        assert len(reports) == len(net.groups)
        for g in qnet.groups.values():
            vals = np.unique(np.abs(g.weights.ndarray))
            assert g.quantizer.M == 3
            on_grid = np.isin(
                g.weights.ndarray, [-g.quantizer.delta, 0.0, g.quantizer.delta]
            )
            assert on_grid.all()

    def test_input_net_untouched(self):
        net = self._net()
        before = {n: g.weights.ndarray.copy() for n, g in net.groups.items()}
        direct_quantize(net, 2)
        for n, g in net.groups.items():
            assert np.array_equal(g.weights.ndarray, before[n])
            assert g.quantizer is None

    def test_selective_groups(self):
        net = self._net()
        qnet, reports = direct_quantize(net, 2, groups=["In-h1"])
        assert [r.group for r in reports] == ["In-h1"]
        assert qnet.groups["In-h1"].quantizer is not None
        for name in ("h1-h2", "h2-out"):
            assert qnet.groups[name].quantizer is None
            assert np.array_equal(
                qnet.groups[name].weights.ndarray, net.groups[name].weights.ndarray
            )

    def test_shadow_holds_pre_quantization_floats(self):
        net = self._net()
        qnet, _ = direct_quantize(net, 3)
        for name, g in qnet.groups.items():
            assert np.array_equal(
                g.shadow_weights.ndarray, net.groups[name].weights.ndarray
            )

    def test_biases_untouched(self):
        net = self._net()
        qnet, _ = direct_quantize(net, 2)
        for name, g in qnet.groups.items():
            assert np.array_equal(g.bias.ndarray, net.groups[name].bias.ndarray)

    def test_unknown_group_listed(self):
        with pytest.raises(ConfigError, match="nope"):
            direct_quantize(self._net(), 2, groups=["nope"])

    def test_repeated_group_rejected(self):
        # A second pass would fit the grid values and keep them as the shadow,
        # losing the float master that retraining starts from.
        with pytest.raises(ConfigError, match=r"quant\.groups: In-h1 is listed twice"):
            direct_quantize(self._net(), 2, groups=["In-h1", "h1-h2", "In-h1"])

    def test_eight_bit_quantization_close_to_float(self):
        net = self._net()
        qnet, _ = direct_quantize(net, 8)
        for name, g in qnet.groups.items():
            err = np.abs(g.weights.ndarray - net.groups[name].weights.ndarray)
            assert err.max() < 0.01


class TestReportCsv:
    def test_round_trip_fields(self, tmp_path):
        w = Rng(2).normal((100,))
        _, report = optimize_delta(w, 7, group="In-h1")
        path = os.path.join(tmp_path, "report.csv")
        write_reports([report], path)
        lines = open(path).read().splitlines()
        assert lines[0] == "group,M,delta,l2_error,iterations,saturated_fraction"
        cells = lines[1].split(",")
        assert cells[0] == "In-h1"
        assert int(cells[1]) == 7
        assert float(cells[2]) == report.delta
        assert float(cells[3]) == report.l2_error
