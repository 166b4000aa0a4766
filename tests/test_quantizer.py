"""Uniform quantizer: grid mapping, step-size fitting, network application."""

import heapq
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from quantbench import quantizer
from quantbench.errors import ConfigError
from quantbench.experiments import write_reports
from quantbench.nn import build_ffdnn
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

    def test_rejects_more_levels_than_a_signed_byte_holds(self):
        assert QuantizerSpec(M=255, delta=1.0).max_code == 127
        with pytest.raises(ConfigError, match="<= 255, got 257"):
            QuantizerSpec(M=257, delta=1.0)

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

    def test_scalar_and_array_inputs(self):
        spec = QuantizerSpec(M=3, delta=1.0)
        assert isinstance(apply(0.7, spec), float)
        assert apply(np.array([0.7, -0.7]), spec).tolist() == [1.0, -1.0]

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

    @pytest.mark.parametrize("M,delta", [(3, 0.1), (7, 1.0), (255, 3e-5)])
    def test_bytes_match_the_sign_transliteration(self, M, delta):
        # array_equal cannot see a zero's sign, so compare bytes: the grid
        # signs its codes by copysign, the closed form multiplies by sgn(w).
        spec = QuantizerSpec(M=M, delta=delta)
        thresholds = (np.arange(1, spec.max_code + 2) - 0.5) * delta
        mags = np.concatenate((
            [0.0, 5e-324, np.inf, 1e300, spec.max_code * delta],
            thresholds, np.nextafter(thresholds, 0.0), np.nextafter(thresholds, np.inf),
        ))
        w = np.concatenate((mags, -mags))
        q = np.minimum(np.floor(np.abs(w) / delta + 0.5), spec.max_code)
        want = (q * np.sign(w) + 0.0) * delta
        assert apply(w, spec).tobytes() == want.tobytes()
        out = np.full_like(w, np.nan)
        assert apply(w, spec, out=out) is out
        assert out.tobytes() == want.tobytes()


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

    @pytest.mark.parametrize("M", [1, 2, 4])
    def test_bad_level_count_rejected_before_the_degenerate_case(self, M):
        with pytest.raises(ConfigError, match=f"odd and >= 3, got {M}"):
            optimize_delta(np.zeros(7), M)

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
        assert repr(report.l2_error) == repr(l2_error(w, QuantizerSpec(M=7, delta=delta)))

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
        assert report.saturated_fraction == expected


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


def _reference_parabola_min(w_sq, s1, s2, lo, hi):
    """quantizer._parabola_min as a formula: the clamped vertex s1 / s2 (hi
    when s2 = 0) and the distortion there, without reusing any array."""
    with np.errstate(divide="ignore", invalid="ignore"):
        vertex = np.where(s2 > 0, s1 / s2, hi)
    step = np.minimum(np.maximum(vertex, lo), hi)
    return step, 0.5 * (w_sq - 2.0 * step * s1 + step * step * s2)


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


# Fit results pinned with the pairwise-sum reductions (``quantizer._dot``).
# A tighter chunk bound only skips more of the step axis, so it must move
# none of them.
PINNED_FITS = [
    # draw, N, M, seed, delta, l2_error, iterations
    ("normal", 262144, 3, 1, "0x1.38f58dff6a1a1p+0", "0x1.8621c227e26d8p+14", 1),
    ("normal", 262144, 15, 1, "0x1.6a8ee4dc031f1p-2", "0x1.aa5af7869bf46p+10", 1),
    ("normal", 262144, 255, 1, "0x1.f466c5e3d4ea9p-6", "0x1.55161a3bc0a68p+3", 1),
    ("normal", 10240, 255, 2, "0x1.e4987b4b16247p-6", "0x1.7d979ccb00770p-2", 1),
    ("normal", 5120, 255, 3, "0x1.e1b6fec6ef8f4p-6", "0x1.8c4bea7833368p-3", 1),
    ("ties", 20000, 255, 4, "0x1.eb7d3324e01f3p-6", "0x1.70e6c0220cfb0p-1", 1),
    ("half_zero", 20000, 15, 5, "0x1.6a32acaaf3972p-2", "0x1.f960ac20ee736p+5", 1),
    ("laplace", 30000, 63, 6, "0x1.081c6c1b0b809p-2", "0x1.a1b637d607adfp+6", 1),
]


def _corpus_group(kind, n, seed):
    """A seeded group of one of five kinds: Gaussian, integer lattice, +-m
    (every magnitude equal), Gaussian rounded to 2 decimals, or Gaussian with
    about half its weights zero. The lattice, +-m and rounded kinds hold many
    equal thresholds, so the event order has ties."""
    rng = np.random.default_rng(seed)
    if kind == "gauss":
        return rng.normal(scale=0.1, size=n)
    if kind == "lattice":
        return rng.integers(-6, 7, size=n).astype(np.float64)
    if kind == "pm":
        return rng.choice([-1.0, 1.0], size=n) * rng.uniform(0.05, 2.0)
    if kind == "half_zero":
        w = rng.normal(size=n)
        w[rng.random(n) < 0.5] = 0.0
        return w
    return np.round(rng.normal(size=n), 2)


CORPUS_SIZES = (1, 9, 150, 2500, 20000)

# Fitted steps of the corpus, as float.hex, per (kind, M) in the order of
# CORPUS_SIZES; group i of a row is drawn with seed 100 * M + i. Recorded
# when every chunk's events were ordered by the stable sort: any sort that
# gives that order keeps every one of them.
PINNED_CORPUS = {
    ("gauss", 3): [
        "0x1.d166c59f1ff25p-6", "0x1.3fe18bf68cd25p-3", "0x1.f0e5506119b4fp-4",
        "0x1.f29c7465a9ba8p-4", "0x1.f73b2798ba098p-4",
    ],
    ("gauss", 15): [
        "0x1.310501216f0e8p-7", "0x1.44f2f89d75c8dp-6", "0x1.9343cac24ba94p-5",
        "0x1.240f28e1dc174p-5", "0x1.1f6ea16839959p-5",
    ],
    ("gauss", 255): [
        "0x1.95a362d65be09p-6", "0x1.121d3e8e2a7d8p-9", "0x1.0930f69b9875ep-9",
        "0x1.6d63ed7a08502p-9", "0x1.9c81e4dee3807p-9",
    ],
    ("lattice", 3): [
        "0x1.8000000000000p+2", "0x1.b6db6db6db6dbp+1", "0x1.151eb851eb852p+2",
        "0x1.1cab3d60cb8fep+2", "0x1.1ffab14d0a5dbp+2",
    ],
    ("lattice", 15): [
        "0x1.6db6db6db6db7p-1", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
        "0x1.0000000000000p+0", "0x1.0000000000000p+0",
    ],
    ("lattice", 255): [
        "0x1.0204081020408p-6", "0x1.af286bca1af28p-5", "0x1.2492492492492p-3",
        "0x1.8618618618618p-5", "0x1.8618618618618p-5",
    ],
    ("pm", 3): [
        "0x1.2450cb6537c15p+0", "0x1.7ac8447cceb68p+0", "0x1.f2ce27ff2e177p+0",
        "0x1.55f16286cac00p+0", "0x1.bcbfa25499ec9p-1",
    ],
    ("pm", 15): [
        "0x1.fc43b2bd03eeep-6", "0x1.72552ccd6ff9bp-4", "0x1.fbbdfad4e15f2p-3",
        "0x1.f2fdb5e39e48fp-7", "0x1.0cf1a4d2c42a4p-3",
    ],
    ("pm", 255): [
        "0x1.9c69a4e2aa1d7p-11", "0x1.f92b18260ab1ep-5", "0x1.479b071443299p-7",
        "0x1.523b05eb6dbc7p-6", "0x1.ff2a6111e7f5cp-7",
    ],
    ("round2", 3): [
        "0x1.1eb851eb851ecp-2", "0x1.9000000000000p+0", "0x1.3694467381d7ep+0",
        "0x1.36edb16b6cb88p+0", "0x1.3a99675dab39fp+0",
    ],
    ("round2", 15): [
        "0x1.47ae147ae147bp-4", "0x1.95810624dd2f1p-3", "0x1.f7fbd6e58325bp-2",
        "0x1.6d58be991f46fp-2", "0x1.6682bd3041248p-2",
    ],
    ("round2", 255): [
        "0x1.9381bc20d5f09p-7", "0x1.39d11310bbacfp-6", "0x1.50ec2dfea1bb9p-6",
        "0x1.c7235785f8421p-6", "0x1.eb86eeb15f3e1p-6",
    ],
}


_PINNED_FIT_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
from quantbench.quantizer import optimize_delta
from test_quantizer import PINNED_FITS, _draw
for kind, n, M, seed, *_ in PINNED_FITS:
    delta, report = optimize_delta(_draw(kind, n, seed), M)
    print(kind, n, M, seed, delta.hex(), report.l2_error.hex(), report.iterations)
"""


# A 262k-weight fit, where a 1-D np.dot splits its sum across BLAS threads,
# and a small CNN trained, quantized and retrained: every output bit must be
# the same at any BLAS thread count.
_THREAD_DIGESTS = """
import hashlib
import numpy as np
from quantbench import data, nn, quantizer, trainer
w = np.random.default_rng(1).normal(size=262144)
delta, report = quantizer.optimize_delta(w, 3)
print(delta.hex(), report.l2_error.hex())
split = data.synthetic_split("blobs", 48, 16, 16, 3, seed=1, shape=(2, 8, 8))
net = nn.build_cnn([3], input_shape=(2, 8, 8), fc_units=6, classes=3, seed=1)
cfg = trainer.TrainConfig(batch_size=16, lr_init=0.01, lr_final=0.001, max_epochs=2, seed=1)
net, _ = trainer.train_float(net, split, cfg)
net, reports = quantizer.direct_quantize(net, 2)
net, _ = trainer.retrain_quantized(net, split, trainer.retrain_config(cfg))
print([r.l2_error.hex() for r in reports])
for g in net.groups.values():
    print(g.name, hashlib.sha256(g.weights.ndarray.tobytes() + g.bias.ndarray.tobytes()).hexdigest())
"""


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

    @pytest.mark.parametrize("kind,n,i", [("gauss", 20000, 4), ("lattice", 20000, 4),
                                          ("pm", 2500, 3), ("pm", 20000, 4)])
    def test_chunks_pop_as_if_all_were_bounded_at_once(self, monkeypatch, kind, n, i):
        # A block longer than the step axis bounds every chunk in one batch
        # up front. Blocks of the default length must pop the same chunks, in
        # the same order, with the same bound bits, also where an exact fit's
        # bounds round about 0 (lattice, +-m).
        popped = []

        def heappop(heap):
            entry = heapq.heappop(heap)
            if not isinstance(entry[2], int):  # a chunk, not a block
                popped.append((float(entry[0]).hex(), entry[1], entry[2][0], entry[2][1]))
            return entry

        monkeypatch.setattr(quantizer, "heapq", SimpleNamespace(
            heappop=heappop, heappush=heapq.heappush, heapify=heapq.heapify))
        w = _corpus_group(kind, n, 100 * 255 + i)
        fits = []
        for length in (quantizer._CHUNKS_PER_BLOCK, 2**40):
            monkeypatch.setattr(quantizer, "_CHUNKS_PER_BLOCK", length)
            popped.clear()
            fits.append((optimize_delta(w, 255)[0].hex(), list(popped)))
        assert fits[0] == fits[1]
        assert len(fits[0][1]) > 1

    def test_fits_match_pinned_results_at_one_blas_thread(self):
        src = os.path.dirname(os.path.dirname(quantizer.__file__))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", _PINNED_FIT_SCRIPT, os.path.dirname(__file__)],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
        want = [" ".join(map(str, case)) for case in PINNED_FITS]
        assert done.stdout.splitlines() == want

    def test_corpus_fits_match_pinned_steps(self):
        got = {
            (kind, M): [
                optimize_delta(_corpus_group(kind, n, 100 * M + i), M)[0].hex()
                for i, n in enumerate(CORPUS_SIZES)
            ]
            for kind, M in PINNED_CORPUS
        }
        assert got == PINNED_CORPUS

    def test_bits_do_not_depend_on_the_blas_thread_count(self):
        src = os.path.dirname(os.path.dirname(quantizer.__file__))
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            done = subprocess.run([sys.executable, "-c", _THREAD_DIGESTS], env=env,
                                  capture_output=True, text=True)
            assert done.returncode == 0, done.stderr
            digests.append(done.stdout)
        assert digests[0] == digests[1]

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

    def test_memory_bounded_at_the_wide_group_size(self):
        # A 512 x 512 group at 8 bits: 33M events. The sorted |w|, its two
        # suffix sums and the final grid pass hold about 8 MiB; the chunk
        # bounds, made only as the search reaches them, add little.
        w = _draw("normal", 262144, seed=1)
        tracemalloc.start()
        try:
            optimize_delta(w, 255)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20

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

    def test_empty_group_list_rejected(self):
        with pytest.raises(ConfigError, match=r'quant\.groups: expected "all" or a non-empty'):
            direct_quantize(self._net(), 2, groups=[])

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
