"""Property tests for the grid rule, the step-size fit and its parabola
minimum, the cache-free inference pass and its class rule, the conv input
gradient and output-row runs, the conv weight gradient and channel blocks,
the [C, H, W, N] conv stack against a sample-major [N, C, H, W] reference,
the training pool and ReLU, every file reader under a single mutation of a valid
file, ``derive_seed`` against its Python-integer form, and a check that a
failing property reports under the repo's warning filters; skipped when
hypothesis is not installed."""

import functools
import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from quantbench import nn, quantizer  # noqa: E402
from quantbench.checkpoint import load_checkpoint, save_checkpoint  # noqa: E402
from quantbench.cli import load_config  # noqa: E402
from quantbench.data import load_csv  # noqa: E402
from quantbench.errors import ConfigError, DataFormatError  # noqa: E402
from quantbench.experiments import parse_records_csv  # noqa: E402
from quantbench.nn import (  # noqa: E402
    LayerSpec,
    NetworkSpec,
    build_cnn,
    build_ffdnn,
    build_from_spec,
    forward,
    predict,
)
from quantbench.quantizer import (  # noqa: E402
    QuantizerSpec,
    apply,
    codes,
    direct_quantize,
    optimize_delta,
)
from quantbench.tensor import Rng, Tensor, derive_seed  # noqa: E402
from test_quantizer import _corpus_group, _reference_parabola_min  # noqa: E402

pytest_plugins = ["pytester"]

levels = st.integers(min_value=1, max_value=127).map(lambda h: 2 * h + 1)
deltas = st.floats(min_value=1e-6, max_value=1e3, allow_nan=False)
weights = arrays(
    np.float64,
    st.integers(min_value=1, max_value=64),
    elements=st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
)
SETTINGS = settings(max_examples=200, deadline=None)


@SETTINGS
@given(w=weights, M=levels, delta=deltas)
def test_apply_is_odd_symmetric_as_numbers(w, M, delta):
    spec = QuantizerSpec(M=M, delta=delta)
    assert np.array_equal(apply(-w, spec), -apply(w, spec))


@SETTINGS
@given(w=weights, M=levels, delta=deltas)
def test_zero_maps_to_positive_zero(w, M, delta):
    spec = QuantizerSpec(M=M, delta=delta)
    out = apply(w, spec)
    assert not np.signbit(out[out == 0.0]).any()
    assert not np.signbit(apply(np.array([0.0, -0.0]), spec)).any()


@SETTINGS
@given(w=weights, M=levels, delta=deltas)
def test_codes_bounded_and_times_delta_is_apply(w, M, delta):
    spec = QuantizerSpec(M=M, delta=delta)
    q = codes(w, spec)
    assert np.abs(q).max() <= spec.max_code
    assert (q * delta).tobytes() == apply(w, spec).tobytes()


@SETTINGS
@given(
    w=arrays(np.float64, (3, 2),
             elements=st.floats(min_value=-1e4, max_value=1e4, allow_nan=False)),
    M=levels,
    delta=deltas,
)
def test_quantized_group_round_trips_weight_bytes(w, M, delta):
    net = build_ffdnn(3, 1, 0, 2)
    group = net.groups["In-out"]
    group.quantizer = QuantizerSpec(M=M, delta=delta)
    group.shadow_weights = Tensor(w)
    group.weights = Tensor(apply(w, group.quantizer))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "q.ckpt")
        save_checkpoint(net, path)
        loaded = load_checkpoint(path).groups["In-out"]
    assert loaded.quantizer == group.quantizer
    assert loaded.weights.ndarray.tobytes() == group.weights.ndarray.tobytes()
    assert loaded.shadow_weights.ndarray.tobytes() == w.tobytes()


@SETTINGS
@given(
    w=arrays(
        np.float64,
        st.integers(min_value=1, max_value=64),
        elements=st.floats(min_value=-1e4, max_value=1e4, allow_subnormal=False),
    ),
    M=levels,
)
def test_fit_no_worse_than_dense_step_grid(w, M):
    w_max = float(np.abs(w).max())
    assume(w_max > 0.0)
    _, report = optimize_delta(w, M)
    steps = np.arange(1, 2001) * (2.0 * w_max / 2000)
    q = np.minimum(np.floor(np.abs(w)[:, None] / steps + 0.5), (M - 1) // 2)
    grid = 0.5 * ((q * steps - np.abs(w)[:, None]) ** 2).sum(axis=0)
    # Relative slack, plus rounding on a group the grid holds exactly (error 0).
    w_sq = float(np.dot(w, w))
    assert report.l2_error <= grid.min() * (1.0 + 1e-12) + 1e-24 * w_sq


def _single_nonzero(n, at, value):
    w = np.zeros(n)
    w[at % n] = value
    return w


small_groups = st.one_of(
    arrays(np.float64, st.integers(1, 200),
           elements=st.floats(min_value=-10.0, max_value=10.0, allow_subnormal=False)),
    st.builds(_single_nonzero, st.integers(1, 200), st.integers(0, 199),
              st.floats(min_value=1e-3, max_value=10.0)),
    st.builds(lambda signs, m: np.where(signs, m, -m),
              arrays(np.bool_, st.integers(1, 200)), st.floats(min_value=1e-3, max_value=10.0)),
)


@SETTINGS
@given(w=small_groups, M=st.sampled_from([3, 7, 255]))
@example(w=_single_nonzero(200, 66, -0.7), M=255)
@example(w=np.tile([0.3, -0.3], 100), M=255)
def test_pruning_the_fit_moves_no_result(w, M):
    # At M = 255 the level slices of every chunk overlap, and a single weight
    # or equal magnitudes fit exactly at many steps: the bound is tight there,
    # and a chunk holding an exact tie must still be searched. An infinite
    # slack searches every chunk, in the same order.
    assume(float(np.dot(w, w)) > 0.0)
    delta, report = optimize_delta(w, M)
    with mock.patch.object(quantizer, "_BOUND_SLACK", np.inf):
        ref_delta, ref_report = optimize_delta(w, M)
    assert repr(delta) == repr(ref_delta)
    assert repr(report.l2_error) == repr(ref_report.l2_error)


def _parabola_case(arrs):
    """(w_sq, s1, s2, lo, hi) with lo <= hi; an s2 below 1e-6 becomes 0, a
    line with no vertex."""
    w_sq, s1, s2, a, b = arrs
    s2[s2 < 1e-6] = 0.0
    return w_sq, s1, s2, np.minimum(a, b), np.maximum(a, b)


sums = st.floats(0.0, 1e12)
# Steps from the smallest subnormal up: a fitted step may be subnormal.
steps = st.one_of(st.floats(5e-324, 1e-300), st.floats(1e-300, 1e6))
parabola_cases = st.integers(0, 8).map(lambda k: (k,) if k else ()).flatmap(
    lambda shape: st.tuples(*(arrays(np.float64, shape, elements=e)
                              for e in (sums, sums, sums, steps, steps)))
).map(_parabola_case)


@SETTINGS
@given(case=parabola_cases)
@example(case=(3.0, 2.0, 0.0, 0.5, 0.75))  # s2 = 0: the line's low end, hi
@example(case=(3.0, 2.0, 4.0, 0.6, 0.6))  # lo == hi
@example(case=(3.0, 2.0, 4.0, 0.6, 0.9))  # vertex 0.5 below lo
@example(case=(3.0, 2.0, 4.0, 0.1, 0.2))  # vertex above hi
@example(case=(1e-300, 5e-324, 1.0, 5e-324, 1e-323))  # subnormal steps
def test_parabola_min_gives_the_formula_bits(case):
    # The fit's one parabola minimum, in place, against the formula it
    # implements: scalars (numpy's, as the fit passes) and arrays both give
    # the formula's bits.
    case = tuple(v if np.ndim(v) else np.float64(v) for v in case)
    want = _reference_parabola_min(*case)
    got = quantizer._parabola_min(*case)  # may overwrite s1, not read again
    for g, w in zip(got, want):
        assert g.ndim == 1
        assert g.tobytes() == np.asarray(w).reshape(-1).tobytes()


@SETTINGS
@given(
    kind=st.sampled_from(["gauss", "lattice", "pm", "half_zero"]),
    rows=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    bits=st.sampled_from([2, 4, 8]),
)
def test_report_and_stored_weights_match_a_recomputation(kind, rows, seed, bits):
    # The fit's one final grid pass gives the report and the stored weights:
    # each must be what the public grid functions give at the fitted step,
    # to the bit, and each report number a plain float (a numpy scalar's repr
    # would differ in quant_report.csv).
    net = build_ffdnn(rows, 6, 1, 2, seed=0)
    shape = net.groups["In-h1"].weights.shape
    net.groups["In-h1"].weights = Tensor(_corpus_group(kind, rows * 6, seed).reshape(shape))
    w = net.groups["In-h1"].weights.ndarray
    qnet, (report,) = direct_quantize(net, bits, groups=["In-h1"])
    group = qnet.groups["In-h1"]
    spec = QuantizerSpec(M=2**bits - 1, delta=report.delta)
    assert group.quantizer == spec
    for value in (report.delta, report.l2_error, report.saturated_fraction):
        assert type(value) is float
    assert repr(report.delta) == repr(optimize_delta(w, spec.M)[0])
    assert repr(report.l2_error) == repr(quantizer.l2_error(w, spec))
    clamped = np.floor(np.abs(w) / report.delta + 0.5) > spec.max_code
    assert repr(report.saturated_fraction) == repr(float(np.mean(clamped)))
    assert group.shadow_weights.ndarray.tobytes() == w.tobytes()
    assert group.weights.ndarray.tobytes() == apply(w, spec).tobytes()


def _lattice_steps(magnitudes, max_code):
    """Event steps as the fit lays them out: level by level, |w| / (k - 1/2)."""
    divisors = np.arange(1, max_code + 1) - 0.5
    return (magnitudes[None, :] / divisors[:, None]).reshape(-1)


tied_steps = st.one_of(
    arrays(np.float64, st.integers(0, 600),
           elements=st.sampled_from([0.0, 0.125, 0.3, 1.0, 7.5])),
    st.builds(_lattice_steps,
              arrays(np.float64, st.integers(1, 60), elements=st.integers(1, 6).map(float)),
              st.integers(1, 127)),
)


@SETTINGS
@given(ev_t=tied_steps, runs=st.integers(1, 127))
def test_step_order_is_the_stable_descending_order(ev_t, runs):
    # Few distinct values, or integer magnitudes whose thresholds coincide
    # across levels (3 / 1.5 == 1 / 0.5): the SIMD sort alone would reorder
    # ties. The run count only picks the faster sort; the order is the same.
    order, sorted_t = quantizer._step_order(ev_t, runs)
    assert np.array_equal(order, np.argsort(-ev_t, kind="stable"))
    assert np.array_equal(sorted_t, ev_t[order])


@pytest.mark.parametrize("n", [0, 1, 128, 5000, 10000])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), drawn=st.integers(0, 1000))
def test_permutation_is_the_stable_key_order(n, seed, drawn):
    # The keys of one stream never repeat, so the default sort's order is
    # the stable one.
    a, b = Rng(seed), Rng(seed)
    a.next_u64(drawn)
    b.next_u64(drawn)
    assert np.array_equal(a.permutation(n), np.argsort(b.next_u64(n), kind="stable"))


ffdnn_nets = st.builds(
    build_ffdnn,
    input_dim=st.integers(1, 8),
    hidden_units=st.integers(1, 8),
    hidden_layers=st.integers(0, 3),
    output_dim=st.integers(2, 5),
    dropout_rate=st.sampled_from([0.0, 0.3, 0.9]),
    seed=st.integers(0, 2**16),
)
cnn_nets = st.builds(
    build_cnn,
    map_counts=st.lists(st.integers(1, 4), min_size=1, max_size=3),
    input_shape=st.tuples(st.integers(1, 3), st.integers(1, 11), st.integers(1, 11)),
    fc_units=st.integers(1, 6),
    classes=st.integers(2, 4),
    seed=st.integers(0, 2**16),
)


def _relu_first(dim, classes, rate, seed):
    """A stack whose ReLU and dropout see the caller's batch itself."""
    layers = (LayerSpec("relu"), LayerSpec("dropout", rate=rate),
              LayerSpec("dense", units=classes, group="Out"), LayerSpec("softmax"))
    return build_from_spec(NetworkSpec((dim,), classes, layers), seed=seed)


relu_first_nets = st.builds(
    _relu_first, st.integers(1, 8), st.integers(2, 5), st.sampled_from([0.0, 0.5]),
    st.integers(0, 2**16),
)
any_net = st.one_of(ffdnn_nets, cnn_nets, relu_first_nets)
INFER_SETTINGS = settings(max_examples=60, deadline=None)


def _batch(net, n, seed):
    """Uniform inputs with some exact +0.0 and -0.0 entries."""
    x = Rng(seed).uniform((n, *net.spec.input_shape), -2.0, 2.0)
    x[np.abs(x) < 0.4] = 0.0
    x[x < -1.6] = -0.0
    return x


@INFER_SETTINGS
@given(net=any_net, n=st.integers(1, 5), seed=st.integers(0, 99))
def test_predict_is_eval_forward_bit_for_bit(net, n, seed):
    x = _batch(net, n, seed)
    probs, _ = forward(net, x)
    assert predict(net, x).tobytes() == probs.tobytes()


logit_values = st.one_of(
    st.sampled_from([np.nan, np.inf, -np.inf, 0.0, 1.0]),
    st.floats(-3.0, 3.0),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _near_tie(row):
    """A finite row whose top two logits may round to equal probabilities:
    within 4 ulps at the scale of exp's argument, where 1.0 is the top's."""
    if np.isnan(row).any() or not np.isfinite(row.max()) or row.size < 2:
        return False
    second, top = np.sort(row)[-2:]
    with np.errstate(over="ignore"):
        return second >= top - 4 * np.spacing(max(abs(top), 1.0))


@SETTINGS
@given(z=st.integers(1, 12).flatmap(lambda k: arrays(
    np.float64, st.tuples(st.integers(1, 6), st.just(k)), elements=logit_values)))
@example(z=np.array([
    [1.0, np.nan, 2.0], [1.0, np.inf, np.inf], [-np.inf, -np.inf, -1.0],
    [-np.inf, -np.inf, -np.inf], [1e-20, 2e-20, 0.0], [3.0, 3.0, 1.0],
]))
def test_classes_is_the_argmax_of_predict(z):
    spec = NetworkSpec(input_shape=(z.shape[1],), classes=z.shape[1],
                       layers=[LayerSpec(kind="softmax")])
    net = build_from_spec(spec)
    got = nn.classes(net, z)  # under the warning filters: it must not warn
    with np.errstate(all="ignore"):
        want = predict(net, z).argmax(axis=1)
    tie = np.array([_near_tie(row) for row in z], dtype=bool)
    assert np.array_equal(got[~tie], want[~tie])
    assert np.array_equal(got[tie], z[tie].argmax(axis=1))  # the larger logit wins


@INFER_SETTINGS
@given(net=any_net, n=st.integers(1, 5), seed=st.integers(0, 99))
def test_predict_leaves_its_batch_unmodified(net, n, seed):
    x = _batch(net, n, seed)
    before = x.tobytes()
    out = predict(net, x)
    assert x.tobytes() == before
    assert not np.shares_memory(out, x)


def _chwn(a):
    """A [N, C, H, W] batch as the [C, H, W, N] view the conv and pool layers take."""
    return a.transpose(1, 2, 3, 0)


def _maxpool2_batch(x):
    """Reference 2x2 stride-2 max pool over [N, C, H, W]: odd trailing rows
    and columns form 1-wide windows, and ties resolve to the smallest flat
    index within [C, H, W] of each sample. Returns the pooled batch and the
    int64 argmax positions flattened per sample."""
    n, c, h, w = x.shape
    h2, w2 = (h + 1) // 2, (w + 1) // 2
    xp = np.full((n, c, 2 * h2, 2 * w2), -np.inf)
    xp[:, :, :h, :w] = x
    # Window cells in source row-major order, so argmax's first-occurrence
    # rule picks the smallest flat index on ties.
    windows = xp.reshape(n, c, h2, 2, w2, 2).transpose(0, 1, 2, 4, 3, 5)
    windows = windows.reshape(n, c, h2, w2, 4)
    local = np.argmax(windows, axis=-1)
    out = np.take_along_axis(windows, local[..., None], axis=-1)[..., 0]
    rows = 2 * np.arange(h2)[None, None, :, None] + local // 2
    cols = 2 * np.arange(w2)[None, None, None, :] + local % 2
    chan = np.arange(c)[None, :, None, None]
    return out, ((chan * h + rows) * w + cols).astype(np.int64)


def _scatter(dy, idx, x_shape):
    """Reference pool backward on [N, C, H, W]: each window's gradient put on
    its argmax position of the per-sample flattened ``idx``."""
    n = x_shape[0]
    dx = np.zeros((n, int(np.prod(x_shape[1:]))))
    np.put_along_axis(dx, idx.reshape(n, -1), dy.reshape(n, -1), axis=1)
    return dx.reshape(x_shape)


special = st.sampled_from([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan])


@SETTINGS
@given(
    x=arrays(
        np.float64,
        st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 8), st.integers(1, 8)),
        elements=special,
    )
)
def test_pool_inference_matches_argmax_rule_bit_for_bit(x):
    pool = build_cnn([1], input_shape=(1, 4, 4), fc_units=2, classes=2).layers[2]
    assert pool.infer(_chwn(x)).tobytes() == _chwn(_maxpool2_batch(x)[0]).tobytes()


@SETTINGS
@given(
    x=arrays(
        np.float64,
        st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 8), st.integers(1, 8)),
        elements=special,
    ),
    data=st.data(),
)
def test_pool_training_pass_matches_argmax_scatter_bit_for_bit(x, data):
    pool = build_cnn([1], input_shape=(1, 4, 4), fc_units=2, classes=2).layers[2]
    out, cache = pool.forward(_chwn(x), None)
    expected_out, idx = _maxpool2_batch(x)
    assert out.tobytes() == _chwn(expected_out).tobytes()
    dy = data.draw(arrays(np.float64, expected_out.shape, elements=special))
    expected_dx = _chwn(_scatter(dy, idx, x.shape))
    assert pool.backward(_chwn(dy), cache)[0].tobytes() == expected_dx.tobytes()


def _fold(dcols, x_shape):
    """Reference adjoint of nn._im2col: add the whole-batch [C*25, H*W*N]
    patch gradient back onto the [C, H, W, N] input, tap by tap in kernel
    order."""
    c, h, w, n = x_shape
    taps = dcols.reshape(c, 5, 5, h, w, n)
    dxp = np.zeros((c, h + 4, w + 4, n), dtype=np.float64)
    for dy in range(5):
        for dx in range(5):
            dxp[:, dy : dy + h, dx : dx + w] += taps[:, dy, dx]
    return dxp[:, 2 : 2 + h, 2 : 2 + w]


def _reference_input_grad(k, dyf, x_shape):
    return _fold(k.reshape(k.shape[0], -1).T @ dyf, x_shape)


def _reference_conv(k, x, bias=None):
    """A same-size conv of a [C, H, W, N] batch by one whole-batch GEMM over
    its patch matrix."""
    c, h, w, n = x.shape
    g = k.reshape(k.shape[0], -1) @ nn._im2col(x, np.empty((c * 25, h * w * n)))
    if bias is not None:
        g += bias[:, None]
    return g.reshape(-1, h, w, n)


def _input_grad(conv, dy):
    """dX of the conv layer's backward pass for output gradient dy."""
    x = np.zeros((conv.group.weights.shape[1], *dy.shape[1:]))
    return conv.backward(dy, x)[0]


def _assert_matches_fold(conv, dy):
    """dX has the reference fold's NaNs and signed infs, and its finite
    values within the rounding bound of a sum of 25 * C_out products."""
    k = conv.group.weights.ndarray
    dyf = dy.reshape(k.shape[0], -1)
    x_shape = (k.shape[1], *dy.shape[1:])
    with np.errstate(all="ignore"):  # inf - inf and 0 * inf are part of the check
        got = _input_grad(conv, dy)
        want = _reference_input_grad(k, dyf, x_shape)
        scale = _reference_input_grad(np.abs(k), np.abs(dyf), x_shape)
    finite = np.isfinite(want)
    np.testing.assert_array_equal(np.where(finite, 0.0, got), np.where(finite, 0.0, want))
    bound = 25 * k.shape[0] * np.finfo(np.float64).eps * scale[finite]
    assert np.all(np.abs(got[finite] - want[finite]) <= bound)


@SETTINGS
@given(
    shape=st.tuples(st.integers(1, 4), st.integers(1, 9), st.integers(1, 9),
                    st.integers(1, 5)),
    c_out=st.integers(1, 4),
    seed=st.integers(0, 99),
    data=st.data(),
)
def test_input_grad_matches_whole_batch_fold(shape, c_out, seed, data):
    c, h, w, n = shape
    dy = data.draw(arrays(np.float64, (c_out, h, w, n),
                          elements=st.one_of(special, st.floats(-4.0, 4.0))))
    _assert_matches_fold(_conv_layer(c, c_out, h, w, seed), dy)


@pytest.mark.parametrize("nan_at", range(20))
def test_input_grad_matches_fold_with_inf_and_one_nan(nan_at):
    # dY all +inf but one NaN: almost every dX sum holds inf - inf. Which NaN
    # a sum keeps is not pinned, only where the NaNs and infs are.
    dy = np.full((2, 1, 2, 5), np.inf)
    dy.flat[nan_at] = np.nan
    _assert_matches_fold(_conv_layer(2, 2, 1, 2, seed=0), dy)


# Batches whose conv splits into runs of output rows under the real
# SLICE_BYTES, 2 to 3 bounds of patch matrix each. The rule never makes a
# small run (test_out_row_runs_are_aligned_and_never_small), and these cases
# keep runs real-sized too: runs of a few KiB would change last bits, because
# OpenBLAS sums a product that small with another kernel.
def _patch_bytes(c, a, b):
    """Bytes of the patch matrix of ``c`` channels over a*b columns."""
    return 8 * 25 * c * a * b


def _batch_size(c, h, w, bounds):
    """Samples in ``bounds`` bounds of patch matrix."""
    return max(1, int(bounds * nn.SLICE_BYTES / _patch_bytes(c, h, w)))


sliced_cases = st.tuples(
    st.sampled_from([4, 8, 16]), st.integers(9, 40), st.integers(9, 40),
    st.sampled_from([2, 3, 8, 48, 64]), st.floats(2.0, 3.0), st.integers(0, 99),
).map(lambda t: (*t[:4], _batch_size(*t[:3], t[4]), t[5]))
SLICE_SETTINGS = settings(max_examples=10, deadline=None)


def _sliced_case(c, h, w, c_out, n, seed):
    """(conv layer, [C, H, W, N] input batch) of a batch that splits into
    two or more runs; a drawn case whose tail joins the one run before it is
    discarded."""
    assume(len(nn._out_row_runs((c, h, w, n), c_out)) >= 2)
    conv = _conv_layer(c, c_out, h, w, seed)
    x = Rng(seed + 1).uniform((c, h, w, n), -1.0, 1.0)
    x[np.abs(x) < 0.2] = -0.0
    return conv, x


def _conv_layer(c_in, c_out, h, w, seed):
    return build_cnn([c_out], input_shape=(c_in, h, w), fc_units=2, classes=2,
                     seed=seed).layers[0]


@SLICE_SETTINGS
@given(case=sliced_cases)
@example(case=(16, 52, 52, 48, 3, 0))  # W*N 156: 2-row units, two runs of 26
@example(case=(16, 21, 23, 64, 21, 1))  # odd W*N: 8-row units, a 5-row tail
@example(case=(3, 32, 32, 32, 64, 2))  # cnn-train's C1: 10, 11 and 11 rows
@example(case=(32, 16, 16, 32, 64, 3))  # cnn-train's C2: eight 2-row runs
def test_sliced_conv_inference_matches_one_conv_bit_for_bit(case):
    conv, x = _sliced_case(*case)
    k, b = conv.group.weights.ndarray, conv.group.bias.ndarray
    assert conv.infer(x).tobytes() == _reference_conv(k, x, b).tobytes()


@SLICE_SETTINGS
@given(case=sliced_cases)
@example(case=(16, 52, 52, 48, 3, 0))
@example(case=(16, 21, 23, 64, 21, 1))
@example(case=(32, 8, 8, 64, 64, 3))  # cnn-train's C3: four 2-row runs
def test_sliced_input_grad_matches_one_conv_bit_for_bit(case):
    # The layer maps the case's C_out channels to its C, so dY has the
    # channels of the case's input and its dX conv splits into row runs.
    c, h, w, c_out, n, seed = case
    conv = _conv_layer(c_out, c, h, w, seed)
    dy = Rng(seed + 2).uniform((c, h, w, n), -1.0, 1.0)
    assume(len(nn._out_row_runs(dy.shape, c_out)) >= 2)
    flipped = conv.group.weights.ndarray[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    assert _input_grad(conv, dy).tobytes() == _reference_conv(flipped, dy).tobytes()


def _assert_slice_rule(runs, count, unit, item_bytes):
    """The slice rule: runs cover [0, count) in order, each starts on a unit,
    they are the fewest runs of whole units that fit SLICE_BYTES with the
    units spread evenly, a run passes the bound only when it holds one unit
    (and the partial one), and no run is small: each holds a quarter of the
    bound, and two items, one whole unit or all items."""
    assert [s for s, _ in runs] == [0] + [e for _, e in runs[:-1]]
    assert runs[-1][1] == count
    assert all(s % unit == 0 for s, _ in runs)
    if count * item_bytes <= nn.SLICE_BYTES:
        assert runs == [(0, count)]
        return
    units = -(-count // unit)
    assert len(runs) <= -(-units // max(1, nn.SLICE_BYTES // (unit * item_bytes)))
    spans = [-(-(e - s) // unit) for s, e in runs]
    assert max(spans) - min(spans) <= 1
    for s, e in runs:
        assert (e - s) * item_bytes <= nn.SLICE_BYTES or e - s < 2 * unit
        assert (e - s) * item_bytes >= nn.SLICE_BYTES // 4
        assert e - s >= 2 or e - s in (unit, count)


@SETTINGS
@given(
    count=st.integers(0, 5000),
    unit=st.sampled_from([1, 2, 4, 8, 16, 24, 32, 40, 64, 72, 128]),
    item_bytes=st.one_of(st.integers(1, 1 << 16), st.integers(1, 40 << 20)),
)
@example(count=75, unit=32, item_bytes=8 * 64 * 32 * 32)  # C1: 32, 32, 11
@example(count=25, unit=8, item_bytes=8 * 137 * 32 * 32)  # 1-row tail joins
def test_runs_are_aligned_bounded_even_and_never_small(count, unit, item_bytes):
    runs = nn._runs(count, unit, item_bytes)
    _assert_slice_rule(runs, count, unit, item_bytes)


# [C, H, W, N] activation shapes.
conv_shapes = st.tuples(st.integers(1, 64), st.integers(1, 64), st.integers(1, 64),
                        st.integers(0, 3000))


@SETTINGS
@given(shape=conv_shapes, c_out=st.integers(1, 128))
@example(shape=(3, 32, 32, 64), c_out=32)  # cnn-train's C1: 3 runs
def test_out_row_runs_are_aligned_and_never_small(shape, c_out):
    c, h, w, n = shape
    runs = nn._out_row_runs(shape, c_out)
    if c_out == 1:  # a one-map conv is never split
        assert runs == [(0, h)]
        return
    _assert_slice_rule(runs, h, 8 // np.gcd(w * n, 8), _patch_bytes(c, w, n))
    assert all(s * w * n % 8 == 0 for s, _ in runs)  # 8-column tiles


@SETTINGS
@given(shape=conv_shapes, c_out=st.integers(1, 128))
@example(shape=(3, 32, 32, 64), c_out=32)  # cnn-train's C1: 3 blocks, not one
def test_row_blocks_are_aligned_and_never_small(shape, c_out):
    c, h, w, n = shape
    blocks = nn._row_blocks(shape, c_out)
    rows = c * 25
    # A one-map dW is never split, nor one whose last rows fall to tail
    # kernels outside the measured safe case.
    if c_out == 1 or rows % 8 and (rows > 192 or c_out > 32):
        assert blocks == [(0, rows)]
        return
    unit = 32 if c_out <= 16 else -(-c_out // 8) * 8
    _assert_slice_rule(blocks, rows, unit, 8 * n * h * w)
    # A block of at most 16 maps and under 32 rows would run on one thread.
    if c_out <= 16:
        assert all(e - s >= 32 for s, e in blocks) or blocks == [(0, rows)]
    assert all(s % 8 == 0 for s, _ in blocks)  # 8-column tiles of dW
    # Every block but a partial last one holds at least the dY it reads again.
    assert all(e - s >= c_out for s, e in blocks[:-1])


# Batches of 2 to 3 bounds of patch matrix, so the dW GEMM runs in blocks of
# patch rows, one unit each when one unit alone passes half the bound. The
# rule never makes a small block (test_row_blocks_are_aligned_and_never_small):
# a small GEMM may take another OpenBLAS kernel and change last bits.
blocked_cases = st.tuples(
    st.sampled_from([1, 3, 8, 12, 16, 32, 48, 64]), st.integers(9, 40),
    st.integers(9, 40), st.sampled_from([1, 2, 3, 32, 48, 64, 96]),
    st.floats(2.0, 3.0), st.integers(0, 99),
).map(lambda t: (*t[:4], _batch_size(*t[:3], t[4]), t[5]))


@SLICE_SETTINGS
@given(case=blocked_cases)
@example(case=(32, 16, 16, 64, 64, 0))  # cnn-train's C2: 7 blocks of 3-4 units
@example(case=(3, 32, 32, 32, 64, 2))  # cnn-train's C1: 32, 32 and 11 rows
@example(case=(3, 27, 31, 16, 200, 3))  # 16 maps: 32-row units, 11 rows join
@example(case=(3, 32, 32, 8, 64, 5))  # 8-row blocks would run on one thread
@example(case=(3, 27, 31, 24, 200, 3))  # 24 maps: 24-row units, 3 rows join
@example(case=(4, 34, 31, 64, 47, 58))  # 100 rows, 64 maps: one block
@example(case=(12, 38, 24, 17, 14, 63))  # 300 rows: one block
@example(case=(48, 27, 13, 1, 12, 1))  # one map: one block
@example(case=(12, 29, 33, 1, 17, 4))  # one map: split blocks would change bits
def test_blocked_weight_grad_matches_one_gemm_bit_for_bit(case):
    c, h, w, c_out, n, seed = case
    conv = _conv_layer(c, c_out, h, w, seed)
    x = Rng(seed + 1).uniform((c, h, w, n), -1.0, 1.0)
    x[np.abs(x) < 0.2] = -0.0
    dy = Rng(seed + 2).uniform((c_out, h, w, n), -1.0, 1.0)
    dw = conv.backward(dy, x, need_dx=False)[1][0]
    want = dy.reshape(c_out, -1) @ nn._im2col(x, np.empty((c * 25, h * w * n))).T
    assert dw.tobytes() == want.reshape(dw.shape).tobytes()


def test_one_map_conv_is_never_sliced(monkeypatch):
    # numpy runs a one-row GEMM as a matrix-vector product whose bits depend
    # on the column count; split into row runs, this batch changes bits.
    monkeypatch.setattr(nn, "SLICE_BYTES", 1)
    conv = _conv_layer(8, 1, 17, 18, seed=3)
    x = Rng(4).uniform((8, 17, 18, 9), -1.0, 1.0)
    # two maps: 4-row units, the 1-row tail joins the last run
    assert nn._out_row_runs(x.shape, 2) == [(0, 4), (4, 8), (8, 12), (12, 17)]
    assert nn._out_row_runs(x.shape, 1) == [(0, 17)]
    k, b = conv.group.weights.ndarray, conv.group.bias.ndarray
    assert conv.infer(x).tobytes() == _reference_conv(k, x, b).tobytes()


def test_predict_is_eval_forward_across_conv_slices():
    net = build_cnn([8, 4], input_shape=(16, 32, 32), fc_units=8, classes=3, seed=5)
    x = Rng(6).uniform((11, 16, 32, 32), -1.0, 1.0)
    assert nn._out_row_runs((16, 32, 32, 11), 8) == [(0, 10), (10, 21), (21, 32)]  # C1's
    probs, _ = forward(net, x)
    assert predict(net, x).tobytes() == probs.tobytes()


def _nchw_cols(x):
    """The [C*25, N*H*W] patch matrix of a [N, C, H, W] batch, its columns in
    sample-major (n, h, w) order."""
    n, c, h, w = x.shape
    xp = np.zeros((n, c, h + 4, w + 4))
    xp[:, :, 2 : 2 + h, 2 : 2 + w] = x
    windows = sliding_window_view(xp, (5, 5), axis=(2, 3))  # [N, C, H, W, 5, 5]
    cols = np.ascontiguousarray(windows.transpose(1, 4, 5, 0, 2, 3))  # as GEMMs read it
    return cols.reshape(c * 25, n * h * w)


def _nchw_conv(k, x, bias=None):
    """Same-size conv of a [N, C, H, W] batch by one GEMM over ``_nchw_cols``."""
    n, _, h, w = x.shape
    g = k.reshape(k.shape[0], -1) @ _nchw_cols(x)
    if bias is not None:
        g += bias[:, None]
    return g.reshape(-1, n, h, w).transpose(1, 0, 2, 3)


def _nchw_pass(net, x, targets):
    """Logits and {group: (dW, db)} of a build_cnn network by a sample-major
    reference: every activation [N, C, H, W], each conv one GEMM over
    ``_nchw_cols``, and conv dW and db summed in (n, h, w) order."""
    caches, a = [], x
    for layer in net.layers[:-1]:
        kind = type(layer).__name__
        caches.append(a)
        if kind == "_ConvLayer":
            a = _nchw_conv(layer.group.weights.ndarray, a, layer.group.bias.ndarray)
        elif kind == "_ReluLayer":
            a = np.where(a > 0, a, 0.0)
        elif kind == "_MaxPool2Layer":
            a = _maxpool2_batch(a)[0]
        else:
            a = a.reshape(a.shape[0], -1) @ layer.group.weights.ndarray
            a += layer.group.bias.ndarray
    logits, n = a, x.shape[0]
    dy = net.layers[-1].infer(logits)
    dy[np.arange(n), targets] -= 1.0
    dy /= n
    grads = {}
    for layer, a in zip(net.layers[-2::-1], caches[::-1]):
        kind = type(layer).__name__
        if kind == "_ReluLayer":
            dy = dy * (a > 0)
        elif kind == "_MaxPool2Layer":
            dy = _scatter(dy, _maxpool2_batch(a)[1], a.shape)
        elif kind == "_DenseLayer":
            flat = a.reshape(n, -1)
            grads[layer.group.name] = (flat.T @ dy, dy.sum(axis=0))
            dy = (dy @ layer.group.weights.ndarray.T).reshape(a.shape)
        else:
            k = layer.group.weights.ndarray
            dyf = dy.transpose(0, 2, 3, 1).reshape(-1, k.shape[0])  # [N*H*W, C_out]
            grads[layer.group.name] = ((dyf.T @ _nchw_cols(a).T).reshape(k.shape),
                                       dyf.sum(axis=0))
            dy = _nchw_conv(k[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), dy)
    return logits, grads


# Networks whose every conv has W*N a multiple of 8: each output row of the
# [C, H, W, N] layout, and the whole batch in both layouts, fills whole
# 8-column GEMM tiles, so the layouts' GEMMs give the same bits.
aligned_cases = st.tuples(
    st.lists(st.integers(2, 6), min_size=1, max_size=3),
    st.tuples(st.integers(1, 3), st.integers(1, 12), st.integers(1, 12)),
    st.integers(1, 6), st.integers(2, 4), st.sampled_from([8, 16, 24, 40]),
    st.integers(0, 2**16),
)


@SLICE_SETTINGS
@given(case=aligned_cases)
@example(case=([4, 8], (3, 12, 12), 8, 3, 32, 7))  # demo_cnn's training batch
@example(case=([4, 8], (3, 12, 12), 8, 3, 12, 7))  # ... its last, 12 samples
@example(case=([4, 8], (3, 12, 12), 8, 3, 100, 7))  # ... its evaluation chunk
@example(case=([32, 32, 64], (3, 32, 32), 64, 10, 64, 1))  # cnn-train's step
def test_layouts_give_the_same_logits_and_dense_grads(case):
    maps, shape, fc, classes, n, seed = case
    net = build_cnn(maps, input_shape=shape, fc_units=fc, classes=classes, seed=seed)
    for g in net.groups.values():
        g.bias = Tensor(Rng(seed + 1).uniform(g.bias.shape, -0.1, 0.1))
    x = Rng(seed + 2).uniform((n, *shape), -1.0, 1.0)
    targets = np.arange(n) % classes
    want_logits, want = _nchw_pass(net, x, targets)
    assert nn.logits(net, x).tobytes() == want_logits.tobytes()
    _, cache = forward(net, x)
    got = nn.backward(net, cache, targets)
    for name in ("FC", "Out"):
        assert got[name][0].tobytes() == want[name][0].tobytes()
        assert got[name][1].tobytes() == want[name][1].tobytes()
    # Conv dW and db sum in (h, w, n) order, the reference in (n, h, w).
    for name in nn.cnn_group_names(len(maps))[:-2]:
        for g, r in zip(got[name], want[name]):
            assert np.abs(g - r).max() <= 1e-12 * np.abs(r).max()


relu_inputs = arrays(
    np.float64,
    st.tuples(st.integers(1, 4), st.integers(1, 33)),
    elements=st.one_of(
        st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324,
                         -5e-324, 2.2e-308, -2.2e-308]),
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    ),
)


@SETTINGS
@given(x=relu_inputs)
def test_relu_matches_where_reference_bit_for_bit(x):
    relu = build_ffdnn(4, 3, 1, 2, seed=0).layers[1]
    assert type(relu).__name__ == "_ReluLayer"
    before = x.tobytes()
    expected = np.where(x > 0, x, 0.0)
    assert relu.infer(x).tobytes() == expected.tobytes()
    out, mask = relu.forward(x, None)
    assert out.tobytes() == expected.tobytes()
    assert np.array_equal(mask, x > 0)
    assert x.tobytes() == before


ROOT = Path(__file__).resolve().parent.parent


@st.composite
def mutated(draw, raw: bytes) -> bytes:
    """``raw`` after one bit flip, byte set, truncation, or 1-15 duplicated
    bytes."""
    kind = draw(st.sampled_from(["flip", "set", "truncate", "duplicate"]))
    i = draw(st.integers(0, len(raw) - 1))
    if kind == "flip":
        byte = raw[i] ^ (1 << draw(st.integers(0, 7)))
    elif kind == "set":
        byte = draw(st.integers(0, 255))
    elif kind == "truncate":
        return raw[:i]
    else:
        return raw[:i] + raw[i:i + draw(st.integers(1, 15))] + raw[i:]
    return raw[:i] + bytes([byte]) + raw[i + 1:]


def _read_mutated(raw: bytes, name: str, reader, errors):
    """What ``reader`` returns for the file ``raw``, or None if it raised one
    of ``errors``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        with open(path, "wb") as fh:
            fh.write(raw)
        try:
            return reader(path)
        except errors:
            return None


@functools.cache
def _checkpoint_bytes(quantized: bool) -> bytes:
    """A float FFDNN checkpoint, or a ternary one with three quantized groups."""
    net = build_ffdnn(12, 8, 2, 5, seed=4)
    if quantized:
        net, _ = direct_quantize(net, 2)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "net.ckpt")
        save_checkpoint(net, path)
        with open(path, "rb") as fh:
            return fh.read()


def _resaved(path: str) -> bytes:
    again = path + ".again"
    save_checkpoint(load_checkpoint(path), again)
    with open(again, "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("quantized", [False, True], ids=["float", "ternary"])
@SETTINGS
@given(data=st.data())
def test_any_change_to_a_checkpoint_is_rejected(data, quantized):
    raw = _checkpoint_bytes(quantized)
    bad = data.draw(mutated(raw))
    got = _read_mutated(bad, "net.ckpt", _resaved, DataFormatError)
    assert got == (raw if bad == raw else None)


_DATA_CSV = b"x1,x2,label\n0.5,-1.25,0\n2,3e-2,2\n-0.75,1,1\n"
# The committed demo config and sweep records, and a small data CSV with a
# header: each mutation either parses or raises the reader's documented error.
TEXT_READERS = {
    "config": (lambda: (ROOT / "configs" / "demo_blobs.json").read_bytes(),
               load_config, (ConfigError, DataFormatError)),
    "records": (lambda: (ROOT / "out" / "demo" / "records.csv").read_bytes(),
                parse_records_csv, DataFormatError),
    "data": (lambda: _DATA_CSV, load_csv, DataFormatError),
}


@pytest.mark.parametrize("reader", sorted(TEXT_READERS))
@SETTINGS
@given(data=st.data())
def test_a_mutated_text_file_parses_or_raises_its_error(data, reader):
    raw, parse, errors = TEXT_READERS[reader]
    _read_mutated(data.draw(mutated(raw())), reader, parse, errors)


def _reference_derive_seed(seed: int, tag: str) -> int:
    # derive_seed as it was written in Python integers: FNV-1a over the tag,
    # folded into the seed, then one splitmix64 round.
    h = 0xCBF29CE484222325
    for b in tag.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    z = (seed ^ h) & 0xFFFFFFFFFFFFFFFF
    z = (z + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


@SETTINGS
@given(
    seed=st.one_of(
        st.integers(max_value=-1),
        st.integers(min_value=0, max_value=2**64 - 1),
        st.integers(min_value=2**64),
    ),
    tag=st.text(),
)
@example(seed=-1, tag="shuffle")
@example(seed=2**64, tag="")
def test_derive_seed_matches_its_integer_form(seed, tag):
    assert derive_seed(seed, tag) == _reference_derive_seed(seed, tag)


_FAIL_THEN_PASS = """
from hypothesis import given, strategies as st

@given(st.integers())
def test_fails(n):
    assert n < 3

def test_after():
    pass
"""


def test_failing_property_reports_and_the_session_goes_on(pytester):
    # Reporting a falsifying example imports libcst, which raises a
    # DeprecationWarning; under the repo's warning filters it must not turn
    # into an INTERNALERROR that ends the session.
    tomllib = pytest.importorskip("tomllib")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        filters = tomllib.load(fh)["tool"]["pytest"]["ini_options"]["filterwarnings"]
    pytester.makeini(
        "[pytest]\nfilterwarnings =\n" + "".join(f"    {f}\n" for f in filters)
    )
    pytester.makepyfile(test_inner=_FAIL_THEN_PASS)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.stdout.no_fnmatch_line("*INTERNALERROR*")
    result.assert_outcomes(failed=1, passed=1)
