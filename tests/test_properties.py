"""Property tests for the grid rule, the step-size fit, the cache-free
inference pass, the conv input gradient and sample runs, the conv weight
gradient and channel blocks, the training pool and ReLU, and a check that a
failing property reports under the repo's warning filters; skipped when
hypothesis is not installed."""

import os
import tempfile

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from quantbench import nn  # noqa: E402
from quantbench.checkpoint import load_checkpoint, save_checkpoint  # noqa: E402
from quantbench.nn import (  # noqa: E402
    LayerSpec,
    NetworkSpec,
    build_cnn,
    build_ffdnn,
    build_from_spec,
    forward,
    predict,
)
from quantbench.quantizer import QuantizerSpec, apply, codes, optimize_delta  # noqa: E402
from quantbench.tensor import Rng, Tensor  # noqa: E402

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


@INFER_SETTINGS
@given(net=any_net, n=st.integers(1, 5), seed=st.integers(0, 99))
def test_predict_leaves_its_batch_unmodified(net, n, seed):
    x = _batch(net, n, seed)
    before = x.tobytes()
    out = predict(net, x)
    assert x.tobytes() == before
    assert not np.shares_memory(out, x)


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
    assert pool.infer(x).tobytes() == _maxpool2_batch(x)[0].tobytes()


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
    out, cache = pool.forward(x, None)
    expected_out, idx = _maxpool2_batch(x)
    assert out.tobytes() == expected_out.tobytes()
    dy = data.draw(arrays(np.float64, out.shape, elements=special))
    n = x.shape[0]
    expected_dx = np.zeros((n, x[0].size))
    np.put_along_axis(expected_dx, idx.reshape(n, -1), dy.reshape(n, -1), axis=1)
    assert pool.backward(dy, cache)[0].tobytes() == expected_dx.reshape(x.shape).tobytes()


def _fold(dcols, x_shape):
    """Reference adjoint of nn._im2col: add the whole-batch [C*25, N*H*W]
    patch gradient back onto the input, tap by tap in kernel order.

    It adds into a channel-major [C, N, H+4, W+4] gradient, as _input_grad
    does: numpy's add loop takes another path for a sample-major one, and
    with inf - inf in a sum another NaN then wins."""
    n, c, h, w = x_shape
    taps = dcols.reshape(c, 5, 5, n, h, w)
    dxp = np.zeros((c, n, h + 4, w + 4), dtype=np.float64)
    for dy in range(5):
        for dx in range(5):
            dxp[:, :, dy : dy + h, dx : dx + w] += taps[:, dy, dx]
    return dxp[:, :, 2 : 2 + h, 2 : 2 + w].transpose(1, 0, 2, 3)


def _reference_input_grad(k, dyf, x_shape):
    return _fold(k.reshape(k.shape[0], -1).T @ dyf.T, x_shape)


def _reference_conv(conv, x):
    """The conv layer's output by one whole-batch GEMM over the patch matrix."""
    k, b = conv.group.weights.ndarray, conv.group.bias.ndarray
    n, c, h, w = x.shape
    cols = nn._im2col(x, np.empty((c * 25, n * h * w)))
    g = k.reshape(k.shape[0], -1) @ cols
    g += b[:, None]
    return np.ascontiguousarray(g.reshape(-1, n, h, w).transpose(1, 0, 2, 3))


@SETTINGS
@given(
    shape=st.tuples(st.integers(1, 5), st.integers(1, 4), st.integers(1, 9),
                    st.integers(1, 9)),
    c_out=st.integers(1, 4),
    seed=st.integers(0, 99),
    data=st.data(),
)
def test_input_grad_matches_whole_batch_fold_bit_for_bit(shape, c_out, seed, data):
    n, c, h, w = shape
    k = Rng(seed).uniform((c_out, c, 5, 5), -1.0, 1.0)
    dy = data.draw(arrays(np.float64, (n, c_out, h, w),
                          elements=st.one_of(special, st.floats(-4.0, 4.0))))
    dyf = dy.transpose(0, 2, 3, 1).reshape(-1, c_out)
    with np.errstate(all="ignore"):  # inf - inf and 0 * inf are part of the check
        got = nn._input_grad(k, dyf, shape)
        want = _reference_input_grad(k, dyf, shape)
    assert np.ascontiguousarray(got).tobytes() == want.tobytes()


@pytest.mark.parametrize("nan_at", range(20))
def test_input_grad_matches_fold_with_inf_and_one_nan(nan_at):
    # dY all +inf but one NaN: inf - inf gives -NaN and the input NaN is +NaN,
    # so which one a sum keeps depends on how the fold walks its buffer. A
    # sample-major fold differed here at 8 of the 20 positions.
    shape, c_out = (5, 2, 1, 2), 2
    k = Rng(0).uniform((c_out, 2, 5, 5), -1.0, 1.0)
    dy = np.full((5, c_out, 1, 2), np.inf)
    dy.flat[nan_at] = np.nan
    dyf = dy.transpose(0, 2, 3, 1).reshape(-1, c_out)
    with np.errstate(all="ignore"):
        got = nn._input_grad(k, dyf, shape)
        want = _reference_input_grad(k, dyf, shape)
    assert got.tobytes() == want.tobytes()


# Batches that split into sample runs under the real SLICE_BYTES, 2 to 3
# bounds of patch matrix each. The rule never makes a small run
# (test_sample_runs_are_aligned_and_never_small), and these cases keep runs
# real-sized too: runs of a few KiB would change last bits, because OpenBLAS
# sums a product that small with another kernel.
def _patch_bytes(c, h, w):
    return 8 * 25 * c * h * w


def _split_batch_size(c, h, w, bounds):
    """Samples in ``bounds`` bounds of patch matrix, and at least two runs of
    the samples that span a multiple of 8 patch columns."""
    unit = 8 // np.gcd(h * w, 8)
    return max(int(bounds * nn.SLICE_BYTES / _patch_bytes(c, h, w)), 2 * unit)


sliced_cases = st.tuples(
    st.sampled_from([4, 8, 16]), st.integers(9, 40), st.integers(9, 40),
    st.sampled_from([2, 3, 8, 48, 64]), st.floats(2.0, 3.0), st.integers(0, 99),
).map(lambda t: (*t[:4], _split_batch_size(*t[:3], t[4]), t[5]))
SLICE_SETTINGS = settings(max_examples=10, deadline=None)


def _sliced_case(c, h, w, c_out, n, seed):
    """(conv layer, input batch) of a batch that splits into two or more runs."""
    assert len(nn._sample_runs((n, c, h, w))) >= 2
    conv = _conv_layer(c, c_out, h, w, seed)
    x = Rng(seed + 1).uniform((n, c, h, w), -1.0, 1.0)
    x[np.abs(x) < 0.2] = -0.0
    return conv, x


def _conv_layer(c_in, c_out, h, w, seed):
    return build_cnn([c_out], input_shape=(c_in, h, w), fc_units=2, classes=2,
                     seed=seed).layers[0]


@SLICE_SETTINGS
@given(case=sliced_cases)
@example(case=(16, 52, 52, 48, 3, 0))  # three 1-sample runs
@example(case=(16, 21, 23, 64, 21, 1))  # odd maps: runs of 8 and 13 samples
def test_sliced_conv_inference_matches_one_conv_bit_for_bit(case):
    conv, x = _sliced_case(*case)
    assert conv.infer(x).tobytes() == _reference_conv(conv, x).tobytes()


@SLICE_SETTINGS
@given(case=sliced_cases)
@example(case=(16, 52, 52, 48, 3, 0))
@example(case=(16, 21, 23, 64, 21, 1))
def test_sliced_input_grad_matches_whole_batch_fold_bit_for_bit(case):
    conv, x = _sliced_case(*case)
    k = conv.group.weights.ndarray
    dy = Rng(case[-1] + 2).uniform((x.shape[0], k.shape[0], *x.shape[2:]), -1, 1)
    dyf = dy.transpose(0, 2, 3, 1).reshape(-1, k.shape[0])
    got = np.ascontiguousarray(nn._input_grad(k, dyf, x.shape))
    assert got.tobytes() == _reference_input_grad(k, dyf, x.shape).tobytes()


@SETTINGS
@given(
    shape=st.tuples(st.integers(0, 3000), st.integers(1, 64), st.integers(1, 64),
                    st.integers(1, 64)),
)
def test_sample_runs_are_aligned_and_never_small(shape):
    n, c, h, w = shape
    runs = nn._sample_runs(shape)
    per_sample = _patch_bytes(c, h, w)
    assert [s for s, _ in runs] == [0] + [e for _, e in runs[:-1]]
    assert runs[-1][1] == n
    if n * per_sample <= nn.SLICE_BYTES:
        assert runs == [(0, n)]
    for s, e in runs[:-1]:
        assert (e - s) * h * w % 8 == 0
    if len(runs) > 1:  # so every run's patch holds at least 2^20 entries
        assert min(e - s for s, e in runs) * per_sample >= nn.SLICE_BYTES // 2


# Batches of 2 to 3 bounds of patch matrix whose C_in is a multiple of 8, so
# the dW GEMM runs in channel blocks: 8-channel ones when 8 channels alone
# pass the bound. The rule never makes a small block
# (test_channel_blocks_are_whole_octets_and_never_small), as it makes no small
# run: a small GEMM may take another OpenBLAS kernel and change last bits.
def _batch_size(c, h, w, bounds):
    return max(1, int(bounds * nn.SLICE_BYTES / _patch_bytes(c, h, w)))


blocked_cases = st.tuples(
    st.sampled_from([8, 16, 24, 32, 48, 64]), st.integers(9, 40), st.integers(9, 40),
    st.sampled_from([1, 2, 3, 48, 64, 96]), st.floats(2.0, 3.0), st.integers(0, 99),
).map(lambda t: (*t[:4], _batch_size(*t[:3], t[4]), t[5]))


@SLICE_SETTINGS
@given(case=blocked_cases)
@example(case=(32, 16, 16, 64, 64, 0))  # cnn-train's C2: four 25 MiB blocks
@example(case=(48, 27, 13, 1, 12, 1))  # one map, blocks of 16 channels
@example(case=(12, 29, 33, 1, 17, 4))  # C_in 12 is one block; 8 + 4 changes bits
def test_blocked_weight_grad_matches_one_gemm_bit_for_bit(case):
    c, h, w, c_out, n, seed = case
    conv = _conv_layer(c, c_out, h, w, seed)
    x = Rng(seed + 1).uniform((n, c, h, w), -1.0, 1.0)
    x[np.abs(x) < 0.2] = -0.0
    dy = Rng(seed + 2).uniform((n, c_out, h, w), -1.0, 1.0)
    dw = conv.backward(dy, x, need_dx=False)[1][0]
    dyf = dy.transpose(0, 2, 3, 1).reshape(-1, c_out)
    want = dyf.T @ nn._im2col(x, np.empty((c * 25, n * h * w))).T
    assert dw.tobytes() == want.tobytes()


@SETTINGS
@given(
    shape=st.tuples(
        st.integers(1, 3000),
        st.one_of(st.integers(1, 128), st.integers(1, 16).map(lambda k: 8 * k)),
        st.integers(1, 64), st.integers(1, 64),
    ),
)
@example(shape=(64, 12, 32, 32))  # C_in not a multiple of 8: never split
def test_channel_blocks_are_whole_octets_and_never_small(shape):
    n, c, h, w = shape
    blocks = nn._channel_blocks(shape)
    per_channel = n * _patch_bytes(1, h, w)
    assert [s for s, _ in blocks] == [0] + [e for _, e in blocks[:-1]]
    assert blocks[-1][1] == c
    if c % 8 or c * per_channel <= nn.SLICE_BYTES:
        assert blocks == [(0, c)]
    else:
        assert all((e - s) % 8 == 0 for s, e in blocks)
    if len(blocks) > 1:
        assert min(e - s for s, e in blocks) * per_channel >= nn.SLICE_BYTES // 2
        # A block passes the bound only when 8 channels alone do.
        for s, e in blocks[:-1]:
            assert (e - s) * per_channel <= nn.SLICE_BYTES or e - s == 8


def test_one_map_conv_is_never_sliced(monkeypatch):
    # numpy runs a one-row GEMM as a matrix-vector product whose bits depend
    # on the column count; split into samples, this batch changes bits.
    monkeypatch.setattr(nn, "SLICE_BYTES", 1)
    conv = _conv_layer(8, 1, 17, 18, seed=3)
    x = Rng(4).uniform((9, 8, 17, 18), -1.0, 1.0)
    assert nn._sample_runs(x.shape) == [(0, 4), (4, 9)]
    assert conv.infer(x).tobytes() == _reference_conv(conv, x).tobytes()


def test_predict_is_eval_forward_across_conv_slices():
    net = build_cnn([8, 4], input_shape=(16, 32, 32), fc_units=8, classes=3, seed=5)
    x = Rng(6).uniform((11, 16, 32, 32), -1.0, 1.0)
    assert nn._sample_runs(x.shape) == [(0, 5), (5, 11)]  # C1's runs
    probs, _ = forward(net, x)
    assert predict(net, x).tobytes() == probs.tobytes()


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
