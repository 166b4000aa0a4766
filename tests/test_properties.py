"""Property tests for the grid rule, the step-size fit, the cache-free
inference pass, the training pool and ReLU; skipped when hypothesis is not
installed."""

import os
import tempfile

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

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
    group.weights = apply(group.shadow_weights, group.quantizer)
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
    probs, _ = forward(net, Tensor(x), mode="eval")
    assert predict(net, x).tobytes() == probs.ndarray.tobytes()


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
    out, cache = pool.forward(x, "train", None)
    expected_out, idx = _maxpool2_batch(x)
    assert out.tobytes() == expected_out.tobytes()
    dy = data.draw(arrays(np.float64, out.shape, elements=special))
    n = x.shape[0]
    expected_dx = np.zeros((n, x[0].size))
    np.put_along_axis(expected_dx, idx.reshape(n, -1), dy.reshape(n, -1), axis=1)
    assert pool.backward(dy, cache)[0].tobytes() == expected_dx.reshape(x.shape).tobytes()


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
    out, mask = relu.forward(x, "train", None)
    assert out.tobytes() == expected.tobytes()
    assert np.array_equal(mask, x > 0)
    assert x.tobytes() == before
