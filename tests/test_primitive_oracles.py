"""The rewritten forward-pass and normalization primitives against the
forms they replaced, kept here as oracles: every result must be equal bit
for bit.  Power normalization computes in float32 for float32 input and in
float64 for any other, and its oracle follows the same dtype rule."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.lib.stride_tricks import sliding_window_view

from crosspool.network import ConvLayerSpec, conv_forward, window_stack
from crosspool.postproc import power_normalize
from crosspool.tensor import ActivationTensor

TINY = np.nextafter(0.0, 1.0)
HUGE = np.finfo(np.float64).max


def power_normalize_oracle(values):
    arr = np.asarray(values)
    arr = arr if arr.dtype == np.float32 else arr.astype(np.float64)
    return np.sign(arr) * np.sqrt(np.abs(arr))


def window_stack_oracle(data, window_h, window_w, stride):
    view = sliding_window_view(data, (window_h, window_w), axis=(-3, -2))
    view = view[..., ::stride, ::stride, :, :, :]
    return view.swapaxes(-3, -1).swapaxes(-3, -2)


def conv_forward_oracle(tensor, layer):
    data = tensor.data.astype(np.float64)
    lead = data.shape[:-3]
    if layer.pad:
        pad = (layer.pad, layer.pad)
        data = np.pad(data, ((0, 0),) * len(lead) + (pad, pad, (0, 0)))
    patches = window_stack_oracle(data, layer.kernel_h, layer.kernel_w, layer.stride)
    kernel = layer.weights.reshape(layer.out_depth, -1)
    cols = np.ascontiguousarray(patches).reshape(-1, kernel.shape[1])
    out = cols @ kernel.T + layer.bias
    oh, ow = layer.output_dims(tensor.height, tensor.width)
    return out.reshape(lead + (oh, ow, layer.out_depth)).astype(np.float32)


def assert_bitwise_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    bits = np.dtype(f"u{want.dtype.itemsize}")
    np.testing.assert_array_equal(got[~nan].view(bits), want[~nan].view(bits))


@settings(deadline=None)
@given(values=st.one_of(
    arrays(np.float64, st.integers(0, 40), elements=st.floats(allow_subnormal=True)),
    arrays(np.float32, st.integers(0, 40), elements=st.floats(width=32)),
))
@example(values=np.array([0.0, -0.0, TINY, -TINY, 2.5 * TINY, np.inf, -np.inf]))
@example(values=np.array([HUGE, -HUGE, np.nan, -np.nan, 1.0, -4.0]))
@example(values=np.array([-0.0], dtype=np.float32))
@example(values=np.array([-4.0, -0.0, 2.5], dtype=np.float16))
@example(values=np.array([-4, 0, 9]))
def test_power_normalize_matches_sign_times_sqrt(values):
    """Signed zeros, subnormals, infinities, NaNs and the float maximum all
    come out as ``np.sign(v) * np.sqrt(np.abs(v))`` does, in float32 for
    float32 input and in float64 for any other; both zeros give +0.0,
    which ``np.copysign`` alone would not."""
    assert_bitwise_equal(power_normalize(values), power_normalize_oracle(values))


def test_power_normalize_leaves_its_input_alone():
    values = np.array([-4.0, 0.0, 9.0])
    power_normalize(values)
    np.testing.assert_array_equal(values, [-4.0, 0.0, 9.0])


@st.composite
def window_cases(draw):
    """An array with 0-2 lead axes, possibly a strided or reversed view,
    and a window that fits it."""
    lead = draw(st.lists(st.integers(1, 3), max_size=2))
    height, width = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    depth, flip = draw(st.integers(1, 4)), draw(st.booleans())
    step_h, step_w = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.normal(size=(*lead, height * step_h, width * step_w, depth))
    data = base[..., ::step_h, ::step_w, :: -1 if flip else 1]
    window_h, window_w = draw(st.integers(1, height)), draw(st.integers(1, width))
    return data, window_h, window_w, draw(st.integers(1, 3))


@settings(deadline=None)
@given(case=window_cases())
def test_window_stack_matches_sliding_window_view(case):
    data, window_h, window_w, stride = case
    got = window_stack(data, window_h, window_w, stride)
    want = window_stack_oracle(data, window_h, window_w, stride)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)
    assert np.shares_memory(got, data) and not got.flags.writeable


@st.composite
def conv_cases(draw):
    """A conv layer with pad 0-2, stride 1-2 and a bias, and one tensor or
    a stack that it fits."""
    kernel_h, kernel_w = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    in_depth, out_depth = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    stride, pad = draw(st.integers(1, 2)), draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layer = ConvLayerSpec(
        kernel_h, kernel_w, in_depth, out_depth, stride=stride, pad=pad,
        weights=rng.normal(size=(out_depth, kernel_h, kernel_w, in_depth)),
        bias=rng.normal(size=out_depth),
    )
    height = draw(st.integers(max(1, kernel_h - 2 * pad), 8))
    width = draw(st.integers(max(1, kernel_w - 2 * pad), 8))
    lead = draw(st.lists(st.integers(1, 3), max_size=1))
    data = rng.normal(size=(*lead, height, width, in_depth)).astype(np.float32)
    return ActivationTensor(data), layer


@settings(deadline=None)
@given(case=conv_cases())
def test_conv_forward_matches_padded_im2col(case):
    tensor, layer = case
    got = conv_forward(tensor, layer)
    assert not got.rectified
    assert_bitwise_equal(got.data, conv_forward_oracle(tensor, layer))
