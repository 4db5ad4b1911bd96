"""The rewritten forward-pass and normalization primitives against the
forms they replaced, kept here as oracles: every result must be equal bit
for bit, except the float32 convolution, which must stay within the drift
contract's bound (see ``test_pool_drift``) of its float64 im2col oracle.
Power normalization computes in float32, and its oracle is the formula on
the input cast to float32.  The pipeline sign-codes a quantized row as
pooled, and the codes of the rooted row are its oracle."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.lib.stride_tricks import sliding_window_view

from crosspool.network import ConvLayerSpec, conv_forward, window_stack
from crosspool.postproc import power_normalize, sign_quantize
from crosspool.tensor import ActivationTensor
from test_pool_drift import assert_within, gamma

TINY = np.nextafter(np.float32(0.0), np.float32(1.0))
HUGE = np.finfo(np.float32).max
# float32 bit patterns: both zeros, both infinities, the smallest and
# largest subnormals and the float32 maximum of either sign, and quiet and
# signalling NaNs of either sign with the least and the most payload
SPECIAL_BITS = np.array([
    0x00000000, 0x80000000, 0x7F800000, 0xFF800000,
    0x00000001, 0x80000001, 0x007FFFFF, 0x807FFFFF, 0x7F7FFFFF, 0xFF7FFFFF,
    0x7FC00000, 0xFFC00000, 0x7FFFFFFF, 0xFFFFFFFF,
    0x7F800001, 0xFF800001, 0x7FBFFFFF, 0xFFBFFFFF,
], np.uint32)


def power_normalize_oracle(values):
    arr = np.asarray(values, dtype=np.float32)
    return np.sign(arr) * np.sqrt(np.abs(arr))


def window_stack_oracle(data, window_h, window_w, stride):
    view = sliding_window_view(data, (window_h, window_w), axis=(-3, -2))
    view = view[..., ::stride, ::stride, :, :, :]
    return view.swapaxes(-3, -1).swapaxes(-3, -2)


def conv_forward_oracle(data, layer, weights, bias):
    """The layer's float64 convolution of ``data`` with the given weights
    and bias, by padding and im2col."""
    data = data.astype(np.float64)
    lead = data.shape[:-3]
    height, width = data.shape[-3:-1]
    if layer.pad:
        pad = (layer.pad, layer.pad)
        data = np.pad(data, ((0, 0),) * len(lead) + (pad, pad, (0, 0)))
    patches = window_stack_oracle(data, layer.kernel_h, layer.kernel_w, layer.stride)
    kernel = weights.reshape(layer.out_depth, -1)
    cols = np.ascontiguousarray(patches).reshape(-1, kernel.shape[1])
    out = cols @ kernel.T + bias
    oh, ow = layer.output_dims(height, width)
    return out.reshape(lead + (oh, ow, layer.out_depth))


def assert_bitwise_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    bits = np.dtype(f"u{want.dtype.itemsize}")
    np.testing.assert_array_equal(got[~nan].view(bits), want[~nan].view(bits))


@settings(deadline=None)
@given(values=arrays(
    np.float32, st.integers(0, 40), elements=st.floats(width=32, allow_subnormal=True)
))
@example(values=np.array([0.0, -0.0, TINY, -TINY, 3 * TINY, np.inf, -np.inf], np.float32))
@example(values=np.array([HUGE, -HUGE, np.nan, -np.nan, 1.0, -4.0], np.float32))
@example(values=np.array([-0.0], dtype=np.float32))
@example(values=np.array([-4.0, -0.0, 2.5], dtype=np.float16))
@example(values=np.array([-4, 0, 9]))
def test_power_normalize_matches_sign_times_sqrt(values):
    """Signed zeros, subnormals, infinities, NaNs and the float32 maximum
    all come out as ``np.sign(v) * np.sqrt(np.abs(v))`` does, in float32;
    float16 and integer input, exact in float32, is cast first.  Both zeros
    give +0.0, which ``np.copysign`` alone would not."""
    assert_bitwise_equal(power_normalize(values), power_normalize_oracle(values))


def test_power_normalize_leaves_its_input_alone():
    values = np.array([-4.0, 0.0, 9.0])
    power_normalize(values)
    np.testing.assert_array_equal(values, [-4.0, 0.0, 9.0])


@st.composite
def float32_rows(draw):
    """A float32 row of 1-4100 entries, each drawn from random bit
    patterns, NaNs of either sign and any payload, subnormals of either
    sign, or ``SPECIAL_BITS``."""
    width = draw(st.integers(1, 4100))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bits = rng.integers(0, 2**32, size=width, dtype=np.uint32)
    kind = rng.integers(0, 4, size=width)
    nan = (bits & 0x807FFFFF) | 0x7F800000
    nan[(nan & 0x007FFFFF) == 0] |= 1
    bits = np.select(
        [kind == 1, kind == 2, kind == 3],
        [nan, bits & 0x807FFFFF, rng.choice(SPECIAL_BITS, size=width)],
        bits,
    )
    return bits.astype(np.uint32).view(np.float32)


@settings(deadline=None)
@given(values=float32_rows())
@example(values=SPECIAL_BITS.view(np.float32))
@example(values=np.array([-0.0], np.float32))
@example(values=np.full(4100, -TINY, np.float32))
def test_sign_codes_of_rooted_rows_equal_codes_of_rows(values):
    """The signed square root keeps every sign, so a row's sign codes do
    not depend on whether it was rooted, byte for byte: both zeros and
    every NaN code 00 either way, and infinities, subnormals and the
    float32 maximum keep their signs."""
    with np.errstate(invalid="ignore"):  # sqrt warns on signalling NaNs
        rooted = power_normalize(values)
    assert sign_quantize(rooted[None]).tobytes() == sign_quantize(values[None]).tobytes()


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
    """Within gamma_{K+2} (|W| |x| + |b|) of the float64 oracle, the drift
    contract's bound on one convolution of an exact float32 input."""
    tensor, layer = case
    got = conv_forward(tensor, layer)
    assert not got.rectified and got.data.dtype == np.float32
    want = conv_forward_oracle(tensor.data, layer, layer.weights, layer.bias)
    magnitude = conv_forward_oracle(
        np.abs(tensor.data), layer, np.abs(layer.weights), np.abs(layer.bias)
    )
    k = layer.kernel_h * layer.kernel_w * layer.in_depth
    assert_within(got.data, want, gamma(k + 2) * magnitude)
