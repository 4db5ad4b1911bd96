"""Forward-pass tests for the small conv/relu/maxpool network runner.

The convolution implementation is checked against a literal five-deep
loop oracle so the vectorized path never gets to grade its own homework.
"""

import numpy as np
import pytest

from crosspool.errors import ConfigError, GeometryError, ValidationError
from crosspool.network import (
    ConvLayerSpec,
    MaxPoolStage,
    NetworkSpec,
    ReluStage,
    conv_forward,
    lcg_uniform,
    maxpool_forward,
    min_input_extent,
    parse_network_file,
    relu_forward,
    run_network,
    write_network_file,
)
from crosspool.tensor import ActivationTensor


def conv_oracle(data, weights, bias, stride, pad):
    """Direct correlation: out[r,c,o] = sum over the receptive field."""
    h, w, d = data.shape
    out_depth, kh, kw, _ = weights.shape
    padded = np.zeros((h + 2 * pad, w + 2 * pad, d), dtype=np.float64)
    padded[pad : pad + h, pad : pad + w, :] = data
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    out = np.zeros((oh, ow, out_depth), dtype=np.float64)
    for r in range(oh):
        for c in range(ow):
            for o in range(out_depth):
                acc = bias[o]
                for i in range(kh):
                    for j in range(kw):
                        acc += np.dot(
                            padded[r * stride + i, c * stride + j, :],
                            weights[o, i, j, :],
                        )
                out[r, c, o] = acc
    return out


def random_spec(rng, kh, kw, in_depth, out_depth, stride=1, pad=0):
    return ConvLayerSpec(
        kernel_h=kh,
        kernel_w=kw,
        in_depth=in_depth,
        out_depth=out_depth,
        stride=stride,
        pad=pad,
        weights=rng.normal(size=(out_depth, kh, kw, in_depth)),
        bias=rng.normal(size=out_depth),
    )


def test_lcg_matches_recurrence():
    def oracle(seed, count):
        state = seed % 2**32
        vals = []
        for _ in range(count):
            state = (1664525 * state + 1013904223) % 2**32
            vals.append(state / 2**32 - 0.5)
        return np.array(vals, dtype=np.float64)

    for seed in (0, 1, 42, 2**31, 2**32 - 1):
        for count in (0, 1, 2, 3, 16, 17, 4608):
            vals = lcg_uniform(seed, count)
            assert vals.dtype == np.float64 and vals.shape == (count,)
            np.testing.assert_array_equal(
                vals.view(np.uint64), oracle(seed, count).view(np.uint64)
            )


def test_lcg_range():
    vals = lcg_uniform(7, 10000)
    assert vals.min() >= -0.5 and vals.max() < 0.5


def test_conv_ones_hand_trace():
    """A 5x5 field of ones under a 3x3 ones kernel sums nine cells everywhere."""
    t = ActivationTensor(np.ones((5, 5, 1), dtype=np.float32))
    spec = ConvLayerSpec(
        kernel_h=3, kernel_w=3, in_depth=1, out_depth=1,
        weights=np.ones((1, 3, 3, 1)), bias=np.zeros(1),
    )
    out = conv_forward(t, spec)
    assert out.data.shape == (3, 3, 1)
    np.testing.assert_allclose(out.data, 9.0)
    assert out.rectified is False


@pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 0), (2, 1), (3, 2)])
def test_conv_matches_loop_oracle(stride, pad):
    rng = np.random.default_rng(100 + stride * 10 + pad)
    data = rng.normal(size=(9, 11, 3)).astype(np.float32)
    spec = random_spec(rng, 3, 3, 3, 4, stride=stride, pad=pad)
    out = conv_forward(ActivationTensor(data), spec)
    expect = conv_oracle(data.astype(np.float64), spec.weights, spec.bias, stride, pad)
    assert out.data.shape == expect.shape
    np.testing.assert_allclose(out.data, expect.astype(np.float32), rtol=1e-5, atol=1e-5)


def test_conv_rectangular_kernel():
    rng = np.random.default_rng(5)
    data = rng.normal(size=(8, 8, 2)).astype(np.float32)
    spec = random_spec(rng, 2, 4, 2, 3)
    out = conv_forward(ActivationTensor(data), spec)
    expect = conv_oracle(data.astype(np.float64), spec.weights, spec.bias, 1, 0)
    assert out.data.shape == (7, 5, 3)
    np.testing.assert_allclose(out.data, expect.astype(np.float32), rtol=1e-5)


def test_conv_output_dims_formula():
    spec = ConvLayerSpec(kernel_h=5, kernel_w=5, in_depth=1, out_depth=1, stride=2, pad=2)
    assert spec.output_dims(11, 11) == (6, 6)


def test_conv_depth_mismatch():
    t = ActivationTensor(np.ones((4, 4, 2), dtype=np.float32))
    spec = ConvLayerSpec(kernel_h=3, kernel_w=3, in_depth=3, out_depth=1)
    with pytest.raises(ValidationError):
        conv_forward(t, spec)


def test_conv_kernel_too_big():
    t = ActivationTensor(np.ones((2, 2, 1), dtype=np.float32))
    spec = ConvLayerSpec(
        kernel_h=3, kernel_w=3, in_depth=1, out_depth=1,
        weights=np.zeros((1, 3, 3, 1)),
    )
    with pytest.raises(GeometryError):
        conv_forward(t, spec)


def test_relu_forward():
    data = np.array([[[-1.0, 2.0]], [[0.5, -3.0]]], dtype=np.float32)
    out = relu_forward(ActivationTensor(data))
    assert out.rectified is True
    np.testing.assert_array_equal(
        out.data, np.array([[[0.0, 2.0]], [[0.5, 0.0]]], dtype=np.float32)
    )


def test_maxpool_oracle():
    rng = np.random.default_rng(9)
    data = rng.normal(size=(6, 8, 3)).astype(np.float32)
    out = maxpool_forward(ActivationTensor(data), size=2, stride=2)
    assert out.data.shape == (3, 4, 3)
    for r in range(3):
        for c in range(4):
            for k in range(3):
                window = data[2 * r : 2 * r + 2, 2 * c : 2 * c + 2, k]
                assert out.data[r, c, k] == window.max()


def test_maxpool_preserves_rectified():
    data = np.abs(np.random.default_rng(2).normal(size=(4, 4, 1))).astype(np.float32)
    out = maxpool_forward(ActivationTensor(data, rectified=True), size=2, stride=2)
    assert out.rectified is True


def test_maxpool_too_large():
    t = ActivationTensor(np.ones((3, 3, 1), dtype=np.float32))
    with pytest.raises(GeometryError):
        maxpool_forward(t, size=4, stride=1)


def test_seeded_weights_are_deterministic():
    stages = [ConvLayerSpec(kernel_h=3, kernel_w=3, in_depth=2, out_depth=4)]
    a = NetworkSpec(stages=stages, seed=7)
    b = NetworkSpec(stages=stages, seed=7)
    c = NetworkSpec(stages=stages, seed=8)
    assert stages[0].weights is None
    wa = a.conv_stages()[0][1].weights
    wb = b.conv_stages()[0][1].weights
    wc = c.conv_stages()[0][1].weights
    np.testing.assert_array_equal(wa, wb)
    assert not np.array_equal(wa, wc)
    assert wa.min() >= -0.5 and wa.max() < 0.5
    np.testing.assert_array_equal(a.conv_stages()[0][1].bias, np.zeros(4))


def test_seeded_weights_differ_per_stage():
    stages = [
        ConvLayerSpec(kernel_h=1, kernel_w=1, in_depth=2, out_depth=2),
        ReluStage(),
        ConvLayerSpec(kernel_h=1, kernel_w=1, in_depth=2, out_depth=2),
    ]
    net = NetworkSpec(stages=stages, seed=0)
    convs = net.conv_stages()
    assert not np.array_equal(convs[0][1].weights, convs[1][1].weights)


def test_network_depth_chain_validated():
    stages = [
        ConvLayerSpec(kernel_h=3, kernel_w=3, in_depth=2, out_depth=4),
        ReluStage(),
        ConvLayerSpec(kernel_h=3, kernel_w=3, in_depth=5, out_depth=2),
    ]
    with pytest.raises(ValidationError):
        NetworkSpec(stages=stages, seed=0)


def test_run_network_stage_outputs():
    rng = np.random.default_rng(3)
    stages = [
        ConvLayerSpec(kernel_h=3, kernel_w=3, in_depth=1, out_depth=2),
        ReluStage(),
        MaxPoolStage(size=2, stride=2),
    ]
    net = NetworkSpec(stages=stages, seed=1)
    t = ActivationTensor(rng.normal(size=(9, 9, 1)).astype(np.float32))
    outs = run_network(t, net)
    assert len(outs) == 3
    assert outs[0].data.shape == (7, 7, 2)
    assert outs[1].rectified is True
    assert outs[2].data.shape == (3, 3, 2)
    # relu output really is conv output clamped at zero
    np.testing.assert_array_equal(outs[1].data, np.maximum(outs[0].data, 0.0))


@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 0), (2, 1)])
def test_batched_forward_matches_per_image(stride, pad, count):
    """An (N, H, W, D) batch gives each image the bits of its own pass,
    through a square and a rectangular conv, relu and maxpool."""
    rng = np.random.default_rng(200 + 10 * stride + pad + count)
    net = NetworkSpec(
        stages=[
            random_spec(rng, 3, 3, 3, 5, stride=stride, pad=pad),
            ReluStage(),
            random_spec(rng, 2, 3, 5, 4, pad=pad),
            ReluStage(),
            MaxPoolStage(size=2, stride=1),
        ]
    )
    data = rng.normal(size=(count, 11, 9, 3)).astype(np.float32)
    batched = run_network(ActivationTensor(data), net)
    for n in range(count):
        single = run_network(ActivationTensor(data[n]), net)
        for b, s in zip(batched, single):
            assert b.data.shape == (count,) + s.data.shape
            assert b.rectified == s.rectified
            np.testing.assert_array_equal(b.data[n].view(np.uint32), s.data.view(np.uint32))


def test_min_input_extent():
    stages = [
        ConvLayerSpec(kernel_h=3, kernel_w=3, in_depth=1, out_depth=2),
        ReluStage(),
        ConvLayerSpec(kernel_h=3, kernel_w=3, in_depth=2, out_depth=2),
        ReluStage(),
    ]
    net = NetworkSpec(stages=stages, seed=0)
    mh, mw = min_input_extent(net)
    assert (mh, mw) == (5, 5)
    run_network(ActivationTensor(np.ones((5, 5, 1), dtype=np.float32)), net)
    with pytest.raises(GeometryError):
        run_network(ActivationTensor(np.ones((4, 4, 1), dtype=np.float32)), net)


def test_parse_network_file_round_trip(tmp_path):
    rng = np.random.default_rng(17)
    stages = [
        random_spec(rng, 3, 3, 2, 4, stride=1, pad=1),
        ReluStage(),
        MaxPoolStage(size=2, stride=2),
        random_spec(rng, 2, 2, 4, 3, stride=2),
        ReluStage(),
    ]
    net = NetworkSpec(stages=stages, seed=5)
    path = tmp_path / "net.spec"
    write_network_file(net, path)
    back = parse_network_file(path)
    assert back.input_depth() == 2
    assert len(back.stages) == 5
    # weight sidecars are stored as float32, so compare at that precision
    t = ActivationTensor(rng.normal(size=(10, 10, 2)).astype(np.float32))
    for a, b in zip(run_network(t, net), run_network(t, back)):
        np.testing.assert_allclose(a.data, b.data, rtol=1e-4, atol=1e-5)


def test_parse_network_seeded_weights(tmp_path):
    path = tmp_path / "seeded.spec"
    path.write_text(
        "# two stage net\n"
        "input_depth = 1\n"
        "seed = 3\n"
        "conv out_depth=2 kernel=3x3 stride=1 pad=0\n"
        "relu\n"
    )
    net = parse_network_file(path)
    expect = NetworkSpec(
        stages=[ConvLayerSpec(kernel_h=3, kernel_w=3, in_depth=1, out_depth=2), ReluStage()],
        seed=3,
    )
    np.testing.assert_array_equal(
        net.conv_stages()[0][1].weights, expect.conv_stages()[0][1].weights
    )


@pytest.mark.parametrize(
    "body",
    [
        "conv out_depth=2 kernel=3x3\n",                       # missing input_depth
        "input_depth = 1\nconv kernel=3x3\n",                  # missing out_depth
        "input_depth = 1\nconv out_depth=2 kernel=3by3\n",     # bad kernel syntax
        "input_depth = 1\nmaxpool stride=2\n",                 # missing size
        "input_depth = 1\nmaxpool size=0\n",                   # zero size
        "input_depth = 1\nmaxpool size=2 stride=0\n",          # zero stride
        "input_depth = 1\nwibble\n",                           # unknown stage
        "input_depth = 1\nconv out_depth=2 kernel=3x3 color=red\n",  # unknown key
    ],
)
def test_parse_network_rejects_bad_files(tmp_path, body):
    path = tmp_path / "bad.spec"
    path.write_text(body)
    with pytest.raises(ConfigError):
        parse_network_file(path)
