"""Pooling scheme tests: indicator-weighted sums, direct baselines, spatial grids."""

import numpy as np
import pytest

from crosspool.errors import ContractError, GeometryError
from crosspool.features import LocalFeatureSet, extract_local_features
from crosspool.network import ConvLayerSpec, conv_forward, relu_forward
from crosspool.pooling import (
    cross_layer_pool,
    direct_max_pool,
    direct_sum_sqrt_pool,
    spp_pool,
)
from crosspool.postproc import pca_fit
from crosspool.tensor import ActivationTensor, FeatureMatrix


def pool_oracle(features, weights):
    """Literal double sum over features and channels."""
    n, d = features.shape
    k = weights.shape[1]
    out = np.zeros(d * k, dtype=np.float64)
    for channel in range(k):
        for i in range(n):
            out[channel * d : (channel + 1) * d] += features[i] * weights[i, channel]
    return out


def on_grid(features, grid_h, grid_w):
    """An (N, d) matrix as the features of a grid_h x grid_w window grid."""
    return LocalFeatureSet(FeatureMatrix(features), grid_h=grid_h, grid_w=grid_w)


def weight_layer(weights, grid_h, grid_w, offset=0):
    """A rectified layer t+1 holding weight row i at unit i of the grid,
    shifted by ``offset`` inside a border of other values."""
    k = weights.shape[1]
    data = np.full((grid_h + 2 * offset, grid_w + 2 * offset, k), 7.0, dtype=np.float32)
    data[offset : offset + grid_h, offset : offset + grid_w] = weights.reshape(
        grid_h, grid_w, k
    )
    return ActivationTensor(data, rectified=True)


def pool(features, weights, grid_h, grid_w, offset=0):
    return cross_layer_pool(
        on_grid(features, grid_h, grid_w),
        weight_layer(weights, grid_h, grid_w, offset),
        offset,
    )


def test_weighted_pool_matches_oracle():
    rng = np.random.default_rng(31)
    features = rng.normal(size=(20, 5))
    weights = np.abs(rng.normal(size=(20, 3))).astype(np.float32)
    for offset in (0, 1, 2):
        pooled = pool(features, weights, 4, 5, offset)
        assert pooled.shape == (15,)
        np.testing.assert_allclose(pooled, pool_oracle(features, weights), rtol=1e-12)


def test_channel_slices():
    rng = np.random.default_rng(32)
    features = rng.normal(size=(8, 4))
    weights = np.abs(rng.normal(size=(8, 2))).astype(np.float32)
    pooled = pool(features, weights, 2, 4)
    for k in range(2):
        np.testing.assert_allclose(
            pooled[k * 4 : (k + 1) * 4], features.T @ weights[:, k], rtol=1e-12
        )


def test_pooling_is_linear_in_weights():
    rng = np.random.default_rng(33)
    features = rng.normal(size=(15, 6))
    w1 = np.abs(rng.normal(size=(15, 2)))
    w2 = np.abs(rng.normal(size=(15, 2)))
    a = pool(features, w1, 3, 5)
    b = pool(features, w2, 3, 5)
    both = pool(features, w1 + w2, 3, 5)
    np.testing.assert_allclose(both, a + b, rtol=1e-5, atol=1e-8)


def test_pooling_permutation_equivariance():
    """Permuting feature/weight rows together leaves the pooled vector alone."""
    rng = np.random.default_rng(34)
    features = rng.normal(size=(12, 4))
    weights = np.abs(rng.normal(size=(12, 3)))
    perm = rng.permutation(12)
    a = pool(features, weights, 3, 4)
    b = pool(features[perm], weights[perm], 3, 4)
    np.testing.assert_allclose(a, b, rtol=1e-6, atol=1e-9)


def test_pool_count_mismatch():
    """A layer t+1 with fewer units than there are windows is rejected."""
    feats = on_grid(np.ones((6, 2)), 2, 3)
    layer = ActivationTensor(np.ones((2, 2, 2), dtype=np.float32), rectified=True)
    with pytest.raises(GeometryError):
        cross_layer_pool(feats, layer, 0)


def test_gather_requires_rectified():
    feats = on_grid(np.ones((4, 2)), 2, 2)
    t = ActivationTensor(np.ones((4, 4, 2), dtype=np.float32) * -1.0, rectified=False)
    with pytest.raises(ContractError):
        cross_layer_pool(feats, t, 0)


def test_gather_bounds():
    feats = on_grid(np.ones((4, 2)), 2, 2)
    t = ActivationTensor(np.ones((4, 4, 2), dtype=np.float32), rectified=True)
    for offset in (-1, 3):
        with pytest.raises(GeometryError):
            cross_layer_pool(feats, t, offset)


def test_gather_values():
    """One-hot features read back the weights: the layer t+1 units from
    the offset on, row-major."""
    rng = np.random.default_rng(35)
    data = np.abs(rng.normal(size=(5, 6, 3))).astype(np.float32)
    t = ActivationTensor(data, rectified=True)
    pooled = cross_layer_pool(on_grid(np.eye(6), 2, 3), t, 2)
    gathered = pooled.reshape(3, 6).T
    np.testing.assert_array_equal(gathered, data[2:4, 2:5].reshape(6, 3))


def cross_layer_oracle(layer_t, layer_t1, window, stride, pad):
    """Triple loop over anchors, channels, and descriptor entries."""
    h, w, d = layer_t.shape
    wh, ww = window
    k = layer_t1.shape[2]
    rows = []
    for r in range(0, h - wh + 1, stride):
        for c in range(0, w - ww + 1, stride):
            desc = []
            for i in range(wh):
                for j in range(ww):
                    for ch in range(d):
                        desc.append(float(layer_t[r + i, c + j, ch]))
            rows.append(((r, c), np.array(desc)))
    dim = wh * ww * d
    out = np.zeros(dim * k)
    for (r, c), desc in rows:
        ur, uc = (r + pad) // stride, (c + pad) // stride
        for ch in range(k):
            out[ch * dim : (ch + 1) * dim] += desc * float(layer_t1[ur, uc, ch])
    return out


@pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 2)])
def test_cross_layer_pool_matches_oracle(stride, pad):
    rng = np.random.default_rng(200 + stride + pad)
    data = np.abs(rng.normal(size=(9, 9, 2))).astype(np.float32)
    t = ActivationTensor(data, rectified=True)
    spec = ConvLayerSpec(
        kernel_h=3, kernel_w=3, in_depth=2, out_depth=4, stride=stride, pad=pad,
        weights=rng.normal(size=(4, 3, 3, 2)),
    )
    t1 = relu_forward(conv_forward(t, spec))
    feats = extract_local_features(t, 3, 3, stride)
    pooled = cross_layer_pool(feats, t1, pad // stride)
    expect = cross_layer_oracle(data, t1.data, (3, 3), stride, pad)
    np.testing.assert_allclose(pooled, expect, rtol=1e-4, atol=1e-4)


def test_cross_layer_pool_with_pca():
    """Projected pooling equals pooling the projected descriptors."""
    rng = np.random.default_rng(210)
    data = np.abs(rng.normal(size=(10, 10, 2))).astype(np.float32)
    t = ActivationTensor(data, rectified=True)
    spec = ConvLayerSpec(
        kernel_h=3, kernel_w=3, in_depth=2, out_depth=3, stride=1, pad=0,
        weights=rng.normal(size=(3, 3, 3, 2)),
    )
    t1 = relu_forward(conv_forward(t, spec))
    feats = extract_local_features(t, 3, 3, 1)
    pca = pca_fit(feats.features, 5)
    pooled = cross_layer_pool(feats, t1, 0, pca=pca)
    assert pooled.shape == (5 * 3,)

    projected = (feats.features.data.astype(np.float64) - pca.mean) @ pca.basis.T
    weights = t1.data[: feats.grid_h, : feats.grid_w].reshape(-1, 3)
    np.testing.assert_allclose(
        pooled, pool_oracle(projected, weights), rtol=1e-5, atol=1e-6
    )


def test_direct_max_pool():
    data = np.array([[1.0, -2.0], [3.0, 0.5], [-1.0, 4.0]])
    np.testing.assert_array_equal(direct_max_pool(FeatureMatrix(data)), [3.0, 4.0])


def test_direct_sum_sqrt_signed():
    """Sum first, then signed square root: column sums -1 and -3 give -1, -sqrt(3)."""
    data = np.array([[-1.0, -1.0], [0.0, -2.0]])
    out = direct_sum_sqrt_pool(FeatureMatrix(data))
    np.testing.assert_allclose(out, [-1.0, -np.sqrt(3.0)])


def test_spp_level_one_equals_direct_max():
    rng = np.random.default_rng(51)
    data = rng.normal(size=(9, 9, 4)).astype(np.float32)
    feats = extract_local_features(ActivationTensor(data), 3, 3, 1)
    np.testing.assert_array_equal(
        spp_pool(feats, [1]), direct_max_pool(feats.features)
    )


def test_spp_dims_and_cell_assignment(anchors_of):
    rng = np.random.default_rng(52)
    data = rng.normal(size=(13, 13, 2)).astype(np.float32)
    feats = extract_local_features(ActivationTensor(data), 1, 1, 1)
    out = spp_pool(feats, [1, 2])
    assert out.shape == (5 * 2,)

    # anchor (12, 12) on the 13x13 grid belongs to cell (1, 1) of the 2x2 level
    cells = out[2:].reshape(2, 2, 2)
    anchors = anchors_of(feats, 1)
    corner = feats.features.data[(anchors == [12, 12]).all(axis=1)][0]
    block = feats.features.data[(anchors[:, 0] >= 7) & (anchors[:, 1] >= 7)]
    np.testing.assert_array_equal(cells[1, 1], block.max(axis=0))
    assert np.all(cells[1, 1] >= corner - 1e-6)


def test_spp_cell_oracle():
    """Each cell is the max over features whose grid index lands in it."""
    rng = np.random.default_rng(53)
    data = rng.normal(size=(10, 12, 3)).astype(np.float32)
    feats = extract_local_features(ActivationTensor(data), 3, 3, 1)
    g = 3
    out = spp_pool(feats, [g]).reshape(g, g, feats.dim)
    for gi in range(feats.grid_h):
        for gj in range(feats.grid_w):
            ci = gi * g // feats.grid_h
            cj = gj * g // feats.grid_w
            row = feats.features.data[gi * feats.grid_w + gj]
            assert np.all(out[ci, cj] >= row - 1e-6)
    # and every cell value is attained by some member feature
    for ci in range(g):
        for cj in range(g):
            members = [
                feats.features.data[gi * feats.grid_w + gj]
                for gi in range(feats.grid_h)
                for gj in range(feats.grid_w)
                if gi * g // feats.grid_h == ci and gj * g // feats.grid_w == cj
            ]
            np.testing.assert_array_equal(out[ci, cj], np.max(members, axis=0))


def test_spp_empty_cells_are_zero():
    """A grid finer than the anchor lattice leaves zero-filled cells."""
    data = np.ones((4, 4, 1), dtype=np.float32)
    feats = extract_local_features(ActivationTensor(data), 3, 3, 1)
    assert (feats.grid_h, feats.grid_w) == (2, 2)
    out = spp_pool(feats, [4]).reshape(4, 4, feats.dim)
    filled = {(0, 0), (0, 2), (2, 0), (2, 2)}
    for ci in range(4):
        for cj in range(4):
            if (ci, cj) in filled:
                np.testing.assert_array_equal(out[ci, cj], 1.0)
            else:
                np.testing.assert_array_equal(out[ci, cj], 0.0)


def test_spp_rejects_empty_levels():
    feats = extract_local_features(ActivationTensor(np.ones((4, 4, 1), dtype=np.float32)), 2, 2, 1)
    with pytest.raises(ContractError):
        spp_pool(feats, [])
