"""Pooling scheme tests: indicator-weighted sums, direct baselines, spatial grids."""

import numpy as np
import pytest

from crosspool.errors import ContractError, GeometryError, ValidationError
from crosspool.features import extract_local_features
from crosspool.network import ConvLayerSpec, conv_forward, relu_forward
from crosspool.pooling import (
    cross_layer_pool,
    direct_max_pool,
    direct_sum_sqrt_pool,
    spp_pool,
)
from crosspool.postproc import pca_fit
from crosspool.tensor import ActivationTensor


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
    """An (N, d) matrix as the row-major features of a grid_h x grid_w
    window grid."""
    return np.asarray(features).reshape(grid_h, grid_w, -1)


def weight_layer(weights, grid_h, grid_w, offset=0):
    """A nonnegative layer t+1 holding weight row i at unit i of the grid,
    shifted by ``offset`` inside a border of other values."""
    k = weights.shape[1]
    data = np.full((grid_h + 2 * offset, grid_w + 2 * offset, k), 7.0, dtype=np.float32)
    data[offset : offset + grid_h, offset : offset + grid_w] = weights.reshape(
        grid_h, grid_w, k
    )
    return data


def pool(features, weights, grid_h, grid_w, offset=0):
    return cross_layer_pool(
        on_grid(features, grid_h, grid_w),
        weight_layer(weights, grid_h, grid_w, offset),
        offset,
    )


def float32_pool_bound(features, weights):
    """Bound on each entry of the float32 pool of n float64 features with
    float32 weights against the float64 double sum.  Rounding a feature to
    float32 moves it by at most u |x| (u = 2**-24), and an n-term float32
    sum of products, in any order and with or without fused multiply-adds,
    is within gamma_n sum_i |x~_i| w_i of its exact value (Higham, section
    3.1; gamma_n = n u / (1 - n u)).  Together that is at most
    gamma_{n+1} sum_i |x_i| w_i."""
    n = features.shape[0]
    u = 2.0**-24
    return (n + 1) * u / (1 - (n + 1) * u) * pool_oracle(np.abs(features), weights)


def test_weighted_pool_matches_oracle():
    """float64 features pool in float32, within ``float32_pool_bound`` of
    the literal double sum, at every offset."""
    rng = np.random.default_rng(31)
    features = rng.normal(size=(20, 5))
    weights = np.abs(rng.normal(size=(20, 3))).astype(np.float32)
    bound = float32_pool_bound(features, weights)
    for offset in (0, 1, 2):
        pooled = pool(features, weights, 4, 5, offset)
        assert pooled.shape == (15,) and pooled.dtype == np.float32
        assert np.all(np.abs(pooled - pool_oracle(features, weights)) <= bound)


def test_channel_slices():
    """Channel k's pooled features occupy the slice [k*d, (k+1)*d), each
    entry within ``float32_pool_bound`` of its double sum."""
    rng = np.random.default_rng(32)
    features = rng.normal(size=(8, 4))
    weights = np.abs(rng.normal(size=(8, 2))).astype(np.float32)
    pooled = pool(features, weights, 2, 4)
    bound = float32_pool_bound(features, weights)
    for k in range(2):
        part = slice(k * 4, (k + 1) * 4)
        assert np.all(np.abs(pooled[part] - features.T @ weights[:, k]) <= bound[part])


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
    grid = on_grid(np.ones((6, 2)), 2, 3)
    layer = np.ones((2, 2, 2), dtype=np.float32)
    with pytest.raises(GeometryError):
        cross_layer_pool(grid, layer, 0)


def test_gather_bounds():
    grid = on_grid(np.ones((4, 2)), 2, 2)
    t = np.ones((4, 4, 2), dtype=np.float32)
    for offset in (-1, 3):
        with pytest.raises(GeometryError):
            cross_layer_pool(grid, t, offset)


def test_gather_values():
    """One-hot features read back the weights: the layer t+1 units from
    the offset on, row-major."""
    rng = np.random.default_rng(35)
    data = np.abs(rng.normal(size=(5, 6, 3))).astype(np.float32)
    pooled = cross_layer_pool(on_grid(np.eye(6), 2, 3), data, 2)
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
    grid = extract_local_features(t, 3, 3, stride)
    pooled = cross_layer_pool(grid, t1.data, pad // stride)
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
    grid = extract_local_features(t, 3, 3, 1)
    rows = grid.reshape(-1, grid.shape[-1])
    pca = pca_fit(rows, 5)
    pooled = cross_layer_pool(grid, t1.data, 0, pca=pca)
    assert pooled.shape == (5 * 3,)

    projected = (rows.astype(np.float64) - pca.mean) @ pca.basis.T
    weights = t1.data[: grid.shape[0], : grid.shape[1]].reshape(-1, 3)
    np.testing.assert_allclose(
        pooled, pool_oracle(projected, weights), rtol=1e-5, atol=1e-6
    )


def test_direct_max_pool():
    data = np.array([[1.0, -2.0], [3.0, 0.5], [-1.0, 4.0]])
    np.testing.assert_array_equal(direct_max_pool(data), [3.0, 4.0])


def test_direct_sum_sqrt_signed():
    """The scheme is the signed column sums, -1 and -3; the row's signed
    square root, not the scheme, takes their roots."""
    data = np.array([[-1.0, -1.0], [0.0, -2.0]])
    out = direct_sum_sqrt_pool(data)
    np.testing.assert_array_equal(out, [-1.0, -3.0])


@pytest.mark.parametrize("scheme", [direct_max_pool, direct_sum_sqrt_pool])
def test_direct_pools_read_the_last_axis(scheme):
    """A float32 feature grid pools, in float32, to the bytes of its
    (count, dim) rows."""
    rng = np.random.default_rng(50)
    grid = rng.normal(size=(3, 4, 5)).astype(np.float32)
    out = scheme(grid)
    assert out.dtype == np.float32 and out.shape == (5,)
    assert out.tobytes() == scheme(grid.reshape(12, 5)).tobytes()


@pytest.mark.parametrize("scheme", ["cross-layer", "spp"])
def test_grid_schemes_reject_a_stack_of_grids(scheme):
    """The grid schemes pool one image part's (grid_h, grid_w, dim) grid
    and refuse an (N, grid_h, grid_w, dim) stack."""
    stack = np.ones((2, 2, 2, 3), dtype=np.float32)
    layer = np.ones((2, 2, 4), dtype=np.float32)
    with pytest.raises(ValidationError, match=r"one \(grid_h, grid_w, dim\) feature grid"):
        if scheme == "cross-layer":
            cross_layer_pool(stack, layer, 0)
        else:
            spp_pool(stack, [1])


def test_spp_level_one_equals_direct_max():
    rng = np.random.default_rng(51)
    data = rng.normal(size=(9, 9, 4)).astype(np.float32)
    grid = extract_local_features(ActivationTensor(data), 3, 3, 1)
    np.testing.assert_array_equal(spp_pool(grid, [1]), direct_max_pool(grid))


def test_spp_dims_and_cell_assignment(anchors_of):
    rng = np.random.default_rng(52)
    data = rng.normal(size=(13, 13, 2)).astype(np.float32)
    grid = extract_local_features(ActivationTensor(data), 1, 1, 1)
    out = spp_pool(grid, [1, 2])
    assert out.shape == (5 * 2,)

    # anchor (12, 12) on the 13x13 grid belongs to cell (1, 1) of the 2x2 level
    cells = out[2:].reshape(2, 2, 2)
    anchors = anchors_of(grid, 1)
    rows = grid.reshape(-1, grid.shape[-1])
    corner = rows[(anchors == [12, 12]).all(axis=1)][0]
    block = rows[(anchors[:, 0] >= 7) & (anchors[:, 1] >= 7)]
    np.testing.assert_array_equal(cells[1, 1], block.max(axis=0))
    assert np.all(cells[1, 1] >= corner - 1e-6)


def test_spp_cell_oracle():
    """Each cell is the max over features whose grid index lands in it."""
    rng = np.random.default_rng(53)
    data = rng.normal(size=(10, 12, 3)).astype(np.float32)
    grid = extract_local_features(ActivationTensor(data), 3, 3, 1)
    grid_h, grid_w, dim = grid.shape
    g = 3
    out = spp_pool(grid, [g]).reshape(g, g, dim)
    for gi in range(grid_h):
        for gj in range(grid_w):
            ci = gi * g // grid_h
            cj = gj * g // grid_w
            assert np.all(out[ci, cj] >= grid[gi, gj] - 1e-6)
    # and every cell value is attained by some member feature
    for ci in range(g):
        for cj in range(g):
            members = [
                grid[gi, gj]
                for gi in range(grid_h)
                for gj in range(grid_w)
                if gi * g // grid_h == ci and gj * g // grid_w == cj
            ]
            np.testing.assert_array_equal(out[ci, cj], np.max(members, axis=0))


def test_spp_empty_cells_are_zero():
    """A grid finer than the anchor lattice leaves zero-filled cells."""
    data = np.ones((4, 4, 1), dtype=np.float32)
    grid = extract_local_features(ActivationTensor(data), 3, 3, 1)
    assert grid.shape[:2] == (2, 2)
    out = spp_pool(grid, [4]).reshape(4, 4, grid.shape[-1])
    filled = {(0, 0), (0, 2), (2, 0), (2, 2)}
    for ci in range(4):
        for cj in range(4):
            if (ci, cj) in filled:
                np.testing.assert_array_equal(out[ci, cj], 1.0)
            else:
                np.testing.assert_array_equal(out[ci, cj], 0.0)


def test_spp_rejects_empty_levels():
    grid = extract_local_features(ActivationTensor(np.ones((4, 4, 1), dtype=np.float32)), 2, 2, 1)
    with pytest.raises(ContractError):
        spp_pool(grid, [])
