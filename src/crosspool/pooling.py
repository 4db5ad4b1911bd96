"""Pooling of local features into one image-part vector.

The central scheme weights every local feature of layer t by the
activations of layer t+1: with descriptors x_1..x_N and indicator weights
a[i, k], channel k pools to

    P_k = sum_i x_i * a[i, k]

and the final vector concatenates P_1..P_K, so channel k occupies the slice
[k*d, (k+1)*d) of the output.  The sum is deliberately unnormalized; signed
square-rooting later compresses the magnitudes.

Feature i's weights are the K activations of the layer t+1 unit whose
receptive field is its window.  When the window equals the next
convolution's kernel and the window stride equals its stride s, a unit
(u, v) with padding p covers the window anchored at (u*s - p, v*s - p), so
the window with grid index (i, j) maps to unit (i + o, j + o) with
o = p / s, defined when s divides p.  So the weights of a (gh, gw, d)
feature grid X are the slice A[o:o+gh, o:o+gw] of layer t+1, and the
whole scheme is one product of the two grids' rows:

    A[o:o+gh, o:o+gw].reshape(-1, K).T @ X.reshape(-1, d)

The product runs in the two grids' common dtype: float32 local features
pool in float32, float64 ones and PCA projections in float64.

Direct max pooling, direct sum-sqrt pooling, and spatial pyramid pooling
over the anchor grid are kept as reference schemes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ContractError, GeometryError, ValidationError
from .postproc import PcaModel, pca_project
from .tensor import ActivationTensor, require_single


def unit_offset(pad: int, stride: int) -> int:
    """Offset o = pad / stride of the layer t+1 unit over the first window."""
    if pad % stride:
        raise GeometryError(f"padding {pad} is not aligned with stride {stride}")
    return pad // stride


def cross_layer_pool(
    grid: np.ndarray,
    layer_t1: ActivationTensor,
    offset: int,
    pca: PcaModel | None = None,
) -> np.ndarray:
    """Pool layer t's (grid_h, grid_w, dim) local features, PCA-projected
    when a model is given, weighted by the rectified layer t+1 units from
    ``offset`` on, in the common dtype of the features and the units."""
    require_single(layer_t1, "cross_layer_pool")
    if not layer_t1.rectified:
        raise ContractError("indicator weights must come from a rectified layer")
    gh, gw, dim = _grid_shape(grid)
    if offset < 0 or offset + gh > layer_t1.height or offset + gw > layer_t1.width:
        raise GeometryError(
            f"{gh}x{gw} windows at offset {offset} exceed indicator layer "
            f"{layer_t1.height}x{layer_t1.width}"
        )
    matrix = grid.reshape(gh * gw, dim)
    if pca is not None:
        matrix = pca_project(pca, matrix)
    # cast both before the product: left to numpy's promotion inside it, a
    # float64 product of 500 or more columns changes its bits
    dtype = np.result_type(matrix, layer_t1.data)
    weights = layer_t1.data[offset : offset + gh, offset : offset + gw]
    weights = weights.reshape(-1, layer_t1.depth).astype(dtype, copy=False)
    return (weights.T @ matrix.astype(dtype, copy=False)).ravel()


def _grid_shape(grid: np.ndarray) -> tuple[int, int, int]:
    if grid.ndim != 3:
        raise ValidationError(
            f"expected one (grid_h, grid_w, dim) feature grid, got shape {grid.shape}"
        )
    return grid.shape


def direct_max_pool(features: np.ndarray) -> np.ndarray:
    """Column maxima of the descriptors along the last axis."""
    matrix = features.reshape(-1, features.shape[-1])
    if matrix.shape[0] < 1:
        raise ContractError("cannot max-pool an empty feature set")
    return matrix.max(axis=0).astype(np.float64)


def direct_sum_sqrt_pool(features: np.ndarray) -> np.ndarray:
    """Column sums of the descriptors along the last axis, compressed by a
    signed square root."""
    matrix = features.reshape(-1, features.shape[-1]).astype(np.float64)
    if matrix.shape[0] < 1:
        raise ContractError("cannot sum-pool an empty feature set")
    total = matrix.sum(axis=0)
    return np.sign(total) * np.sqrt(np.abs(total))


def spp_pool(grid: np.ndarray, levels: Sequence[int]) -> np.ndarray:
    """Spatial pyramid max pooling of a (grid_h, grid_w, dim) feature grid.

    For each level g the anchor grid is split into g x g cells: the anchor
    with grid index (i, j) in an R x C grid falls into cell
    (i*g // R, j*g // C), so cell row ci spans grid rows
    [ceil(ci*R/g), ceil((ci+1)*R/g)).  Each cell is max-pooled, and the
    cells are concatenated level by level, row-major; empty cells
    contribute zeros.
    """
    if not levels:
        raise ContractError("spatial pyramid needs at least one level")
    if any(g < 1 for g in levels):
        raise ValidationError("pyramid levels must be positive")
    gh, gw, dim = _grid_shape(grid)
    if gh * gw < 1:
        raise ContractError("cannot pool an empty feature set")
    grid = grid.astype(np.float64)
    chunks = []
    for g in levels:
        # ceil(c * n / g) as -(-c * n // g)
        row_edges = [-(-c * gh // g) for c in range(g + 1)]
        col_edges = [-(-c * gw // g) for c in range(g + 1)]
        for r0, r1 in zip(row_edges, row_edges[1:]):
            for c0, c1 in zip(col_edges, col_edges[1:]):
                cell = grid[r0:r1, c0:c1]
                chunks.append(cell.max(axis=(0, 1)) if cell.size else np.zeros(dim))
    return np.concatenate(chunks)
