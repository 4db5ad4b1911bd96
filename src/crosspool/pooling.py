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

Local features are float32, and every scheme pools them in float32.

Direct max pooling, direct sum-sqrt pooling, and spatial pyramid pooling
over the anchor grid are kept as reference schemes.  No scheme applies the
signed square root itself: the pipeline takes it once, of the whole float
row, and sign-codes a quantized row as pooled, since the root keeps every
sign.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ContractError, GeometryError, ValidationError
from .postproc import PcaModel, pca_project
from .tensor import require_single

# The pyramid levels of the ``spp`` scheme: the whole grid, then 2 x 2 cells.
SPP_LEVELS = (1, 2)


def unit_offset(pad: int, stride: int) -> int:
    """Offset o = pad / stride of the layer t+1 unit over the first window."""
    if pad % stride:
        raise GeometryError(f"padding {pad} is not aligned with stride {stride}")
    return pad // stride


def cross_layer_pool(
    grid: np.ndarray,
    layer_t1: np.ndarray,
    offset: int,
    pca: PcaModel | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Pool layer t's (grid_h, grid_w, dim) local features, PCA-projected
    when a model is given, weighted by the (H, W, K) layer t+1 units from
    ``offset`` on, in float32.  Layer t+1 must be nonnegative, as a ReLU's
    output is; it is not checked.

    ``out``, when given, is a contiguous float32 vector of K * dim entries,
    such as a part's slice of a representation row; the product is written
    straight into it and it is returned."""
    require_single(layer_t1, "cross_layer_pool")
    gh, gw, dim = _grid_shape(grid)
    height, width, depth = layer_t1.shape
    if offset < 0 or offset + gh > height or offset + gw > width:
        raise GeometryError(
            f"{gh}x{gw} windows at offset {offset} exceed indicator layer "
            f"{height}x{width}"
        )
    matrix = grid.reshape(gh * gw, dim)
    if pca is not None:
        matrix = pca_project(pca, matrix)
    weights = layer_t1[offset : offset + gh, offset : offset + gw].reshape(-1, depth)
    if out is None:
        out = np.empty(depth * matrix.shape[1], np.float32)
    np.matmul(weights.T, matrix, out=out.reshape(depth, -1), dtype=np.float32)
    return out


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
    return matrix.max(axis=0)


def direct_sum_sqrt_pool(features: np.ndarray) -> np.ndarray:
    """Column sums of the descriptors along the last axis; the row's signed
    square root makes them the sum-sqrt baseline."""
    matrix = features.reshape(-1, features.shape[-1])
    if matrix.shape[0] < 1:
        raise ContractError("cannot sum-pool an empty feature set")
    return matrix.sum(axis=0)


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
    chunks = []
    for g in levels:
        # ceil(c * n / g) as -(-c * n // g)
        row_edges = [-(-c * gh // g) for c in range(g + 1)]
        col_edges = [-(-c * gw // g) for c in range(g + 1)]
        for r0, r1 in zip(row_edges, row_edges[1:]):
            for c0, c1 in zip(col_edges, col_edges[1:]):
                cell = grid[r0:r1, c0:c1]
                chunks.append(cell.max(axis=(0, 1)) if cell.size else np.zeros(dim, grid.dtype))
    return np.concatenate(chunks)
