"""Sliding-window local features.

A local feature is one window of a layer's activations, flattened in
(window row, window column, channel) order, so entry
``(i*window_w + j)*depth + k`` of a descriptor is the source value at
``(anchor_r + i, anchor_c + j, k)``.  Only windows that lie fully inside
the tensor are extracted, and anchors advance in stride steps: an image's
features form a ``(grid_h, grid_w, dim)`` grid whose entry ``grid[i, j]``
is the window anchored at ``(i*stride, j*stride)``.  A stack of N
same-shape images extracts in one copy to an ``(N, grid_h, grid_w, dim)``
array, image n's grid bitwise equal to its own extraction.
"""

from __future__ import annotations

import numpy as np

from .errors import GeometryError, ValidationError
from .network import window_stack
from .tensor import ActivationTensor


def extract_local_features(
    tensor: ActivationTensor, window_h: int, window_w: int, stride: int = 1
) -> np.ndarray:
    """All fully-interior window_h x window_w patches, stride steps apart,
    of one (H, W, D) tensor or an (N, H, W, D) stack, as a C-contiguous
    float32 array of shape ``lead + (grid_h, grid_w, window_h*window_w*D)``."""
    if window_h < 1 or window_w < 1:
        raise ValidationError("window dimensions must be positive")
    if stride < 1:
        raise ValidationError("stride must be positive")
    if window_h > tensor.height or window_w > tensor.width:
        raise GeometryError(
            f"window {window_h}x{window_w} exceeds tensor "
            f"{tensor.height}x{tensor.width}"
        )
    patches = np.ascontiguousarray(window_stack(tensor.data, window_h, window_w, stride))
    return patches.reshape(patches.shape[:-3] + (-1,))
