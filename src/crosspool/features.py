"""Sliding-window local features.

A local feature is one window of a layer's activations, flattened in
(window row, window column, channel) order, so entry
``(i*window_w + j)*depth + k`` of a descriptor is the source value at
``(anchor_r + i, anchor_c + j, k)``.  Only windows that lie fully inside
the tensor are extracted; anchors advance in stride steps and are listed
row-major, so row k of a ``grid_h x grid_w`` set is the window anchored at
``(k // grid_w * stride, k % grid_w * stride)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, ValidationError
from .network import window_stack
from .tensor import ActivationTensor, FeatureMatrix, require_single


@dataclass
class LocalFeatureSet:
    """Extracted descriptors plus the anchor grid they came from."""

    features: FeatureMatrix
    grid_h: int
    grid_w: int

    def __post_init__(self):
        if self.grid_h * self.grid_w != self.features.count:
            raise ValidationError(
                f"grid {self.grid_h}x{self.grid_w} does not cover "
                f"{self.features.count} descriptors"
            )

    @property
    def count(self) -> int:
        return self.features.count

    @property
    def dim(self) -> int:
        return self.features.dim


def extract_local_features(
    tensor: ActivationTensor, window_h: int, window_w: int, stride: int = 1
) -> LocalFeatureSet:
    """All fully-interior window_h x window_w patches, stride steps apart."""
    require_single(tensor, "extract_local_features")
    if window_h < 1 or window_w < 1:
        raise ValidationError("window dimensions must be positive")
    if stride < 1:
        raise ValidationError("stride must be positive")
    if window_h > tensor.height or window_w > tensor.width:
        raise GeometryError(
            f"window {window_h}x{window_w} exceeds tensor "
            f"{tensor.height}x{tensor.width}"
        )
    grid_h = (tensor.height - window_h) // stride + 1
    grid_w = (tensor.width - window_w) // stride + 1
    patches = window_stack(tensor.data, window_h, window_w, stride)
    matrix = np.ascontiguousarray(patches).reshape(grid_h * grid_w, -1)
    return LocalFeatureSet(FeatureMatrix(matrix), grid_h, grid_w)

