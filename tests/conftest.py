"""Shared test helpers."""

import numpy as np
import pytest


@pytest.fixture
def anchors_of():
    """Anchors of a (grid_h, grid_w, dim) feature grid extracted at
    ``stride``, in row-major order: entry (i, j) is the window at
    (i * stride, j * stride)."""

    def anchors(grid, stride):
        grid_h, grid_w = grid.shape[:2]
        rows, cols = np.divmod(np.arange(grid_h * grid_w), grid_w)
        return np.stack([rows, cols], axis=1) * stride

    return anchors
