"""Shared test helpers."""

import numpy as np
import pytest


@pytest.fixture
def anchors_of():
    """Anchors of a LocalFeatureSet extracted at ``stride``, derived from the
    row index: row k of a grid_h x grid_w set is the window at
    (k // grid_w * stride, k % grid_w * stride)."""

    def anchors(feats, stride):
        rows, cols = np.divmod(np.arange(feats.count), feats.grid_w)
        return np.stack([rows, cols], axis=1) * stride

    return anchors
