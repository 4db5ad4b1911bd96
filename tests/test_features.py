"""Sliding-window extraction tests, and the window-to-unit correspondence
that cross-layer pooling applies.

The correspondence is read back from ``cross_layer_pool`` with a coordinate
probe and validated with matched-filter probes: plant a patch at a known
anchor, convolve with that patch as the kernel, and the unit paired with
that anchor's window must be the response peak.  The conditions under
which the correspondence exists (window = next kernel, same stride, stride
dividing the padding) are checked where the pipeline enforces them.
"""

import numpy as np
import pytest

from crosspool import pipeline
from crosspool.errors import GeometryError, ValidationError
from crosspool.features import extract_local_features
from crosspool.network import ConvLayerSpec, conv_forward
from crosspool.pipeline import PipelineConfig, parse_manifest, run_pipeline
from crosspool.pooling import cross_layer_pool
from crosspool.synth import generate
from crosspool.tensor import ActivationTensor


def extraction_oracle(data, wh, ww, stride):
    """Nested-loop reference for the (row, col, channel) descriptor order."""
    h, w, d = data.shape
    rows = []
    anchors = []
    for r in range(0, h - wh + 1, stride):
        for c in range(0, w - ww + 1, stride):
            vec = []
            for i in range(wh):
                for j in range(ww):
                    for k in range(d):
                        vec.append(data[r + i, c + j, k])
            rows.append(vec)
            anchors.append((r, c))
    return np.array(rows, dtype=np.float64), np.array(anchors)


def test_feature_count_13x13():
    t = ActivationTensor(np.zeros((13, 13, 4), dtype=np.float32))
    grid = extract_local_features(t, 3, 3, 1)
    assert grid.shape == (11, 11, 36)
    assert grid.dtype == np.float32 and grid.flags.c_contiguous


@pytest.mark.parametrize("stride", [1, 2, 3])
def test_extraction_matches_loop_oracle(stride, anchors_of):
    rng = np.random.default_rng(40 + stride)
    data = rng.normal(size=(8, 10, 3)).astype(np.float32)
    grid = extract_local_features(ActivationTensor(data), 3, 2, stride)
    expect, anchors = extraction_oracle(data, 3, 2, stride)
    rows = grid.reshape(-1, grid.shape[-1])
    assert rows.shape == expect.shape
    np.testing.assert_array_equal(rows, expect.astype(np.float32))
    np.testing.assert_array_equal(anchors_of(grid, stride), anchors)


def test_descriptor_entry_indexing():
    """Entry (i*ww + j)*D + k holds channel k at window offset (i, j)."""
    h, w, d = 5, 5, 3
    data = np.arange(h * w * d, dtype=np.float32).reshape(h, w, d)
    grid = extract_local_features(ActivationTensor(data), 2, 2, 1)
    r, c = 1, 2
    for i in range(2):
        for j in range(2):
            for k in range(d):
                entry = (i * 2 + j) * d + k
                assert grid[r, c, entry] == data[r + i, c + j, k]


def test_anchor_grid_row_major(anchors_of):
    t = ActivationTensor(np.zeros((7, 9, 1), dtype=np.float32))
    grid = extract_local_features(t, 3, 3, 2)
    assert grid.shape[:2] == (3, 4)
    anchors = anchors_of(grid, 2)
    np.testing.assert_array_equal(anchors[0], [0, 0])
    np.testing.assert_array_equal(anchors[1], [0, 2])
    np.testing.assert_array_equal(anchors[4], [2, 0])
    np.testing.assert_array_equal(anchors[-1], [4, 6])
    # and each anchored window is the descriptor in that row
    data = np.arange(7 * 9, dtype=np.float32).reshape(7, 9, 1)
    grid = extract_local_features(ActivationTensor(data), 3, 3, 2)
    for row, (r, c) in zip(grid.reshape(-1, grid.shape[-1]), anchors):
        np.testing.assert_array_equal(row, data[r : r + 3, c : c + 3].ravel())


def test_window_larger_than_tensor():
    t = ActivationTensor(np.zeros((4, 4, 1), dtype=np.float32))
    with pytest.raises(GeometryError):
        extract_local_features(t, 5, 3, 1)


def test_bad_stride():
    t = ActivationTensor(np.zeros((4, 4, 1), dtype=np.float32))
    with pytest.raises(ValidationError):
        extract_local_features(t, 2, 2, 0)


@pytest.mark.parametrize("case", range(24))
def test_stack_extraction_matches_each_image(case):
    """One call on an (N, H, W, D) stack gives, for each n, bitwise the grid
    of image n's own call."""
    rng = np.random.default_rng(300 + case)
    wh, ww = (int(v) for v in rng.integers(1, 4, size=2))
    h, w = int(rng.integers(wh, 9)), int(rng.integers(ww, 9))
    d, n, stride = int(rng.integers(1, 6)), int(rng.integers(1, 5)), int(rng.integers(1, 4))
    stack = rng.normal(size=(n, h, w, d)).astype(np.float32)
    grids = extract_local_features(ActivationTensor(stack), wh, ww, stride)
    grid_h, grid_w = (h - wh) // stride + 1, (w - ww) // stride + 1
    assert grids.shape == (n, grid_h, grid_w, wh * ww * d)
    assert grids.dtype == np.float32 and grids.flags.c_contiguous
    for i in range(n):
        single = extract_local_features(ActivationTensor(stack[i]), wh, ww, stride)
        assert grids[i].tobytes() == single.tobytes()


def next_spec(wh, ww, in_depth, out_depth, stride, pad, weights=None):
    if weights is None:
        weights = np.zeros((out_depth, wh, ww, in_depth))
    return ConvLayerSpec(
        kernel_h=wh, kernel_w=ww, in_depth=in_depth, out_depth=out_depth,
        stride=stride, pad=pad, weights=weights,
    )


def paired_units(grid, next_dims, offset):
    """(count, 2) layer t+1 units that cross_layer_pool pairs with each
    feature of a grid, in row-major order: identity features pooled against
    a layer whose two channels hold each unit's row and column."""
    rows, cols = np.meshgrid(*(np.arange(n) for n in next_dims), indexing="ij")
    coords = np.stack([rows, cols], axis=2).astype(np.float32)
    grid_h, grid_w = grid.shape[:2]
    count = grid_h * grid_w
    probe = np.eye(count).reshape(grid_h, grid_w, count)
    pooled = cross_layer_pool(probe, coords, offset)
    return pooled.reshape(2, count).T.astype(np.int64)


def test_correspondence_shift_stride1_pad1(anchors_of):
    t = ActivationTensor(np.zeros((10, 10, 2), dtype=np.float32))
    grid = extract_local_features(t, 3, 3, 1)
    spec = next_spec(3, 3, 2, 1, stride=1, pad=1)
    pairs = paired_units(grid, spec.output_dims(10, 10), 1)
    np.testing.assert_array_equal(pairs, anchors_of(grid, 1) + 1)


def test_correspondence_stride2_pad0(anchors_of):
    t = ActivationTensor(np.zeros((12, 12, 1), dtype=np.float32))
    grid = extract_local_features(t, 3, 3, 2)
    spec = next_spec(3, 3, 1, 1, stride=2, pad=0)
    pairs = paired_units(grid, spec.output_dims(12, 12), 0)
    where = np.flatnonzero((anchors_of(grid, 2) == [4, 6]).all(axis=1))
    assert where.size == 1
    np.testing.assert_array_equal(pairs[where[0]], [2, 3])


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    manifest_path, net_path = generate(root, n_train=2, n_test=2, seed=12)
    return parse_manifest(manifest_path), net_path


def test_correspondence_divisibility(dataset, tmp_path, monkeypatch):
    """Pad 1 at stride 2 puts anchor row 0 at unit 1/2: the pipeline rejects
    it before any forward pass."""
    manifest, _ = dataset
    net_path = tmp_path / "net.spec"
    net_path.write_text(
        "input_depth = 6\nseed = 3\n"
        "conv out_depth=4 kernel=1x1 stride=1 pad=0\nrelu\n"
        "conv out_depth=3 kernel=2x2 stride=2 pad=1\nrelu\n"
    )

    def no_forward(*args):
        raise AssertionError("forward pass ran before the geometry check")

    monkeypatch.setattr(pipeline, "run_network", no_forward)
    with pytest.raises(GeometryError):
        run_pipeline(PipelineConfig(network=str(net_path)), manifest, tmp_path / "work")
    # pad 2 aligns with stride 2, so the same run reaches the forward pass
    net_path.write_text(net_path.read_text().replace("pad=1", "pad=2"))
    with pytest.raises(AssertionError, match="forward pass ran"):
        run_pipeline(PipelineConfig(network=str(net_path)), manifest, tmp_path / "work")


def test_correspondence_bounds():
    t = ActivationTensor(np.zeros((8, 8, 1), dtype=np.float32))
    grid = extract_local_features(t, 3, 3, 1)
    with pytest.raises(GeometryError):
        paired_units(grid, (3, 3), 0)


@pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 0), (2, 2)])
def test_matched_filter_probe(stride, pad, anchors_of):
    """The mapped unit is where the next conv sees the planted patch."""
    rng = np.random.default_rng(60 + stride + pad)
    h = w = 11
    patch = rng.normal(size=(3, 3, 2))
    data = rng.normal(size=(h, w, 2)).astype(np.float32) * 0.01
    anchor = (4, 6)
    data[anchor[0] : anchor[0] + 3, anchor[1] : anchor[1] + 3, :] = patch
    t = ActivationTensor(data)
    grid = extract_local_features(t, 3, 3, stride)
    spec = next_spec(3, 3, 2, 1, stride=stride, pad=pad,
                     weights=patch[np.newaxis, ...])
    dims = spec.output_dims(h, w)
    pairs = paired_units(grid, dims, pad // stride)
    response = conv_forward(t, spec)
    peak = np.unravel_index(np.argmax(response.data[:, :, 0]), dims)
    index = np.flatnonzero((anchors_of(grid, stride) == anchor).all(axis=1))
    assert index.size == 1
    np.testing.assert_array_equal(pairs[index[0]], peak)


def test_perturbation_locality(anchors_of):
    """Changing one window only moves next-layer units near its mapped unit."""
    rng = np.random.default_rng(77)
    data = rng.normal(size=(12, 12, 2)).astype(np.float32)
    weights = rng.normal(size=(3, 3, 3, 2))
    spec = ConvLayerSpec(
        kernel_h=3, kernel_w=3, in_depth=2, out_depth=3,
        stride=1, pad=1, weights=weights,
    )
    base = conv_forward(ActivationTensor(data), spec)
    grid = extract_local_features(ActivationTensor(data), 3, 3, 1)
    pairs = paired_units(grid, spec.output_dims(12, 12), 1)

    index = 47
    anchor = anchors_of(grid, 1)[index]
    bumped = data.copy()
    bumped[anchor[0] : anchor[0] + 3, anchor[1] : anchor[1] + 3, :] += 1.0
    after = conv_forward(ActivationTensor(bumped), spec)

    changed = np.argwhere(np.any(after.data != base.data, axis=2))
    center = pairs[index]
    radius = np.abs(changed - center).max(axis=1)
    assert changed.size > 0
    # a 3x3 kernel can feel the window from at most 2 units away
    assert radius.max() <= 2
