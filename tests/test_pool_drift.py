"""Drift of float32 cross-layer pooling against the float64 formula.

``cross_layer_pool`` computes in the common dtype of its two operands and
``power_normalize`` keeps float32 input float32.  Without PCA both
operands are float32 (layer t's local features and the rectified layer
t+1 units), so a part is pooled and square-rooted in float32; a PCA
projection is float64, so a PCA part still pools in float64, bit for bit
as the formula that casts both operands to float64 first.

The bound.  Let u = 2**-24, the unit roundoff of float32, and let a part
have m windows.  One entry of the pooled vector is P = sum_i x_i * a_i
with m nonnegative float32 terms.  Computed in float32 in any order, with
or without fused multiply-adds, each term passes through at most m
roundings, so the float32 sum is P * (1 + theta) with
|theta| <= gamma_m = m*u / (1 - m*u) (Higham, "Accuracy and Stability of
Numerical Algorithms", section 3.1; the terms are nonnegative, so the
bound is relative to P itself).  The square root halves a relative error:
|sqrt(1 + theta) - 1| <= gamma_m / 2 * (1 + gamma_m), and rounding it to
float32 adds one more u.  The reference ``float32(sqrt(float64 pool))``
is within u of sqrt(P), up to float64 terms of order m * 2**-53.  So each
entry of the float32 row is within

    (m/2 + 2) * u

of the reference, relative, to first order; the allowance of 2**-10 of
that covers the terms of order (m*u)**2 and m * 2**-53 while m stays in
the thousands.  An entry whose reference is zero must be zero.  This holds
while the products stay in float32's normal range: the drawn values keep
them there, and so do the images' activations.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import crosspool.pipeline
from crosspool.features import extract_local_features
from crosspool.multires import iter_parts
from crosspool.network import parse_network_file, run_network
from crosspool.pipeline import PipelineConfig, parse_manifest, run_pipeline
from crosspool.pooling import cross_layer_pool, unit_offset
from crosspool.postproc import PcaModel, pca_project, power_normalize
from crosspool.synth import generate
from crosspool.tensor import ActivationTensor, load_features, load_tensor, save_tensor

UNIT_ROUNDOFF = 2.0**-24


def drift_bound(windows):
    """Relative bound on a float32 part entry against the float64 formula."""
    return (windows / 2 + 2) * UNIT_ROUNDOFF * (1 + 2.0**-10)


def float64_pool(grid, layer_t1, offset, pca=None):
    """The float64 formula: both operands cast to float64 before the product."""
    gh, gw, dim = grid.shape
    matrix = grid.reshape(gh * gw, dim)
    if pca is not None:
        matrix = pca_project(pca, matrix)
    weights = layer_t1.data[offset : offset + gh, offset : offset + gw]
    weights = weights.reshape(-1, layer_t1.depth).astype(np.float64)
    return (weights.T @ matrix.astype(np.float64, copy=False)).ravel()


def assert_within_bound(got, grid, layer_t1, offset):
    """Entry by entry, a float32 part against ``float32(sqrt(float64 pool))``."""
    want = np.sqrt(float64_pool(grid, layer_t1, offset)).astype(np.float32)
    assert got.dtype == np.float32 and got.shape == want.shape
    windows = grid.shape[0] * grid.shape[1]
    error = np.abs(got.astype(np.float64) - want)
    assert np.all(error <= drift_bound(windows) * want), (
        f"largest relative drift {np.max(error / np.where(want > 0, want, 1)):.3g} "
        f"exceeds {drift_bound(windows):.3g} at {windows} windows"
    )


PARTS_NET = """\
input_depth = 16
seed = 7
conv out_depth=32 kernel=3x3 stride=1 pad=1
relu
conv out_depth=32 kernel=3x3 stride=1 pad=1
relu
"""


def test_parts_rows_within_bound(tmp_path):
    """8x8x16 images encoded as the whole image plus 2x2 blocks, 9216-d per
    part from 36 and 4 windows: every entry of every row is within the bound
    of the float64 formula on a full forward pass per part, with the layer
    t+1 unit over the first window at pad / stride.  Pooling that padded
    layer t+1 from ``unit_offset`` on stays within the bound too."""
    (tmp_path / "net.spec").write_text(PARTS_NET)
    rng = np.random.default_rng(23)
    lines = []
    for i in range(6):
        data = rng.uniform(0.0, 1.0, size=(8, 8, 16))
        data[:, :, 8 * (i % 2) : 8 * (i % 2) + 8] *= 1.5
        save_tensor(ActivationTensor(data), tmp_path / f"{i}.tens")
        lines.append(f"{i}.tens\t{('train', 'test')[i // 3]}\tc{i % 2}")
    (tmp_path / "manifest.tsv").write_text("\n".join(lines) + "\n")
    manifest = parse_manifest(tmp_path / "manifest.tsv")
    net = parse_network_file(tmp_path / "net.spec")
    config = PipelineConfig(
        network=str(tmp_path / "net.spec"), layer_pair=(1, 2), resolution="both",
        quantize=True, seed=1,
    )
    report = run_pipeline(config, manifest, tmp_path / "work", stages="representations")
    assert report["dims"]["representation_dim"] == 5 * 9216

    rep_dir = report["artifacts"]["representations"]
    conv = net.stages[2]
    offset = conv.pad // conv.stride
    windows = set()
    for split in ("train", "test"):
        rows = load_features(f"{rep_dir}/{split}.fmat").data
        for row, entry in zip(rows, manifest.split(split), strict=True):
            start = 0
            for _, _, part in iter_parts(load_tensor(entry.path), config.resolution):
                layer_t, _, layer_t1 = run_network(part, net)[1:]
                grid = extract_local_features(
                    layer_t, conv.kernel_h, conv.kernel_w, conv.stride
                )
                size = grid.shape[-1] * layer_t1.depth
                assert_within_bound(row[start : start + size], grid, layer_t1, offset)
                padded = cross_layer_pool(
                    grid, layer_t1, unit_offset(conv.pad, conv.stride)
                )
                assert_within_bound(power_normalize(padded), grid, layer_t1, offset)
                windows.add(grid.shape[0] * grid.shape[1])
                start += size
            assert start == row.size
    assert windows == {36, 4}


# zero, or far enough from both ends of float32 that every product is normal
ACTIVATIONS = st.one_of(st.just(0.0), st.floats(2.0**-20, 2.0**20, width=32))


@st.composite
def pool_cases(draw):
    """A float32 feature grid and a rectified float32 layer t+1 that holds
    its units from ``offset`` on inside a border of other units."""
    gh, gw = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    dim, depth = draw(st.integers(1, 12)), draw(st.integers(1, 6))
    offset = draw(st.integers(0, 2))
    height = offset + gh + draw(st.integers(0, 2))
    width = offset + gw + draw(st.integers(0, 2))
    grid = draw(arrays(np.float32, (gh, gw, dim), elements=ACTIVATIONS))
    units = draw(arrays(np.float32, (height, width, depth), elements=ACTIVATIONS))
    return grid, ActivationTensor(units, rectified=True), offset


@settings(deadline=None)
@given(case=pool_cases())
def test_float32_pool_within_bound(case):
    grid, layer_t1, offset = case
    pooled = cross_layer_pool(grid, layer_t1, offset)
    assert pooled.dtype == np.float32
    assert_within_bound(power_normalize(pooled), grid, layer_t1, offset)


def test_float64_operands_keep_the_float64_formula():
    """float64 features, or float32 features under a PCA model, pool in
    float64 and bit for bit as the formula, at every offset.  At 500 and
    more dimensions, leaving numpy to promote the float32 units inside the
    product changes the bits."""
    rng = np.random.default_rng(230)
    shapes = (
        (1, 1, 3, 2), (4, 5, 7, 3), (6, 6, 288, 32), (4, 5, 600, 3), (11, 9, 40, 17)
    )
    for gh, gw, dim, depth in shapes:
        for offset in (0, 1, 2):
            units = np.abs(rng.normal(size=(gh + 2 * offset, gw + 2 * offset, depth)))
            layer_t1 = ActivationTensor(units, rectified=True)
            grid = np.abs(rng.normal(size=(gh, gw, dim)))
            projected = min(dim, 500)
            pca = PcaModel(
                mean=rng.normal(size=dim),
                basis=np.linalg.qr(rng.normal(size=(dim, projected)))[0].T,
                eigenvalues=np.arange(projected, 0, -1),
            )
            for features, model in (
                (grid, None),
                (grid.astype(np.float32), pca),
                (grid, pca),
            ):
                got = cross_layer_pool(features, layer_t1, offset, pca=model)
                want = float64_pool(features, layer_t1, offset, pca=model)
                assert got.dtype == np.float64
                np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_pca_rows_keep_the_float64_formula(tmp_path, monkeypatch):
    """A PCA cross-layer config's rows are the float64 formula on a full
    forward pass per part, square-rooted in float64 and rounded to float32,
    bit for bit."""
    manifest_path, net_path = generate(tmp_path / "data", n_train=6, n_test=6, seed=23)
    manifest = parse_manifest(manifest_path)
    net = parse_network_file(net_path)
    config = PipelineConfig(network=net_path, pca_dim=8, resolution="both", seed=1)
    fitted = {}
    fit = crosspool.pipeline._fit_pca_models

    def recorded_fit(images, config):
        models, seconds = fit(images, config)
        fitted.update(models)
        return models, seconds

    monkeypatch.setattr(crosspool.pipeline, "_fit_pca_models", recorded_fit)
    report = run_pipeline(config, manifest, tmp_path / "work", stages="representations")
    assert fitted

    # synth's network: conv 1x1, relu (layer t), conv 3x3, relu (layer t+1)
    rep_dir = report["artifacts"]["representations"]
    conv = net.stages[2]
    offset = conv.pad // conv.stride
    for split in ("train", "test"):
        rows = load_features(f"{rep_dir}/{split}.fmat").data
        for row, entry in zip(rows, manifest.split(split), strict=True):
            chunks = []
            parts = iter_parts(load_tensor(entry.path), config.resolution)
            for _, resolution, part in parts:
                layer_t, _, layer_t1 = run_network(part, net)[1:]
                grid = extract_local_features(
                    layer_t, conv.kernel_h, conv.kernel_w, conv.stride
                )
                v = float64_pool(grid, layer_t1, offset, pca=fitted[resolution])
                chunks.append(np.sign(v) * np.sqrt(np.abs(v)))
            want = np.concatenate(chunks).astype(np.float32)
            np.testing.assert_array_equal(row.view(np.uint32), want.view(np.uint32))
