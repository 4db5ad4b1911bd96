"""The drift contract: the float32 forward pass and pooling against the
float64 formula.

Every per-image value is float32: the network's convolutions and the layer
t+1 product (``conv_product``, with the float32 weights the network holds),
the PCA projection (``pca_project`` with the float32 model), pooling
(``cross_layer_pool`` and the reference schemes) and ``power_normalize``.
The float64 forward pass, ``oracle_conv_product``, the float64 projection,
``float64_project``, and the float64 pooling formula, ``float64_pool``, are
kept here as the oracles.  Let u = 2**-24, the unit roundoff of float32,
and gamma_n = n*u / (1 - n*u) (Higham, "Accuracy and Stability of
Numerical Algorithms", section 3.1).

Pooling, from given float32 operands.  Let a part have m windows.  One
entry of the pooled vector is P = sum_i x_i * a_i with m nonnegative
float32 terms.  Computed in float32 in any order, with or without fused
multiply-adds, each term passes through at most m roundings, so the
float32 sum is P * (1 + theta) with |theta| <= gamma_m; the terms are
nonnegative, so the bound is relative to P itself.  The square root
halves a relative error: |sqrt(1 + theta) - 1| <= gamma_m / 2 *
(1 + gamma_m), and rounding it to float32 adds one more u.  The reference
``float32(sqrt(float64 pool))`` is within u of sqrt(P), up to float64
terms of order m * 2**-53.  So each entry of the float32 row is within

    (m/2 + 2) * u

of the reference, relative, to first order; the allowance of 2**-10 of
that covers the terms of order (m*u)**2 and m * 2**-53 while m stays in
the thousands.  An entry whose reference is zero must be zero.  This holds
while the products stay in float32's normal range: the drawn values keep
them there, and so do the images' activations.

Activations, a running bound.  The oracle carries, next to each float64
activation y, a magnitude A >= |y| and an error bound E on the float32
computation's distance from y.  The input tensor is float32 already:
A = |x|, E = 0.  A convolution with K = kernel_h * kernel_w * in_depth
computes y^ = fl(W x^ + b) with the float32 weights W and bias b, which
the oracle holds exactly, and |x^ - x| <= E.  The float32 inner product of
K terms plus the bias is within gamma_{K+1} (|W| |x^| + |b|) of its exact
value, in any summation order, and |x^| <= A + E:

    |y^ - y| <= |W| E + gamma_{K+1} (|W| (A + E) + |b|),
    A' = |W| A + |b|.

The same products of absolute values give both, so the bound is the
oracle's own computation on |W|, |b|, A and E.  A ReLU is 1-Lipschitz and
|max(y, 0)| <= A, so it passes A and E through, except that where
y < -E both y and y^ are negative and the error is 0; a max pool takes
the window maximum of each.  The layer t+1 product of the pipeline is the same
convolution over layer t's windows.  The float64 oracle's own rounding,
and the rounding of the bound's float64 arithmetic, are of order
K * 2**-53 * A, below 2**-29 of the gamma_{K+2} A term that every bound
holds; a factor ``SLACK`` = 1 + 2**-20 covers them.

Representation rows.  With the grid x^ within E_x of the oracle's x and
the units a^ within E_a of its a, over m windows, a cross-layer entry
P = sum_i x_i a_i satisfies

    |P^ - P| <= sum_i (|x_i| E_a + E_x a_i + E_x E_a)
                + gamma_m sum_i (|x_i| + E_x)(a_i + E_a) = delta.

A PCA part first projects z = (x - mean) B^T with the float32 model: the
float32 centering rounds each difference x^ - mean once, and the d-term
float32 product adds gamma_d, so |z^ - z| <= E_x |B| + gamma_{d+1}
(|x - mean| + E_x) |B|, and that takes the place of E_x.  Direct max
pooling moves by at most max_i E_x; direct sum pooling, whose float32
column sums are exactly the scheme's output, by sum_i E_x + gamma_m sum_i
(|x_i| + E_x).  Every scheme's entries then take one signed square root,
of the row.  Where |P| > delta no sign can change and |P^| >= |P| - delta,
so the signed square root moves by |P^ - P| / (sqrt(|P^|) + sqrt(|P|)) <=
delta / (sqrt(|P|) + sqrt(|P| - delta)); anywhere it moves by at most
sqrt(2 delta).  The float32 root adds u (|r| + bound), the row's only
rounding after pooling.  A quantized config quantizes each row where it
is encoded, so its codes are exactly ``sign_quantize`` of the rows that its
``quantize=False`` twin writes, and a code may differ from the oracle's
only where the oracle's entry is within its bound of zero.

Gram entries.  With |r^ - r| <= beta entrywise, a float Gram entry moves
by at most |beta_i| |r_j| + |r_i| |beta_j| + |beta_i| |beta_j|; a sign
Gram entry, whose terms are products of -1, 0 and 1, by at most twice the
number of entries of the two rows that may change their code.  The kernel
computes in float64 and ``gram.fmat`` holds float32, which adds
u |G| + gamma64_dim |r^_i| |r^_j|.  On the configs below, that bound is
under ``GRAM_FRACTION`` of the largest entry: 2**-10 for float rows, and
2**-5 for sign codes, whose bound counts every entry within its bound of
zero as a code that may change.  The Gram is checked against both.  Predictions have no bound: they, and criteria 7
and 8's metrics, must equal those of a run whose forward pass is the
float64 oracle rounded to float32, as the pipeline computed it before.
"""

import dataclasses
from typing import NamedTuple

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import crosspool.network
import crosspool.pipeline
from crosspool.features import extract_local_features
from crosspool.multires import iter_parts
from crosspool.network import (
    ConvLayerSpec,
    NetworkSpec,
    ReluStage,
    conv_product,
    parse_network_file,
    run_network,
    window_stack,
)
from crosspool.pipeline import PipelineConfig, parse_manifest, run_pipeline
from crosspool.pooling import cross_layer_pool, unit_offset
from crosspool.postproc import (
    PcaModel,
    load_sign_stack,
    power_normalize,
    sign_quantize,
    sign_unpack,
)
from crosspool.svm import load_svm, svm_predict
from crosspool.synth import generate
from crosspool.tensor import ActivationTensor, load_features, load_tensor, save_tensor

UNIT_ROUNDOFF = 2.0**-24
UNIT_ROUNDOFF64 = 2.0**-53
SLACK = 1 + 2.0**-20
GRAM_FRACTION = {False: 2.0**-10, True: 2.0**-5}


def gamma(n, unit=UNIT_ROUNDOFF):
    return n * unit / (1 - n * unit)


def drift_bound(windows):
    """Relative bound on a float32 part entry against the float64 formula."""
    return (windows / 2 + 2) * UNIT_ROUNDOFF * (1 + 2.0**-10)


def float64_project(pca, matrix):
    """The PCA projection in float64, with the model's float32 mean and
    basis, each exact in float64."""
    mean, basis = pca.mean.astype(np.float64), pca.basis.astype(np.float64)
    return (np.asarray(matrix, dtype=np.float64) - mean) @ basis.T


def float64_pool(grid, layer_t1, offset, pca=None):
    """The float64 formula: both operands, and the projection with the
    model's float32 mean and basis, in float64."""
    gh, gw, dim = grid.shape
    matrix = grid.reshape(gh * gw, dim).astype(np.float64)
    if pca is not None:
        matrix = float64_project(pca, matrix)
    weights = layer_t1[offset : offset + gh, offset : offset + gw]
    weights = weights.reshape(-1, layer_t1.shape[-1]).astype(np.float64)
    return (weights.T @ matrix).ravel()


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


# -- the float64 oracle and its running bound ------------------------------


class Bounded(NamedTuple):
    """A float64 oracle activation, a magnitude at least its absolute
    value, and the bound on the float32 computation's distance from it."""

    value: np.ndarray
    magnitude: np.ndarray
    error: np.ndarray


def exact_input(data):
    data = np.asarray(data, dtype=np.float64)
    return Bounded(data, np.abs(data), np.zeros_like(data))


def oracle_conv_product(windows, layer):
    """``conv_product`` in float64: float64 windows times the layer's
    float32 weights, plus its float32 bias, each exact in float64."""
    kernel = layer.weights.reshape(layer.out_depth, -1).astype(np.float64)
    cols = windows.reshape(-1, kernel.shape[1]).astype(np.float64)
    return (cols @ kernel.T + layer.bias).reshape(windows.shape[:-1] + (layer.out_depth,))


def bounded_product(windows, layer):
    """The oracle's product of bounded windows with the layer, and the
    running bound of the module docstring."""
    k = windows.value.shape[-1]
    abs_kernel = np.abs(layer.weights.reshape(layer.out_depth, k)).T
    abs_bias = np.abs(layer.bias)
    return Bounded(
        oracle_conv_product(windows.value, layer),
        windows.magnitude @ abs_kernel + abs_bias,
        windows.error @ abs_kernel
        + gamma(k + 1) * ((windows.magnitude + windows.error) @ abs_kernel + abs_bias),
    )


def bounded_windows(x, window_h, window_w, stride, pad=0):
    """The flattened (..., grid_h, grid_w, window_h*window_w*D) windows of
    each field, zero-padded by ``pad``, as ``extract_local_features`` cuts
    them."""

    def cut(a):
        a = np.pad(a, ((0, 0),) * (a.ndim - 3) + ((pad, pad), (pad, pad), (0, 0)))
        windows = np.ascontiguousarray(window_stack(a, window_h, window_w, stride))
        return windows.reshape(windows.shape[:-3] + (-1,))

    return Bounded(*map(cut, x))


def oracle_forward(data, stages):
    """Each stage's bounded output on one (H, W, D) part or a stack."""
    x, outputs = exact_input(data), []
    for stage in stages:
        if isinstance(stage, ConvLayerSpec):
            x = bounded_product(bounded_windows(
                x, stage.kernel_h, stage.kernel_w, stage.stride, stage.pad
            ), stage)
        elif isinstance(stage, ReluStage):
            x = Bounded(
                np.maximum(x.value, 0.0), x.magnitude, np.where(x.value < -x.error, 0.0, x.error)
            )
        else:
            x = Bounded(*(
                window_stack(a, stage.size, stage.size, stage.stride).max(axis=(-3, -2))
                for a in x
            ))
        outputs.append(x)
    return outputs


def assert_within(got, want, bound, what="entry"):
    """Entry by entry, ``got`` within ``bound`` (times ``SLACK``) of ``want``."""
    assert got.shape == want.shape
    error = np.abs(np.asarray(got, dtype=np.float64) - want)
    ratio = np.divide(error, bound, out=np.zeros_like(error), where=bound > 0)
    assert np.all(error <= bound * SLACK), (
        f"{what}: largest error {error.max():.3g}, {ratio.max():.3g} times its bound"
    )


def signed_sqrt(value, delta):
    """sign(v) sqrt(|v|) and its bound, for |v^ - v| <= delta."""
    root = np.sqrt(np.abs(value))
    far = np.abs(value) > delta
    nearest = np.sqrt(np.where(far, np.abs(value) - delta, 0.0))
    bound = np.where(far, delta / np.where(far, root + nearest, 1.0), np.sqrt(2 * delta))
    return np.sign(value) * root, bound


def pooled_with_bound(scheme, grid, units, pca):
    """One part's pooled vector from the oracle's bounded (grid_h, grid_w,
    dim) grid and units over the same windows, and its bound."""
    gh, gw, dim = grid.value.shape
    m = gh * gw
    x, ex = grid.value.reshape(m, dim), grid.error.reshape(m, dim)
    if scheme == "direct-max":
        return x.max(axis=0), ex.max(axis=0)
    if scheme == "direct-sum-sqrt":
        return x.sum(axis=0), ex.sum(axis=0) + gamma(m) * (np.abs(x) + ex).sum(axis=0)
    assert scheme == "cross-layer"
    if pca is not None:
        basis = np.abs(pca.basis.astype(np.float64)).T
        spread = (np.abs(x - pca.mean) + ex) @ basis
        x, ex = float64_project(pca, x), ex @ basis + gamma(dim + 1) * spread
    a, ea = units.value.reshape(m, -1), units.error.reshape(m, -1)
    ax = np.abs(x)
    delta = ea.T @ ax + a.T @ ex + ea.T @ ex + gamma(m) * ((a + ea).T @ (ax + ex))
    return (a.T @ x).ravel(), delta.ravel()


def oracle_row(path, net, config, t_index, t1_index, pca_models=None):
    """One image's representation row from the float64 oracle on a full
    forward pass per part, and the bound on each entry of the pipeline's
    float32 row: layer t+1 is the oracle's output at ``t1_index``, pooling
    starts at ``unit_offset(pad, stride)`` and each pooled entry takes one
    signed square root."""
    conv = net.stages[t1_index - 1]
    offset = unit_offset(conv.pad, conv.stride)
    rows, bounds = [], []
    for _, resolution, part in iter_parts(load_tensor(path), config.resolution):
        outputs = oracle_forward(part, net.stages[: t1_index + 1])
        grid = bounded_windows(outputs[t_index], conv.kernel_h, conv.kernel_w, conv.stride)
        gh, gw = grid.value.shape[:2]
        units = Bounded(*(a[offset : offset + gh, offset : offset + gw]
                          for a in outputs[t1_index]))
        pca = (pca_models or {}).get(resolution)
        row, bound = signed_sqrt(*pooled_with_bound(config.scheme, grid, units, pca))
        rows.append(row)
        bounds.append(bound + UNIT_ROUNDOFF * (np.abs(row) + bound))
    return np.concatenate(rows), np.concatenate(bounds)


def assert_rows_within_bound(report, manifest, net, config, t_index, t1_index,
                             pca_models=None):
    """Every entry of every row within its bound of the float64 oracle;
    returns, per split, the pipeline's rows, the oracle's and the bounds."""
    rep_dir = report["artifacts"]["representations"]
    found = {}
    for split in ("train", "test"):
        rows = load_features(f"{rep_dir}/{split}.fmat").data
        entries = manifest.split(split)
        assert len(rows) == len(entries)
        want, bound = (np.array(a) for a in zip(*(
            oracle_row(e.path, net, config, t_index, t1_index, pca_models) for e in entries
        )))
        assert_within(rows, want, bound, f"{split} rows")
        found[split] = rows, want, bound
    return found


def float_twin_rows(report, manifest, net, config, t_index, t1_index, workdir):
    """``assert_rows_within_bound`` on the rows of the config's
    ``quantize=False`` twin, run in ``workdir``, and the exact check that
    the quantized run's codes of each split are ``sign_quantize`` of them."""
    twin = run_pipeline(dataclasses.replace(config, quantize=False), manifest, workdir,
                        stages="representations")
    found = assert_rows_within_bound(twin, manifest, net, config, t_index, t1_index)
    for split, (rows, _, _) in found.items():
        path = f"{report['artifacts']['representations']}/{split}.signs"
        codes, dim = load_sign_stack(path)
        assert dim == rows.shape[1]
        np.testing.assert_array_equal(codes, sign_quantize(rows))
    return found


def float64_forward(monkeypatch):
    """Run the pipeline's products through the float64 oracle, rounded to
    float32 as the pipeline computed them before."""

    def product(windows, layer):
        return oracle_conv_product(windows, layer).astype(np.float32)

    monkeypatch.setattr(crosspool.network, "conv_product", product)
    monkeypatch.setattr(crosspool.pipeline, "conv_product", product)


def predictions(report):
    model = load_svm(f"{report['artifacts']['model']}/model.svm")
    rows = load_features(f"{report['artifacts']['kernel']}/rows.fmat").data
    return svm_predict(model, rows)[0]


# -- tests -----------------------------------------------------------------


PARTS_NET = """\
input_depth = 16
seed = 7
conv out_depth=32 kernel=3x3 stride=1 pad=1
relu
conv out_depth=32 kernel=3x3 stride=1 pad=1
relu
"""


def parts_dataset(root, count=6, seed=23):
    """8x8x16 images in two classes and the 16 -> 32 -> 32 network."""
    root.mkdir(parents=True, exist_ok=True)
    (root / "net.spec").write_text(PARTS_NET)
    rng = np.random.default_rng(seed)
    lines = []
    for i in range(count):
        data = rng.uniform(0.0, 1.0, size=(8, 8, 16))
        data[:, :, 8 * (i % 2) : 8 * (i % 2) + 8] *= 1.5
        save_tensor(ActivationTensor(data), root / f"{i}.tens")
        lines.append(f"{i}.tens\t{('train', 'test')[2 * i // count]}\tc{i % 2}")
    (root / "manifest.tsv").write_text("\n".join(lines) + "\n")
    return parse_manifest(root / "manifest.tsv"), str(root / "net.spec")


ACTIVATION_NETS = {
    "parts": (16, [
        ConvLayerSpec(3, 3, 16, 32, pad=1), ReluStage(),
        ConvLayerSpec(3, 3, 32, 32, pad=1), ReluStage(),
    ]),
    "strided-with-bias": (4, [
        ConvLayerSpec(3, 3, 4, 6, pad=1, bias=np.linspace(-0.3, 0.3, 6)), ReluStage(),
        ConvLayerSpec(3, 3, 6, 5, stride=2, pad=2, bias=np.linspace(0.2, -0.2, 5)),
        ReluStage(),
    ]),
    "unpadded-3x2": (3, [
        ConvLayerSpec(2, 2, 3, 24, stride=1, pad=0, bias=np.full(24, -0.1)), ReluStage(),
        ConvLayerSpec(3, 2, 24, 7, pad=0), ReluStage(),
    ]),
}


@pytest.mark.parametrize("stack", [1, 3, 17])
@pytest.mark.parametrize("name", sorted(ACTIVATION_NETS))
def test_activations_within_running_bound(name, stack):
    """Layer t from ``run_network`` on a stack, and layer t+1 as the
    pipeline computes it (the ReLU of ``conv_product`` over layer t's
    windows), are float32 and within the running bound of the float64
    oracle's full forward pass, image by image, at any stack size."""
    depth, stages = ACTIVATION_NETS[name]
    net = NetworkSpec(stages, seed=5)
    conv = net.stages[2]
    rng = np.random.default_rng(stack)
    data = rng.uniform(-0.5, 1.0, size=(stack, 9, 9, depth)).astype(np.float32)
    layer_t = run_network(ActivationTensor(data), NetworkSpec(net.stages[:2]))[-1]
    grids = extract_local_features(layer_t, conv.kernel_h, conv.kernel_w, conv.stride)
    units = np.maximum(conv_product(grids, conv), 0.0)
    assert layer_t.data.dtype == units.dtype == np.float32
    offset = unit_offset(conv.pad, conv.stride)
    gh, gw = grids.shape[1:3]
    for n in range(stack):
        oracle = oracle_forward(data[n], net.stages)
        assert_within(layer_t.data[n], oracle[1].value, oracle[1].error, "layer t")
        t1 = Bounded(*(a[offset : offset + gh, offset : offset + gw] for a in oracle[3]))
        assert_within(units[n], t1.value, t1.error, "layer t+1")


def test_parts_rows_within_bound(tmp_path):
    """8x8x16 images encoded as the whole image plus 2x2 blocks, 9216-d per
    part from 36 and 4 windows: every entry of every row is within the
    bound that the running activation bound gives on the float64 oracle's
    full forward pass per part, with the layer t+1 unit over the first
    window at pad / stride; the quantized config's codes are exactly those
    of its float twin's rows.  Pooling that padded float32 layer t+1 from
    ``unit_offset`` on stays within the pooling bound of its own float64
    formula too."""
    manifest, net_path = parts_dataset(tmp_path / "data")
    net = parse_network_file(net_path)
    config = PipelineConfig(
        network=net_path, layer_pair=(1, 2), resolution="both", quantize=True, seed=1,
    )
    report = run_pipeline(config, manifest, tmp_path / "work", stages="representations")
    assert report["dims"]["representation_dim"] == 5 * 9216
    float_twin_rows(report, manifest, net, config, 1, 3, tmp_path / "work")

    conv = net.stages[2]
    windows = set()
    for entry in manifest.entries:
        for _, _, part in iter_parts(load_tensor(entry.path), config.resolution):
            layer_t, _, layer_t1 = run_network(ActivationTensor(part), net)[1:]
            grid = extract_local_features(layer_t, conv.kernel_h, conv.kernel_w, conv.stride)
            offset = unit_offset(conv.pad, conv.stride)
            padded = cross_layer_pool(grid, layer_t1.data, offset)
            assert_within_bound(power_normalize(padded), grid, layer_t1.data, offset)
            windows.add(grid.shape[0] * grid.shape[1])
    assert windows == {36, 4}


def record_pca_models(monkeypatch):
    """The PCA models the representation stage loads from the PCA stage,
    by resolution, recorded as it loads them."""
    fitted = {}
    load = crosspool.pipeline.load_pca

    def recorded_load(path):
        model = load(path)
        fitted[os.path.basename(path)[len("pca_"):-len(".pca")]] = model
        return model

    monkeypatch.setattr(crosspool.pipeline, "load_pca", recorded_load)
    return fitted


def gram_bound(train, quantized):
    """The bound of the module docstring on each Gram entry, from the
    pipeline's rows, the oracle's rows and their bounds."""
    rows, want, bound = train
    dim = rows.shape[1]
    if quantized:
        unsure = (np.abs(want) <= bound * SLACK).sum(axis=1, where=bound > 0)
        moved = 2.0 * (unsure[:, None] + unsure[None, :])
        gram = np.sign(want) @ np.sign(want).T
    else:
        a = np.abs(want)
        moved = bound @ a.T + a @ bound.T + bound @ bound.T
        got = np.abs(rows.astype(np.float64))
        moved += gamma(dim, UNIT_ROUNDOFF64) * (got @ got.T)
        gram = want @ want.T
    return gram, moved + UNIT_ROUNDOFF * np.abs(gram)


@pytest.mark.parametrize("case", ["pca", "quantized-parts", "sum-sqrt"])
def test_rows_gram_and_predictions_against_the_float64_forward(tmp_path, monkeypatch, case):
    """A PCA config, a quantized whole+blocks config and a direct sum-sqrt
    config: every row entry is within its bound of the oracle, given the
    stage's own PCA models (the quantized config's rows are its float
    twin's, and its codes are exactly theirs); every sign code equals the
    oracle's where the oracle's entry is farther than its bound from zero;
    each Gram entry is within its bound of the oracle rows' Gram, and that
    bound is under ``GRAM_FRACTION`` of the largest entry; and predictions
    and metrics equal those of a run whose forward pass is the float64
    oracle."""
    if case == "quantized-parts":
        manifest, net_path = parts_dataset(tmp_path / "data", count=16)
        config = PipelineConfig(
            network=net_path, resolution="both", quantize=True, seed=1,
        )
    else:
        manifest_path, net_path = generate(tmp_path / "data", n_train=12, n_test=12, seed=5)
        manifest = parse_manifest(manifest_path)
        scheme = {"pca": dict(pca_dim=8), "sum-sqrt": dict(scheme="direct-sum-sqrt")}[case]
        config = PipelineConfig(network=net_path, resolution="both", seed=1, **scheme)
    fitted = record_pca_models(monkeypatch)
    report = run_pipeline(config, manifest, tmp_path / "float32")
    assert bool(fitted) == (case == "pca")
    net = parse_network_file(net_path)
    if not config.quantize:
        found = assert_rows_within_bound(report, manifest, net, config, 1, 3, fitted)
    else:
        found = float_twin_rows(report, manifest, net, config, 1, 3, tmp_path / "float32")
        for split, (_, want, bound) in found.items():
            codes, dim = load_sign_stack(
                f"{report['artifacts']['representations']}/{split}.signs"
            )
            sure = (np.abs(want) > bound * SLACK) | (bound == 0)
            assert sure.mean() > 0.99
            signs = sign_unpack(codes)[:, :dim]
            np.testing.assert_array_equal(signs[sure], np.sign(want[sure]))

    gram = load_features(f"{report['artifacts']['kernel']}/gram.fmat").data
    want, bound = gram_bound(found["train"], config.quantize)
    assert_within(gram, want, bound, "Gram")
    assert bound.max() <= GRAM_FRACTION[config.quantize] * np.abs(want).max()

    float64_forward(monkeypatch)
    oracle_report = run_pipeline(config, manifest, tmp_path / "float64")
    assert predictions(report) == predictions(oracle_report)
    assert report["metrics"] == oracle_report["metrics"]


def test_criteria_7_and_8_metrics_match_the_float64_forward(tmp_path, monkeypatch):
    """Criteria 7 and 8's five configs on their 300/300 set report the
    same metrics with the float32 forward pass as with the float64 oracle."""
    manifest_path, net_path = generate(tmp_path / "data", n_train=300, n_test=300, seed=7)
    manifest = parse_manifest(manifest_path)
    configs = [
        PipelineConfig(network=net_path, pca_dim=20, seed=7),
        PipelineConfig(network=net_path, pca_dim=20, seed=7, quantize=True),
        PipelineConfig(network=net_path, scheme="direct-max", seed=7),
        PipelineConfig(network=net_path, scheme="direct-sum-sqrt", seed=7),
    ]
    float32 = [run_pipeline(c, manifest, tmp_path / "float32")["metrics"] for c in configs]
    float64_forward(monkeypatch)
    float64 = [run_pipeline(c, manifest, tmp_path / "float64")["metrics"] for c in configs]
    assert float32 == float64


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
    return grid, units, offset


@settings(deadline=None)
@given(case=pool_cases())
def test_float32_pool_within_bound(case):
    grid, layer_t1, offset = case
    pooled = cross_layer_pool(grid, layer_t1, offset)
    assert pooled.dtype == np.float32
    assert_within_bound(power_normalize(pooled), grid, layer_t1, offset)


def test_float64_and_pca_operands_pool_within_bound():
    """float64 features, float32 features under a PCA model, and float64
    features under one pool in float32, within delta of the module
    docstring of the float64 formula, at every offset.  The units are
    float32 and exact.  float64 features are rounded to float32 inside the
    product, so without PCA they enter with E_x = u |x|; under PCA they
    enter with E_x = 0, and the float64 centering and projection, rounded
    once to float32, stay inside the float32 projection's bound."""
    rng = np.random.default_rng(230)
    shapes = (
        (1, 1, 3, 2), (4, 5, 7, 3), (6, 6, 288, 32), (4, 5, 600, 3), (11, 9, 40, 17)
    )
    for gh, gw, dim, depth in shapes:
        for offset in (0, 1, 2):
            units = np.abs(rng.normal(size=(gh + 2 * offset, gw + 2 * offset, depth)))
            layer_t1 = units.astype(np.float32)
            window_units = exact_input(layer_t1[offset : offset + gh, offset : offset + gw])
            grid = np.abs(rng.normal(size=(gh, gw, dim)))
            projected = min(dim, 500)
            pca = PcaModel(
                mean=rng.normal(size=dim),
                basis=np.linalg.qr(rng.normal(size=(dim, projected)))[0].T,
                eigenvalues=np.arange(projected, 0, -1),
            )
            rounded = Bounded(grid, grid, UNIT_ROUNDOFF * grid)
            for features, model, operand in (
                (grid, None, rounded),
                (grid.astype(np.float32), pca, exact_input(grid.astype(np.float32))),
                (grid, pca, exact_input(grid)),
            ):
                got = cross_layer_pool(features, layer_t1, offset, pca=model)
                want, delta = pooled_with_bound("cross-layer", operand, window_units, model)
                assert got.dtype == np.float32
                np.testing.assert_array_equal(
                    want, float64_pool(features, layer_t1, offset, pca=model)
                )
                assert_within(got, want, delta, f"{gh}x{gw}x{dim} at offset {offset}")


def test_pca_rows_within_bound_of_their_own_operands(tmp_path, monkeypatch):
    """A PCA cross-layer config's rows, float32 from the projection on, are
    within the module docstring's bound (float32 projection, pooling,
    signed square root and the row's rounding) of the float64 formula on
    the stage's own feature grids, layer t+1 units and models, which enter
    exact."""
    manifest_path, net_path = generate(tmp_path / "data", n_train=6, n_test=6, seed=23)
    manifest = parse_manifest(manifest_path)
    config = PipelineConfig(network=net_path, pca_dim=8, resolution="both", seed=1)
    fitted = record_pca_models(monkeypatch)
    pooled = []
    pool = crosspool.pipeline.cross_layer_pool

    def recorded_pool(grid, layer_t1, offset, pca=None, out=None):
        pooled.append((grid, layer_t1, offset, pca))
        return pool(grid, layer_t1, offset, pca=pca, out=out)

    monkeypatch.setattr(crosspool.pipeline, "cross_layer_pool", recorded_pool)
    report = run_pipeline(config, manifest, tmp_path / "work", stages="representations")
    assert fitted and {id(pca) for *_, pca in pooled} == {id(m) for m in fitted.values()}

    rep_dir = report["artifacts"]["representations"]
    calls = iter(pooled)
    for split in ("train", "test"):
        for row in load_features(f"{rep_dir}/{split}.fmat").data:
            chunks, bounds = [], []
            for _ in report["dims"]["parts"]:
                grid, layer_t1, offset, pca = next(calls)
                gh, gw = grid.shape[:2]
                units = exact_input(layer_t1[offset : offset + gh, offset : offset + gw])
                value, delta = pooled_with_bound("cross-layer", exact_input(grid), units, pca)
                value, bound = signed_sqrt(value, delta)
                chunks.append(value)
                bounds.append(bound + UNIT_ROUNDOFF * (np.abs(value) + bound))
            assert_within(row, np.concatenate(chunks), np.concatenate(bounds), "PCA row")
    assert next(calls, None) is None
