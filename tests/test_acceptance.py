"""Acceptance suite: ten numbered criteria, one test (and one pass/fail
line under ``pytest -v``) per criterion.

Criteria 7 and 8 run on the synthetic co-occurrence dataset from
``crosspool.synth``: each image scatters isolated pattern spikes
(channels 0-2) over a grid, and the class determines which context
channel (3-5) co-fires at the same site. First-layer local features see
the patterns, the second layer's context detectors light up over the
same sites, so the pattern/context co-occurrence lives exactly in the
cross-layer product and not in any per-channel max or sum statistic.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import crosspool
from crosspool.features import extract_local_features
from crosspool.network import ConvLayerSpec, conv_forward, relu_forward
from crosspool.pipeline import PipelineConfig, parse_manifest, run_pipeline
from crosspool.pooling import cross_layer_pool
from crosspool.postproc import pca_fit, pca_project, sign_quantize, sign_unpack
from crosspool.svm import kernels, svm_predict, svm_train
from crosspool.synth import generate
from crosspool.tensor import ActivationTensor
from crosspool.multires import ResolutionConfig, partition_blocks
from crosspool.network import NetworkSpec, ReluStage, run_network


@pytest.fixture(scope="module")
def synth300(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept")
    manifest_path, net_path = generate(root, n_train=300, n_test=300, seed=7)
    workdir = tmp_path_factory.mktemp("acceptwork")
    return parse_manifest(manifest_path), str(net_path), workdir


def report_line(n, text):
    print(f"criterion {n}: {text}")


def test_criterion_01_extraction_count():
    """121 local features of dimension 9*D from a 13x13 map, 3x3 window."""
    start = time.perf_counter()
    for depth in (4, 256):
        rng = np.random.default_rng(depth)
        t = ActivationTensor(rng.random((13, 13, depth)).astype(np.float32))
        grid = extract_local_features(t, 3, 3, 1)
        assert grid.shape == (11, 11, 9 * depth)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report_line(1, "121 features of dim 9*D from 13x13, 3x3 window, stride 1")


def test_criterion_02_multiresolution_unit_count():
    """A 2x2 block split with 13x13 units per block totals 676 units."""
    start = time.perf_counter()
    image = ActivationTensor(
        np.random.default_rng(2).random((26, 26, 3)).astype(np.float32)
    )
    net = NetworkSpec(
        stages=[
            ConvLayerSpec(kernel_h=1, kernel_w=1, in_depth=3, out_depth=4),
            ReluStage(),
        ],
        seed=0,
    )
    total = 0
    for _, block in partition_blocks(image, ResolutionConfig(blocks_m=2, blocks_n=2)):
        out = run_network(block, net)[-1]
        assert (out.height, out.width) == (13, 13)
        total += out.height * out.width
    assert total == 676
    assert time.perf_counter() - start < 1.0
    report_line(2, "2x2 blocks of 13x13 spatial units come to 26x26 = 676")


def test_criterion_03_representation_dimension():
    """Pooled dim is pca_dim * channels: 500*256 = 128000; computed at 20*8."""
    start = time.perf_counter()
    assert 500 * 256 == 128000

    rng = np.random.default_rng(3)
    t = ActivationTensor(rng.random((7, 7, 4)).astype(np.float32), rectified=True)
    spec = ConvLayerSpec(
        kernel_h=3, kernel_w=3, in_depth=4, out_depth=8,
        weights=rng.normal(size=(8, 3, 3, 4)),
    )
    t1 = relu_forward(conv_forward(t, spec))
    grid = extract_local_features(t, 3, 3, 1)
    pca = pca_fit(grid.reshape(-1, grid.shape[-1]), 20)
    pooled = cross_layer_pool(grid, t1, 0, pca=pca)
    assert pooled.shape == (160,)
    assert time.perf_counter() - start < 1.0
    report_line(3, "128000 = 500*256 asserted; d=20, K=8 pools to 160 dims")


def test_criterion_04_cross_layer_oracle_equivalence():
    """200 random instances agree with the naive triple loop within 1e-6."""
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    geometries = set()
    for trial in range(200):
        wh = int(rng.integers(1, 4))
        ww = int(rng.integers(1, 4))
        max_depth = max(1, 24 // (wh * ww))
        depth = int(rng.integers(1, min(max_depth, 3) + 1))
        assert wh * ww * depth <= 24
        h = wh + int(rng.integers(1, 7))
        w = ww + int(rng.integers(1, 7))
        channels = int(rng.integers(1, 9))
        stride = int(rng.integers(1, 3))
        pad = stride * int(rng.integers(0, 2))
        geometries.add((stride, pad))

        data = rng.random((h, w, depth)).astype(np.float32)
        t = ActivationTensor(data, rectified=True)
        spec = ConvLayerSpec(
            kernel_h=wh, kernel_w=ww, in_depth=depth, out_depth=channels,
            stride=stride, pad=pad,
            weights=rng.normal(size=(channels, wh, ww, depth)),
        )
        t1 = relu_forward(conv_forward(t, spec))
        grid = extract_local_features(t, wh, ww, stride)
        assert grid.shape[0] * grid.shape[1] <= 50
        pooled = cross_layer_pool(grid, t1, pad // stride)

        # The oracle walks the windows itself and pairs the window anchored
        # at (r, c) with the unit whose receptive field starts there.
        dim = wh * ww * depth
        expect = np.zeros(dim * channels)
        for r in range(0, h - wh + 1, stride):
            for c in range(0, w - ww + 1, stride):
                desc = np.zeros(dim)
                pos = 0
                for i in range(wh):
                    for j in range(ww):
                        for k in range(depth):
                            desc[pos] = data[r + i, c + j, k]
                            pos += 1
                ur, uc = (r + pad) // stride, (c + pad) // stride
                for ch in range(channels):
                    expect[ch * dim : (ch + 1) * dim] += desc * float(t1.data[ur, uc, ch])
        np.testing.assert_allclose(pooled, expect, rtol=1e-6, atol=1e-9)
    assert geometries == {(1, 0), (1, 1), (2, 0), (2, 2)}
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report_line(4, f"200 instances match the triple loop (in {elapsed:.2f}s)")


def test_criterion_05_pca_against_bruteforce():
    """Projected variances match np.cov eigenvalues within 1e-4; error shrinks."""
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    data = rng.normal(size=(200, 20)) @ rng.normal(size=(20, 20))

    cov = np.cov(data, rowvar=False, ddof=1)
    oracle_vals = np.sort(np.real(np.linalg.eig(cov)[0]))[::-1]

    errors = []
    for dim in (2, 5, 10, 20):
        model = pca_fit(data, dim)
        projected = pca_project(model, data)
        variances = projected.var(axis=0, ddof=1)
        np.testing.assert_allclose(variances, oracle_vals[:dim], rtol=1e-4)
        rebuilt = projected @ model.basis + model.mean
        errors.append(float(np.mean((rebuilt - data) ** 2)))
    assert all(a >= b - 1e-10 for a, b in zip(errors, errors[1:]))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report_line(5, "PCA variances match brute force; reconstruction error shrinks")


def test_criterion_06_quantization_round_trip():
    """unpack(pack(v)) recovers sign(v) on 1000 vectors; size is ceil(dim/4)."""
    start = time.perf_counter()
    rng = np.random.default_rng(6)
    dims = rng.integers(1, 80, size=1000)
    for dim in np.unique(dims):
        v = rng.normal(size=(int(np.sum(dims == dim)), dim))
        v[rng.random(v.shape) < 0.25] = 0.0
        packed = sign_quantize(v)
        assert packed.shape == (v.shape[0], (dim + 3) // 4)
        np.testing.assert_array_equal(sign_unpack(packed)[:, :dim], np.sign(v))
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report_line(6, "1000 sign round-trips exact at 2 bits per dimension")


def test_criterion_07_quantization_degradation(synth300):
    """Quantized accuracy within 5 points of >= 95% full-precision accuracy."""
    manifest, net_path, workdir = synth300
    start = time.perf_counter()
    base = PipelineConfig(network=net_path, pca_dim=20, seed=7)
    full = run_pipeline(base, manifest, workdir)
    quantized = run_pipeline(
        PipelineConfig(network=net_path, pca_dim=20, seed=7, quantize=True),
        manifest, workdir,
    )
    elapsed = time.perf_counter() - start
    acc_full = full["metrics"]["accuracy"]
    acc_quant = quantized["metrics"]["accuracy"]
    assert acc_full >= 0.95
    assert acc_quant >= acc_full - 0.05
    assert elapsed < 120.0
    report_line(
        7,
        f"full {acc_full:.3f} vs quantized {acc_quant:.3f} "
        f"(gap {acc_full - acc_quant:+.3f}, in {elapsed:.1f}s)",
    )


def test_criterion_08_scheme_ordering(synth300):
    """Cross-layer pooling beats both direct pooling baselines."""
    manifest, net_path, workdir = synth300
    start = time.perf_counter()
    accuracy = {}
    for scheme in ("cross-layer", "direct-max", "direct-sum-sqrt"):
        pca = 20 if scheme == "cross-layer" else 0
        config = PipelineConfig(network=net_path, scheme=scheme, pca_dim=pca, seed=7)
        accuracy[scheme] = run_pipeline(config, manifest, workdir)["metrics"]["accuracy"]
    elapsed = time.perf_counter() - start
    assert accuracy["cross-layer"] >= accuracy["direct-max"]
    assert accuracy["cross-layer"] >= accuracy["direct-sum-sqrt"]
    assert elapsed < 120.0
    report_line(
        8,
        "cross {cross-layer:.3f} >= max {direct-max:.3f}, "
        "sum-sqrt {direct-sum-sqrt:.3f}".format(**accuracy) + f" (in {elapsed:.1f}s)",
    )


def test_criterion_09_gram_determinism_and_svm_sanity(tmp_path):
    """Bitwise-equal kernels across BLAS thread counts; separable 100%; QP
    oracle agreement."""
    start = time.perf_counter()
    rng = np.random.default_rng(9)

    reps = rng.normal(size=(60, 24))
    assert np.array_equal(kernels(reps, reps[:0])[0], reps @ reps.T)
    # The pipeline itself is single-threaded; its parallelism is BLAS's, so
    # each run is a fresh process with OpenBLAS held to 1 or 2 threads.  A
    # PCA part pools in float64, a part without PCA in float32.
    manifest_path, net_path = generate(tmp_path / "data", n_train=12, n_test=12, seed=9)
    src = str(Path(crosspool.__file__).parent.parent)
    runs = (("8", "--no-quantize"), ("8", "--quantize"), ("0", "--no-quantize"))
    for pca_dim, flag in runs:
        outputs = []
        for threads in ("1", "2"):
            workdir = tmp_path / f"pca{pca_dim}-{flag.strip('-')}-{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            subprocess.run(
                [sys.executable, "-m", "crosspool.cli", "--workdir", str(workdir),
                 "--seed", "9", "run", "--net", net_path, "--manifest", manifest_path,
                 "--pca-dim", pca_dim, flag],
                env=env, check=True, capture_output=True,
            )
            (rep_dir,) = (workdir / "representations").iterdir()
            (kernel_dir,) = (workdir / "kernel").iterdir()
            outputs.append([(rep_dir / name).read_bytes()
                            for name in ("train.fmat", "test.fmat")]
                           + [(kernel_dir / name).read_bytes()
                              for name in ("gram.fmat", "rows.fmat")])
        assert outputs[0] == outputs[1]

    sep = np.vstack([rng.normal(size=(30, 5)) + 4, rng.normal(size=(30, 5)) - 4])
    sep_labels = ["a"] * 30 + ["b"] * 30
    sep_gram = kernels(sep, sep[:0])[0]
    sep_model = svm_train(sep_gram, sep_labels)
    sep_preds = svm_predict(sep_model, sep_gram)[0]
    train_accuracy = np.mean([p == t for p, t in zip(sep_preds, sep_labels)])
    assert train_accuracy == 1.0

    # overlapping 60-point instance scored against a projected-gradient oracle
    mixed = np.vstack([rng.normal(size=(30, 4)) + 0.7, rng.normal(size=(30, 4)) - 0.7])
    labels = ["pos"] * 30 + ["neg"] * 30
    gram = kernels(mixed, mixed[:0])[0]
    model = svm_train(gram, labels, tol=1e-8)

    offset = np.trace(gram) / len(gram)
    augmented = gram + offset
    agree = np.zeros(60, dtype=bool)
    oracle_scores = {}
    for row, cls in enumerate(model.classes):
        y = np.array([1.0 if cls in {lab} else -1.0 for lab in labels])
        q = np.outer(y, y) * augmented
        lr = 1.0 / np.linalg.eigvalsh(q).max()
        alpha = np.zeros(60)
        for _ in range(20000):
            step = np.clip(alpha - lr * (q @ alpha - 1.0), 0.0, 1.0)
            if np.abs(step - alpha).max() < 1e-13:
                alpha = step
                break
            alpha = step
        beta = alpha * y
        oracle_scores[cls] = augmented @ beta
    class_list = list(model.classes)
    predictions = svm_predict(model, gram)[0]
    for i in range(60):
        oracle_label = max(class_list, key=lambda c: oracle_scores[c][i])
        agree[i] = oracle_label == predictions[i]
    agreement = agree.mean()
    assert agreement >= 0.95
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report_line(
        9,
        f"representations and grams bitwise stable; separable 100%; "
        f"oracle agreement {agreement:.0%} (in {elapsed:.1f}s)",
    )


def test_criterion_10_timing_report_schema(synth300, capsys):
    """bench emits extraction / pooling / total columns, pooling apart from forward."""
    from crosspool.cli import main

    manifest_obj, net_path, workdir = synth300
    start = time.perf_counter()
    report = run_pipeline(
        PipelineConfig(network=net_path, pca_dim=20, seed=7),
        manifest_obj, workdir, use_cache=False, stages="representations",
    )
    timing = report["timing"]["per_image"]
    for column in ("extraction", "pooling", "total"):
        assert column in timing
        assert timing[column] >= 0.0
    assert timing["extraction"] + timing["pooling"] <= timing["total"] + 1e-9

    manifest_path = str(workdir) + "/bench_manifest.tsv"
    with open(manifest_path, "w") as fh:
        for entry in manifest_obj.entries[:6] + manifest_obj.split("test")[:6]:
            fh.write(f"{entry.path}\t{entry.split}\t{','.join(sorted(entry.labels))}\n")
    code = main([
        "--workdir", str(workdir), "bench",
        "--net", net_path, "--manifest", manifest_path, "--pca-dim", "20",
    ])
    out = capsys.readouterr().out
    assert code == 0
    header = [line for line in out.splitlines() if "extraction" in line]
    assert header and "pooling" in header[0] and "total" in header[0]
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report_line(10, "bench reports extraction, pooling, total per image")
