"""The benchmark's workloads: inputs generated from a seed, configs, checks.

Each workload writes its tensors, network file and manifest under a root
directory, names the pipeline configs it runs, and checks the reports.
Inputs depend only on the workload seed, so the same seed always gives
the same dataset; ``synth-compare`` uses the generator, configs and checks
of acceptance criteria 7 and 8.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from crosspool.pipeline import PipelineConfig
from crosspool.synth import generate
from crosspool.tensor import ActivationTensor, save_tensor


# Seed of the training images (and of the weights) where the solver's work
# must not depend on the workload seed; criterion 8 uses the same seed.
TRAIN_SEED = 7


@dataclass
class Workload:
    build: Callable          # (root, seed) -> (manifest_path, net_path)
    configs: Callable        # (net_path, seed) -> [(label, PipelineConfig)]
    check: Callable          # {label: report} -> [failure message]


def _write_dataset(root, train_seed, test_seed, shape, n_train, n_test, classes, plant,
                   net_lines):
    """Random nonnegative activations of ``shape`` with a class signal added
    by ``plant(data, class_index)``, a network seeded with ``train_seed`` and
    a manifest.  Training images come from ``train_seed``, test images from
    ``test_seed``."""
    tensor_dir = os.path.join(root, "tensors")
    os.makedirs(tensor_dir, exist_ok=True)
    lines = []
    for split, count, seed in (("train", n_train, train_seed), ("test", n_test, test_seed)):
        rng = np.random.default_rng(seed)
        for i in range(count):
            label = i % classes
            data = rng.uniform(0.0, 1.0, size=shape)
            plant(data, label)
            name = f"{split}_{i:04d}.tens"
            save_tensor(ActivationTensor(data), os.path.join(tensor_dir, name))
            lines.append(f"tensors/{name}\t{split}\tclass{label}")
    manifest_path = os.path.join(root, "manifest.tsv")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    net_path = os.path.join(root, "net.spec")
    with open(net_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(net_lines(train_seed)) + "\n")
    return manifest_path, net_path


def _accuracy(report) -> float:
    return report["metrics"]["accuracy"]


# -- synth-compare ---------------------------------------------------------
# Criterion 8's three schemes; the pure-Python SVM solver does most of the
# work, so it stresses svm training and leaves network, pooling and the
# kernel flat.

# Small enough that one cold run of a config takes well under a second, so
# a run holds tens of samples of each; both baselines still stop at the
# solver's sweep cap, whose cost grows with the training count.
SYNTH_TRAIN = 15
SYNTH_TEST = 30


def _synth_build(root, seed):
    # The training images are criterion 8's (seed 7), the test images come
    # from the workload seed: the solver's work, which depends on the
    # training set, is then the same on every seed.
    train_manifest, net_path = generate(
        os.path.join(root, "train"), n_train=SYNTH_TRAIN, n_test=0, classes=3,
        seed=TRAIN_SEED,
    )
    test_manifest, _ = generate(
        os.path.join(root, "test"), n_train=0, n_test=SYNTH_TEST, classes=3, seed=seed
    )
    lines = []
    for path, split in ((train_manifest, "train"), (test_manifest, "test")):
        with open(path, encoding="utf-8") as fh:
            lines += [f"{split}/{line}" for line in fh.read().splitlines() if line]
    manifest_path = os.path.join(root, "manifest.tsv")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return manifest_path, net_path


def _synth_configs(net_path, seed):
    return [
        (scheme, PipelineConfig(
            network=net_path, scheme=scheme,
            pca_dim=20 if scheme == "cross-layer" else 0, seed=seed,
        ))
        for scheme in ("cross-layer", "direct-max", "direct-sum-sqrt")
    ]


def _synth_check(reports):
    cross = _accuracy(reports["cross-layer"])
    failures = []
    if cross < 0.95:
        failures.append(f"cross-layer accuracy {cross:.4f} < 0.95 (criterion 7)")
    for baseline in ("direct-max", "direct-sum-sqrt"):
        if cross < _accuracy(reports[baseline]):
            failures.append(
                f"cross-layer accuracy {cross:.4f} below {baseline} "
                f"{_accuracy(reports[baseline]):.4f} (criterion 8)"
            )
    return failures


# -- paper-geometry --------------------------------------------------------
# Paper-sized layers (13x13x384 and 13x13x256, 3456-d descriptors, PCA to
# 500, 128000-d): forward, PCA fit and the seeded LCG weights do almost all
# the work; svm training and the float kernel stay flat.

GEOMETRY_GAIN = 1.5


def _geometry_plant(data, label):
    # Class k amplifies one quarter of the 256 input channels.
    data[:, :, 64 * label: 64 * (label + 1)] *= GEOMETRY_GAIN


def _geometry_net(seed):
    return [
        "input_depth = 256",
        f"seed = {seed}",
        "conv out_depth=384 kernel=3x3 stride=1 pad=1",
        "relu",
        "conv out_depth=256 kernel=3x3 stride=1 pad=1",
        "relu",
    ]


def _geometry_build(root, seed):
    return _write_dataset(
        root, seed, seed, (13, 13, 256), 40, 40, 2, _geometry_plant, _geometry_net
    )


def _geometry_configs(net_path, seed):
    return [("cross-layer", PipelineConfig(
        network=net_path, layer_pair=(1, 2), pca_dim=500, seed=seed,
    ))]


def _geometry_check(reports):
    dim = reports["cross-layer"]["dims"]["representation_dim"]
    return [] if dim == 128000 else [f"representation_dim {dim} != 128000"]


# -- parts-quantized -------------------------------------------------------
# Whole image plus 2x2 blocks with 2-bit codes: the packed Gram and rows do
# the largest share of the work, and 800 small forwards expose per-call cost
# in network, features and pooling; PCA and the float kernel stay flat.

PARTS_GAIN = 1.5


def _parts_plant(data, label):
    # Class k amplifies eight of the 16 input channels.
    data[:, :, 8 * label: 8 * (label + 1)] *= PARTS_GAIN


def _parts_net(seed):
    return [
        "input_depth = 16",
        f"seed = {seed}",
        "conv out_depth=32 kernel=3x3 stride=1 pad=1",
        "relu",
        "conv out_depth=32 kernel=3x3 stride=1 pad=1",
        "relu",
    ]


def _parts_build(root, seed):
    # Fixed training images and weights keep the solver's work the same on
    # every seed.  80 / 80 images in two classes keep one cold run near 2 s
    # with the packed kernel still the largest share.
    return _write_dataset(
        root, TRAIN_SEED, seed, (8, 8, 16), 80, 80, 2, _parts_plant, _parts_net
    )


def _parts_configs(net_path, seed):
    return [("cross-layer", PipelineConfig(
        network=net_path, layer_pair=(1, 2), pca_dim=0, resolution="both",
        quantize=True, seed=seed,
    ))]


def _parts_check(reports):
    packed = reports["cross-layer"]["dims"]["packed_bytes_per_image"]
    return [] if packed == 11520 else [f"packed_bytes_per_image {packed} != 11520"]


WORKLOADS = {
    "synth-compare": Workload(_synth_build, _synth_configs, _synth_check),
    "paper-geometry": Workload(_geometry_build, _geometry_configs, _geometry_check),
    "parts-quantized": Workload(_parts_build, _parts_configs, _parts_check),
}
