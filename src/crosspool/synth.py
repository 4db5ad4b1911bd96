"""Synthetic co-occurrence datasets for exercising the full pipeline.

Every image is an H x W x 6 tensor: channels 0..2 carry "pattern" spikes,
channels 3..5 carry "context" spikes.  Spikes sit on a coarse site grid
(spacing ``cell``) so their 3x3 neighborhoods never overlap.  Each image
lights every site with exactly one pattern p and one context q at the same
spot, using an equal number of sites per pattern, and the class decides the
pairing: class k pairs pattern p with context (p + k) mod 3.

Every class therefore has identical per-channel statistics; only which
pattern co-occurs with which context differs.  A pooling scheme that sums
or maxes descriptors channel-by-channel sees the same marginals for every
class, while weighting layer-1 descriptors by the context detectors of
layer 2 recovers the pairing directly.

The companion network is fixed (no random weights): a 1x1 identity conv
over the six channels, ReLU, then a 3x3 conv with three kernels that each
sum one context channel over the window, ReLU.  Layer pair (1, 2) with a
3x3 window and stride 1 matches its geometry.

``generate`` writes the tensors, the network file with weight sidecars, and
a manifest; run it as a script to build a demo dataset:

    python -m crosspool.synth --out data --train 60 --test 60
"""

from __future__ import annotations

import argparse
import os

import numpy as np

from .network import ConvLayerSpec, NetworkSpec, ReluStage, write_network_file
from .tensor import ActivationTensor, save_tensor

PATTERNS = 3
CHANNELS = 2 * PATTERNS


def build_network() -> NetworkSpec:
    """The fixed two-conv detector network described in the module docstring."""
    identity = np.zeros((CHANNELS, 1, 1, CHANNELS))
    for ch in range(CHANNELS):
        identity[ch, 0, 0, ch] = 1.0
    detectors = np.zeros((PATTERNS, 3, 3, CHANNELS))
    for k in range(PATTERNS):
        detectors[k, :, :, PATTERNS + k] = 1.0
    return NetworkSpec(
        stages=[
            ConvLayerSpec(1, 1, CHANNELS, CHANNELS, weights=identity),
            ReluStage(),
            ConvLayerSpec(3, 3, CHANNELS, PATTERNS, weights=detectors),
            ReluStage(),
        ]
    )


def make_image(
    rng: np.random.Generator,
    class_index: int,
    grid: int = 6,
    cell: int = 3,
    margin: int = 2,
    jitter: float = 0.2,
    noise: float = 0.05,
) -> ActivationTensor:
    """One image of the given class; see the module docstring for the layout."""
    extent = 2 * margin + cell * (grid - 1) + 1
    data = rng.uniform(0.0, noise, size=(extent, extent, CHANNELS))
    sites = grid * grid
    patterns = np.repeat(np.arange(PATTERNS), sites // PATTERNS)
    if patterns.size < sites:
        patterns = np.concatenate([patterns, rng.integers(0, PATTERNS, sites - patterns.size)])
    patterns = rng.permutation(patterns)
    index = 0
    for i in range(grid):
        for j in range(grid):
            r = margin + cell * i
            c = margin + cell * j
            p = int(patterns[index])
            q = (p + class_index) % PATTERNS
            data[r, c, p] += rng.uniform(1.0 - jitter, 1.0 + jitter)
            data[r, c, PATTERNS + q] += rng.uniform(1.0 - jitter, 1.0 + jitter)
            index += 1
    return ActivationTensor(data)


def generate(
    root,
    n_train: int = 300,
    n_test: int = 300,
    classes: int = 3,
    seed: int = 7,
    grid: int = 6,
    jitter: float = 0.2,
    noise: float = 0.05,
) -> tuple[str, str]:
    """Write tensors, network, and manifest under ``root``.

    Returns (manifest path, network path).  Class labels are "class0",
    "class1", ...; images alternate through the classes so both splits are
    balanced.
    """
    if not 1 <= classes <= PATTERNS:
        raise ValueError(f"classes must lie in 1..{PATTERNS}")
    rng = np.random.default_rng(seed)
    root = os.path.abspath(root)
    tensor_dir = os.path.join(root, "tensors")
    os.makedirs(tensor_dir, exist_ok=True)
    net_path = os.path.join(root, "net.spec")
    write_network_file(build_network(), net_path)
    lines = []
    for split, count in (("train", n_train), ("test", n_test)):
        for i in range(count):
            label_index = i % classes
            image = make_image(rng, label_index, grid=grid, jitter=jitter, noise=noise)
            name = f"{split}_{i:04d}.tens"
            save_tensor(image, os.path.join(tensor_dir, name))
            lines.append(f"tensors/{name}\t{split}\tclass{label_index}")
    manifest_path = os.path.join(root, "manifest.tsv")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return manifest_path, net_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="generate a synthetic co-occurrence dataset")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--train", type=int, default=300)
    parser.add_argument("--test", type=int, default=300)
    parser.add_argument("--classes", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    manifest, net = generate(
        args.out, n_train=args.train, n_test=args.test, classes=args.classes, seed=args.seed
    )
    print(f"manifest: {manifest}")
    print(f"network:  {net}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
