"""Dataset pipeline: manifest in, classification report out.

The pipeline runs in stages, each with a subdirectory of the working
directory addressed by a hash of everything that stage depends on
(upstream keys included), so rerunning with an unchanged configuration
reuses the cached artifacts:

    representations/<key>/   train.fmat test.fmat meta.json pca_*.pca
    kernel/<key>/            gram.fmat rows.fmat [train.signs test.signs]
    model/<key>/             model.svm solver.json
    report/<key>.json

The representation key covers the network weights, each tensor's path,
size and mtime, the labels and the package version.  A stage is built in
a fresh sibling directory whose name starts with ``.`` and renamed into
place when complete, so a ``<stage>/<key>`` directory is always whole; the
report goes through a temp file and a rename too.  Each stage reads its
inputs back from its parent's published files, built or cached, so a
cached rerun sees the same float32 values and reproduces a fresh run's
metrics exactly.  Timings in the report are informational and vary between
runs; everything under ``metrics`` and ``dims`` is deterministic for a
fixed config, manifest, and seed.

The representation stage forwards images in batches of about
``FORWARD_BATCH_BYTES`` of part input, one network call and one
local-feature extraction per same-shape stack of parts.  The network runs
only through layer t: each local feature is the input window of one layer
t+1 unit, so the cross-layer scheme's layer t+1 is one product of the
feature grids with the second convolution's kernel, followed by a ReLU,
and holds exactly the units that pooling reads.  Stages past layer t never
run.  Each part is then pooled and each image's row written into
train.fmat or test.fmat as soon as it is encoded.  A cross-layer part
without PCA is pooled and power-normalized in float32; a PCA part and the
other schemes in float64.

No stage holds a whole (count, dim) representation matrix.  Without PCA
the representation stage holds one forward batch, its feature
grids and one row whatever the image count; a PCA config also holds
every training image's parts until the fit and the encoding are done.
The kernel stage reads the two files through ``ColumnReader``, one
``svm.BLOCK_DIMS`` column block at a time: it holds about
count * BLOCK_DIMS values per split, plus the Gram matrix, the kernel rows
and, when quantized, the sign codes, 1/16 of the floats.  The model stage
holds the Gram matrix and prediction the kernel rows.

Manifest lines are ``path<TAB>split<TAB>labels`` with comma-separated
labels and split either ``train`` or ``test``; tensor paths are resolved
relative to the manifest file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import numbers
import os
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, svm
from .errors import ConfigError, ContractError, ValidationError
from .features import extract_local_features
from .multires import ResolutionConfig, iter_parts
from .network import (
    ConvLayerSpec,
    NetworkSpec,
    ReluStage,
    conv_product,
    parse_network_file,
    run_network,
)
from .pooling import (
    cross_layer_pool,
    direct_max_pool,
    direct_sum_sqrt_pool,
    spp_pool,
    unit_offset,
)
from .postproc import (
    pca_fit,
    power_normalize,
    save_pca,
    save_sign_stack,
    sign_quantize,
)
from .svm import (
    kernels,
    load_svm,
    save_svm,
    svm_predict,
    svm_train,
)
from .tensor import (
    ActivationTensor,
    ColumnReader,
    load_features,
    load_tensor,
    matrix_header,
    save_features,
)

SCHEMES = ("cross-layer", "direct-max", "direct-sum-sqrt", "spp")

# Input bytes of image parts that are forwarded together.  Larger batches
# make fewer, bigger network calls but hold more activations at once.
FORWARD_BATCH_BYTES = 64 * 1024

RESOLUTION_PRESETS = {
    "whole": dict(blocks_m=0, blocks_n=0, overlap_fraction=0.0, include_whole_image=True),
    "blocks": dict(blocks_m=2, blocks_n=2, overlap_fraction=0.0, include_whole_image=False),
    "both": dict(blocks_m=2, blocks_n=2, overlap_fraction=0.0, include_whole_image=True),
}


def resolve_resolution(value) -> ResolutionConfig:
    """Accept a ResolutionConfig, a preset name, or a plain dict."""
    if isinstance(value, ResolutionConfig):
        return value
    if isinstance(value, str):
        if value not in RESOLUTION_PRESETS:
            raise ConfigError(
                f"unknown resolution preset {value!r}, pick one of "
                f"{sorted(RESOLUTION_PRESETS)}"
            )
        return ResolutionConfig(**RESOLUTION_PRESETS[value])
    if isinstance(value, dict):
        for name, kind, what in (
            ("blocks_m", numbers.Integral, "an integer"),
            ("blocks_n", numbers.Integral, "an integer"),
            ("overlap_fraction", numbers.Real, "a number"),
            ("include_whole_image", bool, "true or false"),
        ):
            if name in value:
                _typed(f"resolution.{name}", value[name], kind, what)
        try:
            return ResolutionConfig(**value)
        except (TypeError, ValidationError) as exc:
            raise ConfigError(f"bad resolution config: {exc}") from None
    raise ConfigError(f"bad resolution config: {value!r}")


@dataclass
class PipelineConfig:
    """Everything the pipeline needs besides the dataset itself.

    ``layer_pair`` names two adjacent convolutions by 1-based ordinal; the
    first one's (rectified) output supplies the local features and the
    second one's rectified output supplies the indicator weights.  Every
    scheme pools the same local features: the windows of layer t that the
    second convolution reads, so their size and stride are its kernel and
    stride.  ``pca_dim`` > 0 projects cross-layer local features before
    pooling, from a sample of at most ``pca_sample_cap`` of them; the
    reference schemes always pool the raw descriptors.
    """

    network: str
    layer_pair: tuple[int, int] = (1, 2)
    scheme: str = "cross-layer"
    spp_levels: tuple[int, ...] = (1, 2)
    pca_dim: int = 0
    pca_sample_cap: int = 100000
    resolution: ResolutionConfig = field(
        default_factory=lambda: ResolutionConfig(0, 0, 0.0, True)
    )
    power_norm: bool = True
    quantize: bool = False
    svm_c: float = 1.0
    svm_tol: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        for names, kind, what in (
            (("pca_dim", "pca_sample_cap", "seed"), numbers.Integral, "an integer"),
            (("power_norm", "quantize"), bool, "true or false"),
            (("svm_c", "svm_tol"), numbers.Real, "a number"),
        ):
            for name in names:
                _typed(name, getattr(self, name), kind, what)
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}, pick one of {SCHEMES}")
        if self.pca_dim < 0:
            raise ConfigError("pca_dim must be nonnegative")
        if self.pca_sample_cap < 2:
            raise ConfigError("pca_sample_cap must be at least 2")
        # a fit on n samples yields at most n - 1 components
        if self.scheme == "cross-layer" and self.pca_sample_cap <= self.pca_dim:
            raise ConfigError(
                f"pca_sample_cap must be larger than pca_dim {self.pca_dim}, "
                f"got {self.pca_sample_cap}"
            )
        # stored as floats, so that 1 and 1.0 give one model key
        for name in ("svm_c", "svm_tol"):
            value = getattr(self, name)
            if not 0 < value <= sys.float_info.max:
                raise ConfigError(f"{name} must be positive and finite, got {value}")
            setattr(self, name, float(value))
        self.layer_pair = _integers("layer_pair", self.layer_pair, 2)
        if not 1 <= self.layer_pair[0] < self.layer_pair[1]:
            raise ConfigError(
                f"layer_pair ordinals must increase from at least 1, "
                f"got {self.layer_pair}"
            )
        self.spp_levels = _integers("spp_levels", self.spp_levels)
        if not self.spp_levels or min(self.spp_levels) < 1:
            raise ConfigError(f"spp_levels must be positive integers, got {self.spp_levels}")
        self.resolution = resolve_resolution(self.resolution)


def _typed(name: str, value, kind, what: str):
    """``value`` if it is a ``kind``; a bool counts only where kind is bool."""
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    return value


def _integers(name: str, values, count: int | None = None) -> tuple[int, ...]:
    """A list or tuple of ``count`` (any number, if None) integers, as a tuple."""
    if not isinstance(values, (list, tuple)) or count not in (None, len(values)):
        raise ConfigError(f"{name} must be a list of {count or 'any number of'} "
                          f"integers, got {values!r}")
    return tuple(int(_typed(name, v, numbers.Integral, "integers")) for v in values)


def load_config(path) -> PipelineConfig:
    """Read a JSON config file; unknown keys are rejected."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except UnicodeDecodeError:
            raise ConfigError(f"{path}: not UTF-8 text") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    known = {f.name for f in dataclasses.fields(PipelineConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
    if "network" not in raw:
        raise ConfigError(f"{path}: config needs a 'network' path")
    network = raw.pop("network")
    if not isinstance(network, str):
        raise ConfigError(f"network must be a path string, got {network!r}")
    if not os.path.isabs(network):
        network = os.path.join(os.path.dirname(os.path.abspath(path)), network)
    try:
        return PipelineConfig(network=network, **raw)
    except TypeError as exc:
        raise ConfigError(f"{path}: {exc}") from None


@dataclass
class ManifestEntry:
    path: str
    split: str
    labels: frozenset[str]


@dataclass
class DatasetManifest:
    """Parsed dataset manifest with tensor paths already resolved."""

    entries: list[ManifestEntry]

    def __post_init__(self):
        splits = {e.split for e in self.entries}
        if "train" not in splits or "test" not in splits:
            raise ValidationError("manifest needs at least one train and one test entry")
        for entry in self.entries:
            if not entry.labels:
                raise ValidationError(f"{entry.path}: entry carries no labels")

    def split(self, name: str) -> list[ManifestEntry]:
        return [e for e in self.entries if e.split == name]

    def classes(self) -> tuple[str, ...]:
        return tuple(sorted(set().union(*(e.labels for e in self.entries))))

    @property
    def single_label(self) -> bool:
        return all(len(e.labels) == 1 for e in self.entries)


def parse_manifest(path) -> DatasetManifest:
    base = os.path.dirname(os.path.abspath(path))
    entries = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise ValidationError(f"{path}: not UTF-8 text") from None
    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise ValidationError(
                f"{path}:{line_no}: expected path<TAB>split<TAB>labels"
            )
        rel, split, label_field = fields
        if split not in ("train", "test"):
            raise ValidationError(
                f"{path}:{line_no}: split must be train or test, got {split!r}"
            )
        labels = frozenset(
            part.strip() for part in label_field.split(",") if part.strip()
        )
        if not labels:
            raise ValidationError(f"{path}:{line_no}: no labels given")
        tensor_path = rel if os.path.isabs(rel) else os.path.join(base, rel)
        entries.append(ManifestEntry(path=tensor_path, split=split, labels=labels))
    if not entries:
        raise ValidationError(f"{path}: manifest is empty")
    return DatasetManifest(entries=entries)


def _resolve_geometry(net: NetworkSpec, config: PipelineConfig) -> tuple[int, ConvLayerSpec]:
    """The index of the stage whose output is layer t, and the second
    convolution, whose kernel and stride are the local features' window
    and stride."""
    convs = net.conv_stages()
    first, second = config.layer_pair
    if not 1 <= first < second <= len(convs):
        raise ConfigError(
            f"layer pair {config.layer_pair} does not fit a network with "
            f"{len(convs)} convolutions"
        )
    if second != first + 1:
        raise ConfigError("layer pair must name adjacent convolutions")
    t_index = convs[first - 1][0]
    if t_index + 1 < len(net.stages) and isinstance(net.stages[t_index + 1], ReluStage):
        t_index += 1
    t1_conv_index, t1_spec = convs[second - 1]
    if config.scheme == "cross-layer":
        if t1_conv_index != t_index + 1:
            raise ConfigError(
                "cross-layer pooling needs the second convolution to consume the "
                "first one's output directly"
            )
        if not (t1_conv_index + 1 < len(net.stages) and isinstance(
            net.stages[t1_conv_index + 1], ReluStage
        )):
            raise ConfigError(
                "cross-layer pooling needs a ReLU after the second convolution"
            )
        # without it no layer t+1 unit sits over the first window
        unit_offset(t1_spec.pad, t1_spec.stride)
    local_dim = t1_spec.kernel_h * t1_spec.kernel_w * t1_spec.in_depth
    if config.scheme == "cross-layer" and config.pca_dim > local_dim:
        raise ConfigError(f"pca_dim {config.pca_dim} exceeds local feature dim {local_dim}")
    return t_index, t1_spec


def network_digest(net: NetworkSpec) -> str:
    h = hashlib.sha256()
    h.update(str(net.seed).encode())
    for s in net.stages:
        if isinstance(s, ConvLayerSpec):
            h.update(
                f"conv {s.kernel_h} {s.kernel_w} {s.in_depth} {s.out_depth} "
                f"{s.stride} {s.pad}".encode()
            )
            h.update(s.weights.tobytes())
            h.update(s.bias.tobytes())
        elif isinstance(s, ReluStage):
            h.update(b"relu")
        else:
            h.update(f"maxpool {s.size} {s.stride}".encode())
    return h.hexdigest()


def manifest_digest(manifest: DatasetManifest) -> str:
    """Hash of each entry's path, split, labels, and tensor file size and mtime."""
    h = hashlib.sha256()
    for e in manifest.entries:
        st = os.stat(e.path)
        h.update(
            f"{e.path}\t{e.split}\t{','.join(sorted(e.labels))}\t"
            f"{st.st_size}\t{st.st_mtime_ns}\n".encode()
        )
    return h.hexdigest()


def _key(payload: dict) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()
    ).hexdigest()[:16]


def _stage(workdir, stage: str, key: str, use_cache: bool, build) -> tuple[str, str]:
    """Reuse or build one stage; returns its directory and "hit" or "miss".

    A finished stage is the directory ``<stage>/<key>``.  On a miss
    ``build(tmp)`` writes the artifacts into a fresh sibling directory whose
    name starts with ``.``, which is then renamed into place; a failed build
    leaves nothing behind.
    """
    directory = os.path.join(workdir, stage, key)
    if use_cache and os.path.isdir(directory):
        return directory, "hit"
    os.makedirs(os.path.dirname(directory), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f".{key}-", dir=os.path.dirname(directory))
    try:
        build(tmp)
        if not use_cache:
            shutil.rmtree(directory, ignore_errors=True)
        try:
            os.replace(tmp, directory)
        except OSError:
            # a concurrent run published the same key first
            if not os.path.isdir(directory):
                raise
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return directory, "miss"


def _forward_images(entries, net, t_index, t1_spec, config, timing):
    """Yield each entry's (label, resolution, layer-t feature grid, layer
    t+1 output) parts, in manifest order.

    Images are read until their parts hold ``FORWARD_BATCH_BYTES`` of input
    (always at least one image); the batch's parts are stacked by shape,
    each stack goes through the network up to layer t in one call, and its
    layer t output is cut into local features in one more.  For the
    cross-layer scheme layer t+1 is one ``conv_product`` of the grids and a
    ReLU: each window is one unit's input, so unit (i, j) sits over window
    (i, j).  The other schemes get None.  Forward and product seconds go to
    ``timing["extraction"]``, local-feature extraction seconds to
    ``timing["pooling"]``; nothing is timed across a yield.
    """
    head = NetworkSpec(net.stages[: t_index + 1], seed=net.seed)
    entries = iter(entries)
    while True:
        batch, held = [], 0
        for entry in entries:
            parts = iter_parts(load_tensor(entry.path), config.resolution)
            batch.append(parts)
            held += sum(part.data.nbytes for _, _, part in parts)
            if held >= FORWARD_BATCH_BYTES:
                break
        if not batch:
            return
        start, extract_seconds = time.perf_counter(), 0.0
        stacks = {}
        for i, parts in enumerate(batch):
            for j, (_, _, part) in enumerate(parts):
                stacks.setdefault((part.data.shape, part.rectified), []).append((i, j))
        outputs = {}
        for (_, rectified), members in stacks.items():
            stacked = np.stack([batch[i][j][2].data for i, j in members])
            layer_t = run_network(ActivationTensor(stacked, rectified=rectified), head)[-1]
            t0 = time.perf_counter()
            grids = extract_local_features(
                layer_t, t1_spec.kernel_h, t1_spec.kernel_w, t1_spec.stride
            )
            extract_seconds += time.perf_counter() - t0
            units = [None] * len(members)
            if config.scheme == "cross-layer":
                conv = conv_product(grids, t1_spec).astype(np.float32)
                units = [ActivationTensor(u, rectified=True) for u in np.maximum(conv, 0.0)]
            outputs.update(zip(members, zip(grids, units)))
        timing["extraction"] += time.perf_counter() - start - extract_seconds
        timing["pooling"] += extract_seconds
        for i, parts in enumerate(batch):
            yield [
                (label, resolution, *outputs[i, j])
                for j, (label, resolution, _) in enumerate(parts)
            ]


def _encode_part(grid, layer_t1, resolution, config, pca_models):
    """Encode one part's feature grid into a vector under the config's
    scheme; ``layer_t1`` holds the layer t+1 unit over each window."""
    if config.scheme == "cross-layer":
        vector = cross_layer_pool(grid, layer_t1, 0, pca=pca_models.get(resolution))
    elif config.scheme == "direct-max":
        vector = direct_max_pool(grid)
    elif config.scheme == "direct-sum-sqrt":
        vector = direct_sum_sqrt_pool(grid)
    else:
        vector = spp_pool(grid, config.spp_levels)
    return power_normalize(vector) if config.power_norm else vector


def _fit_pca_models(images, config):
    """One PCA model per participating resolution, fitted on a seeded
    subsample of the training parts' local features."""
    start = time.perf_counter()
    buckets: dict[str, list[np.ndarray]] = {}
    for parts in images:
        for _, resolution, grid, _ in parts:
            buckets.setdefault(resolution, []).append(grid.reshape(-1, grid.shape[-1]))
    models = {}
    for resolution in sorted(buckets):
        stacked = np.concatenate(buckets[resolution], axis=0)
        if stacked.shape[0] > config.pca_sample_cap:
            rng = np.random.default_rng(config.seed)
            chosen = rng.choice(stacked.shape[0], config.pca_sample_cap, replace=False)
            stacked = stacked[np.sort(chosen)]
        models[resolution] = pca_fit(stacked, config.pca_dim)
    return models, time.perf_counter() - start


def _represent_images(images, count, config, pca_models, timing, path):
    """Encode ``count`` images, each given as its ``_forward_images`` parts,
    into the rows of a matrix file at ``path``; returns the part layout.

    The first image fixes the layout and the header for all: the resolution
    config fixes the parts, the scheme and the second convolution their
    lengths.  Each image's part vectors are concatenated into one reused
    float32 row, written as soon as the image arrives.  A generator of
    images is held one at a time and the matrix is never held whole.
    Encoding seconds go to ``timing["pooling"]``; the row writes are not
    timed there.
    """
    layout = None
    with open(path, "wb") as fh:
        for parts in images:
            t0 = time.perf_counter()
            chunks = [
                _encode_part(grid, layer_t1, resolution, config, pca_models)
                for _, resolution, grid, layer_t1 in parts
            ]
            if layout is None:
                layout, offset = [], 0
                for (label, *_), vector in zip(parts, chunks):
                    layout.append([label, offset, vector.size])
                    offset += vector.size
                row = np.empty(offset, dtype=np.float32)
                fh.write(matrix_header(count, offset))
            np.concatenate(chunks, out=row)
            timing["pooling"] += time.perf_counter() - t0
            fh.write(row)
    return layout


def _compute_representations(config, manifest, net, t_index, t1_spec, directory):
    """Write the representation stage's artifacts into ``directory``.

    ``per_image.total`` is the stage's wall time per image, loading, the
    PCA fit and writing included; ``extraction`` and ``pooling`` are the
    forward and the extract-and-encode shares of it.
    """
    start = time.perf_counter()
    timing = {"extraction": 0.0, "pooling": 0.0}
    train_entries = manifest.split("train")
    test_entries = manifest.split("test")
    train_images = _forward_images(train_entries, net, t_index, t1_spec, config, timing)
    pca_models, pca_seconds = {}, 0.0
    if config.scheme == "cross-layer" and config.pca_dim:
        # One forward pass per training part feeds both the PCA fit and the
        # encoding, so the training set's parts stay in memory until both
        # are done.
        train_images = list(train_images)
        pca_models, pca_seconds = _fit_pca_models(train_images, config)
    layout = _represent_images(
        train_images, len(train_entries), config, pca_models, timing,
        os.path.join(directory, "train.fmat"),
    )
    test_images = _forward_images(test_entries, net, t_index, t1_spec, config, timing)
    _represent_images(
        test_images, len(test_entries), config, pca_models, timing,
        os.path.join(directory, "test.fmat"),
    )
    for resolution, model in pca_models.items():
        save_pca(model, os.path.join(directory, f"pca_{resolution}.pca"))
    images = len(train_entries) + len(test_entries)
    meta = {
        "representation_dim": sum(size for _, _, size in layout),
        "parts": layout,
        "projected_dim": config.pca_dim if pca_models else None,
        "channels": t1_spec.out_depth if config.scheme == "cross-layer" else None,
        "local_dim": t1_spec.kernel_h * t1_spec.kernel_w * t1_spec.in_depth,
        "window": [t1_spec.kernel_h, t1_spec.kernel_w],
        "stride": t1_spec.stride,
        "timing": {
            "images": images,
            "per_image": {
                "extraction": timing["extraction"] / images,
                "pooling": timing["pooling"] / images,
                "total": (time.perf_counter() - start) / images,
            },
            "pca_fit_seconds": pca_seconds,
        },
    }
    with open(os.path.join(directory, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)


def quantize_blocks(matrix) -> np.ndarray:
    """``sign_quantize`` of a (count, dim) array or ``ColumnReader``, one
    ``svm.BLOCK_DIMS`` column block at a time.  The block width is a
    multiple of 4, so the blocks' codes join to exactly the whole matrix's
    codes, and only one float block is held at a time."""
    count, dim = matrix.shape
    step = svm.BLOCK_DIMS
    codes = np.empty((count, (dim + 3) // 4), dtype=np.uint8)
    for lo in range(0, dim, step):
        codes[:, lo // 4 : (lo + step) // 4] = sign_quantize(matrix[:, lo : lo + step])
    return codes


def run_pipeline(
    config: PipelineConfig,
    manifest: DatasetManifest,
    workdir,
    workers: int = 1,
    use_cache: bool = True,
    stages: str = "all",
) -> dict:
    """Run the configured pipeline over the manifest and return the report.

    ``stages="representations"`` stops after the representation stage
    (benchmarking uses this); otherwise the kernel, training, and
    prediction stages follow.  Every stage runs in the calling thread;
    ``workers`` is accepted and ignored, and BLAS supplies any parallelism.
    """
    if stages not in ("all", "representations"):
        raise ConfigError(f"unknown stages selector {stages!r}")
    workdir = os.path.abspath(workdir)
    net = parse_network_file(config.network)
    t_index, t1_spec = _resolve_geometry(net, config)
    rep_key = _key(
        {
            "stage": "representations",
            "version": __version__,
            "network": network_digest(net),
            "manifest": manifest_digest(manifest),
            "layer_pair": config.layer_pair,
            "window": (t1_spec.kernel_h, t1_spec.kernel_w),
            "stride": t1_spec.stride,
            "scheme": config.scheme,
            "spp_levels": config.spp_levels,
            "pca_dim": config.pca_dim,
            "pca_sample_cap": config.pca_sample_cap,
            "resolution": dataclasses.asdict(config.resolution),
            "power_norm": config.power_norm,
            "seed": config.seed,
        }
    )
    cache = {}
    rep_dir, cache["representations"] = _stage(
        workdir, "representations", rep_key, use_cache,
        lambda tmp: _compute_representations(config, manifest, net, t_index, t1_spec, tmp),
    )
    with open(os.path.join(rep_dir, "meta.json"), "r", encoding="utf-8") as fh:
        meta = json.load(fh)

    train_entries = manifest.split("train")
    test_entries = manifest.split("test")
    timing = meta["timing"]
    report = {
        "config_hash": rep_key,
        "scheme": config.scheme,
        "quantize": config.quantize,
        "dataset": {
            "train": len(train_entries),
            "test": len(test_entries),
            "classes": manifest.classes(),
            "multi_label": not manifest.single_label,
        },
        "dims": {
            "local_dim": meta["local_dim"],
            "projected_dim": meta["projected_dim"],
            "channels": meta["channels"],
            "representation_dim": meta["representation_dim"],
            "parts": meta["parts"],
            "packed_bytes_per_image": (meta["representation_dim"] + 3) // 4
            if config.quantize
            else None,
        },
        "timing": timing,
        "cache": cache,
        "artifacts": {"representations": rep_dir},
    }
    if stages == "representations":
        report["metrics"] = None
        return report

    def build_kernel(tmp):
        t0 = time.perf_counter()
        with ColumnReader(os.path.join(rep_dir, "train.fmat")) as train, \
                ColumnReader(os.path.join(rep_dir, "test.fmat")) as test:
            train_reps, test_reps = train, test
            if config.quantize:
                train_reps, test_reps = quantize_blocks(train), quantize_blocks(test)
                save_sign_stack(train_reps, train.shape[1], os.path.join(tmp, "train.signs"))
                save_sign_stack(test_reps, test.shape[1], os.path.join(tmp, "test.signs"))
            gram, rows = kernels(train_reps, test_reps)
        timing["kernel_seconds"] = time.perf_counter() - t0
        save_features(gram, os.path.join(tmp, "gram.fmat"))
        save_features(rows, os.path.join(tmp, "rows.fmat"))

    timing.update(kernel_seconds=None, train_seconds=None)
    kernel_key = _key({"stage": "kernel", "parent": rep_key, "quantize": config.quantize})
    kernel_dir, cache["kernel"] = _stage(workdir, "kernel", kernel_key, use_cache, build_kernel)
    report["artifacts"]["kernel"] = kernel_dir

    def build_model(tmp):
        gram = load_features(os.path.join(kernel_dir, "gram.fmat")).data
        t0 = time.perf_counter()
        model = svm_train(
            gram,
            [e.labels for e in train_entries],
            c=config.svm_c,
            tol=config.svm_tol,
        )
        timing["train_seconds"] = time.perf_counter() - t0
        save_svm(model, os.path.join(tmp, "model.svm"))
        with open(os.path.join(tmp, "solver.json"), "w", encoding="utf-8") as fh:
            json.dump(model.solver, fh, indent=2)

    model_key = _key(
        {
            "stage": "model",
            "parent": kernel_key,
            "solver": "interior-point",
            "svm_c": config.svm_c,
            "svm_tol": config.svm_tol,
        }
    )
    model_dir, cache["model"] = _stage(workdir, "model", model_key, use_cache, build_model)
    report["artifacts"]["model"] = model_dir
    with open(os.path.join(model_dir, "solver.json"), "r", encoding="utf-8") as fh:
        report["solver"] = json.load(fh)

    model = load_svm(os.path.join(model_dir, "model.svm"))
    rows = load_features(os.path.join(kernel_dir, "rows.fmat")).data
    predictions, scores = svm_predict(model, rows)
    report["metrics"] = _metrics(
        model.classes,
        predictions,
        scores,
        [e.labels for e in test_entries],
        manifest.single_label,
    )
    report_path = os.path.join(workdir, "report", f"{model_key}.json")
    text = json.dumps(report, indent=2, default=str)
    # a rerun that reproduces the report leaves the file as it is
    if not os.path.isfile(report_path) or Path(report_path).read_text("utf-8") != text:
        os.makedirs(os.path.dirname(report_path), exist_ok=True)
        tmp_path = os.path.join(workdir, "report", f".{model_key}-{os.getpid()}.json")
        with open(tmp_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp_path, report_path)
    report["artifacts"]["report"] = report_path
    return report


def average_precision(scores: np.ndarray, positives: np.ndarray) -> float:
    """Area under the precision-recall curve: one precision term per
    positive, ranked by descending score with ties broken by index."""
    scores = np.asarray(scores, dtype=np.float64)
    positives = np.asarray(positives, dtype=bool)
    total = int(positives.sum())
    if total == 0:
        return float("nan")
    order = np.lexsort((np.arange(scores.size), -scores))
    ranked = positives[order]
    precision = np.cumsum(ranked) / np.arange(1, scores.size + 1)
    return float(precision[ranked].sum() / total)


def _metrics(classes, predictions, scores, test_labels, single_label) -> dict:
    per_class = {}
    for k, name in enumerate(classes):
        positives = np.array([name in labels for labels in test_labels])
        if positives.any():
            per_class[name] = average_precision(scores[:, k], positives)
    mean_ap = float(np.mean(list(per_class.values()))) if per_class else float("nan")
    accuracy = None
    if single_label:
        truth = [next(iter(labels)) for labels in test_labels]
        accuracy = float(np.mean([p == want for p, want in zip(predictions, truth)]))
    return {
        "accuracy": accuracy,
        "average_precision": per_class,
        "mean_average_precision": mean_ap,
    }


def compare_schemes(
    config: PipelineConfig,
    manifest: DatasetManifest,
    workdir,
    schemes: list[str],
) -> list[dict]:
    """Run the pipeline once per scheme and tabulate the results."""
    if len(schemes) < 2:
        raise ContractError("comparing schemes needs at least two of them")
    if len(set(schemes)) != len(schemes):
        raise ContractError("schemes to compare must be distinct")
    # every variant is checked before the first one runs
    variants = [dataclasses.replace(config, scheme=scheme) for scheme in schemes]
    rows = []
    for scheme, variant in zip(schemes, variants):
        report = run_pipeline(variant, manifest, workdir)
        rows.append(
            {
                "scheme": scheme,
                "accuracy": report["metrics"]["accuracy"],
                "mean_average_precision": report["metrics"]["mean_average_precision"],
                "representation_dim": report["dims"]["representation_dim"],
                "per_image_seconds": report["timing"]["per_image"]["total"],
            }
        )
    return rows
