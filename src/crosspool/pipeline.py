"""Dataset pipeline: manifest in, classification report out.

The pipeline runs in stages, each with a subdirectory of the working
directory addressed by a hash of everything that stage depends on
(upstream keys included), so rerunning with an unchanged configuration
reuses the cached artifacts:

    pca/<key>/               pca_*.pca meta.json (cross-layer with
                             pca_dim > 0 only)
    representations/<key>/   train.fmat test.fmat meta.json
                             (train.signs test.signs in place of the
                             .fmat files when quantized)
    kernel/<key>/            gram.fmat rows.fmat
    model/<key>/             model.svm solver.json
    report/<model key>-<test labels digest>.json

The PCA key covers only what the fit reads: the network through the ReLU
after the second convolution, the training entries' paths, sizes and
mtimes (no labels, no test entry), ``pca_dim``, the resolution, the
package version, and ``pca_sample_cap`` and the seed only when some
resolution's training features, counted from the tensor headers before
any forward pass, pass the cap, since only then does the fit draw from
the seed.  The representation key covers that network, which fixes the
layer pair, window and stride, each tensor's path, split, size and mtime
(no labels: no stage before the model reads one) and the package version;
the scheme, the resolution, ``quantize``, which says what the stage
writes, and the PCA key, which fixes ``pca_dim``; a config without PCA
reads no field of ``SCHEME_TABLE``'s beyond these.  The kernel key is the
representation key's; the model key adds the training labels, in
manifest order, and the SVM fields.  The report is named by the model key
and a digest of the test labels, so that runs that differ only in those
labels keep a report each; it records the package version and the key of
each stage that ran.  The representation stage is the one
place that works out a representation's layout and storage: its
meta.json holds the report's ``dims`` and ``timing`` blocks as they are,
and the kernel stage opens each split file by what it holds
(``svm.open_rows``).  A stage is built in a fresh sibling directory whose
name starts with ``.`` and renamed into place when complete, so a
``<stage>/<key>`` directory is always whole; the report goes through a
temp file and a rename too.  Each stage reads its inputs back from its
parent's published files, built or cached, so a cached rerun sees the
same float32 values and reproduces a fresh run's metrics exactly.
Timings in the report are informational and vary between runs;
everything under ``metrics`` and ``dims`` is deterministic for a fixed
config, manifest, and seed.

The PCA and representation stages forward images in batches of about
``FORWARD_BATCH_BYTES`` of part input, one network call and one
local-feature extraction per same-shape stack of parts.  The network runs
only through layer t: each local feature is the input window of one layer
t+1 unit, so the cross-layer scheme's layer t+1 is one float32 product of
the feature grids with the second convolution's kernel, followed by a
ReLU in place, and holds exactly the units that pooling reads; the PCA
stage, which reads only the features, skips it.  Stages past layer t
never run.  Parts, feature grids and layer t+1 units are plain arrays;
only the stacks and the network's stage outputs are
``ActivationTensor``s.

The PCA stage draws each resolution's sample indices before its one
forward pass over the training images, copies the chosen rows into a
preallocated float32 sample and drops every grid; ``pca_fit`` fits each
sample in fixed row chunks.  The representation stage then encodes every
split in one streamed pass, with the models the PCA stage saved.

Every part of a config has the same length, so each split keeps one
reused float32 row: each part is pooled straight into its slice and the
row is power-normalized once, then written into train.fmat or test.fmat
as soon as the image is encoded.  A quantized config writes no floats
and takes no root: the signed square root keeps every sign, so it
sign-quantizes the pooled row as it is into its row of the split's codes,
which go to train.signs or test.signs once the split is done; the codes
equal those of the rooted row byte for byte.  Every per-image value, from
the forward pass to the row, is float32; only the PCA fit and the kernel
stage, which combine many images, compute in float64.

No stage holds a whole (count, dim) float representation matrix, nor
the training set's feature grids.  The PCA stage holds one forward batch
and the samples, at most ``pca_sample_cap`` rows of ``local_dim`` float32
per resolution, then one float64 chunk of a sample while it fits.  The
representation stage holds one forward batch, its feature grids and one
row whatever the image count, and a quantized config the split's codes,
count * ceil(dim/4) bytes.  The kernel stage
reads float files through ``ColumnReader``, one ``svm.BLOCK_DIMS`` column
block at a time, holding about count * BLOCK_DIMS values per split, and
loads sign stacks whole and unpacks one block at a time; it also
holds the Gram matrix and the kernel rows.  The model stage holds the
Gram matrix and prediction the kernel rows.

Manifest lines are ``path<TAB>split<TAB>labels`` with comma-separated
labels and split either ``train`` or ``test``; tensor paths are resolved
relative to the manifest file.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import numbers
import os
import shutil
import sys
import tempfile
import time
from collections import namedtuple
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, ContractError, ValidationError
from .features import extract_local_features
from .multires import ResolutionConfig, iter_parts, part_shapes
from .network import (
    ConvLayerSpec,
    MaxPoolStage,
    NetworkSpec,
    ReluStage,
    conv_product,
    parse_network_file,
    run_network,
)
from .pooling import (
    SPP_LEVELS,
    cross_layer_pool,
    direct_max_pool,
    direct_sum_sqrt_pool,
    spp_pool,
    unit_offset,
)
from .postproc import (
    load_pca,
    pca_fit,
    power_normalize,
    save_pca,
    save_sign_stack,
    sign_quantize,
)
from .svm import kernels, load_svm, open_rows, save_svm, svm_predict, svm_train
from .tensor import (
    ActivationTensor,
    load_features,
    load_tensor,
    matrix_header,
    save_features,
    tensor_shape,
)

# One entry per scheme, read wherever the scheme matters: ``pool(grid,
# units, pca, out)`` pools a part's local feature grid into ``out``, its
# slice of the row, calling its pooling function by its name here;
# ``part_dim`` is the slice's length; ``fields`` are the config fields the
# scheme reads beyond the shared ones and ``flags`` its ``crosspool pool``
# flags.  A scheme reads layer t+1 when ``layer_t1`` is among them.
Scheme = namedtuple("Scheme", "pool part_dim fields flags")
SCHEME_TABLE = {
    "cross-layer": Scheme(
        lambda grid, units, pca, out: cross_layer_pool(grid, units, 0, pca=pca, out=out),
        lambda local_dim, channels, pca_dim: channels * (pca_dim or local_dim),
        ("pca_dim", "pca_sample_cap", "seed"),
        ("layer_t", "layer_t1", "window", "stride", "pad", "pca"),
    ),
    "direct-max": Scheme(
        lambda grid, units, pca, out: np.copyto(out, direct_max_pool(grid)),
        lambda local_dim, channels, pca_dim: local_dim, (), ("features",),
    ),
    "direct-sum-sqrt": Scheme(
        lambda grid, units, pca, out: np.copyto(out, direct_sum_sqrt_pool(grid)),
        lambda local_dim, channels, pca_dim: local_dim, (), ("features",),
    ),
    "spp": Scheme(
        lambda grid, units, pca, out: np.copyto(out, spp_pool(grid, SPP_LEVELS)),
        lambda local_dim, channels, pca_dim: sum(g * g for g in SPP_LEVELS) * local_dim,
        (), ("input", "window", "stride"),
    ),
}
SCHEMES = tuple(SCHEME_TABLE)

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
    pca_dim: int = 0
    pca_sample_cap: int = 100000
    resolution: ResolutionConfig = field(
        default_factory=lambda: ResolutionConfig(0, 0, 0.0, True)
    )
    quantize: bool = False
    svm_c: float = 1.0
    svm_tol: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        for names, kind, what in (
            (("pca_dim", "pca_sample_cap", "seed"), numbers.Integral, "an integer"),
            (("quantize",), bool, "true or false"),
            (("svm_c", "svm_tol"), numbers.Real, "a number"),
        ):
            for name in names:
                _typed(name, getattr(self, name), kind, what)
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}, pick one of {SCHEMES}")
        if self.pca_dim < 0:
            raise ConfigError("pca_dim must be nonnegative")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.pca_sample_cap < 2:
            raise ConfigError("pca_sample_cap must be at least 2")
        # a fit on n samples yields at most n - 1 components
        if "pca_dim" in SCHEME_TABLE[self.scheme].fields and self.pca_sample_cap <= self.pca_dim:
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
        if not isinstance(self.layer_pair, (list, tuple)) or len(self.layer_pair) != 2:
            raise ConfigError(f"layer_pair must be a list of 2 integers, got {self.layer_pair!r}")
        self.layer_pair = tuple(
            int(_typed("layer_pair", v, numbers.Integral, "integers")) for v in self.layer_pair
        )
        if not 1 <= self.layer_pair[0] < self.layer_pair[1]:
            raise ConfigError(
                f"layer_pair ordinals must increase from at least 1, "
                f"got {self.layer_pair}"
            )
        self.resolution = resolve_resolution(self.resolution)


def _typed(name: str, value, kind, what: str):
    """``value`` if it is a ``kind``; a bool counts only where kind is bool."""
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    return value


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


def _resolve_geometry(
    net: NetworkSpec, config: PipelineConfig
) -> tuple[NetworkSpec, ConvLayerSpec, list]:
    """The network through layer t, which is all that runs; the second
    convolution, whose kernel and stride are the local features' window
    and stride; and the stages through it and the ReLU after it, which
    are all that the representation key hashes."""
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
    end = t1_conv_index + 1
    if end < len(net.stages) and isinstance(net.stages[end], ReluStage):
        end += 1
    if "layer_t1" in SCHEME_TABLE[config.scheme].flags:
        if t1_conv_index != t_index + 1:
            raise ConfigError(
                "cross-layer pooling needs the second convolution to consume the "
                "first one's output directly"
            )
        if end == t1_conv_index + 1:
            raise ConfigError(
                "cross-layer pooling needs a ReLU after the second convolution"
            )
        # without it no layer t+1 unit sits over the first window
        unit_offset(t1_spec.pad, t1_spec.stride)
    local_dim = t1_spec.kernel_h * t1_spec.kernel_w * t1_spec.in_depth
    if "pca_dim" in SCHEME_TABLE[config.scheme].fields and config.pca_dim > local_dim:
        raise ConfigError(f"pca_dim {config.pca_dim} exceeds local feature dim {local_dim}")
    head = NetworkSpec(net.stages[: t_index + 1], seed=net.seed)
    return head, t1_spec, net.stages[:end]


def network_digest(stages) -> str:
    """Hash of the stages through the second convolution and the ReLU
    after it; no stage past them runs.  The seed is not hashed: it only
    fills in weights, which are."""
    h = hashlib.sha256()
    for s in stages:
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


def manifest_digest(entries) -> str:
    """Hash of each entry's path, split, and tensor file size and mtime;
    no label."""
    h = hashlib.sha256()
    for e in entries:
        st = os.stat(e.path)
        h.update(f"{e.path}\t{e.split}\t{st.st_size}\t{st.st_mtime_ns}\n".encode())
    return h.hexdigest()


def labels_digest(entries) -> str:
    """Hash of each entry's labels, in manifest order."""
    text = "".join(",".join(sorted(e.labels)) + "\n" for e in entries)
    return hashlib.sha256(text.encode()).hexdigest()


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


def _forward_images(entries, head, t1_spec, resolution, layer_t1, timing):
    """Yield each entry's (label, resolution, layer-t feature grid, layer
    t+1 output) parts, cut as ``resolution`` says, in manifest order.

    Images are read until their parts hold ``FORWARD_BATCH_BYTES`` of input
    (always at least one image); the batch's parts are stacked by shape
    alone, since ``head`` ends at conv t or its ReLU and no input flag
    reaches layer t.  Each stack goes through ``head``, the network through
    layer t, in one call, and its output is cut into local features in one
    more.  When ``layer_t1`` is true, layer t+1 is one float32
    ``conv_product`` of the grids and one ``np.maximum`` in place, each
    part's units a slice of it: each window is one unit's input, so unit
    (i, j) sits over window (i, j).  Otherwise the units are None.  The
    forward pass, local-feature extraction and the product are timed as
    ``timing["extraction"]``; nothing is timed across a yield.
    """
    entries = iter(entries)
    while True:
        batch, held = [], 0
        for entry in entries:
            parts = iter_parts(load_tensor(entry.path), resolution)
            batch.append(parts)
            held += sum(part.nbytes for _, _, part in parts)
            if held >= FORWARD_BATCH_BYTES:
                break
        if not batch:
            return
        start = time.perf_counter()
        stacks = {}
        for i, parts in enumerate(batch):
            for j, (_, _, part) in enumerate(parts):
                stacks.setdefault(part.shape, []).append((i, j))
        outputs = {}
        for members in stacks.values():
            stacked = ActivationTensor(np.stack([batch[i][j][2] for i, j in members]))
            layer_t = run_network(stacked, head)[-1]
            grids = extract_local_features(
                layer_t, t1_spec.kernel_h, t1_spec.kernel_w, t1_spec.stride
            )
            units = [None] * len(members)
            if layer_t1:
                units = conv_product(grids, t1_spec)
                np.maximum(units, 0.0, out=units)
            outputs.update(zip(members, zip(grids, units)))
        timing["extraction"] += time.perf_counter() - start
        for i, parts in enumerate(batch):
            yield [
                (label, resolution, *outputs[i, j])
                for j, (label, resolution, _) in enumerate(parts)
            ]


def _local_feature_counts(entries, head, t1_spec, resolution) -> dict[str, int]:
    """Each resolution's count of local features over the entries' parts,
    from each tensor's header and the stages' geometry, before any forward
    pass.  A part too small for a stage fails its forward pass with that
    stage's error; here it only must not make a count negative."""
    counts = {}
    for entry in entries:
        height, width, _ = tensor_shape(entry.path)
        for name, h, w in part_shapes(height, width, resolution):
            for stage in head.stages:
                if isinstance(stage, ConvLayerSpec):
                    h, w = stage.output_dims(h, w)
                elif isinstance(stage, MaxPoolStage):
                    h, w = ((x - stage.size) // stage.stride + 1 for x in (h, w))
            rows = (h - t1_spec.kernel_h) // t1_spec.stride + 1
            columns = (w - t1_spec.kernel_w) // t1_spec.stride + 1
            counts[name] = counts.get(name, 0) + max(rows, 0) * max(columns, 0)
    return counts


def _fit_pca_models(entries, counts, head, t1_spec, config, directory):
    """Write the PCA stage's artifacts into ``directory``: one model per
    participating resolution, ``pca_<resolution>.pca``, fitted on a sample
    of the training parts' local features, and a meta.json.

    ``counts`` holds each resolution's feature count.  Past
    ``pca_sample_cap`` the sample is the rows at the seeded
    ``rng.choice`` of that many indices, drawn before the forward pass and
    kept in index order; otherwise it is every row.  Rows are indexed in
    manifest order, then part order, then grid order.  One forward pass
    through layer t, without the layer t+1 product, copies each part's
    chosen rows into the resolution's preallocated float32 sample and
    drops its grid, so the stage holds the samples and one forward batch.
    """
    start = time.perf_counter()
    local_dim = t1_spec.kernel_h * t1_spec.kernel_w * t1_spec.in_depth
    chosen, samples = {}, {}
    for resolution, count in sorted(counts.items()):
        chosen[resolution] = np.arange(count)
        if count > config.pca_sample_cap:
            rng = np.random.default_rng(config.seed)
            chosen[resolution] = np.sort(rng.choice(count, config.pca_sample_cap, replace=False))
        samples[resolution] = np.empty((chosen[resolution].size, local_dim), np.float32)
    seen = dict.fromkeys(counts, 0)
    timing = {"extraction": 0.0}
    for parts in _forward_images(entries, head, t1_spec, config.resolution, False, timing):
        for _, resolution, grid, _ in parts:
            rows, first = grid.reshape(-1, local_dim), seen[resolution]
            seen[resolution] += len(rows)
            # the picks before this part's rows are the sample rows filled so far
            picks = chosen[resolution]
            lo, hi = np.searchsorted(picks, (first, seen[resolution]))
            samples[resolution][lo:hi] = rows[picks[lo:hi] - first]
    if seen != counts:
        raise ContractError(
            f"the training parts hold {seen} local features, their headers promise {counts}"
        )
    fit_seconds = 0.0
    for resolution in sorted(samples):
        t0 = time.perf_counter()
        model = pca_fit(samples.pop(resolution), config.pca_dim)
        fit_seconds += time.perf_counter() - t0
        save_pca(model, os.path.join(directory, f"pca_{resolution}.pca"))
    meta = {
        "descriptors": counts,
        "sample_rows": {resolution: picks.size for resolution, picks in chosen.items()},
        "timing": {
            "total": time.perf_counter() - start,
            "extraction": timing["extraction"],
            "pca_fit_seconds": fit_seconds,
        },
    }
    with open(os.path.join(directory, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)


def _represent_images(images, count, config, pca_models, part_dim, timing, path):
    """Encode ``count`` images, each given as its ``_forward_images`` parts,
    into a matrix file of their rows at ``path``, or, when the config
    quantizes, a sign stack of the rows' codes; returns the part layout.

    Every part is ``part_dim`` long, so the first image's parts fix the
    layout and the header for all.  Each part is pooled straight into its
    slice of one reused float32 row.  A float row is power-normalized once
    and written as soon as the image arrives.  A quantized row is
    sign-coded as pooled, since the signed square root keeps every sign,
    into its row of the split's codes, 1/16 of the floats' bytes, which
    are written when the split is done.  A generator of images is held one
    at a time and the float matrix is never held whole.  Encoding seconds,
    quantization included, go to ``timing["pooling"]``; the writes are not
    timed there.
    """
    row = codes = None
    with contextlib.nullcontext() if config.quantize else open(path, "wb") as fh:
        for i, parts in enumerate(images):
            t0 = time.perf_counter()
            if row is None:
                row = np.empty(len(parts) * part_dim, np.float32)
                if config.quantize:
                    codes = np.empty((count, (row.size + 3) // 4), np.uint8)
                else:
                    fh.write(matrix_header(count, row.size))
            for k, (_, resolution, grid, layer_t1) in enumerate(parts):
                out = row[k * part_dim : (k + 1) * part_dim]
                SCHEME_TABLE[config.scheme].pool(grid, layer_t1, pca_models.get(resolution), out)
            if codes is None:
                encoded = power_normalize(row)
            else:
                codes[i] = sign_quantize(row[None])[0]
            timing["pooling"] += time.perf_counter() - t0
            if codes is None:
                fh.write(encoded)
    if codes is not None:
        save_sign_stack(codes, row.size, path)
    return [[label, k * part_dim, part_dim] for k, (label, *_) in enumerate(parts)]


def _compute_representations(config, manifest, head, t1_spec, pca_dir, directory):
    """Write the representation stage's artifacts into ``directory``, with
    the PCA models of ``pca_dir`` when the config projects (else None).

    ``per_image.total`` is the wall time per image of building the
    representations from the tensors: this stage's, loading and writing
    included, plus the ``total`` that the PCA stage's meta.json records
    for its own build, also when that stage was reused.  ``extraction`` is
    this stage's share of the forward pass, local-feature extraction and
    the layer t+1 product, and ``pooling`` that of pooling and then either
    the rows' signed square roots or, when quantized, the pooled rows' sign
    codes (the root keeps every sign, so a quantized row takes none).
    ``pca_fit_seconds`` is the PCA stage's fit time.
    """
    start = time.perf_counter()
    timing = {"extraction": 0.0, "pooling": 0.0}
    pca_models, pca_timing = {}, {"total": 0.0, "pca_fit_seconds": 0.0}
    if pca_dir is not None:
        with open(os.path.join(pca_dir, "meta.json"), "r", encoding="utf-8") as fh:
            pca_meta = json.load(fh)
        pca_timing = pca_meta["timing"]
        pca_models = {
            resolution: load_pca(os.path.join(pca_dir, f"pca_{resolution}.pca"))
            for resolution in pca_meta["sample_rows"]
        }
    scheme = SCHEME_TABLE[config.scheme]
    local_dim = t1_spec.kernel_h * t1_spec.kernel_w * t1_spec.in_depth
    channels = t1_spec.out_depth if "layer_t1" in scheme.flags else None
    part_dim = scheme.part_dim(local_dim, channels, config.pca_dim)
    suffix = ".signs" if config.quantize else ".fmat"
    images = 0
    for split in ("train", "test"):
        entries = manifest.split(split)
        parts = _forward_images(
            entries, head, t1_spec, config.resolution, "layer_t1" in scheme.flags, timing
        )
        layout = _represent_images(
            parts, len(entries), config, pca_models, part_dim, timing,
            os.path.join(directory, split + suffix),
        )
        images += len(entries)
    dim = sum(size for _, _, size in layout)
    meta = {
        "dims": {
            "local_dim": local_dim,
            "projected_dim": config.pca_dim if pca_models else None,
            "channels": channels,
            "representation_dim": dim,
            "parts": layout,
            "packed_bytes_per_image": (dim + 3) // 4 if config.quantize else None,
        },
        "timing": {
            "images": images,
            "per_image": {
                "extraction": timing["extraction"] / images,
                "pooling": timing["pooling"] / images,
                "total": (time.perf_counter() - start + pca_timing["total"]) / images,
            },
            "pca_fit_seconds": pca_timing["pca_fit_seconds"],
        },
    }
    with open(os.path.join(directory, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)


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
    head, t1_spec, digested = _resolve_geometry(parse_network_file(config.network), config)
    network = network_digest(digested)
    train_entries = manifest.split("train")
    test_entries = manifest.split("test")
    cache, artifacts, keys = {}, {}, {}
    pca_key = pca_dir = None
    if "pca_dim" in SCHEME_TABLE[config.scheme].fields and config.pca_dim:
        training = manifest_digest(train_entries)
        counts = _local_feature_counts(train_entries, head, t1_spec, config.resolution)
        # the fit draws from the seed only where a resolution passes the cap
        drawn = max(counts.values()) > config.pca_sample_cap
        pca_key = _key(
            {
                "stage": "pca",
                "version": __version__,
                "network": network,
                "train": training,
                "pca_dim": config.pca_dim,
                "resolution": dataclasses.asdict(config.resolution),
                **({"pca_sample_cap": config.pca_sample_cap, "seed": config.seed}
                   if drawn else {}),
            }
        )
        pca_dir, cache["pca"] = _stage(
            workdir, "pca", pca_key, use_cache,
            lambda tmp: _fit_pca_models(train_entries, counts, head, t1_spec, config, tmp),
        )
        artifacts["pca"], keys["pca"] = pca_dir, pca_key
    rep_key = _key(
        {
            "stage": "representations",
            "version": __version__,
            "network": network,
            "manifest": manifest_digest(manifest.entries),
            "scheme": config.scheme,
            "resolution": dataclasses.asdict(config.resolution),
            "quantize": config.quantize,
            # which fixes pca_dim; a config without PCA reads no such field
            "pca": pca_key,
        }
    )
    rep_dir, cache["representations"] = _stage(
        workdir, "representations", rep_key, use_cache,
        lambda tmp: _compute_representations(config, manifest, head, t1_spec, pca_dir, tmp),
    )
    artifacts["representations"], keys["representations"] = rep_dir, rep_key
    with open(os.path.join(rep_dir, "meta.json"), "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    timing = meta["timing"]
    report = {
        "version": __version__,
        "config_hash": rep_key,
        "keys": keys,
        "scheme": config.scheme,
        "quantize": config.quantize,
        "dataset": {
            "train": len(train_entries),
            "test": len(test_entries),
            "classes": manifest.classes(),
            "multi_label": not manifest.single_label,
        },
        "dims": meta["dims"],
        "timing": timing,
        "cache": cache,
        "artifacts": artifacts,
    }
    if stages == "representations":
        report["metrics"] = None
        return report

    def build_kernel(tmp):
        t0 = time.perf_counter()
        # the representation stage wrote one train.* and one test.* file
        files = {name.split(".")[0]: os.path.join(rep_dir, name) for name in os.listdir(rep_dir)}
        with open_rows(files["train"]) as train, open_rows(files["test"]) as test:
            gram, rows = kernels(train, test)
        timing["kernel_seconds"] = time.perf_counter() - t0
        save_features(gram, os.path.join(tmp, "gram.fmat"))
        save_features(rows, os.path.join(tmp, "rows.fmat"))

    timing.update(kernel_seconds=None, train_seconds=None)
    kernel_key = _key({"stage": "kernel", "parent": rep_key})
    kernel_dir, cache["kernel"] = _stage(workdir, "kernel", kernel_key, use_cache, build_kernel)
    artifacts["kernel"], keys["kernel"] = kernel_dir, kernel_key

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
            "labels": labels_digest(train_entries),
        }
    )
    model_dir, cache["model"] = _stage(workdir, "model", model_key, use_cache, build_model)
    artifacts["model"], keys["model"] = model_dir, model_key
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
    name = f"{model_key}-{labels_digest(test_entries)[:16]}"
    report_path = os.path.join(workdir, "report", f"{name}.json")
    text = json.dumps(report, indent=2, default=str)
    # a rerun that reproduces the report leaves the file as it is
    if not os.path.isfile(report_path) or Path(report_path).read_text("utf-8") != text:
        os.makedirs(os.path.dirname(report_path), exist_ok=True)
        tmp_path = os.path.join(workdir, "report", f".{name}-{os.getpid()}.json")
        with open(tmp_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp_path, report_path)
    artifacts["report"] = report_path
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
    net = parse_network_file(config.network)
    for variant in variants:
        _resolve_geometry(net, variant)
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
