"""A small deterministic convolutional forward pass.

Only three stage kinds exist: convolution (zero padding, square stride),
ReLU, and max pooling.  ``NetworkSpec.stages`` holds them in forward order
as plain ``ConvLayerSpec``, ``ReluStage`` and ``MaxPoolStage`` objects.
There is no training; weights either come with the network definition or
are generated from ``NetworkSpec.seed`` by a 32-bit linear congruential
generator (x -> 1664525*x + 1013904223 mod 2**32) whose state is salted
per stage with ``seed + 0x9E3779B9 * (stage_index + 1)``.
Each draw is mapped to [-0.5, 0.5); bias defaults to zero.  The same seed
therefore always yields bitwise-identical activations.

Every stage works on the last three (height, width, depth) axes, so a batch
of same-shape images stacked as an (N, H, W, D) tensor goes through the
network in one call.  Convolution writes its input into a zeroed float32
array of the padded shape and takes every window of it as one strided
view; ``conv_product`` then makes one float32 product of the flattened
windows and the kernel over all N images.  The weights and bias are held
in float32, as the sidecar files store them.  A float32 product's last
bits may depend on how many windows it holds, so an image's output in a
batch may differ from its own forward pass by float32 rounding;
``tests/test_pool_drift.py`` bounds that drift against a double-precision
oracle.  The same product computes a layer from windows cut elsewhere,
such as the pipeline's local features.

Network files are plain text.  Header lines ``input_depth = D`` and
``seed = S`` come first, then one line per stage in forward order::

    conv out_depth=8 kernel=3x3 stride=1 pad=1 [weights=W.fmat] [bias=B.fmat]
    relu
    maxpool size=2 stride=2

``weights``/``bias`` name feature-matrix sidecar files relative to the spec
file: weights as an (out_depth, kernel_h*kernel_w*in_depth) matrix, bias as
a (1, out_depth) matrix.  ``#`` starts a comment, blank lines are ignored,
and a conv's in_depth is inferred by chaining depths from ``input_depth``.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConfigError, GeometryError, ValidationError
from .tensor import ActivationTensor, load_features, save_features

LCG_MULTIPLIER = 1664525
LCG_INCREMENT = 1013904223
STAGE_SALT = 0x9E3779B9


def lcg_uniform(seed: int, count: int) -> np.ndarray:
    """Draw ``count`` floats in [-0.5, 0.5) from the documented LCG stream.

    States are filled by jump-ahead doubling: with the first n states known,
    the next n are x -> A*x + C (mod 2**32) applied to them, where (A, C) is
    the n-step map; composing that map with itself gives the 2n-step one.
    """
    states = np.empty(count + 1, dtype=np.uint64)
    states[0] = seed & 0xFFFFFFFF
    mult, inc, done = LCG_MULTIPLIER, LCG_INCREMENT, 1
    while done <= count:
        step = min(done, count + 1 - done)
        states[done : done + step] = (
            states[:step] * np.uint64(mult) + np.uint64(inc)
        ) & np.uint64(0xFFFFFFFF)
        mult, inc, done = mult * mult & 0xFFFFFFFF, (mult * inc + inc) & 0xFFFFFFFF, 2 * done
    return states[1:] / 4294967296.0 - 0.5


@dataclass
class ConvLayerSpec:
    """Geometry and parameters of one convolution stage.

    ``weights`` has shape (out_depth, kernel_h, kernel_w, in_depth); a flat
    array of matching length is accepted and reshaped.  ``weights=None``
    stays unmaterialized until the layer joins a NetworkSpec, which fills it
    from the network seed.  ``weights`` and ``bias`` are held in float32,
    the dtype of their sidecar files and of ``conv_product``.
    """

    kernel_h: int
    kernel_w: int
    in_depth: int
    out_depth: int
    stride: int = 1
    pad: int = 0
    weights: np.ndarray | None = None
    bias: np.ndarray | None = None

    def __post_init__(self):
        for name in ("kernel_h", "kernel_w", "in_depth", "out_depth", "stride"):
            if getattr(self, name) < 1:
                raise ValidationError(f"conv {name} must be positive")
        if self.pad < 0:
            raise ValidationError("conv pad must be nonnegative")
        shape = (self.out_depth, self.kernel_h, self.kernel_w, self.in_depth)
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=np.float32)
            if w.size != int(np.prod(shape)):
                raise ValidationError(
                    f"conv weights hold {w.size} values, expected {int(np.prod(shape))}"
                )
            self.weights = np.ascontiguousarray(w.reshape(shape))
        if self.bias is None:
            self.bias = np.zeros(self.out_depth, np.float32)
        else:
            b = np.asarray(self.bias, dtype=np.float32).ravel()
            if b.size != self.out_depth:
                raise ValidationError(
                    f"conv bias holds {b.size} values, expected {self.out_depth}"
                )
            self.bias = b

    def output_dims(self, height: int, width: int) -> tuple[int, int]:
        oh = (height + 2 * self.pad - self.kernel_h) // self.stride + 1
        ow = (width + 2 * self.pad - self.kernel_w) // self.stride + 1
        return oh, ow


@dataclass
class ReluStage:
    pass


@dataclass
class MaxPoolStage:
    size: int
    stride: int

    def __post_init__(self):
        if self.size < 1 or self.stride < 1:
            raise ValidationError("maxpool size and stride must be positive")


@dataclass
class NetworkSpec:
    """An ordered stage list with a seed for any missing conv weights."""

    stages: list
    seed: int = 0

    def __post_init__(self):
        # Seeded stages go into a list of this spec's own: the caller's list
        # and its stage objects may be shared with a spec under another seed.
        self.stages = list(self.stages)
        depth = None
        for index, stage in enumerate(self.stages):
            if isinstance(stage, ConvLayerSpec):
                if depth is not None and stage.in_depth != depth:
                    raise ValidationError(
                        f"stage {index}: conv expects depth {stage.in_depth}, "
                        f"previous stage produces {depth}"
                    )
                if stage.weights is None:
                    self.stages[index] = dataclasses.replace(
                        stage, weights=_seeded_weights(stage, self.seed, index)
                    )
                depth = stage.out_depth
            elif not isinstance(stage, (ReluStage, MaxPoolStage)):
                raise ValidationError(f"stage {index}: unknown stage type {type(stage)!r}")

    def conv_stages(self) -> list[tuple[int, ConvLayerSpec]]:
        return [(i, s) for i, s in enumerate(self.stages) if isinstance(s, ConvLayerSpec)]

    def input_depth(self) -> int | None:
        for stage in self.stages:
            if isinstance(stage, ConvLayerSpec):
                return stage.in_depth
        return None


def _seeded_weights(spec: ConvLayerSpec, seed: int, stage_index: int) -> np.ndarray:
    shape = (spec.out_depth, spec.kernel_h, spec.kernel_w, spec.in_depth)
    stage_seed = (seed + STAGE_SALT * (stage_index + 1)) & 0xFFFFFFFF
    return lcg_uniform(stage_seed, int(np.prod(shape))).reshape(shape)


def window_stack(data: np.ndarray, window_h: int, window_w: int, stride: int) -> np.ndarray:
    """All stride-spaced (window_h, window_w) patches of an (..., H, W, D) array.

    Returns one read-only strided view of ``data``, shape ``lead + (grid_h,
    grid_w, window_h, window_w, D)``, where position (i, j) holds the patch
    anchored at row i*stride, column j*stride.  The windows must fit.
    """
    *lead, height, width, depth = data.shape
    *lead_strides, row, col, channel = data.strides
    grid = ((height - window_h) // stride + 1, (width - window_w) // stride + 1)
    return as_strided(
        data, (*lead, *grid, window_h, window_w, depth),
        (*lead_strides, row * stride, col * stride, row, col, channel), writeable=False,
    )


def conv_product(windows: np.ndarray, layer: ConvLayerSpec) -> np.ndarray:
    """The layer's float32 output at each window of ``windows``, an array
    of shape ``lead + (kernel_h*kernel_w*in_depth,)`` whose last axis holds
    one window flattened in (row, column, channel) order, like the kernel.

    Returns shape ``lead + (out_depth,)``.  Every convolution is this one
    float32 product with the layer's weights, plus its bias, so a window's
    output may differ in its last bits with the number of windows in the
    product.
    """
    kernel = layer.weights.reshape(layer.out_depth, -1)
    out = windows.reshape(-1, kernel.shape[1]).astype(np.float32, copy=False) @ kernel.T
    out += layer.bias
    return out.reshape(windows.shape[:-1] + (layer.out_depth,))


def conv_forward(tensor: ActivationTensor, layer: ConvLayerSpec) -> ActivationTensor:
    """Zero-padded valid convolution; output is not marked rectified.

    The input is written into a zeroed float32 array of the padded shape,
    whose windows go through ``conv_product``.
    """
    if tensor.depth != layer.in_depth:
        raise ValidationError(
            f"conv expects input depth {layer.in_depth}, tensor has {tensor.depth}"
        )
    if layer.weights is None:
        raise ValidationError("conv weights are not materialized")
    oh, ow = layer.output_dims(tensor.height, tensor.width)
    if oh < 1 or ow < 1:
        raise GeometryError(
            f"conv output would be {oh}x{ow} for input "
            f"{tensor.height}x{tensor.width} (kernel {layer.kernel_h}x{layer.kernel_w}, "
            f"stride {layer.stride}, pad {layer.pad})"
        )
    pad, (height, width) = layer.pad, (tensor.height, tensor.width)
    padded = (height + 2 * pad, width + 2 * pad, tensor.depth)
    data = np.zeros(tensor.data.shape[:-3] + padded, np.float32)
    data[..., pad : pad + height, pad : pad + width, :] = tensor.data
    patches = window_stack(data, layer.kernel_h, layer.kernel_w, layer.stride)
    cols = patches.reshape(patches.shape[:-3] + (-1,))
    return ActivationTensor(conv_product(cols, layer), rectified=False)


def relu_forward(tensor: ActivationTensor) -> ActivationTensor:
    return ActivationTensor(np.maximum(tensor.data, 0.0), rectified=True)


def maxpool_forward(tensor: ActivationTensor, size: int, stride: int) -> ActivationTensor:
    """Per-channel max over size x size windows; no padding."""
    if size > tensor.height or size > tensor.width:
        raise GeometryError(
            f"maxpool window {size} exceeds input {tensor.height}x{tensor.width}"
        )
    if stride < 1:
        raise ValidationError("maxpool stride must be positive")
    patches = window_stack(tensor.data, size, size, stride)
    out = patches.max(axis=(-3, -2))
    return ActivationTensor(out, rectified=tensor.rectified)


def run_network(tensor: ActivationTensor, spec: NetworkSpec) -> list[ActivationTensor]:
    """Forward pass returning the activation after every stage, in order."""
    need = spec.input_depth()
    if need is not None and tensor.depth != need:
        raise ValidationError(
            f"network expects input depth {need}, tensor has {tensor.depth}"
        )
    outputs = []
    current = tensor
    for stage in spec.stages:
        if isinstance(stage, ConvLayerSpec):
            current = conv_forward(current, stage)
        elif isinstance(stage, ReluStage):
            current = relu_forward(current)
        else:
            current = maxpool_forward(current, stage.size, stage.stride)
        outputs.append(current)
    return outputs


def _parse_tokens(tokens: list[str], line_no: int, path) -> dict:
    pairs = {}
    for token in tokens:
        if "=" not in token:
            raise ConfigError(f"{path}:{line_no}: expected key=value, got {token!r}")
        key, value = token.split("=", 1)
        pairs[key] = value
    return pairs


def _parse_int(pairs: dict, key: str, line_no: int, path, default=None) -> int:
    if key not in pairs:
        if default is None:
            raise ConfigError(f"{path}:{line_no}: missing required key {key!r}")
        return default
    try:
        return int(pairs[key])
    except ValueError:
        raise ConfigError(f"{path}:{line_no}: {key} must be an integer") from None


def _reject_unknown_keys(pairs: dict, allowed: set, line_no: int, path) -> None:
    extra = sorted(set(pairs) - allowed)
    if extra:
        raise ConfigError(f"{path}:{line_no}: unknown option {extra[0]!r}")


def parse_network_file(path) -> NetworkSpec:
    """Read the plain-text network format described in the module docstring."""
    base = os.path.dirname(os.path.abspath(path))
    input_depth = None
    seed = 0
    stages = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not UTF-8 text") from None
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line and line.split("=", 1)[0].strip() in ("input_depth", "seed"):
            key, value = (part.strip() for part in line.split("=", 1))
            try:
                number = int(value)
            except ValueError:
                raise ConfigError(f"{path}:{line_no}: {key} must be an integer") from None
            if key == "input_depth":
                input_depth = number
            else:
                seed = number
            continue
        tokens = line.split()
        kind, rest = tokens[0], tokens[1:]
        if kind == "conv":
            pairs = _parse_tokens(rest, line_no, path)
            _reject_unknown_keys(
                pairs, {"kernel", "out_depth", "stride", "pad", "weights", "bias"},
                line_no, path,
            )
            kernel = pairs.get("kernel", "")
            if "x" not in kernel:
                raise ConfigError(f"{path}:{line_no}: conv needs kernel=HxW")
            try:
                kh, kw = (int(part) for part in kernel.split("x", 1))
            except ValueError:
                raise ConfigError(f"{path}:{line_no}: bad kernel {kernel!r}") from None
            out_depth = _parse_int(pairs, "out_depth", line_no, path)
            stride = _parse_int(pairs, "stride", line_no, path, default=1)
            pad = _parse_int(pairs, "pad", line_no, path, default=0)
            in_depth = _current_depth(stages, input_depth, line_no, path)
            weights = bias = None
            if "weights" in pairs:
                weights = load_features(os.path.join(base, pairs["weights"])).data
            if "bias" in pairs:
                bias = load_features(os.path.join(base, pairs["bias"])).data
            try:
                stages.append(ConvLayerSpec(
                    kernel_h=kh, kernel_w=kw, in_depth=in_depth, out_depth=out_depth,
                    stride=stride, pad=pad, weights=weights, bias=bias,
                ))
            except ValidationError as exc:
                raise ConfigError(f"{path}:{line_no}: {exc}") from None
        elif kind == "relu":
            stages.append(ReluStage())
        elif kind == "maxpool":
            pairs = _parse_tokens(rest, line_no, path)
            _reject_unknown_keys(pairs, {"size", "stride"}, line_no, path)
            size = _parse_int(pairs, "size", line_no, path)
            stride = _parse_int(pairs, "stride", line_no, path, default=size)
            try:
                stages.append(MaxPoolStage(size=size, stride=stride))
            except ValidationError as exc:
                raise ConfigError(f"{path}:{line_no}: {exc}") from None
        else:
            raise ConfigError(f"{path}:{line_no}: unknown stage {kind!r}")
    if not stages:
        raise ConfigError(f"{path}: network file declares no stages")
    try:
        return NetworkSpec(stages=stages, seed=seed)
    except ValidationError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _current_depth(stages, input_depth, line_no, path) -> int:
    for stage in reversed(stages):
        if isinstance(stage, ConvLayerSpec):
            return stage.out_depth
    if input_depth is None:
        raise ConfigError(f"{path}:{line_no}: first conv needs an input_depth header")
    return input_depth


def write_network_file(spec: NetworkSpec, path) -> None:
    """Write a network file plus one weight/bias sidecar pair per conv."""
    base = os.path.dirname(os.path.abspath(path))
    stem = os.path.splitext(os.path.basename(path))[0]
    depth = spec.input_depth()
    lines = []
    if depth is not None:
        lines.append(f"input_depth = {depth}")
    lines.append(f"seed = {spec.seed}")
    conv_no = 0
    for s in spec.stages:
        if isinstance(s, ConvLayerSpec):
            wname = f"{stem}_conv{conv_no}_w.fmat"
            bname = f"{stem}_conv{conv_no}_b.fmat"
            save_features(s.weights.reshape(s.out_depth, -1), os.path.join(base, wname))
            save_features(s.bias.reshape(1, -1), os.path.join(base, bname))
            lines.append(
                f"conv out_depth={s.out_depth} kernel={s.kernel_h}x{s.kernel_w} "
                f"stride={s.stride} pad={s.pad} weights={wname} bias={bname}"
            )
            conv_no += 1
        elif isinstance(s, ReluStage):
            lines.append("relu")
        else:
            lines.append(f"maxpool size={s.size} stride={s.stride}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
