"""Activation tensors, feature matrices, and their binary containers.

File layout, shared by both containers (integers are unsigned 32-bit
little-endian, floats are IEEE 754 binary32 little-endian):

    tensor file   magic ``CPTENS01`` | height | width | depth |
                  rectified (one byte, 0 or 1) | height*width*depth floats
    matrix file   magic ``CPFMAT01`` | count | dim | count*dim floats

Payloads are row-major: tensors iterate (row, column, channel), matrices
iterate (row, column).  The tensor layout keeps each spatial unit's channel
vector contiguous, which is the access pattern of every consumer here.

Loaders of these and the other containers share ``read_header`` and
``read_payload``: the payload is read straight into its array, so a loaded
file is held in memory once.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import CorruptionError, FormatError, ValidationError

TENSOR_MAGIC = b"CPTENS01"
MATRIX_MAGIC = b"CPFMAT01"

_TENSOR_HEADER = struct.Struct("<III B")
_MATRIX_HEADER = struct.Struct("<II")


@dataclass
class ActivationTensor:
    """One layer's activations on an (height, width, depth) float32 grid.

    ``rectified`` marks the tensor as the output of a ReLU stage; setting it
    on data with negative entries is rejected.  The array is made read-only,
    so a tensor's values cannot change once it is built.
    """

    data: np.ndarray
    rectified: bool = False

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.data, dtype=np.float32))
        if arr.ndim != 3:
            raise ValidationError(
                f"tensor data must have shape (height, width, depth), got {arr.shape}"
            )
        if min(arr.shape) < 1:
            raise ValidationError(f"tensor dimensions must be positive, got {arr.shape}")
        if self.rectified and arr.size and float(arr.min()) < 0.0:
            raise ValidationError("tensor marked rectified but contains negative values")
        arr.flags.writeable = False
        self.data = arr

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def depth(self) -> int:
        return self.data.shape[2]


@dataclass
class FeatureMatrix:
    """A stack of ``count`` feature vectors of identical dimension ``dim``."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        arr = np.ascontiguousarray(arr)
        if arr.ndim != 2:
            raise ValidationError(f"feature matrix must be 2-d, got shape {arr.shape}")
        if arr.shape[1] < 1:
            raise ValidationError("feature dimension must be positive")
        self.data = arr

    @property
    def count(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


def read_header(fh, path, magic: bytes, header: struct.Struct, what: str) -> tuple:
    """Check a container's magic and unpack the fixed header that follows."""
    head = fh.read(len(magic) + header.size)
    if len(head) < len(magic) + header.size:
        raise FormatError(f"{path}: file too short for a {what} header")
    if head[: len(magic)] != magic:
        raise FormatError(f"{path}: bad magic, expected {magic!r}")
    return header.unpack_from(head, len(magic))


def read_payload(fh, path, dtype, shape) -> np.ndarray:
    """Read the rest of an open container straight into a new array.

    The size the header promises is checked against the file's size before
    anything is allocated, and against the bytes actually read after, so a
    truncated or overlong file raises CorruptionError and the payload is
    held in memory once.  The loaders open their files unbuffered, so the
    payload goes from the kernel into the array without a second copy.
    """
    dtype = np.dtype(dtype)
    expected = dtype.itemsize * math.prod(shape)
    held = os.fstat(fh.fileno()).st_size - fh.tell()
    if held != expected:
        raise CorruptionError(
            f"{path}: payload holds {held} bytes, header promises {expected}"
        )
    out = np.empty(shape, dtype=dtype)
    view = out.reshape(-1).view(np.uint8)
    got = 0
    # one read returns at most about 2 GiB on Linux
    while got < expected and (count := fh.readinto(view[got:])):
        got += count
    if got != expected:
        raise CorruptionError(f"{path}: read {got} payload bytes, header promises {expected}")
    return out


def save_tensor(tensor: ActivationTensor, path) -> None:
    payload = tensor.data.astype("<f4", copy=False).tobytes()
    header = TENSOR_MAGIC + _TENSOR_HEADER.pack(
        tensor.height, tensor.width, tensor.depth, int(tensor.rectified)
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def load_tensor(path) -> ActivationTensor:
    with open(path, "rb", buffering=0) as fh:
        h, w, d, flag = read_header(fh, path, TENSOR_MAGIC, _TENSOR_HEADER, "tensor")
        if min(h, w, d) < 1:
            raise ValidationError(
                f"{path}: header declares a zero dimension ({h}, {w}, {d})"
            )
        if flag not in (0, 1):
            raise FormatError(f"{path}: rectified flag must be 0 or 1, got {flag}")
        values = read_payload(fh, path, "<f4", (h, w, d))
    return ActivationTensor(values, rectified=bool(flag))


def save_features(matrix: FeatureMatrix, path) -> None:
    # a float32 matrix is written from its own buffer, without a bytes copy
    payload = matrix.data.astype("<f4", copy=False)
    header = MATRIX_MAGIC + _MATRIX_HEADER.pack(matrix.count, matrix.dim)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def load_features(path) -> FeatureMatrix:
    with open(path, "rb", buffering=0) as fh:
        count, dim = read_header(fh, path, MATRIX_MAGIC, _MATRIX_HEADER, "feature-matrix")
        if dim < 1:
            raise ValidationError(f"{path}: header declares zero feature dimension")
        values = read_payload(fh, path, "<f4", (count, dim))
    return FeatureMatrix(values)
