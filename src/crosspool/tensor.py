"""Activation tensors, feature matrices, and their binary containers.

Feature matrices pass between modules as plain (count, dim) arrays.
``save_features`` takes one and checks that it is 2-D with dim >= 1.
``load_features`` returns its array as the ``data`` field of
``FeatureMatrix``, a holder that remains only because the benchmark reads
``load_features(...).data``.

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
file is held in memory once.  ``ColumnReader`` reads a matrix file one
column block at a time instead, so a caller that walks the columns holds
one block, never the whole matrix.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, CorruptionError, FormatError, ValidationError

TENSOR_MAGIC = b"CPTENS01"
MATRIX_MAGIC = b"CPFMAT01"

_TENSOR_HEADER = struct.Struct("<III B")
_MATRIX_HEADER = struct.Struct("<II")


@dataclass
class ActivationTensor:
    """One layer's activations on an (height, width, depth) float32 grid,
    or a batch of N such grids stacked as (N, height, width, depth).

    ``height``, ``width`` and ``depth`` read the last three axes.  The
    network's stages and local-feature extraction take either form; saving
    and cutting into parts reject a batch.  Past the network, parts and
    layer t+1 units travel as plain arrays.
    ``rectified`` marks the tensor as the output of a ReLU stage; setting it
    on data with negative entries is rejected.  The array is made read-only,
    so a tensor's values cannot change once it is built.
    """

    data: np.ndarray
    rectified: bool = False

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.data, dtype=np.float32))
        if arr.ndim not in (3, 4):
            raise ValidationError(
                "tensor data must have shape (height, width, depth) or "
                f"(batch, height, width, depth), got {arr.shape}"
            )
        if min(arr.shape) < 1:
            raise ValidationError(f"tensor dimensions must be positive, got {arr.shape}")
        if self.rectified and arr.size and float(arr.min()) < 0.0:
            raise ValidationError("tensor marked rectified but contains negative values")
        arr.flags.writeable = False
        self.data = arr

    @property
    def height(self) -> int:
        return self.data.shape[-3]

    @property
    def width(self) -> int:
        return self.data.shape[-2]

    @property
    def depth(self) -> int:
        return self.data.shape[-1]


def require_single(data: np.ndarray, what: str) -> None:
    """Reject a batch where one image's (height, width, depth) array is expected."""
    if data.ndim != 3:
        raise ValidationError(
            f"{what} takes one (height, width, depth) tensor, got shape {data.shape}"
        )


@dataclass
class FeatureMatrix:
    """The array ``load_features`` read.  It remains only because
    ``perfbench/run.py::svm_diagnostics`` reads ``load_features(...).data``."""

    data: np.ndarray


def read_header(fh, path, magic: bytes, header: struct.Struct, what: str) -> tuple:
    """Check a container's magic and unpack the fixed header that follows."""
    head = fh.read(len(magic) + header.size)
    if len(head) < len(magic) + header.size:
        raise FormatError(f"{path}: file too short for a {what} header")
    if head[: len(magic)] != magic:
        raise FormatError(f"{path}: bad magic, expected {magic!r}")
    return header.unpack_from(head, len(magic))


def check_payload_size(fh, path, dtype, shape) -> None:
    """Raise CorruptionError unless the rest of an open container holds
    exactly the payload its header promises."""
    expected = np.dtype(dtype).itemsize * math.prod(shape)
    held = os.fstat(fh.fileno()).st_size - fh.tell()
    if held != expected:
        raise CorruptionError(
            f"{path}: payload holds {held} bytes, header promises {expected}"
        )


def read_payload(fh, path, dtype, shape) -> np.ndarray:
    """Read the rest of an open container straight into a new array.

    The size the header promises is checked against the file's size before
    anything is allocated, and against the bytes actually read after, so a
    truncated or overlong file raises CorruptionError and the payload is
    held in memory once.  The loaders open their files unbuffered, so the
    payload goes from the kernel into the array without a second copy.
    """
    check_payload_size(fh, path, dtype, shape)
    out = np.empty(shape, dtype=dtype)
    view = out.reshape(-1).view(np.uint8)
    got = 0
    # one read returns at most about 2 GiB on Linux
    while got < view.size and (count := fh.readinto(view[got:])):
        got += count
    if got != view.size:
        raise CorruptionError(f"{path}: read {got} payload bytes, header promises {view.size}")
    return out


def save_tensor(tensor: ActivationTensor, path) -> None:
    require_single(tensor.data, "save_tensor")
    payload = tensor.data.astype("<f4", copy=False).tobytes()
    header = TENSOR_MAGIC + _TENSOR_HEADER.pack(
        tensor.height, tensor.width, tensor.depth, int(tensor.rectified)
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def _read_tensor_header(fh, path) -> tuple[tuple[int, int, int], int]:
    h, w, d, flag = read_header(fh, path, TENSOR_MAGIC, _TENSOR_HEADER, "tensor")
    if min(h, w, d) < 1:
        raise ValidationError(f"{path}: header declares a zero dimension ({h}, {w}, {d})")
    if flag not in (0, 1):
        raise FormatError(f"{path}: rectified flag must be 0 or 1, got {flag}")
    return (h, w, d), flag


def tensor_shape(path) -> tuple[int, int, int]:
    """The (height, width, depth) that a tensor file's header declares,
    read without its payload."""
    with open(path, "rb", buffering=0) as fh:
        return _read_tensor_header(fh, path)[0]


def load_tensor(path) -> ActivationTensor:
    with open(path, "rb", buffering=0) as fh:
        shape, flag = _read_tensor_header(fh, path)
        values = read_payload(fh, path, "<f4", shape)
    if not np.isfinite(values).all():
        raise ValidationError(f"{path}: tensor holds NaN or infinite values")
    return ActivationTensor(values, rectified=bool(flag))


def matrix_header(count: int, dim: int) -> bytes:
    """The magic and header that start a matrix file of count rows of dim."""
    return MATRIX_MAGIC + _MATRIX_HEADER.pack(count, dim)


def save_features(matrix: np.ndarray, path) -> None:
    """Write a (count, dim) array, dim >= 1, as a matrix file."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValidationError(f"feature matrix must be 2-d, got shape {matrix.shape}")
    if matrix.shape[1] < 1:
        raise ValidationError("feature dimension must be positive")
    # a float32 matrix is written from its own buffer, without a bytes copy
    payload = np.ascontiguousarray(matrix, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(matrix_header(*matrix.shape))
        fh.write(payload)


def _read_matrix_header(fh, path) -> tuple[int, int]:
    count, dim = read_header(fh, path, MATRIX_MAGIC, _MATRIX_HEADER, "feature-matrix")
    if dim < 1:
        raise ValidationError(f"{path}: header declares zero feature dimension")
    return count, dim


def load_features(path) -> FeatureMatrix:
    with open(path, "rb", buffering=0) as fh:
        shape = _read_matrix_header(fh, path)
        values = read_payload(fh, path, "<f4", shape)
    if not np.isfinite(values).all():
        raise ValidationError(f"{path}: feature matrix holds NaN or infinite values")
    return FeatureMatrix(values)


class ColumnReader:
    """An open matrix file that reads ``reader[:, lo:hi]`` column blocks.

    Each block is a new (count, hi - lo) float32 array filled with one
    ``os.preadv`` per row through the one descriptor the reader holds.  The
    header and payload size are checked on opening, as ``load_features``
    checks them.  Use it as a context manager, or call ``close``.
    """

    dtype = np.dtype("<f4")

    def __init__(self, path):
        self.path = path
        self._fh = open(path, "rb", buffering=0)
        try:
            self.shape = _read_matrix_header(self._fh, path)
            check_payload_size(self._fh, path, self.dtype, self.shape)
        except BaseException:
            self._fh.close()
            raise
        self._start = self._fh.tell()

    def __getitem__(self, key) -> np.ndarray:
        if not (isinstance(key, tuple) and len(key) == 2 and key[0] == slice(None)
                and isinstance(key[1], slice) and key[1].step in (None, 1)):
            raise ContractError("a column reader reads [:, lo:hi] blocks only")
        count, dim = self.shape
        lo, hi, _ = key[1].indices(dim)
        out = np.empty((count, max(hi - lo, 0)), dtype=self.dtype)
        for i, row in enumerate(out):
            offset = self._start + self.dtype.itemsize * (i * dim + lo)
            got = os.preadv(self._fh.fileno(), [row], offset)
            if got != row.nbytes:
                raise CorruptionError(
                    f"{self.path}: read {got} bytes of row {i}, expected {row.nbytes}"
                )
        return out

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
