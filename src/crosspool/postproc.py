"""PCA projection, power normalization, and 2-bit sign quantization.

Quantization keeps only the sign of each dimension, two bits per dimension,
four dimensions per byte: code 00 for zero, 01 for positive, 10 for
negative; 11 never appears.  Dimension j occupies bits 2*(j % 4) and
2*(j % 4) + 1 of byte j // 4, and padding bits in the last byte are zero.
``sign_quantize`` turns a (count, dim) matrix into a (count, ceil(dim/4))
uint8 code matrix, comparing in the input's own dtype and packing four
codes with one 32-bit product.  ``sign_unpack`` expands codes back to
float32 -1/0/+1 by gathering one 16-byte row (four float32 signs) per code
byte.  Because padding codes are zero, an unpacked block of whole bytes
can enter an inner product as is: ``svm.kernels`` unpacks the codes one
column block at a time and multiplies each block with one BLAS product,
which is exact (see ``svm``).

File containers (integers unsigned 32-bit little-endian):

    sign stack    magic ``CPSIGS01`` | count | dim | count*ceil(dim/4) bytes
    PCA model     magic ``CPPCA001`` | input_dim | output_dim | mean
                  (input_dim float32) | basis (output_dim*input_dim float32,
                  row-major) | eigenvalues (output_dim float32)

A sign stack holding the code 11 or nonzero padding bits is rejected on
load, since the kernel would count the padding as phantom dimensions.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, RankError, ValidationError
from .tensor import read_header, read_payload

SIGN_STACK_MAGIC = b"CPSIGS01"
PCA_MAGIC = b"CPPCA001"

_HEADER = struct.Struct("<II")  # count, dim or input_dim, output_dim
_LOW_BITS = 0b01010101
# row b holds the four dimensions of byte b as float32 signs
_BYTE_CODES = (np.arange(256)[:, None] >> np.array([0, 2, 4, 6])) & 0b11
_BYTE_SIGNS = (_BYTE_CODES == 0b01).astype(np.float32) - (_BYTE_CODES == 0b10)
# the same rows as single 16-byte items, so that ``np.take`` copies whole rows
_BYTE_SIGNS16 = _BYTE_SIGNS.view(np.complex128).ravel()
# times a little-endian word of four codes (byte i holds code i), moves code
# i to bits 24 + 2i; every cross term lands on its own two bits below bit 24,
# so no carry reaches the top byte
_PACK_FACTOR = np.uint32(0x01041040)


@dataclass
class PcaModel:
    """Affine projection onto the leading principal directions.

    ``basis`` rows are orthonormal and ordered by nonincreasing eigenvalue;
    each row's largest-magnitude entry is positive so a fit is reproducible
    up to the eigensolver's tolerance rather than up to sign.
    """

    mean: np.ndarray
    basis: np.ndarray
    eigenvalues: np.ndarray

    def __post_init__(self):
        mean = np.ascontiguousarray(np.asarray(self.mean, dtype=np.float64)).ravel()
        basis = np.ascontiguousarray(np.asarray(self.basis, dtype=np.float64))
        eigenvalues = np.ascontiguousarray(
            np.asarray(self.eigenvalues, dtype=np.float64)
        ).ravel()
        if basis.ndim != 2:
            raise ValidationError(f"basis must be 2-d, got shape {basis.shape}")
        if basis.shape[1] != mean.size:
            raise ValidationError(
                f"basis row dim {basis.shape[1]} does not match mean dim {mean.size}"
            )
        if eigenvalues.size != basis.shape[0]:
            raise ValidationError(
                f"{eigenvalues.size} eigenvalues for {basis.shape[0]} basis rows"
            )
        if eigenvalues.size and eigenvalues.min() < 0:
            raise ValidationError("eigenvalues must be nonnegative")
        # Tolerance absorbs float32 rounding of near-equal eigenvalues on reload.
        slack = 1e-5 * float(eigenvalues[0]) if eigenvalues.size else 0.0
        if np.any(np.diff(eigenvalues) > slack):
            raise ValidationError("eigenvalues must be nonincreasing")
        gram = basis @ basis.T
        if not np.allclose(gram, np.eye(basis.shape[0]), atol=1e-5):
            raise ValidationError("basis rows are not orthonormal within 1e-5")
        self.mean = mean
        self.basis = basis
        self.eigenvalues = eigenvalues

    @property
    def input_dim(self) -> int:
        return self.mean.size

    @property
    def output_dim(self) -> int:
        return self.basis.shape[0]


def pca_fit(sample: np.ndarray, output_dim: int) -> PcaModel:
    """Fit by eigendecomposition of the covariance of a (count, dim) sample
    (denominator count - 1); raises RankError when the sample cannot support
    output_dim components."""
    data = np.asarray(sample, dtype=np.float64)
    count, dim = data.shape
    if count < 2:
        raise ContractError(f"PCA needs at least 2 samples, got {count}")
    if output_dim < 1:
        raise ContractError("PCA output_dim must be positive")
    limit = min(count - 1, dim)
    if output_dim > limit:
        raise ContractError(
            f"output_dim {output_dim} exceeds min(count-1, dim) = {limit}"
        )
    mean = data.mean(axis=0)
    centered = data - mean
    cov = centered.T @ centered / (count - 1)
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = eigenvalues[order]
    eigenvectors = eigenvectors[:, order]
    top = eigenvalues[0] if eigenvalues.size else 0.0
    threshold = max(top, 0.0) * 1e-10
    rank = int(np.sum(eigenvalues > threshold))
    if output_dim > rank:
        raise RankError(
            f"sample supports at most {rank} components, requested {output_dim}",
            achievable_rank=rank,
        )
    basis = eigenvectors[:, :output_dim].T.copy()
    for row in basis:
        pivot = int(np.argmax(np.abs(row)))
        if row[pivot] < 0:
            row *= -1.0
    return PcaModel(
        mean=mean,
        basis=basis,
        eigenvalues=np.clip(eigenvalues[:output_dim], 0.0, None),
    )


def pca_project(model: PcaModel, matrix: np.ndarray) -> np.ndarray:
    """Center the (count, input_dim) rows by the model mean and project
    them onto the basis rows."""
    if matrix.ndim != 2 or matrix.shape[1] != model.input_dim:
        raise ContractError(
            f"features of shape {matrix.shape} do not have the model's "
            f"input dim {model.input_dim}"
        )
    return (matrix.astype(np.float64, copy=False) - model.mean) @ model.basis.T


def power_normalize(values: np.ndarray) -> np.ndarray:
    """Signed square root, elementwise: sign(v) * sqrt(|v|), in float32 for
    float32 input and in float64 for any other.

    Built in one output array; like ``np.sign``, both zeros give +0.0."""
    arr = np.asarray(values)
    if arr.dtype != np.float32:
        arr = arr.astype(np.float64, copy=False)
    out = np.abs(arr)
    np.sqrt(out, out=out)
    if (arr < 0).any():
        # signed input, as after PCA, takes its signs back in one pass;
        # adding +0.0 turns the -0.0 that copysign gives into +0.0
        np.copysign(out, arr, out=out)
        out += 0.0
    return out


def sign_quantize(values: np.ndarray) -> np.ndarray:
    """Codes of each row of a (count, dim) matrix, shape (count, ceil(dim/4))."""
    arr = np.asarray(values)
    if arr.ndim != 2 or arr.shape[1] < 1:
        raise ValidationError(f"cannot quantize an array of shape {arr.shape}")
    count, dim = arr.shape
    codes = np.zeros((count, (dim + 3) // 4 * 4), dtype=np.uint8)
    signs = codes[:, :dim]  # one code per byte, the padding stays 0
    np.less(arr, 0, out=signs.view(bool))  # 1 where negative
    signs += signs  # 2 where negative
    signs += arr > 0  # 1 where positive
    words = codes.view("<u4")
    words *= _PACK_FACTOR
    words >>= 24
    return words.astype(np.uint8)


def sign_unpack(codes: np.ndarray) -> np.ndarray:
    """Expand a code matrix to float32 -1/0/+1, four columns per byte, by
    gathering each byte's 16-byte row of signs; the columns past dim are
    the zero padding."""
    return np.take(_BYTE_SIGNS16, np.asarray(codes, dtype=np.uint8)).view(np.float32)


def save_sign_stack(codes: np.ndarray, dim: int, path) -> None:
    """Write a (count, ceil(dim/4)) code matrix as a CPSIGS01 file."""
    if codes.ndim != 2 or codes.shape[0] < 1 or dim < 1:
        raise ValidationError("cannot save an empty sign stack")
    if codes.shape[1] != (dim + 3) // 4:
        raise ContractError(
            f"{codes.shape[1]} code bytes per row do not hold dim {dim}"
        )
    with open(path, "wb") as fh:
        fh.write(SIGN_STACK_MAGIC)
        fh.write(_HEADER.pack(codes.shape[0], dim))
        fh.write(np.ascontiguousarray(codes, dtype=np.uint8).tobytes())


def load_sign_stack(path) -> tuple[np.ndarray, int]:
    """Read a CPSIGS01 file; returns its code matrix and dim."""
    with open(path, "rb", buffering=0) as fh:
        count, dim = read_header(fh, path, SIGN_STACK_MAGIC, _HEADER, "sign-stack")
        if dim < 1 or count < 1:
            raise ValidationError(f"{path}: header declares an empty stack")
        codes = read_payload(fh, path, np.uint8, (count, (dim + 3) // 4))
    if np.any(codes & (codes >> 1) & _LOW_BITS):
        raise ValidationError(f"{path}: sign stack contains the invalid code 11")
    spare = dim % 4
    if spare and np.any(codes[:, -1] >> (2 * spare)):
        raise ValidationError(f"{path}: sign stack has nonzero padding bits")
    return codes, dim


def save_pca(model: PcaModel, path) -> None:
    with open(path, "wb") as fh:
        fh.write(PCA_MAGIC)
        fh.write(_HEADER.pack(model.input_dim, model.output_dim))
        fh.write(model.mean.astype("<f4").tobytes())
        fh.write(model.basis.astype("<f4").tobytes())
        fh.write(model.eigenvalues.astype("<f4").tobytes())


def load_pca(path) -> PcaModel:
    with open(path, "rb", buffering=0) as fh:
        input_dim, output_dim = read_header(fh, path, PCA_MAGIC, _HEADER, "PCA")
        if input_dim < 1 or output_dim < 1:
            raise ValidationError(f"{path}: header declares a zero dimension")
        floats = read_payload(
            fh, path, "<f4", (input_dim + output_dim * input_dim + output_dim,)
        ).astype(np.float64)
    mean = floats[:input_dim]
    basis = floats[input_dim : input_dim + output_dim * input_dim]
    eigenvalues = floats[input_dim + output_dim * input_dim :]
    return PcaModel(
        mean=mean, basis=basis.reshape(output_dim, input_dim), eigenvalues=eigenvalues
    )
