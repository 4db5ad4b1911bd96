"""Linear classification from precomputed kernels.

Every kernel is one BLAS matrix product.  Float representations are upcast
to float64 and multiplied as ``q @ t.T``.  Sign codes (see ``postproc``)
are multiplied from their packed code matrices in fixed column blocks of
``SIGN_BLOCK_BYTES`` bytes: each block is unpacked to float32 -1/0/+1 and
its product added into a float64 result.  The sum is exact at any
dimension.  A block spans at most 4 * SIGN_BLOCK_BYTES = 4096 dimensions,
so every partial sum inside a block's product is an integer of magnitude
at most 4096, well below the 2**24 that float32 holds exactly, and the
float64 sum over blocks stays exact up to 2**53.  Unpacking block by block
bounds the float32 copy at count * 4 * SIGN_BLOCK_BYTES values, where
unpacking the whole matrix would take count * dim.

Training is one-vs-rest.  Each binary problem is the box-constrained dual

    min over 0 <= alpha <= C of  (1/2) alpha' Q alpha - sum(alpha),
    Q[i, j] = y_i y_j (K[i, j] + c0),      c0 = trace(K) / n,

solved by coordinate ascent in a fixed cyclic sweep until every projected
gradient is within tol or the sweep cap is reached.  When the largest
projected gradient at the returned alpha is above tol, training warns.
The c0 offset is the usual augmented-bias trick
(one constant pseudo-feature of squared norm c0), giving bias
c0 * sum(alpha * y); tying c0 to the kernel's own scale keeps decisions
exactly invariant under rescaling representations by s with C / s**2.

Model container (integers unsigned 32-bit LE, floats IEEE binary64 LE):

    magic ``CPSVM001`` | class count | train count | C (float64) | then per
    class: label length | label (UTF-8) | bias (float64) | train-count dual
    coefficients (float64)
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ContractError,
    CorruptionError,
    FormatError,
    ValidationError,
)
from .postproc import sign_unpack
from .tensor import FeatureMatrix

SVM_MAGIC = b"CPSVM001"

DEFAULT_C = 1.0
DEFAULT_TOL = 1e-4
MAX_SWEEPS = 2000
SIGN_BLOCK_BYTES = 1024


@dataclass
class GramMatrix:
    """Symmetric matrix of pairwise representation inner products."""

    values: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValidationError(f"Gram matrix must be square, got {values.shape}")
        if values.shape[0] < 1:
            raise ValidationError("Gram matrix must be nonempty")
        scale = float(np.abs(values).max())
        if not np.allclose(values, values.T, atol=1e-5 * max(scale, 1.0)):
            raise ValidationError("Gram matrix is not symmetric within 1e-5")
        if float(values.diagonal().min()) < 0.0:
            raise ValidationError("Gram diagonal must be nonnegative")
        self.values = values

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass
class SvmModel:
    """One-vs-rest dual coefficients over the training kernel."""

    classes: tuple[str, ...]
    dual_coeffs: np.ndarray
    biases: np.ndarray
    regularization_c: float

    def __post_init__(self):
        self.classes = tuple(self.classes)
        coeffs = np.ascontiguousarray(np.asarray(self.dual_coeffs, dtype=np.float64))
        biases = np.ascontiguousarray(np.asarray(self.biases, dtype=np.float64)).ravel()
        if coeffs.ndim != 2 or coeffs.shape[0] != len(self.classes):
            raise ValidationError("dual_coeffs must have one row per class")
        if biases.size != len(self.classes):
            raise ValidationError("biases must have one entry per class")
        if len(self.classes) < 2:
            raise ValidationError("a model needs at least two classes")
        if coeffs.size and float(np.abs(coeffs).max()) > self.regularization_c + 1e-9:
            raise ValidationError("dual coefficients exceed the box constraint")
        self.dual_coeffs = coeffs
        self.biases = biases

    @property
    def train_count(self) -> int:
        return self.dual_coeffs.shape[1]


def gram_matrix(reps: FeatureMatrix) -> GramMatrix:
    """Pairwise inner products of the representation rows."""
    if reps.count < 1:
        raise ContractError("Gram matrix needs at least one representation")
    return GramMatrix(kernel_rows(reps, reps))


def kernel_rows(queries: FeatureMatrix, train: FeatureMatrix) -> np.ndarray:
    """Inner products of each query row against every training row."""
    if queries.dim != train.dim:
        raise ContractError(
            f"query dim {queries.dim} does not match training dim {train.dim}"
        )
    q = queries.data.astype(np.float64, copy=False)
    t = q if train is queries else train.data.astype(np.float64, copy=False)
    return q @ t.T


def sign_kernel_rows(q_codes: np.ndarray, t_codes: np.ndarray) -> np.ndarray:
    """Exact inner products of each query sign vector against every training
    sign vector, from their (count, ceil(dim/4)) packed code matrices."""
    if q_codes.shape[0] < 1 or t_codes.shape[0] < 1:
        raise ContractError("sign kernel rows need nonempty inputs")
    if q_codes.shape[1] != t_codes.shape[1]:
        raise ContractError(
            f"query codes hold {q_codes.shape[1]} bytes per row, "
            f"training codes {t_codes.shape[1]}"
        )
    out = np.zeros((q_codes.shape[0], t_codes.shape[0]))
    for lo in range(0, q_codes.shape[1], SIGN_BLOCK_BYTES):
        block = slice(lo, lo + SIGN_BLOCK_BYTES)
        out += sign_unpack(q_codes[:, block]) @ sign_unpack(t_codes[:, block]).T
    return out


def _normalize_labels(labels: Sequence) -> list[frozenset[str]]:
    out = []
    for entry in labels:
        if isinstance(entry, str):
            out.append(frozenset([entry]))
        else:
            names = frozenset(str(x) for x in entry)
            if not names:
                raise ValidationError("every example needs at least one label")
            out.append(names)
    return out


def _solve_binary(
    augmented: np.ndarray,
    diag: np.ndarray,
    y: np.ndarray,
    c: float,
    tol: float,
    max_sweeps: int,
) -> tuple[np.ndarray, float]:
    """Cyclic coordinate ascent on the box-constrained dual; returns alpha
    and the largest projected gradient at that alpha.

    A sweep stops the loop when no coordinate it visits has a projected
    gradient above tol; later updates in that sweep move the earlier
    coordinates' gradients, so the returned value is measured afresh.
    """
    n = y.size
    alpha = np.zeros(n)
    pooled = np.zeros(n)  # augmented @ (alpha * y)
    for _ in range(max_sweeps):
        worst = 0.0
        for i in range(n):
            grad = y[i] * pooled[i] - 1.0
            a = alpha[i]
            if a <= 0.0:
                projected = min(grad, 0.0)
            elif a >= c:
                projected = max(grad, 0.0)
            else:
                projected = grad
            if projected == 0.0:
                continue
            worst = max(worst, abs(projected))
            if diag[i] <= 0.0:
                continue
            updated = min(max(a - grad / diag[i], 0.0), c)
            delta = updated - a
            if delta != 0.0:
                alpha[i] = updated
                pooled += (delta * y[i]) * augmented[i]
        if worst <= tol:
            break
    grad = y * pooled - 1.0
    projected = np.where(
        alpha <= 0.0, np.minimum(grad, 0.0), np.where(alpha >= c, np.maximum(grad, 0.0), grad)
    )
    return alpha, float(np.abs(projected).max())


def svm_train(
    gram: GramMatrix,
    labels: Sequence,
    c: float = DEFAULT_C,
    tol: float = DEFAULT_TOL,
    max_sweeps: int = MAX_SWEEPS,
) -> SvmModel:
    """Train one-vs-rest classifiers on a precomputed training kernel.

    ``labels`` holds one label per training row, or an iterable of labels
    for multi-label data; a class's binary problem takes every example that
    carries the class as positive.  A class whose solver stops with a
    projected gradient above ``tol`` raises a RuntimeWarning.
    """
    n = gram.n
    if len(labels) != n:
        raise ContractError(f"{len(labels)} labels for {n} kernel rows")
    if c <= 0.0:
        raise ValidationError("regularization C must be positive")
    if tol <= 0.0:
        raise ValidationError("tolerance must be positive")
    label_sets = _normalize_labels(labels)
    classes = sorted(set().union(*label_sets))
    if len(classes) < 2:
        raise ContractError(f"training needs at least 2 classes, got {len(classes)}")
    offset = float(np.trace(gram.values)) / n
    augmented = gram.values + offset
    diag = augmented.diagonal().copy()

    dual, biases = [], []
    for name in classes:
        y = np.where([name in s for s in label_sets], 1.0, -1.0)
        alpha, gradient = _solve_binary(augmented, diag, y, c, tol, max_sweeps)
        if gradient > tol:
            warnings.warn(
                f"class {name!r} not converged: max projected gradient "
                f"{gradient:.3g} above tol {tol:g} (sweep cap {max_sweeps})",
                RuntimeWarning,
                stacklevel=2,
            )
        beta = alpha * y
        dual.append(beta)
        biases.append(offset * float(beta.sum()))
    return SvmModel(
        classes=classes,
        dual_coeffs=np.stack(dual),
        biases=np.array(biases),
        regularization_c=c,
    )


def svm_predict(model: SvmModel, kernel_row: np.ndarray) -> tuple[str, np.ndarray]:
    """Score one example given its kernel row against the training set.

    Returns the argmax class (ties go to the smallest class index) and the
    per-class scores aligned with ``model.classes``.
    """
    row = np.asarray(kernel_row, dtype=np.float64).ravel()
    if row.size != model.train_count:
        raise ContractError(
            f"kernel row has {row.size} entries, model expects {model.train_count}"
        )
    scores = model.dual_coeffs @ row + model.biases
    return model.classes[int(np.argmax(scores))], scores


def save_svm(model: SvmModel, path) -> None:
    with open(path, "wb") as fh:
        fh.write(SVM_MAGIC)
        fh.write(
            struct.pack(
                "<IId", len(model.classes), model.train_count, model.regularization_c
            )
        )
        for index, name in enumerate(model.classes):
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<d", float(model.biases[index])))
            fh.write(model.dual_coeffs[index].astype("<f8").tobytes())


def load_svm(path) -> SvmModel:
    with open(path, "rb") as fh:
        blob = fh.read()
    header = struct.Struct("<IId")
    if len(blob) < len(SVM_MAGIC) + header.size:
        raise FormatError(f"{path}: file too short for a model header")
    if blob[: len(SVM_MAGIC)] != SVM_MAGIC:
        raise FormatError(f"{path}: bad magic, expected {SVM_MAGIC!r}")
    n_classes, n_train, c = header.unpack_from(blob, len(SVM_MAGIC))
    if n_classes < 2:
        raise ValidationError(f"{path}: model declares {n_classes} classes")
    cursor = len(SVM_MAGIC) + header.size
    classes = []
    biases = []
    rows = []
    for _ in range(n_classes):
        if cursor + 4 > len(blob):
            raise CorruptionError(f"{path}: truncated class record")
        (name_len,) = struct.unpack_from("<I", blob, cursor)
        cursor += 4
        record = name_len + 8 + 8 * n_train
        if cursor + record > len(blob):
            raise CorruptionError(f"{path}: truncated class record")
        classes.append(blob[cursor : cursor + name_len].decode("utf-8"))
        cursor += name_len
        (bias,) = struct.unpack_from("<d", blob, cursor)
        cursor += 8
        biases.append(bias)
        rows.append(np.frombuffer(blob, dtype="<f8", count=n_train, offset=cursor).copy())
        cursor += 8 * n_train
    if cursor != len(blob):
        raise CorruptionError(f"{path}: {len(blob) - cursor} trailing bytes")
    return SvmModel(
        classes=classes,
        dual_coeffs=np.stack(rows),
        biases=np.array(biases),
        regularization_c=c,
    )
