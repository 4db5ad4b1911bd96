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
    Q[i, j] = y_i y_j (K[i, j] + c0),      c0 = trace(K) / n.

The c0 offset is the usual augmented-bias trick (one constant
pseudo-feature of squared norm c0), giving bias c0 * sum(alpha * y); tying
c0 to the kernel's own scale keeps decisions exactly invariant under
rescaling representations by s with C / s**2.

The dual is solved by a dense primal-dual interior-point method with
Mehrotra's predictor-corrector steps.  The upper slack s = C - alpha is a
variable of its own, since computing C - alpha near the upper bound loses
it to rounding.  Each iteration solves the Newton matrix
Q + diag(z_l / alpha + z_u / s), where z_l and z_u are the multipliers of
the two bounds, with ``np.linalg.solve`` twice: for the predictor and for
the corrector.  After each step the iterate names a face: a variable sits
at a bound when that bound's ratio z / distance exceeds Q_ii, a rule that
keeps its meaning when Q and C are rescaled.  Two candidates are measured,
the iterate with those variables moved onto their bounds and (once per
face) the exact minimizer on the face; the solver returns as soon as one
has a projected gradient within tol, measured at that alpha, and otherwise
returns the best one it saw, and training warns.

Gram matrices are read back from float32 files, so a Gram matrix of
rank r < n carries rounding noise of either sign in its null space and Q
is slightly indefinite (criterion 8's direct-max Gram: lambda_min -7e-5
against lambda_max 3.9e4).  Where the iterate's free block spans that
noise, Q + diag(...) goes singular and step lengths collapse.  After
three steps in a row shorter than a tenth, the solver adds rho * I to the
Newton matrix from then on (a proximal primal regularization, Friedlander
and Orban 2012), with rho = 2 sqrt(n) 2**-24 max(Q_ii).  Rounding to
float32 moves each entry by at most 2**-24 max(Q_ii), and n x n
independent errors of that size have a spectral norm of about
1.15 sqrt(n) 2**-24 max(Q_ii), so the regularized matrix stays positive
definite; a larger rho slows convergence along the null space.  Every
constant is relative to Q's scale, so rescaling K by a power of two and C
by its inverse rescales the solution exactly.

Model container (integers unsigned 32-bit LE, floats IEEE binary64 LE):

    magic ``CPSVM001`` | class count | train count | C (float64) | then per
    class: label length | label (UTF-8) | bias (float64) | train-count dual
    coefficients (float64)
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass, field
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
MAX_ITERATIONS = 200
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
    """One-vs-rest dual coefficients over the training kernel.

    ``solver`` holds the per-class solver diagnostics of the training run
    that produced the model; the model file does not store them.
    """

    classes: tuple[str, ...]
    dual_coeffs: np.ndarray
    biases: np.ndarray
    regularization_c: float
    solver: list[dict] = field(default_factory=list)

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


def _projected_gradient(q: np.ndarray, alpha: np.ndarray, c: float) -> float:
    """Largest projected gradient of the dual at ``alpha``."""
    grad = q @ alpha - 1.0
    grad = np.where(alpha <= 0.0, np.minimum(grad, 0.0),
                    np.where(alpha >= c, np.maximum(grad, 0.0), grad))
    return float(np.abs(grad).max())


def _longest_step(values, deltas) -> float:
    """Largest t <= 1 that keeps every ``value + t * delta`` nonnegative."""
    longest = 1.0
    for value, delta in zip(values, deltas):
        shrinking = delta < 0.0
        if shrinking.any():
            longest = min(longest, float((-value[shrinking] / delta[shrinking]).min()))
    return longest


def _face_minimizer(q, c, lower, upper) -> np.ndarray | None:
    """The dual's stationary point with ``lower`` at 0 and ``upper`` at C,
    clipped to the box; None when the free block is singular."""
    alpha = np.where(upper, c, 0.0)
    free = ~(lower | upper)
    if free.any():
        try:
            alpha[free] = np.linalg.solve(q[np.ix_(free, free)], 1.0 - q[free] @ alpha)
        except np.linalg.LinAlgError:
            return None
    return np.clip(alpha, 0.0, c)


def _newton_step(q, point, c, reg):
    """Mehrotra's predictor-corrector direction at ``point`` = (alpha,
    slack, z_l, z_u), or None when it is not finite."""
    alpha, slack, z_l, z_u = point
    n = alpha.size
    r_d = q @ alpha - 1.0 - z_l + z_u
    r_p = alpha + slack - c
    mu = (alpha @ z_l + slack @ z_u) / (2 * n)
    newton = q.copy()
    newton.flat[:: n + 1] += z_l / alpha + z_u / slack + reg

    def direction(r_l, r_u):
        d_alpha = np.linalg.solve(newton, -r_d - r_l / alpha + (r_u - z_u * r_p) / slack)
        d_slack = -r_p - d_alpha
        return (d_alpha, d_slack, (-r_l - z_l * d_alpha) / alpha,
                (-r_u - z_u * d_slack) / slack)

    try:
        da, ds, dzl, dzu = affine = direction(alpha * z_l, slack * z_u)
        t = _longest_step(point, affine)
        mu_affine = ((alpha + t * da) @ (z_l + t * dzl)
                     + (slack + t * ds) @ (z_u + t * dzu)) / (2 * n)
        target = (mu_affine / mu) ** 3 * mu
        step = direction(alpha * z_l + da * dzl - target, slack * z_u + ds * dzu - target)
    except np.linalg.LinAlgError:
        return None
    return step if all(np.isfinite(d).all() for d in step) else None


# an iterate pressed against a bound can overflow z / alpha; the non-finite
# step that follows is caught
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _solve_dual(q: np.ndarray, c: float, tol: float, max_iterations: int):
    """Interior-point solve of min 1/2 a'Qa - sum(a) over 0 <= a <= c.

    Returns alpha, the largest projected gradient at that alpha, the
    iterations taken, and whether the regularization was switched on.
    """
    n = q.shape[0]
    diag = q.diagonal()
    rho = 2.0 * np.sqrt(n) * 2.0**-24 * float(diag.max())
    reg = 0.0
    alpha = np.full(n, 0.5 * c)
    slack = np.full(n, 0.5 * c)
    grad = q @ alpha - 1.0
    z_l = 1.0 + np.maximum(grad, 0.0)
    z_u = 1.0 + np.maximum(-grad, 0.0)
    best, best_gradient = alpha, _projected_gradient(q, alpha, c)
    faces = set()
    stalls = 0
    iteration = 0
    while iteration < max_iterations and best_gradient > tol:
        iteration += 1
        point = (alpha, slack, z_l, z_u)
        step = _newton_step(q, point, c, reg)
        if step is None:
            if reg or not rho:
                break
            reg = rho
            continue
        t = 0.99 * _longest_step(point, step)
        alpha, slack, z_l, z_u = (v + t * d for v, d in zip(point, step))
        stalls = stalls + 1 if t < 0.1 else 0
        if stalls == 3:
            reg = rho

        at_lower, at_upper = z_l / alpha, z_u / slack
        lower = (at_lower > diag) & (at_lower >= at_upper)
        upper = (at_upper > diag) & (at_upper > at_lower)
        candidates = [np.where(lower, 0.0, np.where(upper, c, alpha))]
        face = (lower.tobytes(), upper.tobytes())
        if face not in faces:
            faces.add(face)
            candidates.append(_face_minimizer(q, c, lower, upper))
        for candidate in candidates:
            if candidate is not None:
                gradient = _projected_gradient(q, candidate, c)
                if gradient < best_gradient:
                    best, best_gradient = candidate, gradient
    return best, best_gradient, iteration, bool(reg)


def svm_train(
    gram: GramMatrix,
    labels: Sequence,
    c: float = DEFAULT_C,
    tol: float = DEFAULT_TOL,
    max_sweeps: int = MAX_ITERATIONS,
) -> SvmModel:
    """Train one-vs-rest classifiers on a precomputed training kernel.

    ``labels`` holds one label per training row, or an iterable of labels
    for multi-label data; a class's binary problem takes every example that
    carries the class as positive.  ``max_sweeps`` caps the interior-point
    iterations per class.  A class whose solver stops with a projected
    gradient above ``tol`` raises a RuntimeWarning.  The model's ``solver``
    holds each class's diagnostics.
    """
    n = gram.n
    if len(labels) != n:
        raise ContractError(f"{len(labels)} labels for {n} kernel rows")
    if c <= 0.0:
        raise ValidationError("regularization C must be positive")
    if tol <= 0.0:
        raise ValidationError("tolerance must be positive")
    if max_sweeps < 1:
        raise ValidationError("the iteration cap must be at least 1")
    label_sets = _normalize_labels(labels)
    classes = sorted(set().union(*label_sets))
    if len(classes) < 2:
        raise ContractError(f"training needs at least 2 classes, got {len(classes)}")
    offset = float(np.trace(gram.values)) / n
    augmented = gram.values + offset

    dual, biases, diagnostics = [], [], []
    for name in classes:
        y = np.where([name in s for s in label_sets], 1.0, -1.0)
        alpha, gradient, iterations, regularized = _solve_dual(
            y[:, None] * augmented * y, c, tol, max_sweeps
        )
        if gradient > tol:
            warnings.warn(
                f"class {name!r} not converged: max projected gradient "
                f"{gradient:.3g} above tol {tol:g} (iteration cap {max_sweeps})",
                RuntimeWarning,
                stacklevel=2,
            )
        beta = alpha * y
        dual.append(beta)
        biases.append(offset * float(beta.sum()))
        diagnostics.append({
            "class": name,
            "iterations": iterations,
            "projected_gradient": gradient,
            "converged": gradient <= tol,
            "regularized": regularized,
            "support_vectors": int(np.count_nonzero(alpha)),
            "bounded_support_vectors": int(np.count_nonzero(alpha >= c)),
        })
    return SvmModel(
        classes=classes,
        dual_coeffs=np.stack(dual),
        biases=np.array(biases),
        regularization_c=c,
        solver=diagnostics,
    )


def svm_predict(model: SvmModel, rows: np.ndarray) -> tuple[list[str], np.ndarray]:
    """Score examples from their (count, train count) kernel rows against
    the training set, as ``rows @ dual_coeffs.T + biases``.

    Returns each row's argmax class (ties go to the smallest class index)
    and the (count, classes) scores aligned with ``model.classes``.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != model.train_count:
        raise ContractError(
            f"kernel rows have shape {rows.shape}, model expects "
            f"(count, {model.train_count})"
        )
    scores = rows @ model.dual_coeffs.T + model.biases
    return [model.classes[k] for k in np.argmax(scores, axis=1)], scores


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
        try:
            classes.append(blob[cursor : cursor + name_len].decode("utf-8"))
        except UnicodeDecodeError:
            raise FormatError(f"{path}: class label is not UTF-8") from None
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
