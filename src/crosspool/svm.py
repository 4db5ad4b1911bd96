"""Linear classification from precomputed kernels.

``kernels(train, test)`` returns two plain float64 arrays, the (train
count, train count) Gram matrix and the (test count, train count) test
rows, from one pass over column blocks of ``BLOCK_DIMS`` = 4096
dimensions.  The inputs' storage says how a block is read: a float
matrix's block is upcast to float64, and a sign code matrix's block (see
``postproc``; 1024 bytes, four dimensions per byte) is unpacked to float32
-1/0/+1.  Each training block is built once; ``t @ t.T`` is added into the
Gram and ``q @ t.T`` into the rows.

``open_rows(path)`` opens a representation file as its magic says, for
the pipeline's kernel stage and ``crosspool gram`` alike: a ``CPSIGS01``
sign stack is loaded whole through ``postproc.load_sign_stack``, a
``CPFMAT01`` matrix file is opened as a ``tensor.ColumnReader``, and any
other file is a FormatError.

The sign kernel is exact.  Every partial sum inside a block's float32
product is an integer of magnitude at most 4096, well below the 2**24 that
float32 holds exactly, and the float64 sum over blocks stays exact up to
2**53.  The argument holds for any block below 2**24 dimensions; the block
size is a memory bound, since only one block of each split is ever
unpacked or upcast: count * 4096 values, where the whole matrix would take
count * dim.  A float kernel of one block is the single product
``q @ t.T``; across blocks it differs from that only in float64 rounding.

``svm_train`` takes the Gram matrix as an array and is the one place it
is checked: square, nonempty, symmetric within 1e-5 of its largest
magnitude and with a nonnegative diagonal.

Training is one-vs-rest.  Each binary problem is the box-constrained dual

    min over 0 <= alpha <= C of  (1/2) alpha' Q alpha - sum(alpha),
    Q[i, j] = y_i y_j (K[i, j] + c0),      c0 = trace(K) / n.

The c0 offset is the usual augmented-bias trick (one constant
pseudo-feature of squared norm c0), giving bias c0 * sum(alpha * y); tying
c0 to the kernel's own scale keeps decisions exactly invariant under
rescaling representations by s with C / s**2.

Q depends on y only up to its sign: negating y negates both factors of
every y_i y_j, and sign flips are exact, so classes whose label vectors
are equal or negated (both classes of a two-class problem) split the
training set the same way and have bitwise-equal Q and alpha.  Training
solves each distinct split once; every class still gets its own
coefficients alpha * y, bias, diagnostics and convergence warning.

The distinct splits are solved in lockstep: ``_solve_dual`` takes a
stack of k duals of one size, Q (k, n, n) and p (k, n), and makes one
iteration for every member still in the stack; a member leaves once it
converges, gives up or reaches the cap.  ``svm_train`` stacks as many
splits as fit ``SOLVE_BATCH_BYTES`` (32 MiB) of Q, at least one: from
n = 1449 on that is one, and memory is what one solve needs.

Each member's output is bitwise what a solve of it alone gives, since
nothing mixes members or regroups a member's arithmetic: elementwise
operations round alike whatever the shape; each stacked product makes a
lone product's BLAS call per member, a gemv for ``q @ v[..., None]`` and
a dot for ``a[..., None, :] @ b[..., None]``; ``np.linalg.solve`` factors
each member with the same LAPACK call; the reductions over a member's
entries are minima and maxima, which are exact; and the centering target
(mu_aff / mu)**3 mu is a numpy scalar per member, since an array power
may round differently.  Face minimizers, stall counts, the switch to the
regularization and the stop after an unusable step are per member; a
stacked solve that raises ``LinAlgError`` is solved again one member at a
time, and a member whose own solve raises takes the unusable-step path.

The dual is solved by a dense primal-dual interior-point method with
Mehrotra's predictor-corrector steps.  ``_solve_dual`` takes the linear
term as a vector p, minimizing (1/2) alpha' Q alpha + p' alpha, and
training passes p = -1: ``x + (-1.0)`` rounds exactly like ``x - 1.0``.
The upper slack s = C - alpha is a
variable of its own, since computing C - alpha near the upper bound loses
it to rounding.  The iterate (alpha, s, z_l, z_u), where z_l and z_u are
the multipliers of the two bounds, is held as the rows of one (4, k, n)
array, and so is each Newton direction, so that a step, its length bound
and its finiteness check are one numpy call each for the whole stack.
Each iteration solves each member's Newton matrix Q + diag(z_l / alpha +
z_u / s) with ``np.linalg.solve`` twice, for the predictor and for the
corrector, and makes at most one more solve, on a face.  After each step
the iterate names a face: a variable sits at a bound when that bound's
ratio z / distance exceeds Q_ii, a rule that keeps its meaning when Q and
C are rescaled; the same ratios give the next Newton matrix's diagonal.
Two candidates are measured, the iterate with those variables moved onto
their bounds and (once per face) the exact minimizer on the face; a
member leaves as soon as one has a projected gradient within tol,
measured at that alpha, and otherwise ends with the best one it saw, and
training warns.

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

import contextlib
import os
import struct
import sys
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
from .postproc import SIGN_STACK_MAGIC, load_sign_stack, sign_unpack
from .tensor import MATRIX_MAGIC, ColumnReader, read_header

SVM_MAGIC = b"CPSVM001"
_SVM_HEADER = struct.Struct("<IId")

DEFAULT_C = 1.0
DEFAULT_TOL = 1e-4
MAX_ITERATIONS = 200
BLOCK_DIMS = 4096
# Bytes of the Q matrices that training solves in one lockstep stack; a
# Newton matrix of the same size is built from it at each iteration.
SOLVE_BATCH_BYTES = 32 * 1024 * 1024


def _check_positive(name: str, value: float) -> None:
    if not 0 < value <= sys.float_info.max:
        raise ValidationError(f"{name} must be positive and finite, got {value}")


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
        _check_positive("regularization C", self.regularization_c)
        if not (np.isfinite(coeffs).all() and np.isfinite(biases).all()):
            raise ValidationError("dual coefficients and biases must be finite")
        if coeffs.size and float(np.abs(coeffs).max()) > self.regularization_c + 1e-9:
            raise ValidationError("dual coefficients exceed the box constraint")
        self.dual_coeffs = coeffs
        self.biases = biases

    @property
    def train_count(self) -> int:
        return self.dual_coeffs.shape[1]


def kernels(train: np.ndarray, test: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Gram matrix of the training rows and the (test count, train
    count) inner products of each test row against every training row.

    Both inputs are float (count, dim) matrices or uint8 (count,
    ceil(dim/4)) sign code matrices of one dtype and width.  Any matrix
    with ``shape``, ``dtype`` and ``[:, lo:hi]`` column slicing serves, an
    array or a ``tensor.ColumnReader`` over a matrix file alike; a reader's
    blocks are read from the file as the loop reaches them, so the
    pipeline's ``kernel_seconds`` includes that reading.
    """
    if train.shape[0] < 1:
        raise ContractError("the kernels need at least one training row")
    if train.dtype != test.dtype:
        raise ContractError(f"training rows are {train.dtype}, test rows {test.dtype}")
    if train.shape[1] != test.shape[1]:
        raise ContractError(
            f"training rows hold {train.shape[1]} columns, test rows {test.shape[1]}"
        )
    codes = train.dtype == np.uint8
    step = BLOCK_DIMS // 4 if codes else BLOCK_DIMS

    def block(matrix, lo):
        columns = matrix[:, lo : lo + step]
        return sign_unpack(columns) if codes else columns.astype(np.float64)

    gram = np.zeros((train.shape[0], train.shape[0]))
    rows = np.zeros((test.shape[0], train.shape[0]))
    for lo in range(0, train.shape[1], step):
        t = block(train, lo)
        gram += t @ t.T
        rows += block(test, lo) @ t.T
    return gram, rows


@contextlib.contextmanager
def open_rows(path):
    """The rows that a representation file holds, read as its magic says:
    a sign stack's code matrix, loaded whole with its checks, or a
    ``ColumnReader`` over a matrix file, closed on exit."""
    with open(path, "rb", buffering=0) as fh:
        magic = fh.read(len(MATRIX_MAGIC))
    if magic == SIGN_STACK_MAGIC:
        yield load_sign_stack(path)[0]
    elif magic == MATRIX_MAGIC:
        with ColumnReader(path) as reader:
            yield reader
    else:
        raise FormatError(
            f"{path}: bad magic, expected a feature matrix {MATRIX_MAGIC!r} "
            f"or a sign stack {SIGN_STACK_MAGIC!r}"
        )


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


def _gemv(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``q @ v`` for each member of a stack, (k, n, n) by (k, n), or for one
    (n, n) matrix and vector: each member is one BLAS gemv, the call that a
    lone matrix-vector product makes."""
    return (q @ v[..., None])[..., 0]


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[..., i, :] @ b[..., i, :]`` for each row of two arrays of one
    shape, each one BLAS dot, the call that a lone dot product makes."""
    return (a[..., None, :] @ b[..., None])[..., 0, 0]


def _projected_gradient(q: np.ndarray, p: np.ndarray, alpha: np.ndarray, c: float):
    """Largest projected gradient of the dual at ``alpha``, for one dual or
    for each member of a stack."""
    grad = _gemv(q, alpha) + p
    grad = np.where(alpha <= 0.0, np.minimum(grad, 0.0),
                    np.where(alpha >= c, np.maximum(grad, 0.0), grad))
    return np.abs(grad).max(axis=-1)


def _longest_step(point, step):
    """Largest t <= 1 that keeps every ``point + t * step`` nonnegative, for
    a (4, n) point or for each member of a (4, k, n) stack.

    Each row bounds t by its own smallest ratio; a row whose ratios hold a
    NaN bounds nothing, like a row with nothing shrinking."""
    shrinking = step < 0.0
    ratios = np.divide(-point, step, out=np.full(point.shape, np.inf), where=shrinking)
    return np.fmin.reduce(ratios.min(axis=-1), axis=0, initial=1.0)


def _face_minimizer(q, p, c, lower, upper) -> np.ndarray | None:
    """The dual's stationary point with ``lower`` at 0 and ``upper`` at C,
    clipped to the box; None when the free block is singular."""
    alpha = np.where(upper, c, 0.0)
    free = ~(lower | upper)
    if free.any():
        rows = q[free]
        try:
            alpha[free] = np.linalg.solve(rows[:, free], -p[free] - rows @ alpha)
        except np.linalg.LinAlgError:
            return None
    return np.clip(alpha, 0.0, c)


def _solve_each(newton, rhs) -> np.ndarray:
    """``newton[i]^-1 rhs[i]`` for each member, as one stacked solve.  When
    that raises, each member is solved alone, and a singular member's row
    is NaN."""
    try:
        return np.linalg.solve(newton, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.full_like(rhs, np.nan)
        for i, (matrix, vector) in enumerate(zip(newton, rhs)):
            with contextlib.suppress(np.linalg.LinAlgError):
                out[i] = np.linalg.solve(matrix, vector)
        return out


def _newton_step(q, p, point, ratio, c, reg):
    """Mehrotra's predictor-corrector directions at ``point``, the (4, k, n)
    rows alpha, slack, z_l and z_u of k members, as another (4, k, n)
    array, and which members' directions are usable: finite, so not from a
    singular Newton matrix.  ``ratio`` holds the rows z_l / alpha and
    z_u / slack, and ``reg`` each member's regularization."""
    alpha, slack, z_l, z_u = point
    x, z = point[:2], point[2:]
    k, n = alpha.shape
    neg_r_d = -(_gemv(q, alpha) + p - z_l + z_u)
    r_p = alpha + slack - c
    neg_r_p = -r_p
    # one division gives r_l / alpha and (r_u - z_u r_p) / slack; r_l - 0.0 is r_l
    shift = np.zeros((2, k, n))
    np.multiply(z_u, r_p, out=shift[1])
    xz = x * z
    mu = _dot(x, z)
    mu = (mu[0] + mu[1]) / (2 * n)
    newton = q.copy()
    newton.reshape(k, -1)[:, :: n + 1] += ratio[0] + ratio[1] + reg[:, None]

    def direction(r):
        scaled = (r - shift) / x
        d = np.empty((4, k, n))
        d[0] = _solve_each(newton, neg_r_d - scaled[0] + scaled[1])
        np.subtract(neg_r_p, d[0], out=d[1])
        np.divide(-r - z * d[:2], x, out=d[2:])
        return d

    affine = direction(xz)
    trial = point + _longest_step(point, affine)[:, None] * affine
    mu_affine = _dot(trial[:2], trial[2:])
    mu_affine = (mu_affine[0] + mu_affine[1]) / (2 * n)
    # per member, as numpy scalars: an array power may round differently
    target = np.array([(m_affine / m) ** 3 * m for m_affine, m in zip(mu_affine, mu)])
    step = direction(xz + affine[:2] * affine[2:] - target[:, None])
    return step, np.isfinite(step).all(axis=(0, 2))


# an iterate pressed against a bound can overflow z / alpha; the non-finite
# step that follows is caught
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _solve_dual(q: np.ndarray, p: np.ndarray, c: float, tol: float, max_iterations: int):
    """Interior-point solves of min 1/2 a'Q_i a + p_i'a over 0 <= a <= c for
    a stack of k duals of one size, ``q`` (k, n, n) and ``p`` (k, n), in
    lockstep.

    Returns, for each member, alpha, the largest projected gradient at that
    alpha, the iterations taken, and whether the regularization was
    switched on.
    """
    k, n = p.shape
    rho = 2.0 * np.sqrt(n) * 2.0**-24 * q.diagonal(axis1=1, axis2=2).max(axis=1)
    reg = np.zeros(k)
    point = np.empty((4, k, n))
    point[:2] = 0.5 * c
    grad = _gemv(q, point[0]) + p
    point[2] = 1.0 + np.maximum(grad, 0.0)
    point[3] = 1.0 + np.maximum(-grad, 0.0)
    ratio = point[2:] / point[:2]
    diag = q.diagonal(axis1=1, axis2=2)
    # one entry per member: the best alpha and its gradient, the faces
    # tried, the short steps in a row and whether it is still running
    best = list(point[0].copy())
    best_gradient = _projected_gradient(q, p, point[0], c).tolist()
    faces = [set() for _ in range(k)]
    stalls = [0] * k
    live = [gradient > tol for gradient in best_gradient]
    # each member's place in the stack as given, and its result once it leaves
    members, results = list(range(k)), [None] * k
    for iteration in range(max_iterations + 1):
        if iteration == max_iterations:
            live = [False] * len(members)
        if not all(live):
            for j, alive in enumerate(live):
                if not alive:
                    results[members[j]] = (best[j], best_gradient[j], iteration, bool(reg[j]))
            if not any(live):
                break
            members, best, best_gradient, faces, stalls = (
                [x for x, kept in zip(xs, live) if kept]
                for xs in (members, best, best_gradient, faces, stalls)
            )
            q, p, rho, reg = q[live], p[live], rho[live], reg[live]
            point, ratio = point[:, live], ratio[:, live]
            diag = q.diagonal(axis1=1, axis2=2)
            live = [True] * len(members)
        step, usable = _newton_step(q, p, point, ratio, c, reg)
        t = 0.99 * _longest_step(point, step)
        moved = point + t[:, None] * step
        if not usable.all():
            moved[:, ~usable] = point[:, ~usable]
        point = moved
        ratio = point[2:] / point[:2]
        above = ratio > diag
        lower = above[0] & (ratio[0] >= ratio[1])
        upper = above[1] & (ratio[1] > ratio[0])
        candidates = np.where(lower, 0.0, np.where(upper, c, point[0]))
        gradients = _projected_gradient(q, p, candidates, c).tolist()
        for j, (usable_j, t_j) in enumerate(zip(usable.tolist(), t.tolist())):
            if not usable_j:
                # give up, or take the same step again regularized
                live[j] = not (reg[j] or not rho[j])
                reg[j] = rho[j]
                continue
            stalls[j] = stalls[j] + 1 if t_j < 0.1 else 0
            if stalls[j] == 3:
                reg[j] = rho[j]
            if gradients[j] < best_gradient[j]:
                best[j], best_gradient[j] = candidates[j], gradients[j]
            face = (lower[j].tobytes(), upper[j].tobytes())
            if face not in faces[j]:
                faces[j].add(face)
                alpha = _face_minimizer(q[j], p[j], c, lower[j], upper[j])
                if alpha is not None:
                    gradient = float(_projected_gradient(q[j], p[j], alpha, c))
                    if gradient < best_gradient[j]:
                        best[j], best_gradient[j] = alpha, gradient
            live[j] = best_gradient[j] > tol
    return results


def svm_train(
    gram: np.ndarray,
    labels: Sequence,
    c: float = DEFAULT_C,
    tol: float = DEFAULT_TOL,
    max_iterations: int = MAX_ITERATIONS,
) -> SvmModel:
    """Train one-vs-rest classifiers on a precomputed (n, n) training
    kernel, checked as the module docstring says.

    ``labels`` holds one label per training row, or an iterable of labels
    for multi-label data; a class's binary problem takes every example that
    carries the class as positive.  Classes that split the training rows
    the same way, up to swapping the two sides, pose the same dual
    problem, which is solved once for all of them.  ``max_iterations``
    caps the interior-point iterations per solve.  A class whose solution
    has a projected gradient above ``tol`` raises a RuntimeWarning.  The
    model's ``solver`` holds each class's diagnostics.
    """
    gram = np.ascontiguousarray(gram, dtype=np.float64)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise ValidationError(f"Gram matrix must be square, got {gram.shape}")
    n = gram.shape[0]
    if n < 1:
        raise ValidationError("Gram matrix must be nonempty")
    scale = float(np.abs(gram).max())
    if not np.allclose(gram, gram.T, atol=1e-5 * max(scale, 1.0)):
        raise ValidationError("Gram matrix is not symmetric within 1e-5")
    if float(gram.diagonal().min()) < 0.0:
        raise ValidationError("Gram diagonal must be nonnegative")
    if len(labels) != n:
        raise ContractError(f"{len(labels)} labels for {n} kernel rows")
    _check_positive("regularization C", c)
    _check_positive("tolerance", tol)
    if max_iterations < 1:
        raise ValidationError("the iteration cap must be at least 1")
    label_sets = _normalize_labels(labels)
    classes = sorted(set().union(*label_sets))
    if len(classes) < 2:
        raise ContractError(f"training needs at least 2 classes, got {len(classes)}")
    offset = float(np.trace(gram)) / n
    augmented = gram + offset

    # one dual per distinct split, posed by the first class that makes it
    ys = [np.where([name in s for s in label_sets], 1.0, -1.0) for name in classes]
    splits = {}
    for y in ys:
        splits.setdefault((y * y[0]).tobytes(), y)
    splits = list(splits.items())
    per_group = max(1, SOLVE_BATCH_BYTES // (8 * n * n))
    solves = {}
    for lo in range(0, len(splits), per_group):
        group = splits[lo : lo + per_group]
        q = np.empty((len(group), n, n))
        for member, (_, y) in zip(q, group):
            np.multiply(y[:, None] * augmented, y, out=member)
        results = _solve_dual(q, np.full((len(group), n), -1.0), c, tol, max_iterations)
        del q  # before the next group's stack is allocated
        solves.update(zip((split for split, _ in group), results))

    dual, biases, diagnostics = [], [], []
    for name, y in zip(classes, ys):
        alpha, gradient, iterations, regularized = solves[(y * y[0]).tobytes()]
        if gradient > tol:
            warnings.warn(
                f"class {name!r} not converged: max projected gradient "
                f"{gradient:.3g} above tol {tol:g} (iteration cap {max_iterations})",
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
    with open(path, "rb", buffering=0) as fh:
        n_classes, n_train, c = read_header(fh, path, SVM_MAGIC, _SVM_HEADER, "model")
        if n_classes < 2:
            raise ValidationError(f"{path}: model declares {n_classes} classes")
        # a class record is a label length, the label, a bias and n_train floats
        record = 4 + 8 + 8 * n_train
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if left < n_classes * record:
            raise CorruptionError(f"{path}: truncated class record")
        classes = []
        biases = np.empty(n_classes)
        dual_coeffs = np.empty((n_classes, n_train), dtype="<f8")
        for k in range(n_classes):
            (name_len,) = struct.unpack("<I", fh.read(4))
            left -= record + name_len
            if left < (n_classes - k - 1) * record:
                raise CorruptionError(f"{path}: truncated class record")
            label = fh.read(name_len + 8)
            try:
                classes.append(label[:name_len].decode("utf-8"))
            except UnicodeDecodeError:
                raise FormatError(f"{path}: class label is not UTF-8") from None
            (biases[k],) = struct.unpack_from("<d", label, name_len)
            if fh.readinto(dual_coeffs[k].view(np.uint8)) != 8 * n_train:
                raise CorruptionError(f"{path}: truncated class record")
    if left:
        raise CorruptionError(f"{path}: {left} trailing bytes")
    return SvmModel(
        classes=classes,
        dual_coeffs=dual_coeffs,
        biases=biases,
        regularization_c=c,
    )
