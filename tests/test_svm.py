"""Kernel computation and one-vs-rest SVM tests.

The interior-point dual solver is checked against two slow oracles
optimizing the same box-constrained objective: projected gradient descent,
which must land on the same stationary point for strictly convex problems,
and a cyclic coordinate-descent solver, whose objective the
interior-point solver must match or beat.  It must also match, bit for
bit, the same method written with one array per iterate row.
"""

import struct
import tracemalloc
import warnings

import numpy as np
import pytest

import crosspool.svm
from crosspool.errors import ContractError, CorruptionError, ValidationError
from crosspool.postproc import sign_quantize, sign_unpack
from crosspool.svm import (
    BLOCK_DIMS,
    SvmModel,
    _solve_dual,
    kernels,
    load_svm,
    save_svm,
    svm_predict,
    svm_train,
)


def projected_gradient_oracle(q, c, steps=200000, lr=None):
    """Minimize 0.5 a'Qa - sum(a) over the box [0, c]^n by projected gradient."""
    n = q.shape[0]
    if lr is None:
        lr = 1.0 / np.linalg.eigvalsh(q).max()
    alpha = np.zeros(n)
    for _ in range(steps):
        grad = q @ alpha - 1.0
        new = np.clip(alpha - lr * grad, 0.0, c)
        if np.abs(new - alpha).max() < 1e-12:
            alpha = new
            break
        alpha = new
    return alpha


def solve_binary_cyclic(augmented, y, c, max_sweeps=2000, tol=1e-4):
    """Cyclic coordinate descent on the box-constrained dual, one
    coordinate at a time in a fixed order, until a sweep finds no projected
    gradient above tol or the sweep cap is reached."""
    n = y.size
    diag = augmented.diagonal()
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
    return alpha


def dual_problem(gram, y):
    augmented = gram + np.trace(gram) / gram.shape[0]
    return augmented, np.outer(y, y) * augmented


def objective(q, alpha):
    return 0.5 * alpha @ q @ alpha - alpha.sum()


def projected_gradient(q, alpha, c):
    grad = q @ alpha - 1.0
    return np.abs(np.where(alpha <= 0.0, np.minimum(grad, 0.0),
                           np.where(alpha >= c, np.maximum(grad, 0.0), grad))).max()


def train_per_class(gram, label_sets, c=1.0, tol=1e-4, max_iterations=200):
    """One-vs-rest training with one dual solve per class, none shared:
    the dual coefficients, biases and diagnostics of every class."""
    classes = sorted(set().union(*label_sets))
    offset = float(np.trace(gram)) / gram.shape[0]
    augmented = gram + offset
    dual, biases, diagnostics = [], [], []
    for name in classes:
        y = np.where([name in s for s in label_sets], 1.0, -1.0)
        alpha, gradient, iterations, regularized = _solve_dual(
            y[:, None] * augmented * y, c, tol, max_iterations
        )
        dual.append(alpha * y)
        biases.append(offset * float(dual[-1].sum()))
        diagnostics.append({
            "class": name,
            "iterations": iterations,
            "projected_gradient": gradient,
            "converged": gradient <= tol,
            "regularized": regularized,
            "support_vectors": int(np.count_nonzero(alpha)),
            "bounded_support_vectors": int(np.count_nonzero(alpha >= c)),
        })
    return np.stack(dual), np.array(biases), diagnostics


@pytest.fixture
def solves(monkeypatch):
    """The Q matrices of the dual solves ``svm_train`` makes."""
    calls = []

    def counting(q, *args):
        calls.append(q)
        return _solve_dual(q, *args)

    monkeypatch.setattr(crosspool.svm, "_solve_dual", counting)
    return calls


def separable_blobs(rng, n_per=10, dim=4, gap=6.0):
    a = rng.normal(size=(n_per, dim)) + gap
    b = rng.normal(size=(n_per, dim)) - gap
    data = np.vstack([a, b])
    labels = ["pos"] * n_per + ["neg"] * n_per
    return data, labels


def test_gram_matches_matmul():
    rng = np.random.default_rng(90)
    data = rng.normal(size=(12, 5))
    gram = kernels(data, data[:0])[0]
    np.testing.assert_allclose(gram, data @ data.T, rtol=1e-10)


def test_gram_positive_semidefinite():
    rng = np.random.default_rng(92)
    data = rng.normal(size=(25, 7))
    gram = kernels(data, data[:0])[0]
    eigs = np.linalg.eigvalsh(gram)
    assert eigs.min() >= -1e-6 * max(eigs.max(), 1.0)


def test_kernel_rows_match_gram():
    rng = np.random.default_rng(93)
    train = rng.normal(size=(10, 6))
    gram, rows = kernels(train, train)
    np.testing.assert_array_equal(rows, gram)
    np.testing.assert_array_equal(gram, kernels(train, train[:0])[0])
    queries = rng.normal(size=(4, 6))
    np.testing.assert_allclose(kernels(train, queries)[1], queries @ train.T, rtol=1e-12)
    assert kernels(train, queries[:0])[1].shape == (0, 10)


def test_packed_gram_matches_unpacked_dot():
    rng = np.random.default_rng(94)
    codes = sign_quantize(rng.choice([-1.0, 0.0, 1.0], size=(15, 19)))
    gram, rows = kernels(codes, codes[:4])
    dense = sign_unpack(codes).astype(np.float64)
    np.testing.assert_array_equal(gram, dense @ dense.T)
    np.testing.assert_array_equal(rows, gram[:4])


@pytest.mark.parametrize("dim", [1, 7, BLOCK_DIMS, 2 * BLOCK_DIMS + 13])
def test_sign_kernel_matches_float_signs(dim):
    """Codes are exact against sign(X) @ sign(Y).T in float64, across block
    edges and with all-zero rows; floats equal one product q @ t.T in one
    block and agree with it to float64 rounding across blocks."""
    rng = np.random.default_rng(dim)
    x = rng.normal(size=(9, dim))
    y = rng.normal(size=(6, dim))
    x[rng.random(x.shape) < 0.3] = 0.0
    x[2] = 0.0
    y[4] = 0.0
    gram, rows = kernels(sign_quantize(x), sign_quantize(y))
    np.testing.assert_array_equal(gram, np.sign(x) @ np.sign(x).T)
    np.testing.assert_array_equal(rows, np.sign(y) @ np.sign(x).T)
    for dtype in (np.float64, np.float32):
        gram, rows = kernels(x.astype(dtype), y.astype(dtype))
        t, q = (v.astype(dtype).astype(np.float64) for v in (x, y))
        for got, expect in ((gram, t @ t.T), (rows, q @ t.T)):
            if dim <= BLOCK_DIMS:
                np.testing.assert_array_equal(got, expect)
            else:
                scale = np.abs(expect).max()
                np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-12 * scale)


def test_sign_kernel_contract():
    codes = sign_quantize(np.ones((3, 8)))
    with pytest.raises(ContractError):
        kernels(codes, sign_quantize(np.ones((3, 9))))
    with pytest.raises(ContractError):
        kernels(codes[:0], codes)
    with pytest.raises(ContractError):
        kernels(codes, np.ones((3, 2)))
    with pytest.raises(ContractError):
        kernels(np.ones((3, 8)), np.ones((3, 8), dtype=np.float32))
    assert kernels(codes, codes[:0])[1].shape == (0, 3)


def test_kernels_upcast_one_block_at_a_time():
    """The float64 copies of 46 080-d float32 rows are never made whole."""
    rng = np.random.default_rng(95)
    train, test = rng.standard_normal((2, 40, 46080), dtype=np.float32)
    tracemalloc.start()
    try:
        kernels(train, test)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (train.size + test.size) * 8 / 4


def test_gram_requires_symmetry():
    bad = np.array([[1.0, 0.5], [0.2, 1.0]])
    with pytest.raises(ValidationError, match="not symmetric"):
        svm_train(bad, ["a", "b"])


def test_train_separable_perfect():
    rng = np.random.default_rng(95)
    data, labels = separable_blobs(rng)
    gram = kernels(data, data[:0])[0]
    model = svm_train(gram, labels)
    assert svm_predict(model, gram)[0] == labels


def test_train_three_class():
    rng = np.random.default_rng(96)
    centers = np.array([[8.0, 0.0], [-8.0, 8.0], [0.0, -8.0]])
    data = np.vstack([rng.normal(size=(8, 2)) + c for c in centers])
    labels = [f"c{i}" for i in range(3) for _ in range(8)]
    gram = kernels(data, data[:0])[0]
    model = svm_train(gram, labels)
    assert model.classes == ("c0", "c1", "c2")
    assert svm_predict(model, gram)[0] == labels


def test_xor_is_not_linearly_separable():
    """A linear kernel cannot beat 75 percent on XOR labels."""
    data = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    labels = ["a", "b", "b", "a"]
    gram = kernels(data, data[:0])[0]
    model = svm_train(gram, labels, c=100.0)
    preds = svm_predict(model, gram)[0]
    accuracy = np.mean([p == t for p, t in zip(preds, labels)])
    assert accuracy <= 0.75


def test_dual_coefficients_feasible():
    rng = np.random.default_rng(97)
    data = rng.normal(size=(30, 3))
    labels = list(rng.choice(["u", "v", "w"], size=30))
    c = 0.7
    gram = kernels(data, data[:0])[0]
    model = svm_train(gram, labels, c=c)
    assert np.abs(model.dual_coeffs).max() <= c + 1e-9


def test_matches_projected_gradient_oracle():
    rng = np.random.default_rng(98)
    data, labels = separable_blobs(rng, n_per=8, dim=3, gap=2.0)
    gram = kernels(data, data[:0])[0]
    c = 1.0
    model = svm_train(gram, labels, c=c, tol=1e-10)

    n = len(gram)
    offset = np.trace(gram) / n
    y = np.array([1.0 if lab == "neg" else -1.0 for lab in labels])
    q = np.outer(y, y) * (gram + offset)
    alpha = projected_gradient_oracle(q, c)
    # model stores beta = alpha * y for the first class in sorted order ("neg")
    np.testing.assert_allclose(model.dual_coeffs[0], alpha * y, atol=1e-5)
    np.testing.assert_allclose(model.biases[0], offset * np.dot(alpha, y), atol=1e-5)


def test_scale_covariance_power_of_two():
    """Scaling K by s^2 with C/s^2 rescales duals exactly and keeps scores."""
    rng = np.random.default_rng(99)
    data, labels = separable_blobs(rng, n_per=7, dim=4, gap=3.0)
    base = kernels(data, data[:0])[0]
    for s2 in (4.0, 0.25):
        scaled = base * s2
        m1 = svm_train(base, labels, c=1.0)
        m2 = svm_train(scaled, labels, c=1.0 / s2)
        np.testing.assert_array_equal(m1.dual_coeffs, m2.dual_coeffs * s2)
        np.testing.assert_array_equal(
            svm_predict(m1, base)[1], svm_predict(m2, scaled)[1]
        )


def test_scale_covariance_generic_scale():
    rng = np.random.default_rng(100)
    data, labels = separable_blobs(rng, n_per=7, dim=4, gap=3.0)
    base = kernels(data, data[:0])[0]
    s2 = 2.37
    scaled = base * s2
    m1 = svm_train(base, labels, c=1.0)
    m2 = svm_train(scaled, labels, c=1.0 / s2)
    np.testing.assert_allclose(m1.dual_coeffs, m2.dual_coeffs * s2, atol=1e-6)


def test_predict_tie_breaks_to_first_class():
    rng = np.random.default_rng(101)
    data, labels = separable_blobs(rng)
    gram = kernels(data, data[:0])[0]
    model = svm_train(gram, labels)
    zero_row = np.zeros((1, len(gram)))
    (label,), (scores,) = svm_predict(model, zero_row)
    # with a zero kernel row the scores reduce to the biases; verify argmax
    expect = model.classes[int(np.argmax(scores))]
    assert label == expect
    ties = np.flatnonzero(scores == scores.max())
    assert label == model.classes[ties[0]]
    # exact ties across classes go to the first class
    tied = SvmModel(classes=("a", "b", "c"), dual_coeffs=np.zeros((3, 2)),
                    biases=np.array([0.0, 1.0, 1.0]), regularization_c=1.0)
    assert svm_predict(tied, np.zeros((2, 2)))[0] == ["b", "b"]


@pytest.mark.parametrize("labels,count", [
    (["pos"] * 8 + ["neg"] * 16, 1),
    ([f"c{i}" for i in range(3) for _ in range(8)], 3),
    # "red" and "big" label the same examples, so they share a solve
    ([{"red", "big"}] * 8 + [{"blue"}] * 8 + [{"green"}] * 8, 3),
])
def test_classes_with_one_split_share_a_solve(solves, labels, count):
    """Classes whose label vectors are equal or negated make one solve,
    and each class gets exactly what a solve of its own would give."""
    rng = np.random.default_rng(111)
    centers = np.array([[8.0, 0.0], [-8.0, 8.0], [0.0, -8.0]])
    data = np.vstack([rng.normal(size=(8, 2)) + c for c in centers])
    gram = kernels(data, data[:0])[0]
    model = svm_train(gram, labels)
    assert len(solves) == count
    label_sets = [{x} if isinstance(x, str) else set(x) for x in labels]
    dual, biases, diagnostics = train_per_class(gram, label_sets)
    assert model.dual_coeffs.tobytes() == dual.tobytes()
    assert model.biases.tobytes() == biases.tobytes()
    assert model.solver == diagnostics


def test_multilabel_training():
    rng = np.random.default_rng(102)
    data = np.vstack([
        rng.normal(size=(8, 2)) + [6, 6],
        rng.normal(size=(8, 2)) - [6, 6],
        rng.normal(size=(8, 2)) + [6, -6],
    ])
    labels = (
        [frozenset(["red", "big"])] * 8
        + [frozenset(["blue"])] * 8
        + [frozenset(["red"])] * 8
    )
    gram = kernels(data, data[:0])[0]
    model = svm_train(gram, labels)
    assert set(model.classes) == {"red", "big", "blue"}
    # the "big" classifier must fire on the first blob only
    big = model.classes.index("big")
    scores = svm_predict(model, gram)[1][:, big]
    assert scores[:8].min() > 0
    assert scores[8:].max() < 0


def test_sweep_cap_warns(solves):
    """Stopping at the iteration cap above tol warns, naming class, gradient
    and tol, once for each class of a solve the two classes share."""
    rng = np.random.default_rng(106)
    mixed = np.vstack([rng.normal(size=(20, 3)) + 0.3, rng.normal(size=(20, 3)) - 0.3])
    gram = kernels(mixed, mixed[:0])[0]
    labels = ["pos"] * 20 + ["neg"] * 20
    with pytest.warns(RuntimeWarning) as record:
        model = svm_train(gram, labels, max_iterations=1)
    assert len(solves) == 1
    dual, biases, diagnostics = train_per_class(
        gram, [{x} for x in labels], max_iterations=1
    )
    assert model.dual_coeffs.tobytes() == dual.tobytes()
    assert model.biases.tobytes() == biases.tobytes()
    assert model.solver == diagnostics
    messages = sorted(str(w.message) for w in record)
    assert [m.split()[1] for m in messages] == ["'neg'", "'pos'"]
    for message in messages:
        assert "not converged: max projected gradient" in message
        assert message.endswith("above tol 0.0001 (iteration cap 1)")
    assert [d["converged"] for d in model.solver] == [False, False]
    assert [d["iterations"] for d in model.solver] == [1, 1]


def test_solver_gradient_is_measured_at_returned_alpha():
    rng = np.random.default_rng(108)
    data = rng.normal(size=(30, 3))
    y = np.where(data[:, 0] > 0, 1.0, -1.0)
    _, q = dual_problem(kernels(data, data[:0])[0], y)
    for cap in (1, 3, 200):
        alpha, gradient, iterations, _ = _solve_dual(q, 0.5, 1e-4, cap)
        assert 1 <= iterations <= cap
        assert alpha.min() >= 0.0 and alpha.max() <= 0.5
        assert gradient == projected_gradient(q, alpha, 0.5)
    assert gradient <= 1e-4


def test_crossover_solves_the_face_exactly():
    """Once the iterate names the right face, the exact solve on it lands
    on the stationary point to rounding: 7 iterations here, where the
    iterate moved onto its bounds needs 14 to get as close."""
    rng = np.random.default_rng(113)
    data = rng.normal(size=(40, 60))
    y = np.where(rng.random(40) < 0.5, 1.0, -1.0)
    _, q = dual_problem(data @ data.T, y)
    alpha, gradient, iterations, _ = _solve_dual(q, 0.05, 1e-13, 200)
    assert gradient <= 1e-13 and iterations <= 10
    free = (alpha > 0.0) & (alpha < 0.05)
    assert free.any() and (alpha == 0.05).any()


def low_rank_features(rng, n, dim, rank, offset):
    """Rows spread over a rank-dimensional subspace around offset * ones."""
    return offset + rng.normal(size=(n, rank)) @ rng.normal(size=(rank, dim))


@pytest.mark.parametrize("rank", [None, 1, 3])
@pytest.mark.parametrize("c", [0.1, 10.0])
def test_solver_matches_cyclic_oracle(rank, c):
    """On random full-rank and rank-deficient Grams the interior-point
    solution reaches the cyclic oracle's objective and a projected gradient
    within tol."""
    rng = np.random.default_rng(110 + (rank or 0))
    n = 40
    data = rng.normal(size=(n, 60)) if rank is None else low_rank_features(rng, n, 8, rank, 2.0)
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    augmented, q = dual_problem(data @ data.T, y)
    alpha, gradient, _, _ = _solve_dual(q, c, 1e-4, 200)
    oracle = solve_binary_cyclic(augmented, y, c)
    assert gradient <= 1e-4
    assert projected_gradient(q, alpha, c) == gradient
    best = objective(q, oracle)
    assert objective(q, alpha) <= best + 1e-9 * abs(best)


def test_float32_low_rank_gram_converges():
    """A large-scale Gram of rank 6 in 300 rows, rounded to float32 like
    gram.fmat, is indefinite; every class still converges without a warning."""
    rng = np.random.default_rng(112)
    data = low_rank_features(rng, 300, 54, 5, 30.0) / 8.0
    gram = (data @ data.T).astype(np.float32).astype(np.float64)
    eigenvalues = np.linalg.eigvalsh(gram)
    assert eigenvalues[0] < 0.0
    assert eigenvalues[-7] < 1e-8 * eigenvalues[-1] < eigenvalues[-6]
    labels = [f"c{i % 3}" for i in range(300)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = svm_train(gram, labels)
    augmented = gram + np.trace(gram) / 300
    for k, name in enumerate(model.classes):
        y = np.where([lab == name for lab in labels], 1.0, -1.0)
        alpha = model.dual_coeffs[k] * y
        assert projected_gradient(np.outer(y, y) * augmented, alpha, 1.0) <= 1e-4
        assert model.solver[k]["converged"]


# The interior-point solver as it stood when the iterate was four separate
# arrays, one numpy call per row: the reference the (4, n) solver must
# match bit for bit.  Only the names differ from that code, and the
# projected gradient is this module's.


def longest_step_oracle(values, deltas) -> float:
    """Largest t <= 1 that keeps every ``value + t * delta`` nonnegative."""
    longest = 1.0
    for value, delta in zip(values, deltas):
        shrinking = delta < 0.0
        if shrinking.any():
            longest = min(longest, float((-value[shrinking] / delta[shrinking]).min()))
    return longest


def face_minimizer_oracle(q, c, lower, upper):
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


def newton_step_oracle(q, point, c, reg):
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
        t = longest_step_oracle(point, affine)
        mu_affine = ((alpha + t * da) @ (z_l + t * dzl)
                     + (slack + t * ds) @ (z_u + t * dzu)) / (2 * n)
        target = (mu_affine / mu) ** 3 * mu
        step = direction(alpha * z_l + da * dzl - target, slack * z_u + ds * dzu - target)
    except np.linalg.LinAlgError:
        return None
    return step if all(np.isfinite(d).all() for d in step) else None


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def solve_dual_oracle(q, c, tol, max_iterations):
    """Interior-point solve of min 1/2 a'Qa - sum(a) over 0 <= a <= c."""
    n = q.shape[0]
    diag = q.diagonal()
    rho = 2.0 * np.sqrt(n) * 2.0**-24 * float(diag.max())
    reg = 0.0
    alpha = np.full(n, 0.5 * c)
    slack = np.full(n, 0.5 * c)
    grad = q @ alpha - 1.0
    z_l = 1.0 + np.maximum(grad, 0.0)
    z_u = 1.0 + np.maximum(-grad, 0.0)
    best, best_gradient = alpha, float(projected_gradient(q, alpha, c))
    faces = set()
    stalls = 0
    iteration = 0
    while iteration < max_iterations and best_gradient > tol:
        iteration += 1
        point = (alpha, slack, z_l, z_u)
        step = newton_step_oracle(q, point, c, reg)
        if step is None:
            if reg or not rho:
                break
            reg = rho
            continue
        t = 0.99 * longest_step_oracle(point, step)
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
            candidates.append(face_minimizer_oracle(q, c, lower, upper))
        for candidate in candidates:
            if candidate is not None:
                gradient = float(projected_gradient(q, candidate, c))
                if gradient < best_gradient:
                    best, best_gradient = candidate, gradient
    return best, best_gradient, iteration, bool(reg)


def assert_solves_like_oracle(q, c, max_iterations, tol=1e-4):
    """The solver's alpha bytes, gradient, iterations and regularization
    flag equal the oracle's; returns the solver's result."""
    result = _solve_dual(q, c, tol, max_iterations)
    alpha, gradient, iterations, regularized = solve_dual_oracle(q, c, tol, max_iterations)
    assert result[0].tobytes() == alpha.tobytes()
    assert result[1:] == (gradient, iterations, regularized)
    return result


def solver_battery_case(seed, max_rows=100):
    """A seeded dual of 2 to ``max_rows`` rows: the Gram of features of
    rank 1 to 199, rectified and square-rooted for odd seeds, offset by 0,
    1 or 100 and scaled by 1e-3, 1 or 1e3, rounded through float32 like
    gram.fmat; with C in [1e-2, 1e2] and an iteration cap of 1, 3 or 200."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_rows + 1))
    features = rng.normal(size=(n, int(rng.integers(1, 200))))
    if seed % 2:
        features = np.sqrt(np.maximum(features, 0.0))
    features = (features + rng.choice([0.0, 1.0, 100.0])) * 10.0 ** rng.choice([-3, 0, 3])
    gram = (features @ features.T).astype(np.float32).astype(np.float64)
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    return dual_problem(gram, y)[1], 10.0 ** rng.uniform(-2.0, 2.0), int(rng.choice([1, 3, 200]))


@pytest.mark.parametrize("block", range(6))
def test_solver_matches_oracle_bitwise(block):
    """150 seeded duals, 25 per test."""
    for seed in range(25 * block, 25 * (block + 1)):
        assert_solves_like_oracle(*solver_battery_case(seed))


def test_solver_matches_oracle_when_regularized():
    """150 rows of rank-2 features offset by 100 and scaled by 1e3: the
    float32 noise is large against 1 / C, the steps stall, and the + rho I
    safeguard switches on; the solver stops at its cap above tol."""
    rng = np.random.default_rng(2)
    data = low_rank_features(rng, 150, 20, 2, 100.0) * 1e3
    gram = (data @ data.T).astype(np.float32).astype(np.float64)
    y = np.where(rng.random(150) < 0.5, 1.0, -1.0)
    _, gradient, iterations, regularized = assert_solves_like_oracle(
        dual_problem(gram, y)[1], 1.0, 200
    )
    assert regularized and iterations == 200 and gradient > 1e-4


@pytest.mark.parametrize("cap", [1, 3])
def test_solver_matches_oracle_under_small_caps(cap):
    rng = np.random.default_rng(115)
    data = rng.normal(size=(40, 6))
    y = np.where(data[:, 0] > 0, 1.0, -1.0)
    _, gradient, iterations, _ = assert_solves_like_oracle(
        dual_problem(data @ data.T, y)[1], 1.0, cap
    )
    assert iterations == cap and gradient > 1e-4


def test_solver_matches_oracle_on_a_singular_face(monkeypatch):
    """Every training point twice: a face that frees both copies of a point
    has two equal rows in its free block, and its exact solve fails."""
    rng = np.random.default_rng(116)
    points = rng.integers(-3, 4, size=(10, 3)).astype(np.float64)
    data = np.vstack([points, points])
    y = np.tile(np.where(points[:, 0] > 0, 1.0, -1.0), 2)
    singular = []
    solve_face = crosspool.svm._face_minimizer

    def face_minimizer(*args):
        alpha = solve_face(*args)
        singular.append(alpha is None)
        return alpha

    monkeypatch.setattr(crosspool.svm, "_face_minimizer", face_minimizer)
    assert_solves_like_oracle(dual_problem(data @ data.T, y)[1], 1.0, 200)
    assert any(singular)


def test_longest_step_skips_nan_rows_and_rows_with_nothing_shrinking():
    point = np.array([[1.0, 2.0], [np.nan, 0.1], [1.0, 1.0], [4.0, 3.0]])
    step = np.array([[-2.0, 1.0], [-1.0, -1.0], [0.0, 1.0], [-1.0, -12.0]])
    assert crosspool.svm._longest_step(point, step) == 0.25
    assert longest_step_oracle(point, step) == 0.25
    assert crosspool.svm._longest_step(point[1:3], step[1:3]) == 1.0
    assert longest_step_oracle(point[1:3], step[1:3]) == 1.0


def test_solver_diagnostics():
    rng = np.random.default_rng(109)
    data = rng.normal(size=(30, 3))
    labels = list(rng.choice(["u", "v", "w"], size=30))
    c = 0.7
    model = svm_train(kernels(data, data[:0])[0], labels, c=c)
    assert [d["class"] for d in model.solver] == list(model.classes)
    for d, beta in zip(model.solver, model.dual_coeffs):
        assert d["converged"] and d["projected_gradient"] <= 1e-4
        assert d["iterations"] >= 1 and isinstance(d["regularized"], bool)
        assert d["support_vectors"] == np.count_nonzero(beta)
        assert d["bounded_support_vectors"] == np.count_nonzero(np.abs(beta) >= c)
        assert 0 < d["bounded_support_vectors"] < d["support_vectors"]


def test_converged_solver_does_not_warn():
    rng = np.random.default_rng(107)
    data, labels = separable_blobs(rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        svm_train(kernels(data, data[:0])[0], labels)


def test_train_requires_two_classes():
    gram = np.eye(4)
    with pytest.raises(ContractError):
        svm_train(gram, ["same"] * 4)


def test_train_label_count_mismatch():
    gram = np.eye(4)
    with pytest.raises(ContractError):
        svm_train(gram, ["a", "b"])


def test_train_bad_c():
    gram = np.eye(4)
    with pytest.raises(ValidationError):
        svm_train(gram, ["a", "a", "b", "b"], c=0.0)


@pytest.mark.parametrize("c,tol", [
    (float("nan"), 1e-4), (float("inf"), 1e-4), (1.0, float("nan")), (1.0, float("inf")),
])
def test_train_rejects_non_finite_c_and_tol(c, tol):
    with pytest.raises(ValidationError, match="positive and finite"):
        svm_train(np.eye(4), ["a", "a", "b", "b"], c=c, tol=tol)


def test_model_round_trip(tmp_path):
    rng = np.random.default_rng(103)
    data, labels = separable_blobs(rng)
    gram = kernels(data, data[:0])[0]
    model = svm_train(gram, labels)
    path = tmp_path / "m.svm"
    save_svm(model, path)
    back = load_svm(path)
    assert back.classes == model.classes
    assert back.regularization_c == model.regularization_c
    np.testing.assert_array_equal(back.dual_coeffs, model.dual_coeffs)
    np.testing.assert_array_equal(back.biases, model.biases)
    labels_a, scores_a = svm_predict(back, gram)
    labels_b, scores_b = svm_predict(model, gram)
    assert labels_a == labels_b
    np.testing.assert_array_equal(scores_a, scores_b)


def test_model_file_truncation(tmp_path):
    """A truncated model file, or one whose C or a coefficient is NaN, is
    rejected on load."""
    rng = np.random.default_rng(104)
    data, labels = separable_blobs(rng, n_per=4)
    model = svm_train(kernels(data, data[:0])[0], labels)
    path = tmp_path / "t.svm"
    save_svm(model, path)
    blob = path.read_bytes()
    nan = struct.pack("<d", float("nan"))
    # C sits after the magic and the two counts; the last 8 bytes are a coefficient
    for bad, error in ((blob[:-4], CorruptionError),
                       (blob[:16] + nan + blob[24:], ValidationError),
                       (blob[:-8] + nan, ValidationError)):
        path.write_bytes(bad)
        with pytest.raises(error):
            load_svm(path)


def test_predict_row_length_checked():
    rng = np.random.default_rng(105)
    data, labels = separable_blobs(rng, n_per=4)
    model = svm_train(kernels(data, data[:0])[0], labels)
    with pytest.raises(ContractError):
        svm_predict(model, np.zeros((1, 5)))
    with pytest.raises(ContractError):
        svm_predict(model, np.zeros(model.train_count))
