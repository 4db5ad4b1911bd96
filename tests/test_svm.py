"""Kernel computation and one-vs-rest SVM tests.

The dual solver is checked against a slow projected-gradient oracle
optimizing the same box-constrained objective, so both routes must land
on the same stationary point for strictly convex problems.
"""

import warnings

import numpy as np
import pytest

from crosspool.errors import ContractError, CorruptionError, ValidationError
from crosspool.postproc import sign_quantize, sign_unpack
from crosspool.svm import (
    SIGN_BLOCK_BYTES,
    GramMatrix,
    _solve_binary,
    gram_matrix,
    kernel_rows,
    load_svm,
    save_svm,
    sign_kernel_rows,
    svm_predict,
    svm_train,
)
from crosspool.tensor import FeatureMatrix


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


def separable_blobs(rng, n_per=10, dim=4, gap=6.0):
    a = rng.normal(size=(n_per, dim)) + gap
    b = rng.normal(size=(n_per, dim)) - gap
    data = np.vstack([a, b])
    labels = ["pos"] * n_per + ["neg"] * n_per
    return data, labels


def test_gram_matches_matmul():
    rng = np.random.default_rng(90)
    data = rng.normal(size=(12, 5))
    gram = gram_matrix(FeatureMatrix(data))
    np.testing.assert_allclose(gram.values, data @ data.T, rtol=1e-10)


def test_gram_positive_semidefinite():
    rng = np.random.default_rng(92)
    gram = gram_matrix(FeatureMatrix(rng.normal(size=(25, 7))))
    eigs = np.linalg.eigvalsh(gram.values)
    assert eigs.min() >= -1e-6 * max(eigs.max(), 1.0)


def test_kernel_rows_match_gram():
    rng = np.random.default_rng(93)
    train = FeatureMatrix(rng.normal(size=(10, 6)))
    rows = kernel_rows(train, train)
    np.testing.assert_array_equal(rows, gram_matrix(train).values)
    queries = FeatureMatrix(rng.normal(size=(4, 6)))
    np.testing.assert_allclose(
        kernel_rows(queries, train), queries.data @ train.data.T, rtol=1e-12
    )
    with pytest.raises(ContractError):
        kernel_rows(FeatureMatrix(np.ones((2, 5))), train)


def test_packed_gram_matches_unpacked_dot():
    rng = np.random.default_rng(94)
    codes = sign_quantize(rng.choice([-1.0, 0.0, 1.0], size=(15, 19)))
    gram = GramMatrix(sign_kernel_rows(codes, codes))
    dense = sign_unpack(codes).astype(np.float64)
    np.testing.assert_array_equal(gram.values, dense @ dense.T)
    rows = sign_kernel_rows(codes[:4], codes)
    np.testing.assert_array_equal(rows, gram.values[:4])


@pytest.mark.parametrize("dim", [1, 7, 4 * SIGN_BLOCK_BYTES, 4 * SIGN_BLOCK_BYTES * 2 + 13])
def test_sign_kernel_matches_float_signs(dim):
    """Exact against sign(X) @ sign(Y).T in float64, across block edges and
    with all-zero rows."""
    rng = np.random.default_rng(dim)
    x = rng.normal(size=(9, dim))
    y = rng.normal(size=(6, dim))
    x[rng.random(x.shape) < 0.3] = 0.0
    x[2] = 0.0
    y[4] = 0.0
    expect = np.sign(x) @ np.sign(y).T
    np.testing.assert_array_equal(sign_kernel_rows(sign_quantize(x), sign_quantize(y)), expect)
    xq = sign_quantize(x)
    np.testing.assert_array_equal(sign_kernel_rows(xq, xq), np.sign(x) @ np.sign(x).T)


def test_sign_kernel_contract():
    codes = sign_quantize(np.ones((3, 8)))
    with pytest.raises(ContractError):
        sign_kernel_rows(codes, sign_quantize(np.ones((3, 9))))
    with pytest.raises(ContractError):
        sign_kernel_rows(codes[:0], codes)


def test_gram_requires_symmetry():
    bad = np.array([[1.0, 0.5], [0.2, 1.0]])
    with pytest.raises(ValidationError):
        GramMatrix(bad)


def test_train_separable_perfect():
    rng = np.random.default_rng(95)
    data, labels = separable_blobs(rng)
    gram = gram_matrix(FeatureMatrix(data))
    model = svm_train(gram, labels)
    preds = [svm_predict(model, gram.values[i])[0] for i in range(len(labels))]
    assert preds == labels


def test_train_three_class():
    rng = np.random.default_rng(96)
    centers = np.array([[8.0, 0.0], [-8.0, 8.0], [0.0, -8.0]])
    data = np.vstack([rng.normal(size=(8, 2)) + c for c in centers])
    labels = [f"c{i}" for i in range(3) for _ in range(8)]
    gram = gram_matrix(FeatureMatrix(data))
    model = svm_train(gram, labels)
    assert model.classes == ("c0", "c1", "c2")
    preds = [svm_predict(model, gram.values[i])[0] for i in range(24)]
    assert preds == labels


def test_xor_is_not_linearly_separable():
    """A linear kernel cannot beat 75 percent on XOR labels."""
    data = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    labels = ["a", "b", "b", "a"]
    gram = gram_matrix(FeatureMatrix(data))
    model = svm_train(gram, labels, c=100.0)
    preds = [svm_predict(model, gram.values[i])[0] for i in range(4)]
    accuracy = np.mean([p == t for p, t in zip(preds, labels)])
    assert accuracy <= 0.75


def test_dual_coefficients_feasible():
    rng = np.random.default_rng(97)
    data = rng.normal(size=(30, 3))
    labels = list(rng.choice(["u", "v", "w"], size=30))
    c = 0.7
    gram = gram_matrix(FeatureMatrix(data))
    model = svm_train(gram, labels, c=c)
    assert np.abs(model.dual_coeffs).max() <= c + 1e-9


def test_matches_projected_gradient_oracle():
    rng = np.random.default_rng(98)
    data, labels = separable_blobs(rng, n_per=8, dim=3, gap=2.0)
    gram = gram_matrix(FeatureMatrix(data))
    c = 1.0
    model = svm_train(gram, labels, c=c, tol=1e-10)

    n = gram.n
    offset = np.trace(gram.values) / n
    y = np.array([1.0 if lab == "neg" else -1.0 for lab in labels])
    q = np.outer(y, y) * (gram.values + offset)
    alpha = projected_gradient_oracle(q, c)
    # model stores beta = alpha * y for the first class in sorted order ("neg")
    np.testing.assert_allclose(model.dual_coeffs[0], alpha * y, atol=1e-5)
    np.testing.assert_allclose(model.biases[0], offset * np.dot(alpha, y), atol=1e-5)


def test_scale_covariance_power_of_two():
    """Scaling K by s^2 with C/s^2 rescales duals exactly and keeps scores."""
    rng = np.random.default_rng(99)
    data, labels = separable_blobs(rng, n_per=7, dim=4, gap=3.0)
    base = gram_matrix(FeatureMatrix(data))
    for s2 in (4.0, 0.25):
        scaled = GramMatrix(base.values * s2)
        m1 = svm_train(base, labels, c=1.0)
        m2 = svm_train(scaled, labels, c=1.0 / s2)
        np.testing.assert_array_equal(m1.dual_coeffs, m2.dual_coeffs * s2)
        for i in range(base.n):
            s_base = svm_predict(m1, base.values[i])[1]
            s_scaled = svm_predict(m2, scaled.values[i])[1]
            np.testing.assert_array_equal(s_base, s_scaled)


def test_scale_covariance_generic_scale():
    rng = np.random.default_rng(100)
    data, labels = separable_blobs(rng, n_per=7, dim=4, gap=3.0)
    base = gram_matrix(FeatureMatrix(data))
    s2 = 2.37
    scaled = GramMatrix(base.values * s2)
    m1 = svm_train(base, labels, c=1.0)
    m2 = svm_train(scaled, labels, c=1.0 / s2)
    np.testing.assert_allclose(m1.dual_coeffs, m2.dual_coeffs * s2, atol=1e-6)


def test_predict_tie_breaks_to_first_class():
    rng = np.random.default_rng(101)
    data, labels = separable_blobs(rng)
    gram = gram_matrix(FeatureMatrix(data))
    model = svm_train(gram, labels)
    zero_row = np.zeros(gram.n)
    label, scores = svm_predict(model, zero_row)
    # with a zero kernel row the scores reduce to the biases; verify argmax
    expect = model.classes[int(np.argmax(scores))]
    assert label == expect
    ties = np.flatnonzero(scores == scores.max())
    assert label == model.classes[ties[0]]


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
    gram = gram_matrix(FeatureMatrix(data))
    model = svm_train(gram, labels)
    assert set(model.classes) == {"red", "big", "blue"}
    # the "big" classifier must fire on the first blob only
    big = model.classes.index("big")
    scores = np.array([svm_predict(model, gram.values[i])[1][big] for i in range(24)])
    assert scores[:8].min() > 0
    assert scores[8:].max() < 0


def test_sweep_cap_warns():
    """Stopping at the sweep cap above tol warns, naming class, gradient and tol."""
    rng = np.random.default_rng(106)
    mixed = np.vstack([rng.normal(size=(20, 3)) + 0.3, rng.normal(size=(20, 3)) - 0.3])
    gram = gram_matrix(FeatureMatrix(mixed))
    with pytest.warns(RuntimeWarning) as record:
        svm_train(gram, ["pos"] * 20 + ["neg"] * 20, max_sweeps=1)
    messages = sorted(str(w.message) for w in record)
    assert [m.split()[1] for m in messages] == ["'neg'", "'pos'"]
    for message in messages:
        assert "not converged: max projected gradient" in message
        assert message.endswith("above tol 0.0001 (sweep cap 1)")


def test_solver_gradient_is_measured_at_returned_alpha():
    rng = np.random.default_rng(108)
    data = rng.normal(size=(30, 3))
    gram = gram_matrix(FeatureMatrix(data)).values
    augmented = gram + np.trace(gram) / 30
    y = np.where(data[:, 0] > 0, 1.0, -1.0)
    for sweeps in (1, 3, 2000):
        alpha, gradient = _solve_binary(augmented, augmented.diagonal().copy(), y, 0.5,
                                        1e-4, sweeps)
        grad = y * (augmented @ (alpha * y)) - 1.0
        projected = np.where(alpha <= 0.0, np.minimum(grad, 0.0),
                             np.where(alpha >= 0.5, np.maximum(grad, 0.0), grad))
        assert gradient == pytest.approx(np.abs(projected).max(), rel=1e-9, abs=1e-12)


def test_converged_solver_does_not_warn():
    rng = np.random.default_rng(107)
    data, labels = separable_blobs(rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        svm_train(gram_matrix(FeatureMatrix(data)), labels)


def test_train_requires_two_classes():
    gram = GramMatrix(np.eye(4))
    with pytest.raises(ContractError):
        svm_train(gram, ["same"] * 4)


def test_train_label_count_mismatch():
    gram = GramMatrix(np.eye(4))
    with pytest.raises(ContractError):
        svm_train(gram, ["a", "b"])


def test_train_bad_c():
    gram = GramMatrix(np.eye(4))
    with pytest.raises(ValidationError):
        svm_train(gram, ["a", "a", "b", "b"], c=0.0)


def test_model_round_trip(tmp_path):
    rng = np.random.default_rng(103)
    data, labels = separable_blobs(rng)
    gram = gram_matrix(FeatureMatrix(data))
    model = svm_train(gram, labels)
    path = tmp_path / "m.svm"
    save_svm(model, path)
    back = load_svm(path)
    assert back.classes == model.classes
    assert back.regularization_c == model.regularization_c
    np.testing.assert_array_equal(back.dual_coeffs, model.dual_coeffs)
    np.testing.assert_array_equal(back.biases, model.biases)
    for i in range(gram.n):
        label_a, scores_a = svm_predict(back, gram.values[i])
        label_b, scores_b = svm_predict(model, gram.values[i])
        assert label_a == label_b
        np.testing.assert_array_equal(scores_a, scores_b)


def test_model_file_truncation(tmp_path):
    rng = np.random.default_rng(104)
    data, labels = separable_blobs(rng, n_per=4)
    model = svm_train(gram_matrix(FeatureMatrix(data)), labels)
    path = tmp_path / "t.svm"
    save_svm(model, path)
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(CorruptionError):
        load_svm(path)


def test_predict_row_length_checked():
    rng = np.random.default_rng(105)
    data, labels = separable_blobs(rng, n_per=4)
    model = svm_train(gram_matrix(FeatureMatrix(data)), labels)
    with pytest.raises(ContractError):
        svm_predict(model, np.zeros(5))
