"""PCA, power normalization, and 2-bit sign code tests."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import crosspool.postproc
from crosspool.errors import (
    ContractError,
    CorruptionError,
    RankError,
    ValidationError,
)
from crosspool.postproc import (
    _BYTE_SIGNS,
    load_pca,
    load_sign_stack,
    pca_fit,
    pca_project,
    power_normalize,
    save_pca,
    save_sign_stack,
    sign_quantize,
    sign_unpack,
)


def pca_oracle(data, dim):
    """Independent route: np.cov plus np.linalg.eig, sorted by eigenvalue."""
    cov = np.cov(data, rowvar=False, ddof=1)
    vals, vecs = np.linalg.eig(cov)
    vals = np.real(vals)
    vecs = np.real(vecs)
    order = np.argsort(vals)[::-1]
    return vals[order][:dim], vecs[:, order][:, :dim].T


# float32's unit roundoff: the model is fitted in float64 and rounded to
# float32 once, which moves each value by at most U of its magnitude
U = 2.0**-24


def test_pca_eigenvalues_match_cov_eig():
    """float32 eigenvalues, each within the float64 fit's 1e-8 of the
    oracle's plus one rounding, U."""
    rng = np.random.default_rng(70)
    data = rng.normal(size=(300, 8)) @ rng.normal(size=(8, 8))
    model = pca_fit(data, 8)
    vals, _ = pca_oracle(data, 8)
    assert model.eigenvalues.dtype == np.float32
    np.testing.assert_allclose(model.eigenvalues, vals, rtol=1e-8 + U, atol=1e-10)


def test_pca_basis_spans_oracle_directions():
    """Each float32 basis row is the float64 unit vector v plus e with
    |e_j| <= U |v_j|, so its dot product with v moves by at most
    U * sum v_j**2 = U from the float64 fit's 1 - 1e-8."""
    rng = np.random.default_rng(71)
    # distinct variances so eigenvectors are unique up to sign
    data = rng.normal(size=(500, 5)) * np.array([5.0, 3.0, 2.0, 1.0, 0.5])
    model = pca_fit(data, 5)
    _, vecs = pca_oracle(data, 5)
    assert model.basis.dtype == np.float32
    for row, oracle_row in zip(model.basis, vecs):
        dot = abs(np.dot(row.astype(np.float64), oracle_row))
        assert dot > 1 - 1e-8 - U


def test_pca_sign_convention():
    """The largest-magnitude entry of each basis row is positive."""
    rng = np.random.default_rng(72)
    data = rng.normal(size=(100, 6)) * np.arange(1, 7)
    model = pca_fit(data, 6)
    for row in model.basis:
        assert row[np.argmax(np.abs(row))] > 0


def test_pca_line_data():
    """Points on a line project onto it; the second component would be noise."""
    rng = np.random.default_rng(73)
    ts = rng.normal(size=200)
    direction = np.array([3.0, 4.0]) / 5.0
    data = np.outer(ts, direction) + np.array([10.0, -2.0])
    model = pca_fit(data, 1)
    np.testing.assert_allclose(np.abs(model.basis[0]), direction, atol=1e-7)
    np.testing.assert_allclose(model.mean, data.mean(axis=0), atol=1e-7)
    projected = pca_project(model, data)
    np.testing.assert_allclose(np.abs(projected[:, 0]), np.abs(ts - ts.mean()), atol=1e-6)


def test_pca_rank_error_reports_achievable():
    rng = np.random.default_rng(74)
    ts = rng.normal(size=50)
    data = np.outer(ts, [1.0, 2.0, 3.0])
    with pytest.raises(RankError) as info:
        pca_fit(data, 2)
    assert info.value.achievable_rank == 1


def test_pca_contract_errors():
    with pytest.raises(ContractError):
        pca_fit(np.ones((1, 4)), 1)
    rng = np.random.default_rng(75)
    data = rng.normal(size=(5, 10))
    # only count-1 = 4 components are estimable from 5 samples
    with pytest.raises(ContractError):
        pca_fit(data, 5)
    # a projection takes (count, input_dim) rows and nothing else
    model = pca_fit(data, 2)
    for rows in (data[:, :9], data.reshape(5, 2, 5)):
        with pytest.raises(ContractError):
            pca_project(model, rows)


def test_pca_projection_decorrelated():
    """Projected through the float32 basis B + D, |D| <= U |B|, the sample
    covariance is (B + D) C (B + D)^T.  Entry (i, j) of D C B^T is
    lambda_j D_i . b_j, at most U lambda_j by Cauchy-Schwarz, so an
    off-diagonal entry moves by U (lambda_i + lambda_j) and a diagonal one
    by 2 U lambda_i, plus O(U**2); the float32 eigenvalue adds U lambda_i.
    Centering by the rounded mean shifts every projection by one constant,
    which the covariance removes.  The float64 fit's own 1e-8 stays."""
    rng = np.random.default_rng(76)
    data = rng.normal(size=(400, 6)) @ rng.normal(size=(6, 6))
    model = pca_fit(data, 4)
    projected = pca_project(model, data)
    cov = np.cov(projected, rowvar=False, ddof=1)
    eigenvalues = model.eigenvalues.astype(np.float64)
    off = cov - np.diag(np.diag(cov))
    bound = 1e-8 + 1.001 * U * (eigenvalues[:, None] + eigenvalues[None, :])
    assert np.all(np.abs(off) <= bound)
    np.testing.assert_allclose(np.diag(cov), eigenvalues, rtol=1e-8 + 3.001 * U)


def test_pca_reconstruction_error_nonincreasing():
    rng = np.random.default_rng(77)
    data = rng.normal(size=(200, 20)) @ rng.normal(size=(20, 20))
    errors = []
    for dim in (2, 5, 10, 20):
        model = pca_fit(data, dim)
        projected = pca_project(model, data)
        rebuilt = projected @ model.basis + model.mean
        errors.append(float(np.mean((rebuilt - data) ** 2)))
    assert all(a >= b - 1e-12 for a, b in zip(errors, errors[1:]))


def test_pca_fit_holds_one_float64_copy_of_the_sample():
    """On a tall float32 sample the fit's peak is its one centered float64
    copy, count * dim * 8 bytes, with a quarter to spare; a float64 copy
    and a centered copy beside it would need twice that."""
    count, dim = 40000, 40
    sample = np.random.default_rng(78).standard_normal((count, dim), dtype=np.float32)
    tracemalloc.start()
    try:
        pca_fit(sample, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * count * dim * 8


def test_pca_file_round_trip(tmp_path):
    rng = np.random.default_rng(78)
    data = rng.normal(size=(60, 7))
    model = pca_fit(data, 3)
    path = tmp_path / "m.pca"
    save_pca(model, path)
    back = load_pca(path)
    assert back.input_dim == 7 and back.output_dim == 3
    np.testing.assert_allclose(back.mean, model.mean, rtol=1e-6)
    np.testing.assert_allclose(back.basis, model.basis, rtol=1e-5, atol=1e-7)
    # projections through the reloaded model stay close at float32 precision
    a = pca_project(model, data)
    b = pca_project(back, data)
    np.testing.assert_allclose(a, b, rtol=1e-4, atol=1e-4)


def test_pca_file_truncation(tmp_path):
    rng = np.random.default_rng(79)
    model = pca_fit(rng.normal(size=(30, 4)), 2)
    path = tmp_path / "t.pca"
    save_pca(model, path)
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(CorruptionError):
        load_pca(path)


def test_power_normalize():
    v = np.array([4.0, -9.0, 0.0, 0.25])
    np.testing.assert_allclose(power_normalize(v), [2.0, -3.0, 0.0, 0.5])


def test_power_normalize_monotone_and_odd():
    rng = np.random.default_rng(80)
    v = rng.normal(size=100)
    out = power_normalize(v)
    np.testing.assert_allclose(power_normalize(-v), -out)
    np.testing.assert_array_equal(np.sign(out), np.sign(v))


def test_sign_quantize_example():
    q = sign_quantize(np.array([[2.5, -0.1, 0.0, 7.0]]))
    assert q.shape == (1, 1) and q.dtype == np.uint8
    assert q[0, 0] == 0b01_00_10_01
    np.testing.assert_array_equal(sign_unpack(q), [[1.0, -1.0, 0.0, 1.0]])


@pytest.mark.parametrize("dim,nbytes", [(1, 1), (4, 1), (5, 2), (8, 2), (9, 3), (160, 40)])
def test_packed_size(dim, nbytes):
    q = sign_quantize(np.zeros((3, dim)))
    assert q.shape == (3, nbytes)
    assert not q.any()


def test_sign_round_trip_random():
    rng = np.random.default_rng(81)
    for _ in range(50):
        count, dim = int(rng.integers(1, 5)), int(rng.integers(1, 40))
        v = rng.choice([-1.0, 0.0, 1.0], size=(count, dim))
        v *= rng.uniform(0.1, 5.0, size=(count, dim))
        v[rng.random((count, dim)) < 0.2] = 0.0
        for dtype in (np.float32, np.float64):
            signs = sign_unpack(sign_quantize(v.astype(dtype)))
            np.testing.assert_array_equal(signs[:, :dim], np.sign(v))
            assert not signs[:, dim:].any()


def test_sign_quantize_rejects_non_matrix():
    for bad in (np.ones(3), np.ones((2, 0)), np.ones((1, 2, 2))):
        with pytest.raises(ValidationError):
            sign_quantize(bad)


def quantize_oracle(values):
    """Shift-and-OR packing of one code per byte, four bytes at a time."""
    count, dim = values.shape
    codes = np.zeros((count, (dim + 3) // 4 * 4), dtype=np.uint8)
    codes[:, :dim] = values > 0
    codes[:, :dim] |= (values < 0).view(np.uint8) << 1
    quads = codes.reshape(count, -1, 4)
    return quads[..., 0] | quads[..., 1] << 2 | quads[..., 2] << 4 | quads[..., 3] << 6


def unpack_oracle(codes):
    """Lookup of each byte's row in the (256, 4) table of float32 signs."""
    return _BYTE_SIGNS[codes].reshape(codes.shape[0], 4 * codes.shape[1])


@st.composite
def column_slices(draw, elements, dtype, max_width=4100):
    """A (count, width) matrix and a column slice of it, which is not
    contiguous unless it spans every column."""
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, max_width)))
    matrix = draw(arrays(dtype, shape, elements=elements, fill=elements))
    lo = draw(st.integers(0, shape[1] - 1))
    return matrix, matrix[:, lo : draw(st.integers(lo + 1, shape[1]))]


def special_floats(dtype):
    tiny = float(np.finfo(dtype).smallest_subnormal)
    specials = [0.0, -0.0, np.nan, np.inf, -np.inf, tiny, -tiny, 3 * tiny, -1.0]
    return st.sampled_from(specials) | st.floats(width=np.finfo(dtype).bits)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@settings(deadline=None)
@given(data=st.data())
def test_sign_quantize_matches_shift_or_oracle(dtype, data):
    """Bit for bit, on zeros of both signs, NaN, infinities and subnormals,
    at every width up to 4100 and on column slices."""
    for values in data.draw(column_slices(special_floats(dtype), dtype)):
        codes = sign_quantize(values)
        assert codes.dtype == np.uint8
        np.testing.assert_array_equal(codes, quantize_oracle(values))
        spare = values.shape[1] % 4
        assert not spare or not (codes[:, -1] >> 2 * spare).any()


@settings(deadline=None)
@given(pair=column_slices(st.integers(0, 255), np.uint8))
def test_sign_unpack_matches_table_oracle(pair):
    """Bit for bit, on any bytes, at every width up to 4100 and on the
    column slices ``svm.kernels`` passes."""
    for codes in pair:
        assert sign_unpack(codes).tobytes() == unpack_oracle(codes).tobytes()


def test_sign_unpack_every_byte():
    codes = np.arange(256, dtype=np.uint8).reshape(2, 128)
    signs = sign_unpack(codes)
    assert signs.dtype == np.float32 and signs.shape == (2, 512)
    assert signs.tobytes() == unpack_oracle(codes).tobytes()
    # the invalid code 11 unpacks to 0
    assert sign_unpack(np.array([[0b11_11_11_11]], dtype=np.uint8)).tobytes() == bytes(16)


def _stack_file(path, count, dim, payload):
    path.write_bytes(b"CPSIGS01" + struct.pack("<II", count, dim) + bytes(payload))
    return path


def test_code_three_rejected(tmp_path):
    with pytest.raises(ValidationError):
        load_sign_stack(_stack_file(tmp_path / "c.sgns", 1, 1, [0b11]))
    with pytest.raises(ValidationError):
        load_sign_stack(_stack_file(tmp_path / "d.sgns", 2, 8, [0, 0, 0b1100_0000, 0]))


def test_padding_bits_must_be_zero(tmp_path):
    with pytest.raises(ValidationError):
        load_sign_stack(_stack_file(tmp_path / "p.sgns", 1, 1, [0b0100]))
    # dim 6: the last byte holds two dimensions, its high nibble is padding
    with pytest.raises(ValidationError):
        load_sign_stack(_stack_file(tmp_path / "q.sgns", 2, 6, [0, 0b0101, 0, 0b01_0000]))
    codes, dim = load_sign_stack(_stack_file(tmp_path / "ok.sgns", 2, 6, [0, 0b1001, 0, 0]))
    assert dim == 6 and codes.tolist() == [[0, 0b1001], [0, 0]]


@pytest.mark.parametrize("payload", [[1, 2, 1], [1, 2, 1, 2, 1]])
def test_sign_stack_wrong_payload_size(tmp_path, payload):
    with pytest.raises(CorruptionError):
        load_sign_stack(_stack_file(tmp_path / "s.sgns", 2, 8, payload))


def test_sign_stack_round_trip(tmp_path):
    rng = np.random.default_rng(84)
    codes = sign_quantize(rng.normal(size=(5, 9)))
    path = tmp_path / "s.sgns"
    save_sign_stack(codes, 9, path)
    assert path.stat().st_size == 8 + 8 + 5 * 3
    back, dim = load_sign_stack(path)
    assert dim == 9
    np.testing.assert_array_equal(back, codes)


def test_sign_stack_dim_mismatch(tmp_path):
    codes = sign_quantize(np.ones((2, 4)))
    with pytest.raises(ContractError):
        save_sign_stack(codes, 5, tmp_path / "bad.sgns")


def whole_sample_fit(sample, output_dim):
    """The whole-sample PCA expression, the chunked fit's oracle: one
    centered float64 copy and one cross-product; the eigenvalues and the
    sign-fixed basis rows, in float64."""
    mean = sample.mean(axis=0, dtype=np.float64)
    centered = sample - mean
    cov = centered.T @ centered / (sample.shape[0] - 1)
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    order = np.argsort(eigenvalues)[::-1][:output_dim]
    basis = eigenvectors[:, order].T.copy()
    for row in basis:
        if row[int(np.argmax(np.abs(row)))] < 0:
            row *= -1.0
    return mean, basis, eigenvalues[order], eigenvalues


def test_pca_fit_in_one_chunk_is_the_whole_sample_expression():
    """A sample of at most ``PCA_CHUNK_ROWS`` rows is fitted by the oracle's
    expression: the model equals its float32 rounding bit for bit."""
    sample = np.random.default_rng(80).standard_normal((300, 12)).astype(np.float32)
    mean, basis, eigenvalues, _ = whole_sample_fit(sample, 5)
    model = pca_fit(sample, 5)
    for got, want in ((model.mean, mean), (model.basis, basis), (model.eigenvalues, eigenvalues)):
        assert got.tobytes() == want.astype(np.float32).tobytes()


@pytest.mark.parametrize("chunk", [7, 64, 299])
def test_chunked_pca_fit_is_within_rounding_of_the_whole_sample(monkeypatch, chunk):
    """Fitted in chunks of ``chunk`` rows, the eigenvalues and projections
    lie within a derived tolerance of the whole-sample oracle.

    The two fits differ only in how the cross-product C = X'X of the
    centered rows (n = 300 rows, d = 12, u = 2**-53) is summed, and in
    their own ``eigh`` rounding.  Each entry of either sum is within
    gamma_n * (|X|'|X|)_ij of the exact one (gamma_n = n u / (1 - n u)),
    so after the division by n - 1 the covariances differ by a matrix E
    with ||E||_2 <= ||E||_F <= 2 gamma_n ||X||_F^2 / (n - 1)
    = 2 gamma_n trace(S), S the covariance.  ``eigh`` is backward stable:
    each fit's eigenpairs are exact for its matrix plus a perturbation of
    norm at most p(d) u ||S||_2; with p(d) = d, the two fits are exact for
    matrices eps = 2 gamma_n trace(S) + 2 d u ||S||_2 apart.  Then:
    - Weyl: each eigenvalue moves by at most eps; the model rounds it to
      float32, one more relative 2**-24.
    - Davis-Kahan: basis row i turns by sin(theta_i) <= eps / (g_i - eps),
      g_i its eigenvalue's distance to the rest of the spectrum; with the
      same sign convention ||b - b'|| <= sqrt(2) sin(theta_i).  A row x
      projects, ((x - m) . b), differently by at most ||x - m|| times that,
      plus the float32 rounding of the model's basis (2**-24 sqrt(d)
      ||x - m||) and mean (2**-24 ||m||).
    The sample's eigenvalues are spread 1 to 64, so every g_i is large
    against eps and the tolerance is about 1e-13 relative for the
    eigenvalues; float32 rounding dominates the projections."""
    monkeypatch.setattr(crosspool.postproc, "PCA_CHUNK_ROWS", chunk)
    rng = np.random.default_rng(81)
    n, d, k = 300, 12, 5
    scales = np.sqrt(np.geomspace(64.0, 1.0, d))
    rotation = np.linalg.qr(rng.standard_normal((d, d)))[0]
    sample = ((rng.standard_normal((n, d)) * scales) @ rotation + 3.0).astype(np.float32)
    mean, basis, eigenvalues, spectrum = whole_sample_fit(sample, k)
    model = pca_fit(sample, k)

    u, u32 = 2.0**-53, 2.0**-24
    gamma = n * u / (1 - n * u)
    eps = 2 * gamma * spectrum.sum() + 2 * d * u * spectrum.max()
    np.testing.assert_array_less(
        np.abs(model.eigenvalues - eigenvalues), eps + u32 * eigenvalues + 1e-300
    )
    order = np.sort(spectrum)[::-1]
    gaps = np.array([np.min(np.abs(np.delete(order, i) - order[i])) for i in range(k)])
    turn = np.sqrt(2) * eps / (gaps - eps)
    rows = sample.astype(np.float64)
    norms = np.linalg.norm(rows - mean, axis=1, keepdims=True)
    tolerance = norms * (turn + u32 * np.sqrt(d)) + u32 * np.linalg.norm(mean)
    got = (rows - model.mean.astype(np.float64)) @ model.basis.astype(np.float64).T
    want = (rows - mean) @ basis.T
    assert np.all(np.abs(got - want) <= tolerance)
