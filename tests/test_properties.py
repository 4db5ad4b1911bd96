"""Property tests for the binary containers (CPFMAT01, CPSIGS01, CPTENS01,
CPPCA001, CPSVM001): every value round-trips bit for bit, and every
truncated file is rejected."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from crosspool.errors import CorruptionError, FormatError, ValidationError
from crosspool.postproc import (
    PcaModel,
    load_pca,
    load_sign_stack,
    save_pca,
    save_sign_stack,
    sign_quantize,
)
from crosspool.svm import SvmModel, load_svm, save_svm
from crosspool.tensor import (
    ActivationTensor,
    ColumnReader,
    load_features,
    load_tensor,
    save_features,
    save_tensor,
)

shapes = st.tuples(st.integers(1, 6), st.integers(1, 21))
matrices = shapes.flatmap(lambda shape: arrays(np.float32, shape))
tensors = st.builds(
    ActivationTensor,
    st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 5)).flatmap(
        lambda shape: arrays(np.float32, shape, elements=st.floats(0, 1e6, width=32))
    ),
    st.booleans(),
)


@st.composite
def pca_models(draw):
    """Orthonormal float32 bases with nonincreasing eigenvalues."""
    input_dim = draw(st.integers(1, 12))
    output_dim = draw(st.integers(1, input_dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    basis = np.linalg.qr(rng.normal(size=(input_dim, output_dim)))[0].T
    eigenvalues = draw(arrays(np.float32, output_dim, elements=st.floats(0, 1e6, width=32)))
    return PcaModel(
        mean=draw(arrays(np.float32, input_dim)),
        basis=basis.astype(np.float32),
        eigenvalues=np.sort(eigenvalues)[::-1],
    )


@st.composite
def svm_models(draw):
    classes = draw(st.lists(st.text(max_size=5), min_size=2, max_size=4, unique=True))
    c = draw(st.floats(1e-3, 1e3))
    unit = st.floats(-1.0, 1.0)
    coeffs = draw(arrays(np.float64, (len(classes), draw(st.integers(1, 7))), elements=unit))
    biases = draw(arrays(np.float64, len(classes), elements=st.floats(-1e6, 1e6)))
    return SvmModel(classes, coeffs * c, biases, c)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("properties")


@settings(deadline=None)
@given(data=matrices)
def test_matrix_file_round_trip(scratch, data):
    """A finite matrix comes back bit for bit; one holding a NaN or an
    infinity is refused on load, naming the file."""
    path = scratch / "m.fmat"
    save_features(data, path)
    if not np.isfinite(data).all():
        with pytest.raises(ValidationError, match="m.fmat: feature matrix holds NaN"):
            load_features(path)
        return
    back = load_features(path)
    assert back.data.dtype == np.float32
    np.testing.assert_array_equal(back.data.view(np.uint32), data.view(np.uint32))


@settings(deadline=None)
@given(data=matrices)
def test_sign_stack_file_round_trip(scratch, data):
    codes = sign_quantize(data)
    path = scratch / "s.sgns"
    save_sign_stack(codes, data.shape[1], path)
    back, dim = load_sign_stack(path)
    assert dim == data.shape[1]
    np.testing.assert_array_equal(back, codes)


@settings(deadline=None)
@given(tensor=tensors)
def test_tensor_file_round_trip(scratch, tensor):
    path = scratch / "a.tens"
    save_tensor(tensor, path)
    back = load_tensor(path)
    assert back.rectified == tensor.rectified
    np.testing.assert_array_equal(back.data.view(np.uint32), tensor.data.view(np.uint32))


@settings(deadline=None)
@given(model=pca_models())
def test_pca_file_round_trip(scratch, model):
    path = scratch / "p.pca"
    save_pca(model, path)
    back = load_pca(path)
    for name in ("mean", "basis", "eigenvalues"):
        want = getattr(model, name)
        assert getattr(back, name).dtype == want.dtype == np.float32
        assert getattr(back, name).tobytes() == want.tobytes()


@settings(deadline=None)
@given(model=svm_models())
def test_svm_file_round_trip(scratch, model):
    path = scratch / "m.svm"
    save_svm(model, path)
    back = load_svm(path)
    assert back.classes == model.classes
    assert back.regularization_c == model.regularization_c
    np.testing.assert_array_equal(back.dual_coeffs, model.dual_coeffs)
    np.testing.assert_array_equal(back.biases, model.biases)


@settings(deadline=None)
@given(data=matrices, tensor=tensors, pca=pca_models(), svm=svm_models(),
       cut=st.floats(0.0, 1.0, exclude_max=True))
def test_truncated_files_rejected(scratch, data, tensor, pca, svm, cut):
    fmat, cols, sgns = scratch / "t.fmat", scratch / "c.fmat", scratch / "t.sgns"
    tens, pcaf, svmf = scratch / "t.tens", scratch / "t.pca", scratch / "t.svm"
    save_features(data, fmat)
    save_features(data, cols)
    save_sign_stack(sign_quantize(data), data.shape[1], sgns)
    save_tensor(tensor, tens)
    save_pca(pca, pcaf)
    save_svm(svm, svmf)
    for path, load in ((fmat, load_features), (cols, ColumnReader), (sgns, load_sign_stack),
                       (tens, load_tensor), (pcaf, load_pca), (svmf, load_svm)):
        blob = path.read_bytes()
        path.write_bytes(blob[: int(cut * len(blob))])
        with pytest.raises((CorruptionError, FormatError)):
            load(path)
    # a matrix file with bytes past its payload is rejected as well
    save_features(data, fmat)
    with open(fmat, "ab") as fh:
        fh.write(bytes(1 + int(cut * 8)))
    for load in (load_features, ColumnReader):
        with pytest.raises(CorruptionError):
            load(fmat)
