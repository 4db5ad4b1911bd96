"""Property tests for the CPFMAT01 and CPSIGS01 containers: every matrix
round-trips bit for bit, and every truncated file is rejected."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from crosspool.errors import CorruptionError, FormatError
from crosspool.postproc import load_sign_stack, save_sign_stack, sign_quantize
from crosspool.tensor import FeatureMatrix, load_features, save_features

shapes = st.tuples(st.integers(1, 6), st.integers(1, 21))
matrices = shapes.flatmap(lambda shape: arrays(np.float32, shape))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("properties")


@settings(deadline=None)
@given(data=matrices)
def test_matrix_file_round_trip(scratch, data):
    path = scratch / "m.fmat"
    save_features(FeatureMatrix(data), path)
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
@given(data=matrices, cut=st.floats(0.0, 1.0, exclude_max=True))
def test_truncated_files_rejected(scratch, data, cut):
    fmat, sgns = scratch / "t.fmat", scratch / "t.sgns"
    save_features(FeatureMatrix(data), fmat)
    save_sign_stack(sign_quantize(data), data.shape[1], sgns)
    for path, load in ((fmat, load_features), (sgns, load_sign_stack)):
        blob = path.read_bytes()
        path.write_bytes(blob[: int(cut * len(blob))])
        with pytest.raises((CorruptionError, FormatError)):
            load(path)
