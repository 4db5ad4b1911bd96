"""Round-trip and corruption tests for the binary tensor and matrix formats."""

import struct
import tracemalloc

import numpy as np
import pytest

from crosspool.errors import ContractError, CorruptionError, FormatError, ValidationError
from crosspool.features import extract_local_features
from crosspool.multires import ResolutionConfig, iter_parts
from crosspool.pooling import cross_layer_pool
from crosspool.tensor import (
    ActivationTensor,
    ColumnReader,
    load_features,
    load_tensor,
    save_features,
    save_tensor,
)


def test_tensor_requires_3d():
    with pytest.raises(ValidationError):
        ActivationTensor(np.zeros((4, 4), dtype=np.float32))
    with pytest.raises(ValidationError):
        ActivationTensor(np.zeros((0, 4, 1), dtype=np.float32))


def test_tensor_casts_to_float32():
    t = ActivationTensor(np.ones((2, 3, 4), dtype=np.float64))
    assert t.data.dtype == np.float32
    assert (t.height, t.width, t.depth) == (2, 3, 4)


def test_rectified_flag_rejects_negatives():
    data = np.full((2, 2, 1), -1.0, dtype=np.float32)
    with pytest.raises(ValidationError):
        ActivationTensor(data, rectified=True)
    # the same payload is fine when not claiming rectification
    ActivationTensor(data, rectified=False)


def test_tensor_data_is_readonly():
    t = ActivationTensor(np.ones((2, 2, 2), dtype=np.float32))
    with pytest.raises(ValueError):
        t.data[0, 0, 0] = 5.0


def test_tensor_takes_a_leading_batch_axis():
    t = ActivationTensor(np.ones((5, 2, 3, 4), dtype=np.float32))
    assert (t.height, t.width, t.depth) == (2, 3, 4)
    with pytest.raises(ValidationError):
        ActivationTensor(np.zeros((1, 1, 1, 1, 1), dtype=np.float32))


@pytest.mark.parametrize(
    "consumer", ["save_tensor", "cross_layer_pool", "iter_parts"]
)
def test_per_image_consumers_reject_a_batch(tmp_path, consumer):
    """A consumer of one image's grid refuses an (N, H, W, D) batch instead
    of writing a wrong header or mixing the images together."""
    single = ActivationTensor(np.ones((4, 4, 3), dtype=np.float32), rectified=True)
    batch = ActivationTensor(np.ones((2, 4, 4, 3), dtype=np.float32), rectified=True)
    calls = {
        "save_tensor": lambda: save_tensor(batch, tmp_path / "b.tens"),
        "cross_layer_pool": lambda: cross_layer_pool(
            extract_local_features(single, 2, 2), batch.data, 0
        ),
        "iter_parts": lambda: iter_parts(batch, ResolutionConfig()),
    }
    with pytest.raises(ValidationError, match=r"one \(height, width, depth\) tensor"):
        calls[consumer]()
    assert not (tmp_path / "b.tens").exists()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_tensor_non_finite_rejected(tmp_path, value):
    path = tmp_path / "bad.tens"
    path.write_bytes(
        b"CPTENS01" + struct.pack("<IIIB", 1, 2, 1, 0) + struct.pack("<2f", 1.0, value)
    )
    with pytest.raises(ValidationError, match="bad.tens"):
        load_tensor(path)


def test_minimal_tensor_file_is_25_bytes(tmp_path):
    """Header is 8-byte magic + three u32 dims + one flag byte, then f32 payload."""
    path = tmp_path / "one.tens"
    save_tensor(ActivationTensor(np.zeros((1, 1, 1), dtype=np.float32)), path)
    assert path.stat().st_size == 25


def test_tensor_file_size_formula(tmp_path):
    path = tmp_path / "map.tens"
    save_tensor(ActivationTensor(np.zeros((13, 13, 256), dtype=np.float32)), path)
    assert path.stat().st_size == 8 + 12 + 1 + 4 * 13 * 13 * 256


def test_tensor_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    data = rng.normal(size=(5, 7, 3)).astype(np.float32)
    path = tmp_path / "t.tens"
    save_tensor(ActivationTensor(data, rectified=False), path)
    back = load_tensor(path)
    assert back.rectified is False
    np.testing.assert_array_equal(back.data, data)


def test_tensor_round_trip_rectified(tmp_path):
    rng = np.random.default_rng(12)
    data = np.abs(rng.normal(size=(3, 4, 2))).astype(np.float32)
    path = tmp_path / "r.tens"
    save_tensor(ActivationTensor(data, rectified=True), path)
    assert load_tensor(path).rectified is True


def test_tensor_header_layout(tmp_path):
    path = tmp_path / "h.tens"
    save_tensor(ActivationTensor(np.zeros((2, 3, 4), dtype=np.float32)), path)
    blob = path.read_bytes()
    assert blob[:8] == b"CPTENS01"
    assert struct.unpack_from("<III", blob, 8) == (2, 3, 4)
    assert blob[20] == 0


def test_tensor_bad_magic(tmp_path):
    path = tmp_path / "bad.tens"
    save_tensor(ActivationTensor(np.zeros((1, 1, 1), dtype=np.float32)), path)
    blob = bytearray(path.read_bytes())
    blob[0] = ord("X")
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        load_tensor(path)


def test_tensor_zero_dim_rejected(tmp_path):
    path = tmp_path / "z.tens"
    path.write_bytes(b"CPTENS01" + struct.pack("<IIIB", 0, 1, 1, 0))
    with pytest.raises(ValidationError):
        load_tensor(path)


def test_tensor_bad_flag(tmp_path):
    path = tmp_path / "f.tens"
    path.write_bytes(b"CPTENS01" + struct.pack("<IIIB", 1, 1, 1, 2) + b"\0" * 4)
    with pytest.raises(FormatError):
        load_tensor(path)


@pytest.mark.parametrize("cut", [1, 4, 20])
def test_tensor_truncation_detected(tmp_path, cut):
    path = tmp_path / "cut.tens"
    save_tensor(ActivationTensor(np.ones((2, 3, 4), dtype=np.float32)), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-cut])
    with pytest.raises(CorruptionError):
        load_tensor(path)


def test_tensor_trailing_bytes_detected(tmp_path):
    path = tmp_path / "extra.tens"
    save_tensor(ActivationTensor(np.ones((2, 2, 2), dtype=np.float32)), path)
    path.write_bytes(path.read_bytes() + b"\0\0")
    with pytest.raises(CorruptionError):
        load_tensor(path)


def test_matrix_round_trip(tmp_path):
    rng = np.random.default_rng(21)
    data = rng.normal(size=(9, 5))
    path = tmp_path / "m.fmat"
    save_features(data, path)
    back = load_features(path)
    assert back.data.shape == (9, 5)
    np.testing.assert_array_equal(back.data, data.astype(np.float32))


def test_matrix_empty_count_allowed(tmp_path):
    path = tmp_path / "e.fmat"
    save_features(np.zeros((0, 3)), path)
    back = load_features(path)
    assert back.data.shape == (0, 3)


def test_matrix_zero_dim_rejected(tmp_path):
    path = tmp_path / "z.fmat"
    for bad in (np.zeros((3, 0)), np.zeros(3), np.zeros((1, 2, 3))):
        with pytest.raises(ValidationError):
            save_features(bad, path)
    assert not path.exists()


def test_matrix_truncation(tmp_path):
    path = tmp_path / "c.fmat"
    save_features(np.ones((4, 4)), path)
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(CorruptionError):
        load_features(path)


@pytest.mark.parametrize("width", [1, 7, 4096, 8205])
def test_column_reader_blocks_match_load(tmp_path, width):
    """The column blocks of a walk, a last one that ends short included,
    are bitwise the slices of the loaded matrix."""
    rng = np.random.default_rng(22)
    data = rng.standard_normal((3, 8205), dtype=np.float32)
    path = tmp_path / "r.fmat"
    save_features(data, path)
    whole = load_features(path).data
    with ColumnReader(path) as reader:
        assert reader.shape == whole.shape and reader.dtype == whole.dtype
        blocks = [reader[:, lo : lo + width] for lo in range(0, 8205, width)]
    assert [b.shape[1] for b in blocks] == [
        whole[:, lo : lo + width].shape[1] for lo in range(0, 8205, width)
    ]
    joined = np.concatenate(blocks, axis=1)
    assert joined.dtype == whole.dtype
    np.testing.assert_array_equal(joined.view(np.uint32), whole.view(np.uint32))


def test_column_reader_holds_one_block(tmp_path):
    """Opening a reader and reading one block never holds the matrix."""
    path = tmp_path / "r.fmat"
    save_features(np.ones((4, 65536), dtype=np.float32), path)
    tracemalloc.start()
    try:
        with ColumnReader(path) as reader:
            block = reader[:, 100:4196]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert block.shape == (4, 4096) and (block == 1).all()
    assert peak < 4 * 65536 * 4 / 4


def test_column_reader_rejects_other_keys(tmp_path):
    path = tmp_path / "r.fmat"
    save_features(np.ones((2, 5)), path)
    with ColumnReader(path) as reader:
        assert reader[:, 4:9].shape == (2, 1) and reader[:, 3:3].shape == (2, 0)
        for key in (slice(0, 1), (0, slice(0, 2)), (slice(None), 1),
                    (slice(None), slice(0, 4, 2))):
            with pytest.raises(ContractError):
                reader[key]


def test_matrix_bad_magic(tmp_path):
    path = tmp_path / "b.fmat"
    path.write_bytes(b"NOTMAGIC" + struct.pack("<II", 1, 1) + b"\0" * 4)
    with pytest.raises(FormatError):
        load_features(path)
