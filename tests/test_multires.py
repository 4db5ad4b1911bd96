"""Block partitioning and multi-part representation tests."""

import numpy as np
import pytest

from crosspool.errors import GeometryError, ValidationError
from crosspool.multires import ResolutionConfig, iter_parts, partition_blocks
from crosspool.network import (
    ConvLayerSpec,
    NetworkSpec,
    ReluStage,
    min_input_extent,
    run_network,
)
from crosspool.pipeline import PipelineConfig, parse_manifest, run_pipeline
from crosspool.synth import generate
from crosspool.tensor import ActivationTensor, load_features, load_tensor, save_tensor


def tensor(h, w, d=1, seed=0):
    rng = np.random.default_rng(seed)
    return ActivationTensor(rng.normal(size=(h, w, d)).astype(np.float32))


def test_even_split():
    t = tensor(100, 100)
    blocks = partition_blocks(t, ResolutionConfig(blocks_m=2, blocks_n=2))
    assert len(blocks) == 4
    for (i, j), b in blocks:
        assert b.data.shape == (50, 50, 1)
    np.testing.assert_array_equal(blocks[0][1].data, t.data[:50, :50])
    np.testing.assert_array_equal(blocks[3][1].data, t.data[50:, 50:])


def test_rectangular_grid():
    t = tensor(100, 60)
    blocks = partition_blocks(t, ResolutionConfig(blocks_m=2, blocks_n=1))
    assert [key for key, _ in blocks] == [(0, 0), (1, 0)]
    assert all(b.data.shape == (50, 60, 1) for _, b in blocks)


def test_remainder_goes_to_last_block():
    t = tensor(13, 13)
    blocks = partition_blocks(t, ResolutionConfig(blocks_m=3, blocks_n=3))
    heights = {key: b.height for key, b in blocks}
    assert heights[(0, 0)] == 4 and heights[(1, 0)] == 4 and heights[(2, 0)] == 5
    np.testing.assert_array_equal(blocks[-1][1].data, t.data[8:, 8:])


def test_overlap_extends_interior_sides():
    t = tensor(80, 80)
    config = ResolutionConfig(blocks_m=2, blocks_n=2, overlap_fraction=0.25)
    blocks = partition_blocks(t, config)
    # nominal 40 plus a 10-row extension on each interior side
    slices = {
        (0, 0): (slice(0, 50), slice(0, 50)),
        (0, 1): (slice(0, 50), slice(30, 80)),
        (1, 0): (slice(30, 80), slice(0, 50)),
        (1, 1): (slice(30, 80), slice(30, 80)),
    }
    for key, b in blocks:
        assert b.data.shape == (50, 50, 1)
        np.testing.assert_array_equal(b.data, t.data[slices[key]])


def test_blocks_cover_every_cell():
    rng = np.random.default_rng(8)
    t = tensor(37, 23, 2, seed=8)
    config = ResolutionConfig(blocks_m=3, blocks_n=2, overlap_fraction=0.3)
    covered = np.zeros((37, 23), dtype=bool)
    for _, b in partition_blocks(t, config):
        found = False
        for r in range(38 - b.height):
            for c in range(24 - b.width):
                if np.array_equal(t.data[r : r + b.height, c : c + b.width], b.data):
                    covered[r : r + b.height, c : c + b.width] = True
                    found = True
                    break
            if found:
                break
        assert found
    assert covered.all()


def test_min_block_size_enforced():
    t = tensor(10, 10)
    with pytest.raises(GeometryError):
        partition_blocks(t, ResolutionConfig(blocks_m=4, blocks_n=4), min_h=3, min_w=3)


def test_config_validation():
    with pytest.raises(ValidationError):
        ResolutionConfig(blocks_m=0, blocks_n=2)
    with pytest.raises(ValidationError):
        ResolutionConfig(blocks_m=0, blocks_n=0, include_whole_image=False)
    with pytest.raises(ValidationError):
        ResolutionConfig(overlap_fraction=1.0)
    ResolutionConfig(blocks_m=0, blocks_n=0)


def test_iter_parts_order():
    t = tensor(40, 40)
    config = ResolutionConfig(blocks_m=2, blocks_n=2)
    parts = iter_parts(t, config)
    labels = [label for label, _, _ in parts]
    assert labels == ["whole", "block(0,0)", "block(0,1)", "block(1,0)", "block(1,1)"]
    resolutions = [res for _, res, _ in parts]
    assert resolutions == ["whole", "block", "block", "block", "block"]
    np.testing.assert_array_equal(parts[0][2].data, t.data)


def test_iter_parts_whole_only():
    t = tensor(20, 20)
    parts = iter_parts(t, ResolutionConfig(blocks_m=0, blocks_n=0))
    assert len(parts) == 1 and parts[0][0] == "whole"


def test_iter_parts_blocks_only():
    t = tensor(20, 20)
    config = ResolutionConfig(blocks_m=2, blocks_n=2, include_whole_image=False)
    parts = iter_parts(t, config)
    assert [label for label, _, _ in parts] == [
        "block(0,0)", "block(0,1)", "block(1,0)", "block(1,1)"
    ]


def small_net():
    return NetworkSpec(
        stages=[
            ConvLayerSpec(kernel_h=3, kernel_w=3, in_depth=1, out_depth=2),
            ReluStage(),
        ],
        seed=4,
    )


def test_parts_encoded_independently(tmp_path):
    """Each part's slice of a representation equals the representation of
    that part run on its own as a whole image."""
    manifest_path, net_path = generate(tmp_path / "data", n_train=2, n_test=2, seed=6)
    manifest = parse_manifest(manifest_path)
    config = PipelineConfig(network=net_path, resolution="both")
    report = run_pipeline(config, manifest, tmp_path / "parts", stages="representations")
    image_path = manifest.split("train")[0].path
    image = load_tensor(image_path)
    lines = [f"{image_path}\ttrain\tx"]
    for (i, j), block in partition_blocks(image, config.resolution):
        path = tmp_path / f"block_{i}{j}.tens"
        save_tensor(block, path)
        lines.append(f"{path}\ttrain\tx")
    lines.append(f"{image_path}\ttest\tx")
    alone_manifest = tmp_path / "alone.tsv"
    alone_manifest.write_text("\n".join(lines) + "\n")
    alone = run_pipeline(
        PipelineConfig(network=net_path, resolution="whole"),
        parse_manifest(alone_manifest), tmp_path / "alone", stages="representations",
    )

    rows = load_features(f"{report['artifacts']['representations']}/train.fmat").data
    alone_rows = load_features(f"{alone['artifacts']['representations']}/train.fmat").data
    parts = report["dims"]["parts"]
    assert [label for label, _, _ in parts] == [
        "whole", "block(0,0)", "block(0,1)", "block(1,0)", "block(1,1)"
    ]
    for k, (_, start, length) in enumerate(parts):
        np.testing.assert_array_equal(rows[0, start : start + length], alone_rows[k])


def test_blocks_below_network_minimum_rejected():
    t = tensor(8, 8, 1, seed=7)
    with pytest.raises(GeometryError):
        iter_parts(
            t, ResolutionConfig(blocks_m=4, blocks_n=4), *min_input_extent(small_net())
        )


def test_block_grid_doubles_spatial_units():
    """Splitting 2x2 turns one 13x13 unit grid into an effective 26x26."""
    t = tensor(26, 26, 1, seed=9)
    blocks = partition_blocks(t, ResolutionConfig(blocks_m=2, blocks_n=2))
    net = NetworkSpec(
        stages=[
            ConvLayerSpec(kernel_h=1, kernel_w=1, in_depth=1, out_depth=2),
            ReluStage(),
        ],
        seed=1,
    )
    total = 0
    for _, block in blocks:
        out = run_network(block, net)[-1]
        assert (out.height, out.width) == (13, 13)
        total += out.height * out.width
    assert total == 676
