"""Two-resolution image representations: the whole image plus a block grid.

Blocks tile the image row-major.  Nominal block height is height // M; the
last row of blocks absorbs the remainder, and likewise for columns.  A
positive overlap fraction f extends every block by floor(f * nominal) units
on each side that faces another block, clamped to the image, so outer edges
never grow.  Parts are views of the image's array.  The pipeline pushes
each part through the network (stacked with the same-shape parts of other
images) and encodes it on its own; an image's vector is the concatenation,
with a part table recording (label, offset, length).  Part sizes are not
checked here: an empty block is rejected as its stack is built, and a part
too small for the layers that run by the layer that cannot fit it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .tensor import ActivationTensor, require_single


@dataclass
class ResolutionConfig:
    """Which resolutions participate and how the block grid is cut.

    ``blocks_m = blocks_n = 0`` disables the block resolution entirely, in
    which case the whole image must be included.
    """

    blocks_m: int = 2
    blocks_n: int = 2
    overlap_fraction: float = 0.0
    include_whole_image: bool = True

    def __post_init__(self):
        grid = f"{self.blocks_m}x{self.blocks_n}"
        if self.blocks_m < 0 or self.blocks_n < 0:
            raise ValidationError(f"blocks_m and blocks_n must be nonnegative, got {grid}")
        if (self.blocks_m == 0) != (self.blocks_n == 0):
            raise ValidationError(
                f"blocks_m and blocks_n must both be zero or both positive, got {grid}"
            )
        if not self.include_whole_image and self.blocks_m * self.blocks_n < 1:
            raise ValidationError("config selects no parts at all")
        if not 0.0 <= self.overlap_fraction < 1.0:
            raise ValidationError(
                f"overlap_fraction must lie in [0, 1), got {self.overlap_fraction}"
            )
        # stored as a float, so that 0 and 0.0 give one representation key
        self.overlap_fraction = float(self.overlap_fraction)


def _edges(extent: int, blocks: int, overlap: float) -> list[tuple[int, int]]:
    if blocks == 0:
        return []
    nominal = extent // blocks
    grow = int(overlap * nominal)
    spans = []
    for i in range(blocks):
        lo = i * nominal
        hi = (i + 1) * nominal if i < blocks - 1 else extent
        if i > 0:
            lo = max(0, lo - grow)
        if i < blocks - 1:
            hi = min(extent, hi + grow)
        spans.append((lo, hi))
    return spans


def _part_slices(height: int, width: int, config: ResolutionConfig) -> list[tuple]:
    """(label, resolution, rows, columns) of each part: the whole image
    first when included, then its blocks row-major."""
    row_spans = _edges(height, config.blocks_m, config.overlap_fraction)
    col_spans = _edges(width, config.blocks_n, config.overlap_fraction)
    whole = [("whole", "whole", slice(0, height), slice(0, width))]
    return (whole if config.include_whole_image else []) + [
        (f"block({i},{j})", "block", slice(r0, r1), slice(c0, c1))
        for i, (r0, r1) in enumerate(row_spans)
        for j, (c0, c1) in enumerate(col_spans)
    ]


def iter_parts(
    image: ActivationTensor, config: ResolutionConfig
) -> list[tuple[str, str, np.ndarray]]:
    """(label, resolution, array) triples: the whole image's data first
    when included, then its blocks row-major, each a view of that data."""
    data = image.data
    require_single(data, "iter_parts")
    return [
        (label, resolution, data[rows, columns])
        for label, resolution, rows, columns in _part_slices(image.height, image.width, config)
    ]


def part_shapes(height: int, width: int, config: ResolutionConfig) -> list[tuple[str, int, int]]:
    """(resolution, height, width) of each part that ``iter_parts`` cuts
    from a height x width image, in its order."""
    return [
        (resolution, rows.stop - rows.start, columns.stop - columns.start)
        for _, resolution, rows, columns in _part_slices(height, width, config)
    ]
