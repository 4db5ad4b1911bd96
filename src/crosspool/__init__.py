"""Image representations built by pooling one conv layer's local features
with the next layer's feature maps, plus baseline pooling schemes, compact
sign codes, and a precomputed-kernel SVM for classifying the results."""

from .errors import (
    ConfigError,
    ContractError,
    CorruptionError,
    CrossPoolError,
    FormatError,
    GeometryError,
    RankError,
    ValidationError,
)

__version__ = "0.8.0"

__all__ = [
    "ConfigError",
    "ContractError",
    "CorruptionError",
    "CrossPoolError",
    "FormatError",
    "GeometryError",
    "RankError",
    "ValidationError",
    "__version__",
]
