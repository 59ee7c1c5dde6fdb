"""Families of multidimensional ternary arrays with exactly verified
correlation bounds, and their application to spread-spectrum image
watermarking."""

from .arrays import IntArray, TernaryArray, deserialize, render, serialize
from .correlation import (
    CorrelationReport,
    PrecisionError,
    WelchMetrics,
    cross_correlation_at,
    full_correlation,
    full_correlation_fast,
    verify_autocorrelation,
    verify_cross_correlation,
    verify_family,
    welch_metrics,
)
from .family import (
    ArrayFamily,
    FamilyMember,
    ImperfectSequenceError,
    build_family,
    build_member,
    circulant_from_perfect,
    is_perfect,
)
from .fields import (
    ExtField,
    Poly,
    factorize,
    find_primitive_poly,
    is_prime,
    is_primitive,
    quadratic_residues,
)
from .images import GrayImage, read_pgm, write_pgm
from .legendre import (
    FlatAutocorrelationReport,
    LegendreParams,
    legendre_array,
    legendre_sequence,
    verify_flat_autocorrelation,
)
from .watermark import (
    EmbedConfig,
    ExtractionResult,
    Payload,
    embed,
    extract,
    flatten,
    tile_dims,
    unflatten,
)

__version__ = "0.1.0"

__all__ = [
    "ArrayFamily",
    "CorrelationReport",
    "EmbedConfig",
    "ExtField",
    "ExtractionResult",
    "FamilyMember",
    "FlatAutocorrelationReport",
    "GrayImage",
    "ImperfectSequenceError",
    "IntArray",
    "LegendreParams",
    "Payload",
    "Poly",
    "PrecisionError",
    "TernaryArray",
    "WelchMetrics",
    "build_family",
    "build_member",
    "circulant_from_perfect",
    "cross_correlation_at",
    "deserialize",
    "embed",
    "extract",
    "factorize",
    "find_primitive_poly",
    "flatten",
    "full_correlation",
    "full_correlation_fast",
    "is_perfect",
    "is_prime",
    "is_primitive",
    "legendre_array",
    "legendre_sequence",
    "quadratic_residues",
    "read_pgm",
    "render",
    "serialize",
    "tile_dims",
    "unflatten",
    "verify_autocorrelation",
    "verify_cross_correlation",
    "verify_family",
    "verify_flat_autocorrelation",
    "welch_metrics",
    "write_pgm",
]
