"""Exact-arithmetic fractal constructions with polyhedral-norm distance sets."""

__version__ = "0.1.0"

from .dyadic import Dyadic
from .errors import PolyfracError
from .norms import Functional, PolyhedralNorm, custom_norm, min_margin, preset
from .schedule import BlockSchedule, free_fraction, generate
from .construct import (FractalSpec, SamplePoint, build_point, make_spec,
                        pinned_point, sample_points, verify_point)
from .distset import DistanceRecord, collapse_check, euclid_floor, pairwise, pinned
from .dimension import (BoxCountSeries, ComplexityProfile, count_exact,
                        decoupled_count, falconer_check, profile_c_aware,
                        profile_ideal, slab_system)

__all__ = [
    "Dyadic", "PolyfracError", "Functional", "PolyhedralNorm", "custom_norm",
    "min_margin", "preset", "BlockSchedule", "free_fraction", "generate",
    "FractalSpec", "SamplePoint", "build_point", "make_spec", "pinned_point",
    "sample_points", "verify_point", "DistanceRecord", "collapse_check",
    "euclid_floor", "pairwise", "pinned", "BoxCountSeries",
    "ComplexityProfile", "count_exact", "decoupled_count", "falconer_check",
    "profile_c_aware", "profile_ideal", "slab_system", "__version__",
]
