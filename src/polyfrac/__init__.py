"""Exact-arithmetic fractal constructions with polyhedral-norm distance sets.

Names are re-exported lazily (PEP 562): ``polyfrac.count_exact`` imports
``polyfrac.dimension`` on first use, so ``import polyfrac`` and each CLI
command load only the submodules they run.
"""

import importlib

__version__ = "0.1.0"

# exported name -> submodule defining it
_HOME = {
    "Dyadic": "dyadic", "PolyfracError": "errors",
    "Functional": "norms", "PolyhedralNorm": "norms", "custom_norm": "norms",
    "min_margin": "norms", "preset": "norms",
    "BlockSchedule": "schedule", "free_fraction": "schedule",
    "generate": "schedule",
    "FractalSpec": "construct", "SamplePoint": "construct",
    "build_point": "construct", "make_spec": "construct",
    "pinned_point": "construct", "sample_points": "construct",
    "verify_point": "construct", "first_failure": "construct",
    "DistanceRecord": "distset", "collapse_check": "distset",
    "collapse_first_failure": "distset",
    "euclid_floor": "distset", "pairwise": "distset", "pinned": "distset",
    "ComplexityProfile": "dimension",
    "count_exact": "dimension", "decoupled_count": "dimension",
    "falconer_check": "dimension", "profile_c_aware": "dimension",
    "profile_ideal": "dimension", "slab_system": "dimension",
}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value
