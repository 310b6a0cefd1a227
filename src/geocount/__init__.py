"""Counting closed geodesics on ellipsoids, surfaces of revolution, and
conformally perturbed round spheres.

The pipeline runs census -> stability analysis -> iterate weights ->
windowed counts, plus branch continuation along one-parameter metric
families with bifurcation-event detection and count-invariance checks.

The package logs through ``logging.getLogger("geocount")``, which has no
handler of its own: the census logs the outcome of every seed at DEBUG.
"""

import logging

from .geometry import BandExitError, GeometryError, MetricSpec
from .loops import DiscreteLoop
from .solver import (
    Census,
    CensusEntry,
    GeodesicResult,
    RefineError,
    StallError,
    find_all,
    refine_many,
    refine_to_geodesic,
)
from .jacobi import (
    JacobiReport,
    index_nullity,
    jacobi_report,
    monodromy,
    sector_decomposition,
)
from .weights import (
    AmbiguousWeight,
    CountTable,
    NotSuperRigid,
    SpectrumCollision,
    WeightRecord,
    build_count_table,
    count_function,
    degenerate_weight,
    set_weight,
    weight,
)
from .continuation import (
    BifurcationEvent,
    BranchResult,
    MetricPath,
    UnresolvedClusterError,
    continue_branch,
    spawn_doubled_branch,
    verify_invariance,
)

logging.getLogger(__name__).addHandler(logging.NullHandler())

__version__ = "0.1.0"

__all__ = [
    "AmbiguousWeight",
    "BandExitError",
    "BifurcationEvent",
    "BranchResult",
    "Census",
    "CensusEntry",
    "CountTable",
    "DiscreteLoop",
    "GeodesicResult",
    "GeometryError",
    "JacobiReport",
    "MetricPath",
    "MetricSpec",
    "NotSuperRigid",
    "RefineError",
    "SpectrumCollision",
    "StallError",
    "UnresolvedClusterError",
    "WeightRecord",
    "build_count_table",
    "continue_branch",
    "count_function",
    "degenerate_weight",
    "find_all",
    "index_nullity",
    "jacobi_report",
    "monodromy",
    "refine_many",
    "refine_to_geodesic",
    "sector_decomposition",
    "set_weight",
    "spawn_doubled_branch",
    "verify_invariance",
    "weight",
]
