"""Exact symbolic verification of comparison obstructions in
Villadsen-type inductive systems.

Spaces are formal products of disks, 2-spheres and complex projective
spaces; bundles are sums of pulled-back line bundles; comparison is decided
only by certificates (rank gaps and Euler-class obstructions); and every
stage quantity of the two inductive-system families, including the witness
sequences for the failure of the Corona Factorization Property, is computed
in exact integer and rational arithmetic.
"""

from .version import ENGINE_VERSION as __version__

from .spaces import SpaceAtom, SpaceDescriptor, SpaceMap, cproj, disk, spheres, sphere2
from .cohomology import GradedClass
from .bundles import (
    BundleExpr,
    DiagonalSlot,
    chern,
    euler,
    pullback_bundle,
    pushforward_diagonal,
    trivial_bundle,
)
from .comparison import dominates_by_rank, obstructed_by_euler, trivial_line_subbundle_sufficient
from .type_one import (
    StageStats,
    StepSpec,
    SystemConfig,
    compose_stats,
    ratio_contradiction_check,
    ratio_trajectory,
    top_chern_witness,
)
from .type_two import (
    SystemParams,
    build_stage,
    comparability_triple,
    radius_of_comparison,
    trace_value,
)
from .cfp import (
    CfpWitness,
    build_witness,
    factor_dimension,
    first_witness_stage,
    next_witness_stage,
    verify_lower,
    verify_upper,
)

__all__ = [name for name in dir() if not name.startswith("_")]
