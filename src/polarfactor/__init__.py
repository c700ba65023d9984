"""Equisingularity-type factorization of general polar curves.

Input: the characteristic invariants (n; m1, ..., mr) of an irreducible
plane curve singularity.  Output: the packages of its general polar
curve — how many branches, their characteristic exponents, their
multiplicities, their polar quotients, and every intersection number
among them and with the curve itself — plus two independent oracles
(an infinitely-near-point trace computation and a symbolic series
computation) that re-derive the same numbers from first principles.
"""

from .arith import (
    Convergent,
    EuclidExpansion,
    continued_fraction_value,
    convergent,
    euclid_expansion,
    forced_remainders,
    normalize_even,
)
from .classify import (
    ScanHit,
    genus_drop,
    genus_drop_lambda,
    max_branch_genus,
    scan,
    smooth_polar,
    smooth_scan_pairs,
)
from .cluster import (
    Cluster,
    ProximityReport,
    check_proximity,
    noether_sum,
    polar_cluster,
    render,
    singularity_cluster,
)
from .decompose import (
    PolarBranch,
    PolarDecomposition,
    PolarPackage,
    branch_count,
    branch_trace,
    decompose,
    package_summary,
)
from .eqclass import (
    EqClass,
    InvalidClassError,
    TheoremViolation,
    block_expansion,
    canonicalize_exponents,
    enumerate_classes,
    polar_quotient,
    scaled_polar_quotient,
    validate,
)
from .intersect import (
    IntersectionReport,
    SweepReport,
    branch_vs_curve,
    intersection_report,
    oracle_pair_intersection,
    pair_intersection,
    verify_classes,
)
from .oracle_series import (
    IntPoly2,
    SeriesReport,
    TruncSeries,
    implicitize,
    polar_poly,
    sample_parametrization,
    verify_class,
)

__version__ = "0.1.0"

__all__ = [
    "Convergent",
    "EuclidExpansion",
    "continued_fraction_value",
    "convergent",
    "euclid_expansion",
    "forced_remainders",
    "normalize_even",
    "ScanHit",
    "genus_drop",
    "genus_drop_lambda",
    "max_branch_genus",
    "scan",
    "smooth_polar",
    "smooth_scan_pairs",
    "Cluster",
    "ProximityReport",
    "check_proximity",
    "noether_sum",
    "polar_cluster",
    "render",
    "singularity_cluster",
    "PolarBranch",
    "PolarDecomposition",
    "PolarPackage",
    "branch_count",
    "branch_trace",
    "decompose",
    "package_summary",
    "EqClass",
    "InvalidClassError",
    "TheoremViolation",
    "block_expansion",
    "canonicalize_exponents",
    "enumerate_classes",
    "polar_quotient",
    "scaled_polar_quotient",
    "validate",
    "IntersectionReport",
    "SweepReport",
    "branch_vs_curve",
    "intersection_report",
    "oracle_pair_intersection",
    "pair_intersection",
    "verify_classes",
    "IntPoly2",
    "SeriesReport",
    "TruncSeries",
    "implicitize",
    "polar_poly",
    "sample_parametrization",
    "verify_class",
    "__version__",
]
