"""Equisingularity-type factorization of general polar curves.

Input: the characteristic invariants (n; m1, ..., mr) of an irreducible
plane curve singularity.  Output: the packages of its general polar
curve — how many branches, their characteristic exponents, their
multiplicities, their polar quotients, and every intersection number
among them and with the curve itself — plus two independent oracles
(an infinitely-near-point trace computation and a symbolic series
computation) that re-derive the same numbers from first principles.
"""

import sys as _sys

from .arith import *
from .classify import *
from .cluster import *
from .decompose import *
from .eqclass import *
from .intersect import *
from .oracle_series import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (
        "arith", "classify", "cluster", "decompose", "eqclass", "intersect",
        "oracle_series",
    )
    for name in _sys.modules[f"{__name__}.{module}"].__all__
] + ["__version__"]
