"""Factorization of the general polar curve into packages of branches.

The polar of a general member of a class factors into one package per
characteristic exponent.  Package k is read off the even-normalized
expansion of (m_k - m_{k-1})/e_{k-1}: every even index 2i contributes
h_{2i} equisingular branches whose invariants come from the convergent
at index 2i-1.  The copies cannot be told apart, so a package stores
one branch type per odd convergent with its copy count h_{2i}.  A type
is represented by that convergent, a raw exponent tuple, and the
canonical class of the tuple.  A branch's multiplicity trace reads the
curve's cluster: its runs scaled through the earlier blocks, then the
remainder walk of the branch's convergent down the cluster's segments
of its own block.  ``decompose`` itself reads the ladders off
``block_expansion`` and builds no cluster, so the series route, which
calls it, stays off cluster code.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from typing import Iterator, NamedTuple

from .arith import convergent, forced_remainders, normalize_even
from .cluster import Cluster, singularity_cluster
from .eqclass import (
    EqClass,
    InvalidClassError,
    TheoremViolation,
    block_expansion,
    canonicalize_exponents,
    polar_quotient,
)

__all__ = [
    "PackageSummary",
    "PolarBranch",
    "PolarDecomposition",
    "PolarPackage",
    "Trace",
    "branch_count",
    "branch_trace",
    "decompose",
    "package_summary",
    "require_member",
]


@dataclass(frozen=True, slots=True)
class PolarBranch:
    """One branch type of the general polar.

    (package, depth) identify it: package k, convergent index
    2*depth - 1.  The polar has ``copies`` = h_{2*depth} equisingular
    branches of this type, and one object stands for all of them.
    ``starts_at_terminal`` tags the block shape:
    True when m_k - m_{k-1} < e_{k-1}, in which case the branch's chain
    through block k begins at the previous block's terminal point.
    ``exponents`` is the raw invariant tuple (multiplicity first);
    ``canonical`` is its canonical class, or None for a smooth branch.
    """

    package: int
    depth: int
    copies: int
    p: int
    q: int
    starts_at_terminal: bool
    exponents: tuple[int, ...]
    canonical: EqClass | None

    @property
    def multiplicity(self) -> int:
        return self.exponents[0]

    @property
    def genus(self) -> int:
        return self.canonical.genus if self.canonical is not None else 0

    @property
    def case(self) -> str:
        return "<" if self.starts_at_terminal else ">"

    def __str__(self) -> str:
        body = (
            str(self.canonical)
            if self.canonical is not None
            else "smooth"
        )
        return f"xi[{self.package},{self.depth}] {body}"


@dataclass(frozen=True, slots=True)
class PolarPackage:
    """All branches sharing one polar quotient, as one type per odd
    convergent (``types[depth - 1]``), each with its copy count."""

    index: int
    types: tuple[PolarBranch, ...]
    multiplicity: int
    quotient: Fraction


@dataclass(frozen=True, slots=True)
class PolarDecomposition:
    eqclass: EqClass
    packages: tuple[PolarPackage, ...]

    def types(self) -> Iterator[PolarBranch]:
        for pkg in self.packages:
            yield from pkg.types

    def branches(self) -> Iterator[PolarBranch]:
        """Every branch in order: each type, the same object, per copy."""
        for t in self.types():
            yield from repeat(t, t.copies)


class PackageSummary(NamedTuple):
    index: int
    multiplicity: int
    quotient: Fraction
    branches: int


class Trace(NamedTuple):
    """Multiplicities of a germ along the cluster as runs: ``counts[i]``
    points of multiplicity ``values[i]`` on the cluster's segment i."""

    values: tuple[int, ...]
    counts: tuple[int, ...]


@lru_cache(maxsize=512)
def decompose(E: EqClass) -> PolarDecomposition:
    """Build the full polar factorization of a general member of E.

    Postconditions cross-checked on every call: package multiplicities
    match the descent-chain closed form and sum to n - 1.
    """
    packages = tuple([_package(E, k) for k in range(1, E.genus + 1)])
    wrong = _total_mismatch(E, sum(pkg.multiplicity for pkg in packages))
    if wrong:
        raise TheoremViolation(wrong)
    return PolarDecomposition(E, packages)


def _total_mismatch(E: EqClass, total: int) -> str | None:
    """Why ``total``, the summed package multiplicities of E's polar, is
    not n - 1, or None when it is."""
    if total == E.multiplicity - 1:
        return None
    return f"polar of {E} has multiplicity {total} != n - 1"


def _package(E: EqClass, k: int) -> PolarPackage:
    """Package k of decompose(E), its multiplicity checked against the
    descent-chain closed form.  It reads only (n; m_1, ..., m_k), so it
    is the same for every class with that prefix."""
    n = E.multiplicity
    e_prev = E.gcds[k - 1]
    scale = n // e_prev
    hn = normalize_even(block_expansion(E, k).quotients)
    gap_below = hn[0] == 0
    m_prev = E.exponent(k - 1)
    types: list[PolarBranch] = []
    for i in range(1, len(hn) // 2 + 1):
        p, q = convergent(hn, 2 * i - 1)
        exps = (
            p * scale,
            *(p * E.exponent(w) // e_prev for w in range(1, k)),
            p * m_prev // e_prev + q,
        )
        if exps[0] == 1:
            canonical = None  # smooth: p = 1 in package 1
        else:
            try:
                canonical = canonicalize_exponents(exps[0], exps[1:])
            except InvalidClassError as exc:
                raise TheoremViolation(f"branch {exps} of {E}: {exc}") from exc
        types.append(PolarBranch(k, i, hn[2 * i], p, q, gap_below, exps, canonical))
    mult = sum(t.copies * t.multiplicity for t in types)
    expected = scale * (E.descents[k - 1] - 1)
    if mult != expected:
        raise TheoremViolation(
            f"package {k} of {E}: constructed multiplicity {mult} != "
            f"descent-chain value {expected}"
        )
    return PolarPackage(k, tuple(types), mult, polar_quotient(E, k))


def require_member(E: EqClass, b: PolarBranch) -> PolarDecomposition:
    """Check that b is (value-equal to) a branch type of decompose(E).

    Intersection formulas silently produce garbage for a branch of some
    other class, so every entry point that takes (class, branch) pairs
    funnels through here.  The branch's package and depth name the one
    type it can be; a stored type passes by identity.  Returns the
    decomposition for reuse.
    """
    D = decompose(E)
    if 1 <= b.package <= len(D.packages):
        types = D.packages[b.package - 1].types
        if 1 <= b.depth <= len(types):
            t = types[b.depth - 1]
            if b is t or b == t:
                return D
    raise ValueError(f"{b} was not produced by decompose({E})")


def branch_count(E: EqClass, j: int) -> int:
    """Number of branches in package j: sum of the even-index quotients
    of the normalized block expansion.  Matches the copies of packages[j-1]."""
    hn = normalize_even(block_expansion(E, j).quotients)
    return sum(hn[a] for a in range(2, len(hn), 2))


def package_summary(E: EqClass) -> tuple[PackageSummary, ...]:
    """Per-package (multiplicity, polar quotient, branch count) from the
    closed forms alone — no branch construction, so this is the cheap
    independent side of the decomposition cross-checks."""
    n = E.multiplicity
    return tuple(
        PackageSummary(
            k,
            (n // E.gcds[k - 1]) * (E.descents[k - 1] - 1),
            polar_quotient(E, k),
            branch_count(E, k),
        )
        for k in range(1, E.genus + 1)
    )


@lru_cache(maxsize=4096)
def branch_trace(E: EqClass, b: PolarBranch) -> Trace:
    """Multiplicities of one polar branch along the curve's cluster, as
    runs over the cluster's segments, ending at the branch's last point.

    Through blocks 1..k-1 of b's package k the branch follows the curve
    (Casas-Alvero's description of the polar's cluster): its values are
    the cluster's runs scaled by p/e_{k-1}, each division checked exact.
    Through block k it walks the remainder recurrence of (q, p) down the
    cluster's segments 0..2i-1 of that block, which checks (p, q)
    against the cluster's ladder; the later segments are absent, and
    noether_sum reads them as 0.  In the gap-below-e case segment 0 is
    empty and the walk's first value p must equal the trace at the
    previous block's terminal.
    """
    require_member(E, b)
    return _trace(singularity_cluster(E), b)


def _trace(C: Cluster, b: PolarBranch) -> Trace:
    """branch_trace of b, a branch type of C's class, read off C, which
    needs to hold only blocks 1..k of b's package k: the trace reads
    nothing beyond them."""
    E = C.eqclass
    e_prev = E.gcds[b.package - 1]
    start = -1
    for _ in range(b.package):
        start = C.steps.index(0, start + 1)
    values: list[int] = []
    for v in C.runs[:start]:
        scaled, rem = divmod(v * b.p, e_prev)
        if rem:
            raise TheoremViolation(f"{b} of {E}: non-integral scaled multiplicity")
        values.append(scaled)
    counts = C.counts[: start + 2 * b.depth]
    try:
        walk = forced_remainders(counts[start:], b.q, b.p)
    except ValueError as exc:
        raise TheoremViolation(f"{b} of {E}: {exc}") from exc
    if b.starts_at_terminal and values[-1] != walk[0]:
        raise TheoremViolation(
            f"{b} of {E}: chain anchor value {walk[0]} != "
            f"terminal trace {values[-1]}"
        )
    return Trace((*values, *walk), counts)
