"""Equisingularity classes of irreducible plane curve singularities.

A class is determined by the multiplicity n and the characteristic
exponents m_1 < ... < m_r: the exponents where the running gcd chain
e_k = gcd(n, m_1, ..., m_k) strictly drops, ending at e_r = 1.  This
module validates the discrete data, derives the numerical chains that
every other module consumes (gcds, descent factors, semigroup,
conductor, polar quotients), and enumerates all classes under bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .arith import EuclidExpansion, euclid_expansion

__all__ = [
    "EqClass",
    "InvalidClassError",
    "TheoremViolation",
    "block_expansion",
    "canonicalize_exponents",
    "enumerate_classes",
    "polar_quotient",
    "scaled_polar_quotient",
    "validate",
]


class InvalidClassError(ValueError):
    """The given (n; m_1,...,m_r) data violates a class invariant."""


class TheoremViolation(RuntimeError):
    """An identity that provably holds for every valid class failed.

    Raised by cross-checks throughout the package.  Seeing one means a
    bug in this code (or a genuinely false closed form), never bad user
    input; bad input raises InvalidClassError instead.
    """


@dataclass(frozen=True, slots=True)
class EqClass:
    """The topological type (n; m_1,...,m_r) with its derived chains.

    Stored derived data:
      gcds      e_0,...,e_r with e_0 = n, e_k = gcd(e_{k-1}, m_k); strictly
                decreasing, e_r = 1
      descents  d_1,...,d_r with d_k = e_{k-1}/e_k >= 2
      semigroup v_0,...,v_r: minimal generators of the value semigroup
      conductor c: first integer from which the semigroup has no gaps;
                equals the Milnor number for an irreducible branch

    Instances are only built through validate() / enumerate_classes(),
    which guarantee the invariants; the constructor performs no checks.
    The derived fields are functions of (n; m), so equality and hashing
    read (n; m) alone.
    """

    multiplicity: int
    exponents: tuple[int, ...]
    gcds: tuple[int, ...] = field(repr=False, compare=False)
    descents: tuple[int, ...] = field(repr=False, compare=False)
    semigroup: tuple[int, ...] = field(repr=False, compare=False)
    conductor: int = field(repr=False, compare=False)

    @property
    def genus(self) -> int:
        return len(self.exponents)

    @property
    def milnor(self) -> int:
        return self.conductor

    def exponent(self, k: int) -> int:
        """m_k with the convention m_0 = 0 (anchor for block 1)."""
        if k == 0:
            return 0
        return self.exponents[k - 1]

    def notation(self) -> str:
        """Compact one-line form 'n:m1,m2,...' (the CLI input grammar)."""
        return f"{self.multiplicity}:{','.join(map(str, self.exponents))}"

    def __str__(self) -> str:
        ms = ",".join(map(_int_text, self.exponents))
        return f"K({_int_text(self.multiplicity)};{ms})"


def _int_text(x: int) -> str:
    """x in decimal, or its digit count where str(x) would pass
    sys.get_int_max_str_digits() and raise ValueError."""
    try:
        return str(x)
    except ValueError:
        # bits * log10(2) - 1 is at most the digit count
        digits = int(abs(x).bit_length() * 0.30102999566398119) - 1
        while abs(x) >= 10**digits:
            digits += 1
        return f"<{digits} digits>"


def _derive(n: int, ms: tuple[int, ...]) -> EqClass:
    """Build an EqClass from already-validated data (no checks here)."""
    gcds = [n]
    for m in ms:
        gcds.append(gcd(gcds[-1], m))
    descents = tuple(gcds[k - 1] // gcds[k] for k in range(1, len(gcds)))
    # Value semigroup: v_0 = n, v_1 = m_1, then each new generator is the
    # previous one scaled by its descent factor plus the exponent gap.
    sg = [n, ms[0]]
    for k in range(1, len(ms)):
        sg.append(descents[k - 1] * sg[k] + ms[k] - ms[k - 1])
    conductor = sum((d - 1) * v for d, v in zip(descents, sg[1:])) - n + 1
    return EqClass(n, ms, tuple(gcds), descents, tuple(sg), conductor)


def _check_tuple(n: int, xs: tuple[int, ...]) -> None:
    """The rules on a raw tuple: n >= 2, genus >= 1, increasing, n < m_1."""
    if n < 2:
        raise InvalidClassError(f"multiplicity must be at least 2 (n = {n})")
    if not xs:
        raise InvalidClassError("genus must be at least 1 (no exponents given)")
    if any(a >= b for a, b in zip(xs, xs[1:])):
        raise InvalidClassError(f"exponents must be strictly increasing, got {xs}")
    if xs[0] <= n:
        raise InvalidClassError(f"m1 must exceed n (n = {n}, m1 = {xs[0]})")


def validate(n: int, m: Sequence[int]) -> EqClass:
    """Check (n; m_1,...,m_r) and return the fully derived class.

    Raises InvalidClassError naming the violated invariant.  The checks,
    in order: the rules of _check_tuple, then, on the gcds that _derive
    computes, n does not divide m_1, no e_{k-1} divides m_k, and the gcd
    chain reaches 1.
    """
    ms = tuple(m)
    _check_tuple(n, ms)
    E = _derive(n, ms)
    for k, (e, mk) in enumerate(zip(E.gcds, ms), start=1):
        if E.gcds[k] == e:
            if k == 1:
                raise InvalidClassError(f"n divides m1 (n = {n}, m1 = {mk})")
            raise InvalidClassError(
                f"e{k - 1} divides m{k} (e{k - 1} = {e}, m{k} = {mk})"
            )
    if E.gcds[-1] != 1:
        raise InvalidClassError(
            f"gcd(n, m1, ..., m{len(ms)}) = {E.gcds[-1]}, expected 1: "
            "a further characteristic exponent is missing"
        )
    return E


def block_expansion(E: EqClass, k: int) -> EuclidExpansion:
    """Euclidean expansion of (m_k - m_{k-1}) over e_{k-1}.

    Its raw quotients give the row lengths of block k of the singularity
    cluster; its terminal value is e_k.  The leading quotient is 0
    exactly when the exponent gap is smaller than e_{k-1}, which is the
    trigger for the alternate block shape in cluster construction.
    """
    if not 1 <= k <= E.genus:
        raise ValueError(f"package index {k} out of range 1..{E.genus}")
    exp = euclid_expansion(E.exponent(k) - E.exponent(k - 1), E.gcds[k - 1])
    if exp.terminal != E.gcds[k]:
        raise TheoremViolation(
            f"block {k} of {E}: expansion terminal {exp.terminal} != e{k}"
        )
    return exp


def scaled_polar_quotient(E: EqClass, l: int) -> int:
    """n times the l-th polar quotient; an integer for every l.

    Merle's form e_{l-1}*v_l, with v_l the l-th semigroup generator.  By
    the semigroup recursion it telescopes to n*m_1 + sum_{w=1}^{l-1}
    e_w*(m_{w+1} - m_w), which also equals the sum of the squared curve
    multiplicities over the cluster points of blocks 1..l; that is how
    the Noether oracle certifies it.  l = 0 is allowed and gives 0
    (empty block range).
    """
    if not 0 <= l <= E.genus:
        raise ValueError(f"package index {l} out of range 0..{E.genus}")
    return E.gcds[l - 1] * E.semigroup[l] if l else 0


def polar_quotient(E: EqClass, l: int) -> Fraction:
    """The l-th polar quotient: I(b, f)/mult(b) for branches of package l.

    Exact rational, constant across the package; for l = 1 it is m_1.
    """
    return Fraction(scaled_polar_quotient(E, l), E.multiplicity)


def canonicalize_exponents(n: int, exps: Sequence[int]) -> EqClass:
    """Reduce an exponent tuple to canonical characteristic form.

    Branch tuples produced by the polar decomposition (e.g. (2; 3, 4))
    may list exponents that do not drop the running gcd; those carry no
    equisingularity information and are dropped.  The survivors must
    bring the gcd down to 1, otherwise the tuple does not describe a
    reduced branch and is rejected, as is one breaking _check_tuple.  The
    survivors, a subsequence of a checked tuple each lowering the gcd,
    meet every rule of validate.  Idempotent on canonical input.
    """
    xs = tuple(exps)
    _check_tuple(n, xs)
    kept = []
    e = n
    for x in xs:
        e2 = gcd(e, x)
        if e2 < e:
            kept.append(x)
            e = e2
    if e != 1:
        raise InvalidClassError(
            f"exponent tuple (n = {n}, {xs}) has final gcd {e}, expected 1"
        )
    return _derive(n, tuple(kept))


def enumerate_classes(
    max_n: int, max_last_exponent: int, max_genus: int | None = None
) -> Iterator[EqClass]:
    """Yield every class with n <= max_n, m_r <= max_last_exponent.

    Deterministic lexicographic order: by n, then by the exponent tuple.
    No two valid classes are prefix-related (a proper prefix still has
    gcd > 1), so plain ascending depth-first search is lexicographic.
    The optional genus cap prunes the search; note n <= max_n already
    caps the genus at log2(max_n) since each descent factor is >= 2.
    A cap below 1 admits no class.
    """
    if max_n < 2 or max_last_exponent < 2 or (max_genus is not None and max_genus < 1):
        return

    def extend(n: int, chain: list[int], e: int) -> Iterator[EqClass]:
        lo = chain[-1] + 1 if chain else n + 1
        for m in range(lo, max_last_exponent + 1):
            if m % e == 0:
                continue
            e2 = gcd(e, m)
            chain.append(m)
            if e2 == 1:
                yield _derive(n, tuple(chain))
            elif max_genus is None or len(chain) < max_genus:
                yield from extend(n, chain, e2)
            chain.pop()

    for n in range(2, max_n + 1):
        yield from extend(n, [], n)


_Node = TypeVar("_Node")


def _prefix_walk(
    classes: Iterable[EqClass],
    grow: Callable[[EqClass, int, _Node], _Node],
    root: _Node,
) -> Iterator[tuple[EqClass, _Node]]:
    """Pair each class with the node of its prefix (n; m_1, ..., m_{r-1}).

    ``grow(E, k, node)`` makes the node of E's prefix of length k from
    the node of length k - 1 (``root`` for k = 1).  A node is made at the
    first class below its prefix and kept while the next classes share
    that prefix; in enumerate_classes' depth-first order they form one
    contiguous run, so each prefix is grown once.  Any order is correct:
    a prefix met again is grown again.
    """
    path = [root]  # path[k] is the node of the last class's prefix of length k
    last: EqClass | None = None
    for E in classes:
        keep = 1
        if last is not None and last.multiplicity == E.multiplicity:
            limit = min(len(path), E.genus)
            while keep < limit and last.exponents[keep - 1] == E.exponents[keep - 1]:
                keep += 1
        del path[keep:]
        for k in range(len(path), E.genus):
            path.append(grow(E, k, path[-1]))
        yield E, path[-1]
        last = E
