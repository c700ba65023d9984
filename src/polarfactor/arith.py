"""Integer continued-fraction machinery.

Euclidean quotient ladders drive everything downstream: the staircase shape
of an infinitely-near-point cluster, the convergents that label polar
branches, and the multiplicity walks along those branches.  All arithmetic
is exact; no floats anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

__all__ = [
    "Convergent",
    "EuclidExpansion",
    "convergent",
    "euclid_expansion",
    "forced_remainders",
    "normalize_even",
]


@dataclass(frozen=True, slots=True)
class EuclidExpansion:
    """Quotient ladder of ``num`` over ``den`` down to their gcd.

    ``quotients[0]`` may be 0 (exactly when num < den); every later quotient
    is >= 1, and the final one is >= 2 whenever the ladder has more than one
    step.  ``remainders`` holds the strictly decreasing positive remainders;
    when nonempty its last entry equals ``terminal`` = gcd(num, den).
    """

    num: int
    den: int
    quotients: tuple[int, ...]
    remainders: tuple[int, ...]
    terminal: int

    def row_values(self) -> tuple[int, ...]:
        """Divisor used at each quotient row: den first, then the remainders."""
        return (self.den, *self.remainders)


def euclid_expansion(num: int, den: int) -> EuclidExpansion:
    """Run plain Euclidean division of ``num`` by ``den`` down to the gcd.

    num >= 0 and den >= 1.  num < den is permitted and yields a leading
    quotient of 0.  The ladder stops at the first exact division, so the
    terminal value is gcd(num, den) rather than 1.
    """
    if den < 1:
        raise ValueError(f"denominator must be positive, got {den}")
    if num < 0:
        raise ValueError(f"numerator must be nonnegative, got {num}")
    quotients: list[int] = []
    remainders: list[int] = []
    x, y = num, den
    while True:
        q, r = divmod(x, y)
        quotients.append(q)
        if r == 0:
            return EuclidExpansion(num, den, tuple(quotients), tuple(remainders), y)
        remainders.append(r)
        x, y = y, r


def normalize_even(quotients: Sequence[int]) -> tuple[int, ...]:
    """Rewrite a quotient list so the last index is even, preserving value.

    [h0, ..., hs] with s odd becomes [h0, ..., hs - 1, 1]; an even-index
    list is returned unchanged, so the operation is idempotent.  Splitting
    needs hs >= 2, which plain Euclidean ladders always satisfy for s >= 1.
    """
    qs = tuple(quotients)
    if not qs:
        raise ValueError("empty quotient list")
    if (len(qs) - 1) % 2 == 0:
        return qs
    if qs[-1] < 2:
        raise ValueError(f"cannot split final quotient {qs[-1]} < 2")
    return qs[:-1] + (qs[-1] - 1, 1)


class Convergent(NamedTuple):
    """Convergent q/p (numerator q, denominator p) in lowest terms."""

    p: int
    q: int


def convergent(quotients: Sequence[int], index: int) -> Convergent:
    """Convergent of [h0, ..., h_index]: the pair (p, q) with q/p = value.

    Computed by the standard two-term recurrence, which lands in lowest
    terms automatically.
    """
    qs = tuple(quotients)
    if not 0 <= index < len(qs):
        raise ValueError(f"convergent index {index} out of range for {len(qs)} quotients")
    q_prev, q_cur = 0, 1  # q_{-2}, q_{-1}
    p_prev, p_cur = 1, 0
    for h in qs[: index + 1]:
        q_prev, q_cur = q_cur, h * q_cur + q_prev
        p_prev, p_cur = p_cur, h * p_cur + p_prev
    return Convergent(p_cur, q_cur)


def forced_remainders(quotients: Sequence[int], q: int, p: int) -> tuple[int, ...]:
    """Walk the remainder recurrence of (q, p) along a fixed quotient list.

    With rho_{-1} = q, rho_0 = p and rho_{a+1} = rho_{a-1} - h_a * rho_a,
    returns (rho_0, ..., rho_j) for j = len(quotients) - 1.  Requires that
    q/p equals [h0, ..., hj] exactly; then every rho_a is positive, rho_j
    is 1 and the next value would be 0.  Any violation raises ValueError,
    signalling that the pair does not fit the ladder.
    """
    qs = tuple(quotients)
    if not qs:
        raise ValueError("empty quotient list")
    before, cur = q, p
    walk = [p]
    for h in qs[:-1]:
        before, cur = cur, before - h * cur
        if cur <= 0:
            raise ValueError(f"remainder walk left the positive range at quotient {h}")
        walk.append(cur)
    if walk[-1] != 1:
        raise ValueError(f"remainder walk ends at {walk[-1]}, expected 1")
    if before - qs[-1] * cur != 0:
        raise ValueError("quotient list does not expand q/p exactly")
    return tuple(walk)
