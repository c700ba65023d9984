"""Desk-scale symbolic oracle for the predicted intersection totals.

The closed forms and the Noether oracle share the cluster machinery, so
they could in principle share a bug.  This module checks the headline
number against an actual curve with none of that machinery involved:

  1. sample an explicit polynomial parametrization (t^n, y(t)) of a
     member of the class, coefficients small integers;
  2. implicitize to the integer polynomial F with F(t^n, y(t)) = 0,
     the characteristic polynomial of multiplication by y(t) over
     Z[x][t]/(t^n - x), from the power sums tr(y(t)^i) by Newton's
     identities (exact integer arithmetic throughout), kept as its
     y-coefficients F[j] in Z[x];
  3. form the polar a*F_x + b*F_y at a random direction and measure
     its vanishing order along the parametrization.

That order is I(f, P(f)) for the sampled member and must equal the
predicted sum of the per-branch intersections, mu + n - 1.  All
arithmetic is exact, so a match verifies the prediction for the sample
outright; mismatches trigger a resample because a non-generic sample
is a measure-zero accident, and only persistent disagreement counts.

Everything here is deliberately restricted to desk scale (n <= 10,
conductor <= 120): implicitization cost grows quickly, and the point of
the oracle is independent spot checks, not sweeps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .decompose import decompose
from .eqclass import EqClass, TheoremViolation
from .intersect import branch_vs_curve

__all__ = [
    "SeriesReport",
    "TruncSeries",
    "implicitize",
    "evaluate_on_parametrization",
    "polar_poly",
    "sample_parametrization",
    "verify_class",
    "MAX_MULTIPLICITY",
    "MAX_CONDUCTOR",
]

MAX_MULTIPLICITY = 10
MAX_CONDUCTOR = 120


class TruncSeries:
    """Series in t (or, as a y-coefficient of F, polynomial in x) with exact
    integer coefficients and explicit truncation.

    ``trunc`` is the first unknown order: terms at exponents >= trunc
    have been dropped and must not be trusted.  None means the series
    is an exact polynomial.  Arithmetic propagates the tighter
    truncation of the operands, which is conservative.
    """

    __slots__ = ("coeffs", "trunc")

    def __init__(self, coeffs: dict[int, int], trunc: int | None = None):
        if trunc is None:
            self.coeffs = {e: c for e, c in coeffs.items() if c}
        else:
            self.coeffs = {e: c for e, c in coeffs.items() if c and e < trunc}
        self.trunc = trunc

    @staticmethod
    def _merge_trunc(a: int | None, b: int | None) -> int | None:
        if a is None:
            return b
        if b is None:
            return a
        return min(a, b)

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return TruncSeries(out, self._merge_trunc(self.trunc, other.trunc))

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        trunc = self._merge_trunc(self.trunc, other.trunc)
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                if trunc is None or e < trunc:
                    out[e] = out.get(e, 0) + c1 * c2
        return TruncSeries(out, trunc)

    def order(self) -> int | None:
        """Lowest exponent with a nonzero coefficient; None when there is
        none below the truncation (identically zero if exact)."""
        return min(self.coeffs) if self.coeffs else None

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TruncSeries)
            and self.coeffs == other.coeffs
            and self.trunc == other.trunc
        )

    def __repr__(self) -> str:
        inside = " + ".join(
            f"{c}*t^{e}" for e, c in sorted(self.coeffs.items())
        ) or "0"
        tail = "" if self.trunc is None else f" + O(t^{self.trunc})"
        return inside + tail


def sample_parametrization(E: EqClass, seed: int | None = None) -> TruncSeries:
    """Random polynomial parametrization y(t) of a member of class E.

    y = t^{m_1} + sum of a_i t^i over m_1 < i < conductor, with a_i in
    {-3..3}.  Coefficients at the characteristic exponents are forced
    nonzero; a coefficient strictly between m_k and m_{k+1} is forced
    zero unless e_k divides its exponent, so the realized gcd chain is
    exactly E's and the sampled curve lies in E, never in a finer
    class.  Deterministic for a given seed.
    """
    rng = random.Random(seed)
    coeffs = {E.exponents[0]: 1}
    characteristic = set(E.exponents[1:])
    for i in range(E.exponents[0] + 1, E.conductor):
        if i in characteristic:
            coeffs[i] = rng.choice((-3, -2, -1, 1, 2, 3))
        else:
            level = sum(1 for m in E.exponents if m <= i)
            if i % E.gcds[level] == 0:
                coeffs[i] = rng.randint(-3, 3)
    return TruncSeries(coeffs)


def implicitize(n: int, phi: TruncSeries) -> tuple[TruncSeries, ...]:
    """The integer polynomial F, monic of degree n in y, vanishing on
    the parametrized curve (t^n, phi(t)), as its y-coefficients: F[j]
    is the coefficient of y^j, a polynomial in x.

    F is the characteristic polynomial of multiplication by phi on the
    rank-n module with basis 1, t, ..., t^{n-1} over Z[x], t^n = x.
    Multiplication by t^d there has trace n*x^{d/n} when n | d and 0
    otherwise, so the power sums tr(phi^i) are read off the exponents of
    phi^i divisible by n, and Newton's identities over Z[x] (every
    division exact) give the coefficients.  The result is checked to
    vanish identically on the parametrization and to have lowest
    homogeneous degree n (the multiplicity of the sampled branch).
    """
    if phi.trunc is not None:
        raise ValueError("implicitize needs an exact polynomial parametrization")
    if not phi.coeffs or phi.order() <= 0:
        raise ValueError("parametrization must have positive order")
    if n < 2:
        raise ValueError(f"multiplicity must be at least 2, got {n}")
    # power_sums[i] = tr(phi^i) and coeffs[k] multiplies y^{n-k}, both in x
    power_sums = [TruncSeries({0: n})]
    power = TruncSeries({0: 1})
    for _ in range(n):
        power = power * phi
        power_sums.append(TruncSeries(
            {d // n: n * c for d, c in power.coeffs.items() if d % n == 0}
        ))
    coeffs = [TruncSeries({0: 1})]
    for k in range(1, n + 1):
        acc = TruncSeries({})
        for i in range(1, k + 1):
            acc = acc + coeffs[k - i] * power_sums[i]
        quotient: dict[int, int] = {}
        for e, c in acc.coeffs.items():
            quotient[e], r = divmod(-c, k)
            if r:
                raise TheoremViolation("Newton identity division not exact")
        coeffs.append(TruncSeries(quotient))
    F = tuple(reversed(coeffs))

    residue = evaluate_on_parametrization(F, n, phi)
    if residue.coeffs:
        raise TheoremViolation("implicitization residue is nonzero")
    if _multiplicity(F) != n:
        raise TheoremViolation(
            f"implicit equation has multiplicity {_multiplicity(F)}, expected {n}"
        )
    return F


def evaluate_on_parametrization(
    F: tuple[TruncSeries, ...], n: int, phi: TruncSeries, trunc: int | None = None
) -> TruncSeries:
    """F(t^n, phi(t)) as a series in t, optionally truncated for speed,
    by Horner's rule over the y-coefficients of F."""
    result = TruncSeries({}, trunc)
    for Fj in reversed(F):
        result = result * phi + TruncSeries(
            {n * i: c for i, c in Fj.coeffs.items()}, trunc
        )
    return result


def polar_poly(F: tuple[TruncSeries, ...], a: int, b: int) -> tuple[TruncSeries, ...]:
    """The polar a*F_x + b*F_y of F in direction (a : b), coefficient by
    coefficient: its y^j coefficient is a*F[j]' + b*(j + 1)*F[j + 1]."""
    if a == 0 and b == 0:
        raise ValueError("polar direction (0, 0) is not allowed")
    above = F[1:] + (TruncSeries({}),)
    return tuple(
        TruncSeries({i - 1: a * i * c for i, c in Fj.coeffs.items() if i})
        + TruncSeries({i: b * (j + 1) * c for i, c in Fup.coeffs.items()})
        for j, (Fj, Fup) in enumerate(zip(F, above))
    )


def _multiplicity(F: tuple[TruncSeries, ...]) -> int:
    """Degree of the lowest nonzero homogeneous part of F (the
    multiplicity at the origin of the curve it defines)."""
    return min(Fj.order() + j for j, Fj in enumerate(F) if Fj.coeffs)


@dataclass(frozen=True)
class SeriesReport:
    """Outcome of one symbolic verification run."""

    eqclass: EqClass
    expected: int
    observed: int
    fy_order: int
    polar_multiplicity: int
    direction: tuple[int, int]
    attempts: int
    matched: bool
    seed: int | None

    def summary(self) -> str:
        word = "match" if self.matched else "MISMATCH"
        return (
            f"{self.eqclass}: polar intersection order {self.observed} "
            f"(predicted {self.expected}), polar multiplicity "
            f"{self.polar_multiplicity} — {word} "
            f"[direction {self.direction}, attempt {self.attempts}]"
        )


def verify_class(E: EqClass, seed: int | None = None, retries: int = 5) -> SeriesReport:
    """End-to-end symbolic check of the predicted intersection total.

    Samples a member and a polar direction, builds the actual polar,
    and compares its vanishing order along the branch with the sum of
    branch_vs_curve over the decomposition (equivalently mu + n - 1).
    The run matches when additionally the polar has multiplicity n - 1
    and the sample passes the secondary check ord F_y = mu + n - 1.
    Anything else triggers a resample (a fresh member and direction),
    up to `retries` extra attempts.  Desk-scale bounds are enforced.
    """
    n = E.multiplicity
    if n > MAX_MULTIPLICITY or E.conductor > MAX_CONDUCTOR:
        raise ValueError(
            f"{E} is beyond the desk-scale oracle bounds "
            f"(n <= {MAX_MULTIPLICITY}, conductor <= {MAX_CONDUCTOR})"
        )
    expected = sum(t.copies * branch_vs_curve(E, t) for t in decompose(E).types())
    if expected != E.milnor + n - 1:
        raise TheoremViolation(
            f"predicted total {expected} != mu + n - 1 for {E}"
        )
    rng = random.Random(seed)
    nonzero = (-4, -3, -2, -1, 1, 2, 3, 4)
    attempts = 0
    while True:
        attempts += 1
        phi = sample_parametrization(E, rng.randrange(2**32))
        F = implicitize(n, phi)
        direction = (rng.choice(nonzero), rng.choice(nonzero))
        polar = polar_poly(F, *direction)
        observed = _order_along(polar, n, phi, expected)
        fy_order = _order_along(polar_poly(F, 0, 1), n, phi, expected)
        multiplicity = _multiplicity(polar)
        matched = (
            observed == expected
            and fy_order == E.milnor + n - 1
            and multiplicity == n - 1
        )
        if matched or attempts > retries:
            return SeriesReport(
                E, expected, observed, fy_order, multiplicity,
                direction, attempts, matched, seed,
            )


def _order_along(
    P: tuple[TruncSeries, ...], n: int, phi: TruncSeries, expected: int
) -> int:
    """Vanishing order of P along (t^n, phi(t)); exact despite truncation
    because the truncation window is widened until a term shows up."""
    trunc = expected + n + 4
    for _ in range(4):
        order = evaluate_on_parametrization(P, n, phi, trunc).order()
        if order is not None:
            return order
        trunc *= 2
    raise TheoremViolation(
        "polar vanishes along the branch far beyond the expected order"
    )
