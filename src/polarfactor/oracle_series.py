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

A series in t, and each y-coefficient of F (a polynomial in x), is a
dict from exponent to coefficient holding nonzero coefficients only.
Every series product is one integer product (Kronecker substitution,
as in Harvey, J. Symb. Comp. 44, 2009): a series becomes one Python int
at t = 2^(8w), w bytes per coefficient, enough for a proven bound on
the result's coefficients plus a sign bit, and the digits are read
back exactly.  The powers y(t)^i use the slot width of the bound
||y||_1^n, the Newton sums that of n * 2^n * ||y||_1^n (see
_implicitize), and each Newton sum is one sum of packed products.

The series route reads only low orders (Merle's I(f, P) = mu + n - 1,
Invent. Math. 41, 1977, is the order it checks), so verify_class takes
K = mu + n - 1 + m_1 + 2 and X = ceil(K/n) and computes F only mod x^X.
Each power y^i keeps its terms below t^(nX), so every power sum is
exact mod x^X; each packed Newton sum keeps its x-slots below X, and as
a product only carries upwards, every c_k is exactly F's mod x^X by
induction; each Horner step keeps its t-slots below its cut.  A dropped
term x^e y^j (e >= X) has order at least nX >= K along the branch.  So
F(t^n, y) vanishes below t^(nX) (the residue check), F_y is exact along
the branch below t^(nX), and a*F_x + b*F_y below t^(n(X - 1)) >=
t^(mu + m_1 + 1), past mu + n - 1 as m_1 > n.  Both orders are read
below t^(n(X - 1)): a value with no digit below that cut is an order
the cut cannot read, a mismatch and never an order.  mu >= (n - 1) *
(m_1 - 1) gives K >= n*m_1 + 2, so X > n and every term of degree <= n
is kept: the multiplicity checks are exact.  A cut is ((V + h) &
(2h - 1)) - h, h = 2^(8w * slots - 1): it keeps the digits below the
slot whenever they fit their slots, whatever the digits above.  The public
implicitize cuts at X = max(y) + 1, past the x-degree of every F[j],
and evaluate_on_parametrization past the degree of F(t^n, y): both are
exact in full.

The cost depends on the size of the packed integers, about K slots of
O(n * log ||y||_1) bits each for the powers and for the Horner values,
not on the product of the term counts.  The oracle is still restricted
to desk scale (n <= 10, conductor <= 120): its point is independent
spot checks, not sweeps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .decompose import decompose
from .eqclass import EqClass, TheoremViolation
from .intersect import _checked_total, _raise, branch_vs_curve

__all__ = [
    "SeriesReport",
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


def _slot_bytes(bound: int) -> int:
    """Bytes w per slot such that every digit c with |c| <= bound has
    |c| < 2^(8w - 1): the bound's bits and a sign bit."""
    return bound.bit_length() // 8 + 1


def _pack(coeffs: dict[int, int], w: int, lo: int = 0, stride: int = 1) -> int:
    """The integer sum of c * 2^(8w * stride * (e - lo)) over the
    terms c*t^e of a series, lo <= e, so 0 for the empty series; every
    |c| must be below 2^(8w - 1).

    Each coefficient is written into its slot plus half a slot, so the
    slots are nonnegative bytes, and the same bias is subtracted once."""
    if not coeffs:
        return 0
    half = 1 << (8 * w - 1)
    zero = half.to_bytes(w, "little")
    length = (max(coeffs) - lo) * stride + 1
    slots = [zero] * length
    for e, c in coeffs.items():
        slots[(e - lo) * stride] = (c + half).to_bytes(w, "little")
    return int.from_bytes(b"".join(slots), "little") - int.from_bytes(
        zero * length, "little"
    )


def _unpack(V: int, w: int, base: int = 0, start: int = 0, step: int = 1) -> dict[int, int]:
    """The nonzero digits c_i of V = sum of c_i * 2^(8w * i) at the slots
    i = start, start + step, ..., keyed base, base + 1, ...

    Exact when every |c_i| < 2^(8w - 1): adding half a slot to every
    slot makes each digit a plain byte string."""
    s = 8 * w
    count = V.bit_length() // s + 1
    half = 1 << (s - 1)
    zero = half.to_bytes(w, "little")
    size = count * w
    biased = (V + int.from_bytes(zero * count, "little")) & ((1 << 8 * size) - 1)
    buf = biased.to_bytes(size, "little")
    digits = [buf[at:at + w] for at in range(start * w, size, step * w)]
    return {
        base + k: int.from_bytes(d, "little") - half
        for k, d in enumerate(digits)
        if d != zero
    }


def sample_parametrization(E: EqClass, seed: int | None = None) -> dict[int, int]:
    """Random polynomial parametrization y(t) of a member of class E.

    y = t^{m_1} + sum of a_i t^i over m_1 < i < conductor, with a_i in
    {-3..3}.  Coefficients at the characteristic exponents are forced
    nonzero; a coefficient strictly between m_k and m_{k+1} is forced
    zero unless e_k divides its exponent, so the realized gcd chain is
    exactly E's and the sampled curve lies in E, never in a finer
    class.  Deterministic for a given seed; a drawn 0 is left out.
    """
    rng = random.Random(seed)
    ms = E.exponents
    coeffs = {ms[0]: 1}
    level = 1  # the number of exponents m_k <= i
    for i in range(ms[0] + 1, E.conductor):
        if level < len(ms) and i == ms[level]:
            level += 1
            coeffs[i] = rng.choice((-3, -2, -1, 1, 2, 3))
        elif i % E.gcds[level] == 0:
            coeffs[i] = rng.randint(-3, 3)
    return {i: c for i, c in coeffs.items() if c}


def implicitize(n: int, phi: dict[int, int]) -> tuple[dict[int, int], ...]:
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
    # every F[j] has x-degree at most max(phi), so this cut keeps all of F
    return _implicitize(n, phi, max(phi, default=0) + 1)


def _implicitize(n: int, phi: dict[int, int], X: int) -> tuple[dict[int, int], ...]:
    """F mod x^X (see the module docstring), checked to vanish on the
    parametrization below t^(nX) and to have multiplicity n, which the
    cut keeps exact for X > n."""
    if 0 in phi.values():
        raise ValueError("parametrization has a zero coefficient")
    if not phi or min(phi) <= 0:
        raise ValueError("parametrization must have positive order")
    if n < 2:
        raise ValueError(f"multiplicity must be at least 2, got {n}")
    # With s^n = x, p_i and c_j are the power sums and elementary
    # symmetric functions of the conjugates phi(zeta^l s), so
    # ||p_i||_1 <= n * ||phi||_1^i and ||c_j||_1 <= C(n, j) * ||phi||_1^j.
    # Every coefficient of the Newton sum sum_i c_{k-i} * p_i is then at
    # most n * 2^n * ||phi||_1^n, the slot width w of P and C, and every
    # digit of psi^i at most ||phi||_1^n, the slot width v of the powers.
    # phi = t^m * psi, and power = psi^i at t = 2^(8v), cut to the terms
    # of phi^i below t^(nX)
    m = min(phi)
    norm = sum(map(abs, phi.values())) ** n
    v, w = _slot_bytes(norm), _slot_bytes((n << n) * norm)
    psi = _pack(phi, v, m)
    # P[i] = tr(phi^i) and C[j] = c_j, the coefficient of y^{n-j}, packed
    # in x below x^X
    P = [0]
    power = 1
    for i in range(1, n + 1):
        power = _cut(power * psi, v, n * X - i * m)
        start = -i * m % n  # first slot j with n | i*m + j
        traces = _unpack(power, v, (i * m + start) // n, start, n)
        P.append(n * _pack(traces, w))
    coeffs = [{0: 1}]
    C = []
    for k in range(1, n + 1):
        C.append(_pack(coeffs[-1], w))
        acc = _unpack(_cut(sum(C[k - i] * P[i] for i in range(1, k + 1)), w, X), w)
        quotient: dict[int, int] = {}
        for e, c in acc.items():
            quotient[e], r = divmod(-c, k)
            if r:
                raise TheoremViolation("Newton identity division not exact")
        coeffs.append(quotient)
    F = tuple(reversed(coeffs))

    if _horner(F, n, phi, n * X)[0]:
        raise TheoremViolation("implicitization residue is nonzero")
    if _multiplicity(F) != n:
        raise TheoremViolation(
            f"implicit equation has multiplicity {_multiplicity(F)}, expected {n}"
        )
    return F


def evaluate_on_parametrization(
    F: tuple[dict[int, int], ...], n: int, phi: dict[int, int]
) -> dict[int, int]:
    """F(t^n, phi(t)) as a series in t, exact, by Horner's rule over the
    y-coefficients of F on one packed integer (see _horner), cut past
    its degree.  An exact zero is one slot to read."""
    top = max(phi, default=0)
    K = 1 + max((n * max(Fj) + j * top for j, Fj in enumerate(F) if Fj), default=0)
    return _unpack(*_horner(F, n, phi, K))


def _cut(V: int, w: int, slots: int) -> int:
    """The digits of V below slot `slots` at t = 2^(8w), as a packed
    integer.  Exact when each of those digits is below 2^(8w - 1) in
    absolute value: their sum then lies within half of 2^b, b = 8w *
    slots, and V is congruent to it mod 2^b."""
    if slots <= 0:
        return 0
    half = 1 << (8 * w * slots - 1)
    return ((V + half) & (2 * half - 1)) - half


def _horner(
    F: tuple[dict[int, int], ...], n: int, phi: dict[int, int], K: int
) -> tuple[int, int]:
    """F(t^n, phi(t)) mod t^K at t = 2^(8w) as one integer V, and the
    slot width w in bytes.  Every coefficient of F(t^n, phi(t)) is at
    most the sum over j of ||F[j]||_1 * ||phi||_1^j in absolute value,
    and w holds that bound (and phi's own coefficients) with a sign bit;
    each Horner step keeps its slots below K.  phi must have no negative
    exponent."""
    norm = sum(map(abs, phi.values()))
    w = _slot_bytes(norm + sum(
        sum(map(abs, Fj.values())) * norm**j for j, Fj in enumerate(F)
    ))
    m = min(phi, default=0)
    psi = _pack(phi, w, m)
    V = 0
    for Fj in reversed(F):
        V = _cut(((V * psi) << (8 * w * m)) + _pack(Fj, w, 0, n), w, K)
    return V, w


def polar_poly(
    F: tuple[dict[int, int], ...], a: int, b: int
) -> tuple[dict[int, int], ...]:
    """The polar a*F_x + b*F_y of F in direction (a : b), coefficient by
    coefficient: its y^j coefficient is a*F[j]' + b*(j + 1)*F[j + 1]."""
    if a == 0 and b == 0:
        raise ValueError("polar direction (0, 0) is not allowed")
    polar = []
    for j, (Fj, Fup) in enumerate(zip(F, F[1:] + ({},))):
        Pj = {i - 1: a * i * c for i, c in Fj.items() if i}
        for i, c in Fup.items():
            Pj[i] = Pj.get(i, 0) + b * (j + 1) * c
        polar.append({i: c for i, c in Pj.items() if c})
    return tuple(polar)


def _multiplicity(F: tuple[dict[int, int], ...]) -> int:
    """Degree of the lowest nonzero homogeneous part of F (the
    multiplicity at the origin of the curve it defines)."""
    return min(min(Fj) + j for j, Fj in enumerate(F) if Fj)


@dataclass(frozen=True)
class SeriesReport:
    """Outcome of one symbolic verification run."""

    eqclass: EqClass
    expected: int
    observed: int | None  # None: past the series cut, never an order
    fy_order: int | None
    polar_multiplicity: int
    direction: tuple[int, int]
    attempts: int
    matched: bool
    seed: int | None

    def summary(self) -> str:
        word = "match" if self.matched else "MISMATCH"
        return (
            f"{self.eqclass}: polar intersection order "
            f"{'beyond the series cut' if self.observed is None else self.observed} "
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
    types = tuple(decompose(E).types())
    expected = _checked_total(E, types, [branch_vs_curve(E, t) for t in types], _raise)
    # both orders are read below t^(n(X - 1)), past mu + n - 1 (see the
    # module docstring)
    X = -(-(E.milnor + n + E.exponents[0] + 1) // n)
    rng = random.Random(seed)
    nonzero = (-4, -3, -2, -1, 1, 2, 3, 4)
    attempts = 0
    while True:
        attempts += 1
        phi = sample_parametrization(E, rng.randrange(2**32))
        F = _implicitize(n, phi, X)
        direction = (rng.choice(nonzero), rng.choice(nonzero))
        polar = polar_poly(F, *direction)
        observed = _order_along(polar, n, phi, n * X - n)
        fy_order = _order_along(polar_poly(F, 0, 1), n, phi, n * X - n)
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
    P: tuple[dict[int, int], ...], n: int, phi: dict[int, int], K: int
) -> int | None:
    """Vanishing order of P along (t^n, phi(t)) if it is below K, else
    None, read off the packed value V = P(2^(8wn), phi(2^(8w))) mod
    2^(8wK) with no unpacking: the lowest nonzero digit c is below
    2^(8w - 1) in absolute value, so it is never a multiple of 2^(8w),
    and the lowest set bit of V lies in its slot."""
    V, w = _horner(P, n, phi, K)
    return ((V & -V).bit_length() - 1) // (8 * w) if V else None
