"""Pairwise intersection multiplicities of polar branches.

Every number here is computed twice, by independent routes that must
agree exactly:

  closed form   integer formulas in the class invariants (this module);
  Noether trace the sum over shared infinitely near points of the
                product of branch multiplicities (cluster.noether_sum
                on decompose.branch_trace outputs).

A disagreement is not a recoverable error — it means a formula or the
construction is wrong — so it raises TheoremViolation.  verify_classes
runs the comparison exhaustively over an enumeration bound and is the
engine behind the CLI's cluster verification mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .cluster import check_proximity, noether_sum, polar_cluster, singularity_cluster
from .decompose import (
    PolarBranch,
    Trace,
    branch_trace,
    decompose,
    package_summary,
    require_member,
)
from .eqclass import (
    EqClass,
    TheoremViolation,
    enumerate_classes,
    scaled_polar_quotient,
)

__all__ = [
    "IntersectionReport",
    "SweepReport",
    "branch_vs_curve",
    "intersection_report",
    "oracle_pair_intersection",
    "pair_intersection",
    "verify_classes",
]


def _exact_div(num: int, den: int, what: str, E: EqClass) -> int:
    """num / den, which must be exact; ``what`` names the quantity of E."""
    q, r = divmod(num, den)
    if r:
        raise TheoremViolation(f"{what} in {E}: {num}/{den} is not an integer")
    return q


def pair_intersection(E: EqClass, b1: PolarBranch, b2: PolarBranch) -> int:
    """Closed-form intersection multiplicity of two distinct branches.

    Same package k, depths i <= u:
        p_i*p_u*Q_{k-1}/e_{k-1}^2 + q_u*p_i
    where Q_l = scaled_polar_quotient(E, l); the first factor is the
    shared staircase prefix, the second the divergence row.  In package
    1, Q_0 = 0 leaves p_i*q_u, which the decreasing odd convergent
    ratios make the minimum min(p_i*q_u, p_u*q_i).  Across packages
    l < k the branches separate where the shallower one leaves its
    block: p_l*p_k*Q_l/(e_{l-1}*e_{k-1}).
    """
    require_member(E, b1)
    require_member(E, b2)
    return _pair_intersection(E, b1, b2)


def _pair_intersection(E: EqClass, b1: PolarBranch, b2: PolarBranch) -> int:
    """pair_intersection for two branches already known to come from
    decompose(E); one type given twice stands for two of its copies."""
    if b1.package == b2.package:
        k = b1.package
        lo, hi = (b1, b2) if b1.depth <= b2.depth else (b2, b1)
        e_prev = E.gcds[k - 1]
        shared = _exact_div(
            lo.p * hi.p * scaled_polar_quotient(E, k - 1),
            e_prev * e_prev,
            "same-package pair",
            E,
        )
        return shared + hi.q * lo.p
    lo, hi = (b1, b2) if b1.package < b2.package else (b2, b1)
    return _exact_div(
        lo.p * hi.p * scaled_polar_quotient(E, lo.package),
        E.gcds[lo.package - 1] * E.gcds[hi.package - 1],
        "cross-package pair",
        E,
    )


def oracle_pair_intersection(E: EqClass, b1: PolarBranch, b2: PolarBranch) -> int:
    """The same number by Noether's formula on the branch traces.

    No shared-prefix bookkeeping is needed: each trace ends at the
    branch's last segment and noether_sum reads the segments beyond as
    0, so the product of aligned runs cuts the sum to the common part.
    branch_trace checks that both branches belong to E.
    """
    return noether_sum(branch_trace(E, b1), branch_trace(E, b2))


def branch_vs_curve(E: EqClass, b: PolarBranch) -> int:
    """I(b, f): intersection of a polar branch with the curve itself.

    Equals multiplicity(b) * polar_quotient(E, package) — that quotient
    is constant on the package, which is what makes the package grouping
    meaningful.  With Merle's quotient e_{k-1}*v_k/n and multiplicity
    p*n/e_{k-1} this is the integer p*v_k.
    """
    require_member(E, b)
    return b.p * E.semigroup[b.package]


@dataclass(frozen=True)
class IntersectionReport:
    """Full pairwise intersection data, oracle-checked on construction.

    ``matrix`` is symmetric over branches in decomposition order with a
    zero diagonal (self-intersection is not defined); ``with_curve``
    lists I(b, f) per branch; ``total`` is I(f, P(f)) = mu + n - 1.
    """

    eqclass: EqClass
    branches: tuple[PolarBranch, ...]
    matrix: tuple[tuple[int, ...], ...]
    with_curve: tuple[int, ...]
    total: int


def _raise(check: str, message: str, count: int) -> None:
    raise TheoremViolation(message)


def intersection_report(E: EqClass) -> IntersectionReport:
    """Assemble the matrix, checking closed form == oracle on the way.

    Also cross-checks every I(b, f) against the trace oracle and the
    grand total against mu + n - 1 from the semigroup.  Any mismatch
    raises TheoremViolation.  The checks run once per branch type; the
    matrix and with_curve repeat their values over the copies.
    """
    D = decompose(E)
    types = list(D.types())
    traces = [branch_trace(E, t) for t in types]
    closed, values, total = _checked_report(E, types, traces, _raise)
    type_of = [g for g, t in enumerate(types) for _ in range(t.copies)]
    rows = []
    for g, t in enumerate(types):
        row = [closed[g][h] for h in type_of]
        first = len(rows)
        rows += [(*row[:a], 0, *row[a + 1 :]) for a in range(first, first + t.copies)]
    with_curve = tuple(values[g] for g in type_of)
    return IntersectionReport(E, tuple(D.branches()), tuple(rows), with_curve, total)


def _checked_report(
    E: EqClass,
    types: list[PolarBranch],
    traces: list[Trace],
    fail: Callable[[str, str, int], None],
) -> tuple[list[list[int]], list[int], int]:
    """The one closed-form-vs-Noether kernel behind intersection_report
    and the sweep, over the branch types of decompose(E) in order and
    one trace per type.  Each pair of types, and a type with itself when
    it has two or more copies, gets one closed form and one Noether sum,
    and each type one I(b, f) check.  A mismatch goes to
    ``fail(check, message, count)`` once, with count the number of
    branch pairs (c*c' across types, c*(c-1)/2 within one) or branches
    it stands for, under the check name 'pair_oracle',
    'branch_vs_curve' or 'grand_total'; the closed-form values are kept
    whether or not ``fail`` returns.  Returns the closed forms per pair
    of types, I(b, f) per type and the grand total over all branches.
    The types are decompose(E)'s own, so pairs skip require_member.
    """
    cluster = singularity_cluster(E)
    curve = (cluster.runs, cluster.counts)
    closed = [[0] * len(types) for _ in types]
    for g, t in enumerate(types):
        for h in range(g, len(types)):
            u = types[h]
            pairs = t.copies * (t.copies - 1) // 2 if g == h else t.copies * u.copies
            if not pairs:
                continue
            value = closed[g][h] = closed[h][g] = _pair_intersection(E, t, u)
            oracle = noether_sum(traces[g], traces[h])
            if value != oracle:
                fail(
                    "pair_oracle",
                    f"pair ({t}, {u}) of {E}: "
                    f"closed form {value} != Noether oracle {oracle}",
                    pairs,
                )
    with_curve = []
    for t, tr in zip(types, traces):
        value = branch_vs_curve(E, t)
        expected = noether_sum(tr, curve)
        if value != expected:
            fail(
                "branch_vs_curve",
                f"{t} against {E}: closed form {value} != oracle {expected}",
                t.copies,
            )
        with_curve.append(value)
    total = sum(t.copies * value for t, value in zip(types, with_curve))
    if total != E.milnor + E.multiplicity - 1:
        fail(
            "grand_total",
            f"I(f, P(f)) = {total} for {E}, expected mu + n - 1 = "
            f"{E.milnor + E.multiplicity - 1}",
            1,
        )
    return closed, with_curve, total


@dataclass
class SweepReport:
    """Tally of an exhaustive verification sweep.

    ``failures`` maps check name -> number of violations; ``examples``
    keeps the first few offending descriptions per check.  An empty
    failures dict means every identity held exactly on every class.
    """

    classes: int = 0
    branches: int = 0
    pairs: int = 0
    points: int = 0
    failures: dict[str, int] = field(default_factory=dict)
    examples: dict[str, list[str]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, check: str, description: str, count: int = 1) -> None:
        """Count ``count`` violations of ``check``, described once."""
        self.failures[check] = self.failures.get(check, 0) + count
        bucket = self.examples.setdefault(check, [])
        if len(bucket) < 5:
            bucket.append(description)

    def summary(self) -> str:
        head = (
            f"{self.classes} classes, {self.branches} branches, "
            f"{self.pairs} pairs, {self.points} cluster points"
        )
        if self.ok:
            return f"all checks passed: {head}"
        lines = [f"FAILURES over {head}:"]
        for check in sorted(self.failures):
            lines.append(f"  {check}: {self.failures[check]} violation(s)")
            lines.extend(f"    {ex}" for ex in self.examples[check])
        return "\n".join(lines)


def verify_classes(
    max_n: int,
    max_last_exponent: int,
    max_genus: int | None = None,
    progress: Callable[[int], None] | None = None,
) -> SweepReport:
    """Run every cross-check on every class within the bounds.

    Per class: cluster consistency (proximity, strictness only at the
    final point, squared-value sum), branch counts per package against
    the closed form, the aggregate sharp pass of all traces against the
    polar valuations, branch genus bounds, every I(b, f) and every
    branch pair against the Noether oracle, and the grand total
    mu + n - 1.

    Everything is accumulated rather than raised so a single bad
    identity yields a usable report; see SweepReport.
    """
    report = SweepReport()
    for E in enumerate_classes(max_n, max_last_exponent, max_genus):
        report.classes += 1
        if progress is not None and report.classes % 20000 == 0:
            progress(report.classes)
        try:
            _verify_one(E, report)
        except TheoremViolation as exc:
            report.record("internal", f"{E}: {exc}")
    return report


def _verify_one(E: EqClass, report: SweepReport) -> None:
    curve = singularity_cluster(E)
    polar = polar_cluster(E)
    size = len(curve)
    report.points += size

    if polar.counts is not curve.counts or polar.steps is not curve.steps:
        report.record("support", f"{E}: polar support rebuilt, not shared")
    prox = check_proximity(curve)
    if prox.deficits or prox.strict != (size - 1,):
        report.record(
            "curve_proximity",
            f"{E}: deficits {prox.deficits}, strict {prox.strict}",
        )
    if not check_proximity(polar).ok:
        report.record("polar_proximity", f"{E}: polar valuations inconsistent")
    sq = sum(h * v * v for v, h in zip(curve.runs, curve.counts))
    if sq != scaled_polar_quotient(E, E.genus):
        report.record("value_square_sum", f"{E}: sum v^2 = {sq}")

    D = decompose(E)
    for pkg, s in zip(D.packages, package_summary(E)):
        if sum(t.copies for t in pkg.types) != s.branches:
            report.record("package_summary", f"{E}: package {pkg.index}")

    types = list(D.types())
    branches = sum(t.copies for t in types)
    report.branches += branches
    report.pairs += branches * (branches - 1) // 2
    traces = [branch_trace(E, t) for t in types]

    aggregate = [0] * len(polar.runs)
    for t, tr in zip(types, traces):
        if tr.counts != polar.counts[: len(tr.counts)]:
            report.record("sharp_pass", f"{E}: trace segments {tr.counts}", t.copies)
            continue
        for i, v in enumerate(tr.values):
            aggregate[i] += t.copies * v
    if tuple(aggregate) != polar.runs:
        report.record(
            "sharp_pass", f"{E}: trace sum {tuple(aggregate)} != {polar.runs}"
        )

    _, with_curve, _ = _checked_report(E, types, traces, report.record)
    for t, closed in zip(types, with_curve):
        expected_genus = t.package if t.p > 1 else t.package - 1
        if t.genus != expected_genus:
            report.record("genus_bounds", f"{E}: {t} has genus {t.genus}", t.copies)
        quotient = scaled_polar_quotient(E, t.package)
        if closed * E.multiplicity != t.multiplicity * quotient:
            report.record("quotient_ratio", f"{E}: {t}", t.copies)
