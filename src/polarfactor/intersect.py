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
from itertools import groupby
from operator import attrgetter
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
    decompose(E)."""
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


def _raise(check: str, message: str) -> None:
    raise TheoremViolation(message)


def intersection_report(E: EqClass) -> IntersectionReport:
    """Assemble the matrix, checking closed form == oracle on the way.

    Also cross-checks every I(b, f) against the trace oracle and the
    grand total against mu + n - 1 from the semigroup.  Any mismatch
    raises TheoremViolation.
    """
    branches = tuple(decompose(E).branches())
    groups = _copy_groups(branches)
    traces = [branch_trace(E, branches[g.start]) for g in groups]
    return _checked_report(E, branches, groups, traces, _raise)


def _copy_groups(branches: tuple[PolarBranch, ...]) -> list[range]:
    """Index ranges of the maximal runs of consecutive branches with
    equal (package, depth, p, q).  The closed forms and branch_trace
    read no other field but starts_at_terminal, which is set per
    package, so one member stands for its whole run."""
    groups = []
    start = 0
    for _, run in groupby(branches, attrgetter("package", "depth", "p", "q")):
        stop = start + sum(1 for _ in run)
        groups.append(range(start, stop))
        start = stop
    return groups


def _checked_report(
    E: EqClass,
    branches: tuple[PolarBranch, ...],
    groups: list[range],
    traces: list[Trace],
    fail: Callable[[str, str], None],
) -> IntersectionReport:
    """The one closed-form-vs-Noether kernel behind intersection_report
    and the sweep.  ``groups`` are the _copy_groups of ``branches`` and
    ``traces`` holds one trace per group.  Each distinct pair of groups
    (a group with itself when it has two or more copies) gets one closed
    form and one Noether sum, and each group one I(b, f) check; the
    matrix and with_curve repeat those values over the copies.  Each
    mismatch still goes to ``fail(check, message)`` once per branch pair
    or branch, under the check name 'pair_oracle', 'branch_vs_curve' or
    'grand_total'; the closed-form values are kept whether or not
    ``fail`` returns.  The branches are decompose(E)'s own, so pairs
    skip require_member.
    """
    cluster = singularity_cluster(E)
    curve = (cluster.runs, cluster.counts)
    closed = [[0] * len(groups) for _ in groups]
    oracle = [[0] * len(groups) for _ in groups]
    for g, group in enumerate(groups):
        for a in group:
            for h in range(g, len(groups)):
                later = range(max(a + 1, groups[h].start), groups[h].stop)
                if not later:
                    continue
                if a == group.start:
                    closed[g][h] = closed[h][g] = _pair_intersection(
                        E, branches[a], branches[later.start]
                    )
                    oracle[g][h] = noether_sum(traces[g], traces[h])
                if closed[g][h] != oracle[g][h]:
                    for c in later:
                        fail(
                            "pair_oracle",
                            f"pair ({branches[a]}, {branches[c]}) of {E}: "
                            f"closed form {closed[g][h]} != "
                            f"Noether oracle {oracle[g][h]}",
                        )
    rows = []
    for g, group in enumerate(groups):
        row = []
        for h, other in enumerate(groups):
            row += [closed[g][h]] * len(other)
        rows += [(*row[:a], 0, *row[a + 1 :]) for a in group]
    with_curve = []
    for group, tr in zip(groups, traces):
        value = branch_vs_curve(E, branches[group.start])
        expected = noether_sum(tr, curve)
        for a in group:
            if value != expected:
                fail(
                    "branch_vs_curve",
                    f"{branches[a]} against {E}: "
                    f"closed form {value} != oracle {expected}",
                )
            with_curve.append(value)
    total = sum(with_curve)
    if total != E.milnor + E.multiplicity - 1:
        fail(
            "grand_total",
            f"I(f, P(f)) = {total} for {E}, expected mu + n - 1 = "
            f"{E.milnor + E.multiplicity - 1}",
        )
    return IntersectionReport(E, branches, tuple(rows), tuple(with_curve), total)


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

    def record(self, check: str, description: str) -> None:
        self.failures[check] = self.failures.get(check, 0) + 1
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
        if len(pkg.branches) != s.branches:
            report.record("package_summary", f"{E}: package {pkg.index}")

    branches = tuple(D.branches())
    report.branches += len(branches)
    report.pairs += len(branches) * (len(branches) - 1) // 2
    groups = _copy_groups(branches)
    traces = [branch_trace(E, branches[g.start]) for g in groups]

    aggregate = [0] * len(polar.runs)
    for group, tr in zip(groups, traces):
        if tr.counts != polar.counts[: len(tr.counts)]:
            for _ in group:
                report.record("sharp_pass", f"{E}: trace segments {tr.counts}")
            continue
        for i, v in enumerate(tr.values):
            aggregate[i] += len(group) * v
    if tuple(aggregate) != polar.runs:
        report.record(
            "sharp_pass", f"{E}: trace sum {tuple(aggregate)} != {polar.runs}"
        )

    checked = _checked_report(E, branches, groups, traces, report.record)
    for b, closed in zip(branches, checked.with_curve):
        expected_genus = b.package if b.p > 1 else b.package - 1
        if b.genus != expected_genus:
            report.record("genus_bounds", f"{E}: {b} has genus {b.genus}")
        if closed != b.multiplicity * D.packages[b.package - 1].quotient:
            report.record("quotient_ratio", f"{E}: {b}")
