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
engine behind the CLI's cluster verification mode; it walks the
enumeration tree, so what a prefix (n; m_1, ..., m_k) determines is
derived and checked once for all the classes below it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .cluster import (
    Cluster,
    _block,
    _polar,
    check_proximity,
    noether_sum,
    singularity_cluster,
)
from .decompose import (
    PolarBranch,
    Trace,
    _package,
    _total_mismatch,
    _trace,
    branch_count,
    branch_trace,
    decompose,
    require_member,
)
from .eqclass import (
    EqClass,
    TheoremViolation,
    _int_text,
    _prefix_walk,
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
    block: p_l*p_k*Q_l/(e_{l-1}*e_{k-1}).  One type given twice stands
    for two of its copies; a type with one copy raises ValueError.
    """
    require_member(E, b1)
    require_member(E, b2)
    _require_pair(E, b1, b2)
    return _pair_intersection(E, b1, b2)


def _require_pair(E: EqClass, b1: PolarBranch, b2: PolarBranch) -> None:
    """Refuse a branch type of E with one copy as a pair with itself."""
    if b1.copies == 1 and b1 == b2:
        raise ValueError(f"{b1} has one copy in decompose({E}): no pair with itself")


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
    branch_trace checks that both branches belong to E; a type with one
    copy given twice raises ValueError, as in pair_intersection.
    """
    traces = branch_trace(E, b1), branch_trace(E, b2)
    _require_pair(E, b1, b2)
    return noether_sum(*traces)


def branch_vs_curve(E: EqClass, b: PolarBranch) -> int:
    """I(b, f): intersection of a polar branch with the curve itself.

    Equals multiplicity(b) * polar_quotient(E, package) — that quotient
    is constant on the package, which is what makes the package grouping
    meaningful.  With Merle's quotient e_{k-1}*v_k/n and multiplicity
    p*n/e_{k-1} this is the integer p*v_k.
    """
    require_member(E, b)
    return _branch_vs_curve(E, b)


def _branch_vs_curve(E: EqClass, b: PolarBranch) -> int:
    """branch_vs_curve for a branch type already known to come from
    decompose(E)."""
    return b.p * E.semigroup[b.package]


@dataclass(frozen=True)
class IntersectionReport:
    """Full intersection data per branch type, oracle-checked on
    construction.

    ``matrix`` is symmetric over ``types``, decompose(E)'s own in order:
    I between a copy of each, and on the diagonal between two copies of
    one type (0 for a single copy).  ``with_curve`` lists I(b, f) per
    type; ``total`` is I(f, P(f)) = mu + n - 1 over all branches.
    """

    eqclass: EqClass
    types: tuple[PolarBranch, ...]
    matrix: tuple[tuple[int, ...], ...]
    with_curve: tuple[int, ...]
    total: int


def _raise(check: str, message: str, count: int) -> None:
    raise TheoremViolation(message)


def intersection_report(E: EqClass) -> IntersectionReport:
    """Assemble the matrix, checking closed form == oracle on the way.

    Also cross-checks every I(b, f) against the trace oracle and the
    grand total against mu + n - 1 from the semigroup.  Any mismatch
    raises TheoremViolation.  The checks run once per branch type, in
    the sweep's kernel.
    """
    types = tuple(decompose(E).types())
    C = singularity_cluster(E)
    traces = [_trace(C, t) for t in types]
    upper, with_curve = _check_types(E, (C.runs, C.counts), types, traces, 0, _raise)
    matrix = tuple(
        tuple(upper[min(g, h)][abs(g - h)] for h in range(len(types)))
        for g in range(len(types))
    )
    total = _checked_total(E, types, with_curve, _raise)
    return IntersectionReport(E, types, matrix, tuple(with_curve), total)


def _check_types(
    E: EqClass,
    curve: tuple[Sequence[int], Sequence[int]],
    types: Sequence[PolarBranch],
    traces: Sequence[Trace],
    start: int,
    fail: Callable[[str, str, int], None],
) -> tuple[list[list[int]], list[int]]:
    """The check kernel of intersection_report and the sweep: types[:start]
    of E are checked already.  The types are decompose(E)'s own (or the
    sweep's packages of E, the same types), so they skip require_member.

    Each pair of types that touches types[start:], and a type with itself
    when it has two or more copies, gets one closed form and one Noether
    sum, under 'pair_oracle'; then I(b, f) of each of types[start:]
    against the Noether sum of its trace with the curve's runs, under
    'branch_vs_curve'.  A mismatch goes to ``fail(check, message, count)``,
    with count the branch pairs (c*c' across types, c*(c-1)/2 within one)
    or branches it stands for.  Returns the closed forms, whether or not
    ``fail`` returns: rows g of types[g] against each types[h], h >= g and
    h >= start (0 where no pair exists), and I(b, f) per types[start:].
    """
    rows = []
    for g, t in enumerate(types):
        row = []
        for h in range(max(g, start), len(types)):
            u = types[h]
            pairs = t.copies * (t.copies - 1) // 2 if g == h else t.copies * u.copies
            if not pairs:
                row.append(0)
                continue
            value = _pair_intersection(E, t, u)
            oracle = noether_sum(traces[g], traces[h])
            if value != oracle:
                fail(
                    "pair_oracle",
                    f"pair ({t}, {u}) of {E}: closed form {_int_text(value)} "
                    f"!= Noether oracle {_int_text(oracle)}",
                    pairs,
                )
            row.append(value)
        rows.append(row)
    values = [_branch_vs_curve(E, t) for t in types[start:]]
    for t, trace, value in zip(types[start:], traces[start:], values):
        expected = noether_sum(trace, curve)
        if value != expected:
            fail(
                "branch_vs_curve",
                f"{t} against {E}: closed form {_int_text(value)} != "
                f"oracle {_int_text(expected)}",
                t.copies,
            )
    return rows, values


def _checked_total(
    E: EqClass,
    types: Sequence[PolarBranch],
    values: Sequence[int],
    fail: Callable[[str, str, int], None],
) -> int:
    """I(f, P(f)) over all branches, from I(b, f) per type, against
    mu + n - 1, under 'grand_total'."""
    total = sum(t.copies * value for t, value in zip(types, values))
    if total != E.milnor + E.multiplicity - 1:
        fail(
            "grand_total",
            f"I(f, P(f)) = {_int_text(total)} for {E}, expected mu + n - 1 = "
            f"{_int_text(E.milnor + E.multiplicity - 1)}",
            1,
        )
    return total


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

    Blocks and packages 1..k of a class depend only on its prefix
    (n; m_1, ..., m_k).  The sweep walks enumerate_classes' tree and
    derives and checks them once per prefix: its blocks, branch types,
    their traces, I(b, f), genus and quotient checks, and every pair of
    types in packages <= k.  Per class only block r, package r, the pairs
    that touch it and the checks of the whole class run.  The checks run
    level by level: all of level 1, then level 2, and so on.  A failure
    found at a prefix is recorded again, with the same count and under
    the class's own name, for every class below it, as a class-by-class
    sweep would record it.  A TheoremViolation stops its level and every
    level below: each class there records one 'internal' failure and
    counts no points, branches or pairs.
    """
    return _sweep(enumerate_classes(max_n, max_last_exponent, max_genus), progress)


def _sweep(
    classes: Iterable[EqClass], progress: Callable[[int], None] | None = None
) -> SweepReport:
    """verify_classes over the given classes, in their order."""
    report = SweepReport()
    for E, below in _prefix_walk(classes, _level, _ROOT):
        report.classes += 1
        if progress is not None and report.classes % 20000 == 0:
            progress(report.classes)
        _level(E, E.genus, below).record(E, report)
    return report


class _Level:
    """Blocks 1..k, packages 1..k and their checks, for every class below
    one prefix (n; m_1, ..., m_k); made by _level at the first such class.
    The class attributes are those of the empty prefix, k = 0.

    ``events`` lists the failures found on levels 1..k, level by level
    in the order of _check_level, as (check, message, count, class);
    ``raised`` is (message, class) of a TheoremViolation raised there.
    """

    raised: tuple[str, EqClass] | None = None
    events: tuple[tuple[str, str, int, EqClass], ...] = ()
    runs: tuple[int, ...] = ()
    counts: tuple[int, ...] = ()
    steps: tuple[int, ...] = ()
    types: tuple[PolarBranch, ...] = ()
    traces: tuple[Trace, ...] = ()
    with_curve: tuple[int, ...] = ()
    aggregate: tuple[int, ...] = ()
    multiplicity = 0

    def __init__(self, up: _Level | None = None) -> None:
        if up is not None:
            self.__dict__.update(up.__dict__)

    def record(self, E: EqClass, report: SweepReport) -> None:
        """Add the last level of class E to the report: each failure, then
        one 'internal' if a level raised, else its points, branches and
        pairs.  A prefix's checks read only the prefix, so E's message
        differs from the one found only in the name of the class."""

        def named(message: str, found: EqClass) -> str:
            return message if found is E else message.replace(str(found), str(E))

        for check, message, count, found in self.events:
            report.record(check, named(message, found), count)
        if self.raised is not None:
            report.record("internal", f"{E}: {named(*self.raised)}")
            return
        report.points += sum(self.counts)
        branches = sum(t.copies for t in self.types)
        report.branches += branches
        report.pairs += branches * (branches - 1) // 2


_ROOT = _Level()


def _level(E: EqClass, k: int, up: _Level) -> _Level:
    """Level k of class E on top of level k - 1; at k = E.genus, the
    whole class.  Below a level that raised, nothing is built."""
    if up.raised is not None:
        return up
    lv = _Level(up)

    def fail(check: str, message: str, count: int) -> None:
        lv.events += ((check, message, count, E),)

    try:
        _check_level(E, k, lv, fail)
    except TheoremViolation as exc:
        lv.raised = (str(exc), E)
    return lv


def _check_level(
    E: EqClass, k: int, lv: _Level, fail: Callable[[str, str, int], None]
) -> None:
    """Extend lv by block k and package k of E, the package read off the
    block's counts (its ladder), and run their checks in order; a
    TheoremViolation stops them."""
    n = E.multiplicity
    whole = k == E.genus
    runs, counts, steps = _block(E, k)
    lv.runs += runs
    lv.counts += counts
    lv.steps += tuple(steps)
    curve = Cluster(E, lv.runs, lv.counts, lv.steps)
    if whole:
        polar = _polar(curve)
        size = len(curve)
        if polar.counts is not curve.counts or polar.steps is not curve.steps:
            fail("support", f"{E}: polar support rebuilt, not shared", 1)
        prox = check_proximity(curve)
        if prox.deficits or prox.strict != (size - 1,):
            fail(
                "curve_proximity",
                f"{E}: deficits {prox.deficits}, strict {prox.strict}",
                1,
            )
        if not check_proximity(polar).ok:
            fail("polar_proximity", f"{E}: polar valuations inconsistent", 1)
        sq = sum(h * v * v for v, h in zip(curve.runs, curve.counts))
        if sq != scaled_polar_quotient(E, E.genus):
            fail("value_square_sum", f"{E}: sum v^2 = {sq}", 1)

    pkg = _package(E, k, counts)
    types = pkg.types
    start = len(lv.types)
    lv.types += types
    lv.multiplicity += pkg.multiplicity
    if whole:
        wrong = _total_mismatch(E, lv.multiplicity)
        if wrong:
            fail("total_multiplicity", wrong, 1)
    branches = branch_count(E, k)
    if sum(t.copies for t in types) != branches:
        fail("package_summary", f"{E}: package {k}", 1)

    traces = tuple(_trace(curve, t) for t in types)
    lv.traces += traces

    aggregate = [*lv.aggregate, *[0] * (len(lv.runs) - len(lv.aggregate))]
    for t, tr in zip(types, traces):
        if tr.counts != lv.counts[: len(tr.counts)]:
            fail("sharp_pass", f"{E}: trace segments {tr.counts}", t.copies)
            continue
        for i, v in enumerate(tr.values):
            aggregate[i] += t.copies * v
    lv.aggregate = tuple(aggregate)
    if whole and lv.aggregate != polar.runs:
        fail("sharp_pass", f"{E}: trace sum {lv.aggregate} != {polar.runs}", 1)

    _, values = _check_types(E, (lv.runs, lv.counts), lv.types, lv.traces, start, fail)
    lv.with_curve += tuple(values)
    if whole:
        _checked_total(E, lv.types, lv.with_curve, fail)

    for t, closed in zip(types, values):
        expected_genus = t.package if t.p > 1 else t.package - 1
        if t.genus != expected_genus:
            fail("genus_bounds", f"{E}: {t} has genus {t.genus}", t.copies)
        quotient = scaled_polar_quotient(E, t.package)
        if closed * n != t.multiplicity * quotient:
            fail("quotient_ratio", f"{E}: {t}", t.copies)
