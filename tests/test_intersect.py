"""Closed-form intersection numbers against the Noether trace oracle."""

import itertools
import re
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

from polarfactor import cluster, eqclass, intersect
from polarfactor.cli import main
from polarfactor.cluster import noether_sum, render, singularity_cluster
from polarfactor.decompose import branch_trace, decompose, package_summary
from polarfactor.eqclass import (
    TheoremViolation,
    _prefix_walk,
    enumerate_classes,
    validate,
)
from polarfactor.intersect import (
    SweepReport,
    _sweep,
    branch_vs_curve,
    intersection_report,
    oracle_pair_intersection,
    pair_intersection,
    verify_classes,
)


def test_cross_package_pairs_worked_example():
    E = validate(8, [12, 14, 15])
    b1, b2, b3 = decompose(E).branches()
    assert pair_intersection(E, b1, b2) == 3
    assert pair_intersection(E, b1, b3) == 6
    assert pair_intersection(E, b2, b3) == 13
    # symmetric in the arguments
    assert pair_intersection(E, b3, b2) == 13


def test_same_package_pairs():
    E = validate(10, [15, 22])
    _, b2, b3 = decompose(E).branches()
    assert b2.package == b3.package == 2
    assert pair_intersection(E, b2, b3) == 30

    E = validate(5, [7])
    a, b = decompose(E).branches()
    assert pair_intersection(E, a, b) == 6

    # two depths: the minimum formula picks the shallow-deep product
    E = validate(8, [19])
    shallow, deep = decompose(E).branches()
    assert pair_intersection(E, shallow, deep) == 24
    assert min(shallow.p * deep.q, deep.p * shallow.q) == 24


def test_package_one_min_formula_is_the_degenerate_general_form():
    # depths i <= u: with the prefix term zero, the general form reduces
    # to p_i*q_u, which the decreasing odd ratios make the minimum.
    for E in enumerate_classes(9, 40, 1):
        branches = list(decompose(E).branches())
        for a, b in itertools.combinations(branches, 2):
            lo, hi = (a, b) if a.depth <= b.depth else (b, a)
            assert pair_intersection(E, a, b) == lo.p * hi.q


def test_pairs_match_oracle_on_examples():
    for n, ms in [(8, [12, 14, 15]), (10, [15, 22]), (8, [19]), (5, [7])]:
        E = validate(n, ms)
        for a, b in itertools.combinations(decompose(E).branches(), 2):
            assert pair_intersection(E, a, b) == oracle_pair_intersection(E, a, b)


def test_branch_vs_curve_examples():
    E = validate(8, [12, 14, 15])
    b1, b2, b3 = decompose(E).branches()
    assert branch_vs_curve(E, b1) == 12
    assert branch_vs_curve(E, b2) == 26
    assert branch_vs_curve(E, b3) == 53

    E = validate(6, [7])
    (b,) = decompose(E).branches()
    assert branch_vs_curve(E, b) == 35


def test_pair_functions_reject_foreign_branches():
    E8 = validate(8, [12, 14, 15])
    foreign = next(decompose(validate(5, [7])).branches())
    native = next(decompose(E8).branches())
    with pytest.raises(ValueError):
        pair_intersection(E8, native, foreign)
    with pytest.raises(ValueError):
        branch_vs_curve(E8, foreign)


def test_intersection_report_shape_and_totals():
    E = validate(8, [12, 14, 15])
    rep = intersection_report(E)
    assert rep.matrix == ((0, 3, 6), (3, 0, 13), (6, 13, 0))
    assert rep.with_curve == (12, 26, 53)
    assert rep.total == 91 == E.milnor + E.multiplicity - 1

    for n, ms, total in [
        ((2), [3], 3),
        ((5), [7], 28),
        ((4), [6, 7], 19),
        ((10), [15, 22], 163),
    ]:
        E = validate(n, ms)
        rep = intersection_report(E)
        assert rep.total == total == E.milnor + E.multiplicity - 1
        size = len(rep.types)
        for g, t in enumerate(rep.types):
            # two copies of one type meet; a single copy has no pair
            assert (rep.matrix[g][g] > 0) == (t.copies > 1)
            for h in range(size):
                assert rep.matrix[g][h] == rep.matrix[h][g]
                if g != h:
                    assert rep.matrix[g][h] > 0


def test_a_wide_polar_is_one_type_and_its_copies():
    # K(n; 2n-1) has n - 1 polar branches of one type; the report is per
    # type, so its size and cost do not grow with the copies.
    rep = intersection_report(validate(1000001, [2000001]))
    (t,) = rep.types
    assert t.copies == 10**6
    assert rep.matrix == ((2,),)
    assert rep.with_curve == (2000001,)
    assert rep.total == 2000001000000


def per_branch_report(E):
    """Reference: the kernel as a loop over every branch pair and every
    branch, through the public closed forms and the Noether oracle."""
    branches = tuple(decompose(E).branches())
    size = len(branches)
    matrix = [[0] * size for _ in range(size)]
    for a, c in itertools.combinations(range(size), 2):
        closed = pair_intersection(E, branches[a], branches[c])
        assert closed == oracle_pair_intersection(E, branches[a], branches[c])
        matrix[a][c] = matrix[c][a] = closed
    C = singularity_cluster(E)
    with_curve = tuple(branch_vs_curve(E, b) for b in branches)
    for b, closed in zip(branches, with_curve):
        assert closed == noether_sum(branch_trace(E, b), (C.runs, C.counts))
    return tuple(map(tuple, matrix)), with_curve, sum(with_curve)


def per_copy(rep):
    """The per-type report repeated over the copies, in decomposition
    order, with a zero diagonal."""
    type_of = [g for g, t in enumerate(rep.types) for _ in range(t.copies)]
    matrix = tuple(
        tuple(0 if a == c else rep.matrix[g][h] for c, h in enumerate(type_of))
        for a, g in enumerate(type_of)
    )
    return matrix, tuple(rep.with_curve[g] for g in type_of), rep.total


def test_copy_groups_match_the_per_branch_reference():
    classes = [
        *enumerate_classes(10, 60),
        *(validate(n, [k * n - 1]) for n in range(16, 41) for k in (2, 4)),
        validate(32, [48, 56, 60, 62, 63]),
        validate(32, [48, 56, 60, 62, 65]),
    ]
    for E in classes:
        rep = intersection_report(E)
        assert rep.types == tuple(decompose(E).types())
        assert per_copy(rep) == per_branch_report(E)


def test_verify_classes_small_bound_all_pass():
    for box, counts in [
        ((8, 40), (569, 1410, 1306, 6514)),
        # reaches genus 5: 32:48,56,60,62,63 and 32:48,56,60,62,65
        ((32, 66), (12623, 47686, 86207, 195479)),
    ]:
        report = verify_classes(*box)
        assert report.ok
        assert report.failures == {}
        assert (
            report.classes, report.branches, report.pairs, report.points
        ) == counts
        assert report.summary().startswith("all checks passed")


def test_sweep_report_failure_bookkeeping():
    report = verify_classes(3, 8)
    assert report.ok
    report.record("demo", "first")
    report.record("demo", "second")
    assert not report.ok
    assert report.failures == {"demo": 2}
    assert report.examples["demo"] == ["first", "second"]
    assert "demo: 2 violation(s)" in report.summary()


@pytest.mark.parametrize(
    "closed_form, checks",
    [
        ("_pair_intersection", {"pair_oracle"}),
        pytest.param(
            "_branch_vs_curve",
            {"branch_vs_curve", "grand_total"},
            id="branch_vs_curve-checks1",
        ),
    ],
)
def test_an_off_by_one_closed_form_is_caught(monkeypatch, closed_form, checks):
    # Both entry points must notice a wrong closed form, under the check
    # names the acceptance criteria look up.  The checks call the
    # unchecked _pair_intersection and _branch_vs_curve that
    # pair_intersection and branch_vs_curve wrap.
    right = getattr(intersect, closed_form)
    monkeypatch.setattr(intersect, closed_form, lambda E, *bs: right(E, *bs) + 1)
    report = verify_classes(4, 9)
    assert checks <= set(report.failures)
    assert "internal" not in report.failures
    with pytest.raises(TheoremViolation):
        intersection_report(validate(8, [12, 14, 15]))


@pytest.mark.parametrize(
    "closed_form, check, unit",
    [
        ("_pair_intersection", "pair_oracle", "pairs"),
        pytest.param(
            "_branch_vs_curve",
            "branch_vs_curve",
            "branches",
            id="branch_vs_curve-branch_vs_curve-branches",
        ),
    ],
)
def test_failures_are_counted_per_branch_pair_not_per_copy_group(
    monkeypatch, closed_form, check, unit
):
    # The box (4, 9) holds K(4;7), whose 3 polar branches are copies of
    # one type: the kernel checks them once, but every pair and every
    # branch that the wrong value reaches is recorded.
    (pkg,) = decompose(validate(4, [7])).packages
    assert [t.copies for t in pkg.types] == [3]
    right = getattr(intersect, closed_form)
    monkeypatch.setattr(intersect, closed_form, lambda E, *bs: right(E, *bs) + 1)
    report = verify_classes(4, 9)
    assert report.failures[check] == getattr(report, unit) > 0


def test_the_kernel_checks_each_branch_once_per_entry_point(monkeypatch):
    # The report's types are decompose(E)'s own, so the kernel checks
    # none of them again.
    module = sys.modules["polarfactor.decompose"]
    right = module.require_member
    calls = []

    def counted(E, b):
        calls.append(b)
        return right(E, b)

    monkeypatch.setattr(module, "require_member", counted)
    monkeypatch.setattr(intersect, "require_member", counted)
    for (n, ms), branches, types in [((10, [15, 22]), 3, 2), ((5, [9]), 4, 1)]:
        branch_trace.cache_clear()
        calls.clear()
        rep = intersection_report(validate(n, ms))
        assert len(rep.types) == types
        assert sum(t.copies for t in rep.types) == branches
        assert calls == []


def test_a_trace_count_off_by_one_is_caught(monkeypatch):
    # A trace cut into other segments than the cluster's must not be
    # summed: noether_sum raises, and the sweep records it.  Both take
    # their traces from _trace.
    def shifted(right):
        def shifted(*args):
            trace = right(*args)
            return trace._replace(counts=(*trace.counts[:-1], trace.counts[-1] + 1))

        return shifted

    monkeypatch.setattr(intersect, "_trace", shifted(intersect._trace))
    with pytest.raises(TheoremViolation, match="points against"):
        intersection_report(validate(8, [12, 14, 15]))
    report = verify_classes(4, 9)
    # the sharp pass records the shifted traces, then every class raises
    # in a Noether sum, so none counts its branches, pairs or points
    assert report.failures["internal"] == report.classes == 13
    assert report.branches == report.pairs == report.points == 0
    assert report.failures == {"sharp_pass": 28, "internal": 13, "pair_oracle": 5}
    assert all("points against" in ex for ex in report.examples["internal"])


def test_an_inexact_closed_form_division_names_the_class(monkeypatch):
    right = intersect.scaled_polar_quotient
    monkeypatch.setattr(
        intersect, "scaled_polar_quotient", lambda E, k: right(E, k) + 1
    )
    with pytest.raises(TheoremViolation) as exc:
        intersection_report(validate(8, [12, 14, 15]))
    assert "K(8;12,14,15)" in str(exc.value)
    assert "is not an integer" in str(exc.value)


def test_a_wrong_branch_count_is_recorded(monkeypatch):
    # The sweep compares each package with branch_count, package_summary's
    # branch count.
    right = intersect.branch_count
    monkeypatch.setattr(intersect, "branch_count", lambda E, k: right(E, k) + 1)
    report = verify_classes(4, 9)
    assert set(report.failures) == {"package_summary"}
    packages = sum(E.genus for E in enumerate_classes(4, 9))
    assert report.failures["package_summary"] == packages


def test_a_wrong_package_multiplicity_reaches_the_sweep_as_internal(monkeypatch):
    # decompose raises on its own multiplicity check before the sweep
    # could compare anything; K(2;3)'s one ladder is (1, 1, 1).
    module = sys.modules["polarfactor.decompose"]
    right = module.convergent
    decompose.cache_clear()
    monkeypatch.setattr(
        module,
        "convergent",
        lambda hn, i: (2, 3) if tuple(hn) == (1, 1, 1) else right(hn, i),
    )
    report = verify_classes(4, 9)
    assert "internal" in report.failures
    assert any(
        ex.startswith("K(2;3): ") and "constructed multiplicity" in ex
        for ex in report.examples["internal"]
    )


def _drop_last_exponent(right):
    return lambda n, exps: right(n, exps[:-1])


def _walk_from_q_plus_p(right):
    return lambda hs, q, p: right(hs, q + p, p)


@pytest.mark.parametrize(
    "name, fault",
    [
        ("canonicalize_exponents", _drop_last_exponent),
        ("forced_remainders", _walk_from_q_plus_p),
    ],
)
def test_an_internal_input_error_is_a_theorem_violation(
    monkeypatch, capsys, name, fault
):
    # A helper refusing data this code computed is a bug here, not bad
    # user input: the sweep records it and the CLI exits 1, not 2.
    module = sys.modules["polarfactor.decompose"]
    decompose.cache_clear()
    branch_trace.cache_clear()
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    report = verify_classes(4, 9)
    assert "internal" in report.failures
    assert main(["decompose", "5:7", "--json"]) == 1
    assert main(["verify", "cluster", "--max-n", "4", "--max-m", "9"]) == 1
    err = capsys.readouterr().err
    assert "verification failure" in err and "error:" not in err


def class_by_class(classes):
    """Reference: each class swept on its own, so no prefix is shared,
    and the reports added up in order."""
    total = SweepReport()
    for E in classes:
        one = _sweep([E])
        for field in ("classes", "branches", "pairs", "points"):
            setattr(total, field, getattr(total, field) + getattr(one, field))
        for check, count in one.failures.items():
            total.failures[check] = total.failures.get(check, 0) + count
            bucket = total.examples.setdefault(check, [])
            bucket += one.examples[check][: 5 - len(bucket)]
    return total


def _trace_off_by_one(monkeypatch):
    right = intersect._trace

    def shifted(C, b):
        trace = right(C, b)
        return trace._replace(counts=(*trace.counts[:-1], trace.counts[-1] + 1))

    monkeypatch.setattr(intersect, "_trace", shifted)


def _pair_off_by_one_in_package_1(monkeypatch):
    right = intersect._pair_intersection
    monkeypatch.setattr(
        intersect,
        "_pair_intersection",
        lambda E, a, b: right(E, a, b) + (a.package == b.package == 1),
    )


def _quotient_off_by_one(monkeypatch):
    right = intersect.scaled_polar_quotient
    monkeypatch.setattr(
        intersect, "scaled_polar_quotient", lambda E, k: right(E, k) + 1
    )


def _package_2_pairs_raise_after_a_wrong_1_3_pair(monkeypatch):
    # Row by row, a wrong pair of packages 1 and 3 comes before the
    # raising pairs of package 2 in a later row, and is recorded.
    right = intersect._pair_intersection

    def mixed(E, a, b):
        if a.package == b.package == 2:
            raise TheoremViolation(f"package 2 pair of {E}")
        return right(E, a, b) + ({a.package, b.package} == {1, 3})

    monkeypatch.setattr(intersect, "_pair_intersection", mixed)


def _package_1_class_off(monkeypatch):
    module = sys.modules["polarfactor.decompose"]
    right = module.canonicalize_exponents
    monkeypatch.setattr(
        module,
        "canonicalize_exponents",
        lambda n, exps: right(n, exps[:-1] if len(exps) == 1 else exps),
    )


@pytest.mark.parametrize(
    "inject, box, counts",
    [
        # each count is the one a class-by-class sweep records
        (_pair_off_by_one_in_package_1, (8, 40),
         (569, 1410, 1306, 6514, {"pair_oracle": 474})),
        (_pair_off_by_one_in_package_1, (16, 60),
         (4676, 15260, 21348, 69569, {"pair_oracle": 6667})),
        # some shifted pairs still line up and are summed before one
        # raises; a raised class counts no branches, pairs or points
        (_trace_off_by_one, (8, 40),
         (569, 0, 0, 0,
          {"internal": 569, "pair_oracle": 436, "sharp_pass": 987})),
        # recorded checks, then an inexact pair division at the first
        # level with a pair; classes without one count their points
        (_quotient_off_by_one, (8, 40),
         (569, 63, 0, 651,
          {"internal": 506, "quotient_ratio": 413, "value_square_sum": 412})),
        (_package_2_pairs_raise_after_a_wrong_1_3_pair, (16, 60),
         (4676, 11817, 15767, 58323, {"internal": 862, "pair_oracle": 1981})),
        # a raise in package 1 leaves the class uncounted
        (_package_1_class_off, (8, 40),
         (569, 1094, 1149, 4638, {"internal": 173})),
    ],
)
def test_a_fault_in_shared_prefixes_is_counted_for_every_class_below(
    monkeypatch, inject, box, counts
):
    # A failure found once at a prefix is recorded again for each class
    # below it, under the class's own name; the checks of a class run
    # level by level, and a raise stops every level below it.
    inject(monkeypatch)
    report = verify_classes(*box)
    seen = (report.classes, report.branches, report.pairs, report.points)
    assert (*seen, report.failures) == counts
    reference = class_by_class(enumerate_classes(*box))
    assert seen == (
        reference.classes, reference.branches, reference.pairs, reference.points
    )
    assert report.failures == reference.failures
    assert report.examples == reference.examples


def test_nothing_below_a_raising_prefix_runs(monkeypatch):
    # Under the fault, package 1 raises for every class with a singular
    # branch type there; no block below it may be built for that class.
    _package_1_class_off(monkeypatch)
    right = intersect._block
    built = []

    def block(E, k):
        built.append((E, k))
        return right(E, k)

    def package_1_raises(E):
        try:
            intersect._package(E, 1, right(E, 1)[1])
        except TheoremViolation:
            return True
        return False

    monkeypatch.setattr(intersect, "_block", block)
    assert verify_classes(8, 40).failures == {"internal": 173}
    assert any(package_1_raises(E) for E, k in built if k == 1)
    assert [(E, k) for E, k in built if k >= 2 and package_1_raises(E)] == []


def test_a_package_multiplicity_total_is_checked_per_class(monkeypatch):
    # Package 1 passes its own check, then weighs one more: only the sum
    # over the packages, checked once per class, can see it.
    right = intersect._package

    def heavier(E, k, hn):
        pkg = right(E, k, hn)
        return replace(pkg, multiplicity=pkg.multiplicity + 1) if k == 1 else pkg

    monkeypatch.setattr(intersect, "_package", heavier)
    report = verify_classes(8, 40)
    assert report.classes == 569
    assert report.failures == {"total_multiplicity": 569}
    assert report.examples["total_multiplicity"][0] == (
        "polar of K(2;3) has multiplicity 2 != n - 1"
    )


def test_a_prefix_failure_names_each_class_it_is_counted_for(monkeypatch):
    # Package 1 of K(6;10,m) is two smooth copies, so each class has one
    # wrong pair there; the walk finds it once, at K(6;10,11).
    _pair_off_by_one_in_package_1(monkeypatch)
    classes = [validate(6, [10, m]) for m in (11, 13, 15)]
    report = _sweep(classes)
    assert report.failures == {"pair_oracle": 3}
    assert report.examples == class_by_class(classes).examples
    assert [ex.split(" of ")[1].split(":")[0] for ex in report.examples["pair_oracle"]] == [
        str(E) for E in classes
    ]


def test_a_type_with_one_copy_has_no_pair_with_itself():
    # Both routes refuse a single copy given twice, naming it, where the
    # report's diagonal reads 0; a type with copies keeps its value.
    singles = multiples = 0
    for E in enumerate_classes(8, 40):
        rep = intersection_report(E)
        for g, t in enumerate(rep.types):
            if t.copies == 1:
                singles += 1
                assert rep.matrix[g][g] == 0
                for pair in (pair_intersection, oracle_pair_intersection):
                    with pytest.raises(ValueError, match=re.escape(f"{t} has one copy")):
                        pair(E, t, t)
            else:
                multiples += 1
                assert pair_intersection(E, t, t) == rep.matrix[g][g]
                assert oracle_pair_intersection(E, t, t) == rep.matrix[g][g]
    assert singles and multiples


def test_a_level_expands_its_block_twice_and_builds_no_fraction(monkeypatch):
    # One expansion for the level's block and package, one for
    # branch_count, package_summary's side of the package check; only the
    # CLI prints a quotient, so nothing else builds a Fraction.
    module = sys.modules["polarfactor.decompose"]
    right = module.block_expansion
    expansions = []
    fractions = []
    new = Fraction.__new__

    def expand(E, k):
        expansions.append((E, k))
        return right(E, k)

    def fraction(cls, *args, **kwargs):
        fractions.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(cluster, "block_expansion", expand)
    monkeypatch.setattr(module, "block_expansion", expand)
    monkeypatch.setattr(Fraction, "__new__", fraction)
    # a level per prefix the walk grows, and the last level of each class
    classes = list(enumerate_classes(8, 40))
    grown = []
    for _ in _prefix_walk(classes, lambda E, k, up: grown.append(k), None):
        pass
    levels = len(grown) + len(classes)
    assert verify_classes(8, 40).ok
    assert len(expansions) == 2 * levels

    decompose.cache_clear()
    for E in (validate(8, [12, 14, 15]), validate(10**6 + 1, [2 * 10**6 + 1])):
        expansions.clear()
        decompose(E)
        assert expansions == [(E, k) for k in range(1, E.genus + 1)]
        package_summary(E)
    decompose.cache_clear()
    assert fractions == []


def test_the_sweep_checks_each_branch_tuple_once(monkeypatch):
    # canonicalize_exponents checks a branch's tuple and derives the kept
    # exponents itself: no validate runs behind it
    module = sys.modules["polarfactor.decompose"]
    canonicalize, check = module.canonicalize_exponents, eqclass.validate
    calls = {"canonicalize": 0, "validate": 0}

    def counted(name, right):
        def wrapped(*args):
            calls[name] += 1
            return right(*args)
        return wrapped

    monkeypatch.setattr(
        module, "canonicalize_exponents", counted("canonicalize", canonicalize)
    )
    monkeypatch.setattr(eqclass, "validate", counted("validate", check))
    assert verify_classes(8, 40).ok
    assert calls["canonicalize"] > 0 and calls["validate"] == 0


@pytest.fixture
def digit_limit():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


def test_render_refuses_a_class_past_the_digit_limit_by_its_point_count(digit_limit):
    E = validate(3, [10**4400 + 1])
    refusal = r"^K\(3;<4401 digits>\) has <4400 digits> cluster points; rendering stops"
    with pytest.raises(ValueError, match=refusal):
        render(singularity_cluster(E))


def test_a_violation_past_the_digit_limit_is_a_theorem_violation(
    monkeypatch, digit_limit
):
    right = intersect._branch_vs_curve
    monkeypatch.setattr(intersect, "_branch_vs_curve", lambda E, t: right(E, t) + 1)
    with pytest.raises(
        TheoremViolation,
        match=r"^xi\[1,1\] smooth against K\(3;<4401 digits>\): "
        r"closed form <4401 digits> != oracle <4401 digits>$",
    ):
        intersection_report(validate(3, [10**4400 + 1]))
