"""Polar factorization: packages, branch invariants, and traces."""

import sys
from dataclasses import replace
from fractions import Fraction

import pytest

from polarfactor.classify import max_branch_genus
from polarfactor.cluster import singularity_cluster
from polarfactor.decompose import (
    Trace,
    branch_count,
    branch_trace,
    decompose,
    package_summary,
    require_member,
)
from polarfactor.eqclass import TheoremViolation, enumerate_classes, validate


def test_three_package_worked_example():
    E = validate(8, [12, 14, 15])
    D = decompose(E)
    assert len(D.packages) == 3
    assert [pkg.multiplicity for pkg in D.packages] == [1, 2, 4]
    assert [pkg.quotient for pkg in D.packages] == [12, 13, Fraction(53, 4)]
    assert sum(pkg.multiplicity for pkg in D.packages) == 7

    b1, b2, b3 = D.branches()
    assert b1.canonical is None and b1.exponents == (1, 2)
    assert (b1.p, b1.q) == (1, 2)
    assert b2.canonical == validate(2, [3]) and b2.exponents == (2, 3, 4)
    assert (b2.p, b2.q) == (1, 1)
    assert b3.canonical == validate(4, [6, 7]) and b3.exponents == (4, 6, 7, 8)
    assert [b.genus for b in (b1, b2, b3)] == [0, 1, 2]
    # upper blocks open with an exponent gap below e_{k-1} here
    assert (b1.case, b2.case, b3.case) == (">", "<", "<")
    assert str(b2) == "xi[2,1] K(2;3)"
    assert str(b1) == "xi[1,1] smooth"


def test_equisingular_copies_are_one_type():
    D = decompose(validate(5, [7]))
    (pkg,) = D.packages
    assert pkg.multiplicity == 4 and pkg.quotient == 7
    (t,) = pkg.types
    assert t.copies == 2 and t.canonical == validate(2, [3])
    assert (t.p, t.q) == (2, 3)
    assert list(D.branches()) == [t, t]
    # the copies cannot be told apart: branches() repeats each stored type
    for E in enumerate_classes(12, 40):
        D = decompose(E)
        expected = [u for u in D.types() for _ in range(u.copies)]
        branches = list(D.branches())
        assert len(branches) == len(expected)
        assert all(b is u for b, u in zip(branches, expected))


def test_all_smooth_package():
    D = decompose(validate(4, [7]))
    (pkg,) = D.packages
    assert [b.canonical for b in D.branches()] == [None, None, None]
    assert [(b.p, b.q) for b in D.branches()] == [(1, 2)] * 3
    assert pkg.multiplicity == 3


def test_single_deep_branch():
    D = decompose(validate(6, [7]))
    (b,) = D.branches()
    assert b.canonical == validate(5, [6])
    assert (b.p, b.q) == (5, 6)
    assert b.genus == 1  # p > 1 keeps the full package genus


def test_two_depths_in_one_package():
    # 19/8 = [2,2,1,2] -> normalized [2,2,1,1,1]: convergents at the two
    # odd indices give one K(2;5) and one K(5;12) branch
    D = decompose(validate(8, [19]))
    (pkg,) = D.packages
    assert singularity_cluster(validate(8, [19])).counts == (2, 2, 1, 1, 1)
    assert [(b.depth, b.p, b.q) for b in D.branches()] == [(1, 2, 5), (2, 5, 12)]
    assert [b.canonical for b in D.branches()] == [
        validate(2, [5]),
        validate(5, [12]),
    ]
    assert pkg.multiplicity == 7
    assert branch_count(validate(8, [19]), 1) == 2


def test_branch_count_matches_construction():
    for n, ms in [(8, [12, 14, 15]), (5, [7]), (4, [7]), (10, [15, 22])]:
        E = validate(n, ms)
        D = decompose(E)
        for pkg in D.packages:
            assert branch_count(E, pkg.index) == sum(t.copies for t in pkg.types)
    assert branch_count(validate(8, [12, 14, 15]), 3) == 1
    assert branch_count(validate(2, [3]), 1) == 1


def test_package_summary_agrees_with_decomposition():
    for n, ms in [(8, [12, 14, 15]), (10, [15, 22]), (6, [7]), (8, [19])]:
        E = validate(n, ms)
        for pkg, s in zip(decompose(E).packages, package_summary(E)):
            assert (pkg.index, pkg.multiplicity, pkg.quotient) == (
                s.index,
                s.multiplicity,
                s.quotient,
            )
            assert sum(t.copies for t in pkg.types) == s.branches
    assert [s.multiplicity for s in package_summary(validate(10, [15, 22]))] == [1, 8]


def test_require_member_rejects_foreign_branches():
    E8 = validate(8, [12, 14, 15])
    E5 = validate(5, [7])
    foreign = next(decompose(E5).branches())
    with pytest.raises(ValueError, match="not produced by"):
        require_member(E8, foreign)
    native = next(decompose(E8).branches())
    assert require_member(E8, native) is decompose(E8)


def test_a_wide_package_is_one_type_with_its_copy_count():
    # K(n; 2n - 1) has n - 1 smooth polar branches, all copies of one
    # type; at n = 10^6 + 1 nothing is built per copy.
    E = validate(10**6 + 1, [2 * 10**6 + 1])
    D = decompose(E)
    (pkg,) = D.packages
    (t,) = pkg.types
    assert t.copies == 10**6 and t.canonical is None
    assert max_branch_genus(E) == 0
    # K(4;7)'s smooth type differs from this one only in its copy count;
    # a value-equal type passes as well as the stored one
    (other,) = decompose(validate(4, [7])).packages[0].types
    assert require_member(E, t) is D
    assert require_member(E, replace(other, copies=10**6)) is D
    for bad in (other, replace(t, depth=2), replace(t, package=2)):
        with pytest.raises(ValueError, match="not produced by"):
            require_member(E, bad)


def expand(trace):
    return tuple(v for v, h in zip(trace.values, trace.counts) for _ in range(h))


def test_branch_traces_worked_example():
    E = validate(8, [12, 14, 15])
    b1, b2, b3 = decompose(E).branches()
    # segments of the ladders (1, 1, 1), (0, 1, 1), (0, 1, 1); blocks 2
    # and 3 open with an empty row 0 that carries the terminal's value
    assert branch_trace(E, b1) == Trace((1, 1), (1, 1))
    assert branch_trace(E, b2) == Trace((2, 1, 1, 1, 1), (1, 1, 1, 0, 1))
    assert branch_trace(E, b3) == Trace(
        (4, 2, 2, 2, 1, 1, 1, 1), (1, 1, 1, 0, 1, 1, 0, 1)
    )
    assert [expand(branch_trace(E, b)) for b in (b1, b2, b3)] == [
        (1, 1),
        (2, 1, 1, 1),
        (4, 2, 2, 1, 1, 1),
    ]


def test_branch_traces_more_examples():
    E = validate(5, [7])
    for b in decompose(E).branches():
        assert branch_trace(E, b) == Trace((2, 1), (1, 2))
        assert expand(branch_trace(E, b)) == (2, 1, 1)
    E = validate(2, [3])
    (b,) = decompose(E).branches()
    assert branch_trace(E, b) == Trace((1, 1), (1, 1))
    E = validate(8, [19])
    shallow, deep = decompose(E).branches()
    assert branch_trace(E, shallow) == Trace((2, 1), (2, 2))
    assert branch_trace(E, deep) == Trace((5, 2, 1, 1), (2, 2, 1, 1))
    assert expand(branch_trace(E, shallow)) == (2, 2, 1, 1)
    assert expand(branch_trace(E, deep)) == (5, 5, 2, 2, 1, 1)
    # a long row is one run: 2:2001 has the ladder (1000, 1, 1)
    E = validate(2, [2001])
    (b,) = decompose(E).branches()
    assert branch_trace(E, b) == Trace((1, 1), (1000, 1))


def test_gap_below_walk_must_start_at_the_terminal_trace(monkeypatch):
    # The package attribute `decompose` is the function, so reach the
    # module itself; a walk whose first value is off by one must trip
    # the anchor check of a gap-below branch.
    module = sys.modules["polarfactor.decompose"]
    right = module.forced_remainders
    branch_trace.cache_clear()
    monkeypatch.setattr(
        module,
        "forced_remainders",
        lambda hs, q, p: (right(hs, q, p)[0] + 1, *right(hs, q, p)[1:]),
    )
    E = validate(8, [12, 14, 15])
    _, b2, _ = decompose(E).branches()
    assert b2.starts_at_terminal
    with pytest.raises(TheoremViolation, match="anchor"):
        branch_trace(E, b2)


def test_trace_first_entry_is_branch_multiplicity():
    for n, ms in [(8, [12, 14, 15]), (10, [15, 22]), (8, [19]), (6, [7])]:
        E = validate(n, ms)
        for b in decompose(E).branches():
            # block 1 always has a row 0, so the first run starts at the root
            trace = branch_trace(E, b)
            assert trace.counts[0] >= 1
            assert trace.values[0] == b.multiplicity
