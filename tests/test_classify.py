"""Genus-drop and smooth-polar predicates, formula vs construction."""

import sys
from math import gcd

import pytest

from polarfactor.classify import (
    ScanHit,
    genus_drop,
    genus_drop_lambda,
    max_branch_genus,
    scan,
    smooth_scan_pairs,
)
from polarfactor.decompose import decompose
from polarfactor.eqclass import (
    InvalidClassError,
    TheoremViolation,
    enumerate_classes,
    validate,
)


def smooth_polar(n: int, m: int) -> bool:
    """Reference predicate: the polar of a general genus-1 member K(n; m)
    has only smooth branches; closed form m = lambda*n - 1."""
    if n < 2 or m <= n or gcd(n, m) != 1:
        raise InvalidClassError(f"({n}, {m}) is not valid genus-1 data")
    return m % n == n - 1


def test_genus_drop_examples():
    assert genus_drop(validate(8, [12, 14, 15]))
    assert genus_drop_lambda(validate(8, [12, 14, 15])) == 1
    assert genus_drop(validate(4, [6, 7]))
    assert not genus_drop(validate(10, [15, 22]))
    assert genus_drop_lambda(validate(10, [15, 22])) is None
    # genus 1 reads the same condition at r = 1: m = lambda*n - 1
    assert genus_drop(validate(2, [3])) and genus_drop_lambda(validate(2, [3])) == 2
    assert not genus_drop(validate(5, [7]))


def test_genus_drop_matches_the_construction():
    for n, ms in [
        (8, [12, 14, 15]),
        (4, [6, 7]),
        (10, [15, 22]),
        (6, [7]),
        (8, [19]),
        (12, [18, 21, 23]),
    ]:
        E = validate(n, ms)
        assert genus_drop(E) == (max_branch_genus(E) <= E.genus - 1)


def test_smooth_polar_examples():
    assert smooth_polar(2, 3)
    assert smooth_polar(4, 7)
    assert not smooth_polar(5, 7)
    assert not smooth_polar(8, 19)
    # the genus-1 reading of the production predicate agrees
    for n, m in [(2, 3), (4, 7), (5, 7), (8, 19)]:
        assert genus_drop(validate(n, [m])) == smooth_polar(n, m)


def test_smooth_polar_rejects_invalid_data():
    with pytest.raises(InvalidClassError):
        smooth_polar(4, 6)  # gcd 2
    with pytest.raises(InvalidClassError):
        smooth_polar(4, 3)  # m <= n
    with pytest.raises(InvalidClassError):
        smooth_polar(1, 5)


def test_smooth_scan_frozen_set():
    assert smooth_scan_pairs(4, 9) == [
        (2, 3), (2, 5), (2, 7), (2, 9), (3, 5), (3, 8), (4, 7),
    ]


def test_scan_yields_witnesses_and_cross_checks():
    hits = list(scan(8, 30))
    by_class = {hit.eqclass.notation(): hit for hit in hits}
    assert "8:12,14,15" in by_class
    hit = by_class["8:12,14,15"]
    assert hit.lam == 1 and hit.max_genus_of_branches == 2
    for h in hits:
        assert h.max_genus_of_branches <= h.eqclass.genus - 1
        assert h.lam >= 1
    # not everything is a hit at this bound
    assert "5:7" not in by_class


def test_scan_smooth_predicate_restricts_to_genus_one():
    hits = list(scan(4, 9, 1))
    assert all(h.eqclass.genus == 1 for h in hits)
    assert all(h.max_genus_of_branches == 0 for h in hits)
    assert list(scan(4, 9, 0)) == []


def test_scan_equals_the_class_by_class_reference():
    # Reference: the closed form and the full decomposition of each class.
    want = [
        ScanHit(E, genus_drop_lambda(E), max_branch_genus(E))
        for E in enumerate_classes(16, 60)
        if genus_drop(E)
    ]
    assert len(want) == 3532
    assert list(scan(16, 60)) == want


def test_a_fault_in_a_prefix_package_stops_the_scan(monkeypatch):
    # Branch classes refused only while a package below the last one is
    # built: the scan must still raise.
    module = sys.modules["polarfactor.decompose"]
    right = module.canonicalize_exponents
    package = module._package
    seen = []

    def prefix_only(E, k, hn):
        if k == E.genus:
            return package(E, k, hn)
        seen.append(E)
        monkeypatch.setattr(module, "canonicalize_exponents", lambda n, xs: right(n, xs[:-1]))
        try:
            return package(E, k, hn)
        finally:
            monkeypatch.setattr(module, "canonicalize_exponents", right)

    monkeypatch.setattr(module, "_package", prefix_only)
    decompose.cache_clear()
    try:
        with pytest.raises(TheoremViolation, match="branch"):
            list(scan(16, 60))
    finally:
        decompose.cache_clear()
    assert seen and seen[-1].genus > 1
