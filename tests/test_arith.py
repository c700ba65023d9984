"""Continued-fraction layer: frozen examples plus randomized properties.

The property tests pin down the facts the rest of the package leans on:
exact reconstruction, the shape guarantees of plain Euclidean ladders,
value preservation under even-normalization, coprimality and
monotonicity of convergents, and the remainder walk reproducing
Euclid's own remainders.
"""

from fractions import Fraction
from math import gcd
from typing import Sequence

import pytest
from hypothesis import given, strategies as st

from polarfactor.arith import (
    Convergent,
    convergent,
    euclid_expansion,
    forced_remainders,
    normalize_even,
)

nums = st.integers(min_value=0, max_value=400)
dens = st.integers(min_value=1, max_value=400)


def continued_fraction_value(quotients: Sequence[int]) -> Fraction:
    """Reference value of [h0, h1, ..., hs] = h0 + 1/(h1 + 1/(...))."""
    qs = tuple(quotients)
    if not qs:
        raise ValueError("empty quotient list")
    if any(h < 1 for h in qs[1:]) or qs[0] < 0:
        raise ValueError(f"malformed quotient list {qs}")
    value = Fraction(qs[-1])
    for h in reversed(qs[:-1]):
        value = h + 1 / value
    return value


# ---------------------------------------------------------------- examples


def test_euclid_expansion_examples():
    e = euclid_expansion(12, 8)
    assert e.quotients == (1, 2)
    assert e.remainders == (4,)
    assert e.terminal == 4
    assert len(e.quotients) - 1 == 1
    assert e.row_values() == (8, 4)

    e = euclid_expansion(7, 5)
    assert e.quotients == (1, 2, 2)
    assert e.remainders == (2, 1)
    assert e.terminal == 1

    e = euclid_expansion(2, 4)
    assert e.quotients == (0, 2)
    assert e.remainders == (2,)
    assert e.terminal == 2


def test_euclid_expansion_degenerate_cases():
    e = euclid_expansion(6, 3)
    assert e.quotients == (2,)
    assert e.remainders == ()
    assert e.terminal == 3

    e = euclid_expansion(0, 5)
    assert e.quotients == (0,)
    assert e.terminal == 5
    assert e.row_values() == (5,)


def test_euclid_expansion_rejects_bad_input():
    with pytest.raises(ValueError):
        euclid_expansion(5, 0)
    with pytest.raises(ValueError):
        euclid_expansion(-1, 3)


def test_normalize_even_examples():
    assert normalize_even((1, 2)) == (1, 1, 1)
    assert normalize_even((0, 2)) == (0, 1, 1)
    assert normalize_even((1, 2, 2)) == (1, 2, 2)
    assert normalize_even((3,)) == (3,)
    assert normalize_even((1, 1, 1)) == (1, 1, 1)


def test_normalize_even_rejects_unsplittable():
    with pytest.raises(ValueError):
        normalize_even((1, 1))
    with pytest.raises(ValueError):
        normalize_even(())


def test_continued_fraction_value_examples():
    assert continued_fraction_value((1, 2)) == Fraction(3, 2)
    assert continued_fraction_value((1, 1, 1)) == Fraction(3, 2)
    assert continued_fraction_value((0, 1, 1)) == Fraction(1, 2)
    assert continued_fraction_value((2,)) == 2


def test_convergent_examples():
    assert convergent((1, 1, 1), 0) == Convergent(1, 1)
    assert convergent((1, 1, 1), 1) == Convergent(1, 2)
    assert convergent((1, 1, 1), 2) == Convergent(2, 3)
    assert convergent((1, 2, 2), 1) == Convergent(2, 3)
    assert convergent((0, 1, 1), 1) == Convergent(1, 1)
    assert convergent((2, 2, 1, 1), 3) == Convergent(5, 12)
    c = convergent((1, 2), 1)
    assert Fraction(c.q, c.p) == Fraction(3, 2)


def test_convergent_index_range():
    with pytest.raises(ValueError):
        convergent((1, 2), 2)
    with pytest.raises(ValueError):
        convergent((1, 2), -1)


def test_forced_remainders_examples():
    assert forced_remainders((1, 2), 3, 2) == (2, 1)
    assert forced_remainders((1, 1), 2, 1) == (1, 1)
    assert forced_remainders((1, 1, 1), 3, 2) == (2, 1, 1)
    assert forced_remainders((4,), 4, 1) == (1,)


def test_forced_remainders_rejects_mismatched_pairs():
    with pytest.raises(ValueError):
        forced_remainders((1, 2), 5, 2)  # walk ends above 1
    with pytest.raises(ValueError):
        forced_remainders((2,), 3, 2)  # not an integer ratio
    with pytest.raises(ValueError):
        forced_remainders((1, 2), 4, 3)  # inexact final division
    with pytest.raises(ValueError):
        forced_remainders((3, 1), 4, 3)  # walk goes negative


# -------------------------------------------------------------- properties


@given(nums, dens)
def test_expansion_reconstructs_the_fraction(num, den):
    e = euclid_expansion(num, den)
    assert continued_fraction_value(e.quotients) == Fraction(num, den)
    assert e.terminal == (gcd(num, den) if num else den)


@given(nums, dens)
def test_plain_euclid_shape(num, den):
    e = euclid_expansion(num, den)
    rows = e.row_values()
    assert all(a > b for a, b in zip(rows, rows[1:]))
    assert all(h >= 1 for h in e.quotients[1:])
    if len(e.quotients) > 1:
        assert e.quotients[-1] >= 2


@given(nums, dens)
def test_normalize_even_preserves_value_and_is_idempotent(num, den):
    e = euclid_expansion(num, den)
    hn = normalize_even(e.quotients)
    assert len(hn) % 2 == 1  # last index even
    assert continued_fraction_value(hn) == Fraction(num, den)
    assert normalize_even(hn) == hn


@given(nums, dens)
def test_convergents_coprime_denominators_nondecreasing(num, den):
    e = euclid_expansion(num, den)
    cs = [convergent(e.quotients, i) for i in range(len(e.quotients))]
    for c in cs:
        assert gcd(c.p, c.q) == 1
    assert all(a.p <= b.p for a, b in zip(cs, cs[1:]))
    g = gcd(num, den) if num else den
    assert cs[-1] == Convergent(den // g, num // g)


@given(nums, dens)
def test_odd_indexed_convergent_ratios_strictly_decrease(num, den):
    e = euclid_expansion(num, den)
    hn = e.quotients
    convs = [convergent(hn, i) for i in range(1, len(hn), 2)]
    odd = [Fraction(c.q, c.p) for c in convs]
    assert all(a > b for a, b in zip(odd, odd[1:]))


@given(nums, dens)
def test_forced_remainders_reproduce_euclids_remainders(num, den):
    e = euclid_expansion(num, den)
    g = e.terminal
    walk = forced_remainders(e.quotients, num // g, den // g)
    assert walk == (den // g, *(r // g for r in e.remainders))
    assert walk[-1] == 1
