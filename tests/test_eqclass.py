"""Validation, derived chains, quotients, and class enumeration."""

import sys
from dataclasses import replace
from fractions import Fraction
from itertools import groupby

import pytest

from polarfactor.eqclass import (
    _int_text,
    InvalidClassError,
    TheoremViolation,
    _prefix_walk,
    block_expansion,
    canonicalize_exponents,
    enumerate_classes,
    polar_quotient,
    scaled_polar_quotient,
    validate,
)


def test_validate_derives_all_chains():
    E = validate(8, [12, 14, 15])
    assert E.multiplicity == 8
    assert E.exponents == (12, 14, 15)
    assert E.gcds == (8, 4, 2, 1)
    assert E.descents == (2, 2, 2)
    assert E.genus == 3
    assert E.semigroup == (8, 12, 26, 53)
    assert E.conductor == 84
    assert E.milnor == 84
    assert E.exponent(0) == 0
    assert E.exponent(2) == 14
    assert E.notation() == "8:12,14,15"
    assert str(E) == "K(8;12,14,15)"


def test_validate_accepts_sequences_and_is_hashable():
    assert validate(5, (7,)) == validate(5, [7])
    assert hash(validate(5, (7,))) == hash(validate(5, [7]))


def test_equality_and_hash_read_n_and_m_only():
    # the derived fields are functions of (n; m), so they take no part
    E = validate(8, [12, 14, 15])
    assert replace(E, conductor=0) == E
    assert hash(replace(E, gcds=(), descents=(), semigroup=())) == hash(E)
    assert validate(8, [12, 14, 17]) != E


@pytest.mark.parametrize(
    "n, ms, fragment",
    [
        (4, [], "genus must be at least 1"),
        (1, [3], "multiplicity must be at least 2"),
        (4, [6, 6], "strictly increasing"),
        (4, [3], "m1 must exceed n"),
        (4, [8], "n divides m1"),
        (4, [6, 8], "e1 divides m2"),
        (8, [12, 14, 16], "e2 divides m3"),
        (4, [6], "expected 1"),
    ],
)
def test_validate_names_the_violated_invariant(n, ms, fragment):
    with pytest.raises(InvalidClassError, match=fragment):
        validate(n, ms)


def test_semigroup_and_conductor_examples():
    for n, ms, semigroup, conductor in [
        (2, [3], (2, 3), 2),
        (5, [7], (5, 7), 24),
        (4, [6, 7], (4, 6, 13), 16),
        (10, [15, 22], (10, 15, 37), 154),
    ]:
        E = validate(n, ms)
        assert (E.semigroup, E.conductor, E.milnor) == (semigroup, conductor, conductor)


def test_genus_one_conductor_closed_form():
    for n, m in [(2, 3), (3, 5), (4, 7), (5, 12), (12, 49)]:
        assert validate(n, [m]).conductor == (n - 1) * (m - 1)


def test_block_expansions():
    E = validate(8, [12, 14, 15])
    assert block_expansion(E, 1).quotients == (1, 2)
    assert block_expansion(E, 2).quotients == (0, 2)
    assert block_expansion(E, 3).quotients == (0, 2)
    assert block_expansion(E, 1).terminal == 4
    assert block_expansion(validate(5, [7]), 1).quotients == (1, 2, 2)
    with pytest.raises(ValueError):
        block_expansion(E, 4)
    with pytest.raises(ValueError):
        block_expansion(E, 0)


def test_scaled_polar_quotients():
    E = validate(8, [12, 14, 15])
    assert scaled_polar_quotient(E, 0) == 0
    assert scaled_polar_quotient(E, 1) == 96
    assert scaled_polar_quotient(E, 2) == 104
    assert scaled_polar_quotient(E, 3) == 106
    assert polar_quotient(E, 1) == 12
    assert polar_quotient(E, 2) == 13
    assert polar_quotient(E, 3) == Fraction(53, 4)
    with pytest.raises(ValueError):
        scaled_polar_quotient(E, 4)


def telescoped_polar_quotient(E, l):
    """n*m_1 + sum_{w=1}^{l-1} e_w*(m_{w+1} - m_w), 0 for l = 0."""
    if l == 0:
        return 0
    total = E.multiplicity * E.exponents[0]
    for w in range(1, l):
        total += E.gcds[w] * (E.exponents[w] - E.exponents[w - 1])
    return total


def test_merle_form_equals_the_telescoped_sum():
    for E in enumerate_classes(16, 60):
        for l in range(E.genus + 1):
            assert scaled_polar_quotient(E, l) == telescoped_polar_quotient(E, l)


def test_polar_quotient_first_package_is_m1():
    for n, ms in [(2, [3]), (5, [7]), (10, [15, 22]), (8, [12, 14, 15])]:
        E = validate(n, ms)
        assert polar_quotient(E, 1) == ms[0]


def test_canonicalize_drops_non_dropping_exponents():
    assert canonicalize_exponents(4, [6, 7, 8]) == validate(4, [6, 7])
    assert canonicalize_exponents(2, [3, 4]) == validate(2, [3])
    assert canonicalize_exponents(2, [5]) == validate(2, [5])
    # idempotent on canonical input
    assert canonicalize_exponents(8, [12, 14, 15]) == validate(8, [12, 14, 15])


def test_canonicalize_rejects_non_reduced_tuples():
    with pytest.raises(InvalidClassError):
        canonicalize_exponents(4, [6, 8])  # gcd never reaches 1
    with pytest.raises(InvalidClassError):
        canonicalize_exponents(2, [1])
    with pytest.raises(InvalidClassError):
        canonicalize_exponents(3, [])


@pytest.mark.parametrize("check", [validate, canonicalize_exponents])
@pytest.mark.parametrize(
    "n, exps, message",
    [
        (1, [], r"multiplicity must be at least 2 \(n = 1\)"),
        (4, [], r"genus must be at least 1 \(no exponents given\)"),
        (4, [6, 6, 7], r"exponents must be strictly increasing, got \(6, 6, 7\)"),
        (4, [3], r"m1 must exceed n \(n = 4, m1 = 3\)"),
    ],
    ids=["n", "genus", "increasing", "m1"],
)
def test_both_refuse_a_tuple_rule_with_one_message(check, n, exps, message):
    with pytest.raises(InvalidClassError, match=rf"^{message}$"):
        check(n, exps)


def test_canonicalize_refuses_a_multiplicity_below_2_first():
    # validate's message, not one about the exponents that follow
    for n, exps in [(1, [2]), (0, [1]), (1, []), (-2, [3])]:
        with pytest.raises(
            InvalidClassError, match=rf"^multiplicity must be at least 2 \(n = {n}\)$"
        ):
            canonicalize_exponents(n, exps)


def test_enumerate_small_bounds():
    assert [E.notation() for E in enumerate_classes(2, 9, 1)] == [
        "2:3",
        "2:5",
        "2:7",
        "2:9",
    ]
    every = [E.notation() for E in enumerate_classes(4, 10)]
    assert every == [
        "2:3", "2:5", "2:7", "2:9",
        "3:4", "3:5", "3:7", "3:8", "3:10",
        "4:5", "4:6,7", "4:6,9", "4:7", "4:9",
    ]
    # genus cap prunes exactly the genus-2 entries
    genus1 = [E.notation() for E in enumerate_classes(4, 10, 1)]
    assert genus1 == [s for s in every if "," not in s]


def test_enumerate_is_lexicographic_and_valid():
    seen = list(enumerate_classes(8, 15))
    assert len(seen) == 71
    keys = [(E.multiplicity, E.exponents) for E in seen]
    assert keys == sorted(keys)
    assert validate(8, [12, 14, 15]) in seen
    for E in seen:
        assert validate(E.multiplicity, E.exponents) == E  # all invariants hold


def test_enumerate_empty_bounds():
    assert list(enumerate_classes(1, 50)) == []
    assert list(enumerate_classes(8, 1)) == []
    # a genus cap below 1 admits nothing, like the other empty bounds
    assert list(enumerate_classes(6, 20, 0)) == []
    assert list(enumerate_classes(6, 20, -1)) == []


def test_theorem_violation_is_not_invalid_input():
    assert issubclass(InvalidClassError, ValueError)
    assert issubclass(TheoremViolation, RuntimeError)
    assert not issubclass(TheoremViolation, InvalidClassError)


@pytest.mark.parametrize("box", [(16, 60), (32, 66)])
def test_each_prefix_is_one_run_of_the_enumeration_and_grown_once(box):
    # The sweep and the scan reuse a prefix's node while the next class
    # shares it; in enumerate_classes' order that is every class below it.
    classes = list(enumerate_classes(*box))
    for k in range(1, max(E.genus for E in classes)):
        keys = [(E.multiplicity, E.exponents[:k]) if E.genus > k else None for E in classes]
        runs = [key for key, _ in groupby(keys) if key is not None]
        assert len(runs) == len(set(runs)), k

    grown = []

    def grow(E, k, node):
        assert node == ((E.multiplicity, E.exponents[: k - 1]) if k > 1 else None)
        grown.append((E.multiplicity, E.exponents[:k]))
        return grown[-1]

    walked = [(E, node) for E, node in _prefix_walk(classes, grow, None)]
    assert [E for E, _ in walked] == classes
    assert all(node == ((E.multiplicity, E.exponents[:-1]) if E.genus > 1 else None)
               for E, node in walked)
    assert len(grown) == len(set(grown))
    assert set(grown) == {
        (E.multiplicity, E.exponents[:k]) for E in classes for k in range(1, E.genus)
    }


def test_a_prefix_met_again_is_grown_again():
    E, F = validate(4, [6, 7]), validate(8, [12, 14, 15])
    grown = []

    def grow(G, k, node):
        grown.append((G.notation(), k))
        return k

    assert [k for _, k in _prefix_walk([E, F, E, E], grow, 0)] == [1, 2, 1, 1]
    assert grown == [("4:6,7", 1), ("8:12,14,15", 1), ("8:12,14,15", 2), ("4:6,7", 1)]


@pytest.mark.parametrize(
    "check, n, exps",
    [
        (validate, 3, [3 * 10**4400]),
        (validate, 4, [6, 2 * 10**4400]),
        (validate, 10**4400, [5]),
        (validate, 4, [10**4400 + 1, 7]),
        (validate, -(10**4400), [5]),
        (validate, 4 * 10**4400, [6 * 10**4400]),
        (canonicalize_exponents, 4, (2 * 10**4400 + 2,)),
    ],
    ids=[
        "n-divides-m1", "e1-divides-m2", "m1", "increasing", "n", "gcd", "final-gcd"
    ],
)
def test_a_refusal_past_the_digit_limit_names_the_digit_count(check, n, exps):
    # the message formats no integer through str(), which would raise
    # CPython's digit-limit ValueError in place of InvalidClassError
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(InvalidClassError, match="digits>"):
            check(n, exps)
    finally:
        sys.set_int_max_str_digits(old)


def test_an_integer_past_the_digit_limit_prints_as_its_digit_count():
    # str() of such an integer raises ValueError; a class names its length
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert str(validate(3, [10**4400 + 1])) == "K(3;<4401 digits>)"
        assert str(validate(3, [10**4299 + 1])) == "K(3;1" + "0" * 4298 + "1)"
        for x, digits in ((10**4400 - 1, 4400), (10**4400, 4401), (-(10**5000), 5001)):
            assert _int_text(x) == f"<{digits} digits>"
        sys.set_int_max_str_digits(0)
        reference = len(str(2**20000))
        sys.set_int_max_str_digits(4300)
        assert _int_text(2**20000) == f"<{reference} digits>"
    finally:
        sys.set_int_max_str_digits(old)
