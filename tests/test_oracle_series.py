"""Symbolic oracle: truncated series, implicitization, order counts."""

from math import comb, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from polarfactor import oracle_series
from polarfactor.eqclass import TheoremViolation, validate
from polarfactor.oracle_series import (
    TruncSeries,
    evaluate_on_parametrization,
    implicitize,
    polar_poly,
    sample_parametrization,
    verify_class,
)


# ------------------------------------------------------------- TruncSeries


def test_series_arithmetic_and_truncation():
    a = TruncSeries({1: 2, 3: -1})
    b = TruncSeries({0: 1, 2: 5}, trunc=4)
    s = a + b
    assert s.coeffs == {0: 1, 1: 2, 2: 5, 3: -1}
    assert s.trunc == 4
    p = a * b
    # degree-4+ products fall outside the truncation window
    assert p.coeffs == {1: 2, 3: 10 - 1}
    assert p.trunc == 4


def test_series_order_degree_and_cleanup():
    assert TruncSeries({5: 0, 7: 3}).coeffs == {7: 3}
    assert TruncSeries({7: 3}, trunc=6).coeffs == {}
    assert TruncSeries({7: 3}, trunc=6).order() is None
    assert TruncSeries({2: 1, 9: 4}).order() == 2
    assert "O(t^6)" in repr(TruncSeries({2: 1}, trunc=6))


# ------------------------------------------- product against schoolbook


def schoolbook(a, b):
    """Reference product: every pair of terms, cut at the tighter
    truncation."""
    trunc = min((t for t in (a.trunc, b.trunc) if t is not None), default=None)
    out = {}
    for e1, c1 in a.coeffs.items():
        for e2, c2 in b.coeffs.items():
            if trunc is None or e1 + e2 < trunc:
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return TruncSeries(out, trunc)


# sparse or empty, signed coefficients up to 2^200, any lowest exponent
series = st.builds(
    TruncSeries,
    st.dictionaries(
        st.integers(0, 60),
        st.one_of(st.integers(-4, 4), st.integers(-(2**200), 2**200)),
        max_size=25,
    ),
    st.one_of(st.none(), st.integers(0, 80)),
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(series, series)
def test_product_equals_schoolbook(a, b):
    assert a * b == schoolbook(a, b)


def tight_pairs():
    """Products whose largest coefficient meets the slot bound
    min(#a, #b) * |a|_max * |b|_max, most sized so that the bound fills
    whole bytes: a slot without its sign bit misreads them."""
    for k in (2, 3, 5, 8, 13):
        base = TruncSeries({i: (-1) ** i * comb(k, i) for i in range(k + 1)})
        yield base, base  # (1 - t)^k squared
    for k in (1, 2, 3, 7):
        for q in (1, 3, 26):
            M = isqrt((2 ** (8 * q) - 1) // k)
            assert (k * M * M).bit_length() == 8 * q
            a = TruncSeries({i: -M for i in range(k)})
            yield a, a  # every coefficient -M; the middle one is k * M^2
            b = TruncSeries({5 + 2 * i: -M for i in range(k)}, trunc=5 + 2 * k)
            yield b, a  # with gaps, a lowest exponent and a truncation
    for c in (255, 2**16 - 1, 2**200):
        yield TruncSeries({3: -c}), TruncSeries({0: 0, 9: 1})  # only the top slot
        yield TruncSeries({1: 1, 4: c}), TruncSeries({6: -1})
    for q in (1, 2, 25):
        # digits -(2^(8q - 1) - 1) just inside the slot under a top digit 1:
        # the product is the smallest integer the top slot can make
        M = 2 ** (8 * q - 1) - 1
        yield TruncSeries({0: -M, 1: -M, 2: -M, 3: 1}), TruncSeries({2: 1})


@pytest.mark.parametrize("a, b", list(tight_pairs()))
def test_product_at_the_slot_bound(a, b):
    assert a * b == schoolbook(a, b)
    assert b * a == schoolbook(b, a)


def test_product_with_an_empty_or_truncated_away_operand():
    a = TruncSeries({2: 5, 3: -7})
    assert a * TruncSeries({}) == TruncSeries({})
    assert TruncSeries({}, trunc=4) * a == TruncSeries({}, trunc=4)
    assert a * TruncSeries({1: 3}, trunc=3) == TruncSeries({}, trunc=3)
    assert a * TruncSeries({0: 1}, trunc=0) == TruncSeries({}, trunc=0)


# ------------------------------------------------- F as y-coefficients


def poly(*coeffs):
    """F from its y-coefficients, each a {x-exponent: coefficient} dict."""
    return tuple(TruncSeries(c) for c in coeffs)


def test_poly_accessors_and_derivatives():
    F = poly({3: -1}, {}, {0: 1})  # y^2 - x^3
    assert len(F) - 1 == 2  # degree in y
    assert oracle_series._multiplicity(F) == 2
    assert polar_poly(F, 1, 0) == poly({2: -3}, {}, {})  # F_x
    assert polar_poly(F, 0, 1) == poly({}, {0: 2}, {})  # F_y
    assert polar_poly(F, 1, 1) == poly({2: -3}, {0: 2}, {})  # 2*y - 3*x^2
    assert polar_poly(F, 2, 0) == poly({2: -6}, {}, {})


def test_polar_rejects_zero_direction():
    F = poly({3: -1}, {}, {0: 1})
    with pytest.raises(ValueError):
        polar_poly(F, 0, 0)


# ----------------------------------------------------------- implicitize


def test_implicitize_cusp():
    for n, phi, expected in [
        (2, {3: 1}, poly({3: -1}, {}, {0: 1})),  # y^2 - x^3
        (3, {4: 1}, poly({4: -1}, {}, {}, {0: 1})),  # y^3 - x^4
        # y^2 - 2*x^2*y - x^3 + x^4
        (2, {3: 1, 4: 1}, poly({3: -1, 4: 1}, {2: -2}, {0: 1})),
        # the classical (y^2 - x^3)^2 - 4x^5y - x^7
        (4, {6: 1, 7: 1}, poly({6: 1, 7: -1}, {5: -4}, {3: -2}, {}, {0: 1})),
        # y^3 - 6*x^3*y - x^4 - 8*x^5
        (3, {4: 1, 5: 2}, poly({4: -1, 5: -8}, {3: -6}, {}, {0: 1})),
    ]:
        assert implicitize(n, TruncSeries(phi)) == expected


def test_implicitize_perturbed_cusp_vanishes_on_the_curve():
    phi = TruncSeries({3: 1, 4: 1})
    F = implicitize(2, phi)
    assert len(F) - 1 == 2
    assert oracle_series._multiplicity(F) == 2
    assert evaluate_on_parametrization(F, 2, phi).coeffs == {}
    assert F[2] == TruncSeries({0: 1})  # monic in y


def test_implicitize_refuses_a_nonzero_residue(monkeypatch):
    monkeypatch.setattr(
        oracle_series, "evaluate_on_parametrization",
        lambda *args, **kwargs: TruncSeries({7: 1}),
    )
    with pytest.raises(TheoremViolation, match="residue is nonzero"):
        implicitize(2, TruncSeries({3: 1}))


def test_a_perturbed_coefficient_leaves_a_residue_at_its_order():
    # changing F[j]'s x^i coefficient by d adds d * t^(n*i) * phi^j
    phi = sample_parametrization(validate(4, [6, 7]), 3)
    F = implicitize(4, phi)
    m = phi.order()
    spots = {(j, i) for j, Fj in enumerate(F) for i in Fj.coeffs}
    spots |= {(0, 0), (1, 2), (4, 1), (3, 40)}
    for j, i in sorted(spots):
        for d in (1, -1):
            Fj = dict(F[j].coeffs)
            Fj[i] = Fj.get(i, 0) + d
            perturbed = F[:j] + (TruncSeries(Fj),) + F[j + 1:]
            residue = evaluate_on_parametrization(perturbed, 4, phi)
            assert residue.coeffs, (j, i, d)
            assert residue.order() == 4 * i + j * m
            assert residue.coeffs[residue.order()] == d
            cut = evaluate_on_parametrization(perturbed, 4, phi, trunc=4 * i + j * m)
            assert cut.coeffs == {} and cut.trunc == 4 * i + j * m


def test_implicitize_input_guards():
    with pytest.raises(ValueError):
        implicitize(2, TruncSeries({3: 1}, trunc=9))
    with pytest.raises(ValueError):
        implicitize(2, TruncSeries({0: 1, 3: 1}))
    with pytest.raises(ValueError):
        implicitize(1, TruncSeries({3: 1}))


# ------------------------------------------------------------- sampling


def test_sample_is_deterministic_per_seed():
    E = validate(8, [12, 14, 15])
    assert sample_parametrization(E, 7) == sample_parametrization(E, 7)
    distinct = {tuple(sorted(sample_parametrization(E, s).coeffs.items()))
                for s in range(12)}
    assert len(distinct) > 1


def test_sample_realizes_exactly_the_class_invariants():
    E = validate(8, [12, 14, 15])
    for seed in range(8):
        phi = sample_parametrization(E, seed)
        assert phi.trunc is None
        assert phi.coeffs[12] == 1
        assert phi.coeffs[14] != 0 and phi.coeffs[15] != 0
        for i in phi.coeffs:
            level = sum(1 for m in E.exponents if m <= i)
            assert i in (12, 14, 15) or i % E.gcds[level] == 0
        assert max(phi.coeffs) < E.conductor


# ------------------------------------------------------------ verify_class


@pytest.mark.parametrize(
    "n, ms, expected",
    [
        (2, [3], 3),
        (5, [7], 28),
        (4, [6, 7], 19),
        (8, [12, 14, 15], 91),
    ],
)
def test_verify_class_anchor_totals(n, ms, expected):
    E = validate(n, ms)
    report = verify_class(E, seed=20260816)
    assert report.matched
    assert report.observed == report.expected == expected
    assert report.expected == E.milnor + n - 1
    assert report.fy_order == E.milnor + n - 1
    assert report.polar_multiplicity == n - 1
    assert report.attempts <= 6
    assert "match" in report.summary()


def test_verify_class_zero_retries_still_reports():
    report = verify_class(validate(2, [3]), seed=1, retries=0)
    assert report.attempts == 1 and report.matched


def test_verify_class_resamples_then_reports_a_mismatch(monkeypatch):
    # every sample is the K(2;5) curve y^2 = x^5, which is not in K(2;3)
    monkeypatch.setattr(
        oracle_series, "sample_parametrization",
        lambda E, seed=None: TruncSeries({5: 1}),
    )
    report = verify_class(validate(2, [3]), seed=1, retries=1)
    assert not report.matched
    assert report.attempts == 2
    assert report.observed == 5 and report.expected == 3
    assert "MISMATCH" in report.summary()


def test_order_window_raises_far_beyond_the_expected_order():
    # along (t^2, t^3), x^k vanishes to order 2k; the window ends at 8*(0 + 2 + 4)
    phi = TruncSeries({3: 1})
    assert oracle_series._order_along((TruncSeries({23: 1}),), 2, phi, 0) == 46
    assert oracle_series._order_along((TruncSeries({0: -5}),), 2, phi, 0) == 0
    for P in ((TruncSeries({24: 1}),), implicitize(2, phi)):
        with pytest.raises(TheoremViolation, match="far beyond"):
            oracle_series._order_along(P, 2, phi, 0)


def test_verify_class_desk_scale_guard():
    with pytest.raises(ValueError, match="desk-scale"):
        verify_class(validate(11, [13]))
    with pytest.raises(ValueError, match="desk-scale"):
        verify_class(validate(10, [21]))  # conductor 180
