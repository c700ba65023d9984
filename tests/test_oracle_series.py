"""Symbolic oracle: truncated series, implicitization, order counts."""

import pytest

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


def test_verify_class_desk_scale_guard():
    with pytest.raises(ValueError, match="desk-scale"):
        verify_class(validate(11, [13]))
    with pytest.raises(ValueError, match="desk-scale"):
        verify_class(validate(10, [21]))  # conductor 180
