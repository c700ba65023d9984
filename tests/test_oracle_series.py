"""Symbolic oracle: series as exponent-to-coefficient dicts, the packed
product, implicitization, order counts."""

from math import comb, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from polarfactor import oracle_series
from polarfactor.eqclass import TheoremViolation, validate
from polarfactor.oracle_series import (
    _pack,
    _slot_bytes,
    _unpack,
    evaluate_on_parametrization,
    implicitize,
    polar_poly,
    sample_parametrization,
    verify_class,
)


# ------------------------------------------- product against schoolbook


def schoolbook(a, b):
    """Reference product: every pair of terms, zero sums dropped."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def packed_product(a, b):
    """a*b as one product of packed integers, read back once.  The slot
    holds min(#a, #b) * |a|_max * |b|_max, which bounds every coefficient
    of the product, and each factor's |.|_max."""
    norms = [max(map(abs, s.values()), default=0) for s in (a, b)]
    w = _slot_bytes(max(min(len(a), len(b)) * norms[0] * norms[1], *norms))
    la, lb = min(a, default=0), min(b, default=0)
    return _unpack(_pack(a, w, la) * _pack(b, w, lb), w, base=la + lb)


# sparse or empty, signed coefficients up to 2^200, any lowest exponent;
# drawn zeros are dropped, since a series holds nonzero coefficients only
series = st.dictionaries(
    st.integers(0, 60),
    st.one_of(st.integers(-4, 4), st.integers(-(2**200), 2**200)),
    max_size=25,
).map(lambda d: {e: c for e, c in d.items() if c})


@settings(derandomize=True, max_examples=200, deadline=None)
@given(series, series)
def test_product_equals_schoolbook(a, b):
    assert packed_product(a, b) == schoolbook(a, b)


def tight_pairs():
    """Products whose largest coefficient meets the slot bound
    min(#a, #b) * |a|_max * |b|_max, most sized so that the bound fills
    whole bytes: a slot without its sign bit misreads them."""
    for k in (2, 3, 5, 8, 13):
        base = {i: (-1) ** i * comb(k, i) for i in range(k + 1)}
        yield base, base  # (1 - t)^k squared
    for k in (1, 2, 3, 7):
        for q in (1, 3, 26):
            M = isqrt((2 ** (8 * q) - 1) // k)
            assert (k * M * M).bit_length() == 8 * q
            a = {i: -M for i in range(k)}
            yield a, a  # every coefficient -M; the middle one is k * M^2
            b = {5 + 2 * i: -M for i in range(k)}
            yield b, a  # with gaps and a lowest exponent
    for c in (255, 2**16 - 1, 2**200):
        yield {3: -c}, {0: 0, 9: 1}  # only the top slot
        yield {1: 1, 4: c}, {6: -1}
    for q in (1, 2, 25):
        # digits -(2^(8q - 1) - 1) just inside the slot under a top digit 1:
        # the product is the smallest integer the top slot can make
        M = 2 ** (8 * q - 1) - 1
        yield {0: -M, 1: -M, 2: -M, 3: 1}, {2: 1}


@pytest.mark.parametrize("a, b", list(tight_pairs()))
def test_product_at_the_slot_bound(a, b):
    assert packed_product(a, b) == schoolbook(a, b)
    assert packed_product(b, a) == schoolbook(b, a)


def test_product_with_an_empty_operand():
    a = {2: 5, 3: -7}
    assert packed_product(a, {}) == {}
    assert packed_product({}, a) == {}
    # a factor with only zero coefficients still sizes the slot
    assert packed_product({0: 0}, {0: 128}) == {}
    # the empty series packs to 0 at any slot width and offset
    for w in (1, 2, 9):
        assert _pack({}, w) == 0 and _pack({}, w, 3, 4) == 0


# ------------------------- F as y-coefficients, {x-exponent: coefficient}


def test_poly_accessors_and_derivatives():
    F = ({3: -1}, {}, {0: 1})  # y^2 - x^3
    assert len(F) - 1 == 2  # degree in y
    assert oracle_series._multiplicity(F) == 2
    assert polar_poly(F, 1, 0) == ({2: -3}, {}, {})  # F_x
    assert polar_poly(F, 0, 1) == ({}, {0: 2}, {})  # F_y
    assert polar_poly(F, 1, 1) == ({2: -3}, {0: 2}, {})  # 2*y - 3*x^2
    assert polar_poly(F, 2, 0) == ({2: -6}, {}, {})


def test_polar_rejects_zero_direction():
    F = ({3: -1}, {}, {0: 1})
    with pytest.raises(ValueError):
        polar_poly(F, 0, 0)


# ----------------------------------------------------------- implicitize


def test_implicitize_cusp():
    for n, phi, expected in [
        (2, {3: 1}, ({3: -1}, {}, {0: 1})),  # y^2 - x^3
        (3, {4: 1}, ({4: -1}, {}, {}, {0: 1})),  # y^3 - x^4
        # y^2 - 2*x^2*y - x^3 + x^4
        (2, {3: 1, 4: 1}, ({3: -1, 4: 1}, {2: -2}, {0: 1})),
        # the classical (y^2 - x^3)^2 - 4x^5y - x^7
        (4, {6: 1, 7: 1}, ({6: 1, 7: -1}, {5: -4}, {3: -2}, {}, {0: 1})),
        # y^3 - 6*x^3*y - x^4 - 8*x^5
        (3, {4: 1, 5: 2}, ({4: -1, 5: -8}, {3: -6}, {}, {0: 1})),
    ]:
        assert implicitize(n, phi) == expected


def test_implicitize_perturbed_cusp_vanishes_on_the_curve():
    phi = {3: 1, 4: 1}
    F = implicitize(2, phi)
    assert len(F) - 1 == 2
    assert oracle_series._multiplicity(F) == 2
    assert evaluate_on_parametrization(F, 2, phi) == {}
    assert F[2] == {0: 1}  # monic in y


def test_implicitize_refuses_a_nonzero_residue(monkeypatch):
    # the residue check reads the packed value: here one digit at t^7
    monkeypatch.setattr(oracle_series, "_horner", lambda *args: (1 << 56, 1))
    with pytest.raises(TheoremViolation, match="residue is nonzero"):
        implicitize(2, {3: 1})


def test_a_perturbed_coefficient_leaves_a_residue_at_its_order():
    # changing F[j]'s x^i coefficient by d adds d * t^(n*i) * phi^j
    phi = sample_parametrization(validate(4, [6, 7]), 3)
    F = implicitize(4, phi)
    m = min(phi)
    spots = {(j, i) for j, Fj in enumerate(F) for i in Fj}
    spots |= {(0, 0), (1, 2), (4, 1), (3, 40)}
    for j, i in sorted(spots):
        for d in (1, -1):
            Fj = dict(F[j])
            Fj[i] = Fj.get(i, 0) + d
            Fj = {e: c for e, c in Fj.items() if c}
            perturbed = F[:j] + (Fj,) + F[j + 1:]
            residue = evaluate_on_parametrization(perturbed, 4, phi)
            assert residue, (j, i, d)
            assert min(residue) == 4 * i + j * m
            assert residue[min(residue)] == d


@pytest.mark.parametrize("n, ms", [(4, [6, 7]), (8, [12, 14, 15])])
def test_implicitize_packs_each_series_once(monkeypatch, n, ms):
    # psi, the n power sums and the coefficients c_0..c_{n-1} for the
    # Newton sums, then phi and the n + 1 y-coefficients for the residue
    calls = []
    pack = oracle_series._pack

    def counted(*args):
        calls.append(args)
        return pack(*args)

    monkeypatch.setattr(oracle_series, "_pack", counted)
    implicitize(n, sample_parametrization(validate(n, ms), 1))
    assert len(calls) == 3 * n + 3


def newton_reference(n, phi):
    """F by the textbook route on plain dicts: schoolbook powers of phi,
    tr(phi^i) = n * (the terms of phi^i in x = t^n), then Newton's
    identities k*c_k = -sum_i c_{k-i} * tr(phi^i), every division exact."""
    power, sums = {0: 1}, [None]
    for _ in range(n):
        power = schoolbook(power, phi)
        sums.append({e // n: n * c for e, c in power.items() if e % n == 0})
    coeffs = [{0: 1}]
    for k in range(1, n + 1):
        total = {}
        for i in range(1, k + 1):
            for e, c in schoolbook(coeffs[k - i], sums[i]).items():
                total[e] = total.get(e, 0) + c
        assert all(c % k == 0 for c in total.values())
        coeffs.append({e: -c // k for e, c in total.items() if c})
    return tuple(reversed(coeffs))


@st.composite
def parametrizations(draw):
    """(n, phi) with n <= 6 and phi of order at least n, so that the
    curve has multiplicity n: up to 8 terms, coefficients up to 2^64 of
    either sign, or all positive so that the power sums add up."""
    n = draw(st.integers(2, 6))
    coeff = st.one_of(st.integers(-4, 4), st.integers(-(2**64), 2**64))
    if draw(st.booleans()):
        coeff = coeff.map(abs)
    phi = draw(st.dictionaries(
        st.integers(n, 4 * n + 8), coeff.filter(bool), min_size=1, max_size=8
    ))
    return n, phi


@settings(derandomize=True, max_examples=150, deadline=None)
@given(parametrizations())
def test_implicitize_equals_the_newton_reference(case):
    # the one slot width holds every packed product, away from the
    # sampled classes as well
    n, phi = case
    assert implicitize(n, phi) == newton_reference(n, phi)


def test_implicitize_input_guards():
    with pytest.raises(ValueError, match="zero coefficient"):
        implicitize(2, {3: 1, 4: 0})
    with pytest.raises(ValueError):
        implicitize(2, {0: 1, 3: 1})
    with pytest.raises(ValueError):
        implicitize(1, {3: 1})


# ------------------------------------------------------------- sampling


def test_sample_is_deterministic_per_seed():
    E = validate(8, [12, 14, 15])
    assert sample_parametrization(E, 7) == sample_parametrization(E, 7)
    distinct = {tuple(sorted(sample_parametrization(E, s).items()))
                for s in range(12)}
    assert len(distinct) > 1


def test_sample_realizes_exactly_the_class_invariants():
    E = validate(8, [12, 14, 15])
    for seed in range(8):
        phi = sample_parametrization(E, seed)
        assert phi[12] == 1
        assert phi[14] != 0 and phi[15] != 0
        for i in phi:
            level = sum(1 for m in E.exponents if m <= i)
            assert i in (12, 14, 15) or i % E.gcds[level] == 0
        assert max(phi) < E.conductor


def test_no_series_holds_a_zero_coefficient():
    # a drawn 0 is left out of the sample (here at t^13), never drawn again
    E = validate(4, [6, 7])
    assert sample_parametrization(E, 3) == {
        6: 1, 7: -2, 8: 1, 9: 1, 10: -2, 11: -1, 12: 1, 14: 2, 15: 1
    }
    for seed in range(8):
        phi = sample_parametrization(E, seed)
        F = implicitize(4, phi)
        out = [phi, *F, evaluate_on_parametrization(F, 4, {**phi, 16: 1})]
        for a, b in ((1, 0), (0, 1), (2, -3)):
            out.extend(polar_poly(F, a, b))
        assert all(0 not in s.values() for s in out)


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
        lambda E, seed=None: {5: 1},
    )
    report = verify_class(validate(2, [3]), seed=1, retries=1)
    assert not report.matched
    assert report.attempts == 2
    assert report.observed == 5 and report.expected == 3
    assert "MISMATCH" in report.summary()


def test_verify_class_checks_the_predicted_total_as_the_report_does(monkeypatch):
    right = oracle_series.branch_vs_curve
    monkeypatch.setattr(oracle_series, "branch_vs_curve", lambda E, t: right(E, t) + 1)
    with pytest.raises(
        TheoremViolation,
        match=r"^I\(f, P\(f\)\) = 4 for K\(2;3\), expected mu \+ n - 1 = 3$",
    ):
        verify_class(validate(2, [3]), seed=1)


def test_an_order_past_the_cut_is_unread():
    # along (t^2, t^3), x^k vanishes to order 2k; only orders below the cut read
    phi = {3: 1}
    assert oracle_series._order_along(({23: 1},), 2, phi, 47) == 46
    assert oracle_series._order_along(({0: -5},), 2, phi, 1) == 0
    assert oracle_series._order_along(({23: 1},), 2, phi, 46) is None
    assert oracle_series._order_along(implicitize(2, phi), 2, phi, 1000) is None


def test_an_order_past_the_cut_is_a_mismatch(monkeypatch):
    # every sample is y^2 = x^7, cut at X = 4 for K(2;3): F is y^2 there,
    # and both orders along (t^2, t^7) are 7, past the cut at t^6
    monkeypatch.setattr(
        oracle_series, "sample_parametrization",
        lambda E, seed=None: {7: 1},
    )
    report = verify_class(validate(2, [3]), seed=1, retries=2)
    assert not report.matched and report.attempts == 3
    assert report.observed is None and report.fy_order is None
    assert report.polar_multiplicity == 1
    assert "order beyond the series cut (predicted 3)" in report.summary()
    assert "MISMATCH" in report.summary()


@st.composite
def cuts(draw):
    """(n, phi, X) with X from just past n to past every x-degree of F."""
    n, phi = draw(parametrizations())
    return n, phi, draw(st.integers(n + 1, max(phi) + 1))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(cuts())
def test_the_cut_implicitization_is_exact_below_its_cut(case):
    n, phi, X = case
    F = oracle_series._implicitize(n, phi, X)
    assert F == tuple(
        {e: c for e, c in Fj.items() if e < X} for Fj in newton_reference(n, phi)
    )
    assert oracle_series._horner(F, n, phi, n * X)[0] == 0


def test_genus_4_past_the_desk_bounds(monkeypatch):
    monkeypatch.setattr(oracle_series, "MAX_MULTIPLICITY", 16)
    monkeypatch.setattr(oracle_series, "MAX_CONDUCTOR", 380)
    report = verify_class(validate(16, [24, 28, 30, 31]), seed=1)
    assert report.matched and report.observed == report.fy_order == 395


def test_verify_class_desk_scale_guard():
    with pytest.raises(ValueError, match="desk-scale"):
        verify_class(validate(11, [13]))
    with pytest.raises(ValueError, match="desk-scale"):
        verify_class(validate(10, [21]))  # conductor 180
