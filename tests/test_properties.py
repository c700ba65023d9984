"""Randomized classes beyond the exhaustive box: genus up to 7.

The strategy draws a gcd chain n = e_0 > e_1 > ... > e_r = 1 with
n <= 128, then exponents up to 10^4 that drop the chain exactly there:
m_k = m_{k-1} + j_k * e_k with j_k prime to d_k = e_{k-1}/e_k keeps
gcd(e_{k-1}, m_k) = e_k.  Half the draws choose the last exponent to
make a genus drop, so both verdicts of the characterization are met
(with e_{r-1} = 2 every class drops).

Each polar branch type's trace along the curve's cluster must be the
multiplicity sequence of its own class (Casas-Alvero, Singularities of
Plane Curves, 2000), which checks the class itself and not only its
genus.  The two run lists are cut into different segments, so they are
compared with equal neighbouring runs merged.  The series oracle runs
on every class within its bounds, and two digests freeze its reports
and its samples.  The sweep runs each draw together with a class of
the same prefix, so the second reuses the prefix levels built for the
first.
"""

import hashlib
import sys
from math import gcd, prod

from hypothesis import given, settings, strategies as st

from polarfactor.classify import genus_drop_lambda, max_branch_genus
from polarfactor.cluster import singularity_cluster
from polarfactor.decompose import branch_trace, decompose
from polarfactor.eqclass import enumerate_classes, validate
from polarfactor.intersect import _sweep
from polarfactor.oracle_series import (
    MAX_CONDUCTOR,
    MAX_MULTIPLICITY,
    sample_parametrization,
    verify_class,
)

MAX_N = 128
MAX_M = 10**4

# m_r <= conductor + n - 1, so this box holds every in-bound class
SERIES_CLASSES = [
    E
    for E in enumerate_classes(MAX_MULTIPLICITY, MAX_CONDUCTOR + MAX_MULTIPLICITY - 1)
    if E.conductor <= MAX_CONDUCTOR
]


@st.composite
def classes(draw):
    r = draw(st.integers(1, 7))
    descents: list[int] = []
    for k in range(r):
        # leave a factor 2 for each later descent
        room = MAX_N // (prod(descents) * 2 ** (r - k - 1))
        descents.append(draw(st.integers(2, room)))
    gcds = [prod(descents)]
    for d in descents:
        gcds.append(gcds[-1] // d)
    ms: list[int] = []
    for k, d in enumerate(descents, 1):
        e_prev, e = gcds[k - 1], gcds[k]
        last = ms[-1] if ms else 0
        # leave room for each later m_l to rise by e_{l-1}
        budget = MAX_M - sum(gcds[k:-1]) - last
        if k == r and draw(st.booleans()):
            # genus drop: m_r - m_{r-1} + 1 = lambda * e_{r-1}
            lam = draw(st.integers(1 if ms else 2, (budget + 1) // e_prev))
            ms.append(last + lam * e_prev - 1)
            continue
        j = draw(st.integers(1 if ms else d + 1, budget // e))
        while gcd(j, d) != 1:  # stops at 1 or d + 1 at the latest
            j -= 1
        ms.append(last + j * e)
    return validate(gcds[0], ms)


def merged_runs(values, counts):
    """(value, count) runs with empty runs dropped and equal neighbours
    merged."""
    merged: list[list[int]] = []
    for v, h in zip(values, counts):
        if h and merged and merged[-1][0] == v:
            merged[-1][1] += h
        elif h:
            merged.append([v, h])
    return merged


def class_runs(t, points):
    """The multiplicities of t's own class over its first ``points``
    points, padded with 1s; a smooth branch has only 1s."""
    values, counts, left = [], [], points
    if t.canonical is not None:
        C = singularity_cluster(t.canonical)
        for v, h in zip(C.runs, C.counts):
            values.append(v)
            counts.append(min(h, left))
            left -= counts[-1]
    return merged_runs((*values, 1), (*counts, left))


def branch_class_mismatches(E):
    """The branch types of E whose trace is not their class's sequence."""
    mismatches = []
    for t in decompose(E).types():
        trace = branch_trace(E, t)
        if merged_runs(*trace) != class_runs(t, sum(trace.counts)):
            mismatches.append(t)
    return mismatches


def sibling(E):
    """E with its last exponent raised by e_{r-1}: a valid class with
    E's prefix (n; m_1, ..., m_{r-1})."""
    return validate(E.multiplicity, (*E.exponents[:-1], E.exponents[-1] + E.gcds[-2]))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(classes())
def test_every_check_holds_on_random_classes(E):
    # The sweep checks the sibling on the prefix levels it built for E.
    S = sibling(E)
    report = _sweep([E, S])
    assert report.ok, report.examples
    alone = [_sweep([F]) for F in (E, S)]
    for field in ("classes", "branches", "pairs", "points"):
        assert getattr(report, field) == sum(getattr(one, field) for one in alone)
    assert (genus_drop_lambda(E) is not None) == (max_branch_genus(E) < E.genus)
    assert branch_class_mismatches(E) == []


def test_every_branch_trace_is_its_class_sequence_in_a_box():
    for E in enumerate_classes(10, 60):
        assert branch_class_mismatches(E) == [], E


def test_a_raised_last_branch_exponent_is_caught(monkeypatch):
    # m_r + e_{r-1} keeps the gcd chain, so the raised class is valid and
    # has the branch's genus; only the multiplicity sequence tells it apart.
    module = sys.modules["polarfactor.decompose"]
    right = module.canonicalize_exponents

    def raised(n, exps):
        B = right(n, exps)
        return validate(n, (*B.exponents[:-1], B.exponents[-1] + B.gcds[-2]))

    monkeypatch.setattr(module, "canonicalize_exponents", raised)
    decompose.cache_clear()
    try:
        caught = 0
        for E in enumerate_classes(10, 60):
            singular = [t for t in decompose(E).types() if t.canonical is not None]
            assert branch_class_mismatches(E) == singular, E
            caught += len(singular)
        assert caught == 2848
    finally:
        decompose.cache_clear()
        branch_trace.cache_clear()


def test_series_oracle_on_every_in_bound_class():
    # every report field, frozen: a change to the route's arithmetic or
    # to its attempts moves the digest.  Every report matches at its
    # first attempt, so the fields hold no sampled coefficient, and a
    # change to the sampling is left to the next test.
    digest = hashlib.sha256()
    for seed, E in enumerate(SERIES_CLASSES):
        report = verify_class(E, seed=seed)
        assert report.matched, report.summary()
        assert report.observed == E.milnor + E.multiplicity - 1
        digest.update(repr((
            str(E), report.expected, report.observed, report.fy_order,
            report.polar_multiplicity, report.direction, report.attempts,
            report.matched, report.seed,
        )).encode())
    assert len(SERIES_CLASSES) == 754
    assert digest.hexdigest() == (
        "7f2090464e59a001948e07a3e09a4988a6ad578fb39862b13368c0511f4f5821"
    )


def test_series_samples_on_every_in_bound_class():
    # every sampled coefficient, frozen: a change to the sampling or its
    # random draws moves the digest
    digest = hashlib.sha256()
    for seed, E in enumerate(SERIES_CLASSES):
        digest.update(repr(sorted(sample_parametrization(E, seed).items())).encode())
    assert digest.hexdigest() == (
        "7ff883485e907386ffed0f9af087c2c0e615fcf5cd155481a348c0c2644a2623"
    )
