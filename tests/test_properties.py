"""Randomized classes beyond the exhaustive box: genus up to 7.

The strategy draws a gcd chain n = e_0 > e_1 > ... > e_r = 1 with
n <= 128, then exponents up to 10^4 that drop the chain exactly there:
m_k = m_{k-1} + j_k * e_k with j_k prime to d_k = e_{k-1}/e_k keeps
gcd(e_{k-1}, m_k) = e_k.  Half the draws choose the last exponent to
make a genus drop, so both verdicts of the characterization are met
(with e_{r-1} = 2 every class drops).
"""

from math import gcd, prod

from hypothesis import given, settings, strategies as st

from polarfactor.classify import genus_drop, max_branch_genus
from polarfactor.eqclass import validate
from polarfactor.intersect import SweepReport, _verify_one

MAX_N = 128
MAX_M = 10**4


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


@settings(derandomize=True, max_examples=300, deadline=None)
@given(classes())
def test_every_check_holds_on_random_classes(E):
    report = SweepReport()
    _verify_one(E, report)
    assert report.ok, report.examples
    assert genus_drop(E) == (max_branch_genus(E) < E.genus)
