"""Cluster construction, polar valuations, proximity, and rendering."""

import itertools

import pytest

from polarfactor import cluster
from polarfactor.arith import normalize_even
from polarfactor.cluster import (
    check_proximity,
    noether_sum,
    polar_cluster,
    render,
    singularity_cluster,
)
from polarfactor.decompose import branch_trace, decompose
from polarfactor.eqclass import (
    TheoremViolation,
    block_expansion,
    enumerate_classes,
    scaled_polar_quotient,
    validate,
)


# Per-point reference implementations: the cluster one point at a time
# on the raw Euclid rows, the polar rule with its terminal override,
# proximity sums over every point, and the pointwise Noether sum.


def reference_cluster(E):
    """(values, rows, second proximities, block spans), one entry per point."""
    values, rows, seconds, spans = [], [], [], []
    for k in range(1, E.genus + 1):
        exp = block_expansion(E, k)
        start = len(values)
        ends = [None, None]
        for a, (h, v) in enumerate(zip(exp.quotients, exp.row_values())):
            values += [v] * h
            rows += [a] * h
            if h:
                seconds += [ends[a]] + [ends[a + 1]] * (h - 1)
            ends.append(len(values) - 1)
        spans.append((start, len(values)))
    return tuple(values), tuple(rows), tuple(seconds), tuple(spans)


def reference_polar_values(E):
    values, rows, _, spans = reference_cluster(E)
    polar = [v if a % 2 else v - 1 for v, a in zip(values, rows)]
    for _, end in spans:
        polar[end - 1] = values[end - 1] - 1
    return tuple(polar)


def reference_proximate_sums(values, seconds):
    """Per point P, the sum of v(Q) over the points Q proximate to P."""
    sums = [*values[1:], 0]
    for v, target in zip(values, seconds):
        if target is not None:
            sums[target] += v
    return sums


def reference_proximity(values, seconds):
    sums = reference_proximate_sums(values, seconds)
    deficits = tuple(i for i, v in enumerate(values) if v < sums[i])
    strict = tuple(i for i, v in enumerate(values) if v > sums[i])
    return deficits, strict


def reference_noether_sum(trace_a, trace_b):
    return sum(x * y for x, y in zip(trace_a, trace_b))


def expand(trace):
    values, counts = trace
    return tuple(v for v, h in zip(values, counts) for _ in range(h))


LONG_CLASSES = [validate(2, [2001]), validate(6, [14, 1501])]


def test_runs_expand_to_the_per_point_reference():
    for E in itertools.chain(enumerate_classes(10, 60), LONG_CLASSES):
        values, rows, seconds, spans = reference_cluster(E)
        curve, polar = singularity_cluster(E), polar_cluster(E)
        assert cluster._points(curve) == (values, rows, seconds, spans), E
        assert len(curve) == len(values), E
        assert polar.values == reference_polar_values(E), E
        for C in (curve, polar):
            report = check_proximity(C)
            assert (report.deficits, report.strict) == reference_proximity(
                C.values, seconds
            ), E
        # one run per Euclid row, plus at most a split-off terminal per block
        assert len(curve.runs) <= sum(
            len(block_expansion(E, k).quotients) + 1 for k in range(1, E.genus + 1)
        ), E


def test_run_noether_sums_match_the_pointwise_reference():
    for E in itertools.chain(enumerate_classes(10, 60), LONG_CLASSES):
        curve = singularity_cluster(E)
        traces = [branch_trace(E, b) for b in decompose(E).branches()]
        for tr in traces:
            assert noether_sum(tr, (curve.runs, curve.counts)) == (
                reference_noether_sum(expand(tr), curve.values)
            ), E
        for a, b in itertools.combinations(traces, 2):
            assert noether_sum(a, b) == reference_noether_sum(
                expand(a), expand(b)
            ), E


def test_polar_proximity_excess_counts_the_branches():
    # A route to the branch counts that reads no convergent: the polar's
    # excess v(P) - sum of v(Q) over the points Q proximate to P, point
    # by point, is the copy count of package k's depth-i type at the last
    # point of segment 2i - 1 of block k, and 0 everywhere else.
    for E in itertools.chain(
        enumerate_classes(10, 60), LONG_CLASSES, [validate(32, [48, 56, 60, 62, 63])]
    ):
        _, _, seconds, spans = reference_cluster(E)
        polar = reference_polar_values(E)
        sums = reference_proximate_sums(polar, seconds)
        excess = {i: v - t for i, (v, t) in enumerate(zip(polar, sums)) if v != t}
        expected = {}
        for pkg, (start, _) in zip(decompose(E).packages, spans):
            ladder = normalize_even(block_expansion(E, pkg.index).quotients)
            for t in pkg.types:
                expected[start + sum(ladder[: 2 * t.depth]) - 1] = t.copies
        assert excess == expected, E


def test_curve_valuations_examples():
    assert singularity_cluster(validate(2, [3])).values == (2, 1, 1)
    assert singularity_cluster(validate(5, [7])).values == (5, 2, 2, 1, 1)
    assert singularity_cluster(validate(8, [12, 14, 15])).values == (
        8, 4, 4, 2, 2, 1, 1,
    )
    assert singularity_cluster(validate(10, [15, 22])).values == (
        10, 5, 5, 5, 2, 2, 1, 1,
    )


def test_polar_valuations_examples():
    assert polar_cluster(validate(2, [3])).values == (1, 1, 0)
    assert polar_cluster(validate(5, [7])).values == (4, 2, 2, 0, 0)
    assert polar_cluster(validate(8, [12, 14, 15])).values == (
        7, 4, 3, 2, 1, 1, 0,
    )
    assert polar_cluster(validate(10, [15, 22])).values == (
        9, 5, 4, 4, 2, 2, 0, 0,
    )


def test_polar_root_value_is_n_minus_one():
    for n, ms in [(2, [3]), (6, [7]), (8, [12, 14, 15]), (12, [18, 21, 23])]:
        E = validate(n, ms)
        assert polar_cluster(E).values[0] == n - 1


def test_polar_shares_the_support_tuple():
    E = validate(8, [12, 14, 15])
    curve, polar = singularity_cluster(E), polar_cluster(E)
    # one segment per entry of each block's even-normalized ladder; an
    # empty row 0 opens blocks 2 and 3, and each odd last row is split
    assert curve.counts == (1, 1, 1, 0, 1, 1, 0, 1, 1)
    assert curve.steps == (0, 1, 2) * 3
    assert curve.runs == (8, 4, 4, 4, 2, 2, 2, 1, 1)
    # v - 1 on even steps, v on odd ones
    assert polar.runs == (7, 4, 3, 3, 2, 1, 1, 1, 0)
    assert polar.counts is curve.counts
    assert polar.steps is curve.steps
    assert cluster._points(polar)[3] == cluster._points(curve)[3]


def test_chain_structure_and_kinds():
    C = singularity_cluster(validate(2, [3]))
    _, rows, seconds, _ = cluster._points(C)
    assert rows == (0, 1, 1)
    assert seconds == (None, None, 0)
    points = [line.split() for line in render(C).splitlines()[1:]]
    assert [p[0] for p in points] == ["1.0.1", "1.1.1", "1.1.2"]
    assert [p[2] for p in points] == ["free", "free", "satellite"]

    C = singularity_cluster(validate(5, [7]))
    _, rows, seconds, _ = cluster._points(C)
    assert rows == (0, 1, 1, 2, 2)
    # successive rows lean on the previous row's last point
    assert seconds == (None, None, 0, 0, 2)
    points = [line.split() for line in render(C).splitlines()[1:]]
    assert [p[2] for p in points] == [
        "free", "free", "satellite", "satellite", "satellite",
    ]


def test_block_spans_and_terminals():
    C = singularity_cluster(validate(8, [12, 14, 15]))
    _, _, seconds, spans = cluster._points(C)
    assert spans == ((0, 3), (3, 5), (5, 7))
    assert len(C) == 7
    # a gap-below block's first row leans on the previous terminal
    assert seconds == (None, None, 0, None, 2, None, 4)


def test_curve_proximity_equality_except_final_point():
    for n, ms in [(2, [3]), (5, [7]), (8, [12, 14, 15]), (10, [15, 22])]:
        C = singularity_cluster(validate(n, ms))
        report = check_proximity(C)
        assert report.ok
        assert report.deficits == ()
        assert report.strict == (len(C) - 1,)


def test_polar_proximity_is_consistent():
    for n, ms in [(2, [3]), (5, [7]), (8, [12, 14, 15]), (10, [15, 22])]:
        report = check_proximity(polar_cluster(validate(n, ms)))
        assert report.ok


def test_proximity_engine_exhaustive_small_bound():
    for E in enumerate_classes(8, 40):
        C = singularity_cluster(E)
        report = check_proximity(C)
        assert report.deficits == () and report.strict == (len(C) - 1,), E
        assert check_proximity(polar_cluster(E)).ok, E


def test_squared_values_sum_to_scaled_quotient():
    for E in enumerate_classes(8, 40):
        C = singularity_cluster(E)
        assert sum(v * v for v in C.values) == scaled_polar_quotient(E, E.genus)


def test_noether_sum():
    # traces are (values, counts) runs over the same segments
    assert noether_sum(((2, 1, 1), (1, 1, 1)), ((1, 1, 0), (1, 1, 1))) == 3
    assert noether_sum(((2, 1, 1), (1, 1, 1)), ((2, 1, 1), (1, 1, 1))) == 6
    assert noether_sum(((), ()), ((1, 2), (1, 1))) == 0
    # a shorter trace acts as zero-padded
    assert noether_sum(((3, 2), (1, 1)), ((1, 1, 5), (1, 1, 1))) == 5
    # a run of h points counts h times; an empty segment counts nothing
    assert noether_sum(((5, 2, 1), (1, 2, 2)), ((2, 1), (1, 2))) == 14
    assert noether_sum(((4, 3, 2), (1, 0, 2)), ((1, 9, 1), (1, 0, 2))) == 8
    with pytest.raises(TheoremViolation, match="3 points against 2"):
        noether_sum(((2, 1), (1, 3)), ((1, 1), (1, 2)))


def test_render_text():
    out = render(singularity_cluster(validate(2, [3])))
    lines = out.splitlines()
    assert lines[0] == "cluster of K(2;3) with 3 points"
    assert lines[1] == "1.0.1  v=2  free"
    assert lines[3] == "1.1.2  v=1  satellite  prox(1.1.1, 1.0.1)"
    assert out.endswith("\n")


def test_render_text_pins_gap_below_and_row_zero_blocks():
    # 8:12,14,15: blocks 2 and 3 open with an empty row 0
    assert render(singularity_cluster(validate(8, [12, 14, 15]))) == (
        "cluster of K(8;12,14,15) with 7 points\n"
        "1.0.1  v=8  free\n"
        "1.1.1  v=4  free\n"
        "1.1.2  v=4  satellite  prox(1.1.1, 1.0.1)\n"
        "2.1.1  v=2  free\n"
        "2.1.2  v=2  satellite  prox(2.1.1, 1.1.2)\n"
        "3.1.1  v=1  free\n"
        "3.1.2  v=1  satellite  prox(3.1.1, 2.1.2)\n"
    )
    assert render(polar_cluster(validate(8, [12, 14, 15]))) == (
        "cluster of K(8;12,14,15) with 7 points\n"
        "1.0.1  v=7  free\n"
        "1.1.1  v=4  free\n"
        "1.1.2  v=3  satellite  prox(1.1.1, 1.0.1)\n"
        "2.1.1  v=2  free\n"
        "2.1.2  v=1  satellite  prox(2.1.1, 1.1.2)\n"
        "3.1.1  v=1  free\n"
        "3.1.2  v=0  satellite  prox(3.1.1, 2.1.2)\n"
    )
    # 10:15,22: block 2 has a row 0, which its satellites lean on
    assert render(singularity_cluster(validate(10, [15, 22]))) == (
        "cluster of K(10;15,22) with 8 points\n"
        "1.0.1  v=10  free\n"
        "1.1.1  v=5  free\n"
        "1.1.2  v=5  satellite  prox(1.1.1, 1.0.1)\n"
        "2.0.1  v=5  free\n"
        "2.1.1  v=2  free\n"
        "2.1.2  v=2  satellite  prox(2.1.1, 2.0.1)\n"
        "2.2.1  v=1  satellite  prox(2.1.2, 2.0.1)\n"
        "2.2.2  v=1  satellite  prox(2.2.1, 2.1.2)\n"
    )
    assert render(polar_cluster(validate(10, [15, 22]))) == (
        "cluster of K(10;15,22) with 8 points\n"
        "1.0.1  v=9  free\n"
        "1.1.1  v=5  free\n"
        "1.1.2  v=4  satellite  prox(1.1.1, 1.0.1)\n"
        "2.0.1  v=4  free\n"
        "2.1.1  v=2  free\n"
        "2.1.2  v=2  satellite  prox(2.1.1, 2.0.1)\n"
        "2.2.1  v=0  satellite  prox(2.1.2, 2.0.1)\n"
        "2.2.2  v=0  satellite  prox(2.2.1, 2.1.2)\n"
    )


def test_render_dot():
    # one node per point; a chain edge into a free point is curved, into
    # a satellite not; one dotted edge per satellite
    assert render(singularity_cluster(validate(8, [12, 14, 15])), "dot") == (
        "digraph enriques {\n"
        "  rankdir=LR;\n"
        "  node [shape=circle];\n"
        '  n0 [label="1.0.1\\nv=8"];\n'
        '  n1 [label="1.1.1\\nv=4"];\n'
        '  n2 [label="1.1.2\\nv=4"];\n'
        '  n3 [label="2.1.1\\nv=2"];\n'
        '  n4 [label="2.1.2\\nv=2"];\n'
        '  n5 [label="3.1.1\\nv=1"];\n'
        '  n6 [label="3.1.2\\nv=1"];\n'
        "  n0 -> n1 [curved=true];\n"
        "  n1 -> n2 [curved=false];\n"
        "  n2 -> n0 [style=dotted, constraint=false];\n"
        "  n2 -> n3 [curved=true];\n"
        "  n3 -> n4 [curved=false];\n"
        "  n4 -> n2 [style=dotted, constraint=false];\n"
        "  n4 -> n5 [curved=true];\n"
        "  n5 -> n6 [curved=false];\n"
        "  n6 -> n4 [style=dotted, constraint=false];\n"
        "}\n"
    )


def test_render_refuses_above_the_point_bound(monkeypatch):
    C = singularity_cluster(validate(5, [7]))
    monkeypatch.setattr(cluster, "MAX_RENDER_POINTS", len(C))
    assert render(C).startswith("cluster of K(5;7) with 5 points\n")
    monkeypatch.setattr(cluster, "MAX_RENDER_POINTS", len(C) - 1)
    for fmt in ("text", "dot"):
        with pytest.raises(ValueError, match="5 cluster points"):
            render(C, fmt)


def test_render_rejects_unknown_format():
    with pytest.raises(ValueError):
        render(singularity_cluster(validate(2, [3])), "svg")
