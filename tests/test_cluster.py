"""Cluster construction, polar valuations, proximity, and rendering."""

import pytest

from polarfactor.cluster import (
    check_proximity,
    noether_sum,
    polar_cluster,
    render,
    singularity_cluster,
)
from polarfactor.eqclass import enumerate_classes, scaled_polar_quotient, validate


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
    assert polar_cluster(E).points is singularity_cluster(E).points
    assert polar_cluster(E).block_spans == singularity_cluster(E).block_spans


def test_chain_structure_and_kinds():
    C = singularity_cluster(validate(2, [3]))
    assert [p.kind for p in C.points] == ["free", "free", "satellite"]
    assert [p.parent for p in C.points] == [None, 0, 1]
    assert C.points[2].proximities == (1, 0)
    assert [p.label for p in C.points] == ["1.0.1", "1.1.1", "1.1.2"]

    C = singularity_cluster(validate(5, [7]))
    assert [p.kind for p in C.points] == [
        "free", "free", "satellite", "satellite", "satellite",
    ]
    # successive rows lean on the previous row's last point
    assert C.points[3].proximities == (2, 0)
    assert C.points[4].proximities == (3, 2)


def test_block_spans_and_terminals():
    C = singularity_cluster(validate(8, [12, 14, 15]))
    assert C.block_spans == ((0, 3), (3, 5), (5, 7))
    assert len(C) == 7
    # every point's parent is its chain predecessor, including across blocks
    assert [p.parent for p in C.points] == [None, 0, 1, 2, 3, 4, 5]


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
    assert noether_sum((2, 1, 1), (1, 1, 0)) == 3
    assert noether_sum((2, 1, 1), (2, 1, 1)) == 6
    assert noether_sum((), (1, 2)) == 0
    # shorter trace acts as zero-padded
    assert noether_sum((3, 2), (1, 1, 5)) == 5


def test_render_text():
    out = render(singularity_cluster(validate(2, [3])))
    lines = out.splitlines()
    assert lines[0] == "cluster of K(2;3) with 3 points"
    assert lines[1] == "1.0.1  v=2  free"
    assert lines[3] == "1.1.2  v=1  satellite  prox(1.1.1, 1.0.1)"
    assert out.endswith("\n")


def test_render_dot():
    out = render(singularity_cluster(validate(8, [12, 14, 15])), "dot")
    assert out.startswith("digraph enriques {")
    assert out.rstrip().endswith("}")
    assert out.count("[label=") == 7
    assert out.count("style=dotted") == 3  # one per satellite
    assert 'n0 [label="1.0.1\\nv=8"];' in out
    # chain edge into a free point is curved, into a satellite is not
    assert "n0 -> n1 [curved=true];" in out
    assert "n1 -> n2 [curved=false];" in out


def test_render_rejects_unknown_format():
    with pytest.raises(ValueError):
        render(singularity_cluster(validate(2, [3])), "svg")
