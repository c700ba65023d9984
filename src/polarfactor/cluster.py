"""Clusters of infinitely near points and their Enriques diagrams.

The singularity cluster of a branch is a chain of infinitely near
points organized in one block per characteristic exponent; block k is
shaped by the Euclidean expansion of (m_k - m_{k-1}) over e_{k-1}: row
a of the staircase carries h_a points whose effective multiplicity is
the row's divisor.  The general polar curve passes through the same
support with valuations obtained from the curve's by a parity rule.

A cluster is kept as per-point tuples in chain order: point i lies in
the first neighbourhood of point i - 1, so the index and the parent
are tuple positions.  A point is free when it is proximate only to its
parent and satellite when one more ancestor sees it (it lies on that
ancestor's exceptional divisor); that second proximity target is what
the staircase encodes.  Only ``render`` names points by their
block.row.position labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .eqclass import EqClass, block_expansion

__all__ = [
    "Cluster",
    "ProximityReport",
    "check_proximity",
    "noether_sum",
    "polar_cluster",
    "render",
    "singularity_cluster",
]


@dataclass(frozen=True)
class Cluster:
    """A weighted cluster as per-point tuples in chain order.

    ``values[i]`` is the virtual multiplicity at point i, ``rows[i]``
    the point's row in its block's staircase and
    ``second_proximities[i]`` the extra proximity target of a
    satellite point, None for a free one.  ``block_spans[k-1]`` is the
    half-open index range of block k; the block's terminal point sits
    at the end of its span.  Two clusters over the same class share
    the identical ``rows`` and ``second_proximities`` tuples, so "same
    support" is literal object identity.
    """

    eqclass: EqClass
    values: tuple[int, ...]
    rows: tuple[int, ...]
    second_proximities: tuple[int | None, ...]
    block_spans: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.values)


@lru_cache(maxsize=512)
def singularity_cluster(E: EqClass) -> Cluster:
    """The cluster of singular points of a branch in class E.

    Valuations are the effective multiplicities of the curve, so the
    proximity equality v(P) = sum of proximate successors holds at
    every point except the very last one (where the curve leaves the
    cluster through multiplicity-1 free points that are not singular
    and hence not materialized).
    """
    values: list[int] = []
    rows: list[int] = []
    seconds: list[int | None] = []
    spans: list[tuple[int, int]] = []
    for k in range(1, E.genus + 1):
        exp = block_expansion(E, k)
        start = len(values)
        # ends[a + 2] = last point of row a; an empty row 0 (exponent gap
        # below e_{k-1}) ends at the previous block's terminal.  The first
        # point of row a is also proximate to the end of row a - 2, the
        # others to the end of row a - 1; row 0 and row 1's first point
        # are free.
        ends: list[int | None] = [None, None]
        for a, (h, v) in enumerate(zip(exp.quotients, exp.row_values())):
            values += [v] * h
            rows += [a] * h
            if h:
                seconds += [ends[a]] + [ends[a + 1]] * (h - 1)
            ends.append(len(values) - 1)
        spans.append((start, len(values)))
    return Cluster(E, tuple(values), tuple(rows), tuple(seconds), tuple(spans))


def polar_cluster(E: EqClass) -> Cluster:
    """Valuations of the general polar on the support of the curve.

    Same points, valuation v(P) - 1 on even rows and at every block's
    terminal point, v(P) on the remaining odd-row points.  The root is
    on row 0, so its value is n - 1, the polar's multiplicity.
    """
    base = singularity_cluster(E)
    values = [v if a % 2 else v - 1 for v, a in zip(base.values, base.rows)]
    for _, end in base.block_spans:
        values[end - 1] = base.values[end - 1] - 1
    return Cluster(
        E, tuple(values), base.rows, base.second_proximities, base.block_spans
    )


def noether_sum(trace_a: Sequence[int], trace_b: Sequence[int]) -> int:
    """Intersection multiplicity of two germs from their multiplicity
    traces on a common chain of infinitely near points: the sum of the
    pointwise products.  Points missing from a germ carry trace 0, so
    shorter sequences are padded implicitly."""
    return sum(x * y for x, y in zip(trace_a, trace_b))


@dataclass(frozen=True)
class ProximityReport:
    """Where a cluster's valuations sit relative to the proximity bound.

    ``deficits`` lists points with v(P) < sum of proximate successors —
    an inconsistent cluster, never expected.  ``strict`` lists points
    where the inequality is strict; a curve cluster shows this only at
    the final point, the polar cluster also at odd-row terminals.
    """

    deficits: tuple[int, ...]
    strict: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.deficits


def check_proximity(C: Cluster) -> ProximityReport:
    # every point is proximate to its predecessor; satellites also to
    # their second proximity target
    sums = [*C.values[1:], 0]
    for v, target in zip(C.values, C.second_proximities):
        if target is not None:
            sums[target] += v
    deficits = tuple(i for i, v in enumerate(C.values) if v < sums[i])
    strict = tuple(i for i, v in enumerate(C.values) if v > sums[i])
    return ProximityReport(deficits, strict)


def render(C: Cluster, fmt: str = "text") -> str:
    """Render a cluster as a plain-text listing or a DOT digraph.

    Text: one line per point with label, valuation, kind, and the
    proximity targets of satellites.  DOT: chain edges carry a
    curved=true attribute exactly when the child is free (the classical
    drawing convention); second proximities appear as dotted edges.
    Both outputs are deterministic.
    """
    labels: list[str] = []
    for k, (start, end) in enumerate(C.block_spans, 1):
        for i in range(start, end):
            if i == start or C.rows[i] != C.rows[i - 1]:
                position = 0
            position += 1
            labels.append(f"{k}.{C.rows[i]}.{position}")
    if fmt == "text":
        lines = [f"cluster of {C.eqclass} with {len(C)} points"]
        for i, (label, second) in enumerate(zip(labels, C.second_proximities)):
            if second is None:
                lines.append(f"{label}  v={C.values[i]}  free")
            else:
                lines.append(
                    f"{label}  v={C.values[i]}  satellite  "
                    f"prox({labels[i - 1]}, {labels[second]})"
                )
        return "\n".join(lines) + "\n"
    if fmt == "dot":
        lines = ["digraph enriques {", "  rankdir=LR;", '  node [shape=circle];']
        for i, label in enumerate(labels):
            lines.append(f'  n{i} [label="{label}\\nv={C.values[i]}"];')
        for i, second in enumerate(C.second_proximities):
            if i:
                curved = "true" if second is None else "false"
                lines.append(f"  n{i - 1} -> n{i} [curved={curved}];")
            if second is not None:
                lines.append(
                    f"  n{i} -> n{second} [style=dotted, constraint=false];"
                )
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unsupported render format {fmt!r} (use 'text' or 'dot')")
