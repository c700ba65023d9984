"""Clusters of infinitely near points and their Enriques diagrams.

The singularity cluster of a branch is a chain of infinitely near
points organized in one block per characteristic exponent; block k is
shaped by the Euclidean expansion of (m_k - m_{k-1}) over e_{k-1}: row
a of the staircase carries h_a points whose effective multiplicity is
the row's divisor.  The general polar curve passes through the same
support with valuations obtained from the curve's by a parity rule.

Points are kept in tree order, which here is a total chain: every
point lies in the first neighbourhood of its predecessor.  A point is
free when it is proximate only to its parent and satellite when one
more ancestor sees it (it lies on that ancestor's exceptional
divisor); the second proximity target is what the staircase encodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

from .eqclass import EqClass, block_expansion

__all__ = [
    "Cluster",
    "InfNearPoint",
    "ProximityReport",
    "check_proximity",
    "noether_sum",
    "polar_cluster",
    "render",
    "singularity_cluster",
]


class InfNearPoint(NamedTuple):
    """One infinitely near point: chain position plus proximity data.

    ``parent`` is the point in whose first neighbourhood this one lies
    (always ``index - 1`` in chain order; None for the origin).
    ``second_proximity`` is the extra proximity target of a satellite
    point, None for free points.  (block, row, position) locate the
    point in its block's staircase, all 1-based except row.
    """

    index: int
    parent: int | None
    second_proximity: int | None
    block: int
    row: int
    position: int

    @property
    def kind(self) -> str:
        return "free" if self.second_proximity is None else "satellite"

    @property
    def proximities(self) -> tuple[int, ...]:
        if self.parent is None:
            return ()
        if self.second_proximity is None:
            return (self.parent,)
        return (self.parent, self.second_proximity)

    @property
    def label(self) -> str:
        return f"{self.block}.{self.row}.{self.position}"


@dataclass(frozen=True)
class Cluster:
    """A weighted cluster: points in chain order plus a valuation map.

    ``values[i]`` is the virtual multiplicity at ``points[i]``.
    ``block_spans[k-1]`` is the half-open index range of block k; the
    block's terminal point sits at the end of its span.  Two clusters
    over the same class share the identical ``points`` tuple, so "same
    support" is literal object identity.
    """

    eqclass: EqClass
    points: tuple[InfNearPoint, ...]
    values: tuple[int, ...]
    block_spans: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.points)


@lru_cache(maxsize=512)
def singularity_cluster(E: EqClass) -> Cluster:
    """The cluster of singular points of a branch in class E.

    Valuations are the effective multiplicities of the curve, so the
    proximity equality v(P) = sum of proximate successors holds at
    every point except the very last one (where the curve leaves the
    cluster through multiplicity-1 free points that are not singular
    and hence not materialized).
    """
    points: list[InfNearPoint] = []
    values: list[int] = []
    spans: list[tuple[int, int]] = []
    prev_terminal = -1
    for k in range(1, E.genus + 1):
        exp = block_expansion(E, k)
        rows = exp.row_values()
        start = len(points)
        # anchors[a] = last point of row a; when the block opens with
        # h_0 = 0 (exponent gap below e_{k-1}) the previous block's
        # terminal stands in for the missing row 0.
        anchors: dict[int, int] = {}
        if exp.quotients[0] == 0:
            anchors[0] = prev_terminal
        for a, h in enumerate(exp.quotients):
            for j in range(1, h + 1):
                idx = len(points)
                parent = idx - 1 if idx else None
                if a == 0:
                    second = None
                elif j == 1:
                    second = anchors[a - 2] if a >= 2 else None
                else:
                    second = anchors[a - 1]
                points.append(InfNearPoint(idx, parent, second, k, a, j))
                values.append(rows[a])
            if h:
                anchors[a] = len(points) - 1
        spans.append((start, len(points)))
        prev_terminal = len(points) - 1
    return Cluster(E, tuple(points), tuple(values), tuple(spans))


def polar_cluster(E: EqClass) -> Cluster:
    """Valuations of the general polar on the support of the curve.

    Same points, valuation v(P) - 1 on even rows and at every block's
    terminal point, v(P) on the remaining odd-row points.  The root is
    on row 0, so its value is n - 1, the polar's multiplicity.
    """
    base = singularity_cluster(E)
    out: list[int] = []
    for start, end in base.block_spans:
        for i in range(start, end):
            v = base.values[i]
            out.append(v - 1 if i == end - 1 or base.points[i].row % 2 == 0 else v)
    return Cluster(E, base.points, tuple(out), base.block_spans)


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
    sums = [0] * len(C.points)
    for p in C.points:
        for target in p.proximities:
            sums[target] += C.values[p.index]
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
    if fmt == "text":
        lines = [f"cluster of {C.eqclass} with {len(C.points)} points"]
        for p in C.points:
            entry = f"{p.label}  v={C.values[p.index]}  {p.kind}"
            if p.second_proximity is not None:
                targets = ", ".join(C.points[t].label for t in p.proximities)
                entry += f"  prox({targets})"
            lines.append(entry)
        return "\n".join(lines) + "\n"
    if fmt == "dot":
        lines = ["digraph enriques {", "  rankdir=LR;", '  node [shape=circle];']
        for p in C.points:
            lines.append(f'  n{p.index} [label="{p.label}\\nv={C.values[p.index]}"];')
        for p in C.points:
            if p.parent is not None:
                curved = "true" if p.second_proximity is None else "false"
                lines.append(f"  n{p.parent} -> n{p.index} [curved={curved}];")
            if p.second_proximity is not None:
                lines.append(
                    f"  n{p.index} -> n{p.second_proximity} "
                    "[style=dotted, constraint=false];"
                )
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unsupported render format {fmt!r} (use 'text' or 'dot')")
