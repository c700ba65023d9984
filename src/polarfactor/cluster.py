"""Clusters of infinitely near points and their Enriques diagrams.

The singularity cluster of a branch is a chain of infinitely near
points organized in one block per characteristic exponent; block k is
shaped by the Euclidean expansion of (m_k - m_{k-1}) over e_{k-1}: row
a of the staircase carries h_a points whose effective multiplicity is
the row's divisor.  The general polar curve passes through the same
support with valuations obtained from the curve's by a parity rule.

A cluster is kept as runs, one (value, count) per segment of each
block's even-normalized ladder: normalize_even splits an odd last row
h_s into h_s - 1 points and the terminal point.  Polar branch traces
use the same segments, so every sum over points is a sum over aligned
runs, and the cost follows the number of rows, not of points.  Point i
lies in the first neighbourhood of point i - 1.  A point is free when
it is proximate only to its parent and satellite when one more
ancestor sees it (it lies on that ancestor's exceptional divisor); that
second proximity target is what the staircase encodes.  Only
``render`` and ``Cluster.values`` expand runs into points; ``render``
names them by their block.row.position labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .arith import normalize_even
from .eqclass import EqClass, TheoremViolation, _int_text, block_expansion

__all__ = [
    "Cluster",
    "MAX_RENDER_POINTS",
    "ProximityReport",
    "check_proximity",
    "noether_sum",
    "polar_cluster",
    "render",
    "singularity_cluster",
]

# Above this many points render refuses instead of building the
# listing.  The CLI's decompose and matrix refuse above this many
# branch pairs.
MAX_RENDER_POINTS = 100_000


@dataclass(frozen=True)
class Cluster:
    """A weighted cluster as runs over the even-normalized Euclid rows.

    Segment i holds ``counts[i]`` consecutive points of virtual
    multiplicity ``runs[i]``; ``steps[i]`` is the segment's index in its
    block's ladder, so each block opens at a step 0.  ``counts`` is the
    blocks' ladders concatenated, and a count is 0 only for an empty row
    0 (an exponent gap below e_{k-1}).  Two clusters over the same class
    share the identical ``counts`` and ``steps`` tuples, so "same
    support" is literal object identity.

    ``values`` expands the runs into one valuation per point on every
    access, for comparison with per-point references; computations stay
    on the runs.
    """

    eqclass: EqClass
    runs: tuple[int, ...]
    counts: tuple[int, ...]
    steps: tuple[int, ...]

    def __len__(self) -> int:
        return sum(self.counts)

    @property
    def values(self) -> tuple[int, ...]:
        """The virtual multiplicity of each point in chain order."""
        return _points(self)[0]


def _points(C: Cluster) -> tuple[tuple, tuple, tuple, tuple]:
    """Expand the runs into per-point values, rows and second
    proximities, and the point range of each block.

    The first point of segment a is also proximate to the end of segment
    a - 2, the others to the end of segment a - 1; steps 0 and 1 open
    free.  An empty segment 0 ends at the previous block's terminal.  A
    ladder ends in 1 exactly when normalize_even split its odd last row
    (a Euclid ladder's last quotient is at least 2), and that split-off
    terminal point stays on the row it came from.
    """
    values: list[int] = []
    rows: list[int] = []
    seconds: list[int | None] = []
    starts: list[int] = []
    for i, (v, h, a) in enumerate(zip(C.runs, C.counts, C.steps)):
        if a == 0:
            starts.append(len(values))
            ends: list[int | None] = [None, None]
        closes_block = i + 1 == len(C.steps) or C.steps[i + 1] == 0
        row = a - 1 if closes_block and h == 1 else a
        values += [v] * h
        rows += [row] * h
        if h:
            seconds += [ends[a]] + [ends[a + 1]] * (h - 1)
        ends.append(len(values) - 1)
    spans = tuple(zip(starts, [*starts[1:], len(values)]))
    return tuple(values), tuple(rows), tuple(seconds), spans


@lru_cache(maxsize=512)
def singularity_cluster(E: EqClass) -> Cluster:
    """The cluster of singular points of a branch in class E.

    Segment a of block k carries its Euclid row's divisor, and the
    terminal point split off an odd last row keeps that row's divisor
    e_k.  Valuations are the effective multiplicities of the curve, so
    the proximity equality v(P) = sum of proximate successors holds at
    every point except the very last one (where the curve leaves the
    cluster through multiplicity-1 free points that are not singular
    and hence not materialized).
    """
    runs: list[int] = []
    counts: list[int] = []
    steps: list[int] = []
    for k in range(1, E.genus + 1):
        block = _block(E, k)
        runs += block[0]
        counts += block[1]
        steps += block[2]
    return Cluster(E, tuple(runs), tuple(counts), tuple(steps))


def _block(E: EqClass, k: int) -> tuple[tuple[int, ...], tuple[int, ...], range]:
    """The runs, counts and steps of block k of singularity_cluster(E).
    They read only (n; m_1, ..., m_k), so every class with that prefix
    has the same block k."""
    exp = block_expansion(E, k)
    ladder = normalize_even(exp.quotients)
    divisors = exp.row_values()
    runs = (divisors + divisors[-1:])[: len(ladder)]
    return runs, ladder, range(len(ladder))


def polar_cluster(E: EqClass) -> Cluster:
    """Valuations of the general polar on the support of the curve.

    Same segments, valuation v - 1 on even steps and v on odd ones.  The
    root opens block 1 at step 0, so its value is n - 1, the polar's
    multiplicity.  A ladder's last step is even (normalize_even gives an
    odd last row's terminal point a segment of its own), so every
    block's terminal reads e_k - 1 with no special case.
    """
    return _polar(singularity_cluster(E))


def _polar(base: Cluster) -> Cluster:
    """polar_cluster on the support of a given curve cluster."""
    runs = tuple(v if a % 2 else v - 1 for v, a in zip(base.runs, base.steps))
    return Cluster(base.eqclass, runs, base.counts, base.steps)


def noether_sum(
    trace_a: tuple[Sequence[int], Sequence[int]],
    trace_b: tuple[Sequence[int], Sequence[int]],
) -> int:
    """Intersection multiplicity of two germs from their multiplicity
    traces on a common chain of infinitely near points: the sum over the
    shared points of the products.

    A trace is a pair (values, counts) of runs over the cluster's
    segments from the root on.  A germ that leaves the cluster early has
    fewer runs, and the points beyond count as 0.  Both traces must cut
    the shared part into the same segments: a count that differs at one
    position raises TheoremViolation.
    """
    (xs, hs), (ys, gs) = trace_a, trace_b
    total = 0
    for x, h, y, g in zip(xs, hs, ys, gs):
        if h != g:
            raise TheoremViolation(
                f"traces disagree on a segment: {h} points against {g}"
            )
        total += h * x * y
    return total


@dataclass(frozen=True)
class ProximityReport:
    """Where a cluster's valuations sit relative to the proximity bound.

    ``deficits`` lists points with v(P) < sum of proximate successors —
    an inconsistent cluster, never expected.  ``strict`` lists points
    where the inequality is strict; a curve cluster shows this only at
    the final point, the polar cluster at the last point of every
    nonempty odd segment.
    """

    deficits: tuple[int, ...]
    strict: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.deficits


def check_proximity(C: Cluster) -> ProximityReport:
    # Every point is proximate to its predecessor; the first point of
    # segment a also to the end of segment a - 2, its other points to the
    # end of segment a - 1 (steps 0 and 1 open free).  A point inside a
    # segment is proximate only to its successor, of equal value, so the
    # equality holds there and only segment ends need checking.
    # sums[j] collects what is proximate to the last point of segment j;
    # the extra slot at index -1 takes the root's missing predecessor.
    sums = [0] * (len(C.runs) + 1)
    tail = -1  # the segment holding the last point so far
    for j, (v, h, a) in enumerate(zip(C.runs, C.counts, C.steps)):
        if a == 0:
            ends: list[int | None] = [None, None]
        if h:
            sums[tail] += v
            if ends[a] is not None:
                sums[ends[a]] += v
            if ends[a + 1] is not None:
                sums[ends[a + 1]] += (h - 1) * v
            tail = j
        ends.append(tail)
    deficits: list[int] = []
    strict: list[int] = []
    last = -1
    for v, h, total in zip(C.runs, C.counts, sums):
        last += h
        if h and v < total:
            deficits.append(last)
        elif h and v > total:
            strict.append(last)
    return ProximityReport(tuple(deficits), tuple(strict))


def render(C: Cluster, fmt: str = "text") -> str:
    """Render a cluster as a plain-text listing or a DOT digraph.

    Text: one line per point with label, valuation, kind, and the
    proximity targets of satellites.  DOT: chain edges carry a
    curved=true attribute exactly when the child is free (the classical
    drawing convention); second proximities appear as dotted edges.
    Both outputs are deterministic.  A cluster of more than
    MAX_RENDER_POINTS points raises ValueError.
    """
    # sum, not len: len() refuses a size above sys.maxsize
    size = sum(C.counts)
    if size > MAX_RENDER_POINTS:
        raise ValueError(
            f"{C.eqclass} has {_int_text(size)} cluster points; rendering stops at "
            f"{MAX_RENDER_POINTS}"
        )
    values, rows, seconds, spans = _points(C)
    labels: list[str] = []
    for k, (start, end) in enumerate(spans, 1):
        for i in range(start, end):
            if i == start or rows[i] != rows[i - 1]:
                position = 0
            position += 1
            labels.append(f"{k}.{rows[i]}.{position}")
    if fmt == "text":
        lines = [f"cluster of {C.eqclass} with {size} points"]
        for i, (label, second) in enumerate(zip(labels, seconds)):
            if second is None:
                lines.append(f"{label}  v={values[i]}  free")
            else:
                lines.append(
                    f"{label}  v={values[i]}  satellite  "
                    f"prox({labels[i - 1]}, {labels[second]})"
                )
        return "\n".join(lines) + "\n"
    if fmt == "dot":
        lines = ["digraph enriques {", "  rankdir=LR;", '  node [shape=circle];']
        for i, label in enumerate(labels):
            lines.append(f'  n{i} [label="{label}\\nv={values[i]}"];')
        for i, second in enumerate(seconds):
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
