"""Seeded workload inputs and the benchmark's own expected values.

Nothing here imports polarfactor: classes are generated, and their
conductor and cluster size derived, by independent code, so an output
check never compares the program with itself.  The same (workload,
seed, size) always yields the same inputs.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from math import gcd

# Series anchors: the four classes the acceptance suite checks with the
# symbolic oracle.  They are part of every series pass.
SERIES_ANCHORS = ((2, (3,)), (5, (7,)), (4, (6, 7)), (8, (12, 14, 15)))

QUERY_COMMANDS = (
    ("decompose", "--json"),
    ("decompose", "--text"),
    ("matrix",),
    ("enriques", "--polar"),
    ("enriques", "--dot"),
)


def notation(n: int, ms: tuple[int, ...]) -> str:
    return f"{n}:{','.join(map(str, ms))}"


def gcd_chain(n: int, ms: tuple[int, ...]) -> list[int]:
    chain = [n]
    for m in ms:
        chain.append(gcd(chain[-1], m))
    return chain


def is_valid(n: int, ms: tuple[int, ...]) -> bool:
    """Characteristic data: increasing, n < m1, every exponent drops the gcd to 1."""
    if n < 2 or not ms or ms[0] <= n:
        return False
    if any(a >= b for a, b in zip(ms, ms[1:])):
        return False
    chain = gcd_chain(n, ms)
    return chain[-1] == 1 and all(a > b for a, b in zip(chain, chain[1:]))


def conductor(n: int, ms: tuple[int, ...]) -> int:
    """Conductor (= Milnor number) from the semigroup generators.

    v0 = n, v1 = m1, v_{k+1} = d_k v_k + m_{k+1} - m_k with d_k = e_{k-1}/e_k,
    and c = sum_k (d_k - 1) v_k - n + 1.
    """
    e = gcd_chain(n, ms)
    d = [e[k - 1] // e[k] for k in range(1, len(e))]
    v = [n, ms[0]]
    for k in range(1, len(ms)):
        v.append(d[k - 1] * v[k] + ms[k] - ms[k - 1])
    return sum((d[k - 1] - 1) * v[k] for k in range(1, len(ms) + 1)) - n + 1


def expected_total(n: int, ms: tuple[int, ...]) -> int:
    """I(f, P(f)) = mu + n - 1."""
    return conductor(n, ms) + n - 1


def _block_quotients(n: int, ms: tuple[int, ...]) -> list[list[int]]:
    """Euclid quotients of (m_k - m_{k-1}) over e_{k-1}, one list per block."""
    e = gcd_chain(n, ms)
    blocks = []
    prev = 0
    for k, m in enumerate(ms, start=1):
        qs = []
        x, y = m - prev, e[k - 1]
        while y:
            q, r = divmod(x, y)
            qs.append(q)
            x, y = y, r
        blocks.append(qs)
        prev = m
    return blocks


def cluster_points(n: int, ms: tuple[int, ...]) -> int:
    """Singular points of the branch: the Euclid quotients of every block summed."""
    return sum(sum(qs) for qs in _block_quotients(n, ms))


def polar_branches(n: int, ms: tuple[int, ...]) -> int:
    """Branches of the generic polar: per block, the even-index quotients
    (from index 2 on) of the quotient list rewritten to an odd length."""
    total = 0
    for qs in _block_quotients(n, ms):
        if len(qs) % 2 == 0:
            qs = qs[:-1] + [qs[-1] - 1, 1]
        total += sum(qs[2::2])
    return total


def _chain_class(
    rng: random.Random, descents: list[int], last_points: int
) -> tuple[int, tuple[int, ...]]:
    """A class with the given descent factors whose last block has
    ``last_points`` points and whose polar has one branch per package.

    With e_{k-1} = d_k e_k the exponents are m_k = m_{k-1} + e_k a_k and
    a_k = j_k d_k + 1, so each gap over e_{k-1} expands as [j_k, d_k]: the
    gcd drops by d_k, the block has j_k + d_k points and one polar branch.
    The seed only picks the small j_k of the earlier blocks, which leaves
    the cost of the class set by its genus and ``last_points``.
    """
    e = [1]
    for d in reversed(descents):
        e.insert(0, e[0] * d)
    ms: list[int] = []
    for k, d in enumerate(descents, start=1):
        if k == len(descents):
            j = last_points - d
        else:
            j = rng.randint(1 if k == 1 else 0, 3)
        ms.append((ms[-1] if ms else 0) + e[k] * (j * d + 1))
    return e[0], tuple(ms)


def _jitter(rng: random.Random, value: float, share: float = 0.02) -> int:
    return max(1, round(value * (1 + rng.uniform(-share, share))))


# Per-size shapes of the large workload: (cluster points, genus) of the
# long classes, multiplicities of the wide polars, points of the towers.
# The long classes climb a ladder from 1e3 to 1.5e5 points, with a block
# of equal mid-size ones so that the median item is one of them.
LARGE_SHAPES = {
    "full": {"long": tuple((round(1_000 * 150 ** (i / 15)), 1 + i % 3) for i in range(16))
                     + ((12_000, 2),) * 9,
             "wide": tuple(range(16, 101, 6)),
             "tower": (5_000, 5_000, 5_000, 20_000, 20_000, 20_000)},
    "tiny": {"long": ((200, 2), (1_000, 1)), "wide": (8, 12), "tower": (100,)},
}


def large_classes(seed: int, size: str) -> list[tuple[int, tuple[int, ...]]]:
    """Long clusters (genus 1-3), wide polars K(n; kn-1) and towers of
    genus 5-7 with n = 2^g.  Sizes, genera and descents are fixed per
    stratum so every seed carries the same amount of work; the seed picks
    the earlier exponents and the exact sizes inside each stratum.
    The order is fixed: the package's caches keep earlier answers alive,
    so the garbage collector's share of an item depends on what ran before."""
    rng = random.Random(f"large:{seed}")
    shapes = LARGE_SHAPES[size]
    out = []
    for i, (target, genus) in enumerate(shapes["long"]):
        descents = [2 + (i + k) % 2 for k in range(genus)]
        out.append(_chain_class(rng, descents, _jitter(rng, target)))
    for n in shapes["wide"]:
        n = n + rng.randint(-1, 1)
        out.append((n, (rng.choice((2, 3, 4)) * n - 1,)))
    for g, target in zip((5, 6, 7) * 2, shapes["tower"]):
        out.append(_chain_class(rng, [2] * g, _jitter(rng, target)))
    for n, ms in out:
        if not is_valid(n, ms):
            raise AssertionError(f"generator produced an invalid class {notation(n, ms)}")
    return out


def _desk_catalog() -> list[tuple[int, tuple[int, ...]]]:
    """Every class with n <= 8 and conductor <= 60, in lexicographic order."""
    out = []

    def extend(n: int, ms: tuple[int, ...], e: int) -> None:
        lo = ms[-1] + 1 if ms else n + 1
        for m in range(lo, 61 + n):
            if m % e == 0:
                continue
            cand = ms + (m,)
            e2 = gcd(e, m)
            if e2 == 1:
                if conductor(n, cand) <= 60:
                    out.append((n, cand))
            else:
                extend(n, cand, e2)

    for n in range(2, 9):
        extend(n, (), n)
    return out


SERIES_DRAWS = {"full": 36, "tiny": 3}


def series_classes(seed: int, size: str) -> list[tuple[int, tuple[int, ...]]]:
    """One class from each of SERIES_DRAWS[size] cost strata of the desk
    catalog, plus the anchors.  The strata are ranked by n * conductor^2,
    which tracks the cost of implicitization and of the order series."""
    rng = random.Random(f"series:{seed}")
    anchors = SERIES_ANCHORS if size == "full" else SERIES_ANCHORS[:1]
    catalog = sorted(_desk_catalog(), key=lambda c: (c[0] * conductor(*c) ** 2, c))
    draws = SERIES_DRAWS[size]
    if size == "tiny":
        catalog = catalog[: len(catalog) // 4]
    out = []
    for s in range(draws):
        lo, hi = s * len(catalog) // draws, (s + 1) * len(catalog) // draws
        out.append(catalog[rng.randrange(lo, hi)])
    out.extend(anchors)
    return out


def _random_box_class(rng: random.Random, n: int, max_m: int) -> tuple[int, tuple[int, ...]]:
    """A class of multiplicity n with m_r <= max_m: m_1 anywhere in the
    box, each later exponent within 2n of the previous one."""
    while True:
        ms: tuple[int, ...] = ()
        e = n
        while e > 1:
            lo = ms[-1] + 1 if ms else n + 1
            hi = min(max_m, lo + 2 * n) if ms else max_m
            choices = [m for m in range(lo, hi + 1) if m % e]
            if not choices:
                break
            m = rng.choice(choices)
            ms += (m,)
            e = gcd(e, m)
        if e == 1:
            return n, ms


QUERY_SIZES = {"full": (400, 1000), "tiny": (10, 30)}


def query_stream(seed: int, size: str) -> list[tuple[int, tuple[int, ...]]]:
    """A Zipf-like stream (exponent 1) over a seeded catalog of distinct
    classes from the box n <= 16, m <= 200.  Rank r is requested with
    probability proportional to 1/r, so popular classes repeat.  The class
    at rank r has n = 2 + r mod 15, so every seed puts the same mix of
    multiplicities at each popularity."""
    rng = random.Random(f"query:{seed}")
    catalog_size, requests = QUERY_SIZES[size]
    catalog: list[tuple[int, tuple[int, ...]]] = []
    seen = set()
    while len(catalog) < catalog_size:
        c = _random_box_class(rng, 2 + len(catalog) % 15, 200)
        if c not in seen:
            seen.add(c)
            catalog.append(c)
    cumulative = []
    acc = 0.0
    for r in range(1, catalog_size + 1):
        acc += 1.0 / r
        cumulative.append(acc)
    return [catalog[bisect_left(cumulative, rng.random() * acc)] for _ in range(requests)]


def query_requests(stream: list[tuple[int, tuple[int, ...]]]) -> list[list[str]]:
    """CLI argument vectors: the stream's classes with the commands rotated."""
    return [
        [QUERY_COMMANDS[i % len(QUERY_COMMANDS)][0], notation(n, ms),
         *QUERY_COMMANDS[i % len(QUERY_COMMANDS)][1:]]
        for i, (n, ms) in enumerate(stream)
    ]
