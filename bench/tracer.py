"""Span tracer that wraps polarfactor's public functions from outside.

Each wrapped call records a span (name, parent span, start, end) in flat
arrays; generator functions get one span per ``next()``.  Self time is a
span's duration minus the time its direct children cover.  Nothing in
the package is edited: the tracer rebinds every module-level name that
refers to a wrapped function, in every ``polarfactor`` module, so calls
between modules go through the wrappers too.  A public name that no
longer exists is reported as absent and skipped.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

PACKAGE = "polarfactor"

# module -> public functions traced as that layer
LAYERS = {
    "arith": ("euclid_expansion", "normalize_even", "convergent", "forced_remainders"),
    "eqclass": ("enumerate_classes", "validate", "canonicalize_exponents",
                "block_expansion", "scaled_polar_quotient"),
    "cluster": ("singularity_cluster", "polar_cluster", "check_proximity",
                "noether_sum", "render"),
    "decompose": ("decompose", "require_member", "branch_trace", "package_summary"),
    "intersect": ("pair_intersection", "branch_vs_curve", "intersection_report",
                  "verify_classes"),
    "classify": ("scan", "max_branch_genus"),
    "oracle_series": ("sample_parametrization", "implicitize",
                      "evaluate_on_parametrization", "polar_poly", "verify_class"),
    "cli": ("main", "parse_class_spec"),
}

# functions whose lru_cache hit ratio is reported
CACHED = ("decompose.decompose", "decompose.branch_trace", "cluster.singularity_cluster")


def layer_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


def lookup(name: str):
    """The function ``module.fn`` of the package, or None when it is gone."""
    mod, fn = name.split(".")
    module = sys.modules.get(f"{PACKAGE}.{mod}")
    return getattr(module, fn, None) if module is not None else None


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.absent: list[str] = []
        self._rebound: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for name in layer_names():
            orig = lookup(name)
            if orig is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, orig)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        self._rebound.append((module, attr, orig))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._rebound):
            setattr(module, attr, orig)
        self._rebound.clear()

    def _open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name: str, orig):
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        calls, open_span, close_span = self.calls, self._open, self._close

        if inspect.isgeneratorfunction(orig):
            def timed(gen):
                while True:
                    idx = open_span(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        close_span(idx)
                    yield item

            def wrapper(*args, **kwargs):
                calls[nid] += 1
                return timed(orig(*args, **kwargs))
        else:
            def wrapper(*args, **kwargs):
                calls[nid] += 1
                idx = open_span(nid)
                try:
                    return orig(*args, **kwargs)
                finally:
                    close_span(idx)

        functools.update_wrapper(wrapper, orig)
        for attr in ("cache_info", "cache_clear"):
            if hasattr(orig, attr):
                setattr(wrapper, attr, getattr(orig, attr))
        return wrapper

    def self_times(self) -> dict[str, float]:
        """Per function: total span time minus the time of child spans."""
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        own = [e - s for s, e in zip(starts, ends)]
        for i, p in enumerate(parents):
            if p >= 0:
                own[p] -= ends[i] - starts[i]
        totals = [0.0] * len(self.names)
        for nid, t in zip(self.span_name, own):
            totals[nid] += t
        return dict(zip(self.names, totals))

    def call_counts(self) -> dict[str, int]:
        return dict(zip(self.names, self.calls))

    def write_spans(self, path) -> None:
        """Tab-separated spans: index, parent index (-1 for a root), name,
        start and end in seconds of time.perf_counter."""
        with open(path, "w") as out:
            out.write("span\tparent\tname\tstart\tend\n")
            for i, (nid, p, s, e) in enumerate(zip(
                self.span_name, self.span_parent, self.span_start, self.span_end
            )):
                out.write(f"{i}\t{p}\t{self.names[nid]}\t{s:.9f}\t{e:.9f}\n")
