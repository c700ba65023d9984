"""One measured pass of a workload; run.py starts it in a fresh process.

    python3 bench/worker.py WORKLOAD SEED SIZE TRACE [SPANS_PATH]

prints one JSON object describing the pass.  A fresh process per pass
means the package's lru_caches start empty and ru_maxrss belongs to this
pass alone.  Items run in a closed loop with one client: the next item
starts when the previous one has returned and been checked.  A failed
check or an exception is counted and the pass goes on.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402  (the benchmark's own module, no polarfactor import)

# Standard modules that polarfactor also uses (json, re, io, ...) are
# imported inside functions, so that setup_s pays for them as part of
# importing the package.

DEFAULT_SEED = 1

# Box of the sweep workload and its totals, recorded at the commit that
# introduced this benchmark.  A sweep that covers less or more is wrong.
SWEEP_BOX = {"full": (16, 60), "tiny": (6, 20)}
SWEEP_FROZEN = {
    "full": {"classes": 4676, "branches": 15260, "pairs": 21348, "points": 69569,
             "scan_hits": 3532},
    "tiny": {"classes": 90, "branches": 184, "pairs": 132, "points": 658,
             "scan_hits": 62},
}

SCAN_BATCH = 25

COUNTS = ("cluster.points", "decompose.branches", "intersect.pairs",
          "oracle_series.match_ratio", "cli.output_bytes")

GOLDEN = BENCH / "golden" / "query.json"
MAX_PROBLEMS = 5


class Pass:
    """Tally of one pass: items attempted, failures, per-item latencies."""

    def __init__(self) -> None:
        self.items = 0
        self.failed = 0
        self.latencies_ms: list[float] = []
        self.problems: list[str] = []
        # per-layer counts, each 0 where the workload does not reach the layer
        self.counts: dict[str, float] = dict.fromkeys(COUNTS, 0)

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(what)


def _sweep(pf, size: str, tally: Pass) -> None:
    box, frozen = SWEEP_BOX[size], SWEEP_FROZEN[size]
    tally.items = frozen["classes"]
    try:
        report = pf.verify_classes(*box)
    except Exception as exc:
        tally.fail(f"verify_classes{box} raised {exc!r}", frozen["classes"])
        return
    if not report.ok:
        tally.fail(report.summary(), sum(report.failures.values()))
    hits = 0
    try:
        last = time.perf_counter()
        # Latency of the sweep is the wait for each batch of streamed scan rows.
        for _ in pf.scan(*box):
            hits += 1
            if hits % SCAN_BATCH == 0:
                now = time.perf_counter()
                tally.latencies_ms.append((now - last) * 1e3)
                last = now
    except Exception as exc:
        tally.fail(f"scan{box} raised {exc!r}")
    seen = {"classes": report.classes, "branches": report.branches,
            "pairs": report.pairs, "points": report.points, "scan_hits": hits}
    for key, want in frozen.items():
        if seen[key] != want:
            tally.fail(f"sweep {key} = {seen[key]}, frozen value {want}")
    tally.counts.update(_counts(report.points, report.branches, report.pairs))


def _timed(tally: Pass, label: str, call):
    """Run one item and record its latency; an exception is a failure (None)."""
    tally.items += 1
    start = time.perf_counter()
    try:
        return call()
    except Exception as exc:
        tally.fail(f"{label} raised {exc!r}")
        return None
    finally:
        tally.latencies_ms.append((time.perf_counter() - start) * 1e3)


def _large(pf, classes, tally: Pass) -> None:
    for (n, ms), E in classes:
        def item():
            rep = pf.intersection_report(E)
            polar = pf.polar_cluster(E)
            return rep, polar, pf.check_proximity(polar)

        out = _timed(tally, inputs.notation(n, ms), item)
        if out is None:
            continue
        rep, polar, prox = out
        want = inputs.expected_total(n, ms)
        if rep.total != want or len(polar) != inputs.cluster_points(n, ms) or not prox.ok:
            tally.fail(f"{inputs.notation(n, ms)}: total {rep.total} (want {want}), "
                       f"{len(polar)} points, proximity ok {prox.ok}")


def _series(pf, classes, seed: int, tally: Pass) -> None:
    matched = attempts = 0
    for i, ((n, ms), E) in enumerate(classes):
        rep = _timed(tally, inputs.notation(n, ms),
                     lambda: pf.verify_class(E, seed=seed * 1000 + i))
        if rep is None:
            continue
        matched += rep.matched
        attempts += rep.attempts
        want = inputs.expected_total(n, ms)
        if not rep.matched or rep.observed != want:
            tally.fail(f"{inputs.notation(n, ms)}: observed {rep.observed} (want {want}), "
                       f"matched {rep.matched}")
    tally.counts["oracle_series.match_ratio"] = matched / attempts if attempts else 0.0


def check_response(argv: list[str], code, out: str, n: int, ms: tuple[int, ...]) -> str | None:
    """What is wrong with one CLI response, or None when it is right."""
    import json
    import re

    if code != 0:
        return f"exit code {code}"
    if argv[0] == "enriques":
        points = out.count("[label=") if "--dot" in argv else int(
            re.match(r"cluster of \S+ with (\d+) points", out).group(1))
        want = inputs.cluster_points(n, ms)
        return None if points == want else f"{points} cluster points, want {want}"
    if "--json" in argv:
        total = json.loads(out)["intersections"]["total"]
    else:
        total = int(re.search(r"total curve-polar intersection = (\d+)", out).group(1))
    want = inputs.expected_total(n, ms)
    return None if total == want else f"total {total}, want {want}"


def response_digest(code, out: str) -> str:
    import hashlib

    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()[:16]


def load_golden(size: str) -> list[str]:
    import json

    return json.loads(GOLDEN.read_text())[size]


def record_golden() -> None:
    """Rewrite golden/query.json from the current program's responses to the
    default-seed streams.  Run only at a commit whose CLI output is trusted:
    PYTHONPATH=src python3 -c "import sys; sys.path.insert(0, 'bench'); import worker; worker.record_golden()"
    """
    import io
    import json
    from contextlib import redirect_stdout

    from polarfactor import cli

    golden = {}
    for size in ("full", "tiny"):
        digests = []
        for argv in inputs.query_requests(inputs.query_stream(DEFAULT_SEED, size)):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli.main(argv)
            digests.append(response_digest(code, buf.getvalue()))
        golden[size] = digests
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"seed": DEFAULT_SEED, **golden}, indent=0) + "\n")


def _query(pf, requests, classes, golden: list[str] | None, tally: Pass) -> None:
    import io
    from contextlib import redirect_stdout

    cli = sys.modules["polarfactor.cli"]
    out_bytes = 0
    for i, (argv, ((n, ms), _)) in enumerate(zip(requests, classes)):
        tally.items += 1
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(buf):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = repr(exc)
        tally.latencies_ms.append((time.perf_counter() - start) * 1e3)
        out = buf.getvalue()
        out_bytes += len(out.encode())
        try:
            problem = check_response(argv, code, out, n, ms)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            problem = f"unreadable output ({exc!r})"
        if problem is None and golden is not None and response_digest(code, out) != golden[i]:
            problem = "response differs from the recorded golden"
        if problem is not None:
            tally.fail(f"{' '.join(argv)}: {problem}")
    tally.counts["cli.output_bytes"] = out_bytes


def _layer_metrics(tracing) -> dict:
    import tracer as tr

    calls = tracing.call_counts()
    self_s = tracing.self_times()
    layers = {name: {"calls": calls[name], "self_s": self_s[name]} for name in calls}
    ratios = {}
    absent = list(tracing.absent)
    for name in tr.CACHED:
        info = getattr(tr.lookup(name), "cache_info", None)
        if info is None:
            absent.append(f"{name}.cache_hit_ratio")
            continue
        ci = info()
        lookups = ci.hits + ci.misses
        ratios[f"{name}.cache_hit_ratio"] = ci.hits / lookups if lookups else 0.0
    return {"layers": layers, "cache_hit_ratio": ratios, "absent": absent}


def _counts(points: int, branches: int, pairs: int) -> dict[str, int]:
    return {"cluster.points": points, "decompose.branches": branches, "intersect.pairs": pairs}


def _answer_counts(classes) -> dict[str, int]:
    branches = [inputs.polar_branches(n, ms) for (n, ms), _ in classes]
    return _counts(sum(inputs.cluster_points(n, ms) for (n, ms), _ in classes),
                   sum(branches), sum(b * (b - 1) // 2 for b in branches))


def run_pass(workload: str, seed: int, size: str = "full", trace: bool = False,
             spans_path: str | None = None, golden: list[str] | None = None) -> dict:
    """Run one pass in this process and return its tally as a dict.

    Inputs are generated before the clock starts; setup_s then covers
    importing polarfactor and validating the input classes.  ``golden``
    overrides the recorded query digests (used only with the default seed).
    """
    if workload == "query":
        specs = inputs.query_stream(seed, size)
        requests = inputs.query_requests(specs)
        if golden is None and seed == DEFAULT_SEED:
            golden = load_golden(size)
    elif workload in ("large", "series"):
        specs = (inputs.large_classes if workload == "large" else inputs.series_classes)(seed, size)
    elif workload != "sweep":
        raise ValueError(f"unknown workload {workload!r}")

    t0 = time.perf_counter()
    import polarfactor as pf
    import polarfactor.cli  # noqa: F401  (the query path; traced in every workload)

    if workload == "sweep":
        classes = []
    else:
        distinct = {spec: pf.validate(spec[0], list(spec[1])) for spec in specs}
        classes = [(spec, distinct[spec]) for spec in specs]
    setup_s = time.perf_counter() - t0

    tracing = None
    if trace:
        import tracer

        tracing = tracer.Tracer()
        tracing.install()

    tally = Pass()
    start = time.perf_counter()
    if workload == "sweep":
        _sweep(pf, size, tally)
    elif workload == "large":
        _large(pf, classes, tally)
    elif workload == "series":
        _series(pf, classes, seed, tally)
    else:
        _query(pf, requests, classes, golden, tally)
    wall_s = time.perf_counter() - start

    import resource

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "items": tally.items,
        "failed": tally.failed,
        "latencies_ms": tally.latencies_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "problems": tally.problems,
    }
    if tracing is not None:
        tracing.uninstall()
        result.update(_layer_metrics(tracing))
        if workload != "sweep":
            tally.counts.update(_answer_counts(classes))
        result["counts"] = tally.counts
        if spans_path:
            tracing.write_spans(spans_path)
    return result


def main(argv: list[str]) -> int:
    import json

    workload, seed, size, trace = argv[:4]
    spans_path = argv[4] if len(argv) > 4 else None
    result = run_pass(workload, int(seed), size, trace == "1", spans_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
