"""Tests of the benchmark itself: smoke runs, output checks, tracer.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric_without_errors(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "1", "--seconds", "1",
                     "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    details, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert details["error_rate"] == 0
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m["name"]
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "sweep", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_corrupted_frozen_count_is_an_error_not_a_crash(monkeypatch):
    frozen = dict(worker.SWEEP_FROZEN["tiny"], points=worker.SWEEP_FROZEN["tiny"]["points"] + 1)
    monkeypatch.setitem(worker.SWEEP_FROZEN, "tiny", frozen)
    result = worker.run_pass("sweep", 1, "tiny")
    assert result["failed"] == 1
    assert "points" in result["problems"][0]


def test_corrupted_golden_is_an_error_not_a_crash():
    golden = worker.load_golden("tiny")
    golden[3] = "0" * 16
    result = worker.run_pass("query", worker.DEFAULT_SEED, "tiny", golden=golden)
    assert result["failed"] == 1
    assert "golden" in result["problems"][0]


def test_wrong_expected_total_is_an_error_not_a_crash(monkeypatch):
    monkeypatch.setattr(inputs, "expected_total", lambda n, ms: -1)
    for workload in ("large", "series"):
        result = worker.run_pass(workload, 1, "tiny")
        assert result["failed"] == result["items"] > 0


def test_response_checks():
    check = worker.check_response
    assert check(["matrix", "2:3"], 2, "", 2, (3,)) == "exit code 2"
    assert check(["decompose", "2:3", "--json"], 0, '{"intersections": {"total": 4}}',
                 2, (3,)) == "total 4, want 3"
    assert check(["enriques", "2:3", "--polar"], 0, "cluster of K(2;3) with 3 points\n",
                 2, (3,)) is None


def test_own_formulas_agree_with_the_program():
    import polarfactor as pf

    for E in pf.enumerate_classes(8, 40):
        n, ms = E.multiplicity, E.exponents
        assert inputs.is_valid(n, ms)
        assert inputs.conductor(n, ms) == E.conductor
        assert inputs.cluster_points(n, ms) == len(pf.singularity_cluster(E))
        assert inputs.polar_branches(n, ms) == len(list(pf.decompose(E).branches()))


@pytest.mark.parametrize("make", [inputs.large_classes, inputs.series_classes,
                                  inputs.query_stream])
def test_inputs_depend_only_on_the_seed(make):
    assert make(3, "full") == make(3, "full")
    assert make(3, "full") != make(4, "full")
    assert all(inputs.is_valid(n, ms) for n, ms in make(3, "full"))


def test_tracer_rebinds_every_module_and_restores():
    import polarfactor as pf

    orig = pf.decompose
    t = tracer.Tracer()
    t.install()
    try:
        for mod in ("intersect", "classify", "cli", "oracle_series"):
            assert sys.modules[f"polarfactor.{mod}"].decompose is not orig
        assert pf.decompose.cache_info is not None
        hits = sum(1 for _ in pf.scan(4, 12))
    finally:
        t.uninstall()
    assert pf.decompose is orig and sys.modules["polarfactor.cli"].decompose is orig
    calls = t.call_counts()
    classes = sum(1 for _ in pf.enumerate_classes(4, 12))
    assert calls["classify.scan"] == 1 and hits > 0
    # enumerate_classes runs once inside scan; every next() is one span
    assert calls["eqclass.enumerate_classes"] == 1
    names = [t.names[i] for i in t.span_name]
    assert names.count("eqclass.enumerate_classes") == classes + 1
    assert names.count("classify.scan") == hits + 1
    assert calls["decompose.decompose"] >= classes
    self_s = t.self_times()
    total = sum(e - s for s, e, p in zip(t.span_start, t.span_end, t.span_parent) if p < 0)
    assert sum(self_s.values()) == pytest.approx(total)


def test_tracer_skips_a_missing_name(monkeypatch):
    monkeypatch.setitem(tracer.LAYERS, "decompose", ("decompose", "no_such_function"))
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert t.absent == ["decompose.no_such_function"]
