"""Command-line surface: subcommands, exit codes, JSON stability."""

import hashlib
import io
import json
import re
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from polarfactor import __version__, cli, cluster
from polarfactor.classify import ScanHit
from polarfactor.cli import build_parser, main, parse_class_spec
from polarfactor.cluster import singularity_cluster
from polarfactor.eqclass import (
    InvalidClassError,
    TheoremViolation,
    enumerate_classes,
    validate,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_class_spec():
    assert parse_class_spec("8:12,14,15") == validate(8, [12, 14, 15])
    assert parse_class_spec("2:3") == validate(2, [3])
    for bad in ("8", "8:", ":12", "8:12;14", "8-12", "a:b"):
        with pytest.raises(InvalidClassError, match="malformed class spec"):
            parse_class_spec(bad)


def test_decompose_json_worked_example(capsys):
    code, out, _ = run(capsys, "decompose", "8:12,14,15", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["class"] == {
        "multiplicity": 8,
        "exponents": [12, 14, 15],
        "gcds": [8, 4, 2, 1],
        "descents": [2, 2, 2],
        "genus": 3,
        "semigroup": [8, 12, 26, 53],
        "conductor": 84,
    }
    assert [p["multiplicity"] for p in doc["packages"]] == [1, 2, 4]
    assert [p["polar_quotient"] for p in doc["packages"]] == [
        {"num": 12, "den": 1},
        {"num": 13, "den": 1},
        {"num": 53, "den": 4},
    ]
    smooth, second, third = (p["branches"][0] for p in doc["packages"])
    assert smooth["canonical"] == [1] and smooth["genus"] == 0
    assert second["canonical"] == [2, 3] and second["exponents"] == [2, 3, 4]
    assert third["canonical"] == [4, 6, 7]
    assert doc["intersections"]["pairs"] == [
        {"a": 0, "b": 1, "value": 3},
        {"a": 0, "b": 2, "value": 6},
        {"a": 1, "b": 2, "value": 13},
    ]
    assert doc["intersections"]["with_curve"] == [12, 26, 53]
    assert doc["intersections"]["total"] == 91


def test_decompose_json_round_trips_byte_identically(capsys):
    for spec in ("8:12,14,15", "2:3", "10:15,22"):
        _, out, _ = run(capsys, "decompose", spec, "--json")
        assert json.dumps(json.loads(out), indent=2) + "\n" == out


def test_decompose_text_output(capsys):
    code, out, _ = run(capsys, "decompose", "8:12,14,15")
    assert code == 0
    assert out.splitlines()[0].startswith("K(8;12,14,15)")
    assert "package 3: multiplicity 4, polar quotient 53/4" in out
    assert "I([1,1,1], [2,1,1]) = 3" in out
    assert "total curve-polar intersection = 91" in out


def test_text_listings_number_the_copies(capsys):
    # K(4;7)'s polar is one smooth branch type with 3 copies; only the
    # CLI numbers them
    code, out, _ = run(capsys, "decompose", "4:7")
    assert code == 0
    for j in (1, 2, 3):
        assert f"  xi[1,1,{j}]  smooth  (p,q)=(1,2)  raw (1, 2)" in out
    code, out, _ = run(capsys, "matrix", "4:7")
    assert code == 0
    assert out.splitlines() == [
        "I([1,1,1], [1,1,2]) = 2",
        "I([1,1,1], [1,1,3]) = 2",
        "I([1,1,2], [1,1,3]) = 2",
        "with curve: [1,1,1]: 7, [1,1,2]: 7, [1,1,3]: 7",
        "total curve-polar intersection = 21 (milnor 18 + multiplicity 4 - 1)",
    ]


def test_invalid_class_exits_2_with_named_invariant(capsys):
    code, out, err = run(capsys, "decompose", "4:6,8")
    assert code == 2
    assert out == ""
    assert "e1 divides m2" in err

    code, _, err = run(capsys, "decompose", "not-a-class")
    assert code == 2 and "malformed class spec" in err


def test_matrix_alias_matches_matrix_only(capsys):
    _, direct, _ = run(capsys, "decompose", "8:12,14,15", "--matrix-only", "--json")
    _, alias, _ = run(capsys, "matrix", "8:12,14,15", "--json")
    assert direct == alias
    doc = json.loads(alias)
    assert set(doc) == {"pairs", "with_curve", "total"}

    _, text, _ = run(capsys, "matrix", "8:12,14,15")
    assert text.startswith("I([1,1,1], [2,1,1]) = 3")


def test_enriques_text_and_polar(capsys):
    code, out, _ = run(capsys, "enriques", "2:3")
    assert code == 0
    assert out == (
        "cluster of K(2;3) with 3 points\n"
        "1.0.1  v=2  free\n"
        "1.1.1  v=1  free\n"
        "1.1.2  v=1  satellite  prox(1.1.1, 1.0.1)\n"
    )
    _, polar, _ = run(capsys, "enriques", "2:3", "--polar")
    assert "1.0.1  v=1" in polar and "1.1.2  v=0" in polar
    with pytest.raises(SystemExit) as exc:
        run(capsys, "enriques", "2:3", "--which", "polar")
    assert exc.value.code == 2 and "--which" in capsys.readouterr().err


def test_a_large_exponent_is_answered_from_its_rows(capsys):
    # 2:1000000001 has 500000002 cluster points on three runs: decompose
    # works on the runs, and enriques refuses to list the points.
    code, out, _ = run(capsys, "decompose", "2:1000000001", "--json")
    assert code == 0
    assert json.loads(out)["intersections"]["total"] == 1000000001  # mu + n - 1
    C = singularity_cluster(validate(2, [1000000001]))
    assert C.counts == (500000000, 1, 1) and len(C) == 500000002
    for extra in ((), ("--polar", "--dot")):
        code, out, err = run(capsys, "enriques", "2:1000000001", *extra)
        assert code == 2 and out == ""
        assert err.startswith("error: K(2;1000000001) has 500000002 cluster points")


def test_pair_listings_refuse_above_the_bound(capsys, monkeypatch):
    # K(5;9) has 4 polar branches, so 6 pairs; the pair listing shares
    # the point listing's bound and is refused before it is built.
    # K(8;12,14,15) has 3 branches, so 3 pairs, within the lower bound.
    # K(10^6 + 1; 2*10^6 + 1) is one type with 10^6 copies, so its pairs
    # are counted from decompose without building a branch per copy.
    for argv in (("matrix", "1000001:2000001"), ("decompose", "1000001:2000001")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == (
            "error: K(1000001;2000001) has 499999500000 branch pairs; "
            "listing stops at 100000\n"
        )
    commands = [
        ("decompose", "5:9"),
        ("decompose", "5:9", "--json"),
        ("matrix", "5:9"),
        ("matrix", "5:9", "--json"),
    ]
    monkeypatch.setattr(cluster, "MAX_RENDER_POINTS", 6)
    for argv in commands:
        code, out, _ = run(capsys, *argv)
        assert code == 0 and "36" in out  # the total, mu + n - 1
    monkeypatch.setattr(cluster, "MAX_RENDER_POINTS", 5)
    for argv in commands:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: K(5;9) has 6 branch pairs; listing stops at 5\n"
    code, out, _ = run(capsys, "matrix", "8:12,14,15")
    assert code == 0 and "total curve-polar intersection = 91" in out


@pytest.mark.parametrize("flags", [(), ("--polar",), ("--dot",)])
def test_enriques_refuses_a_cluster_past_sys_maxsize(capsys, flags):
    # K(2; 2^64 + 1) has 2^63 + 2 points, more than len() can return
    code, out, err = run(capsys, "enriques", f"2:{2**64 + 1}", *flags)
    assert code == 2 and out == ""
    assert err.endswith("cluster points; rendering stops at 100000\n")


@pytest.fixture
def digit_limit():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield "more than 4300 digits (sys.get_int_max_str_digits() = 4300)"
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize(
    "argv",
    [("decompose",), ("decompose", "--json"), ("matrix",), ("matrix", "--json")],
)
def test_an_output_past_the_digit_limit_is_refused(capsys, digit_limit, argv):
    # every input integer parses, but the total and the semigroup do not print
    spec = f"1000000007:{10**4299 + 1}"
    code, out, err = run(capsys, argv[0], spec, *argv[1:])
    assert code == 2 and out == ""
    assert err == f"error: the output has an integer of {digit_limit}\n"


def test_a_pair_count_past_the_digit_limit_is_refused(capsys, digit_limit):
    # 10^4000 - 1 smooth branches: the refusal's own pair count is too long
    n = 10**4000
    code, out, err = run(capsys, "decompose", f"{n}:{2 * n - 1}")
    assert code == 2 and out == ""
    assert err == f"error: the output has an integer of {digit_limit}\n"


def test_a_spec_integer_past_the_digit_limit_is_named(capsys, digit_limit):
    code, out, err = run(capsys, "decompose", "2:1" + "0" * 4299 + "1")
    assert code == 2 and out == ""
    assert err == f"error: class spec has an integer of {digit_limit}\n"


def test_an_output_within_the_digit_limit_is_answered(capsys, digit_limit):
    E = validate(3, [10**4000 + 1])
    code, out, _ = run(capsys, "decompose", E.notation(), "--json")
    assert code == 0
    total = json.loads(out)["intersections"]["total"]
    assert total == E.milnor + E.multiplicity - 1 and len(str(total)) == 4001


@st.composite
def class_specs(draw):
    """(n, [m1, ...]) of a valid class of genus g <= 8 with n <= 2^64.
    With e_k = d_{k+1}*...*d_g, m_k = m_{k-1} + e_{k-1}*x + e_k keeps
    gcd(e_{k-1}, m_k) = e_k (m_0 = n).  An exponent has up to 4310
    digits, often close to the 4300-digit limit, so that some outputs
    and a few exponents pass it."""
    g = draw(st.integers(1, 8))
    descents = draw(st.lists(st.integers(2, 2 ** (64 // g)), min_size=g, max_size=g))
    n = 1
    for d in descents:
        n *= d
    e, m, ms = n, n, []
    for d in descents:
        digits = draw(st.integers(0, 4310) | st.integers(4280, 4302))
        x = draw(st.integers(0, 10 ** max(0, digits - len(str(e)))))
        m += e * x + e // d
        e //= d
        ms.append(m)
    return n, ms


CLI_COMMANDS = (
    "decompose {}",
    "decompose {} --json",
    "matrix {} --json",
    "enriques {}",
    "enriques {} --polar --dot",
    "verify series {}",
)


def spec_text(n, ms):
    """The class spec 'n:m1,...', also when an integer passes the digit
    limit."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return f"{n}:{','.join(map(str, ms))}"
    finally:
        sys.set_int_max_str_digits(old)


@settings(
    derandomize=True, max_examples=120, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(class_specs())
def test_the_cli_answers_or_refuses_every_class(digit_limit, case):
    # never a traceback: exit 0, or exit 2 with an error line, in time
    spec = spec_text(*case)
    too_long = max(map(len, re.split("[:,]", spec))) > 4300
    if not too_long:
        validate(*case)
    for command in CLI_COMMANDS:
        argv = [spec if word == "{}" else word for word in command.split()]
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert time.perf_counter() - start < 10, command
        assert code in (0, 2), (command, err.getvalue())
        if code == 2:
            assert err.getvalue().startswith("error: ") and out.getvalue() == ""
        if too_long:
            assert err.getvalue() == f"error: class spec has an integer of {digit_limit}\n"


def test_decompose_json_is_byte_identical_over_the_sweep_box(capsys):
    # Copy indices, pair order, with_curve and totals of every class in
    # the (16, 60) box, as one digest of the concatenated JSON output.
    digest = hashlib.sha256()
    for E in enumerate_classes(16, 60):
        code, out, _ = run(capsys, "decompose", E.notation(), "--json")
        assert code == 0
        digest.update(out.encode())
    assert digest.hexdigest() == (
        "f18df1d95180d0e840f84666ee06e3585d6fac61b54614e58502b8aab9ec4011"
    )


def test_enriques_dot(capsys):
    code, out, _ = run(capsys, "enriques", "8:12,14,15", "--dot")
    assert code == 0
    assert out.startswith("digraph enriques {")
    assert out.count("->") == 9  # 6 chain edges + 3 proximity edges


def test_verify_series_subcommand(capsys):
    code, out, _ = run(capsys, "verify", "series", "4:6,7", "--seed", "7")
    assert code == 0
    assert "match" in out and "19" in out

    code, _, err = run(capsys, "verify", "series", "4:6,8")
    assert code == 2 and "e1 divides m2" in err

    code, _, err = run(capsys, "verify", "series", "10:21")
    assert code == 2 and "desk-scale" in err

    with pytest.raises(SystemExit) as exc:
        run(capsys, "verify", "series", "4:6,7", "--retries", "1")
    assert exc.value.code == 2 and "--retries" in capsys.readouterr().err


def test_verify_cluster_subcommand(capsys):
    code, out, _ = run(capsys, "verify", "cluster", "--max-n", "5", "--max-m", "25")
    assert code == 0
    assert out.startswith("all checks passed")
    code, out, _ = run(
        capsys, "verify", "cluster", "--max-n", "6", "--max-m", "20", "--genus", "0"
    )
    assert code == 0
    assert out.startswith("all checks passed: 0 classes")


def test_scan_tsv_and_json(capsys):
    code, out, _ = run(capsys, "scan", "smooth", "--max-n", "4", "--max-m", "9")
    assert code == 0
    assert out.splitlines() == [
        "2:3\t2\t0",
        "2:5\t3\t0",
        "2:7\t4\t0",
        "2:9\t5\t0",
        "3:5\t2\t0",
        "3:8\t3\t0",
        "4:7\t2\t0",
    ]
    code, out, _ = run(
        capsys, "scan", "smooth", "--max-n", "4", "--max-m", "9", "--genus", "0"
    )
    assert code == 0 and out == ""
    with pytest.raises(SystemExit) as exc:
        run(capsys, "scan", "tangent", "--max-n", "4", "--max-m", "9")
    assert exc.value.code == 2 and "invalid choice" in capsys.readouterr().err
    code, out, _ = run(
        capsys, "scan", "genus-drop", "--max-n", "8", "--max-m", "20", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["predicate"] == "genus-drop"
    assert {"class": "8:12,14,15", "lambda": 1, "max_branch_genus": 2} in doc["hits"]


def test_scan_prints_each_row_as_it_is_found(capsys, monkeypatch):
    # a failure after the first hit: that hit's row is out, then the failure
    def failing(*args):
        yield ScanHit(validate(2, [3]), 2, 0)
        raise TheoremViolation("injected")

    monkeypatch.setattr(cli, "scan", failing)
    code, out, err = run(capsys, "scan", "smooth", "--max-n", "4", "--max-m", "9")
    assert (code, out, err) == (1, "2:3\t2\t0\n", "verification failure: injected\n")


def test_version_is_the_project_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"polarfactor {__version__}\n"
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    declared = re.search(r'^version = "([^"]+)"$', pyproject, re.M)[1]
    assert declared == __version__ == "0.1.0"


def test_parser_is_built_once_and_survives_an_error(capsys):
    # the alias's matrix_only default must not leak into decompose either
    requests = (
        ("matrix", "8:12,14,15", "--json"),
        ("decompose", "8:12,14,15", "--json"),
    )
    fresh = []
    for argv in requests:
        build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    build_parser.cache_clear()
    with pytest.raises(SystemExit) as exc:
        main(["decompose"])
    assert exc.value.code == 2 and "required" in capsys.readouterr().err
    assert [run(capsys, *argv) for argv in requests] == fresh
    assert build_parser.cache_info().misses == 1
