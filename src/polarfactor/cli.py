"""Command-line surface: decompose, enriques, matrix, verify, scan.

Class input uses the grammar "n:m1,m2,..." everywhere.  Exit codes:
0 success, 1 a verification found a mismatch, 2 invalid input or an
output holding an integer past CPython's int-to-string digit limit.
JSON output is deterministic (insertion-ordered keys, indent 2) and
round-trips byte-identically through json.loads/json.dumps.  One writer,
_json, formats it: the same text as json.dumps(payload, indent=2), made
by joining strings in one recursive pass.  With an indent, CPython's json
runs its pure-Python generator encoder, which took half or more of a
`decompose --json` request for a class with many branches.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Iterator, Sequence, TextIO

from . import __version__, cluster, eqclass
from .classify import scan
from .cluster import polar_cluster, render, singularity_cluster
from .decompose import PolarBranch, PolarDecomposition, decompose
from .eqclass import EqClass, InvalidClassError, TheoremViolation, validate
from .intersect import intersection_report, verify_classes
from .oracle_series import verify_class

__all__ = ["main", "parse_class_spec"]


def parse_class_spec(text: str) -> EqClass:
    """Parse 'n:m1,m2,...' into a validated class."""
    head, sep, tail = text.partition(":")
    try:
        if not sep:
            raise ValueError
        n = int(head)
        ms = [int(x) for x in tail.split(",")]
    except ValueError as exc:
        if str(exc).startswith("Exceeds the limit"):  # CPython's digit limit
            raise _too_long("class spec") from None
        raise InvalidClassError(
            f"malformed class spec {text!r}: expected 'n:m1,m2,...'"
        ) from None
    return validate(n, ms)


def _too_long(what: str) -> InvalidClassError:
    limit = sys.get_int_max_str_digits()
    return InvalidClassError(
        f"{what} has an integer of more than {limit} digits "
        f"(sys.get_int_max_str_digits() = {limit})"
    )


def _write(file: TextIO, make: Callable[[], str]) -> None:
    """Format a whole output, then write it at once.  Formatting only
    converts integers to text, so its ValueError is an integer past the
    digit limit, and nothing is written."""
    try:
        text = make()
    except ValueError:
        raise _too_long("the output") from None
    file.write(text)


def _json(x: object, indent: str = "\n") -> str:
    """json.dumps(x, indent=2) for dicts with str keys, lists, strs and
    ints (type int exactly); anything else raises TypeError.  An int
    prints through int.__repr__, as in json, so one past the digit limit
    raises ValueError.  Int leaves, most of a payload, are formatted in
    their container's join, without a call."""
    inner = indent + "  "
    if type(x) is dict:
        items = [
            encode_basestring_ascii(k) + ": "
            + (int.__repr__(v) if type(v) is int else _json(v, inner))
            for k, v in x.items()
        ]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if x else "{}"
    if type(x) is list:
        items = [int.__repr__(v) if type(v) is int else _json(v, inner) for v in x]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if x else "[]"
    if type(x) is int:
        return int.__repr__(x)
    if type(x) is str:
        return encode_basestring_ascii(x)
    raise TypeError(f"{type(x).__name__} is not written as JSON")


def _class_payload(E: EqClass) -> dict:
    return {
        "multiplicity": E.multiplicity,
        "exponents": list(E.exponents),
        "gcds": list(E.gcds),
        "descents": list(E.descents),
        "genus": E.genus,
        "semigroup": list(E.semigroup),
        "conductor": E.conductor,
    }


def _numbered(types: Iterable[PolarBranch]) -> Iterator[tuple[PolarBranch, int]]:
    """Each branch type once per copy, with its copy number 1..copies.
    The copies cannot be told apart; only the listings number them."""
    return ((t, j) for t in types for j in range(1, t.copies + 1))


def _branch_payload(b: PolarBranch, copy: int) -> dict:
    return {
        "package": b.package,
        "depth": b.depth,
        "copy": copy,
        "p": b.p,
        "q": b.q,
        "case": b.case,
        "multiplicity": b.multiplicity,
        "genus": b.genus,
        "exponents": list(b.exponents),
        "canonical": (
            [b.canonical.multiplicity, *b.canonical.exponents]
            if b.canonical is not None
            else [1]
        ),
    }


def _intersections_payload(E: EqClass) -> dict:
    """The report's values per branch, numbered as _numbered lists the
    copies of each type."""
    rep = intersection_report(E)
    type_of = [g for g, t in enumerate(rep.types) for _ in range(t.copies)]
    pairs = [
        {"a": a, "b": c, "value": rep.matrix[g][type_of[c]]}
        for a, g in enumerate(type_of)
        for c in range(a + 1, len(type_of))
    ]
    return {
        "pairs": pairs,
        "with_curve": [rep.with_curve[g] for g in type_of],
        "total": rep.total,
    }


def _decompose_payload(E: EqClass) -> dict:
    return {
        "class": _class_payload(E),
        "packages": [
            {
                "index": pkg.index,
                "multiplicity": pkg.multiplicity,
                "polar_quotient": {"num": q.numerator, "den": q.denominator},
                "branches": [_branch_payload(b, j) for b, j in _numbered(pkg.types)],
            }
            for pkg in decompose(E).packages
            for q in [eqclass.polar_quotient(E, pkg.index)]
        ],
        "intersections": _intersections_payload(E),
    }


def _decomposition_text(
    E: EqClass, D: PolarDecomposition, quotients: list, inter: dict, matrix_only: bool
) -> str:
    names = [f"[{b.package},{b.depth},{j}]" for b, j in _numbered(D.types())]
    lines = []
    if not matrix_only:
        lines.append(
            f"{E}  multiplicity {E.multiplicity}  genus {E.genus}  "
            f"conductor {E.conductor}"
        )
        for pkg, q in zip(D.packages, quotients):
            lines.append(
                f"package {pkg.index}: multiplicity {pkg.multiplicity}, "
                f"polar quotient {q}, "
                f"{sum(t.copies for t in pkg.types)} branch(es)"
            )
            for b, j in _numbered(pkg.types):
                body = str(b.canonical) if b.canonical is not None else "smooth"
                lines.append(
                    f"  xi[{b.package},{b.depth},{j}]  {body}  "
                    f"(p,q)=({b.p},{b.q})  raw {b.exponents}  "
                    f"mult {b.multiplicity}  genus {b.genus}"
                )
    for pair in inter["pairs"]:
        lines.append(f"I({names[pair['a']]}, {names[pair['b']]}) = {pair['value']}")
    with_curve = ", ".join(
        f"{name}: {val}" for name, val in zip(names, inter["with_curve"])
    )
    lines.append(f"with curve: {with_curve}")
    lines.append(
        f"total curve-polar intersection = {inter['total']} "
        f"(milnor {E.milnor} + multiplicity {E.multiplicity} - 1)"
    )
    return "\n".join(lines) + "\n"


def _cmd_decompose(args: argparse.Namespace) -> int:
    E = parse_class_spec(args.cls)
    D = decompose(E)
    size = sum(t.copies for t in D.types())
    pairs = size * (size - 1) // 2
    if pairs > cluster.MAX_RENDER_POINTS:
        _write(sys.stderr, lambda: (
            f"error: {E} has {pairs} branch pairs; listing stops at "
            f"{cluster.MAX_RENDER_POINTS}\n"
        ))
        return 2
    # compute the whole response first; _write only formats it
    if args.json:
        payload = (
            _intersections_payload(E)
            if args.matrix_only
            else _decompose_payload(E)
        )
        _write(sys.stdout, lambda: _json(payload) + "\n")
    else:
        quotients = [eqclass.polar_quotient(E, pkg.index) for pkg in D.packages]
        inter = _intersections_payload(E)
        _write(
            sys.stdout,
            lambda: _decomposition_text(E, D, quotients, inter, args.matrix_only),
        )
    return 0


def _cmd_enriques(args: argparse.Namespace) -> int:
    E = parse_class_spec(args.cls)
    C = polar_cluster(E) if args.polar else singularity_cluster(E)
    try:
        text = render(C, "dot" if args.dot else "text")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(text, end="")
    return 0


def _cmd_verify_cluster(args: argparse.Namespace) -> int:
    def progress(done: int) -> None:
        print(f"  ... {done} classes checked", file=sys.stderr)

    report = verify_classes(args.max_n, args.max_m, args.genus, progress)
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_verify_series(args: argparse.Namespace) -> int:
    E = parse_class_spec(args.cls)
    try:
        report = verify_class(E, seed=args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.summary())
    return 0 if report.matched else 1


def _cmd_scan(args: argparse.Namespace) -> int:
    genus = args.genus
    if args.predicate == "smooth":
        genus = 1 if genus is None else min(1, genus)
    hits = scan(args.max_n, args.max_m, genus)
    if args.json:
        payload = {
            "predicate": args.predicate,
            "hits": [
                {
                    "class": hit.eqclass.notation(),
                    "lambda": hit.lam,
                    "max_branch_genus": hit.max_genus_of_branches,
                }
                for hit in hits
            ],
        }
        print(_json(payload))
    else:
        for hit in hits:
            print(
                f"{hit.eqclass.notation()}\t{hit.lam}\t{hit.max_genus_of_branches}"
            )
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later
    ``main`` call in the process (parsing does not change it)."""
    parser = argparse.ArgumentParser(
        prog="polarfactor",
        description=(
            "Equisingularity-type factorization of the general polar "
            "curve of an irreducible plane curve singularity."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dec = sub.add_parser(
        "decompose",
        help="packages, branches, quotients and all intersection numbers",
    )
    dec.add_argument("cls", metavar="CLASS", help="class as 'n:m1,m2,...'")
    group = dec.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true", help="JSON output")
    group.add_argument("--text", action="store_true", help="text output (default)")
    dec.add_argument(
        "--matrix-only",
        action="store_true",
        help="emit only the intersection data",
    )
    dec.set_defaults(func=_cmd_decompose)

    mat = sub.add_parser("matrix", help="alias for decompose --matrix-only")
    mat.add_argument("cls", metavar="CLASS")
    group = mat.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true")
    group.add_argument("--text", action="store_true")
    mat.set_defaults(func=_cmd_decompose, matrix_only=True)

    enr = sub.add_parser("enriques", help="cluster diagram of the curve or polar")
    enr.add_argument("cls", metavar="CLASS")
    enr.add_argument(
        "--polar",
        action="store_true",
        help="show the polar's valuations (default: the curve's)",
    )
    group = enr.add_mutually_exclusive_group()
    group.add_argument("--dot", action="store_true", help="DOT graph output")
    group.add_argument("--text", action="store_true", help="text output (default)")
    enr.set_defaults(func=_cmd_enriques)

    ver = sub.add_parser("verify", help="run one of the verification oracles")
    vsub = ver.add_subparsers(dest="mode", required=True)
    vc = vsub.add_parser(
        "cluster",
        help="exhaustive closed-form vs Noether-oracle sweep over a bound",
    )
    vc.add_argument("--max-n", type=int, required=True)
    vc.add_argument("--max-m", type=int, default=60, help="bound on m_r (default 60)")
    vc.add_argument("--genus", type=int, default=None)
    vc.set_defaults(func=_cmd_verify_cluster)
    vs = vsub.add_parser("series", help="symbolic check of one class")
    vs.add_argument("cls", metavar="CLASS")
    vs.add_argument("--seed", type=int, default=None)
    vs.set_defaults(func=_cmd_verify_series)

    sc = sub.add_parser("scan", help="classes whose polar branches drop genus")
    sc.add_argument("predicate", choices=("genus-drop", "smooth"))
    sc.add_argument("--max-n", type=int, required=True)
    sc.add_argument("--max-m", type=int, required=True)
    sc.add_argument("--genus", type=int, default=None)
    sc.add_argument("--json", action="store_true", help="JSON instead of TSV")
    sc.set_defaults(func=_cmd_scan)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvalidClassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TheoremViolation as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
