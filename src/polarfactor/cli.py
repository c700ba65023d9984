"""Command-line surface: decompose, enriques, matrix, verify, scan.

Class input uses the grammar "n:m1,m2,..." everywhere.  Exit codes:
0 success, 1 a verification found a mismatch, 2 invalid input.
JSON output is deterministic (insertion-ordered keys, indent 2) and
round-trips byte-identically through json.loads/json.dumps.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from typing import Iterable, Iterator, Sequence

from . import __version__, cluster, eqclass
from .classify import scan
from .cluster import polar_cluster, render, singularity_cluster
from .decompose import PolarBranch, decompose
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
    except ValueError:
        raise InvalidClassError(
            f"malformed class spec {text!r}: expected 'n:m1,m2,...'"
        ) from None
    return validate(n, ms)


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


def _print_decomposition_text(E: EqClass, matrix_only: bool) -> None:
    D = decompose(E)
    inter = _intersections_payload(E)
    names = [f"[{b.package},{b.depth},{j}]" for b, j in _numbered(D.types())]
    if not matrix_only:
        print(
            f"{E}  multiplicity {E.multiplicity}  genus {E.genus}  "
            f"conductor {E.conductor}"
        )
        for pkg in D.packages:
            print(
                f"package {pkg.index}: multiplicity {pkg.multiplicity}, "
                f"polar quotient {eqclass.polar_quotient(E, pkg.index)}, "
                f"{sum(t.copies for t in pkg.types)} branch(es)"
            )
            for b, j in _numbered(pkg.types):
                body = str(b.canonical) if b.canonical is not None else "smooth"
                print(
                    f"  xi[{b.package},{b.depth},{j}]  {body}  "
                    f"(p,q)=({b.p},{b.q})  raw {b.exponents}  "
                    f"mult {b.multiplicity}  genus {b.genus}"
                )
    for pair in inter["pairs"]:
        print(f"I({names[pair['a']]}, {names[pair['b']]}) = {pair['value']}")
    with_curve = ", ".join(
        f"{name}: {val}" for name, val in zip(names, inter["with_curve"])
    )
    print(f"with curve: {with_curve}")
    print(
        f"total curve-polar intersection = {inter['total']} "
        f"(milnor {E.milnor} + multiplicity {E.multiplicity} - 1)"
    )


def _cmd_decompose(args: argparse.Namespace) -> int:
    E = parse_class_spec(args.cls)
    size = sum(t.copies for t in decompose(E).types())
    pairs = size * (size - 1) // 2
    if pairs > cluster.MAX_RENDER_POINTS:
        print(
            f"error: {E} has {pairs} branch pairs; listing stops at "
            f"{cluster.MAX_RENDER_POINTS}",
            file=sys.stderr,
        )
        return 2
    if args.json:
        payload = (
            _intersections_payload(E)
            if args.matrix_only
            else _decompose_payload(E)
        )
        print(json.dumps(payload, indent=2))
    else:
        _print_decomposition_text(E, args.matrix_only)
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
    hits = list(scan(args.max_n, args.max_m, genus))
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
        print(json.dumps(payload, indent=2))
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
