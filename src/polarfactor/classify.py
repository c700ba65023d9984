"""Genus classification of polar branches, with executable scans.

Two facts about the branches of a general polar, each exposed as a
closed-form predicate and as the constructive computation it is
supposed to summarize, so scans can run both and compare:

  genus drop    every polar branch has genus <= r - 1; happens exactly
                when m_r = m_{r-1} + lambda*e_{r-1} - 1 for some
                lambda >= 1.
  smooth polar  (genus-1 classes) every polar branch is smooth; happens
                exactly when m = lambda*n - 1, the genus-drop condition
                read at r = 1, so its scan is the genus-drop scan capped
                at genus 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .decompose import decompose
from .eqclass import EqClass, TheoremViolation, enumerate_classes

__all__ = [
    "ScanHit",
    "genus_drop_lambda",
    "max_branch_genus",
    "scan",
]


def max_branch_genus(E: EqClass) -> int:
    return max(t.genus for t in decompose(E).types())


def genus_drop_lambda(E: EqClass) -> int | None:
    """The witness lambda = (m_r - m_{r-1} + 1)/e_{r-1}, None if no drop."""
    gap = E.exponents[-1] - E.exponent(E.genus - 1) + 1
    lam, rem = divmod(gap, E.gcds[E.genus - 1])
    return lam if rem == 0 else None


@dataclass(frozen=True)
class ScanHit:
    """One class satisfying a scan predicate, with its witness."""

    eqclass: EqClass
    lam: int
    max_genus_of_branches: int


def scan(
    max_n: int, max_last_exponent: int, max_genus: int | None = None
) -> Iterator[ScanHit]:
    """Scan all classes in bounds and yield the genus-drop hits.

    A hit is a class whose polar branches all stay below the class
    genus; at max_genus 1 the hits are exactly the all-smooth polars.
    For every scanned class — hit or not — the closed-form verdict is
    compared with the constructive one (max branch genus over the actual
    decomposition); a mismatch raises TheoremViolation, so a completed
    scan is itself a proof of the characterization over the bounds.
    """
    for E in enumerate_classes(max_n, max_last_exponent, max_genus):
        lam = genus_drop_lambda(E)
        formula = lam is not None
        constructive = max_branch_genus(E)
        if formula != (constructive <= E.genus - 1):
            raise TheoremViolation(
                f"{E}: closed-form verdict {formula} but max branch genus "
                f"is {constructive} (genus {E.genus})"
            )
        if lam is not None:
            yield ScanHit(E, lam, constructive)
