"""Named graph families, their published closed forms, and a formula auditor.

The three closed forms for the Steiner Gutman index below circulate in
print.  The star formula is right.  The complete-graph formula carries the
exponent n where the correct count needs k, and the path formula disagrees
with direct computation at every 2 <= k <= n (for P3 at k = 2 it gives 4,
and the index is 6).  audit_formulas recomputes
everything exactly and reports agreement per (family, n, k); the printed
forms are kept verbatim and never silently repaired, with the repaired
complete-graph form exposed separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import List, Optional

from .errors import InvalidFamilyOrder
from .graph import Graph, from_edge_list
from .indices import _require_k, _sums
from .steiner import require_table_order

FAMILIES = ("path", "cycle", "star", "complete", "complete_minus_perfect_matching")


@dataclass(frozen=True)
class FamilySpec:
    family: str
    n: int


def generate(spec: FamilySpec) -> Graph:
    """Build the family member on vertices 0..n-1 in its conventional labeling."""
    family, n = spec.family, spec.n
    if family not in FAMILIES:
        raise InvalidFamilyOrder(f"unknown family {family!r}")
    if n < 1:
        raise InvalidFamilyOrder(f"order must be at least 1, got {n}")
    # the edges are generators, so from_edge_list refuses a large order before reading one
    if family == "path":
        return from_edge_list(n, ((i, i + 1) for i in range(n - 1)))
    if family == "cycle":
        if n < 3:
            raise InvalidFamilyOrder(f"cycles need order >= 3, got {n}")
        return from_edge_list(n, ((i, (i + 1) % n) for i in range(n)))
    if family == "star":
        return from_edge_list(n, ((0, i) for i in range(1, n)))
    if family == "complete":
        return from_edge_list(n, ((i, j) for i in range(n) for j in range(i + 1, n)))
    # complete graph minus the perfect matching {0,1}, {2,3}, ...
    if n < 4 or n % 2:
        raise InvalidFamilyOrder(f"matching removal needs even order >= 4, got {n}")
    return from_edge_list(
        n, ((i, j) for i in range(n) for j in range(i + 1, n) if i % 2 or j != i + 1)
    )


def _check_nk(n: int, k: int) -> None:
    if n < 2:
        raise InvalidFamilyOrder(f"closed forms start at order 2, got {n}")
    _require_k(n, k)


def closed_form_star(n: int, k: int) -> int:
    """Steiner Gutman index of the star on n vertices (agrees with computation)."""
    _check_nk(n, k)
    return (k * n - 2 * k + 1) * comb(n - 1, k - 1)


def closed_form_complete_printed(n: int, k: int) -> int:
    """Complete-graph form as printed; the exponent n overcounts for k < n."""
    _check_nk(n, k)
    return comb(n, k) * (n - 1) ** n * (k - 1)


def closed_form_complete_corrected(n: int, k: int) -> int:
    """Complete-graph form with the exponent repaired to k."""
    _check_nk(n, k)
    return comb(n, k) * (n - 1) ** k * (k - 1)


def closed_form_path_printed(n: int, k: int) -> int:
    """Path form as printed; disagrees with direct computation at every 2 <= k <= n."""
    _check_nk(n, k)
    return 2**k * (k - 1) * comb(n, k + 1)


@dataclass(frozen=True)
class FormulaAudit:
    family: str
    n: int
    k: int
    printed_value: int
    computed_value: int
    agrees: bool


_PRINTED_FORMS = (
    ("star", closed_form_star),
    ("complete", closed_form_complete_printed),
    ("path", closed_form_path_printed),
)


def audit_for_order(n: int) -> List[FormulaAudit]:
    """Audit every printed closed form at one order, all 2 <= k <= n."""
    out: List[FormulaAudit] = []
    graphs = [generate(FamilySpec(family, n)) for family, _ in _PRINTED_FORMS]
    for (family, form), (sgut, _, _) in zip(_PRINTED_FORMS, _sums(graphs, sdd=False)):
        for k in range(2, n + 1):
            printed = form(n, k)
            out.append(FormulaAudit(family, n, k, printed, sgut[k], printed == sgut[k]))
    return out


def audit_formulas(n_max: int) -> List[FormulaAudit]:
    """Audit the printed closed forms for every 2 <= n <= n_max.

    An n_max above the Steiner table cap is refused before any order is audited.
    """
    if n_max < 2:
        raise InvalidFamilyOrder(f"n_max must be at least 2, got {n_max}")
    require_table_order(n_max)
    out: List[FormulaAudit] = []
    for n in range(2, n_max + 1):
        out.extend(audit_for_order(n))
    return out
