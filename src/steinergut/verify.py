"""Exhaustive bound verification over all small graphs.

A sweep enumerates every graph matching an EnumerationSpec (connected by
default, optionally complement-connected, deduped by isomorphism or raw
labeled), evaluates the requested bound checks for every admissible k, and
collects violations and equality cases into a VerificationReport.  Bounds
whose preconditions a graph fails to meet (too small an order, disconnected
complement; see ``bounds.GraphContext.applicable``) are skipped quietly and
never counted as run.

Enumeration is capped at order 8.  Deduped enumeration builds each level by
attaching one new vertex to every canonical graph of the previous level.  A
parent's automorphisms (the optimal orderings of its canonical search) map
attachment masks to masks giving isomorphic children, so only the least mask
of each orbit is tried.  A child is kept only if no vertex that may be
deleted (any vertex, or a non-cut one when only connected graphs are built)
has a smaller degree than the new vertex: every class can be rebuilt from
the deletion of such a least-degree vertex, so none is lost.  Each kept
child gets one lex-min canon, and children are deduped by its key.

A level is built in one pass, mapped over contiguous slices of the parents
with the caller's ``map``: the builtin one in process, or a process pool's.
Each slice returns canonical key -> canonical rows, and the maps are merged
in slice order.  A class's canonical rows do not depend on which child
found it and the level is sorted by (edge count, edge mask), so every
slicing yields the same level.  Built levels are kept in one cache for the
life of the process, whichever map built them.

A sweep is sliced like a level: ``sweep`` maps ``_sweep_slice`` over
contiguous slices of the graphs with the same ``map`` and joins the slices'
check counts, violations, tight cases and check rows in slice order, so
every slicing yields the same report; the formula audit runs once, in the
caller's process.

Labeled enumeration builds one graph per edge bitmask, in ascending order,
so it is capped at order 6 (2^15 masks); order 7 would take 2^21.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Dict, IO, List, Optional, Sequence, Tuple, TypeVar, Union

from .bounds import EqualityWitness, GraphContext, expand_bound_ids
from .canon import Key, canonical_key_and_perms, relabel_rows
from .errors import KOutOfRange, NoCaseApplies, OrderTooLarge
from .exact import Scalar, value_str
from .families import FormulaAudit, audit_for_order
from .graph import Graph, _flood, complement, edge_mask, from_edge_mask, is_connected, iter_bits
from .graph6 import graph6_encode
from .indices import steiner_gutman

ENUMERATION_CAP = 8
LABELED_CAP = 6

T = TypeVar("T")


@dataclass(frozen=True)
class EnumerationSpec:
    """What to enumerate and which k values to sweep."""

    n: int
    require_connected: bool = True
    require_coconnected: bool = False
    dedup_isomorphism: bool = True
    k_range: Union[str, Tuple[int, ...]] = "all"


def _k_values(spec: EnumerationSpec) -> List[int]:
    if spec.k_range == "all":
        return list(range(2, spec.n + 1))
    ks = []
    for k in spec.k_range:
        if not 2 <= k <= spec.n:
            raise KOutOfRange(f"k={k} outside 2..{spec.n}")
        ks.append(k)
    return sorted(set(ks))


def _orbit_minima(auts: Sequence[Tuple[int, ...]], lo: int, width: int) -> List[int]:
    """The least mask of each orbit of ``auts`` on the masks lo..2^width - 1.

    Masks are visited in ascending order, so the first mask of an orbit met
    is its least; its whole orbit is then marked.  ``lo`` is 0 or 1, and the
    empty mask is a one-mask orbit, so the range is a union of orbits.
    """
    covered = bytearray(1 << width)
    minima = []
    for mask in range(lo, 1 << width):
        if covered[mask]:
            continue
        minima.append(mask)
        bits = list(iter_bits(mask))
        for seq in auts:
            image = 0
            for v in bits:
                image |= 1 << seq[v]
            covered[image] = 1
    return minima


Rows = Tuple[int, ...]

# Every level built so far, keyed by (order, connected only); shared by all
# callers in the process whatever map built the level.
_LEVELS: Dict[Tuple[int, bool], Tuple[Graph, ...]] = {}


def _keeps(rows: Rows, connected_only: bool) -> bool:
    """The deletion rule: no deletable vertex has a smaller degree than the new, last one.

    In all-graphs mode every vertex is deletable; in connected mode only the
    non-cut ones are, so a vertex of smaller degree rejects the child only
    when the rest stays connected without it.
    """
    n = len(rows)
    d = rows[-1].bit_count()
    full = (1 << n) - 1
    for u in range(n - 1):
        if rows[u].bit_count() < d:
            if not connected_only:
                return False
            rest = full ^ 1 << u
            if _flood(rows, rest & -rest, rest) == rest:
                return False
    return True


def _level_slice(payload: Tuple[Tuple[Rows, ...], int, bool]) -> Dict[Key, Rows]:
    """One slice of parents: canonical key -> canonical rows of each child kept.

    Each parent's optimal orderings are its automorphisms, because parents
    are canonical; only the least attachment mask of each orbit is tried,
    and only the children that ``_keeps`` are canonised.
    """
    parents, n, connected_only = payload
    top = 1 << (n - 1)
    found: Dict[Key, Rows] = {}
    for parent in parents:
        auts = canonical_key_and_perms(parent)[1]
        base = list(parent) + [0]
        for mask in _orbit_minima(auts, int(connected_only), n - 1):
            adj = list(base)
            adj[n - 1] = mask
            for v in iter_bits(mask):
                adj[v] |= top
            rows = tuple(adj)
            if _keeps(rows, connected_only):
                key, perms = canonical_key_and_perms(rows)
                if key not in found:
                    found[key] = relabel_rows(rows, perms[0])
    return found


def _build_level(
    parents: Sequence[Graph], n: int, connected_only: bool, mapper: Callable, jobs: int
) -> Tuple[Graph, ...]:
    """The order-n classes grown from the order-(n-1) classes ``parents``.

    A class C is rebuilt from C - v, where v is a vertex of least degree
    among those whose deletion leaves a graph of the previous level (the
    non-cut vertices in connected mode, any vertex otherwise).  Some
    orbit-minimum attachment to C - v is the image of N(v) under an
    automorphism of C - v, so it gives a child isomorphic to C whose new
    vertex passes ``_keeps``: no class is lost.

    ``mapper`` maps ``_level_slice`` over ``jobs`` contiguous slices of the
    parents, and the key -> rows maps are merged with ``setdefault``.  The
    canonical rows of a class do not depend on which child found it, and
    the result is sorted by (m, edge mask), so neither the slicing nor the
    merge order can change the output.
    """
    payloads = [
        (tuple(g.adj for g in part), n, connected_only)
        for part in shard_graphs(parents, jobs)
    ]
    seen: Dict[Key, Rows] = {}
    for found in mapper(_level_slice, payloads):
        for key, rows in found.items():
            seen.setdefault(key, rows)
    graphs = [Graph(n, rows, sum(r.bit_count() for r in rows) // 2) for rows in seen.values()]
    return tuple(sorted(graphs, key=lambda g: (g.m, edge_mask(g))))


def _canonical_graphs(
    n: int, connected_only: bool, mapper: Callable = map, jobs: int = 1
) -> Tuple[Graph, ...]:
    """All order-n graphs up to isomorphism, in canonical labeling, cached per level."""
    key = (n, connected_only)
    if key not in _LEVELS:
        if n == 1:
            _LEVELS[key] = (Graph(1, (0,), 0),)
        else:
            parents = _canonical_graphs(n - 1, connected_only, mapper, jobs)
            _LEVELS[key] = _build_level(parents, n, connected_only, mapper, jobs)
    return _LEVELS[key]


def enumerate_graphs(
    spec: EnumerationSpec, mapper: Callable = map, jobs: int = 1
) -> List[Graph]:
    """Materialize the graphs selected by ``spec``, in deterministic order.

    Deduped mode orders canonical representatives by (edge count, edge
    bitmask); labeled mode orders by ascending edge bitmask.  Levels not yet
    cached are built with ``mapper`` (the builtin ``map``, or a process
    pool's ``map``) over ``jobs`` slices; the result does not depend on either.
    """
    n = spec.n
    if not 1 <= n <= ENUMERATION_CAP:
        raise OrderTooLarge(f"enumeration handles orders 1..{ENUMERATION_CAP}, got {n}")
    if not spec.dedup_isomorphism and n > LABELED_CAP:
        raise OrderTooLarge(f"labeled enumeration handles orders 1..{LABELED_CAP}, got {n}")
    if spec.dedup_isomorphism:
        pool: Sequence[Graph] = _canonical_graphs(n, spec.require_connected, mapper, jobs)
    else:
        pool = [from_edge_mask(n, em) for em in range(1 << (n * (n - 1) // 2))]
        if spec.require_connected:
            pool = [g for g in pool if is_connected(g)]
    if spec.require_coconnected:
        pool = [g for g in pool if is_connected(complement(g))]
    return list(pool)


@dataclass(frozen=True)
class Violation:
    graph6: str
    k: int
    bound_id: str
    case_label: str
    bound_value: Scalar
    actual: int


@dataclass(frozen=True)
class TightCase:
    graph6: str
    k: int
    bound_id: str
    case_label: str
    witness: EqualityWitness


@dataclass(frozen=True)
class CheckRow:
    n: int
    graph6: str
    k: int
    bound_id: str
    case_label: str
    bound_value: Scalar
    actual: int
    holds: bool
    tight: bool


@dataclass(frozen=True)
class VerificationReport:
    spec: EnumerationSpec
    bound_set: Tuple[str, ...]
    graphs_scanned: int
    checks_run: int
    violations: Tuple[Violation, ...]
    tight_cases: Tuple[TightCase, ...]
    formula_audit_findings: Tuple[FormulaAudit, ...]
    checks: Tuple[CheckRow, ...]


def _audit_findings(n: int) -> Tuple[FormulaAudit, ...]:
    if n < 2:
        return ()
    return tuple(a for a in audit_for_order(n) if not a.agrees)


def _sweep_slice(
    payload: Tuple[Sequence[Graph], Tuple[str, ...], List[int], bool]
) -> Tuple[int, List[Violation], List[TightCase], List[CheckRow]]:
    """One contiguous slice of graphs: checks run, violations, tight cases, check rows."""
    graphs, ids, ks, collect_checks = payload
    checks_run = 0
    violations: List[Violation] = []
    tights: List[TightCase] = []
    rows: List[CheckRow] = []

    for g in graphs:
        ctx = GraphContext(g)
        runnable = ctx.applicable(ids)[0]
        if not runnable:
            continue
        g6 = graph6_encode(g)
        witness_cache: Dict[int, EqualityWitness] = {}

        for k in ks:
            for check in ctx.checks(k, runnable):
                bound_id, case, value, actual, holds, tight = check
                checks_run += 1
                if collect_checks:
                    rows.append(CheckRow(g.n, g6, k, *check))
                if not holds:
                    violations.append(Violation(g6, k, bound_id, case, value, actual))
                elif tight:
                    if k not in witness_cache:
                        witness_cache[k] = ctx.witness(k)
                    tights.append(TightCase(g6, k, bound_id, case, witness_cache[k]))

    return checks_run, violations, tights, rows


def sweep(
    spec: EnumerationSpec,
    bound_set: Optional[Sequence[str]] = None,
    *,
    graphs: Optional[Sequence[Graph]] = None,
    collect_checks: bool = False,
    mapper: Callable = map,
    jobs: int = 1,
) -> VerificationReport:
    """Run every requested bound check over every enumerated graph.

    ``graphs`` overrides enumeration.  The graphs are cut into ``jobs``
    contiguous slices, each swept by ``mapper`` (the builtin ``map``, or a
    process pool's ``map``), and the slices are joined in order, so the
    report does not depend on either; enumeration, when needed, uses the
    same pair.
    """
    ids = tuple(expand_bound_ids(list(bound_set) if bound_set is not None else None))
    if graphs is None:
        graphs = enumerate_graphs(spec, mapper, jobs)
    ks = _k_values(spec)

    payloads = [(part, ids, ks, collect_checks) for part in shard_graphs(graphs, jobs)]
    runs, violations, tights, rows = zip(*mapper(_sweep_slice, payloads))
    return VerificationReport(
        spec=spec,
        bound_set=ids,
        graphs_scanned=len(graphs),
        checks_run=sum(runs),
        violations=tuple(chain.from_iterable(violations)),
        tight_cases=tuple(chain.from_iterable(tights)),
        formula_audit_findings=_audit_findings(spec.n),
        checks=tuple(chain.from_iterable(rows)),
    )


def shard_graphs(graphs: Sequence[T], jobs: int) -> List[List[T]]:
    """Split into ``jobs`` contiguous slices of near-equal size, order kept.

    Used for graphs and for parents' rows alike.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    total = len(graphs)
    out = []
    start = 0
    for i in range(jobs):
        stop = start + (total - start + (jobs - i - 1)) // (jobs - i)
        out.append(list(graphs[start:stop]))
        start = stop
    return out


OBJECTIVES = ("max-sgut", "min-sgut", "max-sum", "min-sum", "max-product", "min-product")


@dataclass(frozen=True)
class ExtremalResult:
    objective: str
    k: int
    value: int
    graph6s: Tuple[str, ...]


def find_extremal(spec: EnumerationSpec, k: int, objective: str) -> ExtremalResult:
    """Graphs attaining the extreme value of an index quantity, ties kept.

    The sum and product objectives compare a graph with its complement and
    silently restrict to graphs whose complement is connected.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    if not 2 <= k <= spec.n:
        raise KOutOfRange(f"k={k} outside 2..{spec.n}")
    sense, quantity = objective.split("-", 1)
    best: Optional[int] = None
    hits: List[str] = []
    for g in enumerate_graphs(spec):
        ctx = GraphContext(g)
        val = steiner_gutman(g, k, table=ctx.table)
        if quantity != "sgut":
            if not ctx.co_connected:
                continue
            co_val = steiner_gutman(ctx.gbar, k, table=ctx.co_table)
            val = val + co_val if quantity == "sum" else val * co_val
        if best is None or (val > best if sense == "max" else val < best):
            best = val
            hits = [graph6_encode(g)]
        elif val == best:
            hits.append(graph6_encode(g))
    if best is None:
        raise NoCaseApplies(f"no enumerated graph admits the {objective} objective")
    return ExtremalResult(objective, k, best, tuple(hits))


def report_to_dict(report: VerificationReport) -> Dict[str, object]:
    """JSON-ready dict; exact values serialized as "num/den" strings."""
    spec = report.spec
    return {
        "spec": {
            "n": spec.n,
            "require_connected": spec.require_connected,
            "require_coconnected": spec.require_coconnected,
            "dedup_isomorphism": spec.dedup_isomorphism,
            "k_range": "all" if spec.k_range == "all" else list(spec.k_range),
        },
        "bound_set": list(report.bound_set),
        "graphs_scanned": report.graphs_scanned,
        "checks_run": report.checks_run,
        "violations": [
            {
                "graph6": v.graph6,
                "k": v.k,
                "bound_id": v.bound_id,
                "case_label": v.case_label,
                "bound_value": value_str(v.bound_value),
                "actual": v.actual,
            }
            for v in report.violations
        ],
        "tight_cases": [
            {
                "graph6": t.graph6,
                "k": t.k,
                "bound_id": t.bound_id,
                "case_label": t.case_label,
                "witness": t.witness.as_dict(),
            }
            for t in report.tight_cases
        ],
        "formula_audit_findings": [
            {
                "family": a.family,
                "n": a.n,
                "k": a.k,
                "printed_value": a.printed_value,
                "computed_value": a.computed_value,
                "agrees": a.agrees,
            }
            for a in report.formula_audit_findings
        ],
    }


CSV_HEADER = ("n", "graph6", "k", "bound_id", "case_label", "bound_value", "actual", "holds", "tight")


def write_checks_csv(rows: Sequence[CheckRow], stream: IO[str]) -> None:
    """One line per executed check; bound values in exact notation."""
    writer = csv.writer(stream)
    writer.writerow(CSV_HEADER)
    for r in rows:
        writer.writerow(
            (
                r.n, r.graph6, r.k, r.bound_id, r.case_label,
                value_str(r.bound_value), r.actual, int(r.holds), int(r.tight),
            )
        )
