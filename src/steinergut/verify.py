"""Exhaustive bound verification over all small graphs.

A sweep enumerates every graph matching an EnumerationSpec (connected by
default, optionally complement-connected, deduped by isomorphism or raw
labeled), evaluates the requested bound checks for every admissible k, and
collects violations and equality cases into a VerificationReport.  Which
groups run on a graph is decided once per graph, when its
``bounds.GraphContext`` is built: groups whose preconditions it fails to meet
(too small an order, disconnected complement) are skipped quietly and never
counted as run.

Enumeration is capped at order 8.  Deduped enumeration builds each level by
attaching one new vertex to every canonical graph of the previous level.  A
parent's automorphisms (the optimal orderings of its canonical search) map
attachment masks to masks giving isomorphic children, so only the least mask
of each orbit is tried.  A child is kept only if no vertex that may be
deleted (any vertex, or a non-cut one when only connected graphs are built)
is smaller than the new vertex by (degree, sorted neighbour degrees), an
isomorphism invariant: every class can be rebuilt from the deletion of a
least such vertex, so none is lost, and most duplicate children are dropped
before they cost a canon.  Each kept child gets one lex-min canon, and
children are deduped by its key.

Levels and sweeps are mapped in batches of up to ``BATCH`` items with the
caller's ``map`` (the builtin one in process, or a process pool's, which
sends each batch as one task): ``_children`` maps a batch of parents to
canonical key -> canonical rows of their kept children, and
``_sweep_batch`` maps a batch of graphs, whose Steiner tables it builds in
one pass, to its checks run, violations, tight cases and CSV rows.  Results
are merged in input order; a class's canonical rows do not depend on which
child found it and a level is sorted by (edge count, edge mask), so neither
the map nor the batches change a level or a report.  ``sweep`` writes a
batch's CSV rows as the batch comes back, so no check outlives its batch's
text.  Built levels are kept in one cache for the life of the process,
whichever map built them; the formula audit runs once, in the caller's
process.

Labeled enumeration builds one graph per edge bitmask, in ascending order,
so it is capped at order 6 (2^15 masks); order 7 would take 2^21.
"""

from __future__ import annotations

import csv
import io
from dataclasses import asdict, dataclass
from functools import partial
from typing import Callable, Dict, IO, List, Optional, Sequence, Tuple, Union

from .bounds import EqualityWitness, GraphContext, expand_bound_ids
from .canon import Key, canonical_key_and_perms, relabel_rows
from .errors import Disconnected, KOutOfRange, NoCaseApplies, OrderTooLarge
from .exact import Scalar, value_str
from .families import FormulaAudit, audit_for_order
from .graph import Graph, _flood, complement, edge_mask, from_edge_mask, is_connected, iter_bits
from .graph6 import graph6_encode
from .indices import OBJECTIVES

ENUMERATION_CAP = 8
LABELED_CAP = 6


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

# Graphs, or enumeration parents, per item of every map: a sweep builds a
# batch's Steiner tables in one pass, a pool sends each batch as one task,
# and the order-8 level has only 853 parents, so a batch must hold far
# fewer than that to keep every worker busy.  A batch's CSV text waits
# whole in memory until it is written.
BATCH = 64


def _batches(items: Sequence) -> List[Sequence]:
    """``items`` cut into consecutive batches of up to ``BATCH``."""
    return [items[i : i + BATCH] for i in range(0, len(items), BATCH)]


# Every level built so far, keyed by (order, connected only); shared by all
# callers in the process whatever map built the level.
_LEVELS: Dict[Tuple[int, bool], Tuple[Graph, ...]] = {}


def _keeps(rows: Rows, connected_only: bool) -> bool:
    """The deletion rule: no deletable vertex is smaller than the new, last one
    by (degree, sorted degrees of its neighbours).

    In all-graphs mode every vertex is deletable; in connected mode only the
    non-cut ones are, so a smaller vertex rejects the child only when the
    rest stays connected without it.  The neighbour degrees are compared
    only between vertices of one degree, where they have one length.
    """
    n = len(rows)
    degs = [r.bit_count() for r in rows]
    d = degs[-1]

    def around(v: int) -> List[int]:
        return sorted([degs[w] for w in iter_bits(rows[v])])

    full = (1 << n) - 1
    for u in range(n - 1):
        if degs[u] < d or degs[u] == d and around(u) < around(n - 1):
            if not connected_only:
                return False
            rest = full ^ 1 << u
            if _flood(rows, rest & -rest, rest) == rest:
                return False
    return True


def _children(n: int, connected_only: bool, parents: Sequence[Rows]) -> Dict[Key, Rows]:
    """A batch of parents' kept children: canonical key -> canonical rows.

    The parents' optimal orderings are their automorphisms, because parents
    are canonical; only the least attachment mask of each orbit is tried,
    and only the children that ``_keeps`` are canonised.
    """
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
    parents: Sequence[Graph], n: int, connected_only: bool, mapper: Callable
) -> Tuple[Graph, ...]:
    """The order-n classes grown from the order-(n-1) classes ``parents``.

    A class C is rebuilt from C - v, where v is a vertex least by (degree,
    sorted neighbour degrees) among those whose deletion leaves a graph of
    the previous level (the non-cut vertices in connected mode, any vertex
    otherwise).  Some orbit-minimum attachment to C - v is the image of N(v)
    under an automorphism of C - v, so it gives a child isomorphic to C by
    a map taking the new vertex to v; the rule's key is an isomorphism
    invariant, so that vertex passes ``_keeps``: no class is lost.

    ``mapper`` maps ``_children`` over batches of up to ``BATCH`` parents,
    and the key -> rows maps are merged with ``setdefault``.  The canonical
    rows of a class do not depend on which child found it, and the result
    is sorted by (m, edge mask), so neither the map, the batches nor the
    merge order can change the output.
    """
    seen: Dict[Key, Rows] = {}
    batches = _batches([g.adj for g in parents])
    for found in mapper(partial(_children, n, connected_only), batches):
        for key, rows in found.items():
            seen.setdefault(key, rows)
    graphs = [Graph(n, rows, sum(r.bit_count() for r in rows) // 2) for rows in seen.values()]
    return tuple(sorted(graphs, key=lambda g: (g.m, edge_mask(g))))


def _canonical_graphs(n: int, connected_only: bool, mapper: Callable = map) -> Tuple[Graph, ...]:
    """All order-n graphs up to isomorphism, in canonical labeling, cached per level."""
    key = (n, connected_only)
    if key not in _LEVELS:
        if n == 1:
            _LEVELS[key] = (Graph(1, (0,), 0),)
        else:
            parents = _canonical_graphs(n - 1, connected_only, mapper)
            _LEVELS[key] = _build_level(parents, n, connected_only, mapper)
    return _LEVELS[key]


def _require_order(spec: EnumerationSpec) -> None:
    """Refuse an order that enumeration does not handle, before any work."""
    if not 1 <= spec.n <= ENUMERATION_CAP:
        raise OrderTooLarge(f"enumeration handles orders 1..{ENUMERATION_CAP}, got {spec.n}")
    if not spec.dedup_isomorphism and spec.n > LABELED_CAP:
        raise OrderTooLarge(f"labeled enumeration handles orders 1..{LABELED_CAP}, got {spec.n}")


def _require_sweepable(spec: EnumerationSpec) -> None:
    """Refuse an order enumeration does not handle, then disconnected graphs,
    which no index or bound is defined for, before any enumeration."""
    _require_order(spec)
    if not spec.require_connected:
        raise Disconnected("sweeps and extremal searches need require_connected=True")


def enumerate_graphs(spec: EnumerationSpec, mapper: Callable = map) -> List[Graph]:
    """Materialize the graphs selected by ``spec``, in deterministic order.

    Deduped mode orders canonical representatives by (edge count, edge
    bitmask); labeled mode orders by ascending edge bitmask.  Levels not yet
    cached are built with ``mapper`` (the builtin ``map``, or a process
    pool's ``map``), a batch of parents per item; the result does not
    depend on it.
    """
    n = spec.n
    _require_order(spec)
    if spec.dedup_isomorphism:
        pool: Sequence[Graph] = _canonical_graphs(n, spec.require_connected, mapper)
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
class VerificationReport:
    spec: EnumerationSpec
    bound_set: Tuple[str, ...]
    graphs_scanned: int
    checks_run: int
    violations: Tuple[Violation, ...]
    tight_cases: Tuple[TightCase, ...]
    formula_audit_findings: Tuple[FormulaAudit, ...]


def _audit_findings(n: int) -> Tuple[FormulaAudit, ...]:
    if n < 2:
        return ()
    return tuple(a for a in audit_for_order(n) if not a.agrees)


# The per-check CSV's columns; ``_sweep_batch`` renders its rows in this layout.
CSV_HEADER = (
    "n", "graph6", "k", "bound_id", "case_label", "bound_value", "actual", "holds", "tight"
)


def _sweep_batch(
    ids: Tuple[str, ...], ks: List[int], want_csv: bool, graphs: Sequence[Graph]
) -> Tuple[int, List[Violation], List[TightCase], str]:
    """A batch of graphs: checks run, violations, tight cases, CSV rows.

    The batch's contexts read their sums from one batched table pass.  The
    rows (bound values in exact notation) are one text, empty unless
    ``want_csv``.
    """
    checks_run = 0
    violations: List[Violation] = []
    tights: List[TightCase] = []
    text = io.StringIO()
    writerow = csv.writer(text).writerow
    for ctx in GraphContext.batch(graphs, ids):
        if not ctx.runs:
            continue
        g = ctx.g
        g6 = graph6_encode(g)
        witness_cache: Dict[int, EqualityWitness] = {}
        for k in ks:
            for bound_id, case, value, actual, holds, tight in ctx.checks(k):
                checks_run += 1
                if want_csv:
                    writerow((g.n, g6, k, bound_id, case, value_str(value),
                              actual, int(holds), int(tight)))
                if not holds:
                    violations.append(Violation(g6, k, bound_id, case, value, actual))
                elif tight:
                    if k not in witness_cache:
                        witness_cache[k] = ctx.witness(k)
                    tights.append(TightCase(g6, k, bound_id, case, witness_cache[k]))

    return checks_run, violations, tights, text.getvalue()


def sweep(
    spec: EnumerationSpec,
    bound_set: Optional[Sequence[str]] = None,
    *,
    graphs: Optional[Sequence[Graph]] = None,
    csv_out: Optional[IO[str]] = None,
    mapper: Callable = map,
) -> VerificationReport:
    """Run every requested bound check over every enumerated graph.

    ``graphs``, of order ``spec.n``, overrides enumeration; without it,
    the order, then a spec that admits disconnected graphs, then the
    spec's k are refused before any enumeration.  ``mapper`` (the builtin
    ``map``, or a process pool's ``map``) sweeps the graphs in batches of
    up to ``BATCH``, and their results are joined in graph order, so the
    report does not depend on it; enumeration, when needed, uses the same
    map.  With ``csv_out``, each check's row in the ``CSV_HEADER`` layout
    is written there, a batch's rows as that batch comes back.
    """
    ids = tuple(expand_bound_ids(list(bound_set) if bound_set is not None else None))
    if graphs is None:
        _require_sweepable(spec)
    ks = _k_values(spec)
    if graphs is None:
        graphs = enumerate_graphs(spec, mapper)

    checks_run = 0
    violations: List[Violation] = []
    tights: List[TightCase] = []
    for runs, found, tight, rows in mapper(
        partial(_sweep_batch, ids, ks, csv_out is not None), _batches(graphs)
    ):
        checks_run += runs
        violations += found
        tights += tight
        if csv_out is not None:
            csv_out.write(rows)
    return VerificationReport(
        spec=spec,
        bound_set=ids,
        graphs_scanned=len(graphs),
        checks_run=checks_run,
        violations=tuple(violations),
        tight_cases=tuple(tights),
        formula_audit_findings=_audit_findings(spec.n),
    )


@dataclass(frozen=True)
class ExtremalResult:
    objective: str
    k: int
    value: int
    graph6s: Tuple[str, ...]


def find_extremal(spec: EnumerationSpec, k: int, objective: str) -> ExtremalResult:
    """Graphs attaining the extreme value of an index quantity, ties kept.

    The sum and product objectives compare a graph with its complement and
    silently restrict to graphs whose complement is connected.  The order is
    checked first, then connectivity, then k, all before any enumeration.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    _require_sweepable(spec)
    if not 2 <= k <= spec.n:
        raise KOutOfRange(f"k={k} outside 2..{spec.n}")
    sense, quantity = objective.split("-", 1)
    best: Optional[int] = None
    hits: List[str] = []
    for g in enumerate_graphs(spec):
        ctx = GraphContext(g)
        val = ctx.sums.sgut[k]
        if quantity != "sgut":
            if not ctx.co_connected:
                continue
            co_val = ctx.co_sums.sgut[k]
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
    return {
        "spec": asdict(report.spec),
        "bound_set": list(report.bound_set),
        "graphs_scanned": report.graphs_scanned,
        "checks_run": report.checks_run,
        "violations": [
            {**asdict(v), "bound_value": value_str(v.bound_value)} for v in report.violations
        ],
        "tight_cases": [asdict(t) for t in report.tight_cases],
        "formula_audit_findings": [asdict(a) for a in report.formula_audit_findings],
    }
