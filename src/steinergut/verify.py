"""Exhaustive bound verification over all small graphs.

A sweep enumerates every graph matching an EnumerationSpec (connected by
default, optionally complement-connected, deduped by isomorphism or raw
labeled), evaluates the requested bound checks for every admissible k, and
collects violations and equality cases into a VerificationReport.  Which
groups run on a graph is decided once per graph, when its
``bounds.GraphContext`` is built: groups whose preconditions it fails to meet
(too small an order, disconnected complement) are skipped quietly and never
counted as run.

Enumeration is capped at order 8.  Deduped enumeration grows connected
classes only: it builds each level by attaching one new vertex to every
canonical connected graph of the previous level.  A parent's automorphisms
map attachment masks to masks giving isomorphic children, so only the
least mask of each orbit is tried; the orbits are closed over generators
of the group (the optimal orderings of the parent's twin-pruned canonical
search and a transposition per consecutive pair of each twin class), never
over the whole group.  A child is kept only if no non-cut vertex is
smaller than the new vertex by (degree, sorted neighbour degrees), an
isomorphism invariant, so most children that would repeat a class are
dropped before they cost a canon.  Each kept child gets one lex-min canon,
and McKay's canonical-deletion test (``_accepts``) reads that search to
accept each class from exactly one child, with no map of the classes seen.
A disconnected graph has a connected complement, so the disconnected
classes of an order are the canonical forms of the disconnected
complements of its connected level.

A level is held as an ``array('Q')`` of canonical edge masks sorted by
(edge count, edge mask); ``Graph`` objects are built only inside a batch,
or by ``enumerate_graphs`` for its caller.  Levels and sweeps are mapped in
batches of up to ``BATCH`` masks with the caller's ``map`` (the builtin one
in process, or a process pool's, which sends each batch as one task):
``_children`` maps a batch of parents to the canonical masks of their
accepted children, and ``_sweep_batch`` maps a batch of graph masks, whose
Steiner tables it builds in one pass, to its checks run, violations, tight
cases and CSV rows.  Results are joined in input order; a class's canonical
form does not depend on which child found it and a level is sorted, so
neither the map nor the batches change a level or a report.  ``sweep``
writes a batch's CSV rows as the batch comes back, so no check outlives its
batch's text.  Built levels are kept in one cache for the life of the
process, whichever map built them; the formula audit runs once, in the
caller's process.

Labeled enumeration builds one graph per edge bitmask, in ascending order,
so it is capped at order 6 (2^15 masks); order 7 would take 2^21.

Requests are refused before any enumeration: the order by
``_require_order``, each k by the index layer's one k rule,
``indices._require_k`` (``_k_values`` runs it over a spec's k).
"""

from __future__ import annotations

import csv
import io
from array import array
from dataclasses import asdict, dataclass
from functools import partial
from typing import Callable, Dict, IO, List, Optional, Sequence, Tuple, Union

from .bounds import EqualityWitness, GraphContext, expand_bound_ids
from .canon import _search, canonical_graph, relabel_rows
from .errors import Disconnected, NoCaseApplies, OrderTooLarge
from .exact import Scalar, value_str
from .families import FormulaAudit, audit_for_order
from .graph import Graph, _flood, edge_mask, from_edge_mask, is_connected, iter_bits
from .graph6 import graph6_encode
from .indices import OBJECTIVES, _require_k

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
    """The spec's k, sorted and deduplicated; each must lie in 2..n."""
    if spec.k_range == "all":
        return list(range(2, spec.n + 1))
    for k in spec.k_range:
        _require_k(spec.n, k)
    return sorted(set(spec.k_range))


Rows = Tuple[int, ...]


def _generators(parent: Rows) -> List[Tuple[int, ...]]:
    """Permutations that generate the automorphism group of a canonical graph.

    The parent is canonical, so the optimal orderings of its search are
    automorphisms; with a transposition of each consecutive pair of every
    twin class they generate the group, whose other members the search
    pruned.
    """
    _, orderings, classes = _search(parent)
    identity = tuple(range(len(parent)))
    gens = [seq for seq in orderings if seq != identity]
    for cls in classes:
        for a, b in zip(cls, cls[1:]):
            swap = list(identity)
            swap[a], swap[b] = b, a
            gens.append(tuple(swap))
    return gens


def _orbit_minima(gens: Sequence[Tuple[int, ...]], width: int) -> List[int]:
    """The least mask of each orbit, on the non-empty masks below 2^width,
    of the group ``gens`` generate.

    Each generator's images of all masks are tabled once.  Masks are
    visited in ascending order, so the first mask of an orbit met is its
    least; its orbit is then closed over the tables.
    """
    size = 1 << width
    tables = []
    for seq in gens:
        image = [0] * size
        for mask in range(1, size):
            low = mask & -mask
            image[mask] = image[mask ^ low] | 1 << seq[low.bit_length() - 1]
        tables.append(image)
    covered = bytearray(size)
    minima = []
    for mask in range(1, size):
        if covered[mask]:
            continue
        minima.append(mask)
        covered[mask] = 1
        stack = [mask]
        while stack:
            m = stack.pop()
            for image in tables:
                other = image[m]
                if not covered[other]:
                    covered[other] = 1
                    stack.append(other)
    return minima


# Graphs, or enumeration parents, per item of every map: a sweep builds a
# batch's Steiner tables in one pass, a pool sends each batch as one task,
# and the order-8 level has only 853 parents, so a batch must hold far
# fewer than that to keep every worker busy.  A batch's CSV text waits
# whole in memory until it is written.
BATCH = 64


def _batches(items: Sequence) -> List[Sequence]:
    """``items`` cut into consecutive batches of up to ``BATCH``."""
    return [items[i : i + BATCH] for i in range(0, len(items), BATCH)]


# Every connected level built so far, keyed by order: the canonical edge
# masks of its classes sorted by (edge count, edge mask), shared by all
# callers in the process whatever map built the level.
_LEVELS: Dict[int, array] = {}


def _keeps(rows: Rows) -> int:
    """The deletion rule: no non-cut vertex is smaller than the new, last one
    by (degree, sorted degrees of its neighbours).

    A smaller vertex rejects the child only when the rest stays connected
    without it.  The neighbour degrees are compared only between vertices
    of one degree, where they have one length.  A rejected child gives 0, a
    kept one the mask of the vertices that tie the new one (it included),
    which ``_accepts`` reads.
    """
    n = len(rows)
    degs = [r.bit_count() for r in rows]
    d = degs[-1]

    def around(v: int) -> List[int]:
        return sorted([degs[w] for w in iter_bits(rows[v])])

    full = (1 << n) - 1
    ties = 1 << (n - 1)
    new: Optional[List[int]] = None  # the new vertex's, at its first degree tie
    for u in range(n - 1):
        if degs[u] == d:
            if new is None:
                new = around(n - 1)
            mine = around(u)
            if mine == new:
                ties |= 1 << u
            smaller = mine < new
        else:
            smaller = degs[u] < d
        if smaller:
            rest = full ^ 1 << u
            if _flood(rows, rest & -rest, rest) == rest:
                return 0
    return ties


def _accepts(
    rows: Rows,
    ties: int,
    orderings: Sequence[Tuple[int, ...]],
    classes: Sequence[Tuple[int, ...]],
) -> bool:
    """McKay's canonical-deletion test for a child that ``_keeps``: the new,
    last vertex lies in the orbit of c, the first vertex of the first optimal
    ordering that is not a cut vertex and is in ``ties``, the vertices that
    tie the new one by (degree, sorted degrees of its neighbours).

    ``orderings`` and ``classes`` are the child's ``_search``: its optimal
    orderings with each twin class in increasing order, and its twin
    classes.  Every optimal ordering is an automorphism applied to any
    other, so c's canonical position j is the same in all of them, and c's
    orbit is their vertices at j; each optimal ordering the search pruned is
    a returned one with twins permuted, so the orbit is the returned
    orderings' vertices at j and their twins.

    The child passed ``_keeps``, so its new vertex is a non-cut vertex least
    by the rule's order, and c's orbit is an isomorphism invariant of the
    child.  Uniqueness: if children P + v and P' + v' are accepted and
    isomorphic, an isomorphism between them maps the orbit holding v onto
    the one holding v', so after an automorphism of P' + v' it takes v to
    v'.  It restricts to an isomorphism P -> P', and both are canonical, so
    P = P'; it maps one attachment mask to the other by an automorphism of
    P, and each orbit of masks is tried once only, so the two are one
    child.  Completeness: for each class C, C - c is a connected class of
    the order below, and some tried mask of it gives a child isomorphic to
    C by a map taking the new vertex to c.  That vertex passes ``_keeps``,
    and c's orbit in the child holds it, so the child is accepted.
    """
    new = len(rows) - 1
    full = (1 << len(rows)) - 1
    for j, v in enumerate(orderings[0]):
        if v == new:
            return True
        if ties >> v & 1:
            rest = full ^ 1 << v
            if _flood(rows, rest & -rest, rest) == rest:
                break
    twins = next((cls for cls in classes if cls[-1] == new), (new,))
    return any(seq[j] in twins for seq in orderings)


def _children(n: int, parents: Sequence[int]) -> List[int]:
    """A batch of parents' accepted children, as canonical edge masks.

    Each parent comes as the edge mask of a canonical order-(n-1) graph.
    Only the least attachment mask of each orbit of a parent's automorphism
    group is tried, and only the children that ``_keeps`` are canonised.
    """
    top = 1 << (n - 1)
    found: List[int] = []
    for em in parents:
        graph = from_edge_mask(n - 1, em)
        parent = graph.adj
        base = list(parent) + [0]
        for mask in _orbit_minima(_generators(parent), n - 1):
            adj = list(base)
            adj[n - 1] = mask
            for v in iter_bits(mask):
                adj[v] |= top
            rows = tuple(adj)
            ties = _keeps(rows)
            if ties:
                _, orderings, classes = _search(rows)
                if _accepts(rows, ties, orderings, classes):
                    canon = relabel_rows(rows, orderings[0])
                    found.append(edge_mask(Graph(n, canon, graph.m + mask.bit_count())))
    return found


def _in_order(masks: List[int]) -> List[int]:
    """``masks`` sorted in place by (edge count, edge mask), by two stable
    sorts that build no key tuples."""
    masks.sort()
    masks.sort(key=int.bit_count)
    return masks


def _build_level(parents: Sequence[int], n: int, mapper: Callable) -> array:
    """The order-n connected level grown from the order-(n-1) one ``parents``.

    ``mapper`` maps ``_children`` over batches of up to ``BATCH`` parents.
    ``_accepts`` takes each class from exactly one child, so the level is
    the concatenation of the batches' lists, held as an ``array('Q')``
    sorted by (m, edge mask).  A class's canonical mask does not depend on
    which child found it, so neither the map nor the batches can change the
    level.
    """
    masks = [em for found in mapper(partial(_children, n), _batches(parents)) for em in found]
    return array("Q", _in_order(masks))


def _level(n: int, mapper: Callable = map) -> array:
    """The canonical edge masks of the connected order-n classes, cached per level."""
    if n not in _LEVELS:
        _LEVELS[n] = array("Q", [0]) if n == 1 else _build_level(_level(n - 1, mapper), n, mapper)
    return _LEVELS[n]


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


def _masks(spec: EnumerationSpec, mapper: Callable = map) -> Sequence[int]:
    """The edge masks of the graphs ``enumerate_graphs(spec, mapper)``
    returns, in its order; the order is refused before any work."""
    n = spec.n
    _require_order(spec)
    full = (1 << n * (n - 1) // 2) - 1
    masks: Sequence[int]
    if spec.dedup_isomorphism:
        masks = _level(n, mapper)
        if not spec.require_connected:
            apart = (from_edge_mask(n, em ^ full) for em in masks)
            masks = _in_order([*masks, *(edge_mask(canonical_graph(h)) for h in apart
                                         if not is_connected(h))])
    else:
        masks = range(full + 1)
        if spec.require_connected:
            masks = [em for em in masks if is_connected(from_edge_mask(n, em))]
    if spec.require_coconnected:
        masks = [em for em in masks if is_connected(from_edge_mask(n, em ^ full))]
    return masks


def enumerate_graphs(spec: EnumerationSpec, mapper: Callable = map) -> List[Graph]:
    """Materialize the graphs selected by ``spec``, in deterministic order.

    Deduped mode orders canonical representatives by (edge count, edge
    bitmask), and adds to the connected level the canonical forms of its
    disconnected complements when disconnected graphs are admitted; labeled
    mode orders by ascending edge bitmask.  Connected levels not yet cached
    are built with ``mapper`` (the builtin ``map``, or a process pool's
    ``map``), a batch of parents per item; the result does not depend on it.
    """
    return [from_edge_mask(spec.n, em) for em in _masks(spec, mapper)]


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
    ids: Tuple[str, ...], ks: List[int], want_csv: bool, n: int, masks: Sequence[int]
) -> Tuple[int, List[Violation], List[TightCase], str]:
    """A batch of order-n graphs, given by edge masks: checks run,
    violations, tight cases, CSV rows.

    The batch's contexts read their sums from one batched table pass.  The
    rows (bound values in exact notation) are one text, empty unless
    ``want_csv``.  A graph's graph6 name is encoded only when a CSV row,
    a violation or a tight case first needs it.
    """
    checks_run = 0
    violations: List[Violation] = []
    tights: List[TightCase] = []
    text = io.StringIO()
    writerow = csv.writer(text).writerow
    for ctx in GraphContext.batch([from_edge_mask(n, em) for em in masks], ids):
        if not ctx.runs:
            continue
        g = ctx.g
        g6: Optional[str] = None
        witness_cache: Dict[int, EqualityWitness] = {}
        for k in ks:
            for bound_id, case, value, actual, holds, tight in ctx.checks(k):
                checks_run += 1
                if g6 is None and (want_csv or not holds or tight):
                    g6 = graph6_encode(g)
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

    ``graphs``, of order ``spec.n``, overrides enumeration (they reach the
    batches as edge masks); without it, the order, then a spec that admits
    disconnected graphs, then the spec's k are refused before any
    enumeration.  ``mapper`` (the builtin
    ``map``, or a process pool's ``map``) sweeps the graphs in batches of
    up to ``BATCH``, and their results are joined in graph order, so the
    report does not depend on it; enumeration, when needed, uses the same
    map.  With ``csv_out``, each check's row in the ``CSV_HEADER`` layout
    is written there, a batch's rows as that batch comes back.
    """
    ids = tuple(expand_bound_ids(list(bound_set) if bound_set is not None else None))
    if graphs is None:
        _require_sweepable(spec)
    _k_values(spec)
    masks = _masks(spec, mapper) if graphs is None else [edge_mask(g) for g in graphs]
    return _sweep(spec, ids, masks, csv_out, mapper)


def _sweep(
    spec: EnumerationSpec,
    ids: Tuple[str, ...],
    masks: Sequence[int],
    csv_out: Optional[IO[str]],
    mapper: Callable,
) -> VerificationReport:
    """``sweep`` over the order-``spec.n`` graphs with edge masks ``masks``,
    checked bound ids ``ids``; each batch builds its own graphs."""
    checks_run = 0
    violations: List[Violation] = []
    tights: List[TightCase] = []
    for runs, found, tight, rows in mapper(
        partial(_sweep_batch, ids, _k_values(spec), csv_out is not None, spec.n),
        _batches(masks),
    ):
        checks_run += runs
        violations += found
        tights += tight
        if csv_out is not None:
            csv_out.write(rows)
    return VerificationReport(
        spec=spec,
        bound_set=ids,
        graphs_scanned=len(masks),
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
    _require_k(spec.n, k)
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
