"""Command line front end.

Subcommands:

  compute         index values for graphs from a file or stdin
  bounds          evaluate bound checks for given graphs
  family          emit a member of a named parametric family
  verify          exhaustive bound sweep over all small graphs
  audit-formulas  compare printed family closed forms against computed values
  extremal        graphs attaining an extreme index value

Exit codes: 0 clean, 1 usage or input errors, 2 completed but found bound
violations (verify, bounds) or formula disagreements (audit-formulas).

Exact values are printed as "num/den" strings (denominator omitted when 1)
or "sqrt(num/den)" for the one square-root bound; --decimal adds a truncated
decimal convenience column next to them.

Only what ``compute`` runs is imported with this module.  Every other
subcommand imports its layers (bounds, verify, families, exact) in its own
handler, and the process pool class is imported on first use (see
``__getattr__``), so a ``compute`` query never pays for them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import ExitStack, contextmanager, nullcontext
from typing import IO, List, Optional, Tuple

from .errors import SteinerGutError
from .graph import Graph, from_edge_list, is_connected
from .graph6 import graph6_decode, graph6_encode
from .indices import OBJECTIVES, _guard, _sums, gutman
from .steiner import require_table_order

INDEX_NAMES = ("sgut", "sw", "sdd", "gut")

# Most worker processes `verify --jobs` may start; the pool lives for the whole run.
MAX_JOBS = 64

# CLI family names to library family identifiers
FAMILY_NAMES = {
    "path": "path",
    "cycle": "cycle",
    "star": "star",
    "complete": "complete",
    "kn-minus-matching": "complete_minus_perfect_matching",
}


def __getattr__(name: str):
    """``ProcessPoolExecutor``, imported when first read: only ``verify --jobs N > 1`` needs it.

    Once read, or rebound by a caller, it is a plain module global, and that
    binding is the one ``verify`` opens its pool with.
    """
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor

    globals()[name] = ProcessPoolExecutor
    return ProcessPoolExecutor


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; remap that to 1."""

    def error(self, message):
        raise _UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="steinergut", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_graph_input(p):
        p.add_argument("--graph", required=True, metavar="FILE",
                       help="input file, or - for stdin")
        p.add_argument("--format", choices=("g6", "edgelist"), default="g6",
                       help="g6: one graph6 string per line (batch); edgelist: "
                            "'u v' lines for a single graph, optional leading "
                            "line with the vertex count")

    p = sub.add_parser("compute", help="index values for given graphs")
    add_graph_input(p)
    p.add_argument("--k", default="all", help="group size, an integer or 'all' (default)")
    p.add_argument("--indices", default="sgut,sw,sdd,gut",
                   help="comma list from sgut,sw,sdd,gut")
    p.add_argument("--out", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("bounds", help="evaluate bound checks for given graphs")
    add_graph_input(p)
    p.add_argument("--k", default="all", help="group size, an integer or 'all' (default)")
    p.add_argument("--set", dest="bound_set", default="all",
                   help="comma list of bound ids or group names (default all)")
    p.add_argument("--out", choices=("json", "csv"), default="json")
    p.add_argument("--decimal", type=int, default=None, metavar="DIGITS",
                   help="also render bound values as truncated decimals")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("family", help="emit a member of a parametric family")
    p.add_argument("--name", required=True, choices=sorted(FAMILY_NAMES))
    p.add_argument("--n", required=True, type=int, help="number of vertices")
    p.add_argument("--emit", choices=("g6", "edgelist"), default="g6")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("verify", help="exhaustive bound sweep over small graphs")
    p.add_argument("--n-max", required=True, type=int)
    p.add_argument("--k", default="all", help="group size, an integer or 'all' (default)")
    p.add_argument("--set", dest="bound_set", default="all",
                   help="comma list of bound ids or group names (default all)")
    dd = p.add_mutually_exclusive_group()
    dd.add_argument("--dedup", action="store_true", default=True,
                    help="sweep isomorphism classes (the default)")
    dd.add_argument("--labeled", dest="dedup", action="store_false",
                    help="sweep labeled graphs instead")
    p.add_argument("--coconnected", action="store_true",
                   help="only graphs whose complement is also connected")
    p.add_argument("--out", default="-", metavar="FILE",
                   help="write the JSON report here (default stdout)")
    p.add_argument("--csv", default=None, metavar="FILE",
                   help="also write one CSV row per executed check (- for stdout)")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("audit-formulas",
                       help="compare printed family closed forms with computed values")
    p.add_argument("--n-max", required=True, type=int)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("extremal", help="graphs attaining an extreme index value")
    p.add_argument("--n", required=True, type=int, help="number of vertices")
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--objective", required=True, choices=OBJECTIVES)
    p.add_argument("--coconnected", action="store_true")
    p.set_defaults(func=_cmd_extremal)

    return parser


def _read_text(path: str) -> Tuple[str, str]:
    label = "stdin" if path == "-" else path
    try:
        if path == "-":
            return label, sys.stdin.read()
        with open(path, "r", encoding="ascii") as fh:
            return label, fh.read()
    except UnicodeDecodeError as exc:
        raise SteinerGutError(f"{label}: not ASCII text (byte offset {exc.start})") from None


def _parse_edgelist(label: str, text: str) -> Graph:
    """One graph: 'u v' lines; an optional first line holds the vertex count."""
    edges = []
    n: Optional[int] = None
    first = True
    for i, line in enumerate(text.splitlines(), 1):
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        parts = s.split()
        if first and len(parts) == 1:
            try:
                n = int(parts[0])
            except ValueError:
                raise _UsageError(f"{label}:{i}: bad vertex count {s!r}")
            first = False
            continue
        first = False
        if len(parts) != 2:
            raise _UsageError(f"{label}:{i}: expected 'u v', got {s!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise _UsageError(f"{label}:{i}: expected integer endpoints, got {s!r}")
        edges.append((u, v))
    if n is None:
        if not edges:
            raise _UsageError(f"{label}: no edges and no vertex count line")
        n = max(max(u, v) for u, v in edges) + 1
    try:
        return from_edge_list(n, edges)
    except SteinerGutError as exc:
        raise exc.__class__(f"{label}: {exc}") from None


def _load_graphs(args) -> List[Tuple[str, str, Graph]]:
    """(FILE:LINE, graph6 name, Graph) triples from the --graph input.

    An edgelist holds one graph, so its place is the file name alone.  Every
    graph's order is checked against the table cap here, before any table
    of the batch is built.
    """
    label, text = _read_text(args.graph)
    if args.format == "edgelist":
        g = _parse_edgelist(label, text)
        out = [(label, graph6_encode(g), g)]
    else:
        out = []
        for i, line in enumerate(text.splitlines(), 1):
            s = line.strip()
            if not s or s.startswith("#"):
                continue
            try:
                g = graph6_decode(s)
            except SteinerGutError as exc:
                raise exc.__class__(f"{label}:{i}: {exc}") from None
            out.append((f"{label}:{i}", s, g))
        if not out:
            raise _UsageError(f"no graphs found in {label}")
    for where, g6, g in out:
        with _naming(where, g6):
            require_table_order(g.n)
    return out


@contextmanager
def _naming(where: str, g6: str):
    """Prefix a failure on one input graph with its FILE:LINE and graph6 name."""
    try:
        yield
    except SteinerGutError as exc:
        raise exc.__class__(f"{where}: {g6}: {exc}") from None


def _k_list(kval: str, n: int) -> List[int]:
    if kval == "all":
        return list(range(2, n + 1))
    try:
        k = int(kval)
    except ValueError:
        raise _UsageError(f"--k must be an integer or 'all', got {kval!r}")
    return [k]


def _index_names(spec: str) -> List[str]:
    names = [t.strip() for t in spec.split(",") if t.strip()]
    if not names:
        raise _UsageError("--indices is empty")
    for t in names:
        if t not in INDEX_NAMES:
            raise _UsageError(f"unknown index {t!r}, pick from {','.join(INDEX_NAMES)}")
    return names


def _bound_ids(spec: str) -> List[str]:
    from .bounds import expand_bound_ids

    tokens = [t.strip() for t in spec.split(",") if t.strip()]
    try:
        return expand_bound_ids(tokens or None)
    except ValueError as exc:
        raise _UsageError(str(exc))


def _emit_records(recs, columns, fmt: str, out: IO[str]) -> None:
    if fmt == "json":
        print(json.dumps(recs, indent=2), file=out)
        return
    import csv

    writer = csv.writer(out)
    writer.writerow(columns)
    for rec in recs:
        writer.writerow(["" if rec.get(c) is None else rec.get(c, "") for c in columns])


def _cmd_compute(args, out, err) -> int:
    names = _index_names(args.indices)
    asked = set(names)
    # every record passes the index guard, a gut-only one too; sw alone allows k = 1
    lo = 1 if asked == {"sw"} else 2
    recs = []
    for where, g6, g in _load_graphs(args):
        with _naming(where, g6):
            ks = _k_list(args.k, g.n)
            connected = is_connected(g)
            for k in ks:
                _guard(connected, g, k, lo)
            sums = None if asked == {"gut"} else _sums([g], sdd="sdd" in asked)[0]
            for k in ks:
                rec = {"graph6": g6, "n": g.n, "m": g.m, "k": k}
                for name in ("sgut", "sw", "sdd"):
                    if name in names:
                        rec[name] = getattr(sums, name)[k]
                if "gut" in names:
                    rec["gut"] = gutman(g) if k == 2 else None
                recs.append(rec)
    columns = ["graph6", "n", "m", "k"] + [c for c in INDEX_NAMES if c in names]
    _emit_records(recs, columns, args.out, out)
    return 0


def _cmd_family(args, out, err) -> int:
    from .families import FamilySpec, generate

    g = generate(FamilySpec(FAMILY_NAMES[args.name], args.n))
    if args.emit == "g6":
        print(graph6_encode(g), file=out)
    else:
        print(g.n, file=out)
        for u, v in g.edges():
            print(u, v, file=out)
    return 0


def _cmd_bounds(args, out, err) -> int:
    from .bounds import GraphContext, _value
    from .exact import decimal_str, value_str

    ids = _bound_ids(args.bound_set)
    decimal = args.decimal
    if decimal is not None and decimal < 0:
        raise _UsageError(f"--decimal must be at least 0, got {decimal}")
    found_violation = False
    records = []
    csv_rows = []
    for where, g6, g in _load_graphs(args):
        with _naming(where, g6):
            ctx = GraphContext(g, ids)
            skipped = [{"group": grp, "reason": str(e)} for grp, e in ctx.skipped.items()]
            for k in _k_list(args.k, g.n):
                checks = []
                # with nothing runnable this still raises Disconnected, then KOutOfRange
                for bound, actual, holds, tight in ctx.checks(k):
                    if not holds:
                        found_violation = True
                    value = _value(bound)
                    item = {
                        "bound_id": bound.bound_id,
                        "case_label": bound.case,
                        "bound_value": value_str(value),
                        "actual": actual,
                        "holds": holds,
                        "tight": tight,
                    }
                    row = [g6, g.n, k, bound.bound_id, bound.case, value_str(value)]
                    if decimal is not None:
                        item["decimal"] = decimal_str(value, decimal)
                        row.append(item["decimal"])
                    row += [actual, int(holds), int(tight)]
                    checks.append(item)
                    csv_rows.append(row)
                records.append({"graph6": g6, "n": g.n, "k": k, "checks": checks,
                                "skipped": skipped})
    if args.out == "json":
        print(json.dumps(records, indent=2), file=out)
    else:
        import csv

        writer = csv.writer(out)
        header = ["graph6", "n", "k", "bound_id", "case_label", "bound_value"]
        if decimal is not None:
            header.append("decimal")
        header += ["actual", "holds", "tight"]
        writer.writerow(header)
        writer.writerows(csv_rows)
    return 2 if found_violation else 0


def _cmd_verify(args, out, err) -> int:
    import csv
    from dataclasses import replace

    from .verify import (
        CSV_HEADER,
        EnumerationSpec,
        _k_values,
        _masks,
        _require_order,
        _sweep,
        report_to_dict,
    )

    ids = _bound_ids(args.bound_set)
    k_range = "all" if args.k == "all" else tuple(_k_list(args.k, args.n_max))
    top = EnumerationSpec(n=args.n_max, require_coconnected=args.coconnected,
                          dedup_isomorphism=args.dedup, k_range=k_range)
    _require_order(top)
    if not 1 <= args.jobs <= MAX_JOBS:
        raise _UsageError(f"--jobs must lie in 1..{MAX_JOBS}, got {args.jobs}")
    _k_values(top)
    with ExitStack() as files:
        # - is stdout for either; files are opened before any order runs, so
        # an unwritable path fails at once
        report_fh = out
        if args.out != "-":
            report_fh = files.enter_context(open(args.out, "w", encoding="utf-8"))
        csv_fh = None
        if args.csv is not None:
            csv_fh = out
            if args.csv != "-":
                csv_fh = files.enter_context(open(args.csv, "w", encoding="utf-8", newline=""))
            if csv_fh is report_fh or (
                out not in (report_fh, csv_fh)
                and os.path.sameopenfile(report_fh.fileno(), csv_fh.fileno())
            ):
                raise _UsageError("--out and --csv name the same file")
            # each order's sweep appends its rows as it runs
            csv.writer(csv_fh).writerow(CSV_HEADER)
        reports = []
        # one pool serves every order's enumeration levels and sweep; its class
        # is read off this module, so a caller's rebinding of it is used
        pooling = nullcontext()
        if args.jobs > 1:
            pooling = sys.modules[__name__].ProcessPoolExecutor(max_workers=args.jobs)
        with pooling as pool:
            # the library batches the graphs, so each batch is one pool task
            mapper = map if pool is None else pool.map
            for n in range(2, args.n_max + 1):
                ks = "all" if k_range == "all" else tuple(k for k in k_range if k <= n)
                spec = replace(top, n=n, k_range=ks)
                start = time.perf_counter()
                masks = _masks(spec, mapper)
                enumerated = time.perf_counter()
                report = _sweep(spec, tuple(ids), masks, csv_fh, mapper)
                swept = time.perf_counter()
                reports.append(report)
                print(
                    f"n={n}: {report.graphs_scanned} graphs, {report.checks_run} checks, "
                    f"{len(report.violations)} violations, {len(report.tight_cases)} tight "
                    f"(enumerate {enumerated - start:.2f} s, sweep {swept - enumerated:.2f} s)",
                    file=err,
                )

        total_viol = sum(len(r.violations) for r in reports)
        doc = {
            "n_max": args.n_max,
            "bound_set": list(ids),
            "k": args.k,
            "require_connected": True,
            "require_coconnected": args.coconnected,
            "dedup_isomorphism": args.dedup,
            "totals": {
                "graphs_scanned": sum(r.graphs_scanned for r in reports),
                "checks_run": sum(r.checks_run for r in reports),
                "violations": total_viol,
                "tight_cases": sum(len(r.tight_cases) for r in reports),
                "formula_audit_findings": sum(len(r.formula_audit_findings) for r in reports),
            },
            "reports": [report_to_dict(r) for r in reports],
        }
        # streamed: with an indent the encoder is the pure-Python one, and
        # json.dumps would join the whole report into one string first
        json.dump(doc, report_fh, indent=2)
        report_fh.write("\n")
    return 2 if total_viol else 0


def _cmd_audit(args, out, err) -> int:
    from .families import audit_formulas

    audits = audit_formulas(args.n_max)
    bad = [a for a in audits if not a.agrees]
    for a in bad:
        print(
            f"{a.family} n={a.n} k={a.k}: printed {a.printed_value} "
            f"!= computed {a.computed_value}",
            file=out,
        )
    print(f"{len(audits)} comparisons, {len(bad)} disagreements", file=out)
    return 2 if bad else 0


def _cmd_extremal(args, out, err) -> int:
    from .verify import EnumerationSpec, find_extremal

    spec = EnumerationSpec(
        n=args.n,
        require_connected=True,
        require_coconnected=args.coconnected,
    )
    result = find_extremal(spec, args.k, args.objective)
    print(
        json.dumps(
            {
                "objective": result.objective,
                "n": args.n,
                "k": result.k,
                "value": result.value,
                "graph6s": list(result.graph6s),
            },
            indent=2,
        ),
        file=out,
    )
    return 0


def run_cli(argv, stdout: Optional[IO[str]] = None, stderr: Optional[IO[str]] = None) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=err)
        return 1
    except SystemExit as exc:  # --help
        return 0 if (exc.code or 0) == 0 else 1
    try:
        return args.func(args, out, err)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=err)
        return 1
    except (SteinerGutError, OSError) as exc:
        print(f"error: {exc}", file=err)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
