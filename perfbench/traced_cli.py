"""Run the steinergut CLI in this process with every layer's public functions timed.

Usage (PYTHONPATH must point at the package sources):

    python3 perfbench/traced_cli.py SPANS_FILE CLI_ARG...

The public functions of each layer module are rebound, in every module that
imported them, to wrappers that record a span (name, start, end, parent) and
a few work counters.  The program's own loops run unchanged.  Spans stay in
memory and are written to SPANS_FILE with ``marshal`` when the CLI returns;
the exit status is the CLI's.

Forked pool workers inherit the wrappers but record nothing: worker-side
layers show up only as the parent's ``cli.pool`` span.  ``sweep_shard`` is
never rebound, because the pool pickles it by name.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import marshal
import os
import sys
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from math import comb

clock = time.perf_counter

# Span name for each public function, per layer module; "*" is the default.
SPAN_NAMES = {
    "canon": {"*": "canon"},
    "verify": {
        "enumerate_graphs": "verify.enumerate",
        "sweep": "verify.sweep",
        "report_to_dict": "serialize",
        "write_checks_csv": "serialize",
        "*": "verify",
    },
    "steiner": {"steiner_all_subsets": "steiner.table", "*": "steiner"},
    "indices": {
        "steiner_gutman": "indices.sgut",
        "steiner_wiener": "indices.sw",
        "steiner_degree_distance": "indices.sdd",
        "gutman": "indices.gut",
        "*": "indices",
    },
    "bounds": {
        "diagnose_equality": "bounds.witness",
        "equality_witness": "bounds.witness",
        "*": "bounds",
    },
    "graph6": {"*": "graph6"},
    "families": {
        "audit_formulas": "families.audit",
        "audit_for_order": "families.audit",
        "*": "families",
    },
    "exact": {"*": "serialize"},
    "cli": {"*": "cli"},
}

NOT_REBOUND = {"sweep_shard"}


class Tracer:
    """Spans and counters of one process, kept in memory until written."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = Counter()
        self.canon_keys = set()
        self.sgut_pairs = set()
        self.bounds_pairs = set()
        self.enabled = True
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self):
        self.enabled = False

    def begin(self, name):
        idx = len(self.spans)
        self.spans.append([name, clock(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = clock()
        self.stack.pop()

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def dump(self, path):
        with open(path, "wb") as fh:
            marshal.dump(
                {
                    "spans": self.spans,
                    "counts": dict(self.counts),
                    "canon.classes": len(self.canon_keys),
                    "indices.sgut.graph_k_pairs": len(self.sgut_pairs),
                    "bounds.graph_k_pairs": len(self.bounds_pairs),
                },
                fh,
            )


def _count_canon(tr, args, kwargs, result):
    tr.counts["canon.calls"] += 1
    tr.canon_keys.add((len(args[0]), result[0]))


def _count_enumerate(tr, args, kwargs, result):
    tr.counts["verify.enumerate.classes"] += len(result)


def _count_table(tr, args, kwargs, result):
    tr.counts["steiner.table.calls"] += 1
    tr.counts["steiner.table.entries"] += 1 << args[0].n


def _count_index(key):
    def count(tr, args, kwargs, result):
        g, k = args[0], args[1]
        tr.counts[key] += 1
        tr.counts["indices.subsets"] += comb(g.n, k)
        if key == "indices.sgut.calls":
            tr.sgut_pairs.add((g.adj, k))

    return count


def _count_bounds(tr, args, kwargs, result):
    tr.counts["bounds.calls"] += 1
    tr.bounds_pairs.add((args[0].adj, args[1]))
    tr.counts["bounds.checks"] += len(result)


def _counter(key):
    def count(tr, args, kwargs, result):
        tr.counts[key] += 1

    return count


def _count_bytes(tr, args, kwargs, result):
    tr.counts["serialize.bytes"] += len(result)


COUNTERS = {
    ("canon", "canonical_key_and_perms"): _count_canon,
    ("verify", "enumerate_graphs"): _count_enumerate,
    ("steiner", "steiner_all_subsets"): _count_table,
    ("indices", "steiner_gutman"): _count_index("indices.sgut.calls"),
    ("indices", "steiner_wiener"): _count_index("indices.sw.calls"),
    ("indices", "steiner_degree_distance"): _count_index("indices.sdd.calls"),
    ("bounds", "evaluate_bounds"): _count_bounds,
    ("bounds", "diagnose_equality"): _counter("bounds.witness.calls"),
    ("bounds", "equality_witness"): _counter("bounds.witness.calls"),
    ("graph6", "graph6_encode"): _counter("graph6.calls"),
    ("graph6", "graph6_decode"): _counter("graph6.calls"),
}


def install(tracer, package, modules):
    """Rebind every public function of each layer module wherever it is bound."""
    replaced = {}
    for short, names in SPAN_NAMES.items():
        mod = modules[short]
        for attr, fn in vars(mod).items():
            if (
                attr.startswith("_")
                or attr in NOT_REBOUND
                or not inspect.isfunction(fn)
                or fn.__module__ != mod.__name__
                or inspect.isgeneratorfunction(fn)
            ):
                continue
            span = names.get(attr, names["*"])
            replaced[id(fn)] = tracer.wrap(span, fn, COUNTERS.get((short, attr)))
    for mod in [package, *modules.values()]:
        for attr, value in list(vars(mod).items()):
            if id(value) in replaced:
                setattr(mod, attr, replaced[id(value)])

    cli = modules["cli"]
    cli.json = _TracedJson(tracer)
    cli.ProcessPoolExecutor = _traced_pool(tracer)


class _TracedJson:
    """Stands in for the ``json`` module inside ``cli``: emission is serialization."""

    def __init__(self, tracer):
        self.dumps = tracer.wrap("serialize", json.dumps, _count_bytes)

    def __getattr__(self, name):
        return getattr(json, name)


def _traced_pool(tracer):
    class TracedPool(ProcessPoolExecutor):
        """The parent's whole pool block, workers' start to shutdown, is ``cli.pool``."""

        def __enter__(self):
            self._span = tracer.begin("cli.pool")
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tracer.end(self._span)

        def map(self, fn, *iterables, **kwargs):
            iterables = [list(it) for it in iterables]
            tracer.counts["cli.pool.shards"] += len(iterables[0])
            return super().map(fn, *iterables, **kwargs)

    return TracedPool


def main(argv):
    if len(argv) < 2:
        print("usage: traced_cli.py SPANS_FILE CLI_ARG...", file=sys.stderr)
        return 1
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    idx = tracer.begin("setup")
    package = importlib.import_module("steinergut")
    tracer.end(idx)
    modules = {name: importlib.import_module(f"steinergut.{name}") for name in SPAN_NAMES}
    install(tracer, package, modules)
    status = modules["cli"].run_cli(cli_args)
    sys.stdout.flush()
    tracer.dump(spans_path)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
