#!/usr/bin/env python3
"""Benchmark of the steinergut CLI: fresh processes, checked outputs, per-layer trace.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep-n7 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Each run is a closed loop: one CLI process at a time, started as the console
script would start it, with the package imported from ``src/`` of this
checkout.  It passes over the workload's jobs until ``--seconds`` have
passed (at least once) and checks every output.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` adds one traced process (see traced_cli.py) and reports the
per-layer metrics.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  Each run keeps its scratch files
in a directory of its own under ``.perfbench_work/`` in the checkout, and
removes it unless an output check failed.  See perfbench/README.md for why the
workloads and metrics are what they are.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import marshal
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Every process of a run must end within this many seconds of its start.
RUN_DEADLINE_S = 170.0
SETUP_REPS = 11
CLI_BOOT = "import sys; from steinergut.cli import main; sys.argv[0] = 'steinergut'; main()"

QUERY_ORDER = 18
QUERY_GRAPHS = 6
QUERY_DENSITY = (0.25, 0.6)

# Golden totals of the two sweeps, and the sha256 of their stdout reports.
SWEEP_GOLDEN = {
    "sweep-n7": {
        "exit": 2,
        "graphs_scanned": 739,
        "checks_run": 69552,
        "violations": 322,
        "violation_bounds": ["cor41.1.sum_upper"],
        "tight_cases": 113,
        "sha256": "37b05eb6d0a923199000e56291b535d7263995623f0c95f49a6f848c981c5511",
    },
    "enum-n8": {
        "exit": 0,
        "graphs_scanned": 12112,
        "checks_run": 167208,
        "violations": 0,
        "violation_bounds": [],
        "tight_cases": 34,
        "sha256": "9d4810bdf3274cf4f32cce6b1e49f78e22170de716ebb72020fa27d9efb575c5",
    },
}

# Counts from the traced run that repeat exactly at the pinned commit.  A run
# that differs is flagged (trace.counts_match = 0), not failed: an
# optimisation may move them on purpose.
EXACT_COUNTS = {
    "sweep-n7": {
        "canon.calls": 7815,
        "steiner.table.entries": 179476,
        "indices.subsets": 836007,
        "indices.sgut.calls_per_graph_k": 43533 / 4347,
        "bounds.checks": 69552,
    },
    # parent side only: the bound checks run in the pool workers
    "enum-n8": {
        "canon.calls": 116146,
        "steiner.table.entries": 1524,
        "indices.subsets": 1398,
        "indices.sgut.calls_per_graph_k": 84 / 82,
        "bounds.checks": 0,
    },
    # the traced query is the batch's first graph: one table, k from 2 to 18,
    # three indices
    "query-n18": {
        "canon.calls": 0,
        "steiner.table.entries": 1 << QUERY_ORDER,
        "indices.subsets": 3 * ((1 << QUERY_ORDER) - 1 - QUERY_ORDER),
        "indices.sgut.calls_per_graph_k": 1.0,
        "bounds.checks": 0,
    },
}


# ---------------------------------------------------------------- inputs


def query_graphs(seed):
    """Seeded connected order-18 graphs, densities stratified over 0.25..0.6.

    Each is a random spanning tree plus random extra edges; returns
    (adjacency rows, edge count) pairs.
    """
    rng = random.Random(f"query-n18:{seed}")
    n = QUERY_ORDER
    lo, hi = QUERY_DENSITY
    pairs_total = n * (n - 1) // 2
    out = []
    for i in range(QUERY_GRAPHS):
        density = lo + (hi - lo) * (i + rng.random()) / QUERY_GRAPHS
        target = max(n - 1, round(density * pairs_total))
        order = list(range(n))
        rng.shuffle(order)
        edges = set()
        for j in range(1, n):
            u, v = order[j], order[rng.randrange(j)]
            edges.add((min(u, v), max(u, v)))
        rest = [(u, v) for v in range(n) for u in range(v) if (u, v) not in edges]
        rng.shuffle(rest)
        edges.update(rest[: target - len(edges)])
        rows = [0] * n
        for u, v in edges:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        out.append((rows, len(edges)))
    return out


def to_graph6(rows):
    """graph6 text of a graph on at most 62 vertices, written from the format spec."""
    n = len(rows)
    bits = [rows[j] >> i & 1 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    chars = [chr(63 + n)]
    for p in range(0, len(bits), 6):
        chars.append(chr(63 + int("".join(map(str, bits[p : p + 6])), 2)))
    return "".join(chars)


# ---------------------------------------------------------------- checks


def check_sweep(name, status, stdout):
    """(problems, graphs) of a verify report; no problems when it matches the golden run."""
    gold = SWEEP_GOLDEN[name]
    problems = []
    if status != gold["exit"]:
        problems.append(f"exit status {status}, expected {gold['exit']}")
    try:
        doc = json.loads(stdout)
        totals = doc["totals"]
        bounds = sorted({v["bound_id"] for r in doc["reports"] for v in r["violations"]})
    except (ValueError, KeyError, TypeError) as exc:
        return problems + [f"unreadable report: {exc!r}"], 0
    for key in ("graphs_scanned", "checks_run", "violations", "tight_cases"):
        if totals.get(key) != gold[key]:
            problems.append(f"{key} = {totals.get(key)}, expected {gold[key]}")
    if bounds != gold["violation_bounds"]:
        problems.append(f"violations on {bounds}, expected {gold['violation_bounds']}")
    digest = hashlib.sha256(stdout).hexdigest()
    if digest != gold["sha256"]:
        problems.append(f"report sha256 {digest}, expected {gold['sha256']}")
    return problems, totals.get("graphs_scanned", 0)


def check_query(graph, status, stdout):
    """(problems, graphs) of a compute output, judged by the gut cross-check and k = n forms."""
    rows, m = graph
    n = QUERY_ORDER
    g6 = to_graph6(rows)
    problems = []
    if status != 0:
        problems.append(f"exit status {status}, expected 0")
    try:
        got = {rec["k"]: rec for rec in json.loads(stdout) if rec["graph6"] == g6}
    except (ValueError, KeyError, TypeError) as exc:
        return problems + [f"unreadable output: {exc!r}"], 0
    if sorted(got) != list(range(2, n + 1)):
        return problems + [f"{g6}: expected one record for each k in 2..{n}"], 0
    degree_product = 1
    for row in rows:
        degree_product *= row.bit_count()
    expect = {"n": n, "m": m, "sgut": (n - 1) * degree_product, "sw": n - 1, "sdd": (n - 1) * 2 * m}
    for key, value in expect.items():
        if got[n].get(key) != value:
            problems.append(f"{g6} k={n}: {key} = {got[n].get(key)}, expected {value}")
    pair = got[2]
    if pair.get("gut") is None or pair.get("sgut") != pair.get("gut"):
        problems.append(f"{g6} k=2: sgut {pair.get('sgut')} != gut {pair.get('gut')}")
    return problems, 1


# ---------------------------------------------------------------- workloads


def workload_jobs(name, seed, run_dir):
    """The distinct CLI invocations of one run of ``name``, as (argv, check) pairs.

    A query run asks about each graph of its seeded batch in a process of
    its own, so that each graph's best time can be taken on its own.
    """
    if name == "sweep-n7":
        argv = ["verify", "--n-max", "7", "--coconnected", "--set", "all", "--jobs", "1"]
        return [(argv, functools.partial(check_sweep, name))]
    if name == "enum-n8":
        argv = ["verify", "--n-max", "8", "--set", "lem22", "--jobs", "2"]
        return [(argv, functools.partial(check_sweep, name))]
    if name == "query-n18":
        jobs = []
        for j, graph in enumerate(query_graphs(seed)):
            path = run_dir / f"query{j}.g6"
            path.write_text(to_graph6(graph[0]) + "\n", encoding="ascii")
            argv = ["compute", "--graph", str(path.relative_to(ROOT)), "--k", "all"]
            jobs.append((argv, functools.partial(check_query, graph)))
        return jobs
    raise ValueError(name)


WORKLOADS = ("sweep-n7", "enum-n8", "query-n18")


# ---------------------------------------------------------------- processes


class Runner:
    """Starts child processes under one deadline and measures each one."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def spawn(self, argv, stdout_path):
        """Run argv to completion: (status, start, wall seconds, rusage).

        The rusage covers the child and the children it reaped, its pool
        workers included.  The start is a ``perf_counter`` reading, the
        system-wide monotonic clock the child's spans use too.  The child
        runs in its own session so that a deadline kill also ends its pool
        workers.
        """
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("run deadline passed before the process started")
        with open(stdout_path, "wb") as out, open(str(stdout_path) + ".err", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=self.env, stdout=out, stderr=err,
                stdin=subprocess.DEVNULL, start_new_session=True,
            )
            timer = threading.Timer(remaining, os.killpg, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, wstatus, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        # reaped by wait4 above; recorded so that Popen never waits for it again
        proc.returncode = os.waitstatus_to_exitcode(wstatus)
        return proc.returncode, t0, wall, usage

    def cli(self, cli_argv, stdout_path, traced_spans=None):
        if traced_spans is None:
            argv = [sys.executable, "-c", CLI_BOOT, *cli_argv]
        else:
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(traced_spans), *cli_argv]
        return self.spawn(argv, stdout_path)


def measure_setup(runner, run_dir, reps):
    """Wall times of ``reps`` fresh interpreters that each import steinergut."""
    argv = [sys.executable, "-c", "import steinergut"]
    out = run_dir / "setup.out"
    times = []
    for _ in range(reps):
        status, _, wall, _ = runner.spawn(argv, out)
        if status != 0:
            raise RuntimeError(f"importing steinergut failed with status {status}")
        times.append(wall)
    return times


class Tally:
    """Untraced invocations of one run, per job, and what their checks said."""

    def __init__(self, jobs):
        self.walls = [[] for _ in range(jobs)]
        self.cpus = [[] for _ in range(jobs)]
        self.graphs = [0] * jobs
        self.rss_kib = 0
        self.attempted = self.failed = 0

    def record(self, job, name, wall, usage, problems, graphs):
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"  FAILED {name}: {p}", file=sys.stderr)
        else:
            self.graphs[job] = graphs
        self.walls[job].append(wall)
        self.cpus[job].append(usage.ru_utime + usage.ru_stime)
        self.rss_kib = max(self.rss_kib, usage.ru_maxrss)

    def best(self):
        """Per job that ran: its lowest wall time, lowest CPU time and graph count.

        A shared machine only ever slows a process down, in spells of tens
        of seconds, so a job's least disturbed invocation is its steadiest
        figure.
        """
        return [
            (min(w), min(c), g)
            for w, c, g in zip(self.walls, self.cpus, self.graphs)
            if w
        ]


def run_untraced(runner, name, jobs, seconds, tally, run_dir):
    """Invoke the jobs in turn, one process at a time, until ``seconds`` have passed.

    A run ends only after whole passes over the jobs.
    """
    start = time.monotonic()
    i = 0
    while True:
        job = i % len(jobs)
        argv, check = jobs[job]
        out = run_dir / f"job{job}.out"
        status, _, wall, usage = runner.cli(argv, out)
        problems, graphs = check(status, out.read_bytes())
        tally.record(job, name, wall, usage, problems, graphs)
        i += 1
        now = time.monotonic()
        if now + wall * 1.5 > runner.deadline:
            return
        if i % len(jobs) == 0 and now - start >= seconds:
            return


# ---------------------------------------------------------------- trace


def layer_metrics(trace, start, wall):
    """Per-layer metrics from one traced process's spans and counters.

    The first span, ``setup``, is the import of steinergut; it is widened
    back to the spawn at ``start`` so that it holds interpreter start too.
    """
    spans = trace["spans"]
    counts = trace["counts"]
    spans[0][1] = start
    child_total = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_total[parent] += end - start
    self_s = {}
    covered = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_total[i]
        if parent < 0:
            covered += end - start

    def c(key):
        return counts.get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "canon.calls": c("canon.calls"),
        "canon.self_s": self_s.get("canon", 0.0),
        "canon.classes_per_call": ratio(trace["canon.classes"], c("canon.calls")),
        "verify.enumerate.self_s": self_s.get("verify.enumerate", 0.0),
        "verify.enumerate.classes": c("verify.enumerate.classes"),
        "verify.sweep.self_s": self_s.get("verify.sweep", 0.0),
        "steiner.table.calls": c("steiner.table.calls"),
        "steiner.table.self_s": self_s.get("steiner.table", 0.0),
        "steiner.table.entries": c("steiner.table.entries"),
        "indices.sgut.calls": c("indices.sgut.calls"),
        "indices.sgut.self_s": self_s.get("indices.sgut", 0.0),
        "indices.sw.self_s": self_s.get("indices.sw", 0.0),
        "indices.sdd.self_s": self_s.get("indices.sdd", 0.0),
        "indices.subsets": c("indices.subsets"),
        # per (graph, k) pair the run asks about: the pairs given to the
        # bound checks in a sweep, the pairs given to the indices in a query
        "indices.sgut.calls_per_graph_k": ratio(
            c("indices.sgut.calls"),
            trace["bounds.graph_k_pairs"] or trace["indices.sgut.graph_k_pairs"],
        ),
        "bounds.calls": c("bounds.calls"),
        "bounds.checks": c("bounds.checks"),
        "bounds.self_s": self_s.get("bounds", 0.0),
        "bounds.witness.calls": c("bounds.witness.calls"),
        "bounds.witness.self_s": self_s.get("bounds.witness", 0.0),
        "graph6.calls": c("graph6.calls"),
        "graph6.self_s": self_s.get("graph6", 0.0),
        "families.audit.self_s": self_s.get("families.audit", 0.0),
        "serialize.self_s": self_s.get("serialize", 0.0),
        "serialize.bytes": c("serialize.bytes"),
        "cli.pool.shards": c("cli.pool.shards"),
        "cli.pool.wait_s": self_s.get("cli.pool", 0.0),
        "trace.wall_s": wall,
        "trace.attributed_frac": covered / wall,
    }


def run_traced(runner, name, job, tally, run_dir):
    """One traced invocation of ``job``; its layer metrics, or None when it failed."""
    argv, check = job
    out = run_dir / "traced.out"
    spans_path = run_dir / "spans.marshal"
    status, start, wall, _ = runner.cli(argv, out, traced_spans=spans_path)
    problems, _ = check(status, out.read_bytes())
    tally.attempted += 1
    if problems or not spans_path.exists():
        tally.failed += 1
        for p in problems or ["no spans written"]:
            print(f"  FAILED {name} (traced): {p}", file=sys.stderr)
        return None
    return layer_metrics(marshal.loads(spans_path.read_bytes()), start, wall)


def counts_match(name, layers):
    """1 when every pinned exact count repeats, else 0; differences go to stderr."""
    ok = 1
    for key, want in EXACT_COUNTS[name].items():
        got = layers[key]
        if got != want:
            ok = 0
            print(f"  COUNT CHANGED {name}: {key} = {got}, pinned {want}", file=sys.stderr)
    return ok


# ---------------------------------------------------------------- report

E2E_UNITS = {
    "wall_s": "s",
    "graphs_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}


def layer_unit(key):
    if key.endswith("_s"):
        return "s"
    if key.endswith("_frac") or key.endswith("_per_call") or key.endswith("_per_graph_k"):
        return "ratio"
    if key.endswith("bytes"):
        return "bytes"
    return "count"


def run_workload(name, seed, seconds, trace, deadline):
    run_dir = WORK / f"{name}-{seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(deadline)
    jobs = workload_jobs(name, seed, run_dir)
    tally = Tally(len(jobs))
    print(f"workload {name}  seed {seed}  seconds {seconds}  trace {trace}")
    if trace:
        layers = run_traced(runner, name, jobs[0], tally, run_dir)
        run_untraced(runner, name, jobs, seconds, tally, run_dir)
        metrics = {}
        if layers is not None:
            untraced = statistics.median(tally.walls[0])
            layers["trace.overhead_s"] = layers["trace.wall_s"] - untraced
            layers["trace.counts_match"] = counts_match(name, layers)
            for key in EXACT_COUNTS[name]:
                print(f"  exact count {key} = {layers[key]}")
            metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
    else:
        # The first start fills the bytecode cache and is not timed.  The
        # timed starts are split around the loop, so that one slow spell of
        # a shared machine cannot hold all of them.
        measure_setup(runner, run_dir, 1)
        setup = measure_setup(runner, run_dir, SETUP_REPS // 2)
        run_untraced(runner, name, jobs, seconds, tally, run_dir)
        setup += measure_setup(runner, run_dir, SETUP_REPS - len(setup))
        best = tally.best()
        walls = [w for ws in tally.walls for w in ws]
        metrics = {
            "wall_s": statistics.fmean(w for w, _, _ in best),
            "graphs_per_s": sum(g for _, _, g in best) / sum(w for w, _, _ in best),
            "cpu_s": statistics.fmean(c for _, c, _ in best),
            "peak_rss_mib": tally.rss_kib / 1024,
            "setup_s": statistics.median(setup),
        }
        print(f"  {len(walls)} invocations of {len(jobs)} jobs; wall min {min(walls):.4f} "
              f"median {statistics.median(walls):.4f} max {max(walls):.4f} s; "
              f"setup median of {len(setup)}")
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}
    for key, m in metrics.items():
        print(f"  {key:34s} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_frac':34s} {tally.failed / tally.attempted:>14.6g} "
          f"({tally.failed}/{tally.attempted} runs)")
    if tally.failed:
        print(f"  outputs kept in {run_dir}", file=sys.stderr)
    else:
        shutil.rmtree(run_dir)
    return tally, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "steinergut" / "cli.py").is_file():
        print(f"error: no steinergut sources under {SRC}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        deadline = time.monotonic() + RUN_DEADLINE_S
        tally, got = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        attempted += tally.attempted
        failed += tally.failed
        if len(names) > 1:
            got = {f"{name}.{k}": v for k, v in got.items()}
        metrics.update(got)
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
