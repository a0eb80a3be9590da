import csv
import hashlib
import io
import json
import multiprocessing
import random
import re
from array import array
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from functools import partial
from itertools import combinations
from math import factorial

import networkx as nx
import pytest
from hypothesis import given

import brute
from steinergut import (
    BOUND_IDS,
    Disconnected,
    EnumerationSpec,
    Graph,
    KOutOfRange,
    NoCaseApplies,
    OrderTooLarge,
    complement,
    edge_mask,
    enumerate_graphs,
    find_extremal,
    from_edge_list,
    from_edge_mask,
    graph6_decode,
    graph6_encode,
    induced_connected,
    is_connected,
    relabel,
    report_to_dict,
    run_cli,
    steiner_gutman,
    sweep,
)
from steinergut import cli, verify
from strategies import connected_graphs

# OEIS A001349
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}
ALL_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}

# sha256 of the newline-joined graph6 names of each order's representatives,
# in enumeration order, pinned from the per-child lex-min enumeration
CONNECTED_SHA256 = {
    1: "c3641f8544d7c02f3580b07c0f9887f0c6a27ff5ab1d4a3e29caf197cfc299ae",
    2: "ada8d598e51a0bf0d4bb5976d5dc6cb088a0603072947b002d4d665c54cadb1f",
    3: "2c1256ffd0617e16898c604363be63a1bf9bd24d83d6227d4b2adb3360248bd3",
    4: "793d826705427d48099864697d779a56feabe3d271d508c46495e5732b005cea",
    5: "3e2a71e573c986a7460921ec7fdbdf2f1e7ed12e1b3490a38d3e79e10809a8c5",
    6: "30079fbe2d81deb1476c8098a5a321848c107d1bcd798cd8bc168867680430fb",
    7: "ca6b4ad8755f94d7d4d2eb47d90fa60f1e97b85b976eb92460be9743b6e7a2ca",
    8: "a5c0451bd1a09f0219924ff8d94a244dc198183f9d18b7697c142816f08cf6a5",
}
ALL_SHA256 = {
    1: "c3641f8544d7c02f3580b07c0f9887f0c6a27ff5ab1d4a3e29caf197cfc299ae",
    2: "66f7cc5c004391e37949da741ea5ce5831ff34dd3c3a4e2bea3ccd225d7b2fb1",
    3: "f78b1e961185bb637907c0c3de52876ceb3eb2fee4073e88b23fc8308cee8ad4",
    4: "e80193a84d2a93d526ada7efd07a3e90013a71123468484c6cecd652d73c7781",
    5: "f0873ff2845aaf3a2361070b33817be75aaf7ce26ab7d6ddbaa2ef10f74da8a7",
    6: "8c2ac94669060bf7f71857ea64a41bd9c3d6c84703ad060e1f15313499329546",
    7: "117dd47c6d5b4f85505258fc80bf8392edc69caa6a7d088d3ff05c8bdced692b",
    8: "15df279625ac1942f35f624a788466d818c42b19f40a65d4534a59e77966fac4",
}


# sha256 of `verify --n-max 7 --coconnected --set all` stdout and its --csv file
ORDER_SEVEN_REPORT_SHA256 = "37b05eb6d0a923199000e56291b535d7263995623f0c95f49a6f848c981c5511"
ORDER_SEVEN_CSV_SHA256 = "3948b21259f37cbd0e3e7a0623deb5360f79ca1724def9b20f40c2e7f75d36bf"
# the same through order 8, with --out FILE: (sha256, size in bytes) of each file
ORDER_EIGHT_REPORT = ("52c6795e0ca96a58dded20abcf3110791e5da115795756a0be87c6f865b72d73", 1024811)
ORDER_EIGHT_CSV = ("1fa6f9ebe4f93bc66c8237f6efc81362e44b94ca5e4ea218664bc340136a8524", 70714343)


@pytest.fixture
def fresh_levels(monkeypatch):
    """An empty level cache, so that enumeration builds every level again."""
    monkeypatch.setattr(verify, "_LEVELS", {})


@pytest.fixture
def counted_pools(monkeypatch):
    """Record each construction of the CLI's process pool; the pools stay real."""
    made = []

    class Counted(cli.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", Counted)
    return made


@contextmanager
def mapping(chunksize, mp_context=None):
    """The builtin map for None, else a 2-worker pool's map at that chunk size."""
    if chunksize is None:
        yield map
        return
    with ProcessPoolExecutor(max_workers=2, mp_context=mp_context) as pool:
        yield partial(pool.map, chunksize=chunksize)


# the mappers every map-taking function must agree over
CHUNKSIZES = (None, 1, 3)


def _names_digest(graphs):
    return hashlib.sha256("\n".join(graph6_encode(g) for g in graphs).encode()).hexdigest()


def test_connected_class_counts(universe):
    for n, expected in CONNECTED_COUNTS.items():
        assert len(universe[n]) == expected


def test_levels_hold_each_class_once_as_sorted_masks():
    # the cache holds each connected level as an array of canonical edge
    # masks sorted by (m, edge mask), in which no class repeats
    verify._level(8)
    for n, expected in CONNECTED_COUNTS.items():
        level = verify._LEVELS[n]
        assert isinstance(level, array) and level.typecode == "Q", n
        assert len(set(level)) == len(level) == expected, n
        assert list(level) == sorted(level, key=lambda em: (em.bit_count(), em)), n


def test_all_class_counts():
    for n, expected in ALL_COUNTS.items():
        got = enumerate_graphs(EnumerationSpec(n=n, require_connected=False))
        assert len(got) == expected


def test_connected_representatives_match_golden_digests(universe):
    for n, digest in CONNECTED_SHA256.items():
        assert _names_digest(universe[n]) == digest, n


def test_all_graph_representatives_match_golden_digests():
    for n, digest in ALL_SHA256.items():
        got = enumerate_graphs(EnumerationSpec(n=n, require_connected=False))
        assert _names_digest(got) == digest, n


def test_representatives_are_pairwise_nonisomorphic(connected_by_order):
    reps = [brute.to_networkx(g) for g in connected_by_order[5]]
    for a, b in combinations(reps, 2):
        assert not nx.is_isomorphic(a, b)


@pytest.mark.parametrize("connected,labeled_total", [(True, 728), (False, 1024)])
def test_classes_cover_every_labeled_graph(connected, labeled_total):
    # orbit counting: each class contributes n!/|Aut| labeled copies
    total = 0
    for g in enumerate_graphs(EnumerationSpec(n=5, require_connected=connected)):
        aut = len(brute.expand_twins(g.adj, verify._search(g.adj)[1]))
        assert factorial(5) % aut == 0
        total += factorial(5) // aut
    assert total == labeled_total


def test_labeled_enumeration():
    conn = enumerate_graphs(EnumerationSpec(n=3, dedup_isomorphism=False))
    assert len(conn) == 4
    everything = enumerate_graphs(
        EnumerationSpec(n=3, require_connected=False, dedup_isomorphism=False)
    )
    assert len(everything) == 8
    assert len(set(everything)) == 8


def test_coconnected_filter():
    assert enumerate_graphs(EnumerationSpec(n=2, require_coconnected=True)) == []
    assert enumerate_graphs(EnumerationSpec(n=3, require_coconnected=True)) == []
    co4 = enumerate_graphs(EnumerationSpec(n=4, require_coconnected=True))
    assert len(co4) == 1
    assert sorted(co4[0].degrees) == [1, 1, 2, 2]  # the path
    for n in range(4, 7):
        for g in enumerate_graphs(EnumerationSpec(n=n, require_coconnected=True)):
            assert is_connected(g) and is_connected(complement(g))


def test_enumeration_is_deterministic(connected_by_order):
    again = enumerate_graphs(EnumerationSpec(n=6))
    assert again == connected_by_order[6]


def test_enumeration_cap():
    with pytest.raises(OrderTooLarge):
        enumerate_graphs(EnumerationSpec(n=9))


def test_labeled_enumeration_refuses_order_seven_before_building_a_graph(monkeypatch):
    def refuse(*args):
        raise AssertionError("from_edge_mask called")

    monkeypatch.setattr(verify, "from_edge_mask", refuse)
    for connected in (True, False):
        spec = EnumerationSpec(n=7, require_connected=connected, dedup_isomorphism=False)
        with pytest.raises(OrderTooLarge):
            enumerate_graphs(spec)


def test_sweep_skips_inapplicable_groups_quietly():
    report = sweep(EnumerationSpec(n=3))
    # paired groups never run at order 3, leaving prop21 + lem22 only:
    # 2 graphs x k in {2, 3} x 4 checks
    assert report.graphs_scanned == 2
    assert report.checks_run == 16
    assert report.violations == ()
    assert report.bound_set == BOUND_IDS


def test_sweep_decides_applicability_once_per_cell(count_calls):
    from steinergut.bounds import _decide

    graphs = enumerate_graphs(EnumerationSpec(n=6))
    batches = count_calls(verify, "_sweep_batch")
    _decide.cache_clear()
    sweep(EnumerationSpec(n=6), graphs=graphs)
    info = _decide.cache_info()
    # one bound set at one order: a cell per complement connectivity,
    # evaluated once per cell, never per (graph, k).  The caller looks one
    # up once, for whether a paired group runs, and once per (sorted
    # degrees, complement connected) it meets; each of the 15 graphs it
    # batches looks its cell up once more, when its context is built, and
    # again when its complement is disconnected
    keys = {(tuple(sorted(g.degrees)), is_connected(complement(g))) for g in graphs}
    batched = [from_edge_mask(6, em) for *_, masks in batches for em in masks]
    co_disconnected = sum(not is_connected(complement(g)) for g in batched)
    assert (len(graphs), len(keys), len(batched), co_disconnected) == (112, 73, 15, 3)
    assert info.misses == 2
    assert info.hits + info.misses == 1 + len(keys) + len(batched) + co_disconnected == 92


def test_sweep_order_four_coconnected():
    report = sweep(EnumerationSpec(n=4, require_coconnected=True))
    assert report.graphs_scanned == 1
    assert report.checks_run == 3 * 16
    assert report.violations == ()
    assert len(report.formula_audit_findings) == 5


def test_sweep_order_five_finds_the_min_aggregate_violations():
    report = sweep(EnumerationSpec(n=5, require_coconnected=True))
    assert len(report.violations) == 2
    for v in report.violations:
        assert v.bound_id == "cor41.1.sum_upper"
        assert v.k == 5
        assert v.bound_value == 256
        assert v.actual == 320
    assert {v.graph6 for v in report.violations} == {"DBg", "DLs"}
    assert len(report.formula_audit_findings) == 7


def test_violating_graphs_decode_and_reproduce():
    for g6 in ("DBg", "DLs"):
        g = graph6_decode(g6)
        total = steiner_gutman(g, 5) + steiner_gutman(complement(g), 5)
        assert total == 320


def test_sweep_k_range_restriction():
    spec = EnumerationSpec(n=5, require_coconnected=True, k_range=(5,))
    report = sweep(spec)
    assert report.checks_run == 16 * report.graphs_scanned
    assert len(report.violations) == 2
    with pytest.raises(KOutOfRange):
        sweep(EnumerationSpec(n=5, k_range=(6,)))


def test_sweep_writes_one_csv_row_per_check():
    rows = io.StringIO()
    report = sweep(EnumerationSpec(n=5, require_coconnected=True), csv_out=rows)
    lines = rows.getvalue().split("\r\n")
    assert lines.pop() == ""
    # 16 checks for each of the four k values of each graph
    assert len(lines) == report.checks_run == 16 * 4 * report.graphs_scanned
    assert lines[0] == "5,DBg,2,prop21.upper,,128,44,1,0"
    assert len(next(csv.reader(lines))) == len(verify.CSV_HEADER)


@pytest.mark.parametrize(
    "n, chunksize", [(5, 1), (5, 3), (4, 3)], ids=["n5-chunk1", "n5-chunk3", "n4-chunk3"]
)
def test_pooled_sweep_matches_the_in_process_report(n, chunksize):
    # order 4 has one co-connected graph, so its one task is not full
    spec = EnumerationSpec(n=n, require_coconnected=True)
    direct_rows, pooled_rows = io.StringIO(), io.StringIO()
    direct = sweep(spec, csv_out=direct_rows)
    with mapping(chunksize) as mapper:
        pooled = sweep(spec, csv_out=pooled_rows, mapper=mapper)
    assert report_to_dict(pooled) == report_to_dict(direct)
    assert pooled_rows.getvalue() == direct_rows.getvalue()
    assert pooled_rows.getvalue().count("\n") == direct.checks_run


@pytest.mark.parametrize("batch", [1, 5])
def test_batch_size_does_not_change_a_report_or_a_level(batch, fresh_levels, monkeypatch):
    spec = EnumerationSpec(n=6, require_coconnected=True)
    direct_rows = io.StringIO()
    direct = sweep(spec, csv_out=direct_rows)
    levels = dict(verify._LEVELS)
    monkeypatch.setattr(verify, "BATCH", batch)
    monkeypatch.setattr(verify, "_LEVELS", {})
    rows = io.StringIO()
    with mapping(1) as mapper:
        report = sweep(spec, csv_out=rows, mapper=mapper)
    assert verify._LEVELS == levels
    assert report_to_dict(report) == report_to_dict(direct)
    assert rows.getvalue() == direct_rows.getvalue()


def test_sweep_writes_each_graphs_rows_before_sweeping_the_next(monkeypatch):
    from steinergut.bounds import GraphContext

    events = []

    class Recorder(io.StringIO):
        def write(self, text):
            names = {row[1] for row in csv.reader(io.StringIO(text))}
            events.append(("rows", names))
            return super().write(text)

    class Recorded(GraphContext):
        @classmethod
        def batch(cls, graphs, wanted=()):
            ctxs = super().batch(graphs, wanted)
            events.append(("batch", {graph6_encode(ctx.g) for ctx in ctxs}))
            return ctxs

    monkeypatch.setattr(verify, "GraphContext", Recorded)
    monkeypatch.setattr(verify, "BATCH", 3)
    report = sweep(EnumerationSpec(n=5, require_coconnected=True), csv_out=Recorder())
    # the caller keeps the 8 co-connected graphs of the 21 connected ones,
    # and only those are batched, 3 at a time
    batches = [names for kind, names in events if kind == "batch"]
    assert [len(names) for names in batches] == [3, 3, 2]
    assert sum(map(len, batches)) == report.graphs_scanned == 8
    # each batch's contexts are built only once the previous batch's rows are out
    assert events == [event for names in batches for event in (("batch", names), ("rows", names))]


def test_report_to_dict_is_json_ready():
    report = sweep(EnumerationSpec(n=5, require_coconnected=True))
    doc = report_to_dict(report)
    text = json.dumps(doc)
    back = json.loads(text)
    assert back["graphs_scanned"] == report.graphs_scanned
    assert back["violations"][0]["bound_value"] == "256"
    assert isinstance(back["tight_cases"][0]["witness"]["regular"], bool)


def test_find_extremal_max_sgut():
    res = find_extremal(EnumerationSpec(n=5), 3, "max-sgut")
    assert res.value == 1280
    assert len(res.graph6s) == 1
    g = graph6_decode(res.graph6s[0])
    assert g.m == 10  # the complete graph


def test_find_extremal_agrees_with_rescan():
    spec = EnumerationSpec(n=5)
    res = find_extremal(spec, 2, "min-sgut")
    values = {steiner_gutman(g, 2) for g in enumerate_graphs(spec)}
    assert res.value == min(values)


def test_find_extremal_paired_objective_restricts_to_coconnected():
    spec = EnumerationSpec(n=4)
    res = find_extremal(spec, 2, "max-product")
    g = graph6_decode(res.graph6s[0])
    assert sorted(g.degrees) == [1, 1, 2, 2]
    assert res.value == steiner_gutman(g, 2) * steiner_gutman(complement(g), 2)
    with pytest.raises(NoCaseApplies):
        find_extremal(EnumerationSpec(n=3), 2, "max-product")


def test_find_extremal_guards():
    with pytest.raises(ValueError):
        find_extremal(EnumerationSpec(n=4), 2, "max-girth")
    with pytest.raises(KOutOfRange):
        find_extremal(EnumerationSpec(n=4), 5, "max-sgut")
    with pytest.raises(KOutOfRange) as err:
        find_extremal(EnumerationSpec(n=5), 9, "max-sgut")
    assert str(err.value) == "k must satisfy 2 <= k <= 5, got 9"


def test_a_coconnected_extremal_search_builds_each_complement_once(count_calls):
    # of the 853 connected order-7 classes, the 662 whose complement is
    # connected, read off their masks: one complement each, and the sums of
    # each batch of graphs and complements from one table pass
    from steinergut import graph, steiner

    spec = EnumerationSpec(n=7, require_coconnected=True)
    verify._level(7)
    complements = count_calls(graph, "complement")
    tables = count_calls(steiner, "_tables")
    res = find_extremal(spec, 3, "max-sum")
    assert len(complements) == 662
    assert len(tables) == -(-662 // verify.BATCH) == 11
    g = graph6_decode(res.graph6s[0])
    assert res.value == steiner_gutman(g, 3) + steiner_gutman(complement(g), 3)


def test_a_coconnected_sgut_search_builds_no_complement(count_calls):
    # max-sgut reads no complement's sums, so the co-connected filter reads
    # each complement's connectivity off its mask and none is built
    from steinergut import graph

    spec = EnumerationSpec(n=7, require_coconnected=True)
    verify._level(7)
    complements = count_calls(graph, "complement")
    res = find_extremal(spec, 3, "max-sgut")
    assert complements == []
    values = {graph6_encode(g): steiner_gutman(g, 3) for g in enumerate_graphs(spec)}
    assert res.value == max(values.values())
    assert list(res.graph6s) == [name for name, v in values.items() if v == res.value]


def test_the_canonical_mask_is_read_off_the_search_key():
    # every connected order-7 class under a seeded relabeling: the mask
    # built from its key is the edge mask of the graph relabeled by its
    # search's first optimal ordering
    from steinergut.canon import _key_mask, _search

    rng = random.Random(7)
    for em in verify._level(7):
        perm = list(range(7))
        rng.shuffle(perm)
        g = relabel(from_edge_mask(7, em), perm)
        key, orderings, _ = _search(g.adj)
        assert _key_mask(key) == edge_mask(relabel(g, brute.placing(orderings[0]))) == em


def test_report_to_dict_copies_what_asdict_copies():
    # an order-6 co-connected report has violations, tight cases and its
    # k range as a tuple
    from dataclasses import asdict

    spec = EnumerationSpec(n=6, require_coconnected=True, k_range=(2, 4))
    report = sweep(spec, ["all"])
    assert report.violations and report.tight_cases
    doc = report_to_dict(report)
    expected = {
        "spec": asdict(report.spec),
        "bound_set": list(report.bound_set),
        "graphs_scanned": report.graphs_scanned,
        "checks_run": report.checks_run,
        "violations": [
            {**asdict(v), "bound_value": verify.value_str(v.bound_value)}
            for v in report.violations
        ],
        "tight_cases": [asdict(t) for t in report.tight_cases],
        "formula_audit_findings": [asdict(a) for a in report.formula_audit_findings],
    }
    # equal, and in the same key order, so the JSON text is the same
    assert doc == expected
    assert json.dumps(doc, indent=2) == json.dumps(expected, indent=2)
    # the records' own fields are copies, never the frozen records' dicts
    doc["tight_cases"][0]["witness"]["regular"] = None
    assert report.tight_cases[0].witness.regular is not None


def test_verify_report_bytes_match_golden_digests(tmp_path):
    # the order-7 co-connected all-bounds sweep: JSON on stdout, CSV to a file
    csv_path = tmp_path / "checks.csv"
    out, err = io.StringIO(), io.StringIO()
    argv = ["verify", "--n-max", "7", "--coconnected", "--set", "all", "--csv", str(csv_path)]
    assert run_cli(argv, stdout=out, stderr=err) == 2
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == ORDER_SEVEN_REPORT_SHA256
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == ORDER_SEVEN_CSV_SHA256


def test_pooled_verify_matches_golden_digests_with_one_pool(tmp_path, fresh_levels, counted_pools):
    # the fresh cache makes the pool build every level, not only sweep it
    csv_path = tmp_path / "checks.csv"
    out, err = io.StringIO(), io.StringIO()
    argv = ["verify", "--n-max", "7", "--coconnected", "--set", "all", "--jobs", "2",
            "--csv", str(csv_path)]
    assert run_cli(argv, stdout=out, stderr=err) == 2
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == ORDER_SEVEN_REPORT_SHA256
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == ORDER_SEVEN_CSV_SHA256
    assert counted_pools == [{"max_workers": 2}]


@pytest.mark.slow
def test_pooled_order_eight_verify_matches_golden_digests(tmp_path):
    # 1.1 million CSV rows, written order by order; about 10 s on 2 cores
    report_path, csv_path = tmp_path / "r.json", tmp_path / "c.csv"
    argv = ["verify", "--n-max", "8", "--coconnected", "--set", "all", "--jobs", "2",
            "--out", str(report_path), "--csv", str(csv_path)]
    assert run_cli(argv, stdout=io.StringIO(), stderr=io.StringIO()) == 2
    for path, pinned in ((report_path, ORDER_EIGHT_REPORT), (csv_path, ORDER_EIGHT_CSV)):
        data = path.read_bytes()
        assert (hashlib.sha256(data).hexdigest(), len(data)) == pinned, path.name


@pytest.mark.parametrize("jobs,pools", [("1", 0), ("2", 1)])
def test_verify_opens_at_most_one_pool_per_run(jobs, pools, fresh_levels, counted_pools):
    out, err = io.StringIO(), io.StringIO()
    argv = ["verify", "--n-max", "5", "--set", "lem22", "--jobs", jobs]
    assert run_cli(argv, stdout=out, stderr=err) == 0
    assert len(counted_pools) == pools
    lines = err.getvalue().splitlines()
    assert [line.split(":")[0] for line in lines] == ["n=2", "n=3", "n=4", "n=5"]
    for line in lines:
        assert re.fullmatch(r"n=\d+: .* tight \(enumerate \d+\.\d\d s, sweep \d+\.\d\d s\)", line)


def test_pool_enumeration_matches_golden_digests(fresh_levels):
    # the library sends each batch of parents as one task, as the CLI's pool does
    with ProcessPoolExecutor(max_workers=2) as pool:
        mapper = pool.map
        for n, digest in CONNECTED_SHA256.items():
            got = enumerate_graphs(EnumerationSpec(n=n), mapper)
            assert _names_digest(got) == digest, n
        for n, digest in ALL_SHA256.items():
            got = enumerate_graphs(EnumerationSpec(n=n, require_connected=False), mapper)
            assert _names_digest(got) == digest, n


@pytest.mark.parametrize("connected", [True, False])
def test_slicing_does_not_change_any_level(connected, monkeypatch):
    levels, outputs = [], []
    for chunksize in CHUNKSIZES:
        monkeypatch.setattr(verify, "_LEVELS", {})
        spec = EnumerationSpec(n=7, require_connected=connected)
        with mapping(chunksize) as mapper:
            outputs.append(enumerate_graphs(spec, mapper))
        levels.append(dict(verify._LEVELS))
    assert outputs[0] == outputs[1] == outputs[2]
    assert levels[0] == levels[1] == levels[2]
    assert sorted(levels[0]) == list(range(1, 8))


def test_disconnected_classes_cost_one_search_each(count_calls):
    # the disconnected classes of order 8 are the canonical forms of the
    # disconnected complements of the connected level: one search for each
    # of the A000088(8) - A001349(8) = 12,346 - 11,117 classes
    from steinergut import canon

    for n in range(1, 9):
        enumerate_graphs(EnumerationSpec(n=n))
    canons = count_calls(canon, "_search")
    got = enumerate_graphs(EnumerationSpec(n=8, require_connected=False))
    assert len(got) == 12346
    assert len(canons) == 1229
    assert sorted(verify._LEVELS) == list(range(1, 9))


def test_enumeration_canonises_each_class_once(monkeypatch):
    # the counter lives in shared memory and the counting wrapper is bound
    # before the pool forks its workers, so their canons are counted too
    fork = multiprocessing.get_context("fork")
    canons = fork.Value("i", 0)
    original = verify._search

    def counted(rows):
        with canons.get_lock():
            canons.value += 1
        return original(rows)

    monkeypatch.setattr(verify, "_search", counted)
    for chunksize in CHUNKSIZES:
        monkeypatch.setattr(verify, "_LEVELS", {})
        canons.value = 0
        found = {}
        with mapping(chunksize, fork) as mapper:

            def counting(children, batches):
                for batch in mapper(children, batches):
                    found[children.args[0]] = found.get(children.args[0], 0) + len(batch)
                    yield batch

            for n in range(1, 9):
                enumerate_graphs(EnumerationSpec(n=n), counting)
        # through order 8: one search per parent for its automorphism group's
        # generators (996) and one per orbit-minimum child kept by the
        # deletion rule (12,858)
        assert canons.value == 13854, chunksize
        # the acceptance test takes each class from one child alone, so the
        # batches' lists hold no class twice
        assert found == {n: CONNECTED_COUNTS[n] for n in range(2, 9)}, chunksize


def _full_group_minima(auts, width):
    """The non-empty masks below 2^width that no automorphism maps below themselves."""
    least = list(range(1 << width))
    for seq in auts:
        image = [0] * (1 << width)
        for mask in range(1, 1 << width):
            top = mask.bit_length() - 1
            image[mask] = image[mask ^ 1 << top] | 1 << seq[top]
        least = list(map(min, least, image))
    return [mask for mask in range(1, 1 << width) if least[mask] == mask]


@pytest.mark.parametrize("connected", [True, False])
def test_generator_orbit_minima_match_the_full_groups(connected):
    # the parents of the order-7 and order-8 levels: the orbits closed over
    # a parent's generators are those of its whole automorphism group
    for n in (6, 7):
        for g in enumerate_graphs(EnumerationSpec(n=n, require_connected=connected)):
            full = _full_group_minima(brute.expand_twins(g.adj, verify._search(g.adj)[1]), n)
            assert verify._orbit_minima(verify._generators(g.adj), n, n) == full, g


def _every_orbit_child(n, em):
    """The accepted children of one parent without the prefilter: a child is
    built for the least mask of every orbit, and ``_keeps`` alone drops one."""
    parent = from_edge_mask(n - 1, em)
    top = 1 << (n - 1)
    found = []
    for mask in verify._orbit_minima(verify._generators(parent.adj), n - 1, n - 1):
        rows = (*(row | top if mask >> v & 1 else row for v, row in enumerate(parent.adj)), mask)
        ties = verify._keeps(rows)
        if ties:
            _, orderings, classes = verify._search(rows)
            if verify._accepts(rows, ties, orderings, classes):
                child = Graph(n, rows, parent.m + mask.bit_count())
                found.append(edge_mask(relabel(child, brute.placing(orderings[0]))))
    return found


def test_children_skip_only_children_the_deletion_rule_rejects(fresh_levels, count_calls):
    # every level afresh through order 8: the prefilter builds 18,311
    # children, against 71,300 for every orbit minimum, and the searches stay
    # one per parent and one per child that the rule keeps
    built = count_calls(verify, "_keeps")
    searches = count_calls(verify, "_search")
    for n in range(1, 9):
        verify._level(n)
    assert (len(built), len(searches)) == (18311, 13854)
    # through order 7, each parent accepts the children it accepts when every
    # orbit minimum is built and tested by the deletion rule
    for n in range(2, 8):
        for em in verify._level(n - 1):
            assert verify._children(n, [em]) == _every_orbit_child(n, em), (n, em)


def _rows(n, edges):
    return from_edge_list(n, edges).adj


def test_deletion_rule_rejects_a_smaller_degree_non_cut_vertex():
    # the 3-path 0-1-2 with the new vertex 3 joined to all three: vertex 0
    # has degree 2 < 3 and the rest stays connected without it
    rows = _rows(4, [(0, 1), (1, 2), (3, 0), (3, 1), (3, 2)])
    assert not verify._keeps(rows)


def test_deletion_rule_ignores_a_smaller_degree_cut_vertex():
    # two K4s joined through vertex 4, of degree 2; the new vertex 8 has
    # degree 3, and every non-cut vertex has degree at least 3
    k4s = [(u, v) for block in ((0, 1, 2, 3), (5, 6, 7, 8)) for u, v in combinations(block, 2)]
    rows = _rows(9, k4s + [(3, 4), (4, 5)])
    assert verify._keeps(rows)


def test_deletion_rule_rejects_a_non_cut_vertex_with_smaller_neighbour_degrees():
    # a 4-path 0-1-2-3 with the new leaf 4 on vertex 2: no vertex has a smaller
    # degree, but the leaf 0 has the new vertex's degree, and its neighbour's
    # degree 2 is below the new one's 3
    rows = _rows(5, [(0, 1), (1, 2), (2, 3), (2, 4)])
    assert not verify._keeps(rows)


def test_deletion_rule_ignores_a_cut_vertex_with_smaller_neighbour_degrees():
    # a K5 and a K4 joined through vertex 5, of degree 2 with neighbour
    # degrees (4, 5); the new vertex 10 on K5 vertices 0 and 1 has degree 2
    # with neighbour degrees (5, 5), and every non-cut vertex but it has
    # degree at least 3
    blocks = ((0, 1, 2, 3, 4), (6, 7, 8, 9))
    edges = [(u, v) for block in blocks for u, v in combinations(block, 2)]
    rows = _rows(11, edges + [(3, 5), (5, 6), (0, 10), (1, 10)])
    assert verify._keeps(rows)


def _rank(g, v):
    """The deletion rule's order on vertices: degree, then sorted neighbour degrees."""
    return g.degrees[v], sorted(g.degrees[u] for u in g.neighbors[v])


@given(connected_graphs(min_n=2, max_n=8))
def test_a_least_degree_non_cut_vertex_placed_last_passes_the_rule(g):
    # the premise of the enumeration: every class has a child that is kept,
    # the one whose new vertex is least by the rule's order among the
    # non-cut vertices
    def last(v):
        return relabel(g, [u - (u > v) if u != v else g.n - 1 for u in range(g.n)]).adj

    def least(vertices):
        return min(vertices, key=lambda v: _rank(g, v))

    non_cut = [u for u in range(g.n) if induced_connected(g, g.full_mask ^ 1 << u)]
    assert verify._keeps(last(least(non_cut)))


@pytest.mark.slow
@pytest.mark.parametrize("chunksize", CHUNKSIZES, ids=["map", "chunk1", "chunk3"])
def test_order_nine_level_matches_its_golden_digest(chunksize, fresh_levels):
    # above ENUMERATION_CAP, so the level is built directly; 30-60 s on 2 cores
    with mapping(chunksize) as mapper:
        level = verify._level(9, mapper)
    assert level.typecode == "Q"
    assert len(level) == 261080
    assert _names_digest(from_edge_mask(9, em) for em in level) == (
        "ecaa74d8e3822ff8af5ef9bbc0f57044d74d41bc8c54d50531b30c6754dc643f"
    )


def test_sweep_builds_each_invariant_once_per_graph(count_calls):
    from steinergut import families, graph, indices, steiner

    specs = [EnumerationSpec(n=n, require_coconnected=True) for n in range(2, 8)]
    pools = [enumerate_graphs(spec) for spec in specs]
    tables = count_calls(steiner, "_tables")
    sums = count_calls(indices, "_all_k_sums")
    complements = count_calls(graph, "complement")
    guards = count_calls(indices, "_guard")
    counted = (tables, sums, complements, guards) + tuple(
        count_calls(indices, name)
        for name in ("steiner_gutman", "steiner_wiener", "steiner_degree_distance")
    )
    batched = count_calls(verify, "_sweep_batch")
    for with_csv in (True, False):
        for calls in counted + (batched,):
            calls.clear()
        scanned = checks = witnesses = audits = 0
        for spec, pool in zip(specs, pools):
            report = sweep(spec, ["all"], graphs=pool, csv_out=io.StringIO() if with_csv else None)
            scanned += report.graphs_scanned
            checks += report.checks_run
            witnesses += len({(t.graph6, t.k) for t in report.tight_cases})
            audits += len(families._PRINTED_FORMS)
        assert (scanned, checks) == (739, 69552)
        # the graphs that reach a batch: with a CSV every swept one; without
        # one, only the 162 of the 739 with a k that the degree brackets
        # leave open (1, 3, 12 and 146 at orders 4 to 7), in 6 batches
        masks = [len(ms) for *_, ms in batched]
        opened = sum(masks)
        graph_ks = sum(len(ms) * (n - 1) for (*_, n, ms) in batched)
        if with_csv:
            assert opened == sum(map(len, pools)) == 739 and len(masks) == 15
        else:
            assert opened == 162 and len(masks) == 6
        # G's and the complement's table block per batched graph, plus one per
        # formula audit family member; each block's all-k sums are computed
        # once, a sweep builds all the blocks of a batch in one pass, and an
        # order's audit its three family members in one
        blocks = [g for batch, in tables for g in batch]
        assert len(blocks) == len(sums) == 2 * opened + audits == (1496 if with_csv else 342)
        assert len(tables) == len(specs) + len(masks) == (6 + 15 if with_csv else 6 + 6)
        assert len(complements) == opened
        # one guard per batched (graph, k) and per tight (graph, k)'s witness,
        # and none for a graph the caller settles; the checks and the audit
        # read their graph's sums, never a public index function
        assert [len(calls) for calls in counted[4:]] == [0, 0, 0]
        assert len(guards) == graph_ks + witnesses == (4347 if with_csv else 951) + witnesses


def test_a_coconnected_sweep_builds_and_floods_each_complement_once(count_calls, monkeypatch):
    # through order 7 the caller reads the connectivity of each of the 995
    # connected classes' complements off its mask, keeps the 739 co-connected
    # ones and batches only the 162 whose degree brackets leave a k open: each
    # of those is built once from its mask, and its complement once, by its
    # context, which floods it once
    from steinergut import bounds, graph

    for n in range(1, 8):
        verify._level(n)
    made = []
    original = graph.complement

    def recorded(g):
        made.append(original(g))
        return made[-1]

    for module in (graph, bounds):
        monkeypatch.setattr(module, "complement", recorded)
    masks = count_calls(graph, "from_edge_mask")
    floods = count_calls(graph, "is_connected")
    read = count_calls(graph, "_edge_mask_connected")
    scanned = sum(
        sweep(EnumerationSpec(n=n, require_coconnected=True), ["all"]).graphs_scanned
        for n in range(2, 8)
    )
    candidates = sum(CONNECTED_COUNTS[n] for n in range(2, 8))
    assert (scanned, candidates) == (739, 995)
    assert len(read) == candidates
    assert len(masks) == len(made) == 162
    flooded = [id(h) for (h,) in floods]
    assert all(flooded.count(id(h)) == 1 for h in made)


def test_a_coconnected_csv_sweep_batches_and_counts_only_coconnected_graphs(count_calls):
    # all 112 connected order-6 classes given to a co-connected CSV sweep:
    # the caller's one pass drops the 44 whose complement is disconnected,
    # so only the 68 others reach a batch, and the checks it counts are the
    # rows the batches write
    graphs = enumerate_graphs(EnumerationSpec(n=6))
    batches = count_calls(verify, "_sweep_batch")
    rows = io.StringIO()
    spec = EnumerationSpec(n=6, require_coconnected=True)
    report = sweep(spec, ["all"], graphs=graphs, csv_out=rows)
    masks = [em for *_, ms in batches for em in ms]
    coconnected = [edge_mask(g) for g in graphs if is_connected(complement(g))]
    assert masks == coconnected
    assert len(masks) == report.graphs_scanned == 68
    assert rows.getvalue().count("\n") == report.checks_run == 68 * 5 * 16


def test_a_sweep_encodes_graph6_only_for_what_it_writes(count_calls):
    # without a CSV only the graphs with a violation or a tight case are
    # named; with one, every swept graph is named once
    from steinergut import graph6

    spec = EnumerationSpec(n=7, require_coconnected=True)
    enumerate_graphs(spec)
    names = count_calls(graph6, "graph6_encode")
    report = sweep(spec, ["all"])
    findings = {v.graph6 for v in report.violations} | {t.graph6 for t in report.tight_cases}
    assert len(names) == len(findings) == 146
    names.clear()
    rows = io.StringIO()
    sweep(spec, ["all"], csv_out=rows)
    assert len(names) == report.graphs_scanned == 662


def test_a_sweep_without_the_coconnected_filter_tables_connected_graphs_only(count_calls):
    # the table kernel refuses a disconnected graph, so a sweep's batch may
    # send it only connected G's and the complements a paired group reads
    from steinergut import steiner

    spec = EnumerationSpec(n=6)
    pool = enumerate_graphs(spec)
    tables = count_calls(steiner, "_tables")
    coconnected = sum(is_connected(complement(g)) for g in pool)
    for with_csv, expected in ((True, 183), (False, 30)):
        tables.clear()
        report = sweep(spec, ["all"], graphs=pool, csv_out=io.StringIO() if with_csv else None)
        assert report.graphs_scanned == len(pool) == 112
        blocks = [g for batch, in tables for g in batch]
        assert all(is_connected(g) for g in blocks)
        # with a CSV, 112 graphs, the 68 connected complements and 3 formula
        # audit tables, in 2 sweep batches and 1 audit pass; without one,
        # only the 15 graphs and 12 complements whose checks the degree
        # brackets leave open, in 1 batch, and the audit
        opened = len(pool) + coconnected if with_csv else 15 + 12
        assert len(blocks) == opened + 3 == expected
        assert len(tables) == (3 if with_csv else 2)


@pytest.mark.parametrize("coconnected", [False, True], ids=["connected", "coconnected"])
def test_the_caller_batches_a_graph_only_where_a_check_is_not_strict(count_calls, coconnected):
    # through order 7, for `all` and for each group: a graph the caller
    # leaves out of the batches holds every full check strictly at every
    # swept k, and each graph with a failed or tight check is batched.  The
    # brackets miss one strict graph only: the star K1,3 ("CF"), whose
    # bracket at k = 2 reaches the lower end of prop21's band (15 lies
    # inside (12, 81), its bracket [12, 36] does not); its complement is
    # disconnected, so the co-connected sweep never meets it
    from steinergut import BOUND_GROUPS
    from steinergut.bounds import GraphContext

    batches = count_calls(verify, "_sweep_batch")
    sets = ("all",) + BOUND_GROUPS
    batched = {s: 0 for s in sets}
    for n in range(2, 8):
        graphs = enumerate_graphs(EnumerationSpec(n=n))
        # a group's full checks are the `all` checks with its ids
        open_by = {s: set() for s in sets}
        if coconnected:
            graphs = [g for g in graphs if is_connected(complement(g))]
        for ctx in GraphContext.batch(graphs, BOUND_IDS):
            for k in range(2, n + 1):
                for bound, _, holds, tight in ctx.checks(k):
                    if not holds or tight:
                        open_by["all"].add(edge_mask(ctx.g))
                        open_by[bound.bound_id.split(".")[0]].add(edge_mask(ctx.g))
        for bound_set in sets:
            batches.clear()
            sweep(EnumerationSpec(n=n, require_coconnected=coconnected), [bound_set])
            masks = [em for *_, ms in batches for em in ms]
            assert len(masks) == len(set(masks))
            assert open_by[bound_set] <= set(masks), (n, bound_set)
            strict = set(masks) - open_by[bound_set]
            missed = {graph6_encode(from_edge_mask(n, em)) for em in strict}
            star = not coconnected and (n, bound_set) in {(4, "all"), (4, "prop21")}
            assert missed == ({"CF"} if star else set()), (n, bound_set)
            batched[bound_set] += len(masks)
    expected = {"all": 162, "prop21": 9, "lem22": 5, "thm32": 5, "cor41": 135, "ps": 32, "amgm": 6}
    if not coconnected:
        expected.update({"all": 174, "prop21": 20, "lem22": 15})
    assert batched == expected


def test_an_order_eight_lem22_sweep_tables_only_what_its_degree_brackets_leave_open(count_calls):
    # the degree brackets decide every k of 11,100 of the 11,117 graphs; the
    # other 17 are the graphs with a tight case (lem22.upper at k = 8)
    from steinergut import steiner

    verify._level(8)
    tables = count_calls(steiner, "_tables")
    batches = count_calls(verify, "_sweep_batch")
    report = sweep(EnumerationSpec(n=8), ["lem22"])
    assert (report.graphs_scanned, report.checks_run) == (11117, 155638)
    # only those 17 reach a batch: the caller counts the other 11,100
    assert [len(masks) for *_, masks in batches] == [17]
    assert not report.violations
    tight = {t.graph6 for t in report.tight_cases}
    assert len(tight) == len(report.tight_cases) == 17
    assert {(t.k, t.bound_id) for t in report.tight_cases} == {(8, "lem22.upper")}
    # the 17 open graphs in their batches, the 12 connected complements of
    # those read one at a time by their witnesses, and 3 formula audit tables
    *swept, (audit,) = tables
    names = [graph6_encode(g) for batch, in swept for g in batch]
    opened = [name for name in names if name in tight]
    complements = {graph6_encode(complement(graph6_decode(name))) for name in tight}
    assert sorted(opened) == sorted(tight)
    assert len(set(names) - tight) == len(names) - 17 == 12
    assert set(names) - tight <= complements
    assert len(names) + len(audit) == 17 + 12 + 3 == 32


def test_a_sweep_of_unpaired_bounds_builds_a_complement_only_for_a_witness(count_calls):
    from steinergut import graph

    spec = EnumerationSpec(n=7)
    graphs = enumerate_graphs(spec)
    complements = count_calls(graph, "complement")
    report = sweep(spec, ["lem22"], graphs=graphs)
    # lem22 never reads the complement; only the equality witness of each
    # tight graph asks whether its complement is connected
    assert report.graphs_scanned == 853
    assert len(complements) == len({t.graph6 for t in report.tight_cases}) == 4


@pytest.mark.parametrize(
    "search",
    [lambda spec: sweep(spec), lambda spec: find_extremal(spec, 3, "max-sgut")],
    ids=["sweep", "find_extremal"],
)
def test_a_search_over_disconnected_graphs_is_refused_before_enumerating(
    fresh_levels, count_calls, search
):
    from steinergut import canon

    canons = count_calls(canon, "_search")
    with pytest.raises(Disconnected) as err:
        search(EnumerationSpec(n=4, require_connected=False))
    assert "\n" not in str(err.value)
    assert len(canons) == 0


@pytest.mark.parametrize(
    "n, k, error, text",
    [(5, 9, KOutOfRange, "k must satisfy 2 <= k <= 5, got 9"),
     (9, 99, OrderTooLarge, "enumeration handles orders 1..8, got 9")],
    ids=["bad-k", "order-first"],
)
def test_a_sweep_with_a_bad_k_is_refused_before_enumerating(
    fresh_levels, count_calls, n, k, error, text
):
    from steinergut import canon

    canons = count_calls(canon, "_search")
    with pytest.raises(error) as err:
        sweep(EnumerationSpec(n=n, k_range=(k,)))
    assert str(err.value) == text
    assert len(canons) == 0


@pytest.mark.parametrize("order", [5, 7], ids=["smaller", "larger"])
def test_a_sweep_refuses_given_graphs_of_another_order(count_calls, order):
    # read back at order 6 from its edge mask, K5 would gain an isolated
    # vertex and K7 would overflow the order-6 triangle
    batches = count_calls(verify, "_sweep_batch")
    path = from_edge_list(6, [(v, v + 1) for v in range(5)])
    complete = from_edge_list(order, list(combinations(range(order), 2)))
    with pytest.raises(ValueError) as err:
        sweep(EnumerationSpec(n=6), graphs=[path, complete])
    assert str(err.value) == f"a sweep of order 6 got a graph of order {order}"
    assert len(batches) == 0


@pytest.mark.parametrize("coconnected", [False, True], ids=["connected", "coconnected"])
def test_a_sweep_refuses_a_disconnected_given_graph_before_any_batch(count_calls, coconnected):
    # the caller settles graphs without building them, so a given graph's
    # connectivity is refused up front, with the index layer's one text
    batches = count_calls(verify, "_sweep_batch")
    path = from_edge_list(6, [(v, v + 1) for v in range(5)])
    apart = from_edge_list(6, [(0, 1), (2, 3), (4, 5)])
    with pytest.raises(Disconnected) as err:
        sweep(EnumerationSpec(n=6, require_coconnected=coconnected), graphs=[path, apart])
    assert str(err.value) == "invariant defined for connected graphs only"
    assert len(batches) == 0


def test_order_eight_coconnected_sweep_matches_golden_totals(universe):
    spec = EnumerationSpec(n=8, require_coconnected=True)
    pool = [g for g in universe[8] if is_connected(complement(g))]
    report = sweep(spec, ["all"], graphs=pool)
    assert report.graphs_scanned == 9888
    assert report.checks_run == 1107456
    assert len(report.violations) == 3588
    assert {v.bound_id for v in report.violations} == {"cor41.1.sum_upper"}
    assert len(report.tight_cases) == 353
    text = json.dumps(report_to_dict(report))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "7b600b33bc956d168e133a6b88247c0ef47dbc11a73e085d2ec08de411f59c88"
    )
