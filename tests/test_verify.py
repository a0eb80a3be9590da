import hashlib
import io
import json
import re
from concurrent.futures import ProcessPoolExecutor
from itertools import combinations
from math import factorial

import networkx as nx
import pytest
from hypothesis import given

import brute
from steinergut import (
    BOUND_IDS,
    EnumerationSpec,
    KOutOfRange,
    NoCaseApplies,
    OrderTooLarge,
    canonical_key_and_perms,
    complement,
    enumerate_graphs,
    find_extremal,
    from_edge_list,
    graph6_decode,
    graph6_encode,
    induced_connected,
    is_connected,
    relabel,
    report_to_dict,
    run_cli,
    shard_graphs,
    steiner_gutman,
    sweep,
    write_checks_csv,
)
from steinergut import cli, verify
from strategies import connected_graphs

CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}
ALL_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}

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
}


# sha256 of `verify --n-max 7 --coconnected --set all` stdout and its --csv file
ORDER_SEVEN_REPORT_SHA256 = "37b05eb6d0a923199000e56291b535d7263995623f0c95f49a6f848c981c5511"
ORDER_SEVEN_CSV_SHA256 = "3948b21259f37cbd0e3e7a0623deb5360f79ca1724def9b20f40c2e7f75d36bf"


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


def _names_digest(graphs):
    return hashlib.sha256("\n".join(graph6_encode(g) for g in graphs).encode()).hexdigest()


def test_connected_class_counts(connected_by_order):
    for n, expected in CONNECTED_COUNTS.items():
        assert len(connected_by_order[n]) == expected


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
        aut = len(canonical_key_and_perms(g.adj)[1])
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


def test_sweep_order_four_coconnected():
    report = sweep(EnumerationSpec(n=4, require_coconnected=True))
    assert report.graphs_scanned == 1
    assert report.checks_run == 3 * 16
    assert report.violations == ()
    assert len(report.formula_audit_findings) == 5
    assert report.checks == ()  # not collected unless asked


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


def test_collect_checks_and_csv(tmp_path):
    report = sweep(EnumerationSpec(n=4, require_coconnected=True), collect_checks=True)
    assert len(report.checks) == report.checks_run
    out = tmp_path / "checks.csv"
    with open(out, "w", newline="") as fh:
        write_checks_csv(report.checks, fh)
    lines = out.read_text().strip().splitlines()
    assert len(lines) == report.checks_run + 1
    assert lines[0].startswith("n,graph6,k,bound_id")


def test_shard_graphs_partitions_in_order():
    items = list(range(7))
    shards = shard_graphs(items, 3)
    assert [len(s) for s in shards] == [3, 2, 2]
    assert [x for s in shards for x in s] == items
    with pytest.raises(ValueError):
        shard_graphs(items, 0)


@pytest.mark.parametrize(
    "n, jobs", [(5, 2), (5, 3), (4, 3)], ids=["n5-jobs2", "n5-jobs3", "n4-jobs3"]
)
def test_sliced_sweep_matches_the_one_slice_report(n, jobs):
    # order 4 has one co-connected graph, so two of its three slices are empty
    spec = EnumerationSpec(n=n, require_coconnected=True)
    direct = sweep(spec, collect_checks=True, jobs=1)
    sliced = sweep(spec, collect_checks=True, jobs=jobs)
    assert report_to_dict(sliced) == report_to_dict(direct)
    assert sliced.checks == direct.checks


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
    with ProcessPoolExecutor(max_workers=2) as pool:
        for n, digest in CONNECTED_SHA256.items():
            got = enumerate_graphs(EnumerationSpec(n=n), pool.map, 2)
            assert _names_digest(got) == digest, n
        for n, digest in ALL_SHA256.items():
            got = enumerate_graphs(EnumerationSpec(n=n, require_connected=False), pool.map, 2)
            assert _names_digest(got) == digest, n


@pytest.mark.parametrize("connected", [True, False])
def test_slicing_does_not_change_any_level(connected, monkeypatch):
    levels = []
    for jobs in (1, 2, 3):
        monkeypatch.setattr(verify, "_LEVELS", {})
        spec = EnumerationSpec(n=7, require_connected=connected)
        enumerate_graphs(spec, map, jobs)
        levels.append(dict(verify._LEVELS))
    assert levels[0] == levels[1] == levels[2]
    assert sorted(levels[0]) == [(n, connected) for n in range(1, 8)]


def test_enumeration_canonises_each_class_once(count_calls, monkeypatch):
    from steinergut import canon

    canons = count_calls(canon, "canonical_key_and_perms")
    for jobs in (1, 2):
        monkeypatch.setattr(verify, "_LEVELS", {})
        del canons[:]
        for n in range(1, 9):
            enumerate_graphs(EnumerationSpec(n=n), map, jobs)
        # through order 8: one canon per parent for its automorphisms (996)
        # and one per orbit-minimum child kept by the deletion rule (18,311)
        assert len(canons) == 19307, jobs


def _rows(n, edges):
    return from_edge_list(n, edges).adj


def test_deletion_rule_rejects_a_smaller_degree_non_cut_vertex():
    # the 3-path 0-1-2 with the new vertex 3 joined to all three: vertex 0
    # has degree 2 < 3 and the rest stays connected without it
    rows = _rows(4, [(0, 1), (1, 2), (3, 0), (3, 1), (3, 2)])
    assert not verify._keeps(rows, True)
    assert not verify._keeps(rows, False)


def test_deletion_rule_ignores_a_smaller_degree_cut_vertex():
    # two K4s joined through vertex 4, of degree 2; the new vertex 8 has
    # degree 3, and every non-cut vertex has degree at least 3
    k4s = [(u, v) for block in ((0, 1, 2, 3), (5, 6, 7, 8)) for u, v in combinations(block, 2)]
    rows = _rows(9, k4s + [(3, 4), (4, 5)])
    assert verify._keeps(rows, True)
    # with every vertex deletable, vertex 4 rejects the child
    assert not verify._keeps(rows, False)


@given(connected_graphs(min_n=2, max_n=8))
def test_a_least_degree_non_cut_vertex_placed_last_passes_the_rule(g):
    # the premise of the enumeration: every class has a child that is kept
    def last(v):
        return relabel(g, [u - (u > v) if u != v else g.n - 1 for u in range(g.n)]).adj

    non_cut = [u for u in range(g.n) if induced_connected(g, g.full_mask ^ 1 << u)]
    assert verify._keeps(last(min(non_cut, key=g.degrees.__getitem__)), True)
    assert verify._keeps(last(min(range(g.n), key=g.degrees.__getitem__)), False)


@pytest.mark.slow
def test_order_nine_level_matches_its_golden_digest(fresh_levels):
    # above ENUMERATION_CAP, so the level is built directly; about 80 s on 2 cores
    with ProcessPoolExecutor(max_workers=2) as pool:
        level = verify._canonical_graphs(9, True, pool.map, 2)
    assert len(level) == 261080
    assert _names_digest(level) == (
        "ecaa74d8e3822ff8af5ef9bbc0f57044d74d41bc8c54d50531b30c6754dc643f"
    )


def test_sweep_builds_each_invariant_once_per_graph(count_calls):
    from steinergut import graph, indices, steiner

    specs = [EnumerationSpec(n=n, require_coconnected=True) for n in range(2, 8)]
    pools = [enumerate_graphs(spec) for spec in specs]
    tables = count_calls(steiner, "steiner_all_subsets")
    sums = count_calls(indices, "_all_k_sums")
    complements = count_calls(graph, "complement")
    scanned = checks = 0
    for spec, pool in zip(specs, pools):
        report = sweep(spec, ["all"], graphs=pool)
        scanned += report.graphs_scanned
        checks += report.checks_run
    assert (scanned, checks) == (739, 69552)
    # G's and the complement's table per graph, plus the formula audit's
    # family members; each table's all-k sums are computed once
    assert len(tables) == len(sums) == 1496
    assert len(complements) == scanned


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
