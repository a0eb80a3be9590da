import io
from dataclasses import asdict
from fractions import Fraction
from itertools import combinations
from math import ceil, comb, floor, isqrt, prod

import networkx as nx
import pytest
from hypothesis import given, settings

import brute
from steinergut import (
    BOUND_GROUPS,
    BOUND_IDS,
    ComplementDisconnected,
    Disconnected,
    KOutOfRange,
    NotTight,
    SquareRoot,
    complement,
    diagnose_equality,
    equality_witness,
    evaluate_bounds,
    expand_bound_ids,
    from_edge_list,
    graph6_decode,
    induced_connected,
    is_connected,
    is_k_connected,
    steiner_gutman,
)
from strategies import connected_graphs


def path(n):
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def house():
    # C5 plus one chord: degrees 2,2,2,3,3 and a connected complement
    return from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])


def test_bound_id_inventory():
    assert len(BOUND_IDS) == 16
    assert len(set(BOUND_IDS)) == 16
    assert tuple(sorted(set(b.split(".")[0] for b in BOUND_IDS))) == tuple(sorted(BOUND_GROUPS))


def test_expand_bound_ids():
    assert expand_bound_ids(None) == list(BOUND_IDS)
    assert expand_bound_ids(["all"]) == list(BOUND_IDS)
    assert expand_bound_ids(["thm32"]) == [
        "thm32.1.sum_upper",
        "thm32.1.product_upper",
        "thm32.2.sum_lower",
        "thm32.3.product_lower",
    ]
    # canonical order and dedup regardless of request order
    assert expand_bound_ids(["amgm.sum_lower", "prop21.upper", "prop21.upper"]) == [
        "prop21.upper",
        "amgm.sum_lower",
    ]
    with pytest.raises(ValueError):
        expand_bound_ids(["thm99"])


def test_prop21_on_p3():
    up, lo = evaluate_bounds(path(3), 2, ["prop21"])
    assert up.bound_id == "prop21.upper"
    assert up.bound_value == 16 and up.actual == 6 and up.holds and not up.tight
    assert lo.case_label == "min_deg=1"
    assert lo.bound_value == 6 and lo.holds and lo.tight


def test_prop21_needs_order_three():
    with pytest.raises(KOutOfRange):
        evaluate_bounds(path(2), 2, ["prop21"])


def test_lem22_on_p3():
    up, lo = evaluate_bounds(path(3), 2, ["lem22"])
    assert up.bound_value == 32 and up.holds
    assert lo.case_label == "min_deg=1"
    assert lo.bound_value == 3 and lo.holds and not lo.tight


def test_lem22_lower_case_switch():
    _, lo = evaluate_bounds(cycle(4), 2, ["lem22"])
    assert lo.case_label == "min_deg>=2"
    assert lo.bound_value == 2 * 4 * 1 * 3  # 2m(k-1)C(n-1,k-1)


def test_paired_bounds_need_connected_complement():
    star = from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(ComplementDisconnected):
        evaluate_bounds(star, 2, ["thm32"])
    with pytest.raises(ComplementDisconnected):
        evaluate_bounds(star, 2, ["amgm"])


def test_cor41_needs_order_four():
    with pytest.raises(KOutOfRange):
        evaluate_bounds(complete(3), 2, ["cor41"])


def test_context_runs_what_checks_accepts_and_skips_what_it_raises():
    from steinergut.bounds import GraphContext

    # P2: below prop21's and cor41's least order, complement disconnected
    ctx = GraphContext(path(2), BOUND_IDS)
    skipped = ctx.skipped
    assert list(skipped) == ["prop21", "thm32", "cor41", "ps", "amgm"]
    assert [type(e) for e in skipped.values()] == [
        KOutOfRange, ComplementDisconnected, KOutOfRange, ComplementDisconnected,
        ComplementDisconnected,
    ]
    assert str(skipped["prop21"]) == "needs order at least 3"
    assert str(skipped["cor41"]) == "needs order at least 4"
    assert str(skipped["thm32"]) == "complement is disconnected"
    # checks raises nothing and runs exactly the ids no skipped group holds
    assert [c[0].bound_id for c in ctx.checks(2)] == ["lem22.upper", "lem22.lower"]
    with pytest.raises(KOutOfRange, match="^needs order at least 3$"):
        evaluate_bounds(path(2), 2, list(BOUND_IDS))
    only = GraphContext(path(2), ["lem22.upper"])
    assert [c[0].bound_id for c in only.checks(2)] == ["lem22.upper"]
    assert only.skipped == {}


def test_case_labels_cover_the_degree_splits():
    for g, expected in [
        (cycle(5), "min_deg>=2,max_deg<=n-3"),
        (house(), "min_deg>=2,max_deg=n-2"),
        (path(5), "min_deg=1,max_deg<=n-3"),
        (path(4), "min_deg=1,max_deg=n-2"),
    ]:
        checks = evaluate_bounds(g, 2, ["thm32"])
        assert checks[2].bound_id == "thm32.2.sum_lower"
        assert checks[2].case_label == expected
        assert checks[3].case_label == expected


def test_branch_labels():
    cases = [
        (cycle(6), "min+max<n-1"),
        (complement(cycle(6)), "min+max>n-1"),
        (cycle(5), "min+max=n-1"),
        (path(4), "min+max=n-1"),
    ]
    for g, expected in cases:
        _, lo = evaluate_bounds(g, 2, ["ps"])
        assert lo.case_label == expected
        _, lo = evaluate_bounds(g, 2, ["amgm"])
        assert lo.case_label == expected


def test_cycle5_attains_nearly_everything_at_k5():
    checks = evaluate_bounds(cycle(5), 5)
    assert [c.bound_id for c in checks] == list(BOUND_IDS)
    assert all(c.holds for c in checks)
    by_id = {c.bound_id: c for c in checks}
    assert by_id["thm32.1.sum_upper"].bound_value == 256
    assert by_id["thm32.1.sum_upper"].actual == 256
    assert by_id["thm32.1.product_upper"].actual == 16384
    not_tight = [c.bound_id for c in checks if not c.tight]
    assert not_tight == ["lem22.lower"]


def test_amgm_root_lower_on_p4():
    up, lo = evaluate_bounds(path(4), 3, ["amgm"])
    assert lo.case_label == "min+max=n-1"
    assert isinstance(lo.bound_value, SquareRoot)
    assert lo.bound_value.square == Fraction(2048)
    assert lo.actual == 56
    assert lo.holds == (2048 <= 56 * 56)
    assert not lo.tight
    assert up.bound_value == 192 and up.holds


def test_amgm_perfect_square_stays_rational():
    _, lo = evaluate_bounds(cycle(5), 5, ["amgm"])
    assert not isinstance(lo.bound_value, SquareRoot)
    assert lo.bound_value == 256 and lo.tight


def test_known_sum_upper_violation():
    g = graph6_decode("DBg")
    checks = evaluate_bounds(g, 5, ["cor41.1.sum_upper"])
    assert len(checks) == 1
    assert not checks[0].holds
    assert checks[0].bound_value == 256
    assert checks[0].actual == 320
    # the max-aggregate companion holds on the same graph
    companion = evaluate_bounds(g, 5, ["thm32.1.sum_upper"])[0]
    assert companion.holds


def test_evaluate_bounds_subset_and_order():
    checks = evaluate_bounds(path(3), 2, ["lem22.upper"])
    assert [c.bound_id for c in checks] == ["lem22.upper"]
    checks = evaluate_bounds(path(4), 2, ["amgm", "prop21"])
    assert [c.bound_id for c in checks] == [
        "prop21.upper",
        "prop21.lower",
        "amgm.sum_upper",
        "amgm.sum_lower",
    ]


@given(connected_graphs(min_n=3, max_n=6))
@settings(max_examples=60)
def test_single_graph_bounds_hold(g):
    for check in evaluate_bounds(g, 2, ["prop21", "lem22"]):
        assert check.holds


@given(connected_graphs(min_n=4, max_n=6).filter(lambda g: is_connected(complement(g))))
@settings(max_examples=40)
def test_paired_bounds_hold_except_the_min_aggregate(g):
    for k in range(2, g.n + 1):
        for check in evaluate_bounds(g, k):
            if check.bound_id != "cor41.1.sum_upper":
                assert check.holds, (check.bound_id, k)


def test_equality_witness_on_complete_graph():
    w = equality_witness(complete(4), 4, "prop21.upper")
    assert w.regular and w.k_equals_n
    assert w.n_minus_k_plus_1_connected
    assert not w.path_with_k_equals_n


def test_equality_witness_rejects_strict_bounds():
    with pytest.raises(NotTight):
        equality_witness(complete(4), 3, "prop21.upper")
    with pytest.raises(ValueError):
        equality_witness(complete(4), 4, "nope.upper")


def test_diagnose_equality_fields():
    w = diagnose_equality(cycle(5), 5)
    assert w.regular and w.k_equals_n
    assert w.n_minus_k_plus_1_connected
    assert w.all_k_subsets_induce_connected
    assert w.steiner_minimal_in_both
    assert not w.path_with_k_equals_n
    assert set(asdict(w)) == {
        "regular",
        "k_equals_n",
        "n_minus_k_plus_1_connected",
        "all_k_subsets_induce_connected",
        "steiner_minimal_in_both",
        "path_with_k_equals_n",
        "p3_with_k_2",
    }

    w = diagnose_equality(path(3), 2)
    assert w.p3_with_k_2 and not w.regular


def test_sum_upper_dominates_sum_lower_across_instances():
    # lattice consistency: the max-aggregate sum upper never dips below the
    # size-free sum lower, even where the min-aggregate upper misbehaves
    from steinergut import EnumerationSpec, enumerate_graphs

    for n in range(4, 7):
        for g in enumerate_graphs(EnumerationSpec(n=n, require_coconnected=True)):
            for k in range(2, n + 1):
                checks = evaluate_bounds(g, k, ["thm32.1.sum_upper", "cor41.1.sum_lower"])
                assert checks[0].bound_value >= checks[1].bound_value


def test_amgm_root_tracks_a_float_evaluation():
    import math
    import random

    from steinergut import EnumerationSpec, enumerate_graphs

    pool = []
    for n in range(4, 7):
        for g in enumerate_graphs(EnumerationSpec(n=n, require_coconnected=True)):
            pool.extend((g, k) for k in range(2, n + 1))
    rng = random.Random(61803)
    for g, k in rng.sample(pool, 100):
        _, lo = evaluate_bounds(g, k, ["amgm"])
        value = lo.bound_value
        as_float = math.sqrt(value.square) if isinstance(value, SquareRoot) else float(value)
        n, dmin, dmax = g.n, min(g.degrees), max(g.degrees)
        base = dmin * (n - dmin - 1) if dmin + dmax <= n - 1 else dmax * (n - dmax - 1)
        from math import comb

        expected = 2 * (k - 1) * comb(n, k) * base ** (k / 2)
        assert math.isclose(as_float, expected, rel_tol=1e-9)


@given(connected_graphs(min_n=2, max_n=7))
def test_branch_bases_coincide_on_the_boundary(g):
    n, dmin, dmax = g.n, min(g.degrees), max(g.degrees)
    if dmin + dmax == n - 1:
        assert dmin * (n - dmin - 1) == dmax * (n - dmax - 1)


def test_prop21_lower_tight_on_kn_minus_matching():
    from math import comb

    g = from_edge_list(6, [(i, j) for i in range(6) for j in range(i + 1, 6)
                           if (i, j) not in {(0, 1), (2, 3), (4, 5)}])
    assert steiner_gutman(g, 3) == 2 * 4**3 * comb(6, 3)
    _, lo = evaluate_bounds(g, 3, ["prop21"])
    assert lo.case_label == "min_deg>=2" and lo.tight


def test_steiner_minimality_matches_a_direct_subset_scan(connected_by_order):
    def every_k_set_connected(g, k):
        return all(
            induced_connected(g, sum(1 << v for v in verts))
            for verts in combinations(range(g.n), k)
        )

    for n, graphs in connected_by_order.items():
        for g in graphs:
            gbar = complement(g)
            for k in range(2, n + 1):
                w = diagnose_equality(g, k)
                minimal = every_k_set_connected(g, k)
                assert w.all_k_subsets_induce_connected == minimal
                both = minimal and is_connected(gbar) and every_k_set_connected(gbar, k)
                assert w.steiner_minimal_in_both == both



def test_path_predicates_match_networkx(connected_by_order):
    # the witness's path test reads only m and the degrees of a connected G
    for n, graphs in connected_by_order.items():
        for g in graphs:
            is_path = nx.is_isomorphic(brute.to_networkx(g), nx.path_graph(n))
            for k in range(2, n + 1):
                w = diagnose_equality(g, k)
                assert w.path_with_k_equals_n == (is_path and k == n)
                assert w.p3_with_k_2 == (is_path and n == 3 and k == 2)

GUARDED = {
    **{
        group: lambda g, k, group=group: evaluate_bounds(g, k, [group])
        for group in BOUND_GROUPS
    },
    "evaluate_bounds": evaluate_bounds,
    "empty request": lambda g, k: evaluate_bounds(g, k, []),
    "diagnose_equality": diagnose_equality,
}
D, K, C = Disconnected, KOutOfRange, ComplementDisconnected


@pytest.mark.parametrize(
    "edges, n, k, expected",
    [
        # 2K2: disconnected comes first for every entry point
        ([(0, 1), (2, 3)], 4, 2, [D, D, D, D, D, D, D, D, D]),
        # P3 with k = 5: connected, then k out of range
        ([(0, 1), (1, 2)], 3, 5, [K, K, K, K, K, K, K, K, K]),
        # P2: below prop21's and cor41's least order, complement disconnected
        ([(0, 1)], 2, 2, [K, None, C, K, C, C, K, None, None]),
        # K3: the order guard of cor41 fires before its complement guard
        ([(0, 1), (0, 2), (1, 2)], 3, 2, [None, None, C, K, C, C, C, None, None]),
        # K1,3: order 4, so only the complement guard remains
        ([(0, 1), (0, 2), (0, 3)], 4, 2, [None, None, C, C, C, C, C, None, None]),
        # K2 + K1: disconnected before cor41's least order
        ([(0, 1)], 3, 2, [D, D, D, D, D, D, D, D, D]),
        # 2K2 with k = 99: disconnected before k, even for an empty request
        ([(0, 1), (2, 3)], 4, 99, [D, D, D, D, D, D, D, D, D]),
        # P4 with k = 9: k out of range, even for an empty request
        ([(0, 1), (1, 2), (2, 3)], 4, 9, [K, K, K, K, K, K, K, K, K]),
    ],
    ids=["2K2", "P3-k5", "P2", "K3", "K1,3", "K2+K1", "2K2-k99", "P4-k9"],
)
def test_guard_order(edges, n, k, expected):
    g = from_edge_list(n, edges)
    for (name, fn), error in zip(GUARDED.items(), expected):
        try:
            fn(g, k)
        except Exception as exc:
            raised = type(exc)
        else:
            raised = None
        assert raised is error, name


def _literal_checks(g, k):
    """Every applicable bound of ``g`` at ``k``, from the printed formulas in
    ``brute``, compared as Fractions or SquareRoots."""
    from steinergut.bounds import _GROUP_IDS, PAIRED_GROUPS, BoundCheck

    degs = g.degrees
    signature = (g.n, g.m, min(degs), max(degs), degs.count(1))
    gbar = complement(g)
    co_connected = is_connected(gbar)
    sg = steiner_gutman(g, k)
    sgbar = steiner_gutman(gbar, k) if co_connected else None
    out = []
    for group in BOUND_GROUPS:
        # the paper's preconditions, restated: least orders 3 and 4, and a
        # connected complement for the paired groups
        if g.n < {"prop21": 3, "cor41": 4}.get(group, 0):
            continue
        if group in PAIRED_GROUPS and not co_connected:
            continue
        rows = brute.bound_rows(group, signature, k)
        for bound_id, (case, value) in zip(_GROUP_IDS[group], rows):
            kind = bound_id.rsplit(".", 1)[1]
            if kind.startswith("sum"):
                actual = sg + sgbar
            elif kind.startswith("product"):
                actual = sg * sgbar
            else:
                actual = sg
            upper = kind.endswith("upper")
            if isinstance(value, SquareRoot):
                sign = brute.compare_root(value, actual)
                holds = sign >= 0 if upper else sign <= 0
                tight = sign == 0
            else:
                holds = actual <= value if upper else actual >= value
                tight = actual == value
            out.append(BoundCheck(bound_id, case, value, actual, holds, tight))
    return out


@given(connected_graphs(min_n=2, max_n=8))
@settings(max_examples=60)
def test_memoized_rows_match_a_literal_recomputation(g):
    # labeled graphs: the rows are shared by signature, the actuals are not
    for k in range(2, g.n + 1):
        expected = _literal_checks(g, k)
        got = evaluate_bounds(g, k, [c.bound_id for c in expected])
        assert got == expected
        assert [type(c.bound_value) for c in got] == [type(c.bound_value) for c in expected]


def test_graphs_sharing_a_signature_share_rows_not_verdicts():
    from steinergut.bounds import _plan

    first, second = graph6_decode("E?NO"), graph6_decode("E@QW")
    for g in (first, second):
        degs = g.degrees
        assert (g.n, g.m, min(degs), max(degs), degs.count(1)) == (6, 5, 1, 3, 3)
    _plan.cache_clear()
    a = evaluate_bounds(first, 3)
    # one plan holds every group's rows at every k of the signature
    assert _plan.cache_info()[:2] == (0, 1)
    b = evaluate_bounds(second, 3)
    evaluate_bounds(second, 6)
    assert _plan.cache_info()[:2] == (2, 1)
    assert [c.bound_value for c in a] == [c.bound_value for c in b]
    assert (a[0].actual, b[0].actual) == (233, 223)
    assert a == _literal_checks(first, 3)
    assert b == _literal_checks(second, 3)


def test_plan_values_match_the_printed_formulas(universe):
    # every signature of a co-connected graph through order 8, at every k:
    # the plan's integers, once reduced, are the printed formulas' Fractions
    # and SquareRoots, each check's denominator is positive, and the plan is
    # built once per signature
    from steinergut.bounds import _GROUP_IDS, _decide, _plan, _value

    signatures = set()
    for graphs in universe.values():
        for g in graphs:
            if g.n >= 4 and is_connected(complement(g)):
                degs = g.degrees
                signatures.add((g.n, g.m, min(degs), max(degs), degs.count(1)))
    assert len(signatures) == 264
    rows = 0
    for signature in sorted(signatures):
        n = signature[0]
        runs = _decide(BOUND_IDS, n, True).runs
        plan = _plan(runs, signature)
        assert plan[:2] == (((), ()),) * 2 and len(plan) == n + 1
        for k in range(2, n + 1):
            expected = [
                (bound_id, case, value)
                for group, _ in runs
                for bound_id, (case, value) in zip(
                    _GROUP_IDS[group], brute.bound_rows(group, signature, k)
                )
            ]
            got = [(b.bound_id, b.case, _value(b)) for b in plan[k].bounds]
            assert got == expected, (signature, k)
            assert [type(v) for *_, v in got] == [type(v) for *_, v in expected]
            assert all(b.den > 0 for b in plan[k].bounds)
            # each operand's band: the largest floor of its lower bounds (that
            # of the square root for the root row), the least ceiling of its
            # upper bounds
            lows, highs = {}, {}
            for b, (*_, value) in zip(plan[k].bounds, expected):
                if b.upper:
                    highs[b.operand] = min(highs.get(b.operand, ceil(value)), ceil(value))
                else:
                    edge = isqrt(floor(value.square)) if b.root else floor(value)
                    lows[b.operand] = max(lows.get(b.operand, edge), edge)
            bands = [(op, lows.get(op, -1), highs.get(op)) for op in sorted({*lows, *highs})]
            assert plan[k].bands == tuple(bands), (signature, k)
            rows += len(got)
    assert rows == 16 * sum(n - 1 for n, *_ in signatures)


def test_a_disconnected_graph_builds_no_table(count_calls):
    from steinergut import steiner

    calls = count_calls(steiner, "_tables")
    g = from_edge_list(16, [(0, 1)])
    with pytest.raises(Disconnected):
        evaluate_bounds(g, 2)
    with pytest.raises(Disconnected):
        equality_witness(g, 2, "lem22.upper")
    with pytest.raises(Disconnected):
        diagnose_equality(g, 2)
    # a bad k on a connected graph is refused before its table too
    with pytest.raises(KOutOfRange):
        evaluate_bounds(path(16), 17)
    with pytest.raises(KOutOfRange) as err:
        evaluate_bounds(path(5), 9)
    assert str(err.value) == "k must satisfy 2 <= k <= 5, got 9"
    assert calls == []


def _band_findings_agree(graphs, coconnected):
    """Over every context of ``graphs`` and every k: the banded checks are
    empty only where every check holds strictly, and otherwise are the full
    checks, and every k the degree brackets certify holds strictly; returns
    the checks run and the findings, in order.  With ``coconnected`` only
    the graphs whose complement is connected are checked."""
    from steinergut.bounds import GraphContext, _certified

    if coconnected:
        graphs = [g for g in graphs if is_connected(complement(g))]
    runs, findings = 0, []
    for ctx in GraphContext.batch(graphs, BOUND_IDS):
        if not ctx.runs:
            continue
        certified = _certified(ctx.runs, tuple(sorted(ctx.g.degrees)))
        for k in range(2, ctx.g.n + 1):
            full = ctx.checks(k)
            banded = ctx.checks(k, banded=True)
            assert len(full) == len(ctx.plan[k].bounds)
            strict = all(holds and not tight for _, _, holds, tight in full)
            assert banded == ([] if strict else full), (ctx.g, k)
            # a k the degree brackets certify holds each of its checks strictly
            assert strict or not certified >> k & 1, (ctx.g, k)
            runs += len(full)
            findings += [(ctx.g, k, c[0].bound_id) for c in banded if not c[2] or c[3]]
    return runs, findings


def _assert_degree_brackets(graphs):
    """(k-1) e_k <= SGut_k <= (n-1) e_k for each connected graph of
    ``graphs`` (all of one order) at every k, e_k the k-th elementary
    symmetric polynomial of its degrees, with the low end reached exactly
    where every k-set induces a connected subgraph: SW_k = (k-1) C(n, k)."""
    from steinergut.bounds import _elementary
    from steinergut.indices import _sums

    for g, sums in zip(graphs, _sums(graphs, sdd=False)):
        n, e = g.n, _elementary(g.degrees)
        for k in range(2, n + 1):
            assert e[k] == sum(map(prod, combinations(g.degrees, k)))
            assert (k - 1) * e[k] <= sums.sgut[k] <= (n - 1) * e[k], (g, k)
            assert (sums.sgut[k] == (k - 1) * e[k]) == (sums.sw[k] == (k - 1) * comb(n, k))


def test_degree_brackets_hold_on_every_class_and_its_complement_through_order_seven():
    from steinergut import EnumerationSpec, enumerate_graphs

    for n in range(2, 8):
        graphs = enumerate_graphs(EnumerationSpec(n=n))
        _assert_degree_brackets(graphs)
        _assert_degree_brackets([h for h in map(complement, graphs) if is_connected(h)])


def test_the_witness_reads_its_vertex_connectivity_off_the_minimal_sum():
    # on a connected G with 2 <= k <= n, G is (n-k+1)-connected exactly when
    # every k-set induces a connected subgraph: checked against the deletion
    # oracle on every connected class through order 7 at every k
    from steinergut import EnumerationSpec, enumerate_graphs

    pairs = 0
    for n in range(2, 8):
        for g in enumerate_graphs(EnumerationSpec(n=n)):
            for k in range(2, n + 1):
                witness = diagnose_equality(g, k)
                oracle = is_k_connected(g, n - k + 1)
                assert witness.n_minus_k_plus_1_connected == oracle, (g, k)
                assert witness.all_k_subsets_induce_connected == oracle, (g, k)
                pairs += 1
    assert pairs == 5785


@given(connected_graphs(min_n=8, max_n=12))
@settings(max_examples=40)
def test_degree_brackets_hold_on_labeled_graphs_of_orders_eight_to_twelve(g):
    h = complement(g)
    _assert_degree_brackets([g] + ([h] if is_connected(h) else []))


@pytest.mark.parametrize("coconnected", [False, True], ids=["connected", "coconnected"])
def test_bands_pass_exactly_the_strict_checks_through_order_seven(coconnected):
    from steinergut import EnumerationSpec, enumerate_graphs, sweep

    runs = found = 0
    for n in range(2, 8):
        graphs = enumerate_graphs(EnumerationSpec(n=n))
        checks_run, findings = _band_findings_agree(graphs, coconnected)
        runs += checks_run
        found += len(findings)
        # the sweep's band path and its per-check CSV path report alike
        spec = EnumerationSpec(n=n, require_coconnected=coconnected)
        rows = io.StringIO()
        assert sweep(spec, ["all"]) == sweep(spec, ["all"], csv_out=rows)
    if coconnected:
        assert (runs, found) == (69552, 435)


@pytest.mark.slow
@pytest.mark.parametrize("coconnected", [False, True], ids=["connected", "coconnected"])
def test_bands_pass_exactly_the_strict_checks_at_order_eight(universe, coconnected):
    from steinergut import EnumerationSpec, sweep

    _band_findings_agree(universe[8], coconnected)
    spec = EnumerationSpec(n=8, require_coconnected=coconnected)
    assert sweep(spec, ["all"]) == sweep(spec, ["all"], csv_out=io.StringIO())


def test_a_band_edge_is_decided_as_its_check_decides_it():
    # each bound alone, with its operand set at its band's edge and one to
    # either side: the banded checks are empty exactly where the check holds
    # strictly, for upper and lower rows, ones whose den divides num and ones
    # whose den does not, and the root row
    from steinergut.bounds import GraphContext
    from steinergut.indices import _Sums

    seen = set()
    for g in (graph6_decode("Ch"), house(), cycle(5), graph6_decode("E?NO")):
        assert is_connected(complement(g))
        for bound_id in BOUND_IDS:
            ctx = GraphContext(g, [bound_id])
            if not ctx.runs:
                continue
            for k in range(2, g.n + 1):
                (bound,), ((operand, lo, hi),) = ctx.plan[k]
                edge = lo if hi is None else hi
                assert (lo == -1) == bound.upper and (hi is None) != bound.upper
                for a in (edge - 1, edge, edge + 1):
                    zeros = [0] * (g.n + 1)
                    sg = zeros[:k] + [a] + zeros[k + 1 :]
                    sgbar = zeros[:k] + [int(operand == 2)] + zeros[k + 1 :]
                    ctx.sums, ctx.co_sums = _Sums(tuple(sg), (), None), _Sums(tuple(sgbar), (), None)
                    ((_, actual, holds, tight),) = ctx.checks(k)
                    assert actual == a
                    strict = holds and not tight
                    assert ctx.checks(k, banded=True) == ([] if strict else ctx.checks(k))
                    # just inside the band the check is strict, at its edge not
                    assert strict == (a != edge and (a < edge) == bound.upper)
                seen.add((bound.upper, bound.root, bound.num % bound.den == 0))
    assert seen >= {(True, False, True), (True, False, False), (False, False, True),
                    (False, False, False), (False, True, True)}
