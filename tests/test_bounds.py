from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings

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


def test_applicable_runs_what_checks_accepts_and_skips_what_it_raises():
    from steinergut.bounds import GraphContext

    # P2: below prop21's and cor41's least order, complement disconnected
    ctx = GraphContext(path(2))
    runnable, skipped = ctx.applicable(list(BOUND_IDS))
    assert runnable == ["lem22.upper", "lem22.lower"]
    assert list(skipped) == ["prop21", "thm32", "cor41", "ps", "amgm"]
    assert [type(e) for e in skipped.values()] == [
        KOutOfRange, ComplementDisconnected, KOutOfRange, ComplementDisconnected,
        ComplementDisconnected,
    ]
    assert str(skipped["prop21"]) == "needs order at least 3"
    assert str(skipped["cor41"]) == "needs order at least 4"
    assert str(skipped["thm32"]) == "complement is disconnected"
    assert [c[0] for c in ctx.checks(2, runnable)] == runnable
    with pytest.raises(KOutOfRange, match="^needs order at least 3$"):
        ctx.checks(2, list(BOUND_IDS))
    assert ctx.applicable(["lem22.upper"]) == (["lem22.upper"], {})


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
    d = w.as_dict()
    assert set(d) == {
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
    from steinergut import EnumerationSpec, enumerate_graphs, steiner_all_subsets

    for n in range(4, 7):
        for g in enumerate_graphs(EnumerationSpec(n=n, require_coconnected=True)):
            table = steiner_all_subsets(g)
            co_table = steiner_all_subsets(complement(g))
            for k in range(2, n + 1):
                checks = evaluate_bounds(
                    g, k, ["thm32.1.sum_upper", "cor41.1.sum_lower"],
                    table=table, co_table=co_table,
                )
                assert checks[0].bound_value >= checks[1].bound_value


def test_amgm_root_tracks_a_float_evaluation():
    import math
    import random

    from steinergut import EnumerationSpec, degree_profile, enumerate_graphs

    pool = []
    for n in range(4, 7):
        for g in enumerate_graphs(EnumerationSpec(n=n, require_coconnected=True)):
            pool.extend((g, k) for k in range(2, n + 1))
    rng = random.Random(61803)
    for g, k in rng.sample(pool, 100):
        _, lo = evaluate_bounds(g, k, ["amgm"])
        value = lo.bound_value
        as_float = math.sqrt(value.square) if isinstance(value, SquareRoot) else float(value)
        prof = degree_profile(g)
        n, dmin, dmax = g.n, prof.min_degree, prof.max_degree
        base = dmin * (n - dmin - 1) if dmin + dmax <= n - 1 else dmax * (n - dmax - 1)
        from math import comb

        expected = 2 * (k - 1) * comb(n, k) * base ** (k / 2)
        assert math.isclose(as_float, expected, rel_tol=1e-9)


@given(connected_graphs(min_n=2, max_n=7))
def test_branch_bases_coincide_on_the_boundary(g):
    from steinergut import degree_profile

    prof = degree_profile(g)
    n, dmin, dmax = g.n, prof.min_degree, prof.max_degree
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


GUARDED = {
    **{
        group: lambda g, k, group=group: evaluate_bounds(g, k, [group])
        for group in BOUND_GROUPS
    },
    "evaluate_bounds": evaluate_bounds,
    "diagnose_equality": diagnose_equality,
}
D, K, C = Disconnected, KOutOfRange, ComplementDisconnected


@pytest.mark.parametrize(
    "edges, n, k, expected",
    [
        # 2K2: disconnected comes first for every entry point
        ([(0, 1), (2, 3)], 4, 2, [D, D, D, D, D, D, D, D]),
        # P3 with k = 5: connected, then k out of range
        ([(0, 1), (1, 2)], 3, 5, [K, K, K, K, K, K, K, K]),
        # P2: below prop21's and cor41's least order, complement disconnected
        ([(0, 1)], 2, 2, [K, None, C, K, C, C, K, None]),
        # K3: the order guard of cor41 fires before its complement guard
        ([(0, 1), (0, 2), (1, 2)], 3, 2, [None, None, C, K, C, C, C, None]),
        # K1,3: order 4, so only the complement guard remains
        ([(0, 1), (0, 2), (0, 3)], 4, 2, [None, None, C, C, C, C, C, None]),
        # K2 + K1: disconnected before cor41's least order
        ([(0, 1)], 3, 2, [D, D, D, D, D, D, D, D]),
    ],
    ids=["2K2", "P3-k5", "P2", "K3", "K1,3", "K2+K1"],
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
    """Every applicable bound of ``g`` at ``k``, compared as Fractions or SquareRoots."""
    from steinergut.bounds import _FORMULAS, _GROUP_IDS, PAIRED_GROUPS, BoundCheck

    degs = g.degrees
    signature = (g.n, g.m, min(degs), max(degs), degs.count(1), k)
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
        for bound_id, (case, value) in zip(_GROUP_IDS[group], _FORMULAS[group](*signature)):
            kind = bound_id.rsplit(".", 1)[1]
            if kind.startswith("sum"):
                actual = sg + sgbar
            elif kind.startswith("product"):
                actual = sg * sgbar
            else:
                actual = sg
            upper = kind.endswith("upper")
            if isinstance(value, SquareRoot):
                holds = value.ge_squared(actual) if upper else value.le_squared(actual)
                tight = value.eq_squared(actual)
            else:
                value = Fraction(value)
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
    from steinergut.bounds import _bound_rows

    first, second = graph6_decode("E?NO"), graph6_decode("E@QW")
    for g in (first, second):
        degs = g.degrees
        assert (g.n, g.m, min(degs), max(degs), degs.count(1)) == (6, 5, 1, 3, 3)
    _bound_rows.cache_clear()
    a = evaluate_bounds(first, 3)
    hits = _bound_rows.cache_info().hits
    b = evaluate_bounds(second, 3)
    assert _bound_rows.cache_info().hits == hits + len(BOUND_GROUPS)
    assert [c.bound_value for c in a] == [c.bound_value for c in b]
    assert (a[0].actual, b[0].actual) == (233, 223)
    assert a == _literal_checks(first, 3)
    assert b == _literal_checks(second, 3)
