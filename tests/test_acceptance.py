"""End-to-end acceptance checks.

One test per shipped guarantee.  Each prints a single PASS or FAIL line
(visible under pytest -s) so a full run reads as a checklist; the exhaustive
criteria share one session enumeration and carry explicit time budgets.
"""

import functools
import io
import json
import time
from fractions import Fraction
from math import comb

from steinergut import (
    DreyfusWagner,
    EnumerationSpec,
    FamilySpec,
    SquareRoot,
    audit_formulas,
    closed_form_complete_corrected,
    closed_form_star,
    complement,
    evaluate_bounds,
    from_edge_list,
    generate,
    graph6_decode,
    graph6_encode,
    is_connected,
    is_k_connected,
    is_regular,
    pairwise_distances,
    run_cli,
    steiner_all_subsets,
    steiner_gutman,
    steiner_oracle,
    steiner_single,
    sweep,
)

EXPECTED_CLASS_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}


def criterion(num, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:02d} FAIL  {label}")
                raise
            print(f"criterion {num:02d} PASS  {label}")

        return run

    return wrap


@criterion(1, "three Steiner engines agree on every subset, n <= 8")
def test_criterion_01_engine_equivalence(universe):
    start = time.monotonic()
    for n, graphs in universe.items():
        assert len(graphs) == EXPECTED_CLASS_COUNTS[n]
        for g in graphs:
            dist = steiner_all_subsets(g).dist
            dw = DreyfusWagner(g)
            for s in range(1, 1 << n):
                d = dist[s]
                assert d == dw.distance(s)
                assert d == steiner_oracle(g, s)
            if n <= 4:
                # the one-shot wrapper builds a fresh DP per query
                for s in range(1, 1 << n):
                    assert steiner_single(g, s) == dist[s]
    assert time.monotonic() - start < 300


@criterion(2, "pair Steiner distances equal BFS distances, n <= 8")
def test_criterion_02_pair_reduction(universe):
    for n, graphs in universe.items():
        for g in graphs:
            dist = steiner_all_subsets(g).dist
            dm = pairwise_distances(g)
            for u in range(n):
                for v in range(u + 1, n):
                    assert dist[(1 << u) | (1 << v)] == dm[u][v]


@criterion(3, "star closed form matches computation, 2 <= k <= n <= 12")
def test_criterion_03_star_formula():
    for n in range(2, 13):
        g = generate(FamilySpec("star", n))
        table = steiner_all_subsets(g)
        for k in range(2, n + 1):
            assert closed_form_star(n, k) == steiner_gutman(g, k, table=table)


@criterion(4, "formula audit flags the printed complete and path forms")
def test_criterion_04_formula_audit():
    audits = audit_formulas(10)
    by_key = {(a.family, a.n, a.k): a for a in audits}
    assert all(a.agrees for a in audits if a.family == "star")
    flagged = by_key[("complete", 3, 2)]
    assert not flagged.agrees
    assert (flagged.printed_value, flagged.computed_value) == (24, 12)
    flagged = by_key[("path", 4, 3)]
    assert not flagged.agrees
    assert (flagged.printed_value, flagged.computed_value) == (16, 28)
    for n in range(2, 11):
        g = generate(FamilySpec("complete", n))
        table = steiner_all_subsets(g)
        for k in range(2, n + 1):
            assert closed_form_complete_corrected(n, k) == steiner_gutman(g, k, table=table)


@criterion(5, "worked family values reproduce exactly")
def test_criterion_05_worked_examples():
    for n in range(2, 9):
        g = generate(FamilySpec("complete", n))
        assert steiner_gutman(g, n) == (n - 1) ** (n + 1)
    for n in range(4, 11, 2):
        g = generate(FamilySpec("complete_minus_perfect_matching", n))
        value = steiner_gutman(g, 3)
        assert value == 2 * (n - 2) ** 3 * comb(n, 3)
        _, lo = evaluate_bounds(g, 3, ["prop21"])
        assert lo.case_label == "min_deg>=2" and lo.tight
    for n in range(4, 13):
        g = generate(FamilySpec("path", n))
        assert steiner_gutman(g, n) == 2 ** (n - 2) * (n - 1)
    p3 = generate(FamilySpec("path", 3))
    assert steiner_gutman(p3, 2) == 6
    _, lo = evaluate_bounds(p3, 2, ["prop21"])
    assert lo.case_label == "min_deg=1" and lo.tight


@criterion(6, "degree-extreme bounds sound and tight exactly as characterized, n <= 7")
def test_criterion_06_prop21_soundness_and_tightness(universe):
    start = time.monotonic()
    for n in range(3, 8):
        for g in universe[n]:
            table = steiner_all_subsets(g)
            for k in range(2, n + 1):
                up, lo = evaluate_bounds(g, k, ["prop21"], table=table)
                assert up.holds and lo.holds
                if up.tight:
                    assert is_regular(g) and k == n
                if lo.tight and lo.case_label == "min_deg>=2":
                    assert is_regular(g) and is_k_connected(g, n - k + 1)

    k4 = from_edge_list(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert evaluate_bounds(k4, 4, ["prop21"])[0].tight
    c4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert evaluate_bounds(c4, 3, ["prop21"])[1].tight
    assert evaluate_bounds(generate(FamilySpec("path", 3)), 2, ["prop21"])[1].tight
    for n in range(3, 11):
        assert evaluate_bounds(generate(FamilySpec("path", n)), n, ["prop21"])[1].tight
    assert time.monotonic() - start < 600


@criterion(7, "paired sweeps are clean except the min-aggregate sum upper, n <= 7")
def test_criterion_07_paired_sweep(universe):
    violations = []
    for n in range(2, 8):
        report = sweep(EnumerationSpec(n=n, require_coconnected=True))
        violations.extend(report.violations)
    assert violations, "the min-aggregate anomaly is expected to show up"
    assert all(v.bound_id == "cor41.1.sum_upper" for v in violations)
    assert len(violations) == 322


@criterion(8, "the 5-cycle attains its bounds at k = 5")
def test_criterion_08_sharpness_witnesses():
    n = 5
    c5 = generate(FamilySpec("cycle", n))
    sg = steiner_gutman(c5, 5)
    sg_bar = steiner_gutman(complement(c5), 5)
    ssum, sprod = sg + sg_bar, sg * sg_bar
    assert ssum == 256 == (n - 1) * (2**n + (n - 3) ** n)
    assert sprod == 16384 == (n - 1) ** 2 * (n - 3) ** n * 2**n

    tight = {c.bound_id for c in evaluate_bounds(c5, 5) if c.tight}
    assert {
        "thm32.1.sum_upper",
        "thm32.2.sum_lower",
        "amgm.sum_upper",
        "amgm.sum_lower",
        "thm32.1.product_upper",
        "thm32.3.product_lower",
        "ps.product_upper",
        "ps.product_lower",
    } <= tight
    # the half-integer lower bound lands on the sum even compared by squares
    root = SquareRoot(Fraction((2 * 4 * comb(n, 5)) ** 2 * 4**5))
    assert root.eq_squared(ssum)


@criterion(9, "graph6 codec round-trips both ways over connected n <= 6")
def test_criterion_09_graph6_round_trip(universe):
    for n in range(1, 7):
        for g in universe[n]:
            encoded = graph6_encode(g)
            assert graph6_decode(encoded) == g
            assert graph6_encode(graph6_decode(encoded)) == encoded


@criterion(10, "verification runs are deterministic and job-count invariant")
def test_criterion_10_determinism():
    def run_verify(extra):
        out, err = io.StringIO(), io.StringIO()
        code = run_cli(
            ["verify", "--n-max", "6", "--dedup", "--coconnected", "--set", "all"] + extra,
            stdout=out,
            stderr=err,
        )
        return code, out.getvalue()

    code_a, text_a = run_verify([])
    code_b, text_b = run_verify([])
    assert code_a == code_b == 2
    assert text_a == text_b
    code_c, text_c = run_verify(["--jobs", "4"])
    assert code_c == 2
    assert text_c == text_a
    doc = json.loads(text_a)
    assert doc["totals"]["violations"] == 14
    assert is_connected(graph6_decode(doc["reports"][-1]["violations"][0]["graph6"]))
