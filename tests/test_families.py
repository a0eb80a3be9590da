import tracemalloc

import pytest

from steinergut import (
    FAMILIES,
    FamilySpec,
    InvalidFamilyOrder,
    KOutOfRange,
    OrderTooLarge,
    audit_for_order,
    audit_formulas,
    closed_form_complete_corrected,
    closed_form_complete_printed,
    closed_form_path_printed,
    closed_form_star,
    generate,
    is_connected,
    steiner_gutman,
)


def test_family_shapes():
    p = generate(FamilySpec("path", 5))
    assert p.m == 4 and p.degrees == (1, 2, 2, 2, 1)
    c = generate(FamilySpec("cycle", 5))
    assert c.m == 5 and set(c.degrees) == {2}
    s = generate(FamilySpec("star", 5))
    assert s.m == 4 and sorted(s.degrees) == [1, 1, 1, 1, 4]
    k = generate(FamilySpec("complete", 5))
    assert k.m == 10
    km = generate(FamilySpec("complete_minus_perfect_matching", 6))
    assert km.m == 15 - 3 and set(km.degrees) == {4}
    assert not km.has_edge(0, 1) and not km.has_edge(4, 5)
    for name in FAMILIES:
        n = 6 if name == "complete_minus_perfect_matching" else 5
        assert is_connected(generate(FamilySpec(name, n)))


def test_generate_rejects_bad_specs():
    with pytest.raises(InvalidFamilyOrder):
        generate(FamilySpec("wheel", 5))
    with pytest.raises(InvalidFamilyOrder):
        generate(FamilySpec("path", 0))
    with pytest.raises(InvalidFamilyOrder):
        generate(FamilySpec("cycle", 2))
    with pytest.raises(InvalidFamilyOrder):
        generate(FamilySpec("complete_minus_perfect_matching", 5))
    with pytest.raises(InvalidFamilyOrder):
        generate(FamilySpec("complete_minus_perfect_matching", 2))


@pytest.mark.parametrize(
    "name, n",
    [("path", 100_000), ("cycle", 100_000), ("star", 100_000), ("complete", 1_000),
     ("complete", 2_000), ("complete_minus_perfect_matching", 1_000)],
)
def test_an_order_past_the_cap_is_refused_before_any_edge_is_built(name, n):
    # a listed edge set would take 9 to 213 MiB here; the refusal must not build it
    tracemalloc.start()
    try:
        with pytest.raises(OrderTooLarge):
            generate(FamilySpec(name, n))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, (name, n, peak)


def test_closed_form_guards():
    with pytest.raises(KOutOfRange):
        closed_form_star(5, 1)
    with pytest.raises(KOutOfRange):
        closed_form_star(5, 6)
    with pytest.raises(KOutOfRange) as err:
        closed_form_star(5, 9)
    assert str(err.value) == "k must satisfy 2 <= k <= 5, got 9"
    with pytest.raises(InvalidFamilyOrder):
        closed_form_star(1, 1)


@pytest.mark.parametrize("n", range(2, 11))
def test_star_form_matches_computation(n):
    g = generate(FamilySpec("star", n))
    for k in range(2, n + 1):
        assert closed_form_star(n, k) == steiner_gutman(g, k)


@pytest.mark.parametrize("n", range(2, 9))
def test_corrected_complete_form_matches_computation(n):
    g = generate(FamilySpec("complete", n))
    for k in range(2, n + 1):
        assert closed_form_complete_corrected(n, k) == steiner_gutman(g, k)


def test_printed_complete_form_overcounts():
    assert closed_form_complete_printed(3, 2) == 24
    g = generate(FamilySpec("complete", 3))
    assert steiner_gutman(g, 2) == 12
    # the printed and corrected forms only meet at k = n
    for n in range(3, 7):
        for k in range(2, n):
            assert closed_form_complete_printed(n, k) > closed_form_complete_corrected(n, k)
        assert closed_form_complete_printed(n, n) == closed_form_complete_corrected(n, n)


def test_printed_path_form_disagrees():
    assert closed_form_path_printed(4, 3) == 16
    g = generate(FamilySpec("path", 4))
    assert steiner_gutman(g, 3) == 28


def test_printed_path_form_disagrees_at_every_k_from_two_to_n():
    # P3 at k = 2: the printed form gives 4, and the index is 6
    assert closed_form_path_printed(3, 2) == 4
    assert steiner_gutman(generate(FamilySpec("path", 3)), 2) == 6
    paths = [a for a in audit_formulas(12) if a.family == "path"]
    # every (n, k) with 2 <= k <= n through order 12, both ends of k included
    assert len(paths) == len({(a.n, a.k) for a in paths}) == 66
    assert not any(a.agrees for a in paths)


def test_audit_for_order_covers_three_families():
    audits = audit_for_order(4)
    assert len(audits) == 9  # three families, k in 2..4
    assert {a.family for a in audits} == {"star", "complete", "path"}
    assert all(a.agrees == (a.printed_value == a.computed_value) for a in audits)
    by_key = {(a.family, a.k): a for a in audits}
    assert by_key[("star", 3)].agrees
    assert not by_key[("path", 3)].agrees
    assert by_key[("path", 3)].printed_value == 16
    assert by_key[("path", 3)].computed_value == 28


def test_audit_formulas_totals():
    audits = audit_formulas(5)
    assert len(audits) == 30
    bad = [a for a in audits if not a.agrees]
    assert len(bad) == 16
    assert all(a.agrees for a in audits if a.family == "star")
    with pytest.raises(InvalidFamilyOrder):
        audit_formulas(1)
