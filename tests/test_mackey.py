"""Exact character theory: tables, induction, Mackey, the propositions."""

import pytest

from sympal import mackey
from sympal.errors import FieldTooLarge, HypothesisFailed, NotSubgroup
from sympal.mackey import (
    ClassFunction,
    FiniteGroup,
    Subgroup,
    all_subgroups,
    alternating_group,
    character_order,
    character_table,
    check_res_nontrivial,
    coset_reps,
    cyclic_group,
    dihedral_group,
    double_cosets,
    from_permutations,
    induce,
    inner_product,
    is_normal,
    linear_characters,
    mackey_check,
    quaternion_group,
    regular_character,
    restrict,
    semidirect_cyclic,
    sl2_3,
    split_p_part,
    symmetric_group,
    trivial_character,
    trivial_subgroup,
    verify_prop_nh,
    whole_group,
)

S3 = symmetric_group(3)


def a3_of_s3():
    return next(s for s in all_subgroups(S3) if s.order == 3)


def test_group_construction_orders():
    assert cyclic_group(6).order == 6
    assert symmetric_group(4).order == 24
    assert alternating_group(4).order == 12
    assert dihedral_group(5).order == 10
    assert quaternion_group().order == 8
    assert sl2_3().order == 24
    assert semidirect_cyclic(7, 3).order == 21


def test_class_counts():
    # oracle: standard character theory facts
    assert len(S3.classes) == 3
    assert len(symmetric_group(4).classes) == 5
    assert len(quaternion_group().classes) == 5
    assert len(semidirect_cyclic(7, 3).classes) == 5


def test_bad_table_rejected():
    with pytest.raises(ValueError):
        FiniteGroup(((0, 1), (1, 1)))
    # above 200 elements, where associativity once went unchecked: Z/202
    # with row 1's entries at columns 2 and 3 swapped (rows stay
    # permutations, columns 2 and 3 do not) ...
    z202 = [[(a + b) % 202 for b in range(202)] for a in range(202)]
    table = [row[:] for row in z202]
    table[1][2], table[1][3] = table[1][3], table[1][2]
    with pytest.raises(ValueError):
        FiniteGroup(table)
    # ... and a non-associative Latin square with identity: swap the
    # intercalate 1+2 = 102+103, 1+103 = 102+2
    table = [row[:] for row in z202]
    for a, b, c in ((1, 2, 104), (1, 103, 3), (102, 2, 3), (102, 103, 104)):
        table[a][b] = c
    with pytest.raises(ValueError, match="associative"):
        FiniteGroup(table)


# oracle degrees from standard tables
DEGREE_CASES = [
    (S3, [1, 1, 2]),
    (dihedral_group(4), [1, 1, 1, 1, 2]),
    (quaternion_group(), [1, 1, 1, 1, 2]),
    (alternating_group(4), [1, 1, 1, 3]),
    (symmetric_group(4), [1, 1, 2, 3, 3]),
    (sl2_3(), [1, 1, 1, 2, 2, 2, 3]),
    (semidirect_cyclic(7, 3), [1, 1, 1, 3, 3]),
    (semidirect_cyclic(11, 5), [1, 1, 1, 1, 1, 5, 5]),
]


def test_character_table_degrees():
    for g, degrees in DEGREE_CASES:
        ct = character_table(g)
        assert sorted(int(c.degree.rational_value()) for c in ct) == degrees


def test_orthonormality():
    extra = (alternating_group(5), symmetric_group(5), semidirect_cyclic(13, 4))
    for g in [g for g, _ in DEGREE_CASES] + list(extra):
        ct = character_table(g)
        # rows: <chi_i, chi_j> = delta_ij
        for i, a in enumerate(ct):
            for j, b in enumerate(ct):
                assert inner_product(a, b).rational_value() == (1 if i == j else 0)
        # columns: sum_chi chi(x) conj(chi(y)) = |C_G(x)| delta, conj(chi(y)) = chi(y^-1)
        for ci, cx in enumerate(g.classes):
            for cj, cy in enumerate(g.classes):
                y_inv = g.inv[cy[0]]
                total = sum((chi.at(cx[0]) * chi.at(y_inv) for chi in ct[1:]),
                            ct[0].at(cx[0]) * ct[0].at(y_inv))
                want = g.order // len(cx) if ci == cj else 0
                assert total.rational_value() == want


def test_dixon_prime_beyond_field_limit_is_refused(monkeypatch):
    monkeypatch.setattr(mackey, "_dixon_prime", lambda exponent, order: 1_000_003)
    with pytest.raises(FieldTooLarge):
        character_table(S3)


def test_subgroup_enumeration():
    assert [s.order for s in all_subgroups(S3)] == [1, 2, 2, 2, 3, 6]
    assert len(all_subgroups(symmetric_group(4))) == 30
    assert len(all_subgroups(quaternion_group())) == 6


def test_subgroups_are_interned_per_element_set():
    g = symmetric_group(4)
    subs = all_subgroups(g)
    assert all_subgroups(g) == subs   # the same objects again
    by_elements = {s.elements: s for s in subs}
    for n in subs:
        for gamma in range(g.order):
            conj = mackey.conjugate_subgroup(g, n, gamma)
            assert by_elements[conj.elements] is conj
        for h in subs:
            meet = mackey.intersect(g, h, n)
            assert by_elements[meet.elements] is meet
            assert mackey.subgroup_of(g, h, meet) is mackey.subgroup_of(g, h, meet)
    assert Subgroup.generated(g, [1]) is Subgroup.generated(g, [1])
    assert whole_group(g) is by_elements[tuple(range(24))]
    assert trivial_subgroup(g) is by_elements[(0,)]
    # a direct construction is a new object with its own group
    fresh = Subgroup(g, trivial_subgroup(g).elements)
    assert fresh is not trivial_subgroup(g) and fresh.group is not trivial_subgroup(g).group
    # normality is computed once per subgroup and agrees with the definition
    for h in subs:
        want = all(h.contains(g.conj(x, a)) for a in h.elements for x in range(g.order))
        assert is_normal(g, h) == want and h.normal == want
    assert sorted(s.order for s in subs if s.normal) == [1, 4, 12, 24]


def test_subgroup_rejects_non_closed():
    with pytest.raises(NotSubgroup):
        # a transposition and a 3-cycle generate all of S3
        Subgroup(S3, [0, 1, 2])
    with pytest.raises(NotSubgroup):
        Subgroup(S3, [1, 2])   # no identity


def test_induce_from_a3():
    a3 = a3_of_s3()
    chi = next(c for c in linear_characters(a3.group, S3.exponent)
               if character_order(c) == 3)
    ind = induce(S3, a3, chi)
    assert ind.degree.rational_value() == 2
    assert inner_product(ind, ind).rational_value() == 1


def test_induce_trivial_from_trivial_is_regular():
    triv = trivial_subgroup(S3)
    ind = induce(S3, triv, trivial_character(triv.group, S3.exponent))
    assert ind == regular_character(S3, S3.exponent)


def test_induce_whole_group_is_identity():
    w = whole_group(S3)
    ct = character_table(S3)
    for chi in ct:
        vals = tuple(chi.at(w.elements[cls[0]]) for cls in w.group.classes)
        on_w = ClassFunction(w.group, chi.cyc_order, vals)
        ind = induce(S3, w, on_w)
        assert ind == chi


def test_restrict_two_dim_to_a3():
    a3 = a3_of_s3()
    two = next(c for c in character_table(S3) if c.degree.rational_value() == 2)
    r = restrict(S3, a3, two)
    nontriv = [c for c in linear_characters(a3.group, S3.exponent)
               if character_order(c) == 3]
    assert r == nontriv[0] + nontriv[1]


def test_frobenius_reciprocity_s3():
    ct = character_table(S3)
    for h in all_subgroups(S3):
        for psi in character_table(h.group, S3.exponent):
            for phi in ct:
                lhs = inner_product(induce(S3, h, psi), phi)
                rhs = inner_product(psi, restrict(S3, h, phi))
                assert (lhs - rhs).is_zero()


def test_double_cosets():
    subs = all_subgroups(S3)
    c2 = next(s for s in subs if s.order == 2)
    a3 = a3_of_s3()
    assert len(double_cosets(S3, c2, a3)) == 1
    assert len(double_cosets(S3, whole_group(S3), whole_group(S3))) == 1
    c6 = cyclic_group(6)
    subs6 = all_subgroups(c6)
    h2 = next(s for s in subs6 if s.order == 2)
    n3 = next(s for s in subs6 if s.order == 3)
    assert len(double_cosets(c6, h2, n3)) == 1


def test_double_coset_count_for_normal_n():
    # |H\G/N| = |G / HN| when N is normal
    for g in (S3, dihedral_group(4), alternating_group(4)):
        subs = all_subgroups(g)
        for n in subs:
            if not is_normal(g, n):
                continue
            for h in subs:
                hn = {g.mul(a, b) for a in h.elements for b in n.elements}
                assert len(double_cosets(g, h, n)) == g.order // len(hn)


def test_mackey_exhaustive_small():
    for g in (S3, quaternion_group()):
        subs = all_subgroups(g)
        for n in subs:
            for chi in character_table(n.group, g.exponent):
                for h in subs:
                    assert mackey_check(g, h, n, chi)


def test_coset_reps_cover():
    a3 = a3_of_s3()
    reps = coset_reps(S3, a3)
    assert len(reps) == 2 and reps[0] == 0


def test_character_order_and_split():
    g = cyclic_group(21)
    chars = linear_characters(g)
    orders = sorted(character_order(c) for c in chars)
    assert orders == sorted([1, 3, 3, 7, 7, 7, 7, 7, 7, 21, 21, 21, 21, 21, 21,
                             21, 21, 21, 21, 21, 21])
    chi = next(c for c in chars if character_order(c) == 21)
    c1, c2 = split_p_part(chi, 7)
    assert character_order(c1) == 7
    assert character_order(c2) == 3
    assert c1 * c2 == chi


def test_prop_nh_holds_on_frobenius_group():
    g = semidirect_cyclic(7, 3)
    subs = all_subgroups(g)
    n = next(s for s in subs if s.order == 7)
    chi = next(c for c in linear_characters(n.group, g.exponent)
               if character_order(c) == 7)
    target = induce(g, n, chi)
    matched = 0
    for h in subs:
        for s_char in character_table(h.group, g.exponent):
            if induce(g, h, s_char) == target:
                rep = verify_prop_nh(g, n, h, chi, s_char, 7)
                assert rep.holds
                matched += 1
    assert matched > 0


def test_prop_nh_hypothesis_guard():
    g = semidirect_cyclic(7, 3)
    subs = all_subgroups(g)
    n = next(s for s in subs if s.order == 7)
    chi = trivial_character(n.group, g.exponent)
    w = whole_group(g)
    some_char = character_table(w.group, g.exponent)[0]
    with pytest.raises(HypothesisFailed):
        verify_prop_nh(g, n, w, chi, some_char, 7)   # chi has no p-part
    real_chi = next(c for c in linear_characters(n.group, g.exponent)
                    if character_order(c) == 7)
    with pytest.raises(HypothesisFailed):
        verify_prop_nh(g, n, w, real_chi, some_char, 3)   # p = 3 not > (G:N) = 3


def test_res_nontrivial_sweep_c7c3():
    g = semidirect_cyclic(7, 3)
    subs = all_subgroups(g)
    n = next(s for s in subs if s.order == 7)
    chars = [c for c in linear_characters(n.group, g.exponent)
             if character_order(c) == 7]
    for h in subs:
        if h.index > 3:
            continue
        for chi in chars:
            assert check_res_nontrivial(g, n, h, chi, 7, 3)


def test_res_nontrivial_guards():
    g = semidirect_cyclic(7, 3)
    subs = all_subgroups(g)
    n = next(s for s in subs if s.order == 7)
    triv = trivial_character(n.group, g.exponent)
    with pytest.raises(HypothesisFailed):
        check_res_nontrivial(g, n, whole_group(g), triv, 7, 3)
    small = trivial_subgroup(g)
    chi = next(c for c in linear_characters(n.group, g.exponent)
               if character_order(c) == 7)
    with pytest.raises(HypothesisFailed):
        check_res_nontrivial(g, n, small, chi, 7, 3)   # index 21 > 3
