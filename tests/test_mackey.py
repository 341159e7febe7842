"""Exact character theory: tables, induction, Mackey, the propositions."""

import json
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from sympal import mackey
from sympal.cli import main
from sympal.cyclotomic import Cyc, rational
from sympal.errors import FieldTooLarge, HypothesisFailed, InvalidParams, NotSubgroup
from sympal.mackey import (
    ClassFunction,
    FiniteGroup,
    Subgroup,
    all_subgroups,
    alternating_group,
    character_order,
    character_table,
    check_res_nontrivial,
    conjugate_classfunction,
    conjugate_subgroup,
    coset_reps,
    cyclic_group,
    dihedral_group,
    double_cosets,
    from_permutations,
    induce,
    inner_product,
    intersect,
    is_normal,
    linear_characters,
    mackey_check,
    quaternion_group,
    regular_character,
    restrict,
    semidirect_cyclic,
    sl2_3,
    split_p_part,
    subgroup_of,
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


def test_semidirect_cyclic_refuses_a_composite_modulus():
    # 3 has no multiplicative order mod 9: its powers reach 0, never 1
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="not prime"):
        semidirect_cyclic(9, 2)
    assert time.perf_counter() - t0 < 1


def test_semidirect_cyclic_by_the_trivial_group_is_cyclic():
    assert semidirect_cyclic(7, 1).table == cyclic_group(7).table
    assert semidirect_cyclic(2, 1).table == cyclic_group(2).table
    for n in (0, -1):
        with pytest.raises(ValueError, match="n >= 1"):
            semidirect_cyclic(7, n)


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


def abelian_product(*orders) -> FiniteGroup:
    """C_n1 x C_n2 x ..., from its coordinate generators."""
    gens = [tuple(int(i == k) for i in range(len(orders))) for k in range(len(orders))]
    return mackey.group_from_elements(
        gens, lambda a, b: tuple((x + y) % n for x, y, n in zip(a, b, orders)),
        (0,) * len(orders))[0]


# oracle degrees from standard tables
DEGREE_CASES = [
    (cyclic_group(1), [1]),
    (cyclic_group(12), [1] * 12),
    (abelian_product(2, 2), [1] * 4),
    (abelian_product(2, 6), [1] * 12),
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
    # an abelian table needs no field
    assert len(character_table(cyclic_group(3))) == 3


def _abelian_groups() -> list[FiniteGroup]:
    out = [cyclic_group(n) for n in range(1, 31)]
    out += [abelian_product(*ns) for ns in ((2, 2), (2, 4), (2, 6), (3, 3), (2, 2, 2))]
    for g in (symmetric_group(4), sl2_3(), semidirect_cyclic(7, 3),
              semidirect_cyclic(13, 4), alternating_group(5)):
        out += [s.group for s in all_subgroups(g) if len(s.group.classes) == s.order]
    return out


def test_abelian_tables_equal_dixon_tables():
    # the homomorphisms to roots of unity against Dixon's method, value for
    # value, at the exponent and at a multiple of it
    def values(chars):
        chars.sort(key=lambda c: tuple(v.reduced() for v in c.values))
        return [[(v.n, v.coeffs, v.den) for v in c.values] for c in chars]

    for g in _abelian_groups():
        for n_cyc in (g.exponent, 6 * g.exponent):
            direct = values(mackey._abelian_table(g, n_cyc))
            assert direct == values(mackey._dixon_table(g, n_cyc))
            assert [[(v.n, v.coeffs, v.den) for v in c.values]
                    for c in character_table(g, n_cyc)] == direct


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


def test_subgroups_of_another_group_object_are_refused():
    # the same table, another object: h's indices and remembered normality
    # and induction data refer to the other object, so each call refuses
    g = symmetric_group(4)
    other = FiniteGroup(g.table)
    h = next(s for s in all_subgroups(other) if s.order == 3)
    k = next(s for s in all_subgroups(g) if s.order == 12)
    with pytest.raises(NotSubgroup):
        is_normal(g, h)
    with pytest.raises(NotSubgroup):
        induce(g, h, trivial_character(h.group, 3))
    with pytest.raises(NotSubgroup):
        mackey.subgroup_of(g, k, mackey.intersect(other, h, h))
    with pytest.raises(NotSubgroup):
        mackey.subgroup_of(other, k, h)
    assert h.normal is None and h.induction is None


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


def _relabelled(g: FiniteGroup, seed: int) -> FiniteGroup:
    """g under a seeded relabelling that keeps the identity at 0."""
    rest = list(range(1, g.order))
    random.Random(seed).shuffle(rest)
    pi = [0] + rest
    table = [[0] * g.order for _ in range(g.order)]
    for a, row in enumerate(g.table):
        for b, c in enumerate(row):
            table[pi[a]][pi[b]] = pi[c]
    return FiniteGroup(table)


def _lattice_oracle(g: FiniteGroup) -> list[tuple[int, tuple[int, ...]]]:
    """(order, elements) of every subgroup, sorted: the cyclic subgroups,
    then the join of every pair of known subgroups that are not nested,
    each closed from scratch by breadth-first products."""
    def closure(gens) -> frozenset:
        elems, frontier = {0}, [0]
        while frontier:
            frontier = [y for y in {g.mul(x, s) for x in frontier for s in gens}
                        if y not in elems]
            elems.update(frontier)
        return frozenset(elems)

    gens: dict[frozenset, tuple[int, ...]] = {}
    for x in range(g.order):
        gens.setdefault(closure([x]), (x,))
    todo = list(gens)
    while todo:
        a = todo.pop()
        for b in list(gens):
            if a <= b or b <= a:
                continue
            join = closure(gens[a] + gens[b])
            if join not in gens:
                gens[join] = gens[a] + gens[b]
                todo.append(join)
    return sorted((len(s), tuple(sorted(s))) for s in gens)


LATTICE_GROUPS = {
    "S3": lambda: symmetric_group(3), "S4": lambda: symmetric_group(4),
    "D4": lambda: dihedral_group(4), "Q8": quaternion_group, "SL2(3)": sl2_3,
    "7:3": lambda: semidirect_cyclic(7, 3), "13:4": lambda: semidirect_cyclic(13, 4),
    "A5": lambda: alternating_group(5), "D15": lambda: dihedral_group(15),
    "C30": lambda: cyclic_group(30), "S5": lambda: symmetric_group(5),
}


@pytest.mark.parametrize("build", LATTICE_GROUPS.values(), ids=LATTICE_GROUPS)
def test_all_subgroups_agrees_with_the_pairwise_join_oracle(build):
    for g in (build(), _relabelled(build(), 1), _relabelled(build(), 2)):
        subs = all_subgroups(g)
        assert [(s.order, s.elements) for s in subs] == _lattice_oracle(g)
        assert all(s is mackey._interned(g, s.elements) for s in subs)


def test_lattice_sizes_of_a5_and_s5():
    assert len(all_subgroups(alternating_group(5))) == 59
    assert len(all_subgroups(symmetric_group(5))) == 156


def _mackey_sides(g, h, n, chi) -> tuple[ClassFunction, ClassFunction]:
    """Both sides of Mackey's formula on H, through the public induce and
    restrict: Res_H Ind_N^G chi, and the sum over H\\G/N of
    Ind_{H cap gamma N gamma^-1}^H chi^gamma."""
    lhs = restrict(g, h, induce(g, n, chi))
    rhs = None
    for gamma in double_cosets(g, h, n):
        meet = intersect(g, h, conjugate_subgroup(g, n, gamma))
        conj = conjugate_classfunction(g, n, chi, gamma, target=meet)
        # the meet inside h.group lists the same elements in the same order
        # (h.elements is sorted), so its table and classes are meet's
        meet_in_h = subgroup_of(g, h, meet)
        assert meet_in_h.group.table == meet.group.table
        term = induce(h.group, meet_in_h,
                      ClassFunction(meet_in_h.group, conj.cyc_order, conj.values))
        rhs = term if rhs is None else rhs + term
    return lhs, rhs


@pytest.mark.parametrize("build", [
    lambda: symmetric_group(3), lambda: symmetric_group(4), lambda: dihedral_group(4),
    quaternion_group, sl2_3, lambda: semidirect_cyclic(7, 3),
    lambda: _relabelled(symmetric_group(4), 3), lambda: semidirect_cyclic(13, 4),
    lambda: _relabelled(sl2_3(), 1), lambda: alternating_group(5),
], ids=["S3", "S4", "D4", "Q8", "SL2(3)", "7:3", "S4-relabelled", "13:4",
        "SL2(3)-relabelled", "A5"])
def test_mackey_check_agrees_with_the_induce_oracle(build):
    g = build()
    subs = all_subgroups(g)
    for n in subs:
        for chi in character_table(n.group, g.exponent):
            v = np.array([x.reduced() for x in chi.values], dtype=object)
            for h in subs:
                lhs, rhs = _mackey_sides(g, h, n, chi)
                assert mackey_check(g, h, n, chi) == (lhs == rhs) is True
                left, right = mackey._transport(g, h, n)
                assert left is right   # L = R is kept as one array
                assert left.dot(v).tolist() == [list(x.reduced()) for x in lhs.values]
                assert right.dot(v).tolist() == [list(x.reduced()) for x in rhs.values]


def test_mackey_sweep_builds_no_meet_subgroup(monkeypatch, tmp_path, capsys):
    # R counts coset conjugates in G directly: no subgroup of any H is
    # interned, so no meet H cap gamma N gamma^-1 has a table built
    lattices = []
    real = mackey.all_subgroups
    monkeypatch.setattr(mackey, "all_subgroups",
                        lambda g: lattices.append(real(g)) or lattices[-1])
    doc = tmp_path / "s4.json"
    doc.write_text(json.dumps({"group": {"permutations": [[1, 0, 2, 3], [1, 2, 3, 0]]},
                               "sweep": "mackey"}))
    assert main(["mackey", "--input", str(doc), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["checks"], out["counterexamples"]) == (2850, 0)
    (subs,) = lattices
    assert len(subs) == 30 and all(not h.group.interned for h in subs)


def test_mackey_check_on_equal_sides_reads_no_character(monkeypatch):
    # L = R proves the formula for every class function on N, so no value
    # of chi is read
    g = symmetric_group(4)
    subs = all_subgroups(g)
    tables = {n: character_table(n.group, g.exponent) for n in subs}

    def refuse(self):
        raise AssertionError("a character value was read")

    monkeypatch.setattr(Cyc, "reduced", refuse)
    assert all(mackey_check(g, h, n, chi) for n in subs for h in subs for chi in tables[n])


def test_mackey_check_is_exact_on_rational_values():
    # a class function with a fractional value: the transport matrices act
    # on Fractions as exactly as on ints
    g = symmetric_group(3)
    subs = all_subgroups(g)
    n = next(s for s in subs if s.order == 3)
    half = ClassFunction(n.group, 6, tuple(rational(6, Fraction(c, 2)) for c in (1, 3, 5)))
    for h in subs:
        lhs, rhs = _mackey_sides(g, h, n, half)
        assert mackey_check(g, h, n, half) == (lhs == rhs) is True


def _drop_last_double_coset(monkeypatch):
    """Corrupt R: Mackey's sum loses its last double coset.  coset_reps
    passes the trivial subgroup as H, and is left whole, so the induction
    data behind L stay right; with H trivial nothing is dropped."""
    real = mackey.double_cosets
    monkeypatch.setattr(mackey, "double_cosets",
                        lambda g, h, n: real(g, h, n)[:-1] if h.order > 1 else real(g, h, n))


def test_mackey_check_fails_without_its_last_double_coset(monkeypatch):
    g = symmetric_group(3)   # a fresh group: R is remembered on its subgroups
    _drop_last_double_coset(monkeypatch)
    subs = all_subgroups(g)
    for n in subs:
        for chi in character_table(n.group, g.exponent):
            # the dropped term has degree (H : meet) chi(1) > 0
            assert [mackey_check(g, h, n, chi) for h in subs] == [h.order == 1 for h in subs]


def test_mackey_sweep_reports_the_dropped_double_coset(monkeypatch, tmp_path, capsys):
    _drop_last_double_coset(monkeypatch)
    doc = tmp_path / "s3.json"
    doc.write_text(json.dumps({"group": {"permutations": [[1, 0, 2], [1, 2, 0]]},
                               "sweep": "mackey"}))
    assert main(["mackey", "--input", str(doc), "--json"]) == 5
    out = json.loads(capsys.readouterr().out)
    # 78 checks, 13 of them (one per character of a subgroup) with H trivial
    assert (out["checks"], out["counterexamples"]) == (78, 65)


def test_restrict_refuses_a_subgroup_of_a_relabelled_copy():
    # before the parent check this read h's indices in S4's table and
    # returned (3, -1, 1, 0) for the degree-3 character
    g = symmetric_group(4)
    h = next(s for s in all_subgroups(_relabelled(g, 1)) if s.elements == (0, 5, 9, 21))
    phi = next(c for c in character_table(g) if c.degree == 3)
    with pytest.raises(NotSubgroup):
        restrict(g, h, phi)


@pytest.mark.parametrize("call", [
    lambda g, k, x: restrict(g, x, trivial_character(g, 12)),
    lambda g, k, x: intersect(g, k, x),
    lambda g, k, x: intersect(g, x, k),
    lambda g, k, x: coset_reps(g, x),
    lambda g, k, x: double_cosets(g, k, x),
    lambda g, k, x: double_cosets(g, x, k),
    lambda g, k, x: conjugate_subgroup(g, x, 1),
    lambda g, k, x: conjugate_classfunction(g, x, trivial_character(x.group, 12), 1, target=k),
    lambda g, k, x: conjugate_classfunction(g, k, trivial_character(k.group, 12), 1, target=x),
    lambda g, k, x: mackey_check(g, k, x, trivial_character(x.group, 12)),
    lambda g, k, x: mackey_check(g, x, k, trivial_character(k.group, 12)),
], ids=["restrict", "intersect-a", "intersect-b", "coset_reps", "double_cosets-h",
        "double_cosets-n", "conjugate_subgroup", "conjugate_classfunction-n",
        "conjugate_classfunction-target", "mackey_check-n", "mackey_check-h"])
def test_subgroup_of_another_group_object_is_refused(call):
    # x has the same table and elements as k, but another parent object
    g = symmetric_group(4)
    k = next(s for s in all_subgroups(g) if s.order == 4)
    x = next(s for s in all_subgroups(FiniteGroup(g.table)) if s.elements == k.elements)
    with pytest.raises(NotSubgroup):
        call(g, k, x)


def test_mackey_check_refuses_a_character_off_n():
    g = symmetric_group(4)
    subs = all_subgroups(g)
    n = next(s for s in subs if s.order == 12)
    h = next(s for s in subs if s.order == 8)
    for chi in (trivial_character(h.group, 12), trivial_character(g, 12),
                trivial_character(FiniteGroup(n.group.table), 12)):
        with pytest.raises(NotSubgroup):
            mackey_check(g, h, n, chi)
    with pytest.raises(InvalidParams):
        mixed = ClassFunction(n.group, 12, (rational(12, 1), rational(6, 1))
                              + tuple(rational(12, 1) for _ in n.group.classes[2:]))
        mackey_check(g, h, n, mixed)


# A class function with the wrong number of values, or with a value outside
# Q(zeta_cyc_order), is refused where it is made, so induce and restrict
# never index past its values or add Cyc numbers of different orders.

def test_induce_refuses_malformed_class_functions():
    a3 = a3_of_s3()
    with pytest.raises(InvalidParams):
        induce(S3, a3, ClassFunction(a3.group, 6, (rational(6, 1), rational(3, 1), rational(6, 1))))
    with pytest.raises(InvalidParams):
        induce(S3, a3, ClassFunction(a3.group, 6, (rational(6, 1),)))


def test_restrict_refuses_malformed_class_functions():
    with pytest.raises(InvalidParams):
        restrict(S3, a3_of_s3(), ClassFunction(S3, 6, (rational(6, 1),)))
    with pytest.raises(InvalidParams):
        restrict(S3, a3_of_s3(), ClassFunction(S3, 6, (1, 1, 1)))


def test_mackey_check_refuses_a_class_function_of_the_wrong_length():
    g = symmetric_group(4)
    subs = all_subgroups(g)
    n = next(s for s in subs if s.order == 12)
    h = next(s for s in subs if s.order == 8)
    with pytest.raises(InvalidParams):
        mackey_check(g, h, n, ClassFunction(n.group, 12, (rational(12, 1),) * (len(n.group.classes) + 1)))


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


def _order_by_powers(chi):
    """The definition: the least k > 0 with chi^k trivial."""
    one = trivial_character(chi.group, chi.cyc_order)
    acc, k = chi, 1
    while acc != one:
        acc, k = acc * chi, k + 1
    return k


@pytest.mark.parametrize("build", [lambda: cyclic_group(21), lambda: S3,
                                   lambda: semidirect_cyclic(7, 3)])
def test_character_order_is_the_order_in_the_dual_group(build):
    g = build()
    for chi in linear_characters(g, g.exponent):
        assert character_order(chi) == _order_by_powers(chi)


def test_character_order_refuses_values_off_the_roots_of_unity():
    # degree 1 but not a character: multiplying until trivial never ends
    chi = ClassFunction(S3, 6, tuple(rational(6, v) for v in (1, 2, 2)))
    t0 = time.perf_counter()
    with pytest.raises(InvalidParams):
        character_order(chi)
    assert time.perf_counter() - t0 < 1


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
