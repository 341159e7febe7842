# Exact character theory on small groups: tables, induction, Mackey.
#
#     python3 demos/characters_and_mackey.py
#
# Everything is exact -- class function values live in cyclotomic fields,
# stored as integer coefficients modulo the cyclotomic polynomial, so
# equalities are real equalities.

from sympal.mackey import (
    all_subgroups,
    character_order,
    character_table,
    induce,
    inner_product,
    linear_characters,
    mackey_check,
    restrict,
    semidirect_cyclic,
    symmetric_group,
    verify_prop_nh,
)

s4 = symmetric_group(4)
ct = character_table(s4)
print("S4 degrees:", [int(c.degree.rational_value()) for c in ct])

# Frobenius reciprocity, exactly
subs = all_subgroups(s4)
h = next(s for s in subs if s.order == 8)   # a Sylow 2-subgroup
for psi in character_table(h.group, s4.exponent)[:3]:
    for phi in ct[:3]:
        lhs = inner_product(induce(s4, h, psi), phi)
        rhs = inner_product(psi, restrict(s4, h, phi))
        assert (lhs - rhs).is_zero()
print("Frobenius reciprocity holds on the sampled pairs")

# Mackey's formula on every (H, N) pair of a Frobenius group
g = semidirect_cyclic(7, 3)
print("C7:C3 degrees:",
      [int(c.degree.rational_value()) for c in character_table(g)])
checks = 0
for n in all_subgroups(g):
    for chi in character_table(n.group, g.exponent):
        for h in all_subgroups(g):
            assert mackey_check(g, h, n, chi)
            checks += 1
print(f"Mackey identity verified {checks} times, zero failures")

# the two-induction statement: if Ind_H(S) = Ind_N(chi) with chi of
# p-power order, the subgroup H must contain N
n = next(s for s in all_subgroups(g) if s.order == 7)
chi = next(c for c in linear_characters(n.group, g.exponent)
           if character_order(c) == 7)
target = induce(g, n, chi)
hits = 0
for h in all_subgroups(g):
    for s_char in character_table(h.group, g.exponent):
        if induce(g, h, s_char) == target:
            rep = verify_prop_nh(g, n, h, chi, s_char, 7)
            assert rep.holds
            hits += 1
print(f"{hits} inducing pairs found; N <= H in every one")
