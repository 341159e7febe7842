# A guided tour of the transvection trichotomy.
#
# We build three matrix groups over small symplectic spaces and watch the
# classifier land in each of its three cases.  Run with:
#     python3 demos/trichotomy_tour.py

import random

from sympal.classify import classify, extract_induction, serialize_verdict
from sympal.ffield import field_make, mult_generator
from sympal.groupkit import group, group_order, sp_order
from sympal.symplectic import SympSpace, make_transvection, mat, random_similitude

f5 = field_make(5, 1)
f25 = field_make(5, 2)

# --- case 1: reducible -----------------------------------------------------
# A single transvection fixes a hyperplane, so the natural module is
# visibly reducible.  The verdict carries the invariant subspace it found.
s = SympSpace.standard(f5, 2)
g = group(s, [make_transvection(s, (1, 0), 1)])
v = classify(g)
print("one transvection:", serialize_verdict(v))

# --- case 2: huge ----------------------------------------------------------
# Two transvections in crossed directions generate all of Sp_2(F_5).
g = group(s, [make_transvection(s, (1, 0), 1), make_transvection(s, (0, 1), 1)])
print("crossed pair: order", group_order(g), "=", sp_order(2, 5))
print("verdict:", serialize_verdict(classify(g)))

# Over F_25 the same recipe needs a parameter outside the prime field,
# otherwise the group stalls at the subfield copy Sp_2(F_5).
s25 = SympSpace.standard(f25, 2)
t = mult_generator(f25).index
g25 = group(s25, [make_transvection(s25, (1, 0), 1),
                  make_transvection(s25, (0, 1), t)])
print("over F_25:", serialize_verdict(classify(g25)))

# conjugating by a random similitude changes nothing, of course
rng = random.Random(7)
a = random_similitude(s25, rng)
conj = group(s25, [a * m * a.inv() for m in g25.generators])
print("conjugated:", serialize_verdict(classify(conj))["subfield_degree"] == 2)

# --- case 3: induced -------------------------------------------------------
# Two orthogonal planes in F_5^4, each carrying a copy of Sp_2(F_5), plus
# a matrix swapping the planes.  Irreducible, but the transvections only
# see the blocks -- the classifier reconstructs the block system.
s4 = SympSpace.standard(f5, 4)
gens = [make_transvection(s4, v, 1) for v in
        [(1, 0, 0, 0), (0, 0, 1, 0), (1, 0, 1, 0),
         (0, 1, 0, 0), (0, 0, 0, 1), (0, 1, 0, 1)]]
swap = mat(s4, [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
g4 = group(s4, gens + [swap])
v4 = classify(g4)
print("block system:", v4.block_count, "blocks of dim", v4.block_dim)
print("generator action on blocks:", v4.action)

ext = extract_induction(g4, v4)
print("stabilizer of the first block has index", ext.index,
      "and", len(ext.stabilizer), "elements")
# S_1 acts on the first block as a group of its own, generated by its
# generators' 2 x 2 matrices on that block: all of Sp_2(F_5)
print("its action on the first block has order", ext.block_action.order(),
      "=", sp_order(2, 5))
