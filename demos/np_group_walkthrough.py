# Building an (n,p)-group from scratch and poking at it.
#
#     python3 demos/np_group_walkthrough.py
#
# The construction wants a prime pair (q, p) with ord_p(q) = n, p = 1 mod n,
# and p not dividing q^(n/2) - 1, plus an odd coefficient prime ell.  The
# resulting group <D, F> is monomial and irreducible, and it preserves the
# standard alternating form <e_i, e_{n/2+i}> = 1: q^(n/2) = -1 mod p and
# chi(q) = -1 give D and F multiplier 1 on it, which the build checks.  By
# Schur the form is unique up to a scalar.

from sympal.groupkit import group_order
from sympal.npgroup import build_chi, build_np_group, find_np_primes, np_params, twist_unramified
from sympal.symplectic import multiplier_of

# which prime pairs are even available?
for n in (2, 4):
    print(f"n = {n}: pairs (q, p) up to q = 50 ->", find_np_primes(n, 50))

# the smallest n = 2 instance, realized over F_7
params = np_params(2, 5, 3, 7)
chi = build_chi(params)
print("torsion exponents (Galois orbit of chi):", chi.torsion_exponents())

g, j = build_np_group(chi)
d, f = g.generators
print("D =", d.rows, " F =", f.rows)
print("invariant form J =", j)
print("group order:", group_order(g), " multipliers:",
      multiplier_of(d), multiplier_of(f))

# unramified twists scale F; irreducibility is indifferent to them
for alpha in range(1, 7):
    tw = twist_unramified(g, alpha)
    print(f"twist by {alpha}: order {group_order(tw)}")

# a bigger one: n = 4 over F_3 (the extension degree comes from ord_p(ell))
params4 = np_params(4, 7, 5, 3)
g4, j4 = build_np_group(build_chi(params4))
print("n = 4 instance: field F_3^%d, order %d" %
      (params4.ext_degree, group_order(g4)))
