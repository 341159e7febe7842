"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with -s (or read the captured output) to see the summary lines.
All checks are exact — zero numerical tolerance anywhere.
"""

import json
import math
import random
import time
import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest

from sympal.classify import (
    Huge,
    Induced,
    Reducible,
    classify,
    recognize_sp_over_subfield,
)
from sympal.ffield import (
    FieldElement,
    field_make,
    mult_generator,
    multiplicative_order,
    subfield_embed,
)
from sympal.groupkit import group, group_order, sp_order
from sympal.mackey import (
    all_subgroups,
    alternating_group,
    character_order,
    character_table,
    check_res_nontrivial,
    cyclic_group,
    dihedral_group,
    induce,
    inner_product,
    linear_characters,
    mackey_check,
    quaternion_group,
    restrict,
    semidirect_cyclic,
    sl2_3,
    symmetric_group,
    verify_prop_nh,
)
from sympal.npgroup import (
    build_chi,
    build_np_group,
    find_np_primes,
    np_params,
    twist_unramified,
)
from sympal.regularity import check_npower_distinct, profile, random_profile
from sympal.symplectic import (
    SqMatrix,
    Subspace,
    SympSpace,
    detect_transvection,
    identity_mat,
    make_transvection,
    mat,
    multiplier_of,
    perp,
    random_similitude,
    random_transvection,
    restricts_to_identity,
    stabilizes,
)

F5 = field_make(5, 1)
F7 = field_make(7, 1)
F25 = field_make(5, 2)


def report(num, name):
    """Decorator printing the PASS/FAIL line for one criterion."""
    def wrap(fn):
        def run(*a, **kw):
            try:
                fn(*a, **kw)
            except BaseException:
                print(f"ACCEPTANCE {num} [{name}]: FAIL")
                raise
            print(f"ACCEPTANCE {num} [{name}]: PASS")
        run.__name__ = fn.__name__
        return run
    return wrap


@report(1, "transvection laws")
def test_criterion_1_transvection_laws():
    t0 = time.time()
    for spec in (F5, F7, F25):
        s = SympSpace.standard(spec, 2)
        ctx = spec.ctx
        q = spec.order
        rng = random.Random(1000 + q)
        for _ in range(1000):
            t = random_transvection(s, rng)
            data = detect_transvection(t).data
            assert t.det() == 1 and multiplier_of(t) == 1
            # additivity
            mu = rng.randrange(q)
            lhs = t * make_transvection(s, data.direction, mu)
            want = make_transvection(s, data.direction,
                                     ctx.add(data.parameter, mu))
            assert lhs.rows == want.rows
            # conjugation law
            a = random_similitude(s, rng, words=3)
            alpha = multiplier_of(a)
            conj = a * t * a.inv()
            want = make_transvection(
                s, a.apply(data.direction),
                ctx.mul(data.parameter, ctx.inv(alpha)))
            assert conj.rows == want.rows
    assert time.time() - t0 < 10, "transvection suite exceeded 10 s"


@report(2, "order reproduction")
def test_criterion_2_orders():
    t0 = time.time()
    s5 = SympSpace.standard(F5, 2)
    g = group(s5, [make_transvection(s5, (1, 0), 1),
                   make_transvection(s5, (0, 1), 1)])
    assert group_order(g) == 120 == sp_order(2, 5)

    s7 = SympSpace.standard(F7, 2)
    g = group(s7, [make_transvection(s7, (1, 0), 1),
                   make_transvection(s7, (0, 1), 1)])
    assert group_order(g) == 336 == sp_order(2, 7)

    s25 = SympSpace.standard(F25, 2)
    t = mult_generator(F25).index
    g = group(s25, [make_transvection(s25, (1, 0), 1),
                    make_transvection(s25, (0, 1), t)])
    assert group_order(g) == 15600 == sp_order(2, 25)
    assert time.time() - t0 < 5, "small orders exceeded 5 s"

    t1 = time.time()
    s4 = SympSpace.standard(F5, 4)
    g = group(s4, [make_transvection(s4, v, 1) for v in
                   [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                    (0, 0, 0, 1), (1, 1, 0, 0)]])
    assert group_order(g, cap=2 * 10**7) == 9_360_000 == sp_order(4, 5)
    # and listed: 9,360,000 distinct sorted keys, holding the identity and
    # a seeded word in the generators, in at most 4 MiB traced beside the
    # keys' 71.4 MB
    elems = g.elements(cap=2 * 10**7)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        keys = elems._keys
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak - keys.nbytes <= 4 * 2**20
    assert len(keys) == 9_360_000 and keys.dtype == np.uint64
    assert np.all(keys[1:] > keys[:-1])
    rng = random.Random(2)
    word = identity_mat(s4)
    for _ in range(24):
        word = word * rng.choice(g.generators)
    assert identity_mat(s4) in elems and word in elems
    assert time.time() - t1 < 900, "Sp4(F5) exceeded 15 min"


def _reducible_gens(s):
    return [make_transvection(s, (1, 0), 1)]


def _huge_f5_gens(s):
    return [make_transvection(s, (1, 0), 1), make_transvection(s, (0, 1), 1)]


def _huge_f25_gens(s):
    t = mult_generator(F25).index
    return [make_transvection(s, (1, 0), 1), make_transvection(s, (0, 1), t)]


def _induced_gens(s):
    gens = [make_transvection(s, v, 1) for v in
            [(1, 0, 0, 0), (0, 0, 1, 0), (1, 0, 1, 0),
             (0, 1, 0, 0), (0, 0, 0, 1), (0, 1, 0, 1)]]
    swap = mat(s, [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    return gens + [swap]


@report(3, "classifier trichotomy")
def test_criterion_3_classifier():
    cases = [
        (SympSpace.standard(F5, 2), _reducible_gens, Reducible, None),
        (SympSpace.standard(F5, 4), _induced_gens, Induced, None),
        (SympSpace.standard(F5, 2), _huge_f5_gens, Huge, 1),
        (SympSpace.standard(F25, 2), _huge_f25_gens, Huge, 2),
    ]
    rng = random.Random(31415)
    for s, build, want, degree in cases:
        base = build(s)
        for trial in range(20):
            a = random_similitude(s, rng)
            ai = a.inv()
            g = group(s, [a * m * ai for m in base])
            v = classify(g)
            assert isinstance(v, want), f"misclassified {want} trial {trial}"
            if degree is not None:
                assert v.subfield_degree == degree

    # subfield recognition: Sp_2(F_5) conjugated inside GSp_2(F_25) -> d = 1
    s25 = SympSpace.standard(F25, 2)
    emb = subfield_embed(F5, F25)
    s5 = SympSpace.standard(F5, 2)

    def lift(m):
        return SqMatrix(s25, tuple(
            tuple(emb(FieldElement(F5, x)).index for x in row) for row in m.rows))

    base = [lift(m) for m in _huge_f5_gens(s5)]
    for trial in range(5):
        a = random_similitude(s25, rng)
        ai = a.inv()
        g = group(s25, [a * m * ai for m in base])
        assert recognize_sp_over_subfield(g) == 1


def _all_subspaces(s):
    """Every subspace, via reduced-echelon enumeration."""
    n = s.n
    q = s.field.order
    yield Subspace(s, ())
    for k in range(1, n + 1):
        for pivots in combinations(range(n), k):
            free = [[] for _ in range(k)]
            for i in range(k):
                for col in range(n):
                    if col > pivots[i] and col not in pivots:
                        free[i].append(col)
            slots = [(i, col) for i in range(k) for col in free[i]]
            for values in product(range(q), repeat=len(slots)):
                rows = [[0] * n for _ in range(k)]
                for i in range(k):
                    rows[i][pivots[i]] = 1
                for (i, col), val in zip(slots, values):
                    rows[i][col] = val
                yield Subspace(s, tuple(tuple(r) for r in rows))


@report(4, "stabilized subspaces force the direction")
def test_criterion_4_lemma_direction():
    for n in (2, 4):
        s = SympSpace.standard(F5, n)
        subspaces = list(_all_subspaces(s))
        # Gaussian-binomial count as an enumeration oracle
        assert len(subspaces) == {2: 8, 4: 1120}[n]
        transvections = []
        for lead in range(n):
            for tail in product(range(5), repeat=n - lead - 1):
                v = (0,) * lead + (1,) + tail
                transvections.append(
                    (v, [make_transvection(s, v, lam) for lam in range(1, 5)]))
        for w in subspaces:
            wp = perp(w)
            for v, mats in transvections:
                in_w, in_wp = w.contains(v), wp.contains(v)
                for t in mats:
                    if stabilizes(t, w):
                        assert in_w or in_wp
                        assert restricts_to_identity(t, w) == in_wp
                    elif in_w or in_wp:
                        # containment conversely forces stabilization
                        raise AssertionError("converse stabilization failed")


@report(5, "(n,p)-group fixture")
def test_criterion_5_np_group():
    chi = build_chi(np_params(2, 5, 3, 7))
    g, j = build_np_group(chi)
    assert group_order(g) == 12
    d, f = g.generators
    assert multiplier_of(d) == 1 and multiplier_of(f) == 1
    assert g.space.gram == j
    # F D F^-1 = D^q with q = 5
    dq = d
    for _ in range(4):
        dq = dq * d
    assert (f * d * f.inv()).rows == dq.rows
    # F^2 = -I
    from sympal.linalg import scalar_mat

    assert (f * f).rows == scalar_mat(2, g.space.field.ctx.neg(1))
    # irreducibility survives every unramified twist
    for alpha in range(1, 7):
        twist_unramified(g, alpha)   # raises NotIrreducible on failure


@report(6, "prime search")
def test_criterion_6_prime_search():
    pairs2 = find_np_primes(2, 50)
    pairs4 = find_np_primes(4, 50)
    assert (5, 3) in pairs2
    assert (7, 5) in pairs4
    for n, pairs in ((2, pairs2), (4, pairs4)):
        for q, p in pairs:
            # independent recomputation of every condition
            assert multiplicative_order(q, p) == n
            assert p % n == 1
            assert (q ** n - 1) % p == 0
            assert (q ** (n // 2) - 1) % p != 0
            assert p > n and q > n


@report(7, "weight distinctness sweep")
def test_criterion_7_regularity_sweep():
    rng = random.Random(0)
    for n in (2, 4):
        nfact = math.factorial(n)
        for ell in (7, 11, 13, 53):
            kmax = (ell - 2) // nfact
            if kmax + 1 < n:
                # the threshold ell > k n! + 1 leaves no room for n
                # distinct weights: the clause is vacuously true
                assert n == 4, "unexpected vacuity"
                continue
            for _ in range(500):
                p = random_profile(ell, n, rng, kmax)
                assert ell > p.max_weight * nfact + 1
                assert check_npower_distinct(p).distinct
    # the collision fixture is detected with the pair reported
    rep = check_npower_distinct(profile(5, 2, [(1, [0]), (1, [2])]))
    assert not rep.distinct and rep.collision == (0, 1)
    assert {c.exponent for c in rep.colliding} == {0, 2}


@report(8, "character theory suite")
def test_criterion_8_mackey_suite():
    t0 = time.time()
    small = [cyclic_group(6), symmetric_group(3), dihedral_group(4),
             quaternion_group(), alternating_group(4), cyclic_group(12),
             semidirect_cyclic(7, 3), sl2_3(), symmetric_group(4)]
    for g in small:
        assert g.order <= 24
        subs = all_subgroups(g)
        for n in subs:
            chars = character_table(n.group, g.exponent)
            for h in subs:
                for chi in chars:
                    assert mackey_check(g, h, n, chi)

    # Frobenius reciprocity on fixtures up to order 60
    frob = [symmetric_group(3), quaternion_group(), alternating_group(4),
            sl2_3(), semidirect_cyclic(13, 4), semidirect_cyclic(11, 5)]
    for g in frob:
        assert g.order <= 60
        ct = character_table(g)
        for h in all_subgroups(g):
            for psi in character_table(h.group, g.exponent):
                for phi in ct:
                    lhs = inner_product(induce(g, h, psi), phi)
                    rhs = inner_product(psi, restrict(g, h, phi))
                    assert (lhs - rhs).is_zero()

    # two-induction proposition: zero counterexamples
    for p, nn in ((7, 3), (13, 4), (11, 5)):
        g = semidirect_cyclic(p, nn)
        subs = all_subgroups(g)
        n = next(s for s in subs if s.order == p)
        nchars = [c for c in linear_characters(n.group, g.exponent)
                  if character_order(c) == p]
        matches = 0
        for chi in nchars:
            target = induce(g, n, chi)
            for h in subs:
                for s_char in character_table(h.group, g.exponent):
                    if induce(g, h, s_char) == target:
                        assert verify_prop_nh(g, n, h, chi, s_char, p).holds
                        matches += 1
        assert matches > 0

        # restriction lemma: no trivial restrictions under the hypotheses
        for h in subs:
            if h.index > nn:
                continue
            for chi in nchars:
                assert check_res_nontrivial(g, n, h, chi, p, nn)
    assert time.time() - t0 < 300, "character suite exceeded 5 min"
