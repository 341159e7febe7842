"""The exact irreducibility test against an oracle that spins every line,
and its invariance under conjugation."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympal import linalg
from sympal.classify import classify
from sympal.ffield import FieldElement, field_make, mult_generator, subfield_embed
from sympal.groupkit import group, is_irreducible, spin
from sympal.npgroup import build_chi, build_np_group, np_params
from sympal.symplectic import (
    SqMatrix,
    SympSpace,
    make_transvection,
    mat,
    random_similitude,
    random_transvection,
    random_vector,
    scaling_similitude,
    stabilizes,
)

F4 = field_make(2, 2)
F5 = field_make(5, 1)
F9 = field_make(3, 2)
F25 = field_make(5, 2)


def oracle_irreducible(g) -> bool:
    """Whether some line spins to a proper subspace, trying every line
    (first nonzero coordinate 1): any invariant subspace holds a line, and
    that line spins inside it."""
    n, q = g.space.n, g.space.field.order
    for lead in range(n):
        for tail in product(range(q), repeat=n - lead - 1):
            if spin(g.space, g.generators, (0,) * lead + (1,) + tail).dim < n:
                return False
    return True


def assert_agrees(g, seeds=(0,)):
    want = oracle_irreducible(g)
    for seed in seeds:
        res = is_irreducible(g, seed)
        assert res.irreducible == want
        if not want:
            w = res.witness
            assert 0 < w.dim < g.space.n
            assert all(stabilizes(m, w) for m in g.generators)
    return want


# ---------------------------------------------------------------------------
# the test fixtures with q^n <= 10^6
# ---------------------------------------------------------------------------

def _fixtures():
    s2, s4, s25 = (SympSpace.standard(F5, 2), SympSpace.standard(F5, 4),
                   SympSpace.standard(F25, 2))
    t = mult_generator(F25).index
    swap = mat(s4, [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    emb = subfield_embed(F5, F25)

    def lift(m):
        return SqMatrix(s25, tuple(tuple(emb(FieldElement(F5, x)).index for x in row)
                                   for row in m.rows))

    sp2 = [make_transvection(s2, (1, 0), 1), make_transvection(s2, (0, 1), 1)]
    out = {
        "reducible": group(s2, [make_transvection(s2, (1, 0), 1)]),
        "huge_f5": group(s2, sp2),
        "huge_f25": group(s25, [make_transvection(s25, (1, 0), 1),
                                make_transvection(s25, (0, 1), t)]),
        "induced": group(s4, [make_transvection(s4, v, 1) for v in
                              [(1, 0, 0, 0), (0, 0, 1, 0), (1, 0, 1, 0),
                               (0, 1, 0, 0), (0, 0, 0, 1), (0, 1, 0, 1)]] + [swap]),
        "sp4_f5": group(s4, [make_transvection(s4, v, 1) for v in
                             [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                              (0, 0, 0, 1), (1, 1, 0, 0)]]),
        "scaling": group(s2, [scaling_similitude(s2, 2)]),
        "embedded_sp2_f5": group(s25, [lift(m) for m in sp2]),
    }
    for prm in [(2, 5, 3, 7), (4, 7, 5, 11)]:
        out[f"np_{prm}"] = build_np_group(build_chi(np_params(*prm)))[0]
    return out


FIXTURES = _fixtures()
CLASSIFY_FIXTURES = ["reducible", "induced", "huge_f5", "huge_f25"]


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixtures_agree_with_every_line_spun(name):
    g = FIXTURES[name]
    want = assert_agrees(g, seeds=(0, 1, 2))
    assert want == (name not in ("reducible", "scaling"))


def test_conjugated_classifier_fixtures_agree_with_every_line_spun():
    rng = random.Random(31415)
    for name in CLASSIFY_FIXTURES:
        g = FIXTURES[name]
        for _ in range(3):
            assert_agrees(_conjugate(g, rng))


# ---------------------------------------------------------------------------
# a seeded corpus
# ---------------------------------------------------------------------------

def _conjugate(g, rng):
    a = random_similitude(g.space, rng)
    ai = a.inv()
    return group(g.space, [a * m * ai for m in g.generators])


def _block_pairs(space, a, b):
    """diag(a, b) on the hyperbolic pairs (e1, f1) and (e2, f2) of F^4."""
    rows = [[0] * 4 for _ in range(4)]
    for block, (i, j) in ((a, (0, 2)), (b, (1, 3))):
        for r, x in enumerate((i, j)):
            for c, y in enumerate((i, j)):
                rows[x][y] = block.rows[r][c]
    return SqMatrix(space, tuple(map(tuple, rows)))


def _sl2_words(s2, rng, count):
    out = []
    for _ in range(count):
        m = random_transvection(s2, rng)
        for _ in range(3):
            m = m * random_transvection(s2, rng)
        out.append(m)
    return out


def _singer_cycle(s2):
    """A generator of F_{q^2}^* acting on F_q^2: the companion matrix of a
    monic quadratic whose roots have order q^2 - 1.  Every 2x2 invertible
    matrix is a similitude of a 2-dimensional symplectic space."""
    ctx = s2.field.ctx
    q = s2.field.order
    ident = linalg.identity(2)
    primes = [p for p in range(2, q * q) if (q * q - 1) % p == 0
              and all(p % d for d in range(2, p))]
    for b, c in product(range(q), range(1, q)):
        comp = SqMatrix(s2, ((0, ctx.neg(c)), (1, ctx.neg(b))))

        def power(e):
            out, acc = SqMatrix(s2, ident), comp
            while e:
                if e & 1:
                    out = out * acc
                acc, e = acc * acc, e >> 1
            return out.rows

        if power(q * q - 1) == ident and all(power((q * q - 1) // p) != ident for p in primes):
            return comp
    raise AssertionError("no Singer cycle found")


def _corpus():
    rng = random.Random(2024)
    out = []
    s4_5 = SympSpace.standard(F5, 4)
    s2_25 = SympSpace.standard(F25, 2)
    # U + U with isomorphic summands, and U + U' with independent ones
    s2_5 = SympSpace.standard(F5, 2)
    for spec in (F5, F4, F9):
        s2, s4 = SympSpace.standard(spec, 2), SympSpace.standard(spec, 4)
        for _ in range(4):
            a = _sl2_words(s2, rng, 2)
            b = _sl2_words(s2, rng, 2)
            out.append(("U+U", group(s4, [_block_pairs(s4, x, x) for x in a])))
            out.append(("U+U'", group(s4, [_block_pairs(s4, x, y) for x, y in zip(a, b)])))
    out += [(name + " conjugated", _conjugate(g, rng)) for name, g in out[:6]]
    # Singer cycles: irreducible, not absolutely irreducible
    for spec in (F4, F5, F9, field_make(7, 1), field_make(11, 1)):
        s2 = SympSpace.standard(spec, 2)
        g = group(s2, [_singer_cycle(s2)])
        out += [("singer", g), ("singer conjugated", _conjugate(g, rng))]
    # cyclic <diag(a, b)> over F_25 with a != b: two eigenvalues in the field
    for _ in range(6):
        a, b = rng.sample(range(1, 25), 2)
        out.append(("diagonal", group(s2_25, [SqMatrix(s2_25, ((a, 0), (0, b)))])))
    # single transvections, scalars and the identity
    for spec, n in [(F5, 2), (F4, 2), (F9, 2), (F5, 4), (F4, 4), (F25, 2)]:
        s = SympSpace.standard(spec, n)
        out.append(("transvection", group(s, [random_transvection(s, rng)])))
        c = rng.randrange(1, spec.order)
        out.append(("scalar", group(s, [SqMatrix(s, linalg.scalar_mat(n, c))])))
    # transvections with directions in a proper subspace W: W is invariant
    for spec, n in [(F5, 4), (F4, 4), (F9, 4), (F5, 2), (field_make(3, 1), 6),
                    (field_make(2, 1), 6)] * 8:
        s = SympSpace.standard(spec, n)
        basis = [random_vector(s, rng) for _ in range(rng.randrange(1, n))]
        gens = []
        for _ in range(rng.randrange(1, 4)):
            coeffs = [rng.randrange(spec.order) for _ in basis]
            v = tuple(linalg.vec_dot(spec, coeffs, col) for col in zip(*basis))
            if any(v):
                gens.append(make_transvection(s, v, rng.randrange(1, spec.order)))
        if gens:
            out.append(("directions in W", group(s, gens)))
    # random similitudes and random transvections: mostly irreducible
    for spec, n in [(F5, 2), (F4, 2), (F9, 2), (F25, 2), (field_make(7, 1), 2),
                    (field_make(2, 1), 4), (field_make(3, 1), 4), (F4, 4), (F5, 4),
                    (field_make(2, 1), 6)] * 10:
        s = SympSpace.standard(spec, n)
        k = rng.randrange(1, 3)
        if rng.random() < 0.5:
            gens = [random_similitude(s, rng, words=2) for _ in range(k)]
        else:
            gens = [random_transvection(s, rng) for _ in range(k + 1)]
        out.append(("random", group(s, gens)))
    out.append(("sp4_f5 transvection pair",
                group(s4_5, [make_transvection(s4_5, (1, 0, 0, 0), 1),
                             make_transvection(s4_5, (0, 0, 1, 0), 1)])))
    out.append(("sp2_f5", group(s2_5, [make_transvection(s2_5, (1, 0), 1),
                                       make_transvection(s2_5, (0, 1), 1)])))
    return out


CORPUS = _corpus()


def test_corpus_covers_the_hard_cases():
    names = {name for name, _ in CORPUS}
    assert len(CORPUS) >= 200
    assert {"U+U", "U+U'", "singer", "diagonal", "transvection"} <= names
    assert {g.space.field for _, g in CORPUS} >= {F4, F5, F9, F25}


def test_corpus_agrees_with_every_line_spun():
    verdicts = {}
    for name, g in CORPUS:
        verdicts.setdefault(name, set()).add(assert_agrees(g, seeds=(0, 7)))
    assert verdicts["U+U"] == verdicts["U+U'"] == verdicts["diagonal"] == {False}
    assert verdicts["transvection"] == verdicts["scalar"] == {False}
    assert verdicts["singer"] == verdicts["singer conjugated"] == {True}
    assert verdicts["random"] == {True, False}


# ---------------------------------------------------------------------------
# invariance under conjugation
# ---------------------------------------------------------------------------

@settings(max_examples=24, deadline=None, database=None)
@given(name=st.sampled_from(CLASSIFY_FIXTURES), seed=st.integers(0, 2**32 - 1),
       irreducibility_seed=st.integers(0, 2**16))
def test_verdict_and_case_are_conjugation_invariant(name, seed, irreducibility_seed):
    g = FIXTURES[name]
    h = _conjugate(g, random.Random(seed))
    assert (is_irreducible(h, irreducibility_seed).irreducible
            == is_irreducible(g).irreducible)
    assert classify(h).case == classify(g).case == name.split("_")[0]
