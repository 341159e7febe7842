"""Finite field arithmetic: construction, tables, dlog, embeddings.

Oracle values (moduli, generators, logs) were computed independently by
brute-force scripts over the integer encodings and frozen here.
"""

import json
import pathlib
import random
import time

import pytest

from sympal.errors import FieldTooLarge, NotGenerator, SpecMismatch, ZeroArgument
from sympal.ffield import (
    FieldElement,
    FieldSpec,
    discrete_log,
    field_make,
    frobenius,
    is_prime,
    mult_generator,
    multiplicative_order,
    poly_factors,
    poly_roots,
    subfield_embed,
)


def test_prime_field_basics():
    f5 = field_make(5, 1)
    a = FieldElement(f5, 2)
    b = FieldElement(f5, 4)
    assert (a + b).index == 1
    assert (a * b).index == 3
    assert (a - b).index == 3
    assert (a / b).index == 3   # 2 * 4^-1 = 2 * 4 = 8 = 3
    assert (-a).index == 3


def test_canonical_modulus_f25():
    # lex-least monic irreducible quadratic over F_5, constant term first:
    # x^2 + x + 1 -> (1, 1, 1).  Oracle: exhaustive scan of all 25 candidates.
    f25 = field_make(5, 2)
    assert f25.modulus == (1, 1, 1)
    assert f25.order == 25


def test_canonical_modulus_f49():
    f49 = field_make(7, 2)
    # x^2 + 1 is irreducible over F_7 (-1 is not a square mod 7)
    assert f49.modulus == (1, 0, 1)


def test_field_spec_identity_is_cached():
    assert field_make(5, 2) is field_make(5, 2)


def test_equal_specs_share_one_context_kept_on_each():
    made = field_make(5, 2)
    direct = FieldSpec(5, 2, (1, 1, 1))
    assert direct is not made and direct == made and hash(direct) == hash(made)
    assert direct.ctx is made.ctx
    # cached on the instance, so later accesses hash nothing
    assert vars(direct)["ctx"] is vars(made)["ctx"]


def test_mixed_spec_arithmetic_rejected():
    a = FieldElement(field_make(5, 1), 1)
    b = FieldElement(field_make(7, 1), 1)
    with pytest.raises(SpecMismatch):
        _ = a + b


def test_extension_field_relations():
    f25 = field_make(5, 2)
    ctx = f25.ctx
    x = ctx.encode([0, 1])
    # x^2 = -x - 1 mod (1 + x + x^2)
    assert ctx.mul(x, x) == ctx.encode([4, 4])


def test_generators():
    # oracle: least primitive roots
    assert mult_generator(field_make(5, 1)).index == 2
    assert mult_generator(field_make(7, 1)).index == 3
    g25 = mult_generator(field_make(5, 2))
    ctx = field_make(5, 2).ctx
    # order must be exactly 24
    acc, o = g25.index, 1
    while acc != 1:
        acc = ctx.mul(acc, g25.index)
        o += 1
    assert o == 24


def test_discrete_log_round_trip():
    f25 = field_make(5, 2)
    g = mult_generator(f25)
    ctx = f25.ctx
    for k in (0, 1, 5, 17, 23):
        x = FieldElement(f25, ctx.pow(g.index, k))
        assert discrete_log(x, g) == k


def test_discrete_log_rejects_non_generator():
    f7 = field_make(7, 1)
    with pytest.raises(NotGenerator):
        discrete_log(FieldElement(f7, 3), FieldElement(f7, 2))  # 2 has order 3


def test_discrete_log_of_zero():
    f7 = field_make(7, 1)
    with pytest.raises(ZeroArgument):
        discrete_log(FieldElement(f7, 0), FieldElement(f7, 3))


@pytest.mark.parametrize("ell, degree", [(7, 1), (2, 4), (5, 2), (3, 3)])
def test_pow_and_discrete_log_against_brute_force_powers(ell, degree):
    spec = field_make(ell, degree)
    ctx = spec.ctx
    q = spec.order
    # powers of every unit by repeated digit products, independent of exp/log
    powers = {}
    for a in range(1, q):
        row = [1]
        for _ in range(q - 2):
            row.append(ctx._raw_mul(row[-1], a))
        powers[a] = row
    generators = [g for g in powers if len(set(powers[g])) == q - 1]
    assert ctx.generator() in generators
    for a, row in powers.items():
        for e in range(-2 * q, 2 * q):
            assert ctx.pow(a, e) == row[e % (q - 1)]
        x = FieldElement(spec, a)
        for g in range(q):
            if g in generators:
                k = discrete_log(x, FieldElement(spec, g))
                assert 0 <= k < q - 1 and powers[g][k] == a
            else:
                with pytest.raises(ZeroArgument if g == 0 else NotGenerator):
                    discrete_log(x, FieldElement(spec, g))
    assert ctx.pow(0, 0) == 1 and ctx.pow(0, 3) == 0
    with pytest.raises(ZeroDivisionError):
        ctx.pow(0, -1)


def test_frobenius_fixes_prime_subfield():
    f25 = field_make(5, 2)
    for c in range(5):
        assert frobenius(FieldElement(f25, c)).index == c
    # frobenius squared is the identity on F_25
    for i in range(25):
        e = FieldElement(f25, i)
        assert frobenius(frobenius(e)) == e


def test_dense_tables_agree_with_ops():
    f25 = field_make(5, 2)
    ctx = f25.ctx
    add, mul, neg, inv = ctx.tables()
    for a in range(25):
        for b in range(25):
            assert add[a][b] == ctx.add(a, b)
            assert mul[a][b] == ctx.mul(a, b)
        assert neg[a] == ctx.neg(a)
        if a:
            assert inv[a] == ctx.inv(a)


def test_subfield_embedding_is_a_ring_map():
    f5 = field_make(5, 1)
    f25 = field_make(5, 2)
    emb = subfield_embed(f5, f25)
    for a in range(5):
        for b in range(5):
            ea = emb(FieldElement(f5, a))
            eb = emb(FieldElement(f5, b))
            assert emb(FieldElement(f5, a) + FieldElement(f5, b)) == ea + eb
            assert emb(FieldElement(f5, a) * FieldElement(f5, b)) == ea * eb


def test_embedding_prime_subfield_is_identity_on_indices():
    f5 = field_make(5, 1)
    f25 = field_make(5, 2)
    emb = subfield_embed(f5, f25)
    # constants encode identically in the canonical encoding
    for a in range(5):
        assert emb(FieldElement(f5, a)).index == a


def test_number_theory_helpers():
    assert is_prime(2) and is_prime(53) and not is_prime(1) and not is_prime(91)
    assert multiplicative_order(5, 3) == 2
    assert multiplicative_order(7, 5) == 4
    assert multiplicative_order(2, 7) == 3


def test_field_too_large_guard():
    with pytest.raises(FieldTooLarge):
        field_make(1009, 2)  # order > 10^6


# ---------------------------------------------------------------------------
# polynomial factorization over F_q
# ---------------------------------------------------------------------------

def _mul(f, g, ctx):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = ctx.add(out[i + j], ctx.mul(a, b))
    return out


def _divides(g, f, ctx):
    """Whether monic g divides f, by schoolbook long division."""
    rem = list(f)
    while len(rem) >= len(g):
        c = rem[-1]
        off = len(rem) - len(g)
        for j, b in enumerate(g):
            rem[off + j] = ctx.sub(rem[off + j], ctx.mul(c, b))
        rem.pop()
    return not any(rem)


def _has_root(f, ctx):
    for x in range(ctx.q):
        acc = 0
        for c in reversed(f):
            acc = ctx.add(ctx.mul(acc, x), c)
        if acc == 0:
            return True
    return False


@pytest.mark.parametrize("ell,degree", [(5, 1), (5, 2), (2, 2), (3, 2)])
def test_factors_multiply_back_to_the_squarefree_part(ell, degree):
    spec = field_make(ell, degree)
    ctx = spec.ctx
    rng = random.Random(ell * 10 + degree)
    for _ in range(40):
        f = [1]
        for _ in range(rng.randrange(1, 4)):
            g = [rng.randrange(spec.order) for _ in range(rng.randrange(1, 4))] + [1]
            for _ in range(rng.choice((1, 1, 2, ell))):
                f = _mul(f, g, ctx)
        factors = poly_factors(spec, f, rng)
        assert len(set(map(tuple, factors))) == len(factors)
        rad = [1]
        for p in factors:
            # every factor divides a random factor of degree <= 3, so it is
            # irreducible iff it is monic without a root
            assert p[-1] == 1 and 2 <= len(p) <= 4
            assert len(p) == 2 or not _has_root(p, ctx)
            rad = _mul(rad, p, ctx)
        # rad | f | rad^deg(f): rad is the product of f's distinct irreducibles
        assert _divides(rad, f, ctx)
        power = [1]
        for _ in range(len(f) - 1):
            power = _mul(power, rad, ctx)
        assert _divides(f, power, ctx)


@pytest.mark.parametrize("ell,degree", [(2, 2), (5, 1), (3, 2)])
def test_factors_of_x_to_the_q_squared_minus_x(ell, degree):
    spec = field_make(ell, degree)
    q = spec.order
    f = [0] * (q * q + 1)
    f[1], f[-1] = spec.ctx.neg(1), 1
    factors = poly_factors(spec, f, random.Random(0))
    # every monic irreducible of degree 1 or 2, once: q linear, (q^2-q)/2 quadratic
    assert [len(p) - 1 for p in factors] == [1] * q + [2] * ((q * q - q) // 2)
    assert [p[0] for p in factors[:q]] == sorted(spec.ctx.neg(a) for a in range(q))


def test_field_moduli_are_their_own_factorization():
    for ell, degree in [(2, 5), (3, 4), (5, 3), (7, 2)]:
        mod = list(field_make(ell, degree).modulus)
        assert poly_factors(field_make(ell, 1), mod, random.Random(1)) == [mod]


def test_factor_rejects_zero():
    with pytest.raises(ZeroArgument):
        poly_factors(field_make(5, 1), [0, 0], random.Random(0))


def _brute_roots(f, ell):
    return [t for t in range(ell) if sum(c * t ** i for i, c in enumerate(f)) % ell == 0]


@pytest.mark.parametrize("ell", [2, 3, 5, 13, 53])
def test_roots_agree_with_brute_force(ell):
    spec = field_make(ell, 1)
    rng = random.Random(ell)
    for _ in range(40):
        f = [1]
        for _ in range(rng.randrange(0, 5)):
            f = _mul(f, [rng.randrange(ell), 1], spec.ctx)
        if rng.random() < 0.5:
            f = _mul(f, [rng.randrange(ell) for _ in range(3)] + [rng.randrange(1, ell)], spec.ctx)
        assert poly_roots(spec, f) == _brute_roots(f, ell), f


@pytest.mark.parametrize("ell", [5, 7, 13])
def test_roots_edge_cases(ell):
    spec = field_make(ell, 1)
    # (x - 2)^3 (x - 3): a repeated root counts once
    f = _mul(_mul(_mul([ell - 2, 1], [ell - 2, 1], spec.ctx), [ell - 2, 1], spec.ctx),
             [ell - 3, 1], spec.ctx)
    assert poly_roots(spec, f) == [2, 3]
    # x^2 - r for r a non-square: no root
    r = next(r for r in range(2, ell) if pow(r, (ell - 1) // 2, ell) == ell - 1)
    assert poly_roots(spec, [ell - r, 0, 1]) == []
    # x^3 + x: a root at 0
    assert poly_roots(spec, [0, 1, 0, 1]) == _brute_roots([0, 1, 0, 1], ell)
    assert poly_roots(spec, [0, 1, 0, 1])[0] == 0
    # a nonzero constant has no root, trailing zeros are ignored
    assert poly_roots(spec, [3, 0, 0]) == []
    with pytest.raises(ZeroArgument):
        poly_roots(spec, [0, ell])
    with pytest.raises(SpecMismatch):
        poly_roots(field_make(ell, 2), [0, 1])


# moduli of the scan over every monic polynomial in lex order, recorded
# before field_make skipped the candidates with a root in F_ell
MODULI = json.loads((pathlib.Path(__file__).parent / "data" / "field_moduli.json").read_text())


def test_field_make_keeps_the_lex_least_modulus():
    top = {2: 16, 3: 12, 5: 8, 7: 7, 11: 5, 31: 4, 997: 2}
    assert list(MODULI) == [f"{ell},{r}" for ell in top for r in range(2, top[ell] + 1)]
    for key, want in MODULI.items():
        ell, degree = map(int, key.split(","))
        assert list(field_make.__wrapped__(ell, degree).modulus) == want, key


def test_field_make_scans_only_rootless_candidates():
    start = time.perf_counter()
    spec = field_make.__wrapped__(3, 12)
    assert time.perf_counter() - start < 2
    assert list(spec.modulus) == MODULI["3,12"]
