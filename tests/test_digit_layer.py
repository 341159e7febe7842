"""The digit layer of `ffield._Fq` against scalar and polynomial oracles.

`reference_exp_log` is the earlier per-element construction of the power
and logarithm tables, on polynomial multiplication through the prime
field, kept here as an oracle for the doubling in `_Fq.exp_log`.
"""

import random
from itertools import product

import numpy as np
import pytest

from sympal import ffield, linalg
from sympal.ffield import factorize, field_make

DIGIT_FIELDS = [(2, 2), (2, 3), (3, 2), (5, 2), (3, 4), (5, 3)]


def _ctx(ell, r):
    return field_make(ell, r).ctx


@pytest.mark.parametrize("ell, r", DIGIT_FIELDS)
def test_digit_products_agree_with_mul(ell, r):
    ctx = _ctx(ell, r)
    q = ctx.q
    mul = np.array([[ctx.mul(a, b) for b in range(q)] for a in range(q)])
    digs = ctx.digit_array(np.arange(q))
    assert np.array_equal(ctx.index_array(ctx.product_digits(digs[:, None], digs[None, :])), mul)
    # row a of the product table is every b through multiplication by a
    assert np.array_equal(ctx.index_array(digs @ ctx.mul_matrix(np.arange(q)) % ell), mul)
    assert all(ctx._raw_mul(a, b) == mul[a, b] for a in range(q) for b in range(q))


@pytest.mark.parametrize("ell, r", DIGIT_FIELDS + [(2, 10), (101, 1)])
def test_index_array_inverts_digit_array(ell, r):
    ctx = _ctx(ell, r)
    x = np.arange(ctx.q)
    digs = ctx.digit_array(x)
    assert digs.shape == (ctx.q, r) and digs.min() >= 0 and digs.max() < ell
    assert np.array_equal(ctx.index_array(digs), x)
    assert [tuple(d) for d in digs.tolist()] == [ctx.digits(int(a)) for a in x]


def reference_exp_log(spec):
    """Generator, exp and log built one power at a time, multiplying by
    polynomial reduction over the prime field."""
    ctx = spec.ctx
    prime = field_make(spec.ell, 1).ctx

    def mul(a, b):
        pa = ffield._poly_trim(list(ctx.digits(a)))
        pb = ffield._poly_trim(list(ctx.digits(b)))
        if not pa or not pb:
            return 0
        return ctx.encode(ffield._poly_mulmod(pa, pb, list(spec.modulus), prime))

    def power(a, e):
        out = 1
        for _ in range(e):
            out = mul(out, a)
        return out

    q = spec.order
    lex = (ctx.encode(c) for c in product(range(spec.ell), repeat=spec.degree))
    g = next(c for c in lex if c and all(
        power(c, (q - 1) // p) != 1 for p in factorize(q - 1)))
    exp = np.zeros(q - 1, dtype=np.int64)
    log = np.full(q, -1, dtype=np.int64)
    acc = 1
    for i in range(q - 1):
        exp[i] = acc
        log[acc] = i
        acc = mul(acc, g)
    assert acc == 1
    return g, exp, log


@pytest.mark.parametrize("ell, r", [(2, 10), (3, 7), (5, 4), (7, 3), (31, 2)])
def test_exp_log_matches_per_element_reference(ell, r):
    spec = field_make(ell, r)
    g, exp, log = reference_exp_log(spec)
    got_exp, got_log = spec.ctx.exp_log()
    assert spec.ctx.generator() == g
    assert np.array_equal(got_exp, exp) and np.array_equal(got_log, log)


def test_mul_tensor_is_reduction_of_monomials():
    # F_8 = F_2[x]/(x^3 + x^2 + 1): x^3 = x^2 + 1, x^4 = x^3 + x = x^2 + x + 1
    spec = field_make(2, 3)
    assert spec.modulus == (1, 0, 1, 1)
    t = spec.ctx.mul_tensor
    assert t[1, 2].tolist() == [1, 0, 1] and t[2, 2].tolist() == [1, 1, 1]
    assert np.array_equal(t, t.transpose(1, 0, 2))


def _random_mat(rng, q, rows, cols):
    return tuple(tuple(rng.randrange(q) for _ in range(cols)) for _ in range(rows))


@pytest.mark.parametrize("ell, r", [(5, 1), (5, 2), (5, 3)])
@pytest.mark.parametrize("n", [2, 4])
def test_digit_maps_agree_with_mat_mul(ell, r, n):
    """linear_map in the three shapes the library builds, each against
    mat_mul: row·g (a 1 x n row), the square sandwich left·x·right, and
    left·x·right with an n x m right factor (extract_induction's first
    block column).  apply_map maps a batch of matrices at once."""
    spec = field_make(ell, r)
    ctx = spec.ctx
    rng = random.Random(1000 * n + r)
    for _ in range(5):
        g, left, right, x, y = (_random_mat(rng, spec.order, n, n) for _ in range(5))
        narrow = _random_mat(rng, spec.order, n, n // 2)
        row_map = ctx.linear_map([[1]], g)
        assert row_map.shape == (1, n, r, 1, n, r)
        rows = ctx.apply_map(row_map, np.array(x))
        assert rows.shape == (n, 1, n)
        assert linalg.mat_mul(spec, x, g) == tuple(map(tuple, rows[:, 0].tolist()))
        for rhs in (right, narrow):
            b = len(rhs[0])
            sandwich = ctx.linear_map(left, rhs)
            assert sandwich.shape == (n, n, r, n, b, r)
            batch = [x, y, g]
            got = ctx.apply_map(sandwich, np.array(batch))
            assert got.shape == (len(batch), n, b)
            assert [linalg.mat_mul(spec, left, linalg.mat_mul(spec, z, rhs)) for z in batch] \
                == [tuple(map(tuple, image)) for image in got.tolist()]
