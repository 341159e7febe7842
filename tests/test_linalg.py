"""Characteristic polynomials and matrix polynomials."""

import random

import pytest

from sympal import linalg
from sympal.ffield import field_make

FIELDS = [field_make(5, 1), field_make(5, 2), field_make(2, 2), field_make(3, 2),
          field_make(2, 1), field_make(7, 1)]


def _random_matrices(spec, rng, count=60):
    q = spec.order
    for k in range(count):
        n = 1 + k % 7
        if k % 3:
            yield tuple(tuple(rng.randrange(q) for _ in range(n)) for _ in range(n))
        else:
            # sparse 0/1 matrices: zero subdiagonal columns and repeated roots
            yield tuple(tuple(rng.choice((0, 0, 1)) for _ in range(n)) for _ in range(n))


def _elimination_det(spec, a):
    """The determinant by Gaussian elimination: the product of the pivots,
    negated once per row swap.  An oracle independent of charpoly."""
    ctx = spec.ctx
    n = len(a)
    work = [list(r) for r in a]
    d = 1
    for col in range(n):
        pr = next((i for i in range(col, n) if work[i][col]), None)
        if pr is None:
            return 0
        if pr != col:
            work[col], work[pr] = work[pr], work[col]
            d = ctx.neg(d)
        d = ctx.mul(d, work[col][col])
        inv = ctx.inv(work[col][col])
        for i in range(col + 1, n):
            if work[i][col]:
                c = ctx.mul(work[i][col], inv)
                work[i] = [ctx.sub(x, ctx.mul(c, y)) for x, y in zip(work[i], work[col])]
    return d


@pytest.mark.parametrize("spec", FIELDS, ids=repr)
def test_charpoly_cayley_hamilton_and_determinant(spec):
    rng = random.Random(spec.order)
    for a in _random_matrices(spec, rng):
        n = len(a)
        cp = linalg.charpoly(spec, a)
        assert len(cp) == n + 1 and cp[-1] == 1
        assert linalg.mat_poly(spec, cp, a) == linalg.zero_mat(n, n)
        assert linalg.det(spec, a) == _elimination_det(spec, a)
    assert linalg.det(spec, ()) == 1


def test_charpoly_of_companion_matrix_and_triangular():
    spec = field_make(7, 1)
    # the companion matrix of 4 + 5x + 5x^2 + x^3 has last column -4, -5, -5
    comp = ((0, 0, 3), (1, 0, 2), (0, 1, 2))
    assert linalg.charpoly(spec, comp) == [4, 5, 5, 1]
    # upper triangular: (x - 2)(x - 3)(x - 2) = x^3 - 7x^2 + 16x - 12
    tri = ((2, 1, 6), (0, 3, 4), (0, 0, 2))
    assert linalg.charpoly(spec, tri) == [(-12) % 7, 16 % 7, 0, 1]


def test_mat_poly_horner():
    spec = field_make(5, 1)
    a = ((1, 2), (3, 4))
    a2 = linalg.mat_mul(spec, a, a)
    want = linalg.mat_add(spec, linalg.mat_add(spec, a2, linalg.mat_scalar(spec, a, 3)),
                          linalg.scalar_mat(2, 2))
    assert linalg.mat_poly(spec, [2, 3, 1], a) == want
