"""Scalar arithmetic of `ffield._Fq` in extension fields against digit-wise
references.

`_Fq.add`, `neg`, `sub`, `mul`, `inv` and `pow` read exp/log/Zech tables.
The references here work on base-ell digit lists alone: addition and
negation digit by digit mod ell, multiplication as polynomial
multiplication reduced by the field's modulus, the inverse as a^(q-2),
powers by square-and-multiply.  Small fields are checked on every
pair of elements, F(5^5) on a seeded sample.
"""

import random
import tracemalloc

import pytest

from sympal.ffield import _Fq, field_make

EXHAUSTIVE = [(2, 4), (3, 3), (5, 2), (5, 3), (7, 2)]


class Reference:
    """Digit-wise arithmetic in F_ell[x]/(modulus) on integer encodings."""

    def __init__(self, spec):
        self.ell, self.r, self.mod, self.q = spec.ell, spec.degree, spec.modulus, spec.order

    def digits(self, a):
        return [a // self.ell ** i % self.ell for i in range(self.r)]

    def encode(self, d):
        return sum(c % self.ell * self.ell ** i for i, c in enumerate(d))

    def add(self, a, b):
        return self.encode([x + y for x, y in zip(self.digits(a), self.digits(b))])

    def neg(self, a):
        return self.encode([-x for x in self.digits(a)])

    def mul(self, a, b):
        prod = [0] * (2 * self.r - 1)
        for i, x in enumerate(self.digits(a)):
            for j, y in enumerate(self.digits(b)):
                prod[i + j] += x * y
        for k in range(2 * self.r - 2, self.r - 1, -1):
            c = prod[k]
            for t, m in enumerate(self.mod):
                prod[k - self.r + t] -= c * m
        return self.encode(prod[:self.r])

    def pow(self, a, e):
        out = 1
        while e:
            if e & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            e >>= 1
        return out


def _check_pair(ctx, ref, a, b):
    assert ctx.add(a, b) == ref.add(a, b)
    assert ctx.sub(a, b) == ref.add(a, ref.neg(b))
    assert ctx.mul(a, b) == ref.mul(a, b)


def _check_element(ctx, ref, a, exponents):
    assert ctx.neg(a) == ref.neg(a)
    assert ctx.add(a, ctx.neg(a)) == 0 == ctx.sub(a, a)
    if a == 0:
        assert ctx.pow(0, 0) == 1 and ctx.pow(0, 3) == 0
        with pytest.raises(ZeroDivisionError):
            ctx.inv(0)
        with pytest.raises(ZeroDivisionError):
            ctx.pow(0, -1)
        return
    inv = ref.pow(a, ref.q - 2)
    assert ctx.inv(a) == inv and ref.mul(a, inv) == 1
    for e in exponents:
        want = ref.pow(a, e) if e >= 0 else ref.pow(inv, -e)
        assert ctx.pow(a, e) == want


@pytest.mark.parametrize("ell, r", EXHAUSTIVE)
def test_scalar_ops_on_every_pair(ell, r):
    spec = field_make(ell, r)
    ctx, ref = spec.ctx, Reference(spec)
    q = spec.order
    for a in range(q):
        for b in range(q):
            _check_pair(ctx, ref, a, b)
        _check_element(ctx, ref, a, [-q - 1, -2, -1, 0, 1, 2, q - 2, q - 1, q, 2 * q + 3])


def test_scalar_ops_on_a_seeded_sample_of_f5_5():
    spec = field_make(5, 5)
    ctx, ref = spec.ctx, Reference(spec)
    rng = random.Random(5)
    q = spec.order
    picks = [0, 1, q - 1] + [rng.randrange(q) for _ in range(200)]
    for a in picks:
        for b in picks[:3] + [rng.randrange(q) for _ in range(10)] + [ref.neg(a)]:
            _check_pair(ctx, ref, a, b)
        _check_element(ctx, ref, a, [-7, -1, 0, 1, 5, q - 1, q + 4])


def test_negation_is_the_identity_in_characteristic_2():
    ctx = field_make(2, 4).ctx
    assert all(ctx.neg(a) == a and ctx.add(a, a) == 0 for a in range(16))


def test_zech_table_marks_minus_one():
    # 1 + g^k = 0 exactly at g^k = -1: k = (q-1)/2 in odd characteristic, k = 0 in characteristic 2
    for ell, r in EXHAUSTIVE:
        ctx = field_make(ell, r).ctx
        exp, _ = ctx.exp_log()
        minus_one = [k for k in range(ctx.q - 1) if ctx._zech[k] < 0]
        assert minus_one == [0 if ell == 2 else (ctx.q - 1) // 2]
        assert exp[minus_one[0]] == ctx.neg(1)


def test_exp_log_transient_memory_is_bounded():
    # the doubling works on bounded blocks of powers, so building the
    # tables of F(2^16) peaks below 3x what they keep (it was 5.6x)
    ctx = _Fq(field_make(2, 16))
    tracemalloc.start()
    try:
        exp, log = ctx.exp_log()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = 8 * (len(exp) + len(log) + len(ctx._zech))
    assert peak < 3 * kept
