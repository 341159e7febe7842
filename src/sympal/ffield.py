"""Exact arithmetic in F_{ell^r} with polynomial-basis coordinates.

Elements are stored internally as a single integer index in [0, ell^r):
the base-ell digits of the index are the coefficients of the residue
polynomial, constant term first.  The index encoding is also the wire
encoding used by the matrix-group kernel, so everything downstream is
bit-exact.

The digit layer of `_Fq` is the one home of this encoding for array code:
multiplication is F_ell-bilinear on digits, given by `mul_tensor` (the
digits of x^a·x^b, built from the modulus alone).  Every F_q-linear map
of matrix entries the library needs is x -> left·x·right for fixed
matrices, so F_ell-linear on the entries' digits: `linear_map` builds it
as one integer array and `apply_map` maps a batch of encoded matrices by
it.  They give row·g in the closure kernel, the harvest's (r - e_i)·J^-T,
extract_induction's first block column B^-1·A·B_0 and each doubling step
of the power table; the harvest builds its candidates with
`product_digits`.  No other module knows the digit layout.

Scalar arithmetic in an extension field is table lookups on logarithms,
with no digit tuple in sight.  `exp_log` builds, from the digit layer,
exp[k] = g^k (by doubling), log = its inverse, and the Zech logarithms
Z[k] = log(1 + g^k), with -1 where 1 + g^k = 0.  Then

    a·b = g^(log a + log b),   a + b = g^(log a + Z[log b - log a]),

-a = g^(log a + (q-1)/2) in odd characteristic and -a = a in
characteristic 2, and a - b = a + (-b); `mul`, `inv`, `pow` and
`discrete_log` read the same tables.  They are `array('q')` words, so a
scalar lookup returns a Python int without boxing a numpy scalar; array
code takes zero-copy numpy views of them.  Prime fields use Python's
integer arithmetic mod ell.

The modulus of a field is canonical: the lexicographically least monic
irreducible polynomial of the right degree, coefficient tuples compared
constant-term first.  Two calls to :func:`field_make` with the same
arguments therefore return the identical spec object.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from math import gcd
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    FieldTooLarge,
    NoEmbedding,
    NotGenerator,
    NotPrime,
    SpecMismatch,
    WitnessCheckFailed,
    ZeroArgument,
)

FIELD_LIMIT = 10**6        # largest ell^degree we agree to work with
_TABLE_LIMIT = 1024        # build dense q x q tables below this size
_POWER_CHUNK = 4096        # values per block: exp_log powers, field_make root tests


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (desk-scale inputs only)."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def multiplicative_order(a: int, modulus: int) -> int:
    """Order of a modulo `modulus`; a must be coprime to the modulus."""
    if gcd(a, modulus) != 1:
        raise ValueError(f"{a} not invertible mod {modulus}")
    order = modulus             # becomes phi(modulus), a multiple of the order
    for p in factorize(modulus):
        order -= order // p
    for p in factorize(order):
        while order % p == 0 and pow(a, order // p, modulus) == 1:
            order //= p
    return order


# ---------------------------------------------------------------------------
# polynomials over a field (coefficient lists, constant term first)
# ---------------------------------------------------------------------------
#
# Coefficients are element indices and arithmetic goes through the field's
# context, so the same helpers serve F_ell (field construction runs them over
# the prime field, before the extension exists) and F_q (factoring the
# characteristic polynomials of the irreducibility test).  `poly_roots` is
# for prime fields only: Dixon's eigenvalues, by evaluation at every point.

def _poly_trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _poly_add(f: list[int], g: list[int], ctx: "_Fq") -> list[int]:
    if len(f) < len(g):
        f, g = g, f
    return _poly_trim([ctx.add(a, b) for a, b in zip(f, g)] + f[len(g):])


def _poly_sub(f: list[int], g: list[int], ctx: "_Fq") -> list[int]:
    return _poly_add(f, [ctx.neg(b) for b in g], ctx)


def _poly_mul(f: list[int], g: list[int], ctx: "_Fq") -> list[int]:
    prod = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                if b:
                    prod[i + j] = ctx.add(prod[i + j], ctx.mul(a, b))
    return _poly_trim(prod)


def _poly_divmod(f: list[int], g: list[int], ctx: "_Fq") -> tuple[list[int], list[int]]:
    """Quotient and remainder of f by a trimmed nonzero g."""
    rem = list(f)
    dg = len(g) - 1
    inv_lead = ctx.inv(g[-1])
    quot = [0] * max(len(f) - dg, 0)
    while len(rem) > dg:
        c = ctx.mul(rem[-1], inv_lead)
        if c:
            off = len(rem) - 1 - dg
            quot[off] = c
            for j, b in enumerate(g):
                rem[off + j] = ctx.sub(rem[off + j], ctx.mul(c, b))
        rem.pop()
    return _poly_trim(quot), _poly_trim(rem)


def _poly_rem(f: list[int], mod: list[int], ctx: "_Fq") -> list[int]:
    return _poly_divmod(f, mod, ctx)[1]


def _poly_mulmod(f: list[int], g: list[int], mod: list[int], ctx: "_Fq") -> list[int]:
    return _poly_rem(_poly_mul(f, g, ctx), mod, ctx)


def _poly_monic(f: list[int], ctx: "_Fq") -> list[int]:
    inv = ctx.inv(f[-1])
    return [ctx.mul(c, inv) for c in f]


def _poly_gcd(f: list[int], g: list[int], ctx: "_Fq") -> list[int]:
    """The monic gcd of trimmed f and g, not both zero."""
    while g:
        f, g = g, _poly_rem(f, g, ctx)
    return _poly_monic(f, ctx)


def _poly_powmod(base: list[int], e: int, mod: list[int], ctx: "_Fq") -> list[int]:
    result = [1]
    acc = _poly_rem(base, mod, ctx)
    while e:
        if e & 1:
            result = _poly_mulmod(result, acc, mod, ctx)
        acc = _poly_mulmod(acc, acc, mod, ctx)
        e >>= 1
    return result


def _distinct_degree(f: list[int], ctx: "_Fq") -> Iterator[tuple[int, list[int]]]:
    """(d, g_d) for each d where g_d, the product of the distinct monic
    irreducible factors of f of degree d, is not 1.

    gcd(f, x^(q^d) - x) holds each irreducible factor of degree dividing d
    once, whatever its multiplicity in f; the factors of lower degree are
    divided out of f, every power of them, before d is reached.
    """
    rest = _poly_monic(f, ctx)
    x = [0, 1]
    xq = x                                   # x^(q^d) mod rest
    d = 0
    while len(rest) > 1:
        d += 1
        if len(rest) - 1 < 2 * d:
            # every factor left has degree >= d, so one of them is all of it
            yield len(rest) - 1, rest
            return
        xq = _poly_powmod(xq, ctx.q, rest, ctx)
        g = _poly_gcd(rest, _poly_sub(xq, x, ctx), ctx)
        if len(g) > 1:
            yield d, g
            while len(g) > 1:
                rest = _poly_divmod(rest, g, ctx)[0]
                g = _poly_gcd(rest, g, ctx)
            xq = _poly_rem(xq, rest, ctx)


def _is_irreducible(mod: list[int], ctx: "_Fq") -> bool:
    """Whether a monic polynomial is irreducible: the first degree at which
    distinct-degree factorization finds a factor is its own degree.  Most
    reducible polynomials have a small factor, found after a few steps."""
    return next(_distinct_degree(mod, ctx))[0] == len(mod) - 1


def _equal_degree(g: list[int], d: int, ctx: "_Fq", rng) -> list[list[int]]:
    """The monic irreducible factors of g, a product of distinct monic
    irreducibles of degree d (Cantor-Zassenhaus).

    A random a splits g through gcd(g, s(a)), where s(a) is
    a^((q^d-1)/2) - 1 in odd characteristic and the trace
    a + a^2 + a^4 + ... + a^(2^(rd-1)) over F_2 when q = 2^r: in the field
    F_q[x]/(p) of each factor p, s takes the value 0 on about half of all a.
    """
    if len(g) - 1 == d:
        return [g]
    while True:
        a = _poly_trim([rng.randrange(ctx.q) for _ in range(len(g) - 1)])
        if ctx.ell == 2:
            s = term = a
            for _ in range(ctx.r * d - 1):
                term = _poly_mulmod(term, term, g, ctx)
                s = _poly_add(s, term, ctx)
        else:
            s = _poly_sub(_poly_powmod(a, (ctx.q ** d - 1) // 2, g, ctx), [1], ctx)
        h = _poly_gcd(g, s, ctx)
        if 1 < len(h) < len(g):
            return (_equal_degree(h, d, ctx, rng)
                    + _equal_degree(_poly_divmod(g, h, ctx)[0], d, ctx, rng))


def poly_factors(spec: "FieldSpec", f, rng) -> list[list[int]]:
    """The distinct monic irreducible factors of a nonzero polynomial over
    the field (element indices, constant term first), sorted by degree and
    then coefficients.  `rng` (a random.Random) drives the equal-degree
    splitting; the result does not depend on it."""
    ctx = spec.ctx
    f = _poly_trim(list(f))
    if not f:
        raise ZeroArgument("the zero polynomial has no factorization")
    out = [p for d, g in _distinct_degree(f, ctx) for p in _equal_degree(g, d, ctx, rng)]
    return sorted(out, key=lambda p: (len(p), p))


def poly_roots(spec: "FieldSpec", f) -> list[int]:
    """The distinct roots in F_ell of a nonzero polynomial over a prime
    field (constant term first), in increasing order: f is evaluated at
    every point of F_ell by Horner's rule, all points one coefficient at a
    time."""
    if spec.degree != 1:
        raise SpecMismatch("poly_roots needs a prime field")
    ell = spec.ell
    f = _poly_trim([c % ell for c in f])
    if not f:
        raise ZeroArgument("the zero polynomial has a root everywhere")
    points = range(ell)
    values = [f[-1]] * ell
    for c in reversed(f[:-1]):
        values = [(v * t + c) % ell for v, t in zip(values, points)]
    return [t for t, v in zip(points, values) if not v]


def _rootless_monic_polys(ell: int, degree: int) -> Iterator[list[int]]:
    """Monic degree-`degree` polynomials with no root in F_ell, in lex order
    on (c0, c1, ...).  For degree >= 2 a root is a linear factor, so only
    these can be irreducible.  Candidates are evaluated at every point of
    F_ell, about _POWER_CHUNK values at a time."""
    x = np.arange(ell, dtype=np.int64)
    powers = np.stack([x ** j % ell for j in range(degree + 1)])   # below ell^degree
    place = ell ** np.arange(degree - 1, -1, -1, dtype=np.int64)  # c0 varies slowest
    step = max(1, _POWER_CHUNK // ell)
    for lo in range(0, ell ** degree, step):
        coeffs = np.arange(lo, min(lo + step, ell ** degree))[:, None] // place % ell
        rootless = np.all((coeffs @ powers[:degree] + powers[degree]) % ell, axis=1)
        for c in coeffs[rootless].tolist():
            yield c + [1]


# ---------------------------------------------------------------------------
# field specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldSpec:
    """The finite field F_{ell^degree} with its canonical modulus.

    Construct via :func:`field_make`; direct construction skips the
    canonicity guarantee.
    """

    ell: int
    degree: int
    modulus: tuple[int, ...]   # length degree+1, constant term first, monic

    @property
    def order(self) -> int:
        return self.ell ** self.degree

    def __repr__(self) -> str:
        return f"F({self.ell}^{self.degree})" if self.degree > 1 else f"F({self.ell})"

    @cached_property
    def ctx(self) -> "_Fq":
        """The field's shared context; kept on the instance, so only the
        first access hashes the spec."""
        return _context(self)


@lru_cache(maxsize=None)
def field_make(ell: int, degree: int) -> FieldSpec:
    """Canonical spec for F_{ell^degree}; deterministic across runs."""
    if not is_prime(ell):
        raise NotPrime(f"{ell} is not prime")
    if degree < 1:
        raise ValueError("degree must be positive")
    if ell**degree > FIELD_LIMIT:
        raise FieldTooLarge(f"{ell}^{degree} exceeds {FIELD_LIMIT}")
    if degree == 1:
        return FieldSpec(ell, 1, (0, 1))
    prime = field_make(ell, 1).ctx
    for mod in _rootless_monic_polys(ell, degree):
        if _is_irreducible(mod, prime):
            return FieldSpec(ell, degree, tuple(mod))
    raise WitnessCheckFailed(f"no monic irreducible of degree {degree} over F_{ell}")


def _mul_tensor(ell: int, mod: Sequence[int]) -> np.ndarray:
    """(r, r, r) array: [a, b] holds the digits of x^a·x^b mod the monic
    modulus, from x^0, ..., x^(2r-2), each x^(k+1) being x^k shifted up one
    digit with its top digit times the modulus subtracted."""
    r = len(mod) - 1
    power = [1] + [0] * (r - 1)
    powers = []
    for _ in range(2 * r - 1):
        powers.append(power)
        top = power[-1]
        power = [(c - top * m) % ell for c, m in zip([0] + power[:-1], mod)]
    return np.array([[powers[a + b] for b in range(r)] for a in range(r)], dtype=np.int64)


class _Fq:
    """Arithmetic context for one field spec: scalars are integer indices,
    arrays go through the digit layer (see the module docstring)."""

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.ell = spec.ell
        self.r = spec.degree
        self.q = spec.order
        self.powers = spec.ell ** np.arange(spec.degree, dtype=np.int64)
        self.mul_tensor = _mul_tensor(spec.ell, spec.modulus)
        self._gen: int | None = None
        self._tables = None
        self._exp_log = None
        self._zech = None

    # -- digit <-> index --

    def digits(self, a: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.r):
            a, d = divmod(a, self.ell)
            out.append(d)
        return tuple(out)

    def encode(self, coeffs) -> int:
        a = 0
        for c in reversed(list(coeffs)):
            a = a * self.ell + (c % self.ell)
        return a

    # -- the digit layer on arrays --

    def digit_array(self, x) -> np.ndarray:
        """Digits of encoded elements, on a new last axis."""
        return np.asarray(x, dtype=np.int64)[..., None] // self.powers % self.ell

    def index_array(self, d: np.ndarray) -> np.ndarray:
        """Encoded elements of digit arrays (last axis), digits in [0, ell)."""
        return d @ self.powers

    def mul_matrix(self, c) -> np.ndarray:
        """(..., r, r) digit matrices of multiplication by the encoded c:
        row k holds the digits of c·x^k, so digits(c·y) = digits(y) @ it."""
        return np.tensordot(self.digit_array(c), self.mul_tensor, axes=1) % self.ell

    def product_digits(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Digits of the products of digit arrays x and y (last axis),
        broadcast over the other axes."""
        outer = x[..., :, None] * y[..., None, :]
        outer = outer.reshape(outer.shape[:-2] + (self.r * self.r,))
        return outer @ self.mul_tensor.reshape(self.r * self.r, self.r) % self.ell

    def linear_map(self, left, right) -> np.ndarray:
        """x -> left·x·right on the entry digits of an i x j matrix x, for
        encoded matrices left (a x i) and right (j x b).  The map is
        F_q-linear in x, so F_ell-linear on its digits: entry (i, j) of x,
        times left[a][i]·right[j][b], goes to entry (a, b).  So the result,
        an (i, j, r, a, b, r) array, holds at [i, j, :, a, b, :] the digit
        matrix of multiplication by that product.  A row vector is a 1 x j
        matrix, so row -> row·g is linear_map([[1]], g)."""
        lhs = self.digit_array(left).transpose(1, 0, 2)[:, None, :, None]   # [i, ., a, .]
        rhs = self.digit_array(right)[None, :, None]                         # [., j, ., b]
        blocks = self.mul_matrix(self.index_array(self.product_digits(lhs, rhs)))
        return np.ascontiguousarray(blocks.transpose(0, 1, 4, 2, 3, 5))

    def apply_map(self, m: np.ndarray, x) -> np.ndarray:
        """The (N, a, b) encoded images under a `linear_map` m of a batch of
        N encoded matrices x, each of the i·j entries m maps."""
        flat = m.reshape(-1, m.shape[3] * m.shape[4] * m.shape[5])
        d = self.digit_array(x).reshape(len(x), len(flat))
        return self.index_array((d @ flat % self.ell).reshape((len(x),) + m.shape[3:]))

    # -- scalar arithmetic on indices --
    #
    # In an extension field every operand is a log in [0, q-1), so a sum
    # or difference of two logs lies in (-(q-1), 2(q-1)), and an array of
    # length q-1 indexed at it (or at it minus q-1) wraps negative indices
    # once: the reduction mod q-1 costs nothing.

    def add(self, a: int, b: int) -> int:
        if self.r == 1:
            return (a + b) % self.ell
        if not a:
            return b
        if not b:
            return a
        exp, log = self.exp_log()
        la = log[a]
        z = self._zech[log[b] - la]
        return exp[la + z - len(exp)] if z >= 0 else 0

    def neg(self, a: int) -> int:
        if self.r == 1:
            return (-a) % self.ell
        if not a or self.ell == 2:
            return a
        exp, log = self.exp_log()
        return exp[log[a] - len(exp) // 2]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.r == 1:
            return a * b % self.ell
        if a == 0 or b == 0:
            return 0
        exp, log = self.exp_log()
        return exp[log[a] + log[b] - len(exp)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        if self.r == 1:
            return pow(a, -1, self.ell)
        exp, log = self.exp_log()
        return exp[-log[a]]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("zero to a negative power")
            return 0
        if self.r == 1:
            return pow(a, e, self.ell)
        exp, log = self.exp_log()
        return exp[log[a] * e % len(exp)]

    def _raw_mul(self, a: int, b: int) -> int:
        """One digit product, used before exp/log tables exist."""
        return int(self.index_array(self.product_digits(self.digit_array(a), self.digit_array(b))))

    # -- generator and logarithm tables --

    def generator(self) -> int:
        """Least element in coefficient-lex order with full order q-1."""
        if self._gen is None:
            fac = factorize(self.q - 1)
            lex = (self.encode(c) for c in product(range(self.ell), repeat=self.r))
            self._gen = next(c for c in lex if c and all(
                self._raw_pow(c, (self.q - 1) // p) != 1 for p in fac))
        return self._gen

    def _raw_pow(self, a: int, e: int) -> int:
        result = 1
        acc = a
        while e:
            if e & 1:
                result = self._raw_mul(result, acc)
            acc = self._raw_mul(acc, acc)
            e >>= 1
        return result

    def exp_log(self):
        """Power and logarithm tables for the canonical generator g, as
        `array('q')` words: exp[k] = g^k for k < q-1, log[exp[k]] = k and
        log[0] = -1.  The first call also builds the Zech table `_zech`.

        Powers are built by doubling: with g^0, ..., g^(k-1) known, the
        next k powers are those times g^k, one `linear_map` applied to
        _POWER_CHUNK powers at a time, so the digit arrays stay small.  1 + x
        differs from x only in the constant digit, so Z = log[1 + exp] is
        one pass over exp.  Each table is checked exactly: exp must be a
        permutation of 1..q-1 with g^(q-1) = 1, and the entries of Z other
        than the one -1 (the k with g^k = -1) a permutation of 1..q-2.
        """
        if self._exp_log is None:
            g = self.generator()
            n = self.q - 1
            exp = np.empty(n, dtype=np.int64)
            exp[0] = k = 1
            while k < n:
                step = self.linear_map([[1]], [[self._raw_mul(int(exp[k - 1]), g)]])
                for lo in range(0, min(k, n - k), _POWER_CHUNK):
                    hi = min(lo + _POWER_CHUNK, k, n - k)
                    exp[k + lo:k + hi] = self.apply_map(step, exp[lo:hi]).ravel()
                k = min(2 * k, n)
            if self._raw_mul(int(exp[-1]), g) != 1:
                raise WitnessCheckFailed("generator order mismatch")
            if not np.array_equal(np.sort(exp), np.arange(1, self.q)):
                raise WitnessCheckFailed("generator powers repeat")
            log = np.full(self.q, -1, dtype=np.int64)
            log[exp] = np.arange(n)
            zech = log[exp - exp % self.ell + (exp + 1) % self.ell]
            if not np.array_equal(np.sort(zech), np.concatenate(([-1], np.arange(1, n)))):
                raise WitnessCheckFailed("Zech logarithms are not a permutation")
            self._zech = array("q", zech.tobytes())
            self._exp_log = array("q", exp.tobytes()), array("q", log.tobytes())
        return self._exp_log

    def tables(self):
        """Dense (q,q) add/mul tables plus neg/inv arrays."""
        if self._tables is None:
            if self.q > _TABLE_LIMIT:
                raise FieldTooLarge(
                    f"dense tables unavailable for q={self.q} > {_TABLE_LIMIT}")
            q = self.q
            digs = self.digit_array(np.arange(q))
            add = self.index_array((digs[:, None] + digs[None, :]) % self.ell)
            neg = self.index_array(-digs % self.ell)
            exp, log = (np.frombuffer(t, dtype=np.int64) for t in self.exp_log())
            mul = np.zeros((q, q), dtype=np.int64)
            mul[1:, 1:] = exp[(log[1:, None] + log[None, 1:]) % (q - 1)]
            inv = np.zeros(q, dtype=np.int64)
            inv[1:] = exp[-log[1:] % (q - 1)]
            self._tables = (add, mul, neg, inv)
        return self._tables


_CTX: dict[FieldSpec, _Fq] = {}


def _context(spec: FieldSpec) -> _Fq:
    ctx = _CTX.get(spec)
    if ctx is None:
        ctx = _CTX[spec] = _Fq(spec)
    return ctx


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldElement:
    """An element of F_{ell^r}, carried with its spec.

    Mixed-spec arithmetic raises :class:`SpecMismatch`; subfield questions
    must go through :func:`subfield_embed` explicitly.
    """

    spec: FieldSpec
    index: int

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.spec.ctx.digits(self.index)

    @staticmethod
    def from_coeffs(spec: FieldSpec, coeffs) -> "FieldElement":
        return FieldElement(spec, spec.ctx.encode(coeffs))

    def _chk(self, other: "FieldElement"):
        if self.spec is not other.spec and self.spec != other.spec:
            raise SpecMismatch(f"{self.spec} vs {other.spec}")

    def __add__(self, other):
        self._chk(other)
        return FieldElement(self.spec, self.spec.ctx.add(self.index, other.index))

    def __sub__(self, other):
        self._chk(other)
        return FieldElement(self.spec, self.spec.ctx.sub(self.index, other.index))

    def __mul__(self, other):
        self._chk(other)
        return FieldElement(self.spec, self.spec.ctx.mul(self.index, other.index))

    def __truediv__(self, other):
        self._chk(other)
        ctx = self.spec.ctx
        return FieldElement(self.spec, ctx.mul(self.index, ctx.inv(other.index)))

    def __neg__(self):
        return FieldElement(self.spec, self.spec.ctx.neg(self.index))

    def __pow__(self, e: int):
        return FieldElement(self.spec, self.spec.ctx.pow(self.index, e))

    def __bool__(self) -> bool:
        return self.index != 0

    def serialize(self) -> list[int]:
        return list(self.coeffs)


def element(spec: FieldSpec, value) -> FieldElement:
    """Build an element from an integer (prime residue) or coefficient list."""
    if isinstance(value, int):
        if spec.degree == 1:
            return FieldElement(spec, value % spec.ell)
        return FieldElement.from_coeffs(spec, [value] + [0] * (spec.degree - 1))
    return FieldElement.from_coeffs(spec, value)


def zero(spec: FieldSpec) -> FieldElement:
    return FieldElement(spec, 0)


def one(spec: FieldSpec) -> FieldElement:
    return FieldElement(spec, 1)


# ---------------------------------------------------------------------------
# spec-level operations
# ---------------------------------------------------------------------------

def mult_generator(spec: FieldSpec) -> FieldElement:
    """Deterministic generator of the multiplicative group of the field."""
    return FieldElement(spec, spec.ctx.generator())


def discrete_log(x: FieldElement, g: FieldElement) -> int:
    """k with g^k = x, read off the logarithm table: log x / log g mod q-1,
    where g is a generator exactly when log g is a unit mod q-1."""
    x._chk(g)
    ctx = x.spec.ctx
    if ctx.q > FIELD_LIMIT:
        raise FieldTooLarge(f"field of size {ctx.q} beyond the dlog limit")
    if x.index == 0 or g.index == 0:
        raise ZeroArgument("discrete log of zero or to base zero")
    n = ctx.q - 1
    _, log = ctx.exp_log()
    lg = int(log[g.index])
    if gcd(lg, n) != 1:
        raise NotGenerator(f"{g.coeffs} does not generate the unit group")
    return int(log[x.index]) * pow(lg, -1, n) % n


def frobenius(x: FieldElement) -> FieldElement:
    """x^ell, the arithmetic Frobenius."""
    return x ** x.spec.ell


@dataclass(frozen=True)
class Embedding:
    """A ring embedding of a small field into a big one.

    Determined by the image of the small field's residue class of x;
    composing with Frobenius powers of the big field enumerates all
    embeddings.
    """

    small: FieldSpec
    big: FieldSpec
    image_of_x: FieldElement    # a root of small.modulus inside big

    def __call__(self, x: FieldElement) -> FieldElement:
        if x.spec != self.small:
            raise SpecMismatch("element not in the embedding's source field")
        return FieldElement(self.big, _evaluate(self.big.ctx, x.coeffs, self.image_of_x.index))


def _evaluate(ctx: _Fq, coeffs, t: int) -> int:
    """The polynomial with prime-field coefficients (constant term first)
    at the element t."""
    acc = 0
    power = 1
    for c in coeffs:
        if c:
            acc = ctx.add(acc, ctx.mul(c, power))
        power = ctx.mul(power, t)
    return acc


def subfield_embed(spec_small: FieldSpec, spec_big: FieldSpec) -> Embedding:
    """The canonical embedding F_{ell^d} -> F_{ell^r} for d | r."""
    if spec_small.ell != spec_big.ell:
        raise NoEmbedding("different characteristics")
    if spec_big.degree % spec_small.degree != 0:
        raise NoEmbedding(
            f"{spec_small.degree} does not divide {spec_big.degree}")
    big = spec_big.ctx
    # the canonical root: the least of 0 and the elements whose order
    # divides ell^d - 1 that is a root of the small modulus
    g = big.generator()
    step = (big.q - 1) // (spec_small.order - 1)
    candidates = {0} | {big.pow(g, step * k) for k in range(spec_small.order - 1)}
    for t in sorted(candidates):
        if _evaluate(big, spec_small.modulus, t) == 0:
            return Embedding(spec_small, spec_big, FieldElement(spec_big, t))
    raise WitnessCheckFailed("the small modulus has no root in the extension")
