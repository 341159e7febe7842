"""Exact arithmetic in cyclotomic fields Q(zeta_n).

A number is kept in one canonical form: the integer coefficients of
1, zeta, ..., zeta^(d-1), d = phi(n) -- its remainder modulo the n-th
cyclotomic polynomial Phi_n, constant term first -- over a positive
integer denominator coprime to them.  Character values are algebraic
integers, so in practice the denominator is 1 and everything runs on
integer tuples: equality at one order compares tuples, addition adds
them, and multiplication is a convolution followed by reduction mod
Phi_n.  Galois action and embedding map zeta^j to its image and reduce.
A Fraction enters only when a caller multiplies by one (an inner
product's 1/|G|).  Phi_n is computed by peeling Phi_d out of x^n - 1 for
the proper divisors d.

Numbers of different orders n and n' compare inside Q(zeta_lcm(n, n')),
so equality is equality of complex values.  The hash agrees with it: a
rational value hashes as the int or Fraction it equals, and any other
value as its canonical form at its conductor, the least d with the
number in Q(zeta_d), found by descending one prime at a time and kept
on the instance after the first hash.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, neg, sub

from .errors import WitnessCheckFailed
from .ffield import factorize


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, constant term first."""
    # x^n - 1 = prod_{d | n} Phi_d; divide out the proper divisors
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num = _poly_divexact(num, list(cyclotomic_poly(d)))
    return tuple(num)


def _poly_divexact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (remainder must vanish)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1] // den[-1]
        out[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    if any(num):
        raise WitnessCheckFailed("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def _phi_terms(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(phi(n), the nonzero lower terms (j, c_j) of the monic Phi_n)."""
    phi = cyclotomic_poly(n)
    return len(phi) - 1, tuple((j, c) for j, c in enumerate(phi[:-1]) if c)


def _reduce_mod_phi(coeffs, n: int) -> tuple:
    """Remainder of sum_j c_j x^j modulo Phi_n: phi(n) coefficients."""
    deg, terms = _phi_terms(n)
    work = list(coeffs)
    if len(work) < deg:
        work += [0] * (deg - len(work))
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if c:
            base = i - deg
            for j, pj in terms:
                work[base + j] -= c * pj
    return tuple(work[:deg])


@lru_cache(maxsize=None)
def _split_coprime(n: int, p: int) -> tuple[tuple[int, int], ...]:
    """For n = p m with p prime to m: (j a mod p, j b mod m) for j < phi(n),
    where zeta_n^j = zeta_p^(j a) zeta_m^(j b), zeta_p = zeta_n^m and
    zeta_m = zeta_n^p (a m + b p = 1 mod n)."""
    m = n // p
    a, b = pow(m, -1, p), pow(p, -1, m)
    return tuple((j * a % p, j * b % m) for j in range(_phi_terms(n)[0]))


def _descend(n: int, coeffs: tuple, p: int):
    """The coefficients in Q(zeta_(n/p)) of the number with these
    coefficients in Q(zeta_n), or None if it does not lie there."""
    m = n // p
    if m % p == 0:
        # Phi_n(x) = Phi_m(x^p): the power basis is zeta_m^q zeta_n^i, i < p
        if any(any(coeffs[i::p]) for i in range(1, p)):
            return None
        return coeffs[::p]
    # x = sum_a A_a zeta_p^a with A_a in Q(zeta_m); since the zeta_p^a sum
    # to 0, x lies in Q(zeta_m) exactly when A_1 = ... = A_(p-1)
    parts = [[0] * m for _ in range(p)]
    for c, (a, b) in zip(coeffs, _split_coprime(n, p)):
        if c:
            parts[a][b] += c
    first = _reduce_mod_phi(parts[1], m)
    if any(_reduce_mod_phi(part, m) != first for part in parts[2:]):
        return None
    return tuple(map(sub, _reduce_mod_phi(parts[0], m), first))


def _at_conductor(n: int, coeffs: tuple) -> tuple[int, tuple]:
    """(d, coefficients in Q(zeta_d)) for the least d with the number in
    Q(zeta_d).  The d that hold it are closed under gcd, so descending by
    any prime that keeps the number reaches the least one."""
    descended = True
    while descended:
        descended = False
        for p in factorize(n):
            down = _descend(n, coeffs, p)
            if down is not None:
                n, coeffs, descended = n // p, down, True
                break
    return n, coeffs


class Cyc:
    """An element of Q(zeta_n) in canonical form (see the module docstring).

    `Cyc(n, coeffs)` is sum_j coeffs[j] zeta_n^j for integer or Fraction
    coefficients of any length.  Instances are immutable; the attributes
    are `n`, `coeffs` (phi(n) integers) and `den` (positive, coprime to
    the coefficients, 1 when they are all zero).
    """

    __slots__ = ("n", "coeffs", "den", "_hash")

    def __new__(cls, n: int, coeffs) -> "Cyc":
        coeffs = list(coeffs)
        if all(isinstance(c, int) for c in coeffs):
            return _make(n, _reduce_mod_phi(coeffs, n), 1)
        vals = [Fraction(c) for c in coeffs]
        den = lcm(1, *(v.denominator for v in vals))
        ints = [v.numerator * (den // v.denominator) for v in vals]
        return _normal(n, _reduce_mod_phi(ints, n), den)

    def __setattr__(self, name, value):
        raise AttributeError("Cyc is immutable")

    def __reduce__(self):
        return _make, (self.n, self.coeffs, self.den)

    def __repr__(self) -> str:
        return f"Cyc(n={self.n}, coeffs={self.coeffs}, den={self.den})"

    def _chk(self, other: "Cyc"):
        if self.n != other.n:
            raise ValueError(f"cyclotomic orders differ: {self.n} vs {other.n}")

    def _combine(self, other: "Cyc", op) -> "Cyc":
        self._chk(other)
        d1, d2 = self.den, other.den
        if d1 == d2:
            return _normal(self.n, tuple(map(op, self.coeffs, other.coeffs)), d1)
        return _normal(self.n, tuple(op(a * d2, b * d1)
                                     for a, b in zip(self.coeffs, other.coeffs)), d1 * d2)

    def __add__(self, other: "Cyc") -> "Cyc":
        return self._combine(other, add)

    def __sub__(self, other: "Cyc") -> "Cyc":
        return self._combine(other, sub)

    def __neg__(self) -> "Cyc":
        return _make(self.n, tuple(map(neg, self.coeffs)), self.den)

    def __mul__(self, other) -> "Cyc":
        if isinstance(other, int):
            return _normal(self.n, tuple(a * other for a in self.coeffs), self.den)
        if isinstance(other, Fraction):
            k = other.numerator
            return _normal(self.n, tuple(a * k for a in self.coeffs),
                           self.den * other.denominator)
        self._chk(other)
        b = other.coeffs
        conv = [0] * (2 * len(b) - 1)
        for i, x in enumerate(self.coeffs):
            if x:
                for j, y in enumerate(b, i):
                    if y:
                        conv[j] += x * y
        return _normal(self.n, _reduce_mod_phi(conv, self.n), self.den * other.den)

    __rmul__ = __mul__

    def galois(self, s: int) -> "Cyc":
        """The map zeta^j -> zeta^(j s); s = -1 is complex conjugation."""
        n = self.n
        out = [0] * n
        for j, a in enumerate(self.coeffs):
            out[(j * s) % n] += a
        return _normal(n, _reduce_mod_phi(out, n), self.den)

    def conj(self) -> "Cyc":
        return self.galois(-1)

    def embed(self, m: int) -> "Cyc":
        """The same number inside Q(zeta_m); requires n | m."""
        if m % self.n:
            raise ValueError(f"{self.n} does not divide {m}")
        k = m // self.n
        out = [0] * m
        for j, a in enumerate(self.coeffs):
            out[j * k] = a
        return _normal(m, _reduce_mod_phi(out, m), self.den)

    def reduced(self) -> tuple:
        """The coefficients mod Phi_n as numbers (ints when den is 1)."""
        if self.den == 1:
            return self.coeffs
        return tuple(Fraction(c, self.den) for c in self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Cyc):
            if self.n != other.n:
                m = lcm(self.n, other.n)
                return self.embed(m) == other.embed(m)
            return self.coeffs == other.coeffs and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and Fraction(self.coeffs[0], self.den) == other
        return NotImplemented

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            pass
        # a rational value equals its int or Fraction, so it hashes as one;
        # any other value as its form at its conductor, the same at every n
        if self.is_rational():
            h = hash(self.coeffs[0] if self.den == 1 else Fraction(self.coeffs[0], self.den))
        else:
            h = hash((_at_conductor(self.n, self.coeffs), self.den))
        _set_hash(self, h)
        return h

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational number")
        return Fraction(self.coeffs[0], self.den)


_new = object.__new__
_set_n, _set_coeffs, _set_den, _set_hash = (Cyc.__dict__[a].__set__ for a in Cyc.__slots__)


def _make(n: int, coeffs: tuple[int, ...], den: int) -> Cyc:
    """A Cyc from coefficients already in canonical form."""
    out = _new(Cyc)
    _set_n(out, n)
    _set_coeffs(out, coeffs)
    _set_den(out, den)
    return out


def _normal(n: int, coeffs: tuple[int, ...], den: int) -> Cyc:
    """A Cyc from reduced integer coefficients over a positive denominator."""
    if den != 1:
        g = gcd(den, *coeffs)
        if g != 1:
            coeffs = tuple(c // g for c in coeffs)
            den //= g
    return _make(n, coeffs, den)


def zero(n: int) -> Cyc:
    return _make(n, (0,) * _phi_terms(n)[0], 1)


def rational(n: int, value) -> Cyc:
    v = Fraction(value)
    return _make(n, (v.numerator,) + (0,) * (_phi_terms(n)[0] - 1), v.denominator)


def root(n: int, k: int) -> Cyc:
    """zeta_n^k."""
    return Cyc(n, [0] * (k % n) + [1])
