"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Numbers are coefficient vectors over Q modulo x^n - 1 (the group algebra
of Z/n), which makes multiplication a cyclic convolution and Galois
action an index permutation.  Equality and rationality questions go
through reduction modulo the n-th cyclotomic polynomial, computed by
peeling Phi_d out of x^n - 1 for the proper divisors d.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import WitnessCheckFailed


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


def _reduce_mod_phi(coeffs, n: int) -> tuple[Fraction, ...]:
    """Remainder of the vector (as a polynomial) modulo Phi_n."""
    phi = cyclotomic_poly(n)
    work = [Fraction(c) for c in coeffs]
    deg = len(phi) - 1
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if c:
            for j, pj in enumerate(phi):
                work[i - deg + j] -= c * pj
    return tuple(work[:deg])


@dataclass(frozen=True)
class Cyc:
    """An element of Q(zeta_n), stored mod x^n - 1 (not reduced)."""

    n: int
    coeffs: tuple[Fraction, ...]   # length n

    def _chk(self, other: "Cyc"):
        if self.n != other.n:
            raise ValueError(f"cyclotomic orders differ: {self.n} vs {other.n}")

    def __add__(self, other: "Cyc") -> "Cyc":
        self._chk(other)
        return Cyc(self.n, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Cyc") -> "Cyc":
        self._chk(other)
        return Cyc(self.n, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Cyc":
        return Cyc(self.n, tuple(-a for a in self.coeffs))

    def __mul__(self, other) -> "Cyc":
        if isinstance(other, (int, Fraction)):
            return Cyc(self.n, tuple(a * other for a in self.coeffs))
        self._chk(other)
        out = [Fraction(0)] * self.n
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[(i + j) % self.n] += a * b
        return Cyc(self.n, tuple(out))

    __rmul__ = __mul__

    def galois(self, s: int) -> "Cyc":
        """The map zeta^j -> zeta^(j s); s = -1 is complex conjugation."""
        out = [Fraction(0)] * self.n
        for j, a in enumerate(self.coeffs):
            out[(j * s) % self.n] += a
        return Cyc(self.n, tuple(out))

    def conj(self) -> "Cyc":
        return self.galois(-1)

    def reduced(self) -> tuple[Fraction, ...]:
        return _reduce_mod_phi(self.coeffs, self.n)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = rational(self.n, other)
        if not isinstance(other, Cyc) or self.n != other.n:
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        return hash((self.n, self.reduced()))

    def is_zero(self) -> bool:
        return not any(self.reduced())

    def is_rational(self) -> bool:
        return not any(self.reduced()[1:])

    def rational_value(self) -> Fraction:
        red = self.reduced()
        if any(red[1:]):
            raise ValueError("not a rational number")
        return red[0]

    def embed(self, m: int) -> "Cyc":
        """The same number inside Q(zeta_m); requires n | m."""
        if m % self.n:
            raise ValueError(f"{self.n} does not divide {m}")
        k = m // self.n
        out = [Fraction(0)] * m
        for j, a in enumerate(self.coeffs):
            out[j * k] += a
        return Cyc(m, tuple(out))


def zero(n: int) -> Cyc:
    return Cyc(n, (Fraction(0),) * n)


def rational(n: int, value) -> Cyc:
    return Cyc(n, (Fraction(value),) + (Fraction(0),) * (n - 1))


def root(n: int, k: int) -> Cyc:
    """zeta_n^k."""
    out = [Fraction(0)] * n
    out[k % n] = Fraction(1)
    return Cyc(n, tuple(out))
