"""Tame-inertia weight profiles and the n!-power distinctness check.

A profile lists parts (niveau r_i, weight set S_i); each part contributes
the Frobenius orbit of one niveau-r_i character, with exponent
b_i = a_1 + a_2*ell + ... built from the sorted weights.  Characters of
different niveaus are compared by lifting both to niveau r_i*r_j; the
whole module is exponent arithmetic, no field elements are ever built.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .errors import InvalidParams, TwistBreaksRegularity, exact_int
from .ffield import is_prime


@dataclass(frozen=True)
class WeightProfile:
    ell: int
    n: int
    parts: tuple[tuple[int, tuple[int, ...]], ...]   # (niveau, sorted weights)

    @property
    def max_weight(self) -> int:
        return max(a for _, ws in self.parts for a in ws)


def profile(ell: int, n: int, parts) -> WeightProfile:
    p = WeightProfile(ell, n, tuple((r, tuple(sorted(ws))) for r, ws in parts))
    bad = validate_profile(p)
    if bad is not None:
        raise InvalidParams(bad)
    return p


def validate_profile(p: WeightProfile) -> Optional[str]:
    """None when well-formed, else the first violated clause."""
    if not is_prime(p.ell):
        return f"{p.ell} is not prime"
    if p.n < 1:
        return "n must be positive"
    if not p.parts:
        return "profile needs at least one part"
    total = 0
    union = set()
    for r, ws in p.parts:
        if r < 1:
            return f"niveau {r} is not positive"
        if len(ws) != r:
            return f"part of niveau {r} must carry exactly {r} weights"
        for a in ws:
            if not 0 <= a <= p.ell - 1:
                return f"weight {a} outside [0, {p.ell - 1}]"
        if len(set(ws)) != r:
            return "weights within a part are not distinct"
        total += r
        union.update(ws)
    if total != p.n:
        return f"niveaus sum to {total}, not n = {p.n}"
    if len(union) != p.n:
        return "weights not distinct across the profile"
    return None


@dataclass(frozen=True)
class NiveauCharacter:
    """A power of the fixed fundamental character of its niveau."""

    niveau: int
    exponent: int   # reduced mod ell^niveau - 1 (at construction sites)


def part_exponent(ell: int, weights) -> int:
    """b = a_1 + a_2*ell + ... + a_r*ell^(r-1), weights ascending."""
    b = 0
    for j, a in enumerate(sorted(weights)):
        b += a * ell ** j
    return b


def diag_characters(p: WeightProfile) -> list[NiveauCharacter]:
    """The n diagonal characters: each part's Frobenius orbit b, b*ell, ..."""
    out = []
    for r, ws in p.parts:
        mod = p.ell ** r - 1
        b = part_exponent(p.ell, ws)
        for j in range(r):
            out.append(NiveauCharacter(r, b * p.ell ** j % mod))
    return out


def _lifted_difference(c1: NiveauCharacter, c2: NiveauCharacter,
                       ell: int) -> tuple[int, int]:
    """(big, e1 - e2 mod big) with big = ell^{r1 r2} - 1, after lifting both
    to niveau r1*r2.

    psi_{r} = psi_{r1 r2}^{(ell^{r1 r2}-1)/(ell^{r}-1)}, so each exponent is
    scaled by its lifting factor.
    """
    big = ell ** (c1.niveau * c2.niveau) - 1
    e1 = c1.exponent * (big // (ell ** c1.niveau - 1))
    e2 = c2.exponent * (big // (ell ** c2.niveau - 1))
    return big, (e1 - e2) % big


def characters_equal(c1: NiveauCharacter, c2: NiveauCharacter, ell: int) -> bool:
    """Equality after lifting both to niveau r1*r2."""
    return _lifted_difference(c1, c2, ell)[1] == 0


@dataclass(frozen=True)
class Certificate:
    """Nonvanishing witness for one pair: 0 < c0 < ell^(r1 r2) - 1."""

    pair: tuple[int, int]
    c0: int
    bound: int


@dataclass(frozen=True)
class DistinctnessReport:
    distinct: bool
    collision: Optional[tuple[int, int]] = None          # indices into diag list
    colliding: Optional[tuple[NiveauCharacter, NiveauCharacter]] = None
    certificates: tuple[Certificate, ...] = ()


def check_npower_distinct(p: WeightProfile,
                          with_certificates: bool = False) -> DistinctnessReport:
    """Lemma-style distinctness of the n!-th powers of the diagonal characters."""
    import math

    chars = diag_characters(p)
    nfact = math.factorial(p.n)
    powered = [NiveauCharacter(c.niveau, c.exponent * nfact % (p.ell ** c.niveau - 1))
               for c in chars]
    certs = []
    for i in range(len(powered)):
        for j in range(i + 1, len(powered)):
            big, c0 = _lifted_difference(powered[i], powered[j], p.ell)
            if c0 == 0:
                return DistinctnessReport(False, (i, j), (chars[i], chars[j]))
            if with_certificates:
                certs.append(Certificate((i, j), min(c0, big - c0), big))
    return DistinctnessReport(True, certificates=tuple(certs))


def twist_by_cyclotomic(p: WeightProfile, a: int) -> WeightProfile:
    """Shift every weight by a mod (ell - 1).

    The niveau-1 cyclotomic character lifts to exponent
    (ell^r - 1)/(ell - 1) in niveau r; adding a times that to b_i shifts
    each base-ell digit by a, i.e. each weight moves by a mod ell - 1.
    """
    shift = a % (p.ell - 1)
    if shift == 0:
        return p
    parts = []
    for r, ws in p.parts:
        new = tuple(sorted((w + shift) % (p.ell - 1) for w in ws))
        if len(set(new)) != len(new):
            raise TwistBreaksRegularity(
                f"shift by {shift} collides weights within a niveau-{r} part")
        parts.append((r, new))
    out = WeightProfile(p.ell, p.n, tuple(parts))
    bad = validate_profile(out)
    if bad is not None:
        raise TwistBreaksRegularity(bad)
    return out


def random_profile(ell: int, n: int, rng: random.Random,
                   max_weight: Optional[int] = None) -> WeightProfile:
    """A seeded random valid profile with n distinct weights.

    max_weight caps the drawn weights (defaults to ell - 1); useful to
    keep k under the ell > k*n! + 1 threshold in sweeps.
    """
    hi = p_hi = (ell - 1) if max_weight is None else max_weight
    if hi + 1 < n:
        raise InvalidParams(f"cannot draw {n} distinct weights up to {p_hi}")
    weights = rng.sample(range(hi + 1), n)
    # random composition of n into niveaus
    niveaus = []
    left = n
    while left:
        r = rng.randint(1, left)
        niveaus.append(r)
        left -= r
    parts = []
    at = 0
    for r in niveaus:
        parts.append((r, tuple(sorted(weights[at:at + r]))))
        at += r
    return profile(ell, n, parts)


def profile_to_doc(p: WeightProfile) -> dict:
    return {"ell": p.ell, "n": p.n,
            "parts": [{"niveau": r, "weights": list(ws)} for r, ws in p.parts]}


def profile_from_doc(doc: dict) -> WeightProfile:
    """The profile of a document.  `ell`, `n`, every `niveau` and every
    weight must be ints (not bools), else ValueError."""
    return profile(exact_int(doc["ell"], "profile ell"), exact_int(doc["n"], "profile n"),
                   [(exact_int(part["niveau"], "profile niveau"),
                     [exact_int(w, "profile weight") for w in part["weights"]])
                    for part in doc["parts"]])
