"""Symplectic spaces, similitudes, and transvections.

The standard form on F^n (n = 2m) pairs e_i with e_{m+i}:
<e_i, e_{m+i}> = 1.  Non-standard Gram matrices are accepted everywhere;
they arise from basis changes in the conjugation tests.

A symplectic transvection with direction v and parameter c sends
u to u + c <u, v> v; its matrix is I + c v (J v)^T for Gram matrix J.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from . import linalg
from .errors import NotSimilitude, Singular
from .ffield import FieldElement, FieldSpec
from .linalg import Mat, Vec


def standard_gram(spec: FieldSpec, n: int) -> Mat:
    if n % 2:
        raise ValueError("symplectic dimension must be even")
    m = n // 2
    ctx = spec.ctx
    rows = [[0] * n for _ in range(n)]
    for i in range(m):
        rows[i][m + i] = 1
        rows[m + i][i] = ctx.neg(1)
    return tuple(tuple(r) for r in rows)


@dataclass(frozen=True)
class SympSpace:
    """A symplectic space: field, even dimension, alternating Gram matrix."""

    field: FieldSpec
    n: int
    gram: Mat

    def __post_init__(self):
        ctx = self.field.ctx
        if self.n % 2 or self.n <= 0:
            raise ValueError("dimension must be even and positive")
        if len(self.gram) != self.n or any(len(r) != self.n for r in self.gram):
            raise ValueError(f"Gram matrix must be {self.n} x {self.n}")
        for i in range(self.n):
            if self.gram[i][i] != 0:
                raise ValueError("Gram matrix must have zero diagonal")
            for j in range(self.n):
                if self.gram[i][j] != ctx.neg(self.gram[j][i]):
                    raise ValueError("Gram matrix must be skew-symmetric")
        if linalg.det(self.field, self.gram) == 0:
            raise ValueError("Gram matrix must be nonsingular")

    @staticmethod
    def standard(spec: FieldSpec, n: int) -> "SympSpace":
        return SympSpace(spec, n, standard_gram(spec, n))

    def pair(self, u: Vec, v: Vec) -> int:
        """<u, v> = u^T J v as an element index."""
        return linalg.vec_dot(self.field, u, linalg.mat_vec(self.field, self.gram, v))


@dataclass(frozen=True)
class SqMatrix:
    """A square matrix acting on a symplectic space (column-vector action)."""

    space: SympSpace
    rows: Mat   # element indices

    def __mul__(self, other: "SqMatrix") -> "SqMatrix":
        if self.space != other.space:
            raise ValueError("matrices over different spaces")
        return SqMatrix(self.space, linalg.mat_mul(self.space.field, self.rows, other.rows))

    def inv(self) -> "SqMatrix":
        return SqMatrix(self.space, linalg.inverse(self.space.field, self.rows))

    def apply(self, v: Vec) -> Vec:
        return linalg.mat_vec(self.space.field, self.rows, v)

    def det(self) -> int:
        return linalg.det(self.space.field, self.rows)

    def trace(self) -> int:
        ctx = self.space.field.ctx
        acc = 0
        for i in range(self.space.n):
            acc = ctx.add(acc, self.rows[i][i])
        return acc

    def is_identity(self) -> bool:
        return self.rows == linalg.identity(self.space.n)

    def elements(self) -> tuple[tuple[FieldElement, ...], ...]:
        """The entries as FieldElement objects (the public grid view)."""
        spec = self.space.field
        return tuple(tuple(FieldElement(spec, x) for x in row) for row in self.rows)

    def serialize(self) -> list[list[list[int]]]:
        ctx = self.space.field.ctx
        return [[list(ctx.digits(x)) for x in row] for row in self.rows]


def mat(space: SympSpace, rows) -> SqMatrix:
    """Build a SqMatrix from integer indices, FieldElements, or coeff lists."""
    ctx = space.field.ctx
    out = []
    for row in rows:
        orow = []
        for x in row:
            if isinstance(x, FieldElement):
                orow.append(x.index)
            elif isinstance(x, int):
                orow.append(x % space.field.ell if space.field.degree == 1
                            else ctx.encode([x] + [0] * (space.field.degree - 1)))
            else:
                orow.append(ctx.encode(x))
        out.append(tuple(orow))
    return SqMatrix(space, tuple(out))


def identity_mat(space: SympSpace) -> SqMatrix:
    return SqMatrix(space, linalg.identity(space.n))


# ---------------------------------------------------------------------------
# similitudes
# ---------------------------------------------------------------------------

def multiplier_of(a: SqMatrix) -> int:
    """The similitude factor alpha with A^T J A = alpha J.

    Raises Singular for non-invertible input and NotSimilitude when no
    scalar works.  The return value is an element index.
    """
    spec = a.space.field
    if a.det() == 0:
        raise Singular("not invertible")
    ctx = spec.ctx
    j = a.space.gram
    lhs = linalg.mat_mul(spec, linalg.mat_mul(spec, linalg.transpose(a.rows), j), a.rows)
    alpha = None
    for i in range(a.space.n):
        for k in range(a.space.n):
            if j[i][k]:
                alpha = ctx.mul(lhs[i][k], ctx.inv(j[i][k]))
                break
        if alpha is not None:
            break
    if lhs != linalg.mat_scalar(spec, j, alpha):
        raise NotSimilitude("A^T J A is not a scalar multiple of J")
    return alpha


def is_similitude(a: SqMatrix) -> bool:
    try:
        multiplier_of(a)
        return True
    except (Singular, NotSimilitude):
        return False


# ---------------------------------------------------------------------------
# transvections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransvectionData:
    direction: Vec
    parameter: int   # element index, nonzero


def make_transvection(space: SympSpace, v: Vec, lam) -> SqMatrix:
    """Matrix of the transvection u -> u + lam <u, v> v."""
    spec = space.field
    ctx = spec.ctx
    if isinstance(lam, FieldElement):
        lam = lam.index
    w = linalg.mat_vec(spec, space.gram, v)   # <u, v> = u . w
    n = space.n
    rows = []
    for i in range(n):
        row = []
        for jj in range(n):
            x = 1 if i == jj else 0
            if v[i] and w[jj]:
                x = ctx.add(x, ctx.mul(lam, ctx.mul(v[i], w[jj])))
            row.append(x)
        rows.append(tuple(row))
    return SqMatrix(space, tuple(rows))


class TransvectionKind(Enum):
    TRIVIAL = "trivial"
    NONTRIVIAL = "nontrivial"
    NOT_TRANSVECTION = "not_transvection"


@dataclass(frozen=True)
class TransvectionVerdict:
    kind: TransvectionKind
    data: Optional[TransvectionData] = None


def detect_transvection(a: SqMatrix) -> TransvectionVerdict:
    """Classify a matrix as the identity, a symplectic transvection, or neither.

    The returned direction is canonical: scaled so its first nonzero
    coordinate is 1, with the parameter absorbing the square of the scaling
    (T_{cv}[lam] = T_v[c^2 lam]).
    """
    spec = a.space.field
    ctx = spec.ctx
    n = a.space.n
    ident = linalg.identity(n)
    if a.rows == ident:
        return TransvectionVerdict(TransvectionKind.TRIVIAL)
    d = linalg.mat_sub(spec, a.rows, ident)
    # candidate direction: first nonzero column, normalized
    v = None
    for jj in range(n):
        col = tuple(d[i][jj] for i in range(n))
        if any(col):
            v = col
            break
    lead = next(i for i, x in enumerate(v) if x)
    inv = ctx.inv(v[lead])
    v = tuple(ctx.mul(x, inv) for x in v)
    w = linalg.mat_vec(spec, a.space.gram, v)
    j0 = next((j for j, x in enumerate(w) if x), None)
    if j0 is None:
        return TransvectionVerdict(TransvectionKind.NOT_TRANSVECTION)
    lam = ctx.mul(d[lead][j0], ctx.inv(w[j0]))
    if lam == 0:
        return TransvectionVerdict(TransvectionKind.NOT_TRANSVECTION)
    for i in range(n):
        for jj in range(n):
            expect = ctx.mul(lam, ctx.mul(v[i], w[jj])) if v[i] and w[jj] else 0
            if d[i][jj] != expect:
                return TransvectionVerdict(TransvectionKind.NOT_TRANSVECTION)
    return TransvectionVerdict(TransvectionKind.NONTRIVIAL, TransvectionData(v, lam))


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Subspace:
    """A subspace stored as a reduced-echelon basis, so equality is structural."""

    space: SympSpace
    basis: Mat

    @staticmethod
    def from_vectors(space: SympSpace, vectors) -> "Subspace":
        rows, _ = linalg.rref(space.field, [tuple(v) for v in vectors])
        return Subspace(space, rows)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: Vec) -> bool:
        return linalg.in_rowspace(self.space.field, self.basis, v)

    def transform(self, a: SqMatrix) -> "Subspace":
        return Subspace.from_vectors(self.space, [a.apply(v) for v in self.basis])

    def serialize(self) -> list[list[list[int]]]:
        ctx = self.space.field.ctx
        return [[list(ctx.digits(x)) for x in row] for row in self.basis]


def full_subspace(space: SympSpace) -> Subspace:
    return Subspace(space, linalg.identity(space.n))


def perp(u: Subspace) -> Subspace:
    """U^perp = {x : <x, w> = 0 for all w in U}."""
    space = u.space
    if not u.basis:
        return full_subspace(space)
    # <x, w> = x^T J w; constraints rows are (J w)^T
    constraints = tuple(linalg.mat_vec(space.field, space.gram, w) for w in u.basis)
    rows = linalg.nullspace(space.field, constraints, space.n)
    return Subspace(space, rows)


def is_nonsingular_subspace(u: Subspace) -> bool:
    """True iff the restricted form on U is nonsingular (U is symplectic)."""
    if not u.basis:
        return True
    space = u.space
    k = u.dim
    gram = tuple(tuple(space.pair(u.basis[i], u.basis[j]) for j in range(k))
                 for i in range(k))
    return linalg.det(space.field, gram) != 0


def stabilizes(a: SqMatrix, u: Subspace) -> bool:
    """True iff A U = U (invertible A, so containment suffices)."""
    return all(u.contains(a.apply(v)) for v in u.basis)


def restricts_to_identity(a: SqMatrix, u: Subspace) -> bool:
    return all(a.apply(v) == v for v in u.basis)


# ---------------------------------------------------------------------------
# random similitudes (seeded; used by conjugation sweeps and demos)
# ---------------------------------------------------------------------------

def random_vector(space: SympSpace, rng) -> Vec:
    q = space.field.order
    while True:
        v = tuple(rng.randrange(q) for _ in range(space.n))
        if any(v):
            return v


def random_transvection(space: SympSpace, rng) -> SqMatrix:
    v = random_vector(space, rng)
    lam = rng.randrange(1, space.field.order)
    return make_transvection(space, v, lam)


def scaling_similitude(space: SympSpace, c: int) -> SqMatrix:
    """The similitude fixing e_1..e_m and scaling f_1..f_m by c (standard form).

    For a non-standard Gram matrix this uses c * I instead, whose
    multiplier is c^2.
    """
    ctx = space.field.ctx
    m = space.n // 2
    if space.gram == standard_gram(space.field, space.n):
        rows = [[0] * space.n for _ in range(space.n)]
        for i in range(m):
            rows[i][i] = 1
            rows[m + i][m + i] = c
        return SqMatrix(space, tuple(tuple(r) for r in rows))
    return SqMatrix(space, linalg.scalar_mat(space.n, c))


def random_similitude(space: SympSpace, rng, words: int = 6) -> SqMatrix:
    """A seeded pseudo-random element of GSp(V): transvections times a scaling."""
    a = identity_mat(space)
    for _ in range(words):
        a = a * random_transvection(space, rng)
    c = rng.randrange(1, space.field.order)
    return a * scaling_similitude(space, c)
