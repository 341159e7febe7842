"""(n,p)-groups as explicit matrix groups.

Construction data: a prime pair (q, p) with ord_p(q) = n and p = 1 mod n,
an auxiliary odd prime ell, and the character chi sending a generator of
the torsion part to a primitive p-th root of unity and q to -1.  The
induced representation has a diagonal generator D (the n Galois-conjugate
characters) and a monomial n-cycle F with corner entry chi(q) = -1; the
pair preserves a unique-up-to-scalar alternating form, found by solving
the invariance equations directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .errors import InvalidParams, NoInvariantForm, NotIrreducible
from .ffield import (
    FieldSpec,
    factorize,
    field_make,
    is_prime,
    mult_generator,
    multiplicative_order,
)
from .groupkit import MatrixGroup, is_irreducible
from .linalg import Mat
from .symplectic import SqMatrix, SympSpace


@dataclass(frozen=True)
class NpParams:
    n: int
    q: int
    p: int
    ell: int
    ext_degree: int   # multiplicative order of ell mod p

    def field(self) -> FieldSpec:
        return field_make(self.ell, self.ext_degree)


def np_params(n: int, q: int, p: int, ell: int) -> NpParams:
    if ell in (p, q) or ell == 2:
        raise InvalidParams("ell must be an odd prime different from p and q")
    params = NpParams(n, q, p, ell, multiplicative_order(ell, p))
    _validate(params)
    return params


def _validate(params: NpParams):
    n, q, p, ell = params.n, params.q, params.p, params.ell
    if n % 2 or n < 2:
        raise InvalidParams("n must be even and >= 2")
    if not (is_prime(q) and is_prime(p) and is_prime(ell)):
        raise InvalidParams("q, p, ell must all be prime")
    if q <= n:
        raise InvalidParams("need p, q > n")
    # ord_p(q) = n implies p | q^n - 1 but not q^(n/2) - 1, and n | p - 1,
    # so p = 1 mod n and p > n; q has no order mod p = q
    if p == q or multiplicative_order(q, p) != n:
        raise InvalidParams("need p != q and the order of q mod p equal to n")
    if ell in (p, q) or ell == 2:
        raise InvalidParams("ell must be an odd prime different from p and q")
    if params.ext_degree != multiplicative_order(ell, p):
        raise InvalidParams("ext_degree must be the order of ell mod p")


def find_np_primes(n: int, q_max: int) -> list[tuple[int, int]]:
    """All (q, p) with q <= q_max satisfying the congruence conditions.

    The splitting condition on the infinite compositum is NOT checked
    here; it is the caller's responsibility.
    """
    if n % 2 or n < 2:
        raise InvalidParams("n must be even and >= 2")
    out = []
    for q in range(n + 1, q_max + 1):
        if not is_prime(q):
            continue
        # ord_p(q) = n gives p = 1 mod n, so p > n, and p not dividing q^(n/2) - 1
        out += [(q, p) for p in sorted(factorize(q ** n - 1))
                if multiplicative_order(q, p) == n]
    return out


@dataclass(frozen=True)
class ChiQ:
    """The order-2p character: torsion generator -> zeta_p, q -> -1."""

    params: NpParams
    zeta_index: int      # element index of zeta_p in F_{ell^m}
    value_at_q: int      # element index of -1

    def torsion_exponents(self) -> list[int]:
        """Exponents mod p of the n Galois conjugates on the torsion part."""
        p, q, n = self.params.p, self.params.q, self.params.n
        return [pow(q, i, p) for i in range(n)]


def build_chi(params: NpParams) -> ChiQ:
    _validate(params)
    spec = params.field()
    ctx = spec.ctx
    g = mult_generator(spec).index
    # canonical primitive p-th root: the least power of the canonical
    # generator with order p
    zeta = ctx.pow(g, (spec.order - 1) // params.p)
    if zeta == 1 or ctx.pow(zeta, params.p) != 1:
        raise InvalidParams(f"no primitive {params.p}-th root of unity in {spec}")
    return ChiQ(params, zeta, ctx.neg(1))


def induced_irreducible_criterion(chars) -> bool:
    """Induction is irreducible iff the conjugate characters are distinct."""
    return len(set(chars)) == len(chars)


def _skew_unknowns(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _solve_invariant_form(spec: FieldSpec, gens: list[Mat]) -> Mat:
    """An alternating nonsingular J with A^T J A = J for every generator.

    The unknowns are the strictly-upper entries of J (skew, zero
    diagonal); each generator contributes one linear condition per matrix
    position.  Irreducibility makes the solution space one-dimensional,
    so a nonsingular solution is a basis vector or none exists.
    """
    ctx = spec.ctx
    n = len(gens[0])
    unknowns = _skew_unknowns(n)
    pos = {uv: k for k, uv in enumerate(unknowns)}

    def j_entry(i, j, vec):
        if i == j:
            return 0
        if i < j:
            return vec[pos[(i, j)]]
        return ctx.neg(vec[pos[(j, i)]])

    rows = []
    for a in gens:
        # condition: sum_{k,l} a[k][i] J[k][l] a[l][j] - J[i][j] = 0
        for i in range(n):
            for j in range(i + 1, n):
                row = [0] * len(unknowns)
                for (k, l), idx in pos.items():
                    # J[k][l] contributes +a[k][i]a[l][j], J[l][k] = -J[k][l]
                    # contributes -a[l][i]a[k][j]
                    c = ctx.sub(ctx.mul(a[k][i], a[l][j]),
                                ctx.mul(a[l][i], a[k][j]))
                    row[idx] = c
                row[pos[(i, j)]] = ctx.sub(row[pos[(i, j)]], 1)
                rows.append(tuple(row))
    sols = linalg.nullspace(spec, tuple(rows), len(unknowns))
    for vec in sols:
        j = tuple(tuple(j_entry(i, jj, vec) for jj in range(n)) for i in range(n))
        if linalg.det(spec, j) != 0:
            return j
    raise NoInvariantForm("no nonsingular invariant alternating form")


def build_np_group(chi: ChiQ) -> tuple[MatrixGroup, Mat]:
    """The matrix group <D, F> with its preserved alternating form.

    Basis convention: e_i carries the character chi^(q^(i-1)); F maps
    e_i to e_{i+1} and e_n to chi(q) e_1.
    """
    params = chi.params
    spec = params.field()
    ctx = spec.ctx
    n = params.n
    diag = [ctx.pow(chi.zeta_index, e) for e in chi.torsion_exponents()]
    if len(set(diag)) != n:
        raise NotIrreducible("conjugate characters collide on the torsion part")
    d_rows = tuple(tuple(diag[i] if i == j else 0 for j in range(n))
                   for i in range(n))
    f_rows = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        f_rows[i + 1][i] = 1
    f_rows[0][n - 1] = chi.value_at_q
    f_rows = tuple(tuple(r) for r in f_rows)
    j = _solve_invariant_form(spec, [d_rows, f_rows])
    space = SympSpace(spec, n, j)
    g = MatrixGroup(space, (SqMatrix(space, d_rows), SqMatrix(space, f_rows)))
    _assert_irreducible(g)
    return g, j


def _assert_irreducible(g: MatrixGroup):
    """Prove the module irreducible (groupkit's exact test, at every size);
    the distinct-character criterion alone is not taken as proof."""
    if not is_irreducible(g):
        raise NotIrreducible("the induced module has a proper invariant subspace")


def twist_unramified(g: MatrixGroup, alpha: int) -> MatrixGroup:
    """Twist by an unramified character: scale the Frobenius generator.

    Expects generators in build_np_group order (D, F).  The torsion
    restrictions are unchanged, so irreducibility survives; this is
    re-proved by the exact irreducibility test.
    """
    space = g.space
    ctx = space.field.ctx
    if alpha == 0:
        raise InvalidParams("twist scalar must be nonzero")
    d, f = g.generators
    tf = SqMatrix(space, linalg.mat_scalar(space.field, f.rows, alpha))
    twisted = MatrixGroup(space, (d, tf))
    # torsion restrictions are untouched by the twist, so the distinctness
    # criterion still applies; the exact test proves it as well
    if not induced_irreducible_criterion([d.rows[i][i] for i in range(space.n)]):
        raise NotIrreducible("torsion characters collide")
    _assert_irreducible(twisted)
    return twisted
