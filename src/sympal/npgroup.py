"""(n,p)-groups as explicit matrix groups.

Construction data: a prime pair (q, p) with ord_p(q) = n and p = 1 mod n,
an auxiliary odd prime ell, and the character chi sending a generator of
the torsion part to a primitive p-th root of unity zeta and q to -1.  On
the basis e_0, ..., e_{n-1}, the induced representation has a diagonal
generator D = diag(d_0, ..., d_{n-1}), d_i = zeta^(q^i) (the n
Galois-conjugate characters), and a monomial n-cycle F with corner entry
chi(q) = -1.

<D, F> preserves the standard alternating form J, <e_i, e_{m+i}> = 1 for
i < m = n/2, and `build_np_group` checks that D and F have multiplier 1 on it:

- D^T J D = J.  ord_p(q) = 2m gives q^m = -1 mod p, so
  d_i d_{m+i} = zeta^(q^i (1 + q^m)) = 1 for every i < m.
- F^T J F = J.  F sends e_i to e_{i+1} for i < n - 1, so it shifts the
  pairs (e_i, e_{m+i}) to (e_{i+1}, e_{m+i+1}) for i < m - 1.  The last
  pair wraps around: <F e_{m-1}, F e_{n-1}> = <e_m, chi(q) e_0> = -chi(q),
  which is 1 because chi(q) = -1.
- J is the only invariant form up to a scalar (Schur).  `_assert_irreducible`
  proves <D, F> irreducible and D's eigenvalues pairwise distinct in the
  field.  So a G-endomorphism of V is diagonal and, commuting with the
  n-cycle F, a scalar.  A second invariant form J' gives the
  G-endomorphism J^-1 J', hence J' = cJ.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .errors import InvalidParams, NoInvariantForm, NotIrreducible, NotSimilitude, Singular
from .ffield import (
    FieldSpec,
    factorize,
    field_make,
    is_prime,
    mult_generator,
    multiplicative_order,
)
from .groupkit import (
    MatrixGroup,
    is_irreducible,   # unused here; perfbench/tracing.py patches this namespace
    spin,
)
from .linalg import Mat
from .symplectic import SqMatrix, SympSpace, multiplier_of


@dataclass(frozen=True)
class NpParams:
    """Construction parameters, checked when built (InvalidParams)."""

    n: int
    q: int
    p: int
    ell: int

    def __post_init__(self):
        _validate(self)

    @property
    def ext_degree(self) -> int:
        """The multiplicative order of ell mod p, the degree of the field."""
        return multiplicative_order(self.ell, self.p)

    def field(self) -> FieldSpec:
        return field_make(self.ell, self.ext_degree)


def np_params(n: int, q: int, p: int, ell: int) -> NpParams:
    return NpParams(n, q, p, ell)


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


def build_np_group(chi: ChiQ) -> tuple[MatrixGroup, Mat]:
    """The matrix group <D, F> on the standard symplectic space, with its
    Gram matrix, the form <D, F> preserves (see the module docstring).

    Basis convention: e_i carries the character chi^(q^i); F maps
    e_i to e_{i+1} and e_{n-1} to chi(q) e_0.  A character for which D or F
    does not have multiplier 1 on the standard form raises NoInvariantForm.
    """
    params = chi.params
    spec = params.field()
    ctx = spec.ctx
    n = params.n
    diag = [ctx.pow(chi.zeta_index, e) for e in chi.torsion_exponents()]
    d_rows = tuple(tuple(diag[i] if i == j else 0 for j in range(n))
                   for i in range(n))
    f_rows = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        f_rows[i + 1][i] = 1
    f_rows[0][n - 1] = chi.value_at_q
    f_rows = tuple(tuple(r) for r in f_rows)
    space = SympSpace.standard(spec, n)
    gens = (SqMatrix(space, d_rows), SqMatrix(space, f_rows))
    for name, a in zip("DF", gens):
        try:
            invariant = multiplier_of(a) == 1
        except (Singular, NotSimilitude):
            invariant = False
        if not invariant:
            raise NoInvariantForm(f"{name} does not preserve the standard alternating form")
    g = MatrixGroup(space, gens)
    _assert_irreducible(g)
    return g, space.gram


def _assert_irreducible(g: MatrixGroup):
    """Prove <D, F> irreducible by n spins.

    D must be diagonal with pairwise distinct entries (the distinct-character
    criterion, which `build_np_group` checks only here).  Then every
    D-invariant subspace is a sum of the lines <e_i> (the Lagrange
    polynomials in D project onto them), so every nonzero invariant
    subspace holds some e_i and its spin.  Hence the module is irreducible
    iff every e_i spins to V.  Each failure raises NotIrreducible.
    """
    space = g.space
    n = space.n
    d = g.generators[0].rows
    if (any(d[i][j] for i in range(n) for j in range(n) if i != j)
            or not induced_irreducible_criterion([d[i][i] for i in range(n)])):
        raise NotIrreducible("D is not diagonal with pairwise distinct entries")
    for e in linalg.identity(n):
        if spin(space, g.generators, e).dim < n:
            raise NotIrreducible("the induced module has a proper invariant subspace")


def twist_unramified(g: MatrixGroup, alpha: int) -> MatrixGroup:
    """Twist by an unramified character: scale the Frobenius generator.

    Expects generators in build_np_group order (D, F).  The torsion
    restrictions are unchanged, so irreducibility survives; this is
    re-proved by `_assert_irreducible`'s spins of the lines <e_i>.
    """
    space = g.space
    if alpha == 0:
        raise InvalidParams("twist scalar must be nonzero")
    d, f = g.generators
    tf = SqMatrix(space, linalg.mat_scalar(space.field, f.rows, alpha))
    twisted = MatrixGroup(space, (d, tf))
    _assert_irreducible(twisted)
    return twisted
