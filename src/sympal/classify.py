"""The transvection trichotomy: reducible / induced / huge.

The classifier mirrors the structure of the underlying proof: test
reducibility of G first; otherwise take the transvection subgroup
H = <transvections of G> and either recognize it (irreducible case, order
matching against |Sp_n(ell^d)|) or build the orthogonal block
decomposition from an irreducible H-submodule and the generator orbit of
its conjugates.  `classify` constructs a verdict and `check_verdict`
proves it on G's generators, the one place each witness fact is
computed: a failed check signals a bug or a forged verdict.

Both irreducibility questions are one deterministic spin, because the
group holds a nontrivial transvection T with direction v.  A proper
invariant subspace W satisfies T·W = W, so it holds v or lies in v^perp;
in the second case the proper invariant W^perp holds v.  So a group of
similitudes holding T is irreducible iff the spin of v is V, and a proper
spin is itself the reducibility witness.  Norton's randomized test
(`groupkit.is_irreducible`) stays for groups with no transvection; no
verdict path calls it.

H is not built from all the transvections.  In characteristic ell >= 5
an irreducible group generated by transvections is Sp_n(F_{ell^d})
(McLaughlin 1967), which is quasisimple, so the normal closure
N = <T^G> of any one nontrivial transvection T decides the case, d and
|H| the same way, and `groupkit.normal_closure` finds it by sifting
conjugates into a stabilizer chain (see `classify` for the argument).
So T is the first generator that is a transvection, else the first
member `transvection_keys` sifts out of G's row table, the only one
decoded and checked.  In the induced case N = H, and the first block is
the N-spin of T's own direction.  No element of G is built, so the cap
bounds only the chains' row search, and NoTransvection is exact past it.

The induced case is proved on the generators.  `_block_orbit` walks
the generator orbit of the first block breadth first, and the check
requires the blocks and `action` to be that orbit and its permutations;
so every element permutes the blocks, G acts on them, and its character
is induced from the stabilizer S_1 of the first block.
`extract_induction` builds S_1 from Schreier generators on G's row
table and checks its index against the block count from the two
stabilizer chains.  A representation is fixed by where the generators
go, so S_1's action on the first block is the group its generators'
m x m blocks generate, on that block's own symplectic space; no element
of S_1 or of G is listed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from . import linalg
from .errors import (
    CharTooSmall,
    InvalidParams,
    NoOrderMatch,
    NoTransvection,
    Singular,
    WitnessCheckFailed,
)
from .groupkit import (
    DEFAULT_CAP,
    ElementSet,
    MatrixGroup,
    check_cap,
    decode_transvections,
    group_order,   # unused here; perfbench/tracing.py patches this namespace
    harvest_transvections,   # the same
    is_irreducible,   # the same
    normal_closure,
    sp_order,
    spin,
    transvection_keys,
)
from .symplectic import (
    SqMatrix,
    Subspace,
    SympSpace,
    TransvectionKind,
    detect_transvection,
    identity_mat,
    stabilizes,
)


@dataclass(frozen=True)
class Reducible:
    witness: Subspace

    case = "reducible"


@dataclass(frozen=True)
class Induced:
    blocks: tuple[Subspace, ...]
    action: tuple[tuple[int, ...], ...]   # per generator, the block permutation

    case = "induced"

    @property
    def block_dim(self) -> int:
        return self.blocks[0].dim

    @property
    def block_count(self) -> int:
        return len(self.blocks)


@dataclass(frozen=True)
class Huge:
    subfield_degree: int
    transvection_subgroup_order: int

    case = "huge"


Classification = Union[Reducible, Induced, Huge]


def recognize_sp_over_subfield(h: MatrixGroup, cap: int = DEFAULT_CAP) -> int:
    """The divisor d of the ambient degree with |H| = |Sp_n(ell^d)|.

    H must be irreducible and generated by transvections in characteristic
    at least 5; under those hypotheses the match exists.  NoOrderMatch
    signals violated preconditions or cap artifacts.  Irreducibility is
    proved by one spin: H is irreducible iff the direction of a nontrivial
    transvection generator spins to V (see `classify`), so a generating set
    without one raises NoOrderMatch too.
    """
    if h.space.field.ell < 5:
        raise CharTooSmall(f"characteristic {h.space.field.ell} < 5")
    found = _first_transvection(h.generators)
    if found is None:
        raise NoOrderMatch("no generator is a nontrivial transvection")
    if spin(h.space, h.generators, found[1]).dim < h.space.n:
        raise NoOrderMatch("subgroup is not irreducible")
    return _match_sp_order(h, cap)


def _first_transvection(gens):
    """The first nontrivial transvection among gens and its direction."""
    for m in gens:
        verdict = detect_transvection(m)
        if verdict.kind is TransvectionKind.NONTRIVIAL:
            return m, verdict.data.direction
    return None


def _match_sp_order(h: MatrixGroup, cap: int) -> int:
    """recognize_sp_over_subfield without its precondition checks."""
    order = h.order(cap)
    n = h.space.n
    r = h.space.field.degree
    for d in range(1, r + 1):
        if r % d == 0 and order == sp_order(n, h.space.field.ell ** d):
            return d
    raise NoOrderMatch(f"order {order} matches no |Sp_{n}({h.space.field.ell}^d)|")


def classify(g: MatrixGroup, cap: int = DEFAULT_CAP) -> Classification:
    """Trichotomy verdict, proved by `check_verdict` before it is returned.

    Case precedence follows the proof order: reducible, then induced,
    then huge.  Requires a cap of at least 1, characteristic >= 5 and a
    nontrivial transvection in G (all checked).

    The transvection subgroup is N = <T^G>, the normal closure of one
    nontrivial transvection T, in place of H = <transvections of G>.  T is
    the first generator that is a transvection; only if none is, T is the
    first harvested one (first in element order), found by sifting with
    no element of G built; only it is decoded and checked with
    detect_transvection.  Both irreducibility tests spin T's direction v
    (the module docstring gives the lemma): G is reducible iff the G-spin
    of v is proper, and that spin is the witness; N is irreducible iff its
    spin of v is V, and otherwise that spin is the first block.  Any such T
    gives the same verdict:

    * Which branch runs.  N lies in H.  If H is reducible, N keeps H's
      invariant subspace.  If H is irreducible, H is Sp_n(F_{ell^d}), which
      is quasisimple; N is normal in H and holds the non-central T, so
      N = H, with the same d and |H|, whichever T.
    * Induced blocks.  H is normal in the irreducible G, so V is a
      semisimple H-module (Clifford): the orthogonal sum of the H-spins
      W_i of transvection directions, permuted transitively by G, with H
      the product of the quasisimple H_i generated by the transvections
      whose directions lie in W_i.  N holds the normal closure of T in the
      H_i holding T, which is H_i, and its G-conjugates, the other H_i, so
      N = H whichever T.  Only the block order depends on T: the first
      block is the N-spin of T's direction, the block W_i holding it, and
      the others follow in the order of its generator orbit.
    """
    check_cap(cap)
    # MatrixGroup has already refused any generator outside GSp(V)
    if g.space.field.ell < 5:
        raise CharTooSmall(f"characteristic {g.space.field.ell} < 5")
    found = _first_transvection(g.generators)
    if found is None:
        keys = transvection_keys(g, cap)
        if not len(keys):
            raise NoTransvection("no nontrivial transvection in the group")
        t, data = decode_transvections(g, keys[:1], cap)[0]
        found = t, data.direction
    t, v = found
    space = g.space

    w = spin(space, g.generators, v)
    if w.dim < space.n:
        verdict = Reducible(w)
    else:
        h = normal_closure(g, [t], cap)
        b = spin(space, h.generators, v)
        if b.dim == space.n:
            verdict = Huge(_match_sp_order(h, cap), h.order(cap))
        else:
            blocks, _, action = _block_orbit(g, b)
            verdict = Induced(tuple(blocks), action)
    check_verdict(g, verdict)
    return verdict


def _block_orbit(g: MatrixGroup, w: Subspace):
    """The generator orbit of w, breadth first, each image computed once:
    the blocks, their representatives t_i (products of generators with
    t_i·w = block i, t_0 = 1) and each generator's permutation (block i
    goes to block perm[i]).  An orbit of more than n / dim w blocks, or a
    generator whose map is not a permutation, raises WitnessCheckFailed."""
    n, m = g.space.n, w.dim
    blocks, reps, index = [w], [identity_mat(g.space)], {w.basis: 0}
    perms = [[] for _ in g.generators]
    for i, b in enumerate(blocks):   # blocks grows as it is walked: a queue
        for a, perm in zip(g.generators, perms):
            img = b.transform(a)
            if img.basis not in index:
                if (len(blocks) + 1) * m > n:
                    raise WitnessCheckFailed(
                        f"a generator moves a block off the orbit: more than {n // m} "
                        f"blocks of dimension {m} cannot tile the space")
                index[img.basis] = len(blocks)
                blocks.append(img)
                reps.append(a * reps[i])
            perm.append(index[img.basis])
    if any(sorted(perm) != list(range(len(blocks))) for perm in perms):
        raise WitnessCheckFailed("generator action is not a permutation")
    return blocks, reps, tuple(map(tuple, perms))


def check_verdict(g: MatrixGroup, verdict: Classification) -> None:
    """Raise WitnessCheckFailed unless the verdict holds on G's generators.

    Reducible: the witness is a nonzero proper subspace every generator
    stabilizes.  Induced, in this order: the blocks tile V and span V (B,
    their bases as columns, is invertible), are `_block_orbit`'s orbit of
    the first block with `action` its permutations, and B^T·J·B is block
    diagonal (nonsingular, as B and J are, so each block is).  Huge:
    1 <= d, d | degree, |N| = |Sp_n(ell^d)|.  Any other verdict fails.
    """
    if isinstance(verdict, Reducible):
        w = verdict.witness
        if not 0 < w.dim < g.space.n or not all(stabilizes(m, w) for m in g.generators):
            raise WitnessCheckFailed("invalid reducibility witness")
    elif isinstance(verdict, Induced):
        _check_induced(g, verdict)
    elif isinstance(verdict, Huge):
        f, d = g.space.field, verdict.subfield_degree
        if not (1 <= d and f.degree % d == 0
                and verdict.transvection_subgroup_order == sp_order(g.space.n, f.ell ** d)):
            raise WitnessCheckFailed("huge verdict: |N| is not |Sp_n(ell^d)| with d | degree")
    else:
        raise WitnessCheckFailed(f"not a trichotomy verdict: {verdict!r}")


def _check_induced(g: MatrixGroup, verdict: Induced):
    """check_verdict on an induced verdict.  Returns what extract_induction
    builds on: B^-1, B, the block representatives t_i of `_block_orbit`
    and B^T·J·B."""
    space = g.space
    n, m = space.n, verdict.blocks[0].dim if verdict.blocks else 0
    if len(verdict.blocks) * m != n or any(b.dim != m for b in verdict.blocks):
        raise WitnessCheckFailed("blocks do not tile the space")
    basis = linalg.transpose(tuple(v for b in verdict.blocks for v in b.basis))
    try:
        to_blocks = linalg.inverse(space.field, basis)
    except Singular:
        raise WitnessCheckFailed("blocks do not span") from None
    blocks, reps, action = _block_orbit(g, verdict.blocks[0])
    if [b.basis for b in blocks] != [b.basis for b in verdict.blocks]:
        raise WitnessCheckFailed("a block is off the orbit of the first block")
    if verdict.action != action:
        raise WitnessCheckFailed("the action is not the generators' permutations of the blocks")
    gram = linalg.mat_mul(space.field, linalg.transpose(basis),
                          linalg.mat_mul(space.field, space.gram, basis))
    if any(gram[i][j] for i in range(n) for j in range(n) if i // m != j // m):
        raise WitnessCheckFailed("blocks not orthogonal")
    return to_blocks, basis, reps, gram


def is_huge(g: MatrixGroup, cap: int = DEFAULT_CAP) -> bool:
    """True iff the classifier lands in the huge case.

    Equivalently G contains a conjugate of Sp_n over the prime field: the
    verdict's check proves |H| = |Sp_n(ell^d)| for a divisor d of the
    degree, and Sp_n(ell^d) holds Sp_n(ell).
    """
    return isinstance(classify(g, cap), Huge)


@dataclass(frozen=True)
class InducedExtraction:
    """The stabilizer S_1 of the first block, its index (the block count),
    its generators, and its action on the first block W_1.

    `stabilizer` is S_1's `ElementSet`: its length is counted from S_1's
    chain, and no element is listed unless a caller reads one.
    `block_action` is the group on W_1's own symplectic space (Gram matrix
    the first m x m block of B^T·J·B) whose i-th generator is the matrix
    of S_1's i-th generator on W_1, in W_1's basis.
    """

    stabilizer: ElementSet
    index: int
    generators: tuple[SqMatrix, ...]
    block_action: MatrixGroup


def extract_induction(g: MatrixGroup, verdict: Induced,
                      cap: int = DEFAULT_CAP) -> InducedExtraction:
    """Stabilizer S_1 of the first block with its action on that block,
    proved on the generators.

    The verdict must be Induced (else InvalidParams) and is checked first
    (`check_verdict`, WitnessCheckFailed if it fails); that check hands
    over B^-1, B, the block representatives t_i and B^T·J·B.  As the
    generators permute the blocks, so does every element: each is
    block-monomial in the block basis, and its trace is the sum of the
    traces of the blocks it fixes, the induced character.  By Schreier's
    lemma (Seress 2003, §4.1) S_1 is generated by the t_{a(i)}^-1·a·t_i,
    for block i and generator a sending it to block a(i) in the verdict's
    checked `action`; each is sifted into G's chain, and |S_1|·block_count
    = |G|, from the two chains, checks the index.  No element is listed,
    so G may lie past the cap; S_1 may not, as its `ElementSet` counts it
    (CapExceeded).

    Let B_0 be the first m columns of B, the first block's basis.  Each
    generator s of S_1 is mapped to B^-1·s·B_0, which must be zero below
    its top m x m block: so every element of S_1 is, and that block is
    s's matrix on the first block.
    """
    if not isinstance(verdict, Induced):
        raise InvalidParams(f"extract_induction needs an induced verdict, not {verdict!r}")
    space, m = g.space, verdict.block_dim
    to_blocks, basis, reps, gram = _check_induced(g, verdict)
    back = [t.inv() for t in reps]
    schreier = [back[j] * a * t for a, perm in zip(g.generators, verdict.action)
                for t, j in zip(reps, perm)]
    stab = g.subgroup([s for s in schreier if not s.is_identity()] or [identity_mat(space)], cap)
    if stab.order(cap) * verdict.block_count != g.order(cap):
        raise WitnessCheckFailed("stabilizer index does not equal block count")
    first = tuple(row[:m] for row in basis)
    block_space = SympSpace(space.field, m, tuple(row[:m] for row in gram[:m]))
    on_block = []
    for s in stab.generators:
        column = linalg.mat_mul(space.field, to_blocks, linalg.mat_mul(space.field, s.rows, first))
        if any(any(row) for row in column[m:]):
            raise WitnessCheckFailed("a stabilizer generator moves the first block")
        on_block.append(SqMatrix(block_space, column[:m]))
    return InducedExtraction(stab.elements(cap), verdict.block_count, stab.generators,
                             MatrixGroup(block_space, tuple(on_block)))


def serialize_verdict(v: Classification) -> dict:
    if isinstance(v, Reducible):
        return {"case": "reducible", "witness": v.witness.serialize()}
    if isinstance(v, Induced):
        return {
            "case": "induced",
            "block_dim": v.block_dim,
            "block_count": v.block_count,
            "blocks": [b.serialize() for b in v.blocks],
            "action": [list(p) for p in v.action],
        }
    return {
        "case": "huge",
        "subfield_degree": v.subfield_degree,
        "transvection_subgroup_order": v.transvection_subgroup_order,
    }
