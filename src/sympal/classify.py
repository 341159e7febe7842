"""The transvection trichotomy: reducible / induced / huge.

The classifier mirrors the structure of the underlying proof: test
reducibility of G first; otherwise form H = <transvections of G> and
either recognize it (irreducible case, order matching against
|Sp_n(ell^d)|) or build the orthogonal block decomposition from an
irreducible H-submodule and the generator orbit of its conjugates.
Witnesses are verified, never trusted: a failed witness check signals an
enumeration bug, not a mathematical possibility.

The induced case is proved on the whole enumerated group by
`extract_induction`, as array passes over the element keys: each element
A is rewritten in the block basis, M = B^-1·A·B with B the concatenated
block bases, by one fixed integer matrix on A's base-ell digits.  Then A
permutes the blocks iff M is block-monomial (one nonzero m x m block per
block row and column), the fixed blocks' diagonal traces must sum to
trace(A), and the stabilizer of the first block is where M's (0, 0)
block is nonzero.  This replaces transforming every block by every
element, one subspace echelon form and linear solve at a time.  The
result is two views over arrays, the stabilizer's keys and its (0, 0)
blocks, so its memory grows with those arrays and a stabilizer element
or block matrix costs a decode only when a caller reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from . import linalg
from .errors import (
    CharTooSmall,
    NoOrderMatch,
    NoTransvection,
    Singular,
    WitnessCheckFailed,
)
from .ffield import FieldSpec
from .groupkit import (
    DEFAULT_CAP,
    ElementSet,
    MatrixGroup,
    MatSequence,
    group_order,   # unused here; perfbench/tracing.py patches this namespace
    harvest_transvections,
    is_irreducible,
    sp_order,
    spin,
)
from .linalg import Mat
from .symplectic import (
    SqMatrix,
    Subspace,
    is_nonsingular_subspace,
    is_similitude,
    stabilizes,
)


@dataclass(frozen=True)
class Reducible:
    witness: Subspace

    case = "reducible"


@dataclass(frozen=True)
class Induced:
    blocks: tuple[Subspace, ...]
    block_dim: int
    block_count: int
    action: tuple[tuple[int, ...], ...]   # per generator, the block permutation

    case = "induced"


@dataclass(frozen=True)
class Huge:
    subfield_degree: int
    transvection_subgroup_order: int

    case = "huge"


Classification = Union[Reducible, Induced, Huge]


def _check_preconditions(g: MatrixGroup):
    if g.space.field.ell < 5:
        raise CharTooSmall(f"characteristic {g.space.field.ell} < 5")
    for m in g.generators:
        if not is_similitude(m):
            raise WitnessCheckFailed("generator outside GSp(V)")


def _dedupe_directions(transvections) -> list[SqMatrix]:
    """One transvection per direction line; enough for generation and
    stabilization questions (T_v[c*lam] is a power of T_v[lam])."""
    seen = set()
    out = []
    for m, data in transvections:
        if data.direction not in seen:
            seen.add(data.direction)
            out.append(m)
    return out


def recognize_sp_over_subfield(h: MatrixGroup, cap: int = DEFAULT_CAP) -> int:
    """The divisor d of the ambient degree with |H| = |Sp_n(ell^d)|.

    H must be irreducible and generated by transvections in characteristic
    at least 5; under those hypotheses the match exists.  NoOrderMatch
    signals violated preconditions or cap artifacts.
    """
    if h.space.field.ell < 5:
        raise CharTooSmall(f"characteristic {h.space.field.ell} < 5")
    if not is_irreducible(h):
        raise NoOrderMatch("subgroup is not irreducible")
    return _match_sp_order(h, cap)


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
    """Trichotomy verdict with verified witnesses.

    Case precedence follows the proof order: reducible, then induced,
    then huge.  Requires characteristic >= 5 and a nontrivial transvection
    in G (both checked).
    """
    _check_preconditions(g)
    harvested = harvest_transvections(g, cap)
    if not harvested:
        raise NoTransvection("no nontrivial transvection found within the cap")

    red = is_irreducible(g)
    if not red.irreducible:
        w = red.witness
        if not (0 < w.dim < g.space.n) or not all(stabilizes(m, w) for m in g.generators):
            raise WitnessCheckFailed("invalid reducibility witness")
        return Reducible(w)

    h_gens = _dedupe_directions(harvested)
    h = g.subgroup(h_gens, cap)
    h_red = is_irreducible(h)
    if h_red.irreducible:
        d = _match_sp_order(h, cap)
        return Huge(d, h.order(cap))

    return _build_induced(g, h_gens, harvested[0][1].direction)


def _build_induced(g: MatrixGroup, h_gens, seed) -> Induced:
    """Blocks = generator orbit of the spin of a transvection direction."""
    space = g.space
    w = spin(space, h_gens, seed)
    blocks = [w]
    index = {w.basis: 0}
    frontier = [w]
    while frontier:
        new = []
        for b in frontier:
            for a in g.generators:
                img = b.transform(a)
                if img.basis not in index:
                    index[img.basis] = len(blocks)
                    blocks.append(img)
                    new.append(img)
        frontier = new
    h = len(blocks)
    m = w.dim
    if h * m != space.n:
        raise WitnessCheckFailed("block orbit does not tile the space")
    # verify: equal dims, pairwise orthogonal, nonsingular, direct sum
    all_rows: list = []
    for i, b in enumerate(blocks):
        if b.dim != m:
            raise WitnessCheckFailed("unequal block dimensions")
        if not is_nonsingular_subspace(b):
            raise WitnessCheckFailed("singular block")
        for j in range(i):
            for u in blocks[i].basis:
                for v in blocks[j].basis:
                    if space.pair(u, v) != 0:
                        raise WitnessCheckFailed("blocks not orthogonal")
        all_rows.extend(b.basis)
    if linalg.rank(space.field, all_rows) != space.n:
        raise WitnessCheckFailed("blocks do not span")
    action = []
    for a in g.generators:
        perm = []
        for b in blocks:
            img = b.transform(a)
            k = index.get(img.basis)
            if k is None:
                raise WitnessCheckFailed("generator image leaves the block set")
            perm.append(k)
        if sorted(perm) != list(range(h)):
            raise WitnessCheckFailed("generator action is not a permutation")
        action.append(tuple(perm))
    return Induced(tuple(blocks), m, h, tuple(action))


def is_huge(g: MatrixGroup, cap: int = DEFAULT_CAP) -> bool:
    """True iff the classifier lands in the huge case.

    Equivalently G contains a conjugate of Sp_n over the prime field; on
    fixtures the order bound |H| >= |Sp_n(ell)| is cross-checked.
    """
    verdict = classify(g, cap)
    if isinstance(verdict, Huge):
        if verdict.transvection_subgroup_order < sp_order(g.space.n, g.space.field.ell):
            raise WitnessCheckFailed("huge verdict with |H| below |Sp_n(ell)|")
        return True
    return False


@dataclass(frozen=True)
class InducedExtraction:
    """The stabilizer of the first block S_1, its index (the block count),
    and each stabilizer element's m x m matrix on S_1 in S_1's basis.

    Both sequences are views over arrays, in element order:
    `stabilizer` over the stabilizer's sorted keys, `block_action` over a
    (|stabilizer|, m, m) index array.  Their memory is those arrays, and
    an element or matrix is decoded only when it is read; length and `in`
    decode nothing.  Each view equals the tuple of its items.
    """

    stabilizer: ElementSet
    index: int
    block_action: MatSequence


def sandwich_map(spec: FieldSpec, left: Mat, right: Mat) -> np.ndarray:
    """x -> left·x·right on the n·n·degree entry digits of an n x n matrix x.

    The map is F_q-linear in x, so F_ell-linear on its digits: entry (i, j)
    of x, times left[a][i]·right[j][b], goes to entry (a, b), so block
    ((i, j), (a, b)) is the digit matrix of multiplication by that product.
    """
    ctx, n, d = spec.ctx, len(left), spec.degree
    lhs = ctx.digit_array(left).transpose(1, 0, 2)[:, None, :, None]     # [i, ., a, .]
    rhs = ctx.digit_array(right)[None, :, None]                           # [., j, ., b]
    blocks = ctx.mul_matrix(ctx.index_array(ctx.product_digits(lhs, rhs)))
    return blocks.transpose(0, 1, 4, 2, 3, 5).reshape(n * n * d, n * n * d)


def extract_induction(g: MatrixGroup, verdict: Induced,
                      cap: int = DEFAULT_CAP) -> InducedExtraction:
    """Stabilizer of the first block with its block representation.

    Let B be the matrix whose columns are the blocks' reduced-echelon
    bases, concatenated.  Each element A is rewritten in the block basis
    as M = B^-1·A·B, a fixed F_ell-linear map of A's entry digits
    (`sandwich_map`), ARRAY_CHUNK elements at a time.  The m x m
    block (r, c) of M is the block-r part of A applied to block c, so:

    * A permutes the blocks iff every block row and every block column of
      M holds exactly one nonzero block; otherwise WitnessCheckFailed
      ("element moves a block off the orbit");
    * the induced character of the block action at A is the sum of the
      traces of the diagonal blocks of the blocks A fixes, which must equal
      trace(A) (compared digit-wise);
    * A stabilizes the first block iff M's (0, 0) block is nonzero, and
      that block is A's matrix on it in the block's basis.

    Finally the stabilizer's index must equal the block count.  The
    result holds the stabilizer's keys and the (0, 0) blocks as arrays
    (see InducedExtraction); no element or matrix object is built.
    """
    space = g.space
    n, m, h = space.n, verdict.block_dim, len(verdict.blocks)
    if h * m != n or any(b.dim != m for b in verdict.blocks):
        raise WitnessCheckFailed("blocks do not tile the space")
    basis = linalg.transpose(tuple(v for b in verdict.blocks for v in b.basis))
    try:
        to_blocks = linalg.inverse(space.field, basis)
    except Singular:
        raise WitnessCheckFailed("blocks do not span") from None
    elems = g.elements(cap)
    ctx = space.field.ctx
    change = sandwich_map(space.field, to_blocks, basis)
    ell, diag, blocks = ctx.ell, np.arange(n), np.arange(h)
    stab, action = [], []
    for pos, entries in elems.entry_chunks():
        a = ctx.digit_array(entries)
        c = len(pos)
        mm = (a.reshape(c, -1) @ change % ell).reshape(a.shape)
        nonzero = mm.reshape(c, h, m, h, m, -1).any(axis=(2, 4, 5))
        if not (np.all(nonzero.sum(axis=1) == 1) and np.all(nonzero.sum(axis=2) == 1)):
            raise WitnessCheckFailed("element moves a block off the orbit")
        traces = mm[:, diag, diag].reshape(c, h, m, -1).sum(axis=2)
        fixed = nonzero[:, blocks, blocks, None]
        if not np.array_equal((traces * fixed).sum(axis=1) % ell,
                              a[:, diag, diag].sum(axis=1) % ell):
            raise WitnessCheckFailed("induced character mismatch")
        keep = nonzero[:, 0, 0]
        stab.append(pos[keep])
        action.append(ctx.index_array(mm[keep, :m, :m]))
    stab = np.concatenate(stab)
    if len(stab) * verdict.block_count != len(elems):
        raise WitnessCheckFailed("stabilizer index does not equal block count")
    return InducedExtraction(elems.subset(stab), verdict.block_count,
                             MatSequence(np.concatenate(action)))


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
