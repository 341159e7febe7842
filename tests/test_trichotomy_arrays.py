"""The array passes of the trichotomy against per-element reference oracles.

`reference_extract_induction` and `reference_harvest` are the earlier
per-element implementations of `classify.extract_induction` and
`groupkit.harvest_transvections`, kept here as oracles.  The harvest must
return the oracle's result in order.  The extraction must return the
oracle's index and stabilizer, in order, and a block group whose elements
are the oracle's block matrices.  The extraction oracle checks every
element of G (block permutation, induced character), which the library
proves on the generators alone.
"""

import dataclasses
import random
from functools import lru_cache
from typing import Optional

import pytest

from sympal import groupkit, linalg
from sympal.classify import Induced, classify, extract_induction
from sympal.errors import WitnessCheckFailed
from sympal.ffield import FieldElement, field_make, mult_generator, subfield_embed
from sympal.groupkit import DEFAULT_CAP, ElementSet, group, harvest_transvections
from sympal.linalg import Mat
from sympal.symplectic import (
    SqMatrix,
    Subspace,
    SympSpace,
    TransvectionKind,
    detect_transvection,
    make_transvection,
    mat,
    random_similitude,
)
from test_stabilizer_chain import CRITERION_3 as CHAIN_CRITERION_3, WREATH, build

F5 = field_make(5, 1)
F25 = field_make(5, 2)


# ---------------------------------------------------------------------------
# reference oracles: one element at a time
# ---------------------------------------------------------------------------

def reference_extract_induction(g, verdict, cap=DEFAULT_CAP):
    """(stabilizer, index, block matrices): the elements of G fixing the
    first block, in element order, and each one's matrix on that block."""
    space = g.space
    spec = space.field
    ctx = spec.ctx
    elems = g.elements(cap)
    blocks = verdict.blocks
    first = blocks[0]

    def coords_on(block: Subspace, a: SqMatrix) -> Optional[Mat]:
        """Matrix of a restricted to the block, or None if not stabilized."""
        cols = []
        bbt = linalg.transpose(block.basis)
        for v in block.basis:
            img = a.apply(v)
            if not block.contains(img):
                return None
            cols.append(linalg.solve(spec, bbt, img))
        return linalg.transpose(tuple(cols))

    stab = []
    action = []
    block_index = {b.basis: i for i, b in enumerate(blocks)}
    for a in elems:
        tr_sum = 0
        fixes_first = False
        for b in blocks:
            img = b.transform(a)
            k = block_index.get(img.basis)
            if k is None:
                raise WitnessCheckFailed("element moves a block off the orbit")
            if k == block_index[b.basis]:
                restr = coords_on(b, a)
                t = 0
                for i in range(verdict.block_dim):
                    t = ctx.add(t, restr[i][i])
                tr_sum = ctx.add(tr_sum, t)
                if b is first:
                    fixes_first = True
        if tr_sum != a.trace():
            raise WitnessCheckFailed("induced character mismatch")
        if fixes_first:
            stab.append(a)
            action.append(coords_on(first, a))
    if len(stab) * verdict.block_count != len(elems):
        raise WitnessCheckFailed("stabilizer index does not equal block count")
    return tuple(stab), verdict.block_count, tuple(action)


def reference_harvest(g, cap=DEFAULT_CAP):
    out = []
    for m in g.elements(cap):
        if m.trace() != g.space.n % g.space.field.ell:   # a transvection has trace n
            continue
        verdict = detect_transvection(m)
        if verdict.kind is TransvectionKind.NONTRIVIAL:
            out.append((m, verdict.data))
    return out


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

def _induced_gens(s):
    gens = [make_transvection(s, v, 1) for v in
            [(1, 0, 0, 0), (0, 0, 1, 0), (1, 0, 1, 0),
             (0, 1, 0, 0), (0, 0, 0, 1), (0, 1, 0, 1)]]
    swap = mat(s, [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    return gens + [swap]


def _lift_to_f25(m: SqMatrix, s25: SympSpace) -> SqMatrix:
    emb = subfield_embed(F5, F25)
    return SqMatrix(s25, tuple(tuple(emb(FieldElement(F5, x)).index for x in row)
                               for row in m.rows))


def _conjugate(gens, seed):
    s = gens[0].space
    a = random_similitude(s, random.Random(seed))
    ai = a.inv()
    return [a * m * ai for m in gens]


def _gens(name: str):
    s2, s4 = SympSpace.standard(F5, 2), SympSpace.standard(F5, 4)
    s25 = SympSpace.standard(F25, 2)
    if name == "reducible":
        return [make_transvection(s2, (1, 0), 1)]
    if name == "huge-f5":
        return [make_transvection(s2, (1, 0), 1), make_transvection(s2, (0, 1), 1)]
    if name == "huge-f25":
        t = mult_generator(F25).index
        return [make_transvection(s25, (1, 0), 1), make_transvection(s25, (0, 1), t)]
    if name == "induced":
        return _induced_gens(s4)
    if name.startswith("induced-conj-"):
        return _conjugate(_induced_gens(s4), int(name.rsplit("-", 1)[1]))
    if name == "induced-f25":
        # Sp2(F5) wr C2, 28,800 elements, written over F25: extension digits
        s = SympSpace.standard(F25, 4)
        return [_lift_to_f25(m, s) for m in _induced_gens(s4)]
    raise KeyError(name)


INDUCED = ["induced", "induced-conj-1", "induced-conj-2", "induced-conj-3", "induced-f25"]
CRITERION_3 = ["reducible", "induced", "huge-f5", "huge-f25"]


@lru_cache(maxsize=None)
def case(name: str):
    """(group, verdict) of a named fixture, enumerated once per session."""
    gens = _gens(name)
    g = group(gens[0].space, gens)
    return g, classify(g)


@lru_cache(maxsize=None)
def reference_extraction(name: str):
    return reference_extract_induction(*case(name))


def induced_group(name: str):
    """The group of an induced fixture here or a wreath fixture of the
    chain tests."""
    return case(name)[0] if name in INDUCED else build(name)


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", INDUCED)
def test_extract_induction_matches_reference(name):
    g, v = case(name)
    assert isinstance(v, Induced)
    got = extract_induction(g, v)
    stabilizer, index, blocks = reference_extraction(name)
    assert got.index == index
    assert got.stabilizer == stabilizer
    assert {m.rows for m in got.block_action.elements()} == set(blocks)


@pytest.mark.parametrize("name", INDUCED + WREATH)
def test_block_action_generators_are_the_top_blocks(name):
    """The i-th generator of the block group is the top m x m block of
    B^-1·s·B_0 for S_1's i-th generator s, zero below it, on the first
    block's space: Gram matrix the top-left block of B^T·J·B."""
    g = induced_group(name)
    v = classify(g)
    got = extract_induction(g, v)
    spec, m = g.space.field, v.block_dim
    basis = linalg.transpose(tuple(x for b in v.blocks for x in b.basis))   # B
    first = tuple(row[:m] for row in basis)                                  # B_0
    to_blocks = linalg.inverse(spec, basis)
    for s, a in zip(got.generators, got.block_action.generators, strict=True):
        column = linalg.mat_mul(spec, to_blocks, linalg.mat_mul(spec, s.rows, first))
        assert a.rows == column[:m] and not any(any(row) for row in column[m:])
    gram = linalg.mat_mul(spec, linalg.transpose(first), linalg.mat_mul(spec, g.space.gram, first))
    assert got.block_action.space.gram == gram


@pytest.mark.parametrize("name", INDUCED + WREATH)
def test_extraction_lists_no_element(name, monkeypatch):
    """S_1 is counted from its chain, and its block action comes from its
    generators: no key of S_1 or of G is listed."""
    g = induced_group(name)
    v = classify(g)

    def refused(*args, **kwargs):
        raise AssertionError("a key listing was built")

    monkeypatch.setattr(groupkit._StabilizerChain, "keys", refused)
    got = extract_induction(g, v)
    assert len(got.stabilizer) * got.index == g.order()


@pytest.mark.parametrize("name", sorted(set(CRITERION_3 + INDUCED)))
def test_harvest_matches_reference(name):
    g, _ = case(name)
    got = harvest_transvections(g)
    assert got == reference_harvest(g)
    assert got


def test_small_chunks_give_the_same_results(monkeypatch):
    g, v = case("induced")
    conj, _ = case("induced-conj-1")
    want_harvest = harvest_transvections(conj)
    assert len(conj.chain().table.row_keys) == 624 < groupkit.ARRAY_CHUNK
    monkeypatch.setattr(groupkit, "ARRAY_CHUNK", 997)   # 15 chunks of S_1's 14,400 elements
    assert extract_induction(g, v).stabilizer == reference_extraction("induced")[0]
    monkeypatch.setattr(groupkit, "ARRAY_CHUNK", 7)     # 86 chunks of 588 orbit points
    assert harvest_transvections(conj) == want_harvest


@pytest.mark.parametrize("name", CHAIN_CRITERION_3 + WREATH)
def test_harvest_builds_no_element(name, monkeypatch):
    """Candidates come from the row table and are sifted, so no element
    of G is built, and the result is the per-element oracle's."""
    want = reference_harvest(build(name))

    def refused(*args, **kwargs):
        raise AssertionError("an element was built")

    monkeypatch.setattr(groupkit._StabilizerChain, "keys", refused)
    monkeypatch.setattr(groupkit.MatrixGroup, "elements", refused)
    assert harvest_transvections(build(name)) == want


def test_blocks_not_permuted_by_g_are_refused():
    g, v = case("induced")
    s = g.space
    forged = dataclasses.replace(v, blocks=(
        Subspace.from_vectors(s, [(1, 0, 0, 0), (0, 1, 0, 0)]),
        Subspace.from_vectors(s, [(0, 0, 1, 0), (0, 0, 0, 1)])))
    with pytest.raises(WitnessCheckFailed, match="off the orbit"):
        extract_induction(g, forged)


def test_extraction_enumerates_only_the_stabilizer():
    # |S_1| = 14,400 <= cap < |G| = 28,800: G is never enumerated
    gens = _gens("induced")
    g = group(gens[0].space, gens)
    _, v = case("induced")
    assert extract_induction(g, v, cap=20000).stabilizer == reference_extraction("induced")[0]
    assert g.cache is None


def test_blocks_that_are_not_one_orbit_are_refused():
    # without the swap the six transvections generate Sp2 x Sp2, which fixes
    # each block, so the blocks are two orbits
    g, v = case("induced")
    product = group(g.space, g.generators[:6])
    with pytest.raises(WitnessCheckFailed, match="off the orbit"):
        extract_induction(product, v)


@pytest.mark.parametrize("name", ["induced", "wreath-f7@1"])
def test_a_forged_action_is_refused(name):
    """Every generator's block permutation reversed: the blocks are still
    the orbit, but the action is not the generators' own."""
    g = case(name)[0] if name == "induced" else build(name)
    v = classify(g)
    forged = dataclasses.replace(v, action=tuple(p[::-1] for p in v.action))
    with pytest.raises(WitnessCheckFailed, match="action"):
        extract_induction(g, forged)


def test_blocks_that_do_not_span_are_refused():
    g, v = case("induced")
    forged = dataclasses.replace(v, blocks=(v.blocks[0], v.blocks[0]))
    with pytest.raises(WitnessCheckFailed, match="span"):
        extract_induction(g, forged)
    with pytest.raises(WitnessCheckFailed, match="tile"):
        extract_induction(g, dataclasses.replace(v, blocks=v.blocks[:1]))


@pytest.mark.parametrize("name", ["induced", "induced-conj-1"])
def test_extraction_views_read_like_the_reference_tuples(name):
    g, v = case(name)
    got = extract_induction(g, v)
    want, _, blocks = reference_extraction(name)
    stab, action = got.stabilizer, got.block_action.elements()
    # the same items in the same order, by iteration and by index
    assert len(stab) == len(want) and tuple(stab) == want
    for i in (0, 1, len(stab) // 2, len(stab) - 1):
        assert stab[i] == want[i]
    for i in (-1, -2, -len(stab)):
        assert stab[i] == want[i]
    with pytest.raises(IndexError):
        stab[len(stab)]
    with pytest.raises(IndexError):
        stab[-len(stab) - 1]
    # membership: every stabilizer element and block matrix is in, and an
    # element of G outside the stabilizer, or a matrix that acts on no block, is not
    members = set(want)
    outside = next(m for m in g.elements() if m not in members)
    assert all(m in stab for m in want[::97])
    assert outside not in stab and outside.rows not in stab
    assert all(a in action for a in blocks[::97])
    zero_block = tuple((0,) * v.block_dim for _ in range(v.block_dim))
    assert zero_block not in action and ((1, 2, 3),) not in action and "block" not in action


def test_views_refuse_a_slice():
    """Element sets index by integers only: a slice is refused by the index
    conversion, not by arithmetic on it inside the lookup."""
    g, v = case("induced")
    got = extract_induction(g, v)
    for view in (g.elements(), got.stabilizer, got.block_action.elements()):
        with pytest.raises(TypeError, match="'slice' object cannot be interpreted as an integer"):
            view[0:2]


def test_two_extractions_of_one_input_are_equal():
    g, v = case("induced")
    first, second = extract_induction(g, v), extract_induction(g, v)
    assert first == second
    assert first.stabilizer == second.stabilizer and first.block_action == second.block_action
    # equal to a view over another enumeration of the same group, item by item
    other = group(g.space, g.generators)
    assert extract_induction(other, v) == first
    # and not to a shorter sequence
    assert first.stabilizer != tuple(first.stabilizer)[1:]
    # views over the same table with other keys differ
    elems = g.elements()
    assert first.stabilizer != elems
    assert first.stabilizer != ElementSet(v.blocks[0].space, elems._table,
                                          elems._keys[:len(first.stabilizer)])
