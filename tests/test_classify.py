"""The trichotomy classifier and its witnesses."""

import importlib
import random

import pytest

from sympal.classify import (
    Huge,
    Induced,
    Reducible,
    classify,
    extract_induction,
    is_huge,
    recognize_sp_over_subfield,
    serialize_verdict,
)
from sympal import groupkit
from sympal.errors import CapExceeded, CharTooSmall, NoOrderMatch, NoTransvection
from sympal.ffield import FieldElement, field_make, mult_generator, subfield_embed
from sympal.groupkit import closure_enumerate, group, group_order
from sympal.symplectic import (
    SqMatrix,
    SympSpace,
    make_transvection,
    mat,
    random_similitude,
    scaling_similitude,
)
from test_stabilizer_chain import CRITERION_3, build

classify_mod = importlib.import_module("sympal.classify")   # sympal.classify is also a function
F5 = field_make(5, 1)
F25 = field_make(5, 2)


def reducible_group():
    s = SympSpace.standard(F5, 2)
    return group(s, [make_transvection(s, (1, 0), 1)])


def huge_f5():
    s = SympSpace.standard(F5, 2)
    return group(s, [make_transvection(s, (1, 0), 1),
                     make_transvection(s, (0, 1), 1)])


def huge_f25():
    s = SympSpace.standard(F25, 2)
    t = mult_generator(F25).index
    return group(s, [make_transvection(s, (1, 0), 1),
                     make_transvection(s, (0, 1), t)])


def induced_fixture():
    """Transvections inside two orthogonal hyperbolic planes plus the swap."""
    s = SympSpace.standard(F5, 4)
    gens = [make_transvection(s, v, 1) for v in
            [(1, 0, 0, 0), (0, 0, 1, 0), (1, 0, 1, 0),
             (0, 1, 0, 0), (0, 0, 0, 1), (0, 1, 0, 1)]]
    swap = mat(s, [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    return group(s, gens + [swap])


def embedded_sp2f5_in_f25():
    s5 = SympSpace.standard(F5, 2)
    s25 = SympSpace.standard(F25, 2)
    emb = subfield_embed(F5, F25)

    def lift(m):
        return SqMatrix(s25, tuple(
            tuple(emb(FieldElement(F5, x)).index for x in row) for row in m.rows))

    return group(s25, [lift(make_transvection(s5, (1, 0), 1)),
                       lift(make_transvection(s5, (0, 1), 1))])


def test_reducible_case():
    v = classify(reducible_group())
    assert isinstance(v, Reducible)
    assert v.witness.basis == ((1, 0),)


def test_huge_case_f5():
    v = classify(huge_f5())
    assert isinstance(v, Huge)
    assert v.subfield_degree == 1
    assert v.transvection_subgroup_order == 120


def test_huge_case_f25():
    v = classify(huge_f25())
    assert isinstance(v, Huge)
    assert v.subfield_degree == 2
    assert v.transvection_subgroup_order == 15600


@pytest.mark.parametrize("build", [huge_f5, huge_f25])
def test_huge_verdict_runs_one_irreducibility_test_per_group(build, monkeypatch):
    calls = []
    real = classify_mod.is_irreducible

    def counted(g, *args, **kwargs):
        calls.append(g)
        return real(g, *args, **kwargs)

    monkeypatch.setattr(classify_mod, "is_irreducible", counted)
    assert isinstance(classify(build()), Huge)
    assert len(calls) == 2   # G, then its transvection subgroup H


def test_induced_case():
    v = classify(induced_fixture())
    assert isinstance(v, Induced)
    assert v.block_dim == 2 and v.block_count == 2
    # the swap generator must act as the nontrivial block permutation
    assert v.action[-1] == (1, 0)
    assert all(p == (0, 1) for p in v.action[:-1])


# ---------------------------------------------------------------------------
# routing: G is enumerated only to fix the induced block order
# ---------------------------------------------------------------------------

def _counted(monkeypatch, owner, name):
    calls = []
    inner = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: calls.append(args) or inner(*args))
    return calls


def _refuse(monkeypatch, owner, name):
    def refused(*args):
        raise AssertionError(f"{name} was called")

    monkeypatch.setattr(owner, name, refused)


@pytest.mark.parametrize("name", [c for c in CRITERION_3 if not c.startswith("induced")])
def test_reducible_and_huge_verdicts_enumerate_nothing(name, monkeypatch):
    """A generator is a transvection, so neither branch harvests or builds
    an element."""
    _refuse(monkeypatch, classify_mod, "harvest_transvections")
    _refuse(monkeypatch, groupkit._StabilizerChain, "keys")
    assert classify(build(name)).case == ("huge" if name.startswith("huge") else "reducible")


@pytest.mark.parametrize("name", [c for c in CRITERION_3 if c.startswith("induced")]
                         + ["wreath-f7", "wreath-f25@1"])
def test_induced_verdict_harvests_once(name, monkeypatch):
    harvests = _counted(monkeypatch, classify_mod, "harvest_transvections")
    keys = _counted(monkeypatch, groupkit._StabilizerChain, "keys")
    assert isinstance(classify(build(name)), Induced)
    assert len(harvests) == len(keys) == 1


@pytest.mark.parametrize("order", ["t1·t2", "t2·t1"])
def test_huge_without_a_transvection_generator_harvests(order, monkeypatch):
    """Sp2(F5) on the products of its two standard transvections: neither
    generator is a transvection, so T comes from the harvest."""
    s = SympSpace.standard(F5, 2)
    t1, t2 = make_transvection(s, (1, 0), 1), make_transvection(s, (0, 1), 1)
    gens = [t1 * t2, t2 * t1] if order == "t1·t2" else [t2 * t1, t1 * t2]
    harvests = _counted(monkeypatch, classify_mod, "harvest_transvections")
    v = classify(group(s, gens))
    assert isinstance(v, Huge)
    assert (v.subfield_degree, v.transvection_subgroup_order) == (1, 120)
    assert len(harvests) == 1


def test_classify_refuses_past_the_cap_from_the_order(monkeypatch):
    """The same refusal as closure_enumerate's, from the chain, with no
    element built."""
    _refuse(monkeypatch, groupkit._StabilizerChain, "keys")
    for run in (classify, closure_enumerate):
        with pytest.raises(CapExceeded) as exc:
            run(huge_f5(), 100)
        assert exc.value.count == 120
        assert str(exc.value) == "the group order 120 is past the enumeration cap 100"


def test_char_too_small():
    f3 = field_make(3, 1)
    s = SympSpace.standard(f3, 2)
    g = group(s, [make_transvection(s, (1, 0), 1)])
    with pytest.raises(CharTooSmall):
        classify(g)


def test_no_transvection():
    s = SympSpace.standard(F5, 2)
    g = group(s, [scaling_similitude(s, 2)])
    with pytest.raises(NoTransvection):
        classify(g)


def test_subfield_recognition_embedded():
    g = embedded_sp2f5_in_f25()
    assert recognize_sp_over_subfield(g) == 1


def test_subfield_recognition_rejects_reducible():
    with pytest.raises(NoOrderMatch):
        recognize_sp_over_subfield(reducible_group())


def test_is_huge_on_all_three_cases():
    assert is_huge(huge_f5())
    assert not is_huge(induced_fixture())
    assert not is_huge(reducible_group())


def test_conjugation_invariance():
    rng = random.Random(42)
    for build, case, extra in [(reducible_group, Reducible, None),
                               (huge_f25, Huge, 2),
                               (induced_fixture, Induced, None)]:
        g = build()
        a = random_similitude(g.space, rng)
        ai = a.inv()
        gc = group(g.space, [a * m * ai for m in g.generators])
        v = classify(gc)
        assert isinstance(v, case)
        if extra is not None:
            assert v.subfield_degree == extra


def test_reducible_witness_transports():
    rng = random.Random(7)
    g = reducible_group()
    a = random_similitude(g.space, rng)
    gc = group(g.space, [a * m * a.inv() for m in g.generators])
    v = classify(gc)
    base = classify(g).witness
    assert v.witness == base.transform(a)


def test_extract_induction():
    g = induced_fixture()
    v = classify(g)
    ex = extract_induction(g, v)
    assert ex.index == 2
    assert len(ex.stabilizer) * 2 == group_order(g)
    # the stabilizer's block action is the full Sp_2(F_5) on S_1
    assert len(set(ex.block_action)) == 120


def test_induced_character_vanishes_off_stabilizer():
    g = induced_fixture()
    v = classify(g)
    stab_rows = {m.rows for m in extract_induction(g, v).stabilizer}
    ctx = g.space.field.ctx
    for m in g.elements():
        if m.rows not in stab_rows:
            # the induced character vanishes on an element that fixes no
            # block, so such an element has trace 0
            moved = all(b.transform(m) != b for b in v.blocks)
            if moved:
                assert m.trace() == 0


def test_serialize_verdict_tags():
    assert serialize_verdict(classify(reducible_group()))["case"] == "reducible"
    assert serialize_verdict(classify(huge_f5()))["case"] == "huge"
    doc = serialize_verdict(classify(induced_fixture()))
    assert doc["case"] == "induced" and doc["block_count"] == 2
