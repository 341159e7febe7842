"""The trichotomy classifier and its witnesses."""

import importlib
import random
import time

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
from sympal.errors import (
    CapExceeded,
    CharTooSmall,
    InvalidParams,
    NoOrderMatch,
    NoTransvection,
    WitnessCheckFailed,
)
from sympal.ffield import FieldElement, field_make, mult_generator, subfield_embed
from sympal.groupkit import DEFAULT_CAP, closure_enumerate, group, group_order, sp_order
from sympal.symplectic import (
    SqMatrix,
    SympSpace,
    TransvectionKind,
    TransvectionVerdict,
    make_transvection,
    mat,
    random_similitude,
    scaling_similitude,
)
from test_stabilizer_chain import (
    CRITERION_3,
    WREATH,
    _sp4_f11,
    _wreath_f101,
    build,
    seeded_transvections,
)

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
# routing: G is harvested only when no generator is a transvection
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


@pytest.mark.parametrize("name", CRITERION_3 + WREATH)
def test_verdicts_on_a_transvection_generator_enumerate_nothing(name, monkeypatch):
    """A generator is a transvection, so no branch harvests or builds an
    element: the induced blocks come from that generator's direction."""
    _refuse(monkeypatch, classify_mod, "transvection_keys")
    _refuse(monkeypatch, groupkit._StabilizerChain, "keys")
    case = "reducible" if name.startswith("reducible") else (
        "huge" if name.startswith("huge") else "induced")
    assert classify(build(name)).case == case


def products_group(order):
    """Sp2(F5) on the products of its two standard transvections, in
    either order: neither generator is a transvection."""
    s = SympSpace.standard(F5, 2)
    t1, t2 = make_transvection(s, (1, 0), 1), make_transvection(s, (0, 1), 1)
    return group(s, [t1 * t2, t2 * t1] if order == "t1·t2" else [t2 * t1, t1 * t2])


@pytest.mark.parametrize("order", ["t1·t2", "t2·t1"])
def test_huge_without_a_transvection_generator_harvests(order, monkeypatch):
    """T comes from the harvest."""
    harvests = _counted(monkeypatch, classify_mod, "transvection_keys")
    v = classify(products_group(order))
    assert isinstance(v, Huge)
    assert (v.subfield_degree, v.transvection_subgroup_order) == (1, 120)
    assert len(harvests) == 1


def test_classify_refuses_a_harvested_member_that_is_not_a_transvection(monkeypatch):
    """The one member classify decodes is still decided by
    detect_transvection, and a verdict other than nontrivial is a failed
    check."""
    monkeypatch.setattr(groupkit, "detect_transvection",
                        lambda m: TransvectionVerdict(TransvectionKind.NOT_TRANSVECTION))
    with pytest.raises(WitnessCheckFailed, match="not a nontrivial transvection"):
        classify(products_group("t1·t2"))


@pytest.mark.parametrize("order", ["t1·t2", "t2·t1"])
def test_classify_refuses_past_the_cap_from_the_order(order, monkeypatch):
    """Enumeration past the cap gets the chain's order, with no element
    built, while classify harvests with no element built and decides."""
    _refuse(monkeypatch, groupkit._StabilizerChain, "keys")
    with pytest.raises(CapExceeded) as exc:
        closure_enumerate(products_group(order), 100)
    assert exc.value.count == 120
    assert str(exc.value) == "the group order 120 is past the enumeration cap 100"
    v = classify(products_group(order), 100)
    assert (v.case, v.subfield_degree, v.transvection_subgroup_order) == ("huge", 1, 120)


@pytest.mark.parametrize("cap", [0, -3])
@pytest.mark.parametrize("name", ["reducible@1", "induced", "huge-f5", "products"])
def test_classify_refuses_a_cap_below_1(name, cap):
    """On every path, whether or not it builds a chain."""
    g = products_group("t1·t2") if name == "products" else build(name)
    with pytest.raises(InvalidParams, match=f"^cap must be at least 1, not {cap}$"):
        classify(g, cap)


# ---------------------------------------------------------------------------
# past the cap: no path builds an element
# ---------------------------------------------------------------------------

def sp6_f5():
    return group(SympSpace.standard(F5, 6), seeded_transvections(5, 6, 8, 1))


def sp4_f7_in_f49():
    """Sp4(F7) on 6 seeded transvections, written over F49."""
    f7, f49 = field_make(7, 1), field_make(7, 2)
    s = SympSpace.standard(f49, 4)
    emb = subfield_embed(f7, f49)
    return group(s, [SqMatrix(s, tuple(tuple(emb(FieldElement(f7, x)).index for x in row)
                                       for row in m.rows))
                     for m in seeded_transvections(7, 4, 6, 1)])


@pytest.mark.parametrize("build_g, want", [
    # the swap, the last generator, exchanges the two blocks
    (_wreath_f101, ("induced", 2, 2, ((0, 1),) * 6 + ((1, 0),))),
    (_sp4_f11, ("huge", 1, sp_order(4, 11))),
    (sp6_f5, ("huge", 1, sp_order(6, 5))),
    (sp4_f7_in_f49, ("huge", 1, sp_order(4, 7))),
], ids=["wreath-f101", "sp4-f11", "sp6-f5", "sp4-f7-in-f49"])
def test_classify_past_the_cap(build_g, want, monkeypatch):
    """Each group is far past the default cap, and a generator is a
    transvection, so the verdict needs no element."""
    _refuse(monkeypatch, classify_mod, "transvection_keys")
    _refuse(monkeypatch, groupkit._StabilizerChain, "keys")
    g = build_g()
    start = time.perf_counter()
    v = classify(g)
    assert time.perf_counter() - start < 5
    assert g.order() > DEFAULT_CAP
    assert want == ((v.case, v.block_count, v.block_dim, v.action) if isinstance(v, Induced)
                    else (v.case, v.subfield_degree, v.transvection_subgroup_order))


def seeded_products_group(ell, n, count):
    """The products T_i·T_(i+1) of seeded transvections: no generator is
    a transvection."""
    ts = seeded_transvections(ell, n, count, 1)
    return group(ts[0].space, [a * b for a, b in zip(ts, ts[1:])])


@pytest.mark.parametrize("ell, n, count", [(11, 4, 6), (5, 6, 8), (13, 4, 6)],
                         ids=["sp4-f11", "sp6-f5", "sp4-f13"])
def test_classify_harvests_past_the_cap(ell, n, count, monkeypatch):
    """Sp_n(F_ell) on products: the harvest finds all ell^n - 1 of its
    transvections with no element built, and classify decodes and checks
    only the first, with one detect_transvection call."""
    harvests = []
    inner = classify_mod.transvection_keys
    monkeypatch.setattr(classify_mod, "transvection_keys",
                        lambda *args: harvests.append(inner(*args)) or harvests[-1])
    detected = _counted(monkeypatch, groupkit, "detect_transvection")
    _refuse(monkeypatch, groupkit._StabilizerChain, "keys")
    _refuse(monkeypatch, groupkit.MatrixGroup, "elements")
    g = seeded_products_group(ell, n, count)
    v = classify(g)
    assert g.order() == sp_order(n, ell) > DEFAULT_CAP
    assert [len(h) for h in harvests] == [ell ** n - 1]
    assert len(detected) == 1
    assert (v.case, v.subfield_degree, v.transvection_subgroup_order) == (
        "huge", 1, sp_order(n, ell))


def split_torus():
    """<diag(2, 1, 1/2, 1), diag(1, 2, 1, 1/2)> in Sp4(F101): 10,000
    elements on 400 rows, and no transvection."""
    s = SympSpace.standard(field_make(101, 1), 4)
    h = pow(2, -1, 101)
    return group(s, [mat(s, [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, h, 0], [0, 0, 0, 1]]),
                     mat(s, [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, h]])])


def test_no_transvection_is_exact_past_the_cap(monkeypatch):
    _refuse(monkeypatch, groupkit._StabilizerChain, "keys")
    _refuse(monkeypatch, groupkit.MatrixGroup, "elements")
    g = split_torus()
    with pytest.raises(NoTransvection, match="^no nontrivial transvection in the group$"):
        classify(g, 100)
    assert (g.order(), len(g.chain().table.row_keys)) == (10_000, 400)


@pytest.mark.parametrize("name", CRITERION_3 + WREATH)
def test_verdict_does_not_depend_on_the_cap(name):
    """At the smallest cap the row search fits, which is below |G|, the
    verdict is the default cap's."""
    g = build(name)
    cap = -(-len(g.chain().table.row_keys) // g.space.n)
    assert cap < g.order()
    assert classify(build(name), cap) == classify(g)


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
