"""The stabilizer-chain closure against the element breadth-first search.

`reference_keys` is the earlier closure kernel, a breadth-first search over
element keys, kept here as the oracle: the chain's transversal products
must give the same sorted key array, and the same CapExceeded verdict at
the edge of the cap.
"""

import random
import time

import numpy as np
import pytest

from sympal import groupkit
from sympal.classify import Huge, classify
from sympal.errors import CapExceeded, WitnessCheckFailed
from sympal.ffield import FieldElement, field_make, mult_generator, subfield_embed
from sympal.groupkit import DEFAULT_CAP, closure_enumerate, group, sp_order
from sympal.npgroup import build_chi, build_np_group, np_params
from sympal.symplectic import SympSpace, SqMatrix, make_transvection, mat, random_similitude

F5 = field_make(5, 1)
F25 = field_make(5, 2)


def reference_keys(table, cap):
    """Sorted keys of the closure, one breadth-first level at a time."""
    steps = [lambda keys, image=image: table.times(table.pack.decode(keys), image)
             for image in table.images]
    return groupkit._reach(table.identity, steps, cap)


def table_of(g, cap=DEFAULT_CAP):
    return groupkit._RowTable(g.space, [m.rows for m in g.generators], cap)


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------

def _induced_gens(s):
    gens = [make_transvection(s, v, 1) for v in
            [(1, 0, 0, 0), (0, 0, 1, 0), (1, 0, 1, 0),
             (0, 1, 0, 0), (0, 0, 0, 1), (0, 1, 0, 1)]]
    swap = mat(s, [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    return gens + [swap]


def _criterion_3(name):
    s2, s4, s25 = (SympSpace.standard(F5, 2), SympSpace.standard(F5, 4),
                   SympSpace.standard(F25, 2))
    t = mult_generator(F25).index
    return {
        "reducible": [make_transvection(s2, (1, 0), 1)],
        "induced": _induced_gens(s4),
        "huge-f5": [make_transvection(s2, (1, 0), 1), make_transvection(s2, (0, 1), 1)],
        "huge-f25": [make_transvection(s25, (1, 0), 1), make_transvection(s25, (0, 1), t)],
    }[name]


def _conjugate(gens, seed):
    a = random_similitude(gens[0].space, random.Random(seed))
    ai = a.inv()
    return [a * m * ai for m in gens]


def build(name):
    if name.startswith("np-"):
        g, _ = build_np_group(build_chi(np_params(*map(int, name[3:].split(",")))))
        return g
    if name == "wreath-f25":
        # Sp2(F5) wr C2 written over F25
        s = SympSpace.standard(F25, 4)
        emb = subfield_embed(F5, F25)
        gens = [SqMatrix(s, tuple(tuple(emb(FieldElement(F5, x)).index for x in row)
                                  for row in m.rows))
                for m in _induced_gens(SympSpace.standard(F5, 4))]
        return group(s, gens)
    if name == "one-transvection":
        s = SympSpace.standard(F5, 4)
        return group(s, [make_transvection(s, (0, 0, 0, 1), 2)])
    base, _, seed = name.partition("@")
    gens = _criterion_3(base)
    return group(gens[0].space, _conjugate(gens, int(seed)) if seed else gens)


CASES = ([f"{n}{c}" for n in ("reducible", "induced", "huge-f5", "huge-f25")
          for c in ("", "@1", "@2", "@3")]
         + ["huge-f25", "wreath-f25", "np-4,7,5,11", "np-8,19,17,103", "one-transvection"])


# ---------------------------------------------------------------------------
# same keys, same verdicts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", CASES)
def test_chain_keys_equal_the_search(name):
    table = table_of(build(name))
    want = reference_keys(table, DEFAULT_CAP)
    got = groupkit._closure_keys(table, DEFAULT_CAP)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert table.chain.order == len(want)


def test_chain_keys_equal_the_search_on_the_irreducibility_corpus():
    from test_irreducibility import CORPUS

    cap = 2 * 10**6
    refused = 0
    for name, g in CORPUS:
        verdicts = []
        for closure in (reference_keys, groupkit._closure_keys):
            try:
                verdicts.append(closure(table_of(g, cap), cap))
            except CapExceeded:
                verdicts.append(None)
        want, got = verdicts
        if want is None:
            refused += 1
            assert got is None, name
        else:
            assert np.array_equal(got, want), name
    assert len(CORPUS) - refused >= 200


@pytest.mark.parametrize("name", ["reducible@1", "induced@2", "huge-f25@3", "np-8,19,17,103",
                                  "one-transvection"])
def test_same_cap_verdict_as_the_search(name):
    g = build(name)
    order = len(reference_keys(table_of(g), DEFAULT_CAP))
    for cap in (order, order - 1):
        verdicts = []
        for closure in (reference_keys, groupkit._closure_keys):
            try:
                verdicts.append(len(closure(table_of(g, cap), cap)))
            except CapExceeded as exc:
                assert exc.count > cap
                verdicts.append("refused")
        assert verdicts[0] == verdicts[1] == (order if cap == order else "refused")


def test_chain_order_of_the_trivial_group():
    s = SympSpace.standard(F5, 2)
    g = group(s, [mat(s, [[1, 0], [0, 1]])])
    assert g.order() == 1
    assert len(g.elements()) == 1


def test_order_builds_no_element(monkeypatch):
    def no_elements(self):
        raise AssertionError("elements were built")

    monkeypatch.setattr(groupkit._StabilizerChain, "keys", no_elements)
    g = build("huge-f25@1")
    assert g.order() == sp_order(2, 25)
    assert g.cache is None


def test_huge_verdict_enumerates_only_g(monkeypatch):
    calls = []
    inner = groupkit._closure_keys
    monkeypatch.setattr(groupkit, "_closure_keys",
                        lambda table, cap: calls.append(cap) or inner(table, cap))
    verdict = classify(build("huge-f25@2"))
    assert isinstance(verdict, Huge)
    assert verdict.transvection_subgroup_order == sp_order(2, 25)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# orders past the cap
# ---------------------------------------------------------------------------

def sp4(ell):
    s = SympSpace.standard(field_make(ell, 1), 4)
    return group(s, [make_transvection(s, v, 1) for v in
                     [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                      (0, 0, 0, 1), (1, 1, 0, 0)]])


@pytest.mark.parametrize("ell, seconds", [(7, 3), (11, 20)])
def test_sp4_order_past_the_cap(ell, seconds):
    start = time.perf_counter()
    assert sp4(ell).order() == sp_order(4, ell)
    assert time.perf_counter() - start < seconds


def test_sp4_f17_refused_on_order(monkeypatch):
    def no_elements(self):
        raise AssertionError("elements were built")

    monkeypatch.setattr(groupkit._StabilizerChain, "keys", no_elements)
    start = time.perf_counter()
    with pytest.raises(CapExceeded) as exc:
        closure_enumerate(sp4(17), DEFAULT_CAP)
    assert time.perf_counter() - start < 2
    assert exc.value.count == sp_order(4, 17)


# ---------------------------------------------------------------------------
# the enumeration checks the chain
# ---------------------------------------------------------------------------

def test_forged_orbit_is_refused():
    table = table_of(build("huge-f5@1"))
    lev = table.chain.levels[0]
    # the last orbit point gets the tree edge of another non-root point,
    # so two cosets share a transversal element
    j, k = 1, len(lev.orbit) - 1
    lev.parent[k], lev.label[k], lev.depth[k] = lev.parent[j], lev.label[j], lev.depth[j]
    with pytest.raises(WitnessCheckFailed):
        groupkit._closure_keys(table, DEFAULT_CAP)
