"""Closure enumeration, harvesting, spinning, irreducibility, fixtures."""

import json
import os
import random
import time

import numpy as np
import pytest

from sympal import groupkit, linalg
from sympal.errors import CapExceeded, InvalidParams, WitnessCheckFailed
from sympal.ffield import field_make, mult_generator
from sympal.npgroup import build_chi, build_np_group, np_params
from sympal.groupkit import (
    ElementSet,
    MatrixGroup,
    closure_enumerate,
    from_fixture,
    group,
    group_order,
    harvest_transvections,
    is_irreducible,
    normal_closure,
    sp_order,
    spin,
    to_fixture,
)
from sympal.symplectic import (
    SqMatrix,
    SympSpace,
    detect_transvection,
    make_transvection,
    mat,
    scaling_similitude,
    TransvectionKind,
    TransvectionVerdict,
)

F5 = field_make(5, 1)
F7 = field_make(7, 1)
F25 = field_make(5, 2)


def sp2_f5():
    s = SympSpace.standard(F5, 2)
    return s, group(s, [make_transvection(s, (1, 0), 1),
                        make_transvection(s, (0, 1), 1)])


def sp2_f25():
    s = SympSpace.standard(F25, 2)
    t = mult_generator(F25).index
    # one parameter must generate the extension field, else the closure
    # stalls at the subfield group Sp_2(F_5)
    return s, group(s, [make_transvection(s, (1, 0), 1),
                        make_transvection(s, (0, 1), t)])


def test_sp_order_formula():
    assert sp_order(2, 5) == 120
    assert sp_order(2, 7) == 336
    assert sp_order(2, 25) == 15600
    assert sp_order(4, 5) == 9_360_000


def test_sp2_f5_order():
    _, g = sp2_f5()
    assert group_order(g) == 120


def test_sp2_f7_order():
    s = SympSpace.standard(F7, 2)
    g = group(s, [make_transvection(s, (1, 0), 1),
                  make_transvection(s, (0, 1), 1)])
    assert group_order(g) == 336


def test_sp2_f25_order():
    _, g = sp2_f25()
    assert group_order(g) == 15600


def test_subfield_parameters_stall_at_subfield_group():
    # both parameters in F_5 only generate Sp_2(F_5) inside Sp_2(F_25)
    s = SympSpace.standard(F25, 2)
    g = group(s, [make_transvection(s, (1, 0), 1),
                  make_transvection(s, (0, 1), 1)])
    assert group_order(g) == 120


def test_cap_exceeded():
    _, g = sp2_f5()
    with pytest.raises(CapExceeded) as exc:
        closure_enumerate(g, 50)
    assert exc.value.count > 50


def test_element_set_contains_and_order():
    s, g = sp2_f5()
    elems = g.elements()
    assert len(elems) == 120
    assert make_transvection(s, (1, 1), 3) in elems
    assert mat(s, [[2, 0], [0, 2]]) not in elems  # multiplier 4 scaling


@pytest.mark.parametrize("probe", [
    ((8, 0), (4, 0)),              # 8 is no F5 index; it packs like row (0, 1)
    ((0, 1, 0), (4, 0, 0)),        # 2 x 3: the extra slot was dropped
    ((0, 1), (4, 0), (1, 1)),      # 3 x 2
    ((-1, 0), (0, 1)),             # raised OverflowError
    ((1, 0), (0,)),                # ragged: raised ValueError
    "x",                           # raised ValueError
    ((0.5, 1), (4, 0)),            # truncated to the member ((0, 1), (4, 0))
], ids=["index-past-q", "2x3", "3x2", "negative", "ragged", "string", "float"])
def test_element_set_refuses_malformed_probes(probe):
    _, g = sp2_f5()
    assert ((0, 1), (4, 0)) in g.elements()
    assert (probe in g.elements()) is False


def test_empty_element_view_contains_nothing():
    s, g = sp2_f5()
    elems = g.elements()
    empty = ElementSet(s, elems._table, elems._keys[:0])
    assert len(empty) == 0 and tuple(empty) == ()
    assert (make_transvection(s, (1, 0), 1) in empty) is False
    assert (((0, 1), (4, 0)) in empty) is False


def test_enumeration_is_deterministic():
    s, _ = sp2_f5()
    g1 = group(s, [make_transvection(s, (1, 0), 1),
                   make_transvection(s, (0, 1), 1)])
    g2 = group(s, [make_transvection(s, (1, 0), 1),
                   make_transvection(s, (0, 1), 1)])
    assert [m.rows for m in g1.elements()] == [m.rows for m in g2.elements()]


def test_harvest_counts_powers_of_one_transvection():
    s = SympSpace.standard(F5, 2)
    g = group(s, [make_transvection(s, (1, 0), 1)])
    got = harvest_transvections(g)
    assert len(got) == 4  # the four lambda != 0 powers


def test_harvest_matches_exhaustive_detection():
    _, g = sp2_f5()
    harvested = {m.rows for m, _ in harvest_transvections(g)}
    brute = {m.rows for m in g.elements()
             if detect_transvection(m).kind is TransvectionKind.NONTRIVIAL}
    assert harvested == brute


def test_harvest_empty_for_scaling_group():
    s = SympSpace.standard(F5, 2)
    g = group(s, [scaling_similitude(s, 2)])
    assert harvest_transvections(g) == []


def test_harvest_on_a_non_standard_gram():
    """Candidates are read through J^-T, which a standard Gram matrix
    hides: there J^-T = J, so a harvest that used J itself would pass on
    every standard fixture."""
    x = ((1, 2, 0, 0), (0, 1, 3, 0), (0, 0, 1, 4), (1, 0, 0, 1))
    j = SympSpace.standard(F5, 4).gram
    s = SympSpace(F5, 4, linalg.mat_mul(F5, linalg.mat_mul(F5, linalg.transpose(x), j), x))
    g = group(s, [make_transvection(s, v, 1)
                  for v in [(1, 0, 0, 0), (0, 1, 1, 0), (0, 0, 1, 3)]])
    want = [(m, detect_transvection(m).data) for m in g.elements()
            if detect_transvection(m).kind is TransvectionKind.NONTRIVIAL]
    assert len(want) == 124 and harvest_transvections(g) == want


def test_harvest_refuses_a_member_that_is_not_a_transvection(monkeypatch):
    """detect_transvection decides every sifted member, and a verdict
    other than nontrivial is a failed check, not a skipped candidate."""
    monkeypatch.setattr(groupkit, "detect_transvection",
                        lambda m: TransvectionVerdict(TransvectionKind.NOT_TRANSVECTION))
    with pytest.raises(WitnessCheckFailed, match="not a nontrivial transvection"):
        harvest_transvections(sp2_f5()[1])


def test_harvest_conjugation_stable():
    _, g = sp2_f5()
    harvested = {m.rows for m, _ in harvest_transvections(g)}
    for a in g.generators:
        ai = a.inv()
        for m, _ in harvest_transvections(g):
            assert (a * m * ai).rows in harvested


def test_normal_closure_of_one_transvection_is_whole_sp():
    s, g = sp2_f5()
    k = normal_closure(g, [make_transvection(s, (1, 0), 1)])
    assert group_order(k) == 120


def test_spin_reducible_line():
    s = SympSpace.standard(F5, 2)
    t = make_transvection(s, (1, 0), 1)
    w = spin(s, [t], (1, 0))
    assert w.dim == 1
    w2 = spin(s, [t], (0, 1))
    assert w2.dim == 2


def test_is_irreducible_exhaustive_agreement():
    s, g = sp2_f5()
    assert is_irreducible(g)
    gr = group(s, [make_transvection(s, (1, 0), 1)])
    res = is_irreducible(gr)
    assert not res.irreducible
    assert res.witness.dim == 1
    for m in gr.generators:
        from sympal.symplectic import stabilizes

        assert stabilizes(m, res.witness)


def test_fixture_round_trip():
    _, g = sp2_f25()
    doc = json.loads(json.dumps(to_fixture(g)))
    g2 = from_fixture(doc)
    assert g2.space == g.space
    assert [m.rows for m in g2.generators] == [m.rows for m in g.generators]


def test_fixture_rejects_wrong_modulus():
    _, g = sp2_f25()
    doc = to_fixture(g)
    doc["field"]["modulus"] = [2, 1, 1]
    with pytest.raises(ValueError):
        from_fixture(doc)


def test_cache_dir_round_trip(tmp_path, monkeypatch):
    monkeypatch.setenv("SYMPAL_CACHE_DIR", str(tmp_path))
    s = SympSpace.standard(F5, 2)
    gens = [make_transvection(s, (1, 0), 1), make_transvection(s, (0, 1), 1)]
    g1 = group(s, gens)
    assert group_order(g1) == 120
    cached = list(tmp_path.glob("closure-*.npy"))
    assert len(cached) == 1
    g2 = group(s, gens)
    assert group_order(g2) == 120


def test_failed_cache_write_leaves_no_file(tmp_path, monkeypatch):
    monkeypatch.setenv("SYMPAL_CACHE_DIR", str(tmp_path))

    def refuse(src, dst):
        raise PermissionError(dst)

    monkeypatch.setattr(os, "replace", refuse)
    _, g = sp2_f5()
    assert group_order(g) == 120
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("damage", ["truncated", "unsorted", "float", "garbage"])
def test_damaged_cache_file_is_recomputed(tmp_path, monkeypatch, damage):
    monkeypatch.setenv("SYMPAL_CACHE_DIR", str(tmp_path))
    _, g = sp2_f5()
    assert group_order(g) == 120
    (path,) = tmp_path.glob("closure-*.npy")
    keys = np.load(path)
    if damage == "truncated":
        np.save(path, keys[:60])
    elif damage == "unsorted":
        np.save(path, keys[::-1])
    elif damage == "float":
        np.save(path, keys.astype(np.float64))
    else:
        path.write_bytes(b"\x93NUMPY not an array")
    _, g2 = sp2_f5()
    assert group_order(g2) == 120
    assert list(tmp_path.glob("closure-*.npy")) == [path]
    assert np.array_equal(np.load(path), keys)


def test_large_extension_field_closes_without_dense_tables():
    s = SympSpace.standard(field_make(5, 5), 2)   # q = 3125
    g = group(s, [make_transvection(s, (1, 0), 1)])
    assert group_order(g) == 5
    assert len(harvest_transvections(g)) == 4


def np_group_4_7_5_11():
    g, _ = build_np_group(build_chi(np_params(4, 7, 5, 11)))
    return g.space, g


def np_group_8_19_17_103():
    g, _ = build_np_group(build_chi(np_params(8, 19, 17, 103)))
    return g.space, g


@pytest.mark.parametrize("build", [sp2_f5, sp2_f25, np_group_4_7_5_11,
                                   np_group_8_19_17_103])
def test_elements_listed_in_reversed_entry_order(build):
    _, g = build()
    rows = [m.rows for m in g.elements()]
    flat = [tuple(x for row in m for x in row)[::-1] for m in rows]
    assert len(set(flat)) == len(flat) == group_order(g)
    assert flat == sorted(flat)


@pytest.mark.parametrize("build", [sp2_f5, sp2_f25, np_group_4_7_5_11])
def test_row_images_match_mat_vec(build):
    s, g = build()
    gens = [m.rows for m in g.generators]
    table = groupkit._RowTable(s, gens, 10**6)
    rows = [tuple(r) for r in table.entries.tolist()]
    assert rows == sorted(rows, key=lambda r: r[::-1])
    for gen in gens:
        image = table.image_of(gen)
        cols = linalg.transpose(gen)   # row·g = g^T row
        assert [rows[i] for i in image] == [linalg.mat_vec(s.field, cols, r) for r in rows]


def test_small_group_with_multiword_keys():
    # 2np = 272 elements; 272 rows need 9 bits each, 72 bits per element
    _, g = np_group_8_19_17_103()
    elems = g.elements()
    assert len(elems) == 272
    assert elems._keys.dtype == np.dtype("V16")
    assert all(m in elems for m in elems)
    ident = [tuple(int(i == j) for j in range(8)) for i in range(8)]
    assert tuple(ident) in elems
    assert tuple([ident[1], ident[0]] + ident[2:]) not in elems   # a transposition


@pytest.mark.parametrize("slots, bits, dtype", [
    # slots·bits = 32 is the widest uint32 key, 33 the narrowest uint64
    # key, and past 64 the key is a void of uint64 words
    (4, 8, "uint32"), (2, 16, "uint32"), (1, 32, "uint32"), (2, 14, "uint32"),
    (3, 11, "uint64"), (11, 3, "uint64"), (1, 33, "uint64"), (4, 9, "uint64"),
    (3, 20, "uint64"),
    (5, 13, "V16"), (9, 9, "V16"), (8, 9, "V16"), (13, 16, "V32"), (5, 64, "V40"),
])
def test_packing_orders_by_last_slot_first(slots, bits, dtype):
    pack = groupkit._Packing(slots, bits)
    assert pack.dtype == np.dtype(dtype)
    rng = random.Random(slots * 100 + bits)
    top = (1 << bits) - 1
    vals = [tuple(rng.getrandbits(bits) for _ in range(slots)) for _ in range(300)]
    vals += [(0,) * slots, (top,) * slots, (top,) + (0,) * (slots - 1),
             (0,) * (slots - 1) + (top,)]
    keys = pack.from_slots(vals)
    assert keys.dtype == pack.dtype
    assert [tuple(int(c[i]) for c in pack.decode(keys)) for i in range(len(vals))] == vals
    assert np.array_equal(pack.encode(pack.decode(keys)), keys)
    order = np.argsort(keys, kind="stable")
    assert [vals[i][::-1] for i in order] == sorted(v[::-1] for v in vals)
    if pack.words == 1:   # the bit layout does not depend on the word
        assert [int(k) for k in keys] == [
            sum(x << (i * bits) for i, x in enumerate(v)) for v in vals]


def test_generator_entries_outside_the_field_are_refused():
    s = SympSpace.standard(field_make(101, 1), 2)
    g = group(s, [make_transvection(s, (1, 0), 1), make_transvection(s, (0, 1), 1)])
    # 129 needs 8 bits of a 7-bit row slot: packed, it carries into the
    # next slot and the row (129, 0) reads as (1, 1)
    with pytest.raises(ValueError, match=r"outside \[0, 101\)"):
        g.subgroup([SqMatrix(s, ((129, 0), (0, 1)))])
    for bad in (((129, 0), (0, 1)), ((1, 101), (0, 1)), ((1, -1), (0, 1))):
        with pytest.raises(ValueError, match=r"outside \[0, 101\)"):
            group(s, [SqMatrix(s, bad)])
    assert g.order() == sp_order(2, 101)


def test_sp4_f17_element_search_with_two_word_keys_hits_cap():
    s = SympSpace.standard(field_make(17, 1), 4)
    g = group(s, [make_transvection(s, v, 1) for v in
                  [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                   (0, 0, 0, 1), (1, 1, 0, 0)]])
    # 83,520 rows, under 4 * cap, so the refusal comes from the chain's order
    with pytest.raises(CapExceeded) as exc:
        closure_enumerate(g, 10**5)
    assert exc.value.count > 10**5


def test_large_field_refusal_is_quick():
    s = SympSpace.standard(field_make(499, 1), 2)
    g = group(s, [make_transvection(s, (1, 0), 1), make_transvection(s, (0, 1), 1)])
    start = time.perf_counter()
    with pytest.raises(CapExceeded):
        closure_enumerate(g, 10**6)   # 249,000 rows, then an order past the cap
    assert time.perf_counter() - start < 20


def test_cache_superset_with_extra_cosets_is_recomputed(tmp_path, monkeypatch):
    monkeypatch.setenv("SYMPAL_CACHE_DIR", str(tmp_path))
    _, g = sp2_f5()
    elems = g.elements()
    (path,) = tmp_path.glob("closure-*.npy")
    keys = np.load(path)
    # x·G for a singular x with reached rows is closed under the generators
    # on the right, so only its length, 144 and not |G|, exposes it
    x = SqMatrix(g.space, ((1, 0), (1, 0)))
    extra = np.concatenate([elems._table.key_of((x * m).rows) for m in elems])
    np.save(path, np.union1d(keys, extra))
    assert len(np.load(path)) == 144
    _, g2 = sp2_f5()
    assert group_order(g2) == 120
    assert np.array_equal(np.load(path), keys)


def test_multiword_cache_round_trip(tmp_path, monkeypatch):
    monkeypatch.setenv("SYMPAL_CACHE_DIR", str(tmp_path))
    _, g = np_group_8_19_17_103()
    first = [m.rows for m in g.elements()]
    (path,) = tmp_path.glob("closure-*.npy")
    np.save(path, np.load(path)[:100])
    _, g2 = np_group_8_19_17_103()
    assert [m.rows for m in g2.elements()] == first
    _, g3 = np_group_8_19_17_103()
    assert [m.rows for m in g3.elements()] == first


def test_cap_exceeded_from_row_bound(monkeypatch):
    def no_chain(*args):
        raise AssertionError("a stabilizer chain was built")

    monkeypatch.setattr(groupkit._StabilizerChain, "__init__", no_chain)
    _, g = sp2_f5()   # 24 rows reachable: more than 2 * 5
    with pytest.raises(CapExceeded) as exc:
        closure_enumerate(g, 5)
    assert exc.value.count == 12   # rows reached, not the order 120


def test_cap_below_one_is_refused():
    _, g = sp2_f5()
    for refuse in (g.order, g.elements, lambda cap: closure_enumerate(g, cap)):
        with pytest.raises(InvalidParams):
            refuse(0)
    assert g.order() == 120
    with pytest.raises(InvalidParams):   # also once the chain is built
        g.order(0)
