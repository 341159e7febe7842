"""The stabilizer-chain closure against the element breadth-first search,
and normal closures by sifting against the enumerating normal closure.

`reference_keys` is the earlier closure kernel, a breadth-first search over
element keys, kept here as the oracle: the chain's transversal products
must give the same sorted key array, and the same CapExceeded verdict at
the edge of the cap.  `enumerating_normal_closure` is the earlier normal
closure, which enumerated its subgroup every round; `normal_closure` must
give the same group wherever that one fits under the cap.
"""

import ast
import pathlib
import random
import time

import numpy as np
import pytest

from sympal import groupkit
from sympal.classify import Huge, classify
from sympal.errors import CapExceeded, NotSubgroup, WitnessCheckFailed
from sympal.ffield import FieldElement, field_make, mult_generator, subfield_embed
from sympal.groupkit import (
    ARRAY_CHUNK,
    DEFAULT_CAP,
    MatrixGroup,
    closure_enumerate,
    group,
    harvest_transvections,
    is_irreducible,
    normal_closure,
    sp_order,
    spin,
)
from sympal.npgroup import build_chi, build_np_group, np_params
from sympal.symplectic import (
    SympSpace,
    SqMatrix,
    identity_mat,
    make_transvection,
    mat,
    random_similitude,
)

F5 = field_make(5, 1)
F25 = field_make(5, 2)


def times(table, keys, image):
    """Keys of the elements with these keys times the generator with this
    row-image table."""
    return table.pack.encode([image[col] for col in table.pack.decode(keys)])


def reference_keys(table, images, cap):
    """Sorted keys of the closure under the generators with these row-image
    tables, one breadth-first level at a time."""
    steps = [lambda keys, image=image: times(table, keys, image) for image in images]
    return groupkit._reach(table.identity, steps, cap)


def search_keys(g, cap):
    """reference_keys on a fresh row table of g's generators."""
    gens = [m.rows for m in g.generators]
    table = groupkit._RowTable(g.space, gens, cap)
    return reference_keys(table, [table.image_of(m) for m in gens], cap)


def chain_keys(g, cap):
    """closure_enumerate's keys, on a fresh group with g's generators."""
    return closure_enumerate(group(g.space, g.generators), cap)._keys


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


def _wreath(name):
    if name == "wreath-f25":
        # Sp2(F5) wr C2 written over F25
        s = SympSpace.standard(F25, 4)
        emb = subfield_embed(F5, F25)
        return [SqMatrix(s, tuple(tuple(emb(FieldElement(F5, x)).index for x in row)
                                  for row in m.rows))
                for m in _induced_gens(SympSpace.standard(F5, 4))]
    # wreath-f7: Sp2(F7) wr C2
    return _induced_gens(SympSpace.standard(field_make(7, 1), 4))


def build(name):
    """The named group; `name@seed` conjugates the generators of a
    criterion-3 or wreath fixture by a seeded random similitude."""
    if name.startswith("np-"):
        g, _ = build_np_group(build_chi(np_params(*map(int, name[3:].split(",")))))
        return g
    if name == "one-transvection":
        s = SympSpace.standard(F5, 4)
        return group(s, [make_transvection(s, (0, 0, 0, 1), 2)])
    base, _, seed = name.partition("@")
    gens = _wreath(base) if base.startswith("wreath-") else _criterion_3(base)
    return group(gens[0].space, _conjugate(gens, int(seed)) if seed else gens)


CASES = ([f"{n}{c}" for n in ("reducible", "induced", "huge-f5", "huge-f25")
          for c in ("", "@1", "@2", "@3")]
         + ["huge-f25", "wreath-f25", "np-4,7,5,11", "np-8,19,17,103", "one-transvection"])


# ---------------------------------------------------------------------------
# same keys, same verdicts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", CASES)
def test_chain_keys_equal_the_search(name):
    g = build(name)
    got = closure_enumerate(g, DEFAULT_CAP)._keys
    want = reference_keys(g.chain().table, g.chain().images, DEFAULT_CAP)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert g.chain().order == len(want)


def _sp2_f101():
    s = SympSpace.standard(field_make(101, 1), 2)
    return group(s, [make_transvection(s, (1, 0), 1), make_transvection(s, (0, 1), 1)])


@pytest.mark.parametrize("name, dtype", [
    ("huge-f5", "uint32"), ("huge-f25", "uint32"), ("sp2-f101", "uint32"),
    ("np-4,7,5,11", "uint32"),
    # the unconjugated induced fixture reaches 48 rows (24 bits a key),
    # its conjugates 576 or 624 rows (40 bits)
    ("induced", "uint32"), ("induced@1", "uint64"), ("induced@2", "uint64"),
    ("induced@3", "uint64"),
    ("np-8,19,17,103", "V16"),   # 272 rows: 8 slots of 9 bits
])
def test_keys_take_the_narrowest_word(name, dtype):
    g = _sp2_f101() if name == "sp2-f101" else build(name)
    keys = g.elements()._keys
    assert keys.dtype == np.dtype(dtype)


def test_narrow_keys_sort_as_64_bit_keys():
    g = _sp2_f101()
    keys = g.elements()._keys
    assert len(keys) == sp_order(2, 101) and keys.dtype == np.uint32
    table = g.chain().table
    assert len(table.row_keys) == 10_200   # 14 bits a row number
    rows = table.pack.decode(keys)
    # the same bit layout in a uint64 word, packed here and not by _Packing
    shifts = [np.uint64(0), np.uint64(14)]
    wide = np.zeros(len(keys), dtype=np.uint64)
    for col, shift in zip(rows, shifts):
        wide |= col.astype(np.uint64) << shift
    assert np.array_equal(wide, keys.astype(np.uint64))
    wide.sort()
    mask = np.uint64((1 << 14) - 1)
    for col, shift in zip(rows, shifts):
        assert np.array_equal((wide >> shift) & mask, col)


def test_chain_keys_equal_the_search_on_the_irreducibility_corpus():
    from test_irreducibility import CORPUS

    cap = 2 * 10**6
    refused = 0
    for name, g in CORPUS:
        verdicts = []
        for closure in (search_keys, chain_keys):
            try:
                verdicts.append(closure(g, cap))
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
    order = len(search_keys(g, DEFAULT_CAP))
    for cap in (order, order - 1):
        verdicts = []
        for closure in (search_keys, chain_keys):
            try:
                verdicts.append(len(closure(g, cap)))
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


def test_huge_verdict_enumerates_nothing(monkeypatch):
    calls = []
    inner = groupkit._StabilizerChain.keys
    monkeypatch.setattr(groupkit._StabilizerChain, "keys",
                        lambda chain: calls.append(chain) or inner(chain))
    verdict = classify(build("huge-f25@2"))
    assert isinstance(verdict, Huge)
    assert verdict.transvection_subgroup_order == sp_order(2, 25)
    assert len(calls) == 0


def test_huge_verdict_searches_rows_once(monkeypatch):
    # H's chain lives on G's row table
    tables = []
    inner = groupkit._RowTable.__init__
    monkeypatch.setattr(groupkit._RowTable, "__init__",
                        lambda table, *args: tables.append(table) or inner(table, *args))
    assert isinstance(classify(build("huge-f25@1")), Huge)
    assert len(tables) == 1


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
    g = build("huge-f5@1")
    lev = g.chain().levels[0]
    # the last orbit point gets the tree edge of another non-root point,
    # so two cosets share a transversal element
    j, k = 1, len(lev.orbit) - 1
    lev.parent[k], lev.label[k], lev.depth[k] = lev.parent[j], lev.label[j], lev.depth[j]
    with pytest.raises(WitnessCheckFailed):
        closure_enumerate(g, DEFAULT_CAP)


# ---------------------------------------------------------------------------
# normal closures by sifting
# ---------------------------------------------------------------------------

def enumerating_normal_closure(g, seeds, cap=DEFAULT_CAP):
    """The earlier normal closure: enumerate the group of the generators so
    far, add each conjugate a·s·a^-1 that is not an element, and repeat
    until none is added."""
    gen_list = [s for s in seeds if not s.is_identity()]
    if not gen_list:
        triv = MatrixGroup(g.space, (identity_mat(g.space),))
        triv.elements(cap)
        return triv
    conjugators = [(a, a.inv()) for a in g.generators]
    while True:
        k = MatrixGroup(g.space, tuple(gen_list))
        elems = k.elements(cap)
        grown = False
        for s in list(gen_list):
            for a, a_inv in conjugators:
                c = a * s * a_inv
                if c not in elems:
                    gen_list.append(c)
                    grown = True
        if not grown:
            return k


CRITERION_3 = [f"{n}{c}" for n in ("reducible", "induced", "huge-f5", "huge-f25")
               for c in ("", "@1", "@2", "@3")]
WREATH = [f"{w}{c}" for w in ("wreath-f7", "wreath-f25") for c in ("", "@1", "@2")]


@pytest.mark.parametrize("name", CRITERION_3 + ["identity"])
def test_normal_closure_equals_the_enumerating_one(name):
    g = build("induced@1" if name == "identity" else name)
    # every fixture's first generator is a transvection
    seeds = [identity_mat(g.space)] if name == "identity" else [g.generators[0]]
    want = enumerating_normal_closure(g, seeds)
    got = normal_closure(g, seeds)
    assert got.order() == len(want.elements())
    assert got.elements() == want.elements()


def deduplicated_transvection_subgroup(g, harvested):
    """The transvection subgroup as classify built it before it took a
    normal closure: one harvested transvection per direction line."""
    seen, gens = set(), []
    for m, data in harvested:
        if data.direction not in seen:
            seen.add(data.direction)
            gens.append(m)
    return g.subgroup(gens)


@pytest.mark.parametrize("name", CRITERION_3 + WREATH)
def test_normal_closure_of_one_transvection_is_the_transvection_subgroup(name):
    """N = <T^G> for the first harvested T picks classify's branch as
    H = <transvections of G> does, with the same |H| in the huge case and
    the same spin of T's direction (the first block) in the induced one."""
    g = build(name)
    harvested = harvest_transvections(g)
    t, data = harvested[0]
    n = normal_closure(g, [t])
    h = deduplicated_transvection_subgroup(g, harvested)
    h_irreducible = is_irreducible(h).irreducible
    assert is_irreducible(n).irreducible == h_irreducible
    if not is_irreducible(g).irreducible:
        return
    if h_irreducible:
        assert n.order() == h.order()
    else:
        assert (spin(g.space, n.generators, data.direction).basis
                == spin(g.space, h.generators, data.direction).basis)


def seeded_transvections(ell, n, count, seed):
    s = SympSpace.standard(field_make(ell, 1), n)
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        v = tuple(rng.randrange(ell) for _ in range(n))
        if any(v):
            out.append(make_transvection(s, v, rng.randrange(1, ell)))
    return out


def _sp4_f11():
    return group(SympSpace.standard(field_make(11, 1), 4), seeded_transvections(11, 4, 6, 1))


def _wreath_f101():
    return group(SympSpace.standard(field_make(101, 1), 4),
                 _induced_gens(SympSpace.standard(field_make(101, 1), 4)))


@pytest.mark.parametrize("build_g, order, closure_order", [
    (_sp4_f11, sp_order(4, 11), 25_721_308_800),
    (_wreath_f101, 2 * sp_order(2, 101) ** 2, 1_061_312_040_000),
], ids=["sp4-f11", "wreath-f101"])
def test_normal_closure_past_the_cap(monkeypatch, build_g, order, closure_order):
    def no_elements(self):
        raise AssertionError("elements were built")

    monkeypatch.setattr(groupkit._StabilizerChain, "keys", no_elements)
    g = build_g()
    start = time.perf_counter()
    k = normal_closure(g, [g.generators[0]])
    assert time.perf_counter() - start < 5
    assert g.order() == order
    assert k.order() == closure_order > DEFAULT_CAP
    with pytest.raises(CapExceeded) as exc:
        k.elements()
    assert exc.value.count == closure_order


# ---------------------------------------------------------------------------
# field arithmetic stays at the chain's boundary
# ---------------------------------------------------------------------------

def test_chain_methods_do_no_field_arithmetic():
    tree = ast.parse(pathlib.Path(groupkit.__file__).read_text())
    chain = next(node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == "_StabilizerChain")
    names = {node.attr for node in ast.walk(chain) if isinstance(node, ast.Attribute)}
    names |= {node.id for node in ast.walk(chain) if isinstance(node, ast.Name)}
    assert not names & {"image_of", "mat"}


def test_image_of_is_called_only_for_generators_and_seeds(monkeypatch):
    calls = []
    inner = groupkit._RowTable.image_of
    monkeypatch.setattr(groupkit._RowTable, "image_of",
                        lambda table, m: calls.append(m) or inner(table, m))
    for g in [build(name) for name in CRITERION_3] + [_sp4_f11()]:
        calls.clear()
        g.order()
        assert len(calls) == len(g.generators)
        calls.clear()
        normal_closure(g, [g.generators[0]])
        assert len(calls) == 1


def test_subgroup_refuses_a_non_member():
    """2·I is a similitude whose rows are rows of Sp2(F5), but not an
    element; a transvection off <T>'s rows has a row off its table."""
    g = build("huge-f5")
    two = SqMatrix(g.space, ((2, 0), (0, 2)))
    for make in (g.subgroup, lambda gens: normal_closure(g, gens)):
        with pytest.raises(NotSubgroup):
            make([g.generators[0], two])
    k = build("reducible")
    with pytest.raises(NotSubgroup):
        k.subgroup([make_transvection(k.space, (0, 1), 1)])
    with pytest.raises(NotSubgroup):
        normal_closure(k, [make_transvection(k.space, (0, 1), 1)])
    assert g.subgroup([two * two * two * two]).order() == 1   # 16·I = I


def test_a_wrong_transversal_is_refused(monkeypatch):
    inner = groupkit._StabilizerChain._transversal
    # one label fewer: t_p for the parent p of o
    monkeypatch.setattr(groupkit._StabilizerChain, "_transversal",
                        lambda chain, lev, o: inner(chain, lev, lev.parent[o]))
    with pytest.raises(WitnessCheckFailed):
        build("huge-f25@2").order()


def test_subgroup_cache_files_are_written_not_read(tmp_path, monkeypatch):
    """A subgroup's keys number the rows of its group's table, which are
    more than its own, so a standalone group with the same generators
    writes a file of its own.  Each file holds the keys closure_enumerate
    returned, and nothing reads a file back."""
    monkeypatch.setenv("SYMPAL_CACHE_DIR", str(tmp_path))
    g = build("huge-f5")
    t = g.generators[:1]

    def groups():
        return [g.subgroup(t), group(g.space, t), normal_closure(g, t)]

    first = [closure_enumerate(k) for k in groups()]
    assert [len(e) for e in first] == [5, 5, 120]
    assert len(list(tmp_path.glob("closure-*.npy"))) == 3
    for k, e in zip(groups(), first):
        saved = np.load(groupkit._cache_path(k.space, k.generators, k.chain().table))
        assert saved.dtype == e._keys.dtype and np.array_equal(saved, e._keys)

    def no_load(*args, **kwargs):
        raise AssertionError("a closure file was read")

    monkeypatch.setattr(np, "load", no_load)
    assert [closure_enumerate(k) for k in groups()] == first


def test_forged_normal_closure_file_is_recomputed(tmp_path, monkeypatch):
    """A file of the right size that holds the identity and is closed
    under the seed alone is not the normal closure: the check also steps
    by each conjugate that grew it."""
    monkeypatch.setenv("SYMPAL_CACHE_DIR", str(tmp_path))
    g = build("induced")
    seeds = g.generators[:1]
    k = normal_closure(g, seeds)
    want = closure_enumerate(k)._keys
    table = k.chain().table
    t = table.image_of(seeds[0].rows)

    def coset(key):   # key·<t>, t of order 5
        out = [np.atleast_1d(key)]
        for _ in range(4):
            out.append(times(table, out[-1], t))
        return np.concatenate(out)

    x = np.setdiff1d(want, coset(table.identity))[0]
    y = np.setdiff1d(g.elements()._keys, want)[0]
    forged = np.union1d(np.setdiff1d(want, coset(x)), coset(y))
    assert len(forged) == len(want)
    assert np.all(np.isin(times(table, forged, t), forged))
    path = groupkit._cache_path(g.space, k.generators, table)
    assert path in map(str, tmp_path.glob("closure-*.npy"))
    np.save(path, forged)
    assert np.array_equal(closure_enumerate(normal_closure(g, seeds))._keys, want)


@pytest.mark.parametrize("name", ["huge-f5@1", "huge-f25@2", "induced@3", "wreath-f25"])
def test_extending_by_each_generator_gives_the_bulk_chain(name):
    g = build(name)
    chain = g.subgroup(g.generators[:1]).chain()
    for m in g.generators[1:]:
        chain.extend(chain.table.image_of(m.rows))
    assert chain.order == g.order()
    assert np.array_equal(chain.keys(), g.chain().keys())


def test_extend_is_a_membership_test():
    g = build("induced")
    k = normal_closure(g, [g.generators[0]])
    chain = k.chain()
    assert chain.order == sp_order(2, 5) ** 2 == 14_400
    # every element sifts to 1: the rows of k's elements, in batches
    keys = k.elements()._keys
    n = len(chain.levels)
    for lo in range(0, len(keys), 4096):
        rows = np.stack(chain.table.pack.decode(keys[lo:lo + 4096]), axis=1)
        assert np.all(chain._sift(rows.astype(chain.perms.dtype), 0) == n)
    # and extend refuses them, leaving the order as it was
    for m in list(k.elements())[::97] + list(k.generators):
        assert not chain.extend(chain.table.image_of(m.rows))
    assert chain.order == 14_400
    swap = g.generators[-1]
    assert chain.extend(chain.table.image_of(swap.rows))
    assert chain.order == 28_800 == g.order()
    assert not chain.extend(chain.table.image_of(swap.rows))


def test_sifting_is_membership_on_the_irreducibility_corpus():
    """Every element of each corpus group within the cap sifts to 1, a
    seeded sample of them leaves the chain as it was, and the chain built
    from all generators at once equals the one extended by one generator
    at a time, in reverse order."""
    from test_irreducibility import CORPUS

    cap = 10**4
    rng = random.Random(15)
    checked = 0
    for name, g in CORPUS:
        g = group(g.space, g.generators)
        chain = g.chain()
        if chain.order > cap:
            continue
        n, order, images = len(chain.levels), chain.order, list(chain.images)
        elems = g.elements(cap)
        for lo in range(0, len(elems), ARRAY_CHUNK):
            rows = np.stack(chain.table.pack.decode(elems._keys[lo:lo + ARRAY_CHUNK]), axis=1)
            assert np.all(chain._sift(rows.astype(chain.perms.dtype), 0) == n), name
        sample = [elems[i] for i in rng.sample(range(len(elems)), min(8, len(elems)))]
        assert not chain.extend(*[chain.table.image_of(m.rows) for m in sample]), name
        assert chain.order == order and len(chain.images) == len(images), name
        gens = [chain.table.image_of(m.rows) for m in g.generators]
        at_once = groupkit._StabilizerChain(chain.table, [])
        at_once.extend(*gens)
        one_by_one = groupkit._StabilizerChain(chain.table, [])
        for image in reversed(gens):
            one_by_one.extend(image)
        for other in (at_once, one_by_one):
            assert other.order == order, name
            assert np.array_equal(other.keys(), elems._keys), name
        checked += 1
    assert checked >= 180
