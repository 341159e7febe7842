"""The benchmark's workloads: groups (the closure, trichotomy and
np_groups parts in one pass) and characters.

A workload turns a seed into inputs (fixture and sweep JSON written to a
work directory, plus a few in-memory probe lists) and a list of
operations.  An operation reads its inputs, makes one sympal call and
returns the result; the result is then re-verified exactly against an
expectation fixed at set-up, from facts computed here and not by the code
under test (group orders from the |Sp_n(F_q)| formula, probe answers from
how the probes were built, sweep counts of the fixed groups).

One pass runs every operation once.  Operations of one pass may hand
results to later ones through the pass's scratch dict ("state"), e.g. the
induced verdict that extract_induction needs.

`small=True` builds inputs of the same shape that run in seconds; the
benchmark's own tests use it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import tempfile
from dataclasses import dataclass
from importlib import import_module
from typing import Any, Callable

from sympal import cli, groupkit, linalg, npgroup, regularity
from sympal.ffield import FieldElement, field_make, mult_generator, subfield_embed
from sympal.mackey import semidirect_cyclic, sl2_3, symmetric_group
from sympal.symplectic import (
    SqMatrix,
    SympSpace,
    make_transvection,
    mat,
    random_similitude,
    scaling_similitude,
    stabilizes,
)

# the package re-exports the function `classify` under the submodule's name
classify_mod = import_module("sympal.classify")

WHY = {
    "groups": "Sp2 closures over F101 and F125 with a cache reload and probes, classify and "
              "extract_induction on the trichotomy fixtures, (n,p)-group builds: every matrix layer",
    "characters": "in-process CLI mackey sweeps on relabelled tables: "
                  "Dixon tables, induce/restrict and Cyc arithmetic only",
}


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[dict], Any]
    check: Callable[[Any, Any], bool]
    expect: Any


def sp_order(n: int, q: int) -> int:
    """|Sp_n(F_q)|, recomputed here so checks do not trust groupkit."""
    m = n // 2
    out = q ** (m * m)
    for i in range(1, m + 1):
        out *= q ** (2 * i) - 1
    return out


def _write(workdir: str, name: str, doc) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def _load_group(path: str) -> groupkit.MatrixGroup:
    with open(path) as fh:
        return groupkit.from_fixture(json.load(fh))


def _conjugates(space, gens, rng):
    a = random_similitude(space, rng)
    ai = a.inv()
    return [a * m * ai for m in gens]


def _fixture(workdir: str, name: str, space, gens) -> str:
    return _write(workdir, name, groupkit.to_fixture(groupkit.group(space, gens)))


def _equal(result, expect) -> bool:
    return result == expect


# ---------------------------------------------------------------------------
# closure
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _cache_dir(path: str):
    os.environ["SYMPAL_CACHE_DIR"] = path
    try:
        yield
    finally:
        os.environ.pop("SYMPAL_CACHE_DIR", None)


def _word(gens, rng, length: int = 24) -> SqMatrix:
    out = gens[0]
    for _ in range(length):
        g = rng.choice(gens)
        out = out * (g if rng.random() < 0.5 else g.inv())
    return out


def closure(seed: int, workdir: str, small: bool = False) -> list[Op]:
    """Sp2 over a prime field (cold, with a cache write, then reloaded from
    the cache and probed) and Sp2 over an extension field (cold)."""
    rng = random.Random(seed)
    ell, (e_ell, e_deg) = (7, (5, 2)) if small else (101, (5, 3))
    sp = SympSpace.standard(field_make(ell, 1), 2)
    se = SympSpace.standard(field_make(e_ell, e_deg), 2)
    prime_gens = _conjugates(sp, [make_transvection(sp, (1, 0), 1),
                                  make_transvection(sp, (0, 1), 1)], rng)
    t = mult_generator(se.field).index
    ext_gens = _conjugates(se, [make_transvection(se, (1, 0), 1),
                                make_transvection(se, (0, 1), t)], rng)
    prime = _fixture(workdir, "closure-prime.json", sp, prime_gens)
    ext = _fixture(workdir, "closure-ext.json", se, ext_gens)

    probes = []
    for _ in range(20 if small else 200):
        probes.append((_word(prime_gens, rng).rows, True))
        # multiplier c != 1, so the product lies outside Sp2
        outsider = _word(prime_gens, rng) * scaling_similitude(sp, rng.randrange(2, ell))
        probes.append((outsider.rows, False))
    rng.shuffle(probes)

    def cold(state):
        state["cache"] = tempfile.mkdtemp(dir=workdir)
        with _cache_dir(state["cache"]):
            order = groupkit.group_order(_load_group(prime))
        return order, len(os.listdir(state["cache"]))

    def cached(state):
        try:
            with _cache_dir(state["cache"]):
                g = _load_group(prime)
                order = groupkit.group_order(g)
        finally:
            shutil.rmtree(state.pop("cache"))
        state["prime"] = g
        return order

    def probe(state):
        elems = state["prime"].elements()
        return [rows in elems for rows, _ in probes]

    return [
        Op("prime", cold, _equal, (sp_order(2, ell), 1)),
        Op("cached", cached, _equal, sp_order(2, ell)),
        Op("probe", probe, _equal, [want for _, want in probes]),
        Op("extension", lambda state: groupkit.group_order(_load_group(ext)),
           _equal, sp_order(2, e_ell ** e_deg)),
    ]


# ---------------------------------------------------------------------------
# trichotomy
# ---------------------------------------------------------------------------

def _induced_gens(s):
    gens = [make_transvection(s, v, 1) for v in
            [(1, 0, 0, 0), (0, 0, 1, 0), (1, 0, 1, 0),
             (0, 1, 0, 0), (0, 0, 0, 1), (0, 1, 0, 1)]]
    swap = mat(s, [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    return gens + [swap]


def _check_verdict(result, expect) -> bool:
    g, v = result
    case, detail = expect
    if v.case != case:
        return False
    n = g.space.n
    if case == "reducible":
        w = v.witness
        return 0 < w.dim < n and all(stabilizes(m, w) for m in g.generators)
    if case == "induced":
        count, dim = detail
        keys = {b.basis for b in v.blocks}
        return (v.block_count == count == len(v.blocks) and v.block_dim == dim
                and all(b.dim == dim for b in v.blocks)
                and all(b.transform(m).basis in keys
                        for b in v.blocks for m in g.generators))
    ell = g.space.field.ell
    return (v.subfield_degree == detail
            and v.transvection_subgroup_order == sp_order(n, ell ** detail))


def _check_extraction(result, expect) -> bool:
    index, order = expect
    ext, g = result
    return (ext.index == index and len(g.elements()) == order
            and len(ext.stabilizer) * ext.index == order)


def trichotomy(seed: int, workdir: str, small: bool = False) -> list[Op]:
    """classify on seeded conjugates of the four criterion-3 fixtures,
    recognize_sp_over_subfield on embedded Sp2(F5) < GSp2(F25), and
    extract_induction on the induced fixture's verdict."""
    rng = random.Random(seed)
    f5, f25 = field_make(5, 1), field_make(5, 2)
    s2, s4, s25 = SympSpace.standard(f5, 2), SympSpace.standard(f5, 4), SympSpace.standard(f25, 2)
    t = mult_generator(f25).index
    fixtures = [
        ("reducible", s2, [make_transvection(s2, (1, 0), 1)], None),
        ("induced", s4, _induced_gens(s4), (2, 2)),
        ("huge", s2, [make_transvection(s2, (1, 0), 1), make_transvection(s2, (0, 1), 1)], 1),
        ("huge", s25, [make_transvection(s25, (1, 0), 1), make_transvection(s25, (0, 1), t)], 2),
    ]
    ops = []
    for k, (case, space, base, detail) in enumerate(fixtures):
        for j in range(1 if small else 2):
            path = _fixture(workdir, f"fixture-{k}-{j}.json", space, _conjugates(space, base, rng))

            def run(state, path=path):
                g = _load_group(path)
                return g, classify_mod.classify(g)

            ops.append(Op("classify", run, _check_verdict, (case, detail)))

    emb = subfield_embed(f5, f25)
    lifted = [SqMatrix(s25, tuple(tuple(emb(FieldElement(f5, x)).index for x in row)
                                  for row in m.rows)) for m in fixtures[2][2]]
    for j in range(1 if small else 2):
        path = _fixture(workdir, f"embedded-{j}.json", s25, _conjugates(s25, lifted, rng))
        ops.append(Op("recognize",
                      lambda state, path=path: classify_mod.recognize_sp_over_subfield(_load_group(path)),
                      _equal, 1))

    # extract_induction's cost depends on how dense the conjugated blocks
    # are (6.7 s on one seed, 10 s on another, same 2-core host), so it
    # runs on the unconjugated fixture and the seed does not move it
    standard = _fixture(workdir, "induced.json", s4, fixtures[1][2])

    def classify_standard(state):
        g = _load_group(standard)
        state["induced"] = g, classify_mod.classify(g)
        return state["induced"]

    def extract(state):
        g, v = state["induced"]
        return classify_mod.extract_induction(g, v), g

    ops.append(Op("classify", classify_standard, _check_verdict, ("induced", (2, 2))))
    ops.append(Op("extract_induction", extract, _check_extraction, (2, 2 * sp_order(2, 5) ** 2)))
    return ops


# ---------------------------------------------------------------------------
# np_groups
# ---------------------------------------------------------------------------

def _check_np_group(result, expect) -> bool:
    g, j = result
    spec = g.space.field
    return g.space.gram == j and groupkit.group_order(g) == expect and all(
        linalg.mat_mul(spec, linalg.mat_mul(spec, linalg.transpose(a.rows), j), a.rows) == j
        for a in g.generators)


def _check_twist(result, expect) -> bool:
    twisted, g = result
    d, f = g.generators
    return twisted.generators == (d, SqMatrix(g.space, linalg.mat_scalar(g.space.field, f.rows, expect)))


def _np_pairs(n: int, q_max: int) -> list[tuple[int, int]]:
    """(q, p) pairs by direct search, independent of npgroup.find_np_primes."""
    def prime(x):
        return x > 1 and all(x % d for d in range(2, int(x ** 0.5) + 1))

    def prime_divisors(x):
        d = 2
        while d * d <= x:
            if x % d == 0:
                yield d
                while x % d == 0:
                    x //= d
            d += 1
        if x > 1:
            yield x

    def order(a, m):
        k, x = 1, a % m
        while x != 1:
            x, k = x * a % m, k + 1
        return k

    return [(q, p) for q in range(n + 1, q_max + 1) if prime(q)
            for p in sorted(prime_divisors(q ** n - 1))
            if p > n and p % n == 1 and order(q, p) == n]


def np_groups(seed: int, workdir: str, small: bool = False) -> list[Op]:
    """build_np_group for four parameter sets, seeded twists of the
    ell = 11 group, find_np_primes and a regularity sweep."""
    rng = random.Random(seed)
    if small:
        params, twisted, twists, q_max, sweep = [((2, 5, 3, 7), 12)], (2, 5, 3, 7), 1, 50, 50
    else:
        params = [((2, 5, 3, 7), 12), ((4, 7, 5, 11), 40), ((4, 7, 5, 31), 40), ((4, 7, 5, 3), 40)]
        twisted, twists, q_max, sweep = (4, 7, 5, 11), 2, 200, 2000
    ops = []
    for prm, order in params:
        def build(state, prm=prm):
            g, j = npgroup.build_np_group(npgroup.build_chi(npgroup.np_params(*prm)))
            state[prm] = g
            return g, j

        ops.append(Op("build_np_group", build, _check_np_group, order))
    for alpha in rng.sample(range(2, twisted[3]), twists):
        ops.append(Op("twist_unramified",
                      lambda state, a=alpha: (npgroup.twist_unramified(state[twisted], a),
                                              state[twisted]),
                      _check_twist, alpha))
    for n in (2, 4):
        ops.append(Op("find_np_primes", lambda state, n=n: npgroup.find_np_primes(n, q_max),
                      _equal, _np_pairs(n, q_max)))

    docs = []
    for _ in range(sweep):
        n = rng.choice((2, 4))
        ell = rng.choice((53, 59, 61, 67) if n == 2 else (79, 83, 89, 97))
        # weights below (ell - 2) / n! put every profile under the lemma's
        # threshold ell > k n! + 1, so each must come out distinct
        kmax = (ell - 2) // (2 if n == 2 else 24)
        docs.append(regularity.profile_to_doc(regularity.random_profile(ell, n, rng, kmax)))
    path = _write(workdir, "profiles.json", docs)

    def distinct(state):
        with open(path) as fh:
            profiles = [regularity.profile_from_doc(d) for d in json.load(fh)]
        return sum(regularity.check_npower_distinct(p).distinct for p in profiles)

    ops.append(Op("check_npower_distinct", distinct, _equal, sweep))
    return ops


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------

def _relabel(table, rng) -> list[list[int]]:
    """The same group under a seeded relabelling that keeps the identity at 0."""
    rest = list(range(1, len(table)))
    rng.shuffle(rest)
    pi = [0] + rest
    out = [[0] * len(table) for _ in table]
    for a, row in enumerate(table):
        for b, c in enumerate(row):
            out[pi[a]][pi[b]] = pi[c]
    return out


def _check_sweep(result, expect) -> bool:
    code, doc = result
    return code == cli.EXIT_OK and doc["counterexamples"] == 0 and (
        doc["checks"], doc["skipped"]) == expect


def characters(seed: int, workdir: str, small: bool = False) -> list[Op]:
    """cli.main(["mackey", ...]) in-process on relabelled multiplication
    tables; every matrix-group layer is bypassed."""
    rng = random.Random(seed)
    if small:
        sweeps = [(symmetric_group(3), "mackey", None, (78, 0)),
                  (semidirect_cyclic(7, 3), "prop-nh", 7, (24, 2)),
                  (semidirect_cyclic(7, 3), "res-nontrivial", 7, (12, 68))]
    else:
        sweeps = [(symmetric_group(4), "mackey", None, (2850, 0)),
                  (sl2_3(), "mackey", None, (945, 0)),
                  (semidirect_cyclic(7, 3), "prop-nh", 7, (24, 2)),
                  (semidirect_cyclic(13, 4), "res-nontrivial", 13, (36, 444))]
    ops = []
    for k, (g, sweep, p, counts) in enumerate(sweeps):
        doc = {"group": {"table": _relabel(g.table, rng)}, "sweep": sweep}
        if p is not None:
            doc["p"] = p
        path = _write(workdir, f"sweep-{k}.json", doc)

        def run(state, path=path):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["mackey", "--input", path, "--json"])
            return code, json.loads(out.getvalue())

        ops.append(Op(f"mackey.{sweep}", run, _check_sweep, counts))
    return ops


def groups(seed: int, workdir: str, small: bool = False) -> list[Op]:
    """The matrix-group parts in one pass: closure, trichotomy, np_groups.

    One long pass, not three short workloads: the host's speed shifts
    between two levels ~1.4x apart for tens of seconds at a time, and
    only a run that spans several such periods gives a steady median.
    """
    return (closure(seed, workdir, small) + trichotomy(seed, workdir, small)
            + np_groups(seed, workdir, small))


WORKLOADS = {
    "groups": groups,
    "characters": characters,
}
