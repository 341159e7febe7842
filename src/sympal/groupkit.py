"""Finitely generated matrix groups: closure enumeration, orders,
subgroups, transvection harvesting, normal closures, spinning, and
irreducibility.

One closure kernel serves every field and size.  Its unit is a key: a
fixed number of small non-negative integers (slots) packed into one
32-bit word when they fit in it, else into 64-bit words, sorted by the
last slot first (`_Packing`).

* Rows: a breadth-first search over row keys (`_reach`) collects the rows
  reached from the identity's rows.  A row vector is its n entries, and
  row·g is an F_ell-linear map of the entries' base-ell digits, one
  integer matrix product per generator, so no field needs multiplication
  tables.  The map is the field context's (`ffield._Fq.linear_map` of the
  1 x 1 identity and g, applied by `apply_map`); the row table holds
  rows, keys and images, and no digit arithmetic of its own.  Sorted row
  keys number the rows in increasing reversed-coordinate order, and each
  generator gets a table from a row's number to the number of row·g: the
  search maps every row by every generator once, and keeps those images.
  More than n·cap rows raise CapExceeded, since every row is row i of
  some element.
* Elements: an element is its n row numbers, the images of the
  identity's rows.  Those rows are the base of a stabilizer chain built by
  deterministic Schreier-Sims on the row action (`_StabilizerChain`;
  Sims 1970, Seress 2003 ch. 4-5): only the identity fixes them all, so
  |G| is the product of the basic orbit lengths, known before any element
  is built, and past the cap CapExceeded carries it.  Within the cap the
  element set counts from the chain (`ElementSet`); on the first read
  that lists or probes it, each element is built exactly once, as a
  product of transversal elements, and one sort lists the keys in
  increasing reversed-entry-tuple order.
* Chains: a chain is the trivial chain extended by its generators.
  `_StabilizerChain.extend` sifts elements given as row-image tables: a
  residue of 1 means a member, and otherwise the residue joins the chain
  by incremental Schreier-Sims (Seress 2003, ch. 4).  A group's chain
  carries the order bound |Sp_n(F_q)|·|<mu(gens)>| and stops sifting
  Schreier generators once its orbit lengths multiply to it (the
  known-order stop); an `extend` that grows the group drops the bound
  unless its caller proves one for the grown group, as `normal_closure`
  does, and without one every Schreier generator left is sifted.  The
  chain works on row numbers only: each residue, transversal element and
  tree shortcut it stores is composed from the tables it holds, and field
  arithmetic (`_RowTable.image_of`) makes only the tables of subgroup
  generators and seeds, since the row search recorded the generators'.
* Subgroups: every row of an element of a subgroup is a row of the group,
  so `MatrixGroup.subgroup` builds the subgroup's chain on the group's row
  table from its generators' row-image tables, with no row search of its
  own, once each generator's rows have sifted to 1 through the group's
  chain.  So `normal_closure` composes each conjugate a^-1·s·a from
  row-image tables and extends by it: no element is built, and a closure
  past the cap has its exact order.  mu(a^-1·s·a) = mu(s), so the closure
  keeps the seeds' order bound.
* Transvections: a transvection of G whose direction leads at i fixes
  the first i base points, and is determined by its row i, a point of
  level i's orbit, so `transvection_keys` sifts at most one candidate
  per orbit point of each level: no element of G is built, and the
  harvest is exact past the cap.  `harvest_transvections` decodes and
  checks every member it finds; `classify` decodes only the first.

Irreducibility of the natural module needs no enumeration at all.  On
every verdict path it is one deterministic `spin`: a group of similitudes
holding a nontrivial transvection with direction v is irreducible iff v
spins to V, since a proper invariant W holds v or W^perp does (see
`classify`); the (n,p)-groups spin the eigenlines of their diagonal
generator (`npgroup._assert_irreducible`).  Norton's randomized test
(`is_irreducible`) is kept for groups with no transvection: it spins a few
vectors chosen from the kernels of polynomials in random algebra
elements, and decides exactly at every size.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import operator
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from . import linalg
from .errors import (
    CapExceeded,
    InvalidParams,
    NotSimilitude,
    NotSubgroup,
    Singular,
    WitnessCheckFailed,
    exact_int,
)
from .ffield import FieldSpec, factorize, poly_factors
from .linalg import Mat, Vec
from .symplectic import (
    SqMatrix,
    Subspace,
    SympSpace,
    TransvectionData,
    TransvectionKind,
    detect_transvection,
    identity_mat,
    multiplier_of,
    standard_gram,
)

DEFAULT_CAP = 2 * 10**7
# elements or rows per chunk of the array passes (element iteration, the
# harvest's orbit points, extract_induction's block-basis rewrite of the
# block stabilizer), so their working memory does not grow with the group
ARRAY_CHUNK = 4096
# Rounds of Norton's test before is_irreducible gives up.  Each round decides
# with probability bounded below by a constant (Holt and Rees), and the test
# corpus never needed more than 4, so reaching this bound means a bug.
NORTON_ROUNDS = 256
# Shortcut tree labels tried per orbit extension of a stabilizer chain level
_SHORTCUTS = 16
# Schreier generators sifted per batch: the first batch is _FIRST_SIFT, and
# each batch that sifts to 1 doubles the next, up to _SIFT_CHUNK.  Small
# first batches let a chain that reaches its order bound stop early; a
# batch with a nontrivial residue is the only one sifted again once the
# residue has joined the chain
_FIRST_SIFT = 64
_SIFT_CHUNK = 1 << 14


# ---------------------------------------------------------------------------
# the closure kernel: packed keys, one search, row tables
# ---------------------------------------------------------------------------

class _Packing:
    """Keys of `slots` integers below 2^bits, sorted by the last slot first.

    Every slot must be below 2^bits: a larger one carries into the next
    slot and gives the key of other integers.  Slot i sits in word i // per
    at bit (i % per)·bits, per = word bits // bits.  The word is a uint32
    when slots·bits <= 32, else a uint64.  A one-word key is that word; a
    longer one is a void of its uint64 words stored big-endian, most
    significant first, so byte order is numeric order and sort,
    searchsorted and insert treat all three alike.  The layout is the same
    for both words, so a key's numeric value does not depend on its width.
    """

    def __init__(self, slots: int, bits: int):
        self.word = np.dtype(np.uint32 if slots * bits <= 32 else np.uint64)
        per = 8 * self.word.itemsize // bits
        self.words = -(-slots // per)
        self.dtype = self.word if self.words == 1 else np.dtype(f"V{8 * self.words}")
        self.place = [(i // per, self.word.type(i % per * bits)) for i in range(slots)]
        self.mask = self.word.type((1 << bits) - 1)

    def _keys(self, words: np.ndarray) -> np.ndarray:
        """Keys from an (N, words) array of words, least significant first."""
        if self.words == 1:
            return words[:, 0]
        return np.ascontiguousarray(words[:, ::-1], dtype=">u8").view(self.dtype).ravel()

    def _words(self, keys: np.ndarray) -> np.ndarray:
        if self.words == 1:
            return keys[:, None]
        big = np.ascontiguousarray(keys).view(">u8").reshape(len(keys), self.words)
        return big[:, ::-1].astype(self.word)

    def encode(self, cols: Sequence[np.ndarray]) -> np.ndarray:
        words = np.zeros((len(cols[0]), self.words), dtype=self.word)
        for col, (j, shift) in zip(cols, self.place):
            words[:, j] |= col.astype(self.word, copy=False) << shift
        return self._keys(words)

    def slots(self, keys: np.ndarray) -> Iterator[np.ndarray]:
        words = self._words(keys)
        for j, shift in self.place:
            yield (words[:, j] >> shift) & self.mask

    def decode(self, keys: np.ndarray) -> list[np.ndarray]:
        return list(self.slots(keys))

    def from_slots(self, slot_lists) -> np.ndarray:
        """Keys of Python integer sequences, one per key."""
        return self.encode(list(np.array(slot_lists, dtype=self.word).T))


def _find(sorted_keys: np.ndarray, probe: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each probe key is, or would be inserted, in a sorted key
    array, and whether it is there."""
    pos = np.searchsorted(sorted_keys, probe)
    found = pos < len(sorted_keys)
    found[found] = sorted_keys[pos[found]] == probe[found]
    return pos, found


def _reach(start: np.ndarray, steps: Sequence[Callable[[np.ndarray], np.ndarray]],
           limit: int) -> np.ndarray:
    """Sorted keys reached from the sorted distinct start keys by the steps,
    a level at a time; CapExceeded once more than `limit` (the rows' bound
    n·cap) are reached."""
    seen = frontier = start
    while len(frontier):
        keys = np.concatenate([step(frontier) for step in steps])
        keys.sort()
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        pos, found = _find(seen, keys)
        frontier = keys[~found]
        seen = np.insert(seen, pos[~found], frontier)
        if len(seen) > limit:
            raise CapExceeded(len(seen), f"{len(seen)} rows reached, more than n·cap = "
                                         f"{limit}, so the group order is past the cap")
    return seen


class _RowTable:
    """The rows of <gens>, numbered.

    The row search maps every row by every generator exactly once: each
    row is in one frontier.  Each step records its frontier and image
    keys, and after the search these become one read-only row-image table
    per search generator, which `image_of` returns; the recorded keys are
    freed then."""

    def __init__(self, space: SympSpace, gens: Sequence[Mat], cap: int):
        spec, n = space.field, space.n
        self.ctx = spec.ctx
        self.row_pack = _Packing(n, max((spec.order - 1).bit_length(), 1))
        frontiers, images = [], [[] for _ in gens]

        def step(keys: np.ndarray, m: np.ndarray, out: list) -> np.ndarray:
            if out is images[0]:   # every step of a level maps the same frontier
                frontiers.append(keys)
            out.append(self._row_times(np.stack(self.row_pack.decode(keys), axis=1), m))
            return out[-1]

        steps = [lambda keys, m=self.ctx.linear_map([[1]], g), out=out: step(keys, m, out)
                 for g, out in zip(gens, images)]
        ident = linalg.identity(n)
        self.row_keys = _reach(np.sort(self.row_pack.from_slots(ident)), steps, n * cap)
        self.entries = np.stack(self.row_pack.decode(self.row_keys), axis=1).astype(np.int64)
        self.pack = _Packing(n, max((len(self.row_keys) - 1).bit_length(), 1))
        self.identity = self.key_of(ident)
        # row numbers as int32 halve the memory of the row-image tables and
        # the memory traffic of the chain's gathers
        self.rowtype = np.dtype(np.int32 if len(self.row_keys) < 2**31 else np.int64)
        source = np.searchsorted(self.row_keys, np.concatenate(frontiers))
        frontiers.clear()
        self._images = {}
        for g, out in zip(gens, images):
            image = np.empty(len(self.row_keys), dtype=self.rowtype)
            image[source] = np.searchsorted(self.row_keys, np.concatenate(out))
            out.clear()
            image.flags.writeable = False
            self._images[tuple(map(tuple, g))] = image

    def _row_times(self, rows: np.ndarray, m: np.ndarray) -> np.ndarray:
        """Keys of row·g for an (N, n) array of rows, m = linear_map([[1]], g)."""
        return self.row_pack.encode(list(self.ctx.apply_map(m, rows)[:, 0].T))

    def image_of(self, m: Mat) -> np.ndarray:
        """The row-image table of the matrix m, which must map every row of
        the table to a row of the table (as every element of a group whose
        rows these are does).  A search generator's table is the one the
        search recorded; any other m is mapped by field arithmetic."""
        recorded = self._images.get(tuple(map(tuple, m)))
        if recorded is not None:
            return recorded
        keys = self._row_times(self.entries, self.ctx.linear_map([[1]], m))
        image, found = _find(self.row_keys, keys)
        if not found.all():
            raise WitnessCheckFailed("an element maps a reached row out of the row table")
        return image.astype(self.rowtype)

    def mat(self, rows: np.ndarray) -> Mat:
        """The matrix whose rows have these numbers."""
        return tuple(map(tuple, self.entries[rows].tolist()))

    def numbers(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The numbers of the rows of a (..., n) array of field element
        indices, and whether each is a reached row (else it has no number)."""
        shape = rows.shape[:-1]
        keys = self.row_pack.encode(list(rows.reshape(-1, rows.shape[-1]).T))
        pos, found = _find(self.row_keys, keys)
        return pos.reshape(shape), found.reshape(shape)

    def key_of(self, m: Mat) -> Optional[np.ndarray]:
        """The one-key array of m, or None if a row of m is not a reached row."""
        rows, found = self.numbers(np.asarray(m))
        return self.pack.encode(list(rows[:, None])) if found.all() else None

    def entry_array(self, keys: np.ndarray) -> np.ndarray:
        """The (len(keys), n, n) entries of the decoded elements."""
        rows = np.stack(self.pack.decode(keys), axis=1).astype(np.intp)
        return self.entries[rows]

    def mats(self, keys: np.ndarray) -> list[Mat]:
        return [tuple(map(tuple, m)) for m in self.entry_array(keys).tolist()]


class _Level:
    """One level of a stabilizer chain: the strong generators that fix the
    base points before `point`, and the orbit of `point` under them with
    its Schreier tree.  Orbit points come after their parents."""

    def __init__(self, point: int, base: np.ndarray, degree: int):
        self.point = point
        self.gens: list[int] = []        # ids in the chain's table
        self.shortcuts: list[int] = []   # ids of extra tree labels
        self.closed = 0                  # gens[:closed] have grown the orbit
        self.where = np.full(degree, -1, dtype=np.intp)   # row -> orbit index, or -1
        self.where[point] = 0
        self.orbit = np.array([point], dtype=base.dtype)
        self.parent = np.zeros(1, dtype=np.intp)   # orbit index of the parent
        self.label = np.zeros(1, dtype=np.intp)    # id s with parent·s = point
        self.depth = np.zeros(1, dtype=np.intp)
        self.rows = base[None, :]                  # t_o as row numbers
        self.tested = np.zeros((1, 0), dtype=bool)   # Schreier generators (o, s) sifted
        # the untested (o, s) in row-major order, or None to search `tested` again
        self.untested: Optional[tuple[np.ndarray, np.ndarray]] = None


class _StabilizerChain:
    """A base and strong generating set of <gens> acting on the row numbers
    of a _RowTable, by deterministic Schreier-Sims.

    The base is the identity's rows e_0..e_{n-1}, so an element is its
    rows: the images of the base points.  Level i holds the strong
    generators fixing e_0..e_{i-1} and the orbit of e_i under them.  Every
    Schreier generator t_o·s·t_{o·s}^-1 is sifted through the levels below;
    of the nontrivial residues, the one of least key becomes a strong
    generator.  Strong generators, tree shortcuts and their inverses are
    rows of one table (`perms`; the inverse of id k is k ^ 1), so a batch
    of elements is stripped by gathers.  The chain is permutation code
    only: the generators come as row-image tables, so a subgroup's chain
    lives on its group's table, and every row it stores is composed from
    them by gathers.  It starts as the trivial chain and adds the
    generators as `extend` does; `images` lists those that grew the group.

    `bound`, if given, is a proven upper bound on |<images>|.  The product
    of the orbit lengths is a lower bound, since each orbit lies in its
    basic orbit, so once it reaches the bound every orbit is a full basic
    orbit, the levels are a base and strong generating set, and
    Schreier-Sims stops with the Schreier generators not yet sifted left
    untested (the known-order stop, Seress 2003, ch. 4).
    """

    def __init__(self, table: _RowTable, images: Sequence[np.ndarray],
                 bound: Optional[int] = None):
        self.table = table
        self.images: list[np.ndarray] = []
        self.bound = bound
        degree = len(table.row_keys)
        self.base = np.concatenate(table.pack.decode(table.identity)).astype(table.rowtype)
        self.perms = np.empty((8, degree), dtype=table.rowtype)
        self._count = 0
        self.levels = [_Level(b, self.base, degree) for b in self.base]
        self._close(self._join(images))

    @property
    def order(self) -> int:
        return math.prod(len(lev.orbit) for lev in self.levels)

    def extend(self, *perms: np.ndarray, bound: Optional[int] = None) -> bool:
        """Add the elements with these row-image tables to the group; False
        if every one is already in it.  Each is sifted through the chain as
        it stands; a nontrivial residue joins the generators of the levels
        down to the first whose point it moves, and `images` lists the
        element.  Then those orbits grow and Schreier-Sims runs again,
        sifting only the Schreier generators not yet tested (Seress 2003,
        ch. 4).  A group that grows may pass the order bound, so the bound
        becomes `bound`, one the caller has proved for the grown group, or
        None: then every Schreier generator is sifted."""
        lowest = self._join(perms)
        if lowest < 0:
            return False
        self.bound = bound
        self._close(lowest)
        return True

    def _join(self, perms: Sequence[np.ndarray]) -> int:
        """Sift each element and add its residue, if nontrivial, to the
        generators; the deepest level whose generators grew, -1 if none."""
        lowest = -1
        for perm in perms:
            x = perm[self.base][None, :].astype(self.perms.dtype)
            if self._sift(x, 0)[0] < len(self.levels):
                lowest = max(lowest, self._add_generator(self._residue(perm, 0, x[0]), 0))
                self.images.append(perm)
        return lowest

    def _close(self, lowest: int) -> None:
        """Grow the orbits of the levels down to `lowest` and run
        Schreier-Sims; nothing if lowest < 0."""
        if lowest < 0:
            return
        for lev in self.levels[:lowest + 1]:
            self._grow(lev)
        self._schreier_sims()

    def contains(self, rows: np.ndarray) -> np.ndarray:
        """Membership of the elements with these base images, one row of
        row numbers each: an element is a member iff it sifts to 1."""
        return self._sift(rows.astype(self.perms.dtype), 0) == len(self.levels)

    def members(self, mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (C, n) row numbers of a (C, n, n) array of matrices, and
        which are elements: all n rows on the table, and their numbers,
        the base images, sift to 1."""
        rows, found = self.table.numbers(mats)
        member = found.all(axis=1)
        member[member] = self.contains(rows[member])
        return rows, member

    def _residue(self, perm: np.ndarray, start: int, rows: np.ndarray) -> np.ndarray:
        """The row-image table of perm sifted from level start: its base
        images and all its images are one row of the sift.  The base
        images must come out as `rows`, perm's base images sifted alone,
        which moved a base point; else WitnessCheckFailed."""
        x = np.concatenate((perm[self.base], perm))[None].astype(self.perms.dtype)
        self._sift(x, start)
        if not np.array_equal(x[0, :len(self.base)], rows):
            raise WitnessCheckFailed("a composed residue differs from the sifted rows")
        return x[0, len(self.base):]

    def _transversal(self, lev: _Level, o: int) -> np.ndarray:
        """The row-image table of t_o, the product of the tree labels from
        the root down to orbit point o: walking up, each label is composed
        in front."""
        t = np.arange(self.perms.shape[1], dtype=self.perms.dtype)
        while o:
            t = t[self.perms[lev.label[o]]]
            o = lev.parent[o]
        return t

    def _store(self, perm: np.ndarray) -> int:
        """Add perm and its inverse to the table; the id of perm.  A full
        table grows by half, not double: a row is a whole permutation."""
        if self._count + 2 > len(self.perms):
            more = np.empty((len(self.perms) // 2, self.perms.shape[1]), dtype=self.perms.dtype)
            self.perms = np.concatenate([self.perms, more])
        k = self._count
        self.perms[k] = perm
        self.perms[k + 1][perm] = np.arange(len(perm))
        self._count += 2
        return k

    def _add_generator(self, perm: np.ndarray, lo: int) -> int:
        """Add perm, which moves a base point, to the generators of the
        levels from lo to the first whose point it moves, and return that
        level.  The caller grows those levels' orbits."""
        moved = int(np.nonzero(perm[self.base] != self.base)[0][0])
        k = self._store(perm)
        for lev in self.levels[lo:moved + 1]:
            lev.gens.append(k)
        return moved

    def _grow(self, lev: _Level) -> None:
        """Close the orbit under the level's generators.  Points already in
        the orbit keep their tree edges, so the Schreier generators already
        sifted stay valid.  While the new points lie deeper than twice
        log2 of the orbit length, the transversal element of the deepest
        one becomes one more tree label (a shortcut, not a strong
        generator), and the new points are placed again; a sift strips one
        edge per step, so this bounds its steps."""
        old = len(lev.orbit)
        # the old points are closed under the labels the orbit was grown by
        fresh = [s for g in lev.gens[lev.closed:] for s in (g, g ^ 1)]
        lev.closed = len(lev.gens)
        self._extend(lev, fresh)
        for _ in range(_SHORTCUTS):
            if len(lev.orbit) == old:
                break
            deepest = old + int(np.argmax(lev.depth[old:]))
            if lev.depth[deepest] <= 2 * len(lev.orbit).bit_length():
                break
            k = self._store(self._transversal(lev, deepest))
            lev.shortcuts.append(k)
            fresh += [k, k ^ 1]
            lev.where[lev.orbit[old:]] = -1
            for name in ("orbit", "parent", "label", "depth", "rows"):
                setattr(lev, name, getattr(lev, name)[:old])
            self._extend(lev, fresh)
        tested = np.zeros((len(lev.orbit), len(lev.gens)), dtype=bool)
        tested[:lev.tested.shape[0], :lev.tested.shape[1]] = lev.tested
        # a tree edge o -s-> p gives the trivial Schreier generator (o, s),
        # and o -s^-1-> p the trivial (p, s); generator ids are even
        column = np.full(self._count, -1)
        column[lev.gens] = np.arange(len(lev.gens))
        new = np.arange(old, len(lev.orbit))
        ahead, back = column[lev.label[new]], column[lev.label[new] ^ 1]
        tested[lev.parent[new][ahead >= 0], ahead[ahead >= 0]] = True
        tested[new[back >= 0], back[back >= 0]] = True
        lev.tested = tested
        lev.untested = None

    def _extend(self, lev: _Level, fresh: list[int]) -> None:
        """Breadth-first search: the orbit's points by the fresh labels, then
        each wave of new points by every generator, shortcut and inverse.
        A point reached twice in a wave takes the first label, then the
        first source; new points follow their parents."""
        labels = np.array([s for g in lev.gens + lev.shortcuts for s in (g, g ^ 1)])
        current = np.array(fresh, dtype=labels.dtype)
        count = len(lev.orbit)
        index, points, depth, rows = np.arange(count), lev.orbit, lev.depth, lev.rows
        found = []
        while len(index) and len(current):
            image = self.perms[current[:, None], points].ravel()
            hits = np.nonzero(lev.where[image] < 0)[0]
            new, first = np.unique(image[hits], return_index=True)
            s, src = np.divmod(hits[first], len(points))
            s = current[s]
            lev.where[new] = count + np.arange(len(new))
            count += len(new)
            depth, rows = depth[src] + 1, self.perms[s[:, None], rows[src]]
            found.append((new, index[src], s, depth, rows))
            points, index, current = new, np.arange(count - len(new), count), labels
        for name, parts in zip(("orbit", "parent", "label", "depth", "rows"), zip(*found)):
            setattr(lev, name, np.concatenate((getattr(lev, name),) + parts))

    def _sift(self, x: np.ndarray, start: int) -> np.ndarray:
        """Strip the elements x (rows, modified in place) through the levels
        from start on; the level each one drops out at, n if it sifts to 1.
        At level i an element walks its point up the Schreier tree, each
        step one gather by an inverse label on the rows from i on (the
        labels fix the base points before i).  Sorted deepest first, the
        elements still walking are a prefix."""
        n = len(self.levels)
        drop = np.full(len(x), n)
        live = np.arange(len(x))
        for i in range(start, n):
            lev = self.levels[i]
            at = lev.where[x[live, i]]
            drop[live[at < 0]] = i
            live, at = live[at >= 0], at[at >= 0]
            order = np.argsort(-lev.depth[at], kind="stable")
            live, at = live[order], at[order]
            y = x[live, i:]
            steps = np.bincount(lev.depth[at], minlength=1)[::-1].cumsum()[::-1]
            for c in steps[1:]:
                back = lev.label[at[:c]] ^ 1
                y[:c] = self.perms[back[:, None], y[:c]]
                at[:c] = lev.parent[at[:c]]
            x[live, i:] = y
        return drop

    def _schreier_sims(self) -> None:
        """Sift Schreier generators deepest level first until every one
        sifts to 1, or the order reaches the bound; once level i is done,
        the levels from i on are a base and strong generating set of the
        group its generators make (Holt, Eick and O'Brien 2005, ch. 4)."""
        n = len(self.levels)
        i = n - 1
        chunk = _FIRST_SIFT
        while i >= 0 and self.order != self.bound:
            lev = self.levels[i]
            if lev.untested is None:
                lev.untested = np.nonzero(~lev.tested)
            o, s = (a[:chunk] for a in lev.untested)
            if not len(o):
                i -= 1
                continue
            x = self.perms[np.array(lev.gens)[s][:, None], lev.rows[o]]
            drop = self._sift(x, i)
            passed = drop == n
            lev.tested[o[passed], s[passed]] = True
            if passed.all():
                lev.untested = tuple(a[len(o):] for a in lev.untested)
                chunk = min(2 * chunk, _SIFT_CHUNK)
                continue
            lev.untested = None
            failed = np.nonzero(~passed)[0]
            k = failed[np.lexsort(x[failed].T)[0]]
            t = self.perms[lev.gens[s[k]]][self._transversal(lev, o[k])]
            j = self._add_generator(self._residue(t, i, x[k]), i + 1)
            for grown in self.levels[i + 1:j + 1]:
                self._grow(grown)
            i = j
        # the order is exact only if every orbit is closed under its level's
        # generators and either every Schreier generator of each level has
        # sifted or the order has reached its bound, which it cannot pass
        if self.bound is not None and self.order > self.bound:
            raise WitnessCheckFailed("the stabilizer chain's order passes its bound")
        complete = self.order == self.bound
        for lev in self.levels:
            images = self.perms[np.array(lev.gens, dtype=np.intp)[:, None], lev.orbit]
            if lev.tested.shape != (len(lev.orbit), len(lev.gens)) \
                    or not (complete or lev.tested.all()) or np.any(lev.where[images] < 0):
                raise WitnessCheckFailed("the stabilizer chain is not closed")

    def _transversal_action(self, lev: _Level, rows: np.ndarray) -> np.ndarray:
        """(len(orbit), len(rows)): the images of the rows under each t_o,
        pushed down the Schreier tree one depth at a time."""
        out = np.empty((len(lev.orbit), len(rows)), dtype=self.perms.dtype)
        out[0] = rows
        for d in range(1, int(lev.depth.max()) + 1):
            at = np.nonzero(lev.depth == d)[0]
            out[at] = self.perms[lev.label[at][:, None], out[lev.parent[at]]]
        return out

    def _cosets(self, i: int, below: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For the elements `below` of G^(i+1), as row numbers at positions
        i+1..n-1: the action of level i's transversal on the rows they use
        at positions i..n-1, and those positions as indices into it.  So
        act[:, at] lists G^(i) as the union of the cosets G^(i+1)·t_o."""
        lev = self.levels[i]
        sub = np.column_stack([np.full(len(below), lev.point, dtype=below.dtype), below])
        used = np.zeros(len(lev.where), dtype=bool)
        used[sub] = True
        return self._transversal_action(lev, np.nonzero(used)[0]), (np.cumsum(used) - 1)[sub]

    def keys(self) -> np.ndarray:
        """Sorted keys of the group, each element built once as a product
        h·t_o of h in G^(i+1) and a transversal element t_o of level i.
        The top level is written into one key array 2^18 elements at a
        time; WitnessCheckFailed unless its keys are distinct."""
        n = len(self.levels)
        top = next((i for i, lev in enumerate(self.levels) if len(lev.orbit) > 1), n)
        if top == n:
            return self.table.identity.copy()
        below = np.zeros((1, 0), dtype=self.perms.dtype)
        for i in range(n - 1, top, -1):
            act, at = self._cosets(i, below)
            below = act[:, at].reshape(-1, n - i)
        act, at = self._cosets(top, below)
        keys = np.empty(self.order, dtype=self.table.pack.dtype)
        step = max(1, (1 << 18) // len(at))
        for lo in range(0, len(act), step):
            part = act[lo:lo + step][:, at]
            size = part.shape[0] * part.shape[1]
            cols = [np.full(size, b) for b in self.base[:top]]
            cols += [part[..., j].ravel() for j in range(n - top)]
            keys[lo * len(at):lo * len(at) + size] = self.table.pack.encode(cols)
        keys.sort()
        if np.any(keys[1:] == keys[:-1]):
            raise WitnessCheckFailed("two products of transversal elements are equal")
        return keys


# ---------------------------------------------------------------------------
# element sets
# ---------------------------------------------------------------------------

def _int_array(m) -> Optional[np.ndarray]:
    """The probe of a view's `in` as an integer array, or None if it is
    not a rectangular array of integers that fit in 64 bits (ragged, a
    string, floats, larger ints)."""
    try:
        probe = np.asarray(m)
    except ValueError:
        return None
    return probe if probe.dtype.kind in "iu" else None


def _same_items(seq: Sequence, other) -> bool:
    """Sequence equality of a view with any non-string sequence: the same
    length and equal items in the same order."""
    if not isinstance(other, Sequence) or isinstance(other, str):
        return NotImplemented
    return len(seq) == len(other) and all(x == y for x, y in zip(seq, other))


class ElementSet(Sequence):
    """The enumerated elements of a group, decoded lazily from sorted keys.

    The set of a group's chain (`closure_enumerate`) counts from the chain:
    its length is the chain's order, and its keys are built by
    `_StabilizerChain.keys` on the first read that needs them (indexing,
    iteration, `in`, `==`, `entry_chunks`) and then kept.  `in` reads the
    keys alone; indexing and iteration decode (iteration ARRAY_CHUNK keys
    at a time).  A view equals any sequence with the same elements in the
    same order, like a tuple of them.
    """

    def __init__(self, space: SympSpace, table: _RowTable, keys: np.ndarray):
        self.space = space
        self._table = table
        self._built = keys
        self._chain: Optional[_StabilizerChain] = None
        self._len = len(keys)

    @classmethod
    def _of_chain(cls, space: SympSpace, chain: _StabilizerChain) -> "ElementSet":
        """The elements of the chain's group, counted now, listed on first read."""
        view = cls(space, chain.table, chain.table.identity[:0])
        view._built, view._chain, view._len = None, chain, chain.order
        return view

    @property
    def _keys(self) -> np.ndarray:
        if self._built is None:
            keys = self._chain.keys()
            if len(keys) != self._len:
                raise WitnessCheckFailed("the chain changed after its elements were counted")
            self._built, self._chain = keys, None
        return self._built

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i: int) -> SqMatrix:
        i = range(len(self))[i]
        return SqMatrix(self.space, self._table.mats(self._keys[i:i + 1])[0])

    def __iter__(self) -> Iterator[SqMatrix]:
        for lo in range(0, len(self), ARRAY_CHUNK):
            for m in self._table.mats(self._keys[lo:lo + ARRAY_CHUNK]):
                yield SqMatrix(self.space, m)

    def __eq__(self, other) -> bool:
        if isinstance(other, ElementSet) and other._table is self._table:
            return len(self) == len(other) and np.array_equal(self._keys, other._keys)
        return _same_items(self, other)

    __hash__ = None

    def entry_chunks(self) -> Iterator[np.ndarray]:
        """The (C, n, n) entry arrays of the elements in order, ARRAY_CHUNK
        elements at a time."""
        for lo in range(0, len(self), ARRAY_CHUNK):
            yield self._table.entry_array(self._keys[lo:lo + ARRAY_CHUNK])

    def __contains__(self, m) -> bool:
        """Whether m (a SqMatrix or an n x n array of field element
        indices) is an element; False for any other probe."""
        probe = _int_array(m.rows if isinstance(m, SqMatrix) else m)
        n = self.space.n
        if probe is None or probe.shape != (n, n) \
                or not np.all((0 <= probe) & (probe < self.space.field.order)):
            return False
        key = self._table.key_of(probe)
        return key is not None and bool(_find(self._keys, key)[1][0])


class MatSequence(Sequence):
    """A read-only sequence of m x m `Mat`s over a (C, m, m) array of field
    element indices; each matrix is decoded when it is read.  `in` compares
    against the array without decoding.  Like ElementSet, it equals any
    sequence with the same matrices in the same order."""

    def __init__(self, mats: np.ndarray):
        self._mats = mats

    def __len__(self) -> int:
        return len(self._mats)

    def __getitem__(self, i: int) -> Mat:
        return tuple(map(tuple, self._mats[operator.index(i)].tolist()))

    def __iter__(self) -> Iterator[Mat]:
        for lo in range(0, len(self), ARRAY_CHUNK):
            for m in self._mats[lo:lo + ARRAY_CHUNK].tolist():
                yield tuple(map(tuple, m))

    def __contains__(self, m) -> bool:
        probe = _int_array(m)
        return (probe is not None and probe.shape == self._mats.shape[1:]
                and bool(np.any(np.all(self._mats == probe, axis=(1, 2)))))

    def __eq__(self, other) -> bool:
        if isinstance(other, MatSequence):
            return np.array_equal(self._mats, other._mats)
        return _same_items(self, other)

    __hash__ = None


# ---------------------------------------------------------------------------
# matrix groups
# ---------------------------------------------------------------------------

@dataclass
class MatrixGroup:
    """A finitely generated subgroup of GSp(V)."""

    space: SympSpace
    generators: tuple[SqMatrix, ...]
    cache: Optional[ElementSet] = field(default=None, init=False, compare=False)
    # the row table the chain lives on; a subgroup's is its group's
    _table: Optional[_RowTable] = field(default=None, init=False, compare=False)
    _chain: Optional[_StabilizerChain] = field(default=None, init=False, compare=False)
    # the generators' multipliers, as field element indices; the conjugates
    # normal_closure adds need none, since mu(a^-1·s·a) = mu(s)
    _multipliers: tuple[int, ...] = field(default=(), init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.generators:
            raise ValueError("need at least one generator")
        n, q = self.space.n, self.space.field.order
        multipliers = []
        for g in self.generators:
            if g.space != self.space:
                raise ValueError("generator over the wrong space")
            if len(g.rows) != n or any(len(r) != n for r in g.rows):
                raise ValueError(f"generator is not {n} x {n}")
            # a row key packs each entry into the bits q - 1 needs, so a
            # larger entry would carry into the next one (`_Packing`)
            if not all(0 <= x < q for r in g.rows for x in r):
                raise ValueError(f"generator has an entry outside [0, {q})")
            try:
                multipliers.append(multiplier_of(g))
            except (Singular, NotSimilitude):
                raise ValueError("generator is not an invertible similitude") from None
        self._multipliers = tuple(multipliers)

    def elements(self, cap: int = DEFAULT_CAP) -> ElementSet:
        if self.cache is not None and len(self.cache) <= cap:
            return self.cache
        self.cache = closure_enumerate(self, cap)
        return self.cache

    def chain(self, cap: int = DEFAULT_CAP) -> _StabilizerChain:
        """The group's stabilizer chain, built on first use.  Only a row
        search is bounded: more than n·cap rows raise CapExceeded.  A cap
        below 1 raises InvalidParams.

        The chain stops at the order bound |Sp_n(F_q)|·|<mu(gens)>|: the
        multiplier mu is a homomorphism G -> F_q^x whose kernel G ∩ Sp(V)
        has at most |Sp_n(F_q)| elements and whose image is the cyclic
        group the generators' multipliers generate."""
        check_cap(cap)
        if self._chain is None:
            if self._table is None:
                self._table = _RowTable(self.space, [m.rows for m in self.generators], cap)
            spec = self.space.field
            bound = sp_order(self.space.n, spec.order) * _unit_group_order(spec, self._multipliers)
            self._chain = _StabilizerChain(
                self._table, [self._table.image_of(m.rows) for m in self.generators], bound)
        return self._chain

    def order(self, cap: int = DEFAULT_CAP) -> int:
        """|G| from the stabilizer chain, with no element built."""
        return self.chain(cap).order

    def subgroup(self, gens: Sequence[SqMatrix], cap: int = DEFAULT_CAP) -> "MatrixGroup":
        """The subgroup generated by gens, elements of this group.  Its
        chain, built on first use, lives on this group's row table: no row
        search of its own.  A generator's rows are its base images, so it
        is sifted through this group's chain by their numbers; one with a
        row off the table, or that does not sift to 1, raises NotSubgroup."""
        h = MatrixGroup(self.space, tuple(gens))
        chain = self.chain(cap)
        if not chain.members(np.array([m.rows for m in h.generators]))[1].all():
            raise NotSubgroup("a generator is not an element of the group")
        h._table = chain.table
        return h


def group(space: SympSpace, generators) -> MatrixGroup:
    return MatrixGroup(space, tuple(generators))


def _cache_path(space: SympSpace, gens, table: _RowTable) -> Optional[str]:
    root = os.environ.get("SYMPAL_CACHE_DIR")
    if not root:
        return None
    doc = {
        "field": [space.field.ell, space.field.degree, list(space.field.modulus)],
        "n": space.n,
        "gram": [list(r) for r in space.gram],
        "generators": [[list(r) for r in g.rows] for g in gens],
        # the keys number these rows; a subgroup's are its group's
        "rows": hashlib.sha256(table.row_keys.tobytes()).hexdigest(),
    }
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    return os.path.join(root, f"closure-{digest}.npy")


def check_cap(cap: int) -> None:
    """InvalidParams if the cap is below 1."""
    if cap < 1:
        raise InvalidParams(f"cap must be at least 1, not {cap}")


def closure_enumerate(g: MatrixGroup, cap: int = DEFAULT_CAP) -> ElementSet:
    """Full element set of <generators> if its order is at most `cap`.

    Deterministic: elements are listed in increasing reversed-entry-tuple
    order.  Raises CapExceeded past the cap, with the group's order from
    the stabilizer chain, before any element is built, or with the count
    of rows when more than n·cap rows are reached first.

    The set counts from the chain, and its keys are built from the chain
    on the first read that needs them (`ElementSet`).  With
    SYMPAL_CACHE_DIR set they are built at once and written to one
    `closure-<hash>.npy` file there, which nothing reads back: checking a
    file costs more than building the keys.  A write that fails with
    OSError is skipped.
    """
    chain = g.chain(cap)
    if chain.order > cap:
        raise CapExceeded(chain.order,
                          f"the group order {chain.order} is past the enumeration cap {cap}")
    elems = ElementSet._of_chain(g.space, chain)
    path = _cache_path(g.space, g.generators, chain.table)
    if path:
        tmp = path + f".tmp{os.getpid()}.npy"   # np.save insists on the suffix
        try:
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            np.save(tmp, elems._keys)
            os.replace(tmp, path)
        except OSError:
            with contextlib.suppress(OSError):
                os.remove(tmp)
    return elems


def group_order(g: MatrixGroup, cap: int = DEFAULT_CAP) -> int:
    """|G| if it is at most `cap`, else CapExceeded (`closure_enumerate`).
    The count is the chain's order, so no key is built or sorted unless
    SYMPAL_CACHE_DIR asks for the closure file."""
    return len(g.elements(cap))


def _unit_group_order(spec: FieldSpec, units: Sequence[int]) -> int:
    """The order of the subgroup of F_q^x the units generate: the least
    divisor d of q - 1 with u^d = 1 for every unit u."""
    ctx, d = spec.ctx, spec.order - 1
    for p in factorize(d):
        while d % p == 0 and all(ctx.pow(u, d // p) == 1 for u in units):
            d //= p
    return d


def sp_order(n: int, q: int) -> int:
    """|Sp_n(F_q)| = q^(m^2) * prod_{i=1..m} (q^(2i) - 1), n = 2m."""
    m = n // 2
    out = q ** (m * m)
    for i in range(1, m + 1):
        out *= q ** (2 * i) - 1
    return out


def transvection_keys(g: MatrixGroup, cap: int = DEFAULT_CAP) -> np.ndarray:
    """The sorted keys, on G's row table, of the candidates for G's
    nontrivial transvections that are members, with no element of G built.
    T = I + lam·v(Jv)^T, v_i = 1 the first nonzero entry of v, has rows
    e_0..e_(i-1), so it fixes the first i base points, and row i
    r = e_i + u, u = lam·Jv: if T is in G, r is a point of level i's
    orbit.  And x = J^-1·u = lam·v is zero before i with x_i = lam.  So
    each orbit point r of level i where x = J^-1·(r - e_i) is zero before
    i and x_i is not gives one candidate, T = I + (x/x_i)·u^T, ARRAY_CHUNK
    points at a time; it is a member iff it sifts to 1
    (`_StabilizerChain.members`).  Sorted by key, the members are in
    element order."""
    chain = g.chain(cap)
    table, spec, n = chain.table, g.space.field, g.space.n
    ctx = spec.ctx
    exp, log = (np.frombuffer(t, dtype=np.int64) for t in ctx.exp_log())
    to_x = ctx.linear_map([[1]], linalg.transpose(linalg.inverse(spec, g.space.gram)))
    eye = ctx.digit_array(linalg.identity(n))
    found = []
    for i, lev in enumerate(chain.levels):
        for lo in range(0, len(lev.orbit), ARRAY_CHUNK):
            r = ctx.digit_array(table.entries[lev.orbit[lo:lo + ARRAY_CHUNK]])
            u = (r - eye[i]) % ctx.ell
            x = ctx.apply_map(to_x, ctx.index_array(u))[:, 0]     # x = (r - e_i)·J^-T
            keep = ~x[:, :i].any(axis=1) & (x[:, i] != 0)
            lam_inv = ctx.digit_array(exp[-log[x[keep, i]] % len(exp)])
            v = ctx.product_digits(ctx.digit_array(x[keep]), lam_inv[:, None])
            outer = ctx.product_digits(v[:, :, None], u[keep, None])
            mats = ctx.index_array((eye + outer) % ctx.ell)
            rows, member = chain.members(mats)
            found.append(rows[member])
    return np.sort(table.pack.encode(list(np.concatenate(found).T)))


def decode_transvections(g: MatrixGroup, keys: np.ndarray, cap: int = DEFAULT_CAP
                         ) -> list[tuple[SqMatrix, TransvectionData]]:
    """The elements with these keys on G's row table, each with its
    transvection data; detect_transvection decides each exactly, and one it
    does not find nontrivial raises WitnessCheckFailed."""
    out = []
    for m in g.chain(cap).table.mats(keys):
        m = SqMatrix(g.space, m)
        verdict = detect_transvection(m)
        if verdict.kind is not TransvectionKind.NONTRIVIAL:
            raise WitnessCheckFailed("a sifted candidate is not a nontrivial transvection")
        out.append((m, verdict.data))
    return out


def harvest_transvections(g: MatrixGroup, cap: int = DEFAULT_CAP
                          ) -> list[tuple[SqMatrix, TransvectionData]]:
    """All nontrivial transvections of G in element order, with no element
    of G built: `transvection_keys`, decoded and checked by
    `decode_transvections`."""
    return decode_transvections(g, transvection_keys(g, cap), cap)


def normal_closure(g: MatrixGroup, seeds: Sequence[SqMatrix],
                   cap: int = DEFAULT_CAP) -> MatrixGroup:
    """The smallest subgroup of g containing the seeds (elements of g, else
    NotSubgroup) and stable under conjugation by g's generators.  Each
    conjugate a^-1·s·a of a generator s is composed from the row-image
    tables the two chains already hold and sifted; one that grows the
    group joins the generators.  Since mu(a^-1·s·a) = mu(s), the closure
    keeps the seeds' order bound |Sp_n(F_q)|·|<mu(seeds)>|, so its chain
    stops once it reaches it.  No element is built, so only g's row
    search is bounded by the cap."""
    k = g.subgroup([s for s in seeds if not s.is_identity()] or [identity_mat(g.space)], cap)
    chain = k.chain(cap)
    conjugators = [(a, np.argsort(a)) for a in g.chain(cap).images]
    work = list(chain.images)
    while work:
        s = work.pop()
        for a, a_inv in conjugators:
            c = a[s[a_inv]]
            if chain.extend(c, bound=chain.bound):
                work.append(c)
                k.generators += (SqMatrix(g.space, chain.table.mat(c[chain.base])),)
    return k


# ---------------------------------------------------------------------------
# spinning and irreducibility
# ---------------------------------------------------------------------------

def spin(space: SympSpace, generators: Sequence[SqMatrix], seed: Vec) -> Subspace:
    """Smallest generator-invariant subspace containing the seed vector."""
    if not any(seed):
        raise ValueError("seed must be nonzero")
    basis: list[list[int]] = []
    linalg.extend_echelon(space.field, basis, seed)
    frontier = [tuple(seed)]
    while frontier and len(basis) < space.n:
        new = []
        for v in frontier:
            for g in generators:
                w = g.apply(v)
                if linalg.extend_echelon(space.field, basis, w):
                    new.append(w)
        frontier = new
    return Subspace.from_vectors(space, basis)


@dataclass(frozen=True)
class IrreducibilityResult:
    irreducible: bool
    witness: Optional[Subspace] = None

    def __bool__(self) -> bool:
        return self.irreducible


def _random_combination(spec: FieldSpec, items: Sequence[tuple], rng: random.Random) -> tuple:
    """A seeded random linear combination of equal-length tuples."""
    ctx = spec.ctx
    out = [0] * len(items[0])
    for item in items:
        c = rng.randrange(spec.order)
        if c:
            out = [ctx.add(x, ctx.mul(c, y)) for x, y in zip(out, item)]
    return tuple(out)


def is_irreducible(g: MatrixGroup, seed: int = 0) -> IrreducibilityResult:
    """Decide irreducibility of the natural module exactly, by Norton's test
    in the form of Holt and Rees ("Testing modules for irreducibility", 1994).

    Each round adds a product of two random generator words to a list of
    words and draws theta, a random linear combination of the list.  For
    each irreducible factor p of theta's characteristic polynomial, a
    random nonzero vector of N = ker p(theta) is spun; a proper spin is the
    witness.  If dim N = deg p, N is one-dimensional over F[x]/(p), so every
    proper submodule U either contains N or meets it in 0, and then
    p(theta) is invertible on U and ker p(theta)^T lies in the annihilator
    of U.  Spinning a vector of ker p(theta)^T under the transposed
    generators therefore decides: a proper spin gives its annihilator as
    the witness, a full one proves irreducibility.  Otherwise the next
    factor, then the next theta, is tried.  Every verdict is proved; the
    seed only picks which elements and vectors are tried, and so which
    witness is returned.  NORTON_ROUNDS rounds without a decision raise
    WitnessCheckFailed.
    """
    space, gens = g.space, g.generators
    spec, n = space.field, space.n
    rng = random.Random(seed)
    dual = [SqMatrix(space, linalg.transpose(m.rows)) for m in gens]
    words = [m.rows for m in gens]
    for _ in range(NORTON_ROUNDS):
        words.append(linalg.mat_mul(spec, rng.choice(words), rng.choice(words)))
        flat = _random_combination(spec, [sum(w, ()) for w in words], rng)
        theta = tuple(flat[i * n:(i + 1) * n] for i in range(n))
        for p in poly_factors(spec, linalg.charpoly(spec, theta), rng):
            p_theta = linalg.mat_poly(spec, p, theta)
            kernel = linalg.nullspace(spec, p_theta, n)
            v: Vec = ()
            while not any(v):
                v = _random_combination(spec, kernel, rng)
            w = spin(space, gens, v)
            if w.dim < n:
                return IrreducibilityResult(False, w)
            if len(kernel) == len(p) - 1:
                dual_kernel = linalg.nullspace(spec, linalg.transpose(p_theta), n)
                wd = spin(space, dual, dual_kernel[0])
                if wd.dim < n:
                    ann = linalg.nullspace(spec, wd.basis, n)
                    return IrreducibilityResult(False, Subspace(space, ann))
                return IrreducibilityResult(True)
    raise WitnessCheckFailed(f"Norton's test found no deciding factor in {NORTON_ROUNDS} rounds")


# ---------------------------------------------------------------------------
# fixture files
# ---------------------------------------------------------------------------

def to_fixture(g: MatrixGroup) -> dict:
    space = g.space
    std = space.gram == standard_gram(space.field, space.n)
    return {
        "field": {"ell": space.field.ell, "degree": space.field.degree,
                  "modulus": list(space.field.modulus)},
        "n": space.n,
        "gram": "standard" if std else
                [[list(space.field.ctx.digits(x)) for x in row] for row in space.gram],
        "generators": [m.serialize() for m in g.generators],
    }


def from_fixture(doc: dict) -> MatrixGroup:
    """The group of a fixture document.  `ell`, `degree` and `n` must be
    ints (not bools), and every generator and Gram entry a list of at most
    `degree` ints in [0, ell), else ValueError."""
    from .ffield import field_make

    f = doc["field"]
    spec = field_make(exact_int(f["ell"], "fixture ell"), exact_int(f["degree"], "fixture degree"))
    if "modulus" in f and tuple(f["modulus"]) != spec.modulus:
        raise ValueError("non-canonical field modulus in fixture")
    n = exact_int(doc["n"], "fixture n")

    def entry(x) -> int:
        if not (isinstance(x, list) and len(x) <= spec.degree
                and all(type(c) is int and 0 <= c < spec.ell for c in x)):
            raise ValueError(f"fixture entry {x!r} is not a list of at most "
                             f"{spec.degree} ints in [0, {spec.ell})")
        return spec.ctx.encode(x)

    def grid(rows) -> Mat:
        return tuple(tuple(entry(x) for x in row) for row in rows)

    if doc["gram"] == "standard":
        space = SympSpace.standard(spec, n)
    else:
        space = SympSpace(spec, n, grid(doc["gram"]))
    return MatrixGroup(space, tuple(SqMatrix(space, grid(g)) for g in doc["generators"]))
