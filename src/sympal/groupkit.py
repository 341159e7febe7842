"""Finitely generated matrix groups: closure enumeration, transvection
harvesting, normal closures, spinning, and irreducibility.

One closure kernel serves every field and size.  Its unit is a key: a
fixed number of small non-negative integers (slots) packed into 64-bit
words, sorted by the last slot first (`_Packing`).  One breadth-first
search over keys (`_reach`) runs twice:

* over rows: a row vector is its n entries, and row·g is an F_ell-linear
  map of the entries' base-ell digits, one integer matrix product per
  generator, so no field needs multiplication tables.  Sorted row keys
  number the rows reached from the identity's rows in increasing
  reversed-coordinate order, and each generator gets a table from a row's
  number to the number of row·g;
* over elements: an element is its n row numbers, so a product with a
  generator is n gathers.

Sorted element keys list the elements in increasing reversed-entry-tuple
order.  More than n·cap rows raise CapExceeded before any element is
built, since every row is row i of some element.

Irreducibility of the natural module needs no enumeration at all: Norton's
test (`is_irreducible`) spins a few vectors chosen from the kernels of
polynomials in random algebra elements, and decides exactly at every size.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import zipfile
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from . import linalg
from .errors import CapExceeded, WitnessCheckFailed
from .ffield import FieldSpec, poly_factors
from .linalg import Mat, Vec
from .symplectic import (
    SqMatrix,
    Subspace,
    SympSpace,
    TransvectionData,
    TransvectionKind,
    detect_transvection,
    is_similitude,
    standard_gram,
)

DEFAULT_CAP = 2 * 10**7
# hashed into cache file names, so files of another key encoding never load
_KEY_ENCODING = "row-index-v1"
# cached elements whose products with each generator on the left are checked
_LEFT_SAMPLE = 64
_WORD = (1 << 64) - 1
# Rounds of Norton's test before is_irreducible gives up.  Each round decides
# with probability bounded below by a constant (Holt and Rees), and the test
# corpus never needed more than 4, so reaching this bound means a bug.
NORTON_ROUNDS = 256


# ---------------------------------------------------------------------------
# the closure kernel: packed keys, one search, row tables
# ---------------------------------------------------------------------------

class _Packing:
    """Keys of `slots` integers below 2^bits, sorted by the last slot first.

    Slot i sits in word i // per at bit (i % per)·bits, per = 64 // bits.
    A one-word key is a uint64; a longer one is a void of its words stored
    big-endian, most significant first, so byte order is numeric order and
    sort, searchsorted and insert treat both alike.
    """

    def __init__(self, slots: int, bits: int):
        per = 64 // bits
        self.words = -(-slots // per)
        self.dtype = np.dtype(np.uint64) if self.words == 1 else np.dtype(f"V{8 * self.words}")
        self.place = [(i // per, np.uint64(i % per * bits)) for i in range(slots)]
        self.offsets = [i // per * 64 + i % per * bits for i in range(slots)]
        self.mask = np.uint64((1 << bits) - 1)

    def _keys(self, words: np.ndarray) -> np.ndarray:
        """Keys from an (N, words) uint64 array, least significant word first."""
        if self.words == 1:
            return words[:, 0]
        return np.ascontiguousarray(words[:, ::-1], dtype=">u8").view(self.dtype).ravel()

    def _words(self, keys: np.ndarray) -> np.ndarray:
        if self.words == 1:
            return keys[:, None]
        big = np.ascontiguousarray(keys).view(">u8").reshape(len(keys), self.words)
        return big[:, ::-1].astype(np.uint64)

    def encode(self, cols: Sequence[np.ndarray]) -> np.ndarray:
        words = np.zeros((len(cols[0]), self.words), dtype=np.uint64)
        for col, (j, shift) in zip(cols, self.place):
            words[:, j] |= col.astype(np.uint64, copy=False) << shift
        return self._keys(words)

    def slots(self, keys: np.ndarray) -> Iterator[np.ndarray]:
        words = self._words(keys)
        for j, shift in self.place:
            yield (words[:, j] >> shift) & self.mask

    def decode(self, keys: np.ndarray) -> list[np.ndarray]:
        return list(self.slots(keys))

    def from_slots(self, slot_lists) -> np.ndarray:
        """Keys of Python integer sequences, one per key."""
        ints = [sum(s << off for s, off in zip(slots, self.offsets)) for slots in slot_lists]
        words = np.array([[k >> (64 * j) & _WORD for j in range(self.words)] for k in ints],
                         dtype=np.uint64).reshape(len(ints), self.words)
        return self._keys(words)


def _in_sorted(sorted_keys: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """Membership of each probe key in a sorted key array."""
    pos = np.minimum(np.searchsorted(sorted_keys, probe), len(sorted_keys) - 1)
    return sorted_keys[pos] == probe


def _reach(start: np.ndarray, steps: Sequence[Callable[[np.ndarray], np.ndarray]],
           limit: int) -> np.ndarray:
    """Sorted keys reached from the sorted distinct start keys by the steps,
    a level at a time; CapExceeded once more than `limit` are reached."""
    seen = frontier = start
    while len(frontier):
        keys = np.concatenate([step(frontier) for step in steps])
        keys.sort()
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        pos = np.searchsorted(seen, keys)
        fresh = seen[np.minimum(pos, len(seen) - 1)] != keys
        frontier = keys[fresh]
        seen = np.insert(seen, pos[fresh], frontier)
        if len(seen) > limit:
            raise CapExceeded(len(seen))
    return seen


class _RowTable:
    """The rows of <gens>, numbered, with one row-image table per generator."""

    def __init__(self, space: SympSpace, gens: Sequence[Mat], cap: int):
        spec, n = space.field, space.n
        self.spec, self.n, self.gens = spec, n, list(gens)
        self.ell = spec.ell
        self.powers = spec.ell ** np.arange(spec.degree, dtype=np.int64)
        self.row_pack = _Packing(n, max((spec.order - 1).bit_length(), 1))
        maps = [self._digit_map(g) for g in gens]
        steps = [lambda keys, m=m: self._row_times(keys, m) for m in maps]
        ident = linalg.identity(spec, n)
        self.row_keys = _reach(np.sort(self.row_pack.from_slots(ident)), steps, n * cap)
        self.entries = np.stack(self.row_pack.decode(self.row_keys), axis=1).astype(np.int64)
        self.pack = _Packing(n, max((len(self.row_keys) - 1).bit_length(), 1))
        self.images = [np.searchsorted(self.row_keys, step(self.row_keys)) for step in steps]
        self.identity = self.key_of(ident)

    def digits(self, x: np.ndarray) -> np.ndarray:
        """Base-ell digits of encoded field elements, on a new last axis."""
        return x[..., None] // self.powers % self.ell

    def _digit_map(self, g: Mat) -> np.ndarray:
        """row -> row·g on the rows' n·degree entry digits."""
        ctx, d = self.spec.ctx, self.spec.degree
        m = np.zeros((self.n * d, self.n * d), dtype=np.int64)
        for i, grow in enumerate(g):
            for k in range(d):
                m[i * d + k] = [x for gij in grow for x in ctx.digits(ctx.mul(gij, self.ell ** k))]
        return m

    def _row_times(self, keys: np.ndarray, m: np.ndarray) -> np.ndarray:
        x = self.digits(np.stack(self.row_pack.decode(keys), axis=1).astype(np.int64))
        y = x.reshape(len(keys), -1) @ m % self.ell
        return self.row_pack.encode(list((y.reshape(x.shape) @ self.powers).T))

    def times(self, cols: Sequence[np.ndarray], image: np.ndarray) -> np.ndarray:
        """Keys of the decoded elements times the generator with this row-image table."""
        return self.pack.encode([image[col] for col in cols])

    def key_of(self, m: Mat) -> Optional[np.ndarray]:
        """The one-key array of m, or None if a row of m is not a reached row."""
        probe = self.row_pack.from_slots(m)
        pos = np.searchsorted(self.row_keys, probe)
        if not np.array_equal(self.row_keys[np.minimum(pos, len(self.row_keys) - 1)], probe):
            return None
        return self.pack.encode(list(pos[:, None]))

    def mats(self, keys: np.ndarray) -> list[Mat]:
        rows = np.stack(self.pack.decode(keys), axis=1).astype(np.intp)
        return [tuple(map(tuple, m)) for m in self.entries[rows].tolist()]

    def is_closure(self, keys) -> bool:
        """Whether a key array read from disk is a closure over this table:
        of this table's key dtype, 1-D, strictly increasing, every key
        canonical, holding the identity, closed under one step by each
        generator, and, on up to _LEFT_SAMPLE evenly spaced keys x, holding
        g·x for each generator g.  A well-formed superset closed on both
        sides at the sampled keys is not caught."""
        if not (isinstance(keys, np.ndarray) and keys.dtype == self.pack.dtype
                and keys.ndim == 1 and len(keys)):
            return False
        if not (np.array_equal(np.sort(keys), keys) and np.all(keys[1:] != keys[:-1])):
            return False
        cols = self.pack.decode(keys)
        if any(np.any(col >= len(self.row_keys)) for col in cols) \
                or not np.array_equal(self.pack.encode(cols), keys):
            return False
        if not (_in_sorted(keys, self.identity)[0] and all(
                np.all(_in_sorted(keys, self.times(cols, image))) for image in self.images)):
            return False
        sample = np.linspace(0, len(keys) - 1, min(len(keys), _LEFT_SAMPLE)).astype(np.intp)
        for x in self.mats(keys[sample]):
            for g in self.gens:
                key = self.key_of(linalg.mat_mul(self.spec, g, x))
                if key is None or not _in_sorted(keys, key)[0]:
                    return False
        return True


def _closure_keys(table: _RowTable, cap: int) -> np.ndarray:
    """Sorted keys of the closure of the generators (with identity)."""
    steps = [lambda keys, image=image: table.times(table.pack.decode(keys), image)
             for image in table.images]
    return _reach(table.identity, steps, cap)


# ---------------------------------------------------------------------------
# element sets
# ---------------------------------------------------------------------------

class ElementSet(Sequence):
    """The enumerated elements of a group, decoded lazily from sorted keys."""

    _CHUNK_DECODE = 4096

    def __init__(self, space: SympSpace, table: _RowTable, keys: np.ndarray):
        self.space = space
        self._table = table
        self._keys = keys

    def __len__(self) -> int:
        return len(self._keys)

    def __getitem__(self, i: int) -> SqMatrix:
        i = range(len(self))[i]
        return SqMatrix(self.space, self._table.mats(self._keys[i:i + 1])[0])

    def __iter__(self) -> Iterator[SqMatrix]:
        for lo in range(0, len(self), self._CHUNK_DECODE):
            for m in self._table.mats(self._keys[lo:lo + self._CHUNK_DECODE]):
                yield SqMatrix(self.space, m)

    def __contains__(self, m) -> bool:
        if isinstance(m, SqMatrix):
            m = m.rows
        key = self._table.key_of(m)
        return key is not None and bool(_in_sorted(self._keys, key)[0])

    def indices_with_trace(self, t: int) -> np.ndarray:
        """Positions of the elements whose trace is the field element t.

        Field addition is digit-wise addition mod ell, so each element's
        trace digits are sums of per-row diagonal digits.
        """
        table = self._table
        acc = 0
        for i, col in enumerate(table.pack.slots(self._keys)):
            acc = acc + table.digits(table.entries[:, i])[col]
        hit = np.all(acc % table.ell == table.digits(np.int64(t)), axis=1)
        return np.nonzero(hit)[0]


# ---------------------------------------------------------------------------
# matrix groups
# ---------------------------------------------------------------------------

@dataclass
class MatrixGroup:
    """A finitely generated subgroup of GSp(V)."""

    space: SympSpace
    generators: tuple[SqMatrix, ...]
    cache: Optional[ElementSet] = field(default=None, compare=False)

    def __post_init__(self):
        if not self.generators:
            raise ValueError("need at least one generator")
        for g in self.generators:
            if g.space != self.space:
                raise ValueError("generator over the wrong space")
            if not is_similitude(g):
                raise ValueError("generator is not an invertible similitude")

    def elements(self, cap: int = DEFAULT_CAP) -> ElementSet:
        if self.cache is not None and len(self.cache) <= cap:
            return self.cache
        self.cache = closure_enumerate(self, cap)
        return self.cache


def group(space: SympSpace, generators) -> MatrixGroup:
    return MatrixGroup(space, tuple(generators))


def _cache_path(space: SympSpace, gens) -> Optional[str]:
    root = os.environ.get("SYMPAL_CACHE_DIR")
    if not root:
        return None
    doc = {
        "encoding": _KEY_ENCODING,
        "field": [space.field.ell, space.field.degree, list(space.field.modulus)],
        "n": space.n,
        "gram": [list(r) for r in space.gram],
        "generators": [[list(r) for r in g.rows] for g in gens],
    }
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    return os.path.join(root, f"closure-{digest}.npy")


def _load_closure(path: str, table: _RowTable) -> Optional[np.ndarray]:
    """The cached keys at path, or None if missing, unreadable or not a closure."""
    try:
        keys = np.load(path)
    except (OSError, ValueError, EOFError, zipfile.BadZipFile):
        return None
    return keys if table.is_closure(keys) else None


def closure_enumerate(g: MatrixGroup, cap: int = DEFAULT_CAP) -> ElementSet:
    """Full element set of <generators> if its order is at most `cap`.

    Deterministic: elements are listed in increasing reversed-entry-tuple
    order.  Raises CapExceeded past the cap, with the count of elements
    reached, or of rows when more than n·cap rows are reached first.  A
    cache file that fails `_RowTable.is_closure` is recomputed and
    overwritten.
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    table = _RowTable(g.space, [m.rows for m in g.generators], cap)
    path = _cache_path(g.space, g.generators)
    keys = _load_closure(path, table) if path else None
    if keys is None:
        keys = _closure_keys(table, cap)
        if path:
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            tmp = path + f".tmp{os.getpid()}.npy"   # np.save insists on the suffix
            np.save(tmp, keys)
            os.replace(tmp, path)
    elif len(keys) > cap:
        raise CapExceeded(len(keys))
    return ElementSet(g.space, table, keys)


def group_order(g: MatrixGroup, cap: int = DEFAULT_CAP) -> int:
    return len(g.elements(cap))


def sp_order(n: int, q: int) -> int:
    """|Sp_n(F_q)| = q^(m^2) * prod_{i=1..m} (q^(2i) - 1), n = 2m."""
    m = n // 2
    out = q ** (m * m)
    for i in range(1, m + 1):
        out *= q ** (2 * i) - 1
    return out


def harvest_transvections(g: MatrixGroup, cap: int = DEFAULT_CAP
                          ) -> list[tuple[SqMatrix, TransvectionData]]:
    """All nontrivial transvections among the enumerated elements.

    Candidates are pre-filtered by trace (a transvection has trace n) so
    only a small slice of the element set is decoded.  Output order follows
    the deterministic element ordering.
    """
    elems = g.elements(cap)
    out = []
    for i in elems.indices_with_trace(g.space.n % g.space.field.ell):
        m = elems[int(i)]
        verdict = detect_transvection(m)
        if verdict.kind is TransvectionKind.NONTRIVIAL:
            out.append((m, verdict.data))
    return out


def normal_closure(g: MatrixGroup, seeds: Sequence[SqMatrix],
                   cap: int = DEFAULT_CAP) -> MatrixGroup:
    """Smallest subgroup containing the seeds and stable under conjugation
    by the generators of g."""
    gen_list = [s for s in seeds if not s.is_identity()]
    if not gen_list:
        from .symplectic import identity_mat
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
    from .ffield import field_make

    f = doc["field"]
    spec = field_make(int(f["ell"]), int(f["degree"]))
    if "modulus" in f and tuple(f["modulus"]) != spec.modulus:
        raise ValueError("non-canonical field modulus in fixture")
    n = int(doc["n"])
    ctx = spec.ctx
    if doc["gram"] == "standard":
        space = SympSpace.standard(spec, n)
    else:
        gram = tuple(tuple(ctx.encode(x) for x in row) for row in doc["gram"])
        space = SympSpace(spec, n, gram)
    gens = []
    for grid in doc["generators"]:
        rows = tuple(tuple(ctx.encode(x) for x in row) for row in grid)
        gens.append(SqMatrix(space, rows))
    return MatrixGroup(space, tuple(gens))
