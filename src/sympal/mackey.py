"""Exact character theory on explicit finite groups.

Groups live as multiplication tables over element indices 0..m-1 with
identity 0.  Character values are exact cyclotomic numbers (Cyc, in
canonical integer form) at a common order, so every identity here
(Mackey, Frobenius reciprocity, the two-induction proposition) is
checked with genuine equality of integer tuples.

The subgroup constructors (Subgroup.generated, conjugate_subgroup,
intersect, subgroup_of, whole_group, trivial_subgroup, all_subgroups)
return one interned Subgroup per (parent, element set), so a subgroup's
table, conjugacy classes, normality and coset data are built once, and
class functions on it stay tied to the one group object.  The lattice is
found by joining each subgroup found with every cyclic subgroup not
nested with it, since every subgroup is a join of cyclic ones; each join
is closed one whole coset of the known subgroup at a time.  Induction is
the left-coset representative formula; which coset conjugates land in
which class of the subgroup is counted once per subgroup.

Mackey's formula is checked through two transport matrices per (N, H),
built once and remembered on N.  Both sides are linear in chi: Res_H
Ind_N^G chi is L chi and the double-coset sum is R chi, where L and R
take a vector of values on the classes of N to one on the classes of H.
Their entries are counts of coset representatives, so they are
nonnegative integers.  L reads N's induction terms at each class of H.
R is the left-coset formula for each gamma in H\\G/N, counted in G:
for each least representative r of a left coset of the meet
M = H cap gamma N gamma^-1 in H, and each class representative x of H,
it adds 1 at N's class of (r gamma)^-1 x (r gamma) when that lies in N.
r and r' share a coset of M exactly when r gamma N = r' gamma N, so no
subgroup is built for M.  The irreducible characters of N are a basis
of its class functions, so Mackey's formula holds for every chi on N
exactly when L = R.  That is decided once per (N, H), when the pair is
built: equal matrices are kept as one array, and a check on such a pair
reads no chi.  Only when L and R differ is chi read.  Integer matrices
commute with the coordinates of the power basis of Q(zeta_n), so a
side's values are the matrix times chi's array of coefficients, one row
per class.  The array holds Python ints (Fractions for a fractional
value) in numpy object arrays, which cannot overflow.  L chi = R chi is
therefore exact equality of the Cyc values, and no Cyc is built.

The character table of an abelian group is its homomorphisms to the
roots of unity, each kept as one exponent mod the cyclotomic order per
element and built by extending along a chain of cyclic steps.  It is
certified without a field: every vector is additive on a generating set
and the |G| vectors are distinct, so they are all of the characters.
Any other group's table comes from Dixon's method: split the
simultaneous eigenvectors of the class-sum matrices over a prime field
F_P with P = 1 mod exponent, read the degrees off the orthogonality
relation, and lift the values back to the cyclotomic field through the
eigenvalue-multiplicity discrete Fourier inversion.  The linear algebra
runs on `linalg` over `field_make(P, 1)`; the eigenvalues of a class
matrix on an eigenspace are the distinct roots in F_P of its
characteristic polynomial (`linalg.charpoly`), found by evaluating it at
every point of F_P (`ffield.poly_roots`; P is about 2|G|).  Both methods
are deterministic.  A Dixon prime P above `ffield.FIELD_LIMIT` raises
FieldTooLarge; abelian tables never reach it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul
from typing import Callable, Optional, Sequence

import numpy as np

from . import linalg
from .cyclotomic import Cyc, rational, root, zero
from .errors import HypothesisFailed, InvalidParams, NotSubgroup, WitnessCheckFailed
from .ffield import field_make, is_prime, multiplicative_order, poly_roots


# ---------------------------------------------------------------------------
# groups as multiplication tables
# ---------------------------------------------------------------------------

class FiniteGroup:
    """Multiplication table group; element 0 is the identity."""

    def __init__(self, table: Sequence[Sequence[int]], check: bool = True):
        self.table = tuple(tuple(r) for r in table)
        self.order = len(self.table)
        if not self.order:
            raise ValueError("multiplication table is empty")
        if check:
            self._verify()
        self.inv = tuple(self.table[a].index(0) for a in range(self.order))
        self.classes = self._conjugacy_classes()
        self.class_of = [0] * self.order
        for ci, cls in enumerate(self.classes):
            for x in cls:
                self.class_of[x] = ci
        self.element_orders = tuple(self._order_of(a) for a in range(self.order))
        self.exponent = 1
        for o in self.element_orders:
            self.exponent = lcm(self.exponent, o)
        self.interned: dict[frozenset, Subgroup] = {}   # see _interned

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def conj(self, g: int, x: int) -> int:
        """g x g^-1."""
        return self.mul(self.mul(g, x), self.inv[g])

    def _order_of(self, a: int) -> int:
        o, x, t = 1, a, self.table
        while x != 0:
            x = t[x][a]
            o += 1
        return o

    def _verify(self):
        m = self.order
        for a in range(m):
            if self.table[0][a] != a or self.table[a][0] != a:
                raise ValueError("element 0 is not an identity")
            if sorted(self.table[a]) != list(range(m)):
                raise ValueError("multiplication table row is not a permutation")
            if 0 not in self.table[a]:
                raise ValueError("element has no inverse")
        if any(sorted(col) != list(range(m)) for col in zip(*self.table)):
            raise ValueError("multiplication table column is not a permutation")
        # Light's test: the s with (x s) y = x (s y) for all x, y are closed
        # under products, so checking s in a generating set S suffices.  S is
        # chosen greedily; in a group each new s at least doubles <S>, so
        # 2^|S| <= m, and a larger S already proves the table is no group.
        t = self.table
        gens: list[int] = []
        reached = {0}
        for a in range(m):
            if a in reached:
                continue
            gens.append(a)
            if 1 << len(gens) > m:
                raise ValueError("multiplication is not associative")
            frontier = list(reached)
            while frontier:
                frontier = [y for y in {t[x][s] for x in frontier for s in gens}
                            if y not in reached]
                reached.update(frontier)
        for s in gens:
            for row in t:
                if tuple(row[z] for z in t[s]) != t[row[s]]:
                    raise ValueError("multiplication is not associative")

    def _conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        t, inv = self.table, self.inv
        seen = [False] * self.order
        out = []
        for a in range(self.order):
            if seen[a]:
                continue
            orbit = sorted({t[row[a]][gi] for row, gi in zip(t, inv)})
            for x in orbit:
                seen[x] = True
            out.append(tuple(orbit))
        return tuple(out)


def _closure(gens, op: Callable, ident) -> list:
    """The elements of <gens> in the order reached breadth-first from ident
    by right multiplication."""
    elems, seen, frontier = [ident], {ident}, [ident]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = op(x, g)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        elems += new
        frontier = new
    return elems


def group_from_elements(gens, op: Callable, ident) -> tuple[FiniteGroup, list]:
    """Closure of abstract hashable elements; returns (group, element list)."""
    elems = _closure(gens, op, ident)
    index = {x: i for i, x in enumerate(elems)}
    table = [[index[op(a, b)] for b in elems] for a in elems]
    return FiniteGroup(table), elems


def cyclic_group(n: int) -> FiniteGroup:
    return FiniteGroup([[(a + b) % n for b in range(n)] for a in range(n)])


def from_permutations(gens: Sequence[Sequence[int]]) -> FiniteGroup:
    """Group generated by permutations given as image tuples."""
    deg = len(gens[0])
    ident = tuple(range(deg))
    op = lambda a, b: tuple(a[b[i]] for i in range(deg))   # noqa: E731
    return group_from_elements([tuple(g) for g in gens], op, ident)[0]


def symmetric_group(n: int) -> FiniteGroup:
    swap = (1, 0) + tuple(range(2, n))
    cycle = tuple(range(1, n)) + (0,)
    return from_permutations([swap, cycle] if n > 1 else [tuple(range(n))])


def alternating_group(n: int) -> FiniteGroup:
    gens = []
    for i in range(n - 2):
        g = list(range(n))
        g[i], g[i + 1], g[i + 2] = g[i + 1], g[i + 2], g[i]
        gens.append(tuple(g))
    return from_permutations(gens)


def dihedral_group(n: int) -> FiniteGroup:
    rot = tuple((i + 1) % n for i in range(n))
    flip = tuple((-i) % n for i in range(n))
    return from_permutations([rot, flip])


def quaternion_group() -> FiniteGroup:
    # i, j as elements of Q8 = {+-1, +-i, +-j, +-k}, encoded (sign, symbol)
    def qmul(a, b):
        # symbols 0=1, 1=i, 2=j, 3=k
        sa, xa = a
        sb, xb = b
        mul = {
            (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
            (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
            (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
            (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
        }[(xa, xb)]
        return (sa * sb * mul[0], mul[1])

    return group_from_elements([(1, 1), (1, 2)], qmul, (1, 0))[0]


def sl2_3() -> FiniteGroup:
    """SL(2, F_3) of order 24, from matrix generators."""
    def mmul(a, b):
        return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(2)) % 3
                           for j in range(2)) for i in range(2))

    gens = [((1, 1), (0, 1)), ((0, 2), (1, 0))]
    return group_from_elements(gens, mmul, ((1, 0), (0, 1)))[0]


def semidirect_cyclic(p: int, n: int) -> FiniteGroup:
    """C_p : C_n with a faithful action (needs n | p - 1).

    Elements (a, b) with (a, b)(c, d) = (a + t^b c, b + d), where t is the
    least unit of order exactly n mod the prime p (so C_p : C_1 = C_p).
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 1 or (p - 1) % n:
        raise ValueError(f"need n >= 1 and n | p - 1, got ({p}, {n})")
    t = next(c for c in range(1, p) if multiplicative_order(c, p) == n)

    def op(u, v):
        a, b = u
        c, d = v
        return ((a + pow(t, b, p) * c) % p, (b + d) % n)

    return group_from_elements([(1, 0), (0, 1)], op, (0, 0))[0]


# ---------------------------------------------------------------------------
# subgroups
# ---------------------------------------------------------------------------

class Subgroup:
    """A subgroup of a parent group, with its own re-indexed table.

    Element i of self.group corresponds to parent element self.elements[i];
    the identity stays at index 0.  `Subgroup(parent, elements)` builds a
    new object; the functions below return the one interned object per
    (parent, element set), so its group and classes are built once.
    """

    def __init__(self, parent: FiniteGroup, elements):
        self.parent = parent
        elems = sorted(set(elements))
        if not elems or elems[0] != 0:
            raise NotSubgroup("subgroup must contain the identity")
        pos = {x: i for i, x in enumerate(elems)}
        try:
            table = [[pos[parent.table[a][b]] for b in elems] for a in elems]
        except KeyError:
            raise NotSubgroup("subset is not closed under multiplication")
        self.elements = tuple(elems)
        self.index_of = pos
        self.group = FiniteGroup(table, check=False)
        self.group.inv = tuple(pos[parent.inv[x]] for x in elems)
        self.normal: Optional[bool] = None   # remembered by is_normal
        self.induction: Optional[tuple] = None   # by _induction_terms
        self.transport: dict[Subgroup, tuple] = {}   # by _transport
        self.leads: Optional[list[int]] = None   # by _coset_leads

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def index(self) -> int:
        return self.parent.order // self.order

    def contains(self, x: int) -> bool:
        return x in self.index_of

    @staticmethod
    def generated(parent: FiniteGroup, gens) -> "Subgroup":
        return _interned(parent, _generated(parent, gens))


def _generated(parent: FiniteGroup, gens) -> frozenset:
    """The element set of <gens>."""
    return frozenset(_closure(gens, parent.mul, 0))


def _interned(parent: FiniteGroup, elements) -> Subgroup:
    """The one Subgroup object of `parent` on this element set."""
    key = frozenset(elements)
    sub = parent.interned.get(key)
    if sub is None:
        sub = parent.interned[key] = Subgroup(parent, key)
    return sub


def whole_group(g: FiniteGroup) -> Subgroup:
    return _interned(g, range(g.order))


def trivial_subgroup(g: FiniteGroup) -> Subgroup:
    return _interned(g, [0])


def _check_parent(g: FiniteGroup, h: Subgroup):
    """NotSubgroup unless g is the parent whose table h indexes."""
    if h.parent is not g:
        raise NotSubgroup("subgroup of another group object")


def is_normal(g: FiniteGroup, h: Subgroup) -> bool:
    """Is h normal in g?  Remembered on h."""
    _check_parent(g, h)
    if h.normal is None:
        t = g.table
        h.normal = all(t[row[a]][xi] in h.index_of for a in h.elements
                       for row, xi in zip(t, g.inv))
    return h.normal


def all_subgroups(g: FiniteGroup) -> list[Subgroup]:
    """Every subgroup (ascending order, then elements), interned.

    Every subgroup is a join of cyclic ones, so joining each subgroup
    found with every cyclic <x> that neither holds it nor lies in it
    reaches them all.  <x> is read off the powers of x."""
    t, m = g.table, g.order
    cyclic: dict[frozenset, int] = {}   # element set of <x> -> its least x
    for x in range(m):
        powers, y = [0], x
        while y:
            powers.append(y)
            y = t[y][x]
        cyclic.setdefault(frozenset(powers), x)
    # a subgroup with more than m / p elements, p the least prime factor
    # of m, is the whole group
    big = m // next(p for p in range(2, m + 1) if m % p == 0) if m > 1 else 0
    gens = {z: (x,) for z, x in cyclic.items()}   # element set -> generators
    todo = list(gens)
    while todo:
        a = todo.pop()
        block = sorted(a)
        for z, x in cyclic.items():
            if x in a or a <= z:
                continue
            join = _join(t, block, gens[a] + (x,), big)
            if join not in gens:
                gens[join] = gens[a] + (x,)
                todo.append(join)
    subs = [_interned(g, s) for s in gens]
    subs.sort(key=lambda s: (s.order, s.elements))
    return subs


def _join(t, block: list[int], gens: tuple[int, ...], big: int) -> frozenset:
    """The element set of <gens>, gens holding generators of the subgroup
    whose elements are block: a union of left cosets w*block, grown one
    whole coset at a time, so each coset costs one membership test per
    generator (Dimino's method).  Past big elements it is the whole group."""
    elems = set(block)
    reps = [0]
    rows = [t[s] for s in gens]
    for w in reps:
        for row in rows:
            y = row[w]
            if y not in elems:
                reps.append(y)
                elems.update(map(t[y].__getitem__, block))
                if len(elems) > big:
                    return frozenset(range(len(t)))
    return frozenset(elems)


# ---------------------------------------------------------------------------
# class functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassFunction:
    """Values (one Cyc per conjugacy class) on a FiniteGroup.

    InvalidParams unless there is one value per class and each is a Cyc
    of order cyc_order, so every function on class functions can line up
    their values and coefficients."""

    group: FiniteGroup
    cyc_order: int
    values: tuple[Cyc, ...]

    def __post_init__(self):
        if len(self.values) != len(self.group.classes):
            raise InvalidParams(f"{len(self.values)} values for {len(self.group.classes)} classes")
        if not all(isinstance(x, Cyc) and x.n == self.cyc_order for x in self.values):
            raise InvalidParams("class function values outside Q(zeta_cyc_order)")

    def at(self, element: int) -> Cyc:
        return self.values[self.group.class_of[element]]

    @property
    def degree(self) -> Cyc:
        return self.values[self.group.class_of[0]]

    def _check_compatible(self, other: "ClassFunction"):
        if self.group is not other.group or self.cyc_order != other.cyc_order:
            raise InvalidParams("class functions on different groups or fields")

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        self._check_compatible(other)
        return ClassFunction(self.group, self.cyc_order,
                             tuple(a + b for a, b in zip(self.values, other.values)))

    def __mul__(self, other: "ClassFunction") -> "ClassFunction":
        self._check_compatible(other)
        return ClassFunction(self.group, self.cyc_order,
                             tuple(a * b for a, b in zip(self.values, other.values)))

    def __eq__(self, other) -> bool:
        return (isinstance(other, ClassFunction) and self.group is other.group
                and self.cyc_order == other.cyc_order
                and self.values == other.values)

    def __hash__(self):
        return hash((id(self.group), self.cyc_order, self.values))


def trivial_character(g: FiniteGroup, cyc_order: int) -> ClassFunction:
    return ClassFunction(g, cyc_order,
                         tuple(rational(cyc_order, 1) for _ in g.classes))


def regular_character(g: FiniteGroup, cyc_order: int) -> ClassFunction:
    vals = [rational(cyc_order, g.order if cls == (0,) else 0) for cls in g.classes]
    return ClassFunction(g, cyc_order, tuple(vals))


def inner_product(phi1: ClassFunction, phi2: ClassFunction) -> Cyc:
    """(1/|G|) sum_g phi1(g^-1) phi2(g), exactly."""
    phi1._check_compatible(phi2)
    g = phi1.group
    acc = zero(phi1.cyc_order)
    for ci, cls in enumerate(g.classes):
        inv_ci = g.class_of[g.inv[cls[0]]]
        acc = acc + (phi1.values[inv_ci] * phi2.values[ci]) * len(cls)
    return acc * Fraction(1, g.order)


def induce(g: FiniteGroup, h: Subgroup, chi: ClassFunction) -> ClassFunction:
    """Induced class function, by the left-coset representative formula."""
    if chi.group is not h.group:
        raise NotSubgroup("character is not on the given subgroup")
    vals = []
    for terms in _induction_terms(g, h):
        acc = zero(chi.cyc_order)
        for c, count in terms:
            acc = acc + (chi.values[c] if count == 1 else chi.values[c] * count)
        vals.append(acc)
    return ClassFunction(g, chi.cyc_order, tuple(vals))


def _induction_terms(g: FiniteGroup, h: Subgroup) -> tuple[tuple[tuple[int, int], ...], ...]:
    """For each class of g with representative x: the pairs (c, k), k the
    number of left coset representatives r with r^-1 x r in the class c
    of h.group.  Remembered on h."""
    _check_parent(g, h)
    if h.induction is None:
        reps = coset_reps(g, h)
        out = []
        for cls in g.classes:
            x = cls[0]
            counts: dict[int, int] = {}
            for r in reps:
                y = g.table[g.table[g.inv[r]][x]][r]
                if h.contains(y):
                    c = h.group.class_of[h.index_of[y]]
                    counts[c] = counts.get(c, 0) + 1
            out.append(tuple(counts.items()))
        h.induction = tuple(out)
    return h.induction


def _pullback(chi: ClassFunction, k: Subgroup, f: Callable[[int], int]) -> ClassFunction:
    """x -> chi(f(x)) on k, f taking k's elements (in k's parent) to chi's
    group; read at one representative per class of k."""
    return ClassFunction(k.group, chi.cyc_order,
                         tuple(chi.at(f(k.elements[cls[0]])) for cls in k.group.classes))


def restrict(g: FiniteGroup, h: Subgroup, phi: ClassFunction) -> ClassFunction:
    _check_parent(g, h)
    if phi.group is not g:
        raise NotSubgroup("class function is not on the parent group")
    return _pullback(phi, h, lambda x: x)


def coset_reps(g: FiniteGroup, h: Subgroup) -> list[int]:
    """Least-index representatives of the left cosets rH."""
    return double_cosets(g, trivial_subgroup(g), h)


def double_cosets(g: FiniteGroup, h: Subgroup, n: Subgroup) -> list[int]:
    """Least-index representatives of H\\G/N."""
    _check_parent(g, h)
    _check_parent(g, n)
    t, lead = g.table, _coset_leads(g, n)
    covered = [False] * g.order   # at the least element of each coset xN
    reps = []
    for r in range(g.order):
        if not covered[lead[r]]:
            reps.append(r)
            for a in h.elements:   # HrN is the union of the cosets arN
                covered[lead[t[a][r]]] = True
    return reps


def _coset_leads(g: FiniteGroup, n: Subgroup) -> list[int]:
    """For each element x of g, the least element of its left coset xN.
    Remembered on n."""
    if n.leads is None:
        t = g.table
        lead = [-1] * g.order
        for x in range(g.order):
            if lead[x] < 0:
                for b in n.elements:
                    lead[t[x][b]] = x
        n.leads = lead
    return n.leads


def conjugate_subgroup(g: FiniteGroup, n: Subgroup, gamma: int) -> Subgroup:
    _check_parent(g, n)
    return _interned(g, [g.conj(gamma, x) for x in n.elements])


def conjugate_classfunction(g: FiniteGroup, n: Subgroup, chi: ClassFunction,
                            gamma: int, target: Subgroup) -> ClassFunction:
    """chi^gamma on target = gamma N gamma^-1: x -> chi(gamma^-1 x gamma)."""
    _check_parent(g, n)
    _check_parent(g, target)
    if chi.group is not n.group:
        raise NotSubgroup("character is not on the given subgroup")
    return _pullback(chi, target, lambda x: n.index_of[g.conj(g.inv[gamma], x)])


def intersect(g: FiniteGroup, a: Subgroup, b: Subgroup) -> Subgroup:
    _check_parent(g, a)
    _check_parent(g, b)
    return _interned(g, [x for x in a.elements if b.contains(x)])


def subgroup_of(g: FiniteGroup, big: Subgroup, small: Subgroup) -> Subgroup:
    """small (a subgroup of g inside big) re-expressed as a subgroup of big.group."""
    _check_parent(g, big)
    _check_parent(g, small)
    return _interned(big.group, [big.index_of[x] for x in small.elements])


def mackey_check(g: FiniteGroup, h: Subgroup, n: Subgroup,
                 chi: ClassFunction) -> bool:
    """Res_H Ind_N^G chi = sum over H\\G/N of Ind_{H cap gNg^-1}^H Res chi^g.

    Both sides are _transport's integer matrices applied to chi's values.
    When the two are one array (L = R), the formula holds for every class
    function on N and chi's values are not read; otherwise both products
    are compared."""
    _check_parent(g, h)
    _check_parent(g, n)
    if chi.group is not n.group:
        raise NotSubgroup("character is not on the given subgroup")
    left, right = _transport(g, h, n)
    if left is right:
        return True
    v = np.array([x.reduced() for x in chi.values], dtype=object)
    return np.array_equal(left.dot(v), right.dot(v))


def _transport(g: FiniteGroup, h: Subgroup, n: Subgroup) -> tuple[np.ndarray, np.ndarray]:
    """(L, R): integer matrices from the classes of n.group to those of
    h.group, with Res_H Ind_N^G chi = L chi and the Mackey sum = R chi on
    chi's class values.  They are compared once: if equal, R is L, the
    same array.  Remembered on n, keyed by h."""
    pair = n.transport.get(h)
    if pair is None:
        kh, kn = len(h.group.classes), len(n.group.classes)
        left = [[0] * kn for _ in range(kh)]
        right = [[0] * kn for _ in range(kh)]
        ind = _induction_terms(g, n)
        for c, cls in enumerate(h.group.classes):
            for j, k in ind[g.class_of[h.elements[cls[0]]]]:
                left[c][j] = k
        t, inv = g.table, g.inv
        n_class = [-1] * g.order   # N's class of each element of G, -1 off N
        for i, x in enumerate(n.elements):
            n_class[x] = n.group.class_of[i]
        lead = _coset_leads(g, n)
        h_reps = [h.elements[cls[0]] for cls in h.group.classes]
        for gamma in double_cosets(g, h, n):
            # r, r' in H lie in one left coset of the meet H cap gamma N
            # gamma^-1 exactly when r gamma N = r' gamma N, so the first r
            # to reach each such coset are its least coset representatives
            seen = set()
            for r in h.elements:
                s = t[r][gamma]
                if lead[s] in seen:
                    continue
                seen.add(lead[s])
                # r^-1 x r in the meet, x the representative of H's class
                # c, is counted at N's class of s^-1 x s, s = r gamma
                si = t[inv[s]]
                for c, x in enumerate(h_reps):
                    j = n_class[t[si[x]][s]]
                    if j >= 0:
                        right[c][j] += 1
        same = left == right
        left = np.array(left, dtype=object)
        right = left if same else np.array(right, dtype=object)
        pair = n.transport[h] = (left, right)
    return pair


# ---------------------------------------------------------------------------
# character tables (abelian groups directly, others by Dixon's method)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _dixon_prime(exponent: int, order: int) -> int:
    p = 2 * order + 1
    p += (1 - p) % exponent   # make p = 1 mod exponent
    while not is_prime(p):
        p += exponent
    return p


def character_table(g: FiniteGroup, cyc_order: Optional[int] = None
                    ) -> list[ClassFunction]:
    """All irreducible characters, values in Q(zeta_cyc_order).

    Deterministic order: by degree, then by reduced value vectors.
    ValueError unless cyc_order (default: the exponent) is a multiple of
    the exponent.  An abelian group (every class a singleton) gets its
    table from _abelian_table, any other from _dixon_table; both raise
    WitnessCheckFailed when their certificate fails.
    """
    n_cyc = cyc_order if cyc_order is not None else g.exponent
    if n_cyc % g.exponent:
        raise ValueError("cyclotomic order must be a multiple of the exponent")
    if len(g.classes) == g.order:
        chars = _abelian_table(g, n_cyc)
    else:
        chars = _dixon_table(g, n_cyc)
    chars.sort(key=lambda c: (c.degree.rational_value(),
                              tuple(v.reduced() for v in c.values)))
    return chars


def _abelian_exponents(g: FiniteGroup, n_cyc: int) -> tuple[list[int], list[list[int]]]:
    """(gens, chars): generators of the abelian group g, and its |G|
    homomorphisms to the n_cyc-th roots of unity, each as a list of
    exponents mod n_cyc, one per element.

    From H = {0}: take the least x outside H and the least j with x^j in
    H; each chi on H extends to <H, x> in j ways, chi(h x^t) = chi(h) + t b
    for t < j and each b with j b = chi(x^j) mod n_cyc.  Such b exist: x^j
    has order o / j, o the order of x, so chi(x^j) is a multiple of
    n_cyc j / o, and o divides n_cyc."""
    t, m = g.table, g.order
    in_h = [False] * m
    in_h[0] = True
    elems, gens, chars = [0], [], [[0] * m]
    for x in range(1, m):
        if in_h[x]:
            continue
        gens.append(x)
        powers = [0, x]   # x^0, ..., x^j
        while not in_h[powers[-1]]:
            powers.append(t[powers[-1]][x])
        j, xj = len(powers) - 1, powers[-1]
        cosets = [[t[h][xt] for h in elems] for xt in powers[1:-1]]
        step = n_cyc // j
        new = []
        for chi in chars:
            a = chi[xj]
            if a % j:
                raise WitnessCheckFailed("no root of a character value on an abelian group")
            for k in range(j):
                b = a // j + k * step
                ext = chi[:]
                for s, coset in enumerate(cosets, 1):
                    for h, y in zip(elems, coset):
                        ext[y] = (chi[h] + s * b) % n_cyc
                new.append(ext)
        chars = new
        for coset in cosets:
            elems += coset
            for y in coset:
                in_h[y] = True
    return gens, chars


def _abelian_table(g: FiniteGroup, n_cyc: int) -> list[ClassFunction]:
    """The linear characters of the abelian group g, unsorted.

    Certificate (WitnessCheckFailed otherwise): the generators generate
    G, each exponent vector has chi(a s) = chi(a) + chi(s) for every
    element a and generator s, so it is a homomorphism, and the |G|
    vectors are pairwise distinct.  G has exactly |G| characters, so the
    table is complete."""
    gens, chars = _abelian_exponents(g, n_cyc)
    t, m = g.table, g.order
    if len(_generated(g, gens)) != m:
        raise WitnessCheckFailed("abelian generators do not generate the group")
    for s in gens:
        col = [t[a][s] for a in range(m)]
        for chi in chars:
            cs = chi[s]
            if any(chi[b] != (chi[a] + cs) % n_cyc for a, b in enumerate(col)):
                raise WitnessCheckFailed("an abelian character is not a homomorphism")
    if len(chars) != m or len(set(map(tuple, chars))) != m:
        raise WitnessCheckFailed("abelian characters are not |G| distinct homomorphisms")
    # every class is a singleton, so class i is element i
    return [ClassFunction(g, n_cyc, tuple(root(n_cyc, k) for k in chi)) for chi in chars]


def _dixon_table(g: FiniteGroup, n_cyc: int) -> list[ClassFunction]:
    """The irreducible characters of g by Dixon's method, unsorted.

    A class matrix splits an eigenspace of dimension d into its
    eigenspaces there, one per root in F_P of its characteristic
    polynomial.  Unless their dimensions sum to d (a factor with no root,
    or a repeated root with too small an eigenspace), the matrix does not
    split over F_P and WitnessCheckFailed is raised; so it is for a
    multiplicity lift above the degree, and for degrees whose squares do
    not sum to |G|.
    """
    e = g.exponent
    k = len(g.classes)
    reps = [cls[0] for cls in g.classes]
    p = _dixon_prime(e, g.order)
    fp = field_make(p, 1)   # FieldTooLarge beyond FIELD_LIMIT
    w = fp.ctx.pow(fp.ctx.generator(), (p - 1) // e)

    # class-sum structure constants: (A_i)_{jk} = #{x in C_i : x^-1 z_k in C_j}
    mats = []
    for ci in range(k):
        a = [[0] * k for _ in range(k)]
        for ck, zk in enumerate(reps):
            for x in g.classes[ci]:
                cj = g.class_of[g.mul(g.inv[x], zk)]
                a[cj][ck] += 1
        mats.append(tuple(map(tuple, a)))

    # simultaneous eigenvectors over F_P; subspaces kept as row bases V,
    # split by the eigenvalues of each A_i restricted to V: the roots of
    # its characteristic polynomial
    spaces = [linalg.identity(k)]
    for a in mats[1:]:
        new_spaces = []
        for v in spaces:
            d = len(v)
            if d == 1:
                new_spaces.append(v)
                continue
            # column j of r holds the coordinates of A v_j in the basis V
            vt = linalg.transpose(v)
            r = linalg.transpose(tuple(linalg.solve(fp, vt, linalg.mat_vec(fp, a, row))
                                       for row in v))
            parts = [linalg.nullspace(fp, linalg.mat_sub(fp, r, linalg.scalar_mat(d, lam)), d)
                     for lam in poly_roots(fp, linalg.charpoly(fp, r))]
            # eigenspaces of distinct eigenvalues are independent, so they
            # fill V only if r is diagonalizable over F_P
            if sum(map(len, parts)) != d:
                raise WitnessCheckFailed("a class matrix does not split over F_P")
            new_spaces.extend(linalg.mat_mul(fp, ns, v) for ns in parts)
        spaces = new_spaces
    if len(spaces) != k or any(len(v) != 1 for v in spaces):
        raise WitnessCheckFailed("class-matrix eigenspaces did not fully split")

    # for each class representative z of order o: the classes of z^s and
    # the powers w_o^t of w_o = w^(e/o), a primitive o-th root of 1 in F_P
    power_classes = []
    for z in reps:
        x, cls = 0, []
        for _ in range(g.element_orders[z]):
            cls.append(g.class_of[x])
            x = g.mul(x, z)
        power_classes.append(cls)
    # for each element order o, row u of dft[o] holds w_o^(-u s) for s < o
    dft = {}
    for o in set(g.element_orders):
        wo = pow(w, e // o, p)
        wt = [pow(wo, t, p) for t in range(o)]
        dft[o] = [[wt[-u * s % o] for s in range(o)] for u in range(o)]

    id_class = g.class_of[0]
    chars = []
    degree_sq_sum = 0
    for (v,) in spaces:
        nv = pow(v[id_class], -1, p)
        omega = [x * nv % p for x in v]
        s = 0
        for j in range(k):
            jinv = g.class_of[g.inv[reps[j]]]
            s = (s + omega[j] * omega[jinv] * pow(len(g.classes[j]), -1, p)) % p
        dd = g.order * pow(s, -1, p) % p
        # no root gives degree 0, which fails the degree-sum check below
        deg = next((d for d in range(1, g.order + 1) if d * d % p == dd), 0)
        degree_sq_sum += deg * deg
        chi_p = [deg * omega[j] * pow(len(g.classes[j]), -1, p) % p
                 for j in range(k)]
        values = []
        for cls in power_classes:
            o = len(cls)
            o_inv = pow(o, -1, p)
            x = [chi_p[c] for c in cls]
            # value = sum_u m_u zeta^(u n_cyc / o), m_u the multiplicity of
            # the eigenvalue w_o^u of z
            vec = [0] * n_cyc
            for u, row in enumerate(dft[o]):
                m_u = sum(map(mul, x, row)) * o_inv % p
                if m_u > deg:
                    raise WitnessCheckFailed("multiplicity lift out of range")
                vec[u * (n_cyc // o)] = m_u
            values.append(Cyc(n_cyc, vec))
        chars.append(ClassFunction(g, n_cyc, tuple(values)))
    if degree_sq_sum != g.order:
        raise WitnessCheckFailed("degrees do not sum to |G|")
    return chars


def linear_characters(g: FiniteGroup, cyc_order: Optional[int] = None
                      ) -> list[ClassFunction]:
    return [c for c in character_table(g, cyc_order)
            if c.degree.rational_value() == 1]


@lru_cache(maxsize=None)
def _zeta_exponents(n: int) -> dict[tuple[int, ...], int]:
    """The coefficients of zeta_n^j -> j for j < n."""
    return {root(n, j).coeffs: j for j in range(n)}


def character_order(chi: ClassFunction) -> int:
    """Order of a degree-1 character in the dual group: the lcm of the
    orders of its values, each found among the powers zeta^j of
    zeta = zeta_{cyc_order} (order cyc_order / gcd(j, cyc_order)).
    InvalidParams if a value is not such a power."""
    if chi.degree.rational_value() != 1:
        raise InvalidParams("order is for linear characters")
    n = chi.cyc_order
    order = 1
    zetas = _zeta_exponents(n)
    for value in chi.values:
        # values are in Q(zeta_n) and roots have denominator 1, so a
        # value is zeta_n^j exactly when its coefficients are
        j = zetas.get(value.coeffs) if value.den == 1 else None
        if j is None:
            raise InvalidParams(f"value {value!r} is not a power of zeta_{n}")
        order = lcm(order, n // gcd(j, n))
    return order


def character_power(chi: ClassFunction, k: int) -> ClassFunction:
    out = trivial_character(chi.group, chi.cyc_order)
    for _ in range(k):
        out = out * chi
    return out


# ---------------------------------------------------------------------------
# the two-induction proposition and its lemma
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PropReport:
    holds: bool
    n_in_h: bool
    detail: str = ""


def split_p_part(chi: ClassFunction, p: int) -> tuple[ClassFunction, ClassFunction]:
    """chi = chi1 * chi2 with chi1 of p-power order, chi2 of order prime to p."""
    m = character_order(chi)
    ps = p ** _p_val(m, p)
    t = m // ps
    # u = 1 mod ps, 0 mod t
    if t == 1:
        return chi, trivial_character(chi.group, chi.cyc_order)
    u = (t * pow(t, -1, ps)) % (ps * t)
    chi1 = character_power(chi, u)
    chi2 = character_power(chi, (1 - u) % (ps * t))
    return chi1, chi2


def distinct_conjugates(g: FiniteGroup, n: Subgroup, chi1: ClassFunction) -> bool:
    """Are the (G:N) conjugates of chi1 (a character of N) pairwise distinct?"""
    seen = []
    for gamma in coset_reps(g, n):
        # N normal: gamma N gamma^-1 = N, so chi^gamma lives on N again
        cf = conjugate_classfunction(g, n, chi1, gamma, target=n)
        if any(cf == prev for prev in seen):
            return False
        seen.append(cf)
    return True


def verify_prop_nh(g: FiniteGroup, n: Subgroup, h: Subgroup,
                   chi: ClassFunction, s_char: ClassFunction, p: int) -> PropReport:
    """Hypothesis-checked instance of the two-induction statement.

    chi is a linear character of N (normal, index nn), S a character of H,
    p > nn prime, chi's p-part has nontrivial p-power order with pairwise
    distinct conjugates, and Ind_H(S) = Ind_N(chi).  Conclusion: N <= H.
    """
    if not is_normal(g, n):
        raise HypothesisFailed("N is not normal")
    nn = n.index
    if not is_prime(p) or p <= nn:
        raise HypothesisFailed(f"p = {p} is not a prime exceeding (G:N) = {nn}")
    if chi.degree.rational_value() != 1:
        raise HypothesisFailed("chi is not a linear character")
    chi1, _ = split_p_part(chi, p)
    if character_order(chi1) % p or character_order(chi1) == 1:
        raise HypothesisFailed("chi's p-part does not have nontrivial p-power order")
    if not distinct_conjugates(g, n, chi1):
        raise HypothesisFailed("the conjugates of chi1 are not pairwise distinct")
    if induce(g, h, s_char) != induce(g, n, chi):
        raise HypothesisFailed("Ind_H(S) and Ind_N(chi) differ")
    n_in_h = all(h.contains(x) for x in n.elements)
    return PropReport(holds=n_in_h, n_in_h=n_in_h,
                      detail="" if n_in_h else "N is not contained in H")


def check_res_nontrivial(g: FiniteGroup, n: Subgroup, h: Subgroup,
                         chi: ClassFunction, p: int, bound: int) -> bool:
    """Restriction of a p-power-order character to H cap N is nontrivial.

    Hypotheses (checked): N normal, (G:H) <= bound < p, chi linear on N of
    nontrivial p-power order.
    """
    if not is_normal(g, n):
        raise HypothesisFailed("N is not normal")
    if h.index > bound:
        raise HypothesisFailed(f"(G:H) = {h.index} exceeds the bound {bound}")
    if not is_prime(p) or p <= bound:
        raise HypothesisFailed(f"p = {p} is not a prime exceeding {bound}")
    o = character_order(chi)
    if o == 1 or p ** _p_val(o, p) != o:
        raise HypothesisFailed("character order is not a nontrivial p-power")
    meet = intersect(g, h, n)
    meet_in_n = subgroup_of(g, n, meet)
    res = restrict(n.group, meet_in_n, chi)
    return res != trivial_character(meet_in_n.group, chi.cyc_order)


def _p_val(m: int, p: int) -> int:
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v
