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
class functions on it stay tied to the one group object.  Induction is
the left-coset representative formula; which coset conjugates land in
which class of the subgroup is counted once per subgroup.

Character tables come from Dixon's method: split the simultaneous
eigenvectors of the class-sum matrices over a prime field F_P with
P = 1 mod exponent, read the degrees off the orthogonality relation,
and lift the values back to the cyclotomic field through the
eigenvalue-multiplicity discrete Fourier inversion.  The linear algebra
runs on `linalg` over `field_make(P, 1)`; the eigenvalues of a class
matrix on an eigenspace are the roots of its characteristic polynomial
(`linalg.charpoly`, factored by `ffield.poly_factors`).  A prime P above
`ffield.FIELD_LIMIT` raises FieldTooLarge.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Callable, Optional, Sequence

from . import linalg
from .cyclotomic import Cyc, rational, zero
from .errors import HypothesisFailed, InvalidParams, NotSubgroup, WitnessCheckFailed
from .ffield import field_make, is_prime, poly_factors


# ---------------------------------------------------------------------------
# groups as multiplication tables
# ---------------------------------------------------------------------------

class FiniteGroup:
    """Multiplication table group; element 0 is the identity."""

    def __init__(self, table: Sequence[Sequence[int]], check: bool = True):
        self.table = tuple(tuple(r) for r in table)
        self.order = len(self.table)
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
        o, x = 1, a
        while x != 0:
            x = self.mul(x, a)
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
        seen = [False] * self.order
        out = []
        for a in range(self.order):
            if seen[a]:
                continue
            orbit = sorted({self.conj(g, a) for g in range(self.order)})
            for x in orbit:
                seen[x] = True
            out.append(tuple(orbit))
        return tuple(out)


def group_from_elements(gens, op: Callable, ident) -> tuple[FiniteGroup, list]:
    """Closure of abstract hashable elements; returns (group, element list)."""
    elems = [ident]
    index = {ident: 0}
    frontier = [ident]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = op(x, g)
                if y not in index:
                    index[y] = len(elems)
                    elems.append(y)
                    new.append(y)
        frontier = new
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

    Elements (a, b) with (a, b)(c, d) = (a + t^b c, b + d), where t has
    order exactly n mod p.
    """
    if (p - 1) % n:
        raise ValueError(f"need n | p - 1, got ({p}, {n})")
    t = None
    for cand in range(2, p):
        o, x = 1, cand
        while x != 1:
            x = x * cand % p
            o += 1
        if o == n:
            t = cand
            break
    if t is None:
        raise ValueError("no element of the right order")

    def op(u, v):
        a, b = u
        c, d = v
        return ((a + pow(t, b, p) * c) % p, (b + d) % n)

    return group_from_elements([(1, 0), (0, 1)], op, (0, 0))[0]


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    pairs = [(a, b) for a in range(g.order) for b in range(h.order)]
    index = {x: i for i, x in enumerate(pairs)}
    table = [[index[(g.mul(a, c), h.mul(b, d))] for (c, d) in pairs]
             for (a, b) in pairs]
    return FiniteGroup(table)


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
            table = [[pos[parent.mul(a, b)] for b in elems] for a in elems]
        except KeyError:
            raise NotSubgroup("subset is not closed under multiplication")
        self.elements = tuple(elems)
        self.index_of = pos
        self.group = FiniteGroup(table, check=False)
        self.group.inv = tuple(pos[parent.inv[x]] for x in elems)
        self.normal: Optional[bool] = None   # remembered by is_normal
        self.induction: Optional[tuple] = None   # by _induction_terms

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
    elems = {0}
    frontier = [0]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = parent.mul(x, g)
                if y not in elems:
                    elems.add(y)
                    new.append(y)
        frontier = new
    return frozenset(elems)


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


def is_normal(g: FiniteGroup, h: Subgroup) -> bool:
    """Is h normal in g?  Remembered on h when g is its parent."""
    if h.normal is not None and h.parent is g:
        return h.normal
    normal = all(h.contains(g.conj(x, a)) for a in h.elements for x in range(g.order))
    if h.parent is g:
        h.normal = normal
    return normal


def all_subgroups(g: FiniteGroup) -> list[Subgroup]:
    """Every subgroup, found as joins of cyclic subgroups (ascending order)."""
    gens: dict[frozenset, tuple[int, ...]] = {}   # element set -> generators
    for x in range(g.order):
        gens.setdefault(_generated(g, [x]), (x,))
    todo = list(gens)
    while todo:
        a = todo.pop()
        for b in list(gens):
            if a <= b or b <= a:
                continue
            join = _generated(g, gens[a] + gens[b])
            if join not in gens:
                gens[join] = gens[a] + gens[b]
                todo.append(join)
    subs = [_interned(g, s) for s in gens]
    subs.sort(key=lambda s: (s.order, s.elements))
    return subs


# ---------------------------------------------------------------------------
# class functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassFunction:
    """Values (one Cyc per conjugacy class) on a FiniteGroup."""

    group: FiniteGroup
    cyc_order: int
    values: tuple[Cyc, ...]

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
    of h.group.  Remembered on h when g is its parent."""
    if h.induction is not None and h.parent is g:
        return h.induction
    reps = coset_reps(g, h)
    out = []
    for cls in g.classes:
        x = cls[0]
        counts: dict[int, int] = {}
        for r in reps:
            y = g.mul(g.mul(g.inv[r], x), r)
            if h.contains(y):
                c = h.group.class_of[h.index_of[y]]
                counts[c] = counts.get(c, 0) + 1
        out.append(tuple(counts.items()))
    if h.parent is g:
        h.induction = tuple(out)
    return tuple(out)


def restrict(g: FiniteGroup, h: Subgroup, phi: ClassFunction) -> ClassFunction:
    if phi.group is not g:
        raise NotSubgroup("class function is not on the parent group")
    vals = tuple(phi.at(h.elements[cls[0]]) for cls in h.group.classes)
    return ClassFunction(h.group, phi.cyc_order, vals)


def coset_reps(g: FiniteGroup, h: Subgroup) -> list[int]:
    """Least-index representatives of the left cosets rH."""
    covered = [False] * g.order
    reps = []
    for r in range(g.order):
        if not covered[r]:
            reps.append(r)
            for a in h.elements:
                covered[g.mul(r, a)] = True
    return reps


def double_cosets(g: FiniteGroup, h: Subgroup, n: Subgroup) -> list[int]:
    """Least-index representatives of H\\G/N."""
    covered = [False] * g.order
    reps = []
    for r in range(g.order):
        if not covered[r]:
            reps.append(r)
            for a in h.elements:
                ar = g.mul(a, r)
                for b in n.elements:
                    covered[g.mul(ar, b)] = True
    return reps


def conjugate_subgroup(g: FiniteGroup, n: Subgroup, gamma: int) -> Subgroup:
    return _interned(g, [g.conj(gamma, x) for x in n.elements])


def conjugate_classfunction(g: FiniteGroup, n: Subgroup, chi: ClassFunction,
                            gamma: int,
                            target: Optional[Subgroup] = None) -> ClassFunction:
    """chi^gamma on gamma N gamma^-1: x -> chi(gamma^-1 x gamma).

    Pass the conjugate subgroup as `target` to attach the result to an
    existing object (class functions are tied to group identity).
    """
    if target is None:
        target = conjugate_subgroup(g, n, gamma)
    vals = []
    for cls in target.group.classes:
        x = target.elements[cls[0]]
        y = g.conj(g.inv[gamma], x)
        vals.append(chi.at(n.index_of[y]))
    return ClassFunction(target.group, chi.cyc_order, tuple(vals))


def intersect(g: FiniteGroup, a: Subgroup, b: Subgroup) -> Subgroup:
    return _interned(g, [x for x in a.elements if b.contains(x)])


def subgroup_of(g: FiniteGroup, big: Subgroup, small: Subgroup) -> Subgroup:
    """small (a subgroup of g inside big) re-expressed as a subgroup of big.group."""
    return _interned(big.group, [big.index_of[x] for x in small.elements])


def mackey_check(g: FiniteGroup, h: Subgroup, n: Subgroup,
                 chi: ClassFunction) -> bool:
    """Res_H Ind_N^G chi = sum over H\\G/N of Ind_{H cap gNg^-1}^H Res chi^g."""
    lhs = restrict(g, h, induce(g, n, chi))
    acc = None
    for gamma in double_cosets(g, h, n):
        ng = conjugate_subgroup(g, n, gamma)
        chig = conjugate_classfunction(g, n, chi, gamma, target=ng)
        meet = intersect(g, h, ng)
        # restrict chi^gamma to the intersection, then induce up to H
        meet_in_ng = subgroup_of(g, ng, meet)
        res = restrict(ng.group, meet_in_ng, chig)
        meet_in_h = subgroup_of(g, h, meet)
        # the two copies of `meet` have identical element order, so the
        # class function transports index-by-index
        transported = ClassFunction(meet_in_h.group, res.cyc_order, res.values)
        term = induce(h.group, meet_in_h, transported)
        acc = term if acc is None else acc + term
    return acc == lhs


# ---------------------------------------------------------------------------
# character tables (Dixon's method)
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
    """
    e = g.exponent
    n_cyc = cyc_order if cyc_order is not None else e
    if n_cyc % e:
        raise ValueError("cyclotomic order must be a multiple of the exponent")
    k = len(g.classes)
    reps = [cls[0] for cls in g.classes]
    p = _dixon_prime(e, g.order)
    fp = field_make(p, 1)   # FieldTooLarge beyond FIELD_LIMIT
    w = fp.ctx.pow(fp.ctx.generator(), (p - 1) // e)
    rng = random.Random(0)

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
    spaces = [linalg.identity(fp, k)]
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
            for f in poly_factors(fp, linalg.charpoly(fp, r), rng):
                if len(f) > 2:
                    raise WitnessCheckFailed("a class matrix does not split over F_P")
                lam = fp.ctx.neg(f[0])
                shifted = linalg.mat_sub(fp, r, linalg.scalar_mat(fp, d, lam))
                new_spaces.append(linalg.mat_mul(fp, linalg.nullspace(fp, shifted, d), v))
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
    root_powers = {}
    for o in set(g.element_orders):
        wo = pow(w, e // o, p)
        root_powers[o] = [pow(wo, t, p) for t in range(o)]

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
            wt = root_powers[o]
            o_inv = pow(o, -1, p)
            # value = sum_u m_u zeta^(u n_cyc / o), m_u the multiplicity of
            # the eigenvalue w_o^u of z
            vec = [0] * n_cyc
            for u in range(o):
                m_u = sum(chi_p[c] * wt[(-u * s_) % o] for s_, c in enumerate(cls))
                m_u = m_u * o_inv % p
                if m_u > deg:
                    raise WitnessCheckFailed("multiplicity lift out of range")
                vec[u * (n_cyc // o)] = m_u
            values.append(Cyc(n_cyc, vec))
        chars.append(ClassFunction(g, n_cyc, tuple(values)))
    if degree_sq_sum != g.order:
        raise WitnessCheckFailed("degrees do not sum to |G|")
    chars.sort(key=lambda c: (c.degree.rational_value(),
                              tuple(v.reduced() for v in c.values)))
    return chars


def linear_characters(g: FiniteGroup, cyc_order: Optional[int] = None
                      ) -> list[ClassFunction]:
    return [c for c in character_table(g, cyc_order)
            if c.degree.rational_value() == 1]


def character_order(chi: ClassFunction) -> int:
    """Order of a degree-1 character in the dual group."""
    if chi.degree.rational_value() != 1:
        raise InvalidParams("order is for linear characters")
    one = trivial_character(chi.group, chi.cyc_order)
    acc = chi
    o = 1
    while acc != one:
        acc = acc * chi
        o += 1
    return o


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
    s = 0
    while m % p == 0:
        m //= p
        s += 1
    ps = p ** s
    t = m
    # u = 1 mod p^s, 0 mod t
    if t == 1:
        return chi, trivial_character(chi.group, chi.cyc_order)
    u = (t * pow(t, -1, ps)) % (ps * t)
    chi1 = character_power(chi, u)
    chi2 = character_power(chi, (1 - u) % (ps * t))
    return chi1, chi2


def distinct_conjugates(g: FiniteGroup, n: Subgroup, chi1: ClassFunction) -> bool:
    """Are the (G:N) conjugates of chi1 (a character of N) pairwise distinct?"""
    reps = coset_reps(g, n)
    seen = []
    for gamma in reps:
        # N normal: gamma N gamma^-1 = N, so chi^gamma lives on N again
        vals = []
        for cls in n.group.classes:
            x = n.elements[cls[0]]
            vals.append(chi1.at(n.index_of[g.conj(g.inv[gamma], x)]))
        cf = ClassFunction(n.group, chi1.cyc_order, tuple(vals))
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
