"""Small exact linear algebra over a field spec.

Vectors are tuples of element indices, matrices are tuples of row tuples.
Everything is pure and hashable; sizes are desk scale (n <= 8), so the
algorithms are plain Gaussian elimination, and the determinant is read off
the characteristic polynomial.
"""

from __future__ import annotations

from .errors import Singular
from .ffield import FieldSpec

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]


def identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def zero_mat(n: int, m: int) -> Mat:
    return tuple((0,) * m for _ in range(n))


def transpose(a: Mat) -> Mat:
    return tuple(zip(*a)) if a else ()


def mat_mul(spec: FieldSpec, a: Mat, b: Mat) -> Mat:
    ctx = spec.ctx
    bt = transpose(b)
    out = []
    for row in a:
        orow = []
        for col in bt:
            acc = 0
            for x, y in zip(row, col):
                if x and y:
                    acc = ctx.add(acc, ctx.mul(x, y))
            orow.append(acc)
        out.append(tuple(orow))
    return tuple(out)


def mat_vec(spec: FieldSpec, a: Mat, v: Vec) -> Vec:
    ctx = spec.ctx
    out = []
    for row in a:
        acc = 0
        for x, y in zip(row, v):
            if x and y:
                acc = ctx.add(acc, ctx.mul(x, y))
        out.append(acc)
    return tuple(out)


def vec_dot(spec: FieldSpec, u: Vec, v: Vec) -> int:
    ctx = spec.ctx
    acc = 0
    for x, y in zip(u, v):
        if x and y:
            acc = ctx.add(acc, ctx.mul(x, y))
    return acc


def scalar_mat(n: int, c: int) -> Mat:
    return tuple(tuple(c if i == j else 0 for j in range(n)) for i in range(n))


def mat_scalar(spec: FieldSpec, a: Mat, c: int) -> Mat:
    ctx = spec.ctx
    return tuple(tuple(ctx.mul(x, c) for x in row) for row in a)


def mat_sub(spec: FieldSpec, a: Mat, b: Mat) -> Mat:
    ctx = spec.ctx
    return tuple(tuple(ctx.sub(x, y) for x, y in zip(ra, rb))
                 for ra, rb in zip(a, b))


def mat_add(spec: FieldSpec, a: Mat, b: Mat) -> Mat:
    ctx = spec.ctx
    return tuple(tuple(ctx.add(x, y) for x, y in zip(ra, rb))
                 for ra, rb in zip(a, b))


def charpoly(spec: FieldSpec, a: Mat) -> list[int]:
    """det(xI - a) as coefficients, constant term first (monic, length n+1).

    Elimination similarities bring a to upper Hessenberg form h, then the
    determinant is expanded along the subdiagonal:
    p_m = (x - h_mm) p_{m-1} - sum_{i<m} h_im (h_{i+1,i} ... h_{m,m-1}) p_{i-1}.
    Nothing divides by an integer, so this holds in every characteristic.
    """
    ctx = spec.ctx
    n = len(a)
    h = [list(r) for r in a]
    for j in range(n - 2):
        k = j + 1
        piv = next((i for i in range(k, n) if h[i][j]), None)
        if piv is None:
            continue
        if piv != k:
            h[piv], h[k] = h[k], h[piv]
            for row in h:
                row[piv], row[k] = row[k], row[piv]
        inv = ctx.inv(h[k][j])
        for i in range(k + 1, n):
            c = ctx.mul(h[i][j], inv)
            if c:
                # row i -= c row k, then column k += c column i
                h[i] = [ctx.sub(x, ctx.mul(c, y)) for x, y in zip(h[i], h[k])]
                for row in h:
                    row[k] = ctx.add(row[k], ctx.mul(c, row[i]))
    polys = [[1]]
    for m in range(n):
        cur = [0] + polys[m]
        for i, c in enumerate(polys[m]):
            cur[i] = ctx.sub(cur[i], ctx.mul(h[m][m], c))
        t = 1
        for i in range(m - 1, -1, -1):
            t = ctx.mul(t, h[i + 1][i])
            c = ctx.mul(h[i][m], t)
            for k, d in enumerate(polys[i]):
                cur[k] = ctx.sub(cur[k], ctx.mul(c, d))
        polys.append(cur)
    return polys[n]


def mat_poly(spec: FieldSpec, f, a: Mat) -> Mat:
    """f(a), for f given as coefficients, constant term first (Horner)."""
    n = len(a)
    out = zero_mat(n, n)
    for c in reversed(f):
        out = mat_add(spec, mat_mul(spec, out, a), scalar_mat(n, c))
    return out


def rref(spec: FieldSpec, rows) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    ctx = spec.ctx
    work = [list(r) for r in rows]
    m = len(work[0]) if work else 0
    pivots = []
    rank = 0
    for col in range(m):
        pr = None
        for i in range(rank, len(work)):
            if work[i][col]:
                pr = i
                break
        if pr is None:
            continue
        work[rank], work[pr] = work[pr], work[rank]
        inv = ctx.inv(work[rank][col])
        work[rank] = [ctx.mul(x, inv) for x in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col]:
                c = work[i][col]
                work[i] = [ctx.sub(x, ctx.mul(c, y))
                           for x, y in zip(work[i], work[rank])]
        pivots.append(col)
        rank += 1
    return tuple(tuple(r) for r in work[:rank]), tuple(pivots)


def rank(spec: FieldSpec, rows) -> int:
    return len(rref(spec, rows)[0])


def det(spec: FieldSpec, a: Mat) -> int:
    """det(a) = (-1)^n charpoly(a)(0)."""
    c = charpoly(spec, a)[0]
    return spec.ctx.neg(c) if len(a) % 2 else c


def inverse(spec: FieldSpec, a: Mat) -> Mat:
    n = len(a)
    aug = [list(row) + [1 if i == j else 0 for j in range(n)]
           for i, row in enumerate(a)]
    red, pivots = rref(spec, aug)
    if len(red) < n or pivots[:n] != tuple(range(n)):
        raise Singular("matrix is not invertible")
    return tuple(tuple(row[n:]) for row in red)


def nullspace(spec: FieldSpec, a: Mat, ncols: int) -> Mat:
    """Basis (rows) of {x : a x = 0}, in reduced echelon form."""
    red, pivots = rref(spec, a) if a else ((), ())
    ctx = spec.ctx
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for i, p in enumerate(pivots):
            v[p] = ctx.neg(red[i][f])
        basis.append(tuple(v))
    return rref(spec, basis)[0] if basis else ()


def solve(spec: FieldSpec, a: Mat, b: Vec) -> Vec:
    """One solution x of a x = b; raises Singular if inconsistent."""
    ncols = len(a[0])
    aug = [list(row) + [bv] for row, bv in zip(a, b)]
    red, pivots = rref(spec, aug)
    x = [0] * ncols
    for i, p in enumerate(pivots):
        if p == ncols:
            raise Singular("inconsistent linear system")
        x[p] = red[i][-1]
    return tuple(x)


def in_rowspace(spec: FieldSpec, rows: Mat, v: Vec) -> bool:
    """Membership of v in the row space of an echelonized basis."""
    ctx = spec.ctx
    w = list(v)
    for row in rows:
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is not None and w[lead]:
            c = w[lead]   # row is reduced: row[lead] == 1
            w = [ctx.sub(x, ctx.mul(c, y)) for x, y in zip(w, row)]
    return not any(w)


def extend_echelon(spec: FieldSpec, rows: list[list[int]], v: Vec) -> bool:
    """Reduce v against an echelon list in place; append if independent.

    Rows are kept in (non-reduced) echelon order sorted by leading index.
    Returns True if the span grew.
    """
    ctx = spec.ctx
    w = list(v)
    for row in rows:
        lead = next(j for j, x in enumerate(row) if x)
        if w[lead]:
            c = ctx.mul(w[lead], ctx.inv(row[lead]))
            w = [ctx.sub(x, ctx.mul(c, y)) for x, y in zip(w, row)]
    if not any(w):
        return False
    rows.append(w)
    rows.sort(key=lambda r: next(j for j, x in enumerate(r) if x))
    return True
