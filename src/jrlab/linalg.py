"""Exact dense linear algebra over Fraction or EScalar entries.

Matrices are lists of lists (rows); vectors are lists.  Everything returns
new objects; nothing is mutated in place by callers.

The kernels run on integers: dot products, over Q or over E, sum integer
products over one common denominator; det and rref (so inverse, solve,
nullspace, rank) eliminate fraction-free on rows scaled into Z or
Z[sqrt(eps)]; charpoly is Berkowitz's division-free one.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm, prod
from operator import floordiv, mul, sub

from .fields import EScalar, one_like
from .poly import Polynomial


def _one(A):
    """1 in the scalar domain of the matrix A."""
    return one_like(A[0][0]) if A and A[0] else Fraction(1)


def zeros(r, c):
    return [[Fraction(0)] * c for _ in range(r)]


def identity(n, one=Fraction(1)):
    zero = one * 0
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def dims(A):
    return len(A), len(A[0]) if A else 0


def mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_scale(A, c):
    return [[a * c for a in row] for row in A]


def mat_mul(A, B):
    n, k = dims(A)
    k2, m = dims(B)
    assert k == k2, "inner dimensions differ"
    Bt = list(zip(*B))
    return [[_dot(row, col) for col in Bt] for row in A]


def _dot(u, v):
    """sum(a * b) with one normalisation instead of one per term: each vector
    is scaled to integers over a common denominator.  Ints and Fractions sum
    over Q (to an int when all are ints); with an EScalar among the entries,
    all are coerced into its context and the x and sqrt(eps) parts summed."""
    z = u[0] if u else None
    if type(z) is not EScalar or not all(type(a) is EScalar and a.ctx is z.ctx
                                         for a in chain(u, v)):
        types = {*map(type, u), *map(type, v)}
        if EScalar not in types:
            if Fraction not in types:
                return sum(map(mul, u, v))
            du, dv = lcm(*[a.denominator for a in u]), lcm(*[b.denominator for b in v])
            return Fraction(sum(map(mul, _scaled(u, du), _scaled(v, dv))), du * dv)
        z = next(a for a in chain(u, v) if type(a) is EScalar)
        u, v = ([z._coerce(a) for a in w] for w in (u, v))
    ctx = z.ctx
    ux, uy, vx, vy = [a.x for a in u], [a.y for a in u], [b.x for b in v], [b.y for b in v]
    du, dv = lcm(*[c.denominator for c in ux + uy]), lcm(*[c.denominator for c in vx + vy])
    ux, uy, vx, vy = _scaled(ux, du), _scaled(uy, du), _scaled(vx, dv), _scaled(vy, dv)
    x = sum(map(mul, ux, vx)) + ctx.eps * sum(map(mul, uy, vy))
    y = sum(map(mul, ux, vy)) + sum(map(mul, uy, vx))
    return EScalar(Fraction(x, du * dv), Fraction(y, du * dv), ctx)


def _scaled(fracs, d):
    """The integers d * f, for rationals f (int or Fraction) whose
    denominators divide d."""
    return [f.numerator * (d // f.denominator) for f in fracs]


def mat_vec(A, v):
    return [_dot(row, v) for row in A]


def vec_mat(v, A):
    return [_dot(v, col) for col in zip(*A)]


def dot(u, v):
    return _dot(u, v)


def vec_add(u, v):
    return [a + b for a, b in zip(u, v)]


def vec_sub(u, v):
    return [a - b for a, b in zip(u, v)]


def conj_matrix(A):
    return [[a.conj() for a in row] for row in A]


def conj_transpose(A):
    return [[a.conj() for a in row] for row in zip(*A)]


def krylov(A, v, count):
    """[v, A v, ..., A^(count-1) v]."""
    out = []
    for _ in range(count):
        out.append(mat_vec(A, out[-1]) if out else list(v))
    return out


def block_diag(blocks, zero):
    """Block-diagonal matrix of the given square blocks, zero elsewhere."""
    n = sum(len(B) for B in blocks)
    out = [[zero] * n for _ in range(n)]
    off = 0
    for B in blocks:
        for i, row in enumerate(B):
            out[off + i][off:off + len(B)] = row
        off += len(B)
    return out


def _coords(A):
    """A with each row scaled to integer coordinates, the product of the row
    scales, and the context (None over Q).  Over E an entry x + y sqrt(eps)
    becomes the pair (x, y) in Z[sqrt(eps)]; contexts are checked as by
    EScalar arithmetic."""
    z = next((a for row in A for a in row if type(a) is EScalar), None)
    if z is None:
        ds = [lcm(*[a.denominator for a in row]) for row in A]
        return [_scaled(row, d) for row, d in zip(A, ds)], prod(ds), None
    rows = [[z._coerce(a) for a in row] for row in A]
    ds = [lcm(*[c.denominator for a in row for c in (a.x, a.y)]) for row in rows]
    return [list(zip(_scaled([a.x for a in row], d), _scaled([a.y for a in row], d)))
            for row, d in zip(rows, ds)], prod(ds), z.ctx


def _ring(ctx):
    """(zero, one, product, difference, exact quotient) on the coordinates of
    `_coords`; over E a quotient is by way of the conjugate and the norm."""
    if ctx is None:
        return 0, 1, mul, sub, floordiv
    e = ctx.eps
    emul = lambda a, b: (a[0] * b[0] + e * a[1] * b[1], a[0] * b[1] + a[1] * b[0])
    ediv = lambda a, b: tuple(c // (b[0] * b[0] - e * b[1] * b[1]) for c in emul(a, (b[0], -b[1])))
    return (0, 0), (1, 0), emul, lambda a, b: (a[0] - b[0], a[1] - b[1]), ediv


def _quotient(a, d, ctx):
    """a / d as a scalar, for coordinates a and d."""
    if ctx is None:
        return Fraction(a, d)
    e, n = ctx.eps, d[0] * d[0] - ctx.eps * d[1] * d[1]
    return EScalar(Fraction(a[0] * d[0] - e * a[1] * d[1], n),
                   Fraction(a[1] * d[0] - a[0] * d[1], n), ctx)


def _bareiss(M, ctx, below):
    """Fraction-free elimination (Bareiss 1968) of the coordinate matrix M in
    place: pivot p clears its column from the rows below (and, unless
    `below`, above), each entry becoming (p a - f b) / (previous pivot), an
    exact quotient.  Returns the pivot columns, the last pivot and the sign
    of the row swaps."""
    zero, prev, mul_, sub_, div = _ring(ctx)
    pivots, sign = [], 1
    for j in range(len(M[0]) if M else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(M)) if M[i][j] != zero), None)
        if piv is None:
            continue
        if piv != r:
            M[r], M[piv], sign = M[piv], M[r], -sign
        p, top = M[r][j], M[r]
        for i in range(r + 1 if below else 0, len(M)):
            if i != r:
                f, lo = M[i][j], j if i > r else 0
                M[i][lo:] = [div(sub_(mul_(p, a), mul_(f, b)), prev)
                             for a, b in zip(M[i][lo:], top[lo:])]
        prev = p
        pivots.append(j)
    return pivots, prev, sign


def det(A):
    """Determinant by fraction-free elimination on integer coordinates
    (`_bareiss`): the last pivot over the product of the row scales.  No
    scalar is inverted, and a 1 x 1 matrix returns its entry."""
    n, m = dims(A)
    assert n == m, "determinant of a non-square matrix"
    if n < 2:
        return A[0][0] if n else Fraction(1)
    M, d, ctx = _coords(A)
    pivots, p, sign = _bareiss(M, ctx, True)
    p = p if len(pivots) == n else _ring(ctx)[0]
    return _quotient(p, sign * d if ctx is None else (sign * d, 0), ctx)


def rref(A):
    """Reduced row echelon form; returns (R, pivot_columns).  Scaling A's
    rows to integer coordinates leaves the form unchanged; fraction-free
    Gauss-Jordan elimination (`_bareiss`) ends with every pivot equal to
    the last one, which divides out."""
    M, _, ctx = _coords(A)
    pivots, p, _ = _bareiss(M, ctx, False)
    return [[_quotient(a, p, ctx) for a in row] for row in M], pivots


def rank(A):
    return len(rref(A)[1])


def nullspace(A):
    """Basis of the right kernel, as a list of vectors."""
    n, m = dims(A)
    R, pivots = rref(A)
    free = [j for j in range(m) if j not in pivots]
    basis = []
    one = _one(A)
    for f in free:
        v = [one * 0 for _ in range(m)]
        v[f] = one
        for r_i, p in enumerate(pivots):
            v[p] = -R[r_i][f]
        basis.append(v)
    return basis


def solve(A, b):
    """Solve A x = b for square invertible A."""
    n, m = dims(A)
    assert n == m
    M = [list(row) + [bv] for row, bv in zip(A, b)]
    R, pivots = rref(M)
    if len(pivots) != n or pivots != list(range(n)):
        raise ZeroDivisionError("singular system")
    return [R[i][n] for i in range(n)]


def inverse(A):
    n, m = dims(A)
    assert n == m
    R, pivots = rref([list(row) + e for row, e in zip(A, identity(n, _one(A)))])
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("singular matrix")
    return [row[n:] for row in R[:n]]


def charpoly(A) -> Polynomial:
    """Monic characteristic polynomial det(tI - A) by Berkowitz's
    division-free recursion (Inf. Process. Lett. 18, 1984): the polynomial
    of each leading (r+1) x (r+1) block is a Toeplitz matrix, built from
    the new row R, column C and corner a as 1, -a, -R C, -R A_r C, ...,
    times the polynomial of the r x r block A_r."""
    n, m = dims(A)
    assert n == m
    one = _one(A) if n else 1
    c = [one]                   # descending: t^r coefficient first
    for r in range(n):
        Ar, R, v = [row[:r] for row in A[:r]], A[r][:r], [row[r] for row in A[:r]]
        q = [one, -A[r][r]]
        for k in range(r):
            q.append(-_dot(R, v))
            v = [_dot(row, v) for row in Ar] if k + 1 < r else v
        c = [one] + [_dot(q[i::-1], c) for i in range(1, r + 2)]
    return Polynomial(c[::-1])


def poly_apply(p: Polynomial, A):
    """p(A) for a square matrix A (Horner)."""
    n, _ = dims(A)
    one = _one(A)
    out = None
    for c in reversed(p.coeffs):
        cI = mat_scale(identity(n, one), c)
        out = cI if out is None else mat_add(mat_mul(out, A), cI)
    if out is None:
        out = mat_scale(identity(n, one), 0)
    return out


def is_zero_matrix(A) -> bool:
    return not any(a for row in A for a in row)


def semisimple_part(A):
    """The semisimple summand of the additive Jordan decomposition, as a
    polynomial in A: Newton iteration on the squarefree part of the
    characteristic polynomial."""
    from .poly import squarefree_part

    chi = charpoly(A)
    P = squarefree_part(chi)
    dP = P.derivative()
    X = [row[:] for row in A]
    # P(A) is nilpotent, so P'(X) stays invertible and the iteration
    # terminates in <= log2(n)+1 steps.
    for _ in range(len(A).bit_length() + 2):
        PX = poly_apply(P, X)
        if is_zero_matrix(PX):
            return X
        corr = mat_mul(inverse(poly_apply(dP, X)), PX)
        X = mat_sub(X, corr)
    raise ArithmeticError("Jordan iteration failed to terminate")


def in_span(vectors, v) -> bool:
    """Whether v lies in the span of the given vectors."""
    if not vectors:
        return not any(v)
    A = [list(col) for col in zip(*vectors)]           # columns = vectors
    return rank(A) == rank([row + [x] for row, x in zip(A, v)])
