"""Exact dense linear algebra over Fraction or EScalar entries.

Matrices are lists of lists (rows); vectors are lists.  Everything returns
new objects; nothing is mutated in place by callers.

The kernels run on integers, each operand scaled into Z or Z[sqrt(eps)]
once: products sum integer products over one common denominator per row
and column; Krylov sequences and moments c A^k b iterate A's integer matrix
on b's coordinates; det, rref and inverse eliminate fraction-free on scaled
rows; charpoly is Berkowitz's division-free one, run on A's integer matrix.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import lcm, prod
from operator import floordiv, mul, sub

from .fields import EScalar, one_like
from .poly import Polynomial, squarefree_part


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
    assert dims(A)[1] == dims(B)[0], "inner dimensions differ"
    cols = [_split(col) for col in zip(*B)]
    return [[_pair(row, col) for col in cols] for row in map(_split, A)]


def mat_vec(A, v):
    s = _split(v)
    return [_pair(_split(row), s) for row in A]


def vec_mat(v, A):
    s = _split(v)
    return [_pair(s, _split(col)) for col in zip(*A)]


def dot(u, v):
    return _pair(_split(u), _split(v))


def _split(v):
    """v = (x + y sqrt(eps)) / d on integer lists, as (x, y, d, ctx, ints):
    over Q, y and ctx are None and `ints` says whether every entry is an int;
    over E, ctx is that of v's first EScalar, checked against the others."""
    types = set(map(type, v))
    if EScalar not in types:
        if Fraction not in types:
            return v, None, 1, None, True
        x, d = _scaled(v)
        return x, None, d, None, False
    z = next(a for a in v if type(a) is EScalar)
    if len(types) > 1 or [a.ctx for a in v].count(z.ctx) < len(v):
        v = [z._coerce(a) for a in v]
    xy, d = _scaled([a.x for a in v] + [a.y for a in v])
    return xy[:len(v)], xy[len(v):], d, z.ctx, False


def _scaled(fracs):
    """The integers d * f for rationals f over their least common denominator d, and d."""
    ratios = [f.as_integer_ratio() for f in fracs]
    d = lcm(*[e for _, e in ratios])
    return [a * (d // e) for a, e in ratios], d


def _join(a, b):
    """The context of a product in contexts a and b (None over Q): a, else b."""
    if a is not None and b is not None and b is not a and b != a:
        raise ValueError(f"mixed contexts: {a} and {b}")
    return b if a is None else a


def _pair(su, sv):
    """u . v for split u and v, summed in integers: an int when both are all
    ints, else a Fraction, or over E an EScalar in the context `_join` gives."""
    x, y, ctx = _dotz(su, sv)
    return _scalar(x, y, su[2] * sv[2], ctx, su[4] and sv[4])


def _dotz(su, sv):
    """Integers x, y and ctx with u . v = (x + y sqrt(eps)) / (du dv); over Q, (x, None, None)."""
    ux, uy, _, cu, _ = su
    vx, vy, _, cv, _ = sv
    x = sum(map(mul, ux, vx))
    if cu is cv is None:
        return x, None, None
    ctx = _join(cu, cv)
    uy, vy = uy or [0] * len(ux), vy or [0] * len(vx)
    return x + ctx.eps * sum(map(mul, uy, vy)), sum(map(mul, ux, vy)) + sum(map(mul, uy, vx)), ctx


def _scalar(x, y, d, ctx, ints):
    """(x + y sqrt(eps)) / d: an EScalar in ctx, else an int or a Fraction."""
    if ctx is not None:
        return EScalar(Fraction(x, d), Fraction(y, d), ctx)
    return x // d if ints else Fraction(x, d)


def vec_add(u, v):
    return [a + b for a, b in zip(u, v)]


def vec_sub(u, v):
    return [a - b for a, b in zip(u, v)]


def conj_matrix(A):
    return [[a.conj() for a in row] for row in A]


def conj_transpose(A):
    return [[a.conj() for a in row] for row in zip(*A)]


def _iterates(rows, s, count):
    """The splits of v, A v, ..., A^(count-1) v from A's split rows and v's
    split s: with A = M / D, A^k v is M^k x over D^k d, and over E M acts on
    (x, y) as [[Mx, eps My], [My, Mx]].  Each has the kind (first context,
    all ints) that `_pair` gives A's rows against the vector before."""
    x, y, d, c, ints = s
    D, n = lcm(*[r[2] for r in rows]), len(rows)
    ctx = _join(reduce(_join, [r[3] for r in rows], None), c)
    M = [[a * (D // r[2]) for a in r[0]] for r in rows]
    if ctx is not None:
        My = [[a * (D // r[2]) for a in r[1] or [0] * n] for r in rows]
        M = [m + [ctx.eps * a for a in q] for m, q in zip(M, My)] + [q + m for m, q in zip(M, My)]
        x = list(x) + (y or [0] * n)
    first = next((r[3] for r in rows if r[3] is not None), None)
    for k in range(count):
        if k:
            x = [sum(map(mul, m, x)) for m in M]
            d, c, ints = d * D, rows[0][3] or c if c else first, ints and all(r[4] for r in rows)
        yield x[:n], ctx and x[n:], d, c, ints


def krylov(A, v, count):
    """[v, A v, ..., A^(count-1) v] from `_iterates`: entry i of A^k v
    (k >= 1) has the type `_pair` gives row i of A against A^(k-1) v."""
    rows, out = [_split(row) for row in A], []
    for x, y, d, c, ints in _iterates(rows, _split(v), count):
        out.append([_scalar(a, y and y[i], d, _join(r[3], pc), r[4] and pi)
                    for i, (a, r) in enumerate(zip(x, rows))] if out else list(v))
        pc, pi = c, ints
    return out


def moment_sequence(c, A, b, count):
    """[c b, c A b, ..., c A^(count-1) b]: c's split paired with each split
    of `_iterates`, so no vector is built.  The first is `dot(c, b)`."""
    if count < 2:
        return [dot(c, b) for _ in range(count)]
    sc, it = _split(c), _iterates([_split(row) for row in A], _split(b), count)
    return [_pair(sc, s) if k else dot(c, b) for k, s in enumerate(it)]


def block_diag(blocks, zero):
    """Block-diagonal matrix of the given square blocks, zero elsewhere."""
    n, out = sum(len(B) for B in blocks), []
    for B in blocks:
        off = len(out)
        out += [[zero] * off + list(row) + [zero] * (n - off - len(B)) for row in B]
    return out


def _coords(A):
    """A's rows scaled to integer coordinates by `_split` (over E, pairs (x, y)
    in Z[sqrt(eps)]), the row scales, and the context."""
    rows = [_split(row) for row in A]
    ctx = reduce(_join, [r[3] for r in rows], None)
    return ([list(x) if ctx is None else list(zip(x, y or [0] * len(x))) for x, y, *_ in rows],
            [r[2] for r in rows], ctx)


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
    M, ds, ctx = _coords(A)
    pivots, p, sign = _bareiss(M, ctx, True)
    p, d = p if len(pivots) == n else _ring(ctx)[0], sign * prod(ds)
    return _quotient(p, d if ctx is None else (d, 0), ctx)


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
    """Basis of the right kernel: for each free column f, the vector with 1
    at f, minus column f of the reduced form at the pivot columns, 0 elsewhere."""
    R, pivots = rref(A)
    m, one, row = dims(A)[1], _one(A), {p: i for i, p in enumerate(pivots)}
    return [[-R[row[j]][f] if j in row else one if j == f else one * 0 for j in range(m)]
            for f in range(m) if f not in row]


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
    """Gauss-Jordan (`_bareiss`) takes [d_i A_i | d_i e_i], row i scaled to
    integers by d_i, to [p I | p A^{-1}]; only the right half is divided."""
    n, m = dims(A)
    assert n == m
    M, ds, ctx = _coords(A)
    zero = _ring(ctx)[0]
    for i, d in enumerate(ds):
        M[i] += [zero] * i + [d if ctx is None else (d, 0)] + [zero] * (n - 1 - i)
    pivots, p, _ = _bareiss(M, ctx, False)
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("singular matrix")
    return [[_quotient(a, p, ctx) for a in row[n:]] for row in M]


def charpoly(A) -> Polynomial:
    """Monic det(tI - A) by Berkowitz's division-free recursion (Inf.
    Process. Lett. 18, 1984) on A = M / D, A's rows split once: the t^(n-i)
    coefficient is det(sI - M)'s over D^i.  Each leading block of M adds a
    Toeplitz factor from its corner a, row R and column C: 1, -a and the
    negated moments -R C, -R M_r C, ... (`_iterates` on M's rows)."""
    n, m = dims(A)
    assert n == m
    if n < 2:
        return Polynomial([-A[0][0] * _one(A), _one(A)] if n else [1])
    rows = [_split(row) for row in A]
    D, ctx = lcm(*[s[2] for s in rows]), reduce(_join, [s[3] for s in rows], None)
    X = [[a * (D // d) for a in x] for x, _, d, *_ in rows]
    Y = [[a * (D // d) for a in y or [0] * n] for _, y, d, *_ in rows] if ctx else X
    vec = lambda x, y, *_: (x, ctx and y, 1, ctx, True)
    c = vec([1], [0])           # descending: s^r coefficient first
    for r in range(n):
        C = vec([x[r] for x in X[:r]], [y[r] for y in Y[:r]])
        it = _iterates([vec(x[:r], y[:r]) for x, y in zip(X[:r], Y)], C, r) if r else ()
        moments = (_dotz(vec(X[r][:r], Y[r][:r]), v) for v in it)
        qx, qy = zip((1, 0), (-X[r][r], -Y[r][r]), *((-x, -(y or 0)) for x, y, _ in moments))
        c = vec(*zip(*[_dotz(vec(qx[i::-1], qy[i::-1]), c) for i in range(r + 2)]))
    return Polynomial([_scalar(x, ctx and c[1][i], D ** i, ctx, False)
                       for i, x in enumerate(c[0])][::-1])


def poly_apply(p: Polynomial, A):
    """p(A) by Horner, each step adding c to the diagonal of out A (A's columns split once)."""
    n, _ = dims(A)
    out = mat_scale(identity(n, _one(A)), p.coeffs[-1] if p.coeffs else 0)
    cols = [_split(col) for col in zip(*A)]
    for c in reversed(p.coeffs[:-1]):
        out = [[_pair(row, col) for col in cols] for row in map(_split, out)]
        for i in range(n):
            out[i][i] += c
    return out


def is_zero_matrix(A) -> bool:
    return not any(a for row in A for a in row)


def semisimple_part(A):
    """The semisimple summand of the additive Jordan decomposition, as a
    polynomial in A: Newton iteration on the squarefree part of the
    characteristic polynomial."""
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
