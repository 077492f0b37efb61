"""Exact dense linear algebra over Fraction or EScalar entries.

Matrices are lists of lists (rows); vectors are lists.  Everything returns
new objects; nothing is mutated in place by callers.
"""

from __future__ import annotations

from fractions import Fraction

from .fields import one_like, scalar_inverse
from .poly import Polynomial


def _one(A):
    """1 in the scalar domain of the matrix A."""
    return one_like(A[0][0]) if A and A[0] else Fraction(1)


def zeros(r, c):
    return [[Fraction(0)] * c for _ in range(r)]


def identity(n, one=Fraction(1)):
    return [[one if i == j else one * 0 for j in range(n)] for i in range(n)]


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
    it = iter(zip(u, v))
    a, b = next(it)
    s = a * b
    for a, b in it:
        s = s + a * b
    return s


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


def det(A):
    """Determinant by Gaussian elimination with field division: every
    nonzero pivot must be invertible (Q or the inert extension)."""
    n, m = dims(A)
    assert n == m, "determinant of a non-square matrix"
    M = [list(row) for row in A]
    sign = 1
    acc = None
    for j in range(n):
        piv = None
        for i in range(j, n):
            if M[i][j]:
                piv = i
                break
        if piv is None:
            z = M[0][0] * 0
            return z
        if piv != j:
            M[j], M[piv] = M[piv], M[j]
            sign = -sign
        pv = M[j][j]
        acc = pv if acc is None else acc * pv
        if j + 1 < n:
            pv_inv = scalar_inverse(pv)
        for i in range(j + 1, n):
            if not M[i][j]:
                continue
            f = M[i][j] * pv_inv
            M[i] = [a - f * b for a, b in zip(M[i], M[j])]
    if acc is None:
        return Fraction(1)
    return acc if sign == 1 else -acc


def rref(A):
    """Reduced row echelon form; returns (R, pivot_columns)."""
    n, m = dims(A)
    M = [list(row) for row in A]
    pivots = []
    r = 0
    for j in range(m):
        piv = None
        for i in range(r, n):
            if M[i][j]:
                piv = i
                break
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = scalar_inverse(M[r][j])
        M[r] = [a * inv for a in M[r]]
        for i in range(n):
            if i != r and M[i][j]:
                f = M[i][j]
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        pivots.append(j)
        r += 1
        if r == n:
            break
    return M, pivots


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
            v[p] = -R[r_i][f] * one
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
    one = _one(A)
    M = [list(row) + [one if i == j else one * 0 for j in range(n)]
         for i, row in enumerate(A)]
    R, pivots = rref(M)
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("singular matrix")
    return [row[n:] for row in R[:n]]


def charpoly(A) -> Polynomial:
    """Monic characteristic polynomial det(tI - A) by the trace recursion
    (Faddeev-LeVerrier); only divisions by small integers occur."""
    n, m = dims(A)
    assert n == m
    if n == 0:
        return Polynomial([1])
    coeffs = [_one(A)]      # descending: t^n coefficient first
    M = A                   # M_k = A (M_{k-1} + c_{k-1} I), M_1 = A
    for k in range(1, n + 1):
        tr = M[0][0]
        for i in range(1, n):
            tr = tr + M[i][i]
        c = tr * Fraction(-1, k)
        coeffs.append(c)
        if k < n:
            M = mat_mul(A, [[x + c if i == j else x for j, x in enumerate(row)]
                            for i, row in enumerate(M)])
    return Polynomial(list(reversed(coeffs)))


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
