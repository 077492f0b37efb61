"""Differential tests of the exact linear algebra against independent
implementations.  Against sympy: det, charpoly and nullspace of seeded
rational matrices of size 2..6 (full rank and low rank), det, charpoly,
rref and inverse of singular and zero-corner rational matrices of size
1..6, resultants and discriminants of seeded rational polynomials of degree
2..6 (with and without common factors).  Against the Leibniz formula: det,
charpoly, rref and inverse of seeded matrices over the inert extension at
p = 3 and 5, size 1..4, singular and zero-corner ones among them."""

import itertools
import random
from fractions import Fraction as F

import pytest

sympy = pytest.importorskip("sympy")

from jrlab import fields, linalg as la  # noqa: E402
from jrlab.fields import EScalar, PLocalContext  # noqa: E402
from jrlab.poly import Polynomial, discriminant, resultant  # noqa: E402

T = sympy.Symbol("t")
SIZES = range(2, 7)


def _entry(rng):
    return F(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 5]))


def _matrix(rng, rows, cols, rank=None):
    """A random rational matrix, of the given rank when one is given (a
    product of rows x rank and rank x cols factors, so at most that)."""
    if rank is None:
        return [[_entry(rng) for _ in range(cols)] for _ in range(rows)]
    return la.mat_mul(_matrix(rng, rows, rank), _matrix(rng, rank, cols))


def _sym(A):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                         for row in A])


def _frac(x):
    x = sympy.Rational(x)
    return F(int(x.p), int(x.q))


def _poly(rng, degree):
    """A random rational polynomial of exactly the given degree, ascending."""
    cs = [_entry(rng) for _ in range(degree)]
    return Polynomial(cs + [_entry(rng) or F(1)])


def _sym_poly(P):
    return sum(sympy.Rational(c.numerator, c.denominator) * T ** i
               for i, c in enumerate(P.coeffs))


@pytest.mark.parametrize("n", SIZES)
def test_det_and_charpoly_agree_with_sympy(n):
    rng = random.Random(700 + n)
    for rank in (None, None, None, n - 1, 1):
        A = _matrix(rng, n, n, rank)
        S = _sym(A)
        assert la.det(A) == _frac(S.det())
        want = [_frac(c) for c in reversed(S.charpoly(T).all_coeffs())]
        assert list(la.charpoly(A).coeffs) == want


def test_det_inverts_only_pivots_with_rows_below(monkeypatch):
    """The fraction-free kernel inverts no pivot at all (the field-division
    kernel it replaced inverted the n - 1 pivots with rows below them), and
    a 1 x 1 determinant is its entry object."""
    calls = []
    monkeypatch.setattr(fields, "scalar_inverse", lambda x: calls.append(x) or 1 / x)
    monkeypatch.setattr(la, "scalar_inverse", fields.scalar_inverse, raising=False)
    monkeypatch.setattr(EScalar, "inverse", lambda z: calls.append(z) or 1 / z.norm())
    x, z = F(-3, 7), EScalar(F(1, 2), F(-5, 3), PLocalContext(3))
    assert la.det([[x]]) is x and la.det([[z]]) is z
    assert la.det([[0, 1], [1, 0]]) == -1
    rng = random.Random(705)
    for n in SIZES:
        A = _matrix(rng, n, n)
        assert la.det(A) == _frac(_sym(A).det())
        E = _e_matrix(rng, z.ctx, n, singular=False)
        assert la.det(E) == _leibniz(E, z.ctx)
    assert not calls


@pytest.mark.parametrize("n", SIZES)
def test_nullspace_agrees_with_sympy(n):
    rng = random.Random(710 + n)
    for rows, rank in ((n, None), (n, n - 1), (n, 1), (n - 1, None), (n + 1, n - 1)):
        A = _matrix(rng, rows, n, rank)
        ours = la.nullspace(A)
        theirs = _sym(A).nullspace()
        assert len(ours) == len(theirs)
        assert all(not any(la.mat_vec(A, v)) for v in ours)
        if ours:
            # the same subspace: the same reduced row echelon form
            assert _sym(ours).rref()[0] == sympy.Matrix([list(v.T) for v in theirs]).rref()[0]


@pytest.mark.parametrize("n", SIZES)
def test_resultant_and_discriminant_agree_with_sympy(n):
    rng = random.Random(720 + n)
    for k in range(4):
        P = _poly(rng, n)
        Q = _poly(rng, rng.randint(1, n))
        if k == 3:
            # a common factor makes the resultant vanish
            Q = Q * _poly(rng, 1)
            P = Q * _poly(rng, max(1, n - Q.degree))
        sp, sq = _sym_poly(P), _sym_poly(Q)
        assert resultant(P, Q) == _frac(sympy.resultant(sp, sq, T))
        assert discriminant(P) == _frac(sympy.discriminant(sp, T))


def _e_matrix(rng, ctx, n, singular):
    """A random n x n matrix over E; a singular one has its last row a
    combination of the others (the zero row at n = 1)."""
    A = [[EScalar(_entry(rng), _entry(rng), ctx) for _ in range(n)] for _ in range(n)]
    if singular:
        cs = [EScalar(_entry(rng), _entry(rng), ctx) for _ in range(n - 1)]
        A[-1] = [sum((c * row[j] for c, row in zip(cs, A)), ctx.embed(0)) for j in range(n)]
    return A


def _leibniz(A, ctx):
    total = ctx.embed(0)
    for perm in itertools.permutations(range(len(A))):
        term = ctx.embed(1)
        for i, j in enumerate(perm):
            term = term * A[i][j]
        odd = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(len(A)), 2)) % 2
        total = total - term if odd else total + term
    return total


@pytest.mark.parametrize("p", (3, 5))
@pytest.mark.parametrize("n", range(1, 5))
def test_det_and_inverse_over_the_inert_extension_agree_with_leibniz(p, n):
    ctx = PLocalContext(p)
    rng = random.Random(730 + 10 * p + n)
    I = la.identity(n, ctx.embed(1))
    for k in range(20):
        A = _e_matrix(rng, ctx, n, singular=k % 5 == 4)
        d = _leibniz(A, ctx)
        assert la.det(A) == d
        if not d:
            with pytest.raises(ZeroDivisionError):
                la.inverse(A)
        else:
            assert la.mat_mul(A, la.inverse(A)) == I


def _zero_corner(A):
    B = [list(row) for row in A]
    B[0][0] = B[0][0] * 0
    return B


def _q_cases(rng, n):
    """Full rank, rank n - 1, rank 1 and a zero first row, each also with
    its (0, 0) entry zeroed, and a matrix with a zero first column."""
    cases = [_matrix(rng, n, n), _matrix(rng, n, n, n - 1) if n > 1 else [[F(0)]],
             _matrix(rng, n, n, 1), [[F(0)] * n] + _matrix(rng, n - 1, n)]
    cases += [_zero_corner(A) for A in cases]
    return cases + [[[F(0)] + row[1:] for row in _matrix(rng, n, n)]]


@pytest.mark.parametrize("n", range(1, 7))
def test_singular_and_zero_corner_matrices_agree_with_sympy(n):
    rng = random.Random(740 + n)
    for A in _q_cases(rng, n):
        S = _sym(A)
        d = la.det(A)
        assert d == _frac(S.det()) and type(d) is F
        want = [_frac(c) for c in reversed(S.charpoly(T).all_coeffs())]
        assert list(la.charpoly(A).coeffs) == want
        R, pivots = la.rref(A)
        SR, spiv = S.rref()
        assert pivots == list(spiv)
        assert R == [[_frac(SR[i, j]) for j in range(n)] for i in range(n)]
        assert all(type(x) is F for row in R for x in row)
        if d:
            assert la.inverse(A) == [[_frac(x) for x in row] for row in S.inv().tolist()]
        else:
            with pytest.raises(ZeroDivisionError):
                la.inverse(A)


def _assert_rref_of(A, R, pivots, ctx):
    """R is the reduced row echelon form of A, checked without linalg: R
    has the shape of one, every row of A is the combination of R's rows
    with A's pivot-column entries as coefficients (so A's row space lies in
    R's), and a minor of A on the pivot columns is nonzero (so the two row
    spaces have the same dimension)."""
    one, zero = ctx.embed(1), ctx.embed(0)
    k, m = len(pivots), len(A[0])
    assert pivots == sorted(set(pivots)) and not any(x for row in R[k:] for x in row)
    for i, c in enumerate(pivots):
        assert [row[c] for row in R] == [one if r == i else zero for r in range(len(R))]
        assert not any(R[i][:c])
    for row in A:
        comb = [sum((row[c] * R[i][j] for i, c in enumerate(pivots)), zero) for j in range(m)]
        assert comb == row
    assert k == 0 or any(_leibniz([[A[r][c] for c in pivots] for r in rows], ctx)
                         for rows in itertools.combinations(range(len(A)), k))


@pytest.mark.parametrize("p", (3, 5))
@pytest.mark.parametrize("n", range(1, 5))
def test_charpoly_and_rref_over_the_inert_extension_agree_with_leibniz(p, n):
    ctx = PLocalContext(p)
    rng = random.Random(750 + 10 * p + n)
    I = la.identity(n, ctx.embed(1))
    for k in range(12):
        A = _e_matrix(rng, ctx, n, singular=k % 3 == 2)
        if k % 2:
            A = _zero_corner(A)
        chi = la.charpoly(A)
        assert all(type(c) is EScalar and c.ctx is ctx for c in chi.coeffs)
        for t in range(n + 1):
            tI_A = [[t * I[i][j] - A[i][j] for j in range(n)] for i in range(n)]
            assert chi(ctx.embed(t)) == _leibniz(tI_A, ctx)
        d = la.det(A)
        assert d == _leibniz(A, ctx) and type(d) is EScalar and d.ctx is ctx
        wide = [row + [EScalar(_entry(rng), _entry(rng), ctx)] for row in A]
        for M in (A, wide, A + [la.vec_add(A[0], A[-1])]):
            R, pivots = la.rref(M)
            assert all(type(x) is EScalar and x.ctx is ctx for row in R for x in row)
            _assert_rref_of(M, R, pivots, ctx)
        if d:
            assert la.mat_mul(A, la.inverse(A)) == I
        else:
            with pytest.raises(ZeroDivisionError):
                la.inverse(A)
