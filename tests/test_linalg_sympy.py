"""Differential tests of the exact linear algebra against independent
implementations.  Against sympy: det, charpoly and nullspace of seeded
rational matrices of size 2..6 (full rank and low rank), resultants and
discriminants of seeded rational polynomials of degree 2..6 (with and
without common factors).  Against the Leibniz formula: det and inverse of
seeded matrices over the inert extension at p = 3 and 5, size 1..4."""

import itertools
import random
from fractions import Fraction as F

import pytest

sympy = pytest.importorskip("sympy")

from jrlab import linalg as la  # noqa: E402
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
    calls = []
    monkeypatch.setattr(la, "scalar_inverse", lambda x: calls.append(x) or 1 / x)
    x = F(-3, 7)
    assert la.det([[x]]) is x and not calls
    assert la.det([[0, 1], [1, 0]]) == -1 and calls == [1]
    rng = random.Random(705)
    for n in SIZES:
        A = _matrix(rng, n, n)
        calls.clear()
        assert la.det(A) == _frac(_sym(A).det()) and len(calls) == n - 1


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
