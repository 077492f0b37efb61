"""Exact invariance properties of the invariant theory at n <= 4, over Q and
over the inert extension E at p = 3: invariants and stratum are constant on
orbits, the Jordan split X = X_s + X_n has a semisimple X_s and a nilpotent-
invariant X_n and commutes with the action, and the Cayley transform is
equivariant.  Half of the drawn triples and pairs are built non-regular, so
the Jordan split does real work."""

from fractions import Fraction as F

import pytest
from hypothesis import Phase, assume, find, given, settings, strategies as st

from jrlab import linalg as la
from jrlab.fields import EScalar, PLocalContext
from jrlab.gltilde import Triple, act, invariants, is_semisimple, jordan, stratum
from jrlab.hermitian import (HermitianForm, HermitianPair, adjoint, cayley, cayley_u,
                             random_unitary, standard_cayley_params, u_invariants,
                             u_is_semisimple, u_jordan, u_stratum, unitary_act)

CTX = PLocalContext(3)
ZERO, ONE = CTX.embed(0), CTX.embed(1)
PARAMS = standard_cayley_params(CTX, t=1, s=1)
SETTINGS = settings(max_examples=40, deadline=None)
# The reachability searches run on a fixed seed: a found example proves the
# case is reachable, and a random one let them miss now and then.
NO_SHRINK = settings(database=None, phases=[Phase.generate], derandomize=True)

_small = st.integers(-2, 2)


def _scalar(ext):
    return st.builds(lambda x, y: EScalar(F(x), F(y), CTX), _small, _small) if ext \
        else _small.map(F)


def _vector(ext, n):
    return st.lists(_scalar(ext), min_size=n, max_size=n)


def _matrix(ext, n):
    return st.lists(_vector(ext, n), min_size=n, max_size=n)


@st.composite
def _invertible(draw, ext, n):
    g = draw(_matrix(ext, n))
    assume(la.det(g))
    return g


def _block_split(draw, ext, A, r):
    """A with its off-diagonal blocks at r cleared; sometimes the lower block
    becomes lambda + (strictly upper triangular), not semisimple in general."""
    n, zero = len(A), A[0][0] * 0
    A = [[a if (i < r) == (j < r) else zero for j, a in enumerate(row)]
         for i, row in enumerate(A)]
    if draw(st.booleans()):
        lam = draw(_scalar(ext))
        for i in range(r, n):
            A[i][r:i + 1] = [zero] * (i - r) + [lam]
    return A


@st.composite
def triples(draw, ext):
    """(X, g): a triple of size n <= 4 and an element of GL_n.  A non-regular
    X is a block sum of a size-r triple and a size-(n - r) endomorphism with
    zero vector and covector, conjugated by a random element."""
    n = draw(st.integers(1, 4))
    A, b, c = draw(_matrix(ext, n)), draw(_vector(ext, n)), draw(_vector(ext, n))
    if draw(st.booleans()):
        r = draw(st.integers(0, n - 1))
        zero = A[0][0] * 0
        A = _block_split(draw, ext, A, r)
        b, c = b[:r] + [zero] * (n - r), c[:r] + [zero] * (n - r)
        return act(draw(_invertible(ext, n)), Triple(A, b, c)), draw(_invertible(ext, n))
    return Triple(A, b, c), draw(_invertible(ext, n))


def _form(draw, n):
    M = draw(_matrix(True, n))
    G = la.mat_add(M, la.conj_transpose(M))
    assume(la.det(G))
    return HermitianForm(G, CTX)


@st.composite
def pairs(draw):
    """(X, g): a hermitian pair of size n <= 4 and a unitary g for its form.
    A non-regular X is an orthogonal block sum whose vector lies in the first
    block; a hyperbolic plane among the blocks may carry lambda + (a
    nilpotent), which is self-adjoint and not semisimple."""
    n = draw(st.integers(1, 4))
    r = draw(st.integers(0, n - 1)) if draw(st.booleans()) else n
    blocks = [k for k in (r, n - r) if k]
    if n - r >= 2 and draw(st.booleans()):
        blocks[-1:] = ["hyperbolic"] + ([n - r - 2] if n - r > 2 else [])
    forms, As = [], []
    for k in blocks:
        if k == "hyperbolic":
            lam, mu = (CTX.embed(draw(_small)) for _ in range(2))
            forms.append(HermitianForm([[ZERO, ONE], [ONE, ZERO]], CTX))
            As.append([[lam, mu], [ZERO, lam]])
        else:
            forms.append(_form(draw, k))
            M = draw(_matrix(True, k))
            As.append(la.mat_add(M, adjoint(M, forms[-1])))
    form = HermitianForm(la.block_diag([f.gram for f in forms], ZERO), CTX)
    b = draw(_vector(True, r)) + [ZERO] * (n - r)
    X = HermitianPair(la.block_diag(As, ZERO), b, form)
    rng = draw(st.randoms(use_true_random=False))
    if r < n:
        X = unitary_act(random_unitary(form, rng), X)
    return X, random_unitary(form, rng)


def _check_jordan(X, g):
    Xs, Xn = jordan(X)
    assert Xs + Xn == X
    assert is_semisimple(Xs) and invariants(Xs) == invariants(X)
    assert invariants(Xn).is_nilpotent()
    assert jordan(act(g, X)) == (act(g, Xs), act(g, Xn))


@SETTINGS
@given(st.booleans().flatmap(triples))
def test_invariants_stratum_and_jordan_under_act(Xg):
    X, g = Xg
    gX = act(g, X)
    assert invariants(gX) == invariants(X) and stratum(gX) == stratum(X)
    _check_jordan(X, g)


@SETTINGS
@given(pairs())
def test_invariants_stratum_and_jordan_under_unitary_act(Xg):
    X, g = Xg
    gX = unitary_act(g, X)
    assert u_invariants(gX) == u_invariants(X) and u_stratum(gX) == u_stratum(X)
    Xs, Xn = u_jordan(X)
    assert la.mat_add(Xs.A, Xn.A) == [list(r) for r in X.A] and la.vec_add(Xs.b, Xn.b) == list(X.b)
    assert u_is_semisimple(Xs) and u_invariants(Xs) == u_invariants(X)
    assert u_invariants(Xn).is_nilpotent()
    assert u_jordan(gX) == (unitary_act(g, Xs), unitary_act(g, Xn))


def _conj(g, M):
    return la.mat_mul(la.mat_mul(g, M), la.inverse(g))


def _cayley_or_pole(f, *args):
    try:
        return f(*args)
    except ZeroDivisionError:
        return "pole"


@SETTINGS
@given(st.booleans().flatmap(triples))
def test_cayley_is_equivariant(Xg):
    X, g = Xg
    r = _cayley_or_pole(cayley, X.A, PARAMS)
    gr = _cayley_or_pole(cayley, _conj(g, X.A), PARAMS)
    assert gr == (r if r == "pole" else _conj(g, r))


@SETTINGS
@given(pairs())
def test_unitary_cayley_is_equivariant(Xg):
    X, g = Xg
    r = _cayley_or_pole(cayley_u, X.A, X.form, PARAMS)
    gr = _cayley_or_pole(cayley_u, _conj(g, X.A), X.form, PARAMS)
    assert gr == (r if r == "pole" else _conj(g, r))


@pytest.mark.parametrize("ext", (False, True))
def test_triples_reach_non_semisimple_non_regular_cases(ext):
    X, _ = find(triples(ext), lambda Xg: stratum(Xg[0]) < Xg[0].n and not is_semisimple(Xg[0]),
                settings=NO_SHRINK)
    assert not jordan(X)[1] == X - X


def test_pairs_reach_non_semisimple_non_regular_cases():
    find(pairs(), lambda Xg: u_stratum(Xg[0]) < Xg[0].n and not u_is_semisimple(Xg[0]),
         settings=NO_SHRINK)
