import random
from fractions import Fraction as F

import pytest

from jrlab import linalg as la
from jrlab.fields import PLocalContext
from jrlab.gltilde import (InvariantPoint, Triple, act, canonical_decomposition,
                           d_r, invariants, iota, iota_inverse, is_semisimple,
                           jordan, moments, pairing, slice_compatibility_check,
                           stratum, transfer_factor_eta)

CTX3 = PLocalContext(3)


def rnd_triple(rng, n, lo=-3, hi=3, regular=None):
    while True:
        X = Triple([[F(rng.randint(lo, hi)) for _ in range(n)] for _ in range(n)],
                   [F(rng.randint(lo, hi)) for _ in range(n)],
                   [F(rng.randint(lo, hi)) for _ in range(n)])
        if regular is None or (stratum(X) == n) == regular:
            return X


def rnd_gl(rng, n, lo=-3, hi=3):
    while True:
        g = [[F(rng.randint(lo, hi)) for _ in range(n)] for _ in range(n)]
        if la.det(g) != 0:
            return g


NILP2 = Triple([[F(0), F(1)], [F(0), F(0)]], [F(0), F(1)], [F(1), F(0)])


def test_invariants_examples():
    X1 = Triple([[F(5)]], [F(2)], [F(7)])
    assert invariants(X1) == InvariantPoint((F(-5),), (F(14),))
    assert invariants(NILP2) == InvariantPoint((F(0), F(0)), (F(0), F(1)))


def test_invariants_gl_invariance():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(1, 3)
        X = rnd_triple(rng, n)
        g = rnd_gl(rng, n)
        assert invariants(act(g, X)) == invariants(X)


def test_dr_examples():
    assert d_r(NILP2, 0) == 1
    assert d_r(NILP2, 2) == -1          # det [[0,1],[1,0]]
    assert d_r(NILP2, 3) == 0
    with pytest.raises(ValueError):
        d_r(NILP2, -1)


def test_stratum_examples():
    n = 3
    X0 = Triple(la.zeros(n, n), [F(0)] * n, [F(0)] * n)
    assert stratum(X0) == 0
    assert stratum(NILP2) == 2
    X1 = Triple([[F(4)]], [F(2)], [F(3)])
    assert stratum(X1) == 1


def test_stratum_zero_iff_all_moments_vanish():
    rng = random.Random(8)
    for _ in range(150):
        n = rng.randint(1, 3)
        X = rnd_triple(rng, n)
        all_zero = all(m == 0 for m in moments(X, n))
        assert (stratum(X) == 0) == all_zero


def test_canonical_decomposition_extremes():
    rng = random.Random(9)
    X = rnd_triple(rng, 3, regular=True)
    dec = canonical_decomposition(X)
    assert dec.r == 3 and not dec.basis_minus
    A = [[F(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
    X0 = Triple(A, [F(0)] * 3, [F(0)] * 3)
    dec0 = canonical_decomposition(X0)
    assert dec0.r == 0 and len(dec0.basis_minus) == 3


def test_iota_rank_one_formula():
    # frozen from solving the two unit-triangle conditions by hand
    Xp = Triple([[F(1)]], [F(2)], [F(3)])
    Y = Triple([[F(7)]], [F(5)], [F(11)])
    Z = iota(Xp, Y)
    assert Z.A == ((F(1), F(11, 3)), (F(5, 2), F(7)))
    assert Z.b == (F(2), F(0)) and Z.c == (F(3), F(0))


def test_iota_round_trips():
    rng = random.Random(10)
    for _ in range(80):
        r = rng.randint(1, 3)
        m = rng.randint(1, 3)
        Xp = rnd_triple(rng, r, regular=True)
        Y = rnd_triple(rng, m)
        Z = iota(Xp, Y)
        Xp2, Y2 = iota_inverse(Z, r)
        assert (Xp2.A, Xp2.b, Xp2.c) == (Xp.A, Xp.b, Xp.c)
        assert (Y2.A, Y2.b, Y2.c) == (Y.A, Y.b, Y.c)
    # r = 0 passes through
    Y = rnd_triple(rng, 2)
    assert iota(None, Y) is Y
    assert iota(*iota_inverse(Y, 0)) is Y


def test_iota_membership_error():
    bad = Triple([[F(1), F(0)], [F(1), F(1)]], [F(1), F(1)], [F(1), F(0)])
    if not stratum(bad) == 2:
        with pytest.raises(ValueError):
            iota_inverse(bad, 1)


def test_d_multiplicativity():
    rng = random.Random(11)
    for _ in range(200):
        r = rng.randint(1, 3)
        m = rng.randint(1, 3)
        Xp = rnd_triple(rng, r, regular=True)
        Y = rnd_triple(rng, m)
        Z = iota(Xp, Y)
        for k in range(0, m + 1):
            assert d_r(Z, r + k) == d_r(Xp, r) * d_r(Y, k)


def test_jordan_suite():
    rng = random.Random(12)
    for _ in range(150):
        n = rng.randint(1, 4)
        X = rnd_triple(rng, n, lo=-2, hi=2)
        Xs, Xn = jordan(X)
        assert invariants(Xs) == invariants(X)
        assert invariants(Xn).is_nilpotent()
        assert is_semisimple(Xs)
        assert (Xs + Xn).A == X.A and (Xs + Xn).b == X.b and (Xs + Xn).c == X.c


def test_jordan_examples():
    rng = random.Random(13)
    X = rnd_triple(rng, 2, regular=True)
    Xs, Xn = jordan(X)
    assert Xs.A == X.A and Xn.is_zero()
    X1 = Triple([[F(4)]], [F(2)], [F(0)])
    Xs, Xn = jordan(X1)
    assert Xs.A == ((F(4),),) and Xs.b == (F(0),)
    assert Xn.A == ((F(0),),) and Xn.b == (F(2),)


def test_jordan_equivariance():
    rng = random.Random(14)
    for _ in range(40):
        n = rng.randint(1, 3)
        X = rnd_triple(rng, n, lo=-2, hi=2)
        Xs, Xn = jordan(X)
        g = rnd_gl(rng, n)
        gXs, gXn = jordan(act(g, X))
        ref = act(g, Xs)
        assert (gXs.A, gXs.b, gXs.c) == (ref.A, ref.b, ref.c)


def test_is_semisimple_examples():
    D = Triple([[F(1), F(0)], [F(0), F(2)]], [F(0), F(0)], [F(0), F(0)])
    assert is_semisimple(D)
    X = Triple([[F(4)]], [F(2)], [F(0)])
    assert not is_semisimple(X)


def test_pairing():
    X1 = Triple([[F(2)]], [F(3)], [F(5)])
    assert pairing(X1, X1) == F(2) ** 2 + 2 * F(15)
    Z = Triple([[F(0)]], [F(0)], [F(0)])
    assert pairing(Z, X1) == 0
    rng = random.Random(15)
    for _ in range(60):
        n = rng.randint(1, 3)
        X = rnd_triple(rng, n)
        Y = rnd_triple(rng, n)
        g = rnd_gl(rng, n)
        assert pairing(act(g, X), act(g, Y)) == pairing(X, Y)


def test_transfer_factor():
    assert transfer_factor_eta(Triple([[F(1)]], [F(1)], [F(1)]), CTX3) == 1
    assert transfer_factor_eta(Triple([[F(1)]], [F(3)], [F(1)]), CTX3) == -1
    rng = random.Random(16)
    for _ in range(50):
        n = rng.randint(1, 2)
        X = rnd_triple(rng, n, regular=True)
        g = rnd_gl(rng, n)
        gi = la.inverse(g)
        from jrlab.fields import eta
        assert transfer_factor_eta(act(gi, X), CTX3) == \
            eta(la.det(g), CTX3) * transfer_factor_eta(X, CTX3)


def test_slice_compatibility():
    rng = random.Random(17)
    ok = 0
    while ok < 100:
        k = rng.randint(1, 3)
        parts = [rnd_triple(rng, rng.randint(1, 2)) for _ in range(k)]
        try:
            rep = slice_compatibility_check(parts)
        except ZeroDivisionError:
            continue
        assert rep["ratio"] in (1, -1)
        ok += 1


def test_slice_compatibility_degenerate():
    # identical eigenvalues across blocks -> discriminant vanishes
    a = Triple([[F(1)]], [F(1)], [F(1)])
    b = Triple([[F(1)]], [F(2)], [F(3)])
    with pytest.raises(ZeroDivisionError):
        slice_compatibility_check([a, b])


def test_slice_compatibility_single_block():
    rep = slice_compatibility_check([Triple([[F(2)]], [F(3)], [F(5)])])
    assert rep["ratio"] in (1, -1)


def test_jordan_inverts_the_slice_basis_once(monkeypatch):
    """A mixed-stratum Jordan decomposition conjugates to the slice and back
    with one n x n inverse: the way back uses the slice basis itself."""
    X = act([[F(1), F(2), F(0)], [F(0), F(1), F(-1)], [F(1), F(0), F(1)]],
             Triple([[F(3), F(0), F(0)], [F(0), F(2), F(1)], [F(0), F(0), F(2)]],
                    [F(1), F(0), F(0)], [F(2), F(0), F(0)]))
    assert stratum(X) == 1
    sizes = []
    inverse = la.inverse

    def counting(A):
        sizes.append(len(A))
        return inverse(A)

    monkeypatch.setattr(la, "inverse", counting)
    Xs, Xn = jordan(X)
    assert sizes.count(3) == 1
    assert invariants(Xs) == invariants(X) and invariants(Xn).is_nilpotent()
