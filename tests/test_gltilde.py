import random
from fractions import Fraction as F

import pytest

from jrlab import linalg as la
from jrlab.fields import EScalar, PLocalContext
from jrlab.gltilde import (InvariantPoint, Triple, act, canonical_decomposition,
                           conjugate_to_slice, d_r, invariants, iota, iota_inverse,
                           is_semisimple, jordan, moments, pairing,
                           slice_compatibility_check, stratum, transfer_factor_eta)
from jrlab.poly import Polynomial, squarefree_part

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


def test_a_slice_basis_that_does_not_invert_is_reported_as_no_direct_sum(monkeypatch):
    """The slice basis is inverted without a determinant first; a singular
    one, which the stratum read from the moments rules out, still fails as
    `canonical_decomposition` does."""
    X = Triple([[F(3), F(0)], [F(0), F(2)]], [F(1), F(0)], [F(2), F(0)])
    assert stratum(X) == 1

    def singular(A):
        raise ZeroDivisionError("singular matrix")

    monkeypatch.setattr(la, "inverse", singular)
    with pytest.raises(AssertionError, match="canonical summands do not give a direct sum"):
        conjugate_to_slice(X)


# ---------------------------------------------------------------------------
# is_semisimple against the slice-position test it replaced


def ref_is_semisimple(X):
    """Conjugate X into slice position and read the blocks off: the vector
    and covector must vanish off the plus block, the off-diagonal blocks of
    A must vanish, and the minus block must be semisimple."""
    n, r = X.n, stratum(X)
    if r == n:
        return True
    Y = conjugate_to_slice(X)[1]
    if any(Y.c[r:]) or any(Y.b[r:]):
        return False
    if any(Y.A[i][j] for i in range(n) for j in range(n) if (i < r) != (j < r)):
        return False
    Am = [row[r:] for row in Y.A[r:]]
    return la.is_zero_matrix(ref_poly_apply(squarefree_part(ref_charpoly(Am)), Am))


def ref_charpoly(A):
    """Berkowitz's recursion on scalars: each step splits the leading block,
    its row and column, and every reversed prefix of q afresh."""
    n = len(A)
    one = la._one(A) if n else 1
    c = [one]
    for r in range(n):
        Ar, R, C = [row[:r] for row in A[:r]], A[r][:r], [row[r] for row in A[:r]]
        q = [one, -A[r][r]] + [-t for t in la.moment_sequence(R, Ar, C, r)]
        sc = la._split(c)
        c = [one] + [la._pair(la._split(q[i::-1]), sc) for i in range(1, r + 2)]
    return Polynomial(c[::-1])


def ref_poly_apply(p, A):
    """Horner with a scaled identity matrix added at every step."""
    n, one, out = len(A), la._one(A), None
    for c in reversed(p.coeffs):
        cI = la.mat_scale(la.identity(n, one), c)
        out = cI if out is None else la.mat_add(la.mat_mul(out, A), cI)
    return la.mat_scale(la.identity(n, one), 0) if out is None else out


def _typed(x):
    """A scalar with its type, for comparisons that must keep the type."""
    return (type(x).__name__, x.x, x.y) if isinstance(x, EScalar) else (type(x).__name__, x)


def _rnd_scalar(rng, dom, sparse=0.0):
    if rng.random() < sparse:
        return {"int": 0, "Q": F(0), "E": CTX3.embed(0)}[dom]
    if dom == "int":
        return rng.randint(-4, 4)
    q = F(rng.randint(-4, 4), rng.choice([1, 1, 2, 3, 9]))
    return q if dom == "Q" else EScalar(q, F(rng.randint(-2, 2), rng.choice([1, 3])), CTX3)


@pytest.mark.parametrize("dom", ["int", "Q", "E"])
def test_charpoly_and_poly_apply_match_the_references(dom):
    rng = random.Random(31)
    for n in range(7):
        for _ in range(12 if n < 5 else 4):
            A = [[_rnd_scalar(rng, dom, 0.3) for _ in range(n)] for _ in range(n)]
            chi = la.charpoly(A)
            assert list(map(_typed, chi.coeffs)) == list(map(_typed, ref_charpoly(A).coeffs))
            coeffs = [_rnd_scalar(rng, "Q" if dom == "int" else dom) for _ in range(rng.randint(0, 4))]
            for p in (chi, Polynomial(coeffs), Polynomial([])):
                got, ref = la.poly_apply(p, A), ref_poly_apply(p, A)
                assert [list(map(_typed, row)) for row in got] == [list(map(_typed, row)) for row in ref]
            if n:
                assert la.is_zero_matrix(la.poly_apply(chi, A))


def test_charpoly_of_a_mixed_matrix_has_the_reference_values():
    """Rows of rationals beside rows of extension scalars: the values agree,
    every coefficient in E."""
    A = [[F(1), F(2), F(0)], [CTX3.embed(1), EScalar(F(1), F(1), CTX3), F(3)], [F(1, 2), F(0), F(5)]]
    assert la.charpoly(A) == ref_charpoly(A)
    assert la.is_zero_matrix(la.poly_apply(la.charpoly(A), A))


def _rnd_triple(rng, n, dom, sparse=0.0):
    return Triple([[_rnd_scalar(rng, dom, sparse) for _ in range(n)] for _ in range(n)],
                  [_rnd_scalar(rng, dom, sparse) for _ in range(n)],
                  [_rnd_scalar(rng, dom, sparse) for _ in range(n)])


def _regular(rng, r, dom):
    while True:
        X = _rnd_triple(rng, r, dom)
        if stratum(X) == r:
            return X


def _minus_block(rng, m, dom, shape):
    """A triple of stratum 0 in dimension m: its matrix "jordan" (one
    repeated eigenvalue, not semisimple), "diag" (semisimple, with repeats)
    or "random"; its vector and covector both zero, only the vector, only
    the covector, or ("split") the vector on the first half of a block upper
    triangular matrix and the covector on the second half."""
    one = CTX3.embed(1) if dom == "E" else F(1)
    zero, (mat, vec) = 0 * one, shape
    if mat == "jordan":
        A = [[2 * one if i == j else one if j == i + 1 else zero for j in range(m)] for i in range(m)]
    elif mat == "diag":
        A = [[one * rng.choice([1, 1, 2]) if i == j else zero for j in range(m)] for i in range(m)]
    else:
        A = [[_rnd_scalar(rng, dom, 0.4) for _ in range(m)] for _ in range(m)]
    nz = lambda: _rnd_scalar(rng, dom) or one
    b = [nz() if vec == "b" or vec == "split" and 2 * i < m else zero for i in range(m)]
    c = [nz() if vec == "c" or vec == "split" and 2 * i >= m else zero for i in range(m)]
    if vec == "split":
        A = [[a if not (2 * i >= m > 2 * j) else zero for j, a in enumerate(row)] for i, row in enumerate(A)]
    return Triple(A, b, c)


def _case(rng, n, r, dom, shape):
    """A triple of stratum r from a regular plus part and a stratum-0 minus
    part (`_minus_block`), moved out of slice position by a random g."""
    Y = _minus_block(rng, n - r, dom, shape) if r < n else None
    Z = Y if not r else _regular(rng, r, dom) if Y is None else iota(_regular(rng, r, dom), Y)
    while True:
        g = [[_rnd_scalar(rng, dom, 0.3) for _ in range(n)] for _ in range(n)]
        if la.det(g):
            return act(g, Z)


@pytest.mark.parametrize("dom", ["Q", "E"])
def test_is_semisimple_matches_the_slice_position_test(dom):
    rng = random.Random(32 if dom == "Q" else 33)
    seen = set()
    for n in range(1, 7):
        for r in range(n + 1):
            for shape in [(mat, vec) for mat in ("jordan", "diag", "random")
                          for vec in ("none", "b", "c", "split")][::1 if n < 4 else 3]:
                X = _case(rng, n, r, dom, shape)
                assert stratum(X) == r
                got = is_semisimple(X)
                assert got == ref_is_semisimple(X), (n, r, shape)
                seen.add((r == n, got))
    assert seen == {(True, True), (False, True), (False, False)}


def _failing_tests(X):
    """The tests of `ref_is_semisimple` that X fails, read in slice position:
    "vectors" (b or c off the plus block), "krylov" (the block sending the
    plus summand to the minus one, nonzero exactly when A^r b is outside the
    Krylov span), "dual" (the other off-diagonal block, nonzero exactly when
    c A^r is outside the dual span) and "minus" (a minus block that is not
    semisimple)."""
    _, Y, r = conjugate_to_slice(X)
    n, out = X.n, set()
    if any(Y.b[r:]) or any(Y.c[r:]):
        out.add("vectors")
    if any(Y.A[i][j] for i in range(r, n) for j in range(r)):
        out.add("krylov")
    if any(Y.A[i][j] for i in range(r) for j in range(r, n)):
        out.add("dual")
    Am = [row[r:] for row in Y.A[r:]]
    if not la.is_zero_matrix(ref_poly_apply(squarefree_part(ref_charpoly(Am)), Am)):
        out.add("minus")
    return out


@pytest.mark.parametrize("dom", ["Q", "E"])
def test_is_semisimple_fails_exactly_one_test(dom):
    """A^r b outside the Krylov span, c A^r outside the dual span, a minus
    block that is not semisimple, and at r = 0 a nonzero vector or
    covector: each case fails that test alone."""
    rng = random.Random(34)
    cases = {("diag", "b"): "krylov", ("diag", "c"): "dual", ("jordan", "none"): "minus"}
    for n in range(2, 6):
        for r in range(1, n):
            for shape, fails in cases.items():
                if shape[0] == "jordan" and n - r < 2:
                    continue
                X = _case(rng, n, r, dom, shape)
                assert _failing_tests(X) == {fails}
                assert not is_semisimple(X) and not ref_is_semisimple(X)
            X = _case(rng, n, r, dom, ("diag", "none"))
            assert not _failing_tests(X) and is_semisimple(X) and ref_is_semisimple(X)
        for vec in ("b", "c"):
            X = _case(rng, n, 0, dom, ("diag", vec))
            assert stratum(X) == 0 and _failing_tests(X) == {"vectors"}
            assert not is_semisimple(X) and not ref_is_semisimple(X)
            assert is_semisimple(Triple(X.A, [0 * x for x in X.b], [0 * x for x in X.c]))


def test_is_semisimple_matches_on_random_sparse_triples():
    rng = random.Random(35)
    kinds = set()
    for _ in range(400):
        n, dom = rng.randint(1, 4), rng.choice(["Q", "E"])
        X = _rnd_triple(rng, n, dom, 0.6)
        got = is_semisimple(X)
        assert got == ref_is_semisimple(X)
        kinds.add((stratum(X) == n, got))
    assert kinds == {(True, True), (False, True), (False, False)}
