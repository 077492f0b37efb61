import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import event, given, settings, strategies as st

from jrlab import linalg as la
from jrlab.fields import (EScalar, PLocalContext, eta, is_integral, one_like,
                          valuation, valuation_ext, zero_like)
from jrlab.gltilde import (InvariantPoint, Triple, act, basis_matrix, d_r,
                           d_r_of_point, dual_krylov_rows, invariants, moments,
                           stratum)
from jrlab.hermitian import (HermitianForm, HermitianPair, classify_form_local,
                             hankel_pair_for_point, random_unitary,
                             unitary_act)
from jrlab.orbital import (Lattice, _admissible_bases, admissible_lattices_gl, fl_check,
                           gl_representative_of_point, hermite_normalize,
                           intermediate_lattices, intermediate_lattices_ext,
                           is_instable, orbital_gl,
                           orbital_u, selfdual_admissible_lattices,
                           toy_gl_orbital, toy_transfer_check, toy_u_orbital)

CTX = PLocalContext(3)


def test_hermite_normal_form_canonical():
    rng = random.Random(40)
    for _ in range(60):
        n = rng.randint(1, 3)
        while True:
            B = [[F(rng.randint(-6, 6), rng.choice([1, 2, 3, 9]))
                  for _ in range(n)] for _ in range(n)]
            if la.det(B) != 0:
                break
        lat = hermite_normalize(B, CTX)
        # canonical: upper triangular, p-power diagonal
        for i in range(n):
            d = lat.basis[i][i]
            assert d == F(3) ** valuation(d, CTX)
            for j in range(i):
                assert lat.basis[i][j] == 0
        # change of basis by a p-unit matrix gives the same form
        while True:
            U = [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
            d = la.det(U)
            if d != 0 and valuation(d, CTX) == 0 and \
               all(is_integral(x, CTX) for row in U for x in row):
                break
        lat2 = hermite_normalize(la.mat_mul(B, U), CTX)
        assert lat.basis == lat2.basis


def test_sandwich_example():
    # one-dimensional: unit vector, covector of valuation 2
    X = Triple([[F(1)]], [F(1)], [F(9)])
    lats = admissible_lattices_gl(X, CTX)
    assert sorted(l.basis[0][0] for l in lats) == [F(1, 9), F(1, 3), F(1)]
    assert orbital_gl(X, CTX).value == 1
    # odd valuation cancels
    assert orbital_gl(Triple([[F(1)]], [F(1)], [F(3)]), CTX).value == 0
    # unit determinant: a single lattice
    r = orbital_gl(Triple([[F(1)]], [F(1)], [F(2)]), CTX)
    assert r.lattice_count == 1 and r.value == 1


# Submodules of O/p^a1 + ... + O/p^an (a1 >= ... >= an) over a residue field
# with q elements, counted by order: the lattices between O^n and
# diag(p^a1, ..., p^an) O^n.  At n = 3, (1, 1, 1) counts the subspaces of
# F_q^3 and (1, 1, 0) those of F_q^2.
SUBMODULES = {(1, 0): lambda q: 2, (2, 0): lambda q: 3, (1, 1): lambda q: q + 3,
              (2, 1): lambda q: 2 * q + 4, (2, 2): lambda q: q * q + 3 * q + 5,
              (1, 0, 0): lambda q: 2, (1, 1, 0): lambda q: q + 3,
              (1, 1, 1): lambda q: 2 * (q * q + q + 1) + 2}


def _check_submodule_count(enumerate_, ctx, scalar, exps, q):
    n = len(exps)
    M = [[scalar(F(ctx.p) ** exps[i] if i == j else F(0)) for j in range(n)]
         for i in range(n)]
    pairs = enumerate_(M, ctx)
    I = la.identity(n, scalar(F(1)))
    assert all(la.mat_mul(H, Hi) == I for H, Hi in pairs)
    found = [H for H, _ in pairs]
    assert len(found) == SUBMODULES[exps](q), (ctx.p, exps)
    assert len({tuple(map(tuple, H)) for H in found}) == len(found)


@pytest.mark.parametrize("p", [3, 5])
def test_intermediate_lattices_count_submodules(p):
    ctx = PLocalContext(p)
    for exps in SUBMODULES:
        _check_submodule_count(intermediate_lattices, ctx, F, exps, p)


def test_intermediate_lattices_ext_count_submodules():
    ctx = PLocalContext(3)
    for exps in ((1, 0), (2, 0), (1, 1), (2, 1), (1, 0, 0), (1, 1, 0)):
        _check_submodule_count(intermediate_lattices_ext, ctx, ctx.embed, exps, 9)


def _brute_force_lattices(M, ctx, residues, val):
    """Reference enumeration: every upper-triangular H with p-power
    diagonal (exponents summing to at most v(det M)) and entries above it
    running through residues(d) of their row's exponent d, in that order,
    kept with H^{-1} when H^{-1} M is integral."""
    n = len(M)
    zero, one = zero_like(M[0][0]), one_like(M[0][0])
    vdet = val(la.det(M), ctx)
    above = [(i, j) for j in range(n) for i in range(j)]
    out = []
    for diag in itertools.product(range(vdet + 1), repeat=n):
        if sum(diag) > vdet:
            continue
        for entries in itertools.product(*(residues(diag[i]) for i, _ in above)):
            H = [[zero] * n for _ in range(n)]
            for k in range(n):
                H[k][k] = one * F(ctx.p) ** diag[k]
            for (i, j), c in zip(above, entries):
                H[i][j] = c
            Hi = la.inverse(H)
            if all(is_integral(x, ctx) for row in la.mat_mul(Hi, M) for x in row):
                out.append((H, Hi))
    return out


def _random_sandwich(rng, ctx, n, ext, v):
    """A p-integral n x n matrix U diag(p^e) V with v(det) = v: U and V have
    entries with denominators prime to p (over E both coordinates are
    drawn), and the exponents e are a random split of v."""
    p = ctx.p
    val = valuation_ext if ext else valuation
    coord = lambda: F(rng.randint(-p * p, p * p), rng.choice([1, 2, 7]))
    entry = lambda: EScalar(coord(), coord(), ctx) if ext else coord()
    while True:
        cuts = sorted(rng.randint(0, v) for _ in range(n - 1))
        e = [b - a for a, b in zip([0] + cuts, cuts + [v])]
        U, V = ([[entry() for _ in range(n)] for _ in range(n)] for _ in range(2))
        M = la.mat_mul(U, [[x * p ** e[i] for x in row] for i, row in enumerate(V)])
        d = la.det(M)
        if d and val(d, ctx) == v:
            return M


def test_intermediate_lattices_match_the_brute_force():
    """Same lattices in the same order, each with the same inverse, as the
    reference enumeration, over O and O_E, at n = 1..3 and p = 3, 5."""
    rng = random.Random(44)
    # (n, ext) -> (largest v(det M) at p = 3, at p = 5, matrices per p);
    # the matrices run through v(det M) = 0, 1, ..., vmax, 0, 1, ...
    sizes = {(1, False): (4, 3, 5), (2, False): (3, 2, 8), (3, False): (2, 2, 6),
             (1, True): (4, 3, 5), (2, True): (2, 2, 6), (3, True): (1, 1, 3)}
    seen = 0
    for (n, ext), (v3, v5, count) in sizes.items():
        for p, vmax in ((3, v3), (5, v5)):
            ctx = PLocalContext(p)
            if ext:
                fast = intermediate_lattices_ext
                residues = lambda k: [EScalar(x, y, ctx) for x in range(p ** k)
                                      for y in range(p ** k)]
            else:
                fast = intermediate_lattices
                residues = lambda k: [F(c) for c in range(p ** k)]
            for k in range(count):
                M = _random_sandwich(rng, ctx, n, ext, k % (vmax + 1))
                ref = _brute_force_lattices(M, ctx, residues,
                                            valuation_ext if ext else valuation)
                got = fast(M, ctx)
                assert got == ref, (p, n, ext, M)
                assert [type(x) for pair in got for H in pair for row in H for x in row] == \
                    [type(x) for pair in ref for H in pair for row in H for x in row]
                seen += len(ref)
    assert seen > 150


@st.composite
def sandwich_cases(draw):
    """M = A diag(3^e) B with 1 <= sum(e) = v(det M) <= 3 (2 at n = 3) and
    two more integral matrices U, V with unit determinant, n = 1..3, over O
    or (ext) O_E at p = 3.  A, B, U and V are unimodular by construction, a
    lower and an upper unitriangular matrix times a signed permutation, so
    no draw is thrown away."""
    n, ext = draw(st.integers(1, 3)), draw(st.booleans())
    one = CTX.embed(1) if ext else F(1)
    zero = one * 0

    def entry():
        x = F(draw(st.integers(-4, 4)))
        return EScalar(x, F(draw(st.integers(-4, 4))), CTX) if ext else x

    def unimodular():
        lower = [[entry() if j < i else one if j == i else zero for j in range(n)] for i in range(n)]
        upper = [[entry() if j > i else one if j == i else zero for j in range(n)] for i in range(n)]
        perm = draw(st.permutations(range(n)))
        signs = draw(st.lists(st.sampled_from([one, -one]), min_size=n, max_size=n))
        signed = [[signs[i] if j == perm[i] else zero for j in range(n)] for i in range(n)]
        return la.mat_mul(lower, la.mat_mul(upper, signed))

    left, e = draw(st.integers(1, 2 if n == 3 else 3)), []
    for _ in range(n - 1):
        e.append(draw(st.integers(0, left)))
        left -= e[-1]
    e.append(left)
    A, B = unimodular(), unimodular()
    M = la.mat_mul(A, [[x * 3 ** k for x in row] for k, row in zip(e, B)])
    return M, unimodular(), unimodular(), intermediate_lattices_ext if ext else intermediate_lattices


@settings(max_examples=80, deadline=None)
@given(sandwich_cases())
def test_intermediate_lattices_see_only_the_lattice(case):
    """M V spans the lattice M spans when V is unimodular, so the list is
    the same; U M spans an isomorphic one, so the count is."""
    M, U, V, enumerate_ = case
    found = enumerate_(M, CTX)
    event(f"{len(found)} lattices")
    assert enumerate_(la.mat_mul(M, V), CTX) == found
    assert len(enumerate_(la.mat_mul(U, M), CTX)) == len(found)


def test_sandwich_index_is_exact():
    rng = random.Random(41)
    for _ in range(25):
        n = rng.randint(1, 2)
        while True:
            X = Triple([[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)],
                       [F(rng.randint(-3, 3)) for _ in range(n)],
                       [F(rng.randint(-3, 3)) for _ in range(n)])
            if stratum(X) == n:
                break
        K = basis_matrix(X)
        L = dual_krylov_rows(X, n)
        M = la.mat_mul(L, K)
        v = valuation(la.det(M), CTX)
        assert v == valuation(d_r(X, n), CTX)
        inter = intermediate_lattices(M, CTX)
        assert len(admissible_lattices_gl(X, CTX)) <= len(inter)


def test_hand_checked_n2_counts():
    # cyclic quotient of order 9: three stable lattices, alternating sum 1
    Xc = Triple([[F(0), F(0)], [F(1), F(0)]], [F(1), F(0)], [F(1), F(3)])
    assert len(admissible_lattices_gl(Xc, CTX)) == 3
    assert orbital_gl(Xc, CTX).value == 1
    # (p,p)-quotient with irreducible residual action: two of four middles
    # survive, signed sum cancels
    Xh = gl_representative_of_point(InvariantPoint((F(0), F(-1)), (F(3), F(0))))
    rh = orbital_gl(Xh, CTX)
    assert rh.lattice_count == 4 and rh.value == 0


# p = 3, n = 2 points (a, b) with v(d_2) = 3, 4 and 6, and (gl value, gl
# lattices, u value, u lattices, disc is a norm) as the brute-force
# enumeration gave them.  Odd v(d_2) puts the form off the norm class.  The
# last three have A-stable lattices of unit level whose Gram matrix is not
# integral, so their unitary counts need the Gram test as well as the level.
DEEP_POINTS = [
    (((0, 12), (-3, 9)), 3, (0, 4, 0, 0, False)),
    (((3, 12), (12, 0)), 3, (0, 4, 0, 0, False)),
    (((1, 2), (18, 0)), 4, (3, 3, 3, 3, True)),
    (((-1, 1), (-36, -27)), 4, (1, 5, 1, 1, True)),
    (((-2, 2), (-36, 27)), 4, (3, 3, 3, 3, True)),
    (((1, -2), (18, -27)), 4, (4, 8, 4, 4, True)),
    (((-1, -2), (-36, 27)), 4, (4, 8, 4, 4, True)),
    (((2, 1), (54, 81)), 6, (4, 16, 4, 4, True)),
]


@pytest.mark.parametrize("point, v, pinned", DEEP_POINTS)
def test_sides_agree_at_deep_valuation(point, v, pinned):
    a = InvariantPoint(tuple(map(F, point[0])), tuple(map(F, point[1])))
    assert valuation(d_r_of_point(a, 2), CTX) == v
    gl = orbital_gl(gl_representative_of_point(a), CTX)
    Xu = hankel_pair_for_point(a, CTX)
    u = orbital_u(Xu, CTX)
    norm = classify_form_local(Xu.form, CTX)["disc_is_norm"]
    assert (gl.value, gl.lattice_count, u.value, u.lattice_count, norm) == pinned
    assert gl.value == u.value if norm else gl.value == u.value == 0


def _reference_bases(X, ctx, lattices_between, keep=None):
    """The filter `_admissible_bases` replaced, as the reference: it builds
    B = L^{-1} H for every sandwich lattice H and tests B itself (keep(B),
    A-stability, b in B O^n, c B integral)."""
    n = X.n
    if stratum(X) != n:
        raise ValueError("admissible lattices need a regular semisimple element")
    L = dual_krylov_rows(X, n)
    M = la.mat_mul(L, basis_matrix(X))
    if la.det(M) != d_r(X, n):
        raise AssertionError("the moment matrix does not have determinant d_n")
    if not all(is_integral(x, ctx) for row in M for x in row):
        return []
    Li = la.inverse(L)
    out = []
    for H, _ in lattices_between(M, ctx):
        B = la.mat_mul(Li, H)
        if keep is not None and not keep(B):
            continue
        Bi = la.inverse(B)
        AB = la.mat_mul(Bi, la.mat_mul(X.A, B))
        if not all(is_integral(x, ctx) for row in AB for x in row):
            continue
        if not all(is_integral(x, ctx) for x in la.mat_vec(Bi, X.b)):
            continue
        if not all(is_integral(x, ctx) for x in la.vec_mat(X.c, B)):
            continue
        out.append(B)
    return out


def _reference_unimodular(G, ctx):
    """keep(B) of the reference's self-dual count: B* G B is integral with
    unit determinant."""
    def keep(B):
        gr = la.mat_mul(la.conj_transpose(B), la.mat_mul(G, B))
        if not all(is_integral(x, ctx) for row in gr for x in row):
            return False
        d = la.det(gr)
        return bool(d) and valuation_ext(d, ctx) == 0
    return keep


def _outcome(f, *args):
    """f's bases with their entry types, or the exception it raised."""
    try:
        return [(B, [type(x) for row in B for x in row]) for B in f(*args)]
    except (ValueError, AssertionError) as e:
        return type(e), str(e)


def _reference_points():
    """(p, point) for the comparison: the points of two `fl_check` runs, the
    pinned deep points, p = 5 points at v(d_2) = 0..4 and non-integral
    moment data."""
    point = lambda r: InvariantPoint(tuple(map(F, r["a"]["a"])), tuple(map(F, r["a"]["b"])))
    runs = [fl_check(1, CTX, 6), fl_check(2, CTX, 2, seed=110, samples=20)]
    out = [(3, point(r)) for rep in runs for r in rep["results"]]
    out += [(3, InvariantPoint(tuple(map(F, a)), tuple(map(F, b)))) for (a, b), _, _ in DEEP_POINTS]
    rng, ctx5, want = random.Random(46), PLocalContext(5), set(range(5))
    while want:
        a = InvariantPoint(*((F(rng.randint(-25, 25)), F(rng.randint(-25, 25))) for _ in range(2)))
        d = d_r_of_point(a, 2)
        if d and valuation(d, ctx5) in want:
            want.discard(valuation(d, ctx5))
            out.append((5, a))
    out += [(3, InvariantPoint((F(0),), (F(1, 9),))),
            (3, InvariantPoint((F(0), F(1)), (F(1, 3), F(0))))]
    return out


def test_admissible_bases_match_the_b_level_reference():
    """Deciding admissibility on the sandwich lattice H gives the same bases
    in the same order, and the same exceptions, as testing B = L^{-1} H."""
    points = _reference_points()
    assert {valuation(d_r_of_point(a, 2), PLocalContext(5)) for p, a in points if p == 5} \
        == set(range(5))
    kept = 0
    for p, a in points:
        ctx = PLocalContext(p)
        Xgl = gl_representative_of_point(a)
        assert _outcome(_admissible_bases, Xgl, ctx, False) == \
            _outcome(_reference_bases, Xgl, ctx, intermediate_lattices)
        Xu = hankel_pair_for_point(a, ctx)
        got = _outcome(_admissible_bases, Xu.triple, ctx, True)
        assert got == _outcome(_reference_bases, Xu.triple, ctx, intermediate_lattices_ext,
                               _reference_unimodular(Xu.form.gram, ctx))
        kept += len(got)
    assert kept > 40
    # a non-regular triple raises the same error on both
    X = Triple([[F(1), F(0)], [F(0), F(1)]], [F(1), F(0)], [F(1), F(0)])
    raised = _outcome(_admissible_bases, X, CTX, False)
    assert raised == _outcome(_reference_bases, X, CTX, intermediate_lattices)
    assert raised[0] is ValueError


def _conjugator(rng, n, entry, val, unimodular=True):
    """A random invertible n x n matrix of 3-integral entries, with unit
    determinant when unimodular."""
    while True:
        g = [[entry() for _ in range(n)] for _ in range(n)]
        d = la.det(g)
        if d and (val(d, CTX) == 0 or not unimodular):
            return g


@pytest.mark.parametrize("ext", [False, True], ids=["Q", "E"])
def test_hankel_and_shift_rows_off_the_companion_model(ext):
    """On regular triples g.X with g unimodular, whose Krylov basis K is not
    the identity: the Hankel matrix of the moments is L K, and C = L A L^{-1}
    has the unit shift rows e_{i+1} above c A^n L^{-1}, the matrices
    `_admissible_bases` builds from the moments and one more dual-Krylov row."""
    rng = random.Random(48 + ext)
    val = valuation_ext if ext else valuation
    scalar = (lambda f: lambda: EScalar(f(), f(), CTX)) if ext else (lambda f: f)
    entry = scalar(lambda: F(rng.randint(-4, 4), rng.choice([1, 2, 3, 5])))
    integral = scalar(lambda: F(rng.randint(-3, 3), rng.choice([1, 2])))
    seen = 0
    for n in range(1, 5):
        for _ in range(5):
            X = Triple([[entry() for _ in range(n)] for _ in range(n)],
                       [entry() for _ in range(n)], [entry() for _ in range(n)])
            if stratum(X) != n:
                continue
            Y = act(_conjugator(rng, n, integral, val), X)
            K = basis_matrix(Y)
            zero, one = zero_like(K[0][0]), one_like(K[0][0])
            assert n == 1 or K != la.identity(n, one)
            ms = moments(Y, 2 * n - 1)
            *L, last = dual_krylov_rows(Y, n + 1)
            assert [[ms[i + j] for j in range(n)] for i in range(n)] == la.mat_mul(L, K)
            Li = la.inverse(L)
            shift = [[one if j == i + 1 else zero for j in range(n)] for i in range(n - 1)]
            assert shift + [la.vec_mat(last, Li)] == la.mat_mul(L, la.mat_mul(Y.A, Li))
            seen += 1
    assert seen >= 15


def test_admissible_bases_match_the_reference_off_the_companion_model():
    """The comparison above on g.X at p = 3, g unimodular for every other
    point: K = g is not the identity there, so M = L K is not L, and where g
    is not unimodular L O^n is not M O^n either, so a mix-up of the two
    shows.  The unitary side conjugates the pair, its form becoming
    g^{-*} G g^{-1}."""
    rng = random.Random(49)
    points = [InvariantPoint(tuple(map(F, a)), tuple(map(F, b))) for (a, b), _, _ in DEEP_POINTS]
    points += [InvariantPoint((F(a1),), (F(b1),)) for a1, b1 in ((0, 9), (1, 27), (3, 81), (1, 2))]
    while len(points) < 19:
        a = InvariantPoint(*((F(rng.randint(-9, 9)), F(rng.randint(-9, 9))) for _ in range(2)))
        d = d_r_of_point(a, 2)
        if d and valuation(d, CTX) <= 4:
            points.append(a)
    q = lambda: F(rng.randint(-3, 3))
    kept = 0
    for k, a in enumerate(points):
        n = a.n
        g = _conjugator(rng, n, q, valuation, k % 2 == 0)
        X = act(g, gl_representative_of_point(a))
        assert n == 1 or basis_matrix(X) != la.identity(n)
        got = _outcome(_admissible_bases, X, CTX, False)
        assert got == _outcome(_reference_bases, X, CTX, intermediate_lattices)
        Xu = hankel_pair_for_point(a, CTX)
        g = _conjugator(rng, n, lambda: EScalar(q(), q(), CTX), valuation_ext, k % 2 == 0)
        gi = la.inverse(g)
        G = la.mat_mul(la.conj_transpose(gi), la.mat_mul(Xu.form.gram, gi))
        Y = act(g, Xu.triple)
        assert Y == HermitianPair(Y.A, Y.b, HermitianForm(G, CTX)).triple
        got_u = _outcome(_admissible_bases, Y, CTX, True)
        assert got_u == _outcome(_reference_bases, Y, CTX, intermediate_lattices_ext,
                                 _reference_unimodular(G, CTX))
        kept += len(got) + len(got_u)
    assert kept > 30


def test_orbital_gl_representative_independence():
    rng = random.Random(42)
    for _ in range(15):
        n = rng.randint(1, 2)
        while True:
            X = Triple([[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)],
                       [F(rng.randint(-3, 3)) for _ in range(n)],
                       [F(rng.randint(-3, 3)) for _ in range(n)])
            if stratum(X) == n:
                break
        base = orbital_gl(X, CTX)
        while True:
            g = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            if la.det(g) != 0:
                break
        assert orbital_gl(act(g, X), CTX).value == base.value


def test_orbital_u_examples():
    one = CTX.embed(1)
    # rank one: valuation-2 unit of the form, one self-dual lattice
    form = HermitianForm([[CTX.embed(9)]], CTX)
    X = HermitianPair([[one]], [one], form)
    assert orbital_u(X, CTX).value == 1
    # odd valuation: the form has no self-dual lattice
    formo = HermitianForm([[CTX.embed(3)]], CTX)
    Xo = HermitianPair([[one]], [one], formo)
    assert orbital_u(Xo, CTX).value == 0
    # unit moment: one lattice
    Xu = hankel_pair_for_point(InvariantPoint((F(1),), (F(1),)), CTX)
    assert orbital_u(Xu, CTX).value == 1


def test_sides_agree_on_nonintegral_moment_data():
    """c b = 1/9 lies outside O, so no lattice qualifies on either side (the
    form is in the norm class, so the unitary side does count)."""
    a = InvariantPoint((F(0),), (F(1, 9),))
    Xu = hankel_pair_for_point(a, CTX)
    assert classify_form_local(Xu.form, CTX)["disc_is_norm"]
    assert selfdual_admissible_lattices(Xu, CTX) == []
    assert orbital_u(Xu, CTX).value == orbital_gl(gl_representative_of_point(a), CTX).value == 0


@pytest.mark.parametrize("a, b", [((F(1, 3),), (F(9),)), ((F(1, 3), F(1)), (F(1), F(3)))])
def test_nonintegral_characteristic_polynomial_admits_no_lattice(a, b):
    """A lattice stable under A makes A's characteristic polynomial
    integral, so where a has a 3 in a denominator no lattice qualifies on
    either side, although M is integral and lattices lie between M O^n and
    O^n (the form is in the norm class, so the unitary side does count)."""
    pt = InvariantPoint(a, b)
    Xgl, Xu = gl_representative_of_point(pt), hankel_pair_for_point(pt, CTX)
    assert classify_form_local(Xu.form, CTX)["disc_is_norm"]
    for X, enumerate_ in ((Xgl, intermediate_lattices), (Xu.triple, intermediate_lattices_ext)):
        ms = moments(X, 2 * X.n - 1)
        assert enumerate_([ms[i:i + X.n] for i in range(X.n)], CTX)
    assert admissible_lattices_gl(Xgl, CTX) == selfdual_admissible_lattices(Xu, CTX) == []
    assert orbital_gl(Xgl, CTX).value == orbital_u(Xu, CTX).value == 0


def test_orbital_u_unitary_invariance():
    rng = random.Random(43)
    done = 0
    while done < 6:
        a = InvariantPoint((F(rng.randint(-3, 3)), F(rng.randint(-3, 3))),
                           (F(rng.randint(-3, 3)), F(rng.randint(-3, 3))))
        from jrlab.gltilde import d_r_of_point
        d = d_r_of_point(a, 2)
        if d == 0 or not (0 <= valuation(d, CTX) <= 2):
            continue
        try:
            X = hankel_pair_for_point(a, CTX)
            base = orbital_u(X, CTX)
        except ValueError:
            continue
        g = random_unitary(X.form, rng)
        gX = unitary_act(g, X)
        assert orbital_u(gX, CTX).value == base.value
        done += 1


def test_toy_orbitals():
    assert toy_gl_orbital(9, CTX) == 1
    assert toy_gl_orbital(3, CTX) == 0
    assert toy_gl_orbital(0, CTX) == 1
    # negative valuations give the empty sum on both sides
    assert toy_gl_orbital(F(1, 9), CTX) == 0
    assert toy_gl_orbital(F(1, 3), CTX) == 0
    assert toy_u_orbital(F(1, 9), "norm", CTX) == 0
    assert toy_u_orbital(0, "norm", CTX) == 1
    assert toy_u_orbital(9, "norm", CTX) == 1
    assert toy_u_orbital(3, "norm", CTX) == 0
    assert toy_u_orbital(F(1, 3), "norm", CTX) == 0


def test_toy_transfer_sweep():
    for p in (3, 5, 7):
        ctx = PLocalContext(p)
        vals = [F(0)]
        for w in range(-8, 9):
            vals += [F(p) ** w, 2 * F(p) ** w]
        rep = toy_transfer_check(ctx, vals)
        assert not rep["failures"]


def test_fl_n1_small():
    rep = fl_check(1, CTX, budget=3)
    assert not rep["failures"]
    # odd-valuation entries really exercise the two-sided vanishing
    odd = [r for r in rep["results"] if r["v_dn"] % 2 == 1]
    assert odd and all(r["gl"] == "0" for r in odd)


def test_fl_n2_smoke_small():
    rep = fl_check(2, CTX, budget=2, seed=3, samples=6)
    assert not rep["failures"]
    assert any(r["v_dn"] > 0 for r in rep["results"])


def test_is_instable():
    pts = [InvariantPoint((F(1),), (F(2),)), InvariantPoint((F(0),), (F(9),))]
    g1 = [[F(1)]]
    g2 = [[F(2)]]
    r = is_instable([(1, g1), (-1, g2)], CTX, pts)
    assert r["instable"] and r["certificate"]
    assert not is_instable([(1, g1)], CTX, pts)["instable"]
    assert is_instable([], CTX, pts)["instable"]
    with pytest.raises(ValueError):
        is_instable([(1, [[F(0)]])], CTX, pts)
