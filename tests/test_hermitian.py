import itertools
import random
from fractions import Fraction as F

import pytest

from jrlab import hermitian, linalg as la
from jrlab.fields import EScalar, PLocalContext, eta, is_integral, valuation_ext
from jrlab.gltilde import InvariantPoint
from jrlab.hermitian import (HermitianForm, HermitianPair, adjoint, cayley_gl,
                             cayley_inverse, cayley_u, classify_form_local,
                             companion_matrix, eta_tilde_end, extend_form,
                             factor_compat_check, group_moments,
                             hankel_pair_for_point, in_twisted_space,
                             is_selfadjoint, is_unitary, match_invariants_group,
                             omega_factor, omega_group, orbit_inventory,
                             random_unitary, splits_over_ext,
                             standard_cayley_params, u_d_r, u_invariants,
                             u_is_semisimple, u_jordan, u_pairing, u_stratum,
                             unitary_act, _moment_basis_det)
from jrlab import serialize as ser
from jrlab.poly import Polynomial

from tests import test_acceptance as acceptance

CTX = PLocalContext(3)
ONE, ZERO = CTX.embed(1), CTX.embed(0)


def rnd_form(rng, n, bound=2):
    while True:
        M = [[EScalar(F(rng.randint(-bound, bound)), F(rng.randint(-bound, bound)), CTX)
              for _ in range(n)] for _ in range(n)]
        G = la.mat_add(M, la.conj_transpose(M))
        try:
            return HermitianForm(G, CTX)
        except ValueError:
            continue


def rnd_pair(rng, form, bound=2):
    n = form.n
    M = [[EScalar(F(rng.randint(-bound, bound)), F(rng.randint(-bound, bound)), CTX)
          for _ in range(n)] for _ in range(n)]
    A = la.mat_add(M, adjoint(M, form))
    b = [EScalar(F(rng.randint(-bound, bound)), F(rng.randint(-bound, bound)), CTX)
         for _ in range(n)]
    return HermitianPair(A, b, form)


def test_selfadjointness():
    form = HermitianForm([[ONE, ZERO], [ZERO, ONE]], CTX)
    assert is_selfadjoint(la.identity(2, ONE), form)
    diag = [[CTX.embed(2), ZERO], [ZERO, CTX.embed(5)]]
    assert is_selfadjoint(diag, form)
    skew = [[ZERO, CTX.sqrt_eps()], [CTX.sqrt_eps(), ZERO]]
    # sqrt(eps) is sigma-antisymmetric, so this off-diagonal matrix is not
    # self-adjoint for the identity form
    assert not is_selfadjoint(skew, form)


def test_u_invariants_examples():
    form = HermitianForm([[ONE]], CTX)
    beta = EScalar(F(1), F(2), CTX)
    X = HermitianPair([[CTX.embed(5)]], [beta], form)
    iv = u_invariants(X)
    assert iv.a == (F(-5),)
    assert iv.b == (beta.norm(),)
    X0 = HermitianPair([[CTX.embed(5)]], [ZERO], form)
    assert u_invariants(X0).b == (F(0),)


def test_u_invariants_unitary_invariance():
    rng = random.Random(20)
    for _ in range(40):
        n = rng.randint(1, 3)
        form = rnd_form(rng, n)
        X = rnd_pair(rng, form)
        g = random_unitary(form, rng)
        assert u_invariants(unitary_act(g, X)) == u_invariants(X)


def test_u_jordan_suite():
    rng = random.Random(21)
    for _ in range(60):
        n = rng.randint(1, 3)
        form = rnd_form(rng, n)
        X = rnd_pair(rng, form)
        Xs, Xn = u_jordan(X)
        assert u_invariants(Xs) == u_invariants(X)
        assert u_invariants(Xn).is_nilpotent()
        assert u_is_semisimple(Xs)
        assert la.mat_add([list(r) for r in Xs.A], [list(r) for r in Xn.A]) == \
            [list(r) for r in X.A]
        g = random_unitary(form, rng)
        gXs, _ = u_jordan(unitary_act(g, X))
        ref = unitary_act(g, Xs)
        assert gXs.A == ref.A and gXs.b == ref.b


def test_derived_pairs_pass_the_public_checks(monkeypatch):
    """`u_jordan` and `unitary_act` build their pairs without the checks of
    `HermitianPair`.  Every pair they build for the instance sets of
    criteria 2 and 4, built again through `HermitianPair`, passes them."""
    made = {}
    derived = hermitian._derived
    for crit in (acceptance.test_criterion_02_jordan_suite,
                 acceptance.test_criterion_04_cayley_suite):
        built = made.setdefault(crit.__name__, [])
        monkeypatch.setattr(hermitian, "_derived", lambda *a: built.append(a) or derived(*a))
        crit()
    for A, b, form in made["test_criterion_02_jordan_suite"] + made["test_criterion_04_cayley_suite"]:
        X = HermitianPair(A, b, form)
        assert X == derived(A, b, form)
    assert len(made["test_criterion_02_jordan_suite"]) == 1060


def test_u_stratum_and_dr():
    form = HermitianForm([[ONE]], CTX)
    X = HermitianPair([[CTX.embed(2)]], [ONE], form)
    assert u_stratum(X) == 1 and u_d_r(X, 1) == 1
    X0 = HermitianPair([[CTX.embed(2)]], [ZERO], form)
    assert u_stratum(X0) == 0
    Xs, Xn = u_jordan(X0)
    assert Xs.A == X0.A and all(not x for x in Xn.b)


def test_u_pairing():
    rng = random.Random(22)
    form = rnd_form(rng, 2)
    X = rnd_pair(rng, form)
    Y = rnd_pair(rng, form)
    v = u_pairing(X, Y)
    g = random_unitary(form, rng)
    assert u_pairing(unitary_act(g, X), unitary_act(g, Y)) == v
    n1 = HermitianForm([[ONE]], CTX)
    beta = EScalar(F(2), F(1), CTX)
    X1 = HermitianPair([[CTX.embed(3)]], [beta], n1)
    assert u_pairing(X1, X1) == F(9) + 2 * beta.norm()


def test_u_jordan_parts_are_extension_scalars():
    """Jordan parts of non-regular pairs survive the wire format, which takes
    extension scalars only: no rational constant leaks out of the core."""
    rng = random.Random(29)
    strata = set()
    for _ in range(30):
        k, m = rng.randint(1, 2), rng.randint(1, 2)
        f1, f2 = rnd_form(rng, k), rnd_form(rng, m)
        X1, X2 = rnd_pair(rng, f1), rnd_pair(rng, f2)
        form = HermitianForm(la.block_diag([f1.gram, f2.gram], ZERO), CTX)
        # b inside the first block keeps the Krylov span there: r <= k < n
        b = (list(X1.b) if rng.random() < 0.8 else [ZERO] * k) + [ZERO] * m
        X = HermitianPair(la.block_diag([X1.A, X2.A], ZERO), b, form)
        X = unitary_act(random_unitary(form, rng), X)
        r = u_stratum(X)
        assert r < X.n
        strata.add(r)
        for part in u_jordan(X):
            assert ser.pair_from_json(ser.pair_to_json(part), CTX) == part
    assert strata == {0, 1, 2}


def test_extend_form():
    form = rnd_form(random.Random(23), 2)
    ext = extend_form(form)
    assert ext.n == 3
    assert ext.gram[2][2] == ONE
    assert all(ext.gram[i][2] == ZERO for i in range(2))


def test_classify_form_local():
    assert classify_form_local(HermitianForm([[ONE, ZERO], [ZERO, ONE]], CTX), CTX)["disc_is_norm"]
    g = [[CTX.embed(3), ZERO], [ZERO, ONE]]
    assert not classify_form_local(HermitianForm(g, CTX), CTX)["disc_is_norm"]
    g2 = [[CTX.embed(3), ZERO], [ZERO, CTX.embed(3)]]
    assert classify_form_local(HermitianForm(g2, CTX), CTX)["disc_is_norm"]


def test_orbit_inventory_regular():
    a = InvariantPoint((F(-2),), (F(1),))
    classes = orbit_inventory(a, [], CTX)
    assert len(classes) == 1
    assert u_invariants(classes[0]["pair"]) == a


def test_orbit_inventory_nilpotent_dichotomy():
    t = Polynomial([F(0), F(1)])
    classes = orbit_inventory(InvariantPoint((F(0),), (F(0),)), [(t, 1, "inert")], CTX)
    assert len(classes) == 2
    assert sorted(c["labels"][0]["disc_is_norm"] for c in classes) == [False, True]
    for c in classes:
        assert all(not x for x in c["pair"].b)


def test_orbit_inventory_split_factor():
    # t^2 - 2 splits over the extension by sqrt(2): one class only
    P = Polynomial([F(-2), F(0), F(1)])
    assert splits_over_ext(P, CTX)
    a = InvariantPoint((F(0), F(-2)), (F(0), F(0)))
    classes = orbit_inventory(a, [(P, 1, "split")], CTX)
    assert len(classes) == 1
    assert u_invariants(classes[0]["pair"]) == a


def test_orbit_inventory_two_inert_factors():
    t = Polynomial([F(0), F(1)])
    t1 = Polynomial([F(-1), F(1)])
    a = InvariantPoint((F(-1), F(0)), (F(0), F(0)))
    classes = orbit_inventory(a, [(t, 1, "inert"), (t1, 1, "inert")], CTX)
    assert len(classes) == 4
    for c in classes:
        assert u_invariants(c["pair"]) == a


def test_orbit_inventory_mixed_with_regular_part():
    t = Polynomial([F(0), F(1)])
    # chi = (t^2 - t - 1) * t: regular part of degree 2 with moments (1, 2),
    # nilpotent line; the third moment follows the regular part's recursion
    a = InvariantPoint((F(-1), F(-1), F(0)), (F(1), F(2), F(3)))
    from jrlab.gltilde import d_r_of_point
    assert d_r_of_point(a, 2) != 0 and d_r_of_point(a, 3) == 0
    classes = orbit_inventory(a, [(t, 1, "inert")], CTX)
    assert len(classes) == 2
    for c in classes:
        assert u_invariants(c["pair"]) == a


def test_orbit_inventory_errors():
    t = Polynomial([F(0), F(1)])
    bad = Polynomial([F(-4), F(0), F(1)])     # (t-2)(t+2): not irreducible
    with pytest.raises(ValueError):
        orbit_inventory(InvariantPoint((F(0), F(0)), (F(0), F(0))),
                        [(bad, 1, "inert")], CTX)
    with pytest.raises(ValueError):
        orbit_inventory(InvariantPoint((F(1),), (F(0),)), [(t, 1, "inert")], CTX)
    P = Polynomial([F(-2), F(0), F(1)])       # splits over the extension
    with pytest.raises(ValueError):
        orbit_inventory(InvariantPoint((F(0), F(-2)), (F(0), F(0))),
                        [(P, 1, "inert")], CTX)
    P = Polynomial([F(-5), F(0), F(1)])       # inert, but v_3(disc) = v_3(20) = 0
    with pytest.raises(ValueError, match="p-ramified"):
        orbit_inventory(InvariantPoint((F(0), F(-5)), (F(0), F(0))),
                        [(P, 1, "inert")], CTX)


@pytest.mark.parametrize("a, monic, scaled", [
    # r = 0: chi = t - 1, given as 2t - 2
    (InvariantPoint((F(-1),), (F(0),)), Polynomial([F(-1), F(1)]), Polynomial([F(-2), F(2)])),
    # r = 1: chi = (t - 1)(t - 2), the minus factor given as 2t - 4
    (InvariantPoint((F(-3), F(2)), (F(1), F(1))), Polynomial([F(-2), F(1)]),
     Polynomial([F(-4), F(2)])),
], ids=["r0", "r1"])
def test_orbit_inventory_makes_factors_monic(a, monic, scaled):
    want = orbit_inventory(a, [(monic, 1, "inert")], CTX)
    got = orbit_inventory(a, [(scaled, 1, "inert")], CTX)
    assert [(c["labels"], c["pair"]) for c in got] == [(c["labels"], c["pair"]) for c in want]


PARAMS = standard_cayley_params(CTX, t=1, s=1)


def test_cayley_examples():
    assert cayley_gl([[F(0)]], PARAMS) == [[-PARAMS.xi]]
    Y = [[F(1), F(2)], [F(0), F(1)]]
    r = cayley_gl(Y, PARAMS)
    assert in_twisted_space(r)
    assert cayley_inverse(r, PARAMS) == [[CTX.embed(x) for x in row] for row in Y]


def test_cayley_pole():
    # an eigenvalue squaring to eps hits the pole locus
    with pytest.raises(ZeroDivisionError):
        cayley_gl([[F(0), F(2)], [F(1), F(0)]], PARAMS)
    with pytest.raises(ZeroDivisionError):
        cayley_inverse(la.identity(2, PARAMS.xi), PARAMS)


def test_cayley_poles_and_round_trips_on_a_grid():
    # all 625 integer 2x2 matrices with entries in [-2, 2]
    tau_I = la.identity(2, PARAMS.tau)
    for e in itertools.product(range(-2, 3), repeat=4):
        Y = [[F(e[0]), F(e[1])], [F(e[2]), F(e[3])]]
        Ye = [[CTX.embed(x) for x in row] for row in Y]
        if la.det(la.mat_sub(Ye, tau_I)) == 0:
            with pytest.raises(ZeroDivisionError):
                cayley_gl(Y, PARAMS)
        else:
            assert cayley_inverse(cayley_gl(Y, PARAMS), PARAMS) == Ye


def test_cayley_equivariance():
    rng = random.Random(24)
    for _ in range(30):
        n = rng.randint(1, 3)
        Y = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        while True:
            g = [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
            if la.det(g) != 0:
                break
        try:
            r = cayley_gl(Y, PARAMS)
        except ZeroDivisionError:
            continue
        gY = la.mat_mul(g, la.mat_mul(Y, la.inverse(g)))
        try:
            r2 = cayley_gl(gY, PARAMS)
        except ZeroDivisionError:
            continue
        ge = [[CTX.embed(x) for x in row] for row in g]
        assert r2 == la.mat_mul(ge, la.mat_mul(r, la.inverse(ge)))


def test_cayley_u_membership_and_roundtrip():
    rng = random.Random(25)
    for _ in range(30):
        n = rng.randint(1, 3)
        form = rnd_form(rng, n)
        X = rnd_pair(rng, form)
        Y = [list(r) for r in X.A]
        try:
            r = cayley_u(Y, form, PARAMS)
        except ZeroDivisionError:
            continue
        assert is_unitary(r, form)
        assert cayley_inverse(r, PARAMS) == Y


from jrlab.hermitian import matched_endomorphism_pair


def make_matched_pair(rng, n, form_ext):
    return matched_endomorphism_pair(rng, n, form_ext)


def test_match_invariants_group():
    rng = random.Random(26)
    formV = rnd_form(rng, 1)
    form_ext = extend_form(formV)
    done = 0
    while done < 20:
        Ygl, Yu = make_matched_pair(rng, 1, form_ext)
        try:
            x1 = cayley_gl(Ygl, PARAMS)
            x2 = cayley_u(Yu, form_ext, PARAMS)
        except (ZeroDivisionError, AssertionError):
            continue
        assert match_invariants_group(x1, x2, form_ext)
        # perturbing one matrix breaks the matching
        x2p = [row[:] for row in x2]
        x2p[0][0] = x2p[0][0] + ONE
        assert not match_invariants_group(x1, x2p, form_ext)
        done += 1
    # kappa(0) on both sides trivially matches
    N = 2
    x1 = cayley_gl(la.zeros(N, N), PARAMS)
    x2 = cayley_u([[ZERO] * N for _ in range(N)], form_ext, PARAMS)
    assert match_invariants_group(x1, x2, form_ext)


def test_omega_properties():
    rng = random.Random(27)
    # equivariance and good-place triviality at n = 1
    done_eq = 0
    done_triv = 0
    while done_eq < 20 or done_triv < 20:
        Y = [[F(rng.randint(-4, 4)) for _ in range(2)] for _ in range(2)]
        try:
            x = cayley_gl(Y, PARAMS)
            om = omega_factor(x, CTX)
        except (ZeroDivisionError, ValueError, AssertionError):
            continue
        assert om in (1, -1)
        u = F(rng.choice([1, 2, 3, 9, F(1, 3)]))
        g = [[CTX.embed(u), ZERO], [ZERO, ONE]]
        gx = la.mat_mul(g, la.mat_mul(x, la.inverse(g)))
        assert omega_factor(gx, CTX) == eta(u, CTX) * om
        done_eq += 1
        if all(is_integral(e, CTX) for row in x for e in row):
            D = _moment_basis_det(x, 1)
            dx = la.det(x)
            if D and valuation_ext(D, CTX) == 0 and valuation_ext(dx, CTX) == 0:
                assert om == 1
                done_triv += 1


def test_omega_group_matches_twisted_factor():
    rng = random.Random(28)
    done = 0
    while done < 10:
        # h = (1, g~) with g~ = x viewed in the pair: nu(h) = x sigma(x)^{-1}
        Y = [[F(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)]
        try:
            x = cayley_gl(Y, PARAMS)
        except ZeroDivisionError:
            continue
        g = [[F(1)]]
        try:
            om = omega_group(g, x, CTX)
        except (ValueError, ZeroDivisionError):
            continue
        assert om in (1, -1)
        done += 1


def test_factor_compat_constancy():
    rng = random.Random(29)
    for n in (1, 2):
        N = n + 1
        samples = []
        while len(samples) < 40:
            Y = [[F(rng.randint(-4, 4)) for _ in range(N)] for _ in range(N)]
            try:
                x = cayley_gl(Y, PARAMS)
                eta_tilde_end(Y, CTX)
                omega_factor(x, CTX)
            except (ZeroDivisionError, ValueError, AssertionError):
                continue
            samples.append(Y)
        rep = factor_compat_check(samples, PARAMS, CTX)
        assert rep["constant"], (n, rep)
        # unitary-side conjugation of the input leaves the ratio unchanged
        Y = samples[0]
        g = [[F(1), F(1), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(1)]][:N]
        g = [row[:N] for row in g]
        gY = la.mat_mul(g, la.mat_mul(Y, la.inverse(g)))
        rep2 = factor_compat_check([Y, gY], PARAMS, CTX)
        assert rep2["constant"]


def test_orbit_inventory_rejects_unknown_flags():
    t = Polynomial([F(0), F(1)])
    for flag in ("Inert", "ramified"):
        with pytest.raises(ValueError, match="unknown flag"):
            orbit_inventory(InvariantPoint((F(0),), (F(0),)), [(t, 1, flag)], CTX)
