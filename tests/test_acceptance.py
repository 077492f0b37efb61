"""Acceptance criteria, one test per criterion, each printing a pass/fail
line with its instance count and wall time.  Run with `pytest -s` to see the
lines as they complete.  Every assertion is exact; the stated time budgets
are asserted too."""

import random
import time
from fractions import Fraction as F

from jrlab import linalg as la
from jrlab.fields import EScalar, PLocalContext, eta
from jrlab.gltilde import (InvariantPoint, Triple, act, d_r, invariants, iota,
                           is_semisimple, jordan, slice_compatibility_check,
                           stratum)
from jrlab.hermitian import (HermitianForm, HermitianPair, adjoint, cayley_gl,
                             cayley_inverse, cayley_u, extend_form,
                             factor_compat_check, in_twisted_space,
                             is_unitary, match_invariants_group,
                             standard_cayley_params, u_invariants,
                             u_is_semisimple, u_jordan, random_unitary,
                             unitary_act)
from jrlab.orbital import toy_transfer_check
from jrlab.suites import chambers_suite, cones_suite, descent_suite, fl_check

CTX = PLocalContext(3)


def report(num, name, ok, instances, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num:2d} ({name}): {instances} instances "
          f"in {elapsed:.2f}s (budget {budget}s)")
    assert ok, f"criterion {num} ({name}) failed"
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def rnd_triple(rng, n, lo=-3, hi=3, regular=None):
    while True:
        X = Triple([[F(rng.randint(lo, hi)) for _ in range(n)] for _ in range(n)],
                   [F(rng.randint(lo, hi)) for _ in range(n)],
                   [F(rng.randint(lo, hi)) for _ in range(n)])
        if regular is None or (stratum(X) == n) == regular:
            return X


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


def test_criterion_01_d_multiplicativity():
    t0 = time.time()
    rng = random.Random(101)
    count = 0
    ok = True
    for _ in range(500):
        r = rng.randint(1, 3)
        m = rng.randint(1, 3)
        Xp = rnd_triple(rng, r, regular=True)
        Y = rnd_triple(rng, m)
        Z = iota(Xp, Y)
        for k in range(0, m + 1):
            ok = ok and d_r(Z, r + k) == d_r(Xp, r) * d_r(Y, k)
        count += 1
    report(1, "d-multiplicativity", ok, count, time.time() - t0, 5)


def test_criterion_02_jordan_suite():
    t0 = time.time()
    rng = random.Random(102)
    ok = True
    count = 0
    for _ in range(500):
        n = rng.randint(1, 4)
        X = rnd_triple(rng, n, lo=-2, hi=2)
        Xs, Xn = jordan(X)
        ok = ok and invariants(Xs) == invariants(X)
        ok = ok and invariants(Xn).is_nilpotent()
        ok = ok and is_semisimple(Xs)
        count += 1
    for _ in range(10):
        n = rng.randint(1, 3)
        X = rnd_triple(rng, n, lo=-2, hi=2)
        while True:
            g = [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
            if la.det(g) != 0:
                break
        Xs, _ = jordan(X)
        gXs, _ = jordan(act(g, X))
        ref = act(g, Xs)
        ok = ok and (gXs.A, gXs.b, gXs.c) == (ref.A, ref.b, ref.c)
        count += 1
    for _ in range(500):
        n = rng.randint(1, 4)
        form = rnd_form(rng, n, bound=1)
        X = rnd_pair(rng, form, bound=1)
        Xs, Xn = u_jordan(X)
        ok = ok and u_invariants(Xs) == u_invariants(X)
        ok = ok and u_invariants(Xn).is_nilpotent()
        ok = ok and u_is_semisimple(Xs)
        count += 1
    for _ in range(10):
        n = rng.randint(1, 2)
        form = rnd_form(rng, n, bound=1)
        X = rnd_pair(rng, form, bound=1)
        g = random_unitary(form, rng)
        Xs, _ = u_jordan(X)
        gXs, _ = u_jordan(unitary_act(g, X))
        ref = unitary_act(g, Xs)
        ok = ok and (gXs.A, gXs.b) == (ref.A, ref.b)
        count += 1
    report(2, "Jordan suites", ok, count, time.time() - t0, 10)


def test_criterion_03_slice_resultant():
    t0 = time.time()
    rng = random.Random(103)
    ok = True
    count = 0
    while count < 200:
        k = rng.randint(1, 3)
        parts = [rnd_triple(rng, rng.randint(1, 2)) for _ in range(k)]
        try:
            rep = slice_compatibility_check(parts)
        except ZeroDivisionError:
            continue
        ok = ok and rep["ratio"] in (1, -1)
        count += 1
    report(3, "slice/resultant formula", ok, count, time.time() - t0, 5)


def test_criterion_04_cayley_suite():
    t0 = time.time()
    rng = random.Random(104)
    params = standard_cayley_params(CTX, t=1, s=1)
    ok = True
    count = 0
    matched_done = 0
    while count < 200:
        n = rng.randint(1, 3)
        N = n + 1
        formV = rnd_form(rng, n, bound=1)
        form_ext = extend_form(formV)
        Y = [[F(rng.randint(-3, 3)) for _ in range(N)] for _ in range(N)]
        try:
            x = cayley_gl(Y, params)
        except ZeroDivisionError:
            continue
        ok = ok and in_twisted_space(x)
        ok = ok and cayley_inverse(x, params) == [[CTX.embed(v) for v in row] for row in Y]
        Xu = rnd_pair(rng, form_ext, bound=1)
        try:
            xu = cayley_u([list(r) for r in Xu.A], form_ext, params)
        except ZeroDivisionError:
            continue
        ok = ok and is_unitary(xu, form_ext)
        ok = ok and cayley_inverse(xu, params) == [list(r) for r in Xu.A]
        if count % 4 == 0:
            while True:
                g = [[F(rng.randint(-2, 2)) for _ in range(N)] for _ in range(N)]
                if la.det(g) != 0:
                    break
            gY = la.mat_mul(g, la.mat_mul(Y, la.inverse(g)))
            try:
                x2 = cayley_gl(gY, params)
                ge = [[CTX.embed(v) for v in row] for row in g]
                ok = ok and x2 == la.mat_mul(ge, la.mat_mul(x, la.inverse(ge)))
            except ZeroDivisionError:
                pass
        if count % 5 == 0 and matched_done < 40:
            from jrlab.hermitian import matched_endomorphism_pair
            Ygl, Yu = matched_endomorphism_pair(rng, n, form_ext)
            try:
                x1 = cayley_gl(Ygl, params)
                x2 = cayley_u(Yu, form_ext, params)
                ok = ok and match_invariants_group(x1, x2, form_ext)
                matched_done += 1
            except (ZeroDivisionError, AssertionError):
                pass
        count += 1
    # sampled constancy of the sign ratio
    for n in (1, 2):
        N = n + 1
        samples = []
        while len(samples) < 25:
            Y = [[F(rng.randint(-4, 4)) for _ in range(N)] for _ in range(N)]
            try:
                cayley_gl(Y, params)
                from jrlab.hermitian import eta_tilde_end, omega_factor
                eta_tilde_end(Y, CTX)
            except (ZeroDivisionError, ValueError, AssertionError):
                continue
            samples.append(Y)
        rep = factor_compat_check(samples, params, CTX)
        ok = ok and rep["constant"]
        count += len(samples)
    report(4, "Cayley suite", ok, count, time.time() - t0, 10)


def test_criterion_05_cone_identities():
    t0 = time.time()
    rep = cones_suite(2, points=10000, seed=105)
    ok = not rep["failures"]
    report(5, "cone identities (GL(3))", ok, rep["instances"], time.time() - t0, 60)


def test_criterion_06_descent_combinatorics():
    t0 = time.time()
    inst = 0
    ok = True
    for n in (1, 2, 3):
        rep = descent_suite(n, seed=106, samples=16)
        inst += rep["instances"]
        ok = ok and not rep["failures"]
    report(6, "descent combinatorics", ok, inst, time.time() - t0, 120)


def test_criterion_07_chamber_suite():
    t0 = time.time()
    rep = chambers_suite(4, seed=107, families=200)
    ok = not rep["failures"]
    report(7, "chamber complex (rank 4)", ok, rep["instances"], time.time() - t0, 60)


def test_criterion_08_toy_transfer():
    t0 = time.time()
    ok = True
    inst = 0
    for p in (3, 5, 7):
        ctx = PLocalContext(p)
        vals = [F(0)]
        for w in range(-8, 9):
            vals += [F(p) ** w, 2 * F(p) ** w, -3 * F(p) ** w if p != 3 else 2 * F(p) ** w]
        rep = toy_transfer_check(ctx, vals)
        ok = ok and not rep["failures"]
        inst += rep["values"]
        # the regularized value at 0 is exactly 1 = 1/2 + 1/2
        from jrlab.orbital import toy_gl_orbital
        ok = ok and toy_gl_orbital(0, ctx) == F(1, 2) + F(1, 2) == 1
    report(8, "toy transfer", ok, inst, time.time() - t0, 1)


def test_criterion_09_fundamental_lemma_n1():
    t0 = time.time()
    ok = True
    inst = 0
    for p in (3, 5, 7):
        ctx = PLocalContext(p)
        rep = fl_check(1, ctx, budget=6)
        ok = ok and not rep["failures"]
        inst += len(rep["results"])
        # odd valuation forces two-sided vanishing
        odd = [r for r in rep["results"] if r["v_dn"] % 2 == 1]
        ok = ok and odd and all(r["gl"] == "0" and r["u"] == "0" for r in odd)
    report(9, "fundamental lemma n=1", ok, inst, time.time() - t0, 5)


def test_criterion_10_fundamental_lemma_n2_smoke():
    t0 = time.time()
    ctx = PLocalContext(3)
    rep = fl_check(2, ctx, budget=2, seed=110, samples=20)
    ok = not rep["failures"] and len(rep["results"]) == 20
    # the sample must include genuinely deep instances
    ok = ok and any(r["v_dn"] == 2 for r in rep["results"])
    report(10, "fundamental lemma n=2 smoke", ok, len(rep["results"]),
           time.time() - t0, 60)
