import gc
import random
import weakref
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from jrlab import linalg as la, suites
from jrlab.cones import (DescentDatum, DescentEngine, GTilde,
                         ParabolicSubspace, _all_pos, _nonzero, above, between,
                         enumerate_parabolic_subspaces,
                         enumerate_product_parabolics, epsilon_sign,
                         full_group, parabolic_minus, product_full,
                         projections)
from jrlab.suites import cones_suite, descent_suite


def test_enumeration_counts():
    assert len(enumerate_parabolic_subspaces(1)) == 3
    assert len(enumerate_parabolic_subspaces(2)) == 13
    with pytest.raises(ValueError):
        enumerate_parabolic_subspaces(5)


def test_vflag_roundtrip():
    for n in (1, 2, 3):
        for P in enumerate_parabolic_subspaces(n):
            ws, i, j = P.vflag_ij()
            assert 0 <= j - i <= 1
            assert ParabolicSubspace.from_vflag(ws, i, j, n) == P


def test_full_group_flag():
    G = full_group(2)
    ws, i, j = G.vflag_ij()
    assert (i, j) == (0, 1) and ws == [frozenset(), frozenset({1, 2})]


def test_projections():
    H = [F(1), F(1), F(1)]
    r1, r2, r1h, r2h = projections(H)
    assert r1 == [F(0)] * 3
    H = [F(2), F(5), F(0)]
    r1, r2, r1h, r2h = projections(H)
    assert r1 == [F(2), F(5), F(0)]
    assert [a + b for a, b in zip(r1h, r2h)] == [F(x) for x in H]
    assert r2h == [F(0), F(0), F(7)]


def test_epsilon_multiplicativity():
    ps = enumerate_parabolic_subspaces(2)
    for P in ps:
        assert epsilon_sign(P, P) == 1
        for K in above(P):
            for Q in above(K):
                if K.le(Q):
                    assert epsilon_sign(P, K) * epsilon_sign(K, Q) == epsilon_sign(P, Q)


def test_borel_weight_display():
    """The full-flag case with the distinguished member doubled lists the
    prefix-sum weights and negated suffix sums, with pure coordinate
    functionals among the restricted roots."""
    n = 3
    g = GTilde(n)
    # flag 1 < 12 < 123 with (i, j) = (2, 2)
    ws = [frozenset(), frozenset({1}), frozenset({1, 2}), frozenset({1, 2, 3})]
    B = ParabolicSubspace.from_vflag(ws, 2, 2, n)
    raw = [tuple(v) for v in g.pi_hat_raw(B)]
    e = lambda *ls: tuple(F(1) if k + 1 in ls else F(0) for k in range(n)) + (F(0),)
    neg = lambda v: tuple(-x for x in v)
    assert set(raw) == {e(1), e(1, 2), neg(e(3))}
    # restricted roots in subspace representatives: eps1-eps2, eps2, -eps3
    G = full_group(n)
    flat = {tuple(v) for v in g.pi(B, G)}
    assert flat == {(F(1), F(-1), F(0), F(0)),
                    (F(0), F(1), F(0), F(0)),
                    (F(0), F(0), F(-1), F(0))}


def test_rho_cross_check():
    for n in (1, 2, 3):
        g = GTilde(n)
        for P in enumerate_parabolic_subspaces(n):
            ru = g.rho_underline(P)
            rd = g.rho_difference(P)
            for zb in g.z_basis(P):
                assert la.dot(ru, zb) == la.dot(rd, zb)
        assert g.rho_underline(full_group(n)) == [F(0)] * (n + 1)


def test_langlands_sum_examples():
    g = GTilde(2)
    ps = enumerate_parabolic_subspaces(2)
    rng = random.Random(1)
    for P in ps:
        for _ in range(20):
            H = [rng.randint(-20, 20) for _ in range(3)]
            assert g.langlands_sum(P, P, H) == 1


def test_parabolic_minus_worked_example():
    # two lines, ambient flag containing the distinguished member plus one
    datum = DescentDatum(2, frozenset(), ((1,), (2,)))
    Q = ParabolicSubspace(2, (frozenset({0}), frozenset({0, 1})))
    Qm = parabolic_minus(Q, datum)
    # factor over {1}: flag pointer couple (0, 0); factor over {2}: same
    f1, f2 = Qm.factors
    ws1, i1, j1 = f1.vflag_ij()
    assert (i1, j1) == (0, 0) and f1.chain == (frozenset({0}),)
    ws2, i2, j2 = f2.vflag_ij()
    assert (i2, j2) == (0, 0)
    # the full group maps to the product of full groups
    Gm = parabolic_minus(full_group(2), datum)
    assert all(f.is_group() for f in Gm.factors)
    # containment violation
    bad = ParabolicSubspace(2, (frozenset({1, 2}),))
    with pytest.raises(ValueError):
        parabolic_minus(ParabolicSubspace(2, (frozenset({1}),)),
                        DescentDatum(2, frozenset({1}), ((2,),)))


def test_families_structure():
    datum = DescentDatum(2, frozenset(), ((1, 2),))
    eng = DescentEngine(datum)
    for R in enumerate_product_parabolics(datum):
        fbar, fib, f0 = eng.families(R)
        assert set(map(id, f0)) <= set(map(id, fib))
        for P in fib:
            assert P in fbar
        # the fiber over the full product contains the full group
        if R == product_full(datum):
            assert any(P.is_group() for P in fib)


def test_gtilde_is_freed_after_a_suite(monkeypatch):
    """The covector caches live on their GTilde, so a suite's GTilde goes
    away with the suite."""
    refs = []
    init = GTilde.__init__

    def recording_init(self, n):
        init(self, n)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(GTilde, "__init__", recording_init)
    cones_suite(1, points=20, seed=3)
    gc.collect()
    assert refs and all(r() is None for r in refs)


def test_cones_suite_small():
    for n in (1, 2):
        rep = cones_suite(n, points=600, seed=11)
        assert not rep["failures"], rep["failures"][:2]


def test_descent_suite_small():
    rep = descent_suite(2, seed=11, samples=6)
    assert not rep["failures"], rep["failures"][:2]


def test_descent_suite_draws_reach_every_target(monkeypatch):
    """No sampler of the n = 3 descent suite comes back short.  The
    fiber-inversion wall filter must pair the hat covectors with the domain
    in ambient coordinates: read on the minus coordinates, covectors that
    vanish on the whole domain pass as live, and 20 domains got no draw."""
    short, original = [], suites._accepted

    def accepted(draw, target, tries):
        got = list(original(draw, target, tries))
        if len(got) < target:
            short.append((target, len(got)))
        return got

    monkeypatch.setattr("jrlab.suites._accepted", accepted)
    rep = descent_suite(3, seed=0, samples=1)
    assert not rep["failures"] and rep["instances"] == 10465
    assert short == []


@st.composite
def sign_cases(draw):
    """Integer covectors, a rational or integer point (moved onto the wall
    of one covector half of the time) and a positive rational scale."""
    N = draw(st.integers(1, 5))
    covs = draw(st.lists(st.lists(st.integers(-6, 6), min_size=N, max_size=N),
                         min_size=1, max_size=4))
    coord = st.one_of(st.integers(-20, 20),
                      st.fractions(min_value=-20, max_value=20, max_denominator=12))
    H = draw(st.lists(coord, min_size=N, max_size=N))
    cov = draw(st.sampled_from(covs))
    support = [i for i, c in enumerate(cov) if c]
    if support and draw(st.booleans()):
        i = draw(st.sampled_from(support))
        H[i] -= F(sum(c * h for c, h in zip(cov, H)), cov[i])
        assert sum(c * h for c, h in zip(cov, H)) == 0
    lam = draw(st.fractions(min_value=0, max_value=50, max_denominator=12)
               .filter(lambda x: x > 0))
    return covs, H, lam


@settings(max_examples=400, deadline=None)
@given(sign_cases())
def test_sign_helpers_agree_with_rational_dot(case):
    """The integer sign tests give the signs of the rational dot products,
    at H and at every positive multiple of H."""
    covs, H, lam = case
    for point in (H, [lam * h for h in H]):
        vals = [la.dot(list(map(F, cov)), list(map(F, point))) for cov in covs]
        assert _all_pos(covs, point) == (1 if all(v > 0 for v in vals) else 0)
        assert _nonzero(covs, [point]) == all(v != 0 for v in vals)
    assert _nonzero(covs, [H, [lam * h for h in H]]) == _nonzero(covs, [H])
