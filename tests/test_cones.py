import gc
import itertools
import random
import weakref
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from jrlab import cones, linalg as la, suites
from jrlab.chambers import project_family, projection_scale
from jrlab.cones import (DescentEngine, GTilde,
                         ParabolicSubspace, _all_pos, _nonzero, _sigma_cov,
                         _sigma_full_cov, _sigma_hat_cov,
                         _sigma_hat_full_cov, above, between, coordinate,
                         enumerate_parabolic_subspaces,
                         enumerate_product_parabolics, epsilon_sign,
                         full_group, parabolic_minus, pi, pi_hat_raw,
                         product_between, product_full, projections,
                         signed_count, z_basis)
from jrlab.fields import PLocalContext
from jrlab.suites import cones_suite, descent_data, descent_suite, fl_check


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
    # flag 1 < 12 < 123 with (i, j) = (2, 2)
    ws = [frozenset(), frozenset({1}), frozenset({1, 2}), frozenset({1, 2, 3})]
    B = ParabolicSubspace.from_vflag(ws, 2, 2, n)
    raw = [tuple(v) for v in pi_hat_raw(B)]
    e = lambda *ls: tuple(F(1) if k + 1 in ls else F(0) for k in range(n)) + (F(0),)
    neg = lambda v: tuple(-x for x in v)
    assert set(raw) == {e(1), e(1, 2), neg(e(3))}
    # restricted roots in subspace representatives: eps1-eps2, eps2, -eps3
    G = full_group(n)
    flat = {tuple(v) for v in pi(B, G)}
    assert flat == {(F(1), F(-1), F(0), F(0)),
                    (F(0), F(1), F(0), F(0)),
                    (F(0), F(0), F(-1), F(0))}


def rho_underline(P):
    """Sum of the determinant weights of the flag subspace and the dual
    flag subspace, as a raw covector."""
    ws, i, j = P.vflag_ij()
    vset = set(range(1, P.n + 1))
    w_i = cones._indicator(ws[i], P.n + 1)
    w_j_comp = cones._indicator(vset - set(ws[j]), P.n + 1)
    return [a - b for a, b in zip(w_i, w_j_comp)]


def rho_difference(P):
    """2 rho of the extended parabolic minus 2 rho of the base parabolic,
    as a raw covector on the ambient space."""
    def two_rho(blocks, N):
        out = [0] * N
        sizes = [len(b) for b in blocks]
        for m, b in enumerate(blocks):
            wt = sum(sizes[m + 1:]) - sum(sizes[:m])
            out = [a + wt * c for a, c in zip(out, cones._indicator(b, N))]
        return out

    ws, _, _ = P.vflag_ij()
    vblocks = [frozenset(m - prev) for prev, m in zip(ws, ws[1:])]
    return [a - b for a, b in zip(two_rho(P.blocks(), P.n + 1), two_rho(vblocks, P.n + 1))]


def test_rho_cross_check():
    for n in (1, 2, 3):
        for P in enumerate_parabolic_subspaces(n):
            ru = rho_underline(P)
            rd = rho_difference(P)
            for zb in z_basis(P):
                assert la.dot(ru, zb) == la.dot(rd, zb)
        assert rho_underline(full_group(n)) == [F(0)] * (n + 1)


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
    datum = DescentEngine(2, frozenset(), ((1,), (2,)))
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
                        DescentEngine(2, frozenset({1}), ((2,),)))


def test_parabolic_intervals_are_built_once_and_shared_immutably():
    for n in (1, 2, 3):
        ps = enumerate_parabolic_subspaces(n)
        assert full_group(n) is full_group(n) == ParabolicSubspace(n, ())
        for P in ps:
            assert above(P) is above(P) and type(above(P)) is tuple
            for Q in ps:
                if not P.le(Q):
                    continue
                iv = between(P, Q)
                assert iv is between(P, Q) and type(iv) is tuple and len(set(iv)) == len(iv)
                assert set(iv) == {S for S in ps if P.le(S) and S.le(Q)}
    for datum in descent_data(3):
        top = product_full(datum)
        for R in enumerate_product_parabolics(datum):
            iv = product_between(R, top)
            assert iv is product_between(R, top) and type(iv) is tuple
            assert set(iv) == {T for T in enumerate_product_parabolics(datum) if R.le(T)}


def _frozen(value):
    """Tuples all the way down: no list, dict or set at any depth."""
    if isinstance(value, (list, dict, set)):
        return False
    return type(value) is not tuple or all(map(_frozen, value))


def test_covector_caches_are_shared_immutably():
    """Every cone-layer cache is keyed on frozen arguments alone: engines
    over equal data share entries, a second run of the suites at another
    seed builds nothing, and every cached value is a hashable tuple of
    tuples, covectors and term lists alike."""
    caches = [f for f in (*vars(cones).values(), *vars(DescentEngine).values())
              if hasattr(f, "cache_info")]
    assert {f.__name__ for f in caches} >= {
        "pi_hat_raw", "delta", "delta_hat", "pi", "pi_hat", "_tau_cov", "_tau_hat_cov",
        "_sigma_cov", "_sigma_full_cov", "_sigma_hat_cov", "_sigma_hat_full_cov",
        "families", "rigid_span", "sigma_descent_cov", "_lifted",
        "langlands_terms", "kernel_terms", "expansion_terms",
        "family_sums", "inversion_terms", "_family_template",
        "wall_hyperplanes", "langlands_walls", "kernel_walls", "family_walls",
        "inversion_walls", "_z_groups", "parabolic_minus"}
    cones_suite(2, points=60, seed=1)
    descent_suite(2, seed=1, samples=4)
    sizes = [f.cache_info().currsize for f in caches]
    cones_suite(2, points=60, seed=2)
    descent_suite(2, seed=2, samples=4)
    assert [f.cache_info().currsize for f in caches] == sizes

    def shared(build, *args):
        value = build(*args)
        assert value is build(*args) and type(value) is tuple and _frozen(value)
        hash(value)

    for P in enumerate_parabolic_subspaces(2):
        shared(cones.pi_hat_raw, P)
        shared(cones.expansion_terms, P)
        shared(cones.kernel_walls, P)
        shared(cones._z_groups, P)
        for covs in ((cones._tau_hat_cov, cones._tau_cov), (_sigma_hat_cov, _sigma_cov)):
            shared(cones.kernel_terms, P, *covs)
        for Q in above(P):
            for build in (cones.delta, cones.delta_hat, cones.pi, cones.pi_hat,
                          cones._tau_cov, cones._tau_hat_cov, cones._sigma_cov,
                          cones._sigma_full_cov, cones._sigma_hat_cov,
                          cones._sigma_hat_full_cov, cones.langlands_terms,
                          cones.wall_hyperplanes, cones.langlands_walls):
                shared(build, P, Q)
    for datum in descent_data(2):
        engine = lambda: DescentEngine(datum.n, datum.vplus, datum.parts)
        top = product_full(datum)
        for R in enumerate_product_parabolics(datum):
            fbar, _, f0 = engine().families(R)
            shared(lambda R: engine().families(R), R)
            shared(lambda R: engine().family_sums(R), R)
            shared(lambda R: engine()._family_template(R), R)
            shared(lambda R: engine().family_walls(R), R)
            for S in product_between(R, top):
                for cov in (_sigma_full_cov, _sigma_hat_full_cov):
                    shared(lambda *a: engine()._lifted(*a), cov, R, S)
            for P in fbar:
                shared(lambda R, P: engine().rigid_span(R, P), R, P)
                shared(lambda R, P: engine().inversion_terms(R, P), R, P)
                for basis in (engine().z_basis_product(R), engine().rigid_span(R, P)):
                    shared(lambda *a: engine().inversion_walls(*a), R, P, basis)
                assert parabolic_minus(P, datum) is parabolic_minus(P, datum)
            for P in f0:
                for T in above(P):
                    shared(lambda P, T: engine().sigma_descent_cov(P, T), P, T)


def test_families_structure():
    eng = DescentEngine(2, frozenset(), ((1, 2),))
    for R in enumerate_product_parabolics(eng):
        fbar, fib, f0 = eng.families(R)
        assert set(map(id, f0)) <= set(map(id, fib))
        for P in fib:
            assert P in fbar
        # the fiber over the full product contains the full group
        if R == product_full(eng):
            assert any(P.is_group() for P in fib)


def test_gtilde_is_freed_after_a_suite(monkeypatch):
    """The covector caches are keyed on parabolics alone, so a suite's
    GTilde goes away with the suite."""
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


def test_sigma_hat_expansion_fails_at_a_known_n3_point():
    """A guard on a known failure of the expansion at n = 3: the two sides
    differ at this wall-generic point.  Pinned so that any change to it
    shows; it is to be updated once the failure is understood."""
    P = ParabolicSubspace(3, ({2}, {0, 2, 3}))
    assert GTilde(3).sigma_hat_expansion(P, [-12, 1, 11, -10], [-14, -39, 53, 35]) == (0, -1)


def test_descent_suite_small():
    rep = descent_suite(2, seed=11, samples=6)
    assert not rep["failures"], rep["failures"][:2]


def _sample_calls(monkeypatch):
    """Wrap `suites._Run.sample`, the program's only rejection loop: the
    returned list gets [target, values yielded] for each call."""
    calls, original = [], suites._Run.sample

    def sample(self, draw, target, tries, per=1):
        call = [target, 0]
        calls.append(call)
        for x in original(self, draw, target, tries, per):
            call[1] += 1
            yield x

    monkeypatch.setattr(suites._Run, "sample", sample)
    return calls


def test_descent_suite_draws_reach_every_target(monkeypatch):
    """No sampler of the n = 3 descent suite comes back short.  The
    fiber-inversion wall filter must pair the hat covectors with the domain
    in ambient coordinates: read on the minus coordinates, covectors that
    vanish on the whole domain pass as live, and 20 domains got no draw."""
    calls = _sample_calls(monkeypatch)
    rep = descent_suite(3, seed=0, samples=1)
    assert not rep["failures"] and rep["instances"] == 10465
    # every draw goes through the patched sampler, and none comes back short
    assert calls and all(got == target for target, got in calls)


def test_fl_check_draws_reach_every_target(monkeypatch):
    """The n = 2 comparison draws its points through the same sampler, and
    criterion 10's run gets all 20."""
    calls = _sample_calls(monkeypatch)
    rep = fl_check(2, PLocalContext(3), 2, seed=110, samples=20)
    assert rep["pass"] == "20/20"
    assert calls == [[20, 20]]


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


def ref_all_pos(covs, H):
    """The sign test as a loop over the entries, skipping zero entries."""
    for cov in covs:
        s = 0
        for c, h in zip(cov, H):
            if c:
                s += c * h
        if not (s > 0):
            return 0
    return 1


def ref_nonzero(covs, points):
    for cov in covs:
        for H in points:
            if not sum(c * h for c, h in zip(cov, H) if c):
                return False
    return True


def ref_signed_count(terms, point):
    return sum(sign for sign, covs in terms if ref_all_pos(covs, point))


def test_sign_kernel_matches_the_entry_loops():
    """_all_pos, _nonzero and signed_count agree with the entry loops on
    every cone term list at n <= 2, read at int and Fraction points with
    many zero entries."""
    rng = random.Random(5)
    for n in (1, 2):
        N, G = n + 1, full_group(n)
        lists = []
        for P in enumerate_parabolic_subspaces(n):
            lists += [(terms, 2 * N) for terms in cones.expansion_terms(P)]
            lists += [(cones.kernel_terms(P, *covs), 2 * N)
                      for covs in ((cones._tau_hat_cov, cones._tau_cov),
                                   (_sigma_hat_cov, _sigma_cov))]
            lists += [(cones.langlands_terms(P, Q), N) for Q in above(P)]
            lists += [(((1, _sigma_hat_full_cov(P, G)),), N)]
        for terms, width in lists:
            for _ in range(6):
                ints = [rng.randint(-2, 2) for _ in range(width)]
                fracs = [F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(width)]
                for point in (ints, fracs):
                    assert signed_count(terms, point) == ref_signed_count(terms, point)
                    for _, covs in terms:
                        assert _all_pos(covs, point) == ref_all_pos(covs, point)
                        assert _nonzero(covs, [point]) == ref_nonzero(covs, [point])


WIDTHS = [(0, 0), (-1, 0), (0, 5), (-4, 4), (-15, 15), (-20, 20), (-25, 25),
          (-30, 30), (-40, 40), (0, 63), (0, 64)]


def test_ints_is_the_randint_stream():
    """suites._ints(rng, lo, hi, k) returns what k calls of rng.randint(lo, hi)
    would, interleaved with plain randint calls, and leaves the generator in
    the same state."""
    for seed in range(200):
        fast, slow = random.Random(seed), random.Random(seed)
        for i, (lo, hi) in enumerate(WIDTHS):
            k = (seed + i) % 8
            assert suites._ints(fast, lo, hi, k) == [slow.randint(lo, hi) for _ in range(k)]
            assert fast.randint(lo, hi) == slow.randint(lo, hi)
        assert fast.getstate() == slow.getstate()
    with pytest.raises(ValueError):
        suites._ints(random.Random(0), 1, 0, 1)


def _on_wall(rng, c, N):
    """A random int point on the hyperplane where the integer covector c
    vanishes (any point for the zero covector)."""
    H = [rng.randint(-9, 9) for _ in range(N)]
    i = next((i for i, x in enumerate(c) if x), None)
    if i is not None:
        v = sum(a * h for a, h in zip(c, H))
        H = [c[i] * h for h in H]
        H[i] -= v
    return H


def _slope(c):
    """The hyperplane of c as c over its first non-zero entry."""
    first = next((x for x in c if x), 1)
    return tuple(F(x, first) for x in c)


def assert_filters_as(walls, raw, N, rng):
    """walls lists each hyperplane of the raw covectors once, as a primitive
    covector with a positive first non-zero entry, and rejects exactly the
    points that raw rejects: random points and points on each raw wall."""
    raw = [tuple(c) for c in raw]
    assert type(walls) is tuple and all(type(c) is tuple for c in walls)
    assert len(set(map(_slope, walls))) == len(walls)
    assert set(map(_slope, walls)) == set(map(_slope, raw))
    for c in walls:
        if any(c):
            assert gcd(*c) == 1 and next(x for x in c if x) > 0
    points = [[rng.randint(-9, 9) for _ in range(N)] for _ in range(4)]
    points += [_on_wall(rng, c, N) for c in raw]
    for H in points:
        assert _nonzero(walls, [H]) == ref_nonzero(raw, [H])


def test_cached_wall_filters_reject_what_their_covectors_reject():
    rng = random.Random(2)
    for n in (1, 2):
        N, G = n + 1, full_group(n)
        ps = enumerate_parabolic_subspaces(n)
        four = lambda P, Q: (cones._tau_cov(P, Q) + cones._tau_hat_cov(P, Q)
                             + _sigma_cov(P, Q) + _sigma_hat_cov(P, Q))
        for P in ps:
            assert_filters_as(cones.kernel_walls(P),
                              [c for R in above(P) for c in four(P, R) + four(R, G)], N, rng)
            for Q in above(P):
                assert GTilde(n).wall_covectors(P, Q) is cones.wall_hyperplanes(P, Q)
                assert_filters_as(cones.wall_hyperplanes(P, Q), four(P, Q), N, rng)
                assert_filters_as(cones.langlands_walls(P, Q),
                                  [c for S in between(P, Q) for c in four(P, S) + four(S, Q)],
                                  N, rng)
        for eng in descent_data(n):
            for R in enumerate_product_parabolics(eng):
                closure, closed_cone, fiber, _ = eng.family_sums(R)
                walls = eng.family_walls(R)
                read = lambda terms: [c for _, covs in terms for c in covs]
                assert_filters_as(walls[0], read(closure) + read(closed_cone), N, rng)
                assert_filters_as(walls[1], read(fiber), N, rng)
                for P in eng.families(R)[0]:
                    for basis in (eng.z_basis_product(R), eng.rigid_span(R, P)):
                        live = [c for c in read(eng.inversion_terms(R, P))
                                if any(ref_nonzero([c], [b]) for b in basis)]
                        assert_filters_as(eng.inversion_walls(R, P, basis), live, N, rng)


# ---------------------------------------------------------------------------
# the signed sums as evaluated before the term lists, one indicator at a
# time for each sample: the references for the cached builders


def ref_kernel(P, H, X, outer, inner):
    """The sum over R above P of eps(R, G) * outer(R, G, H - X) *
    inner(P, R, H), shared by the truncation kernels."""
    G = full_group(P.n)
    HX = [a - b for a, b in zip(H, X)]
    return sum(epsilon_sign(R, G) * outer(R, G, HX) * inner(P, R, H) for R in above(P))


def ref_langlands_sum(g, Q, P, H):
    return sum(epsilon_sign(Q, S) * g.sigma(Q, S, H) * g.sigma_hat(S, P, H)
               for S in between(Q, P))


def ref_gamma_prime(g, P, H, X):
    return ref_kernel(P, H, X, g.tau_hat, g.tau)


def ref_b_function(g, P, H, X):
    return ref_kernel(P, H, X, g.sigma_hat, g.sigma)


def ref_sigma_hat_expansion(g, P, H, X):
    lhs = g.sigma_hat(P, full_group(P.n), [a - b for a, b in zip(H, X)])
    rhs = ref_kernel(P, H, X, lambda R, G, HX: ref_b_function(g, R, H, X), g.sigma_hat)
    return lhs, rhs


def ref_to_factor(eng, H, k):
    """A point on the minus coordinates restricted to the k-th factor."""
    lut = dict(zip(eng.minus, H))
    return [lut[c] for c in eng.parts[k]] + [0]


def ref_to_minus(eng, vectors, *Rs):
    """vectors(*factors) for every factor of the product parabolics Rs,
    placed on the minus coordinates (the distinguished-line entries
    dropped): a second coordinate system, independent of the engine's
    ambient placement."""
    out = []
    for k, fs in enumerate(zip(*(R.factors for R in Rs))):
        pos = [eng.minus.index(c) for c in eng.parts[k]]
        for vec in vectors(*fs):
            v = [0] * len(eng.minus)
            for i, x in zip(pos, vec):
                v[i] = x
            out.append(v)
    return out


def ref_z_basis_minus(eng, P):
    """z_basis(P) restricted to the minus coordinates (its entries
    elsewhere vanish for P above the distinguished Levi)."""
    return [[b[c - 1] for c in eng.minus] for b in z_basis(P)]


def ref_product(eng, cov, R, S, H):
    """The product over the factors of the indicators of the covectors
    cov(r, s) at H, on the minus coordinates."""
    out = 1
    for k, (a, b) in enumerate(zip(R.factors, S.factors)):
        out *= _all_pos(cov(a, b), ref_to_factor(eng, H, k))
    return out


def ref_closure_family(eng, R, H):
    G = full_group(eng.n)
    Ha = eng.to_ambient(H)
    raw = [[-x for x in c] for c in ref_to_minus(eng, pi_hat_raw, R)]
    return (sum(epsilon_sign(P, G) * GTilde(G.n).sigma_hat(P, G, Ha) for P in eng.families(R)[0]),
            _all_pos(raw, H))


def ref_fiber_family(eng, R, H):
    G, top = full_group(eng.n), product_full(eng)
    Ha = eng.to_ambient(H)
    return (sum(epsilon_sign(P, G) * GTilde(G.n).sigma_hat(P, G, Ha) for P in eng.families(R)[1]),
            epsilon_sign(R, top) * ref_product(eng, _sigma_hat_full_cov, R, top, H))


def ref_inversion(eng, R, P, X):
    Xa = eng.to_ambient(X)
    return sum(epsilon_sign(Q, P) * ref_product(eng, _sigma_cov, R, parabolic_minus(Q, eng), X)
               * GTilde(P.n).sigma_hat(Q, P, Xa) for Q in eng.families(R)[0] if Q.le(P))


def _points(rng, N, count=3):
    """Seeded integer points, half of them from a small box, where they
    often lie on a wall."""
    return [[rng.randint(-r, r) for _ in range(N)] for r in (2, 30) for _ in range(count)]


@pytest.mark.parametrize("n", (1, 2, 3))
def test_cone_term_lists_match_the_per_sample_sums(n):
    """Every parabolic and every pair at n, at seeded points on and off the
    walls: the cached term lists give the per-sample sums."""
    rng = random.Random(70 + n)
    g = GTilde(n)
    ps = enumerate_parabolic_subspaces(n)
    for P in ps:
        for Q in ps:
            if Q.le(P):
                for H in _points(rng, n + 1, 1):
                    assert (signed_count(cones.langlands_terms(Q, P), H)
                            == ref_langlands_sum(g, Q, P, H))
        for H, X in zip(_points(rng, n + 1), _points(rng, n + 1)):
            assert g.gamma_prime(P, H, X) == ref_gamma_prime(g, P, H, X)
            assert g.b_function(P, H, X) == ref_b_function(g, P, H, X)
            assert g.sigma_hat_expansion(P, H, X) == ref_sigma_hat_expansion(g, P, H, X)


@pytest.mark.parametrize("n", (1, 2, 3))
def test_descent_term_lists_match_the_per_sample_sums(n):
    """Every descent family at n, at seeded points on and off the walls:
    the closure-family, fiber-family and fiber-inversion term lists, read
    at the ambient image of the sample, give the per-sample sums."""
    rng = random.Random(80 + n)
    families = 0
    for eng in descent_data(n):
        for R in enumerate_product_parabolics(eng):
            families += 1
            for H in _points(rng, len(eng.minus), 2):
                Ha = eng.to_ambient(H)
                sides = tuple(signed_count(side, Ha) for side in eng.family_sums(R))
                assert sides == ref_closure_family(eng, R, H) + ref_fiber_family(eng, R, H)
                for P in eng.families(R)[0]:
                    assert (signed_count(eng.inversion_terms(R, P), Ha)
                            == ref_inversion(eng, R, P, H))
    assert families == {1: 3, 2: 28, 3: 267}[n]


def ref_b_function_descent(eng, P, H, X):
    """Ambient kernel in the descent realization."""
    g = GTilde(eng.n)
    return ref_kernel(P, H, X, g.sigma_hat,
                      lambda P, T, H: _all_pos(eng.sigma_descent_cov(P, T), H))


def ref_b_family(eng, R, H, points):
    """The family kernel: double alternating sum over the product groups
    above R and the fiber members of each, with the family's points
    shifting the hat arguments; H lives on the minus coordinates."""
    G = full_group(eng.n)
    Ha = eng.to_ambient(H)
    total = 0
    for T in product_between(R, product_full(eng)):
        sig = ref_product(eng, _sigma_full_cov, R, T, H)
        if not sig:
            continue
        _, fibT, _ = eng.families(T)
        inner = 0
        for Q in fibT:
            arg = [a - b for a, b in zip(Ha, points[Q])]
            inner += epsilon_sign(Q, G) * GTilde(eng.n).sigma_hat(Q, G, arg)
        total += sig * inner
    return total


def ref_wall_filter(eng, R, H, points):
    """The family checks' wall filter at H, one covector family at a time."""
    G, top = full_group(eng.n), product_full(eng)
    fbar, _, f0 = eng.families(R)
    Ha = eng.to_ambient(H)
    shifted = {Q: la.vec_sub(Ha, points[Q]) for Q in fbar}
    product_covs = [(k, _sigma_full_cov(sf, tf) + _sigma_hat_full_cov(sf, tf))
                    for S in product_between(R, top) for T in product_between(S, top)
                    for k, (sf, tf) in enumerate(zip(S.factors, T.factors))]
    return (all(_nonzero(_sigma_hat_cov(Q, G), [shifted[Q]]) for Q in fbar)
            and all(_nonzero(eng.sigma_descent_cov(P, T), [Ha])
                    and _nonzero(_sigma_hat_cov(T, G), [shifted[P]])
                    for P in f0 for T in above(P))
            and all(_nonzero(covs, [ref_to_factor(eng, H, k)]) for k, covs in product_covs))


def ref_orth_positive_family(rng, eng, R, f0):
    """The orthogonal-positive family on Fraction points."""
    N = eng.n + 1
    blocksets = {tuple(sorted(tuple(sorted(b)) for b in P.blocks())) for P in f0}
    if len(blocksets) != 1:
        return None
    blocks = [frozenset(b) for b in next(iter(blocksets))]
    c = {(i, j): rng.randint(0, 5)
         for i in range(len(blocks)) for j in range(i + 1, len(blocks))}
    base = {frozenset(b): rng.randint(-4, 4) for b in blocks}
    fam = {}
    for P in f0:
        order = [frozenset(b) for b in P.blocks()]
        v = [0] * N
        for b in order:
            for l in b:
                v[coordinate(l, N)] += base[b]
        for x, y in itertools.combinations(order, 2):
            bx, by = blocks.index(x), blocks.index(y)
            w = c[min(bx, by), max(bx, by)] * (1 if bx < by else -1)
            for l in x:
                v[coordinate(l, N)] += F(w, len(x))
            for l in y:
                v[coordinate(l, N)] -= F(w, len(y))
        fam[P] = v
    return fam


def ref_intersect_span(A, B):
    """Basis of span(A) intersect span(B), on Fraction vectors."""
    if not A or not B:
        return []
    rel = la.nullspace([list(col) for col in zip(*(A + B))])
    basis = []
    for t in rel:
        v = la.vec_mat(t[:len(A)], A)
        if any(v) and not la.in_span(basis, v):
            basis.append(v)
    return basis


def ref_point(fam, Q, N):
    """Y_Q: the Fraction block averages of a rigid member's point inside Q."""
    Y = next(Y for P, Y in fam.items() if P.le(Q))
    out = [0] * N
    for b in Q.blocks():
        idx = [coordinate(l, N) for l in b]
        for i in idx:
            out[i] = F(sum(Y[j] for j in idx), len(idx))
    return out


@pytest.mark.parametrize("n", (1, 2, 3))
def test_family_plan_matches_the_fraction_kernels(n):
    """Every family of descent_data(n), at seeded points on and off the
    walls: the plan's integer terms at (D H, 1) give the Fraction kernels
    at H."""
    rng = random.Random(60 + n)
    N = n + 1
    s = projection_scale(N)
    families = 0
    for eng in descent_data(n):
        G, top = full_group(n), product_full(eng)
        for R in enumerate_product_parabolics(eng):
            fbar, fib, f0 = eng.families(R)
            state = rng.getstate()
            fam = suites._orth_positive_family(rng, eng, R, f0) if f0 else None
            if fam is None:
                continue
            families += 1
            twin = random.Random()
            twin.setstate(state)
            ref = ref_orth_positive_family(twin, eng, R, f0)
            assert fam == {P: [s * y for y in Y] for P, Y in ref.items()}
            assert all(type(y) is int for Y in fam.values() for y in Y)
            ys = {Q: ref_point(ref, Q, N) for Q in fbar}
            scaled = {Q: project_family([Y for P, Y in fam.items() if P.le(Q)],
                                        [[coordinate(l, N) for l in b] for b in Q.blocks()], s)
                      for Q in fbar}
            assert all(type(y) is int for Y in scaled.values() for y in Y)
            assert all([F(y, s * s) for y in scaled[Q]] == ys[Q] for Q in fbar)
            walls, fiber, resummed, kernel, split = eng.family_plan(R, scaled)
            # the covectors the terms read include every product sigma-hat
            # covector above R, which the filter therefore need not add
            assert {cones._at_shift(c) for S in product_between(R, top)
                    for T in product_between(S, top)
                    for c in eng._lifted(_sigma_hat_full_cov, S, T)} <= set(walls)
            zR = ref_to_minus(eng, z_basis, R)
            for k in range(4):
                H = ([rng.randint(-3, 3) for _ in eng.minus] if k % 2 else
                     suites._sample_span(rng, zR, len(eng.minus), -3, 3))
                Ha = eng.to_ambient(H)
                HD = [s * s * x for x in Ha] + [1]
                assert signed_count(fiber, HD) == sum(
                    epsilon_sign(P, G) * GTilde(n).sigma_hat(P, G, la.vec_sub(Ha, ys[P])) for P in fib)
                assert signed_count(resummed, HD) == sum(
                    epsilon_sign(R, S) * ref_product(eng, _sigma_hat_full_cov, R, S, H)
                    * ref_b_family(eng, S, H, ys)
                    for S in product_between(R, top))
                assert signed_count(kernel, HD) == ref_b_family(eng, R, H, ys)
                assert signed_count(split, HD) == sum(
                    ref_b_function_descent(eng, P, Ha, ys[P]) for P in f0)
                assert _nonzero(walls, [HD]) == ref_wall_filter(eng, R, H, ys)
    assert families == {1: 3, 2: 28, 3: 267}[n]


def test_in_z_span_decides_span_membership():
    rng = random.Random(7)
    for n in (1, 2, 3):
        for eng in descent_data(n):
            for P in eng.families(enumerate_product_parabolics(eng)[0])[0]:
                zP = z_basis(P)
                for k in range(6):
                    X = (suites._sample_span(rng, zP, n + 1, -3, 3) if k % 2
                         else [rng.randint(-2, 2) for _ in range(n + 1)])
                    assert cones.in_z_span(P, X) == la.in_span(zP, X)


def test_rigid_domains_are_the_fraction_bases_as_integer_vectors():
    """The rigid span, read on the minus coordinates, is the Fraction
    intersection of the bases placed there by the reference."""
    for n in (1, 2, 3):
        for eng in descent_data(n):
            for R in enumerate_product_parabolics(eng):
                zR = ref_to_minus(eng, z_basis, R)
                for P in eng.families(R)[0]:
                    basis = eng.rigid_span(R, P)
                    on_minus = [[v[c - 1] for c in eng.minus] for v in basis]
                    assert all(type(x) is int for v in basis for x in v)
                    assert [eng.to_ambient(v) for v in on_minus] == [list(v) for v in basis]
                    assert on_minus == ref_intersect_span(ref_z_basis_minus(eng, P), zR)


# ---------------------------------------------------------------------------
# the factorwise image and the rigid fiber as computed before the engine's
# bases moved to the ambient space: references for the chain cut and the
# span rule


def ref_parabolic_minus(Q, datum):
    """Per-factor flags by intersecting Q's full base flag with the
    factor's lines, dropping repeats, with the induced pointer couple."""
    ws, i0, j0 = Q.vflag_ij()
    factors = []
    for coords in datum.parts:
        seen, index_of = [], {}
        for k, w in enumerate(ws):
            cut = frozenset(set(w) & set(coords))
            if not seen or cut != seen[-1]:
                seen.append(cut)
            index_of[k] = len(seen) - 1
        flag = [cones._relabel(m, coords) for m in seen]
        factors.append(ParabolicSubspace.from_vflag(flag, index_of[i0], index_of[j0],
                                                    len(coords)))
    return cones.ProductParabolic(tuple(factors))


def ref_same_space(A, B):
    """Whether the independent sets A and B span one space, by ranks."""
    if len(A) != len(B):
        return False
    return not A or la.rank(A) == la.rank(A + B) == la.rank(B)


def test_parabolic_minus_matches_the_flag_route():
    cases = 0
    for n in (1, 2, 3):
        for datum in descent_data(n):
            for P in enumerate_parabolic_subspaces(n, levi_blocks=datum.m1_blocks()):
                cases += 1
                assert parabolic_minus(P, datum) == ref_parabolic_minus(P, datum)
    assert cases == 422


def test_rigid_fiber_members_are_where_the_centers_span_one_space():
    members = rigid = 0
    for n in (1, 2, 3):
        for eng in descent_data(n):
            for R in enumerate_product_parabolics(eng):
                _, fib, f0 = eng.families(R)
                zR = ref_to_minus(eng, z_basis, R)
                for P in fib:
                    same = ref_same_space(ref_z_basis_minus(eng, P), zR)
                    assert (P in f0) == same
                    members += 1
                    rigid += same
    assert (members, rigid) == (422, 360)
