import functools
import itertools
import random
import time
from collections import deque
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from jrlab.chambers import (CHAMBER_MAX_RANK, Chamber, _table, all_chambers,
                            chamber_in_parabolic, check_orthogonal_positive, distance,
                            epsilon_lambda, family_projection, flag, gallery_steps,
                            gallery_walls, h_plus, in_positive_dual_cone,
                            is_convex, keycoxeter_step, labels, langlands_type_rep,
                            minimal_galleries, pairwise_orthogonal_positive,
                            parabolics_above, phi, project_family, projection_scale, psi_analytic,
                            psi_geometric, root_bits, sigma_set, weyl_orbit_family)
from jrlab.cones import (E0, ParabolicSubspace, _all_pos, _tau_hat_cov, above,
                         enumerate_parabolic_subspaces, epsilon_sign, full_group)
from jrlab.suites import chambers_suite


# ---------------------------------------------------------------------------
# brute-force references: root sets, distance-recomputing galleries, every
# gallery between every pair, scans over all chambers or parabolics, the
# earlier root-set walls and Fraction-point psi sum, and the chamber layer's
# own ordered set partitions, signs and weights from before it used the cone
# layer's parabolic type


def _positive_roots(P):
    return {(P.perm[i], P.perm[j]) for i in range(P.m) for j in range(i + 1, P.m)}


def ref_sigma_set(P2, P1):
    return _positive_roots(P1) - _positive_roots(P2)


def ref_distance(P2, P1):
    return len(ref_sigma_set(P2, P1))


def ref_minimal_galleries(P1, P2):
    if P1 == P2:
        return [[P1]]
    out = []
    d = ref_distance(P2, P1)
    for Q in P1.adj:
        if ref_distance(P2, Q) == d - 1:
            for tail in ref_minimal_galleries(Q, P2):
                out.append([P1] + tail)
    return out


def ref_is_convex(S):
    S = list(S)
    inside = set(S)
    for P in S:
        for Q in S:
            for gal in ref_minimal_galleries(P, Q):
                if any(c not in inside for c in gal):
                    return False
    return True


def ref_chamber_in_parabolic(C, blocks):
    order = []
    for blk in blocks:
        order += sorted(blk, key=C.perm.index)
    if sorted(set(sum((tuple(b) for b in blocks), ()))) != list(range(1, C.m + 1)):
        raise ValueError("blocks must partition 1..m")
    return tuple(order) == C.perm


@functools.cache
def ref_all_parabolics(m):
    """Ordered set partitions of 1..m, each block sorted."""
    def parts(items):
        if not items:
            yield []
            return
        for k in range(1, len(items) + 1):
            for blk in itertools.combinations(items, k):
                remaining = [x for x in items if x not in blk]
                for tail in parts(remaining):
                    yield [blk] + tail
    return tuple(tuple(p) for p in parts(list(range(1, m + 1))))


def ref_coarsenings(C):
    """The 2^(m-1) ordered set partitions above C: its order cut into
    consecutive blocks, each block sorted."""
    p = C.perm
    out = set()
    for mask in range(2 ** (len(p) - 1)):
        cuts = [0] + [i + 1 for i in range(len(p) - 1) if mask >> i & 1] + [len(p)]
        out.add(tuple(tuple(sorted(p[i:j])) for i, j in zip(cuts, cuts[1:])))
    return out


def ref_epsilon_parabolic(blocks, m):
    """(-1)^(corank of the split center against the full group)."""
    return -1 if (len(blocks) - 1) % 2 else 1


def ref_weight_covectors(blocks, m):
    """Delta-hat of an ordered set partition: recentred prefix indicators,
    scaled by m to integer covectors."""
    out = []
    prefix = set()
    for blk in blocks[:-1]:
        prefix |= set(blk)
        out.append([m * (i + 1 in prefix) - len(prefix) for i in range(m)])
    return out


def cone(blocks):
    """The parabolic subspace of an ordered set partition of 1..m: the
    chain of its block prefixes, label m read as E0."""
    m = sum(map(len, blocks))
    prefixes = itertools.accumulate((frozenset(E0 if a == m else a for a in b)
                                     for b in blocks[:-1]), frozenset.union)
    return ParabolicSubspace(m - 1, tuple(prefixes))


def ref_parabolics_above(S, m):
    return [b for b in ref_all_parabolics(m) if any(ref_chamber_in_parabolic(P, b) for P in S)]


def assert_lists_parabolics_above(S, m):
    """parabolics_above(S) lists the reference's partitions once each, in
    S order: by the first member of S below them."""
    got = [labels(Q) for Q in parabolics_above(S)]
    assert sorted(got) == sorted(ref_parabolics_above(S, m)) and len(set(got)) == len(got)
    first = [next(i for i, C in enumerate(S) if ref_chamber_in_parabolic(C, b)) for b in got]
    assert first == sorted(first)


def ref_family_projection(fam, blocks, m):
    YQ = project_family([Y for P, Y in fam.items() if ref_chamber_in_parabolic(P, blocks)],
                        [[x - 1 for x in blk] for blk in blocks], projection_scale(m))
    if YQ is None:
        raise ValueError("no chamber of the family below this parabolic")
    return YQ


def ref_gallery_walls(gallery):
    """Sigma(P_{i+1}|P_i) = {alpha_i} read off the root sets."""
    walls = []
    for A, B in zip(gallery, gallery[1:]):
        s = sigma_set(B, A)
        if len(s) != 1:
            raise ValueError("consecutive chambers are not adjacent")
        walls.append(next(iter(s)))
    return walls


def ref_keycoxeter_step(P, P1, P2):
    s = sigma_set(P2, P1)
    if len(s) != 1:
        raise ValueError("chambers are not adjacent")
    return -1 if next(iter(s)) in sigma_set(P, P1) else 1


def tau_hat(blocks, H, m):
    return _all_pos(ref_weight_covectors(blocks, m), H)


def ref_psi_geometric(S, H, fam, m):
    """The psi sum at H - Y_Q, Y_Q the Fraction block averages of the point
    of a member below Q."""
    total = 0
    for blocks in ref_parabolics_above(S, m):
        Y = fam[next(P for P in S if ref_chamber_in_parabolic(P, blocks))]
        YQ = [F(sum(Y[b - 1] for b in blk), len(blk)) for blk in blocks for a in blk]
        order = [a for blk in blocks for a in blk]
        arg = [H[a - 1] - YQ[order.index(a)] for a in range(1, m + 1)]
        total += ref_epsilon_parabolic(blocks, m) * tau_hat(blocks, arg, m)
    return total


def _projections(S, fam):
    return {Q: family_projection(fam, Q) for Q in parabolics_above(S)}


def _cut(perm, cuts):
    """The ordered set partition cutting perm before the given positions."""
    ends = [0] + sorted(cuts) + [len(perm)]
    return tuple(tuple(sorted(perm[i:j])) for i, j in zip(ends, ends[1:]))


@pytest.mark.parametrize("m", (2, 3, 4))
def test_rank_predicates_match_references_on_all_pairs(m):
    for P1 in all_chambers(m):
        for P2 in all_chambers(m):
            assert sigma_set(P2, P1) == ref_sigma_set(P2, P1)
            assert distance(P2, P1) == ref_distance(P2, P1)
            assert minimal_galleries(P1, P2) == ref_minimal_galleries(P1, P2)


def test_rank_predicates_match_references_at_rank_5():
    """Every pair for the root sets and distances; the galleries from three
    chambers (relabelling coordinates moves any chamber to any other and
    keeps galleries)."""
    chambers = all_chambers(5)
    for P1 in chambers:
        for P2 in chambers:
            assert sigma_set(P2, P1) == ref_sigma_set(P2, P1)
            assert distance(P2, P1) == ref_distance(P2, P1)
    for P1 in (chambers[0], chambers[57], chambers[-1]):
        for P2 in chambers:
            assert minimal_galleries(P1, P2) == ref_minimal_galleries(P1, P2)


@pytest.mark.parametrize("m", (2, 3, 4, 5, 6))
def test_root_masks_agree_with_the_ranks(m):
    """pos holds the bit of (a, b) exactly when a comes before b, and cuts[i]
    is the bit of the pair at positions i, i + 1; the m(m - 1) ordered roots
    have distinct single bits."""
    bits = root_bits(m)
    assert sorted(bits) == [(a, b) for a in range(1, m + 1) for b in range(1, m + 1) if a != b]
    assert sorted(bits.values()) == [1 << i for i in range(m * (m - 1))]
    for C in all_chambers(m):
        assert all(bool(C.pos & bit) == (C.rank[a - 1] < C.rank[b - 1])
                   for (a, b), bit in bits.items())
        assert C.cuts == tuple(bits[C.perm[i], C.perm[i + 1]] for i in range(m - 1))


@pytest.mark.parametrize("m", (2, 3, 4, 5))
def test_swapped_chambers_equal_the_validated_ones(m):
    for C in all_chambers(m):
        assert C.rank == tuple(sorted(range(m), key=C.perm.__getitem__))
        assert len(C.adj) == m - 1
        for i in range(m - 1):
            q = list(C.perm)
            q[i], q[i + 1] = q[i + 1], q[i]
            assert C.adj[i] is Chamber(q) and C.adj[i].perm == tuple(q)


def test_one_chamber_object_per_permutation():
    """The suite's draws read chambers in `all_chambers` order, which is
    lexicographic; ranks above the guard are refused before any table is
    built."""
    for m in range(CHAMBER_MAX_RANK + 1):
        chambers = all_chambers(m)
        assert [C.perm for C in chambers] == list(itertools.permutations(range(1, m + 1)))
        assert all(Chamber(C.perm) is C is Chamber(list(C.perm)) for C in chambers)
    assert repr(Chamber([2, 1])) == "Chamber(perm=(2, 1))"
    for bad in ((1, 1), (0, 1), (2, 3), (1, 2, 4), ([1], [2])):
        with pytest.raises(ValueError, match="permutation"):
            Chamber(bad)
    built = _table.cache_info().currsize
    for m in (CHAMBER_MAX_RANK + 1, 11):
        with pytest.raises(ValueError, match="guard"):
            Chamber(range(1, m + 1))
        with pytest.raises(ValueError, match="guard"):
            all_chambers(m)
    assert _table.cache_info().currsize == built


@pytest.mark.parametrize("m", (2, 3, 4))
def test_walls_match_the_root_set_reference(m):
    chambers = all_chambers(m)
    for P1 in chambers:
        for P2 in chambers:
            for gal in minimal_galleries(P1, P2):
                assert gallery_walls(gal) == ref_gallery_walls(gal)
            # any pair as a two-chamber gallery: adjacent or a raise
            try:
                want = ref_gallery_walls([P1, P2])
            except ValueError:
                with pytest.raises(ValueError, match="not adjacent"):
                    gallery_walls([P1, P2])
            else:
                assert gallery_walls([P1, P2]) == want
            for P in chambers[:6]:
                try:
                    want = ref_keycoxeter_step(P, P1, P2)
                except ValueError:
                    with pytest.raises(ValueError, match="not adjacent"):
                        keycoxeter_step(P, P1, P2)
                else:
                    assert keycoxeter_step(P, P1, P2) == want
    with pytest.raises(ValueError):
        gallery_walls([Chamber((1, 2)), Chamber((2, 1, 3))])


def test_flags_and_intervals_are_built_once_and_shared():
    C = Chamber((2, 4, 1, 3))
    full = flag(C.perm)
    assert full is flag((2, 4, 1, 3)) and full.n == 3
    assert full.chain == (frozenset({2}), frozenset({2, E0}), frozenset({1, 2, E0}))
    ups = above(full)
    assert ups is above(flag(C.perm)) and type(ups) is tuple and len(ups) == 8
    assert (ups[0], ups[-1]) == (full_group(3), full)
    assert parabolics_above([C, C]) == list(ups)
    assert all(labels(Q) is labels(Q) and type(labels(Q)) is tuple for Q in ups)
    assert labels(full) == ((2,), (4,), (1,), (3,)) and labels(ups[0]) == ((1, 2, 3, 4),)
    assert len(enumerate_parabolic_subspaces(3)) == 75
    assert len(enumerate_parabolic_subspaces(2)) == 13
    assert flag((1,)) == full_group(0) and labels(full_group(0)) == ((1,),)


def _positive_multiple(c, w):
    """Whether the integer row c is a positive rational multiple of w."""
    i = next(k for k, x in enumerate(w) if x)
    lam = F(c[i], w[i])
    return lam > 0 and list(c) == [lam * x for x in w]


@pytest.mark.parametrize("m, count", [(2, 3), (3, 13), (4, 75), (5, 541)])
def test_chamber_parabolics_are_the_cone_parabolics(m, count):
    """Label m read as E0, the ordered set partitions of 1..m are the cone
    layer's parabolic subspaces at n = m - 1 (632 at m = 2..5), the
    parabolics above a chamber are its coarsenings, and the cone layer's
    tau-hat covectors and signs are the chamber layer's earlier weights
    (up to a positive factor per row) and signs."""
    G, paras = full_group(m - 1), ref_all_parabolics(m)
    assert len(paras) == count
    subspaces = [cone(b) for b in paras]
    assert len(set(subspaces)) == count
    assert set(subspaces) == set(enumerate_parabolic_subspaces(m - 1))
    for b, Q in zip(paras, subspaces):
        assert labels(Q) == b
        assert epsilon_sign(Q, G) == ref_epsilon_parabolic(b, m)
        got, want = _tau_hat_cov(Q, G), ref_weight_covectors(b, m)
        assert len(got) == len(want)
        assert all(_positive_multiple(c, w) for c, w in zip(got, want))
    for C in all_chambers(m):
        ups = above(flag(C.perm))
        assert len(ups) == 2 ** (m - 1)
        assert {labels(Q) for Q in ups} == ref_coarsenings(C)


def test_parabolics_of_another_rank_are_refused():
    C = Chamber((2, 1, 3))
    fam = pairwise_orthogonal_positive(3, random.Random(7))
    for Q in (full_group(1), full_group(3), flag((2, 1)), flag((2, 1, 3, 4))):
        with pytest.raises(ValueError, match="rank"):
            chamber_in_parabolic(C, Q)
        with pytest.raises(ValueError, match="rank"):
            langlands_type_rep([C], C, Q)
        with pytest.raises(ValueError, match="rank"):
            family_projection(fam, Q)


@pytest.mark.parametrize("m", (2, 3, 4))
def test_parabolic_predicates_match_references(m):
    chambers, paras = all_chambers(m), ref_all_parabolics(m)
    for C in chambers:
        for b in paras:
            assert chamber_in_parabolic(C, cone(b)) == ref_chamber_in_parabolic(C, b)
        assert_lists_parabolics_above([C], m)
    rng = random.Random(40 + m)
    for _ in range(30):
        S = rng.sample(chambers, rng.randint(0, len(chambers)))
        assert_lists_parabolics_above(S, m)
        fam = pairwise_orthogonal_positive(m, rng)
        part = {P: fam[P] for P in S}
        for b in paras:
            Q = cone(b)
            assert family_projection(fam, Q) == ref_family_projection(fam, b, m)
            try:
                want = ref_family_projection(part, b, m)
            except ValueError:
                with pytest.raises(ValueError):
                    family_projection(part, Q)
            else:
                assert family_projection(part, Q) == want


def test_convexity_matches_reference():
    roots = [(a, b) for a in range(1, 5) for b in range(1, 5) if a != b]
    for alpha in roots:
        assert is_convex(h_plus(alpha, 4)) == ref_is_convex(h_plus(alpha, 4)) is True
    for alpha, beta in itertools.combinations(roots, 2):
        S = sorted(set(h_plus(alpha, 4)) & set(h_plus(beta, 4)), key=lambda c: c.perm)
        assert is_convex(S) == ref_is_convex(S) is True
    rng = random.Random(41)
    seen = set()
    for k in range(240):
        m = 3 + k % 2
        chambers = all_chambers(m)
        roots = [(a, b) for a in range(1, m + 1) for b in range(1, m + 1) if a != b]
        if k % 3 == 0:
            S = set(rng.sample(chambers, rng.randint(1, len(chambers))))
        else:
            S = set(chambers)
            for _ in range(rng.randint(0, 3)):
                S &= set(h_plus(rng.choice(roots), m))
            if k % 3 == 1:
                S ^= {rng.choice(chambers)}
        S = sorted(S, key=lambda c: c.perm)
        rng.shuffle(S)
        want = ref_is_convex(S)
        assert is_convex(S) == want
        seen.add(want)
    assert seen == {True, False}


def test_convexity_matches_reference_on_every_family_at_rank_3():
    chambers = all_chambers(3)
    verdicts = []
    for mask in range(2 ** len(chambers)):
        S = [C for i, C in enumerate(chambers) if mask >> i & 1]
        verdicts.append(is_convex(S))
        assert verdicts[-1] == ref_is_convex(S)
    assert len(verdicts) == 64 and True in verdicts and False in verdicts


_m = st.shared(st.integers(2, 6), key="m")
_perm = _m.flatmap(lambda m: st.permutations(range(1, m + 1))).map(Chamber)


def _inversions(P2, P1):
    """Pairs of coordinates the two orders put the other way round."""
    return sum((P1.perm.index(a) < P1.perm.index(b)) != (P2.perm.index(a) < P2.perm.index(b))
               for a, b in itertools.combinations(range(1, P1.m + 1), 2))


@settings(max_examples=300, deadline=None)
@given(_perm, _perm, _perm)
def test_distance_is_a_metric(P, P1, P2):
    m = P.m
    d = distance(P2, P1)
    assert d == distance(P1, P2) == len(sigma_set(P2, P1)) == _inversions(P2, P1)
    assert distance(P, P.opposite()) == m * (m - 1) // 2
    assert distance(P2, P) <= distance(P1, P) + d
    assert all(distance(Q, P) == 1 for Q in P.adj)


@settings(max_examples=300, deadline=None)
@given(_perm, _perm, st.data())
def test_chamber_in_parabolic_means_coarsening(C, Q, data):
    cuts = data.draw(st.sets(st.integers(1, C.m - 1))) if C.m > 1 else set()
    b = data.draw(st.one_of(st.just(_cut(Q.perm, cuts)),
                            st.sampled_from(ref_all_parabolics(C.m))))
    assert chamber_in_parabolic(Q, cone(_cut(Q.perm, cuts)))
    coarse = ref_coarsenings(C)
    assert chamber_in_parabolic(C, cone(b)) == (b in coarse)
    got = [labels(P) for P in parabolics_above([C])]
    assert sorted(got) == [p for p in sorted(ref_all_parabolics(C.m)) if p in coarse]


def test_sigma_set_and_distance():
    P = Chamber((1, 2, 3))
    assert sigma_set(P, P) == set() and distance(P, P) == 0
    Pop = P.opposite()
    assert len(sigma_set(Pop, P)) == 3 and distance(Pop, P) == 3
    Q = Chamber((2, 1, 3))
    assert sigma_set(Q, P) == {(1, 2)} and distance(Q, P) == 1


def test_minimal_galleries_counts():
    P = Chamber((1, 2, 3))
    assert len(minimal_galleries(P, Chamber((2, 1, 3)))) == 1
    # opposite chamber: one gallery per reduced word of the longest element
    assert len(minimal_galleries(P, P.opposite())) == 2
    for gal in minimal_galleries(P, P.opposite()):
        walls = gallery_walls(gal)
        assert set(walls) == sigma_set(P.opposite(), P)
        assert len(set(walls)) == len(walls)
    with pytest.raises(ValueError):
        minimal_galleries(Chamber(tuple(range(1, 7))), Chamber(tuple(range(1, 7))))


def _gallery_counts(P2):
    """g(P1) for every chamber P1, by the recursion towards P2."""
    order = sorted(all_chambers(P2.m), key=lambda P: distance(P2, P))
    return {P1: g for P1, _, g in gallery_steps(P2, order)}


@pytest.mark.parametrize("m", (1, 2, 3, 4))
def test_recursive_gallery_count_matches_the_listing(m):
    chambers = all_chambers(m)
    for P2 in chambers:
        counts = _gallery_counts(P2)
        assert list(counts) == sorted(chambers, key=lambda P: distance(P2, P))
        for P1, steps, g in gallery_steps(P2, list(counts)):
            galleries = minimal_galleries(P1, P2)
            # the steps are the second chambers of the listed galleries
            assert steps == list(dict.fromkeys(gal[1] for gal in galleries if len(gal) > 1))
            assert g == counts[P1] == len(galleries)


@pytest.mark.parametrize("m, count", [(3, 2), (4, 16), (5, 768), (6, 292_864)])
def test_galleries_to_the_opposite_chamber_are_stanleys_counts(m, count):
    """Minimal galleries from a chamber to its opposite are the reduced words
    of the longest element of S_m, counted by the standard Young tableaux of
    staircase shape (R. Stanley, Europ. J. Combin. 5, 1984).  At m = 6 the
    recursion alone counts them: listing is guarded above rank 5."""
    P = Chamber(tuple(range(1, m + 1)))
    assert _gallery_counts(P.opposite())[P] == count


def test_distance_equals_bfs_s4():
    chambers = all_chambers(4)
    count = 0
    for P1 in chambers:
        dist = {P1: 0}
        q = deque([P1])
        while q:
            u = q.popleft()
            for v in u.adj:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    q.append(v)
        for P2 in chambers:
            if P1 != P2:
                count += 1
                assert dist[P2] == distance(P2, P1)
    assert count == 552


def test_keycoxeter_exhaustive_s3():
    ch = all_chambers(3)
    for P in ch:
        for P1 in ch:
            for P2 in P1.adj:
                assert distance(P2, P) == distance(P1, P) + keycoxeter_step(P, P1, P2)


def test_halfspaces_convex_s4():
    roots = [(a, b) for a in range(1, 5) for b in range(1, 5) if a != b]
    assert len(roots) == 12
    for alpha in roots:
        assert is_convex(h_plus(alpha, 4))
    # intersections stay convex
    S = set(h_plus((1, 2), 4)) & set(h_plus((3, 4), 4))
    assert is_convex(sorted(S, key=lambda c: c.perm))


def test_nonconvex_counterexample():
    assert not is_convex([Chamber((1, 2, 3)), Chamber((3, 2, 1))])
    assert is_convex(all_chambers(3))
    assert is_convex([])


def test_langlands_type_rep():
    S = [Chamber((2, 1, 3))]
    assert langlands_type_rep(S, S[0], cone(((2, 1), (3,)))) == S[0]
    rng = random.Random(31)
    roots = [(a, b) for a in range(1, 5) for b in range(1, 5) if a != b]
    paras = ref_all_parabolics(4)
    done = 0
    while done < 40:
        S = set(all_chambers(4))
        for _ in range(rng.randint(0, 3)):
            S &= set(h_plus(rng.choice(roots), 4))
        S = sorted(S, key=lambda c: c.perm)
        if not S:
            continue
        P = rng.choice(S)
        Q = cone(rng.choice(paras))
        if not any(chamber_in_parabolic(C, Q) for C in S):
            continue
        P1 = langlands_type_rep(S, P, Q)
        assert P1 in S and chamber_in_parabolic(P1, Q)
        done += 1


def test_orthogonal_positive_families():
    rng = random.Random(32)
    for m in (3, 4):
        for _ in range(8):
            fam = pairwise_orthogonal_positive(m, rng)
            assert check_orthogonal_positive(fam)
        T = sorted([rng.randint(-4, 4) for _ in range(m)], reverse=True)
        assert check_orthogonal_positive(weyl_orbit_family(m, T))
        const = {P: [F(0)] * m for P in all_chambers(m)}
        assert check_orthogonal_positive(const)
    # projections independent of the member
    fam = pairwise_orthogonal_positive(3, rng)
    for blocks in ref_all_parabolics(3):
        family_projection(fam, cone(blocks))


def test_psi_identities():
    rng = random.Random(33)
    m = 3
    paras = ref_all_parabolics(m)
    roots = [(a, b) for a in range(1, 4) for b in range(1, 4) if a != b]

    def wall_ok(S, fam, H):
        for blocks in paras:
            Q = cone(blocks)
            if not any(chamber_in_parabolic(P, Q) for P in S):
                continue
            YQ = family_projection(fam, Q)
            arg = [projection_scale(m) * h - y for h, y in zip(H, YQ)]
            for w in ref_weight_covectors(blocks, m):
                if sum(a * x for a, x in zip(w, arg)) == 0:
                    return False
        return True

    done = 0
    while done < 120:
        S = set(all_chambers(m))
        for _ in range(rng.randint(0, 2)):
            S &= set(h_plus(rng.choice(roots), m))
        S = sorted(S, key=lambda c: c.perm)
        if not S:
            continue
        fam = pairwise_orthogonal_positive(m, rng)
        H = [rng.randint(-12, 12) for _ in range(m)]
        if not wall_ok(S, fam, H):
            continue
        P = rng.choice(S)
        Lam = [F(0)] * m
        base = sorted(rng.sample(range(1, 40), m), reverse=True)
        for pos, a in enumerate(P.perm):
            Lam[a - 1] = F(base[pos])
        assert in_positive_dual_cone(Lam, P)
        v1 = psi_geometric(_projections(S, fam), H)
        v2 = psi_analytic(S, Lam, H, fam)
        assert v1 == v2
        cond = all(sum(w0 * (F(h) - y) for w0, h, y in zip(w, H, fam[Pp])) <= 0
                   for Pp in S for w in ref_weight_covectors([(x,) for x in Pp.perm], m))
        assert (v1 == 1) == cond and v1 in (0, 1)
        done += 1


def test_psi_empty():
    fam = {P: [F(0)] * 3 for P in all_chambers(3)}
    assert psi_geometric(_projections([], fam), [F(1), F(2), F(0)]) == 0


@pytest.mark.parametrize("m", (2, 3, 4))
def test_psi_geometric_matches_the_fraction_reference(m):
    """On integer points scaled by lcm(1..m), walls included."""
    rng = random.Random(50 + m)
    chambers = all_chambers(m)
    for _ in range(60):
        S = rng.sample(chambers, rng.randint(0, len(chambers)))
        fam = pairwise_orthogonal_positive(m, rng)
        proj = _projections(S, fam)
        assert all(type(y) is int for Y in proj.values() for y in Y)
        assert list(proj) == parabolics_above(S)
        for _ in range(4):
            H = [rng.randint(-4, 4) for _ in range(m)]
            assert psi_geometric(proj, H) == ref_psi_geometric(S, H, fam, m)


def test_chambers_suite_s3():
    rep = chambers_suite(3, seed=2, families=40)
    assert not rep["failures"]


def test_chambers_suite_at_rank_5():
    t0 = time.time()
    rep = chambers_suite(5, seed=1, families=20)
    assert time.time() - t0 <= 10
    assert rep["failures"] == [] and rep["instances"] == 439_280


def test_chambers_suite_refuses_ranks_above_the_convexity_guard():
    with pytest.raises(ValueError, match="convexity guard"):
        chambers_suite(6, families=1)


def test_chamber_suite_filters_the_points_psi_reads(monkeypatch):
    """The psi draws' wall filter tests the points D H - D Y_Q at which
    psi_geometric reads its cones (its affine covectors, shifted by D Y_Q,
    at (D H, 1))."""
    from jrlab import chambers, suites
    seen, read, shifts = set(), set(), []
    nonzero, at_shift, count = suites._nonzero, chambers._at_shift, chambers.signed_count

    def recording_nonzero(covs, points):
        seen.update(tuple(p) for p in points)
        return nonzero(covs, points)

    def recording_at_shift(c, Y=()):
        shifts.append(Y)
        return at_shift(c, Y)

    def recording_signed_count(terms, point):
        read.update(tuple(h - y for h, y in zip(point, Y)) for Y in shifts)
        shifts.clear()
        return count(terms, point)

    monkeypatch.setattr(suites, "_nonzero", recording_nonzero)
    monkeypatch.setattr(chambers, "_at_shift", recording_at_shift)
    monkeypatch.setattr(chambers, "signed_count", recording_signed_count)
    chambers_suite(3, seed=1, families=20)
    assert read and read <= seen
