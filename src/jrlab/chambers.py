"""The chamber complex of the full diagonal torus in GL(m): chambers are
coordinate orderings (permutations), walks through adjacent chambers,
distances, convex families, and the two sum formulas for convex families
with orthogonal-positive point assignments.

A chamber is a permutation of (1..m) read as the decreasing order of
coordinates: perm = (a, b, c) is the open cone H_a > H_b > H_c.  A root is
an ordered pair (a, b) standing for the functional H_a - H_b, one bit of
`root_bits(m)`: a chamber's root sets are integer masks, so distances,
gallery steps and convexity are ANDs and popcounts.

Parabolics are `cones.ParabolicSubspace`s at n = m - 1, chamber label m read
as the distinguished label `E0`; both sit at vector index m - 1, so
covectors keep their coordinates.  A chamber's full flag is `flag(perm)`,
and the parabolics above it are `cones.above` of that flag.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .cones import (E0, ParabolicSubspace, _all_pos, _at_shift, _tau_hat_cov, above,
                    epsilon_sign, full_group, signed_count)


# Largest rank whose chambers are built: the table of rank m holds m! of them.
CHAMBER_MAX_RANK = 6


class Chamber:
    """A chamber of rank m: `perm`, its `rank` (rank[a - 1] is the position
    of coordinate a in the order), `adj` (adj[i] is the chamber across the
    pair at positions i, i + 1, whose root bit is cuts[i]) and `pos` (the
    bits of its positive roots, the pairs (a, b) with a before b).  There is
    one object per permutation, made once in its rank's table: Chamber(perm)
    returns it, so chambers compare and hash by identity."""
    __slots__ = ("perm", "rank", "adj", "pos", "cuts")

    def __new__(cls, perm):
        perm = tuple(perm)
        try:
            return _table(len(perm))[perm]
        except (KeyError, TypeError):
            raise ValueError("chamber must be a permutation of 1..m") from None

    def __repr__(self):
        return f"Chamber(perm={self.perm!r})"

    @property
    def m(self) -> int:
        return len(self.perm)

    def simple_roots(self):
        """Delta_P: adjacent pairs in the order."""
        return [(self.perm[i], self.perm[i + 1]) for i in range(self.m - 1)]

    def opposite(self) -> "Chamber":
        return Chamber(self.perm[::-1])


@functools.cache
def root_bits(m: int):
    """root -> bit for the ordered roots (a, b), a != b, in lexicographic order."""
    return {r: 1 << i for i, r in enumerate(itertools.permutations(range(1, m + 1), 2))}


@functools.cache
def _table(m: int):
    """perm -> chamber for every permutation of 1..m, in lexicographic
    order: the one place chambers are made."""
    if m > CHAMBER_MAX_RANK:
        raise ValueError(f"chamber table guard exceeded: m={m} > {CHAMBER_MAX_RANK}")
    table, bits = {}, root_bits(m)
    for p in itertools.permutations(range(1, m + 1)):
        C = table[p] = object.__new__(Chamber)
        C.perm, C.rank = p, tuple(map(p.index, range(1, m + 1)))
        C.pos = sum(bits[r] for r in itertools.combinations(p, 2))
        C.cuts = tuple(map(bits.__getitem__, zip(p, p[1:])))
    for p, C in table.items():
        C.adj = tuple(table[p[:i] + (p[i + 1], p[i]) + p[i + 2:]] for i in range(m - 1))
    return table


@functools.cache
def all_chambers(m: int):
    """The m! chambers of rank m in lexicographic order (a shared tuple)."""
    return tuple(_table(m).values())


@functools.cache
def flag(perm: tuple) -> ParabolicSubspace:
    """The full flag of the chamber with this permutation: the prefixes of
    its order, label m read as E0."""
    lab = [E0 if a == len(perm) else a for a in perm]
    return ParabolicSubspace(len(lab) - 1, tuple(frozenset(lab[:k]) for k in range(1, len(lab))))


@functools.cache
def labels(Q: ParabolicSubspace):
    """Q's ordered blocks in chamber labels (E0 read as m), each sorted."""
    return tuple(tuple(sorted(Q.n + 1 if a == E0 else a for a in b)) for b in Q.blocks())


def sigma_set(P2: Chamber, P1: Chamber):
    """Sigma(P2|P1): roots positive for P1 and negative for P2, i.e. the
    pairs in P1's order that P2 reverses (the mask P1.pos & ~P2.pos)."""
    mask = P1.pos & ~P2.pos
    return {r for r, bit in root_bits(P1.m).items() if mask & bit}


def distance(P2: Chamber, P1: Chamber) -> int:
    """|Sigma(P2|P1)|: the popcount of P1's positive roots that P2 lacks."""
    return (P1.pos & ~P2.pos).bit_count()


def _steps(P: Chamber, Q: Chamber):
    """The neighbours of P one step closer to Q: those across a cut whose
    root Q reverses (its bit is not in Q.pos)."""
    return [C for C, w in zip(P.adj, P.cuts) if not w & Q.pos]


def wall(P1: Chamber, P2: Chamber):
    """The root crossed from P1 into the adjacent chamber P2, the one member
    of Sigma(P2|P1): P1's pair at the position across which P2 lies."""
    if P2 not in P1.adj:
        raise ValueError("chambers are not adjacent")
    i = P1.adj.index(P2)
    return P1.perm[i], P1.perm[i + 1]


# Largest rank at which minimal galleries are enumerated.
GALLERY_MAX_RANK = 5


def minimal_galleries(P1: Chamber, P2: Chamber):
    """All galleries from P1 to P2 of minimal length (depth-first over the
    steps towards P2, in neighbour order)."""
    if P1.m > GALLERY_MAX_RANK:
        raise ValueError(f"gallery enumeration guard exceeded: m={P1.m} > {GALLERY_MAX_RANK}")

    def walk(P):
        steps = _steps(P, P2)
        return [[P] + tail for Q in steps for tail in walk(Q)] if steps else [[P]]
    return walk(P1)


def gallery_steps(P2: Chamber, order):
    """Each chamber P1 of `order`, which lists chambers by distance to P2,
    with its steps towards P2 and g(P1), the number of minimal galleries
    from P1 to P2: g(P2) = 1, and g(P1) is the sum of g(Q) over the steps Q,
    which lie one closer to P2 and so come earlier in `order`."""
    g, out = {}, []
    for P1 in order:
        steps = _steps(P1, P2)
        g[P1] = 1 if P1 == P2 else sum(g[Q] for Q in steps)
        out.append((P1, steps, g[P1]))
    return out


def gallery_walls(gallery):
    """The roots crossed along a gallery, as the set {alpha_i} with
    Sigma(P_{i+1}|P_i) = {alpha_i}."""
    return [wall(A, B) for A, B in zip(gallery, gallery[1:])]


# Largest rank at which convexity is checked, and so the largest rank of the
# chambers suite, whose distance and gallery tables grow as (m!)^2.
CONVEXITY_MAX_RANK = 5


def is_convex(S) -> bool:
    """Every minimal gallery between members stays inside.  The chambers on
    the minimal galleries from members into a member Q form the closure of
    S under steps towards Q, which stays in S exactly when every single
    step from a member towards Q lands in S: every cut leading out of S
    has its root in `common`, the roots positive for every member."""
    S = list(S)
    if S and S[0].m > CONVEXITY_MAX_RANK:
        raise ValueError(f"convexity guard exceeded: m={S[0].m} > {CONVEXITY_MAX_RANK}")
    inside, common = set(S), functools.reduce(int.__and__, (Q.pos for Q in S), -1)
    return all(w & common for P in S for C, w in zip(P.adj, P.cuts) if C not in inside)


def h_plus(alpha, m: int):
    """All chambers with alpha positive."""
    a, b = alpha
    return [P for P in all_chambers(m) if P.rank[a - 1] < P.rank[b - 1]]


def keycoxeter_step(P: Chamber, P1: Chamber, P2: Chamber) -> int:
    """The distance step d(P2,P) - d(P1,P) for P2 adjacent to P1: -1 when the
    crossed wall (P1's cut towards P2) is negative for P, +1 otherwise."""
    if P2 not in P1.adj:
        raise ValueError("chambers are not adjacent")
    return 1 if P1.cuts[P1.adj.index(P2)] & P.pos else -1


def _check_rank(Q: ParabolicSubspace, C: Chamber):
    """The cone type holds parabolics of every rank: Q's must be C's."""
    if Q.n + 1 != C.m:
        raise ValueError(f"parabolic of rank {Q.n + 1} against chambers of rank {C.m}")


def langlands_type_rep(S, P: Chamber, Q: ParabolicSubspace) -> Chamber:
    """The unique member of the convex family S contained in the standard
    parabolic above Q whose relative simple roots are positive for P: the
    simple roots at the cuts of its flag that are not members of Q's."""
    S = list(S)
    if P not in S:
        raise ValueError("base chamber must belong to the family")
    members = [C for C in S if chamber_in_parabolic(C, Q)]
    if not members:
        raise ValueError("no member of the family lies below the parabolic")
    kept = set(Q.chain)
    found = [C for C in members
             if all(P.rank[a - 1] < P.rank[b - 1] for (a, b), cut in
                    zip(C.simple_roots(), flag(C.perm).chain) if cut not in kept)]
    if len(found) != 1:
        raise AssertionError(f"expected a unique representative, got {len(found)}")
    return found[0]


def chamber_in_parabolic(C: Chamber, Q: ParabolicSubspace) -> bool:
    """Whether the chamber's flag refines Q: its order cut into Q's blocks."""
    _check_rank(Q, C)
    return flag(C.perm).le(Q)


def parabolics_above(S):
    """The parabolic subspaces above some chamber of S: the cached
    `cones.above` intervals of their flags, in S order, each listed once."""
    return list(dict.fromkeys(Q for C in S for Q in above(flag(C.perm))))


# ---------------------------------------------------------------------------
# block projections


def projection_scale(m: int) -> int:
    """lcm(1..m): a multiple of every block size, so scale times a block
    average of integers is an integer."""
    return math.lcm(*range(1, m + 1))


def project_family(points, index_blocks, scale: int):
    """scale times the orthogonal projection onto the split-center space of
    an ordered set partition, given as blocks of vector positions: block
    sums times scale / |block| (scale must be a multiple of every block
    size).  Every point must project to one vector, which is returned (None
    when there are no points)."""
    if any(scale % len(idx) for idx in index_blocks):
        raise ValueError("scale must be a multiple of every block size")
    vals = set()
    for Y in points:
        out = [0] * len(Y)
        for idx in index_blocks:
            avg = sum(Y[i] for i in idx) * (scale // len(idx))
            for i in idx:
                out[i] = avg
        vals.add(tuple(out))
    if len(vals) > 1:
        raise AssertionError("family projection depends on the member")
    return list(vals.pop()) if vals else None


# ---------------------------------------------------------------------------
# orthogonal-positive families


def pairwise_orthogonal_positive(m: int, rng):
    """Family built from nonnegative weights per unordered coordinate pair:
    Y_P = sum over (a before b in P) of c_{ab} (e_a - e_b), plus a constant;
    adjacent differences are then nonnegative multiples of the crossed
    coroot by construction."""
    c = {}
    for a in range(1, m + 1):
        for b in range(a + 1, m + 1):
            c[(a, b)] = rng.randint(0, 6)
    const = [rng.randint(-6, 6) for _ in range(m)]
    fam = {}
    for P in all_chambers(m):
        v = list(const)
        for i in range(m):
            for j in range(i + 1, m):
                a, b = P.perm[i], P.perm[j]
                w = c[(min(a, b), max(a, b))]
                v[a - 1] += w
                v[b - 1] -= w
        fam[P] = v
    return fam


def weyl_orbit_family(m: int, T):
    """Arthur-style family: the dominant vector rearranged by each chamber's
    order (T must be weakly decreasing)."""
    T = [Fraction(x) for x in T]
    if any(a < b for a, b in zip(T, T[1:])):
        raise ValueError("T must be weakly decreasing")
    fam = {}
    for P in all_chambers(m):
        v = [Fraction(0)] * m
        for pos, a in enumerate(P.perm):
            v[a - 1] = T[pos]
        fam[P] = v
    return fam


def check_orthogonal_positive(fam) -> bool:
    for P1 in fam:
        for P2 in P1.adj:
            if P2 not in fam:
                continue
            a, b = wall(P1, P2)
            # the difference must be a nonnegative multiple of e_a - e_b
            diff = [x - y for x, y in zip(fam[P1], fam[P2])]
            r = diff[a - 1]
            if r < 0 or diff[b - 1] != -r or any(
                    d for i, d in enumerate(diff) if i not in (a - 1, b - 1)):
                return False
    return True


@functools.cache
def _below(Q: ParabolicSubspace):
    """The chambers below Q: the products of its blocks' orderings."""
    return tuple(Chamber(sum(orders, ())) for orders in
                 itertools.product(*(itertools.permutations(blk) for blk in labels(Q))))


def family_projection(fam, Q: ParabolicSubspace):
    """D Y_Q, D = projection_scale(m), for a parabolic above some member
    chamber: blockwise average of any contained chamber's point
    (independence asserted), an integer vector for an integer family."""
    if fam:
        _check_rank(Q, next(iter(fam)))
    m, blocks = Q.n + 1, labels(Q)
    YQ = project_family([Y for C in _below(Q) if (Y := fam.get(C)) is not None],
                        [[x - 1 for x in blk] for blk in blocks], projection_scale(m))
    if YQ is None:
        raise ValueError("no chamber of the family below this parabolic")
    return YQ


# ---------------------------------------------------------------------------
# psi sums


def psi_geometric(projections, H) -> int:
    """Sum over the parabolics Q above some member of a family: sign times
    the weight cone indicator at H - Y_Q, one `signed_count` at the affine
    point (D H, 1) with each covector shifted by D Y_Q.  `projections` maps
    each such Q to D Y_Q (`family_projection`)."""
    m = len(H)
    G = full_group(m - 1)
    terms = [(epsilon_sign(Q, G), [_at_shift(c, YD) for c in _tau_hat_cov(Q, G)])
             for Q, YD in projections.items()]
    return signed_count(terms, [projection_scale(m) * h for h in H] + [1])


def epsilon_lambda(P: Chamber, Lam) -> int:
    neg = sum(1 for a, b in P.simple_roots() if Lam[a - 1] - Lam[b - 1] <= 0)
    return -1 if neg % 2 else 1


def phi(P: Chamber, Lam, H) -> int:
    """Mixed cone indicator: weights positive where Lambda is nonpositive on
    the coroot, nonpositive where Lambda is positive."""
    weights = _tau_hat_cov(flag(P.perm), full_group(P.m - 1))
    for (a, b), w in zip(P.simple_roots(), weights):
        if _all_pos([w], H) != (Lam[a - 1] - Lam[b - 1] <= 0):
            return 0
    return 1


def psi_analytic(S, Lam, H, fam) -> int:
    total = 0
    for P in S:
        arg = [h - y for h, y in zip(H, fam[P])]
        total += epsilon_lambda(P, Lam) * phi(P, Lam, arg)
    return total


def in_positive_dual_cone(Lam, P: Chamber) -> bool:
    return all(Lam[a - 1] - Lam[b - 1] > 0 for a, b in P.simple_roots())
