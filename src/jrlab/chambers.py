"""The chamber complex of the full diagonal torus in GL(m): chambers are
coordinate orderings (permutations), walks through adjacent chambers,
distances, convex families, and the two sum formulas for convex families
with orthogonal-positive point assignments.

A chamber is a permutation of (1..m) read as the decreasing order of
coordinates: perm = (a, b, c) is the open cone H_a > H_b > H_c.  A root is
an ordered pair (a, b) standing for the functional H_a - H_b.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Chamber:
    perm: tuple

    def __post_init__(self):
        object.__setattr__(self, "perm", tuple(self.perm))
        if sorted(self.perm) != list(range(1, len(self.perm) + 1)):
            raise ValueError("chamber must be a permutation of 1..m")

    @property
    def m(self) -> int:
        return len(self.perm)

    def position(self, a: int) -> int:
        return self.perm.index(a)

    def positive_roots(self):
        """Sigma(P): the pairs (a, b) with a before b."""
        return {(self.perm[i], self.perm[j])
                for i in range(self.m) for j in range(i + 1, self.m)}

    def simple_roots(self):
        """Delta_P: adjacent pairs in the order."""
        return [(self.perm[i], self.perm[i + 1]) for i in range(self.m - 1)]

    def opposite(self) -> "Chamber":
        return Chamber(tuple(reversed(self.perm)))


def all_chambers(m: int):
    return [Chamber(p) for p in itertools.permutations(range(1, m + 1))]


def sigma_set(P2: Chamber, P1: Chamber):
    """Sigma(P2|P1): roots positive for P1 and negative for P2."""
    return P1.positive_roots() - P2.positive_roots()


def distance(P2: Chamber, P1: Chamber) -> int:
    return len(sigma_set(P2, P1))


def neighbours(P: Chamber):
    out = []
    for i in range(P.m - 1):
        q = list(P.perm)
        q[i], q[i + 1] = q[i + 1], q[i]
        out.append(Chamber(tuple(q)))
    return out


def minimal_galleries(P1: Chamber, P2: Chamber, guard: int = 5):
    """All galleries from P1 to P2 of minimal length (depth-first over
    distance-decreasing steps)."""
    if P1.m > guard:
        raise ValueError(f"gallery enumeration guard exceeded: m={P1.m} > {guard}")
    if P1 == P2:
        return [[P1]]
    out = []
    d = distance(P2, P1)
    for Q in neighbours(P1):
        if distance(P2, Q) == d - 1:
            for tail in minimal_galleries(Q, P2, guard):
                out.append([P1] + tail)
    return out


def gallery_walls(gallery):
    """The roots crossed along a gallery, as the set {alpha_i} with
    Sigma(P_{i+1}|P_i) = {alpha_i}."""
    walls = []
    for A, B in zip(gallery, gallery[1:]):
        s = sigma_set(B, A)
        if len(s) != 1:
            raise ValueError("consecutive chambers are not adjacent")
        walls.append(next(iter(s)))
    return walls


# Largest rank at which convexity is enumerated (all minimal galleries
# between all pairs of members).
CONVEXITY_MAX_RANK = 4


def is_convex(S, guard: int = CONVEXITY_MAX_RANK) -> bool:
    """Every minimal gallery between members stays inside."""
    S = list(S)
    if S and S[0].m > guard:
        raise ValueError(f"convexity guard exceeded: m={S[0].m} > {guard}")
    inside = set(S)
    for P in S:
        for Q in S:
            for gal in minimal_galleries(P, Q):
                if any(c not in inside for c in gal):
                    return False
    return True


def h_plus(alpha, m: int):
    """All chambers with alpha positive."""
    return [P for P in all_chambers(m) if alpha in P.positive_roots()]


def keycoxeter_step(P: Chamber, P1: Chamber, P2: Chamber) -> int:
    """The distance step d(P2,P) - d(P1,P) for P2 adjacent to P1: -1 when the
    crossed wall separates P from P1, +1 otherwise."""
    s = sigma_set(P2, P1)
    if len(s) != 1:
        raise ValueError("chambers are not adjacent")
    alpha = next(iter(s))
    return -1 if alpha in sigma_set(P, P1) else 1


def langlands_type_rep(S, P: Chamber, Q) -> Chamber:
    """The unique member of the convex family S contained in the standard
    parabolic above Q whose relative simple roots are positive for P.

    Q is given as an ordered set partition (tuple of tuples)."""
    S = list(S)
    if P not in S:
        raise ValueError("base chamber must belong to the family")
    blocks = [tuple(b) for b in Q]
    members = [C for C in S if chamber_in_parabolic(C, blocks)]
    if not members:
        raise ValueError("no member of the family lies below the parabolic")
    found = []
    pos = P.positive_roots()
    for C in members:
        rel = [ab for ab in C.simple_roots() if _same_block(ab, blocks)]
        if all(ab in pos for ab in rel):
            found.append(C)
    if len(found) != 1:
        raise AssertionError(f"expected a unique representative, got {len(found)}")
    return found[0]


def _same_block(ab, blocks) -> bool:
    a, b = ab
    return any(a in blk and b in blk for blk in blocks)


def chamber_in_parabolic(C: Chamber, blocks) -> bool:
    """Whether the chamber's order refines the ordered block partition."""
    order = []
    for blk in blocks:
        order += sorted(blk, key=C.position)
    if sorted(set(sum((tuple(b) for b in blocks), ()))) != list(range(1, C.m + 1)):
        raise ValueError("blocks must partition 1..m")
    return tuple(order) == C.perm


def all_parabolics(m: int):
    """Ordered set partitions of 1..m."""
    def parts(items):
        if not items:
            yield []
            return
        for k in range(1, len(items) + 1):
            for blk in itertools.combinations(items, k):
                remaining = [x for x in items if x not in blk]
                for tail in parts(remaining):
                    yield [blk] + tail
    return [tuple(p) for p in parts(list(range(1, m + 1)))]


def epsilon_parabolic(blocks, m: int) -> int:
    """(-1)^(corank of the split center against the full group)."""
    return -1 if (len(blocks) - 1) % 2 else 1


# ---------------------------------------------------------------------------
# covectors and the psi sums


def root_covector(ab, m: int):
    a, b = ab
    v = [Fraction(0)] * m
    v[a - 1] = Fraction(1)
    v[b - 1] = Fraction(-1)
    return v


def coroot(ab, m: int):
    return root_covector(ab, m)


def weight_covectors(blocks, m: int):
    """Delta-hat of an ordered set partition: recentred prefix indicators."""
    out = []
    prefix = []
    for blk in blocks[:-1]:
        prefix += list(blk)
        v = [Fraction(1) if i + 1 in prefix else Fraction(0) for i in range(m)]
        f = Fraction(len(prefix), m)
        out.append([a - f for a in v])
    return out


def tau_hat(blocks, H, m: int) -> int:
    for w in weight_covectors(blocks, m):
        if not (sum(a * Fraction(h) for a, h in zip(w, H)) > 0):
            return 0
    return 1


def chamber_weights(C: Chamber):
    """Delta-hat of the chamber (full flag)."""
    blocks = tuple((x,) for x in C.perm)
    return weight_covectors(blocks, C.m)


def project_parabolic(blocks, Y, m: int):
    """Orthogonal projection onto the split-center space of an ordered set
    partition: blockwise averages."""
    out = [Fraction(0)] * m
    for blk in blocks:
        avg = sum(Fraction(Y[x - 1]) for x in blk) / len(blk)
        for x in blk:
            out[x - 1] = avg
    return out


# ---------------------------------------------------------------------------
# orthogonal-positive families


def random_orthogonal_positive(seed: int, m: int):
    """Seeded random orthogonal-positive family (pairwise nonnegative weights
    plus a constant), with the adjacency condition asserted."""
    import random
    fam = pairwise_orthogonal_positive(m, random.Random(seed))
    if not check_orthogonal_positive(fam):
        raise AssertionError("family fails the adjacency condition")
    return fam


def pairwise_orthogonal_positive(m: int, rng, bound: int = 6):
    """Family built from nonnegative weights per unordered coordinate pair:
    Y_P = sum over (a before b in P) of c_{ab} (e_a - e_b), plus a constant;
    adjacent differences are then nonnegative multiples of the crossed
    coroot by construction."""
    c = {}
    for a in range(1, m + 1):
        for b in range(a + 1, m + 1):
            c[(a, b)] = Fraction(rng.randint(0, bound))
    const = [Fraction(rng.randint(-bound, bound)) for _ in range(m)]
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
    chambers = list(fam)
    m = chambers[0].m
    for P1 in chambers:
        for P2 in neighbours(P1):
            if P2 not in fam:
                continue
            s = sigma_set(P2, P1)
            (alpha,) = tuple(s)
            diff = [Fraction(a) - Fraction(b) for a, b in zip(fam[P1], fam[P2])]
            cv = coroot(alpha, m)
            vals = {d / c for d, c in zip(diff, cv) if c != 0}
            if len(vals) != 1:
                return False
            r = vals.pop()
            if r < 0:
                return False
            if any(c == 0 and d != 0 for d, c in zip(diff, cv)):
                return False
    return True


def family_projection(fam, blocks, m: int):
    """Y_Q for a parabolic above some member chamber: blockwise average of
    any contained chamber's point (independence asserted)."""
    vals = []
    for P, Y in fam.items():
        if chamber_in_parabolic(P, blocks):
            vals.append(tuple(project_parabolic(blocks, Y, m)))
    if not vals:
        raise ValueError("no chamber of the family below this parabolic")
    if len(set(vals)) != 1:
        raise AssertionError("projection depends on the chamber")
    return list(vals[0])


# ---------------------------------------------------------------------------
# psi sums


def psi_geometric(S, H, fam, m: int) -> int:
    """Sum over parabolics above some member: sign times the weight cone
    indicator at H - Y_Q."""
    total = 0
    for blocks in all_parabolics(m):
        if not any(chamber_in_parabolic(P, blocks) for P in S):
            continue
        YQ = family_projection(fam, blocks, m)
        arg = [Fraction(h) - y for h, y in zip(H, YQ)]
        total += epsilon_parabolic(blocks, m) * tau_hat(blocks, arg, m)
    return total


def epsilon_lambda(P: Chamber, Lam) -> int:
    neg = 0
    for ab in P.simple_roots():
        cv = coroot(ab, P.m)
        if sum(Fraction(l) * c for l, c in zip(Lam, cv)) <= 0:
            neg += 1
    return -1 if neg % 2 else 1


def phi(P: Chamber, Lam, H) -> int:
    """Mixed cone indicator: weights positive where Lambda is nonpositive on
    the coroot, nonpositive where Lambda is positive."""
    weights = chamber_weights(P)
    for ab, w in zip(P.simple_roots(), weights):
        cv = coroot(ab, P.m)
        lam_val = sum(Fraction(l) * c for l, c in zip(Lam, cv))
        wv = sum(a * Fraction(h) for a, h in zip(w, H))
        if lam_val <= 0:
            if not (wv > 0):
                return 0
        else:
            if not (wv <= 0):
                return 0
    return 1


def psi_analytic(S, Lam, H, fam) -> int:
    total = 0
    for P in S:
        arg = [Fraction(h) - y for h, y in zip(H, fam[P])]
        total += epsilon_lambda(P, Lam) * phi(P, Lam, arg)
    return total


def in_positive_dual_cone(Lam, P: Chamber) -> bool:
    for ab in P.simple_roots():
        cv = coroot(ab, P.m)
        if not (sum(Fraction(l) * c for l, c in zip(Lam, cv)) > 0):
            return False
    return True
