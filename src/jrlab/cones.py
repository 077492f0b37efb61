"""Cone combinatorics for the pair GL(n) inside GL(n+1).

A parabolic subspace is encoded by the chain of its proper nonzero flag
members inside the extended space; coordinates carry labels 1..n for the
base space and 0 for the distinguished line.  In vectors, label l sits at
index l-1 and label 0 at index n.  All weight covectors are realized as
integer vectors on the ambient space; characteristic functions use strict
inequalities throughout.

Every signed sum of cone indicators (the Langlands sum, the kernels Gamma'
and B, both sides of the sigma-hat expansion, the descent family
identities) is a cached list of terms (sign, covectors); the family
kernels shift theirs by each family's random points.  A check reads
all of a term's covectors at one integer point, and `signed_count` is the
one evaluator.  A covector c read at H - X is stored as (c, -c) on the
stacked point (H, X), and one read at H as (c, 0); one read at H - Y, for a
fixed Y, as the affine covector (c, -c.Y) on the point (H, 1).

A wall filter is the cached tuple of the distinct hyperplanes that a check's
covectors cut out (`_hyperplanes`); a sample must lie on none of them.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from . import linalg as la

E0 = 0   # label of the distinguished line


# ---------------------------------------------------------------------------
# parabolic subspaces


@dataclass(frozen=True)
class ParabolicSubspace:
    """Chain of proper nonzero coordinate subspaces of the extended space,
    increasing; the full group corresponds to the empty chain."""

    n: int
    chain: tuple          # tuple of frozensets over {0, 1..n}

    def __post_init__(self):
        ch = tuple(frozenset(m) for m in self.chain)
        object.__setattr__(self, "chain", ch)
        full = set(range(self.n + 1))
        prev: frozenset = frozenset()
        for m in ch:
            if not (prev < m) or not (set(m) < full):
                raise ValueError("chain must strictly increase through proper subsets")
            prev = m

    # -- flag presentations -------------------------------------------------

    def vflag_ij(self):
        """Full base-space flag [empty, W1, .., V] plus the couple (i, j)."""
        vset = frozenset(range(1, self.n + 1))
        free = [m for m in self.chain if E0 not in m]
        cut = [frozenset(m - {E0}) for m in self.chain if E0 in m]
        cut = cut + [vset]               # the implicit top member
        i = len(free)
        last_free = free[-1] if free else frozenset()
        if cut[0] == last_free:
            j = i
            vrest = cut[1:]
        else:
            j = i + 1
            vrest = cut
        ws = [frozenset()] + free + vrest
        return ws, i, j

    @staticmethod
    def from_vflag(ws, i: int, j: int, n: int) -> "ParabolicSubspace":
        """Rebuild the chain from a full base flag [empty, .., V] and (i, j)."""
        s = len(ws) - 1
        if not (0 <= j - i <= 1 and 0 <= i <= j <= s):
            raise ValueError("invalid flag pointers")
        full = frozenset(range(1, n + 1)) | {E0}
        members = []
        for k in range(1, i + 1):
            members.append(frozenset(ws[k]))
        for k in range(j, s + 1):
            m = frozenset(ws[k]) | {E0}
            if m != full:
                members.append(m)
        return ParabolicSubspace(n, tuple(members))

    # -- block structure ------------------------------------------------------

    def blocks(self):
        """Ordered quotient blocks of the extended chain (cover {0..n})."""
        full = frozenset(range(self.n + 1))
        out = []
        prev: frozenset = frozenset()
        for m in list(self.chain) + [full]:
            out.append(frozenset(m - prev))
            prev = m
        return out

    def e0_block(self):
        for b in self.blocks():
            if E0 in b:
                return b
        raise AssertionError("unreachable")

    def mblocks(self):
        return [b for b in self.blocks() if E0 not in b]

    def dim_z(self) -> int:
        return len(self.chain)

    # -- containment (as subgroups) ------------------------------------------

    def le(self, other: "ParabolicSubspace") -> bool:
        """self contained in other."""
        return set(other.chain) <= set(self.chain)

    def is_group(self) -> bool:
        return not self.chain


@functools.cache
def full_group(n: int) -> ParabolicSubspace:
    return ParabolicSubspace(n, ())


# Largest base dimension at which parabolic subspaces are enumerated (the
# chain count grows fast).
PARABOLIC_MAX_N = 4


def enumerate_parabolic_subspaces(n: int, levi_blocks=None):
    """All parabolic subspaces with coordinate flags; with `levi_blocks`
    (a partition of {0..n}) only the flags whose members are unions of the
    given blocks."""
    if n > PARABOLIC_MAX_N:
        raise ValueError(f"enumeration guard exceeded: n={n} > {PARABOLIC_MAX_N}")
    if levi_blocks is None:
        atoms = [frozenset([x]) for x in range(n + 1)]
    else:
        atoms = [frozenset(b) for b in levi_blocks]
        cover = set()
        for b in atoms:
            if cover & b:
                raise ValueError("levi blocks overlap")
            cover |= b
        if cover != set(range(n + 1)):
            raise ValueError("levi blocks must cover all coordinates")
    out = []

    def grow(chain, remaining):
        out.append(ParabolicSubspace(n, tuple(chain)))
        last = chain[-1] if chain else frozenset()
        for k in range(1, len(remaining)):
            for combo in itertools.combinations(remaining, k):
                add = frozenset().union(*combo)
                nxt = last | add
                rest = [a for a in remaining if a not in combo]
                grow(chain + [nxt], rest)

    grow([], atoms)
    return out


# The intervals are pure functions of frozen parabolics: each is built once
# and shared as a tuple, by this layer and by `chambers` (`above` of a flag).

@functools.cache
def between(P: ParabolicSubspace, Q: ParabolicSubspace):
    """All S with P contained in S contained in Q (as groups)."""
    if not P.le(Q):
        raise ValueError("containment violated")
    extra = [m for m in P.chain if m not in set(Q.chain)]
    base = set(Q.chain)
    return tuple(ParabolicSubspace(P.n, tuple(sorted(base | set(combo), key=len)))
                 for k in range(len(extra) + 1)
                 for combo in itertools.combinations(extra, k))


@functools.cache
def above(P: ParabolicSubspace):
    """All parabolic subspaces containing P."""
    return between(P, full_group(P.n))


def epsilon_sign(P, Q) -> int:
    """(-1)^(central split-torus dimension difference) for P contained in Q
    (parabolic subspaces or product parabolics)."""
    if not P.le(Q):
        raise ValueError("containment violated")
    return -1 if (P.dim_z() - Q.dim_z()) % 2 else 1


# ---------------------------------------------------------------------------
# ambient vectors and projections


def projections(H):
    """(r1 H, r2 H, r1^ H, r2^ H): the block projections relative to the two
    direct-sum decompositions of the ambient space.  r2 H is the constant
    vector through the last coordinate; r2^ H concentrates the coordinate sum
    on the distinguished line."""
    N = len(H)
    r2 = [H[N - 1]] * N
    r1 = [a - b for a, b in zip(H, r2)]
    r2h = [0] * (N - 1) + [sum(H)]
    r1h = [a - b for a, b in zip(H, r2h)]
    return r1, r2, r1h, r2h


def coordinate(label, N):
    """Vector index of a coordinate label: l - 1 for base labels, the last
    index for the distinguished line."""
    return N - 1 if label == E0 else label - 1


def _indicator(labels, N):
    v = [0] * N
    for l in labels:
        v[coordinate(l, N)] += 1
    return v


def _integer_basis(vectors):
    """(D * vectors, D) for D the lcm of the entries' denominators: a span
    sampled on the scaled vectors is the original span scaled by D."""
    D = lcm(*(x.denominator for v in vectors for x in v))
    return [tuple(int(x * D) for x in v) for v in vectors], D


def _scale_int(vec):
    """Clear denominators, keep the sign; returns a tuple of ints."""
    return _integer_basis([vec])[0][0]


def _pull_back(w, support):
    """The pullback w - w(e0) * 1_support, scaled to an integer covector."""
    c0 = w[-1]
    return _scale_int([a - c0 if i in support else a for i, a in enumerate(w)])


# The sign kernel: a covector's value at H is sum(map(mul, cov, H)).  Every
# covector is an integer vector, and points are ints (the suites scale their
# rational points where they are built; Fraction points work too).  A strict
# sign is invariant under positive scaling, so covectors are stored as ints.

def _all_pos(covs, H) -> int:
    """1 when every covector is strictly positive at H, else 0."""
    for cov in covs:
        if sum(map(mul, cov, H)) <= 0:
            return 0
    return 1


def _nonzero(covs, points) -> bool:
    """Whether no covector vanishes at any of the points."""
    for cov in covs:
        for H in points:
            if not sum(map(mul, cov, H)):
                return False
    return True


def signed_count(terms, point) -> int:
    """The sum of the signs of the terms (sign, covectors) whose covectors
    are all positive at the point: the one evaluator of a signed sum of
    cone indicators."""
    total = 0
    for sign, covs in terms:
        for cov in covs:
            if sum(map(mul, cov, point)) <= 0:
                break
        else:
            total += sign
    return total


def _hyperplanes(covs):
    """One primitive covector per hyperplane of the integer covectors (divided
    by its gcd, first non-zero entry positive), in order of first appearance:
    a covector vanishes where its primitive one does, so both filter alike."""
    out = {}
    for c in covs:
        g = gcd(*c)
        if g and next(x for x in c if x) < 0:
            g = -g
        out.setdefault(tuple(x // g for x in c) if g else tuple(c), None)
    return tuple(out)


def _read(terms):
    """Every covector the terms read."""
    return [c for _, covs in terms for c in covs]


def _stacked(covs, t):
    """Covectors read at H - t X (t = 1 or 0), on the stacked point (H, X)."""
    return tuple(c + tuple(-t * x for x in c) for c in covs)


def _at_shift(c, Y=()):
    """A covector read at H - Y (at H by default), on the affine point (H, 1)."""
    return (*c, -sum(a * y for a, y in zip(c, Y)))


# ---------------------------------------------------------------------------
# the root/weight machinery for one ambient space
#
# The weight sets and their integer covectors are pure functions of frozen
# parabolics: each is built once and shared as a tuple of tuples, as the
# intervals are.  The ambient dimension is read off P.n.


def z_basis(P: ParabolicSubspace):
    return [_indicator(b, P.n + 1) for b in P.mblocks()]


@functools.cache
def _z_groups(P: ParabolicSubspace):
    """The vector indices of P's distinguished block, then of each other block."""
    at = lambda block: tuple(coordinate(l, P.n + 1) for l in block)
    return at(P.e0_block()), tuple(map(at, P.mblocks()))


def in_z_span(P: ParabolicSubspace, X) -> bool:
    """Whether X lies in the span of z_basis(P), the indicators of P's
    blocks off the distinguished line: X is constant on each of those
    blocks and vanishes on the distinguished block."""
    e0, blocks = _z_groups(P)
    return not any(X[i] for i in e0) and all(X[i] == X[b[0]] for b in blocks for i in b)


def a_basis(P: ParabolicSubspace):
    return [_indicator(b, P.n + 1) for b in P.blocks()]


def z_rel_basis(P: ParabolicSubspace, Q: ParabolicSubspace):
    """Basis of the complement of z_Q inside z_P cut out by the raw
    Q-weights (P contained in Q)."""
    zb = z_basis(P)
    if not zb:
        return []
    rows = [[la.dot(d, z) for z in zb] for d in pi_hat_raw(Q)]
    out = [la.vec_mat(t, zb) for t in la.nullspace(rows)] if rows else zb
    assert len(out) == P.dim_z() - Q.dim_z()
    return out


@functools.cache
def pi_hat_raw(P: ParabolicSubspace):
    """Indicator-sum covectors: one per chain member (the flag-determinant
    weights), in chain order."""
    vset = set(range(1, P.n + 1))
    return tuple(tuple(-x for x in _indicator(vset - m, P.n + 1)) if E0 in m
                 else tuple(_indicator(m, P.n + 1)) for m in P.chain)


# -- classical root/weight sets for the extended group ------------------------


def _walls(P: ParabolicSubspace, Q: ParabolicSubspace):
    """(b1, b2, union of the blocks through b1, enclosing Q-block) for
    each pair of adjacent P-blocks lying in a common Q-block."""
    if not P.le(Q):
        raise ValueError("containment violated")
    blocks = P.blocks()
    prefix: frozenset = frozenset()
    for b1, b2 in zip(blocks, blocks[1:]):
        prefix = prefix | b1
        for qb in Q.blocks():
            if b1 <= qb and b2 <= qb:
                yield b1, b2, prefix, qb
                break


@functools.cache
def delta(P: ParabolicSubspace, Q: ParabolicSubspace):
    """Relative simple roots as centroid differences of adjacent blocks
    lying in a common coarse block."""
    return tuple(tuple(Fraction(x, len(b1)) - Fraction(y, len(b2))
                       for x, y in zip(_indicator(b1, P.n + 1), _indicator(b2, P.n + 1)))
                 for b1, b2, _, _ in _walls(P, Q))


@functools.cache
def delta_hat(P: ParabolicSubspace, Q: ParabolicSubspace):
    """Relative fundamental weights: prefix indicators recentred inside
    the enclosing coarse block."""
    return tuple(tuple(a - Fraction(len(prefix & qb), len(qb)) * x
                       for a, x in zip(_indicator(prefix & qb, P.n + 1),
                                       _indicator(qb, P.n + 1)))
                 for _, _, prefix, qb in _walls(P, Q))


# -- quotient-restricted representatives (for the duality statements) ---------


def _restrict_project(P, Q, raw_list):
    """Orthogonal projections onto the relative center space: the
    representative inside the subspace of the functional's restriction
    (independent of the chosen ambient covector)."""
    S = z_rel_basis(P, Q)
    if not S:
        return tuple((0,) * (P.n + 1) for _ in raw_list)
    Gm = [[la.dot(a, b) for b in S] for a in S]
    return tuple(tuple(la.vec_mat(la.solve(Gm, [la.dot(s, raw) for s in S]), S))
                 for raw in raw_list)


@functools.cache
def pi(P: ParabolicSubspace, Q: ParabolicSubspace):
    """Relative simple roots restricted to the center space (in-subspace
    representatives)."""
    return _restrict_project(P, Q, delta(P, Q))


@functools.cache
def pi_hat(P: ParabolicSubspace, Q: ParabolicSubspace):
    """Leftover flag weights restricted to the center space (in-subspace
    representatives)."""
    raw_q = set(pi_hat_raw(Q))
    return _restrict_project(P, Q, [v for v in pi_hat_raw(P) if v not in raw_q])


# -- integer covectors ---------------------------------------------------------
#
# Realization of the quotient weights as ambient covectors: the plain
# family drops the distinguished coordinate from the roots (the
# convention of setting the distinguished basis weight to zero), the hat
# family pulls the classical weights back through the projection that
# concentrates the coordinate sum on the distinguished line
# (w becomes w - w(e0) * (1,..,1)).  Under this pair the tau/sigma
# exchange relations hold at every ambient point, as does the
# Gamma'/B-kernel relation; the alternating-sum identities mixing the
# two families hold on their center-space domains and on the slice where
# the base-coordinate sums of the arguments vanish (where the two
# possible pullbacks of the roots agree).


@functools.cache
def _tau_cov(P, Q):
    return tuple(_pull_back(w, ()) for w in delta(P, Q))


@functools.cache
def _tau_hat_cov(P, Q):
    return tuple(_pull_back(w, ()) for w in delta_hat(P, Q))


@functools.cache
def _sigma_cov(P, Q):
    return tuple(_pull_back(w, {P.n}) for w in delta(P, Q))


@functools.cache
def _sigma_full_cov(P, Q):
    # roots pulled back through the second oblique projection (partner
    # of the full-correction hat realization in the dual alternating
    # sums)
    return tuple(_pull_back(w, range(P.n + 1)) for w in delta(P, Q))


@functools.cache
def _sigma_hat_cov(P, Q):
    # the correction spreads over the super group's distinguished block
    # only, so the covectors factor through the Levi decomposition of Q;
    # for the full group this is the all-ones correction.
    support = {coordinate(l, P.n + 1) for l in Q.e0_block()}
    return tuple(_pull_back(w, support) for w in delta_hat(P, Q))


@functools.cache
def _sigma_hat_full_cov(P, Q):
    # all-ones correction regardless of the pair: the pullback of the
    # relative weights through the second oblique projection of the
    # whole space (this is the realization entering the product-side
    # resummation identities).
    return tuple(_pull_back(w, range(P.n + 1)) for w in delta_hat(P, Q))


@functools.cache
def wall_hyperplanes(P: ParabolicSubspace, Q: ParabolicSubspace):
    """The hyperplanes of tau, tau^, sigma and sigma^ of (P, Q)."""
    return _hyperplanes(_tau_cov(P, Q) + _tau_hat_cov(P, Q) + _sigma_cov(P, Q)
                        + _sigma_hat_cov(P, Q))


@functools.cache
def langlands_walls(Q: ParabolicSubspace, P: ParabolicSubspace):
    """The Langlands filter: the hyperplanes of (Q, S) and (S, P), S between Q and P."""
    return _hyperplanes(c for S in between(Q, P)
                        for c in wall_hyperplanes(Q, S) + wall_hyperplanes(S, P))


@functools.cache
def kernel_walls(P: ParabolicSubspace):
    """The kernels' filter: the hyperplanes of (P, R) and (R, G) for R above P."""
    G = full_group(P.n)
    return _hyperplanes(c for R in above(P)
                        for c in wall_hyperplanes(P, R) + wall_hyperplanes(R, G))


# -- the alternating sums as term lists ----------------------------------------
#
# A product of indicators is one term, reading all their covectors.


@functools.cache
def langlands_terms(Q: ParabolicSubspace, P: ParabolicSubspace):
    """sign(Q, S) sigma_Q^S sigma^_S^P for S between Q and P, read at H."""
    return tuple((epsilon_sign(Q, S), _sigma_cov(Q, S) + _sigma_hat_cov(S, P))
                 for S in between(Q, P))


@functools.cache
def kernel_terms(P: ParabolicSubspace, outer, inner):
    """sign(R, G) outer(R, G) at H - X times inner(P, R) at H for R above P,
    read at (H, X): Arthur's truncation kernel Gamma' with the tau
    covectors (_tau_hat_cov, _tau_cov), its sigma-analog B with the sigma
    covectors.  The sign is the absolute one (split-center dimension of the
    summand against the full group); the relative sign printed in some
    sources differs by a global factor and breaks the expansion lemma."""
    G = full_group(P.n)
    return tuple((epsilon_sign(R, G),
                  _stacked(outer(R, G), 1) + _stacked(inner(P, R), 0))
                 for R in above(P))


@functools.cache
def expansion_terms(P: ParabolicSubspace):
    """Both sides of the expansion of sigma^_P(H - X) through the B kernels
    of the groups R above P (sign(R, G) B_R(H, X) sigma^_P^R(H)), read at
    (H, X)."""
    G = full_group(P.n)
    return (((1, _stacked(_sigma_hat_cov(P, G), 1)),),
            tuple((epsilon_sign(R, G) * sign, covs + _stacked(_sigma_hat_cov(P, R), 0))
                  for R in above(P)
                  for sign, covs in kernel_terms(R, _sigma_hat_cov, _sigma_cov)))


class GTilde:
    """Cone characteristic functions for one ambient dimension, read off the
    shared integer covectors, and the alternating sums and truncation
    kernels, each one `signed_count` over its cached term list."""

    def __init__(self, n: int):
        self.n = n
        self.N = n + 1

    # -- characteristic functions ----------------------------------------------

    def tau(self, P, Q, H) -> int:
        return _all_pos(_tau_cov(P, Q), H)

    def tau_hat(self, P, Q, H) -> int:
        return _all_pos(_tau_hat_cov(P, Q), H)

    def sigma(self, P, Q, H) -> int:
        return _all_pos(_sigma_cov(P, Q), H)

    def sigma_hat(self, P, Q, H) -> int:
        return _all_pos(_sigma_hat_cov(P, Q), H)

    def sigma_hat_full(self, P, Q, H) -> int:
        return _all_pos(_sigma_hat_full_cov(P, Q), H)

    def sigma_full(self, P, Q, H) -> int:
        return _all_pos(_sigma_full_cov(P, Q), H)

    def wall_covectors(self, P, Q):
        """The hyperplanes of the four indicators (`wall_hyperplanes`)."""
        return wall_hyperplanes(P, Q)

    # -- alternating sums --------------------------------------------------------

    def langlands_sum(self, Q, P, H) -> int:
        """Sum over S between Q and P of sign * sigma_Q^S(H) * sigma^_S^P(H);
        0 or 1, and 1 exactly on the diagonal."""
        total = signed_count(langlands_terms(Q, P), H)
        if total not in (0, 1):
            raise AssertionError(f"alternating sum out of range: {total}")
        return total

    def gamma_prime(self, P, H, X) -> int:
        """Arthur's truncation kernel with tau-functions (`kernel_terms`)."""
        return signed_count(kernel_terms(P, _tau_hat_cov, _tau_cov), [*H, *X])

    def b_function(self, P, H, X) -> int:
        """The sigma-analog of the truncation kernel (`kernel_terms`)."""
        return signed_count(kernel_terms(P, _sigma_hat_cov, _sigma_cov), [*H, *X])

    def sigma_hat_expansion(self, P, H, X) -> tuple[int, int]:
        """Both sides of the expansion (`expansion_terms`)."""
        return tuple(signed_count(side, [*H, *X]) for side in expansion_terms(P))


# ---------------------------------------------------------------------------
# descent data and the product side


@dataclass(frozen=True)
class DescentDatum:
    """Partition of the base coordinates into a plus part and one-dimensional
    lines grouped by factor index."""

    n: int
    vplus: frozenset
    parts: tuple         # tuple of tuples of coordinate labels, one per factor

    def __post_init__(self):
        object.__setattr__(self, "vplus", frozenset(self.vplus))
        object.__setattr__(self, "parts", tuple(tuple(sorted(p)) for p in self.parts))
        cover = set(self.vplus)
        for p in self.parts:
            if not p:
                raise ValueError("empty factor")
            if cover & set(p):
                raise ValueError("factor overlaps earlier data")
            cover |= set(p)
        if cover != set(range(1, self.n + 1)):
            raise ValueError("datum must cover all base coordinates")

    def m1_blocks(self):
        """Blocks of the distinguished Levi: the plus part with the line,
        then singleton lines."""
        blocks = [frozenset(self.vplus | {E0})]
        for p in self.parts:
            blocks += [frozenset([x]) for x in p]
        return blocks


@dataclass(frozen=True)
class ProductParabolic:
    """One parabolic subspace per factor, each over its own relabeled
    ambient space of dimension n_i + 1."""

    factors: tuple        # tuple of ParabolicSubspace

    def le(self, other: "ProductParabolic") -> bool:
        return all(a.le(b) for a, b in zip(self.factors, other.factors))

    def dim_z(self) -> int:
        return sum(f.dim_z() for f in self.factors)


def _relabel(subset, coords):
    """Map a set of global labels to the factor's 1..n_i labels (0 fixed)."""
    pos = {c: k + 1 for k, c in enumerate(coords)}
    return frozenset(pos[x] if x != E0 else E0 for x in subset)


@functools.cache
def parabolic_minus(Q: ParabolicSubspace, datum: DescentDatum) -> ProductParabolic:
    """The factorwise image: each chain member of Q cut down to the
    factor's lines plus the distinguished line, dropping empty, full and
    repeated cuts.  Cached (a bad Q raises on every call all the same)."""
    m1 = datum.m1_blocks()
    for member in Q.chain:
        if not _is_union_of(member, m1):
            raise ValueError("parabolic subspace does not contain the distinguished Levi")
    factors = []
    for coords in datum.parts:
        full = frozenset(coords) | {E0}
        cuts = []
        for member in Q.chain:
            cut = member & full
            if cut and cut != full and cut not in cuts[-1:]:
                cuts.append(cut)
        factors.append(ParabolicSubspace(len(coords), tuple(_relabel(c, coords) for c in cuts)))
    return ProductParabolic(tuple(factors))


def _is_union_of(member, blocks) -> bool:
    rest = set(member)
    for b in blocks:
        if b <= rest:
            rest -= b
    return not rest


def enumerate_product_parabolics(datum: DescentDatum):
    """All factorwise parabolic subspaces containing the per-factor minimal
    Levi (singleton lines plus the distinguished line)."""
    per_factor = []
    for coords in datum.parts:
        per_factor.append(enumerate_parabolic_subspaces(len(coords)))
    return [ProductParabolic(t) for t in itertools.product(*per_factor)]


@functools.cache
def product_between(R: ProductParabolic, S: ProductParabolic):
    """All T with R contained in T contained in S, factorwise."""
    per = [between(a, b) for a, b in zip(R.factors, S.factors)]
    return tuple(ProductParabolic(t) for t in itertools.product(*per))


def product_full(datum: DescentDatum) -> ProductParabolic:
    return ProductParabolic(tuple(full_group(len(p)) for p in datum.parts))


@dataclass(frozen=True)
class DescentEngine:
    """Evaluation helpers tying the ambient side and the product side of a
    descent datum together.  Every basis and covector lives on the ambient
    space, the product side's placed there factor by factor (`_lifted`);
    the minus labels only give the coordinates of the suite's random draws
    (`to_ambient`) and of its failure records.  Engines over equal data are
    equal, so they share the cached families, spans and covectors."""

    datum: DescentDatum
    minus: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        minus = sorted(c for p in self.datum.parts for c in p)
        object.__setattr__(self, "minus", tuple(minus))

    # -- placement on the ambient space ---------------------------------------

    def _place(self, vec, labels):
        """The entries of vec at the given base labels of the ambient space,
        zero elsewhere (entries past the labels, such as a factor vector's
        distinguished-line entry, are dropped)."""
        v = [0] * (self.datum.n + 1)
        for l, x in zip(labels, vec):
            v[l - 1] = x
        return v

    def to_ambient(self, H):
        """A point given on the minus coordinates, placed into the ambient
        space (zero on the plus part and the distinguished line)."""
        return self._place(H, self.minus)

    @functools.cache
    def _lifted(self, vectors, *Rs: ProductParabolic):
        """vectors(*factors) for every factor of the product parabolics Rs
        (a factor basis of R, or the covectors cov(r) of R or cov(r, s) of R
        inside S), placed on the ambient space: a product indicator is 1
        where all its covectors are positive."""
        return tuple(tuple(self._place(vec, self.datum.parts[k]))
                     for k, fs in enumerate(zip(*(R.factors for R in Rs)))
                     for vec in vectors(*fs))

    # -- subspaces ---------------------------------------------------------------

    def z_basis_product(self, R: ProductParabolic):
        return self._lifted(z_basis, R)

    @functools.cache
    def rigid_span(self, R: ProductParabolic, P: ParabolicSubspace):
        """An integer basis of span(z_P) intersect span(z_R)."""
        A, B = z_basis(P), self.z_basis_product(R)
        if not A or not B:
            return ()
        basis = []
        for t in la.nullspace([list(col) for col in zip(*A, *B)]):
            v = _scale_int(la.vec_mat(t[:len(A)], A))
            # reduce to an independent set
            if any(v) and not la.in_span(basis, v):
                basis.append(v)
        return tuple(basis)

    # -- the descent kernel ------------------------------------------------------

    @functools.cache
    def sigma_descent_cov(self, P: ParabolicSubspace, T: ParabolicSubspace):
        """Relative root covectors with each wall touching the distinguished
        block corrected over (the factor of its other side) + (the
        distinguished line); walls away from that block need no correction.
        This is the realization under which the product kernel splits into
        the rigid members' kernels."""
        covs = []
        for w in delta(P, T):
            # the other side of the wall is where w has the opposite sign
            # to its distinguished entry
            parts = [p for p in self.datum.parts if any(w[l - 1] * w[-1] < 0 for l in p)]
            covs.append(_pull_back(w, {self.datum.n} | {l - 1 for p in parts for l in p}))
        return tuple(covs)

    # -- the family sums as term lists, read at the ambient sample ----------------

    @functools.cache
    def family_sums(self, R: ProductParabolic):
        """Both sides of the closure-family identity (the hat sum, of sign(P, G)
        sigma^_P^G, over the closure family; the cone where every raw factor
        weight of R is negative), then of the fiber-family identity (the hat
        sum over the fiber family; sign(R, G) sigma^_prod(R, G))."""
        G, top = full_group(self.datum.n), product_full(self.datum)
        fbar, fib, _ = self.families(R)
        hat_sum = lambda family: tuple((epsilon_sign(P, G), _sigma_hat_cov(P, G))
                                       for P in family)
        raw = tuple(tuple(-x for x in c) for c in self._lifted(pi_hat_raw, R))
        return (hat_sum(fbar), ((1, raw),), hat_sum(fib),
                ((epsilon_sign(R, top), self._lifted(_sigma_hat_full_cov, R, top)),))

    @functools.cache
    def family_walls(self, R: ProductParabolic):
        """The filters of the family identities: the hyperplanes both sides of
        the closure-family identity read, then the fiber sum's (`family_sums`)."""
        closure, closed_cone, fiber, _ = self.family_sums(R)
        return _hyperplanes(_read(closure) + _read(closed_cone)), _hyperplanes(_read(fiber))

    @functools.cache
    def inversion_walls(self, R: ProductParabolic, P: ParabolicSubspace, basis):
        """The filter of the fiber inversion over P on the span of the basis:
        the hyperplanes `inversion_terms(R, P)` reads that miss some of it."""
        return _hyperplanes(c for c in _read(self.inversion_terms(R, P))
                            if any(_nonzero([c], [b]) for b in basis))

    @functools.cache
    def inversion_terms(self, R: ProductParabolic, P: ParabolicSubspace):
        """The fiber inversion over P: sign(Q, P) sigma_prod(R, Q_-) sigma^_Q^P
        for Q in the closure family of R below P, Q_- its factorwise image."""
        lift = lambda Q: self._lifted(_sigma_cov, R, parabolic_minus(Q, self.datum))
        return tuple((epsilon_sign(Q, P), lift(Q) + _sigma_hat_cov(Q, P))
                     for Q in self.families(R)[0] if Q.le(P))

    @functools.cache
    def _family_template(self, R: ProductParabolic):
        """The family identities of R, built once per (engine, R): the fiber
        sum, its resummation (sum over S above R of sign(R, S) sigma^_prod(R, S)
        times the family kernel of S), the family kernel of R (sum over T above
        R and the fiber of T) and its splitting into the rigid members'
        kernels.  Each covector is an index into the first entry, a tuple of
        pairs (c, Q): c read at H - Y_Q, or at H when Q is None.  These pairs,
        every covector the terms read, are the wall filter; every product
        sigma-hat covector above R is among them."""
        G, top = full_group(self.datum.n), product_full(self.datum)
        _, fib, f0 = self.families(R)
        sups = product_between(R, top)
        keys = {}

        def at(covs, Q=None):
            return tuple(keys.setdefault((c, Q), len(keys)) for c in covs)

        hat = lambda Q, P: at(_sigma_hat_cov(Q, G), P)
        lifted = lambda cov, S, T: at(self._lifted(cov, S, T))

        kernels = {S: tuple((epsilon_sign(Q, G), lifted(_sigma_full_cov, S, T) + hat(Q, Q))
                            for T in product_between(S, top) for Q in self.families(T)[1])
                   for S in sups}
        fiber = tuple((epsilon_sign(P, G), hat(P, P)) for P in fib)
        resummed = tuple((epsilon_sign(R, S) * e, lifted(_sigma_hat_full_cov, R, S) + covs)
                         for S in sups for e, covs in kernels[S])
        split = tuple((epsilon_sign(T, G), at(self.sigma_descent_cov(P, T)) + hat(T, P))
                      for P in f0 for T in above(P))
        return tuple(keys), fiber, resummed, kernels[R], split

    def family_plan(self, R: ProductParabolic, points):
        """The wall filter and the term lists of `_family_template(R)` as
        affine covectors on the point (D H, 1).  `points` maps each closure
        member Q to Y_Q scaled by one positive integer D; the filter's
        covectors must not vanish at the point."""
        keys, *sums = self._family_template(R)
        covs = [_at_shift(c, points.get(Q, ())) for c, Q in keys]
        return (tuple(dict.fromkeys(covs)),
                *([(sign, tuple(covs[i] for i in read)) for sign, read in terms]
                  for terms in sums))

    # -- families ------------------------------------------------------------------

    @functools.cache
    def families(self, R: ProductParabolic):
        """(closure family, fiber family, rigid fiber family) of the ambient
        parabolic subspaces above the distinguished Levi, sorted by the
        factorwise image.  A fiber member is rigid when z_P and z_R span the
        same space, that is when `rigid_span` has the dimension of both."""
        m1 = self.datum.m1_blocks()
        cands = enumerate_parabolic_subspaces(self.datum.n, levi_blocks=m1)
        fbar, fib, f0 = [], [], []
        for P in cands:
            Pm = parabolic_minus(P, self.datum)
            if R.le(Pm):
                fbar.append(P)
            if Pm == R:
                fib.append(P)
                if len(self.rigid_span(R, P)) == P.dim_z() == R.dim_z():
                    f0.append(P)
        return tuple(fbar), tuple(fib), tuple(f0)
