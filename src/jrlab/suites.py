"""Verification suites: each function runs one battery of finitely checkable
identities on one `_Run`, which holds the seeded random stream and, in
`_Run.sample`, the program's only rejection loop.  The polyhedral suites
return the run's report (instance count, failures with reproduction data,
seed); `fl_check`, the unit-function comparison, returns its own, which
lists every point.  The command-line front end and the acceptance tests
both drive these.

Each signed sum of cone indicators is a term list (sign, covectors) built by
`cones` once per process (the family kernels shifted by each family's
points), and `cones.signed_count` reads it at one integer point per sample:
the sample H, the stacked point (H, X), or the affine point (H, 1).  With
the wall filters cached there too, a sample costs its draws (`_ints`), its
filter and its count."""

from __future__ import annotations

import itertools
import random
import time
from collections import deque
from fractions import Fraction
from operator import mul

from . import linalg as la
from .cones import (DescentEngine, GTilde, ProductParabolic,
                    _all_pos, _integer_basis, _nonzero, _tau_hat_cov, a_basis,
                    coordinate, enumerate_parabolic_subspaces,
                    enumerate_product_parabolics, full_group, in_z_span,
                    kernel_walls, langlands_walls, parabolic_minus, pi, pi_hat,
                    projections, signed_count, z_basis, z_rel_basis)
from . import chambers as ch
from .fields import PLocalContext, valuation
from .gltilde import InvariantPoint, d_r_of_point
from .hermitian import classify_form_local, hankel_pair_for_point
from .orbital import _orbital_u, gl_representative_of_point, orbital_gl
from .serialize import parabolic_to_json


class _Run:
    """One suite run: its seeded random stream, its instance count, its
    failure records and its report, which ends with the extra keywords."""

    def __init__(self, suite, seed, **extra):
        self.t0 = time.time()
        self.suite, self.seed, self.extra = suite, seed, extra
        self.rng = random.Random(seed)
        self.instances, self.records = 0, []

    def sample(self, draw, target, tries, per=1):
        """Rejection sampling, the program's only loop of it: the values of
        draw() that are not None, until target of them have come or draw()
        has run tries times, counting per instances for each.  draw() makes
        the random draws and applies the filter, rejecting with None."""
        got = 0
        for _ in range(tries):
            if got == target:
                return
            x = draw()
            if x is not None:
                got += 1
                self.instances += per
                yield x

    def fail(self, check, **record):
        self.records.append({"check": check, **record})

    def report(self):
        return {"suite": self.suite, "instances": self.instances,
                "failures": self.records, "seed": self.seed,
                "wall_time": round(time.time() - self.t0, 3), **self.extra}


def _ints(rng, lo, hi, k):
    """What k calls of rng.randint(lo, hi) return, leaving rng in the same
    state: CPython's randint draws getrandbits(w.bit_length()) until it is
    below the width w (`Random._randbelow_with_getrandbits`), as done here
    without randint's three Python frames per value."""
    w = hi - lo + 1
    if w < 1:
        raise ValueError(f"empty range ({lo}, {hi})")
    bits, b, out = rng.getrandbits, w.bit_length(), []
    for _ in range(k):
        r = bits(b)
        while r >= w:
            r = bits(b)
        out.append(lo + r)
    return out


def _sample_span(rng, basis, N, lo=-30, hi=30):
    """A random integer combination of the basis (the origin when it is
    empty)."""
    if not basis:
        return [0] * N
    coeffs = _ints(rng, lo, hi, len(basis))
    return [sum(map(mul, coeffs, col)) for col in zip(*basis)]


# ---------------------------------------------------------------------------
# criterion: cone identities


def cones_suite(n: int, points: int = 10000, seed: int = 0) -> dict:
    """sig/tau exchange, dual root bases, the Langlands alternating sum, the
    expansion of sigma-hat through the B kernel, and the Gamma'/B relation.

    Domains: the exchange relation's hat part and the expansion identities
    hold at arbitrary ambient points; the plain part of the exchange and the
    identities mixing sigma with tau hold where the base-coordinate sums of
    the relevant arguments vanish, which is where both realizations of the
    quotient weights agree (everything is exact rational arithmetic with
    strict inequalities, and sampled points are wall-generic).
    """
    run = _Run("cones", seed, n=n)
    g = GTilde(n)
    N = n + 1
    ps = enumerate_parabolic_subspaces(n)
    pairs = [(P, Q) for P in ps for Q in ps if P.le(Q)]
    per_pair = max(1, points // max(1, len(pairs)))

    # --- newRoots: exact dual bases, obtuse/acute (no sampling) ---
    for P, Q in pairs:
        run.instances += 1
        roots, weights = pi(P, Q), pi_hat(P, Q)
        k = len(roots)
        ok = len(weights) == k
        if ok and k:
            M = [[la.dot(a, b) for b in weights] for a in roots]
            ones = sum(1 for row in M for x in row if x == 1)
            zeros = sum(1 for row in M for x in row if x == 0)
            ok = ones == k and ones + zeros == k * k
            ok = ok and all(la.dot(roots[i], roots[j]) <= 0
                            for i in range(k) for j in range(k) if i != j)
            ok = ok and all(la.dot(weights[i], weights[j]) >= 0
                            for i in range(k) for j in range(k) if i != j)
        if not ok:
            run.fail("dual-bases", pair=(parabolic_to_json(P), parabolic_to_json(Q)))

    # --- sig-tau exchange ---
    for P, Q in pairs:
        covs = g.wall_covectors(P, Q)

        def draw():
            H = _ints(run.rng, -40, 40, N)
            # part 2 at arbitrary points
            r1, _, r1h, _ = projections(H)
            return (H, r1, r1h) if _nonzero(covs, [H, r1h]) else None

        for H, r1, r1h in run.sample(draw, per_pair, 50 * per_pair, per=2):
            if g.sigma_hat_full(P, Q, H) != g.tau_hat(P, Q, r1h):
                run.fail("exchange-hat", pair=(parabolic_to_json(P), parabolic_to_json(Q)),
                         H=[str(x) for x in H])
            if g.tau(P, Q, H) != g.sigma(P, Q, r1):
                run.fail("exchange", pair=(parabolic_to_json(P), parabolic_to_json(Q)),
                         H=[str(x) for x in H])

    # --- Langlands alternating sum: on the relative center space, scaled by D ---
    for Q, P in pairs:
        S, D = _integer_basis(z_rel_basis(Q, P))
        covs = langlands_walls(Q, P)

        def draw():
            H = _sample_span(run.rng, S, N)
            return H if not S or _nonzero(covs, [H]) else None

        # an empty basis spans the single point 0
        for H in run.sample(draw, per_pair if S else 1, 60 * per_pair):
            if g.langlands_sum(Q, P, H) != (1 if Q == P else 0):
                run.fail("alternating-sum", pair=(parabolic_to_json(Q), parabolic_to_json(P)),
                         H=[str(Fraction(x, D)) for x in H])

    # --- expansion of sigma-hat through B, on the zero-sum slice ---
    for P in ps:
        covs = kernel_walls(P)

        def draw():
            v = _ints(run.rng, -40, 40, 2 * N)
            H, X = _zero_base_sum(v[:N], n), _zero_base_sum(v[N:], n)
            return (H, X) if _nonzero(covs, [H, X, la.vec_sub(H, X)]) else None

        for H, X in run.sample(draw, per_pair, 60 * per_pair):
            lhs, rhs = g.sigma_hat_expansion(P, H, X)
            if lhs != rhs:
                run.fail("kernel-expansion", P=parabolic_to_json(P),
                         H=[str(x) for x in H], X=[str(x) for x in X])

    # --- Gamma'/B relation on its stated domain, scaled by D ---
    for P in ps:
        ab = a_basis(P)
        zero_sum = [la.vec_mat(t, ab) for t in la.nullspace([[sum(b) for b in ab]])]
        apg, D = _integer_basis(zero_sum)
        zb = [[D * x for x in v] for v in z_basis(P)]
        covs = kernel_walls(P)

        def draw():
            H = _sample_span(run.rng, zb, N)
            T = _sample_span(run.rng, apg, N)
            r1T, r2T, _, _ = projections(T)
            HT = la.vec_sub(H, T)
            _, _, _, r2hH = projections(H)
            Hm = la.vec_sub(H, r1T)
            keep = _nonzero(covs, [HT, la.vec_sub(HT, r2hH), Hm, la.vec_sub(Hm, r2T)])
            return (H, T, HT, r2hH, Hm, r2T) if keep else None

        for H, T, HT, r2hH, Hm, r2T in run.sample(draw, per_pair, 60 * per_pair):
            if g.gamma_prime(P, HT, r2hH) != g.b_function(P, Hm, r2T):
                run.fail("truncation-kernels", P=parabolic_to_json(P),
                         H=[str(Fraction(x, D)) for x in H], T=[str(Fraction(t, D)) for t in T])

    return run.report()


def _zero_base_sum(v, n):
    """Adjust the last base coordinate so the base-coordinate sum vanishes."""
    v = list(v)
    s = sum(v[:n])
    if n:
        v[n - 1] -= s
    return v


# ---------------------------------------------------------------------------
# criterion: descent combinatorics


def descent_data(n: int):
    """The engines of all descent shapes at base dimension n with one or two
    factors (deduplicated up to factor order: the first factor holds the
    least minus label)."""
    if n > 3:
        raise ValueError("descent enumeration guard: n <= 3")
    out = []
    coords = list(range(1, n + 1))
    for r in range(0, n):
        for vplus in itertools.combinations(coords, r):
            first, *rest = [c for c in coords if c not in vplus]
            for k in range(len(rest) + 1):
                for combo in itertools.combinations(rest, k):
                    other = tuple(c for c in rest if c not in combo)
                    parts = ((first, *combo),) + ((other,) if other else ())
                    out.append(DescentEngine(n, frozenset(vplus), parts))
    return out


def descent_suite(n: int, seed: int = 0, samples: int = 24) -> dict:
    """The closure / fiber / rigid-fiber family identities attached to the
    factorwise image of parabolic subspaces, and the two kernel-sum
    identities for orthogonal-positive point families."""
    run = _Run("descent", seed, n=n)
    N = n + 1
    for eng in descent_data(n):
        m = len(eng.minus)
        for R in enumerate_product_parabolics(eng):
            fbar, _, f0 = eng.families(R)
            zR = eng.z_basis_product(R)
            # -- closure-family sum = closed-cone indicator (filtered on both
            # sides), fiber-family sum = signed product cone (on the left) --
            closure, closed_cone, fiber, product_cone = eng.family_sums(R)
            closure_walls, fiber_walls = eng.family_walls(R)
            for check, lhs, rhs, covs in (
                    ("closure-family", closure, closed_cone, closure_walls),
                    ("fiber-family", fiber, product_cone, fiber_walls)):

                def draw():
                    H = _ints(run.rng, -20, 20, m)
                    Ha = eng.to_ambient(H)
                    return (H, Ha) if _nonzero(covs, [Ha]) else None

                for H, Ha in run.sample(draw, samples, 40 * samples):
                    if signed_count(lhs, Ha) != signed_count(rhs, Ha):
                        run.fail(check, datum=_djson(eng), R=_prodjson(R), H=H)
            # -- pointwise inversion over the fiber (vanishing off the rigid set) --
            for P in fbar:
                terms = eng.inversion_terms(R, P)
                # P in the fiber over R, read off its factorwise image
                in_fiber = parabolic_minus(P, eng) == R
                for which, basis in (("generic", zR), ("rigid", eng.rigid_span(R, P))):
                    # wall filter: the hyperplanes that do not hold the
                    # whole domain must not hold the sample
                    covs = eng.inversion_walls(R, P, basis)

                    def draw():
                        X = _sample_span(run.rng, basis, N, lo=-20, hi=20)
                        return X if _nonzero(covs, [X]) else None

                    # an empty basis spans the single point 0
                    target = max(4, samples // 3) if basis else 1
                    for X in run.sample(draw, target, 40 * samples):
                        tot = signed_count(terms, X)
                        expect = int(in_fiber and in_z_span(P, X))
                        if tot != expect:
                            run.fail("fiber-inversion", datum=_djson(eng), R=_prodjson(R),
                                     P=parabolic_to_json(P), X=_on_minus(eng, X),
                                     domain=which, got=tot, expect=expect)
            # -- kernel sums for orthogonal-positive families --
            if f0:
                fam = _orth_positive_family(run.rng, eng, R, f0)
                if fam is not None:
                    _family_checks(run, eng, R, fam, samples)
    return run.report()


def _orth_positive_family(rng, eng: DescentEngine, R, f0):
    """Nonnegative pair-weights over the block set of the rigid fiber's
    common Levi; returns {P: ambient point} or None when the block sets
    disagree (which would violate the convexity lemma).  The points are
    scaled by s = `chambers.projection_scale(n + 1)`, a multiple of every
    block size, so they are integers."""
    N = eng.n + 1
    s = ch.projection_scale(N)
    blocksets = {tuple(sorted(tuple(sorted(b)) for b in P.blocks())) for P in f0}
    if len(blocksets) != 1:
        return None
    blocks = [frozenset(b) for b in next(iter(blocksets))]
    pairs = list(itertools.combinations(range(len(blocks)), 2))
    c = dict(zip(pairs, _ints(rng, 0, 5, len(pairs))))
    base = dict(zip(blocks, _ints(rng, -4, 4, len(blocks))))
    fam = {}
    for P in f0:
        order = [frozenset(b) for b in P.blocks()]
        v = [0] * N
        for b in order:
            for l in b:
                v[coordinate(l, N)] += s * base[b]
        for x, y in itertools.combinations(order, 2):
            bx, by = blocks.index(x), blocks.index(y)
            w = c[min(bx, by), max(bx, by)] * (1 if bx < by else -1)
            # u_{first} - u_{second} with the pair weight
            for l in x:
                v[coordinate(l, N)] += w * (s // len(x))
            for l in y:
                v[coordinate(l, N)] -= w * (s // len(y))
        fam[P] = v
    return fam


def _family_checks(run, eng: DescentEngine, R, fam, samples):
    """The resummation identity for the family kernel and the generic-point
    splitting of the product kernel into the rigid members' kernels, on the
    terms of `DescentEngine.family_plan`.  The family's points come scaled
    by s (`_orth_positive_family`) and `project_family` scales by s again,
    so every Y_Q, and each sample H with it, is scaled by s^2; the failure
    records print H itself, on the minus coordinates."""
    N = eng.n + 1
    s = ch.projection_scale(N)
    zR = eng.z_basis_product(R)

    # Y_Q, the block projection of any rigid member's point inside Q, for
    # every Q in the closure family
    ys = {}
    for Q in eng.families(R)[0]:
        ys[Q] = ch.project_family([Y for P, Y in fam.items() if P.le(Q)],
                                  [[coordinate(l, N) for l in b] for b in Q.blocks()], s)
        if ys[Q] is None:
            return run.fail("family-structure", datum=_djson(eng), R=_prodjson(R),
                            note="closure member without rigid member")
    walls, fiber, resummed, kernel, split = eng.family_plan(R, ys)

    def draw():
        H = _sample_span(run.rng, zR, N, lo=-25, hi=25)
        point = [s * s * x for x in H] + [1]
        return (H, point) if _nonzero(walls, [point]) else None

    for H, point in run.sample(draw, samples, 60 * samples):
        # resummation: fiber sum with shifts = signed sum of family kernels
        if signed_count(fiber, point) != signed_count(resummed, point):
            run.fail("family-resummation", datum=_djson(eng), R=_prodjson(R),
                     H=_on_minus(eng, H))
        # generic splitting into rigid members' kernels
        if signed_count(kernel, point) != signed_count(split, point):
            run.fail("family-splitting", datum=_djson(eng), R=_prodjson(R), H=_on_minus(eng, H))


def _on_minus(eng: DescentEngine, v):
    """An ambient point as a failure record prints it: its minus
    coordinates, as strings."""
    return [str(v[c - 1]) for c in eng.minus]


def _djson(d: DescentEngine):
    return {"n": d.n, "vplus": sorted(d.vplus), "parts": [list(p) for p in d.parts]}


def _prodjson(R: ProductParabolic):
    return [parabolic_to_json(f) for f in R.factors]


# ---------------------------------------------------------------------------
# criterion: chamber complex


def chambers_suite(m: int, seed: int = 0, families: int = 200) -> dict:
    if m > ch.CONVEXITY_MAX_RANK:
        raise ValueError(f"convexity guard exceeded: m={m} > {ch.CONVEXITY_MAX_RANK}")
    run = _Run("chambers", seed, m=m)
    chambers = ch.all_chambers(m)
    bits = ch.root_bits(m)
    roots = list(bits)
    G = full_group(m - 1)

    # distances agree with breadth-first graph distance on all ordered pairs;
    # the table dist[P1][P2] = distance(P2, P1), the diagonal included,
    # serves the checks below
    dist = {}
    for P1 in chambers:
        bfs = {P1: 0}
        q = deque([P1])
        while q:
            u = q.popleft()
            for v in u.adj:
                if v not in bfs:
                    bfs[v] = bfs[u] + 1
                    q.append(v)
        row = dist[P1] = {}
        for P2 in chambers:
            row[P2] = ch.distance(P2, P1)
            if P1 == P2:
                continue
            run.instances += 1
            if bfs[P2] != row[P2]:
                run.fail("distance", P1=P1.perm, P2=P2.perm)

    # wall sets along every minimal gallery, certified one step at a time:
    # P1 has a step towards P2 exactly when P1 != P2, Sigma(P2|P2) is empty,
    # and each step Q crosses a wall of Sigma(P2|P1) and leaves the rest as
    # Sigma(P2|Q).  By induction on the distance to P2, the walls along any
    # minimal gallery from P1 are then distinct and form Sigma(P2|P1).  Root
    # sets are masks over `bits`, and each wall is mapped to its bit.  One
    # instance per gallery, counted by recursion and cross-checked against
    # the listed galleries from the base chamber (relabelling coordinates
    # moves it to any chamber and keeps galleries).
    base = chambers[0]
    for P2 in chambers:
        sigma = {P1: P1.pos & ~P2.pos for P1 in chambers}
        order = sorted(chambers, key=dist[P2].__getitem__)
        for P1, steps, count in ch.gallery_steps(P2, order):
            run.instances += count
            end, s1 = P1 == P2, sigma[P1]
            walls = [bits[ch.wall(P1, Q)] for Q in steps]
            if bool(steps) == end or (end and s1) or any(
                    not s1 & w or sigma[Q] != s1 ^ w for Q, w in zip(steps, walls)):
                run.fail("gallery-walls", P1=P1.perm, P2=P2.perm)
            if P1 == base:
                listed = len(ch.minimal_galleries(P1, P2))
                if count != listed:
                    run.fail("gallery-count", P1=P1.perm, P2=P2.perm, count=count, listed=listed)

    # half-space families convex
    for alpha in roots:
        run.instances += 1
        if not ch.is_convex(ch.h_plus(alpha, m)):
            run.fail("halfspace-convex", alpha=alpha)

    # one-step distance recursion, exhaustively, read off the distance table
    for P in chambers:
        row = dist[P]
        for P1 in chambers:
            for P2 in P1.adj:
                run.instances += 1
                if row[P2] != row[P1] + ch.keycoxeter_step(P, P1, P2):
                    run.fail("distance-step", P=P.perm, P1=P1.perm, P2=P2.perm)

    # representative lemma + the two psi sums on random data (three instances per draw)
    def draw():
        S = set(chambers)
        for _ in range(run.rng.randint(0, 3)):
            S &= set(ch.h_plus(run.rng.choice(roots), m))
        S = sorted(S, key=lambda c: c.perm)
        if not S:
            return None
        fam = ch.pairwise_orthogonal_positive(m, run.rng)
        if not ch.check_orthogonal_positive(fam):
            run.fail("family-consistency")
            return None
        H = _ints(run.rng, -15, 15, m)
        # wall filter on the parabolics above a member, at D H - D Y_Q
        proj = {Q: ch.family_projection(fam, Q) for Q in ch.parabolics_above(S)}
        HD = [ch.projection_scale(m) * h for h in H]
        keep = all(_nonzero(_tau_hat_cov(Q, G), [la.vec_sub(HD, YD)])
                   for Q, YD in proj.items())
        return (S, fam, H, proj) if keep else None

    for S, fam, H, proj in run.sample(draw, families, 50 * families, per=3):
        # representative lemma on a random parabolic above a member
        P = run.rng.choice(S)
        Q = run.rng.choice(list(proj))
        try:
            P1 = ch.langlands_type_rep(S, P, Q)
            if P1 not in S or not ch.chamber_in_parabolic(P1, Q):
                raise AssertionError("bad representative")
        except AssertionError as e:
            run.fail("representative", error=str(e))
        # psi sums
        Lam = [0] * m
        base = sorted(run.rng.sample(range(1, 60), m), reverse=True)
        for pos, a in enumerate(P.perm):
            Lam[a - 1] = base[pos]
        v1 = ch.psi_geometric(proj, H)
        v2 = ch.psi_analytic(S, Lam, H, fam)
        if v1 != v2:
            run.fail("psi-equality", S=[c.perm for c in S], H=H)
        cond = not any(_all_pos([w], [h - y for h, y in zip(H, fam[Pp])])
                       for Pp in S for w in _tau_hat_cov(ch.flag(Pp.perm), G))
        if (v1 != 0) != cond or (v1 not in (0, 1)):
            run.fail("psi-trichotomy", S=[c.perm for c in S], H=H)
    return run.report()


# ---------------------------------------------------------------------------
# criterion: the unit-function comparison


def fl_check(n: int, ctx: PLocalContext, budget: int, seed: int = 0,
             samples: int = 20) -> dict:
    """Unit-function comparison across the two sides over matched invariant
    points: exhaustive in the moment valuation at n = 1, sampled at n = 2
    by a `_Run`.  Odd valuation forces both sides to vanish; the non-norm
    form class carries the zero unit component, so there the linear side
    must vanish by itself.  The report lists every point's entry."""
    if n not in (1, 2):
        raise ValueError("the comparison runs at n = 1 or 2")
    run = _Run("fl", seed)
    p = ctx.p
    results = []

    def compare(a: InvariantPoint, tag):
        gl_rep = orbital_gl(gl_representative_of_point(a), ctx)
        Xu = hankel_pair_for_point(a, ctx)
        norm = classify_form_local(Xu.form, ctx)["disc_is_norm"]
        u_rep = _orbital_u(Xu, ctx, norm)
        ok = gl_rep.value == u_rep.value if norm else gl_rep.value == 0 == u_rep.value
        v_dn = valuation(d_r_of_point(a, n), ctx)
        if v_dn % 2 == 1:
            ok = ok and gl_rep.value == 0
        results.append({"tag": tag,
                        "a": {"a": [str(x) for x in a.a], "b": [str(x) for x in a.b]},
                        "v_dn": v_dn,
                        "gl": str(gl_rep.value), "gl_lattices": gl_rep.lattice_count,
                        "u": str(u_rep.value), "disc_is_norm": norm,
                        "ok": ok})

    if n == 1:
        for w in range(budget + 1):
            for unit in (1, ctx.eps):
                for a1 in (0, 1, p):
                    compare(InvariantPoint((Fraction(a1),), (Fraction(unit * p ** w),)),
                            f"v={w},u={unit},a1={a1}")
    else:
        def draw():
            v = [Fraction(x) for x in _ints(run.rng, -p, p, 4)]
            a = InvariantPoint(tuple(v[:2]), tuple(v[2:]))
            dn = d_r_of_point(a, 2)
            return a if dn and 0 <= valuation(dn, ctx) <= budget else None

        for k, a in enumerate(run.sample(draw, samples, 500 * samples)):
            compare(a, f"sample{k}")
    failures = [e for e in results if not e["ok"]]
    return {"n": n, "p": p, "seed": seed, "results": results,
            "failures": failures,
            "pass": f"{len(results) - len(failures)}/{len(results)}"}
