"""Local non-archimedean orbital integrals by exact lattice enumeration.

With the measure normalizations vol(GL_n(O)) = vol(U(O)) = 1, the unit
orbital integrals reduce to finite lattice counts: signed by the quadratic
character on the linear side, plain counts of self-dual lattices on the
hermitian side.  Lattices are represented by column bases in p-normalized
Hermite form.  The lattices between O^n and M O^n (M the moment matrix) are
found bottom up: H^{-1} M is integral row by row from the last row, so each
row of H is built below the rows already chosen, its entries grown p-adic
digit by digit and dropped at the first digit that leaves a residual
indivisible.  H is then confirmed, and L^{-1} H O^n (L the dual-Krylov rows)
tested, on integer coordinates alone: "H^{-1} X lies in p^k O^n" is one back
substitution, self-duality a level and a congruence; scalars are built only
for the H handed out, with H^{-1}, and the bases L^{-1} H kept.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import prod

from . import linalg as la
from .fields import (EScalar, PLocalContext, eta, is_integral,
                     residue, valuation, valuation_ext)
from .gltilde import (InvariantPoint, Triple, basis_matrix, d_r_of_point, moments,
                      dual_krylov_rows, invariants, stratum,  # noqa: F401 (bench/test_bench.py)
                      transfer_factor_eta)
from .hermitian import (HermitianPair, classify_form_local, companion_matrix,
                        hankel_pair_for_point, u_invariants)
from .suites import _accepted


# ---------------------------------------------------------------------------
# lattices over the p-local integers


@dataclass(frozen=True)
class Lattice:
    """Upper-triangular column basis with p-power diagonal, entries reduced
    modulo the diagonal of their column."""

    basis: tuple
    p: int

    @property
    def n(self) -> int:
        return len(self.basis)


def _reduce_mod(x: Fraction, d: int, ctx: PLocalContext) -> Fraction:
    """Canonical representative of x modulo p^d O (x any rational): zero
    when v(x) >= d, otherwise p^v times the canonical residue of its unit
    part mod p^(d - v)."""
    if x == 0:
        return Fraction(0)
    v = valuation(x, ctx)
    if v >= d:
        return Fraction(0)
    p = Fraction(ctx.p)
    u = x / p ** v
    return p ** v * residue(u, ctx, d - v)


def hermite_normalize(B, ctx: PLocalContext) -> Lattice:
    """Canonical p-local column Hermite form of a basis matrix (columns
    generate the lattice; the allowed column operations are invertible over
    the p-local ring)."""
    p = ctx.p
    n = len(B)
    M = [[Fraction(x) for x in row] for row in B]
    # eliminate below the diagonal, bottom row up, pivoting by minimal
    # valuation
    for i in range(n - 1, -1, -1):
        piv, best = None, None
        for j in range(i + 1):
            if M[i][j] == 0:
                continue
            v = valuation(M[i][j], ctx)
            if best is None or v < best:
                best, piv = v, j
        if piv is None:
            raise ValueError("singular basis matrix")
        if piv != i:
            for r in range(n):
                M[r][piv], M[r][i] = M[r][i], M[r][piv]
        unit = M[i][i] / Fraction(p) ** valuation(M[i][i], ctx)
        for r in range(n):
            M[r][i] = M[r][i] / unit
        for j in range(i):
            if M[i][j] == 0:
                continue
            f = M[i][j] / M[i][i]
            for r in range(n):
                M[r][j] = M[r][j] - f * M[r][i]
    # canonical reduction of the above-diagonal entries: the entry in row i
    # is only defined modulo the row's diagonal power
    for j in range(n):
        for i in range(j - 1, -1, -1):
            di = valuation(M[i][i], ctx)
            target = _reduce_mod(M[i][j], di, ctx)
            t = (M[i][j] - target) / M[i][i]
            for r in range(n):
                M[r][j] = M[r][j] - t * M[r][i]
    return Lattice(tuple(tuple(row) for row in M), p)


def _integral(A, ctx: PLocalContext) -> bool:
    """Whether every entry of the matrix A is p-integral."""
    return all(is_integral(x, ctx) for row in A for x in row)


def _pairs(v):
    """v's entries as integer pairs (x, y) over one denominator d, and d; y is 0
    over Q, so the ring `la._ring(ctx)` of E serves both sides."""
    x, y, d, *_ = la._split(v)
    return list(zip(x, y or [0] * len(x))), d


def _in_lattice(H, cols, m, ring):
    """Whether H^{-1} X lies in m O^n (m a power of p), for X's columns and H
    integral, upper triangular with diagonal p^d_i, all as integer pairs: each
    Y_i = (X_i - sum_{j>i} H_ij Y_j) / p^d_i must be a multiple of m."""
    n, (_, _, mul, sub, _) = len(H), ring
    for col in cols:
        Y = [None] * n
        for i in range(n - 1, -1, -1):
            x, y = reduce(sub, map(mul, H[i][i + 1:], Y[i + 1:]), col[i])
            q = H[i][i][0]
            if x % (q * m) or y % (q * m):
                return False
            Y[i] = (x // q, y // q)
    return True


def _lattices_between(M, ctx: PLocalContext, ext: bool):
    """(H, H^{-1}) for all H O^n with O^n >= H O^n >= M O^n over O, or O_E
    when ext: upper-triangular, p-power diagonal, each entry above it reduced
    modulo its row's diagonal, ordered by diagonal exponents, then by the
    residues above the diagonal column by column.  With Y = H^{-1} M and p^d the
    diagonal of row i, p^d Y_i = M_i - sum_{j>i} H_ij Y_j: a row's entries
    survive digit t only if that residual is divisible by p^(t+1).  Integers
    (pairs for x + y sqrt(eps)) exact modulo p^(v(det M) + 1 - exponents
    below) decide every test, as the exponents sum to at most v(det M).  Each
    H is confirmed on M's integer columns (`_in_lattice`), then inverted."""
    n, p, eps = len(M), ctx.p, ctx.eps
    if not _integral(M, ctx):
        return []
    vdet = (valuation_ext if ext else valuation)(la.det(M), ctx)
    coords = (lambda z: (z.x, z.y)) if ext else (lambda z: (z, 0))
    R = [[tuple(residue(c, ctx, vdet + 1) for c in coords(x)) for x in row] for row in M]
    digits = list(itertools.product(range(p), range(p) if ext else (0,)))

    def rows(r, Ys, free):
        """(d, entries, Y row) of every row with residual r over rows Ys."""
        # sum_j h_j Y_j for every choice of one digit h_j per entry
        steps = [(hs, [(sum(h[0] * y[k][0] + eps * h[1] * y[k][1] for h, y in zip(hs, Ys)),
                        sum(h[0] * y[k][1] + h[1] * y[k][0] for h, y in zip(hs, Ys)))
                       for k in range(n)]) for hs in itertools.product(digits, repeat=len(Ys))]
        level = [(((0, 0),) * len(Ys), r)]
        out = [(0, level[0][0], r)]
        for t in range(free):
            q, q1, grown = p ** t, p ** (t + 1), []
            for h, r in level:
                for hs, st in steps:
                    s = [(a - q * sa, b - q * sb) for (a, b), (sa, sb) in zip(r, st)]
                    if all(a % q1 == 0 == b % q1 for a, b in s):
                        grown.append((tuple((x + q * hx, y + q * hy)
                                            for (x, y), (hx, hy) in zip(h, hs)), s))
            level = grown
            out += [(t + 1, h, [(a // q1, b // q1) for a, b in s]) for h, s in level]
        return out

    partial = [((), (), (), vdet)]      # (diagonal, entries, Y) of rows i..n-1
    for i in range(n - 1, -1, -1):
        partial = [((d,) + diag, (h,) + hs, (y,) + Ys, free - d)
                   for diag, hs, Ys, free in partial for d, h, y in rows(R[i], Ys, free)]
    # M's denominator is prime to p, so M O^n is spanned by its numerators
    cols, ring = [_pairs(col)[0] for col in zip(*M)], la._ring(ctx)
    make = (lambda x, y: EScalar(x, y, ctx)) if ext else (lambda x, y: Fraction(x))
    out = []
    for diag, hs, _, _ in partial:
        Hc = [[(0, 0)] * i + [(p ** d, 0), *h] for i, (d, h) in enumerate(zip(diag, hs))]
        if _in_lattice(Hc, cols, 1, ring):
            H = [[make(x, y) for x, y in row] for row in Hc]
            out.append(((diag, tuple(hs[i][j - i - 1] for j in range(n) for i in range(j))),
                        H, la.inverse(H)))
    return [(H, Hi) for _, H, Hi in sorted(out, key=lambda e: e[0])]


def intermediate_lattices(M, ctx: PLocalContext):
    """All H O^n with O^n >= H O^n >= M O^n, as upper-triangular p-power HNF
    matrices H paired with H^{-1} (M p-integral, det nonzero)."""
    return _lattices_between(M, ctx, ext=False)


def _admissible_bases(X: Triple, ctx: PLocalContext, selfdual: bool):
    """Bases B = L^{-1} H of the lattices stable under A, containing b and
    integral against c, and self-dual for the form when selfdual (over O_E).
    With L the dual-Krylov rows and K the Krylov basis, L B lies between
    M O^n and O^n, M = L K the Hankel matrix (c A^{i+j} b), so H = L B runs
    through the lattices the enumerator finds.  The tests, on the numerators
    of H's entries:
    - c B = H[0], the first row of L B, integral as H is;
    - B^{-1} b = (H^{-1} M) e_1, as L b is M's first column, and the
      enumerator has confirmed H^{-1} M integral (it finds no H when M is
      not: c A^k b lies in O for every admissible lattice);
    - B^{-1} A B = H^{-1} C H with C = L A L^{-1}, whose rows are e_2, ..., e_n
      (row i of L A is row i + 1 of L) above cn = x / D = c A^n L^{-1}:
      H^{-1} (D H[1:] above x H) must lie in p^v(D) O^n;
    - B* G B = H* M^{-1} H for the Gram matrix G, as L = K* G when A is
      self-adjoint, so that L^{-1}* G L^{-1} = (K* G K)^{-1} = M^{-1}: its
      determinant has valuation 2 sum d_i - v(det M), and with M^{-1} = N / D_M
      it is integral when p^v(D_M) divides H* N H."""
    n, p = X.n, ctx.p
    ms = moments(X, 2 * n - 1)
    M = [ms[i:i + n] for i in range(n)]
    if (dM := la.det(M)) == 0:
        raise ValueError("admissible lattices need a regular semisimple element")
    *L, last = dual_krylov_rows(X, n + 1)
    if la.mat_mul(L, basis_matrix(X)) != M:
        raise AssertionError("the moment matrix does not have determinant d_n")
    Li = la.inverse(L)
    ring = la._ring(ctx)
    dot = lambda u, v: tuple(map(sum, zip(*map(ring[2], u, v))))
    cn, D = _pairs(la.vec_mat(last, Li))
    m = p ** valuation(D, ctx)
    if selfdual:
        level = valuation_ext(dM, ctx)
        N, DM = _pairs([z for row in la.inverse(M) for z in row])
        N, mM = [N[i:i + n] for i in range(0, n * n, n)], p ** valuation(DM, ctx)
    coords = (lambda z: (z.x.numerator, z.y.numerator)) if selfdual else (lambda z: (z.numerator, 0))
    out = []
    for H, _ in (intermediate_lattices_ext if selfdual else intermediate_lattices)(M, ctx):
        Hc = [[coords(z) for z in row] for row in H]
        Hcols = list(zip(*Hc))
        if selfdual:
            if prod(Hc[i][i][0] for i in range(n)) ** 2 != p ** level:
                continue
            NH = [[dot(row, col) for col in Hcols] for row in N]
            gram = [dot([(x, -y) for x, y in a], b) for a in Hcols for b in zip(*NH)]
            if any(x % mM or y % mM for x, y in gram):
                continue
        CH = [[(D * x, D * y) for x, y in row] for row in Hc[1:]] + [[dot(cn, c) for c in Hcols]]
        if _in_lattice(Hc, zip(*CH), m, ring):
            out.append(la.mat_mul(Li, H))
    return out


def admissible_lattices_gl(X: Triple, ctx: PLocalContext) -> list[Lattice]:
    """All lattices stable under the matrix, containing the vector and
    integral against the covector, in p-normalized Hermite form."""
    return [hermite_normalize(B, ctx) for B in _admissible_bases(X, ctx, False)]


@dataclass(frozen=True)
class OrbitalReport:
    side: str
    a: InvariantPoint
    value: Fraction
    lattice_count: int
    p: int


def orbital_gl(X: Triple, ctx: PLocalContext) -> OrbitalReport:
    """Transfer-normalized signed lattice count for the unit function."""
    lats = admissible_lattices_gl(X, ctx)
    total = 0
    for lat in lats:
        d = Fraction(1)
        for i in range(lat.n):
            d *= lat.basis[i][i]
        total += eta(d, ctx)
    val = Fraction(transfer_factor_eta(X, ctx) * total)
    return OrbitalReport("gl", invariants(X), val, len(lats), ctx.p)


# ---------------------------------------------------------------------------
# hermitian side: self-dual lattices over the inert quadratic extension


def intermediate_lattices_ext(M, ctx: PLocalContext):
    """Extension version of the intermediate-lattice enumeration: all
    integral HNF bases H with O_E^n >= H O_E^n >= M O_E^n, with H^{-1}."""
    return _lattices_between(M, ctx, ext=True)


def selfdual_admissible_lattices(X: HermitianPair, ctx: PLocalContext):
    """Self-dual stable lattices containing the vector: the admissible
    lattices of the linear triple (A, b, sigma(b)^T Gram) over the extension
    whose Gram matrix is unimodular."""
    return _admissible_bases(X.triple, ctx, True)


def orbital_u(X: HermitianPair, ctx: PLocalContext) -> OrbitalReport:
    """Count of self-dual stable lattices containing the vector; zero when
    the form carries no self-dual lattice (empty rational fiber for the
    unit datum on that class)."""
    return _orbital_u(X, ctx, classify_form_local(X.form, ctx)["disc_is_norm"])


def _orbital_u(X: HermitianPair, ctx: PLocalContext, norm: bool) -> OrbitalReport:
    """`orbital_u` for a form whose class is known (`norm`: its discriminant is a norm)."""
    lats = selfdual_admissible_lattices(X, ctx) if norm else []
    return OrbitalReport("unitary", u_invariants(X), Fraction(len(lats)), len(lats), ctx.p)


# ---------------------------------------------------------------------------
# the one-dimensional torus example


def toy_gl_orbital(a, ctx: PLocalContext) -> Fraction:
    """Alternating unit-ball count over the torus orbit through (1, a); at
    a = 0 the two one-sided geometric series are taken at their symmetric
    value 1/2 each (vol(O^x) = 1)."""
    a = Fraction(a)
    if a == 0:
        return Fraction(1, 2) + Fraction(1, 2)
    v = valuation(a, ctx)
    if v < 0:
        return Fraction(0)
    return Fraction(1) if v % 2 == 0 else Fraction(0)


def toy_u_orbital(a, nu, ctx: PLocalContext) -> Fraction:
    """1 when the norm fiber over nu*a meets the integers, else 0."""
    a = Fraction(a)
    if a == 0:
        return Fraction(1)
    scale = Fraction(1) if nu == "norm" else Fraction(ctx.p)
    v = valuation(scale * a, ctx)
    return Fraction(1) if (v >= 0 and v % 2 == 0) else Fraction(0)


def toy_transfer_check(ctx: PLocalContext, values) -> dict:
    """Matching of the torus count against the sum over norm classes; the
    non-norm test function vanishes for the unit datum, so only the norm
    class contributes."""
    failures = []
    vals = list(values)
    for a in vals:
        lhs = toy_gl_orbital(a, ctx)
        rhs = toy_u_orbital(a, "norm", ctx)
        if lhs != rhs:
            failures.append({"a": str(a), "lhs": str(lhs), "rhs": str(rhs)})
    return {"p": ctx.p, "values": len(vals), "failures": failures}


# ---------------------------------------------------------------------------
# matched pairs and the unit-function comparison


def gl_representative_of_point(a: InvariantPoint) -> Triple:
    """Companion-model triple with the given regular invariant point."""
    n = a.n
    if d_r_of_point(a, n) == 0:
        raise ValueError("point is not regular semisimple")
    C = companion_matrix([Fraction(x) for x in a.a])
    b = [Fraction(1)] + [Fraction(0)] * (n - 1)
    c = [Fraction(x) for x in a.b]
    return Triple(C, b, c)


def fl_check(n: int, ctx: PLocalContext, budget: int, seed: int = 0,
             samples: int = 20) -> dict:
    """Unit-function comparison across the two sides over matched invariant
    points: exhaustive in the moment valuation at n = 1, sampled at n = 2.
    Odd valuation forces both sides to vanish; the non-norm form class
    carries the zero unit component, so there the linear side must vanish
    by itself."""
    import random

    if n not in (1, 2):
        raise ValueError("the comparison runs at n = 1 or 2")
    rng = random.Random(seed)
    p = ctx.p
    eps = ctx.eps
    results = []
    failures = []

    def compare(a: InvariantPoint, tag):
        Xgl = gl_representative_of_point(a)
        gl_rep = orbital_gl(Xgl, ctx)
        Xu = hankel_pair_for_point(a, ctx)
        norm = classify_form_local(Xu.form, ctx)["disc_is_norm"]
        u_rep = _orbital_u(Xu, ctx, norm)
        if norm:
            ok = gl_rep.value == u_rep.value
        else:
            ok = gl_rep.value == 0 and u_rep.value == 0
        dn = d_r_of_point(a, n)
        if valuation(dn, ctx) % 2 == 1:
            ok = ok and gl_rep.value == 0
        entry = {"tag": tag,
                 "a": {"a": [str(x) for x in a.a], "b": [str(x) for x in a.b]},
                 "v_dn": valuation(dn, ctx),
                 "gl": str(gl_rep.value), "gl_lattices": gl_rep.lattice_count,
                 "u": str(u_rep.value), "disc_is_norm": norm,
                 "ok": ok}
        results.append(entry)
        if not ok:
            failures.append(entry)

    if n == 1:
        for w in range(budget + 1):
            for unit in (1, eps):
                for a1 in (0, 1, p):
                    b1 = Fraction(unit * p ** w)
                    compare(InvariantPoint((Fraction(a1),), (b1,)),
                            f"v={w},u={unit},a1={a1}")
    else:
        def draw():
            a = InvariantPoint((Fraction(rng.randint(-p, p)), Fraction(rng.randint(-p, p))),
                               (Fraction(rng.randint(-p, p)), Fraction(rng.randint(-p, p))))
            dn = d_r_of_point(a, 2)
            return a if dn and 0 <= valuation(dn, ctx) <= budget else None

        for k, a in enumerate(_accepted(draw, samples, 500 * samples)):
            compare(a, f"sample{k}")
    return {"n": n, "p": p, "seed": seed, "results": results,
            "failures": failures,
            "pass": f"{len(results) - len(failures)}/{len(results)}"}


def is_instable(coeffs_and_translates, ctx: PLocalContext, sample_points) -> dict:
    """Sampled vanishing of the signed-count functional for a finite signed
    combination of translated unit functions.

    A left translate multiplies every integral by the character of its
    determinant, so the combination's integrals are a single scalar times
    the unit integrals; vanishing is certified exactly when that scalar is
    zero, and otherwise tested against the sampled regular points (the
    sampled direction is one-sided)."""
    total_char = Fraction(0)
    for coeff, g in coeffs_and_translates:
        d = la.det([[Fraction(x) for x in row] for row in g])
        if d == 0:
            raise ValueError("singular translate")
        total_char += Fraction(coeff) * eta(d, ctx)
    samples = []
    vanished = True
    for a in sample_points:
        Xgl = gl_representative_of_point(a)
        base = orbital_gl(Xgl, ctx)
        val = total_char * base.value
        samples.append({"a": [str(x) for x in a.a + a.b], "value": str(val)})
        if val != 0:
            vanished = False
    return {"instable": vanished, "certificate": total_char == 0,
            "samples": samples}
